"""Tests for the shared reducer, Buchberger bases, and ideal operations."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sepinv import Caps, Ideal, PolynomialRing, make_field
from sepinv import groebner
from sepinv.errors import ResourceCapExceeded, UnitIdeal
from sepinv.groebner import (
    groebner_basis,
    interreduce,
    normal_form,
    s_polynomial,
)
from sepinv.poly import GREVLEX, LEX, Block

from .oracles import GradedQuotient, monomials, naive_from, naive_to

F2 = make_field(2)
F5 = make_field(5)
R = PolynomialRing(F5, ("x", "y", "z"))
RL = R.with_order(LEX)


def random_poly(ring, rng, terms=4, degree=3):
    table = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(degree + 1) for _ in ring.variables)
        table[ring.pack(exps)] = rng.randrange(1, ring.field.p)
    return ring.from_dict(table)


def is_reduced_basis(gb):
    """Monic, and no monomial of one element divisible by another's lead."""
    ring = gb[0].ring
    for g in gb:
        if g.leading_coefficient() != 1:
            return False
    for i, g in enumerate(gb):
        for j, h in enumerate(gb):
            if i == j:
                continue
            lead = h.leading_monomial()
            for m, _ in g.terms:
                if ring.mono_divides(lead, m):
                    return False
    return True


def spolys_reduce_to_zero(gb):
    return all(
        normal_form(s_polynomial(f, g), gb).is_zero()
        for f, g in itertools.combinations(gb, 2)
    )


@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from([2, 3, 5]),
    order=st.sampled_from([GREVLEX, LEX, Block(1, GREVLEX, GREVLEX)]),
    data=st.data(),
)
def test_normal_form_agrees_with_macaulay_matrix_oracle(p, order, data):
    # f - nf(f) lies in the ideal by linear algebra on the generators alone,
    # and nf(f) is reduced: together that is f = sum q_i g_i + r
    ring = PolynomialRing(make_field(p), ("x", "y", "z"), order)

    def homogeneous(degree):
        monos = data.draw(st.lists(st.sampled_from(monomials(3, degree)),
                                   min_size=1, max_size=4, unique=True))
        coeffs = data.draw(st.lists(st.integers(1, p - 1), min_size=len(monos),
                                    max_size=len(monos)))
        return naive_to(ring, dict(zip(monos, coeffs)))

    gens = [homogeneous(data.draw(st.integers(1, 3)))
            for _ in range(data.draw(st.integers(1, 3)))]
    f = homogeneous(data.draw(st.integers(1, 4)))
    gb = groebner_basis(gens)
    r = normal_form(f, gb)
    quotient = GradedQuotient(3, [naive_from(g) for g in gens], p)
    top = max(ring.mono_degree(m) for m, _ in f.terms)
    assert not any(quotient.reduce(naive_from(f - r), top))
    leads = [g.leading_monomial() for g in gb]
    assert not any(ring.mono_divides(lead, m) for m, _ in r.terms for lead in leads)
    # the reducer emits terms in decreasing order; nothing re-sorts them
    for h in gb + [r]:
        keys = [ring.key(m) for m, _ in h.terms]
        assert all(a > b for a, b in zip(keys, keys[1:]))


def test_s_polynomial_cancels_leading_terms():
    f = R.parse("x^2*y + z")
    g = R.parse("x*y^2 + x")
    s = s_polynomial(f, g)
    assert s == R.parse("y*z - x^2")
    L = R.mono_lcm(f.leading_monomial(), g.leading_monomial())
    assert R.key(s.leading_monomial()) < R.key(L)


def test_twisted_cubic_lex_basis():
    gens = [RL.parse("x^2 - y"), RL.parse("x^3 - z")]
    gb = groebner_basis(gens)
    expected = [
        RL.parse("x^2 - y"),
        RL.parse("x*y - z"),
        RL.parse("x*z - y^2"),
        RL.parse("y^3 - z^2"),
    ]
    assert sorted(gb, key=lambda g: RL.key(g.leading_monomial())) == sorted(
        expected, key=lambda g: RL.key(g.leading_monomial())
    )


def test_linear_ideal_reduces_to_echelon():
    gb = groebner_basis([R.parse("x + y"), R.parse("y + z"), R.parse("x - z")])
    assert list(gb) == [R.parse("y + z"), R.parse("x - z")] or set(gb) == {
        R.parse("x - z"),
        R.parse("y + z"),
    }
    assert Ideal(R, gb) == Ideal(R, [R.parse("x - z"), R.parse("y + z")])


def test_unit_ideal_collapses():
    gb = groebner_basis([R.parse("x + 1"), R.parse("x")])
    assert len(gb) == 1 and gb[0] == R.one()
    assert Ideal(R, [R.parse("x + 1"), R.parse("x")]).is_unit()


def test_groebner_bases_are_reduced_and_closed():
    rng = random.Random(41)
    for _ in range(12):
        gens = [random_poly(R, rng) for _ in range(3)]
        gb = groebner_basis(gens)
        if gb[0] == R.one():
            continue
        assert is_reduced_basis(gb)
        assert spolys_reduce_to_zero(gb)
        for g in gens:
            assert normal_form(g, gb).is_zero()


def test_reduced_basis_ignores_generator_permutation():
    rng = random.Random(17)
    for _ in range(8):
        gens = [random_poly(R, rng) for _ in range(3)]
        base = groebner_basis(gens)
        for perm in itertools.permutations(gens):
            assert groebner_basis(list(perm)) == base


def test_gf2_groebner_basis_agrees_with_defining_properties():
    ring = PolynomialRing(F2, ("x1", "x2", "x3"))
    gens = [ring.parse("x1^2 + x2*x3"), ring.parse("x1*x2 + x3^2"), ring.parse("x2^3 + x1")]
    gb = groebner_basis(gens)
    assert is_reduced_basis(gb)
    assert spolys_reduce_to_zero(gb)
    for g in gens:
        assert normal_form(g, gb).is_zero()


def test_interreduce_canonicalizes_a_redundant_basis():
    # a Groebner basis of (x, y) with scaled and superfluous members
    polys = [R.parse("2*x"), R.parse("3*y"), R.parse("x^2"), R.parse("x + y")]
    out = interreduce(polys)
    assert out == [R.parse("y"), R.parse("x")]
    assert interreduce([]) == []
    assert interreduce([R.zero(), R.parse("4*z")]) == [R.parse("z")]


def test_ideal_membership():
    I = Ideal(R, [R.parse("x^2 - y"), R.parse("x^3 - z")])
    assert I.contains(R.parse("y^3 - z^2"))
    assert I.contains(R.parse("(x^2 - y)*(x + z) + x*(x^3 - z)"))
    assert not I.contains(R.parse("x"))
    assert not I.contains(R.parse("y"))
    assert I.normal_form(R.parse("x^2")) == I.normal_form(R.parse("y"))


def test_radical_membership():
    I = Ideal(R, [R.parse("x^2"), R.parse("y^3*z")])
    assert I.radical_contains(R.parse("x"))
    assert not I.contains(R.parse("x"))
    assert I.radical_contains(R.parse("x*y + x*z"))
    assert not I.radical_contains(R.parse("y"))
    assert not I.radical_contains(R.parse("y + z"))
    assert Ideal(R, [R.one()]).radical_contains(R.parse("x"))
    assert not Ideal(R, []).radical_contains(R.parse("x"))
    assert Ideal(R, []).radical_contains(R.zero())


def test_radical_membership_answers_members_of_the_ideal_directly(monkeypatch):
    I = Ideal(R, [R.parse("x^2"), R.parse("y^3*z")])
    I.groebner_basis()
    rings = []
    real = groebner.groebner_basis

    def spy(gens, caps):
        rings.append(gens[0].ring)
        return real(gens, caps)

    monkeypatch.setattr(groebner, "groebner_basis", spy)
    assert I.radical_contains(R.parse("x^2*y + y^3*z"))
    assert rings == []  # no basis on the ring with the extra variable
    assert Ideal(R, [R.parse("x^2")]).radical_contains(R.parse("x"))
    assert not Ideal(R, [R.parse("x^2")]).radical_contains(R.parse("y"))
    assert [r.nvars for r in rings].count(R.nvars + 1) == 2


def test_radical_subset_of():
    square = Ideal(R, [R.parse("x^2"), R.parse("y^2")])
    plain = Ideal(R, [R.parse("x"), R.parse("y")])
    assert square.radical_subset_of(plain)
    assert plain.radical_subset_of(square)
    assert not plain.radical_subset_of(Ideal(R, [R.parse("x")]))


def test_ideal_equality_and_sum():
    assert Ideal(R, [R.parse("x"), R.parse("y")]) == Ideal(
        R, [R.parse("x + y"), R.parse("y")]
    )
    assert Ideal(R, [R.parse("x")]) != Ideal(R, [R.parse("x^2")])
    s = Ideal(R, [R.parse("x")]) + Ideal(R, [R.parse("y")])
    assert s == Ideal(R, [R.parse("x"), R.parse("y")])


def test_eliminate_projects_variables():
    I = Ideal(RL, [RL.parse("x^2 - y"), RL.parse("x^3 - z")])
    J = I.eliminate(["x"])
    assert J.ring.variables == ("y", "z")
    assert J == Ideal(J.ring, [J.ring.parse("y^3 - z^2")])
    K = I.eliminate([0, 1])
    assert K.ring.variables == ("z",)
    assert K.is_zero()


def test_intersect_principal_ideals():
    A = Ideal(R, [R.parse("x")])
    B = Ideal(R, [R.parse("y")])
    assert A.intersect(B) == Ideal(R, [R.parse("x*y")])
    C = Ideal(R, [R.parse("x^2 + y")])
    assert A.intersect(C) == Ideal(R, [R.parse("x^3 + x*y")])


def test_intersect_contains_products_and_nothing_extra():
    rng = random.Random(13)
    for _ in range(5):
        A = Ideal(R, [random_poly(R, rng, terms=2, degree=2)])
        B = Ideal(R, [random_poly(R, rng, terms=2, degree=2)])
        meet = A.intersect(B)
        for g in meet.gens:
            assert A.contains(g) and B.contains(g)
        assert meet.gens, "intersection of nonzero ideals is nonzero"


def test_dimension_examples():
    assert Ideal(R, []).dimension() == 3
    assert Ideal(R, [R.parse("x")]).dimension() == 2
    assert Ideal(R, [R.parse("x"), R.parse("y")]).dimension() == 1
    assert Ideal(R, [R.parse("x"), R.parse("y"), R.parse("z")]).dimension() == 0
    assert Ideal(R, [R.parse("x^2 - y"), R.parse("x^3 - z")]).dimension() == 1
    assert Ideal(R, [R.parse("x*y"), R.parse("x*z")]).dimension() == 2
    assert Ideal(R, [R.parse("x*y")]).codimension() == 1
    with pytest.raises(UnitIdeal):
        Ideal(R, [R.one()]).dimension()
    with pytest.raises(UnitIdeal):
        Ideal(R, [R.constant(2)]).dimension()


def test_dimension_via_leading_terms_matches_product_structure():
    # V(x1*x2, x1*x3, x2*x3) is three coordinate lines
    I = Ideal(R, [R.parse("x*y"), R.parse("x*z"), R.parse("y*z")])
    assert I.dimension() == 1


def test_groebner_caps_trigger():
    gens = [RL.parse("x^2 - y"), RL.parse("x^3 - z")]
    with pytest.raises(
        ResourceCapExceeded,
        match=r"^groebner_basis: 2 S-pairs exceed pair_cap 1 \(SEPINV_PAIR_CAP\)$",
    ):
        groebner_basis(gens, Caps(pair_cap=1))
    with pytest.raises(
        ResourceCapExceeded,
        match=r"^groebner_basis: leading degree 3 exceeds degree_cap 2 "
              r"\(SEPINV_DEGREE_CAP\)$",
    ):
        groebner_basis(gens, Caps(degree_cap=2))
    # leads of degree 2 whose S-pair has degree 3
    with pytest.raises(
        ResourceCapExceeded,
        match=r"^groebner_basis: S-pair degree 3 exceeds degree_cap 2 "
              r"\(SEPINV_DEGREE_CAP\)$",
    ):
        groebner_basis([R.parse("x*y + z^2"), R.parse("x*z")], Caps(degree_cap=2))
    # generous caps leave the answer unchanged
    assert groebner_basis(gens, Caps(pair_cap=10_000)) == groebner_basis(gens)


def test_pair_cap_counts_only_the_reduced_pairs():
    # m^18 in 3 variables is already a basis: the chain criterion skips all
    # but 360 of its pairs, and only those are formed and reduced
    gens = [R.from_dict({R.pack(e): 1}) for e in monomials(3, 18)]
    assert groebner_basis(gens, Caps(pair_cap=360)) == groebner_basis(gens)
    with pytest.raises(
        ResourceCapExceeded,
        match=r"^groebner_basis: 360 S-pairs exceed pair_cap 359 "
              r"\(SEPINV_PAIR_CAP\)$",
    ):
        groebner_basis(gens, Caps(pair_cap=359))


def test_ideal_serves_bases_in_other_orders():
    I = Ideal(R, [R.parse("x^2 - y")])
    assert I.groebner_basis() == I.groebner_basis()
    lex_gb = I.groebner_basis(LEX)
    assert lex_gb == I.groebner_basis(LEX)
    assert [g.ring.order for g in lex_gb] == [LEX]
    assert [g.ring.order for g in I.groebner_basis()] == [R.order]
