"""Tests for the shared reducer, Buchberger bases, and ideal operations."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sepinv import Caps, Ideal, PolynomialRing, bundled, make_field
from sepinv import groebner
from sepinv.errors import ResourceCapExceeded, RingMismatch, UnitIdeal
from sepinv.groebner import (
    groebner_basis,
    interreduce,
    normal_form,
    s_polynomial,
)
from sepinv.poly import GREVLEX, Block

from .oracles import (
    GradedQuotient,
    hilbert_function,
    monomials,
    naive_from,
    naive_to,
    rref,
)

F2 = make_field(2)
F5 = make_field(5)
R = PolynomialRing(F5, ("x", "y", "z"))
RB = PolynomialRing(F5, ("x", "y", "z"), Block(1))


def random_poly(ring, rng, terms=4, degree=3):
    table = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(degree + 1) for _ in ring.variables)
        table[ring.pack(exps)] = rng.randrange(1, ring.field.p)
    return ring.from_dict(table)


def homogeneous_poly(data, ring, degree, terms=4):
    """A nonzero form of the given degree with at most `terms` terms."""
    p = ring.field.p
    monos = data.draw(st.lists(st.sampled_from(monomials(ring.nvars, degree)),
                               min_size=1, max_size=terms, unique=True))
    coeffs = data.draw(st.lists(st.integers(1, p - 1), min_size=len(monos),
                                max_size=len(monos)))
    return naive_to(ring, dict(zip(monos, coeffs)))


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
    order=st.sampled_from([GREVLEX, Block(1)]),
    data=st.data(),
)
def test_normal_form_agrees_with_macaulay_matrix_oracle(p, order, data):
    # f - nf(f) lies in the ideal by linear algebra on the generators alone,
    # and nf(f) is reduced: together that is f = sum q_i g_i + r
    ring = PolynomialRing(make_field(p), ("x", "y", "z"), order)
    gens = [homogeneous_poly(data, ring, data.draw(st.integers(1, 3)))
            for _ in range(data.draw(st.integers(1, 3)))]
    f = homogeneous_poly(data, ring, data.draw(st.integers(1, 4)))
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


def test_twisted_cubic_elimination_basis():
    # x first: the basis eliminates x, leaving y^3 - z^2
    gens = [RB.parse("x^2 - y"), RB.parse("x^3 - z")]
    assert groebner_basis(gens) == [
        RB.parse("y^3 - z^2"),
        RB.parse("x*z - y^2"),
        RB.parse("x*y - z"),
        RB.parse("x^2 - y"),
    ]


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
    I = Ideal(R, [R.parse("x^2 - y"), R.parse("x^3 - z")])
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
    with pytest.raises(UnitIdeal):
        Ideal(R, [R.one()]).dimension()
    with pytest.raises(UnitIdeal):
        Ideal(R, [R.constant(2)]).dimension()


def test_dimension_via_leading_terms_matches_product_structure():
    # V(x1*x2, x1*x3, x2*x3) is three coordinate lines
    I = Ideal(R, [R.parse("x*y"), R.parse("x*z"), R.parse("y*z")])
    assert I.dimension() == 1


def test_groebner_caps_trigger():
    gens = [R.parse("x^2 - y"), R.parse("x^3 - z")]
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
    # m^d in 3 variables is already a basis: the Gebauer-Moeller update
    # keeps d*(d+2) of its pairs, beta_1 of m^d (360 for d = 18, 960 for
    # d = 30), and only those are formed and reduced
    for d in (18, 30):
        gens = sorted((R.from_dict({R.pack(e): 1}) for e in monomials(3, d)),
                      key=lambda g: R.key(g.leading_monomial()))
        kept = d * (d + 2)
        assert groebner_basis(gens, Caps(pair_cap=kept)) == gens
        with pytest.raises(
            ResourceCapExceeded,
            match=rf"^groebner_basis: {kept} S-pairs exceed pair_cap "
                  rf"{kept - 1} \(SEPINV_PAIR_CAP\)$",
        ):
            groebner_basis(gens, Caps(pair_cap=kept - 1))


def test_an_ideal_refuses_a_block_ring():
    # block rings serve only the eliminations that run Buchberger directly
    for gens in ([RB.parse("x^2 - y")], []):
        with pytest.raises(RingMismatch,
                           match=r"^ideals live in grevlex rings only$"):
            Ideal(RB, gens)


# -- Buchberger and the t-trick on random small ideals ------------------------

def small_poly(data, ring, degree=2, terms=3):
    """A nonzero polynomial of at most `terms` terms and degree `degree`."""
    p = ring.field.p
    exps = data.draw(st.lists(
        st.tuples(*[st.integers(0, degree)] * ring.nvars)
        .filter(lambda e: sum(e) <= degree),
        min_size=1, max_size=terms, unique=True))
    coeffs = data.draw(st.lists(st.integers(1, p - 1), min_size=len(exps),
                                max_size=len(exps)))
    return naive_to(ring, dict(zip(exps, coeffs)))


def fresh_name(ring):
    return max(ring.variables, key=len) + "_"  # longer than every name


def intersect_by_inject(I, J):
    """Generators of I & J by the same elimination, every polynomial moved
    between rings by `inject` and multiplied out by ring arithmetic."""
    ring = I.ring
    block = PolynomialRing(ring.field, (fresh_name(ring),) + ring.variables,
                           Block(1))
    up = list(range(1, ring.nvars + 1))
    t = block.var(0)
    gens = [t * g.inject(block, up) for g in I.gens]
    gens += [(block.one() - t) * g.inject(block, up) for g in J.gens]
    down = [0] + list(range(ring.nvars))
    return [g.inject(ring, down) for g in groebner_basis(gens)
            if all(block.unpack(m)[0] == 0 for m, _ in g.terms)]


def radical_by_inject(I, f):
    """Rabinowitsch's test with 1 - t*f built by `inject` and ring arithmetic."""
    ring = I.ring
    ext = PolynomialRing(ring.field, ring.variables + (fresh_name(ring),),
                         GREVLEX)
    ident = list(range(ring.nvars))
    t = ext.var(ring.nvars)
    gens = [g.inject(ext, ident) for g in I.gens]
    gens.append(ext.one() - t * f.inject(ext, ident))
    return groebner_basis(gens) == [ext.one()]


@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from([2, 3, 5]),
    order=st.sampled_from([GREVLEX, Block(1)]),
    data=st.data(),
)
def test_buchberger_stays_sound_on_random_ideals(p, order, data):
    ring = PolynomialRing(make_field(p), ("x", "y", "z"), order)
    gens = [small_poly(data, ring) for _ in range(data.draw(st.integers(1, 3)))]
    gb = groebner_basis(gens)
    assert gb
    if gb != [ring.one()]:
        assert is_reduced_basis(gb)
        assert spolys_reduce_to_zero(gb)
    assert all(normal_form(g, gb).is_zero() for g in gens)
    keys = [ring.key(g.leading_monomial()) for g in gb]
    assert keys == sorted(keys)


@settings(deadline=None, max_examples=40)
@given(p=st.sampled_from([2, 3, 5]), data=st.data())
def test_radical_verdict_matches_rabinowitsch_by_inject(p, data):
    ring = PolynomialRing(make_field(p), ("x", "y", "z"))
    gens = [small_poly(data, ring) for _ in range(data.draw(st.integers(1, 2)))]
    f = small_poly(data, ring, degree=1)
    I = Ideal(ring, gens)
    assert I.radical_contains(f) == radical_by_inject(I, f)


@settings(deadline=None, max_examples=40)
@given(p=st.sampled_from([2, 5]), data=st.data())
def test_intersect_agrees_with_the_macaulay_matrix_oracle(p, data):
    # HF(R/(I & J)) = HF(R/I) + HF(R/J) - HF(R/(I + J)) degree by degree,
    # from the exact sequence 0 -> R/(I & J) -> R/I + R/J -> R/(I + J) -> 0
    ring = PolynomialRing(make_field(p), ("x", "y", "z"))

    def ideal():
        return Ideal(ring, [homogeneous_poly(data, ring,
                                             data.draw(st.integers(1, 2)), 3)
                            for _ in range(data.draw(st.integers(1, 2)))])

    I, J = ideal(), ideal()
    meet = I.intersect(J)
    assert [g.terms for g in meet.gens] == \
        [g.terms for g in intersect_by_inject(I, J)]
    degrees = range(5)

    def hf(gens):
        return hilbert_function(3, [naive_from(g) for g in gens], p, degrees)

    for d, a, b, c, m in zip(degrees, hf(I.gens), hf(J.gens),
                             hf(I.gens + J.gens), hf(meet.gens)):
        assert m == a + b - c, f"degree {d}"
    assert all(I.contains(g) and J.contains(g) for g in meet.gens)
    assert all(meet.contains(f * g) for f in I.gens for g in J.gens)


def test_intersect_matches_inject_in_other_rings():
    # an inhomogeneous translation graph, as in additive-p; a ring that
    # already has a variable named _t
    F3 = make_field(3)
    doubled = PolynomialRing(F3, ("x1", "x2", "y1", "y2"))
    named = PolynomialRing(F5, ("_t", "x", "y"))
    cases = [
        (Ideal(doubled, [doubled.parse("y1 - x1 - 1"),
                         doubled.parse("y2 - x2 - x1")]),
         Ideal(doubled, [doubled.parse("y1 - x1"), doubled.parse("y2 - x2")])),
        (Ideal(named, [named.parse("_t^2 + x")]),
         Ideal(named, [named.parse("_t*y - 1"), named.parse("x^2")])),
    ]
    for I, J in cases:
        meet = I.intersect(J)
        ref = intersect_by_inject(I, J)
        assert meet.ring == I.ring
        assert [(g.ring, g.terms) for g in meet.gens] == \
            [(g.ring, g.terms) for g in ref]
        assert all(I.contains(g) and J.contains(g) for g in meet.gens)
        assert all(meet.contains(f * g) for f in I.gens for g in J.gens)
    # the translation graph misses the identity graph: the meet is the product
    I, J = cases[0]
    assert I.intersect(J) == Ideal(doubled, [f * g for f in I.gens
                                             for g in J.gens])


def test_intersect_hands_its_basis_to_the_result(monkeypatch):
    A = Ideal(R, [R.parse("x^2 + y*z"), R.parse("x*y")])
    B = Ideal(R, [R.parse("y^2 - x*z")])
    meet = A.intersect(B)
    calls = []
    real = groebner.groebner_basis

    def spy(gens, caps):
        calls.append(gens[0].ring)
        return real(gens, caps)

    monkeypatch.setattr(groebner, "groebner_basis", spy)
    # the kept grevlex basis is the reduced basis of the generators
    assert meet.groebner_basis() == real(list(meet.gens))
    assert meet.dimension() == 2
    assert meet.contains(R.parse("x*y^3 - x^2*y*z"))
    assert not meet.contains(R.parse("x*y"))
    assert calls == []


# -- affine-linear algebra by rows --------------------------------------------

def raw_poly(data, ring, degree, terms):
    """A polynomial of degree exactly `degree`, at most `terms` terms, with
    raw coefficients drawn from the whole field."""
    exps = data.draw(st.lists(
        st.tuples(*[st.integers(0, degree)] * ring.nvars)
        .filter(lambda e: sum(e) <= degree),
        min_size=1, max_size=terms, unique=True)
        .filter(lambda es: any(sum(e) == degree for e in es)))
    coeffs = data.draw(st.lists(st.integers(1, ring.field.order - 1),
                                min_size=len(exps), max_size=len(exps)))
    return ring.from_dict({ring.pack(e): c for e, c in zip(exps, coeffs)})


def affine_form(ring, row):
    """sum row[i] * x_i + row[-1]: columns in variable order, then 1."""
    table = {ring.var(i).leading_monomial(): c for i, c in enumerate(row[:-1])}
    table[0] = row[-1]
    return ring.from_dict(table)


@settings(deadline=None, max_examples=40)
@given(
    field=st.sampled_from([make_field(2), make_field(3), make_field(5),
                           make_field(2, 2, [1, 1, 1])]),
    data=st.data(),
)
def test_intersect_splits_off_the_shared_linear_forms(field, data):
    # both ideals contain the affine-linear forms C (with translations);
    # the rests are non-linear, and sometimes one side has a linear form
    # of its own
    ring = PolynomialRing(field, ("a", "b", "c", "d"))
    q = field.order
    row = st.lists(st.integers(0, q - 1), min_size=5, max_size=5) \
        .filter(lambda r: any(r[:-1]))
    shared = [affine_form(ring, r)
              for r in data.draw(st.lists(row, min_size=1, max_size=2))]

    def side():
        gens = shared + [raw_poly(data, ring, 2, 3)
                         for _ in range(data.draw(st.integers(0, 2)))]
        if data.draw(st.booleans()):
            gens.append(affine_form(ring, data.draw(row)))
        return Ideal(ring, gens)

    I, J = side(), side()
    meet = I.intersect(J)
    assert [g.terms for g in meet.gens] == \
        [g.terms for g in intersect_by_inject(I, J)]
    assert meet.groebner_basis() == groebner_basis(list(meet.gens))


def test_intersect_split_edge_cases():
    ring = PolynomialRing(F5, ("x", "y", "z", "w"))
    C = [ring.parse("x + 2*y - 1"), ring.parse("z - w + 3")]
    K = [ring.parse("y^2 - w"), ring.parse("y*w^2 + 1")]
    cases = [
        (Ideal(ring, C), Ideal(ring, C + K[:1])),            # I = (C)
        (Ideal(ring, C + K), Ideal(ring, C + K[:1])),        # J within I
        (Ideal(ring, C + K[:1]), Ideal(ring, C + K)),        # I within J
        (Ideal(ring, [ring.parse("x"), ring.parse("x - 1")]),  # C is 1
         Ideal(ring, [ring.parse("y + 1"), ring.parse("y")])),
        (Ideal(ring, [ring.one()]), Ideal(ring, C + K)),     # I is the unit
    ]
    for I, J in cases:
        meet = I.intersect(J)
        assert [g.terms for g in meet.gens] == \
            [g.terms for g in intersect_by_inject(I, J)]
    assert cases[0][0].intersect(cases[0][1]) == cases[0][0]
    assert cases[1][0].intersect(cases[1][1]) == cases[1][1]
    assert cases[2][0].intersect(cases[2][1]) == cases[2][0]
    assert cases[3][0].intersect(cases[3][1]).groebner_basis() == [ring.one()]
    assert cases[4][0].intersect(cases[4][1]) == cases[4][1]


def test_the_fold_substitutes_the_shared_forms_on_one_block_ring(monkeypatch):
    model = bundled.load("id10253").model
    comps = model.graph_components()
    ring = model.doubled_ring
    steps = []  # (meet, block-ring generators) per intersection
    real_gb = groebner.groebner_basis
    real_intersect = Ideal.intersect

    def spy(gens, caps=Caps()):
        if isinstance(gens[0].ring.order, Block):
            steps[-1][1].extend(gens)
        return real_gb(gens, caps)

    def intersect(self, other):
        steps.append([None, []])
        steps[-1][0] = real_intersect(self, other)
        return steps[-1][0]

    monkeypatch.setattr(groebner, "groebner_basis", spy)
    monkeypatch.setattr(Ideal, "intersect", intersect)
    model.separating_variety_radical()
    assert len(steps) == len(comps) - 1
    assert {id(g.ring) for _, gens in steps for g in gens} == \
        {id(ring._t_ring)}
    for meet, gens in steps:
        # the degree-1 elements of the meet are the shared forms C
        pivots = [ring.unpack(g.leading_monomial()).index(1)
                  for g in meet.gens
                  if ring.mono_degree(g.leading_monomial()) == 1]
        assert pivots  # every graph ideal holds x1 + y1 and x3 + y3
        for g in gens:
            for m, _ in g.terms:
                exps = g.ring.unpack(m)[1:]  # t is variable 0
                assert not any(exps[i] for i in pivots)


@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    order=st.sampled_from([GREVLEX, Block(2)]),
    data=st.data(),
)
def test_affine_linear_bases_are_the_reduced_echelon_form(p, order, data):
    ring = PolynomialRing(make_field(p), ("x", "y", "z", "w"), order)
    rows = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=5, max_size=5)
        .filter(any), min_size=1, max_size=5))
    gb = groebner_basis([affine_form(ring, r) for r in rows])
    echelon = [list(r) for r in rows]
    pivots = rref(echelon, p)
    if pivots[-1] == 4:
        assert gb == [ring.one()]
    else:
        assert gb == [affine_form(ring, r) for r in reversed(echelon)]
        assert is_reduced_basis(gb)
        assert spolys_reduce_to_zero(gb)


def test_affine_linear_input_is_still_capped():
    inconsistent = [R.parse("x + y - 1"), R.parse("x + y + 1")]
    assert groebner_basis(inconsistent) == [R.one()]
    with pytest.raises(
        ResourceCapExceeded,
        match=r"^groebner_basis: leading degree 1 exceeds degree_cap 0 "
              r"\(SEPINV_DEGREE_CAP\)$",
    ):
        groebner_basis(inconsistent, Caps(degree_cap=0))
    assert groebner_basis([R.parse("2")], Caps(degree_cap=0)) == [R.one()]
