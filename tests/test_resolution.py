"""Tests for graded free resolutions, Betti numbers, and Hilbert numerators."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from sepinv import (
    Caps,
    Ideal,
    PolynomialRing,
    cohen_macaulay_defect,
    hilbert_numerator,
    make_field,
    minimal_free_resolution,
)
from sepinv import resolution
from sepinv.errors import (
    InternalInconsistency,
    InvalidArgument,
    NonHomogeneousInput,
    ResourceCapExceeded,
    UnitIdeal,
)
from sepinv.poly import GREVLEX, Block, is_homogeneous
from sepinv.resolution import _Chain, _Level

from .oracles import (
    GradedQuotient,
    binomial_dim,
    koszul_graded_betti,
    koszul_projective_dimension,
    level_key,
    monomials,
)

F2 = make_field(2)
F5 = make_field(5)
R2v = PolynomialRing(F5, ("x", "y"))
R3v = PolynomialRing(F5, ("x", "y", "z"))


def check_complex(res):
    """d composed with d vanishes, no unit entries, degrees line up."""
    ring = res.ring
    for k in range(1, res.length + 1):
        mat = res.matrix(k)
        assert len(mat) == len(res.shifts[k - 1])
        for r, row in enumerate(mat):
            assert len(row) == len(res.shifts[k])
            for c, entry in enumerate(row):
                if entry.is_zero():
                    continue
                d = is_homogeneous(entry)
                assert d is not None and d >= 1
                assert d == res.shifts[k][c] - res.shifts[k - 1][r]
    for k in range(2, res.length + 1):
        left = res.matrix(k - 1)
        right = res.matrix(k)
        for i in range(len(left)):
            for c in range(len(res.shifts[k])):
                acc = ring.zero()
                for j in range(len(right)):
                    acc = acc + left[i][j] * right[j][c]
                assert acc.is_zero()


def test_koszul_two_variables():
    res = minimal_free_resolution(Ideal(R2v, [R2v.parse("x"), R2v.parse("y")]))
    assert res.betti_numbers() == [1, 2, 1]
    assert res.graded_betti() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    check_complex(res)


def test_koszul_three_variables():
    I = Ideal(R3v, [R3v.parse("x"), R3v.parse("y"), R3v.parse("z")])
    res = minimal_free_resolution(I)
    assert res.betti_numbers() == [1, 3, 3, 1]
    assert res.graded_betti() == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    check_complex(res)
    assert cohen_macaulay_defect(I) == 0


def test_koszul_on_squares():
    I = Ideal(R3v, [R3v.parse("x^2"), R3v.parse("y^2"), R3v.parse("z^2")])
    res = minimal_free_resolution(I)
    assert res.betti_numbers() == [1, 3, 3, 1]
    assert res.graded_betti() == {(0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1}
    assert res.euler_characteristic() == {0: 1, 2: -3, 4: 3, 6: -1}
    check_complex(res)


def test_matrix_exists_only_for_the_differentials():
    res = minimal_free_resolution(Ideal(R2v, [R2v.parse("x"), R2v.parse("y")]))
    assert res.matrix(2) == ((R2v.parse("y"),), (-R2v.parse("x"),))
    for k in (0, 3):
        with pytest.raises(InvalidArgument, match=f"length 2 has no d_{k}"):
            res.matrix(k)


def test_zero_and_unit_ideals():
    res = minimal_free_resolution(Ideal(R2v, []))
    assert res.length == 0
    assert res.betti_numbers() == [1]
    assert res.euler_characteristic() == {0: 1}
    with pytest.raises(UnitIdeal):
        minimal_free_resolution(Ideal(R2v, [R2v.one()]))


def test_nonhomogeneous_input_rejected():
    with pytest.raises(NonHomogeneousInput):
        minimal_free_resolution(Ideal(R2v, [R2v.parse("x^2 + y")]))
    with pytest.raises(NonHomogeneousInput):
        cohen_macaulay_defect(Ideal(R2v, [R2v.parse("x + 1")]))


def test_depth_zero_example():
    # (x^2, x*y): the maximal ideal is associated, so depth drops to zero
    I = Ideal(R2v, [R2v.parse("x^2"), R2v.parse("x*y")])
    res = minimal_free_resolution(I)
    assert res.betti_numbers() == [1, 2, 1]
    assert res.length == 2
    assert I.dimension() == 1
    assert cohen_macaulay_defect(I) == 1
    check_complex(res)


def test_plane_plus_line_example():
    # (x*y, x*z) cuts out a plane with an embedded-free extra line
    I = Ideal(R3v, [R3v.parse("x*y"), R3v.parse("x*z")])
    assert I.dimension() == 2
    res = minimal_free_resolution(I)
    assert res.length == 2
    assert cohen_macaulay_defect(I) == 1
    check_complex(res)


def test_hilbert_numerator_examples():
    assert hilbert_numerator(Ideal(R3v, [])) == {0: 1}
    assert hilbert_numerator(Ideal(R3v, [R3v.parse("x")])) == {0: 1, 1: -1}
    quad = Ideal(R3v, [R3v.parse("x^2 + y*z")])
    assert hilbert_numerator(quad) == {0: 1, 2: -1}
    ci = Ideal(R3v, [R3v.parse("x^2"), R3v.parse("y^3")])
    # (1 - t^2)(1 - t^3)
    assert hilbert_numerator(ci) == {0: 1, 2: -1, 3: -1, 5: 1}


def test_resolution_is_checked_against_the_hilbert_numerator(monkeypatch):
    # a numerator shifted up one degree can match no resolution
    numerator = resolution.hilbert_numerator
    monkeypatch.setattr(resolution, "hilbert_numerator", lambda ideal: {
        d + 1: v for d, v in numerator(ideal).items()})
    ci = Ideal(R3v, [R3v.parse("x^2"), R3v.parse("y^3")])
    with pytest.raises(InternalInconsistency, match=(
            "^resolution disagrees with the Hilbert numerator$")):
        minimal_free_resolution(ci)


def test_euler_characteristic_matches_hilbert_numerator():
    rng = random.Random(23)
    for _ in range(6):
        gens = []
        for _ in range(2):
            d = rng.randrange(1, 3)
            table = {}
            for _ in range(3):
                exps = [0, 0, 0]
                left = d
                for i in range(2):
                    e = rng.randrange(left + 1)
                    exps[i] = e
                    left -= e
                exps[2] = left
                table[R3v.pack(tuple(exps))] = rng.randrange(1, 5)
            if table:
                gens.append(R3v.from_dict(table))
        I = Ideal(R3v, [g for g in gens if not g.is_zero()])
        if I.is_unit() or I.is_zero():
            continue
        res = minimal_free_resolution(I)
        assert res.euler_characteristic() == hilbert_numerator(I)
        check_complex(res)


def test_random_triangular_complete_intersections_are_cm():
    rng = random.Random(77)
    for _ in range(8):
        nv = rng.choice((2, 3))
        ring = PolynomialRing(F5, tuple(f"x{i+1}" for i in range(nv)))
        gens = []
        for i in range(nv):
            d = rng.randrange(1, 4)
            lead = ring.var(i) ** d
            tail = ring.zero()
            for j in range(i + 1, nv):
                if rng.randrange(2):
                    tail = tail + ring.constant(rng.randrange(1, 5)) * ring.var(j) ** d
            gens.append(lead + tail)
        count = rng.randrange(1, nv + 1)
        I = Ideal(ring, gens[:count])
        res = minimal_free_resolution(I)
        assert res.length == count
        assert cohen_macaulay_defect(I) == 0


def test_resolution_agrees_with_koszul_homology_oracle():
    cases = [
        [("x", "y")],
    ]
    samples = [
        [(2, 0), (1, 1)],  # x^2, x*y in 2 vars
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],  # x, y, z
        [(1, 1, 0), (1, 0, 1)],  # x*y, x*z
    ]
    for exps in samples:
        nv = len(exps[0])
        ring = PolynomialRing(F5, tuple("xyz"[:nv]))
        gens = [ring.from_dict({ring.pack(e): 1}) for e in exps]
        I = Ideal(ring, gens)
        res = minimal_free_resolution(I)
        oracle_pd = koszul_projective_dimension(nv, [
            {e: 1} for e in exps
        ], 5, max_degree=8)
        assert res.length == oracle_pd

    # over F_2, generators that are not monomials, so the syzygy cascade
    # cancels coefficients rather than only comparing supports
    f2_samples = [
        # x^2 + y*z, x*y + z^2: a complete intersection
        [{(2, 0, 0): 1, (0, 1, 1): 1}, {(1, 1, 0): 1, (0, 0, 2): 1}],
        # (x + y) * (x, y, z): depth zero
        [{(2, 0, 0): 1, (1, 1, 0): 1}, {(1, 1, 0): 1, (0, 2, 0): 1},
         {(1, 0, 1): 1, (0, 1, 1): 1}],
        # x^2 + y*z, y^2 + x*z, x*y + z^2, x*y*z: Artinian, not a complete
        # intersection
        [{(2, 0, 0): 1, (0, 1, 1): 1}, {(0, 2, 0): 1, (1, 0, 1): 1},
         {(1, 1, 0): 1, (0, 0, 2): 1}, {(1, 1, 1): 1}],
        # 2x2 minors of [[x, y, z], [y, z, w]]: the twisted cubic
        [{(0, 1, 1, 0): 1, (1, 0, 0, 1): 1}, {(0, 2, 0, 0): 1, (1, 0, 1, 0): 1},
         {(0, 0, 2, 0): 1, (0, 1, 0, 1): 1}],
    ]
    for tables in f2_samples:
        nv = len(next(iter(tables[0])))
        ring = PolynomialRing(F2, tuple("xyzw"[:nv]))
        gens = [ring.from_dict({ring.pack(e): c for e, c in t.items()})
                for t in tables]
        res = minimal_free_resolution(Ideal(ring, gens))
        check_complex(res)
        oracle_pd = koszul_projective_dimension(nv, tables, 2, max_degree=8)
        assert res.length == oracle_pd


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_graded_betti_numbers_match_koszul_homology(data):
    p = data.draw(st.sampled_from([2, 3]), label="p")
    ring = PolynomialRing(make_field(p), ("x", "y", "z"))
    tables = []
    for _ in range(data.draw(st.integers(1, 3), label="generators")):
        d = data.draw(st.integers(1, 3), label="degree")
        support = data.draw(st.lists(st.sampled_from(monomials(3, d)),
                                     min_size=1, max_size=3, unique=True))
        tables.append({e: data.draw(st.integers(1, p - 1)) for e in support})
    I = Ideal(ring, [ring.from_dict({ring.pack(e): c for e, c in t.items()})
                     for t in tables])
    assume(not I.is_unit())
    betti = minimal_free_resolution(I).graded_betti()
    # two degrees past the top shift, where the oracle must find nothing more
    top = max(d for _, d in betti) + 2
    assert betti == koszul_graded_betti(3, tables, p, top)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_linear_forms_tensor_back_in_as_a_koszul_complex(data):
    # R/I = R/J (x) K(l): the oracle sees I as given, the engine splits the
    # linear forms l off its reduced basis and resolves only the rest, J.
    # The other generators use the first form's lead variable, so that
    # variable leaves them only when the basis is reduced.
    p = data.draw(st.sampled_from([2, 3]), label="p")
    ring = PolynomialRing(make_field(p), ("x", "y", "z", "w"))
    coefficient = st.integers(1, p - 1)

    def table(degree, through=None):
        pool = monomials(4, degree)
        first = data.draw(st.sampled_from(
            [e for e in pool if through is None or e[through]]))
        rest = data.draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
        return {e: data.draw(coefficient) for e in [first] + rest}

    def poly(t):
        return ring.from_dict({ring.pack(e): c for e, c in t.items()})

    tables = [table(1) for _ in range(data.draw(st.integers(1, 2), label="linear"))]
    lead = ring.unpack(poly(tables[0]).leading_monomial()).index(1)
    tables += [table(data.draw(st.integers(2, 3), label="degree"), lead)
               for _ in range(data.draw(st.integers(1, 2), label="others"))]
    I = Ideal(ring, [poly(t) for t in tables])
    assume(not I.is_unit())
    res = minimal_free_resolution(I)
    check_complex(res)
    betti = res.graded_betti()
    top = max(d for _, d in betti) + 2
    assert betti == koszul_graded_betti(4, tables, p, top)


def test_chain_check_runs_on_the_assembled_koszul_tensor(monkeypatch):
    # (x, y^2, z^2): J = (y^2, z^2) tensored with K(x); negate the Koszul
    # entry x of one column y^2 (x) e_x in d_2
    I = Ideal(R3v, [R3v.parse("x"), R3v.parse("y^2"), R3v.parse("z^2")])
    assert minimal_free_resolution(I).betti_numbers() == [1, 3, 3, 1]
    assemble = resolution._koszul_tensor
    x = R3v.pack((1, 0, 0))
    mono = (1 << R3v.term_shift) - 1

    def tampered(*args):
        chain = assemble(*args)
        col, t = next((c, t) for c in chain.d[2].values() if len(c) > 1
                      for t in c if (t & mono) == x)
        col[t] = F5.neg(col[t])
        return chain

    monkeypatch.setattr(resolution, "_koszul_tensor", tampered)
    with pytest.raises(InternalInconsistency,
                       match="^composite differential is nonzero$"):
        minimal_free_resolution(Ideal(R3v, I.gens))


def test_chain_rejects_entries_that_disagree_with_their_shift(monkeypatch):
    # the top column of the assembled (x, y^2, z^2) complex, times y: its
    # entries share one degree, one more than its shift says
    assemble = resolution._koszul_tensor
    chains = []

    def keep(*args):
        chains.append(assemble(*args))
        return chains[-1]

    monkeypatch.setattr(resolution, "_koszul_tensor", keep)
    I = Ideal(R3v, [R3v.parse("x"), R3v.parse("y^2"), R3v.parse("z^2")])
    assert minimal_free_resolution(I).betti_numbers() == [1, 3, 3, 1]
    chain, = chains
    assert chain.shifts[3] == {0: 5}
    _Chain(R3v, chain.shifts, chain.d)
    y = R3v.pack((0, 1, 0))
    chain.d[3][0] = {t + y: c for t, c in chain.d[3][0].items()}
    with pytest.raises(InternalInconsistency,
                       match="^inhomogeneous differential entry$"):
        _Chain(R3v, chain.shifts, chain.d)


@pytest.mark.parametrize("gens", [
    ["x^2 - y*z", "3*x*y + z^2"],
    ["x + 2*y - z", "x^2 - y*z", "3*x*y + z^2"],
])
def test_inject_into_an_extension_field_keeps_the_ideal(gens):
    # a prime-field element keeps its raw int in F_{p^e}, so inject moves an
    # ideal there unchanged: same reduced basis, same graded Betti numbers
    F25 = make_field(5, 2, [2, 0, 1])
    R25 = PolynomialRing(F25, R3v.variables)
    I = Ideal(R3v, [R3v.parse(g) for g in gens])
    J = Ideal(R25, [g.inject(R25, (0, 1, 2)) for g in I.gens])
    assert [g.terms for g in J.groebner_basis()] == [
        g.terms for g in I.groebner_basis()]
    assert minimal_free_resolution(J).graded_betti() == (
        minimal_free_resolution(I).graded_betti())


def test_graded_quotient_oracle_matches_engine_hilbert_function():
    # graded piece dimensions predicted by the numerator against brute force
    gens = [R3v.parse("x^2"), R3v.parse("x*y")]
    I = Ideal(R3v, gens)
    num = hilbert_numerator(I)
    oracle = GradedQuotient(3, [{(2, 0, 0): 1}, {(1, 1, 0): 1}], 5)
    for d in range(7):
        predicted = sum(c * binomial_dim(3, d - e) for e, c in num.items())
        assert oracle.dim(d) == predicted


def test_betti_table_renders():
    res = minimal_free_resolution(Ideal(R2v, [R2v.parse("x"), R2v.parse("y")]))
    text = res.betti_table()
    assert "0" in text and "2" in text
    assert len(text.splitlines()) >= 3


def koszul_chain(ring):
    """The Koszul complex on x, y, z as a `_Chain`, from its matrices."""
    x, y, z = (ring.var(i) for i in range(3))
    zero = ring.zero()
    mats = [
        [[x, y, z]],
        [[y, z, zero], [-x, zero, z], [zero, -x, -y]],
        [[z], [-y], [x]],
    ]
    shifts = [{0: 0}]
    d = [{}]
    for k, mat in enumerate(mats, 1):
        shifts.append({j: k for j in range(len(mat[0]))})
        d.append({
            j: {ring.term(r, m): c
                for r, row in enumerate(mat) for m, c in row[j].terms}
            for j in range(len(mat[0]))
        })
    return _Chain(ring, shifts, d)


def test_chain_check_rejects_a_nonzero_composite():
    chain = koszul_chain(R3v)
    chain.check()
    # d[k] maps column id -> packed term (row id, monomial) -> coefficient;
    # y becomes 2y in d_2
    y = R3v.term(0, R3v.pack((0, 1, 0)))
    chain.d[2][0][y] = F5.mul(chain.d[2][0][y], 2)
    with pytest.raises(InternalInconsistency, match="composite"):
        chain.check()


def test_chain_check_rejects_a_unit_entry():
    chain = koszul_chain(R3v)
    # a constant term in row 1 of d_3's one column
    chain.d[3][0][R3v.term(1, 0)] = 1
    with pytest.raises(InternalInconsistency, match="unit entry"):
        chain.check()


def test_cohen_macaulay_defect_reuses_the_resolution(monkeypatch):
    I = Ideal(R3v, [R3v.parse("x*y"), R3v.parse("x*z")])
    res = minimal_free_resolution(I)

    def again(ideal):
        raise AssertionError("the ideal was resolved twice")

    monkeypatch.setattr(resolution, "minimal_free_resolution", again)
    assert cohen_macaulay_defect(I) == I.dimension() - (3 - res.length)


def test_level_key_compares_images_then_prefers_the_smaller_component():
    ring = R3v
    x, y, z = (ring.pack(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    level = _Level(ring, _Level(ring), [x, y])
    # e_0*y and e_1*x have the same image x*y: component 0 wins
    assert level.key(ring.term(0, y)) > level.key(ring.term(1, x))
    # a larger image wins whatever the component: x^2*y > x*y^2
    assert level.key(ring.term(1, ring.pack((2, 0, 0)))) > level.key(
        ring.term(0, ring.pack((0, 2, 0))))
    # one level down, e_0*z and e_1*z map to e_0*y*z and e_1*x*z, whose
    # images tie at x*y*z: the tie-break of the level above decides
    nxt = _Level(ring, level, [ring.term(0, y), ring.term(1, x)])
    assert nxt.key(ring.term(0, z)) > nxt.key(ring.term(1, z))
    # five components need a three-bit component field
    wide = _Level(ring, _Level(ring), [x, y, z, x, y])
    ranked = sorted(range(5), key=lambda c: wide.key(ring.term(c, 0)), reverse=True)
    assert ranked == [0, 3, 1, 4, 2]


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_level_keys_follow_the_recursive_definition(data):
    n = data.draw(st.integers(1, 4))
    order = data.draw(st.one_of(st.just(GREVLEX),
                                st.builds(Block, st.integers(0, n))))
    ring = PolynomialRing(F5, tuple(f"x{i}" for i in range(n)), order)
    # at most 3 * 24 from the leads plus 55 from the term: below 128
    lead_exps = st.lists(st.integers(0, 24), min_size=n, max_size=n).map(tuple)
    term_exps = st.lists(st.integers(0, 55), min_size=n, max_size=n).map(tuple)
    level, leads, count = _Level(ring), [], 1
    for _ in range(data.draw(st.integers(2, 3))):
        row = data.draw(st.lists(
            st.tuples(st.integers(0, count - 1), lead_exps),
            min_size=1, max_size=9))
        level = _Level(ring, level,
                       [ring.term(c, ring.pack(e)) for c, e in row])
        leads.append(row)
        count = len(row)
    for _ in range(8):
        c = data.draw(st.integers(0, count - 1))
        exps = data.draw(term_exps)
        assert level.key(ring.term(c, ring.pack(exps))) == level_key(
            lambda e: ring.key(ring.pack(e)), leads, c, exps)


def test_resolution_pair_cap_counts_every_level():
    gens = [R3v.parse("x"), R3v.parse("y"), R3v.parse("z")]
    # all linear, so no pair is reduced: the Koszul complex on x, y, z has
    # three syzygy columns in homological degree 2 and a fourth in degree 3
    with pytest.raises(
        ResourceCapExceeded,
        match=r"^minimal_free_resolution: 4 syzygy pairs exceed pair_cap 3 "
              r"\(SEPINV_PAIR_CAP\)$",
    ):
        minimal_free_resolution(Ideal(R3v, gens, Caps(pair_cap=3)))
    res = minimal_free_resolution(Ideal(R3v, gens, Caps(pair_cap=4)))
    assert res.betti_numbers() == [1, 3, 3, 1]


def test_resolution_pair_cap_counts_only_the_frame_pairs():
    # m^18 in 3 variables: 360 pairs on the first level and 171 on the
    # second, against 17,955 + 171 when every pair in a component is reduced
    gens = [R3v.from_dict({R3v.pack(e): 1}) for e in monomials(3, 18)]
    with pytest.raises(
        ResourceCapExceeded,
        match=r"^minimal_free_resolution: 531 syzygy pairs exceed pair_cap 530 ",
    ):
        minimal_free_resolution(Ideal(R3v, gens, Caps(pair_cap=530)))
    res = minimal_free_resolution(Ideal(R3v, gens, Caps(pair_cap=531)))
    assert res.betti_numbers() == [1, 190, 360, 171]


def test_hilbert_numerator_of_a_thousand_monomials_needs_no_recursion():
    # every degree-44 monomial in 3 variables; one stack frame per generator
    # would pass Python's recursion limit
    gens = frozenset(R3v.pack(e) for e in monomials(3, 44))
    assert len(gens) == 1035
    assert resolution._kpoly(gens, R3v, {}) == {0: 1, 44: -1035, 45: 2024, 46: -990}
