"""Acceptance gate: one test per shipped claim, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion
verdicts.  Expected values marked "reported" in the bundled fixtures come
from the worked examples these models reproduce; values marked "derived"
were frozen from independent oracles (see tests/oracles.py).
"""

import random

import pytest

from sepinv import (
    AffineMap,
    Ideal,
    PolynomialRing,
    SepVarietyModel,
    VarietyPresentation,
    cohen_macaulay_defect,
    connectivity_equivalence_check,
    enumerate_group,
    fixed_locus_codim,
    hilbert_numerator,
    is_invariant,
    make_field,
    min_reflection_number,
    minimal_free_resolution,
    reflection_audit,
    verify_separating_points,
    verify_separating_symbolic,
)
from sepinv.config import Caps
from sepinv.errors import GroupCapExceeded
from sepinv.groebner import groebner_basis, normal_form

from .oracles import koszul_projective_dimension, naive_from
from .test_groebner import is_reduced_basis, spolys_reduce_to_zero
from .test_resolution import check_complex


def test_criterion_1_group_and_invariants_of_the_triangular_model(id10253):
    assert id10253.group.order == 8

    for sigma in id10253.group.generators:
        assert fixed_locus_codim(sigma, id10253.variety) == 1

    assert min_reflection_number(id10253.group, id10253.variety) == 1

    for f in id10253.invariants.values():
        assert is_invariant(f, id10253.group)

    # both printed relations hold on the nose, not merely up to radical
    assert id10253.relations["algebra"].is_zero()
    assert id10253.relations["square"].is_zero()

    f1, f2 = id10253.invariants["f1"], id10253.invariants["f2"]
    f3, f4 = id10253.invariants["f3"], id10253.invariants["f4"]
    h = id10253.invariants["h"]
    assert (f1**3 * h + f1**2 * f3 + f1 * f2**2 * h + f2**2 * f4 + h * h).is_zero()
    g3 = f1 * h + f3
    g4 = f1 * h + f4
    assert (h * h + f1**2 * g3 + f2**2 * g4).is_zero()


def test_criterion_2_cohen_macaulay_defect_triple(id10253):
    model = id10253.model

    differences = model.invariant_difference_ideal()
    assert cohen_macaulay_defect(differences) == 2

    radical = model.separating_variety_radical()
    assert len(model.graph_components()) == 8
    assert cohen_macaulay_defect(radical) == 1

    # same zero set, different ideals
    assert differences.radical_subset_of(radical)
    for g in radical.gens:
        assert differences.radical_contains(g)
    assert differences != radical

    J = id10253.ideals["J"]
    expected = [
        model.inject_x(g) - model.inject_y(g)
        for g in id10253.candidates["main"].polynomials
    ]
    assert J == Ideal(model.doubled_ring, expected)
    assert cohen_macaulay_defect(J) == 0


def test_criterion_3_separating_set_verification_over_extensions(id10253):
    model = id10253.model
    main = id10253.candidates["main"]
    single = id10253.candidates["f1-only"]

    assert verify_separating_symbolic(main, model)
    assert not verify_separating_symbolic(single, model)

    fields = [
        make_field(2),
        make_field(2, 2, [1, 1, 1]),
        make_field(2, 3, [1, 1, 0, 1]),
    ]
    for field in fields:
        assert verify_separating_points(
            main, id10253.group, id10253.variety, field=field
        )
    for field in fields[:2]:
        assert not verify_separating_points(
            single, id10253.group, id10253.variety, field=field
        )


def random_signed_permutation(rng, field, n):
    images = list(range(n))
    rng.shuffle(images)
    mat = [[0] * n for _ in range(n)]
    for j, i in enumerate(images):
        mat[i][j] = rng.choice((1, field.p - 1))
    return AffineMap(field, mat)


@pytest.mark.parametrize("p,n,count,seed", [(5, 3, 25, 101), (3, 4, 25, 202)])
def test_criterion_4_connectivity_equivalence_on_random_subgroups(p, n, count, seed):
    rng = random.Random(seed)
    field = make_field(p)
    ring = PolynomialRing(field, tuple(f"x{i+1}" for i in range(n)))
    caps = Caps(group_cap=60)

    checked = 0
    disagreements = 0
    seen_orders = set()
    while checked < count:
        gens = [random_signed_permutation(rng, field, n) for _ in range(2)]
        try:
            group = enumerate_group(gens, caps)
        except GroupCapExceeded:
            continue
        checked += 1
        seen_orders.add(group.order)
        X = VarietyPresentation(ring)
        model = SepVarietyModel(X, group)
        for k in range(n + 1):
            # raises EquivalenceViolation on any disagreement
            report = connectivity_equivalence_check(model, k)
            lhs = report.sepvar_connected
            rhs = report.variety_connected and report.reflections_generate
            if lhs != rhs:
                disagreements += 1

    assert checked == count
    assert disagreements == 0
    assert len(seen_orders) > 1, "the sample should not be degenerate"


def test_criterion_5a_additive_groups_defeat_every_reflection_bound():
    from sepinv import bundled

    for p in (2, 3, 5):
        bm = bundled.load("additive-p", p)
        u = bm.invariants["u"]
        assert is_invariant(u, bm.group)
        assert u == bm.ring.parse(f"x1^{p} - x1")

        for sigma in bm.group.elements[1:]:
            assert fixed_locus_codim(sigma, bm.variety) == float("inf")

        comps = bm.model.graph_components()
        assert len(comps) == p
        matrix = bm.model.codim_matrix()
        for i in range(p):
            for j in range(p):
                if i != j:
                    assert matrix[i][j] == float("inf")

        report = reflection_audit(
            bm.model, candidates=list(bm.candidates.values())
        )
        assert report.reflection_bound is None
        assert (
            report.conclusion
            == "no conclusion: the group is not generated by elements with a fixed point"
        )


def test_criterion_5b_two_planes_defeat_the_cohen_macaulay_hypothesis(two_planes):
    assert min_reflection_number(two_planes.group, two_planes.variety) == 2

    presented = two_planes.variety.ideal()
    assert cohen_macaulay_defect(presented) == 1

    # independent oracle: Koszul homology over brute-force Macaulay matrices
    gens = [naive_from(g) for g in presented.gens]
    oracle_pd = koszul_projective_dimension(4, gens, 5, max_degree=10)
    assert oracle_pd == 3
    assert presented.dimension() - (4 - oracle_pd) == 1

    restricted = two_planes.candidates["restricted"]
    assert len(restricted) == 2 == two_planes.variety.dimension()
    assert verify_separating_symbolic(restricted, two_planes.model)

    report = reflection_audit(
        two_planes.model, candidates=list(two_planes.candidates.values())
    )
    assert report.reflection_bound is None
    assert report.conclusion == "no conclusion: X is not Cohen-Macaulay"


def test_criterion_6_engine_self_checks():
    F5 = make_field(5)
    R = PolynomialRing(F5, ("x", "y", "z"))
    rng = random.Random(606)

    def random_poly(ring, terms=4, degree=3):
        table = {}
        for _ in range(terms):
            exps = tuple(rng.randrange(degree + 1) for _ in ring.variables)
            table[ring.pack(exps)] = rng.randrange(1, ring.field.p)
        return ring.from_dict(table)

    # Buchberger closure and canonical form under permutation
    import itertools

    for _ in range(10):
        gens = [random_poly(R) for _ in range(3)]
        gb = groebner_basis(gens)
        if gb[0] == R.one():
            continue
        assert is_reduced_basis(gb)
        assert spolys_reduce_to_zero(gb)
        for g in gens:
            assert normal_form(g, gb).is_zero()
        for perm in itertools.permutations(gens):
            assert groebner_basis(list(perm)) == gb

    # Koszul Betti numbers
    R2 = PolynomialRing(F5, ("x", "y"))
    res2 = minimal_free_resolution(Ideal(R2, [R2.parse("x"), R2.parse("y")]))
    assert res2.betti_numbers() == [1, 2, 1]
    res3 = minimal_free_resolution(
        Ideal(R, [R.parse("x"), R.parse("y"), R.parse("z")])
    )
    assert res3.betti_numbers() == [1, 3, 3, 1]
    check_complex(res2)
    check_complex(res3)

    # twenty random homogeneous complete intersections, all defect zero,
    # every resolution a complex with no unit entries and the right
    # Hilbert numerator
    built = 0
    while built < 20:
        nv = rng.choice((2, 3, 4))
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
        check_complex(res)
        assert res.euler_characteristic() == hilbert_numerator(I)
        assert res.length == count
        assert cohen_macaulay_defect(I) == 0
        built += 1
    assert built == 20


def test_criterion_7_separating_variety_dimension_on_every_bundled_model():
    from sepinv import bundled

    names = [("id10253", None), ("additive-p", 2), ("additive-p", 3),
             ("additive-p", 5), ("two-planes", None)]
    for name, p in names:
        bm = bundled.load(name, p=p)
        dims = bm.variety.component_dimensions()
        assert len(set(dims)) == 1, "bundled varieties are equidimensional"
        n = bm.variety.dimension()
        radical = bm.model.separating_variety_radical()
        assert radical.dimension() == n
        # codimension inside X x X, computed in the doubled ring
        assert 2 * n - radical.dimension() == n
