"""Tests for group enumeration, fixed loci, and variety presentations."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from sepinv import (
    AffineMap,
    Caps,
    Ideal,
    PolynomialRing,
    VarietyPresentation,
    enumerate_group,
    fixed_locus_codim,
    k_reflections,
    make_field,
    min_reflection_number,
    orbit,
    variety_connected_in_codim,
    variety_points,
)
from sepinv.errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    GroupCapExceeded,
    RingMismatch,
    VarietyNotPreserved,
)
from sepinv.group import _closure, generated_by, variety_pairwise_codim
from sepinv.poly import Polynomial

from .oracles import naive_from, naive_variety_points, rank

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


def perm_matrix(field, images):
    n = len(images)
    return AffineMap(
        field, [[1 if images[j] == i else 0 for j in range(n)] for i in range(n)]
    )


def signed_perm(field, images, signs):
    n = len(images)
    mat = [[0] * n for _ in range(n)]
    for j, i in enumerate(images):
        mat[i][j] = signs[j] % field.p
    return AffineMap(field, mat)


def full_space(field, n):
    ring = PolynomialRing(field, tuple(f"x{i+1}" for i in range(n)))
    return VarietyPresentation(ring)


def test_symmetric_group_on_three_letters():
    swap = perm_matrix(F7, (1, 0, 2))
    cycle = perm_matrix(F7, (1, 2, 0))
    G = enumerate_group([swap, cycle])
    assert G.order == 6
    assert G.elements[0] == AffineMap.identity(F7, 3)
    assert G.identity in G
    for a in G:
        assert a.inverse() in G
        for b in G:
            assert a.compose(b) in G


def test_enumeration_is_deterministic():
    swap = perm_matrix(F7, (1, 0, 2))
    cycle = perm_matrix(F7, (1, 2, 0))
    first = enumerate_group([swap, cycle])
    second = enumerate_group([swap, cycle])
    assert first.elements == second.elements
    reordered = enumerate_group([cycle, swap])
    assert set(reordered.elements) == set(first.elements)


def test_signed_permutations_of_the_plane():
    flip = signed_perm(F5, (0, 1), (-1, 1))
    swap = signed_perm(F5, (1, 0), (1, 1))
    G = enumerate_group([flip, swap])
    assert G.order == 8
    assert generated_by(G, [flip, swap])
    assert not generated_by(G, [swap])
    assert not generated_by(G, [flip])


def test_translation_group_and_cap():
    step = AffineMap(F5, [[1]], translation=[1])
    G = enumerate_group([step])
    assert G.order == 5
    with pytest.raises(
        GroupCapExceeded,
        match=r"^enumerate_group: 4 elements exceed group_cap 3 \(SEPINV_GROUP_CAP\)$",
    ):
        enumerate_group([step], Caps(group_cap=3))
    with pytest.raises(ValueError):
        enumerate_group([])


def test_mixed_generators_rejected():
    with pytest.raises(DimensionMismatch):
        enumerate_group([AffineMap(F5, [[1]]), AffineMap(F2, [[1]])])
    with pytest.raises(DimensionMismatch):
        enumerate_group(
            [AffineMap(F5, [[1]]), AffineMap(F5, [[1, 0], [0, 1]])]
        )


def test_fixed_locus_codim_is_rank_of_sigma_minus_one():
    rng = random.Random(314)
    for p, n in ((5, 3), (3, 4), (7, 2)):
        field = make_field(p)
        X = full_space(field, n)
        for _ in range(12):
            while True:
                mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                try:
                    sigma = AffineMap(field, mat)
                    break
                except ValueError:
                    continue
            delta = [
                [(mat[i][j] - (1 if i == j else 0)) % p for j in range(n)]
                for i in range(n)
            ]
            assert fixed_locus_codim(sigma, X) == rank(delta, p)


def test_fixed_locus_of_translation_is_empty():
    X = full_space(F5, 1)
    step = AffineMap(F5, [[1]], translation=[1])
    assert fixed_locus_codim(step, X) == math.inf
    assert fixed_locus_codim(AffineMap.identity(F5, 1), X) == 0


def test_fixed_locus_codim_respects_the_variety(two_planes):
    # sigma fixes a plane of K^4 but only a line of X
    X = two_planes.variety
    sigma = two_planes.group.elements[1]
    ambient = full_space(F5, 4)
    assert fixed_locus_codim(sigma, ambient) == 2
    assert fixed_locus_codim(sigma, X) == 2


def test_k_reflections_are_monotone(two_planes):
    G = two_planes.group
    X = two_planes.variety
    previous = set()
    for k in range(0, 3):
        current = set(k_reflections(G, X, k))
        assert previous <= current
        previous = current
    assert len(k_reflections(G, X, 0)) == 1
    assert len(k_reflections(G, X, 2)) == 2
    with pytest.raises(ValueError):
        k_reflections(G, X, -1)


def test_min_reflection_number_examples(two_planes, additive3):
    assert min_reflection_number(two_planes.group, two_planes.variety) == 2
    assert min_reflection_number(additive3.group, additive3.variety) is None
    ident_only = enumerate_group([AffineMap.identity(F5, 2)])
    assert min_reflection_number(ident_only, full_space(F5, 2)) == 0


def test_variety_presentation_basics(two_planes):
    X = two_planes.variety
    assert X.n == 4
    assert X.component_dimensions() == (2, 2)
    assert X.dimension() == 2
    assert not X.is_affine_space()
    assert full_space(F5, 3).is_affine_space()
    ideal = X.ideal()
    ring = X.ring
    assert ideal.contains(ring.parse("x1^2 - x3^2"))
    assert ideal.contains(ring.parse("x2^2 - x4^2"))
    assert ideal.contains(ring.parse("x1*x2 - x3*x4"))
    assert not ideal.contains(ring.parse("x1 - x3"))


def test_variety_rejects_foreign_components():
    ring = PolynomialRing(F5, ("x", "y"))
    other = PolynomialRing(F5, ("a", "b"))
    with pytest.raises(Exception):
        VarietyPresentation(ring, [Ideal(other, [other.parse("a")])])


def test_check_group_action_raises_when_not_preserved(two_planes):
    X = two_planes.variety
    bad = AffineMap(F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    G = enumerate_group([bad])
    with pytest.raises(VarietyNotPreserved):
        X.check_group_action(G)
    X.check_group_action(two_planes.group)


def test_transformed_component_permutes_planes(two_planes):
    X = two_planes.variety
    sigma = two_planes.group.elements[1]
    a, b = X.components
    assert X.transformed_component(a, sigma) == b
    assert X.transformed_component(b, sigma) == a
    ident = two_planes.group.identity
    assert X.transformed_component(a, ident) == a


def test_variety_points_counts(two_planes):
    pts = variety_points(two_planes.variety)
    assert len(pts) == 49
    for pt in pts:
        assert (pt[0] - pt[2]) % 5 == 0 and (pt[1] - pt[3]) % 5 == 0 or (
            pt[0] + pt[2]
        ) % 5 == 0 and (pt[1] + pt[3]) % 5 == 0
    square = full_space(F2, 2)
    assert len(variety_points(square)) == 4
    F4 = make_field(2, 2, [1, 1, 1])
    assert len(variety_points(square, field=F4)) == 16
    with pytest.raises(
        EnumerationCapExceeded,
        match=r"^variety_points: 625 candidate points exceed point_cap 10 "
        r"\(SEPINV_POINT_CAP\)$",
    ):
        variety_points(VarietyPresentation(
            two_planes.ring, two_planes.variety.components, Caps(point_cap=10)))


def test_variety_points_obeys_the_presentations_enum_cap():
    F8 = make_field(2, 3, [1, 1, 0, 1])
    ring = PolynomialRing(F8, ("x", "y"))
    with pytest.raises(
        EnumerationCapExceeded,
        match=r"^enumerate_raw: field has 8 elements, exceeding enum_cap 4 "
        r"\(SEPINV_ENUM_CAP\)$",
    ):
        variety_points(VarietyPresentation(ring, caps=Caps(enum_cap=4)))
    assert len(variety_points(VarietyPresentation(ring, caps=Caps(enum_cap=8)))) == 64


# an irreducible quadratic in x1 over each base field: a component with no
# rational point over F_p, though it has points over F_{p^2}
POINTLESS = {2: "x1^2 + x1 + 1", 3: "x1^2 + 1", 5: "x1^2 + 2", 7: "x1^2 + 1"}
EXTENSIONS = {2: make_field(2, 2, [1, 1, 1]), 3: make_field(3, 2, [1, 0, 1]),
              5: make_field(5, 2, [2, 0, 1]), 7: make_field(7, 2, [1, 0, 1])}


@st.composite
def presentations(draw):
    """(variety, scan field): 1-3 components, each a proper ideal given by
    1-4 generators.  A generator is a polynomial of degree <= 2 per
    variable, some in x1 alone, or a pin c*x_k + h(x_1..x_{k-1}) on any
    variable, with c any unit; a component may pin one variable twice, or
    pin it and test it with a generator nonlinear in it.  Components of
    each kind mix in one variety."""
    p = draw(st.sampled_from(sorted(POINTLESS)))
    extend = draw(st.booleans())
    # F_25^3 and F_49^3 are too many points for the brute-force scan
    n = draw(st.integers(1, 2 if extend and p >= 5 else 3))
    ring = PolynomialRing(make_field(p), tuple(f"x{i + 1}" for i in range(n)))

    def poly(used):
        """A nonzero polynomial in x_1..x_used, constant when used is 0."""
        terms = draw(st.lists(
            st.tuples(st.lists(st.integers(0, 2), min_size=used,
                               max_size=used),
                      st.integers(1, p - 1)),
            min_size=1, max_size=3))
        return ring.from_dict({
            ring.pack(exps + [0] * (n - used)): c for exps, c in terms
        })

    def pin(k, h=None):
        if h is None:
            h = poly(k) if draw(st.integers(0, 3)) else ring.zero()
        return ring.var(k).scale(draw(st.integers(1, p - 1))) + h

    components = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            components.append(Ideal(ring, [ring.parse(POINTLESS[p])]))
            continue
        gens = []
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(["free", "pin", "two pins", "pin+test"]))
            if kind == "free":
                gens.append(poly(1 if draw(st.booleans()) else n))
                continue
            # two pins on x1 agree or make the unit ideal: pin a later one
            first = 1 if kind == "two pins" and n > 1 else 0
            k = draw(st.integers(first, n - 1))
            gens.append(pin(k))
            if kind == "two pins":
                gens.append(pin(k, poly(k)))
            elif kind == "pin+test":
                gens.append(ring.var(k) ** 2 + poly(k))
        ideal = Ideal(ring, gens)
        assume(not ideal.is_unit())
        components.append(ideal)
    variety = VarietyPresentation(ring, components)
    return variety, EXTENSIONS[p] if extend else ring.field


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_variety_points_matches_brute_force_scan(case):
    variety, field = case
    tables = [[naive_from(g) for g in comp.gens] for comp in variety.components]
    want = naive_variety_points(tables, variety.n, field)
    view = variety_points(variety, field)
    assert list(view) == want
    assert len(view) == len(list(view))


def test_variety_points_solves_for_pinned_coordinates(two_planes, monkeypatch):
    # the planes x1 -+ x3 = x2 -+ x4 = 0 pin x3 and x4: each prefix of
    # length 2 or 3 costs one evaluation per live plane, where trying all
    # 25 values of x3 and of x4 took 62,500
    calls = [0]
    evaluator = Polynomial.evaluator

    def counting(self, field=None):
        value = evaluator(self, field)

        def counted(point):
            calls[0] += 1
            return value(point)

        return counted

    monkeypatch.setattr(Polynomial, "evaluator", counting)
    F25 = EXTENSIONS[5]
    points = variety_points(two_planes.variety, F25)
    assert calls[0] <= 2500
    monkeypatch.undo()
    tables = [[naive_from(g) for g in comp.gens]
              for comp in two_planes.variety.components]
    assert list(points) == naive_variety_points(tables, 4, F25)


def test_variety_points_checks_caps_then_the_scan_field():
    F4 = make_field(2, 2, [1, 1, 1])
    F16 = make_field(2, 4, [1, 1, 0, 0, 1])
    ring = PolynomialRing(F4, ("x", "y"))
    line = [Ideal(ring, [ring.parse("x + y")])]  # pins y to x
    assert list(variety_points(VarietyPresentation(ring, line))) == [
        (a, a) for a in range(4)
    ]
    with pytest.raises(
        EnumerationCapExceeded,
        match=r"^variety_points: 256 candidate points exceed point_cap 255 ",
    ):
        variety_points(VarietyPresentation(ring, line, Caps(point_cap=255)),
                       F16)
    with pytest.raises(
        EnumerationCapExceeded,
        match=r"^enumerate_raw: field has 16 elements, exceeding enum_cap 15 ",
    ):
        variety_points(VarietyPresentation(ring, line, Caps(enum_cap=15)), F16)
    # only a prime base field may be scanned over an extension
    with pytest.raises(
        RingMismatch,
        match=r"^values must come from the coefficient field or an "
              r"extension of its prime field$",
    ):
        variety_points(VarietyPresentation(ring, line), F16)


def test_orbit_sizes_divide_group_order(two_planes):
    G = two_planes.group
    pts = variety_points(two_planes.variety)
    for pt in pts:
        orb = orbit(G, pt)
        assert G.order % len(orb) == 0
    assert orbit(G, (0, 0, 0, 0)) == [(0, 0, 0, 0)]
    assert orbit(G, (1, 1, 1, 1)) == [(1, 1, 1, 1), (1, 1, 4, 4)]


def test_orbit_checks_the_point_length(two_planes):
    with pytest.raises(DimensionMismatch,
                       match=r"^point length != group dimension$"):
        orbit(two_planes.group, (1, 1, 1))


def test_generated_by_matches_a_closure_of_the_whole_subset(
    id10253, two_planes, additive3
):
    # random subsets, repeats and the identity included; S_4 on F_5^4 adds
    # subsets that generate a proper subgroup of more than one element
    s4 = enumerate_group(
        [perm_matrix(F5, (1, 0, 2, 3)), perm_matrix(F5, (0, 2, 3, 1))])
    rng = random.Random(15)
    for G in (id10253.group, two_planes.group, additive3.group, s4):
        for _ in range(40):
            subset = rng.choices(G.elements, k=rng.randint(0, 4))
            whole = len(_closure(G.identity, subset)) == len(G)
            assert generated_by(G, subset) is whole
    # every element is checked, even past a prefix that already generates
    outside = perm_matrix(F5, (1, 2, 3, 0)).compose(
        AffineMap(F5, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    with pytest.raises(ValueError, match="outside the group"):
        generated_by(s4, list(s4.generators) + [outside])


def test_generated_by_closes_only_over_unreached_elements(id10253, monkeypatch):
    # id10253's k-reflection subsets, k = 0..4: 225 compositions when each
    # whole subset was closed, 136 when each generator is taken only if the
    # ones before it do not reach it
    G, X = id10253.group, id10253.variety
    subsets = [k_reflections(G, X, k) for k in range(X.dimension() + 1)]
    calls = [0]
    compose = AffineMap.compose

    def counting(self, other):
        calls[0] += 1
        return compose(self, other)

    monkeypatch.setattr(AffineMap, "compose", counting)
    assert [generated_by(G, s) for s in subsets] == [False] + [True] * 4
    assert calls[0] <= 136


def test_connectivity_of_component_graph(two_planes):
    X = two_planes.variety
    assert variety_pairwise_codim(X, 0, 1) == 2
    assert variety_pairwise_codim(X, 0, 0) == 0
    assert not variety_connected_in_codim(X, 0)
    assert not variety_connected_in_codim(X, 1)
    assert variety_connected_in_codim(X, 2)
    assert variety_connected_in_codim(full_space(F5, 2), 0)


def test_disjoint_components_never_connect():
    ring = PolynomialRing(F5, ("x", "y"))
    parallel = VarietyPresentation(
        ring,
        [
            Ideal(ring, [ring.parse("x")]),
            Ideal(ring, [ring.parse("x - 1")]),
        ],
    )
    assert variety_pairwise_codim(parallel, 0, 1) == math.inf
    for k in range(3):
        assert not variety_connected_in_codim(parallel, k)
