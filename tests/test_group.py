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
    NotGeneratedByFixedPointElements,
    VarietyNotPreserved,
)
from sepinv.group import generated_by, variety_pairwise_codim

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
    assert G.elements[0].is_identity()
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
    with pytest.raises(GroupCapExceeded):
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
    with pytest.raises(NotGeneratedByFixedPointElements):
        min_reflection_number(additive3.group, additive3.variety)
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
        variety_points(two_planes.variety, caps=Caps(point_cap=10))


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
POINTLESS = {2: "x1^2 + x1 + 1", 3: "x1^2 + 1", 5: "x1^2 + 2"}
EXTENSIONS = {2: make_field(2, 2, [1, 1, 1]), 3: make_field(3, 2, [1, 0, 1])}


@st.composite
def presentations(draw):
    """(variety, scan field): 1-3 components, each a proper ideal given by
    1-2 polynomials of degree <= 2 per variable, some in x1 alone."""
    p = draw(st.sampled_from(sorted(POINTLESS)))
    n = draw(st.integers(1, 3))
    ring = PolynomialRing(make_field(p), tuple(f"x{i + 1}" for i in range(n)))
    components = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            components.append(Ideal(ring, [ring.parse(POINTLESS[p])]))
            continue
        gens = []
        for _ in range(draw(st.integers(1, 2))):
            used = 1 if draw(st.booleans()) else n
            terms = draw(st.lists(
                st.tuples(st.lists(st.integers(0, 2), min_size=used,
                                   max_size=used),
                          st.integers(1, p - 1)),
                min_size=1, max_size=3))
            gens.append(ring.from_dict({
                ring.pack(exps + [0] * (n - used)): c for exps, c in terms
            }))
        ideal = Ideal(ring, gens)
        assume(not ideal.is_unit())
        components.append(ideal)
    variety = VarietyPresentation(ring, components)
    extend = p in EXTENSIONS and draw(st.booleans())
    return variety, EXTENSIONS[p] if extend else ring.field


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_variety_points_matches_brute_force_scan(case):
    variety, field = case
    tables = [[naive_from(g) for g in comp.gens] for comp in variety.components]
    want = naive_variety_points(tables, variety.n, field)
    assert variety_points(variety, field) == want


def test_orbit_sizes_divide_group_order(two_planes):
    G = two_planes.group
    pts = variety_points(two_planes.variety)
    for pt in pts:
        orb = orbit(G, pt)
        assert G.order % len(orb) == 0
    assert orbit(G, (0, 0, 0, 0)) == [(0, 0, 0, 0)]
    assert orbit(G, (1, 1, 1, 1)) == [(1, 1, 1, 1), (1, 1, 4, 4)]


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
