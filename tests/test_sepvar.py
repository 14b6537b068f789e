"""Tests for the separating variety model over the doubled ring."""

import math

import pytest

from sepinv import (
    AffineMap,
    Ideal,
    PolynomialRing,
    SepVarietyModel,
    VarietyPresentation,
    connected_in_codim,
    connectivity_equivalence_check,
    enumerate_group,
    make_field,
    variety_connected_in_codim,
    variety_points,
)
from sepinv import bundled, group, sepvar
from sepinv.errors import (
    EquivalenceViolation,
    InternalInconsistency,
    NotInvariant,
    RingMismatch,
)
from sepinv.group import _locus_codim, _moved_equations, orbit
from sepinv.sepvar import GraphComponent, _mirror_names

F2 = make_field(2)
F5 = make_field(5)


def test_mirror_names():
    assert _mirror_names(("x1", "x2")) == ("y1", "y2")
    assert _mirror_names(("x", "z")) == ("y", "y_z")
    # collision with an existing name falls back to numbering
    assert _mirror_names(("x1", "y1")) == ("y_1", "y_2")


def test_doubled_ring_layout(id10253):
    model = id10253.model
    doubled = model.doubled_ring
    assert doubled.variables == ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4")
    f = id10253.invariants["f1"]
    assert model.inject_x(f) == doubled.parse("x1")
    assert model.inject_y(f) == doubled.parse("y1")
    h = id10253.invariants["h"]
    assert model.inject_y(h) == doubled.parse("y1^2*y2 + y1*y2^2 + y3^2*y4 + y3*y4^2")


def test_declared_invariants_are_checked():
    ring = PolynomialRing(F2, ("x1", "x2"))
    swap = AffineMap(F2, [[0, 1], [1, 0]])
    G = enumerate_group([swap])
    X = VarietyPresentation(ring)
    good = SepVarietyModel(X, G, [ring.parse("x1 + x2"), ring.parse("x1*x2")])
    assert len(good.invariant_difference_ideal().gens) == 2
    with pytest.raises(NotInvariant):
        SepVarietyModel(X, G, [ring.parse("x1")])
    with pytest.raises(ValueError):
        SepVarietyModel(X, G).invariant_difference_ideal()



def test_a_model_rejects_invariants_from_a_foreign_ring(id10253):
    # x1 over F_3 used to reach the F_2 doubled ring as raw coefficients
    f3 = PolynomialRing(make_field(3), id10253.ring.variables)
    with pytest.raises(RingMismatch, match=r"^polynomial over F_3\["):
        SepVarietyModel(id10253.variety, id10253.group, [f3.parse("x1")])
    renamed = PolynomialRing(F2, ("a", "b", "c", "d"))
    with pytest.raises(RingMismatch, match=r"^polynomial over F_2\[a,"):
        id10253.model.difference_ideal([renamed.parse("a")])


def test_difference_ideal_of_the_invariants_is_made_once(id10253):
    model = id10253.model
    diff = model.invariant_difference_ideal()
    assert model.invariant_difference_ideal() is diff
    assert model.difference_ideal(model.invariants) == diff


def test_difference_ideal_generators(additive2):
    model = additive2.model
    diff = model.invariant_difference_ideal()
    doubled = model.doubled_ring
    assert diff == Ideal(doubled, [doubled.parse("x1^2 + x1 + y1^2 + y1")])


def test_difference_ideal_on_a_subvariety_contains_both_copies(two_planes):
    model = two_planes.model
    diff = model.invariant_difference_ideal()
    for g in two_planes.variety.ideal().gens:
        assert diff.contains(model.inject_x(g))
        assert diff.contains(model.inject_y(g))
    for f in two_planes.invariants.values():
        assert diff.contains(model.inject_x(f) - model.inject_y(f))


def test_graph_components_of_the_translation_action(additive3):
    model = additive3.model
    comps = model.graph_components()
    assert len(comps) == 3
    assert all(c.dimension == 1 for c in comps)
    assert all(len(c.aliases) == 1 for c in comps)
    matrix = model.codim_matrix()
    for i in range(3):
        for j in range(3):
            expected = 0 if i == j else math.inf
            assert matrix[i][j] == expected
    for k in range(0, 2):
        assert not connected_in_codim(model, k)


def test_graph_components_of_two_planes(two_planes):
    model = two_planes.model
    comps = model.graph_components()
    assert len(comps) == 4
    assert all(c.dimension == 2 for c in comps)
    matrix = model.codim_matrix()
    for i in range(4):
        for j in range(4):
            assert matrix[i][j] == (0 if i == j else 2)
    assert not connected_in_codim(model, 1)
    assert connected_in_codim(model, 2)


def test_graph_dedup_records_aliases():
    # both group elements act the same on the single point V(x1)
    ring = PolynomialRing(F5, ("x1",))
    X = VarietyPresentation(ring, [Ideal(ring, [ring.parse("x1")])])
    flip = AffineMap(F5, [[4]])
    G = enumerate_group([flip])
    assert G.order == 2
    model = SepVarietyModel(X, G)
    comps = model.graph_components()
    assert len(comps) == 1
    assert comps[0].aliases == ((0, 0), (1, 0))
    assert comps[0].dimension == 0


def test_radical_is_the_meet_of_graph_ideals(id10253):
    model = id10253.model
    radical = model.separating_variety_radical()
    comps = model.graph_components()
    assert len(comps) == 8
    for c in comps:
        # every graph lies inside the separating variety
        for g in radical.gens:
            assert c.ideal.contains(g)
    diff = model.invariant_difference_ideal()
    for g in diff.gens:
        assert radical.radical_contains(g)
    assert radical.dimension() == 4


def test_radical_of_two_planes(two_planes):
    model = two_planes.model
    radical = model.separating_variety_radical()
    assert radical.dimension() == 2
    diff = model.invariant_difference_ideal()
    # same zero set: each contains the other up to radical
    assert diff.radical_subset_of(radical)
    for g in radical.gens:
        assert diff.radical_contains(g)


def test_point_pairs_match_invariant_agreement(two_planes):
    model = two_planes.model
    pairs = set(model.point_pairs())
    pts = variety_points(two_planes.variety)
    invs = list(two_planes.invariants.values())
    agree = {
        (a, b)
        for a in pts
        for b in pts
        if all(f.evaluate(a) == f.evaluate(b) for f in invs)
    }
    assert pairs == agree
    # orbits are exactly the fibers here
    for a, b in pairs:
        assert b in orbit(two_planes.group, a)


def test_point_pairs_are_symmetric_and_reflexive(additive2):
    pairs = set(additive2.model.point_pairs())
    pts = variety_points(additive2.variety)
    for pt in pts:
        assert (pt, pt) in pairs
    for a, b in pairs:
        assert (b, a) in pairs


def test_equivalence_check_two_planes(two_planes):
    model = two_planes.model
    for k in range(0, 3):
        report = connectivity_equivalence_check(model, k)
        assert report.k == k
        assert report.sepvar_connected == (
            report.variety_connected and report.reflections_generate)
    assert connectivity_equivalence_check(model, 2).sepvar_connected
    assert not connectivity_equivalence_check(model, 1).sepvar_connected
    assert not connectivity_equivalence_check(model, 1).reflections_generate


def test_equivalence_check_additive(additive3):
    model = additive3.model
    for k in range(0, 2):
        report = connectivity_equivalence_check(model, k)
        assert not report.sepvar_connected
        assert report.variety_connected
        assert not report.reflections_generate


def test_equivalence_check_fires_on_a_wrong_reflection_side(
        id10253, monkeypatch):
    # id10253 is connected in codimension dim X = 4 and generated by
    # 4-reflections; a least k that says "never" contradicts its variety
    assert connectivity_equivalence_check(id10253.model, 4).sepvar_connected
    monkeypatch.setattr(sepvar, "min_reflection_number", lambda G, X: None)
    with pytest.raises(EquivalenceViolation, match=(
            r"^separating variety connectivity in codim 4 is True, but X "
            r"connectivity is True and reflection generation is False$")):
        connectivity_equivalence_check(id10253.model, 4)


def test_a_difference_generator_outside_the_fold_is_caught():
    # one more graph component, of x1 -> x1 + x2, which is not in the
    # group: the fold keeps dimension 4, but f(x) - f(y) does not vanish
    # on the new graph, so the containment check must fire
    model = bundled.load("id10253").model
    sigma = AffineMap(model.base_ring.field,
                      [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert sigma not in model.group.elements
    extra = GraphComponent(sigma, 0, model.graph_component_ideal(sigma, 0),
                           4, ((len(model.group), 0),))
    model.graph_components().append(extra)  # the model's cached list
    with pytest.raises(InternalInconsistency, match=(
            "^a difference generator escapes the component intersection$")):
        model.separating_variety_radical()


def test_a_graph_component_of_another_dimension_is_caught():
    # a graph is isomorphic to its base component, so a base dimension one
    # too high must stop the graph listing
    model = bundled.load("two-planes").model
    variety = model.variety
    variety._dims = tuple(d + 1 for d in variety.component_dimensions())
    with pytest.raises(InternalInconsistency, match=(
            "^graph component dimension differs from its base component$")):
        model.graph_components()


@pytest.mark.parametrize("name", ["id10253", "two-planes"])
def test_a_fold_of_sums_is_caught(name, monkeypatch):
    # sums in place of intersections cut the graphs down to their common
    # part, which is smaller than X on these models
    model = bundled.load(name).model
    monkeypatch.setattr(Ideal, "intersect", lambda self, other: self + other)
    with pytest.raises(InternalInconsistency, match=(
            "^separating variety dimension differs from the variety's$")):
        model.separating_variety_radical()


def test_connected_in_codim_argument_types(two_planes):
    assert variety_connected_in_codim(two_planes.variety, 2)
    with pytest.raises(ValueError):
        connected_in_codim(two_planes.model, -1)


def test_pairwise_codim_is_cached_and_symmetric(two_planes):
    model = two_planes.model
    assert model.pairwise_intersection_codim(0, 1) == model.pairwise_intersection_codim(1, 0)
    assert model.pairwise_intersection_codim(2, 2) == 0


def _s4_on_f5():
    ring = PolynomialRing(F5, ("x1", "x2", "x3", "x4"))
    swaps = []
    for i in range(3):
        rows = [[int(r == c) for c in range(4)] for r in range(4)]
        rows[i][i] = rows[i + 1][i + 1] = 0
        rows[i][i + 1] = rows[i + 1][i] = 1
        swaps.append(AffineMap(F5, rows))
    return SepVarietyModel(VarietyPresentation(ring), enumerate_group(swaps))


@pytest.mark.parametrize(
    "name", ["id10253", "two-planes", "additive-2", "additive-3", "additive-5",
             "S4/F5"])
def test_codim_matrix_matches_the_per_pair_base_ring_locus(name):
    # a one-component variety answers the base-ring side from the cached
    # fixed-locus codimensions; every entry must equal the locus of
    # X_i meet X_j fixed by rho, computed pair by pair as before
    model = _s4_on_f5() if name == "S4/F5" else bundled.load(name).model
    variety, ring = model.variety, model.base_ring
    comps = model.graph_components()
    matrix = model.codim_matrix()
    for i, a in enumerate(comps):
        for j, b in enumerate(comps):
            if i == j:
                assert matrix[i][j] == 0
                continue
            rho = b.sigma.inverse().compose(a.sigma)
            gens = (list(variety.components[a.component].gens)
                    + list(variety.components[b.component].gens)
                    + _moved_equations(rho, ring))
            assert matrix[i][j] == _locus_codim(variety, ring, gens)


def test_one_component_base_side_reads_the_fixed_locus_cache(monkeypatch):
    model = bundled.load("id10253").model
    base_bases = [0]
    locus_codim = group._locus_codim

    def counting(variety, ring, gens):
        base_bases[0] += ring == model.base_ring
        return locus_codim(variety, ring, gens)

    monkeypatch.setattr(group, "_locus_codim", counting)
    monkeypatch.setattr(sepvar, "_locus_codim", counting)
    assert len(model.graph_components()) == 8
    model.codim_matrix()
    # one basis per group element at most, against one per pair (28) before
    assert base_bases[0] <= len(model.group) == 8


def test_codim_cross_check_survives_the_cache(monkeypatch):
    # a wrong doubled-ring value, or a wrong cached base-ring value, must
    # still be caught pair by pair
    model = bundled.load("id10253").model
    locus_codim = sepvar._locus_codim
    monkeypatch.setattr(sepvar, "_locus_codim",
                        lambda variety, ring, gens:
                        locus_codim(variety, ring, gens) + 1)
    with pytest.raises(InternalInconsistency, match="codimensions disagree"):
        model.codim_matrix()
    monkeypatch.undo()
    model = bundled.load("id10253").model
    comps = model.graph_components()
    rho = comps[1].sigma.inverse().compose(comps[0].sigma)
    model.variety._codims[rho] = group.fixed_locus_codim(
        rho, model.variety) + 1
    with pytest.raises(InternalInconsistency, match="codimensions disagree"):
        model.codim_matrix()
