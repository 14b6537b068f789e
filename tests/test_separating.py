"""Tests for invariance checks, separating-set verification, and the audit."""

import pytest

from sepinv import (
    AffineMap,
    Ideal,
    PolynomialRing,
    SeparatingCandidate,
    SepVarietyModel,
    VarietyPresentation,
    enumerate_group,
    is_invariant,
    make_field,
    reflection_audit,
    verify_separating_points,
    verify_separating_symbolic,
)
from sepinv.errors import InternalInconsistency, NotInvariant, RingMismatch

from .oracles import naive_from, naive_point_check, naive_variety_points

F2 = make_field(2)
F5 = make_field(5)


def trivial_line_model():
    ring = PolynomialRing(F5, ("x1",))
    X = VarietyPresentation(ring)
    G = enumerate_group([AffineMap.identity(F5, 1)])
    return SepVarietyModel(X, G), ring


def test_is_invariant(id10253):
    G = id10253.group
    for f in id10253.invariants.values():
        assert is_invariant(f, G)
    assert not is_invariant(id10253.ring.parse("x2"), G)
    assert not is_invariant(id10253.ring.parse("x4"), G)
    trivial = enumerate_group([AffineMap.identity(F2, 4)])
    assert is_invariant(id10253.ring.parse("x2"), trivial)


def test_candidate_container():
    ring = PolynomialRing(F5, ("x1",))
    cand = SeparatingCandidate("demo", [ring.parse("x1")], note="why not")
    assert len(cand) == 1
    assert list(cand) == [ring.parse("x1")]
    assert "demo" in repr(cand)


def test_verification_rejects_non_invariant_candidates(id10253):
    cand = SeparatingCandidate("broken", [id10253.ring.parse("x2")])
    with pytest.raises(NotInvariant):
        verify_separating_symbolic(cand, id10253.model)
    with pytest.raises(NotInvariant):
        verify_separating_points(cand, id10253.group, id10253.variety)


def test_two_planes_candidates(two_planes):
    model = two_planes.model
    restricted = two_planes.candidates["restricted"]
    assert verify_separating_symbolic(restricted, model)
    assert verify_separating_points(restricted, two_planes.group, two_planes.variety)
    ring = two_planes.ring
    single = SeparatingCandidate("first-coordinate", [ring.parse("x1")])
    assert not verify_separating_symbolic(single, model)
    assert not verify_separating_points(single, two_planes.group, two_planes.variety)


def test_additive_generator_is_separating(additive3):
    model = additive3.model
    cand = additive3.candidates["generators"]
    assert verify_separating_symbolic(cand, model)
    assert verify_separating_points(cand, additive3.group, additive3.variety)


def test_point_check_is_only_necessary_evidence():
    # x^3 tells all fifth-root points apart, yet fails symbolically:
    # x^3 - y^3 picks up a conic beyond the diagonal
    model, ring = trivial_line_model()
    cube = SeparatingCandidate("cube", [ring.parse("x1^3")])
    assert verify_separating_points(cube, model.group, model.variety)
    assert not verify_separating_symbolic(cube, model)
    identity = SeparatingCandidate("identity-map", [ring.parse("x1")])
    assert verify_separating_points(identity, model.group, model.variety)
    assert verify_separating_symbolic(identity, model)


def _oracle_verdict(candidate, group, variety, field):
    tables = [[naive_from(g) for g in comp.gens] for comp in variety.components]
    points = naive_variety_points(tables, variety.n, field)
    maps = [(s.matrix, s.translation) for s in group]
    return naive_point_check(
        [naive_from(g) for g in candidate.polynomials], maps, points, field
    )


def test_point_check_agrees_with_bucket_then_orbit_oracle(
    id10253, two_planes, additive3
):
    F4 = make_field(2, 2, [1, 1, 1])
    first_coordinate = SeparatingCandidate(
        "first-coordinate", [two_planes.ring.parse("x1")]
    )
    line, ring = trivial_line_model()
    cases = [
        (id10253, id10253.candidates["f1-only"], F4, False),
        (two_planes, first_coordinate, F5, False),
        (id10253, id10253.candidates["main"], F4, True),
        (two_planes, two_planes.candidates["restricted"], F5, True),
        (additive3, additive3.candidates["generators"], make_field(3), True),
        (line, SeparatingCandidate("cube", [ring.parse("x1^3")]), F5, True),
    ]
    for model, cand, field, separates in cases:
        got = verify_separating_points(cand, model.group, model.variety, field)
        assert got is separates
        assert _oracle_verdict(cand, model.group, model.variety, field) is got


def test_audit_concludes_on_id10253(id10253):
    report = reflection_audit(
        id10253.model,
        candidates=list(id10253.candidates.values()),
        ideals=list(id10253.ideals.items()),
    )
    assert report.dimension == 4
    assert report.variety_connected
    assert report.cohen_macaulay is True
    assert report.cohen_macaulay_source == "automatic"
    assert report.fixed_point_generated
    assert report.gamma_upper_bound == 4
    assert ("main", 4, True) in report.candidates
    assert ("f1-only", 1, False) in report.candidates
    assert ("J", True, 0) in report.ideals
    assert report.reflection_bound == 1
    assert report.min_reflections == 1
    assert report.conclusion == "the group is generated by 1-reflections"


def test_audit_without_witnesses_refuses(id10253):
    report = reflection_audit(id10253.model)
    assert report.reflection_bound is None
    assert report.conclusion.startswith("no conclusion: no witness")
    assert report.min_reflections == 1


def test_audit_refuses_on_failed_cohen_macaulay(two_planes):
    report = reflection_audit(
        two_planes.model, candidates=list(two_planes.candidates.values())
    )
    assert report.cohen_macaulay is False
    assert report.cohen_macaulay_source == "computed"
    assert report.gamma_upper_bound == 2 == report.dimension
    assert report.variety_connected
    assert report.fixed_point_generated
    assert report.min_reflections == 2
    assert report.reflection_bound is None
    assert report.conclusion == "no conclusion: X is not Cohen-Macaulay"


def test_audit_catches_a_false_cm_assertion(two_planes):
    # asserting Cohen-Macaulay here would force a 1-reflection conclusion,
    # which direct verification refutes
    with pytest.raises(InternalInconsistency):
        reflection_audit(
            two_planes.model,
            candidates=list(two_planes.candidates.values()),
            cm_asserted=True,
        )


def test_audit_refuses_on_missing_fixed_points(additive2, additive3):
    for bm in (additive2, additive3):
        report = reflection_audit(
            bm.model, candidates=list(bm.candidates.values())
        )
        assert report.variety_connected
        assert report.cohen_macaulay is True
        assert report.gamma_upper_bound == 1 == report.dimension
        assert not report.fixed_point_generated
        assert report.min_reflections is None
        assert report.reflection_bound is None
        assert (
            report.conclusion
            == "no conclusion: the group is not generated by elements with a fixed point"
        )


def test_audit_refuses_on_disconnected_variety():
    ring = PolynomialRing(F5, ("x1", "x2"))
    X = VarietyPresentation(
        ring,
        [
            Ideal(ring, [ring.parse("x1")]),
            Ideal(ring, [ring.parse("x1 - 1")]),
        ],
    )
    swap = AffineMap(F5, [[4, 0], [0, 1]], [1, 0])
    G = enumerate_group([swap])
    assert G.order == 2
    model = SepVarietyModel(X, G)
    report = reflection_audit(model)
    assert not report.variety_connected
    assert not report.fixed_point_generated
    assert "X is disconnected" in report.conclusion
    assert "not generated by elements with a fixed point" in report.conclusion


def test_audit_ignores_ideals_with_the_wrong_radical(id10253):
    model = id10253.model
    f1 = id10253.invariants["f1"]
    narrow = Ideal(
        model.doubled_ring, [model.inject_x(f1) - model.inject_y(f1)]
    )
    report = reflection_audit(
        model,
        candidates=[id10253.candidates["main"]],
        ideals=[("narrow", narrow)],
    )
    assert ("narrow", False, None) in report.ideals
    assert any("does not cut out" in note for note in report.notes)
    # the conclusion still stands on the other route
    assert report.reflection_bound == 1


def test_audit_rejects_ideals_over_the_wrong_ring(id10253):
    base_ideal = Ideal(id10253.ring, [id10253.invariants["f1"]])
    with pytest.raises(RingMismatch):
        reflection_audit(id10253.model, ideals=[("misplaced", base_ideal)])


def test_audit_notes_spell_out_the_standing_assumptions(id10253):
    report = reflection_audit(id10253.model)
    assert any("asserted by the caller" in note for note in report.notes)
    assert any("generate the invariant ring" in note for note in report.notes)
