"""Tests for invariance checks, separating-set verification, and the audit."""

import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from sepinv import (
    AffineMap,
    Caps,
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
from sepinv import bundled, cli, separating
from sepinv.errors import (
    EnumerationCapExceeded,
    GroupCapExceeded,
    InternalInconsistency,
    NotInvariant,
    RingMismatch,
)
from sepinv.group import orbit, variety_points
from sepinv.poly import compose_affine

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
    cand = SeparatingCandidate("demo", [ring.parse("x1")])
    assert len(cand) == 1
    assert list(cand) == [ring.parse("x1")]
    assert "demo" in repr(cand)


def test_verification_rejects_non_invariant_candidates(id10253):
    cand = SeparatingCandidate("broken", [id10253.ring.parse("x2")])
    with pytest.raises(NotInvariant):
        verify_separating_symbolic(cand, id10253.model)
    with pytest.raises(NotInvariant):
        verify_separating_points(cand, id10253.group, id10253.variety)



def test_polynomials_from_a_foreign_ring_are_rejected(id10253):
    # these used to pass: x1 over F_3 as invariant, and the invariants
    # renamed into F_2[a, b, c, d] read by variable position
    G, model = id10253.group, id10253.model
    f3 = PolynomialRing(make_field(3), id10253.ring.variables)
    with pytest.raises(RingMismatch, match=r"^map over F_2 acting on F_3\["):
        is_invariant(f3.parse("x1"), G)
    renamed = PolynomialRing(F2, ("a", "b", "c", "d"))
    cand = SeparatingCandidate("renamed", [
        f.inject(renamed, range(4)) for f in id10253.invariants.values()])
    foreign = (r"^polynomial over F_2\[a, b, c, d\], "
               r"variety over F_2\[x1, x2, x3, x4\]$")
    with pytest.raises(RingMismatch, match=foreign):
        verify_separating_symbolic(cand, model)
    with pytest.raises(RingMismatch, match=foreign):
        verify_separating_points(cand, G, id10253.variety)
    with pytest.raises(RingMismatch, match=foreign):
        verify_separating_points(cand, G, id10253.variety,
                                 make_field(2, 2, [1, 1, 1]))


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


def test_point_check_evaluates_once_per_orbit(id10253, monkeypatch):
    # 736 orbits on the 4,096 points of F_8^4: the four invariants are
    # evaluated together, by one compiled function, at one point of each,
    # 736 calls where every point took 4,096
    F8 = make_field(2, 3, [1, 1, 0, 1])
    points = variety_points(id10253.variety, F8)
    orbits = {tuple(orbit(id10253.group, pt, F8)) for pt in points}
    assert len(orbits) == 736
    calls = []
    evaluators = separating.evaluators

    def counting(polys, field):
        values = evaluators(polys, field)

        def counted(point):
            calls.append(len(polys))
            return values(point)

        return counted

    monkeypatch.setattr(separating, "evaluators", counting)
    main = id10253.candidates["main"]
    assert verify_separating_points(main, id10253.group, id10253.variety, F8)
    assert calls == [len(main)] * len(orbits)


def test_a_failing_point_check_reads_only_the_points_it_needs(
    id10253, monkeypatch
):
    # f1-only over F_16: x1's 16 values split the 65,536 points of F_16^4
    # into classes of 4,096, beyond any orbit of the order-8 group, and the
    # second point read is already in the first point's class
    F16 = make_field(2, 4, [1, 1, 0, 0, 1])
    f1_only = id10253.candidates["f1-only"]
    args = (f1_only, id10253.group, id10253.variety, F16)
    view = variety_points(id10253.variety, F16)
    assert len(view) == 16 ** 4
    assert list(view) == list(view)

    made, read = [], [0]

    def probe(variety, field=None):
        points = variety_points(variety, field)
        made.append(len(points))

        def counted():
            for pt in points:
                read[0] += 1
                yield pt

        return counted()

    monkeypatch.setattr(separating, "variety_points", probe)
    assert verify_separating_points(*args) is False
    assert made == [16 ** 4] and read[0] == 2
    monkeypatch.undo()

    verify_separating_points(*args)  # warm the caches the check fills
    tracemalloc.start()
    try:
        assert verify_separating_points(*args) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024  # a list of all 65,536 points took ~5 MiB

    # the caps still stop the call itself, before any point is made
    capped = VarietyPresentation(id10253.ring, id10253.variety.components,
                                 Caps(point_cap=16 ** 4 - 1))
    with pytest.raises(EnumerationCapExceeded, match=r"^variety_points: "):
        variety_points(capped, F16)
    capped = VarietyPresentation(id10253.ring, id10253.variety.components,
                                 Caps(enum_cap=15))
    with pytest.raises(EnumerationCapExceeded, match=r"^enumerate_raw: "):
        variety_points(capped, F16)


EXTENSIONS = {2: make_field(2, 2, [1, 1, 1]), 3: make_field(3, 2, [1, 0, 1])}


@st.composite
def point_checks(draw):
    """(candidate, group, variety, scan field) over F_2 or F_3 in 1-3
    variables.  The group has 1-3 generators P*L*U (a permutation, a lower
    unitriangular and an invertible upper triangular matrix), some with a
    translation; generators past the first are dropped until the order is
    at most 24.  Invariants are orbit sums of polynomials or orbit
    products of affine linear forms with at most 4 images; the candidate
    may also be cut to a proper subset, or to nothing.  The variety has
    1-2 components, each cut out by random polynomials of degree at most
    2 in each variable, an invariant minus a constant, or nothing."""
    p = draw(st.sampled_from(sorted(EXTENSIONS)))
    F = make_field(p)
    n = draw(st.integers(1, 3))
    ring = PolynomialRing(F, tuple(f"x{i + 1}" for i in range(n)))
    entry = st.integers(0, p - 1)

    def generator():
        perm = draw(st.permutations(range(n)))
        sparse = draw(st.booleans())
        lower = [[int(i == j) if j >= i or sparse else draw(entry)
                  for j in range(n)] for i in range(n)]
        upper = [[draw(st.integers(1, p - 1)) if i == j
                  else 0 if j < i or sparse else draw(entry)
                  for j in range(n)] for i in range(n)]
        matrix = [[sum(lower[perm[i]][k] * upper[k][j] for k in range(n)) % p
                   for j in range(n)] for i in range(n)]
        shift = [draw(entry) for _ in range(n)] if draw(st.booleans()) else None
        return AffineMap(F, matrix, shift)

    gens = [generator() for _ in range(draw(st.integers(1, 3)))]
    while True:
        try:
            G = enumerate_group(gens, Caps(group_cap=24))
            break
        except GroupCapExceeded:
            assume(len(gens) > 1)  # one element of order 26 over F_3
            gens.pop()

    def poly(degree):
        terms = draw(st.lists(
            st.tuples(st.lists(st.integers(0, degree), min_size=n,
                               max_size=n), st.integers(1, p - 1)),
            min_size=1, max_size=3))
        return ring.from_dict({ring.pack(e): c for e, c in terms})

    def invariant():
        if draw(st.booleans()):
            form = sum((ring.var(i).scale(draw(entry)) for i in range(n)),
                       ring.constant(draw(entry)))
            images = {compose_affine(form, s) for s in G}
            if len(images) <= 4:
                product = ring.one()
                for f in images:
                    product = product * f
                return product
        m = poly(2)
        return sum((compose_affine(m, s) for s in G), ring.zero())

    invariants = [invariant() for _ in range(draw(st.integers(1, 3)))]
    cut = draw(st.sampled_from(["all", "proper", "none"]))
    chosen = {"all": invariants, "proper": invariants[:-1], "none": []}[cut]
    components = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["random", "invariant", "space"]))
        if kind == "space":
            gens = []
        elif kind == "invariant":
            gens = [draw(st.sampled_from(invariants)) - ring.constant(
                draw(entry))]
        else:
            gens = [poly(2) for _ in range(draw(st.integers(1, 2)))]
        ideal = Ideal(ring, gens)
        components.append(ideal if not ideal.is_unit() else Ideal(ring, []))
    variety = VarietyPresentation(ring, components)
    field = EXTENSIONS[p] if draw(st.booleans()) else F
    return SeparatingCandidate(cut, chosen), G, variety, field


@settings(max_examples=80, deadline=None)
@given(point_checks())
def test_point_check_matches_the_bucket_then_orbit_oracle(case):
    candidate, group, variety, field = case
    got = verify_separating_points(candidate, group, variety, field)
    assert got is _oracle_verdict(candidate, group, variety, field)
    view = variety_points(variety, field)
    assert len(view) == len(list(view))


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


# -- radical equality, dimension first ---------------------------------------


@pytest.fixture(scope="module", params=bundled.names())
def bundled_model(request):
    return bundled.load(request.param)


def _directly_same_radical(ideal, model):
    """Both containments of radicals, generator by generator."""
    radical = model.separating_variety_radical()
    return (ideal.radical_subset_of(radical)
            and radical.radical_subset_of(ideal))


def _degree(f):
    return max((f.ring.mono_degree(m) for m, _ in f.terms), default=0)


@st.composite
def invariant_sets(draw, bm):
    """A random subset of the manifest's invariants, each kept, or added
    to another, or multiplied by another of low enough degree, or moved
    by a constant: all invariants again."""
    pool = list(bm.invariants.values())
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1,
                           max_size=len(pool)))
    out = []
    for f in chosen:
        g = draw(st.sampled_from(pool))
        how = draw(st.sampled_from(["keep", "sum", "product", "shift"]))
        if how == "sum":
            f = f + g
        elif how == "product" and _degree(f) + _degree(g) <= 4:
            f = f * g
        elif how == "shift":
            f = f + f.ring.one()
        out.append(f)
    return out


def spy_on_the_fold(monkeypatch):
    """Record every model whose separating variety radical is asked for."""
    folds = []
    real = SepVarietyModel.separating_variety_radical

    def spy(self):
        folds.append(self)
        return real(self)

    monkeypatch.setattr(SepVarietyModel, "separating_variety_radical", spy)
    return folds


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_symbolic_verdict_is_both_radical_containments(bundled_model, data):
    bm = bundled_model
    polys = data.draw(invariant_sets(bm))
    candidate = SeparatingCandidate("drawn", polys)
    want = _directly_same_radical(bm.model.difference_ideal(polys), bm.model)
    assert verify_separating_symbolic(candidate, bm.model) is want


def test_ideals_of_another_dimension_differ_without_the_fold(
        bundled_model, monkeypatch):
    # I(S) plus a linear form has a smaller dimension than I(S), the
    # difference ideal of no invariants, X x X's, a larger one, and the
    # unit ideal none: each differs from I(S) at once, and the fresh
    # model's separating variety is never folded
    model = bundled_model.model
    radical = model.separating_variety_radical()
    ring = model.doubled_ring
    smaller = radical + Ideal(ring, [ring.var(0)])
    larger = model.difference_ideal([])
    dim = model.variety.dimension()
    assert smaller.dimension() < dim < larger.dimension()
    assert not _directly_same_radical(smaller, model)
    assert not _directly_same_radical(larger, model)
    fresh = bundled.load(bundled_model.name)
    graph = fresh.model.graph_components()[0].ideal
    single = len(model.graph_components()) == 1
    assert _directly_same_radical(graph, model) is single
    folds = spy_on_the_fold(monkeypatch)
    ideals = [("smaller", smaller), ("larger", larger),
              ("unit", Ideal(ring, [ring.one()]))]
    report = reflection_audit(fresh.model, ideals=ideals)
    assert report.ideals == tuple((name, False, None) for name, _ in ideals)
    assert folds == []
    # an ideal of the right dimension is still decided by the fold
    report = reflection_audit(fresh.model, ideals=[("graph", graph)])
    assert report.ideals[0][1] is single
    assert folds == [fresh.model]


def test_verify_refutes_f1_only_without_the_separating_variety(
        monkeypatch, capsys):
    folds = spy_on_the_fold(monkeypatch)
    for extra in ([], ["--points", "16"]):
        assert cli.main(["verify", "-m", "id10253", "--set", "f1-only",
                         *extra]) == 1
        assert "symbolic verification: false" in capsys.readouterr().out
    assert folds == []
    assert cli.main(["verify", "-m", "id10253", "--set", "main"]) == 0
    assert len(folds) == 1
