"""The four workloads: their inputs, their jobs and the checks on each job.

`build(name, seed)` generates a workload's inputs and returns its jobs.  A
job's `run` is one timed operation; it starts from the generated inputs and
builds its rings, groups and models anew, the way each `sepinv` call does.
A job's `check` runs untimed on what `run` returned and lists problems.
Only the random monomial ideals depend on the seed; the other workloads run
the paper's fixed models.
"""

import contextlib
import io
import itertools
import json
import random
from math import factorial
from pathlib import Path

from sepinv import cli, group, groebner, resolution, separating, sepvar
from sepinv.field import make_field
from sepinv.poly import AffineMap, PolynomialRing

import checks

EXPECTED = Path(__file__).resolve().parent.parent / "src/sepinv/data/expected"

class Job:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _fixture(name):
    doc = json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))
    return {key: entry["value"] for key, entry in doc["checks"].items()}


# -- reproduce ---------------------------------------------------------------

REPRODUCE = (
    ("id10253", ["id10253"]),
    ("two-planes", ["two-planes"]),
    ("additive-2", ["additive-p", "--p", "2"]),
    ("additive-3", ["additive-p", "--p", "3"]),
    ("additive-5", ["additive-p", "--p", "5"]),
)


def _reproduce_job(model, args):
    argv = ["--json", "reproduce"] + args
    fixture = _fixture(model)
    first = []

    def check(result):
        code, text = result
        if code != 0:
            return [f"exit code {code}, expected 0"]
        if not first:
            first.append(text)
        problems = [] if text == first[0] else [
            "JSON document differs from the first pass's"]
        doc = json.loads(text)["results"]
        rows = {row["check"]: row["actual"] for row in doc["checks"]}
        if set(rows) != set(fixture):
            problems.append("reported checks differ from the fixture's")
        problems += [f"{key}: {rows[key]!r}, fixture says {want!r}"
                     for key, want in fixture.items()
                     if key in rows and rows[key] != want]
        if doc["model"] != model or doc["all_ok"] is not True:
            problems.append("report is not an all-ok run of " + model)
        return problems

    return Job(model, lambda: _cli(argv), check)


# -- symmetric ---------------------------------------------------------------

SYMMETRIC = ((3, 2), (4, 2), (4, 3), (4, 5))


def _transposition(n, i):
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[i][i] = rows[i + 1][i + 1] = 0
    rows[i][i + 1] = rows[i + 1][i] = 1
    return rows


def _elementary_symmetric(n):
    names = [f"x{i + 1}" for i in range(n)]
    return [" + ".join("*".join(c) for c in itertools.combinations(names, k))
            for k in range(1, n + 1)]


def _symmetric_job(n, p):
    names = tuple(f"x{i + 1}" for i in range(n))
    generators = [_transposition(n, i) for i in range(n - 1)]
    invariants = _elementary_symmetric(n)

    def run():
        field = make_field(p)
        ring = PolynomialRing(field, names)
        g = group.enumerate_group([AffineMap(field, m) for m in generators])
        variety = group.VarietyPresentation(ring)
        polys = [ring.parse(text) for text in invariants]
        model = sepvar.SepVarietyModel(variety, g, polys)
        components = model.graph_components()
        radical = model.separating_variety_radical()
        return {
            "order": len(g),
            "components": components,
            "radical_dim": radical.dimension(),
            "codims": model.codim_matrix(),
            "equivalence": sepvar.connectivity_equivalence_check(model, 1),
            "min_reflection": group.min_reflection_number(g, variety),
            "full": separating.verify_separating_symbolic(
                separating.SeparatingCandidate("e", polys), model),
            "short": separating.verify_separating_symbolic(
                separating.SeparatingCandidate("e-", polys[:-1]), model),
        }

    def check(r):
        problems = []
        perms = [checks.permutation_of(c.sigma.matrix) for c in r["components"]]
        if r["order"] != factorial(n) or len(perms) != factorial(n):
            problems.append(f"{len(perms)} graph components, |S_{n}| = "
                            f"{factorial(n)}")
        if r["radical_dim"] != n:
            problems.append(f"radical has dimension {r['radical_dim']}, not {n}")
        problems += checks.check_codim_matrix(perms, r["codims"])
        eq = r["equivalence"]
        # transpositions fix hyperplanes and generate S_n, and F^n is
        # irreducible: every side of the equivalence at k = 1 is true
        if not (eq.sepvar_connected and eq.variety_connected
                and eq.reflections_generate):
            problems.append(f"equivalence at k = 1 reads {eq}")
        if r["min_reflection"] != 1:
            problems.append(f"min reflection number {r['min_reflection']}")
        if r["full"] is not True:
            problems.append("elementary symmetric polynomials do not separate")
        # n-1 differences cut out a variety of dimension >= 2n-(n-1) = n+1,
        # larger than the n-dimensional separating variety
        if r["short"] is not False:
            problems.append(f"the first {n - 1} polynomials separate")
        return problems

    return Job(f"S{n}/F{p}", run, check)


# -- monomial ----------------------------------------------------------------

LADDER = (6, 10, 14, 18)
RANDOM_DEGREES = (12, 16)
MONOMIAL_PRIME = 32003


def _degree(d):
    return [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]


def random_monomial_ideal(rng, d):
    """Half the degree-d monomials, a third of degree d+1, a quarter of d+3.

    The counts are fixed, so every seed gives ideals of the same input
    size; which higher-degree monomials survive as minimal generators
    depends on the draw.
    """
    gens = []
    for extra, share in ((0, 2), (1, 3), (3, 4)):
        pool = _degree(d + extra)
        gens += rng.sample(pool, len(pool) // share)
    return sorted(gens)


def _monomial_job(name, gens, ladder_degree):
    def run():
        field = make_field(MONOMIAL_PRIME)
        ring = PolynomialRing(field, ("x", "y", "z"))
        ideal = groebner.Ideal(
            ring, [ring.from_dict({ring.pack(e): 1}) for e in gens])
        basis = ideal.groebner_basis()
        numerator = resolution.hilbert_numerator(ideal)
        return ring, basis, numerator, resolution.minimal_free_resolution(ideal)

    def check(result):
        ring, basis, numerator, res = result
        terms = [(ring.unpack(m), c) for f in basis for m, c in f.terms]
        return checks.check_monomial_ideal(gens, terms, numerator, res.shifts,
                                           ladder_degree)

    return Job(name, run, check)


# -- points ------------------------------------------------------------------

def _points_jobs(counts):
    group_order = _fixture("id10253")["group_order"]
    # x1 takes 16 values on the 16^4 points of F_16^4: classes of 4096
    # points, far beyond any orbit of the order-8 group, so f1-only must fail
    if not checks.forced_to_fail(16 ** 4, 16, group_order):
        raise AssertionError("f1-only would not be forced to fail")
    cases = (
        ("id10253/main", "id10253", "main", 8, 0, 8 ** 4),
        ("id10253/f1-only", "id10253", "f1-only", 16, 1, 16 ** 4),
        # two planes meeting only at the origin: 2 q^2 - 1 points
        ("two-planes/restricted", "two-planes", "restricted", 25, 0,
         2 * 25 ** 2 - 1),
        ("additive-2/generators", "additive-2", "generators", 4096, 0, 4096),
    )
    jobs = []
    for name, model, cand, q, want_code, want_points in cases:
        argv = ["--json", "verify", "-m", model, "--set", cand,
                "--points", str(q)]

        def run(argv=argv):
            counts.clear()
            code, text = _cli(argv)
            return code, text, list(counts)

        def check(result, q=q, want_code=want_code, want_points=want_points):
            code, text, seen = result
            if code != want_code:
                return [f"exit code {code}, expected {want_code}"]
            doc = json.loads(text)["results"]
            separates = want_code == 0
            problems = []
            if doc["symbolic"] is not separates:
                problems.append(f"symbolic verdict {doc['symbolic']}")
            if doc["points"] != {"field_order": q, "separates": separates}:
                problems.append(f"point check reads {doc['points']}")
            if seen != [want_points]:
                problems.append(f"point counts {seen}, expected "
                                f"[{want_points}]")
            return problems

        jobs.append(Job(name, run, check))
    return jobs


def _count_points(counts):
    """Record how many variety points each point check enumerates.

    `verify_separating_points` reaches `variety_points` through the
    `separating` module; the probe looks the function up in `group` on each
    call, so a traced wrapper installed there still sees the call.
    """
    def probe(*args, **kwargs):
        points = group.variety_points(*args, **kwargs)
        counts.append(len(points))
        return points

    separating.variety_points = probe


# -- entry -------------------------------------------------------------------

def build(name, seed):
    if name == "reproduce":
        return [_reproduce_job(model, args) for model, args in REPRODUCE]
    if name == "symmetric":
        return [_symmetric_job(n, p) for n, p in SYMMETRIC]
    if name == "monomial":
        rng = random.Random(seed)
        jobs = [_monomial_job(f"m^{d}", _degree(d), d) for d in LADDER]
        jobs += [_monomial_job(f"random-{d}", random_monomial_ideal(rng, d),
                               None) for d in RANDOM_DEGREES]
        return jobs
    if name == "points":
        counts = []
        _count_points(counts)
        return _points_jobs(counts)
    raise ValueError(f"unknown workload {name!r}")
