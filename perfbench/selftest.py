"""Show that every correctness check rejects a deliberately wrong value.

    python3 perfbench/selftest.py

Runs one small job of each workload, confirms its check accepts the real
result, then feeds the check altered copies of that result and confirms
each is rejected.  Exits 1 if a right value is rejected or a wrong one
accepted.
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(label, problems, wrong):
    ok = bool(problems) == wrong
    verdict = "rejects" if problems else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {verdict} {label}"
          + (f": {problems[0]}" if problems else ""))
    if not ok:
        failures.append(label)


def job(workload, name, seed=1):
    for j in workloads.build(workload, seed):
        if j.name == name:
            return j
    raise KeyError(name)


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def reproduce():
    # a fresh job for each wrong value, so the value is its first pass and
    # only the fixture comparison can reject it
    code, text = job("reproduce", "id10253").run()
    doc = json.loads(text)
    row = next(r for r in doc["results"]["checks"]
               if r["check"] == "group_order")
    row["actual"] += 1
    expect("reproduce: group order off by one",
           job("reproduce", "id10253").check((code, canonical(doc))), True)
    doc = json.loads(text)
    doc["results"]["checks"].pop()
    expect("reproduce: a check missing",
           job("reproduce", "id10253").check((code, canonical(doc))), True)
    expect("reproduce: exit code 1",
           job("reproduce", "id10253").check((1, text)), True)
    j = job("reproduce", "id10253")
    expect("reproduce: the real report", j.check((code, text)), False)
    expect("reproduce: a later pass's document differs",
           j.check((code, json.dumps(json.loads(text)) + "\n")), True)


def symmetric():
    j = job("symmetric", "S3/F2")
    r = j.run()
    expect("symmetric: the real result", j.check(r), False)
    codims = [list(row) for row in r["codims"]]
    codims[0][1] += 1
    wrong = [
        ("a codim entry off by one", {"codims": codims}),
        ("a graph component dropped", {"components": r["components"][:-1]}),
        ("radical dimension n+1", {"radical_dim": 4}),
        ("min reflection number 2", {"min_reflection": 2}),
        ("equivalence side false", {"equivalence": dataclasses.replace(
            r["equivalence"], reflections_generate=False)}),
        ("full set not separating", {"full": False}),
        ("n-1 polynomials separating", {"short": True}),
    ]
    for label, change in wrong:
        expect(f"symmetric: {label}", j.check({**r, **change}), True)


def monomial():
    for name, ladder in (("m^6", True), ("random-12", False)):
        j = job("monomial", name)
        ring, basis, numerator, res = j.run()
        expect(f"monomial {name}: the real result",
               j.check((ring, basis, numerator, res)), False)
        bumped = dict(numerator)
        top = max(bumped)
        bumped[top] += 1
        expect(f"monomial {name}: numerator coefficient off by one",
               j.check((ring, basis, bumped, res)), True)
        expect(f"monomial {name}: basis element missing",
               j.check((ring, basis[:-1], numerator, res)), True)
        extra = ring.from_dict({basis[0].leading_monomial()
                                + ring.pack((1, 0, 0)): 1})
        expect(f"monomial {name}: non-minimal generator kept",
               j.check((ring, basis + [extra], numerator, res)), True)
        shifts = [list(s) for s in res.shifts]
        shifts[2].append(shifts[2][-1])
        shifts[1].append(shifts[2][-1])
        expect(f"monomial {name}: cancelling pair added to the resolution",
               j.check((ring, basis, numerator,
                        types.SimpleNamespace(shifts=shifts))), ladder)
    expect("m^2 Betti numbers", [] if checks.power_of_maximal_ideal_betti(2)
           == [1, 6, 8, 3] else ["formula"], False)
    expect("m^2 standard monomials", [] if checks.standard_monomial_counts(
        [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)], 3)
        == [1, 3, 0, 0] else ["count"], False)


def points():
    j = job("points", "additive-2/generators")
    code, text, counts = j.run()
    expect("points: the real result", j.check((code, text, counts)), False)
    expect("points: exit code 1", j.check((1, text, counts)), True)
    expect("points: a point missing",
           j.check((code, text, [counts[0] - 1])), True)
    doc = json.loads(text)
    doc["results"]["points"]["separates"] = False
    expect("points: point verdict flipped",
           j.check((code, canonical(doc), counts)), True)
    expect("points: f1-only forced to fail",
           [] if checks.forced_to_fail(16 ** 4, 16, 8) else ["pigeonhole"],
           False)
    expect("points: a separating count is not forced to fail",
           ["forced"] if checks.forced_to_fail(8, 8, 8) else [], False)


if __name__ == "__main__":
    reproduce()
    symmetric()
    monomial()
    points()
    print(f"{len(failures)} check(s) misbehaved" if failures
          else "every check accepts the real value and rejects the wrong ones")
    sys.exit(1 if failures else 0)
