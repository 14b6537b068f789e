"""Command line front end.

Subcommands take a manifest (a path, or the name of a bundled model) and
print either a human summary or, with --json, a canonical machine report.
The machine report is deterministic: keys are sorted, timing is omitted,
and identical inputs produce byte-identical documents.

Exit codes: 0 for success, 1 when a verification or audit is negative,
2 for input problems, 3 when a resource cap stops a computation.  An
error's class fixes its code: `InputError` exits 2, `ResourceCapExceeded`
3 and `InternalError` 1; any other exception propagates.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from importlib import resources

from . import bundled, config
from .bundled import names as bundled_manifest_names
from .errors import (
    EnumerationCapExceeded,
    InputError,
    InternalError,
    InternalInconsistency,
    InvalidArgument,
    ManifestError,
    ReducibleModulus,
    ResourceCapExceeded,
)
from .field import _monic_polys, check_order, make_field
from .group import (
    NOT_FIXED_POINT_GENERATED,
    fixed_locus_codim,
    is_invariant,
    k_reflections,
    min_reflection_number,
)
from .manifest import Manifest
from .poly import read_decimal
from .resolution import (
    cohen_macaulay_defect,
    is_graded,
    minimal_free_resolution,
)
from .separating import (
    reflection_audit,
    verify_separating_points,
    verify_separating_symbolic,
)
from .sepvar import connected_in_codim, connectivity_equivalence_check

SCHEMA = 1

OK = 0
NEGATIVE = 1
INPUT_ERROR = 2
RESOURCE = 3


def _jsonable(value):
    """Replace infinities with the string 'inf' so JSON stays faithful."""
    if value == math.inf:
        return "inf"
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def _load_model(spec, caps):
    """A manifest path, or the name of a bundled manifest, built under caps."""
    if spec in bundled_manifest_names():
        return bundled.load(spec, caps=caps)
    return Manifest.from_path(spec, caps).build()


def _expected_checks(name):
    path = resources.files("sepinv").joinpath(f"data/expected/{name}.json")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError:
        raise ManifestError(f"no expected-value fixture for {name!r}")
    return doc["checks"]


# -- fact collection ---------------------------------------------------------


def model_facts(bm):
    """Every reproducible fact about a built model, as plain JSON data."""
    model, variety, group = bm.model, bm.variety, bm.group
    report = reflection_audit(
        model,
        candidates=list(bm.candidates.values()),
        ideals=list(bm.ideals.items()),
    )
    dim = report.dimension
    facts = {
        "group_order": len(group),
        "dimension": dim,
        "generator_fixed_codims": _jsonable(
            [fixed_locus_codim(g, variety) for g in group.generators]
        ),
        "fixed_point_elements": len(k_reflections(group, variety, dim)),
        "min_reflection_number": report.min_reflections,
    }
    facts["invariants_invariant"] = all(
        is_invariant(f, group) for f in bm.invariants.values()
    )
    if bm.relations:
        facts["relations_hold"] = all(
            r.is_zero() for r in bm.relations.values()
        )

    components = model.graph_components()
    radical = model.separating_variety_radical()
    matrix = model.codim_matrix()
    count = len(components)
    facts["sepvar_components"] = count
    facts["sepvar_dimension"] = radical.dimension()
    facts["sepvar_pairwise_disjoint"] = all(
        matrix[i][j] == math.inf
        for i in range(count) for j in range(count) if i != j
    )
    facts["vsep_connected"] = connected_in_codim(model, dim)

    facts["separating_symbolic"] = {
        name: verified for name, _, verified in report.candidates
    }
    facts["separating_points"] = {
        name: verify_separating_points(cand, group, variety)
        for name, cand in bm.candidates.items()
    }

    makers = _ideal_makers(bm)
    if not bm.invariants:
        del makers["differences"]
    facts["cmdef"] = {}
    for name, make in makers.items():
        ideal = make()
        facts["cmdef"][name] = (cohen_macaulay_defect(ideal)
                                if is_graded(ideal) else None)

    if not variety.is_affine_space():
        presented = variety.ideal()
        if is_graded(presented):
            facts["cmdef_coordinate_ring"] = cohen_macaulay_defect(presented)

    facts["audit_conclusion"] = report.conclusion
    return facts


def _flatten(facts):
    flat = {}
    for key, value in facts.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                flat[f"{key}.{sub}"] = v
        else:
            flat[key] = value
    return flat


# -- subcommand handlers -----------------------------------------------------


def _cmd_group_analyze(args, caps):
    bm = _load_model(args.manifest, caps)
    variety, group = bm.variety, bm.group
    dim = variety.dimension()
    table = {str(k): len(k_reflections(group, variety, k))
             for k in range(dim + 1)}
    least = min_reflection_number(group, variety)
    reason = NOT_FIXED_POINT_GENERATED if least is None else None
    results = {
        "order": len(group),
        "dimension": dim,
        "generator_fixed_codims": _jsonable(
            [fixed_locus_codim(g, variety) for g in group.generators]
        ),
        "reflection_table": table,
        "min_reflection_number": least,
    }
    if reason:
        results["min_reflection_note"] = reason
    lines = [
        f"group order: {len(group)}",
        f"variety dimension: {dim}",
        "generator fixed-locus codimensions: "
        + ", ".join(str(c) for c in results["generator_fixed_codims"]),
        "k-reflections (identity included):",
    ]
    lines += [f"  k = {k}: {table[str(k)]} element(s)" for k in sorted(
        table, key=int)]
    lines.append(f"min reflection number: {least if least is not None else 'none'}"
                 + (f" ({reason})" if reason else ""))
    return results, True, lines


def _cmd_sepvar_build(args, caps):
    bm = _load_model(args.manifest, caps)
    components = bm.model.graph_components()
    rows = []
    for comp in components:
        rows.append({
            "element": comp.aliases[0][0],
            "component": comp.component,
            "dimension": comp.dimension,
            "aliases": [list(a) for a in comp.aliases],
        })
    results = {
        "count": len(components),
        "graphs_considered": len(bm.group) * len(bm.variety.components),
        "components": rows,
    }
    lines = [f"separating variety: {len(components)} irreducible component(s) "
             f"from {results['graphs_considered']} graph(s)"]
    for i, row in enumerate(rows):
        alias = ""
        if len(row["aliases"]) > 1:
            alias = f" (+{len(row['aliases']) - 1} duplicate graph(s))"
        lines.append(
            f"  [{i}] element {row['element']} on component "
            f"{row['component']}, dim {row['dimension']}{alias}"
        )
    return results, True, lines


def _cmd_sepvar_connectivity(args, caps):
    bm = _load_model(args.manifest, caps)
    if args.codim < 0:
        raise InvalidArgument("--codim must be nonnegative")
    report = connectivity_equivalence_check(bm.model, args.codim)
    results = {
        "codim": report.k,
        "sepvar_connected": report.sepvar_connected,
        "variety_connected": report.variety_connected,
        "reflections_generate": report.reflections_generate,
        "equivalence_holds": True,
    }
    k = report.k
    lines = [
        f"separating variety connected in codimension {k}: "
        f"{str(report.sepvar_connected).lower()}",
        f"variety connected in codimension {k}: "
        f"{str(report.variety_connected).lower()}",
        f"group generated by {k}-reflections: "
        f"{str(report.reflections_generate).lower()}",
        "equivalence holds: true",
    ]
    return results, True, lines


def _ideal_makers(bm):
    """The model's named ideals, each by the call that makes it.

    `differences`, `radical`, then the manifest's ideals by name (a
    manifest may not use the model's two names, `manifest.MODEL_IDEALS`);
    nothing is computed until its maker is called.
    """
    makers = {
        "differences": bm.model.invariant_difference_ideal,
        "radical": bm.model.separating_variety_radical,
    }
    for name in sorted(bm.ideals):
        makers[name] = functools.partial(bm.ideals.get, name)
    return makers


def _cmd_cmdef(args, caps):
    bm = _load_model(args.manifest, caps)
    makers = _ideal_makers(bm)
    if args.ideal not in makers:
        raise ManifestError(f"unknown ideal {args.ideal!r}; "
                            f"known: {', '.join(makers)}")
    ideal = makers[args.ideal]()
    res = minimal_free_resolution(ideal)
    nvars = ideal.ring.nvars
    pd = res.length
    depth = res.depth
    cmdef = cohen_macaulay_defect(ideal)
    dim = ideal.dimension()
    graded = res.graded_betti()
    degrees = sorted({d for (_, d) in graded})
    rows = [{"degree": d,
             "counts": [graded.get((k, d), 0) for k in range(pd + 1)]}
            for d in degrees]
    results = {
        "ideal": args.ideal,
        "ring_variables": nvars,
        "dimension": dim,
        "projective_dimension": pd,
        "depth": depth,
        "cmdef": cmdef,
        "betti_numbers": res.betti_numbers(),
        "betti_rows": rows,
    }
    lines = [
        f"ideal: {args.ideal} ({len(ideal.gens)} generator(s) in "
        f"{nvars} variables)",
        f"dimension: {dim}",
        f"projective dimension: {pd}",
        f"depth: {depth}",
        f"cmdef: {cmdef}",
        "betti table:",
        res.betti_table(),
    ]
    return results, True, lines


def _read_order(text, caps):
    """The int a decimal order names, read a slice at a time.

    So an order past the interpreter's limit on str-to-int digits is still
    read, while one with more digits than enum_cap is refused unread.  Text
    that is not all digits goes to int() whole: signs and underscores as
    it takes them, anything else a ValueError.
    """
    if not (text.isascii() and text.isdigit()):
        return int(text)
    if len(text) > caps.enum_cap:
        raise EnumerationCapExceeded(
            f"make_field: field order has {len(text)} digits, exceeding "
            f"enum_cap {caps.enum_cap} (SEPINV_ENUM_CAP)"
        )
    return read_decimal(text, int)


def _exponent(q, p):
    """e with p^e == q, else ValueError; found from the bit length."""
    e = max(0, int((q.bit_length() - 1) / math.log2(p)))
    for e in (e, e + 1):
        if p ** e == q:
            return e
    raise ValueError("not a power of p")


def _shown(spec):
    """repr(spec) for an error message; a long spec by its ends and length."""
    if len(spec) <= 40:
        return repr(spec)
    return f"{spec[:16] + '...' + spec[-8:]!r} ({len(spec)} characters)"


def _field_for_points(bm, spec):
    """The field named by --points, e.g. '8' or '2^3', under bm's caps.

    The manifest's own field when the order is its order, else F_{p^e}
    on the first irreducible modulus.
    """
    p = bm.ring.field.p
    text = spec.strip()
    bad = f"--points {_shown(spec)} is not a power of the base characteristic {p}"
    try:
        if "^" in text:
            base, exp = text.split("^", 1)
            base, exp = int(base), int(exp)
        else:
            base, exp = p, _exponent(_read_order(text, bm.variety.caps), p)
    except ValueError:
        raise ManifestError(bad)
    if base != p or exp < 1:
        raise ManifestError(bad)
    if exp > 1:
        check_order(p, exp, bm.variety.caps)
    if p ** exp == bm.ring.field.order:
        return bm.ring.field
    if exp == 1:
        return make_field(p)
    for modulus in _monic_polys(exp, p):
        try:
            return make_field(p, exp, modulus, caps=bm.variety.caps)
        except ReducibleModulus:
            continue
    raise InternalInconsistency(f"no irreducible modulus found for {spec}")


def _cmd_verify(args, caps):
    bm = _load_model(args.manifest, caps)
    if args.set not in bm.candidates:
        known = ", ".join(sorted(bm.candidates)) or "none"
        raise ManifestError(f"unknown candidate set {args.set!r}; "
                            f"known: {known}")
    candidate = bm.candidates[args.set]
    symbolic = verify_separating_symbolic(candidate, bm.model)
    results = {
        "candidate": args.set,
        "size": len(candidate),
        "symbolic": symbolic,
    }
    lines = [
        f"candidate {args.set!r} ({len(candidate)} polynomial(s))",
        f"symbolic verification: {str(symbolic).lower()}",
    ]
    verdict = symbolic
    if args.points is not None:
        field = _field_for_points(bm, args.points)
        passed = verify_separating_points(candidate, bm.group, bm.variety,
                                          field)
        results["points"] = {"field_order": field.order, "separates": passed}
        lines.append(
            f"point check over the field with {field.order} elements: "
            f"{str(passed).lower()} (necessary evidence only)"
        )
        verdict = verdict and passed
    return results, verdict, lines


def _cmd_audit(args, caps):
    bm = _load_model(args.manifest, caps)
    report = reflection_audit(
        bm.model,
        candidates=list(bm.candidates.values()),
        ideals=list(bm.ideals.items()),
        cm_asserted=True if args.assert_cm else None,
    )
    results = dataclasses.asdict(report)
    results["min_reflection_number"] = results.pop("min_reflections")
    lines = [
        f"variety connected: {str(report.variety_connected).lower()}",
        f"Cohen-Macaulay: {report.cohen_macaulay} "
        f"({report.cohen_macaulay_source})",
        "generated by elements with fixed points: "
        + str(report.fixed_point_generated).lower(),
    ]
    for name, size, good in report.candidates:
        lines.append(f"candidate {name!r} (size {size}): "
                     + ("separating" if good else "not separating"))
    if report.gamma_upper_bound is not None:
        lines.append("smallest verified separating set: "
                     f"{report.gamma_upper_bound} element(s)")
    for name, matches, defect in report.ideals:
        if matches:
            lines.append(f"ideal {name!r}: same radical, cmdef {defect}")
        else:
            lines.append(f"ideal {name!r}: radical differs, ignored")
    if report.min_reflections is not None:
        lines.append(f"min reflection number: {report.min_reflections}")
    lines.append(f"conclusion: {report.conclusion}")
    lines += [f"note: {n}" for n in report.notes]
    return results, report.reflection_bound is not None, lines


def _cmd_reproduce(args, caps):
    bm = bundled.load(args.name, args.p, caps)
    expected = _expected_checks(bm.name)
    actual = _flatten(model_facts(bm))
    rows = []
    all_ok = True
    for key in sorted(expected):
        want = expected[key]["value"]
        provenance = expected[key]["provenance"]
        if key not in actual:
            rows.append({"check": key, "provenance": provenance,
                         "expected": want, "actual": None, "ok": False})
            all_ok = False
            continue
        got = actual[key]
        ok = got == want
        all_ok = all_ok and ok
        rows.append({"check": key, "provenance": provenance,
                     "expected": want, "actual": got, "ok": ok})
    results = {"model": bm.name, "checks": rows, "all_ok": all_ok}
    lines = [f"reproducing {bm.name}: {len(rows)} check(s)"]
    for row in rows:
        status = "ok" if row["ok"] else "MISMATCH"
        lines.append(
            f"  {row['check']} [{row['provenance']}]: expected "
            f"{json.dumps(row['expected'])}, actual "
            f"{json.dumps(row['actual'])} -> {status}"
        )
    lines.append("result: " + ("all checks passed" if all_ok
                               else "some checks FAILED"))
    return results, all_ok, lines


# -- dispatch ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="sepinv",
        description="Separating-variety connectivity, reflection "
                    "classification, and Cohen-Macaulay defects for finite "
                    "group actions.",
    )
    parser.add_argument("--json", action="store_true",
                        help="print a canonical machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    def manifest_arg(p):
        p.add_argument("--manifest", "-m", required=True,
                       help="manifest path, or a bundled name: "
                            + ", ".join(bundled_manifest_names()))

    def json_arg(p):
        p.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS,
                       help="print a canonical machine-readable report")

    group = sub.add_parser("group", help="group-level analysis")
    gsub = group.add_subparsers(dest="subcommand", required=True)
    analyze = gsub.add_parser("analyze",
                              help="order, reflection table, least k")
    manifest_arg(analyze)
    json_arg(analyze)
    analyze.set_defaults(handler=_cmd_group_analyze)

    sepvar = sub.add_parser("sepvar", help="separating-variety analysis")
    ssub = sepvar.add_subparsers(dest="subcommand", required=True)
    build = ssub.add_parser("build", help="list irreducible components")
    manifest_arg(build)
    json_arg(build)
    build.set_defaults(handler=_cmd_sepvar_build)
    conn = ssub.add_parser("connectivity",
                           help="connectivity in a given codimension, "
                                "with the group-side equivalence")
    manifest_arg(conn)
    conn.add_argument("--codim", type=int, required=True)
    json_arg(conn)
    conn.set_defaults(handler=_cmd_sepvar_connectivity)

    cmdef = sub.add_parser("cmdef", help="Cohen-Macaulay defect of an ideal")
    manifest_arg(cmdef)
    cmdef.add_argument("--ideal", required=True,
                       help="'differences', 'radical', or a manifest name")
    json_arg(cmdef)
    cmdef.set_defaults(handler=_cmd_cmdef)

    verify = sub.add_parser("verify", help="check a candidate separating set")
    manifest_arg(verify)
    verify.add_argument("--set", required=True)
    verify.add_argument("--points", metavar="Q",
                        help="also brute-force check over the field of "
                             "order Q (a power of the base characteristic)")
    json_arg(verify)
    verify.set_defaults(handler=_cmd_verify)

    audit = sub.add_parser("audit", help="reflection-bound hypothesis audit")
    manifest_arg(audit)
    audit.add_argument("--assert-cm", action="store_true",
                       help="assert that X is Cohen-Macaulay instead of "
                            "computing it")
    json_arg(audit)
    audit.set_defaults(handler=_cmd_audit)

    reproduce = sub.add_parser("reproduce",
                               help="run a bundled model against its "
                                    "expected values")
    reproduce.add_argument("name",
                           choices=bundled_manifest_names() + ["additive-p"])
    reproduce.add_argument("--p", type=int, default=2,
                           help="characteristic for additive-p (2, 3, or 5)")
    json_arg(reproduce)
    reproduce.set_defaults(handler=_cmd_reproduce)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        caps = config.from_env()
        results, verdict, lines = args.handler(args, caps)
    except ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return RESOURCE
    except InternalError as exc:
        print(f"internal consistency: {exc}", file=sys.stderr)
        return NEGATIVE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR

    command = args.command
    if getattr(args, "subcommand", None):
        command += " " + args.subcommand
    if args.json:
        document = {
            "schema": SCHEMA,
            "command": command,
            "results": results,
            "verdict": "ok" if verdict else "negative",
        }
        print(json.dumps(document, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)
        print(f"verdict: {'ok' if verdict else 'negative'}")
        print(f"elapsed: {time.monotonic() - started:.2f}s")
    return OK if verdict else NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
