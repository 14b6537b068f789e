"""Tests for manifest loading and the command line front end."""

import copy
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import time
from importlib import resources
from pathlib import Path

import pytest

from sepinv import bundled, cli, errors
from sepinv.cli import _build_parser, bundled_manifest_names, main
from sepinv.errors import ManifestError
from sepinv.manifest import Manifest


def valid_doc():
    return {
        "schema": 1,
        "name": "swap-plane",
        "field": {"p": 5},
        "n": 2,
        "generators": [{"matrix": [[0, 1], [1, 0]]}],
        "invariants": {"e1": "x1 + x2", "e2": "x1*x2"},
        "candidates": {"elementary": ["x1 + x2", "x1*x2"]},
    }


def test_valid_manifest_builds():
    m = Manifest.from_dict(valid_doc())
    assert m.name == "swap-plane"
    assert m.ring.variables == ("x1", "x2")
    bm = m.build()
    assert bm.group.order == 2
    assert set(bm.candidates) == {"elementary"}
    assert set(bm.invariants) == {"e1", "e2"}


def test_manifest_accepts_named_variables_and_ideals():
    doc = valid_doc()
    doc["variables"] = ["u", "v"]
    doc["invariants"] = {"e1": "u + v", "e2": "u*v"}
    doc["candidates"] = {"elementary": ["u + v", "u*v"]}
    doc["ideals"] = {"diag": ["u + y_u", "v + y_v"]}
    m = Manifest.from_dict(doc)
    assert m.doubled_ring.variables == ("u", "v", "y_u", "y_v")
    bm = m.build()
    assert "diag" in bm.ideals


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(schema=2), "schema"),
        (lambda d: d.pop("name"), "name"),
        (lambda d: d.pop("field"), "field"),
        (lambda d: d.update(field={"p": 6}), "prime"),
        (lambda d: d.update(field={"p": 2, "e": 2}), "modulus"),
        (lambda d: d.update(n=0), "n"),
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d.update(variables=["x1"]), "variables"),
        (lambda d: d.update(variables=["x1", "x1"]), "variables"),
        (lambda d: d.update(generators=[]), "generators"),
        (
            lambda d: d.update(generators=[{"matrix": [[1, 1], [1, 1]]}]),
            "generators[0]",
        ),
        (
            lambda d: d.update(
                generators=[{"matrix": [[0, 1], [1, 0]], "translation": [1]}]
            ),
            "generators[0]",
        ),
        (lambda d: d["invariants"].update(e1="x1 +"), "invariants.e1"),
        (lambda d: d["invariants"].update(e1="x9"), "invariants.e1"),
        (
            lambda d: d.update(candidates={"bad": ["x1 * * x2"]}),
            "candidates.bad",
        ),
        (lambda d: d.update(components=[]), "components"),
        (lambda d: d.update(components=[[]]), "components"),
        (lambda d: d.update(components=[["x1 -"]]), "components"),
        (lambda d: d.update(ideals={"j": ["z9"]}), "ideals.j"),
        (lambda d: d.update(invariants={"e1": 7}), "invariants"),
        (
            lambda d: (d.pop("invariants"), d.update(relations={"r": "1"})),
            "declared invariants",
        ),
    ],
)
def test_manifest_rejects_bad_documents(mutate, fragment):
    doc = copy.deepcopy(valid_doc())
    mutate(doc)
    with pytest.raises(ManifestError) as err:
        Manifest.from_dict(doc)
    assert fragment in str(err.value)


def test_manifest_from_path_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ManifestError):
        Manifest.from_path(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestError):
        Manifest.from_path(str(bad))


def test_bundled_manifest_names():
    assert bundled_manifest_names() == [
        "additive-2",
        "additive-3",
        "additive-5",
        "id10253",
        "two-planes",
    ]


def packaged_manifest(name):
    path = resources.files("sepinv").joinpath(f"data/manifests/{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_manifest_has_an_expected_fixture():
    root = resources.files("sepinv").joinpath("data")

    def stems(kind):
        return {p.name[:-len(".json")] for p in root.joinpath(kind).iterdir()
                if p.name.endswith(".json")}

    assert stems("manifests") == stems("expected")


def test_id10253_manifest_algebra():
    bm = bundled.load("id10253")
    f1, f2, f3, f4, h = (bm.invariants[k] for k in ("f1", "f2", "f3", "f4", "h"))
    main = [f1, f2, f1 * h + f3, f1 * h + f4]
    assert list(bm.candidates["main"].polynomials) == main
    model = bm.model
    assert list(bm.ideals["J"].gens) == [
        model.inject_x(g) - model.inject_y(g) for g in main
    ]
    assert set(bm.relations) == {"algebra", "square"}
    assert all(r.is_zero() for r in bm.relations.values())


def test_id10253_manifest_relations_are_checked():
    from sepinv.cli import model_facts

    doc = packaged_manifest("id10253")
    doc["relations"]["wrong"] = "h^2 + f1^2*f3"
    bm = Manifest.from_dict(doc).build()
    assert not bm.relations["wrong"].is_zero()
    assert model_facts(bm)["relations_hold"] is False

    doc = packaged_manifest("id10253")
    doc["relations"]["stray"] = "f1*g9"
    with pytest.raises(ManifestError, match=r"relations\.stray"):
        Manifest.from_dict(doc)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def test_cli_group_analyze(capsys):
    code, out = run_cli(capsys, ["group", "analyze", "-m", "id10253"])
    assert code == 0
    assert "group order: 8" in out
    assert "min reflection number: 1" in out
    assert "verdict: ok" in out
    assert "elapsed:" in out


def test_cli_group_analyze_json(capsys):
    code, out = run_cli(capsys, ["group", "analyze", "-m", "additive-3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "group analyze"
    assert doc["verdict"] == "ok"
    assert doc["results"]["order"] == 3
    assert doc["results"]["generator_fixed_codims"] == ["inf"]
    assert doc["results"]["min_reflection_number"] is None
    assert "elapsed" not in doc


def test_cli_json_is_deterministic(capsys):
    _, first = run_cli(capsys, ["sepvar", "build", "-m", "two-planes", "--json"])
    _, second = run_cli(capsys, ["sepvar", "build", "-m", "two-planes", "--json"])
    assert first == second
    doc = json.loads(first)
    assert doc["results"]["count"] == 4
    assert doc["results"]["graphs_considered"] == 4
    # successive calls share one parser and still print identical bytes
    verify = ["--json", "verify", "-m", "id10253", "--set", "main",
              "--points", "8"]
    assert run_cli(capsys, verify) == run_cli(capsys, verify)
    assert _build_parser() is _build_parser()


def test_cli_connectivity(capsys):
    code, out = run_cli(
        capsys, ["sepvar", "connectivity", "-m", "two-planes", "--codim", "2"]
    )
    assert code == 0
    assert "separating variety connected in codimension 2: true" in out
    code, out = run_cli(
        capsys,
        ["sepvar", "connectivity", "-m", "two-planes", "--codim", "1", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["sepvar_connected"] is False
    assert doc["results"]["equivalence_holds"] is True


def test_cli_cmdef(capsys):
    code, out = run_cli(
        capsys, ["cmdef", "-m", "id10253", "--ideal", "J", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["betti_numbers"] == [1, 4, 6, 4, 1]
    assert doc["results"]["cmdef"] == 0
    assert doc["results"]["projective_dimension"] == 4
    code, out = run_cli(capsys, ["cmdef", "-m", "id10253", "--ideal", "missing"])
    assert code == 2
    assert "unknown ideal" in out


def test_cli_cmdef_rejects_inhomogeneous(capsys):
    code, out = run_cli(
        capsys, ["cmdef", "-m", "additive-2", "--ideal", "differences"]
    )
    assert code == 2
    assert "homogeneous" in out


def test_cli_verify(capsys):
    code, out = run_cli(
        capsys, ["verify", "-m", "id10253", "--set", "main", "--points", "4"]
    )
    assert code == 0
    assert "necessary evidence only" in out
    code, out = run_cli(capsys, ["verify", "-m", "id10253", "--set", "f1-only"])
    assert code == 1
    assert "verdict: negative" in out
    code, out = run_cli(capsys, ["verify", "-m", "id10253", "--set", "nope"])
    assert code == 2


def test_cli_verify_rejects_bad_points_field(capsys):
    code, out = run_cli(
        capsys, ["verify", "-m", "id10253", "--set", "main", "--points", "9"]
    )
    assert code == 2
    assert "power of the base characteristic" in out


def test_cli_audit(capsys):
    code, out = run_cli(capsys, ["audit", "-m", "id10253"])
    assert code == 0
    assert "conclusion: the group is generated by 1-reflections" in out
    code, out = run_cli(capsys, ["audit", "-m", "two-planes", "--json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "negative"
    assert doc["results"]["conclusion"] == "no conclusion: X is not Cohen-Macaulay"
    code, out = run_cli(capsys, ["audit", "-m", "additive-5"])
    assert code == 1
    assert "not generated by elements with a fixed point" in out


def test_cli_audit_catches_false_cm_assertion(capsys):
    code, out = run_cli(capsys, ["audit", "-m", "two-planes", "--assert-cm"])
    assert code == 1
    assert "internal consistency" in out


def test_cli_reproduce(capsys):
    code, out = run_cli(capsys, ["reproduce", "additive-p", "--p", "3"])
    assert code == 0
    assert "all checks passed" in out or "verdict: ok" in out
    code, out = run_cli(capsys, ["reproduce", "additive-p", "--p", "7"])
    assert code == 2
    assert out.splitlines() == [
        "error: unknown bundled model 'additive-7'; known bundled models: "
        "additive-2, additive-3, additive-5, id10253, two-planes"
    ]


def test_cli_reproduce_accepts_every_packaged_name(capsys):
    assert run_cli(capsys, ["--json", "reproduce", "additive-3"]) == run_cli(
        capsys, ["--json", "reproduce", "additive-p", "--p", "3"])


@pytest.mark.parametrize("name", ["id10253", "two-planes"])
def test_cli_reproduce_bundled_models_exactly(name, capsys):
    code, out = run_cli(capsys, ["reproduce", name, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "ok"
    rows = doc["results"]["checks"]
    assert rows and all(row["ok"] for row in rows)
    assert {row["provenance"] for row in rows} <= {"reported", "derived"}


def test_cli_manifest_file_and_errors(tmp_path, capsys):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(valid_doc()))
    code, out = run_cli(capsys, ["group", "analyze", "-m", str(path)])
    assert code == 0
    assert "group order: 2" in out
    code, out = run_cli(capsys, ["group", "analyze", "-m", str(tmp_path / "absent.json")])
    assert code == 2
    bad = tmp_path / "broken.json"
    bad.write_text("]")
    code, out = run_cli(capsys, ["group", "analyze", "-m", str(bad)])
    assert code == 2


def test_cli_verify_from_file_manifest(tmp_path, capsys):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(valid_doc()))
    code, out = run_cli(
        capsys, ["verify", "-m", str(path), "--set", "elementary", "--points", "25"]
    )
    assert code == 0
    assert "verdict: ok" in out


def test_cli_verify_points_over_the_manifests_own_extension_field(tmp_path, capsys):
    # F_16 = F_2[t]/(t^4 + t^3 + 1), not the first irreducible quartic
    doc = valid_doc()
    doc["field"] = {"p": 2, "e": 4, "modulus": [1, 0, 0, 1, 1]}
    path = tmp_path / "swap16.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(
        capsys, ["verify", "-m", str(path), "--set", "elementary", "--points", "16"]
    )
    assert code in (0, 1), out
    assert "point check over the field with 16 elements" in out



@pytest.mark.parametrize("generator", [
    {"matrix": [[0, 7], [1, 0]]},
    {"matrix": [[0, 1], [1, 0]], "translation": [0, 9]},
    {"matrix": [[0, -1], [-1, 0]]},
], ids=["entry-7", "translation-9", "entry--1"])
def test_cli_extension_entries_outside_the_field_are_input_errors(
        generator, tmp_path, capsys):
    # F_4 entries are raw encodings in [0, 4): 7 and 9 used to end in an
    # IndexError, and -1 in a wrong group of order 3 with exit 0
    doc = valid_doc()
    doc["field"] = {"p": 2, "e": 2, "modulus": [1, 1, 1]}
    doc["generators"] = [generator]
    path = tmp_path / "swap4.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, ["group", "analyze", "-m", str(path)])
    assert code == 2
    assert out.splitlines() == [
        "error: generators[0]: entries over F_2^2 must be raw encodings "
        "in [0, 4)"]


def test_cli_negative_codim_is_an_input_error(capsys):
    code, out = run_cli(
        capsys, ["sepvar", "connectivity", "-m", "additive-2", "--codim", "-1"])
    assert code == 2
    assert out.splitlines() == ["error: --codim must be nonnegative"]


def test_cli_differences_without_invariants_is_an_input_error(tmp_path, capsys):
    doc = valid_doc()
    del doc["invariants"], doc["candidates"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(
        capsys, ["cmdef", "-m", str(path), "--ideal", "differences"])
    assert code == 2
    assert out.splitlines() == ["error: the model was built without invariants"]


def write_manifest(tmp_path, doc):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("text,code,err", [
    ("(" * 10_000 + "x1 + x2" + ")" * 10_000, 0, ""),
    ("(" * 10_000 + "x1 + x2", 2,
     "error: invariants.e1: expected ), got None (at position 10007)\n"),
    ("7" * 5000 + "*(x1 + x2)", 0, ""),
], ids=["nested", "unclosed", "long-literal"])
def test_cli_long_polynomials_end_without_a_traceback(text, code, err,
                                                      tmp_path, capsys):
    # 10,000 parentheses used to raise RecursionError, and a literal past
    # the 4,300-digit limit of int(str) a ValueError
    doc = valid_doc()
    doc["invariants"]["e1"] = text
    path = write_manifest(tmp_path, doc)
    assert main(["group", "analyze", "-m", path]) == code
    assert capsys.readouterr().err == err


def test_cli_large_characteristics(tmp_path, capsys):
    doc = valid_doc()
    doc["field"] = {"p": 2 ** 61 - 1}
    start = time.perf_counter()
    code, out = run_cli(capsys, ["group", "analyze", "-m",
                                 write_manifest(tmp_path, doc)])
    assert time.perf_counter() - start < 1
    assert code == 0, out
    doc["field"] = {"p": 2 ** 89 - 1}
    code, out = run_cli(capsys, ["group", "analyze", "-m",
                                 write_manifest(tmp_path, doc)])
    assert (code, out) == (2, "error: field: primality is decided exactly "
                              "only below 3317044064679887385961981\n")


def test_cli_manifest_integer_past_the_digit_limit_is_an_input_error(
        tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"name": "long", "field": {"p": %s}}' % ("1" * 5000))
    code, out = run_cli(capsys, ["group", "analyze", "-m", str(path)])
    assert code == 2
    line, = out.splitlines()
    assert line.startswith(f"error: {path} is not valid JSON: ")


@pytest.mark.parametrize("command", [["sepvar", "build"], ["group", "analyze"]])
def test_cli_declared_invariants_are_checked_when_the_model_is_built(
        command, tmp_path, capsys):
    doc = valid_doc()
    doc["invariants"] = {"e1": "x1"}
    code, out = run_cli(capsys, [*command, "-m", write_manifest(tmp_path, doc)])
    assert code == 2
    line, = out.splitlines()
    assert line.startswith(
        "error: polynomial x1 is not invariant under group generator ")


def test_cli_value_error_in_a_handler_propagates(monkeypatch):
    def broken(*args):
        raise ValueError("a bug, not an input error")

    monkeypatch.setattr(cli, "k_reflections", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["group", "analyze", "-m", "additive-2"])


# The exit code of every class in sepinv.errors, or None where cli.main lets
# the exception propagate.  A class missing here fails the test below.
EXIT_CODES = {
    "SepinvError": None,
    "InputError": 2,
    "ResourceCapExceeded": 3,
    "InternalError": 1,
    "NonPrimeCharacteristic": 2,
    "ReducibleModulus": 2,
    "MissingModulus": 2,
    "DivisionByZero": None,
    "EnumerationCapExceeded": 3,
    "PolynomialSyntaxError": 2,
    "UnknownVariable": 2,
    "RingMismatch": 2,
    "DimensionMismatch": 2,
    "UnitIdeal": 2,
    "NonHomogeneousInput": 2,
    "GroupCapExceeded": 3,
    "VarietyNotPreserved": 2,
    "NotInvariant": 2,
    "EquivalenceViolation": 1,
    "InternalInconsistency": 1,
    "InvalidArgument": 2,
    "ManifestError": 2,
    "CapsEnvironmentError": 2,
}
PREFIXES = {1: "internal consistency: ", 2: "error: ", 3: "resource cap: "}


def test_cli_exit_code_of_every_error_class(monkeypatch, capsys):
    classes = {name: obj for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.SepinvError)}
    assert set(classes) == set(EXIT_CODES)
    special = {"PolynomialSyntaxError": ("boom", 3),
               "NotInvariant": ("f", "g")}
    for name, cls in classes.items():
        exc = cls(*special.get(name, ("boom",)))

        def fail(spec, caps, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_load_model", fail)
        argv = ["group", "analyze", "-m", "additive-2"]
        want = EXIT_CODES[name]
        if want is None:
            with pytest.raises(cls):
                main(argv)
            continue
        assert run_cli(capsys, argv) == (want, f"{PREFIXES[want]}{exc}\n"), name


def test_cli_resource_cap_exit_code():
    env = dict(os.environ, SEPINV_GROUP_CAP="4")
    proc = subprocess.run(
        [sys.executable, "-m", "sepinv.cli", "group", "analyze", "-m", "id10253"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 3
    assert "resource cap" in proc.stdout + proc.stderr


def test_cli_points_field_above_enum_cap_exits_3():
    env = dict(os.environ, SEPINV_ENUM_CAP="8")
    proc = subprocess.run(
        [sys.executable, "-m", "sepinv", "verify", "-m", "id10253",
         "--set", "main", "--points", "16"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "resource cap: make_field: field has 16 elements, exceeding "
        "enum_cap 8 (SEPINV_ENUM_CAP)"
    ]


@pytest.mark.parametrize("exp", [5000, 100000])
def test_cli_points_far_above_enum_cap_is_a_one_line_cap_error(
    exp, monkeypatch, capsys
):
    # the order is refused before a modulus is looked for, and a power
    # past the interpreter's 4,300-digit limit for str(int) is no traceback
    def no_modulus_search(degree, p):
        raise AssertionError("looked for a modulus")

    monkeypatch.setattr(cli, "_monic_polys", no_modulus_search)
    monkeypatch.delenv("SEPINV_ENUM_CAP", raising=False)
    code, out = run_cli(capsys, ["verify", "-m", "id10253", "--set", "main",
                                 "--points", f"2^{exp}"])
    assert (code, out) == (
        3, f"resource cap: make_field: field has 2^{exp} elements, "
           "exceeding enum_cap 65536 (SEPINV_ENUM_CAP)\n")


def test_cli_decimal_points_order_past_the_digit_limit_is_a_cap_error(
    monkeypatch, capsys
):
    # 2^20000 has 6,021 decimal digits, past the interpreter's 4,300-digit
    # limit for int(str); it is still read, and refused as too large
    monkeypatch.delenv("SEPINV_ENUM_CAP", raising=False)
    digits = _decimal(2 ** 20000)
    assert len(digits) == 6021
    code, out = run_cli(capsys, ["verify", "-m", "id10253", "--set", "main",
                                 "--points", digits])
    assert (code, out) == (
        3, "resource cap: make_field: field has 2^20000 elements, "
           "exceeding enum_cap 65536 (SEPINV_ENUM_CAP)\n")
    # more digits than enum_cap: refused unread, whatever the number is
    monkeypatch.setenv("SEPINV_ENUM_CAP", "8")
    code, out = run_cli(capsys, ["verify", "-m", "id10253", "--set", "main",
                                 "--points", "123456789"])
    assert (code, out) == (
        3, "resource cap: make_field: field order has 9 digits, exceeding "
           "enum_cap 8 (SEPINV_ENUM_CAP)\n")


@pytest.mark.parametrize("prefix", ["3", "2^"])
def test_cli_long_points_spec_is_a_one_line_input_error(
    prefix, monkeypatch, capsys
):
    # 3 followed by the digits of 2^20000 is no power of 2, and 2^<those
    # digits> has an exponent past the digit limit of int(str): each error
    # shows the spec's ends and its length, not the whole spec
    monkeypatch.delenv("SEPINV_ENUM_CAP", raising=False)
    spec = prefix + _decimal(2 ** 20000)
    code, out = run_cli(capsys, ["verify", "-m", "id10253", "--set", "main",
                                 "--points", spec])
    assert code == 2
    line, = out.splitlines()
    assert line == (
        f"error: --points {spec[:16] + '...' + spec[-8:]!r} "
        f"({len(spec)} characters) is not a power of the base characteristic 2")
    assert len(line) < 120


def _decimal(n):
    """n in decimal, in slices short enough for any int(str) digit limit."""
    parts = []
    while n:
        n, low = divmod(n, 10 ** 500)
        parts.append(str(low).zfill(500))
    return "".join(reversed(parts)).lstrip("0") or "0"


def test_cli_malformed_cap_variable_is_an_input_error():
    env = dict(os.environ, SEPINV_PAIR_CAP="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "sepinv", "group", "analyze", "-m", "additive-2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: SEPINV_PAIR_CAP must be an integer, got 'abc'"
    ]


# Runs a console-script target the way the wrapper that pip generates does:
# load "module:attr", name the program after the script, exit with its result.
_SCRIPT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
target = EntryPoint("sepinv", sys.argv[1], "console_scripts").load()
sys.argv = ["sepinv", *sys.argv[2:]]
sys.exit(target())
"""


def declared_console_script():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["sepinv"]


def test_console_script_entry_point():
    args = ["sepvar", "connectivity", "-m", "additive-2", "--codim", "1"]
    commands = [
        [sys.executable, "-c", _SCRIPT_WRAPPER, declared_console_script(), *args],
        [sys.executable, "-m", "sepinv", *args],
    ]
    installed = shutil.which("sepinv", path=sysconfig.get_path("scripts"))
    if installed:
        commands.append([installed, *args])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0, (command, proc.stderr)
        assert "equivalence holds: true" in proc.stdout, command
