"""Caps enter a run in one place and travel with the objects they bound.

The CLI reads the SEPINV_* variables once, in `cli.main`; the subprocess
tests in test_manifest_cli.py show that every variable still takes effect
there.  Library calls use the caps their caller passes, or `Caps()`.
"""

import ast
from pathlib import Path

import pytest

import sepinv
from sepinv import (
    AffineMap,
    Caps,
    PolynomialRing,
    connected_in_codim,
    enumerate_group,
    k_reflections,
    make_field,
    variety_connected_in_codim,
)
from sepinv.errors import (
    EnumerationCapExceeded,
    GroupCapExceeded,
    InvalidArgument,
)
from sepinv.groebner import groebner_basis
from sepinv.group import generated_by
from sepinv.manifest import Manifest
from sepinv.poly import LEX

SRC = Path(sepinv.__file__).resolve().parent


def f16_doc():
    return {
        "name": "f16-line",
        "field": {"p": 2, "e": 4, "modulus": [1, 1, 0, 0, 1]},
        "n": 1,
        "generators": [{"matrix": [[1]], "translation": [1]}],
    }


def test_library_calls_ignore_the_environment(monkeypatch):
    monkeypatch.setenv("SEPINV_PAIR_CAP", "1")
    monkeypatch.setenv("SEPINV_ENUM_CAP", "8")
    ring = PolynomialRing(make_field(5), ("x", "y", "z"), LEX)
    # two S-pairs, one more than SEPINV_PAIR_CAP allows
    gens = [ring.parse("x^2 - y"), ring.parse("x^3 - z")]
    assert groebner_basis(gens) == groebner_basis(gens, Caps())
    assert make_field(2, 4, [1, 1, 0, 0, 1]).order == 16


def test_a_manifest_builds_its_field_and_model_under_its_caps():
    with pytest.raises(EnumerationCapExceeded,
                       match=r"^make_field: field has 16 elements"):
        Manifest.from_dict(f16_doc(), Caps(enum_cap=8))
    manifest = Manifest.from_dict(f16_doc(), Caps(group_cap=1))
    assert manifest.field.order == 16
    with pytest.raises(GroupCapExceeded, match="group_cap 1 "):
        manifest.build()
    bm = Manifest.from_dict(f16_doc(), Caps(point_cap=99)).build()
    assert bm.variety.caps == Caps(point_cap=99)
    assert all(i.caps == Caps(point_cap=99) for i in bm.variety.components)


def test_bad_arguments_raise_invalid_argument(two_planes):
    model = two_planes.model
    variety, group = model.variety, model.group
    outside = AffineMap(variety.ring.field, [[2, 0, 0, 0], [0, 2, 0, 0],
                                              [0, 0, 2, 0], [0, 0, 0, 2]])
    table = [
        (lambda: k_reflections(group, variety, -1), "k must be nonnegative"),
        (lambda: variety_connected_in_codim(variety, -1),
         "k must be nonnegative"),
        (lambda: connected_in_codim(model, -1), "k must be nonnegative"),
        (lambda: enumerate_group([]), "at least one generator is required"),
        (lambda: generated_by(group, [outside]),
         "subset element outside the group"),
        (lambda: make_field(2, 0), "extension degree must be >= 1"),
        (lambda: make_field(5, 1, [1, 0]), "prime fields take no modulus"),
    ]
    for call, message in table:
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == message
        assert isinstance(info.value, ValueError)


# -- the one path, as a lint rule --------------------------------------------


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _sites(node, match, where="<module>"):
    """The definition around each node that `match` accepts, as a dotted
    path of classes and functions ("SepVarietyModel.difference_ideal")."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name if where == "<module>" else f"{where}.{node.name}"
    if match(node):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _sites(child, match, where)


def _is_call(node, name):
    """Is `node` a call of `name`, bare or as an attribute?"""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _callers(node, name):
    """The definition around each call of `name`."""
    return _sites(node, lambda n: _is_call(n, name))


def _all_sites(match, skip=()):
    return sorted({(mod, where) for mod, tree in _modules() if mod not in skip
                   for where in _sites(tree, match)})


def test_only_cli_main_reads_the_cap_variables():
    calls = [(mod, fn) for mod, tree in _modules()
             for fn in _callers(tree, "from_env")]
    assert calls == [("cli", "main")]
    readers = {mod for mod, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and node.attr in ("environ", "getenv")}
    assert readers == {"config"}


def test_field_groebner_and_group_take_only_the_caps_type_from_config():
    for mod, tree in _modules():
        if mod not in ("field", "groebner", "group"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any("config" in a.name for a in node.names), mod
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                if node.module == "config":
                    assert names == {"Caps"}, mod
                else:
                    assert "config" not in names, mod


# -- no cache that outlives the objects it serves -------------------------------

_DICT_MAKERS = {"dict", "defaultdict", "OrderedDict", "WeakKeyDictionary",
                "WeakValueDictionary"}


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_no_cache_keyed_across_calls():
    # Rings compare by value, so a functools cache or a module-level dict
    # would carry R[t] and its key cache from one CLI call to the next in
    # one process; `intersect` keeps R[t] on the ring object instead.  The
    # argument parser's lru_cache holds no ring.
    cached = set()
    offenders = []
    for mod, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                offenders.append((mod, "from functools import ..."))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    if _name(target) in ("lru_cache", "cache",
                                         "cached_property"):
                        cached.add((mod, node.name))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if isinstance(value, (ast.Dict, ast.DictComp)) or (
                        isinstance(value, ast.Call)
                        and _name(value.func) in _DICT_MAKERS):
                    offenders.append((mod, ast.unparse(node)[:40]))
    assert cached == {("cli", "_build_parser")}
    assert offenders == []


# -- each separating-variety rule is said once ------------------------------


def _splits_f_across_the_copies(node):
    # inject_x(f) - inject_y(f): one generator of a difference ideal
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and _is_call(node.left, "inject_x")
            and _is_call(node.right, "inject_y"))


def _is_variable(node):
    return _is_call(node, "var") or _is_call(node, "var_named")


def _composes_a_variable(node):
    # compose_affine(ring.var(i), sigma), directly or through a local name:
    # a coordinate image that `coordinate_images` already gives
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    variables = {
        target.id for n in ast.walk(node)
        if isinstance(n, ast.Assign) and _is_variable(n.value)
        for target in n.targets if isinstance(target, ast.Name)
    }
    return any(
        _is_call(n, "compose_affine") and n.args and (
            _is_variable(n.args[0])
            or getattr(n.args[0], "id", None) in variables)
        for n in ast.walk(node)
    )


def test_each_separating_variety_rule_has_one_home():
    assert _all_sites(lambda n: _is_call(n, "NotInvariant")) == [
        ("group", "require_invariant")]
    assert _all_sites(_splits_f_across_the_copies) == [
        ("sepvar", "SepVarietyModel.difference_ideal")]
    assert _all_sites(lambda n: _is_call(n, "is_homogeneous"),
                      skip=("poly",)) == [("resolution", "is_graded")]
    assert _all_sites(_composes_a_variable) == []
    assert _all_sites(lambda n: _is_call(n, "_graph_connected")) == [
        ("group", "variety_connected_in_codim"),
        ("sepvar", "connected_in_codim"),
    ]
    assert _all_sites(lambda n: isinstance(n, ast.Constant)
                      and n.value == "k must be nonnegative") == [
        ("group", "_graph_connected"), ("group", "k_reflections")]


# Each module imports only from modules of a lower layer; sepvar and
# separating share a layer and so do not import each other.
_LAYERS = ["errors", "config", "field poly", "groebner", "group resolution",
           "sepvar separating", "manifest", "bundled", "cli"]


def test_module_imports_run_in_one_direction():
    layer = {mod: i for i, names in enumerate(_LAYERS) for mod in names.split()}
    for mod, tree in _modules():
        if mod not in layer:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                used = ([node.module] if node.module
                        else [a.name for a in node.names])
                for dep in used:
                    assert layer[dep] < layer[mod], (mod, dep)
