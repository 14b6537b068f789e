"""Declarative model descriptions in JSON.

A manifest names everything a run needs: the coefficient field, the ambient
dimension, the group generators, optional variety components, and optional
named invariants, candidate separating sets, extra doubled-ring ideals, and
relations among the invariants.
Validation is all-or-nothing: every declared polynomial must parse in its
ring before any model computation starts, and any defect is reported as a
`ManifestError` naming the offending entry.

The document layout:

    {
      "schema": 1,
      "name": "two-planes",
      "field": {"p": 5},                       // {"p", "e", "modulus"}
      "n": 4,
      "variables": ["x1", "x2", "x3", "x4"],   // optional, default x1..xn
      "generators": [{"matrix": [[...], ...], "translation": [...]}],
      "components": [["x1 - x3", "x2 - x4"], ["x1 + x3", "x2 + x4"]],
      "invariants": {"a1": "x1", ...},
      "candidates": {"restricted": ["x1", "x2"]},
      "ideals": {"J": ["x1 - y1", ...]},       // over x1..xn, y1..yn
      "relations": {"r": "a1^2 - a2"}          // over the invariant names
    }

`components` defaults to a single zero ideal, meaning X is all of K^n.
Ideal generators live in the doubled ring, whose second block of variables
mirrors the first (`x3` pairs with `y3`).  A relation is a polynomial in
the invariants, written with their names as variables; it holds when
substituting the invariants gives zero.
"""

import json

from .config import Caps
from .errors import (
    DimensionMismatch,
    ManifestError,
    MissingModulus,
    NonPrimeCharacteristic,
    PolynomialSyntaxError,
    ReducibleModulus,
    UnknownVariable,
)
from .field import make_field
from .groebner import Ideal
from .group import VarietyPresentation, enumerate_group
from .poly import GREVLEX, AffineMap, PolynomialRing
from .separating import SeparatingCandidate
from .sepvar import SepVarietyModel, doubled_ring

_TOP_KEYS = frozenset((
    "schema", "name", "field", "n", "variables", "generators",
    "components", "invariants", "candidates", "ideals", "relations",
))


def _fail(where, message):
    raise ManifestError(f"{where}: {message}")


def _expect(value, kind, where):
    if not isinstance(value, kind):
        _fail(where, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, "expected an integer")
    return value


def _parse_poly(ring, text, where):
    _expect(text, str, where)
    try:
        return ring.parse(text)
    except (PolynomialSyntaxError, UnknownVariable) as exc:
        _fail(where, str(exc))


class BundledModel:
    """A built model with its invariants, candidates, ideals and relations.

    `invariants` maps names to polynomials in the base ring, `candidates`
    maps names to SeparatingCandidate objects, `ideals` maps names to
    ideals of the doubled ring whose defects are worth computing, and
    `relations` maps names to base-ring polynomials that should vanish.
    """

    __slots__ = ("name", "ring", "variety", "group", "invariants",
                 "candidates", "ideals", "model", "relations")

    def __init__(self, name, variety, group, invariants, candidates, ideals,
                 relations):
        self.name = name
        self.ring = variety.ring
        self.variety = variety
        self.group = group
        self.invariants = dict(invariants)
        self.candidates = candidates
        self.model = SepVarietyModel(
            variety, group, invariants=list(invariants.values()) or None
        )
        self.ideals = ideals
        self.relations = dict(relations)

    def __repr__(self):
        return f"BundledModel({self.name!r})"


class Manifest:
    """A validated model description, built under the caps it was read with."""

    __slots__ = ("schema", "name", "field", "ring", "doubled_ring",
                 "generators", "components", "invariants", "candidates",
                 "ideals", "relations", "caps")

    def __init__(self, schema, name, field, ring, doubled_ring, generators,
                 components, invariants, candidates, ideals, relations, caps):
        self.schema = schema
        self.name = name
        self.field = field
        self.ring = ring
        self.doubled_ring = doubled_ring
        self.generators = generators
        self.components = components
        self.invariants = invariants
        self.candidates = candidates
        self.ideals = ideals
        self.relations = relations
        self.caps = caps

    @classmethod
    def from_dict(cls, doc, caps=Caps()):
        """Validate a parsed JSON document into a Manifest."""
        _expect(doc, dict, "manifest")
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            _fail("manifest", f"unknown keys {sorted(unknown)}")

        schema = _int(doc.get("schema", 1), "schema")
        if schema != 1:
            _fail("schema", f"unsupported version {schema}")
        name = _expect(doc.get("name"), str, "name")
        if not name:
            _fail("name", "must be a non-empty string")

        spec = _expect(doc.get("field"), dict, "field")
        unknown = set(spec) - {"p", "e", "modulus"}
        if unknown:
            _fail("field", f"unknown keys {sorted(unknown)}")
        p = _int(spec.get("p"), "field.p")
        e = _int(spec.get("e", 1), "field.e")
        modulus = spec.get("modulus")
        if modulus is not None:
            _expect(modulus, list, "field.modulus")
            modulus = [_int(c, "field.modulus") for c in modulus]
        try:
            field = make_field(p, e, modulus, caps=caps)
        except (NonPrimeCharacteristic, MissingModulus, ReducibleModulus,
                ValueError) as exc:
            _fail("field", str(exc))

        n = _int(doc.get("n"), "n")
        if n < 1:
            _fail("n", "ambient dimension must be positive")
        variables = doc.get("variables")
        if variables is None:
            variables = [f"x{i + 1}" for i in range(n)]
        _expect(variables, list, "variables")
        if len(variables) != n or len(set(variables)) != n:
            _fail("variables", f"need {n} distinct names")
        for v in variables:
            _expect(v, str, "variables")
        try:
            ring = PolynomialRing(field, tuple(variables), GREVLEX)
            doubled = doubled_ring(ring)
        except ValueError as exc:
            _fail("variables", str(exc))

        raw_gens = _expect(doc.get("generators"), list, "generators")
        if not raw_gens:
            _fail("generators", "at least one group generator is required")
        generators = []
        for idx, entry in enumerate(raw_gens):
            where = f"generators[{idx}]"
            _expect(entry, dict, where)
            unknown = set(entry) - {"matrix", "translation"}
            if unknown:
                _fail(where, f"unknown keys {sorted(unknown)}")
            matrix = _expect(entry.get("matrix"), list, where + ".matrix")
            if len(matrix) != n:
                _fail(where + ".matrix", f"need {n} rows")
            for row in matrix:
                _expect(row, list, where + ".matrix")
                if len(row) != n:
                    _fail(where + ".matrix", f"need {n} columns per row")
                for v in row:
                    _int(v, where + ".matrix")
            translation = entry.get("translation")
            if translation is not None:
                _expect(translation, list, where + ".translation")
                if len(translation) != n:
                    _fail(where + ".translation", f"need {n} entries")
                for v in translation:
                    _int(v, where + ".translation")
            try:
                generators.append(AffineMap(field, matrix, translation))
            except (ValueError, DimensionMismatch) as exc:
                _fail(where, str(exc))

        components = None
        raw_components = doc.get("components")
        if raw_components is not None:
            _expect(raw_components, list, "components")
            if not raw_components:
                _fail("components", "must list at least one component")
            components = []
            for idx, gens in enumerate(raw_components):
                where = f"components[{idx}]"
                _expect(gens, list, where)
                if not gens:
                    _fail(where, "a component needs at least one generator")
                components.append(
                    [_parse_poly(ring, g, where) for g in gens]
                )

        invariants = {}
        for key, text in _expect(doc.get("invariants", {}), dict,
                                 "invariants").items():
            invariants[key] = _parse_poly(ring, text, f"invariants.{key}")

        candidates = {}
        for key, entries in _expect(doc.get("candidates", {}), dict,
                                    "candidates").items():
            where = f"candidates.{key}"
            _expect(entries, list, where)
            if not entries:
                _fail(where, "a candidate set cannot be empty")
            candidates[key] = [_parse_poly(ring, t, where) for t in entries]

        ideals = {}
        for key, entries in _expect(doc.get("ideals", {}), dict,
                                    "ideals").items():
            where = f"ideals.{key}"
            _expect(entries, list, where)
            if not entries:
                _fail(where, "an ideal needs at least one generator")
            ideals[key] = [_parse_poly(doubled, t, where) for t in entries]

        relations = {}
        raw_relations = _expect(doc.get("relations", {}), dict, "relations")
        if raw_relations:
            if not invariants:
                _fail("relations", "relations need declared invariants")
            try:
                over = PolynomialRing(field, tuple(invariants), GREVLEX)
            except ValueError as exc:
                _fail("relations", str(exc))
            images = list(invariants.values())
            for key, text in raw_relations.items():
                relation = _parse_poly(over, text, f"relations.{key}")
                relations[key] = relation.substitute(images)

        return cls(schema, name, field, ring, doubled, generators,
                   components, invariants, candidates, ideals, relations, caps)

    @classmethod
    def from_path(cls, path, caps=Caps()):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ManifestError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or an int too long
            raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc, caps)

    def build(self):
        """Construct the model this manifest describes."""
        caps = self.caps
        group = enumerate_group(self.generators, caps)
        component_ideals = None
        if self.components is not None:
            component_ideals = [Ideal(self.ring, gens, caps)
                                for gens in self.components]
        variety = VarietyPresentation(self.ring, component_ideals, caps)
        candidates = {key: SeparatingCandidate(key, polys)
                      for key, polys in self.candidates.items()}
        ideals = {key: Ideal(self.doubled_ring, gens, caps)
                  for key, gens in self.ideals.items()}
        return BundledModel(self.name, variety, group, self.invariants,
                            candidates, ideals, self.relations)
