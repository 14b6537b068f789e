"""Spans around sepinv's public functions, and the per-layer metrics from them.

The tracer wraps each layer's public functions from outside the program.
Every call records a span (name, start, end, parent) in flat arrays kept in
memory; the spans are written out when the run ends.  A span's self time is
its duration minus that of its direct children, and a layer's inclusive
time counts only the outermost of nested spans with the same name.
"""

import importlib
import json
import sys
from array import array
from time import perf_counter

# (span name, module, class or None, attribute, size counter, size of result)
TARGETS = (
    ("groebner.groebner_basis", "sepinv.groebner", None, "groebner_basis",
     "groebner.basis_size", len),
    ("groebner.normal_form", "sepinv.groebner", None, "normal_form",
     None, None),
    ("groebner.intersect", "sepinv.groebner", "Ideal", "intersect",
     None, None),
    ("groebner.eliminate", "sepinv.groebner", "Ideal", "eliminate",
     None, None),
    ("groebner.radical_contains", "sepinv.groebner", "Ideal",
     "radical_contains", None, None),
    ("groebner.dimension", "sepinv.groebner", "Ideal", "dimension",
     None, None),
    ("resolution.minimal_free_resolution", "sepinv.resolution", None,
     "minimal_free_resolution", "resolution.betti_sum",
     lambda res: sum(res.betti_numbers())),
    ("resolution.hilbert_numerator", "sepinv.resolution", None,
     "hilbert_numerator", None, None),
    ("resolution.cohen_macaulay_defect", "sepinv.resolution", None,
     "cohen_macaulay_defect", None, None),
    ("sepvar.graph_components", "sepinv.sepvar", "SepVarietyModel",
     "graph_components", None, None),
    ("sepvar.separating_variety_radical", "sepinv.sepvar", "SepVarietyModel",
     "separating_variety_radical", None, None),
    ("sepvar.codim_matrix", "sepinv.sepvar", "SepVarietyModel",
     "codim_matrix", None, None),
    ("sepvar.pairwise_intersection_codim", "sepinv.sepvar", "SepVarietyModel",
     "pairwise_intersection_codim", None, None),
    ("sepvar.connectivity_equivalence_check", "sepinv.sepvar", None,
     "connectivity_equivalence_check", None, None),
    ("separating.verify_separating_symbolic", "sepinv.separating", None,
     "verify_separating_symbolic", None, None),
    ("separating.verify_separating_points", "sepinv.separating", None,
     "verify_separating_points", None, None),
    ("separating.reflection_audit", "sepinv.separating", None,
     "reflection_audit", None, None),
    ("group.enumerate_group", "sepinv.group", None, "enumerate_group",
     None, None),
    ("group.min_reflection_number", "sepinv.group", None,
     "min_reflection_number", None, None),
    ("group.variety_points", "sepinv.group", None, "variety_points",
     "group.variety_points.points", len),
    ("group.orbit", "sepinv.group", None, "orbit", None, None),
    ("field.make_field", "sepinv.field", None, "make_field", None, None),
    ("poly.evaluate", "sepinv.poly", "Polynomial", "evaluate", None, None),
    ("manifest.build", "sepinv.manifest", "Manifest", "build", None, None),
    ("bundled.load", "sepinv.bundled", None, "load", None, None),
    ("cli.main", "sepinv.cli", None, "main", None, None),
)

OVERHEAD = "trace.overhead_s"

# The per-layer metrics a traced run reports, in order.  `.calls` and the
# sizes are exact counts; `.s` is inclusive and `.self_s` self time per pass.
METRICS = (
    "groebner.groebner_basis.calls", "groebner.groebner_basis.self_s",
    "groebner.basis_size",
    "groebner.normal_form.calls", "groebner.normal_form.self_s",
    "groebner.intersect.s", "groebner.eliminate.s",
    "groebner.radical_contains.calls", "groebner.radical_contains.s",
    "groebner.dimension.calls", "groebner.dimension.s",
    "resolution.minimal_free_resolution.calls",
    "resolution.minimal_free_resolution.s",
    "resolution.minimal_free_resolution.self_s",
    "resolution.betti_sum",
    "resolution.hilbert_numerator.calls", "resolution.hilbert_numerator.s",
    "resolution.cohen_macaulay_defect.s",
    "sepvar.graph_components.s", "sepvar.separating_variety_radical.s",
    "sepvar.codim_matrix.s", "sepvar.pairwise_intersection_codim.calls",
    "sepvar.connectivity_equivalence_check.s",
    "separating.verify_separating_symbolic.s",
    "separating.verify_separating_points.s",
    "separating.reflection_audit.s",
    "group.enumerate_group.s", "group.min_reflection_number.s",
    "group.variety_points.s", "group.variety_points.points",
    "group.orbit.calls", "group.orbit.s",
    "field.make_field.calls", "field.make_field.s",
    "poly.evaluate.calls", "poly.evaluate.self_s",
    "manifest.build.s", "bundled.load.s", "cli.main.s",
    OVERHEAD,
)

SIZES = frozenset(t[4] for t in TARGETS if t[4])


def unit(metric):
    return "count" if metric.endswith(".calls") or metric in SIZES else "s"


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap wrappers in."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.sizes = dict.fromkeys(SIZES, 0)
        self._stack = []
        self._active = []
        self._swaps = []

    def wrap(self, span, fn, size_name=None, size_of=None):
        if span in self.names:
            nid = self.names.index(span)
        else:
            nid = len(self.names)
            self.names.append(span)
            self._active.append(0)
        names, parents, nested = self.name, self.parent, self.nested
        starts, ends = self.start, self.end
        stack, active, sizes = self._stack, self._active, self.sizes

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            nested.append(active[nid] > 0)
            active[nid] += 1
            stack.append(idx)
            ends.append(0.0)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1
            if size_of is not None:
                sizes[size_name] += size_of(result)
            return result

        return traced

    def prepare(self):
        """Build one wrapper per target, and the list of bindings to swap.

        A module function is swapped wherever a sepinv module holds it
        under a name, since modules import each other's functions.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sepinv" or n.startswith("sepinv.")]
        for span, module, cls, attr, size_name, size_of in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
                fn = owner.__dict__[attr]
                self._swaps.append((owner, attr, fn,
                                    self.wrap(span, fn, size_name, size_of)))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(span, fn, size_name, size_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._swaps.append((mod, key, fn, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _ in self._swaps:
            setattr(owner, attr, fn)

    def root(self, span, fn):
        """Run fn inside a top-level span (one per job)."""
        return self.wrap(span, fn)()

    def mark(self):
        """Position in the span arrays, and a snapshot of the size counters."""
        return len(self.start), dict(self.sizes)

    def derive(self, begin, finish):
        """Per-layer metrics for the spans and sizes between two marks."""
        lo, sizes_lo = begin
        hi, sizes_hi = finish
        count = len(self.names)
        calls = [0] * count
        incl = [0.0] * count
        own = [0.0] * count
        child = [0.0] * (hi - lo)
        name, parent, nested = self.name, self.parent, self.nested
        start, end = self.start, self.end
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        for i in range(lo, hi):
            nid = name[i]
            d = end[i] - start[i]
            calls[nid] += 1
            own[nid] += d - child[i - lo]
            if not nested[i]:
                incl[nid] += d
        by_name = {span: (calls[nid], incl[nid], own[nid])
                   for nid, span in enumerate(self.names)}
        out = {}
        for metric in METRICS:
            if metric in SIZES:
                out[metric] = sizes_hi[metric] - sizes_lo[metric]
                continue
            span, _, kind = metric.rpartition(".")
            if span not in by_name:
                continue
            c, s, o = by_name[span]
            out[metric] = {"calls": c, "s": s, "self_s": o}[kind]
        return out

    def write(self, path):
        """One JSON header line, then the raw span arrays in header order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["nested", "b"],
                       ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)


def read_spans(path):
    """Load a written trace: (names, {array name: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays[field] = arr
    return header["names"], arrays
