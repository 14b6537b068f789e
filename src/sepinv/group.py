"""Finite groups of affine maps and their fixed loci on a variety.

A group is enumerated breadth-first from its generators, so the element
order is deterministic: identity first, then words of length 1 in
generator order, then words of length 2, and so on.  Fixed loci are cut
out by the linear equations sigma(x) - x on each component, and their
codimension is measured against the dimension of the whole variety.
"""

from __future__ import annotations

import itertools
import math

from . import config
from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    GroupCapExceeded,
    NotGeneratedByFixedPointElements,
    RingMismatch,
    UnitIdeal,
    VarietyNotPreserved,
)
from .groebner import Ideal
from .poly import AffineMap, compose_affine


class FiniteGroup:
    """A fully enumerated finite group of invertible affine maps."""

    def __init__(self, field, n, generators, elements):
        self.field = field
        self.n = n
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._members = frozenset(self.elements)

    @property
    def identity(self):
        return self.elements[0]

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, sigma):
        return sigma in self._members

    def __repr__(self):
        return f"FiniteGroup(order {self.order}, dimension {self.n})"


def enumerate_group(generators, caps=None):
    """Close a generator list under composition.

    Breadth-first over words in the generators, ties broken by generator
    order, so two runs with the same input produce the same element list.
    """
    caps = caps or config.from_env()
    generators = list(generators)
    if not generators:
        raise ValueError("at least one generator is required")
    field = generators[0].field
    n = generators[0].n
    for g in generators:
        if g.field != field or g.n != n:
            raise DimensionMismatch("generators disagree on field or dimension")
    ident = AffineMap.identity(field, n)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                b = a.compose(g)
                if b in seen:
                    continue
                if len(elements) >= caps.group_cap:
                    raise GroupCapExceeded(
                        f"group order exceeds cap {caps.group_cap}"
                    )
                seen.add(b)
                elements.append(b)
                fresh.append(b)
        frontier = fresh
    return FiniteGroup(field, n, generators, elements)


def generated_by(group, subset):
    """Does the subset generate the whole group?

    Decided by closing the subset and comparing orders; every element of
    the subset must already belong to the group.
    """
    subset = list(subset)
    for s in subset:
        if s not in group:
            raise ValueError("subset element outside the group")
    ident = group.identity
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in subset:
                b = a.compose(g)
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
        frontier = fresh
    return len(seen) == len(group)


class VarietyPresentation:
    """An affine variety described by the prime ideals of its components.

    Primality of the component ideals is asserted by the caller, not
    verified here.  With no components given, the variety is all of
    affine space: the single zero ideal.
    """

    def __init__(self, ring, components=None, caps=None):
        self.ring = ring
        self.caps = caps or config.from_env()
        if not components:
            components = [Ideal(ring, [], self.caps)]
        comps = []
        for ideal in components:
            if ideal.ring != ring:
                raise RingMismatch("component ideal outside the base ring")
            if ideal.is_unit():
                raise UnitIdeal("component ideals must be proper")
            comps.append(ideal)
        self.components = tuple(comps)
        self._dims = None
        self._ideal = None
        self._codims = {}
        self._pair_codims = {}

    def __repr__(self):
        return (
            f"VarietyPresentation({len(self.components)} components "
            f"in {self.ring})"
        )

    @property
    def n(self):
        return self.ring.nvars

    def component_dimensions(self):
        if self._dims is None:
            self._dims = tuple(c.dimension() for c in self.components)
        return self._dims

    def dimension(self):
        return max(self.component_dimensions())

    def is_affine_space(self):
        return len(self.components) == 1 and self.components[0].is_zero()

    def ideal(self):
        """Vanishing ideal of the whole variety: meet of the components."""
        if self._ideal is None:
            acc = self.components[0]
            for c in self.components[1:]:
                acc = acc.intersect(c)
            self._ideal = acc
        return self._ideal

    def transformed_component(self, ideal, sigma):
        """The ideal of sigma(X_i): compose each generator with the inverse."""
        inv = sigma.inverse()
        gens = [compose_affine(g, inv) for g in ideal.gens]
        return Ideal(self.ring, gens, self.caps)

    def check_group_action(self, group):
        """Each group generator must permute the component list.

        Images are compared against the listed components by reduced
        Groebner bases; a miss means the group does not act on this
        presentation and everything downstream would be meaningless.
        """
        for sigma in group.generators:
            for comp in self.components:
                image = self.transformed_component(comp, sigma)
                if not any(image == other for other in self.components):
                    raise VarietyNotPreserved(
                        "a group generator moves a component off the list"
                    )


def fixed_locus_codim(sigma, variety, caps=None):
    """Codimension in X of the fixed locus of sigma.

    The fixed locus on each component is the component ideal plus the
    linear equations sigma(x) - x.  Returns a value in {0, ..., dim X},
    or +inf when sigma fixes no point of X at all.
    """
    ring = variety.ring
    if sigma.n != ring.nvars:
        raise DimensionMismatch("map dimension differs from the ring")
    cached = variety._codims.get(sigma)
    if cached is not None:
        return cached
    caps = caps or variety.caps
    equations = []
    for i in range(ring.nvars):
        xi = ring.var(i)
        moved = compose_affine(xi, sigma) - xi
        if not moved.is_zero():
            equations.append(moved)
    best = None
    for comp in variety.components:
        fixed = Ideal(ring, list(comp.gens) + equations, caps)
        if fixed.is_unit():
            continue
        d = fixed.dimension()
        if best is None or d > best:
            best = d
    if best is None:
        codim = math.inf
    else:
        codim = variety.dimension() - best
    variety._codims[sigma] = codim
    return codim


def k_reflections(group, variety, k):
    """All elements whose fixed locus has codimension at most k.

    The identity is always included, since its fixed locus is everything.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return [s for s in group if fixed_locus_codim(s, variety) <= k]


def _graph_connected(count, edge):
    seen = {0}
    stack = [0]
    while stack:
        a = stack.pop()
        for b in range(count):
            if b not in seen and edge(a, b):
                seen.add(b)
                stack.append(b)
    return len(seen) == count


def variety_pairwise_codim(variety, i, j, caps=None):
    """Codimension in X of the meet of two listed components."""
    if i > j:
        i, j = j, i
    cached = variety._pair_codims.get((i, j))
    if cached is not None:
        return cached
    if i == j:
        value = 0
    else:
        caps = caps or variety.caps
        both = Ideal(
            variety.ring,
            variety.components[i].gens + variety.components[j].gens,
            caps,
        )
        if both.is_unit():
            value = math.inf
        else:
            value = variety.dimension() - both.dimension()
    variety._pair_codims[(i, j)] = value
    return value


def variety_connected_in_codim(variety, k):
    """Is X's component graph connected when edges need codim <= k?"""
    if k < 0:
        raise ValueError("k must be nonnegative")
    count = len(variety.components)
    return _graph_connected(
        count, lambda a, b: variety_pairwise_codim(variety, a, b) <= k
    )


def variety_points(variety, field=None, caps=None):
    """All points of the variety with coordinates in the given field.

    The field may be an extension of the base field's prime field.  The
    q^n coordinate tuples are capped by `point_cap` before the scan
    starts.  The scan assigns x_1, ..., x_n in turn and tests each
    generator as soon as its last variable is set, so a prefix that no
    component can contain is dropped with all its completions.  Past the
    last variable any generator uses, every completion is a point.
    Points come out in `itertools.product` order.
    """
    fld = field or variety.ring.field
    caps = caps or variety.caps
    n = variety.ring.nvars
    total = fld.order ** n
    if total > caps.point_cap:
        raise EnumerationCapExceeded(
            f"variety_points: {total} candidate points exceed point_cap "
            f"{caps.point_cap} (SEPINV_POINT_CAP)"
        )
    values = fld.enumerate_raw(caps.enum_cap)
    # tests[k][c]: component c's generators whose last variable is x_k
    tests = [[[] for _ in variety.components] for _ in range(n)]
    for c, comp in enumerate(variety.components):
        for g in comp.gens:
            last = max(
                (i for exps, _ in g.as_pairs() for i, e in enumerate(exps) if e),
                default=0,
            )
            tests[last][c].append(g.evaluator(fld))
    while tests and not any(tests[-1]):
        tests.pop()
    points = []
    _complete(points, [0] * n, 0, range(len(variety.components)), tests, values)
    return points


def _complete(points, prefix, k, live, tests, values):
    """Append every point of the variety that extends prefix[:k].

    `live` lists the components that may still contain the prefix, and
    tests[j][c] the evaluators for component c's generators whose last
    variable is x_j.  Past the last level of tests, every completion is
    a point.
    """
    if k == len(tests):
        head = tuple(prefix[:k])
        points.extend(
            head + tail
            for tail in itertools.product(values, repeat=len(prefix) - k)
        )
        return
    level = tests[k]
    for x in values:
        prefix[k] = x
        alive = [c for c in live if all(f(prefix) == 0 for f in level[c])]
        if alive:
            _complete(points, prefix, k + 1, alive, tests, values)


def orbit(group, point, field=None):
    """The orbit of a point under the group, sorted for determinism."""
    return sorted({s.apply_point(point, field) for s in group})


def min_reflection_number(group, variety):
    """The least m such that the m-reflections generate the group.

    Searches m = 0, 1, ..., dim X.  If even the elements with a fixed
    point fail to generate, no m works and the group is simply not
    generated by fixed-point elements on this variety.
    """
    for m in range(variety.dimension() + 1):
        if generated_by(group, k_reflections(group, variety, m)):
            return m
    raise NotGeneratedByFixedPointElements(
        "the group is not generated by elements with a fixed point"
    )
