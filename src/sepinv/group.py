"""Finite groups of affine maps and their fixed loci on a variety.

A group is enumerated breadth-first from its generators, so the element
order is deterministic: identity first, then words of length 1 in
generator order, then words of length 2, and so on.  The group acts on
functions by f |-> f(sigma(x)); `require_invariant` is the one check that
a polynomial is an invariant of the variety's ring.  Fixed loci are cut
out by the linear equations sigma(x) - x on each component, and their
codimension is measured against the dimension of the whole variety.
"""

from __future__ import annotations

import itertools
import math

from .config import Caps
from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    GroupCapExceeded,
    InvalidArgument,
    NotGeneratedByFixedPointElements,
    NotInvariant,
    RingMismatch,
    UnitIdeal,
    VarietyNotPreserved,
)
from .groebner import Ideal
from .poly import AffineMap, compose_affine, coordinate_images


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


def enumerate_group(generators, caps=Caps()):
    """Close a generator list under composition.

    Breadth-first over words in the generators, ties broken by generator
    order, so two runs with the same input produce the same element list.
    """
    generators = list(generators)
    if not generators:
        raise InvalidArgument("at least one generator is required")
    field = generators[0].field
    n = generators[0].n
    for g in generators:
        if g.field != field or g.n != n:
            raise DimensionMismatch("generators disagree on field or dimension")
    elements = _closure(AffineMap.identity(field, n), generators,
                        caps.group_cap)
    return FiniteGroup(field, n, generators, elements)


def generated_by(group, subset):
    """Does the subset generate the whole group?

    Every element of the subset must already belong to the group.  The
    generators are taken one at a time, skipping any element the ones
    before it already reach, and the closure is redone after each; the
    answer is yes as soon as a closure has the group's order.
    """
    subset = list(subset)
    for s in subset:
        if s not in group:
            raise InvalidArgument("subset element outside the group")
    gens = []
    reached = {group.identity}
    for s in subset:
        if len(reached) == len(group):
            break
        if s not in reached:
            gens.append(s)
            reached = set(_closure(group.identity, gens))
    return len(reached) == len(group)


def _closure(ident, generators, cap=math.inf):
    """Every product of the generators, breadth-first from the identity.

    Words of length 1 come in generator order, then words of length 2, and
    so on; an element is listed when it is first reached.  More than `cap`
    elements raise GroupCapExceeded.
    """
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
                if len(elements) >= cap:
                    raise GroupCapExceeded(
                        f"enumerate_group: {len(elements) + 1} elements "
                        f"exceed group_cap {cap} (SEPINV_GROUP_CAP)"
                    )
                seen.add(b)
                elements.append(b)
                fresh.append(b)
        frontier = fresh
    return elements


def invariance_offender(f, group):
    """The first group generator that moves f, or None."""
    for sigma in group.generators:
        if compose_affine(f, sigma) != f:
            return sigma
    return None


def is_invariant(f, group):
    """Is f fixed by the action?  Checking generators suffices."""
    return invariance_offender(f, group) is None


def require_invariant(polys, group, ring):
    """Raise unless each polynomial is over `ring` and fixed by the group.

    `ring` is the variety's: a foreign polynomial would be read by position.
    """
    for f in polys:
        if f.ring != ring:
            raise RingMismatch(f"polynomial over {f.ring}, variety over {ring}")
        offender = invariance_offender(f, group)
        if offender is not None:
            raise NotInvariant(f, offender)


class VarietyPresentation:
    """An affine variety described by the prime ideals of its components.

    Primality of the component ideals is asserted by the caller, not
    verified here.  With no components given, the variety is all of
    affine space: the single zero ideal.
    """

    def __init__(self, ring, components=None, caps=Caps()):
        self.ring = ring
        self.caps = caps
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


def fixed_locus_codim(sigma, variety):
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
    equations = _moved_equations(sigma, ring)
    codim = min(_locus_codim(variety, ring, list(comp.gens) + equations)
                for comp in variety.components)
    variety._codims[sigma] = codim
    return codim


def _moved_equations(sigma, ring):
    """The nonzero sigma(x_i) - x_i: together they cut out sigma's fixed points."""
    moved = (image - ring.var(i)
             for i, image in enumerate(coordinate_images(sigma, ring)))
    return [m for m in moved if not m.is_zero()]


def _locus_codim(variety, ring, gens):
    """Codimension in X of the locus that `gens` cut out; +inf when empty.

    The locus may live in a ring other than X's own, such as the doubled
    ring of the separating variety: only its dimension is compared.
    """
    locus = Ideal(ring, gens, variety.caps)
    if locus.is_unit():
        return math.inf
    return variety.dimension() - locus.dimension()


def k_reflections(group, variety, k):
    """All elements whose fixed locus has codimension at most k.

    The identity is always included, since its fixed locus is everything.
    """
    if k < 0:
        raise InvalidArgument("k must be nonnegative")
    return [s for s in group if fixed_locus_codim(s, variety) <= k]


def _graph_connected(count, codim, k):
    """Are the components connected by the edges with codim(a, b) <= k?"""
    if k < 0:
        raise InvalidArgument("k must be nonnegative")
    seen = {0}
    stack = [0]
    while stack:
        a = stack.pop()
        for b in range(count):
            if b not in seen and codim(a, b) <= k:
                seen.add(b)
                stack.append(b)
    return len(seen) == count


def variety_pairwise_codim(variety, i, j):
    """Codimension in X of the meet of two listed components."""
    if i > j:
        i, j = j, i
    cached = variety._pair_codims.get((i, j))
    if cached is not None:
        return cached
    if i == j:
        value = 0
    else:
        value = _locus_codim(
            variety, variety.ring,
            variety.components[i].gens + variety.components[j].gens,
        )
    variety._pair_codims[(i, j)] = value
    return value


def variety_connected_in_codim(variety, k):
    """Is X's component graph connected when edges need codim <= k?"""
    return _graph_connected(
        len(variety.components),
        lambda a, b: variety_pairwise_codim(variety, a, b), k,
    )


def variety_points(variety, field=None):
    """All points of the variety with coordinates in the given field.

    Returns a sized, re-iterable view, not a list: the points come out as
    they are iterated, in `itertools.product` order, and `len` is their
    exact count without making them.  Wrap the view in `list` to index it.

    The field may be an extension of the base field's prime field.  The
    q^n coordinate tuples are capped by the variety's `point_cap`, and the
    field by its `enum_cap`, when this is called, before the scan starts.
    The scan assigns x_1, ..., x_n in turn and tests each generator as
    soon as its last variable is set, so a prefix that no component can
    contain is dropped with all its completions.  Past the last variable
    any generator uses, every completion is a point: the scan keeps each
    such prefix, and the view expands it when iterated.  Affine space has
    one prefix, the empty one.

    A generator c*x_k + h(x_1, ..., x_{k-1}) with c a nonzero constant,
    x_k in no other term, pins x_k: on its component x_k can only be
    -h/c.  The first such generator of a component at level k is solved
    for x_k instead of tested, so a level where every live component is
    pinned tries only their pinned values, and a graph y = f(x) costs
    one evaluation per point instead of q.  Points come out in
    `itertools.product` order all the same, since the pinned values are
    tried in ascending raw order, the order of the full scan.
    """
    fld = field or variety.ring.field
    caps = variety.caps
    n = variety.ring.nvars
    total = fld.order ** n
    if total > caps.point_cap:
        raise EnumerationCapExceeded(
            f"variety_points: {total} candidate points exceed point_cap "
            f"{caps.point_cap} (SEPINV_POINT_CAP)"
        )
    values = fld.enumerate_raw(caps.enum_cap)
    # pins[k][c]: component c's pin on x_k, a function of the prefix;
    # tests[k][c]: evaluators of c's other generators with last variable x_k
    pins = [[None] * len(variety.components) for _ in range(n)]
    tests = [[[] for _ in variety.components] for _ in range(n)]
    for c, comp in enumerate(variety.components):
        for g in comp.gens:
            pairs = g.as_pairs()
            last = max(
                (i for exps, _ in pairs for i, e in enumerate(exps) if e),
                default=0,
            )
            top = [(exps, a) for exps, a in pairs if exps[last]]
            if (pins[last][c] is None and len(top) == 1
                    and sum(top[0][0]) == 1):
                pins[last][c] = _pin(g, last, top[0][1], fld)
            else:
                tests[last][c].append(g.evaluator(fld))
    while tests and not any(tests[-1]) and not any(pins[-1]):
        tests.pop()
        pins.pop()
    prefixes = []
    _complete(prefixes, [0] * n, 0, range(len(variety.components)), pins,
              tests, values)
    return _PointView(prefixes, values, n - len(tests))


class _PointView:
    """The points that extend each kept prefix by every free completion.

    All prefixes have the same length k; the last n - k coordinates run
    over `values`.  Iteration makes each point when it is read.
    """

    __slots__ = ("_prefixes", "_values", "_free")

    def __init__(self, prefixes, values, free):
        self._prefixes = prefixes
        self._values = values
        self._free = free

    def __len__(self):
        return len(self._prefixes) * len(self._values) ** self._free

    def __iter__(self):
        # zip(head) gives head's coordinates as 1-tuples, so `product`
        # builds each point whole, prefix first
        tail = (self._values,) * self._free
        return itertools.chain.from_iterable(
            itertools.product(*zip(head), *tail) for head in self._prefixes
        )


def _pin(g, k, coef, fld):
    """x_k as a function of the prefix, for g = coef*x_k + h(x_1..x_{k-1})."""
    h = g - g.ring.var(k).scale(coef)
    value = h.evaluator(fld)
    mul, scale = fld.mul, fld.neg(fld.inv(coef))
    return lambda prefix: mul(scale, value(prefix))


def _complete(prefixes, prefix, k, live, pins, tests, values):
    """Append to `prefixes` every complete prefix that extends prefix[:k].

    A prefix is complete at the level past the last variable any
    generator uses: every completion of it is a point of the variety, so
    it is kept as the tuple of its coordinates, not expanded.

    `live` lists the components that may still contain the prefix,
    pins[j][c] component c's pin on x_j (or None), and tests[j][c] the
    evaluators for its other generators whose last variable is x_j.  The
    pins of the live components are solved once per prefix.  When all
    are pinned, x_k runs over their distinct values in ascending raw
    order, which keeps `itertools.product` order; otherwise over every
    value.  A pinned component is alive at x only when x is its pin and
    its tests vanish.
    """
    if k == len(tests):
        prefixes.append(tuple(prefix[:k]))
        return
    level, pinned = tests[k], pins[k]
    solved = {c: pinned[c](prefix) for c in live if pinned[c] is not None}
    if len(solved) == len(live):
        tries = sorted(set(solved.values()))
    else:
        tries = values
    for x in tries:
        prefix[k] = x
        alive = [c for c in live if solved.get(c, x) == x
                 and all(f(prefix) == 0 for f in level[c])]
        if alive:
            _complete(prefixes, prefix, k + 1, alive, pins, tests, values)


def orbit(group, point, field=None):
    """The orbit of a point under the group, sorted for determinism."""
    if len(point) != group.n:
        raise DimensionMismatch("point length != group dimension")
    return sorted({s.point_map(field)(point) for s in group})


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
