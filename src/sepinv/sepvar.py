"""The separating variety of a finite group action.

For a group G acting on a variety X, the pairs of points that no
invariant can tell apart form a subvariety of X x X.  Its irreducible
components are the graphs H = {(x, sigma x) : x in X_i} of group
elements restricted to components of X, so the whole object lives in a
doubled polynomial ring: one x-copy and one y-copy of the coordinates.

The model below builds the doubled ring (`doubled_ring`, which the
manifest's ideals are parsed in too), the difference ideal (f(x) - f(y))
of any set of invariants, and the graph ideals from sigma's coordinate
images (`poly.coordinate_images`).  It deduplicates the graphs (distinct pairs
(sigma, i) can produce the same graph), intersects them into the
radical of the difference ideal, and measures how the components meet.
Every pairwise codimension is computed twice, once in the doubled ring
and once back on X, and the two answers are required to agree.  The
graph's connectivity follows X's own rule, `group._graph_connected`.
This module builds on `group` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    EquivalenceViolation,
    InternalInconsistency,
    InvalidArgument,
)
from .groebner import Ideal
from .group import (
    _graph_connected,
    _locus_codim,
    _moved_equations,
    fixed_locus_codim,
    min_reflection_number,
    require_invariant,
    variety_connected_in_codim,
    variety_points,
)
from .poly import GREVLEX, PolynomialRing, coordinate_images


def _mirror_names(names):
    """y-side variable names for the doubled ring.

    Names of the shape x<tail> become y<tail>; anything else gets a y_
    prefix.  Falls back to numbered names if that would collide.
    """
    out = []
    for name in names:
        if name.startswith("x"):
            out.append("y" + name[1:])
        else:
            out.append("y_" + name)
    if len(set(out)) != len(out) or set(out) & set(names):
        out = [f"y_{i + 1}" for i in range(len(names))]
    return tuple(out)


def doubled_ring(ring):
    """X x X's ring: the variables of `ring`, then their mirrored y-copies."""
    return PolynomialRing(
        ring.field, ring.variables + _mirror_names(ring.variables), GREVLEX
    )


class GraphComponent:
    """One component of the separating variety: the graph of sigma over X_i.

    `aliases` records every (element index, component index) pair whose
    graph coincides with this one; the first pair is the representative.
    """

    __slots__ = ("sigma", "component", "ideal", "dimension", "aliases")

    def __init__(self, sigma, component, ideal, dimension, aliases):
        self.sigma = sigma
        self.component = component
        self.ideal = ideal
        self.dimension = dimension
        self.aliases = aliases

    def __repr__(self):
        return (
            f"GraphComponent(element {self.aliases[0][0]}, "
            f"component {self.component}, dim {self.dimension})"
        )


class SepVarietyModel:
    """Everything needed to reason about one group action's separating variety."""

    def __init__(self, variety, group, invariants=None):
        """The invariants' difference ideal is made here, so an invariant
        that is not one, or is over another ring, is refused at once."""
        ring = variety.ring
        if group.field != ring.field or group.n != ring.nvars:
            raise DimensionMismatch("group and variety disagree on the ambient space")
        variety.check_group_action(group)
        self.variety = variety
        self.group = group
        self.base_ring = ring
        self.doubled_ring = doubled_ring(ring)
        self.invariants = tuple(invariants) if invariants else ()
        n = ring.nvars
        self._x_map = list(range(n))
        self._y_map = [n + i for i in range(n)]
        self._difference = (self.difference_ideal(self.invariants)
                            if self.invariants else None)
        self._graph = None
        self._radical = None
        self._pair = {}

    def __repr__(self):
        return (
            f"SepVarietyModel(|G| = {len(self.group)}, "
            f"{len(self.variety.components)} variety components)"
        )

    # -- the doubled ring -------------------------------------------------

    def inject_x(self, f):
        """Copy a base-ring polynomial into the x-side of the doubled ring."""
        return f.inject(self.doubled_ring, self._x_map)

    def inject_y(self, f):
        """Copy a base-ring polynomial into the y-side of the doubled ring."""
        return f.inject(self.doubled_ring, self._y_map)

    # -- the difference ideal ----------------------------------------------

    def difference_ideal(self, polys):
        """The ideal generated by f(x) - f(y) over the given polynomials.

        When X is a proper subvariety, the vanishing ideal of X x X is
        included on both copies, so the result presents a quotient of the
        coordinate ring of X x X rather than of the doubled ambient space.
        Each polynomial must lie in X's ring and be fixed by the group
        generators; anything else would silently break every later
        conclusion.
        """
        require_invariant(polys, self.group, self.base_ring)
        gens = [self.inject_x(f) - self.inject_y(f) for f in polys]
        if not self.variety.is_affine_space():
            for g in self.variety.ideal().gens:
                gens.append(self.inject_x(g))
                gens.append(self.inject_y(g))
        return Ideal(self.doubled_ring, gens, self.variety.caps)

    def invariant_difference_ideal(self):
        """The difference ideal of the supplied invariants, made with the model."""
        if self._difference is None:
            raise InvalidArgument("the model was built without invariants")
        return self._difference

    # -- graph components ---------------------------------------------------

    def graph_component_ideal(self, sigma, i):
        """The ideal of {(x, sigma x) : x in X_i} in the doubled ring."""
        comp = self.variety.components[i]
        gens = [self.inject_x(g) for g in comp.gens]
        n = self.base_ring.nvars
        for j, image in enumerate(coordinate_images(sigma, self.base_ring)):
            gens.append(self.doubled_ring.var(n + j) - self.inject_x(image))
        return Ideal(self.doubled_ring, gens, self.variety.caps)

    def graph_components(self):
        """Deduplicated graph components, in group enumeration order.

        Two pairs (sigma, i) and (tau, i) coincide exactly when sigma and
        tau agree on X_i; equality is decided on reduced Groebner bases.
        """
        if self._graph is None:
            found = []
            dims = self.variety.component_dimensions()
            for sidx, sigma in enumerate(self.group.elements):
                for i in range(len(self.variety.components)):
                    ideal = self.graph_component_ideal(sigma, i)
                    known = None
                    for gc in found:
                        if gc.ideal == ideal:
                            known = gc
                            break
                    if known is not None:
                        known.aliases = known.aliases + ((sidx, i),)
                        continue
                    d = ideal.dimension()
                    if d != dims[i]:
                        raise InternalInconsistency(
                            "graph component dimension differs from its base component"
                        )
                    found.append(GraphComponent(sigma, i, ideal, d, ((sidx, i),)))
            self._graph = found
        return self._graph

    def separating_variety_radical(self):
        """The vanishing ideal of the separating variety.

        Intersection of all graph component ideals.  Sanity checks: it has
        the dimension of X, and it contains the difference ideal whenever
        invariants were supplied.
        """
        if self._radical is None:
            comps = self.graph_components()
            acc = comps[0].ideal
            for gc in comps[1:]:
                acc = acc.intersect(gc.ideal)
            if acc.dimension() != self.variety.dimension():
                raise InternalInconsistency(
                    "separating variety dimension differs from the variety's"
                )
            if self.invariants:
                for g in self.invariant_difference_ideal().gens:
                    if not acc.contains(g):
                        raise InternalInconsistency(
                            "a difference generator escapes the component intersection"
                        )
            self._radical = acc
        return self._radical

    # -- pairwise intersections ----------------------------------------------

    def pairwise_intersection_codim(self, i, j):
        """Codimension inside the separating variety of one pairwise meet.

        Computed on the doubled ring, then re-derived on the base ring
        (the meet of two graphs is the graph over the locus where the two
        elements agree); disagreement means the implementation is broken.
        """
        if i > j:
            i, j = j, i
        cached = self._pair.get((i, j))
        if cached is not None:
            return cached
        comps = self.graph_components()
        if i == j:
            value = 0
        else:
            a, b = comps[i], comps[j]
            doubled = _locus_codim(
                self.variety, self.doubled_ring, a.ideal.gens + b.ideal.gens
            )
            rho = b.sigma.inverse().compose(a.sigma)
            base = self._agreement_codim(rho, a.component, b.component)
            if doubled != base:
                raise InternalInconsistency(
                    "doubled-ring and base-ring intersection codimensions disagree"
                )
            value = doubled
        self._pair[(i, j)] = value
        return value

    def _agreement_codim(self, rho, i, j):
        """Codimension in X of the locus of X_i meet X_j fixed by rho.

        On a variety of one component that locus is rho's fixed locus on X,
        whose codimension `fixed_locus_codim` caches per element.
        """
        components = self.variety.components
        if len(components) == 1:
            return fixed_locus_codim(rho, self.variety)
        gens = list(components[i].gens) + list(components[j].gens)
        gens += _moved_equations(rho, self.base_ring)
        return _locus_codim(self.variety, self.base_ring, gens)

    def codim_matrix(self):
        """Symmetric matrix of pairwise intersection codimensions."""
        count = len(self.graph_components())
        return [
            [self.pairwise_intersection_codim(i, j) for j in range(count)]
            for i in range(count)
        ]

    # -- point model ---------------------------------------------------------

    def point_pairs(self, field=None):
        """All same-orbit pairs of variety points over a finite field.

        This is the separating variety's set of rational points: finite
        evidence for cross-checks, never the definition.
        """
        fld = field or self.base_ring.field
        images = self.group.images(fld)
        pairs = set()
        for pt in variety_points(self.variety, fld):
            pairs.update((pt, image) for image in images(pt))
        return sorted(pairs)


# ---------------------------------------------------------------------------
# connectivity in codimension k
# ---------------------------------------------------------------------------

def connected_in_codim(model, k):
    """Is the separating variety's component graph connected when edges
    need codim <= k?

    A single component is always connected; for k >= dim this is plain
    connectedness.  X's own components: `group.variety_connected_in_codim`.
    """
    return _graph_connected(
        len(model.graph_components()), model.pairwise_intersection_codim, k
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Both sides of the connectivity equivalence at one k, already equal."""

    k: int
    sepvar_connected: bool
    variety_connected: bool
    reflections_generate: bool


def connectivity_equivalence_check(model, k):
    """Separating-variety connectivity against its predicted value.

    The separating variety is connected in codimension k exactly when X
    is connected in codimension k and the group is generated by
    k-reflections.  Both sides are computed from scratch; a mismatch is
    a hard error, because it can only come from a bug here, not from bad
    input.  The reflection side reads the least k,
    `group.min_reflection_number`.
    """
    left = connected_in_codim(model, k)
    vconn = variety_connected_in_codim(model.variety, k)
    least = min_reflection_number(model.group, model.variety)
    refl = least is not None and least <= k
    if left != (vconn and refl):
        raise EquivalenceViolation(
            f"separating variety connectivity in codim {k} is {left}, but X "
            f"connectivity is {vconn} and reflection generation is {refl}"
        )
    return EquivalenceReport(k, left, vconn, refl)
