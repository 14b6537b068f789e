"""Separating-set verification and the reflection audit.

A set S of invariants is separating when it tells apart everything the
full invariant ring tells apart.  Symbolically that is an equality of
radicals in the doubled ring; over a finite field it can also be probed
by brute force, comparing S-value buckets with group orbits.  The point
check is necessary evidence only: the symbolic claim lives over the
algebraic closure.

The audit ties the package together: it checks the hypotheses under
which connectivity and Cohen-Macaulay data force reflection generation,
draws the implied conclusion when everything holds, and then verifies
that conclusion independently against the group itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistency, NotInvariant, RingMismatch
from .groebner import Ideal
from .group import (
    generated_by,
    k_reflections,
    min_reflection_number,
    variety_connected_in_codim,
    variety_points,
)
from .poly import compose_affine, is_homogeneous
from .resolution import cohen_macaulay_defect


def invariance_offender(f, group):
    """The first group generator that moves f, or None."""
    for sigma in group.generators:
        if compose_affine(f, sigma) != f:
            return sigma
    return None


def is_invariant(f, group):
    """Is f fixed by the action?  Checking generators suffices."""
    return invariance_offender(f, group) is None


class SeparatingCandidate:
    """A named set of invariants proposed as separating."""

    __slots__ = ("name", "polynomials")

    def __init__(self, name, polynomials):
        self.name = name
        self.polynomials = tuple(polynomials)

    def __len__(self):
        return len(self.polynomials)

    def __iter__(self):
        return iter(self.polynomials)

    def __repr__(self):
        return f"SeparatingCandidate({self.name!r}, {len(self)} polynomials)"


def _check_invariance(candidate, group):
    for g in candidate.polynomials:
        offender = invariance_offender(g, group)
        if offender is not None:
            raise NotInvariant(g, offender)


def verify_separating_symbolic(candidate, model):
    """Is the candidate separating?  Decided by radical membership.

    The candidate's difference ideal (plus the variety's ambient
    relations on both coordinate copies) must have the same radical as
    the separating variety's vanishing ideal.  The ambient relations lie
    in that ideal itself, so plain membership answers them.
    """
    _check_invariance(candidate, model.group)
    gens = [
        model.inject_x(g) - model.inject_y(g) for g in candidate.polynomials
    ]
    if not model.variety.is_affine_space():
        ambient = model.variety.ideal()
        gens += [model.inject_x(g) for g in ambient.gens]
        gens += [model.inject_y(g) for g in ambient.gens]
    return _same_radical(Ideal(model.doubled_ring, gens, model.variety.caps), model)


def _same_radical(ideal, model):
    """Does the ideal cut out the separating variety?

    Both containments of radicals are tested generator by generator.
    """
    radical = model.separating_variety_radical()
    for g in ideal.gens:
        if not radical.radical_contains(g):
            return False
    for h in radical.gens:
        if not ideal.radical_contains(h):
            return False
    return True


def verify_separating_points(candidate, group, variety, field=None):
    """Brute-force check over one finite field: necessary evidence only.

    The candidate passes when all rational points of the variety with
    the same candidate values lie in one group orbit.  The candidates are
    proved invariant first, so their values are constant on each orbit
    and one evaluation per orbit is enough: one pass over the points
    skips every point an earlier orbit reached, evaluates the candidates
    at the rest, and fails as soon as two orbits share a value tuple.
    The points are made as the pass reads them, so a failing check makes
    no point past the one that fails it.  Orbits partition the whole
    space, so this is the same verdict even when the variety's point set
    is not closed under the group.
    """
    _check_invariance(candidate, group)
    fld = field or variety.ring.field
    points = variety_points(variety, fld)
    maps = [s.point_map(fld) for s in group]
    evaluators = [g.evaluator(fld) for g in candidate.polynomials]
    seen = set()
    classes = set()
    for pt in points:
        if pt in seen:
            continue
        seen.update(image(pt) for image in maps)
        values = tuple(f(pt) for f in evaluators)
        if values in classes:
            return False
        classes.add(values)
    return True


# ---------------------------------------------------------------------------
# the audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Hypotheses, witnesses, and the concluded reflection bound, if any.

    `reflection_bound` is the least m for which the audit could conclude
    that m-reflections generate the group; None when some hypothesis
    failed or no witness was supplied.  `min_reflections` is the direct
    computation, present whenever the group is generated by elements
    with fixed points.
    """

    dimension: int
    variety_connected: bool
    cohen_macaulay: object
    cohen_macaulay_source: str
    fixed_point_generated: bool
    candidates: tuple
    gamma_upper_bound: object
    ideals: tuple
    reflection_bound: object
    conclusion: str
    min_reflections: object
    notes: tuple


def reflection_audit(model, candidates=(), ideals=(), cm_asserted=None):
    """Audit both reflection-generation results on one model.

    Two routes to a conclusion:
    - a verified separating set of size dim(X), with X connected and
      Cohen-Macaulay, forces generation by 1-reflections;
    - an ideal with the separating variety's radical and
      Cohen-Macaulay defect c, with X connected and the group generated
      by fixed-point elements, forces generation by (c+1)-reflections.

    Every concluded bound is re-verified directly on the group; a
    mismatch raises InternalInconsistency, since the conclusion would
    otherwise be unsound.

    `ideals` is a list of (name, Ideal) pairs over the doubled ring;
    `cm_asserted` overrides the Cohen-Macaulay check when the caller
    knows the answer for a variety this code cannot settle.
    """
    variety = model.variety
    group = model.group
    dim = variety.dimension()
    notes = ["component primality is asserted by the caller, not verified"]
    if model.invariants:
        notes.append(
            "the supplied invariants are asserted to generate the invariant ring"
        )

    connected = variety_connected_in_codim(variety, dim)

    if cm_asserted is not None:
        cohen_macaulay, cm_source = bool(cm_asserted), "asserted"
    elif variety.is_affine_space():
        cohen_macaulay, cm_source = True, "automatic"
    else:
        ambient = variety.ideal()
        if all(is_homogeneous(g) is not None for g in ambient.gens):
            cohen_macaulay = cohen_macaulay_defect(ambient) == 0
            cm_source = "computed"
        else:
            cohen_macaulay, cm_source = None, "unknown"
            notes.append(
                "Cohen-Macaulay status not computed: inhomogeneous presentation"
            )

    fixed_point_generated = generated_by(
        group, k_reflections(group, variety, dim)
    )
    if not fixed_point_generated:
        notes.append(
            "some elements act without fixed points, so no reflection bound "
            "of any codimension can generate; this hypothesis cannot be dropped"
        )

    min_reflections = (
        min_reflection_number(group, variety) if fixed_point_generated else None
    )

    candidate_rows = []
    gamma_upper_bound = None
    for cand in candidates:
        verified = verify_separating_symbolic(cand, model)
        candidate_rows.append((cand.name, len(cand), verified))
        if verified and (
            gamma_upper_bound is None or len(cand) < gamma_upper_bound
        ):
            gamma_upper_bound = len(cand)

    ideal_rows = []
    best_defect = None
    for name, ideal in ideals:
        if ideal.ring != model.doubled_ring:
            raise RingMismatch(f"ideal {name!r} is not over the doubled ring")
        if _same_radical(ideal, model):
            defect = cohen_macaulay_defect(ideal)
            ideal_rows.append((name, True, defect))
            if best_defect is None or defect < best_defect:
                best_defect = defect
        else:
            ideal_rows.append((name, False, None))
            notes.append(
                f"ideal {name!r} does not cut out the separating variety; "
                "its defect is ignored"
            )

    bound = None
    if connected and fixed_point_generated and best_defect is not None:
        bound = best_defect + 1
    if (
        connected
        and fixed_point_generated
        and cohen_macaulay is True
        and gamma_upper_bound is not None
        and gamma_upper_bound == dim
    ):
        bound = 1 if bound is None else min(bound, 1)

    if bound is not None:
        conclusion = f"the group is generated by {bound}-reflections"
        if not generated_by(group, k_reflections(group, variety, bound)):
            raise InternalInconsistency(
                "the concluded reflection bound fails direct verification"
            )
    else:
        reasons = []
        if not connected:
            reasons.append("X is disconnected")
        if not fixed_point_generated:
            reasons.append(
                "the group is not generated by elements with a fixed point"
            )
        if cohen_macaulay is False:
            reasons.append("X is not Cohen-Macaulay")
        elif cohen_macaulay is None:
            reasons.append("Cohen-Macaulay status unknown")
        if not reasons:
            reasons.append(
                "no witness: no verified separating set of size dim(X) and "
                "no supplied ideal with the separating variety's radical"
            )
        conclusion = "no conclusion: " + "; ".join(reasons)

    return AuditReport(
        dimension=dim,
        variety_connected=connected,
        cohen_macaulay=cohen_macaulay,
        cohen_macaulay_source=cm_source,
        fixed_point_generated=fixed_point_generated,
        candidates=tuple(candidate_rows),
        gamma_upper_bound=gamma_upper_bound,
        ideals=tuple(ideal_rows),
        reflection_bound=bound,
        conclusion=conclusion,
        min_reflections=min_reflections,
        notes=tuple(notes),
    )
