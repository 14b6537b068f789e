"""Separating invariants of finite group actions.

Decides when the separating variety of a finite group action on an
affine variety is connected in a given codimension, classifies group
elements by the codimension of their fixed loci, and computes
Cohen-Macaulay defects through minimal graded free resolutions.
"""

from .config import Caps
from .errors import SepinvError
from .field import make_field
from .groebner import Ideal, groebner_basis, normal_form
from .group import (
    FiniteGroup,
    VarietyPresentation,
    enumerate_group,
    fixed_locus_codim,
    generated_by,
    is_invariant,
    k_reflections,
    min_reflection_number,
    orbit,
    variety_connected_in_codim,
    variety_points,
)
from .poly import (
    GREVLEX,
    AffineMap,
    Polynomial,
    PolynomialRing,
    compose_affine,
    is_homogeneous,
    parse,
    render,
)
from .resolution import (
    FreeResolution,
    cohen_macaulay_defect,
    hilbert_numerator,
    minimal_free_resolution,
)
from .separating import (
    AuditReport,
    SeparatingCandidate,
    reflection_audit,
    verify_separating_points,
    verify_separating_symbolic,
)
from .sepvar import (
    EquivalenceReport,
    GraphComponent,
    SepVarietyModel,
    connected_in_codim,
    connectivity_equivalence_check,
)

__all__ = [
    "AffineMap",
    "AuditReport",
    "Caps",
    "EquivalenceReport",
    "FiniteGroup",
    "FreeResolution",
    "GraphComponent",
    "GREVLEX",
    "Ideal",
    "Polynomial",
    "PolynomialRing",
    "SeparatingCandidate",
    "SepinvError",
    "SepVarietyModel",
    "VarietyPresentation",
    "cohen_macaulay_defect",
    "compose_affine",
    "connected_in_codim",
    "connectivity_equivalence_check",
    "enumerate_group",
    "fixed_locus_codim",
    "generated_by",
    "groebner_basis",
    "hilbert_numerator",
    "is_homogeneous",
    "is_invariant",
    "k_reflections",
    "make_field",
    "min_reflection_number",
    "minimal_free_resolution",
    "normal_form",
    "orbit",
    "parse",
    "reflection_audit",
    "render",
    "variety_connected_in_codim",
    "variety_points",
    "verify_separating_points",
    "verify_separating_symbolic",
]

__version__ = "0.1.0"
