"""Numerical auditor and experiment harness for orthogonal almost complex
structures on Riemannian products of round even-dimensional spheres.

The frame-level modules (manifold, acs, identities) take tangent vectors
as (..., n) arrays and pointwise structures as (n, n) matrices, or stacks
of them, in the standard product frame, and evaluate product curvature
tensors, the eight-term curvature identity satisfied by Hermitian
manifolds, splitting defects, the Ricci *-tensor and its component
formulas as exact linear algebra.  The field-level modules (fields,
sampling, search) compute Nijenhuis tensors of structure fields on the
embedded spheres from exact directional derivatives (central-difference Lie
brackets are kept as the oracle) and run seeded energy-minimisation searches
over gauged families of structures.
"""

__version__ = "0.1.0"

from .acs import (
    canonical_product_acs,
    random_block_diagonal_acs,
    random_orthogonal_acs,
    swap_acs,
    validate_acs,
)
from .config import TOL, Tolerances
from .identities import (
    SplittingDefect,
    gray_combination,
    ricci_star,
    ricci_star_component_audit,
    splitting_defect,
)
from .manifold import CurvatureOracle, ProductManifold, SphereFactor, spheres
from .report import AuditReport, Check

__all__ = [
    "AuditReport",
    "Check",
    "CurvatureOracle",
    "ProductManifold",
    "SphereFactor",
    "SplittingDefect",
    "TOL",
    "Tolerances",
    "canonical_product_acs",
    "gray_combination",
    "random_block_diagonal_acs",
    "random_orthogonal_acs",
    "ricci_star",
    "ricci_star_component_audit",
    "spheres",
    "splitting_defect",
    "swap_acs",
    "validate_acs",
    "__version__",
]
