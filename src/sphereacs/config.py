"""Centralised numeric policy.

Every tolerance used by the audits, the finite-difference pipeline and the
optimizer lives in one frozen record so that tests and the CLI reference
named constants instead of scattering magic numbers.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Relative bound for pure frame algebra (a few products of small matrices).
    linalg: float = 1e-12
    # Absolute bound on each defect norm accepted by the ACS validator.  Two
    # multiplications of matrices this size lose well under 1e-13.
    acs_validity: float = 1e-10
    # Absolute bound for audits that sum ~total_dim**2 curvature terms.
    contraction: float = 1e-9
    # Central-difference step for Lie brackets: balances h**2 truncation
    # against eps/h round-off in double precision.
    fd_step: float = 1e-5
    # FD bracket against a closed-form bracket oracle.
    fd_bracket: float = 1e-6
    # Comparisons that combine several FD brackets (linearity).
    fd_linear: float = 2e-6
    # Identities of the exact Nijenhuis engine (restriction, tensoriality):
    # derivatives are exact, so both sides agree to round-off.
    exact_nijenhuis: float = 1e-12
    # Squared-area floor below which a tangent plane counts as degenerate.
    degenerate_area: float = 1e-12


TOL = Tolerances()
