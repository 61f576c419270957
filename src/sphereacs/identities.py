"""Gray's curvature identity, the Ricci *-tensor and the component audits.

Gray's identity is the eight-term linear relation

    R(w,x,y,z) + R(Jw,Jx,Jy,Jz) - R(Jw,Jx,y,z) - R(Jw,x,Jy,z) - R(Jw,x,y,Jz)
    - R(w,Jx,Jy,z) - R(w,Jx,y,Jz) - R(w,x,Jy,Jz) = 0

satisfied by the curvature tensor of any Hermitian manifold, i.e. a necessary
condition for an orthogonal J to be integrable.  On a product with a
2-sphere factor, evaluating the combination on an orthonormal pair tangent
to that factor collapses to a closed form in c = <Jx, y>: the splitting
defect.  Its vanishing forces J to preserve the 2-sphere tangent plane.

The Ricci *-tensor is taken in the fixed contraction convention

    rho*(X, Y) = -(1/2) sum_k R(X, JY, e_k, J e_k)

over the standard frame; the trace is frame independent because it is a
bilinear contraction against an orthonormal frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .acs import (
    OrthogonalACS,
    random_block_diagonal_acs,
    random_orthogonal_acs,
    swap_acs,
    validate_acs,
)
from .config import TOL
from .errors import ContractViolation, InvalidManifold
from .manifold import CurvatureOracle, ProductManifold, as_coords
from .report import AuditReport


def gray_combination(oracle: CurvatureOracle, J: OrthogonalACS, w, x, y, z) -> float:
    """The signed eight-term curvature sum; zero for integrable orthogonal J."""
    man = oracle.manifold
    w = as_coords(man, w)
    x = as_coords(man, x)
    y = as_coords(man, y)
    z = as_coords(man, z)
    m = J.matrix
    jw, jx, jy, jz = m @ w, m @ x, m @ y, m @ z
    R = oracle.product_curvature
    return (
        R(w, x, y, z)
        + R(jw, jx, jy, jz)
        - R(jw, jx, y, z)
        - R(jw, x, jy, z)
        - R(jw, x, y, jz)
        - R(w, jx, jy, z)
        - R(w, jx, y, jz)
        - R(w, x, jy, jz)
    )


def gray_cancellation_audit(manifold: ProductManifold, samples: int, seed: int) -> AuditReport:
    """Check that the eight-term combination vanishes for seeded random
    per-factor structures on random vector quadruples: every factor has
    constant curvature, so block-diagonal J satisfy Gray's identity."""
    oracle = CurvatureOracle(manifold)
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    for s in range(samples):
        J = random_block_diagonal_acs(manifold, [seed, s])
        w, x, y, z = rng.standard_normal((4, manifold.total_dim))
        vals[s] = abs(gray_combination(oracle, J, w, x, y, z))
    report = AuditReport(f"Gray cancellation on {manifold.describe()} ({samples} samples, seed {seed})")
    report.add(
        "gray-cancellation",
        np.max(vals, initial=0.0),
        0.0,
        1e-10,
        "eight-term combination vanishes for per-factor structures on "
        "constant-curvature factors",
    )
    return report


@dataclass(frozen=True)
class SplittingDefect:
    """The Gray combination on an orthonormal pair tangent to the 2-sphere
    factor, in three variants.

    direct            -- the eight-term sum evaluated term by term (ground truth)
    closed_form       -- -alpha (1 - c^2)^2 + second_factor_term, which the
                         term-by-term expansion reduces to
    product_norm_form -- -alpha (1 - |(Jx)_1|^2 |(Jy)_1|^2) + second_factor_term,
                         an alternative grouping that agrees with closed_form at
                         c^2 in {0, 1} and shares its sign and zero set, but
                         differs as a polynomial in c between the endpoints
    c                 -- <Jx, y>, the cosine measuring how much of the 2-sphere
                         tangent plane J preserves
    second_factor_term-- curvature of the complementary factors evaluated on
                         the projections of (Jx, Jy); <= 0 for nonnegatively
                         curved complements
    """

    direct: float
    closed_form: float
    product_norm_form: float
    c: float
    second_factor_term: float


def splitting_defect(
    oracle: CurvatureOracle, J: OrthogonalACS, x, y, pair_tol: float = 1e-9
) -> SplittingDefect:
    """Evaluate the splitting defect for unit orthogonal x, y supported in the
    first factor's block, which must be 2-dimensional."""
    man = oracle.manifold
    if man.factors[0].dim != 2:
        raise InvalidManifold("splitting defect needs a 2-dimensional first factor")
    x = as_coords(man, x)
    y = as_coords(man, y)
    first = man.block_slices[0]
    rest = np.ones(man.total_dim, dtype=bool)
    rest[first] = False
    for v, label in ((x, "x"), (y, "y")):
        if v[rest].size and np.max(np.abs(v[rest])) > pair_tol:
            raise ContractViolation(f"{label} must be supported in the first factor block")
        if abs(np.dot(v, v) - 1.0) > pair_tol:
            raise ContractViolation(f"{label} must be a unit vector")
    if abs(np.dot(x, y)) > pair_tol:
        raise ContractViolation("x and y must be orthogonal")

    direct = gray_combination(oracle, J, x, y, x, y)
    jx, jy = J.matrix @ x, J.matrix @ y
    c = float(np.dot(jx, y))
    jx_rest = jx.copy()
    jy_rest = jy.copy()
    jx_rest[first] = 0.0
    jy_rest[first] = 0.0
    second_factor_term = oracle.product_curvature(jx_rest, jy_rest, jx_rest, jy_rest)
    alpha = man.factors[0].curvature
    closed_form = -alpha * (1.0 - c * c) ** 2 + second_factor_term
    jx1_sq = float(np.dot(jx[first], jx[first]))
    jy1_sq = float(np.dot(jy[first], jy[first]))
    product_norm_form = -alpha * (1.0 - jx1_sq * jy1_sq) + second_factor_term
    return SplittingDefect(direct, closed_form, product_norm_form, c, second_factor_term)


def _half_trace(oracle: CurvatureOracle, J: OrthogonalACS, u: np.ndarray, v: np.ndarray) -> float:
    """-(1/2) sum_k R(u, v, e_k, J e_k): rho*(u, y) for v = J y, and the
    contraction every component formula of the audit reduces to."""
    R = oracle.product_curvature
    n = oracle.manifold.total_dim
    eye = np.eye(n)
    total = 0.0
    for k in range(n):
        total += R(u, v, eye[k], J.matrix[:, k])
    return -0.5 * total


def ricci_star_bilinear(oracle: CurvatureOracle, J: OrthogonalACS, x, y) -> float:
    """rho*(x, y) = -(1/2) sum_k R(x, Jy, e_k, J e_k) over the standard frame."""
    man = oracle.manifold
    return _half_trace(oracle, J, as_coords(man, x), J.matrix @ as_coords(man, y))


@dataclass(frozen=True)
class RicciStarForm:
    """The Ricci *-tensor as a matrix in the standard frame: entry (i, j) is
    rho*(e_i, e_j).  Satisfies rho*(X, Y) = rho*(JY, JX) for every valid J."""

    oracle: CurvatureOracle
    acs: OrthogonalACS
    matrix: np.ndarray

    def bilinear(self, x, y) -> float:
        man = self.oracle.manifold
        return float(as_coords(man, x) @ self.matrix @ as_coords(man, y))


def ricci_star(oracle: CurvatureOracle, J: OrthogonalACS) -> RicciStarForm:
    """Assemble the full rho* matrix by frame contraction."""
    n = oracle.manifold.total_dim
    eye = np.eye(n)
    m = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            m[i, j] = ricci_star_bilinear(oracle, J, eye[i], eye[j])
    m.flags.writeable = False
    return RicciStarForm(oracle, J, m)


def ricci_star_identity_check(
    form: RicciStarForm, sample_count: int, seed: int
) -> AuditReport:
    """Check rho*(X, Y) = rho*(JY, JX) on seeded random vector pairs."""
    man = form.oracle.manifold
    rng = np.random.default_rng(seed)
    jm = form.acs.matrix
    errs = np.empty(sample_count)
    for s in range(sample_count):
        x, y = rng.standard_normal((2, man.total_dim))
        errs[s] = abs(form.bilinear(x, y) - form.bilinear(jm @ y, jm @ x))
    report = AuditReport(
        f"rho* exchange identity on {man.describe()} ({sample_count} samples, seed {seed})"
    )
    report.add(
        "exchange-identity",
        np.max(errs, initial=0.0),
        0.0,
        TOL.contraction,
        "rho*(X, Y) == rho*(JY, JX)",
    )
    return report


def ricci_star_exchange_audit(manifold: ProductManifold, samples: int, seed: int) -> AuditReport:
    """Check rho*(X, Y) = rho*(JY, JX) by direct contraction, with a fresh
    seeded random structure J and random vector pair per sample."""
    oracle = CurvatureOracle(manifold)
    rng = np.random.default_rng(seed)
    errs = np.empty(samples)
    for s in range(samples):
        J = random_orthogonal_acs(manifold, [seed, s])
        x, y = rng.standard_normal((2, manifold.total_dim))
        lhs = ricci_star_bilinear(oracle, J, x, y)
        rhs = ricci_star_bilinear(oracle, J, J.matrix @ y, J.matrix @ x)
        errs[s] = abs(lhs - rhs)
    report = AuditReport(
        f"rho* exchange identity on {manifold.describe()} ({samples} samples, seed {seed})"
    )
    report.add(
        "exchange-identity", np.max(errs, initial=0.0), 0.0, TOL.contraction,
        "rho*(X, Y) == rho*(JY, JX) on random samples",
    )
    return report


def ricci_star_component_audit(oracle: CurvatureOracle, J: OrthogonalACS) -> AuditReport:
    """Audit the six claimed component formulas for rho* on a product of
    6-spheres.

    For every factor pair and index pair the left-hand side is computed by
    direct curvature contraction and compared against the claimed closed form
    in the mapping coefficients c(a,b)[i,j] = <J e(a)_i, e(b)_j>.  The claimed
    forms hold when J is block-diagonal; for factor-mixing J the contraction
    can disagree, so every check is recorded, never asserted: a mismatch is a
    legitimate measured outcome.
    """
    man = oracle.manifold
    if any(f.dim != 6 for f in man.factors):
        raise InvalidManifold("the component audit needs every factor to be a 6-sphere")
    eye = np.eye(man.total_dim)
    jm = J.matrix
    betas = man.curvatures
    report = AuditReport(f"rho* component audit on {man.describe()}")
    tol = TOL.contraction

    def frame(a: int, i: int) -> np.ndarray:
        return eye[man.block_offsets[a] + i]

    def jframe(a: int, i: int) -> np.ndarray:
        return jm[:, man.block_offsets[a] + i]

    t = man.n_factors
    dim = 6
    family_max: dict[str, float] = {}

    def record(family: str, claim: str, label: str, computed: float, expected: float):
        report.add(f"{family}[{label}]", computed, expected, tol, claim, asserted=False)
        family_max[family] = max(family_max.get(family, 0.0), abs(computed - expected))

    claim6 = "rho*(e(a)i, e(a)j) == beta_a delta_ij"
    claim7 = "rho*(e(a)i, e(b)j) == 0 for a != b"
    claim8 = "rho*(e(a)i, J e(a)j) == beta_a c(a,a)[j,i]"
    claim9 = "rho*(e(a)i, J e(b)j) == 0 for a != b"
    claim10 = "rho*(J e(a)i, e(a)j) == beta_a c(a,a)[i,j]"
    claim11 = "rho*(J e(b)i, e(a)j) == -beta_a c(a,b)[i,j]"

    for a in range(t):
        coeff_aa = J.coefficient_block(a, a)
        for i in range(dim):
            for j in range(dim):
                label = f"a={a},i={i},j={j}"
                record(
                    "star-same-factor",
                    claim6,
                    label,
                    _half_trace(oracle, J, frame(a, i), jframe(a, j)),
                    betas[a] * (1.0 if i == j else 0.0),
                )
                record(
                    "star-right-rotated",
                    claim8,
                    label,
                    -_half_trace(oracle, J, frame(a, i), frame(a, j)),
                    betas[a] * coeff_aa[j, i],
                )
                record(
                    "star-left-rotated",
                    claim10,
                    label,
                    _half_trace(oracle, J, jframe(a, i), jframe(a, j)),
                    betas[a] * coeff_aa[i, j],
                )
    for a in range(t):
        for b in range(t):
            if a == b:
                continue
            coeff_ab = J.coefficient_block(a, b)
            for i in range(dim):
                for j in range(dim):
                    label = f"a={a},b={b},i={i},j={j}"
                    record(
                        "star-cross-factor",
                        claim7,
                        label,
                        _half_trace(oracle, J, frame(a, i), jframe(b, j)),
                        0.0,
                    )
                    record(
                        "star-right-rotated-cross",
                        claim9,
                        label,
                        -_half_trace(oracle, J, frame(a, i), frame(b, j)),
                        0.0,
                    )
                    record(
                        "star-left-rotated-cross",
                        claim11,
                        label,
                        _half_trace(oracle, J, jframe(b, i), jframe(a, j)),
                        -betas[a] * coeff_ab[i, j],
                    )
    for family in sorted(family_max):
        report.add(
            f"{family}-max",
            family_max[family],
            0.0,
            tol,
            f"max |computed - claimed| over the {family} family",
            asserted=False,
        )
    return report


def component_audit_suite(
    manifold: ProductManifold,
    samples: int,
    seed: int,
    structure: OrthogonalACS | None = None,
    swap_probe: bool = False,
) -> AuditReport:
    """The component audit in three parts: a given structure in full detail
    (validation plus every component row), the family maxima for up to ten
    seeded block-diagonal structures (rows prefixed ``blockdiag[s].``), and
    optionally the factor-swapping probe (its family maxima and every
    mismatching row, prefixed ``swap.``)."""
    oracle = CurvatureOracle(manifold)
    report = AuditReport(f"rho* component audits on {manifold.describe()}")
    if structure is not None:
        report.extend(validate_acs(structure))
        report.extend(ricci_star_component_audit(oracle, structure))
    for s in range(min(samples, 10)):
        sub = ricci_star_component_audit(oracle, random_block_diagonal_acs(manifold, [seed, s]))
        report.checks.extend(
            replace(c, name=f"blockdiag[{s}].{c.name}") for c in sub.checks if c.name.endswith("-max")
        )
    if swap_probe:
        sub = ricci_star_component_audit(oracle, swap_acs(manifold))
        report.checks.extend(
            replace(c, name=f"swap.{c.name}")
            for c in sub.checks
            if c.name.endswith("-max") or not c.passed
        )
    return report


@dataclass(frozen=True)
class BlockPreservationProbe:
    """Data pair for the empirical implication 'rho* symmetric implies J is
    block diagonal': no assertion is made, the caller studies the values."""

    symmetry_defect: float
    off_block_mass: float


def block_preservation_probe(form: RicciStarForm) -> BlockPreservationProbe:
    man = form.oracle.manifold
    if any(f.dim != 6 for f in man.factors):
        raise InvalidManifold("the block preservation probe needs 6-sphere factors")
    sym = float(np.max(np.abs(form.matrix - form.matrix.T)))
    return BlockPreservationProbe(sym, form.acs.off_block_mass())
