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
    random_block_diagonal_matrices,
    random_orthogonal_matrices,
    swap_acs,
    validate_acs,
)
from .config import TOL
from .errors import ContractViolation, InvalidManifold
from .manifold import CurvatureOracle, ProductManifold, as_coords, inner, sample_blocks
from .report import AuditReport


def _matrices(J) -> np.ndarray:
    """The matrix of an OrthogonalACS, or a (..., n, n) stack of structure
    matrices as given."""
    return J.matrix if isinstance(J, OrthogonalACS) else np.asarray(J, dtype=float)


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J v for a (..., n, n) matrix stack and (..., n) vectors."""
    return np.einsum("...ij,...j->...i", m, v)


def _scalar(v):
    """A plain float for a 0-d result, the array otherwise."""
    return float(v) if np.ndim(v) == 0 else v


def gray_combination(oracle: CurvatureOracle, J, w, x, y, z):
    """The signed eight-term curvature sum; zero for integrable orthogonal J.

    J is an OrthogonalACS or a (..., n, n) stack of structure matrices, and
    w, x, y, z are (..., n) vectors; the leading axes broadcast, and a single
    structure on single vectors gives a plain float."""
    man = oracle.manifold
    w, x, y, z = (as_coords(man, v) for v in (w, x, y, z))
    m = _matrices(J)
    jw, jx, jy, jz = (_apply(m, v) for v in (w, x, y, z))
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
    for block in sample_blocks(samples):
        seeds = [[seed, s] for s in range(block.start, block.stop)]
        J = random_block_diagonal_matrices(manifold, seeds)
        w, x, y, z = np.moveaxis(rng.standard_normal((len(J), 4, manifold.total_dim)), 1, 0)
        vals[block] = np.abs(gray_combination(oracle, J, w, x, y, z))
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
    factor, in three variants; each field is a float for one structure and
    an array over the stack for a stack of structures.

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
    oracle: CurvatureOracle, J, x, y, pair_tol: float = 1e-9
) -> SplittingDefect:
    """Evaluate the splitting defect for unit orthogonal x, y supported in the
    first factor's block, which must be 2-dimensional.

    J is an OrthogonalACS or a (..., n, n) stack of structure matrices; for
    a stack every field of the result is an array over the leading axes."""
    man = oracle.manifold
    if man.factors[0].dim != 2:
        raise InvalidManifold("splitting defect needs a 2-dimensional first factor")
    x = as_coords(man, x)
    y = as_coords(man, y)
    first = man.block_slices[0]
    rest = np.ones(man.total_dim, dtype=bool)
    rest[first] = False
    for v, label in ((x, "x"), (y, "y")):
        if not np.all(np.abs(v[..., rest]) <= pair_tol):
            raise ContractViolation(f"{label} must be supported in the first factor block")
        if not np.all(np.abs(inner(v, v) - 1.0) <= pair_tol):
            raise ContractViolation(f"{label} must be a unit vector")
    if not np.all(np.abs(inner(x, y)) <= pair_tol):
        raise ContractViolation("x and y must be orthogonal")

    m = _matrices(J)
    direct = gray_combination(oracle, m, x, y, x, y)
    jx, jy = _apply(m, x), _apply(m, y)
    c = inner(jx, y)
    jx_rest = np.where(rest, jx, 0.0)
    jy_rest = np.where(rest, jy, 0.0)
    second_factor_term = oracle.product_curvature(jx_rest, jy_rest, jx_rest, jy_rest)
    alpha = man.factors[0].curvature
    closed_form = -alpha * (1.0 - c * c) ** 2 + second_factor_term
    jx1_sq = inner(jx[..., first], jx[..., first])
    jy1_sq = inner(jy[..., first], jy[..., first])
    product_norm_form = -alpha * (1.0 - jx1_sq * jy1_sq) + second_factor_term
    return SplittingDefect(
        *(_scalar(v) for v in (direct, closed_form, product_norm_form, c, second_factor_term))
    )


def _half_trace(oracle: CurvatureOracle, J, u, v):
    """-(1/2) sum_k R(u, v, e_k, J e_k): rho*(u, y) for v = J y, and the
    contraction every component formula of the audit reduces to.

    u and v are (..., n) vectors broadcasting against the leading axes of J
    (an OrthogonalACS or a (..., n, n) matrix stack); the frame index k is
    one more broadcast axis of a single oracle call."""
    man = oracle.manifold
    m = _matrices(J)
    u = as_coords(man, u)[..., np.newaxis, :]
    v = as_coords(man, v)[..., np.newaxis, :]
    frame = np.eye(man.total_dim)
    jframe = np.swapaxes(m, -1, -2)  # row k is J e_k
    return _scalar(-0.5 * np.sum(oracle.product_curvature(u, v, frame, jframe), axis=-1))


def ricci_star_bilinear(oracle: CurvatureOracle, J, x, y):
    """rho*(x, y) = -(1/2) sum_k R(x, Jy, e_k, J e_k) over the standard frame;
    batched like _half_trace."""
    man = oracle.manifold
    return _half_trace(oracle, J, x, _apply(_matrices(J), as_coords(man, y)))


@dataclass(frozen=True)
class RicciStarForm:
    """The Ricci *-tensor as a matrix in the standard frame: entry (i, j) is
    rho*(e_i, e_j).  Satisfies rho*(X, Y) = rho*(JY, JX) for every valid J."""

    oracle: CurvatureOracle
    acs: OrthogonalACS
    matrix: np.ndarray

    def bilinear(self, x, y):
        """rho*(x, y) from the matrix, over broadcasting (..., n) vectors."""
        man = self.oracle.manifold
        return _scalar(inner(as_coords(man, x) @ self.matrix, as_coords(man, y)))


def ricci_star(oracle: CurvatureOracle, J: OrthogonalACS) -> RicciStarForm:
    """Assemble the full rho* matrix by frame contraction: entry (i, j) is
    ricci_star_bilinear(e_i, e_j), all n^2 entries in one batched call."""
    eye = np.eye(oracle.manifold.total_dim)
    m = ricci_star_bilinear(oracle, J, eye[:, np.newaxis, :], eye[np.newaxis, :, :])
    m.flags.writeable = False
    return RicciStarForm(oracle, J, m)


def ricci_star_identity_check(
    form: RicciStarForm, sample_count: int, seed: int
) -> AuditReport:
    """Check rho*(X, Y) = rho*(JY, JX) on seeded random vector pairs."""
    man = form.oracle.manifold
    rng = np.random.default_rng(seed)
    x, y = np.moveaxis(rng.standard_normal((sample_count, 2, man.total_dim)), 1, 0)
    jm = form.acs.matrix
    errs = np.abs(form.bilinear(x, y) - form.bilinear(_apply(jm, y), _apply(jm, x)))
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
    for block in sample_blocks(samples):
        seeds = [[seed, s] for s in range(block.start, block.stop)]
        J = random_orthogonal_matrices(manifold, seeds)
        x, y = np.moveaxis(rng.standard_normal((len(J), 2, manifold.total_dim)), 1, 0)
        lhs = ricci_star_bilinear(oracle, J, x, y)
        rhs = ricci_star_bilinear(oracle, J, _apply(J, y), _apply(J, x))
        errs[block] = np.abs(lhs - rhs)
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
    n, t, dim = man.total_dim, man.n_factors, 6
    jm = J.matrix
    frame = np.eye(n)
    jframe = jm.T  # row k is J e_k
    # Every left-hand side is an entry of one of three half-trace matrices
    # over the whole frame, all computed in one oracle call:
    # h_right[p, q] = h(e_p, J e_q), h_plain[p, q] = h(e_p, e_q) and
    # h_left[p, q] = h(J e_p, J e_q), with h = _half_trace.
    us = np.stack((frame, frame, jframe))[:, :, np.newaxis, :]
    vs = np.stack((jframe, frame, jframe))[:, np.newaxis, :, :]
    h_right, h_plain, h_left = _half_trace(oracle, J, us, vs)
    # Global frame index p = (a, i) is factor a's offset plus i.  For
    # p = (b, i) and q = (a, j), coeff[p, q] = c(a,b)[i,j] = jm[(b,j), (a,i)].
    start = np.repeat(man.block_offsets, dim)
    within = np.tile(np.arange(dim), t)
    coeff = jm[start[:, None] + within[None, :], start[None, :] + within[:, None]]
    beta = np.repeat(man.curvatures, dim)  # curvature of each frame index
    zero = np.zeros((n, n))
    # family -> (claim, computed, claimed), both indexed [p, q]
    families = {
        "star-same-factor": (
            "rho*(e(a)i, e(a)j) == beta_a delta_ij", h_right, beta[:, None] * frame,
        ),
        "star-right-rotated": (
            "rho*(e(a)i, J e(a)j) == beta_a c(a,a)[j,i]", -h_plain, beta[:, None] * jm,
        ),
        "star-left-rotated": (
            "rho*(J e(a)i, e(a)j) == beta_a c(a,a)[i,j]", h_left, beta[:, None] * coeff,
        ),
        "star-cross-factor": ("rho*(e(a)i, e(b)j) == 0 for a != b", h_right, zero),
        "star-right-rotated-cross": ("rho*(e(a)i, J e(b)j) == 0 for a != b", -h_plain, zero),
        "star-left-rotated-cross": (
            "rho*(J e(b)i, e(a)j) == -beta_a c(a,b)[i,j]", h_left, -beta[None, :] * coeff,
        ),
    }
    report = AuditReport(f"rho* component audit on {man.describe()}")
    tol = TOL.contraction
    errors: dict[str, list[float]] = {family: [] for family in families}

    def record(family: str, label: str, p: int, q: int) -> None:
        claim, computed, claimed = families[family]
        check = report.add(
            f"{family}[{label}]", computed[p, q], claimed[p, q], tol, claim, asserted=False
        )
        errors[family].append(check.error)

    off = man.block_offsets
    for a in range(t):
        for i in range(dim):
            for j in range(dim):
                label = f"a={a},i={i},j={j}"
                for family in ("star-same-factor", "star-right-rotated", "star-left-rotated"):
                    record(family, label, off[a] + i, off[a] + j)
    for a in range(t):
        for b in range(t):
            if a == b:
                continue
            for i in range(dim):
                for j in range(dim):
                    label = f"a={a},b={b},i={i},j={j}"
                    record("star-cross-factor", label, off[a] + i, off[b] + j)
                    record("star-right-rotated-cross", label, off[a] + i, off[b] + j)
                    record("star-left-rotated-cross", label, off[b] + i, off[a] + j)
    for family in sorted(f for f, errs in errors.items() if errs):
        report.add(
            f"{family}-max",
            np.max(errors[family]),
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
