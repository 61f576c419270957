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

from dataclasses import dataclass
from itertools import product

import numpy as np

from .acs import (
    block_diagonal_streams,
    orthogonal_stream,
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


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J v for a (..., n, n) matrix stack and (..., n) vectors."""
    return np.einsum("...ij,...j->...i", m, v)


def _scalar(v):
    """A plain float for a 0-d result, the array otherwise."""
    return float(v) if np.ndim(v) == 0 else v


def gray_combination(oracle: CurvatureOracle, J, w, x, y, z):
    """The signed eight-term curvature sum; zero for integrable orthogonal J.

    J is an (n, n) structure matrix or a (..., n, n) stack of them, and
    w, x, y, z are (..., n) vectors; the leading axes broadcast, and a single
    structure on single vectors gives a plain float."""
    man = oracle.manifold
    w, x, y, z = (as_coords(man, v) for v in (w, x, y, z))
    jw, jx, jy, jz = (_apply(J, v) for v in (w, x, y, z))
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
    """Check that the eight-term combination vanishes for random per-factor
    structures and vector quadruples, one stream each drawn block after
    block: every factor has constant curvature, so block-diagonal J satisfy
    Gray's identity.  The tolerance scales with the largest factor
    curvature, as the round-off does."""
    oracle = CurvatureOracle(manifold)
    rng = np.random.default_rng(seed)
    streams = block_diagonal_streams(manifold, seed)
    vals = np.empty(samples)
    for block in sample_blocks(samples):
        J = random_block_diagonal_matrices(manifold, block.stop - block.start, streams)
        w, x, y, z = np.moveaxis(rng.standard_normal((len(J), 4, manifold.total_dim)), 1, 0)
        vals[block] = np.abs(gray_combination(oracle, J, w, x, y, z))
    report = AuditReport()
    report.add(
        "gray-cancellation",
        np.max(vals, initial=0.0),
        0.0,
        1e-10 * np.max(manifold.curvatures),
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
    c                 -- <Jx, y>, the cosine measuring how much of the 2-sphere
                         tangent plane J preserves
    second_factor_term-- curvature of the complementary factors evaluated on
                         the projections of (Jx, Jy); <= 0 for nonnegatively
                         curved complements
    """

    direct: float
    closed_form: float
    c: float
    second_factor_term: float


def splitting_defect(oracle: CurvatureOracle, J, x, y) -> SplittingDefect:
    """Evaluate the splitting defect for x, y unit, orthogonal and supported
    in the first factor's block to 1e-9; that block must be 2-dimensional.

    J is an (n, n) structure matrix or a (..., n, n) stack of them; for a
    stack every field of the result is an array over the leading axes."""
    man = oracle.manifold
    if man.factors[0].dim != 2:
        raise InvalidManifold("splitting defect needs a 2-dimensional first factor")
    x = as_coords(man, x)
    y = as_coords(man, y)
    rest = np.ones(man.total_dim, dtype=bool)
    rest[man.block_slices[0]] = False
    tol = 1e-9
    for v, label in ((x, "x"), (y, "y")):
        if not np.all(np.abs(v[..., rest]) <= tol):
            raise ContractViolation(f"{label} must be supported in the first factor block")
        if not np.all(np.abs(inner(v, v) - 1.0) <= tol):
            raise ContractViolation(f"{label} must be a unit vector")
    if not np.all(np.abs(inner(x, y)) <= tol):
        raise ContractViolation("x and y must be orthogonal")

    direct = gray_combination(oracle, J, x, y, x, y)
    jx, jy = _apply(J, x), _apply(J, y)
    c = inner(jx, y)
    jx_rest = np.where(rest, jx, 0.0)
    jy_rest = np.where(rest, jy, 0.0)
    second_factor_term = oracle.product_curvature(jx_rest, jy_rest, jx_rest, jy_rest)
    alpha = man.factors[0].curvature
    closed_form = -alpha * (1.0 - c * c) ** 2 + second_factor_term
    return SplittingDefect(*(_scalar(v) for v in (direct, closed_form, c, second_factor_term)))


def _half_trace(oracle: CurvatureOracle, J, u, v):
    """-(1/2) sum_k R(u, v, e_k, J e_k): rho*(u, y) for v = J y, and the
    contraction every component formula of the audit reduces to.

    u and v are (..., n) vectors broadcasting against the leading axes of J
    (an (n, n) matrix or a (..., n, n) stack); the frame index k is one more
    broadcast axis of a single oracle call."""
    man = oracle.manifold
    u = as_coords(man, u)[..., np.newaxis, :]
    v = as_coords(man, v)[..., np.newaxis, :]
    frame = np.eye(man.total_dim)
    jframe = np.swapaxes(J, -1, -2)  # row k is J e_k
    return _scalar(-0.5 * np.sum(oracle.product_curvature(u, v, frame, jframe), axis=-1))


def ricci_star_bilinear(oracle: CurvatureOracle, J, x, y):
    """rho*(x, y) = -(1/2) sum_k R(x, Jy, e_k, J e_k) over the standard frame;
    batched like _half_trace."""
    man = oracle.manifold
    return _half_trace(oracle, J, x, _apply(J, as_coords(man, y)))


def ricci_star(oracle: CurvatureOracle, J: np.ndarray) -> np.ndarray:
    """The read-only (n, n) rho* matrix in the standard frame, assembled by
    frame contraction: entry (i, j) is ricci_star_bilinear(e_i, e_j), all
    n^2 entries in one batched call."""
    eye = np.eye(oracle.manifold.total_dim)
    m = ricci_star_bilinear(oracle, J, eye[:, np.newaxis, :], eye[np.newaxis, :, :])
    m.flags.writeable = False
    return m


def ricci_star_exchange_audit(manifold: ProductManifold, samples: int, seed: int) -> AuditReport:
    """Check rho*(X, Y) = rho*(JY, JX) by direct contraction on random
    structures J and vector pairs, one stream each drawn block after block;
    the tolerance scales with the largest factor curvature."""
    oracle = CurvatureOracle(manifold)
    rng = np.random.default_rng(seed)
    stream = orthogonal_stream(seed)
    errs = np.empty(samples)
    for block in sample_blocks(samples):
        J = random_orthogonal_matrices(manifold, block.stop - block.start, stream)
        x, y = np.moveaxis(rng.standard_normal((len(J), 2, manifold.total_dim)), 1, 0)
        lhs = ricci_star_bilinear(oracle, J, x, y)
        rhs = ricci_star_bilinear(oracle, J, _apply(J, y), _apply(J, x))
        errs[block] = np.abs(lhs - rhs)
    report = AuditReport()
    report.add(
        "exchange-identity", np.max(errs, initial=0.0), 0.0,
        TOL.contraction * np.max(manifold.curvatures),
        "rho*(X, Y) == rho*(JY, JX) on random samples",
    )
    return report


def _component_families(oracle: CurvatureOracle, J: np.ndarray) -> dict:
    """The six claimed component formulas for rho* on a product of 6-spheres,
    as family -> (claim, computed, claimed, mask): computed (by direct
    curvature contraction) and claimed (from the mapping coefficients
    c(a,b)[i,j] = <J e(a)_i, e(b)_j>) are (n, n) arrays over the frame pairs
    [p, q], and mask selects the pairs inside one factor block for the three
    same-factor families, across blocks for the three cross families."""
    man = oracle.manifold
    if any(f.dim != 6 for f in man.factors):
        raise InvalidManifold("the component audit needs every factor to be a 6-sphere")
    n, t, dim = man.total_dim, man.n_factors, 6
    frame = np.eye(n)
    jframe = J.T  # row k is J e_k
    # Every left-hand side is an entry of one of three half-trace matrices
    # over the whole frame, all computed in one oracle call:
    # h_right[p, q] = h(e_p, J e_q), h_plain[p, q] = h(e_p, e_q) and
    # h_left[p, q] = h(J e_p, J e_q), with h = _half_trace.
    us = np.stack((frame, frame, jframe))[:, :, np.newaxis, :]
    vs = np.stack((jframe, frame, jframe))[:, np.newaxis, :, :]
    h_right, h_plain, h_left = _half_trace(oracle, J, us, vs)
    # Global frame index p = (a, i) is factor a's offset plus i.  For
    # p = (b, i) and q = (a, j), coeff[p, q] = c(a,b)[i,j] = J[(b,j), (a,i)].
    start = np.repeat(man.block_offsets, dim)
    within = np.tile(np.arange(dim), t)
    coeff = J[start[:, None] + within[None, :], start[None, :] + within[:, None]]
    beta = np.repeat(man.curvatures, dim)  # curvature of each frame index
    same = start[:, None] == start[None, :]  # p and q in one factor block
    zero = np.zeros((n, n))
    return {
        "star-same-factor": (
            "rho*(e(a)i, e(a)j) == beta_a delta_ij", h_right, beta[:, None] * frame, same,
        ),
        "star-right-rotated": (
            "rho*(e(a)i, J e(a)j) == beta_a c(a,a)[j,i]", -h_plain, beta[:, None] * J, same,
        ),
        "star-left-rotated": (
            "rho*(J e(a)i, e(a)j) == beta_a c(a,a)[i,j]", h_left, beta[:, None] * coeff, same,
        ),
        "star-cross-factor": ("rho*(e(a)i, e(b)j) == 0 for a != b", h_right, zero, ~same),
        "star-right-rotated-cross": ("rho*(e(a)i, J e(b)j) == 0 for a != b", -h_plain, zero, ~same),
        "star-left-rotated-cross": (
            "rho*(J e(b)i, e(a)j) == -beta_a c(a,b)[i,j]", h_left, -beta[None, :] * coeff, ~same,
        ),
    }


def _component_pairs(man: ProductManifold) -> list[tuple[str, str, int, int]]:
    """(family, label, p, q) for every per-pair row of the component audit,
    in report order: the same-factor families for each factor a, then the
    cross families for each ordered factor pair a != b."""
    off, t, r = man.block_offsets, man.n_factors, range(6)
    pairs = [
        (family, f"a={a},i={i},j={j}", off[a] + i, off[a] + j)
        for a, i, j in product(range(t), r, r)
        for family in ("star-same-factor", "star-right-rotated", "star-left-rotated")
    ]
    for a, b, i, j in product(range(t), range(t), r, r):
        if a != b:
            label = f"a={a},b={b},i={i},j={j}"
            pairs += [
                ("star-cross-factor", label, off[a] + i, off[b] + j),
                ("star-right-rotated-cross", label, off[a] + i, off[b] + j),
                ("star-left-rotated-cross", label, off[b] + i, off[a] + j),
            ]
    return pairs


def _add_family_maxima(report: AuditReport, families: dict, prefix: str = "") -> None:
    """A recorded ``<prefix><family>-max`` row, in name order, for each family
    that covers any pair: the largest |computed - claimed| under its mask."""
    for family in sorted(families):
        _, computed, claimed, mask = families[family]
        if mask.any():
            error = np.max(np.abs(computed - claimed)[mask])
            claim = f"max |computed - claimed| over the {family} family"
            report.add(f"{prefix}{family}-max", error, 0.0, TOL.contraction, claim, asserted=False)


def ricci_star_component_audit(oracle: CurvatureOracle, J: np.ndarray) -> AuditReport:
    """Audit the six claimed component formulas for rho* on a product of
    6-spheres: one row per factor pair and index pair, then the family maxima.

    The claimed forms hold when J is block-diagonal; for factor-mixing J the
    contraction can disagree, so every check is recorded, never asserted: a
    mismatch is a legitimate measured outcome."""
    families = _component_families(oracle, J)
    report = AuditReport()
    for family, label, p, q in _component_pairs(oracle.manifold):
        claim, computed, claimed, _ = families[family]
        name = f"{family}[{label}]"
        report.add(name, computed[p, q], claimed[p, q], TOL.contraction, claim, asserted=False)
    _add_family_maxima(report, families)
    return report


def component_audit_suite(
    manifold: ProductManifold, samples: int, seed: int,
    structure: np.ndarray | None = None, swap_probe: bool = False,
) -> AuditReport:
    """The component audit in three parts: a given structure in full detail
    (validation plus every component row), the family maxima for up to ten
    seeded block-diagonal structures (rows prefixed ``blockdiag[s].``), and
    optionally the factor-swapping probe (its family maxima and every
    mismatching row, prefixed ``swap.``)."""
    oracle = CurvatureOracle(manifold)
    report = AuditReport()
    if structure is not None:
        report.extend(validate_acs(manifold, structure))
        report.extend(ricci_star_component_audit(oracle, structure))
    for s in range(min(samples, 10)):
        J = random_block_diagonal_acs(manifold, [seed, s])
        _add_family_maxima(report, _component_families(oracle, J), f"blockdiag[{s}].")
    if swap_probe:
        checks = ricci_star_component_audit(oracle, swap_acs(manifold)).checks
        pairs = len(_component_pairs(manifold))  # the family maxima follow the pair rows
        kept = [c for c in checks[:pairs] if not c.passed] + checks[pairs:]
        report.checks.extend(c._replace(name=f"swap.{c.name}") for c in kept)
    return report
