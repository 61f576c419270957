"""Pointwise orthogonal almost complex structures on the product tangent space.

An orthogonal almost complex structure (OACS) at a point is a real matrix J
on R^total_dim with J^T J = I and J^2 = -I; skewness J^T = -J follows.  The
factor splitting induces a block decomposition: ``block(a, b)`` is the plain
matrix block (rows of factor a, columns of factor b), which maps factor-b
frame vectors to factor-a components.  The mapping coefficients
``<J e(a)_i, e(b)_j>`` used by the component audits are the transposed layout
``coefficient_block(a, b) = block(b, a).T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import ContractViolation, InvalidManifold
from .manifold import ProductManifold
from .report import AuditReport


@dataclass(frozen=True)
class OrthogonalACS:
    """A pointwise orthogonal almost complex structure as a square matrix."""

    manifold: ProductManifold
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        n = self.manifold.total_dim
        if m.shape != (n, n):
            raise ContractViolation(f"ACS matrix must be {n}x{n}, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def block(self, a: int, b: int) -> np.ndarray:
        """The dim_a x dim_b submatrix at the block offsets (rows a, cols b)."""
        man = self.manifold
        return self.matrix[man.block_slice(a), man.block_slice(b)]

    def coefficient_block(self, a: int, b: int) -> np.ndarray:
        """Array of mapping coefficients c[i, j] = <J e(a)_i, e(b)_j>."""
        return self.block(b, a).T

    def off_block_mass(self) -> float:
        """Max |entry| over all off-factor blocks (0.0 for block-diagonal J);
        NaN when such an entry is NaN."""
        man = self.manifold
        owner = np.repeat(np.arange(man.n_factors), [f.dim for f in man.factors])
        off_block = owner[:, np.newaxis] != owner[np.newaxis, :]
        return float(np.max(np.abs(self.matrix[off_block]), initial=0.0))


def validate_acs(J: OrthogonalACS, tol: float = TOL.acs_validity) -> AuditReport:
    """Check orthogonality, J^2 = -I, skewness and the two block relations.

    The block relations are consequences of the first three; they are checked
    independently so a failure localises to the offending block pair.
    """
    m = J.matrix
    n = J.manifold.total_dim
    eye = np.eye(n)
    report = AuditReport(f"ACS validity on {J.manifold.describe()}")
    report.add(
        "orthogonality",
        float(np.max(np.abs(m.T @ m - eye))),
        0.0,
        tol,
        "max |J^T J - I| == 0",
    )
    report.add(
        "square",
        float(np.max(np.abs(m @ m + eye))),
        0.0,
        tol,
        "max |J^2 + I| == 0",
    )
    report.add(
        "skewness",
        float(np.max(np.abs(m.T + m))),
        0.0,
        tol,
        "max |J^T + J| == 0",
    )
    man = J.manifold
    pairs = [(a, b) for a in range(man.n_factors) for b in range(man.n_factors)]
    block_skew = np.max([np.max(np.abs(J.block(a, b) + J.block(b, a).T)) for a, b in pairs])
    report.add(
        "block-skew",
        block_skew,
        0.0,
        tol,
        "block(a,b) + block(b,a)^T == 0 for all factor pairs",
    )
    block_comp = []
    for a, d in pairs:
        acc = np.zeros((man.factors[a].dim, man.factors[d].dim))
        for c in range(man.n_factors):
            acc += J.block(a, c) @ J.block(c, d)
        target = -eye[man.block_slice(a), man.block_slice(d)]
        block_comp.append(np.max(np.abs(acc - target)))
    report.add(
        "block-composition",
        np.max(block_comp),
        0.0,
        tol,
        "sum_c block(a,c) block(c,d) == -delta_ad I for all factor pairs",
    )
    return report


ROTATION_2x2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def standard_rotation_structure(dim: int) -> np.ndarray:
    """Block-diagonal matrix of 2x2 rotations [[0,-1],[1,0]] on R^dim."""
    if dim < 2 or dim % 2 != 0:
        raise ContractViolation(f"need an even dimension >= 2, got {dim}")
    m = np.zeros((dim, dim))
    for k in range(0, dim, 2):
        m[k : k + 2, k : k + 2] = ROTATION_2x2
    return m


def canonical_product_acs(manifold: ProductManifold) -> OrthogonalACS:
    """The product of the per-factor rotations on a product of 2-spheres."""
    if any(f.dim != 2 for f in manifold.factors):
        raise InvalidManifold(
            "the canonical product structure needs every factor to be a 2-sphere"
        )
    return OrthogonalACS(manifold, standard_rotation_structure(manifold.total_dim))


def _sign_fixed_q(g: np.ndarray) -> np.ndarray:
    """Q factors of the (..., n, n) Gaussian samples, each column's sign fixed
    so that diag(R) >= 0 and the distribution is Haar on the orthogonal
    group."""
    q, r = np.linalg.qr(g)
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0, 1.0, -1.0)
    return q * signs[..., np.newaxis, :]


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix from QR of a Gaussian sample, diagonal sign-fixed so
    the distribution is well defined (Haar on the full orthogonal group)."""
    return _sign_fixed_q(rng.standard_normal((n, n)))


def _rotated_structures(dim: int, seeds) -> np.ndarray:
    """Q J0 Q^T per seed, stacked: one generator per seed draws the Gaussian
    sample, then one stacked QR, sign fix and conjugation handle them all."""
    g = np.stack([np.random.default_rng(seed).standard_normal((dim, dim)) for seed in seeds])
    q = _sign_fixed_q(g)
    return q @ standard_rotation_structure(dim) @ np.swapaxes(q, -1, -2)


def random_orthogonal_matrices(manifold: ProductManifold, seeds) -> np.ndarray:
    """The (len(seeds), n, n) stack of random_orthogonal_acs matrices, one
    per seed, drawn in one batched pass."""
    return _rotated_structures(manifold.total_dim, seeds)


def random_block_diagonal_matrices(manifold: ProductManifold, seeds) -> np.ndarray:
    """The (len(seeds), n, n) stack of random_block_diagonal_acs matrices,
    one per seed; factor block a of seed s is drawn from the seed [s, a]."""
    n = manifold.total_dim
    m = np.zeros((len(seeds), n, n))
    for a, (f, sl) in enumerate(zip(manifold.factors, manifold.block_slices)):
        m[:, sl, sl] = _rotated_structures(f.dim, [[seed, a] for seed in seeds])
    return m


def random_orthogonal_acs(manifold: ProductManifold, seed) -> OrthogonalACS:
    """J = Q J0 Q^T for a seeded Haar-orthogonal Q and the standard block
    rotation J0; deterministic in the seed."""
    return OrthogonalACS(manifold, random_orthogonal_matrices(manifold, [seed])[0])


def random_block_diagonal_acs(manifold: ProductManifold, seed) -> OrthogonalACS:
    """Independent seeded OACS on each factor block, assembled block-diagonally."""
    return OrthogonalACS(manifold, random_block_diagonal_matrices(manifold, [seed])[0])


def swap_acs(manifold: ProductManifold) -> OrthogonalACS:
    """The factor-exchanging structure e(1)_i -> e(2)_i, e(2)_i -> -e(1)_i on
    a product of exactly two equal-dimension factors; every diagonal block is
    zero, which makes it the canonical probe for factor-mixing behaviour."""
    if manifold.n_factors != 2:
        raise InvalidManifold("swap structure needs exactly two factors")
    d1, d2 = (f.dim for f in manifold.factors)
    if d1 != d2:
        raise InvalidManifold(f"swap structure needs equal factor dimensions, got {d1} != {d2}")
    n = manifold.total_dim
    m = np.zeros((n, n))
    s1, s2 = manifold.block_slices
    m[s2, s1] = np.eye(d1)
    m[s1, s2] = -np.eye(d1)
    return OrthogonalACS(manifold, m)


def acs_to_text(J: OrthogonalACS) -> str:
    """Plain-text row-major serialisation: header line with total_dim, then
    one whitespace-separated row per line at 17 significant digits."""
    lines = [str(J.manifold.total_dim)]
    for row in J.matrix:
        lines.append(" ".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def acs_from_text(manifold: ProductManifold, text: str) -> OrthogonalACS:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ContractViolation("empty ACS serialisation")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ContractViolation(f"bad ACS header line: {lines[0]!r}") from exc
    if n != manifold.total_dim:
        raise ContractViolation(
            f"serialised dimension {n} does not match manifold total_dim {manifold.total_dim}"
        )
    if len(lines) != n + 1:
        raise ContractViolation(f"expected {n} matrix rows, got {len(lines) - 1}")
    try:
        rows = [np.array([float(tok) for tok in ln.split()]) for ln in lines[1:]]
    except ValueError as exc:
        raise ContractViolation(f"unparseable matrix entry: {exc}") from exc
    if any(r.shape != (n,) for r in rows):
        raise ContractViolation("matrix row with wrong number of entries")
    if not all(np.all(np.isfinite(r)) for r in rows):
        raise ContractViolation("non-finite matrix entry")
    return OrthogonalACS(manifold, np.vstack(rows))
