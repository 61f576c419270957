"""Pointwise orthogonal almost complex structures on the product tangent space.

An orthogonal almost complex structure (OACS) at a point is a real
(total_dim, total_dim) matrix J with J^T J = I and J^2 = -I; skewness
J^T = -J follows.  With ``sl = manifold.block_slices``, the factor splitting
induces a block decomposition: ``J[sl[a], sl[b]]`` (rows of factor a, columns
of factor b), written block(a, b) in the report claims, maps factor-b frame
vectors to factor-a components.  The mapping coefficients
c(a,b)[i,j] = <J e(a)_i, e(b)_j> used by the component audits are the
transposed layout ``J[sl[b], sl[a]].T``.
"""

from __future__ import annotations

import numpy as np

from .config import TOL
from .errors import ContractViolation, InvalidManifold
from .manifold import ProductManifold
from .report import AuditReport


ACS_DEFECTS = (
    ("orthogonality", "max |J^T J - I| == 0"),
    ("square", "max |J^2 + I| == 0"),
    ("skewness", "max |J^T + J| == 0"),
    ("block-skew", "block(a,b) + block(b,a)^T == 0 for all factor pairs"),
    ("block-composition", "sum_c block(a,c) block(c,d) == -delta_ad I for all factor pairs"),
)


def acs_defects(manifold: ProductManifold, m) -> np.ndarray:
    """The validity defects of every matrix in a (..., n, n) stack, shape
    (..., 5) in ``ACS_DEFECTS`` order: max-abs entries of J^T J - I, J^2 + I
    and J^T + J, then the two block relations over all factor pairs.

    The block relations are consequences of the first three; they are
    computed block by block so a failure localises to the block layout.  A
    NaN entry gives NaN defects, which fail every tolerance.
    """
    m = np.asarray(m, dtype=float)
    n = manifold.total_dim
    if m.shape[-2:] != (n, n):
        raise ContractViolation(f"ACS matrices must be {n}x{n}, got shape {m.shape}")
    eye = np.eye(n)
    mt = np.swapaxes(m, -1, -2)
    sl = manifold.block_slices

    def worst(a: np.ndarray) -> np.ndarray:
        return np.max(np.abs(a), axis=(-2, -1))

    block_skew = np.max([worst(m[..., a, b] + mt[..., a, b]) for a in sl for b in sl], axis=0)
    block_comp = np.max(
        [worst(sum(m[..., a, c] @ m[..., c, d] for c in sl) + eye[a, d]) for a in sl for d in sl],
        axis=0,
    )
    return np.stack(
        [worst(mt @ m - eye), worst(m @ m + eye), worst(mt + m), block_skew, block_comp], axis=-1
    )


def validate_acs(manifold: ProductManifold, m) -> AuditReport:
    """Check orthogonality, J^2 = -I, skewness and the two block relations of
    the (n, n) structure matrix m: one row per ``acs_defects`` entry."""
    report = AuditReport()
    for (name, claim), value in zip(ACS_DEFECTS, acs_defects(manifold, m)):
        report.add(name, value, 0.0, TOL.acs_validity, claim)
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


def canonical_product_acs(manifold: ProductManifold) -> np.ndarray:
    """The product of the per-factor rotations on a product of 2-spheres."""
    if any(f.dim != 2 for f in manifold.factors):
        raise InvalidManifold(
            "the canonical product structure needs every factor to be a 2-sphere"
        )
    return standard_rotation_structure(manifold.total_dim)


def haar_orthogonal(n: int, rng: np.random.Generator, stack: tuple[int, ...] = ()) -> np.ndarray:
    """The (*stack, n, n) Q factors of rng's next Gaussian samples, each
    column's sign fixed so that diag(R) >= 0 and the distribution is Haar on
    the full orthogonal group."""
    q, r = np.linalg.qr(rng.standard_normal((*stack, n, n)))
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0, 1.0, -1.0)
    return q * signs[..., np.newaxis, :]


def orthogonal_stream(seed) -> np.random.Generator:
    """The stream of an audit's orthogonal structures, seeded [seed, 1]."""
    return np.random.default_rng([seed, 1])


def block_diagonal_streams(manifold: ProductManifold, seed) -> list[np.random.Generator]:
    """The streams of an audit's block-diagonal structures, factor a's seeded
    [seed, 2, a].  The tags are distinct and nonzero: SeedSequence pads with
    zeros, so [seed, 0] would be the audit's vector stream default_rng(seed)."""
    return [np.random.default_rng([seed, 2, a]) for a in range(manifold.n_factors)]


def random_orthogonal_matrices(manifold: ProductManifold, count: int, rng) -> np.ndarray:
    """Q J0 Q^T for the generator rng's next count Haar-orthogonal Q, stacked
    (count, n, n); a stream drawn block after block gives one draw's stack."""
    n = manifold.total_dim
    q = haar_orthogonal(n, rng, (count,))
    return q @ standard_rotation_structure(n) @ np.swapaxes(q, -1, -2)


def random_block_diagonal_matrices(manifold: ProductManifold, count: int, rngs) -> np.ndarray:
    """The (count, n, n) stack of the next count block-diagonal structures:
    block a holds random_orthogonal_matrices of factor a from rngs[a]."""
    n = manifold.total_dim
    m = np.zeros((count, n, n))
    for f, sl, rng in zip(manifold.factors, manifold.block_slices, rngs, strict=True):
        m[:, sl, sl] = random_orthogonal_matrices(ProductManifold((f,)), count, rng)
    return m


def random_orthogonal_acs(manifold: ProductManifold, seed) -> np.ndarray:
    """J = Q J0 Q^T for a Haar-orthogonal Q drawn from default_rng(seed) and
    the standard block rotation J0; deterministic in the seed."""
    return random_orthogonal_matrices(manifold, 1, np.random.default_rng(seed))[0]


def random_block_diagonal_acs(manifold: ProductManifold, seed) -> np.ndarray:
    """Independent OACS on each factor block, factor a's from default_rng([seed, a])."""
    rngs = [np.random.default_rng([seed, a]) for a in range(manifold.n_factors)]
    return random_block_diagonal_matrices(manifold, 1, rngs)[0]


def swap_acs(manifold: ProductManifold) -> np.ndarray:
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
    return m


def acs_to_text(m: np.ndarray) -> str:
    """Plain-text row-major serialisation of the (n, n) matrix m: header line
    with n, then one whitespace-separated row per line at 17 significant
    digits."""
    lines = [str(len(m))]
    for row in m:
        lines.append(" ".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def acs_from_text(manifold: ProductManifold, text: str) -> np.ndarray:
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
    matrix = np.vstack(rows)
    # no entry of an orthogonal matrix exceeds 1 in magnitude; rejecting
    # larger (and non-finite) entries here keeps the validator's products
    # finite
    if not np.all(np.abs(matrix) <= 1.0 + TOL.acs_validity):
        raise ContractViolation("matrix entry non-finite or above 1 in magnitude")
    return matrix
