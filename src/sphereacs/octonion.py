"""Octonion algebra and the induced 7-dimensional cross product.

The basis is the Cayley-Dickson doubling of the quaternions with e4 the
doubling unit: octonions are pairs (a, b) of quaternions with

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

and e0..e3 = (1, 0), (i, 0), (j, 0), (k, 0), e4..e7 = (0, 1), (0, i),
(0, j), (0, k).  The resulting multiplication table (row times column):

          e0   e1   e2   e3   e4   e5   e6   e7
    e0 |  e0   e1   e2   e3   e4   e5   e6   e7
    e1 |  e1  -e0   e3  -e2   e5  -e4  -e7   e6
    e2 |  e2  -e3  -e0   e1   e6   e7  -e4  -e5
    e3 |  e3   e2  -e1  -e0   e7  -e6   e5  -e4
    e4 |  e4  -e5  -e6  -e7  -e0   e1   e2   e3
    e5 |  e5   e4  -e7   e6  -e1  -e0  -e3   e2
    e6 |  e6   e7   e4  -e5  -e2   e3  -e0  -e1
    e7 |  e7  -e6   e5   e4  -e3  -e2   e1  -e0

The product is a composition algebra (|xy| = |x||y|) and alternative
(x(xy) = (xx)y).  For imaginary x, y the imaginary part of xy is the unique
(up to sign conventions) 7-dimensional cross product; restricted to the unit
6-sphere in the imaginary subspace, v -> u x v is an orthogonal almost
complex structure on the tangent space at u.
"""

from __future__ import annotations

import numpy as np

# Signed-index encoding of the table above: entry s*(k+1) means e_row e_col = s e_k.
MULTIPLICATION_TABLE = np.array(
    [
        [1, 2, 3, 4, 5, 6, 7, 8],
        [2, -1, 4, -3, 6, -5, -8, 7],
        [3, -4, -1, 2, 7, 8, -5, -6],
        [4, 3, -2, -1, 8, -7, 6, -5],
        [5, -6, -7, -8, -1, 2, 3, 4],
        [6, 5, -8, 7, -2, -1, -4, 3],
        [7, 8, 5, -6, -3, 4, -1, -2],
        [8, -7, 6, 5, -4, -3, 2, -1],
    ],
    dtype=int,
)


def _structure_tensor() -> np.ndarray:
    t = np.zeros((8, 8, 8))
    for m in range(8):
        for n in range(8):
            entry = MULTIPLICATION_TABLE[m, n]
            t[m, n, abs(entry) - 1] = 1.0 if entry > 0 else -1.0
    t.flags.writeable = False
    return t


STRUCTURE = _structure_tensor()

# Structure constants of the 7-dimensional cross product on the imaginary
# subspace (coordinates along e1..e7): (u x v)_k = sum_ij CROSS7[i, j, k] u_i v_j.
CROSS7 = np.ascontiguousarray(STRUCTURE[1:, 1:, 1:])
CROSS7.flags.writeable = False

# The same product in the Fano-plane index form: for each k the three (i, j)
# with CROSS7[i, j, k] = 1, one per line of the Fano plane through k, as rows
# of CROSS7_LEFT and CROSS7_RIGHT, so that
# (u x v)_k = sum_t u_i v_j - u_j v_i with i, j = CROSS7_LEFT[k, t], CROSS7_RIGHT[k, t].
_, _left, _right = np.nonzero(np.moveaxis(CROSS7, 2, 0) > 0)
CROSS7_LEFT, CROSS7_RIGHT = _left.reshape(7, 3), _right.reshape(7, 3)
CROSS7_LEFT.flags.writeable = CROSS7_RIGHT.flags.writeable = False


def octonion_multiply(x, y) -> np.ndarray:
    """Product of two octonions given as 8-vectors in the e0..e7 basis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.einsum("ijk,...i,...j->...k", STRUCTURE, x, y)


def cross7(u, v) -> np.ndarray:
    """7-dimensional cross product of imaginary octonions given as 7-vectors;
    equals Im(x y) for x = (0, u), y = (0, v).  Supports batched inputs."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.einsum("ijk,...i,...j->...k", CROSS7, u, v)


def cross7_matrices(u) -> np.ndarray:
    """Matrices of v -> u x v; for batched u of shape (n, 7) returns (n, 7, 7).
    Complex u stays complex (complex-step derivatives).  Each entry has a
    single nonzero term, so the matrix product is exact."""
    u = np.asarray(u)
    return np.swapaxes((u @ CROSS7.reshape(7, 49)).reshape(u.shape[:-1] + (7, 7)), -1, -2)


def cross7_columns(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v column by column for column stacks u, v of shape (n, 7, k),
    in the Fano-plane index form: no matrix of v -> u x v is formed, and
    each entry is three 2 x 2 minors, row by row."""
    # the coordinate axis first, so that each index picks one contiguous
    # (n, k) slab: at 512 rows 2.5 times faster than indexing the middle axis
    u = np.ascontiguousarray(np.moveaxis(u, 1, 0))
    v = np.ascontiguousarray(np.moveaxis(v, 1, 0))
    minors = u[CROSS7_LEFT] * v[CROSS7_RIGHT]
    minors -= u[CROSS7_RIGHT] * v[CROSS7_LEFT]
    return np.moveaxis(minors[:, 0] + minors[:, 1] + minors[:, 2], 0, 1)
