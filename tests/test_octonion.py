import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereacs.octonion import (
    CROSS7,
    MULTIPLICATION_TABLE,
    cross7,
    cross7_columns,
    cross7_matrices,
    octonion_multiply,
)

# The doubling-of-quaternions table, frozen bit-exact: entry s*(k+1) at
# (row, col) means e_row * e_col = s * e_k.
FROZEN_TABLE = [
    [1, 2, 3, 4, 5, 6, 7, 8],
    [2, -1, 4, -3, 6, -5, -8, 7],
    [3, -4, -1, 2, 7, 8, -5, -6],
    [4, 3, -2, -1, 8, -7, 6, -5],
    [5, -6, -7, -8, -1, 2, 3, 4],
    [6, 5, -8, 7, -2, -1, -4, 3],
    [7, 8, 5, -6, -3, 4, -1, -2],
    [8, -7, 6, 5, -4, -3, 2, -1],
]


def basis(i):
    e = np.zeros(8)
    e[i] = 1.0
    return e


def test_table_frozen():
    assert MULTIPLICATION_TABLE.tolist() == FROZEN_TABLE


def test_basis_products_match_table():
    for m in range(8):
        for n in range(8):
            entry = FROZEN_TABLE[m][n]
            expected = np.sign(entry) * basis(abs(entry) - 1)
            assert np.array_equal(octonion_multiply(basis(m), basis(n)), expected)


def test_e1_e2_is_e3():
    assert np.array_equal(octonion_multiply(basis(1), basis(2)), basis(3))


def test_unit():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(8)
        assert np.allclose(octonion_multiply(x, basis(0)), x)
        assert np.allclose(octonion_multiply(basis(0), x), x)


def test_imaginary_units_anticommute_and_square_to_minus_one():
    for i in range(1, 8):
        assert np.array_equal(octonion_multiply(basis(i), basis(i)), -basis(0))
        for j in range(1, 8):
            if i != j:
                ab = octonion_multiply(basis(i), basis(j))
                ba = octonion_multiply(basis(j), basis(i))
                assert np.array_equal(ab, -ba)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_norm_composition(seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, 8))
    lhs = np.linalg.norm(octonion_multiply(x, y))
    rhs = np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_alternativity(seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, 8))
    left = octonion_multiply(x, octonion_multiply(x, y))
    right = octonion_multiply(octonion_multiply(x, x), y)
    assert np.max(np.abs(left - right)) < 1e-12


def test_not_associative():
    # the algebra must NOT collapse to an associative one
    a, b, c = basis(1), basis(2), basis(4)
    lhs = octonion_multiply(octonion_multiply(a, b), c)
    rhs = octonion_multiply(a, octonion_multiply(b, c))
    assert not np.allclose(lhs, rhs)


def test_cross7_matches_imaginary_product():
    rng = np.random.default_rng(4)
    for _ in range(20):
        u, v = rng.standard_normal((2, 7))
        xu = np.concatenate([[0.0], u])
        xv = np.concatenate([[0.0], v])
        prod = octonion_multiply(xu, xv)
        assert prod[0] == pytest.approx(-np.dot(u, v), rel=1e-12, abs=1e-12)
        assert np.allclose(cross7(u, v), prod[1:], atol=1e-12)


def test_cross7_orthogonality_and_norm():
    rng = np.random.default_rng(9)
    for _ in range(30):
        u, v = rng.standard_normal((2, 7))
        c = cross7(u, v)
        assert abs(np.dot(c, u)) < 1e-10
        assert abs(np.dot(c, v)) < 1e-10
        gram = np.dot(u, u) * np.dot(v, v) - np.dot(u, v) ** 2
        assert np.dot(c, c) == pytest.approx(gram, rel=1e-10, abs=1e-10)


def test_cross7_matrices_consistency():
    rng = np.random.default_rng(13)
    u = rng.standard_normal((5, 7))
    v = rng.standard_normal((5, 7))
    mats = cross7_matrices(u)
    assert mats.shape == (5, 7, 7)
    batched = np.einsum("nij,nj->ni", mats, v)
    assert np.allclose(batched, cross7(u, v), atol=1e-13)
    # each matrix is skew and kills its own argument
    for k in range(5):
        assert np.allclose(mats[k], -mats[k].T, atol=1e-13)
        assert np.allclose(mats[k] @ u[k], 0.0, atol=1e-12)


def test_cross7_columns_is_the_cross_product_per_column():
    # the Fano-plane index form, on column stacks, against the structure
    # tensor; each entry is a sum of three 2 x 2 minors
    rng = np.random.default_rng(14)
    u, v = rng.standard_normal((2, 5, 7, 3))
    columns = cross7_columns(u, v)
    assert columns.shape == (5, 7, 3)
    for j in range(3):
        np.testing.assert_allclose(columns[..., j], cross7(u[..., j], v[..., j]), rtol=0, atol=1e-14)
    eye = np.eye(7)[np.newaxis]  # one row, column j is e_j
    for i in range(7):
        e_i = np.repeat(eye[..., i : i + 1], 7, axis=2)
        # column j is e_i x e_j, whose entry k is CROSS7[i, j, k]
        assert np.array_equal(cross7_columns(e_i, eye)[0], CROSS7[i].T)


def test_cross7_structure_tensor_antisymmetry():
    assert np.array_equal(CROSS7, -CROSS7.transpose(1, 0, 2))
