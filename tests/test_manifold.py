import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereacs.errors import ContractViolation, DegenerateInput, InvalidManifold
from sphereacs.manifold import (
    CurvatureOracle,
    ProductManifold,
    SphereFactor,
    as_coords,
    spheres,
)


def factor_curvature_endo(
    factor: SphereFactor, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Constant-curvature endomorphism R(x, y)z = kappa (<y,z> x - <x,z> y)."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    for v in (x, y, z):
        if v.shape != (factor.dim,):
            raise ContractViolation(
                f"expected factor vectors of length {factor.dim}, got shape {v.shape}"
            )
    return factor.curvature * (np.dot(y, z) * x - np.dot(x, z) * y)


def test_sphere_factor_validation():
    f = SphereFactor(6, 2.0)
    assert f.radius == pytest.approx(2.0**-0.5)
    assert f.ambient_dim == 7
    with pytest.raises(InvalidManifold):
        SphereFactor(3, 1.0)
    with pytest.raises(InvalidManifold):
        SphereFactor(0, 1.0)
    with pytest.raises(InvalidManifold):
        SphereFactor(2, 0.0)
    with pytest.raises(InvalidManifold):
        SphereFactor(2, -1.0)
    for curvature in (float("inf"), float("nan")):
        with pytest.raises(InvalidManifold):
            SphereFactor(2, curvature)


def test_product_manifold_layout():
    man = spheres((2, 1.0), (4, 1.0), (6, 2.0))
    assert man.total_dim == 12
    assert man.block_offsets == (0, 2, 6)
    assert man.ambient_dim == 3 + 5 + 7
    assert [s.start for s in man.ambient_slices] == [0, 3, 8]
    assert man.block_offsets == tuple(sorted(man.block_offsets))
    assert man.total_dim % 2 == 0
    with pytest.raises(InvalidManifold):
        ProductManifold(())


def test_frame_vector_blocks():
    man = spheres((2, 1.0), (4, 3.0))
    v = as_coords(man, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert np.array_equal(v[man.block_slices[0]], [1.0, 2.0])
    assert np.array_equal(v[man.block_slices[1]], [3.0, 4.0, 5.0, 6.0])
    with pytest.raises(ContractViolation):
        as_coords(man, [1.0, 2.0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_frame_vector_pythagoras(seed):
    man = spheres((2, 1.0), (4, 1.0), (6, 0.5))
    v = np.random.default_rng(seed).standard_normal(man.total_dim)
    blocks_sq = sum(float(np.dot(v[sl], v[sl])) for sl in man.block_slices)
    assert blocks_sq == pytest.approx(float(np.dot(v, v)), rel=1e-12)


def test_factor_endo_basis_example():
    f = SphereFactor(2, 1.0)
    e1, e2 = np.eye(2)
    assert np.allclose(factor_curvature_endo(f, e1, e2, e2), e1)


def test_factor_endo_antisymmetry():
    f = SphereFactor(4, 2.0)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.all(factor_curvature_endo(f, x, x, x) == 0.0)


def test_factor_endo_matches_loop_oracle():
    # brute-force componentwise evaluation, independent of the numpy path
    f = SphereFactor(6, 2.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y, z = rng.standard_normal((3, 6))
        yz = sum(y[i] * z[i] for i in range(6))
        xz = sum(x[i] * z[i] for i in range(6))
        expected = np.array([f.curvature * (yz * x[i] - xz * y[i]) for i in range(6)])
        assert np.allclose(factor_curvature_endo(f, x, y, z), expected, atol=1e-12)


def test_factor_endo_dimension_mismatch():
    f = SphereFactor(4, 1.0)
    with pytest.raises(ContractViolation):
        factor_curvature_endo(f, np.zeros(3), np.zeros(4), np.zeros(4))


def test_factor_endo_skew_adjoint():
    f = SphereFactor(6, 1.3)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y, z, w = rng.standard_normal((4, 6))
        lhs = np.dot(factor_curvature_endo(f, x, y, z), w)
        rhs = np.dot(factor_curvature_endo(f, x, y, w), z)
        assert abs(lhs + rhs) < 1e-11


def test_product_curvature_single_factor_value():
    # orthonormal pair tangent to the 2-sphere factor gives minus the curvature
    alpha = 1.7
    man = spheres((2, alpha), (4, 1.0))
    oracle = CurvatureOracle(man)
    x = np.zeros(6)
    y = np.zeros(6)
    x[0], y[1] = 1.0, 1.0
    assert oracle.product_curvature(x, y, x, y) == pytest.approx(-alpha, rel=1e-14)


def test_product_curvature_cross_factor_vanishes():
    man = spheres((2, 1.0), (4, 1.0))
    oracle = CurvatureOracle(man)
    rng = np.random.default_rng(0)
    w = np.zeros(6)
    x = np.zeros(6)
    w[:2] = rng.standard_normal(2)
    x[2:] = rng.standard_normal(4)
    for _ in range(10):
        y, z = rng.standard_normal((2, 6))
        assert oracle.product_curvature(w, x, y, z) == 0.0


def test_product_curvature_matches_per_factor_oracle():
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    rng = np.random.default_rng(42)
    for _ in range(25):
        w, x, y, z = rng.standard_normal((4, 12))
        total = 0.0
        for a, (f, sl) in enumerate(zip(man.factors, man.block_slices)):
            total += np.dot(factor_curvature_endo(f, w[sl], x[sl], y[sl]), z[sl])
        assert oracle.product_curvature(w, x, y, z) == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_product_curvature_broadcasts_like_the_per_row_loop():
    man = spheres((2, 1.0), (4, 0.5), (6, 2.0))
    oracle = CurvatureOracle(man)
    n = man.total_dim
    rng = np.random.default_rng(8)

    def loop(w, x, y, z):
        return sum(
            np.dot(factor_curvature_endo(f, w[sl], x[sl], y[sl]), z[sl])
            for f, sl in zip(man.factors, man.block_slices)
        )

    w, x, y, z = rng.standard_normal((4, n))
    single = oracle.product_curvature(w, x, y, z)
    assert type(single) is float
    assert single == pytest.approx(loop(w, x, y, z), rel=1e-12, abs=1e-12)
    rows = rng.standard_normal((4, 7, n))
    out = oracle.product_curvature(*rows)
    assert out.shape == (7,)
    for s in range(7):
        assert out[s] == pytest.approx(loop(*rows[:, s]), rel=1e-12, abs=1e-12)
    mixed = oracle.product_curvature(w, rows[1], y, rows[3])
    for s in range(7):
        assert mixed[s] == pytest.approx(loop(w, rows[1, s], y, rows[3, s]), rel=1e-12, abs=1e-12)
    a, b = rng.standard_normal((2, 5, 1, n))
    c, d = rng.standard_normal((2, 1, 3, n))
    grid = oracle.product_curvature(a, c, b, d)
    assert grid.shape == (5, 3)
    for s in range(5):
        for k in range(3):
            expected = loop(a[s, 0], c[0, k], b[s, 0], d[0, k])
            assert grid[s, k] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    with pytest.raises(ContractViolation):
        oracle.product_curvature(np.zeros((7, n - 1)), x, y, z)


@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=25, deadline=None)
def test_product_curvature_multilinear(seed, s, t):
    man = spheres((2, 1.0), (4, 0.5))
    oracle = CurvatureOracle(man)
    rng = np.random.default_rng(seed)
    w, x, y, z, w2 = rng.standard_normal((5, 6))
    combined = oracle.product_curvature(s * w + t * w2, x, y, z)
    split = s * oracle.product_curvature(w, x, y, z) + t * oracle.product_curvature(w2, x, y, z)
    assert combined == pytest.approx(split, rel=1e-10, abs=1e-10)


def test_product_curvature_vanishes_on_disjoint_support():
    man = spheres((2, 1.0), (4, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    rng = np.random.default_rng(3)
    w = np.zeros(12)
    w[:2] = rng.standard_normal(2)  # factor 0 only
    for _ in range(10):
        x, y, z = rng.standard_normal((3, 12))
        x[:2] = y[:2] = z[:2] = 0.0  # no common factor with w
        assert oracle.product_curvature(w, x, y, z) == 0.0


def test_sectional_curvature_values():
    beta = 1.4
    man = spheres((2, 2.0), (6, beta))
    oracle = CurvatureOracle(man)
    x = np.zeros(8)
    y = np.zeros(8)
    x[3], y[5] = 1.0, 1.0
    assert oracle.sectional_curvature(x, y) == pytest.approx(beta, rel=1e-13)
    # cross-factor plane is flat
    u = np.zeros(8)
    v = np.zeros(8)
    u[0], v[4] = 1.0, 1.0
    assert oracle.sectional_curvature(u, v) == pytest.approx(0.0, abs=1e-14)


def test_sectional_curvature_scale_invariance():
    alpha = 2.3
    man = spheres((2, alpha), (4, 1.0))
    oracle = CurvatureOracle(man)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = np.zeros(6)
        y = np.zeros(6)
        x[:2] = rng.standard_normal(2) * rng.uniform(0.1, 5.0)
        y[:2] = rng.standard_normal(2) * rng.uniform(0.1, 5.0)
        gram = np.dot(x, x) * np.dot(y, y) - np.dot(x, y) ** 2
        if gram < 1e-6:
            continue
        assert oracle.sectional_curvature(x, y) == pytest.approx(alpha, rel=1e-9)


def test_sectional_curvature_bounds():
    man = spheres((2, 0.7), (4, 2.5))
    oracle = CurvatureOracle(man)
    rng = np.random.default_rng(21)
    for _ in range(100):
        x, y = rng.standard_normal((2, 6))
        k = oracle.sectional_curvature(x, y)
        assert -1e-12 <= k <= 2.5 + 1e-12


def test_sectional_curvature_degenerate_plane():
    man = spheres((4, 1.0))
    oracle = CurvatureOracle(man)
    x = np.array([1.0, 2.0, 0.0, 1.0])
    with pytest.raises(DegenerateInput):
        oracle.sectional_curvature(x, 2.0 * x)


def test_symmetry_audit_passes_and_deterministic():
    man = spheres((2, 1.0), (4, 1.0), (6, 1.0))
    oracle = CurvatureOracle(man)
    report = oracle.symmetry_audit(200, seed=7)
    assert report.passed
    again = oracle.symmetry_audit(200, seed=7)
    assert report.checks == again.checks
    assert {c.name for c in report.checks} == {
        "antisym-first-pair",
        "antisym-second-pair",
        "pair-symmetry",
        "first-bianchi",
    }


def test_symmetry_audit_sample_count_contract():
    oracle = CurvatureOracle(spheres((2, 1.0)))
    with pytest.raises(ContractViolation):
        oracle.symmetry_audit(0, seed=1)
