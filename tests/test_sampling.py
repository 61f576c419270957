import numpy as np
import pytest

from sphereacs.errors import ConfigError, ContractViolation
from sphereacs.manifold import spheres
from sphereacs.sampling import (
    chart_safe_points,
    fibonacci_sphere,
    kronecker_sequence,
    load_points,
    low_discrepancy_directions,
    manifold_points,
    save_points,
)


def test_fibonacci_unit_and_deterministic():
    pts = fibonacci_sphere(200)
    assert pts.shape == (200, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(pts, fibonacci_sphere(200))
    rotated = fibonacci_sphere(200, seed=5)
    assert np.array_equal(rotated, fibonacci_sphere(200, seed=5))
    assert not np.allclose(rotated, pts)
    assert np.allclose(np.linalg.norm(rotated, axis=1), 1.0, atol=1e-12)


def test_fibonacci_spread():
    pts = fibonacci_sphere(500)
    # lattice mean is near the origin and the covariance is near isotropic
    assert np.max(np.abs(pts.mean(axis=0))) < 0.01
    cov = pts.T @ pts / 500
    assert np.max(np.abs(cov - np.eye(3) / 3)) < 0.01


def test_fibonacci_needs_points():
    with pytest.raises(ContractViolation):
        fibonacci_sphere(0)


def test_kronecker_sequence_range_and_determinism():
    u = kronecker_sequence(100, 6, seed=3)
    assert u.shape == (100, 6)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.array_equal(u, kronecker_sequence(100, 6, seed=3))
    assert not np.allclose(u, kronecker_sequence(100, 6, seed=4))


def test_low_discrepancy_directions_unit():
    for amb in (5, 7):
        pts = low_discrepancy_directions(300, amb, seed=1)
        assert pts.shape == (300, amb)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        # rough isotropy
        assert np.max(np.abs(pts.mean(axis=0))) < 0.12
        cov = pts.T @ pts / 300
        assert np.max(np.abs(cov - np.eye(amb) / amb)) < 0.08


def test_manifold_points_blocks():
    man = spheres((2, 1.0), (4, 1.0), (6, 2.0))
    pts = manifold_points(man, 50, seed=9)
    assert pts.shape == (50, man.ambient_dim)
    for sl in man.ambient_slices:
        assert np.allclose(np.linalg.norm(pts[:, sl], axis=1), 1.0, atol=1e-12)
    assert np.array_equal(pts, manifold_points(man, 50, seed=9))


def test_chart_safe_points_respect_margin():
    man = spheres((2, 1.0), (4, 1.0))
    pts = chart_safe_points(man, 80, seed=2, margin=0.2)
    sl = man.ambient_slices[1]
    assert np.all(pts[:, sl][:, -1] > -0.8)
    assert pts.shape == (80, 8)


def test_point_file_round_trip(tmp_path):
    man = spheres((2, 1.0), (6, 1.0))
    pts = manifold_points(man, 20, seed=4)
    path = tmp_path / "points.txt"
    save_points(path, pts)
    back = load_points(path, man)
    assert np.allclose(back, pts, atol=1e-15)


def test_point_file_errors(tmp_path):
    man = spheres((2, 1.0))
    bad = tmp_path / "bad.txt"
    bad.write_text("0.1 0.2\n")
    with pytest.raises(ConfigError):
        load_points(bad, man)
    bad.write_text("a b c\n")
    with pytest.raises(ConfigError):
        load_points(bad, man)
    bad.write_text("0.5 0.5 0.5\n")  # not on the unit sphere
    with pytest.raises(ConfigError):
        load_points(bad, man)
    bad.write_text("# only a comment\n")
    with pytest.raises(ConfigError):
        load_points(bad, man)
    bad.write_text("0 0 1\nnan 0 1\n")  # NaN passes the unit-norm test
    with pytest.raises(ConfigError):
        load_points(bad, man)


def test_low_discrepancy_contract():
    with pytest.raises(ContractViolation):
        low_discrepancy_directions(0, 5, seed=1)
