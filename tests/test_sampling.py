import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereacs.cli import main
from sphereacs.errors import ConfigError, ContractViolation
from sphereacs.manifold import spheres
from sphereacs.sampling import (
    chart_safe_points,
    fibonacci_sphere,
    kronecker_sequence,
    load_points,
    low_discrepancy_directions,
    manifold_points,
)


def save_points(path, pts: np.ndarray) -> None:
    """Write one point per line, 17 significant digits: the points_file format."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in pts:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


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


# ---------------------------------------------------------------------------
# points_file parsing against the line-by-line reference parser
# ---------------------------------------------------------------------------

def reference_load_points(path, man):
    """The points_file format parsed one line at a time with ``float``."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = np.array([float(tok) for tok in line.split()])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: unparseable coordinate: {exc}") from exc
            if row.shape != (man.ambient_dim,):
                raise ConfigError(
                    f"{path}:{lineno}: expected {man.ambient_dim} coordinates, got {row.size}"
                )
            if not np.all(np.isfinite(row)):
                raise ConfigError(f"{path}:{lineno}: non-finite coordinate")
            rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no sample points found")
    pts = np.vstack(rows)
    for sl in man.ambient_slices:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(pts[:, sl], axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ConfigError(f"{path}: factor block not on the unit sphere (|u| off by > 1e-6)")
        pts[:, sl] /= norms[:, np.newaxis]
    return pts


def outcome(load, path, man):
    """The parsed array, or the ConfigError text."""
    try:
        return load(path, man)
    except ConfigError as exc:
        return str(exc)


# Unit vectors of R^3 spelled in ways ``float`` accepts, some of which a C
# number parser may reject (underscores, a bare leading sign or point), and
# separated by whitespace that str.split() takes but that does not end a
# line of a text file (\f, \v, \x1c, \x85, \u2028).
UNIT_ROWS = st.sampled_from([
    "1 0 0", "1E0 0 0", "1_0e-1 0 -0", "+1. +.0 0_0", "0 +.6 0.8", "6e-1 8_0e-2 0",
    "-0.6 0 +.8", "0\t1\t0", "0 0 1.0000000000000002", "NaN -Inf +inf",
    "1\f0\v0", "0\x1c1\x850", "0 0\u20281",
])
POINT_LINE = st.one_of(
    UNIT_ROWS,
    st.integers(0, 2**32 - 1).map(
        lambda seed: " ".join(format(v, ".17g") for v in fibonacci_sphere(1, seed)[0])
    ),
)
OTHER_LINE = st.sampled_from([
    "", "   ", "\t", "# comment", "   # indented comment", "#", "nan 0 1", "inf 0 0",
    "1e400 0 0", "1 0", "1 0 0 0", "1 0 0 # note", "x y z", "+.5 0 0", "infinity 0 0",
])
LINE = st.one_of(POINT_LINE, OTHER_LINE).flatmap(
    lambda text: st.tuples(st.just(text), st.sampled_from(["", " ", "  \t"]))
)
ENDING = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.tuples(LINE, ENDING), max_size=6),
    last_ending=st.booleans(),
)
def test_load_points_matches_reference(tmp_path_factory, lines, last_ending):
    man = spheres((2, 1.0))
    tmp = tmp_path_factory.mktemp("pts")
    path = tmp / "points.txt"
    text = "".join(line + trailing + ending for (line, trailing), ending in lines)
    if lines and not last_ending:
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(reference_load_points, path, man)
    got = outcome(load_points, path, man)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    # through the CLI: a rejected file is exit code 2 with its one error line
    cfg = tmp / "run.cfg"
    cfg.write_text(f"factor = dim=2 curvature=1.0\nframe_pairs = 1\npoints_file = {path}\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["nijenhuis", "s2", "--config", str(cfg), "--out", str(tmp / "out")])
    if isinstance(expected, str):
        assert (code, err.getvalue()) == (2, f"error: {expected}\n")
    else:
        assert code == 0


def test_inline_comment_is_an_unparseable_coordinate(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("# a comment line is skipped\n1 0 0 # note\n")
    with pytest.raises(ConfigError, match=r"points\.txt:2: unparseable coordinate"):
        load_points(path, spheres((2, 1.0)))
