import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import warnings
from dataclasses import fields

from sphereacs.acs import (
    orthogonal_stream,
    random_block_diagonal_acs,
    random_orthogonal_acs,
    random_orthogonal_matrices,
)
from sphereacs.config import TOL
from sphereacs.errors import ContractViolation, DegenerateInput, SearchError
from sphereacs.fields import (
    acs_field_validity_check,
    complex_step,
    default_acs_field,
    nijenhuis_batch,
    nijenhuis_norms,
    sample_tangent_pairs,
    tangent_project,
    tangent_projectors,
)
from sphereacs.identities import SplittingDefect, splitting_defect
from sphereacs.manifold import SAMPLE_BLOCK, CurvatureOracle, spheres
from sphereacs.sampling import chart_safe_points, manifold_points
from sphereacs import search
from sphereacs.search import (
    DISCLAIMER,
    ExperimentConfig,
    GaugeParametrization,
    SearchResult,
    energy_floor_experiment,
    finite_start,
    make_energy_objective,
    minimize_energy,
    nelder_mead,
    splitting_pressure_probe,
)

S2XS4 = spheres((2, 1.0), (4, 1.0))
S2XS2 = spheres((2, 1.0), (2, 1.0))


# ---------------------------------------------------------------------------
# Gauge parametrization
# ---------------------------------------------------------------------------

def test_parametrization_feature_counts():
    for deg, expected in ((0, 1), (1, 9), (2, 45)):
        par = GaugeParametrization(S2XS4, degree=deg, generators=4, seed=0)
        assert par.feature_count == expected == math.comb(8 + deg, deg)
        assert par.n_params == 4 * expected


def test_parametrization_validation():
    with pytest.raises(ContractViolation):
        GaugeParametrization(S2XS4, degree=-1)
    with pytest.raises(ContractViolation):
        GaugeParametrization(S2XS4, degree=0, generators=-1)


def test_features_match_monomials():
    # each column is its monomial's coordinate product, bit for bit, on real
    # rows and on complex-step rows, at every degree up to 4; the closed-form
    # gradient of the coefficients features @ theta, from the lower features
    # and the theta-only lowered table, is their complex step along each
    # ambient axis to round-off, with 4 and with 28 generators
    pts = chart_safe_points(S2XS4, 100, seed=1)
    n, amb = pts.shape
    du = np.random.default_rng(1).standard_normal(pts.shape)
    for degree in range(5):
        par = GaugeParametrization(S2XS4, degree=degree, generators=1, seed=0)
        for rows in (pts, pts + 1j * du):
            feats = par.features(rows)
            cols = []
            for mono in par.monomials:
                col = np.ones(n)
                for var in mono:
                    col = col * rows[:, var]
                cols.append(col)
            expected = np.stack(cols, axis=1)
            assert feats.shape == expected.shape == (n, par.feature_count)
            assert np.array_equal(feats.real, expected.real)
            assert np.array_equal(feats.imag, expected.imag)
            # equal values in column-major layout still move the objective in
            # the last digit: the BLAS products downstream round differently
            assert feats.flags.c_contiguous
        for generators in (4, 28):
            par = GaugeParametrization(S2XS4, degree=degree, generators=generators, seed=0)
            theta = np.random.default_rng([degree, generators]).standard_normal(par.n_params)
            theta_m = theta.reshape(par.feature_count, generators)
            grad = par._coefficient_gradient(theta, par.features(pts))
            reference = complex_step(
                lambda rows: par.features(rows) @ theta_m,
                np.repeat(pts, amb, axis=0),
                np.tile(np.eye(amb), (n, 1)),
            ).reshape(n, amb, generators)
            assert grad.shape == (n, generators, amb)
            assert grad.flags.c_contiguous
            error = np.max(np.abs(grad - np.swapaxes(reference, 1, 2)), initial=0.0)
            assert error <= 1e-14 * np.max(np.abs(reference), initial=0.0)


def test_lowering_table_is_sparse():
    # one entry per lower monomial and axis, not a dense map over every
    # monomial: 165 x 8 at degree 4 on S^2 x S^4, against 495 x 8 x 165;
    # every monomial of positive degree is reached
    par = GaugeParametrization(S2XS4, degree=4, generators=4, seed=0)
    index, exponent = par._lowering
    assert index.shape == exponent.shape == (math.comb(11, 3), S2XS4.ambient_dim)
    assert sorted(set(index.ravel().tolist())) == list(range(1, par.feature_count))
    assert GaugeParametrization(S2XS4, degree=0)._lowering[0].shape == (0, S2XS4.ambient_dim)


def test_zero_parameters_reproduce_base_field():
    par = GaugeParametrization(S2XS4, degree=2, generators=4, seed=0)
    base = default_acs_field(S2XS4)
    pts = chart_safe_points(S2XS4, 10, seed=2)
    gauged = par.field(np.zeros(par.n_params), base)
    assert np.array_equal(gauged(pts), base(pts))


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_theta_zero_takes_the_general_cayley_path(monkeypatch, degree):
    # theta = 0 has no shortcut: a perturbation eps S of the coefficient
    # field there reaches Q as the Cayley transform of Pi eps S Pi
    par = GaugeParametrization(S2XS4, degree=degree, generators=4, seed=3)
    pts = chart_safe_points(S2XS4, 6, seed=3)
    eps_s = 1e-3 * par.skew_basis[1]
    monkeypatch.setattr(
        GaugeParametrization, "_skew_field",
        lambda self, theta, features: np.broadcast_to(eps_s, (features.shape[0],) + eps_s.shape),
    )
    q = par.gauge_rotations(np.zeros(par.n_params), pts)
    pi = tangent_projectors(S2XS4, pts)
    a = pi @ eps_s @ pi
    eye = np.eye(S2XS4.ambient_dim)
    assert np.max(np.abs(q - (eye - a) @ np.linalg.inv(eye + a))) <= TOL.linalg
    assert np.max(np.abs(q - eye)) > 1e-4


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_gauged_jet_at_theta_zero_is_the_base_jet(degree):
    # Q = I and dQ = 0 exactly on the general path, so the gauged field's
    # values and derivative are the base field's, bit for bit
    par = GaugeParametrization(S2XS4, degree=degree, generators=4, seed=1)
    base = default_acs_field(S2XS4)
    pts = chart_safe_points(S2XS4, 9, seed=4)
    rng = np.random.default_rng(degree)
    pi = tangent_projectors(S2XS4, pts)
    du, w = (pi @ rng.standard_normal((9, S2XS4.ambient_dim, 3)) for _ in range(2))
    j, dj = par.field(np.zeros(par.n_params), base).jet(pts)
    b, db = base.jet(pts)
    assert np.array_equal(j, b)
    assert np.array_equal(dj(du, w), db(du, w))


def test_gauge_rotations_orthogonal_and_tangent_preserving():
    par = GaugeParametrization(S2XS4, degree=1, generators=4, seed=3)
    pts = chart_safe_points(S2XS4, 12, seed=3)
    theta = 0.7 * np.random.default_rng(0).standard_normal(par.n_params)
    q = par.gauge_rotations(theta, pts)
    eye = np.eye(S2XS4.ambient_dim)
    assert np.max(np.abs(q @ q.transpose(0, 2, 1) - eye)) < 1e-12
    # normals are fixed: Q u_a = u_a per factor block
    for sl in S2XS4.ambient_slices:
        fixed = np.einsum("nij,nj->ni", q[:, sl, sl], pts[:, sl])
        assert np.max(np.abs(fixed - pts[:, sl])) < 1e-12


def test_gauged_field_is_pointwise_valid():
    par = GaugeParametrization(S2XS4, degree=1, generators=4, seed=1)
    base = default_acs_field(S2XS4)
    pts = chart_safe_points(S2XS4, 15, seed=5)
    theta = 0.5 * np.random.default_rng(4).standard_normal(par.n_params)
    assert acs_field_validity_check(par.field(theta, base), pts).passed


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_cayley_derivative_matches_central_differences(degree):
    # dQ = -(1/2)(I + Q) dA (I + Q) against central differences of
    # gauge_rotations: agreement with second-order convergence
    par = GaugeParametrization(S2XS4, degree=degree, generators=4, seed=3)
    pts = chart_safe_points(S2XS4, 6, seed=3)
    rng = np.random.default_rng(3)
    theta = 0.4 * rng.standard_normal(par.n_params)
    # two tangent velocities drawn as rows, laid out as a column stack (6, 8, 2)
    du = np.moveaxis(tangent_project(S2XS4, pts, rng.standard_normal((2, 6, S2XS4.ambient_dim))), 0, -1)
    q, dq = par.rotation_jet(theta, pts)
    assert np.array_equal(q, par.gauge_rotations(theta, pts))
    # the derivative comes applied to vectors: dQ e_j for each basis vector
    # e_j, one stack of two columns per j side by side, then laid out as
    # (velocity, row, i, j) like central
    eye = np.eye(S2XS4.ambient_dim)[np.newaxis, :, :, np.newaxis]
    z = np.broadcast_to(eye, (6, 8, 8, 2)).reshape(6, 8, 16)
    exact = np.transpose(dq(du, z).reshape(6, 8, 8, 2), (3, 0, 1, 2))

    def central(h):
        return np.stack([
            (par.gauge_rotations(theta, pts + h * d) - par.gauge_rotations(theta, pts - h * d))
            / (2 * h)
            for d in np.moveaxis(du, -1, 0)
        ])

    errs = {h: np.linalg.norm(central(h) - exact, axis=(2, 3)) for h in (4e-3, 2e-3, 1e-3)}
    for big, small in ((4e-3, 2e-3), (2e-3, 1e-3)):
        ratio = float(np.median(errs[big] / errs[small]))
        assert 3.5 <= ratio <= 4.5, f"convergence ratio {ratio}"
    assert np.max(np.abs(central(1e-5) - exact)) < 1e-8


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_frozen_objective_matches_the_unfrozen_energy(degree):
    # freezing the theta-independent pieces moves round-off only: the
    # objective is the mean |N|^2 of the unfrozen family on the same rows
    par = GaugeParametrization(S2XS4, degree=degree, generators=4, seed=degree)
    base = default_acs_field(S2XS4)
    pts = chart_safe_points(S2XS4, 8, seed=degree)
    objective = make_energy_objective(par, base, pts, 2, pair_seed=5)
    rows, xs, ys = sample_tangent_pairs(S2XS4, pts, 2, 5)
    rng = np.random.default_rng(degree)
    thetas = [np.zeros(par.n_params)] + [0.3 * rng.standard_normal(par.n_params) for _ in range(3)]
    for theta in thetas:
        values = nijenhuis_batch(par.field(theta, base), xs, ys, rows)
        expected = float(np.mean(np.sum(values * values, axis=1)))
        assert abs(objective(theta) - expected) <= 1e-13 * expected


def test_frozen_gauge_holds_only_on_its_rows():
    par = GaugeParametrization(S2XS4, degree=1, generators=4, seed=2)
    base = default_acs_field(S2XS4)
    pts = chart_safe_points(S2XS4, 5, seed=2)
    theta = 0.3 * np.random.default_rng(2).standard_normal(par.n_params)
    rows = pts.copy()
    frozen = par.frozen(rows)
    assert np.array_equal(frozen.gauge_rotations(theta, pts), par.gauge_rotations(theta, pts))
    moved = pts.copy()
    moved[0] = pts[1]
    for off_rows in (moved, pts[:3], pts + 1e-15):
        with pytest.raises(ContractViolation):
            frozen.gauge_rotations(theta, off_rows)
        with pytest.raises(ContractViolation):
            frozen.rotation_jet(theta, off_rows)
        with pytest.raises(ContractViolation):
            frozen.field(theta, base).jet(off_rows)
    # the frozen pieces are a copy: rows written after freezing are off
    # the batch and raise instead of meeting stale pieces
    rows[0] = rows[1]
    with pytest.raises(ContractViolation):
        frozen.gauge_rotations(theta, rows)
    # every frozen piece is read-only, and none is an (n, amb, F) feature
    # gradient; unfrozen pieces hold the caller's rows, which stay writeable
    pieces = vars(frozen.pieces)
    assert pieces.keys() == {"rows", "features", "projectors", "identity", "block_rows", "block_cols"}
    assert not any(a.flags.writeable for a in pieces.values())
    par.rotation_jet(theta, pts)
    par.field(theta, base).jet(pts)
    assert pts.flags.writeable


def test_value_only_gauge_calls_build_no_jet_pieces(monkeypatch):
    # Q alone needs no coefficients' gradient (and no theta-only D theta),
    # so field values, validity rows and the FD oracle's calls never build
    # it; the pieces are one kind, block masks included, for every call
    par = GaugeParametrization(S2XS4, degree=2, generators=4, seed=6)
    base = default_acs_field(S2XS4)
    pts = chart_safe_points(S2XS4, 9, seed=6)
    theta = 0.3 * np.random.default_rng(6).standard_normal(par.n_params)
    q = par.gauge_rotations(theta, pts)
    j = par.field(theta, base)(pts)

    def no_gradient(self, theta, features):
        raise AssertionError("coefficient gradient built for a value-only call")

    built = []
    pieces = GaugeParametrization._pieces

    def recorded(self, rows):
        built.append(pieces(self, rows))
        return built[-1]

    monkeypatch.setattr(GaugeParametrization, "_coefficient_gradient", no_gradient)
    monkeypatch.setattr(GaugeParametrization, "_pieces", recorded)
    assert np.array_equal(par.gauge_rotations(theta, pts), q)
    assert np.array_equal(par.field(theta, base)(pts), j)
    assert acs_field_validity_check(par.field(theta, base), pts).passed
    assert len(built) == 3
    with pytest.raises(AssertionError):
        par.rotation_jet(theta, pts)
    assert len(built) == 4


def recorded_scratches(monkeypatch) -> list:
    """Every Scratch a gauge family hands out from here on, in order."""
    handed = []
    scratch = GaugeParametrization._scratch

    def recorded(self):
        handed.append(scratch(self))
        return handed[-1]

    monkeypatch.setattr(GaugeParametrization, "_scratch", recorded)
    return handed


def test_gauged_field_reuses_its_scratch_across_calls(monkeypatch):
    # one Scratch per field: after a first multi-block one-shot call, later
    # calls, with fewer rows too, make no new buffer, and their norms are
    # those of a fresh field bit for bit (buffer identity, not fault counts,
    # which depend on the heap layout)
    monkeypatch.setattr("sphereacs.fields.NIJENHUIS_BLOCK_ROWS", 7)
    handed = recorded_scratches(monkeypatch)
    par = GaugeParametrization(S2XS4, degree=2, generators=4, seed=8)
    base = default_acs_field(S2XS4)
    theta = 0.3 * np.random.default_rng(8).standard_normal(par.n_params)
    pts = chart_safe_points(S2XS4, 23, seed=8)
    Jf = par.field(theta, base)
    assert len(handed) == 1
    nijenhuis_norms(Jf, pts, frame_pairs=2, seed=1)
    buffers = dict(handed[0]._buffers)
    assert buffers.keys() == {"z", "both", "du", "d_u", "d_u_cols", "outer", "outer_b"}
    for points, seed in ((pts, 2), (pts[:5], 3), (pts, 4)):
        count = len(handed)
        reused = nijenhuis_norms(Jf, points, frame_pairs=2, seed=seed)
        assert len(handed) == count
        assert handed[0]._buffers.keys() == buffers.keys()
        assert all(handed[0]._buffers[name] is buffer for name, buffer in buffers.items())
        fresh = nijenhuis_norms(par.field(theta, base), points, frame_pairs=2, seed=seed)
        assert np.array_equal(reused, fresh)
    # a frozen family hands out its own scratch, to every field of it
    frozen = par.frozen(pts)
    assert frozen._scratch() is frozen._scratch() is frozen.scratch


def test_gauged_fields_share_no_buffers(monkeypatch):
    handed = recorded_scratches(monkeypatch)
    par = GaugeParametrization(S2XS4, degree=1, generators=4, seed=9)
    base = default_acs_field(S2XS4)
    rng = np.random.default_rng(9)
    pts = chart_safe_points(S2XS4, 11, seed=9)
    for Jf in [par.field(0.3 * rng.standard_normal(par.n_params), base) for _ in range(2)]:
        nijenhuis_norms(Jf, pts, frame_pairs=2, seed=9)
    first, second = (list(scratch._buffers.values()) for scratch in handed)
    assert first and second
    assert not any(np.shares_memory(a, b) for a in first for b in second)


def test_energy_objective_rejects_a_non_finite_point():
    # the frozen pair draw fails closed, as the one-shot evaluations do
    par = GaugeParametrization(S2XS4, degree=1, generators=4, seed=3)
    pts = chart_safe_points(S2XS4, 5, seed=3)
    pts[2, 4] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(DegenerateInput):
        make_energy_objective(par, default_acs_field(S2XS4), pts, 1, pair_seed=3)


# One frozen objective at criterion 7's scale (100 rows, degree 2) in a fresh
# interpreter: the minor page faults of 20 evaluations after one warm-up.
FAULT_PROBE = """
import resource
import numpy as np
from sphereacs.fields import default_acs_field
from sphereacs.manifold import spheres
from sphereacs.sampling import chart_safe_points
from sphereacs.search import GaugeParametrization, make_energy_objective
man = spheres((2, 1.0), (4, 1.0))
par = GaugeParametrization(man, 2, 4, 7)
pts = chart_safe_points(man, 100, 7, 0.05)
objective = make_energy_objective(par, default_acs_field(man), pts, 1, pair_seed=7)
thetas = 0.3 * np.random.default_rng(7).standard_normal((21, par.n_params))
objective(thetas[0])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for theta in thetas[1:]:
    objective(theta)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_frozen_objective_does_not_fault_at_criterion_7_scale():
    # glibc maps every allocation above its initial 128 KiB mmap threshold
    # afresh and faults its pages in, and it gives the top of the heap back
    # once more than its trim threshold lies free there, to be faulted in
    # again; the frozen pieces keep their large temporaries in scratch
    # buffers, so a steady evaluation faults (almost) nothing.  It needs a
    # fresh interpreter: freeing any large array earlier in the process
    # raises both thresholds and hides the faults.  Where the temporaries
    # fall relative to the heap top depends on everything allocated before,
    # down to the number of environment variables (without the dU scratch
    # one padding in 24 gave 1,614 faults, the rest 75), so the probe runs
    # under 0-23 extra ones.
    src = str(Path(search.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    faults = []
    for padding in range(24):
        padded = dict(env, **{f"SPHEREACS_PROBE_PADDING_{i}": "x" for i in range(padding)})
        probe = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE], env=padded, capture_output=True, text=True, check=True
        )
        faults.append(int(probe.stdout))
    assert max(faults) <= 20 * 5, faults


def test_gauge_pieces_take_one_feature_pass(monkeypatch):
    # every pieces build, for a jet or not, makes one pass over the degree
    # blocks of the features, bit for bit those of ``features``; the jet
    # reads the coefficients' gradient off the same features
    par = GaugeParametrization(S2XS4, degree=2, generators=4, seed=5)
    pts = chart_safe_points(S2XS4, 7, seed=5)
    theta = 0.3 * np.random.default_rng(5).standard_normal(par.n_params)
    features = par.features(pts)
    passes = []
    feature_pass = GaugeParametrization.features

    def counted(self, rows):
        passes.append(rows.shape)
        return feature_pass(self, rows)

    monkeypatch.setattr(GaugeParametrization, "features", counted)
    par.rotation_jet(theta, pts)
    frozen = par.frozen(pts)
    par.gauge_rotations(theta, pts)
    frozen.rotation_jet(theta, frozen.pieces.rows)
    assert passes == [pts.shape] * 3
    assert np.array_equal(frozen.pieces.features, features)


def test_energy_objective_is_one_batch_at_any_block_size(monkeypatch):
    # the frozen field and gauge pieces hold only on the objective's whole
    # row batch, so the one-shot row blocks of ``fields`` must not reach it
    par = GaugeParametrization(S2XS4, degree=1, generators=4, seed=4)
    base = default_acs_field(S2XS4)
    pts = chart_safe_points(S2XS4, 12, seed=4)
    theta = 0.3 * np.random.default_rng(4).standard_normal(par.n_params)
    expected = make_energy_objective(par, base, pts, 2, pair_seed=4)(theta)
    monkeypatch.setattr("sphereacs.fields.NIJENHUIS_BLOCK_ROWS", 5)
    assert make_energy_objective(par, base, pts, 2, pair_seed=4)(theta) == expected


@pytest.mark.parametrize("scale", [1e30, 1e300])
def test_failed_cayley_transform_gives_infinite_energy(scale):
    # far too large a theta: I + A is singular in floating point or Q is
    # not orthogonal; the objective reports inf, quietly, for the simplex
    # to reject
    par = GaugeParametrization(S2XS4, degree=0, generators=4, seed=7)
    pts = chart_safe_points(S2XS4, 4, seed=7)
    theta = scale * np.random.default_rng(1).standard_normal(par.n_params)
    with pytest.raises(DegenerateInput):
        par.gauge_rotations(theta, pts)
    objective = make_energy_objective(par, default_acs_field(S2XS4), pts, 1, pair_seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert objective(theta) == np.inf
        assert np.isfinite(objective(np.zeros(par.n_params)))


def test_gauge_theta_shape_contract():
    par = GaugeParametrization(S2XS4, degree=0, generators=2, seed=0)
    pts = chart_safe_points(S2XS4, 2, seed=0)
    for theta in (np.zeros(5), np.zeros((2, 5)), np.zeros((1, 2, 8))):
        with pytest.raises(ContractViolation):
            par.gauge_rotations(theta, pts)


def stacked_objective(par, pts, frame_pairs, seed):
    """The objective of make_energy_objective and its stacked evaluation."""
    stacked = []
    objective = make_energy_objective(
        par, default_acs_field(par.manifold), pts, frame_pairs, pair_seed=seed, _stack=stacked
    )
    (energies,) = stacked
    return objective, energies


@pytest.mark.parametrize("points, frame_pairs", [(1, 1), (7, 2)])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_stacked_energies_equal_single_evaluations(degree, points, frame_pairs):
    # every energy of a stack is the one its theta gives alone, bit for bit,
    # at every stack size and position, at one row too (where a 2-D product
    # over the tiled rows would round differently); a theta whose Q fails
    # the orthogonality check gives inf and leaves the others alone
    par = GaugeParametrization(S2XS4, degree=degree, generators=4, seed=degree)
    pts = chart_safe_points(S2XS4, points, seed=degree)
    objective, energies = stacked_objective(par, pts, frame_pairs, degree)
    thetas = 0.3 * np.random.default_rng(degree).standard_normal((6, par.n_params))
    thetas[4] *= 1e9
    with np.errstate(all="raise"):
        single = np.array([objective(theta) for theta in thetas])
        assert single[4] == np.inf and np.all(np.isfinite(np.delete(single, 4)))
        for size in range(1, len(thetas) + 1):
            for start in range(len(thetas) - size + 1):
                stop = start + size
                assert np.array_equal(energies(thetas[start:stop]), single[start:stop]), (start, stop)


def test_stacked_gauge_rotations_equal_single_ones():
    # a stack's Q and its derivative map are those of each theta, bit for
    # bit; a Q that fails the orthogonality check is NaN in a stack and
    # raises alone
    par = GaugeParametrization(S2XS4, degree=2, generators=4, seed=3)
    pts = chart_safe_points(S2XS4, 9, seed=3)
    thetas = 0.3 * np.random.default_rng(3).standard_normal((3, par.n_params))
    thetas[1] *= 1e9
    du = np.random.default_rng(4).standard_normal((3, 9, 8, 2))
    z = np.random.default_rng(5).standard_normal((3, 9, 8, 4))
    with np.errstate(invalid="ignore"):
        q, dq = par.rotation_jet(thetas, pts)
        dq_z = dq(du, z).copy()
    assert np.all(np.isnan(q[1])) and np.all(np.isnan(dq_z[1]))
    with pytest.raises(DegenerateInput):
        par.gauge_rotations(thetas[1], pts)
    for i in (0, 2):
        q_i, dq_i = par.rotation_jet(thetas[i], pts)
        assert np.array_equal(q[i], q_i)
        assert np.array_equal(dq_z[i], dq_i(du[i], z[i]))


def test_singular_cayley_inverse_in_a_stack_evaluates_one_theta_at_a_time(monkeypatch):
    # a singular I + A makes the stacked inverse raise for the whole stack:
    # the stack is evaluated again one theta at a time, and only the
    # singular theta gets inf
    par = GaugeParametrization(S2XS4, degree=1, generators=4, seed=1)
    pts = chart_safe_points(S2XS4, 5, seed=1)
    objective, energies = stacked_objective(par, pts, 1, 1)
    thetas = 0.3 * np.random.default_rng(1).standard_normal((4, par.n_params))
    thetas[2] = 1e300 * np.random.default_rng(1).standard_normal(par.n_params)
    with pytest.raises(DegenerateInput, match="inverse"):
        par.gauge_rotations(thetas[2], pts)
    single = np.array([objective(theta) for theta in thetas])
    calls = []
    rotations = GaugeParametrization.gauge_rotations

    def counted(self, theta, *args, **kwargs):
        calls.append(np.shape(theta)[0] if np.ndim(theta) == 2 else 0)
        return rotations(self, theta, *args, **kwargs)

    monkeypatch.setattr(GaugeParametrization, "gauge_rotations", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = energies(thetas)
    assert np.array_equal(out, single) and out[2] == np.inf
    assert calls == [4, 1, 1, 1, 1]


# ---------------------------------------------------------------------------
# Simplex descent
# ---------------------------------------------------------------------------

def quadratic(x):
    return float(np.sum((x - 1.5) ** 2))


def test_nelder_mead_minimises_quadratic():
    xb, fb, used = nelder_mead(quadratic, np.zeros(4), budget=800)
    assert fb < 1e-12
    assert np.allclose(xb, 1.5, atol=1e-5)
    assert used <= 800


def test_nelder_mead_deterministic():
    a = nelder_mead(quadratic, np.zeros(4), budget=300)
    b = nelder_mead(quadratic, np.zeros(4), budget=300)
    assert a[1] == b[1]
    assert np.array_equal(a[0], b[0])
    assert a[2] == b[2]


def test_nelder_mead_budget_prefix_monotone():
    best = [nelder_mead(quadratic, np.zeros(6), budget=b)[1] for b in (50, 150, 400, 800)]
    for lo, hi in zip(best[1:], best[:-1]):
        assert lo <= hi


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def abs_rosenbrock(x):
    # non-smooth, so the simplex also shrinks, and the budget cuts some shrinks
    return float(np.sum(100.0 * np.abs(x[1:] - x[:-1] ** 2) + np.abs(1.0 - x[:-1])))


@pytest.mark.parametrize("fn", [rosenbrock, abs_rosenbrock])
def test_nelder_mead_budget_prefix_at_every_budget(fn):
    # whichever step the budget cuts, a smaller budget's evaluations are a
    # prefix of a larger one's, and every counted evaluation is one call
    def evaluated_points(budget):
        calls = []

        def objective(x):
            calls.append(x.copy())
            return fn(x)

        _, _, used = nelder_mead(objective, np.full(3, -0.5), budget)
        assert used == len(calls)
        return np.array(calls)

    full = evaluated_points(400)
    for budget in range(1, 401):
        assert np.array_equal(evaluated_points(budget), full[: min(budget, len(full))])


def test_nelder_mead_zero_dimensional():
    xb, fb, used = nelder_mead(lambda x: 3.25, np.zeros(0), budget=10)
    assert fb == 3.25
    assert used == 1


def test_nelder_mead_budget_contract():
    with pytest.raises(ContractViolation):
        nelder_mead(quadratic, np.zeros(2), budget=0)


def test_finite_start_resamples_then_errors():
    calls = []

    def objective(x):
        calls.append(float(x[0]))
        return float("nan") if x[0] < 2.5 else 1.0

    draws = iter([np.array([1.0]), np.array([2.0]), np.array([3.0])])
    theta, value = finite_start(objective, np.array([0.0]), lambda: next(draws))
    assert theta[0] == 3.0 and value == 1.0
    assert calls == [0.0, 1.0, 2.0, 3.0]
    # a failed energy evaluation returns inf; a NaN must be refused the same way
    for bad in (float("inf"), float("nan")):
        calls.clear()
        with pytest.raises(SearchError):
            finite_start(
                lambda x: calls.append(float(x[0])) or bad, np.zeros(1), lambda: np.zeros(1)
            )
        assert len(calls) == 1 + 5


# ---------------------------------------------------------------------------
# Energy minimisation
# ---------------------------------------------------------------------------

def small_search(man, restarts=3, budget=60, degree=0, seed=7, points=20):
    par = GaugeParametrization(man, degree=degree, generators=4, seed=seed)
    pts = chart_safe_points(man, points, seed=seed)
    return minimize_energy(par, pts, restarts=restarts, seed=seed, budget=budget)


def test_search_recovers_integrable_member_on_2_sphere_product():
    res = small_search(S2XS2, restarts=2, budget=40)
    assert res.best_energy <= 1e-8
    assert res.best_energy == min(res.restart_energies)
    assert res.best_energy >= 0.0


def test_search_restart_zero_starts_at_base_field():
    # restart 0 starts at theta = 0, so its energy can never exceed the base
    # field's own energy
    man = S2XS4
    par = GaugeParametrization(man, degree=0, generators=4, seed=7)
    pts = chart_safe_points(man, 20, seed=7)
    base = default_acs_field(man)
    objective = make_energy_objective(par, base, pts, 1, pair_seed=7)
    base_energy = objective(np.zeros(par.n_params))
    res = minimize_energy(par, pts, restarts=1, seed=7, budget=25)
    assert res.restart_energies[0] <= base_energy


def test_search_deterministic():
    a = small_search(S2XS4)
    b = small_search(S2XS4)
    assert a.best_energy == b.best_energy
    assert a.restart_energies == b.restart_energies
    assert np.array_equal(a.best_params, b.best_params)


def test_search_evaluates_once_per_counted_evaluation(monkeypatch):
    # each restart's start value is evaluated once (the base energy, or
    # finite_start's); the simplex counts it without evaluating the objective
    # a second time, and the lock-step rounds evaluate one theta row of a
    # stacked call per counted evaluation
    calls = 0
    make_objective = search.make_energy_objective

    def counting_objective(*args, _stack, **kwargs):
        objective = make_objective(*args, _stack=_stack, **kwargs)
        energies = _stack.pop()

        def counted(theta):
            nonlocal calls
            calls += 1
            return objective(theta)

        def counted_rows(thetas):
            nonlocal calls
            calls += len(thetas)
            return energies(thetas)

        _stack.append(counted_rows)
        return counted

    monkeypatch.setattr(search, "make_energy_objective", counting_objective)
    res = small_search(S2XS4, restarts=3, budget=30, degree=1)
    assert calls == sum(res.evals_per_restart)


def test_search_restart_prefix_nesting():
    short = small_search(S2XS4, restarts=2)
    long = small_search(S2XS4, restarts=4)
    assert long.restart_energies[:2] == short.restart_energies
    assert long.best_energy <= short.best_energy
    assert min(long.restart_energies[:2]) == short.best_energy


def test_search_budget_monotone():
    small = small_search(S2XS4, budget=30)
    large = small_search(S2XS4, budget=90)
    assert large.best_energy <= small.best_energy
    assert all(lo <= hi for lo, hi in zip(large.restart_energies, small.restart_energies))


def sequential_restarts(par, pts, restarts, seed, budget):
    """minimize_energy's restarts as one nelder_mead call each, in turn,
    from the same starts: the reference the lock-step rounds must equal."""
    objective = make_energy_objective(par, default_acs_field(par.manifold), pts, 1, pair_seed=seed)
    runs = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        theta0 = np.zeros(par.n_params) if r == 0 else 0.5 * rng.standard_normal(par.n_params)
        theta0, f0 = finite_start(objective, theta0, lambda: 0.5 * rng.standard_normal(par.n_params))
        runs.append(nelder_mead(objective, theta0, budget, f0=f0))
    return runs


@pytest.mark.parametrize("block_rows", [None, 20, 9])
@pytest.mark.parametrize("man, degree, generators, budget", [
    (S2XS2, 0, 2, 200), (S2XS4, 1, 4, 40), (S2XS4, 2, 4, 30),
])
def test_lock_step_equals_sequential_restarts(monkeypatch, man, degree, generators, budget, block_rows):
    # one group of 5 restarts, groups of 2 whose places pass to the next
    # start as runs finish, and one restart at a time (10 rows each)
    if block_rows is not None:
        monkeypatch.setattr(search, "NIJENHUIS_BLOCK_ROWS", block_rows)
    par = GaugeParametrization(man, degree=degree, generators=generators, seed=2)
    pts = chart_safe_points(man, 10, seed=2)
    res = minimize_energy(par, pts, restarts=5, seed=2, budget=budget)
    runs = sequential_restarts(par, pts, 5, 2, budget)
    assert res.restart_energies == tuple(fb for _, fb, _ in runs)
    assert res.evals_per_restart == tuple(used for _, _, used in runs)
    best = min(range(5), key=lambda r: runs[r][1])
    assert res.best_energy == runs[best][1]
    assert np.array_equal(res.best_params, runs[best][0])
    if man is S2XS2:
        # both exits: some restarts converge before their budget runs out
        assert min(res.evals_per_restart) < budget == max(res.evals_per_restart)


def test_lock_step_groups_hold_at_most_the_block_rows(monkeypatch):
    # NIJENHUIS_BLOCK_ROWS // rows restarts per stacked call, at least one
    sizes = []
    make_objective = search.make_energy_objective

    def recording(*args, _stack, **kwargs):
        objective = make_objective(*args, _stack=_stack, **kwargs)
        energies = _stack.pop()
        _stack.append(lambda thetas: sizes.append(len(thetas)) or energies(thetas))
        return objective

    monkeypatch.setattr(search, "make_energy_objective", recording)
    par = GaugeParametrization(S2XS4, degree=1, generators=4, seed=2)
    pts = chart_safe_points(S2XS4, 10, seed=2)
    for block_rows, group in ((512, 5), (30, 3), (10, 1), (3, 1)):
        monkeypatch.setattr(search, "NIJENHUIS_BLOCK_ROWS", block_rows)
        sizes.clear()
        minimize_energy(par, pts, restarts=5, seed=2, budget=12)
        assert max(sizes) == group


def test_non_finite_base_energy_raises_at_once():
    # the base field's energy overflows at curvature 1e308: restart 0 stops
    # the search after its one evaluation, naming the energy and curvature
    man = spheres((6, 1e308))
    par = GaugeParametrization(man, degree=0, generators=4, seed=1)
    pts = manifold_points(man, 4, seed=1)
    with pytest.raises(SearchError, match=r"energy is inf.*1e\+308"):
        minimize_energy(par, pts, restarts=3, seed=1, budget=10)


def test_search_trivial_family_keeps_base_energy():
    man = spheres((6, 1.0))
    par = GaugeParametrization(man, degree=0, generators=0, seed=1)
    pts = manifold_points(man, 25, seed=1)
    res = minimize_energy(par, pts, restarts=3, seed=1, budget=10)
    assert len(set(res.restart_energies)) == 1
    base_energy = make_energy_objective(
        par, default_acs_field(man), pts, 1, pair_seed=1
    )(np.zeros(0))
    assert res.best_energy == base_energy


def test_search_contracts():
    par = GaugeParametrization(S2XS4, degree=0, generators=1, seed=0)
    pts = chart_safe_points(S2XS4, 5, seed=0)
    with pytest.raises(ContractViolation):
        minimize_energy(par, pts, restarts=0, seed=0, budget=10)
    with pytest.raises(ContractViolation):
        minimize_energy(par, pts, restarts=1, seed=0, budget=0)


def test_best_params_reconstruct_valid_field():
    # the reported parameter vector must rebuild a field whose pointwise
    # restriction passes the validator at every sample point
    par = GaugeParametrization(S2XS4, degree=1, generators=4, seed=9)
    pts = chart_safe_points(S2XS4, 15, seed=9)
    res = minimize_energy(par, pts, restarts=2, seed=9, budget=50)
    rebuilt = par.field(res.best_params, default_acs_field(S2XS4))
    assert acs_field_validity_check(rebuilt, pts).passed


# ---------------------------------------------------------------------------
# Grid experiment
# ---------------------------------------------------------------------------

def test_energy_floor_experiment_structure():
    cfg = ExperimentConfig(
        manifold=S2XS4, degrees=(0, 1), restarts=2, budget=25, points=12,
        frame_pairs=1, seed=5, generators=4, init_scale=0.5, chart_margin=0.05,
    )
    report = energy_floor_experiment(cfg)
    assert set(report.results) == {0, 1}
    assert report.floor == min(report.cell_minima().values())
    assert report.floor > 0.0
    rows = report.report().checks
    assert all(r.kind == "value" for r in rows)
    # two degrees x two restarts x (energy, best-so-far), two cells, the floor
    assert len(rows) == 11
    values = {r.name: r.computed for r in rows}
    for deg in (0, 1):
        energies = report.results[deg].restart_energies
        assert len(energies) == 2
        best = np.inf
        for idx, energy in enumerate(energies):
            key = f"degree[{deg}].restart[{idx}]"
            best = min(best, energy)
            assert values[f"{key}.energy"] == energy
            assert values[f"{key}.best-so-far"] == best  # monotone best-so-far
        assert values[f"degree[{deg}].cell-minimum"] == report.cell_minima()[deg] == best
    assert rows[-1].name == "floor"
    assert rows[-1].computed == report.floor
    assert rows[-1].claim == DISCLAIMER


def test_energy_floor_experiment_deterministic():
    cfg = ExperimentConfig(
        manifold=S2XS4, degrees=(0,), restarts=2, budget=20, points=10,
        frame_pairs=1, seed=3, generators=4, init_scale=0.5, chart_margin=0.05,
    )
    a = energy_floor_experiment(cfg)
    b = energy_floor_experiment(cfg)
    assert a.cell_minima() == b.cell_minima()
    assert a.results[0].restart_energies == b.results[0].restart_energies
    assert a.report().checks == b.report().checks


# ---------------------------------------------------------------------------
# Splitting pressure probe
# ---------------------------------------------------------------------------

def test_probe_summaries():
    man = spheres((2, 1.0), (4, 1.0))
    alpha, threshold = 1.0, 0.1
    probe = splitting_pressure_probe(man, samples=400, seed=11)
    assert probe.direct.shape == (400,)
    mixed = 1.0 - probe.c**2 > threshold
    assert np.sum(mixed) > 200
    # over the mixed subsample the core defect is bounded below exactly
    core = probe.second_factor_term[mixed] - probe.direct[mixed]
    assert np.min(core) >= alpha * threshold**2 * (1 - 1e-9)
    # generic sampling reaches nearly fully mixing structures
    assert np.max(np.abs(probe.direct[mixed])) >= alpha * 0.81 * (1 - 1e-3)
    assert np.all(probe.direct <= 1e-12)


def test_probe_alpha_scaling():
    # matched seeds draw the same structures, so the 2-sphere part of the
    # defect (defect minus the complement term) scales linearly in alpha
    man1 = spheres((2, 1.0), (4, 0.7))
    man2 = spheres((2, 2.0), (4, 0.7))
    p1 = splitting_pressure_probe(man1, samples=50, seed=4)
    p2 = splitting_pressure_probe(man2, samples=50, seed=4)
    core1 = p1.second_factor_term - p1.direct
    core2 = p2.second_factor_term - p2.direct
    assert np.allclose(core2, 2.0 * core1, atol=1e-11)


def test_probe_equals_per_structure_defects():
    # more samples than one SAMPLE_BLOCK, so the stack spans two blocks;
    # sample s is structure s of the probe's stream
    man = spheres((2, 1.3), (4, 0.8))
    samples = SAMPLE_BLOCK + 3
    probe = splitting_pressure_probe(man, samples=samples, seed=5)
    structures = random_orthogonal_matrices(man, samples, orthogonal_stream(5))
    oracle = CurvatureOracle(man)
    x, y = np.eye(man.total_dim)[:2]
    for s in (0, 1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, samples - 1):
        one = splitting_defect(oracle, structures[s], x, y)
        for f in fields(SplittingDefect):
            assert getattr(probe, f.name)[s] == pytest.approx(
                getattr(one, f.name), rel=1e-12, abs=1e-12
            )


def test_probe_split_structures_have_zero_defect():
    man = spheres((2, 1.0), (4, 1.0))
    oracle = CurvatureOracle(man)
    x = np.zeros(6)
    y = np.zeros(6)
    x[0], y[1] = 1.0, 1.0
    for s in range(30):
        d = splitting_defect(oracle, random_block_diagonal_acs(man, s), x, y)
        assert abs(d.direct) < 1e-10


def test_probe_needs_2_sphere_first():
    with pytest.raises(ContractViolation):
        splitting_pressure_probe(spheres((4, 1.0), (2, 1.0)), samples=5, seed=0)
