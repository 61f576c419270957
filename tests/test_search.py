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
from sphereacs.errors import ContractViolation, DegenerateInput, SearchError
from sphereacs.fields import (
    acs_field_validity_check,
    complex_step,
    default_acs_field,
    nijenhuis_sq_norms,
    sample_tangent_pairs,
    tangent_project,
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
    # gradient is the complex step of the features along each ambient axis,
    # bit for bit at degrees 0-1 and to round-off above
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
        grad = par.feature_gradient(pts)
        reference = complex_step(
            par.features, np.repeat(pts, amb, axis=0), np.tile(np.eye(amb), (n, 1))
        ).reshape(n, amb, -1)
        assert grad.shape == (n, amb, par.feature_count)
        assert grad.flags.c_contiguous
        if degree <= 1:
            assert np.array_equal(grad, reference)
        else:
            assert np.max(np.abs(grad - reference)) <= 1e-14


def test_zero_parameters_reproduce_base_field():
    par = GaugeParametrization(S2XS4, degree=2, generators=4, seed=0)
    base = default_acs_field(S2XS4)
    pts = chart_safe_points(S2XS4, 10, seed=2)
    gauged = par.field(np.zeros(par.n_params), base)
    assert np.array_equal(gauged(pts), base(pts))


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
        expected = float(np.mean(nijenhuis_sq_norms(par.field(theta, base), xs, ys, rows)))
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
    # every frozen piece is read-only; unfrozen pieces hold the caller's
    # rows, which stay writeable
    pieces = vars(frozen.pieces)
    assert {"rows", "features", "gradient", "projectors"} <= pieces.keys()
    assert not any(a.flags.writeable for a in pieces.values())
    par.rotation_jet(theta, pts)
    par.field(theta, base).jet(pts)
    assert pts.flags.writeable


def test_value_only_gauge_calls_build_no_jet_pieces(monkeypatch):
    # Q alone needs neither the feature gradient nor the block masks, so
    # field values, validity rows and the FD oracle's calls never build them
    par = GaugeParametrization(S2XS4, degree=2, generators=4, seed=6)
    base = default_acs_field(S2XS4)
    pts = chart_safe_points(S2XS4, 9, seed=6)
    theta = 0.3 * np.random.default_rng(6).standard_normal(par.n_params)
    q = par.gauge_rotations(theta, pts)
    j = par.field(theta, base)(pts)

    feature_blocks = GaugeParametrization._feature_blocks

    def no_gradient(self, rows, gradient=False):
        if gradient:
            raise AssertionError("feature gradient built for a value-only call")
        return feature_blocks(self, rows)

    monkeypatch.setattr(GaugeParametrization, "_feature_blocks", no_gradient)
    assert np.array_equal(par.gauge_rotations(theta, pts), q)
    assert np.array_equal(par.field(theta, base)(pts), j)
    assert acs_field_validity_check(par.field(theta, base), pts).passed
    with pytest.raises(AssertionError):
        par.rotation_jet(theta, pts)


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
    # the features and, for a jet, their gradient come from one pass over
    # the degree blocks, bit for bit the values of the separate methods
    par = GaugeParametrization(S2XS4, degree=2, generators=4, seed=5)
    pts = chart_safe_points(S2XS4, 7, seed=5)
    theta = 0.3 * np.random.default_rng(5).standard_normal(par.n_params)
    features, gradient = par.features(pts), par.feature_gradient(pts)
    passes = []
    feature_blocks = GaugeParametrization._feature_blocks

    def counted(self, rows, gradient=False):
        passes.append(gradient)
        return feature_blocks(self, rows, gradient)

    monkeypatch.setattr(GaugeParametrization, "_feature_blocks", counted)
    par.rotation_jet(theta, pts)
    frozen = par.frozen(pts)
    par.gauge_rotations(theta, pts)
    assert passes == [True, True, False]
    assert np.array_equal(frozen.pieces.features, features)
    assert np.array_equal(frozen.pieces.gradient, gradient)


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
    with pytest.raises(ContractViolation):
        par.gauge_rotations(np.zeros(5), chart_safe_points(S2XS4, 2, seed=0))


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
    # each restart's start value comes from finite_start; the simplex counts
    # it without evaluating the objective a second time
    calls = 0
    make_objective = search.make_energy_objective

    def counting_objective(*args, **kwargs):
        objective = make_objective(*args, **kwargs)

        def counted(theta):
            nonlocal calls
            calls += 1
            return objective(theta)

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
