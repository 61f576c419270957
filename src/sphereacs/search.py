"""Seeded minimisation of Nijenhuis energy over gauged families of
orthogonal almost complex structure fields.

The family around a base field J0 is

    J_theta(p) = Q(theta, p) J0(p) Q(theta, p)^T,
    Q = (I - A)(I + A)^(-1)          (Cayley form, always defined),
    A(theta, p) = Pi(p) [sum_k c_k(theta, p) S_k] Pi(p),

where the S_k are fixed seeded skew generators, the coefficient functions
c_k are polynomials in the ambient unit coordinates up to the configured
degree, and Pi(p) is the tangent projector.  Because the projected generator
preserves the tangent/normal splitting, Q is orthogonal, restricts to a
tangent rotation and fixes normals, so J_theta is a valid structure field
for every theta, and theta = 0 reproduces J0 exactly.

Every search here is heuristic evidence only: a positive energy floor over a
parametrized family at desk scale demonstrates nothing beyond the family and
sample points used, and is reported as data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .acs import random_block_diagonal_matrices, random_orthogonal_matrices
from .config import TOL
from .errors import ContractViolation, SearchError
from .fields import ACSField, default_acs_field, frame_pair_sq_norms
from .identities import splitting_defect
from .manifold import CurvatureOracle, ProductManifold, sample_blocks
from .report import AuditReport
from .sampling import chart_safe_points

DISCLAIMER = (
    "heuristic evidence only: a positive desk-scale energy floor over a "
    "parametrized family is not a proof of non-existence"
)


# ---------------------------------------------------------------------------
# Gauge parametrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeParametrization:
    """Coefficient layout for the skew-generator gauge family."""

    manifold: ProductManifold
    degree: int
    generators: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.degree < 0:
            raise ContractViolation("gauge degree must be >= 0")
        if self.generators < 0:
            raise ContractViolation("generator count must be >= 0")

    @cached_property
    def skew_basis(self) -> np.ndarray:
        """Seeded fixed skew generators, Frobenius-normalised, shape (K, A, A)."""
        amb = self.manifold.ambient_dim
        rng = np.random.default_rng([self.seed, 101])
        basis = np.empty((self.generators, amb, amb))
        for k in range(self.generators):
            g = rng.standard_normal((amb, amb))
            s = g - g.T
            basis[k] = s / np.linalg.norm(s)
        basis.flags.writeable = False
        return basis

    @cached_property
    def monomials(self) -> tuple[tuple[int, ...], ...]:
        amb = self.manifold.ambient_dim
        out: list[tuple[int, ...]] = []
        for deg in range(self.degree + 1):
            out.extend(itertools.combinations_with_replacement(range(amb), deg))
        return tuple(out)

    @property
    def feature_count(self) -> int:
        return len(self.monomials)

    @property
    def n_params(self) -> int:
        return self.generators * self.feature_count

    @cached_property
    def _quad_index(self) -> tuple[np.ndarray, np.ndarray]:
        amb = self.manifold.ambient_dim
        return np.triu_indices(amb)

    def features(self, pts: np.ndarray) -> np.ndarray:
        """Monomial features of the ambient unit coordinates, shape (n, F)."""
        n, amb = pts.shape
        if self.degree <= 2:
            blocks = [np.ones((n, 1))]
            if self.degree >= 1:
                blocks.append(pts)
            if self.degree == 2:
                ii, jj = self._quad_index
                blocks.append(pts[:, ii] * pts[:, jj])
            return np.concatenate(blocks, axis=1)
        cols = np.empty((n, self.feature_count))
        for idx, mono in enumerate(self.monomials):
            col = np.ones(n)
            for var in mono:
                col = col * pts[:, var]
            cols[:, idx] = col
        return cols

    def _tangent_projectors(self, pts: np.ndarray) -> np.ndarray:
        man = self.manifold
        n = pts.shape[0]
        pi = np.zeros((n, man.ambient_dim, man.ambient_dim))
        for f, sl in zip(man.factors, man.ambient_slices):
            u = pts[:, sl]
            pi[:, sl, sl] = np.eye(f.ambient_dim) - u[:, :, np.newaxis] * u[:, np.newaxis, :]
        return pi

    def gauge_rotations(self, theta: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Batched orthogonal Q(theta, p), identity on normals."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ContractViolation(f"theta must have {self.n_params} entries")
        n = pts.shape[0]
        amb = self.manifold.ambient_dim
        eye = np.broadcast_to(np.eye(amb), (n, amb, amb))
        if self.n_params == 0 or not np.any(theta):
            return eye.copy()
        coeff = self.features(pts) @ theta.reshape(self.feature_count, self.generators)
        a = np.einsum("nk,kab->nab", coeff, self.skew_basis)
        pi = self._tangent_projectors(pts)
        a = pi @ a @ pi
        # Q = (I - A)(I + A)^(-1); I + A is uniformly well conditioned for
        # skew A, so the batched explicit inverse is safe and fastest here.
        return (eye - a) @ np.linalg.inv(eye + a)

    def field(self, theta: np.ndarray, base: ACSField) -> ACSField:
        theta = np.array(theta, dtype=float)

        def fn(pts: np.ndarray) -> np.ndarray:
            q = self.gauge_rotations(theta, pts)
            return q @ base(pts) @ q.transpose(0, 2, 1)

        return ACSField(self.manifold, fn, f"gauge(deg={self.degree})[{base.name}]")


# ---------------------------------------------------------------------------
# Deterministic simplex descent with shrink restarts
# ---------------------------------------------------------------------------

def nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    budget: int,
    init_radius: float = 0.25,
    fatol: float = 1e-7,
    xatol: float = 1e-6,
    stale_rounds: int = 2,
    restart_gain: float = 1e-4,
) -> tuple[np.ndarray, float, int]:
    """Nelder-Mead descent under a hard evaluation budget.

    When the simplex collapses, a fresh smaller simplex is rebuilt around the
    incumbent best until the budget runs out or ``stale_rounds`` consecutive
    rebuilds improve the best value by less than a relative ``restart_gain``.
    Fully deterministic in (objective, x0, budget); a larger budget replays
    the same evaluation sequence as a prefix, so the best value found is
    monotone in the budget.  The stopping rules other than the budget never
    consult the budget, which is what makes the prefix property hold.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    used = 0
    best_x, best_f = None, np.inf

    def ev(x: np.ndarray) -> float:
        nonlocal used, best_x, best_f
        fx = float(objective(x))
        used += 1
        if fx < best_f:
            best_f, best_x = fx, x.copy()
        return fx

    if budget < 1:
        raise ContractViolation("budget must be >= 1 evaluation")
    if dim == 0:
        ev(x0)
        return best_x, best_f, used

    ev(x0)
    stale = 0
    round_idx = 0
    while used < budget and stale < stale_rounds:
        f_before = best_f
        radius = init_radius * (0.25 ** round_idx)
        round_idx += 1
        # simplex around the incumbent best
        xs = [best_x.copy()]
        fs = [best_f]
        for i in range(dim):
            if used >= budget:
                break
            v = best_x.copy()
            v[i] += radius
            xs.append(v)
            fs.append(ev(v))
        if len(xs) < dim + 1:
            break
        xs = np.array(xs)
        fs = np.array(fs)
        while used < budget:
            order = np.argsort(fs, kind="stable")
            xs, fs = xs[order], fs[order]
            spread_f = fs[-1] - fs[0]
            spread_x = np.max(np.abs(xs[1:] - xs[0])) if dim else 0.0
            if spread_f <= fatol * max(1.0, abs(fs[0])) and spread_x <= xatol * max(
                1.0, float(np.max(np.abs(xs[0])))
            ):
                break
            centroid = np.mean(xs[:-1], axis=0)
            xr = centroid + (centroid - xs[-1])
            fr = ev(xr)
            if fr < fs[0]:
                if used < budget:
                    xe = centroid + 2.0 * (centroid - xs[-1])
                    fe = ev(xe)
                    if fe < fr:
                        xs[-1], fs[-1] = xe, fe
                    else:
                        xs[-1], fs[-1] = xr, fr
                else:
                    xs[-1], fs[-1] = xr, fr
            elif fr < fs[-2]:
                xs[-1], fs[-1] = xr, fr
            else:
                if fr < fs[-1]:
                    xc = centroid + 0.5 * (xr - centroid)
                else:
                    xc = centroid - 0.5 * (centroid - xs[-1])
                if used >= budget:
                    break
                fc = ev(xc)
                if fc < min(fr, fs[-1]):
                    xs[-1], fs[-1] = xc, fc
                else:
                    # shrink toward the best vertex
                    for i in range(1, dim + 1):
                        if used >= budget:
                            break
                        xs[i] = xs[0] + 0.5 * (xs[i] - xs[0])
                        fs[i] = ev(xs[i])
        improved = best_f < f_before - max(restart_gain * abs(f_before), 1e-15)
        stale = 0 if improved else stale + 1
    return best_x, best_f, used


# ---------------------------------------------------------------------------
# Energy minimisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    """Outcome of one seeded multi-restart minimisation."""

    best_energy: float
    best_params: np.ndarray
    restart_energies: tuple[float, ...]
    evals_per_restart: tuple[int, ...]
    config: dict
    seed: int

    def best_for_restart_prefix(self, r: int) -> float:
        """Best energy over the first r restarts (restart-count grid cell)."""
        if not 1 <= r <= len(self.restart_energies):
            raise ContractViolation("restart prefix out of range")
        return min(self.restart_energies[:r])


def make_energy_objective(
    parametrization: GaugeParametrization,
    base: ACSField,
    pts: np.ndarray,
    frame_pairs: int,
    pair_seed: int,
    h: float = TOL.fd_step,
) -> Callable[[np.ndarray], float]:
    """Objective theta -> mean |N|^2 with sample points and frame pairs frozen
    once, so energies are comparable across restarts and evaluations."""
    sq_norms = frame_pair_sq_norms(parametrization.manifold, pts, frame_pairs, pair_seed, h)

    def objective(theta: np.ndarray) -> float:
        return float(np.mean(sq_norms(parametrization.field(theta, base))))

    return objective


def finite_start(
    objective: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    redraw: Callable[[], np.ndarray],
    max_resample: int = 5,
) -> np.ndarray:
    """Return an initial point with a finite objective value, redrawing at
    most ``max_resample`` times before giving up."""
    theta = theta0
    for _ in range(max_resample + 1):
        if np.isfinite(objective(theta)):
            return theta
        theta = redraw()
    raise SearchError(f"no finite objective value after {max_resample} resamples")


def minimize_energy(
    manifold: ProductManifold,
    parametrization: GaugeParametrization,
    points: np.ndarray,
    restarts: int,
    seed: int,
    budget: int,
    base_field: ACSField | None = None,
    frame_pairs: int = 1,
    h: float = TOL.fd_step,
    init_scale: float = 0.5,
    max_resample: int = 5,
) -> SearchResult:
    """Simplex descent from seeded random initial gauge parameters, one
    independent sub-seed per restart; restart 0 starts at theta = 0 so the
    base field's own energy is always the first value on record."""
    if restarts < 1:
        raise ContractViolation("need at least one restart")
    if budget < 1:
        raise ContractViolation("need a budget of at least one evaluation per restart")
    base = base_field if base_field is not None else default_acs_field(manifold)
    objective = make_energy_objective(
        parametrization, base, points, frame_pairs, pair_seed=seed, h=h
    )
    n_params = parametrization.n_params
    restart_energies: list[float] = []
    evals: list[int] = []
    best_energy = np.inf
    best_params = np.zeros(n_params)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        theta0 = np.zeros(n_params) if r == 0 else init_scale * rng.standard_normal(n_params)
        theta0 = finite_start(
            objective, theta0, lambda: init_scale * rng.standard_normal(n_params), max_resample
        )
        xb, fb, used = nelder_mead(objective, theta0, budget)
        restart_energies.append(fb)
        evals.append(used)
        if fb < best_energy:
            best_energy, best_params = fb, xb
    config = {
        "manifold": manifold.describe(),
        "degree": parametrization.degree,
        "generators": parametrization.generators,
        "n_params": n_params,
        "points": int(points.shape[0]),
        "frame_pairs": frame_pairs,
        "restarts": restarts,
        "budget": budget,
        "fd_step": h,
        "init_scale": init_scale,
        "base_field": base.name,
    }
    return SearchResult(
        best_energy=float(best_energy),
        best_params=best_params,
        restart_energies=tuple(restart_energies),
        evals_per_restart=tuple(evals),
        config=config,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Grid experiment over gauge degrees and restart counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    manifold: ProductManifold
    degrees: tuple[int, ...] = (0, 1, 2)
    restarts: int = 20
    budget: int = 2000
    points: int = 100
    frame_pairs: int = 1
    seed: int = 7
    generators: int = 4
    fd_step: float = TOL.fd_step
    init_scale: float = 0.5
    chart_margin: float = 0.05


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    results: dict[int, SearchResult] = field(default_factory=dict)
    disclaimer: str = DISCLAIMER

    @property
    def floor(self) -> float:
        """The minimum best energy across all grid cells."""
        return min(r.best_energy for r in self.results.values())

    def cell_minima(self) -> dict[int, float]:
        return {deg: r.best_energy for deg, r in self.results.items()}

    def rows(self) -> list[dict]:
        """Flat rows: one per (degree, restart), with the running best."""
        out = []
        for deg in sorted(self.results):
            res = self.results[deg]
            best = np.inf
            for idx, energy in enumerate(res.restart_energies):
                best = min(best, energy)
                out.append(
                    {
                        "degree": deg,
                        "restart": idx,
                        "energy": energy,
                        "best_so_far": best,
                        "evals": res.evals_per_restart[idx],
                    }
                )
        return out


def energy_floor_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run minimize_energy for each gauge degree on a frozen point set; the
    restart-count axis of the grid is read off the restart prefixes."""
    man = cfg.manifold
    pts = chart_safe_points(man, cfg.points, cfg.seed, cfg.chart_margin)
    base = default_acs_field(man)
    report = ExperimentReport(cfg)
    for deg in cfg.degrees:
        parametrization = GaugeParametrization(man, deg, cfg.generators, cfg.seed)
        report.results[deg] = minimize_energy(
            man,
            parametrization,
            pts,
            restarts=cfg.restarts,
            seed=cfg.seed,
            budget=cfg.budget,
            base_field=base,
            frame_pairs=cfg.frame_pairs,
            h=cfg.fd_step,
            init_scale=cfg.init_scale,
        )
    return report


# ---------------------------------------------------------------------------
# Pointwise splitting-pressure probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingPressureReport:
    """Joint distribution of the splitting defect against 1 - c^2 over seeded
    random pointwise structures; summaries restricted to the mixed subsample
    1 - c^2 > threshold, where the defect is forced away from zero."""

    manifold: str
    alpha: float
    samples: int
    threshold: float
    defects: np.ndarray
    closed_forms: np.ndarray
    mixes: np.ndarray
    second_factor_terms: np.ndarray
    subsample_count: int
    max_abs_defect_mixed: float
    min_abs_defect_mixed: float
    min_core_defect_mixed: float


def _first_factor_pair(manifold: ProductManifold) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal pair e_0, e_1 spanning the first factor's tangent plane."""
    x = np.zeros(manifold.total_dim)
    y = np.zeros(manifold.total_dim)
    x[0], y[1] = 1.0, 1.0
    return x, y


def splitting_pressure_probe(
    manifold: ProductManifold,
    samples: int,
    seed: int,
    threshold: float = 0.1,
) -> SplittingPressureReport:
    """Sample seeded random valid pointwise structures and record the defect
    against the mixing amount 1 - c^2.

    The core defect (defect minus the complementary-factor term) equals
    alpha (1 - c^2)^2 exactly, so over the subsample with 1 - c^2 > threshold
    it is bounded below by alpha * threshold^2; with generic sampling the
    subsample also contains near-fully-mixing structures, pushing the max
    |defect| above alpha * 0.81.
    """
    if manifold.factors[0].dim != 2:
        raise ContractViolation("the probe needs a 2-sphere first factor")
    oracle = CurvatureOracle(manifold)
    x, y = _first_factor_pair(manifold)
    defects = np.empty(samples)
    closed = np.empty(samples)
    mixes = np.empty(samples)
    rests = np.empty(samples)
    for block in sample_blocks(samples):
        seeds = [[seed, s] for s in range(block.start, block.stop)]
        J = random_orthogonal_matrices(manifold, seeds)
        d = splitting_defect(oracle, J, x, y)
        defects[block] = d.direct
        closed[block] = d.closed_form
        mixes[block] = 1.0 - d.c * d.c
        rests[block] = d.second_factor_term
    mixed = mixes > threshold
    sub_d = defects[mixed]
    sub_core = rests[mixed] - defects[mixed]
    return SplittingPressureReport(
        manifold=manifold.describe(),
        alpha=manifold.factors[0].curvature,
        samples=samples,
        threshold=threshold,
        defects=defects,
        closed_forms=closed,
        mixes=mixes,
        second_factor_terms=rests,
        subsample_count=int(np.sum(mixed)),
        max_abs_defect_mixed=float(np.max(np.abs(sub_d))) if sub_d.size else 0.0,
        min_abs_defect_mixed=float(np.min(np.abs(sub_d))) if sub_d.size else 0.0,
        min_core_defect_mixed=float(np.min(sub_core)) if sub_core.size else 0.0,
    )


def splitting_audit(manifold: ProductManifold, samples: int, seed: int) -> AuditReport:
    """Audit the splitting defect on the first factor's tangent plane.

    One splitting_pressure_probe pass over seeded random structures gives the
    term-by-term defect against its closed form, its sign and the mixed-
    subsample floor; seeded block-diagonal structures (c^2 = 1) must have
    zero defect.  The probe's mixed-subsample size and max |defect| are
    recorded as values.
    """
    probe = splitting_pressure_probe(manifold, samples, seed)
    oracle = CurvatureOracle(manifold)
    x, y = _first_factor_pair(manifold)
    split = np.empty(samples)
    for block in sample_blocks(samples):
        seeds = [[seed, s] for s in range(block.start, block.stop)]
        J = random_block_diagonal_matrices(manifold, seeds)
        split[block] = np.abs(splitting_defect(oracle, J, x, y).direct)
    report = AuditReport(f"splitting defect on {manifold.describe()} ({samples} samples, seed {seed})")
    report.add(
        "oracle-equivalence", np.max(np.abs(probe.defects - probe.closed_forms), initial=0.0),
        0.0, 1e-10, "eight-term defect == -alpha (1 - c^2)^2 + complement term",
    )
    report.add(
        "nonpositivity", np.max(probe.defects, initial=0.0), 0.0, 1e-12, "defect <= 0 always"
    )
    report.add(
        "split-zero", np.max(split, initial=0.0), 0.0, 1e-10,
        "block-diagonal structures (c^2 = 1) have zero defect",
    )
    if probe.subsample_count:
        report.add(
            "mixed-floor",
            min(probe.min_core_defect_mixed - probe.alpha * probe.threshold**2, 0.0),
            0.0,
            1e-12,
            "defect minus complement term stays below -alpha t^2 when 1 - c^2 > t",
        )
    report.record(
        "mixed-subsample-count", probe.subsample_count,
        f"samples with 1 - c^2 > {probe.threshold}",
    )
    report.record(
        "mixed-max-abs-defect", probe.max_abs_defect_mixed,
        "max |defect| over the mixed subsample",
    )
    return report
