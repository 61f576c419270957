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
sample points used, and is reported as data.  On S^2 x S^4 the base is the
twisted chart structure, one gauge rotation from a structure integrable on
the whole sampled chart (``fields.s4_integrable_chart_blocks``), so there the
energy's infimum over all gauge rotations is 0: the floor measures how far
the family's few seeded generators are from expressing that rotation.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .acs import (
    block_diagonal_streams,
    orthogonal_stream,
    random_block_diagonal_matrices,
    random_orthogonal_matrices,
)
from .config import TOL
from .errors import ContractViolation, DegenerateInput, SearchError
from .fields import (
    ACSField,
    PairStacks,
    Scratch,
    default_acs_field,
    frozen_field,
    frozen_rows,
    nijenhuis_batch,
    outer_rows,
    sample_tangent_pairs,
    tangent_projectors,
)
from .identities import SplittingDefect, splitting_defect
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
    def skew_columns(self) -> np.ndarray:
        """The generators side by side, shape (A, K * A): applied to the
        stacked products c_k v it gives sum_k c_k S_k v."""
        amb = self.manifold.ambient_dim
        columns = np.ascontiguousarray(np.moveaxis(self.skew_basis, 0, 1)).reshape(amb, -1)
        columns.flags.writeable = False
        return columns

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
    def _degree_index(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """For each degree d >= 2, the monomials of degree d in ``monomials``
        order as index arrays: the column of each one's first d - 1 factors
        within the degree d - 1 block, and its last factor's coordinate."""
        amb = self.manifold.ambient_dim
        out = []
        column = {(var,): var for var in range(amb)}
        for deg in range(2, self.degree + 1):
            monos = list(itertools.combinations_with_replacement(range(amb), deg))
            out.append((
                np.array([column[mono[:-1]] for mono in monos]),
                np.array([mono[-1] for mono in monos]),
            ))
            column = {mono: k for k, mono in enumerate(monos)}
        return tuple(out)

    def features(self, pts: np.ndarray) -> np.ndarray:
        """Monomial features of the ambient unit coordinates, shape (n, F),
        C-contiguous; each degree block is the previous block's columns times
        one coordinate."""
        blocks = [np.ones((pts.shape[0], 1)), pts][: self.degree + 1]
        for prefix, last in self._degree_index:
            blocks.append(blocks[-1][:, prefix] * pts[:, last])
        return np.concatenate(blocks, axis=1)

    @cached_property
    def _lowering(self) -> tuple[np.ndarray, np.ndarray]:
        """For each monomial m of degree below ``degree`` (the leading
        features, in ``monomials`` order) and each ambient axis a: the
        column of the monomial m x_a and the exponent e of x_a in it, both
        of shape (F_low, ambient_dim).  The derivative of m x_a along axis a
        is e m, and every monomial with a factor x_a is m x_a for exactly
        one m, so this table is the whole derivative of the features, with
        F_low * ambient_dim entries where a dense map would need F times
        that."""
        amb = self.manifold.ambient_dim
        column = {mono: k for k, mono in enumerate(self.monomials)}
        lower = [mono for mono in self.monomials if len(mono) < self.degree]
        index = [[column[tuple(sorted(mono + (a,)))] for a in range(amb)] for mono in lower]
        exponent = [[mono.count(a) + 1.0 for a in range(amb)] for mono in lower]
        return np.array(index, dtype=int).reshape(-1, amb), np.array(exponent).reshape(-1, amb)

    def _coefficient_gradient(self, theta: np.ndarray, features: np.ndarray) -> np.ndarray:
        """The coefficients' gradient at the rows of features, shape (n,
        generators, ambient_dim): entry (i, k, a) is d c_k / d x_a for
        c = features @ theta.  A polynomial of degree D has a derivative of
        degree D - 1, so this is the lower features times D theta, a
        theta-only (F_low, generators * ambient_dim) array read off
        ``_lowering``."""
        index, exponent = self._lowering
        low, amb = index.shape
        theta_m = theta.reshape(self.feature_count, self.generators)
        # entry (m, k * amb + a) of D theta is e theta[m x_a, k]
        lowered = np.swapaxes(theta_m[index] * exponent[:, :, np.newaxis], 1, 2)
        gradient = features[:, :low] @ lowered.reshape(low, self.generators * amb)
        return gradient.reshape(features.shape[0], self.generators, amb)

    def frozen(self, rows: np.ndarray) -> "GaugeParametrization":
        """This family with its theta-independent pieces at the row batch
        rows (features, tangent projectors, block masks) computed once on
        ``fields.frozen_rows(rows)``, read-only, and a ``fields.Scratch``
        that ``_scratch`` returns for every jet.  Valid only on exactly
        these rows: the same array passes at once, any other batch must
        equal it or raises ``ContractViolation``."""
        pieces = _GaugePieces(self, frozen_rows(rows))
        for a in vars(pieces).values():
            a.flags.writeable = False
        return _FrozenGauge(self.manifold, self.degree, self.generators, self.seed, pieces, Scratch())

    def _pieces(self, pts: np.ndarray) -> "_GaugePieces":
        return _GaugePieces(self, pts)

    def _scratch(self) -> Scratch:
        return Scratch()

    def gauge_rotations(self, theta: np.ndarray, pts: np.ndarray, _cayley: list | None = None) -> np.ndarray:
        """Batched orthogonal Q(theta, p), identity on normals.  ``_cayley``,
        a list, receives the pieces, C and (I + A)^(-1) for ``rotation_jet``."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ContractViolation(f"theta must have {self.n_params} entries")
        pieces = self._pieces(pts)
        pi, eye = pieces.projectors, pieces.identity
        c = self._skew_field(theta, pieces.features)
        a = pi @ c @ pi
        # Q = (I - A)(I + A)^(-1); I + A is well conditioned for skew A of
        # moderate size, so the batched explicit inverse is safe and fastest
        # here.  Its error grows like |A| eps: a Q that is not orthogonal to
        # the validator's tolerance (or a singular I + A, which only happens
        # in floating point) means theta is too large to give a structure.
        try:
            h = np.linalg.inv(eye + a)
        except np.linalg.LinAlgError as exc:
            raise DegenerateInput("Cayley inverse failed: gauge parameters too large") from exc
        q = (eye - a) @ h
        gram = q.transpose(0, 2, 1) @ q
        gram -= eye
        defect = np.abs(gram, out=gram).max(initial=0.0)
        if not defect <= TOL.acs_validity:
            raise DegenerateInput(
                f"Cayley transform not orthogonal (defect {defect:.3g}): gauge parameters too large"
            )
        if _cayley is not None:
            _cayley.extend((pieces, c, h))
        return q

    def _skew_field(self, theta: np.ndarray, features: np.ndarray) -> np.ndarray:
        """C = sum_k c_k S_k with c = features @ theta, batched."""
        coeff = features @ theta.reshape(self.feature_count, self.generators)
        amb = self.manifold.ambient_dim
        return (coeff @ self.skew_basis.reshape(self.generators, amb * amb)).reshape(-1, amb, amb)

    def rotation_jet(self, theta: np.ndarray, pts: np.ndarray, scratch: Scratch | None = None):
        """Q from one gauge_rotations call on the rows pts, and the map
        (du, z) -> dQ[du] z for a column stack du of tangent velocities,
        shape (n, ambient_dim, k), applied to z of shape
        (n, ambient_dim, r * k): r column stacks side by side, each paired
        column by column with du, so one batched product per operator
        reaches all of them.  The map's largest temporaries live in scratch,
        by default the one ``_scratch`` gives (a fresh one unless frozen).

        Closed form, without forming a derivative matrix, from the C and
        H = (I + A)^(-1) of the gauge_rotations call: dQ = -2 H dA H; with
        A = Pi C Pi, Pi = I - U, U = u u^T per factor block and C skew,

            dA y = Pi dC Pi y - dU C Pi y - Pi C dU y,
            dU y = du <u, y>_a + u <du, y>_a     (per factor block a),

        and dC = sum_k dc_k S_k with dc the derivative of the coefficients
        features @ theta along du, from the lower features and a theta-only
        array (``_coefficient_gradient``); dC Pi y is ``skew_columns`` @
        ``fields.outer_rows(dc, Pi y)``.  At degree 0 the only feature is
        the constant 1, so dC = 0 and its term is skipped.  At theta = 0 no
        path is special: C = 0 and H = I, so Q = I and dQ = 0 exactly."""
        cayley: list = []
        q = self.gauge_rotations(theta, pts, _cayley=cayley)
        pieces, c, h = cayley
        # the derivative holds only these, not the pieces
        pi, block_rows, block_cols = pieces.projectors, pieces.block_rows, pieces.block_cols
        if scratch is None:
            scratch = self._scratch()
        grad_t = None
        if self.degree > 0:
            # dc along du is grad_t @ du
            grad_t = self._coefficient_gradient(np.asarray(theta, dtype=float), pieces.features)

        def derivative(du: np.ndarray, z: np.ndarray) -> np.ndarray:
            k, m = du.shape[-1], z.shape[-1]
            both_shape = z.shape[:-1] + (2 * m,)
            # y and C Pi y side by side, for dU to take both in one pass
            both = scratch("both", *both_shape)
            y = np.matmul(h, z, out=both[..., :m])
            pi_y = pi @ y
            np.matmul(c, pi_y, out=both[..., m:])
            # dU of both: du_both * (block_rows @ both) + block_cols @ (du_both * both),
            # with du repeated to the columns of both, all in scratch
            du_both = np.take(du, np.arange(2 * m) % k, axis=2, out=scratch("du", *both_shape), mode="clip")
            d_u = np.matmul(block_rows, both, out=scratch("d_u", *both_shape))
            d_u *= du_both
            du_both *= both
            d_u += np.matmul(block_cols, du_both, out=scratch("d_u_cols", *both_shape))
            # s = C dU y - dC Pi y, so that Pi s + dU C Pi y = -dA y
            s = c @ d_u[..., :m]
            if grad_t is not None:
                # row k * amb + a of the outer stack is dc_k (Pi y)_a, which
                # meets the generators side by side: skew_columns @ it = dC Pi y
                dc = np.tile(grad_t @ du, m // k)
                s -= self.skew_columns @ outer_rows(dc, pi_y, scratch)
            return 2.0 * (h @ (pi @ s + d_u[..., m:]))

        return q, derivative

    def field(self, theta: np.ndarray, base: ACSField) -> ACSField:
        """J_theta = Q J0 Q^T.  Its jet differentiates the product with the
        closed-form dQ of ``rotation_jet`` and the base field's own jet;
        with dQ^T = -Q^T dQ Q^T (Q orthogonal) and v = Q^T w,
        (D J) w = dQ B v - J dQ v + Q (D B) v.  The field takes one
        ``Scratch`` from ``_scratch`` and every jet's derivative works in
        it, so the row blocks of a one-shot evaluation reuse one set of
        buffers; two fields share none."""
        theta = np.array(theta, dtype=float)
        scratch = self._scratch()

        def fn(pts: np.ndarray) -> np.ndarray:
            q = self.gauge_rotations(theta, pts)
            return q @ base(pts) @ q.transpose(0, 2, 1)

        def jet(pts: np.ndarray):
            q, dq = self.rotation_jet(theta, pts, scratch)
            b, db = base.jet(pts)
            qt = np.ascontiguousarray(q.transpose(0, 2, 1))
            j = q @ b @ qt

            def derivative(du: np.ndarray, w: np.ndarray) -> np.ndarray:
                k = w.shape[-1]
                z = scratch("z", *w.shape[:-1], 2 * k)
                v = np.matmul(qt, w, out=z[..., k:])
                np.matmul(b, v, out=z[..., :k])
                dq_z = dq(du, z)
                return dq_z[..., :k] - j @ dq_z[..., k:] + q @ db(du, v)

            return j, derivative

        return ACSField(self.manifold, fn, f"gauge(deg={self.degree})[{base.name}]", jet)


class _GaugePieces:
    """The theta-independent pieces of a gauge family at a row batch: the
    monomial features (whose leading columns ``rotation_jet`` also reads,
    for the coefficients' gradient), the tangent projectors (with a stack of
    identities of their shape, so I +- A are plain sums) and the block rows
    mask * u^T of the unit points u and their transposes, which only
    ``rotation_jet`` reads but every call builds."""

    def __init__(self, par: GaugeParametrization, rows: np.ndarray):
        man = par.manifold
        self.rows = rows
        self.features = par.features(rows)
        self.projectors = tangent_projectors(man, rows)
        self.identity = np.broadcast_to(np.eye(man.ambient_dim), self.projectors.shape).copy()
        # U y = u * (block_rows @ y) = block_cols @ (u * y) for U = u u^T
        # per factor block, so dU y = du * (block_rows @ y) + block_cols @ (du * y)
        self.block_rows = man.ambient_block_mask * rows[:, np.newaxis, :]
        self.block_cols = np.ascontiguousarray(np.swapaxes(self.block_rows, 1, 2))


@dataclass(frozen=True)
class _FrozenGauge(GaugeParametrization):
    """A gauge family bound to the frozen pieces of one row batch and to
    the scratch of its derivative."""

    pieces: _GaugePieces | None = field(default=None, repr=False, compare=False)
    scratch: Scratch | None = field(default=None, repr=False, compare=False)

    def _pieces(self, pts: np.ndarray) -> _GaugePieces:
        if pts is not self.pieces.rows and not np.array_equal(pts, self.pieces.rows):
            raise ContractViolation("frozen gauge pieces evaluated off their row batch")
        return self.pieces

    def _scratch(self) -> Scratch:
        return self.scratch


# ---------------------------------------------------------------------------
# Deterministic simplex descent with shrink restarts
# ---------------------------------------------------------------------------

FATOL = 1e-7  # simplex collapse: relative spread of the vertex values
XATOL = 1e-6  # simplex collapse: relative spread of the vertices
RESTART_GAIN = 1e-4  # a simplex that improves less than this, relatively, is stale
MAX_RESAMPLE = 5  # redraws of a start point whose objective value is not finite


class _BudgetSpent(Exception):
    """Raised by nelder_mead's evaluator when asked for one evaluation too many."""


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    budget: int,
    f0: float | None = None,
) -> tuple[np.ndarray, float, int]:
    """Nelder-Mead descent under a hard evaluation budget.

    Each simplex around the incumbent best steps along the axes in turn,
    each step from the best point so far (a staircase, not an axis-aligned
    simplex); the first has edge 0.25, and each rebuild after a collapse a
    quarter of the edge before.  The run stops when the budget runs out or
    two simplices in a row are stale.  Fully deterministic in (objective, x0,
    budget); only the evaluator consults the budget, so a larger budget
    replays the same evaluation sequence as a prefix and the best value
    found is monotone in the budget.

    ``f0``, if given, is the objective value at x0 that the caller already
    computed; it stands in for the first evaluation, which still counts
    against the budget.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    used = 0
    best_x, best_f = None, np.inf

    def ev(x: np.ndarray, fx: float | None = None) -> float:
        nonlocal used, best_x, best_f
        if used == budget:
            raise _BudgetSpent
        fx = float(objective(x) if fx is None else fx)
        used += 1
        if fx < best_f:
            best_f, best_x = fx, x.copy()
        return fx

    if budget < 1:
        raise ContractViolation("budget must be >= 1 evaluation")
    ev(x0, f0)
    stale = 0
    radius = 1.0
    try:
        while dim and stale < 2:
            f_before = best_f
            radius *= 0.25
            # simplex around the incumbent best, built one axis step at a time
            xs = [best_x.copy()]
            fs = [best_f]
            for i in range(dim):
                v = best_x.copy()
                v[i] += radius
                xs.append(v)
                fs.append(ev(v))
            xs = np.array(xs)
            fs = np.array(fs)
            while True:
                order = np.argsort(fs, kind="stable")
                xs, fs = xs[order], fs[order]
                spread_f = fs[-1] - fs[0]
                spread_x = np.max(np.abs(xs[1:] - xs[0]))
                if spread_f <= FATOL * max(1.0, abs(fs[0])) and spread_x <= XATOL * max(
                    1.0, float(np.max(np.abs(xs[0])))
                ):
                    break
                centroid = np.mean(xs[:-1], axis=0)
                xr = centroid + (centroid - xs[-1])
                fr = ev(xr)
                if fr < fs[0]:
                    xe = centroid + 2.0 * (centroid - xs[-1])
                    fe = ev(xe)
                    xs[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
                elif fr < fs[-2]:
                    xs[-1], fs[-1] = xr, fr
                else:
                    # outside contraction if the reflection helped, else inside
                    xc = centroid + 0.5 * ((xr if fr < fs[-1] else xs[-1]) - centroid)
                    fc = ev(xc)
                    if fc < min(fr, fs[-1]):
                        xs[-1], fs[-1] = xc, fc
                    else:
                        # shrink toward the best vertex
                        for i in range(1, dim + 1):
                            xs[i] = xs[0] + 0.5 * (xs[i] - xs[0])
                            fs[i] = ev(xs[i])
            improved = best_f < f_before - max(RESTART_GAIN * abs(f_before), 1e-15)
            stale = 0 if improved else stale + 1
    except _BudgetSpent:
        pass
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


def make_energy_objective(
    parametrization: GaugeParametrization,
    base: ACSField,
    pts: np.ndarray,
    frame_pairs: int,
    pair_seed: int,
) -> Callable[[np.ndarray], float]:
    """Objective theta -> mean |N|^2 with sample points and frame pairs frozen
    once, so energies are comparable across restarts and evaluations.  What
    does not depend on theta is frozen with them on one read-only row array
    (``fields.frozen_rows``): the base field (``fields.frozen_field``), the
    gauge family's pieces (``GaugeParametrization.frozen``) and the pairs'
    stacks (``fields.PairStacks``).  So an evaluation is one
    ``gauge_rotations`` and one ``nijenhuis_batch`` call of theta-dependent
    arithmetic, its largest temporaries in scratch buffers that the frozen
    pieces own.  The base field's frozen derivatives come from its own jet,
    so for ``fields.default_acs_field`` they are the closed forms that the
    ``nijenhuis`` commands take too, and the gauge family's are closed forms.
    A failed Cayley transform or a non-finite energy (theta far too large)
    gives inf, which the simplex rejects.  A non-finite point makes the pair
    draw raise ``DegenerateInput``."""
    man = parametrization.manifold
    rows, xs, ys = sample_tangent_pairs(man, pts, frame_pairs, pair_seed)
    rows = frozen_rows(rows)
    stacks = PairStacks(man, xs, ys, rows)
    base = frozen_field(base, rows)
    gauge = parametrization.frozen(rows)

    def objective(theta: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                values = nijenhuis_batch(gauge.field(theta, base), xs, ys, rows, stacks)
                energy = float(np.mean(np.sum(values * values, axis=1)))
            except DegenerateInput:
                return np.inf
        return energy if np.isfinite(energy) else np.inf

    return objective


def finite_start(
    objective: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    redraw: Callable[[], np.ndarray],
) -> tuple[np.ndarray, float]:
    """Return an initial point with a finite objective value, and that
    value, redrawing at most ``MAX_RESAMPLE`` times before giving up."""
    theta = theta0
    for _ in range(MAX_RESAMPLE + 1):
        value = objective(theta)
        if np.isfinite(value):
            return theta, value
        theta = redraw()
    raise SearchError(f"no finite objective value after {MAX_RESAMPLE} resamples")


def minimize_energy(
    parametrization: GaugeParametrization,
    points: np.ndarray,
    restarts: int,
    seed: int,
    budget: int,
    frame_pairs: int = 1,
    init_scale: float = 0.5,
) -> SearchResult:
    """Simplex descent over the gauge family of the manifold's default
    structure field, from seeded random initial gauge parameters, one
    independent sub-seed per restart; restart 0 starts at theta = 0 so the
    base field's own energy is always the first value on record."""
    if restarts < 1:
        raise ContractViolation("need at least one restart")
    if budget < 1:
        raise ContractViolation("need a budget of at least one evaluation per restart")
    base = default_acs_field(parametrization.manifold)
    objective = make_energy_objective(parametrization, base, points, frame_pairs, pair_seed=seed)
    n_params = parametrization.n_params
    restart_energies: list[float] = []
    evals: list[int] = []
    best_energy = np.inf
    best_params = np.zeros(n_params)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        theta0 = np.zeros(n_params) if r == 0 else init_scale * rng.standard_normal(n_params)
        theta0, f0 = finite_start(
            objective, theta0, lambda: init_scale * rng.standard_normal(n_params)
        )
        xb, fb, used = nelder_mead(objective, theta0, budget, f0=f0)
        restart_energies.append(fb)
        evals.append(used)
        if fb < best_energy:
            best_energy, best_params = fb, xb
    return SearchResult(
        best_energy=float(best_energy),
        best_params=best_params,
        restart_energies=tuple(restart_energies),
        evals_per_restart=tuple(evals),
    )


# ---------------------------------------------------------------------------
# Grid experiment over gauge degrees and restart counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    manifold: ProductManifold
    degrees: tuple[int, ...]
    restarts: int
    budget: int
    points: int
    frame_pairs: int
    seed: int
    generators: int
    init_scale: float
    chart_margin: float


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    results: dict[int, SearchResult] = field(default_factory=dict)

    @property
    def floor(self) -> float:
        """The minimum best energy across all grid cells."""
        return min(r.best_energy for r in self.results.values())

    def cell_minima(self) -> dict[int, float]:
        return {deg: r.best_energy for deg, r in self.results.items()}

    def baseline_record(self) -> dict:
        """The floor baseline as a JSON-ready dict: the grid configuration
        (every ``ExperimentConfig`` field, the manifold as its description
        and its factors), each degree cell's minimum, every restart's energy
        and evaluation count (keyed by the degree as a string), the floor and
        the disclaimer."""
        cfg = self.config
        degrees = sorted(self.results)
        config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        config["manifold"] = cfg.manifold.describe()
        config["factors"] = [[f.dim, f.curvature] for f in cfg.manifold.factors]
        return {
            "config": config,
            "cell_minima": {str(d): self.results[d].best_energy for d in degrees},
            "restart_energies": {str(d): list(self.results[d].restart_energies) for d in degrees},
            "evals_per_restart": {str(d): list(self.results[d].evals_per_restart) for d in degrees},
            "floor": self.floor,
            "disclaimer": DISCLAIMER,
        }

    def report(self) -> AuditReport:
        """The grid as value rows: each restart's energy and the best energy
        over the restart prefix, per degree, then each degree cell's minimum
        and the floor under the disclaimer."""
        report = AuditReport()
        for deg in sorted(self.results):
            best = np.inf
            for idx, energy in enumerate(self.results[deg].restart_energies):
                best = min(best, energy)
                key = f"degree[{deg}].restart[{idx}]"
                report.record(f"{key}.energy", energy, "restart best energy")
                report.record(f"{key}.best-so-far", best, "minimum energy over the restart prefix")
        for deg, cell in sorted(self.cell_minima().items()):
            report.record(f"degree[{deg}].cell-minimum", cell, "best energy of the degree cell")
        report.record("floor", self.floor, DISCLAIMER)
        return report


def energy_floor_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run minimize_energy for each gauge degree on a frozen point set; the
    restart-count axis of the grid is read off the restart prefixes."""
    man = cfg.manifold
    pts = chart_safe_points(man, cfg.points, cfg.seed, cfg.chart_margin)
    report = ExperimentReport(cfg)
    for deg in cfg.degrees:
        parametrization = GaugeParametrization(man, deg, cfg.generators, cfg.seed)
        report.results[deg] = minimize_energy(
            parametrization,
            pts,
            restarts=cfg.restarts,
            seed=cfg.seed,
            budget=cfg.budget,
            frame_pairs=cfg.frame_pairs,
            init_scale=cfg.init_scale,
        )
    return report


# ---------------------------------------------------------------------------
# Pointwise splitting-pressure probe
# ---------------------------------------------------------------------------

def splitting_pressure_probe(
    manifold: ProductManifold, samples: int, seed: int
) -> SplittingDefect:
    """The splitting defect of random valid pointwise structures, drawn block
    after block from ``orthogonal_stream(seed)``, on the first factor's
    tangent plane, stacked: every field is an array over the samples, which
    ``splitting_audit`` reads against the mixing amount 1 - c^2."""
    if manifold.factors[0].dim != 2:
        raise ContractViolation("the probe needs a 2-sphere first factor")
    oracle = CurvatureOracle(manifold)
    x, y = np.eye(manifold.total_dim)[:2]  # e_0, e_1 span the first factor
    stream = orthogonal_stream(seed)
    values = np.empty((len(fields(SplittingDefect)), samples))
    for block in sample_blocks(samples):
        J = random_orthogonal_matrices(manifold, block.stop - block.start, stream)
        values[:, block] = astuple(splitting_defect(oracle, J, x, y))
    return SplittingDefect(*values)


def splitting_audit(manifold: ProductManifold, samples: int, seed: int) -> AuditReport:
    """Audit the splitting defect on the first factor's tangent plane.

    One splitting_pressure_probe pass over seeded random structures gives the
    term-by-term defect against its closed form and its sign.  The core
    defect (defect minus the complementary-factor term) equals
    alpha (1 - c^2)^2, so over the mixed subsample 1 - c^2 > t, t = 0.1, it
    stays above alpha t^2; the subsample's size and max |defect| are
    recorded as values.  Block-diagonal structures (c^2 = 1), drawn from
    ``block_diagonal_streams``, must have zero defect.  Every tolerance
    scales with the largest factor curvature, as the curvature sums' round-off does.
    """
    probe = splitting_pressure_probe(manifold, samples, seed)
    oracle = CurvatureOracle(manifold)
    x, y = np.eye(manifold.total_dim)[:2]
    streams = block_diagonal_streams(manifold, seed)
    split = np.empty(samples)
    for block in sample_blocks(samples):
        J = random_block_diagonal_matrices(manifold, block.stop - block.start, streams)
        split[block] = np.abs(splitting_defect(oracle, J, x, y).direct)
    threshold = 0.1
    mixed = 1.0 - probe.c * probe.c > threshold
    count = np.count_nonzero(mixed)
    kappa = np.max(manifold.curvatures)
    report = AuditReport()
    report.add(
        "oracle-equivalence", np.max(np.abs(probe.direct - probe.closed_form), initial=0.0),
        0.0, 1e-10 * kappa, "eight-term defect == -alpha (1 - c^2)^2 + complement term",
    )
    report.add(
        "nonpositivity", np.max(probe.direct, initial=0.0), 0.0, 1e-12 * kappa,
        "defect <= 0 always",
    )
    report.add(
        "split-zero", np.max(split, initial=0.0), 0.0, 1e-10 * kappa,
        "block-diagonal structures (c^2 = 1) have zero defect",
    )
    if count:
        core = probe.second_factor_term[mixed] - probe.direct[mixed]
        alpha = manifold.factors[0].curvature
        report.add(
            "mixed-floor",
            min(np.min(core) - alpha * threshold**2, 0.0),
            0.0,
            1e-12 * kappa,
            "defect minus complement term stays below -alpha t^2 when 1 - c^2 > t",
        )
    report.record("mixed-subsample-count", count, f"samples with 1 - c^2 > {threshold}")
    report.record(
        "mixed-max-abs-defect", np.max(np.abs(probe.direct[mixed]), initial=0.0),
        "max |defect| over the mixed subsample",
    )
    return report
