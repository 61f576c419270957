"""Smooth fields on embedded products of spheres: Lie brackets and the
Nijenhuis tensor by central differences.

A point of S^d1(k1) x ... x S^dt(kt) is stored as the concatenation of one
*unit* direction u_a in R^(d_a + 1) per factor; the geometric point is
x_a = r_a u_a with r_a = 1 / sqrt(k_a).  Every field evaluator is batched: it
maps an (n, ambient_dim) array of unit points to values row by row.

Fields extend off the sphere product radially, X(q) = X(q / |q| per factor),
which is the canonical degree-zero extension.  Brackets of extended tangent
fields restricted to the product give the intrinsic bracket, so

    [X, Y](p) = (DY) X - (DX) Y

evaluated by central differences (step h, error O(h^2)) on the extensions in
geometric ambient coordinates, followed by tangent projection to remove the
O(h^2) normal noise.  The Nijenhuis tensor of an almost complex structure
field J is the four-bracket combination

    N(X, Y) = [JX, JY] - [X, Y] - J [JX, Y] - J [X, JY],

zero exactly when J is integrable.

Batch row contract: inside one bracket or Nijenhuis evaluation, every field
evaluator is called on arrays whose row i is a point infinitesimally close to
row i of the input batch.  Point-independent fields ignore this; per-row
fields (used by the energy's frozen frame pairs) rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .acs import OrthogonalACS, validate_acs
from .config import TOL
from .errors import ContractViolation, DegenerateInput, InvalidManifold, StepSizeError
from .manifold import ProductManifold
from .octonion import cross7_matrices
from .report import AuditReport

Array = np.ndarray


# ---------------------------------------------------------------------------
# Embedded points and per-factor geometry helpers
# ---------------------------------------------------------------------------

def normalize_blocks(man: ProductManifold, q: Array) -> Array:
    """Normalise each factor block of ambient rows to unit length."""
    out = np.array(q, dtype=float)
    for sl in man.ambient_slices:
        norms = np.linalg.norm(out[:, sl], axis=1, keepdims=True)
        if np.any(norms < 1e-12):
            raise DegenerateInput("cannot radially project a near-zero factor block")
        out[:, sl] /= norms
    return out


def tangent_project(man: ProductManifold, pts: Array, vecs: Array) -> Array:
    """Remove the per-factor normal component <v_a, u_a> u_a."""
    out = np.array(vecs, dtype=float)
    for sl in man.ambient_slices:
        u = pts[:, sl]
        out[:, sl] -= np.sum(out[:, sl] * u, axis=1, keepdims=True) * u
    return out


def to_geometric(man: ProductManifold, pts: Array) -> Array:
    """Scale unit directions to geometric coordinates x_a = r_a u_a."""
    out = np.array(pts, dtype=float)
    for f, sl in zip(man.factors, man.ambient_slices):
        out[:, sl] *= f.radius
    return out


def tangent_bases(man: ProductManifold, pts: Array) -> Array:
    """Orthonormal tangent bases, shape (n, ambient_dim, total_dim).

    Per factor the basis is the trailing columns of the Householder
    reflection exchanging u with (a sign times) the first coordinate axis;
    columns are grouped factor by factor so the frame matches the abstract
    block layout of the product tangent space.
    """
    n = pts.shape[0]
    bases = np.zeros((n, man.ambient_dim, man.total_dim))
    for f, asl, bsl in zip(man.factors, man.ambient_slices, man.block_slices):
        u = pts[:, asl]
        s = np.where(u[:, 0] >= 0.0, 1.0, -1.0)
        v = u.copy()
        v[:, 0] += s
        vv = np.sum(v * v, axis=1)
        eye_tail = np.zeros((f.ambient_dim, f.dim))
        eye_tail[1:, :] = np.eye(f.dim)
        bases[:, asl, bsl] = eye_tail[np.newaxis] - 2.0 * v[:, :, np.newaxis] * (
            v[:, np.newaxis, 1:] / vv[:, np.newaxis, np.newaxis]
        )
    return bases


@dataclass(frozen=True)
class EmbeddedPoint:
    """A point of the embedded product: one unit direction per factor."""

    manifold: ProductManifold
    direction: Array

    def __post_init__(self):
        d = np.array(self.direction, dtype=float)
        if d.shape != (self.manifold.ambient_dim,):
            raise ContractViolation(
                f"embedded point needs {self.manifold.ambient_dim} ambient coordinates"
            )
        for sl in self.manifold.ambient_slices:
            if abs(np.linalg.norm(d[sl]) - 1.0) > 1e-9:
                raise ContractViolation("each factor block must be a unit vector")
        d = normalize_blocks(self.manifold, d[np.newaxis])[0]
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)

    def factor_direction(self, a: int) -> Array:
        return self.direction[self.manifold.ambient_slices[a]]

    @property
    def batch(self) -> Array:
        return self.direction[np.newaxis]


# ---------------------------------------------------------------------------
# Field wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentField:
    """A smooth tangent vector field given by a batched evaluator."""

    manifold: ProductManifold
    fn: Callable[[Array], Array]
    name: str = ""

    def __call__(self, pts: Array) -> Array:
        return self.fn(pts)

    def at(self, point: EmbeddedPoint) -> Array:
        return self.fn(point.batch)[0]

    def __add__(self, other: "TangentField") -> "TangentField":
        return TangentField(
            self.manifold,
            lambda pts: self.fn(pts) + other.fn(pts),
            f"({self.name}+{other.name})",
        )

    def __rmul__(self, scalar: float) -> "TangentField":
        return TangentField(self.manifold, lambda pts: scalar * self.fn(pts), self.name)

    def scaled_by(self, scalar_field: Callable[[Array], Array]) -> "TangentField":
        """Pointwise product f * X with a scalar function of the point."""
        return TangentField(
            self.manifold,
            lambda pts: scalar_field(pts)[:, np.newaxis] * self.fn(pts),
            f"f*{self.name}",
        )


@dataclass(frozen=True)
class ACSField:
    """An almost complex structure field: batched evaluator returning one
    ambient operator per point that acts as J on the tangent space and
    annihilates the per-factor normal directions."""

    manifold: ProductManifold
    fn: Callable[[Array], Array]
    name: str = ""

    def __call__(self, pts: Array) -> Array:
        return self.fn(pts)

    def at(self, point: EmbeddedPoint) -> Array:
        return self.fn(point.batch)[0]

    def image(self, X: TangentField) -> TangentField:
        """The field J X: q -> J(q) X(q)."""
        return TangentField(
            self.manifold,
            lambda pts: np.einsum("nij,nj->ni", self.fn(pts), X(pts)),
            f"{self.name}.{X.name}",
        )

    def frame_restriction(self, point: EmbeddedPoint) -> OrthogonalACS:
        """The tangent-space restriction expressed in an orthonormal
        ambient-projected basis, as a pointwise OrthogonalACS."""
        b = tangent_bases(self.manifold, point.batch)[0]
        j = self.at(point)
        return OrthogonalACS(self.manifold, b.T @ j @ b)


def projected_constant_field(man: ProductManifold, ambient: Array, name: str = "const") -> TangentField:
    """Tangent projection of a constant ambient vector: smooth and global."""
    v = np.asarray(ambient, dtype=float)
    if v.shape != (man.ambient_dim,):
        raise ContractViolation(f"ambient vector must have length {man.ambient_dim}")

    def fn(pts: Array) -> Array:
        return tangent_project(man, pts, np.broadcast_to(v, pts.shape))

    return TangentField(man, fn, name)


def row_constant_field(man: ProductManifold, rows: Array, name: str = "rows") -> TangentField:
    """Per-row projected-constant field; row i extends the ambient vector
    rows[i].  Only valid under the batch row contract."""
    rows = np.asarray(rows, dtype=float)

    def fn(pts: Array) -> Array:
        if pts.shape != rows.shape:
            raise ContractViolation("row-constant field evaluated off its row batch")
        return tangent_project(man, pts, rows)

    return TangentField(man, fn, name)


def linear_field(man: ProductManifold, factor: int, skew: Array, name: str = "linear") -> TangentField:
    """Killing field of one factor: X(x) = S x on the geometric sphere for a
    skew ambient matrix S, zero on the other factors."""
    f = man.factors[factor]
    s = np.asarray(skew, dtype=float)
    if s.shape != (f.ambient_dim, f.ambient_dim):
        raise ContractViolation(f"skew matrix must be {f.ambient_dim}x{f.ambient_dim}")
    if np.max(np.abs(s + s.T)) > 1e-12:
        raise ContractViolation("rotation generator must be skew-symmetric")
    sl = man.ambient_slices[factor]
    radius = f.radius

    def fn(pts: Array) -> Array:
        out = np.zeros_like(pts)
        out[:, sl] = radius * (pts[:, sl] @ s.T)
        return out

    return TangentField(man, fn, name)


def cross_matrix(axis: Array) -> np.ndarray:
    """3x3 matrix of v -> axis x v."""
    a = np.asarray(axis, dtype=float)
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def rotation_field(man: ProductManifold, factor: int, axis: Array, name: str = "rot") -> TangentField:
    """Rotation field v -> axis x x on a 2-sphere factor."""
    if man.factors[factor].dim != 2:
        raise InvalidManifold("rotation fields about an axis need a 2-sphere factor")
    return linear_field(man, factor, cross_matrix(axis), name)


# ---------------------------------------------------------------------------
# Built-in almost complex structure fields
# ---------------------------------------------------------------------------

def s2_rotation_blocks(u: Array) -> Array:
    """The canonical structure on a 2-sphere: J_u v = u x v (per unit point)."""
    n = u.shape[0]
    m = np.zeros((n, 3, 3))
    m[:, 0, 1] = -u[:, 2]
    m[:, 0, 2] = u[:, 1]
    m[:, 1, 0] = u[:, 2]
    m[:, 1, 2] = -u[:, 0]
    m[:, 2, 0] = -u[:, 1]
    m[:, 2, 1] = u[:, 0]
    return m


def s6_octonion_blocks(u: Array) -> Array:
    """The octonionic structure on a 6-sphere: J_u v = u x v in the purely
    imaginary octonions; defined on the unit sphere and transported to radius
    r by rescaling the argument, not the output, so it stays orthogonal."""
    return cross7_matrices(u)


S4_CHART_MARGIN = 1e-8


def _s4_pole_rotation(u: Array) -> Array:
    """Rotation taking the pole N = last coordinate axis to u along the great
    circle through both, smooth away from the antipode u . N = -1."""
    n, amb = u.shape
    denom = 1.0 + u[:, -1]
    if np.any(denom < S4_CHART_MARGIN):
        raise DegenerateInput(
            "4-sphere chart structure evaluated too close to the antipodal bad set"
        )
    w = u.copy()
    w[:, -1] += 1.0
    rot = np.broadcast_to(np.eye(amb), (n, amb, amb)).copy()
    rot -= w[:, :, np.newaxis] * (w[:, np.newaxis, :] / denom[:, np.newaxis, np.newaxis])
    rot[:, :, -1] += 2.0 * u
    return rot


_S4_JC = np.zeros((5, 5))
_S4_JC[0, 1], _S4_JC[1, 0], _S4_JC[2, 3], _S4_JC[3, 2] = -1.0, 1.0, -1.0, 1.0
_S4_JC.flags.writeable = False


def s4_integrable_chart_blocks(u: Array) -> Array:
    """Orthogonal complex structure on a 4-sphere chart: the pole-to-point
    rotation frame conjugating a fixed constant structure at the pole.

    This choice is locally *integrable*: the chart minus the antipode is
    conformally flat and the structure matches the pulled-back constant one,
    so its Nijenhuis tensor vanishes there.  Useful as a pipeline fixture; a
    poor base point for obstruction searches, whose energy floor it would
    collapse to round-off.  No global smooth structure exists on all of S^4,
    so callers must keep sample points away from the antipodal bad set.
    """
    rot = _s4_pole_rotation(u)
    return rot @ _S4_JC @ rot.transpose(0, 2, 1)


def s4_chart_blocks(u: Array) -> Array:
    """Non-integrable orthogonal almost complex structure on a 4-sphere chart.

    Same pole-to-point rotation frame as the integrable variant, but twisted
    pointwise by a rotation of angle u_0 in a plane that mixes the two
    invariant planes of the constant structure; the twist does not commute
    with the constant structure, which makes the Nijenhuis tensor of the
    result generically of order one on the chart.  Shares the antipodal bad
    set of the frame, to be excluded from sample points.
    """
    n, amb = u.shape
    rot = _s4_pole_rotation(u)
    t = u[:, 0]
    c, s = np.cos(t), np.sin(t)
    tw = np.broadcast_to(np.eye(amb), (n, amb, amb)).copy()
    tw[:, 0, 0] = c
    tw[:, 0, 2] = -s
    tw[:, 2, 0] = s
    tw[:, 2, 2] = c
    frame = rot @ tw
    return frame @ _S4_JC @ frame.transpose(0, 2, 1)


FACTOR_BLOCK_BUILDERS = {
    2: s2_rotation_blocks,
    4: s4_chart_blocks,
    6: s6_octonion_blocks,
}


def product_acs_field(
    man: ProductManifold, builders: list[Callable[[Array], Array]], name: str = "product"
) -> ACSField:
    """Block-diagonal assembly of per-factor structure builders."""
    if len(builders) != man.n_factors:
        raise ContractViolation("need one block builder per factor")

    def fn(pts: Array) -> Array:
        n = pts.shape[0]
        m = np.zeros((n, man.ambient_dim, man.ambient_dim))
        for sl, builder in zip(man.ambient_slices, builders):
            m[:, sl, sl] = builder(pts[:, sl])
        return m

    return ACSField(man, fn, name)


def default_acs_field(man: ProductManifold) -> ACSField:
    """Canonical rotation on 2-spheres, chart structure on 4-spheres and the
    octonionic structure on 6-spheres, assembled blockwise."""
    builders = []
    for f in man.factors:
        if f.dim not in FACTOR_BLOCK_BUILDERS:
            raise InvalidManifold(f"no built-in structure for a {f.dim}-sphere factor")
        builders.append(FACTOR_BLOCK_BUILDERS[f.dim])
    return product_acs_field(man, builders, name="default")


# ---------------------------------------------------------------------------
# Brackets and the Nijenhuis tensor
# ---------------------------------------------------------------------------

def check_step(h: float) -> None:
    """Reject a finite-difference step outside [1e-9, 1e-2], where neither
    truncation nor round-off dominates the bracket."""
    if not 1e-9 <= h <= 1e-2:
        raise StepSizeError(f"finite-difference step {h} outside [1e-9, 1e-2]")


def lie_bracket_fd_batch(
    X: TangentField,
    Y: TangentField,
    pts: Array,
    h: float = TOL.fd_step,
    project: bool = True,
) -> Array:
    """[X, Y] = (DY) X - (DX) Y on the radial extensions, batched."""
    check_step(h)
    man = X.manifold
    g = to_geometric(man, pts)
    vx = X(pts)
    vy = Y(pts)
    dyx = (Y(normalize_blocks(man, g + h * vx)) - Y(normalize_blocks(man, g - h * vx))) / (2 * h)
    dxy = (X(normalize_blocks(man, g + h * vy)) - X(normalize_blocks(man, g - h * vy))) / (2 * h)
    bracket = dyx - dxy
    return tangent_project(man, pts, bracket) if project else bracket


def lie_bracket_fd(
    X: TangentField,
    Y: TangentField,
    p: EmbeddedPoint,
    h: float = TOL.fd_step,
    project: bool = True,
) -> Array:
    return lie_bracket_fd_batch(X, Y, p.batch, h, project)[0]


@dataclass(frozen=True)
class NijenhuisSample:
    """One Nijenhuis evaluation: the point, the field values there, the
    tensor value and its norm."""

    point: EmbeddedPoint
    x_value: Array
    y_value: Array
    value: Array
    norm: float


def nijenhuis_batch(
    Jf: ACSField, X: TangentField, Y: TangentField, pts: Array, h: float = TOL.fd_step
) -> Array:
    """N(X, Y) = [JX,JY] - [X,Y] - J[JX,Y] - J[X,JY], batched over points.

    All perturbed points are stacked into a single batch so the (typically
    expensive) structure field is evaluated once; the stacking keeps rows
    aligned with the input batch, per the field row contract.
    """
    check_step(h)
    man = Jf.manifold
    n = pts.shape[0]
    g = to_geometric(man, pts)
    vx = X(pts)
    vy = Y(pts)

    # One structure evaluation covers the centre batch and all eight
    # perturbed copies; J at the centre is needed first to displace along
    # the JX and JY directions, so the stack is built in two steps.
    jc = Jf(pts)
    jx = np.einsum("nij,nj->ni", jc, vx)
    jy = np.einsum("nij,nj->ni", jc, vy)
    offsets = np.concatenate(
        [g + h * jx, g - h * jx, g + h * jy, g - h * jy,
         g + h * vx, g - h * vx, g + h * vy, g - h * vy]
    )
    u_all = normalize_blocks(man, offsets)
    jxp, jxm, jyp, jym, vxp, vxm, vyp, vym = range(8)
    part = [u_all[k * n : (k + 1) * n] for k in range(8)]

    j_all = Jf(u_all)
    j_part = [j_all[k * n : (k + 1) * n] for k in range(8)]
    x_vals = {k: X(part[k]) for k in (jyp, jym, vyp, vym)}
    y_vals = {k: Y(part[k]) for k in (jxp, jxm, vxp, vxm)}
    jx_vals = {k: np.einsum("nij,nj->ni", j_part[k], x_vals[k]) for k in (jyp, jym, vyp, vym)}
    jy_vals = {k: np.einsum("nij,nj->ni", j_part[k], y_vals[k]) for k in (jxp, jxm, vxp, vxm)}

    inv = 1.0 / (2.0 * h)
    b_jxjy = (jy_vals[jxp] - jy_vals[jxm] - jx_vals[jyp] + jx_vals[jym]) * inv
    b_xy = (y_vals[vxp] - y_vals[vxm] - x_vals[vyp] + x_vals[vym]) * inv
    b_jxy = (y_vals[jxp] - y_vals[jxm] - jx_vals[vyp] + jx_vals[vym]) * inv
    b_xjy = (jy_vals[vxp] - jy_vals[vxm] - x_vals[jyp] + x_vals[jym]) * inv

    value = b_jxjy - b_xy - np.einsum("nij,nj->ni", jc, b_jxy + b_xjy)
    return tangent_project(man, pts, value)


def nijenhuis(
    Jf: ACSField, X: TangentField, Y: TangentField, p: EmbeddedPoint, h: float = TOL.fd_step
) -> NijenhuisSample:
    value = nijenhuis_batch(Jf, X, Y, p.batch, h)[0]
    return NijenhuisSample(
        point=p,
        x_value=X.at(p),
        y_value=Y.at(p),
        value=value,
        norm=float(np.linalg.norm(value)),
    )


# ---------------------------------------------------------------------------
# Energy over seeded frame pairs
# ---------------------------------------------------------------------------

def sample_tangent_pairs(
    man: ProductManifold, pts: Array, frame_pairs: int, seed: int
) -> tuple[Array, Array, Array]:
    """Seeded orthonormal tangent pairs at each point.

    Returns (points_repeated, xs, ys) with rows ordered point-major, so the
    reduction over rows is point-index ordered and deterministic.
    """
    if frame_pairs < 1:
        raise ContractViolation("frame_pairs must be >= 1")
    n = pts.shape[0]
    bases = tangent_bases(man, pts)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, frame_pairs, 2, man.total_dim))
    w = np.einsum("nat,npqt->npqa", bases, z)
    w = w.reshape(n * frame_pairs, 2, man.ambient_dim)
    xs = w[:, 0, :]
    ys = w[:, 1, :]
    xs = xs / np.linalg.norm(xs, axis=1, keepdims=True)
    ys = ys - np.sum(ys * xs, axis=1, keepdims=True) * xs
    norms = np.linalg.norm(ys, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise DegenerateInput("degenerate tangent pair sample")
    ys = ys / norms
    pts_rep = np.repeat(pts, frame_pairs, axis=0)
    return pts_rep, xs, ys


def frame_pair_sq_norms(
    man: ProductManifold, pts: Array, frame_pairs: int, seed: int, h: float = TOL.fd_step
) -> Callable[[ACSField], Array]:
    """Freeze seeded orthonormal tangent frame pairs at the sample points
    once; the returned function maps a structure field to |N(X_i, Y_i)|^2,
    one entry per frame pair, point-major."""
    pts_rep, xs, ys = sample_tangent_pairs(man, pts, frame_pairs, seed)
    X = row_constant_field(man, xs, "frame-x")
    Y = row_constant_field(man, ys, "frame-y")

    def sq_norms(Jf: ACSField) -> Array:
        values = nijenhuis_batch(Jf, X, Y, pts_rep, h)
        return np.sum(values * values, axis=1)

    return sq_norms


def nijenhuis_energy(
    Jf: ACSField,
    pts: Array,
    frame_pairs: int = 2,
    seed: int = 0,
    h: float = TOL.fd_step,
) -> float:
    """Mean of |N(X_i, Y_i)|^2 over seeded orthonormal tangent frame pairs at
    each sample point; zero exactly for integrable fields, deterministic in
    the seed."""
    if pts.shape[0] == 0:
        raise ContractViolation("energy needs at least one sample point")
    return float(np.mean(frame_pair_sq_norms(Jf.manifold, pts, frame_pairs, seed, h)(Jf)))


def nijenhuis_norms(
    Jf: ACSField,
    pts: Array,
    frame_pairs: int = 2,
    seed: int = 0,
    h: float = TOL.fd_step,
) -> Array:
    """Per-point root-mean-square Nijenhuis norm over the seeded frame pairs."""
    sq = frame_pair_sq_norms(Jf.manifold, pts, frame_pairs, seed, h)(Jf)
    return np.sqrt(np.mean(sq.reshape(pts.shape[0], frame_pairs), axis=1))


def nijenhuis_tensoriality_check(
    Jf: ACSField,
    point: EmbeddedPoint,
    seed: int,
    scalar_field: Callable[[Array], Array] | None = None,
    h: float = TOL.fd_step,
) -> AuditReport:
    """Check N(f X, Y) = f(p) N(X, Y) for a seeded polynomial scalar f: the
    finite-difference pipeline must compute a tensor, so the derivative terms
    of f have to cancel."""
    man = Jf.manifold
    rng = np.random.default_rng(seed)
    if scalar_field is None:
        coeffs = 0.5 * rng.standard_normal(man.ambient_dim)
        const = 1.0 + 0.25 * rng.standard_normal()

        def scalar_field(pts: Array) -> Array:
            return const + pts @ coeffs

    X = projected_constant_field(man, rng.standard_normal(man.ambient_dim), "X")
    Y = projected_constant_field(man, rng.standard_normal(man.ambient_dim), "Y")
    fX = X.scaled_by(scalar_field)
    lhs = nijenhuis_batch(Jf, fX, Y, point.batch, h)[0]
    f_at_p = float(scalar_field(point.batch)[0])
    rhs = f_at_p * nijenhuis_batch(Jf, X, Y, point.batch, h)[0]
    report = AuditReport(f"Nijenhuis tensoriality for {Jf.name} (seed {seed})")
    report.add(
        "tensoriality",
        float(np.linalg.norm(lhs - rhs)),
        0.0,
        TOL.fd_tensor,
        "N(f X, Y) == f(p) N(X, Y)",
    )
    return report


def acs_field_validity_check(
    Jf: ACSField, pts: Array, tol: float = TOL.acs_validity
) -> AuditReport:
    """validate_acs on the tangent-space restriction at every given point."""
    man = Jf.manifold
    report = AuditReport(f"pointwise validity of {Jf.name} at {pts.shape[0]} points")
    defects = [
        [c.computed for c in validate_acs(Jf.frame_restriction(EmbeddedPoint(man, row)), tol).checks]
        for row in pts
    ]
    report.add(
        "pointwise-validity",
        np.max(defects, initial=0.0),
        0.0,
        tol,
        "tangent restriction passes the ACS validator at every sample point",
    )
    return report


def second_factor_restriction_check(Jf: ACSField, pts: Array, h: float = TOL.fd_step) -> AuditReport:
    """Compare N of a structure field on S^2 x S^6 on two second-factor
    tangent fields against the standalone 6-sphere evaluation at the same
    points; no first-factor component may appear."""
    man = Jf.manifold
    if tuple(f.dim for f in man.factors) != (2, 6):
        raise InvalidManifold("the restriction check needs factors (2-sphere, 6-sphere)")
    report = AuditReport("restriction")
    man6 = ProductManifold((man.factors[1],))
    j6 = default_acs_field(man6)
    sl6 = man.ambient_slices[1]
    amb_x = np.zeros(man.ambient_dim)
    amb_y = np.zeros(man.ambient_dim)
    amb_x[3], amb_y[5] = 1.0, 1.0
    X = projected_constant_field(man, amb_x, "X6")
    Y = projected_constant_field(man, amb_y, "Y6")
    X6 = projected_constant_field(man6, amb_x[sl6], "x6")
    Y6 = projected_constant_field(man6, amb_y[sl6], "y6")
    full = nijenhuis_batch(Jf, X, Y, pts, h)
    alone = nijenhuis_batch(j6, X6, Y6, pts[:, sl6], h)
    for k in range(pts.shape[0]):
        diff = float(np.linalg.norm(full[k, sl6] - alone[k]))
        leak = float(np.max(np.abs(full[k, : sl6.start])))
        report.add(
            f"restriction[{k}].match", diff, 0.0, TOL.fd_linear,
            "product-field N on second-factor fields == standalone evaluation",
        )
        report.add(
            f"restriction[{k}].first-factor-leak", leak, 0.0, TOL.fd_linear,
            "no first-factor component appears",
        )
    return report
