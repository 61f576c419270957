"""Smooth fields on embedded products of spheres: Lie brackets and the
Nijenhuis tensor from exact directional derivatives, with a central-difference
bracket kept as the independent oracle.

A point of S^d1(k1) x ... x S^dt(kt) is stored as the concatenation of one
*unit* direction u_a in R^(d_a + 1) per factor; the geometric point is
x_a = r_a u_a with r_a = 1 / sqrt(k_a).  The API is batched throughout: every
field evaluator maps an (n, ambient_dim) array of unit points to values row
by row, and a single point is a batch of one row.  ``ACSField`` is the one
field type; a tangent field is a plain evaluator pts -> (n, ambient_dim),
such as ``projected_constant_field``'s.  The validity check
validates its points with ``unit_rows`` (each factor block a unit vector)
and evaluates the whole batch at once.

Brackets are taken in geometric ambient coordinates, [X, Y] = (DY) X - (DX) Y,
followed by tangent projection.  A geometric displacement v moves the unit
direction of factor a with velocity P_a v_a / r_a, so every derivative is a
derivative of an evaluator along a tangent velocity du of the unit points.
The Nijenhuis tensor of an almost complex structure field J,

    N(X, Y) = [JX, JY] - [X, Y] - J [JX, Y] - J [X, JY],

zero exactly when J is integrable, expands by the product rule into

    N(X, Y) = P [ (D_JX J) Y - (D_JY J) X + J ((D_Y J) X - (D_X J) Y)
                  - (I + J^2) [X, Y] ],

in which the derivatives of X along JY and of Y along JX cancel.  As
J^2 = -P on tangent vectors and J annihilates normals, (I + J^2) [X, Y] is
normal and the projection removes it: N at p depends only on x = X(p) and
y = Y(p), as a tensor must.  ``nijenhuis_batch`` takes those vectors and
evaluates the rest from one jet of J (its values and its derivatives along
x, y, Jx and Jy).

Derivatives.  Only structure fields have a ``jet``: their values at a row
batch and the derivative map (du, w) -> (D_du J) w there.  A stack of k
tangent velocities or vectors at n rows is an (n, ambient_dim, k) array of
columns: the stack index comes after the row index, so that one per-row
operator (n, ambient_dim, ambient_dim) reaches the whole stack in one
batched product ``m @ cols``, and column j of w pairs with column j of du.
By default the derivatives are the complex step of the field's own
evaluator,

    D f(u)[du] = Im f(u + i eps du) / eps,      eps = COMPLEX_STEP,

exact to round-off because no difference of nearby values is formed
(Squire & Trapp 1998).  Evaluators must therefore keep complex input complex
(no casts to float, no abs or norm of the input; chart tests look at the real
part); a cast that would drop the imaginary part raises ``ContractViolation``.
Hand-built fields and ``product_acs_field`` keep this default.  Three kinds
of structure field pass their own ``jet_fn``: ``default_acs_field``, whose
built-in blocks each come with a closed-form derivative (du x w on S^2 and
S^6, the product rule of the chart frame on S^4), ``frozen_field`` (values
and complex-step frame derivatives computed once for a fixed row batch, as
the energy objective does for its base field) and the Cayley-gauged family
of ``search``, whose rotation is differentiated in closed form.

The FD oracle ``lie_bracket_fd_batch(man, X, Y, pts)`` extends the tangent
fields X and Y radially, X(q) = X(q / |q| per factor), and evaluates the
bracket by central differences (step h, error O(h^2)).  Built from the four
brackets of the definition, derivatives of X and Y included, it is the
independent check that dropping the (I + J^2) [X, Y] term is exact.

Batch row contract: every field evaluator is called on arrays whose row i is
a point infinitesimally close to row i of the input batch (a complex step in
a jet, a normalised offset in the FD oracle).  Point-independent fields
ignore this; the frozen base field relies on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.exceptions import ComplexWarning

from .acs import acs_defects
from .config import TOL
from .errors import ContractViolation, DegenerateInput, InvalidManifold, StepSizeError
from .manifold import ProductManifold
from .octonion import cross7_columns, cross7_matrices
from .report import AuditReport

Array = np.ndarray


# ---------------------------------------------------------------------------
# Embedded points: per-factor geometry helpers and the row validator
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
    """Remove the per-factor normal component <v_a, u_a> u_a; vecs may carry
    leading axes over the (n, ambient_dim) rows of pts."""
    return vecs - ((vecs * pts) @ man.ambient_block_mask) * pts


def tangent_projectors(man: ProductManifold, pts: Array) -> Array:
    """Per-row tangent projectors I - sum_a u_a u_a^T, shape (n, ambient_dim,
    ambient_dim); ``projectors @ cols`` projects a whole column stack."""
    outer = pts[:, :, np.newaxis] * pts[:, np.newaxis, :]
    return np.eye(man.ambient_dim) - outer * man.ambient_block_mask


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


def unit_rows(man: ProductManifold, pts: Array) -> Array:
    """Validate a batch of points: shape (n, ambient_dim), each factor block
    a unit vector to 1e-9 (a NaN fails).  Returns the rows re-normalised
    blockwise."""
    q = np.asarray(pts, dtype=float)
    if q.ndim != 2 or q.shape[1] != man.ambient_dim:
        raise ContractViolation(f"points need shape (n, {man.ambient_dim}), got {q.shape}")
    for sl in man.ambient_slices:
        if not np.all(np.abs(np.linalg.norm(q[:, sl], axis=1) - 1.0) <= 1e-9):
            raise ContractViolation("each factor block must be a unit vector")
    return normalize_blocks(man, q)


# ---------------------------------------------------------------------------
# Structure fields and tangent fields
# ---------------------------------------------------------------------------

COMPLEX_STEP = 1e-30


def complex_step(fn: Callable[[Array], Array], pts: Array, du: Array) -> Array:
    """Derivative of a batched evaluator at the rows pts along the tangent
    rows du: Im fn(pts + i eps du) / eps, with a dropped imaginary part
    raised instead of read as a zero derivative."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        try:
            out = fn(pts + (1j * COMPLEX_STEP) * du)
        except ComplexWarning as exc:
            raise ContractViolation(
                "field evaluator dropped the imaginary part of a complex-step input"
            ) from exc
    return np.imag(out) / COMPLEX_STEP


Jet = tuple[Array, Callable[[Array, Array], Array]]


@dataclass(frozen=True)
class ACSField:
    """An almost complex structure field: batched evaluator returning one
    ambient operator per point that acts as J on the tangent space and
    annihilates the per-factor normal directions.  ``jet_fn``, when given,
    replaces the complex-step default of ``jet``, which needs ``fn`` to be
    analytic in its input: it must keep complex rows complex and take no
    abs, norm or conjugate of them.  The built-in fields, frozen fields and
    gauged families pass one (module docstring)."""

    manifold: ProductManifold
    fn: Callable[[Array], Array]
    name: str = ""
    jet_fn: Callable[[Array], Jet] | None = None

    def __call__(self, pts: Array) -> Array:
        return self.fn(pts)

    def jet(self, pts: Array) -> Jet:
        """Values at the rows pts and the derivative map (du, w) -> (D_du J) w
        there, which lets closed forms skip derivative matrices; du, w and
        the result are column stacks (n, ambient_dim, k).  By default each
        column's complex-step derivative matrix meets its column of w as
        soon as it is formed."""
        if self.jet_fn is not None:
            return self.jet_fn(pts)

        def derivative(du: Array, w: Array) -> Array:
            return np.concatenate([
                complex_step(self.fn, pts, du[..., j]) @ w[..., j, np.newaxis]
                for j in range(du.shape[-1])
            ], axis=-1)

        return self.fn(pts), derivative


class Scratch:
    """Float buffers reused from call to call, one per name and shape, each
    made on first use.  Frozen pieces keep their largest per-evaluation
    temporaries here: at criterion 7's 100 rows each is above glibc's
    initial 128 KiB mmap threshold, so a fresh array would be mapped,
    faulted in and unmapped again on every evaluation, or, like the
    gauge's 100 KiB dU stacks, large enough that freeing a few together at
    the top of the heap passes glibc's trim threshold and gives those pages
    back, to be faulted in again.  Its owner evaluates one call at a time."""

    def __init__(self):
        self._buffers: dict[tuple, Array] = {}

    def __call__(self, name: str, *shape: int) -> Array:
        buffer = self._buffers.get((name, shape))
        if buffer is None:
            buffer = self._buffers[name, shape] = np.empty(shape)
        return buffer


def take_rows(a: Array, index: Array, out: Array) -> Array:
    """out[:, r] = a[:, index[r]], written straight into out: mode 'clip'
    does not buffer out as the default 'raise' does, and every index is in
    range.  It fills a stack of repeated rows as np.repeat or np.concatenate
    would, but into a reused buffer."""
    return np.take(a, index, axis=1, out=out, mode="clip")


def frozen_rows(rows: Array) -> Array:
    """rows as a read-only float array that the frozen pieces of one row
    batch share: rows itself if it already is one that owns its data, else
    a read-only copy."""
    if isinstance(rows, np.ndarray) and rows.dtype == float and rows.flags.owndata and not rows.flags.writeable:
        return rows
    out = np.array(rows, dtype=float)
    out.flags.writeable = False
    return out


def frozen_field(Jf: ACSField, rows: Array) -> ACSField:
    """Jf with its values and its complex-step derivatives along the tangent
    frame of each row computed once, so (D_du J) w is one batched product
    with du's frame coordinates and w, formed in ``Scratch`` buffers per
    column count.  Valid only on exactly this row batch, kept as
    ``frozen_rows``: the very same array passes at once, any other is
    compared with np.array_equal.  Jf.fn must be analytic in its input (see
    ``ACSField``): an evaluator that takes abs or norms of its rows gives a
    wrong derivative without an error."""
    man = Jf.manifold
    rows = frozen_rows(rows)
    n, amb = rows.shape
    frame = tangent_bases(man, rows)
    # (n, total_dim, ambient_dim): the frame coordinates of du are coords @ du
    coords = np.ascontiguousarray(np.swapaxes(frame, 1, 2))
    value = Jf.fn(rows)
    # (n, amb, total_dim * amb): the frame derivatives D_i J side by side,
    # so (D_du J) w is one product with the outer (frame coords of du) x w
    along = np.concatenate([complex_step(Jf.fn, rows, frame[..., i]) for i in range(man.total_dim)], axis=-1)
    for a in (value, along, coords):
        a.flags.writeable = False
    # row i * amb + a of the outer product holds frame coordinate i of du
    # and entry a of w
    coordinate_rows = np.repeat(np.arange(man.total_dim), amb)
    w_rows = np.tile(np.arange(amb), man.total_dim)
    scratch = Scratch()

    def fn(pts: Array) -> Array:
        if pts is not rows and not np.array_equal(pts, rows):
            raise ContractViolation("frozen field evaluated off its row batch")
        return value

    def derivative(du: Array, w: Array) -> Array:
        shape = (n, coordinate_rows.size, du.shape[-1])
        outer = take_rows(coords @ du, coordinate_rows, scratch("du", *shape))
        outer *= take_rows(w, w_rows, scratch("w", *shape))
        return along @ outer

    def jet(pts: Array) -> Jet:
        return fn(pts), derivative

    return ACSField(man, fn, Jf.name, jet)


def projected_constant_field(man: ProductManifold, ambient: Array) -> Callable[[Array], Array]:
    """Tangent field: the tangent projection of a constant ambient vector,
    smooth and global."""
    v = np.asarray(ambient, dtype=float)
    if v.shape != (man.ambient_dim,):
        raise ContractViolation(f"ambient vector must have length {man.ambient_dim}")

    def fn(pts: Array) -> Array:
        return tangent_project(man, pts, np.broadcast_to(v, pts.shape))

    return fn


# ---------------------------------------------------------------------------
# Built-in almost complex structure fields
# ---------------------------------------------------------------------------

def s2_rotation_blocks(u: Array) -> Array:
    """The canonical structure on a 2-sphere: J_u v = u x v (per unit point)."""
    n = u.shape[0]
    m = np.zeros((n, 3, 3), dtype=np.result_type(u, float))
    m[:, 0, 1] = -u[:, 2]
    m[:, 0, 2] = u[:, 1]
    m[:, 1, 0] = u[:, 2]
    m[:, 1, 2] = -u[:, 0]
    m[:, 2, 0] = -u[:, 1]
    m[:, 2, 1] = u[:, 0]
    return m


def s2_rotation_derivative(u: Array, du: Array, w: Array) -> Array:
    """(D_du J) w for ``s2_rotation_blocks`` on column stacks (n, 3, k):
    J is linear in u, so it is du x w."""
    return np.cross(du, w, axis=1)


def s6_octonion_blocks(u: Array) -> Array:
    """The octonionic structure on a 6-sphere: J_u v = u x v in the purely
    imaginary octonions; defined on the unit sphere and transported to radius
    r by rescaling the argument, not the output, so it stays orthogonal."""
    return cross7_matrices(u)


def s6_octonion_derivative(u: Array, du: Array, w: Array) -> Array:
    """(D_du J) w for ``s6_octonion_blocks`` on column stacks (n, 7, k):
    J is linear in u, so it is the cross product du x w."""
    return cross7_columns(du, w)


S4_CHART_MARGIN = 1e-8


def _s4_pole_rotation(u: Array) -> Array:
    """Rotation taking the pole N = last coordinate axis to u along the great
    circle through both, smooth away from the antipode u . N = -1."""
    n, amb = u.shape
    denom = 1.0 + u[:, -1]
    if np.any(np.real(denom) < S4_CHART_MARGIN):
        raise DegenerateInput(
            "4-sphere chart structure evaluated too close to the antipodal bad set"
        )
    w = u.copy()
    w[:, -1] += 1.0
    rot = np.broadcast_to(np.eye(amb, dtype=u.dtype), (n, amb, amb)).copy()
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
    so its Nijenhuis tensor vanishes there.  The searches' twisted base
    ``s4_chart_blocks`` is R J R^T for this J and R = rot tw rot^T, a tangent
    rotation by the angle u_0 that fixes u, so the gauge rotation Q = R^T
    takes it here: a positive search floor on the chart measures the gauge
    family, not S^2 x S^4.  No global smooth structure exists on all of S^4,
    so callers must keep sample points away from the antipodal bad set.
    """
    rot = _s4_pole_rotation(u)
    return rot @ _S4_JC @ rot.transpose(0, 2, 1)


# The quarter turn of the plane of axes 0 and 2, zero on the other axes:
# the twist turns that plane by the angle u_0, so its derivative along du
# is du_0 tw K.
_S4_TURN = np.zeros((5, 5))
_S4_TURN[0, 2], _S4_TURN[2, 0] = -1.0, 1.0
_S4_TURN.flags.writeable = False


def _s4_twist(u: Array) -> Array:
    """Rotation by the angle u_0 in the plane of the coordinate axes 0 and 2,
    which mixes the two invariant planes of the constant pole structure."""
    n, amb = u.shape
    c, s = np.cos(u[:, 0]), np.sin(u[:, 0])
    tw = np.broadcast_to(np.eye(amb, dtype=u.dtype), (n, amb, amb)).copy()
    tw[:, 0, 0] = c
    tw[:, 0, 2] = -s
    tw[:, 2, 0] = s
    tw[:, 2, 2] = c
    return tw


def s4_chart_blocks(u: Array) -> Array:
    """Non-integrable orthogonal almost complex structure on a 4-sphere chart.

    Same pole-to-point rotation frame as the integrable variant, but twisted
    pointwise by ``_s4_twist``, which does not commute with the constant
    structure; that makes the Nijenhuis tensor of the result generically of
    order one on the chart.  Shares the antipodal bad set of the frame, to
    be excluded from sample points.
    """
    frame = _s4_pole_rotation(u) @ _s4_twist(u)
    return frame @ _S4_JC @ frame.transpose(0, 2, 1)


def s4_chart_derivative(u: Array, du: Array, w: Array) -> Array:
    """(D_du J) w for ``s4_chart_blocks`` on column stacks (n, 5, k).

    With the frame F = rot tw, J = F Jc F^T gives D J = dF Jc F^T + F Jc dF^T
    and dF = drot tw + rot dtw by the product rule.  For rot = I - v v^T / d
    + 2 u N^T with v = u + N and d = 1 + u_N,

        drot x = (v ((v.x) du_N / d - du.x) - du (v.x)) / d + 2 du x_N,

    and drot^T x is the same with 2 N (du.x) as its last term.  tw turns
    the plane of axes 0 and 2 by the angle u_0, so dtw = du_0 tw K with the
    quarter turn K of that plane (``_S4_TURN``), which commutes with tw, and
    rot dtw = du_0 F K.  Both F terms then share one product:

        (D J) w = drot tw y + F (du_0 K y + Jc dF^T w),     y = Jc F^T w,
        dF^T w = tw^T drot^T w - du_0 K F^T w.

    No matrix per column is formed."""
    rot, tw = _s4_pole_rotation(u), _s4_twist(u)
    frame = rot @ tw
    v = u[:, :, np.newaxis].copy()
    v[:, -1] += 1.0
    denom = v[:, -1:]
    du_0, du_n = du[:, :1], du[:, -1:]

    def d_rot(x: Array, transpose: bool) -> Array:
        # column-wise inner products, (n, 1, k); np.sum over the short
        # middle axis is slower than einsum
        vx = np.einsum("nik,nik->nk", v, x)[:, np.newaxis]
        dux = np.einsum("nik,nik->nk", du, x)[:, np.newaxis]
        out = (v * (vx * du_n / denom - dux) - du * vx) / denom
        if transpose:
            out[:, -1:] += 2.0 * dux
        else:
            out += 2.0 * du * x[:, -1:]
        return out

    frame_t_w = frame.transpose(0, 2, 1) @ w
    y = _S4_JC @ frame_t_w
    d_frame_t_w = tw.transpose(0, 2, 1) @ d_rot(w, True) - du_0 * (_S4_TURN @ frame_t_w)
    return d_rot(tw @ y, False) + frame @ (du_0 * (_S4_TURN @ y) + _S4_JC @ d_frame_t_w)


# Each built-in factor structure: its block builder u -> J_u and the
# builder's derivative (u, du, w) -> (D_du J) w on column stacks.
FACTOR_BLOCK_BUILDERS = {
    2: (s2_rotation_blocks, s2_rotation_derivative),
    4: (s4_chart_blocks, s4_chart_derivative),
    6: (s6_octonion_blocks, s6_octonion_derivative),
}


def product_acs_field(
    man: ProductManifold, builders: list[Callable[[Array], Array]], name: str = "product"
) -> ACSField:
    """Block-diagonal assembly of per-factor structure builders."""
    if len(builders) != man.n_factors:
        raise ContractViolation("need one block builder per factor")

    def fn(pts: Array) -> Array:
        n = pts.shape[0]
        m = np.zeros((n, man.ambient_dim, man.ambient_dim), dtype=np.result_type(pts, float))
        for sl, builder in zip(man.ambient_slices, builders):
            m[:, sl, sl] = builder(pts[:, sl])
        return m

    return ACSField(man, fn, name)


def default_acs_field(man: ProductManifold) -> ACSField:
    """Canonical rotation on 2-spheres, chart structure on 4-spheres and the
    octonionic structure on 6-spheres, assembled blockwise.  Its jet is in
    closed form: the values are those of the ``product_acs_field`` it is
    built on, and (D_du J) w is each block derivative of
    ``FACTOR_BLOCK_BUILDERS`` on its factor's rows of du and w."""
    for f in man.factors:
        if f.dim not in FACTOR_BLOCK_BUILDERS:
            raise InvalidManifold(f"no built-in structure for a {f.dim}-sphere factor")
    builders, derivatives = zip(*(FACTOR_BLOCK_BUILDERS[f.dim] for f in man.factors))
    field = product_acs_field(man, list(builders), name="default")

    def jet(pts: Array) -> Jet:
        def derivative(du: Array, w: Array) -> Array:
            out = np.empty(w.shape)
            for sl, block_derivative in zip(man.ambient_slices, derivatives):
                out[:, sl] = block_derivative(pts[:, sl], du[:, sl], w[:, sl])
            return out

        return field.fn(pts), derivative

    return ACSField(man, field.fn, field.name, jet)


# ---------------------------------------------------------------------------
# Brackets and the Nijenhuis tensor
# ---------------------------------------------------------------------------

def check_step(h: float) -> None:
    """Reject a finite-difference step outside [1e-9, 1e-2], where neither
    truncation nor round-off dominates the bracket."""
    if not 1e-9 <= h <= 1e-2:
        raise StepSizeError(f"finite-difference step {h} outside [1e-9, 1e-2]")


def lie_bracket_fd_batch(
    man: ProductManifold,
    X: Callable[[Array], Array],
    Y: Callable[[Array], Array],
    pts: Array,
    h: float = TOL.fd_step,
    project: bool = True,
) -> Array:
    """[X, Y] = (DY) X - (DX) Y on the radial extensions of the tangent
    fields X and Y, batched evaluators pts -> (n, ambient_dim)."""
    check_step(h)
    g = to_geometric(man, pts)
    vx = X(pts)
    vy = Y(pts)
    dyx = (Y(normalize_blocks(man, g + h * vx)) - Y(normalize_blocks(man, g - h * vx))) / (2 * h)
    dxy = (X(normalize_blocks(man, g + h * vy)) - X(normalize_blocks(man, g - h * vy))) / (2 * h)
    bracket = dyx - dxy
    return tangent_project(man, pts, bracket) if project else bracket


class PairStacks:
    """What ``nijenhuis_batch`` needs of the tangent vectors x, y at the rows
    pts besides J: the tangent projectors, the displacements [Jx, Jy, x, y]
    and their velocities P_a v_a / r_a (x, y filled in, the Jx, Jy halves
    scratch), and the vectors [y, x, y, x] the derivatives of J meet.  None
    of it depends on J; one evaluation at a time."""

    def __init__(self, man: ProductManifold, x: Array, y: Array, pts: Array):
        self.x, self.y, self.pts = x, y, pts
        self.projectors = tangent_projectors(man, pts)
        self.radii = man.ambient_radii[:, np.newaxis]
        self.cols = np.empty(x.shape + (4,))
        self.cols[..., 2] = x
        self.cols[..., 3] = y
        self.vel = np.empty(self.cols.shape)
        np.divide(self.projectors @ self.cols[..., 2:], self.radii, out=self.vel[..., 2:])
        self.pairs = self.cols[..., [3, 2, 3, 2]]
        self.projectors.flags.writeable = False
        self.pairs.flags.writeable = False


def nijenhuis_batch(
    Jf: ACSField, x: Array, y: Array, pts: Array, stacks: PairStacks | None = None
) -> Array:
    """N(x, y) at each row of pts for the tangent vectors x, y there, both
    (n, ambient_dim).

    Exact: one jet of J at the rows gives its values and its derivatives
    along the displacements Jx, Jy, x and y, and that is the whole tensor
    (module docstring).  ``stacks``, the ``PairStacks`` of these very x, y
    and pts, is built here if not given; the frozen energy objective passes
    its own, so each of its evaluations does only the work that depends on J.
    """
    if stacks is None:
        stacks = PairStacks(Jf.manifold, x, y, pts)
    elif not (stacks.x is x and stacks.y is y and stacks.pts is pts):
        raise ContractViolation("pair stacks evaluated on other tangent pairs")
    j, dj = Jf.jet(pts)
    pi, cols, vel = stacks.projectors, stacks.cols, stacks.vel
    # the displacements Jx, Jy and their velocities
    np.matmul(j, cols[..., 2:], out=cols[..., :2])
    np.divide(pi @ cols[..., :2], stacks.radii, out=vel[..., :2])
    # (D_Jx J) y, (D_Jy J) x, (D_x J) y, (D_y J) x
    t = dj(vel, stacks.pairs)
    value = t[..., :1] - t[..., 1:2] + j @ (t[..., 3:] - t[..., 2:3])
    return (pi @ value)[..., 0]


# ---------------------------------------------------------------------------
# Energy over seeded frame pairs
# ---------------------------------------------------------------------------

def sample_tangent_pairs(
    man: ProductManifold, pts: Array, frame_pairs: int, seed: int | np.random.Generator
) -> tuple[Array, Array, Array]:
    """Seeded orthonormal tangent pairs at each point.

    Returns (points_repeated, xs, ys) with rows ordered point-major, so the
    reduction over rows is point-index ordered and deterministic.

    The seed may also be a ``Generator``, which the draw uses as it is and
    advances.  Row by row the pairs come from consecutive normals of one C
    order fill, and the tangent bases are computed per row, so drawing the
    rows of ``np.repeat(pts, frame_pairs, axis=0)`` block after block with
    ``frame_pairs=1`` from one ``default_rng(seed)`` gives, bit for bit, the
    pairs of one whole-batch call with ``seed``.
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
    # written so that a NaN norm (a non-finite point) fails too
    norms = np.linalg.norm(xs, axis=1, keepdims=True)
    if not np.all(norms >= 1e-12):
        raise DegenerateInput("degenerate tangent pair sample")
    xs = xs / norms
    ys = ys - np.sum(ys * xs, axis=1, keepdims=True) * xs
    norms = np.linalg.norm(ys, axis=1, keepdims=True)
    if not np.all(norms >= 1e-12):
        raise DegenerateInput("degenerate tangent pair sample")
    ys = ys / norms
    pts_rep = np.repeat(pts, frame_pairs, axis=0)
    return pts_rep, xs, ys


def nijenhuis_sq_norms(
    Jf: ACSField, x: Array, y: Array, pts: Array, stacks: PairStacks | None = None
) -> Array:
    """|N(x, y)|^2, one entry per row (``stacks`` as in ``nijenhuis_batch``)."""
    values = nijenhuis_batch(Jf, x, y, pts, stacks)
    return np.sum(values * values, axis=1)


# Rows per block of the one-shot evaluations below: the block's repeated
# points, its tangent pair draw and its nijenhuis_sq_norms call.  A block of
# the gauged S^2 x S^4 field holds about 16 kB of temporaries per row.  The
# field-batch benchmark peaks at 56.7-56.9 MB with 128 to 512 rows and at
# 62.7 MB with 1024 (BENCH_streamed_pairs.json), so 512 is the largest size
# at the floor and keeps the call count lowest.
NIJENHUIS_BLOCK_ROWS = 512


def _blocked_sq_norms(Jf: ACSField, pts: Array, frame_pairs: int, seed: int) -> Array:
    """|N|^2 at the seeded frame pairs of ``sample_tangent_pairs``, in its
    row order, NIJENHUIS_BLOCK_ROWS rows at a time: each block repeats its
    points, draws its pairs from one generator stream (equal, bit for bit, to
    the whole-batch draw) and evaluates them, so only the points and the
    output grow with the batch.  A block may split a point's frame pairs.
    N is computed row by row, so each value is the one a single whole-batch
    call gives, except in round-off where a field's evaluator takes a 2-D
    matrix product over all its rows (BLAS rounds those with the row count,
    as in the gauge family's two products of theta, with the features and
    with their gradient).  Not for frozen fields, which are
    bound to exactly one row batch."""
    if frame_pairs < 1:
        raise ContractViolation("frame_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty(pts.shape[0] * frame_pairs)
    for start in range(0, out.size, NIJENHUIS_BLOCK_ROWS):
        stop = min(start + NIJENHUIS_BLOCK_ROWS, out.size)
        rows = pts[np.arange(start, stop) // frame_pairs]
        _, xs, ys = sample_tangent_pairs(Jf.manifold, rows, 1, rng)
        out[start:stop] = nijenhuis_sq_norms(Jf, xs, ys, rows)
    return out


def nijenhuis_energy(Jf: ACSField, pts: Array, frame_pairs: int = 2, seed: int = 0) -> float:
    """Mean of |N(X_i, Y_i)|^2 over seeded orthonormal tangent frame pairs at
    each sample point; zero exactly for integrable fields, deterministic in
    the seed."""
    if pts.shape[0] == 0:
        raise ContractViolation("energy needs at least one sample point")
    return float(np.mean(_blocked_sq_norms(Jf, pts, frame_pairs, seed)))


def nijenhuis_norms(Jf: ACSField, pts: Array, frame_pairs: int = 2, seed: int = 0) -> Array:
    """Per-point root-mean-square Nijenhuis norm over the seeded frame pairs."""
    sq_norms = _blocked_sq_norms(Jf, pts, frame_pairs, seed)
    return np.sqrt(np.mean(sq_norms.reshape(pts.shape[0], frame_pairs), axis=1))


def acs_field_validity_check(Jf: ACSField, pts: Array) -> AuditReport:
    """The ACS defects (``acs_defects``) of the tangent-space restriction
    B^T J B in the orthonormal tangent bases B, over the whole batch."""
    man = Jf.manifold
    pts = unit_rows(man, pts)
    bases = tangent_bases(man, pts)
    restricted = np.swapaxes(bases, 1, 2) @ Jf(pts) @ bases
    report = AuditReport()
    report.add(
        "pointwise-validity",
        np.max(acs_defects(man, restricted), initial=0.0),
        0.0,
        TOL.acs_validity,
        f"tangent restriction passes the ACS validator at the first {pts.shape[0]} sample points",
    )
    return report


def second_factor_restriction_check(Jf: ACSField, pts: Array) -> AuditReport:
    """Compare N of a structure field on S^2 x S^6 on two second-factor
    tangent fields against the standalone 6-sphere evaluation at the same
    points; no first-factor component may appear."""
    man = Jf.manifold
    if tuple(f.dim for f in man.factors) != (2, 6):
        raise InvalidManifold("the restriction check needs factors (2-sphere, 6-sphere)")
    report = AuditReport()
    man6 = ProductManifold((man.factors[1],))
    j6 = default_acs_field(man6)
    sl6 = man.ambient_slices[1]
    amb_x = np.zeros(man.ambient_dim)
    amb_y = np.zeros(man.ambient_dim)
    amb_x[3], amb_y[5] = 1.0, 1.0
    # tangent projection works factor by factor, so the second-factor
    # blocks of x and y are the 6-sphere's own projections
    x = projected_constant_field(man, amb_x)(pts)
    y = projected_constant_field(man, amb_y)(pts)
    full = nijenhuis_batch(Jf, x, y, pts)
    alone = nijenhuis_batch(j6, x[:, sl6], y[:, sl6], pts[:, sl6])
    for k in range(pts.shape[0]):
        diff = float(np.linalg.norm(full[k, sl6] - alone[k]))
        leak = float(np.max(np.abs(full[k, : sl6.start])))
        report.add(
            f"restriction[{k}].match", diff, 0.0, TOL.exact_nijenhuis,
            "product-field N on second-factor fields == standalone evaluation",
        )
        report.add(
            f"restriction[{k}].first-factor-leak", leak, 0.0, TOL.exact_nijenhuis,
            "no first-factor component appears",
        )
    return report
