import numpy as np
import pytest

from sphereacs import fields
from sphereacs.config import TOL
from sphereacs.errors import ContractViolation, DegenerateInput, InvalidManifold, StepSizeError
from sphereacs.fields import (
    FACTOR_BLOCK_BUILDERS,
    ACSField,
    acs_field_validity_check,
    complex_step,
    PairStacks,
    default_acs_field,
    frozen_field,
    frozen_rows,
    lie_bracket_fd_batch,
    nijenhuis_batch,
    nijenhuis_energy,
    nijenhuis_norms,
    nijenhuis_sq_norms,
    normalize_blocks,
    product_acs_field,
    projected_constant_field,
    s2_rotation_blocks,
    s4_chart_blocks,
    s4_integrable_chart_blocks,
    s6_octonion_blocks,
    sample_tangent_pairs,
    tangent_bases,
    tangent_project,
    tangent_projectors,
    unit_rows,
)
from sphereacs.search import GaugeParametrization
from sphereacs.manifold import spheres
from sphereacs.report import AuditReport
from sphereacs.octonion import cross7
from sphereacs.sampling import (
    chart_safe_points,
    fibonacci_sphere,
    low_discrepancy_directions,
    manifold_points,
)
from tangent_fields import cross_matrix, image, linear_field, rotation_field

S2 = spheres((2, 1.0))
S6 = spheres((6, 1.0))
S2XS4 = spheres((2, 1.0), (4, 1.0))


# ---------------------------------------------------------------------------
# Basic geometry plumbing
# ---------------------------------------------------------------------------

def test_row_validator_rejects_off_sphere_rows():
    # both field checks validate their batch: shape (n, ambient_dim) and a
    # unit vector in every factor block, NaN included
    Jf = default_acs_field(S2XS4)
    good = chart_safe_points(S2XS4, 3, seed=1)
    assert acs_field_validity_check(Jf, good).passed
    assert nijenhuis_tensoriality_check(Jf, good, seed=2).passed
    # rows within the tolerance come back re-normalised
    renormalised = unit_rows(S2XS4, good * (1.0 + 1e-10))
    for sl in S2XS4.ambient_slices:
        assert np.max(np.abs(np.linalg.norm(renormalised[:, sl], axis=1) - 1.0)) < 1e-15
    off_sphere, zero_block, nan = good.copy(), good.copy(), good.copy()
    off_sphere[1, 3:] *= 1.5
    zero_block[2, :3] = 0.0
    nan[0, 4] = np.nan
    for bad in (good[:, :5], good[0], off_sphere, zero_block, nan):
        with pytest.raises(ContractViolation):
            acs_field_validity_check(Jf, bad)
        with pytest.raises(ContractViolation):
            nijenhuis_tensoriality_check(Jf, bad, seed=2)


def test_normalize_blocks_and_projection():
    man = spheres((2, 1.0), (4, 1.0))
    rng = np.random.default_rng(0)
    q = rng.standard_normal((10, 8))
    u = normalize_blocks(man, q)
    for sl in man.ambient_slices:
        assert np.allclose(np.linalg.norm(u[:, sl], axis=1), 1.0, atol=1e-13)
    v = rng.standard_normal((10, 8))
    t = tangent_project(man, u, v)
    for sl in man.ambient_slices:
        assert np.max(np.abs(np.sum(t[:, sl] * u[:, sl], axis=1))) < 1e-13
    with pytest.raises(DegenerateInput):
        normalize_blocks(man, np.zeros((1, 8)))


def test_tangent_bases_orthonormal():
    man = spheres((2, 1.0), (6, 2.0))
    pts = manifold_points(man, 30, seed=1)
    bases = tangent_bases(man, pts)
    assert bases.shape == (30, 10, 8)
    for k in range(30):
        b = bases[k]
        assert np.allclose(b.T @ b, np.eye(8), atol=1e-12)
        # columns are tangent: orthogonal to each factor direction
        for sl in man.ambient_slices:
            assert np.max(np.abs(pts[k, sl] @ b[sl])) < 1e-12


# ---------------------------------------------------------------------------
# Lie brackets
# ---------------------------------------------------------------------------

AXIS_1 = np.array([1.0, 0.2, -0.3])
AXIS_2 = np.array([-0.4, 1.1, 0.5])


def closed_form_rotation_bracket(pts):
    # [X_a, X_b](x) = -(a x b) x x for rotation fields on the unit 2-sphere
    return pts @ cross_matrix(-np.cross(AXIS_1, AXIS_2)).T


def test_bracket_matches_rotation_oracle():
    X = rotation_field(S2, 0, AXIS_1)
    Y = rotation_field(S2, 0, AXIS_2)
    pts = fibonacci_sphere(12, seed=3)
    got = lie_bracket_fd_batch(S2, X, Y, pts)
    assert np.max(np.linalg.norm(got - closed_form_rotation_bracket(pts), axis=1)) < TOL.fd_bracket


def test_bracket_second_order_convergence():
    # halving h must quarter the error against the closed form
    X = rotation_field(S2, 0, AXIS_1)
    Y = rotation_field(S2, 0, AXIS_2)
    pts = fibonacci_sphere(9, seed=3)
    expected = closed_form_rotation_bracket(pts)
    errs = {}
    for h in (4e-3, 2e-3, 1e-3):
        got = lie_bracket_fd_batch(S2, X, Y, pts, h=h)
        errs[h] = np.linalg.norm(got - expected, axis=1)
    for big, small in ((4e-3, 2e-3), (2e-3, 1e-3)):
        ratio = float(np.median(errs[big] / errs[small]))
        assert 3.5 <= ratio <= 4.5


def test_bracket_of_field_with_itself_vanishes():
    X = rotation_field(S2, 0, AXIS_1)
    pts = fibonacci_sphere(15, seed=1)
    assert np.max(np.abs(lie_bracket_fd_batch(S2, X, X, pts))) < 1e-8


def test_bracket_bilinearity():
    X = rotation_field(S2, 0, AXIS_1)
    Y = rotation_field(S2, 0, AXIS_2)
    Z = rotation_field(S2, 0, np.array([0.3, -0.7, 0.9]))
    pts = fibonacci_sphere(8, seed=5)
    y_plus_z = lambda q: Y(q) + Z(q)
    lhs = lie_bracket_fd_batch(S2, X, y_plus_z, pts)
    rhs = lie_bracket_fd_batch(S2, X, Y, pts) + lie_bracket_fd_batch(S2, X, Z, pts)
    assert np.max(np.abs(lhs - rhs)) < TOL.fd_linear


def test_bracket_radius_scaling():
    # the same unit-direction fields on a radius-r sphere scale the bracket
    man_r = spheres((2, 4.0))  # radius 1/2
    X1, Y1 = rotation_field(S2, 0, AXIS_1), rotation_field(S2, 0, AXIS_2)
    Xr, Yr = rotation_field(man_r, 0, AXIS_1), rotation_field(man_r, 0, AXIS_2)
    pts = fibonacci_sphere(6, seed=2)
    b1 = lie_bracket_fd_batch(S2, X1, Y1, pts)
    br = lie_bracket_fd_batch(man_r, Xr, Yr, pts)
    # linear fields scale with radius, so the bracket does too
    assert np.allclose(br, 0.5 * b1, atol=1e-8)


def test_bracket_step_size_contract():
    X = rotation_field(S2, 0, AXIS_1)
    pts = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(StepSizeError):
        lie_bracket_fd_batch(S2, X, X, pts, h=1e-10)
    with pytest.raises(StepSizeError):
        lie_bracket_fd_batch(S2, X, X, pts, h=0.5)


def test_bracket_tangency_before_projection():
    X = rotation_field(S2, 0, AXIS_1)
    Y = rotation_field(S2, 0, AXIS_2)
    pts = fibonacci_sphere(10, seed=7)
    raw = lie_bracket_fd_batch(S2, X, Y, pts, project=False)
    normal = np.sum(raw * pts, axis=1)
    assert np.max(np.abs(normal)) < TOL.fd_bracket


def test_linear_field_requires_skew():
    with pytest.raises(ContractViolation):
        linear_field(S2, 0, np.eye(3))


# ---------------------------------------------------------------------------
# Nijenhuis tensor: integrable and non-integrable references
# ---------------------------------------------------------------------------

def test_canonical_s2_structure_is_integrable():
    Jf = default_acs_field(S2)
    X = projected_constant_field(S2, np.array([1.0, 0.0, 0.0]))
    Y = projected_constant_field(S2, np.array([0.0, 1.0, 0.5]))
    pts = fibonacci_sphere(20, seed=2)
    values = nijenhuis_batch(Jf, X(pts), Y(pts), pts)
    assert np.max(np.linalg.norm(values, axis=1)) < TOL.exact_nijenhuis


def exact_s6_nijenhuis(u, a, b):
    """Exact-bracket oracle for the octonionic structure with the
    projected-constant coordinate fields of ambient vectors a, b.

    Every field involved has a closed-form derivative, so the four brackets
    in the tensor's definition are evaluated without finite differences:
    only octonion algebra enters.
    """

    def proj(w):
        return w - np.dot(w, u) * u

    x, y = proj(a), proj(b)

    def d_coord(vec, w):
        # derivative of q -> vec - <vec, n> n along tangent w at u
        return -np.dot(vec, w) * u - np.dot(vec, u) * w

    def d_jcoord(vec, value, w):
        # derivative of q -> n(q) x (vec - <vec, n> n) along tangent w
        return cross7(w, value) + cross7(u, d_coord(vec, w))

    jx, jy = cross7(u, x), cross7(u, y)
    b_xy = d_coord(b, x) - d_coord(a, y)
    b_jxjy = d_jcoord(b, y, jx) - d_jcoord(a, x, jy)
    b_jxy = d_coord(b, jx) - d_jcoord(a, x, y)
    b_xjy = d_jcoord(b, y, x) - d_coord(a, jy)
    return b_jxjy - b_xy - cross7(u, b_jxy) - cross7(u, b_xjy)


def fd_nijenhuis(Jf, X, Y, pts):
    """The FD oracle: the four brackets of the definition, each by central
    differences, with J applied at the centre rows."""
    man = Jf.manifold
    JX, JY = image(Jf, X), image(Jf, Y)
    j = Jf(pts)

    def apply(v):
        return np.einsum("nij,nj->ni", j, v)

    return (
        lie_bracket_fd_batch(man, JX, JY, pts)
        - lie_bracket_fd_batch(man, X, Y, pts)
        - apply(lie_bracket_fd_batch(man, JX, Y, pts))
        - apply(lie_bracket_fd_batch(man, X, JY, pts))
    )


def test_octonionic_s6_matches_exact_bracket_oracle():
    # the exact engine meets the closed-form oracle to round-off; the FD
    # oracle only to its O(h^2) truncation
    Jf = default_acs_field(S6)
    rng = np.random.default_rng(0)
    for k in range(8):
        u = low_discrepancy_directions(1, 7, seed=10 + k)[0]
        a, b = rng.standard_normal((2, 7))
        X = projected_constant_field(S6, a)
        Y = projected_constant_field(S6, b)
        pts = u[np.newaxis]
        value = nijenhuis_batch(Jf, X(pts), Y(pts), pts)[0]
        oracle = exact_s6_nijenhuis(u, a, b)
        assert np.max(np.abs(value - oracle)) < 1e-12
        fd = fd_nijenhuis(Jf, X, Y, pts)[0]
        assert np.max(np.abs(fd - oracle)) < TOL.fd_bracket


def gauged_field(degree, man=S2XS4):
    par = GaugeParametrization(man, degree, generators=4, seed=3)
    theta = 0.3 * np.random.default_rng([3, degree]).standard_normal(par.n_params)
    return par.field(theta, default_acs_field(man))


EXACT_FIXTURES = {
    "s2": lambda: default_acs_field(S2),
    "s6-octonion": lambda: default_acs_field(S6),
    # non-integrable fields at non-unit curvature: the engine's velocities
    # carry the factor radii, which curvature 1 cannot see
    "s6-octonion-k4": lambda: default_acs_field(spheres((6, 4.0))),
    "s2xs6": lambda: product_acs_field(
        spheres((2, 1.0), (6, 1.0)), [s2_rotation_blocks, s6_octonion_blocks], "s2xs6"
    ),
    "s2xs4-chart": lambda: product_acs_field(S2XS4, [s2_rotation_blocks, s4_chart_blocks]),
    "s2xs4-integrable-chart": lambda: product_acs_field(
        S2XS4, [s2_rotation_blocks, s4_integrable_chart_blocks]
    ),
    "gauged-deg0": lambda: gauged_field(0),
    "gauged-deg1": lambda: gauged_field(1),
    "gauged-deg2": lambda: gauged_field(2),
    "gauged-deg2-k4": lambda: gauged_field(2, spheres((2, 4.0), (4, 0.25))),
}


@pytest.mark.parametrize("fixture", sorted(EXACT_FIXTURES))
def test_exact_nijenhuis_matches_fd_oracle(fixture):
    Jf = EXACT_FIXTURES[fixture]()
    man = Jf.manifold
    pts = chart_safe_points(man, 12, seed=4)
    rng = np.random.default_rng(5)
    X = projected_constant_field(man, rng.standard_normal(man.ambient_dim))
    Y = projected_constant_field(man, rng.standard_normal(man.ambient_dim))
    exact = nijenhuis_batch(Jf, X(pts), Y(pts), pts)
    fd = fd_nijenhuis(Jf, X, Y, pts)
    assert np.max(np.abs(exact - fd)) < TOL.fd_bracket
    # the oracle differentiates the frame fields, which do not commute, and
    # the term of the definition that the engine omits, P (I + J^2) [X, Y],
    # is zero to round-off
    bracket = lie_bracket_fd_batch(man, X, Y, pts, project=False)
    assert np.min(np.linalg.norm(bracket, axis=1)) >= 0.1
    j = Jf(pts)
    omitted = tangent_project(man, pts, bracket + np.einsum("nij,nj->ni", j @ j, bracket))
    assert np.max(np.linalg.norm(omitted, axis=1)) <= TOL.exact_nijenhuis


@pytest.mark.parametrize("curvatures", [(1.0, 1.0), (4.0, 0.25)])
def test_integrable_fixtures_reach_round_off(curvatures):
    # no finite-difference floor: integrable structures give energies at
    # the square of double-precision round-off
    s2 = spheres((2, curvatures[0]))
    assert nijenhuis_energy(default_acs_field(s2), fibonacci_sphere(200, seed=1), 2, seed=11) <= 1e-24
    man = spheres((2, curvatures[0]), (4, curvatures[1]))
    flat = product_acs_field(man, [s2_rotation_blocks, s4_integrable_chart_blocks])
    assert nijenhuis_energy(flat, chart_safe_points(man, 100, seed=2), 2, seed=3) <= 1e-24


def test_complex_step_rejects_a_dropped_imaginary_part():
    # an evaluator that casts its input to float would give a zero
    # derivative; the complex step raises instead
    pts = fibonacci_sphere(4, seed=1)
    X = projected_constant_field(S2, np.array([1.0, 0.0, 0.0]))
    Y = projected_constant_field(S2, np.array([0.0, 1.0, 0.5]))
    casts = [
        lambda q: s2_rotation_blocks(np.asarray(q, dtype=float)),
        lambda q: s2_rotation_blocks(q.astype(float)),
    ]
    for cast in casts:
        with pytest.raises(ContractViolation):
            nijenhuis_batch(ACSField(S2, cast, "cast"), X(pts), Y(pts), pts)
    with pytest.raises(ContractViolation):
        complex_step(lambda q: np.array(q, dtype=float), pts, pts)


def test_complex_step_is_the_directional_derivative():
    # linear field: the derivative along du is S du exactly
    skew = cross_matrix(AXIS_1)
    X = linear_field(S2, 0, skew)
    pts = fibonacci_sphere(6, seed=2)
    du = tangent_project(S2, pts, np.random.default_rng(1).standard_normal((6, 3)))
    assert np.max(np.abs(complex_step(X, pts, du) - du @ skew.T)) < 1e-15


def test_frozen_field_matches_the_field_on_its_rows_only():
    base = default_acs_field(S2XS4)
    pts = chart_safe_points(S2XS4, 5, seed=1)
    frozen = frozen_field(base, pts)
    rng = np.random.default_rng(2)
    # the draws as three (5, 8) rows each, laid out as column stacks (5, 8, 3)
    du = np.moveaxis(tangent_project(S2XS4, pts, rng.standard_normal((3, 5, 8))), 0, -1)
    w = np.moveaxis(rng.standard_normal((3, 5, 8)), 0, -1)
    value, derivative = frozen.jet(pts)
    base_value, base_derivative = base.jet(pts)
    assert np.array_equal(frozen(pts), base(pts))
    assert np.array_equal(value, base_value)
    assert np.max(np.abs(derivative(du, w) - base_derivative(du, w))) < 1e-12
    moved = pts.copy()
    moved[0] = pts[1]
    for off_rows in (moved, pts[:3], pts + 1e-15):
        with pytest.raises(ContractViolation):
            frozen(off_rows)
        with pytest.raises(ContractViolation):
            frozen.jet(off_rows)


def test_frozen_rows_are_shared_only_when_already_read_only():
    # the frozen pieces of one batch share one read-only array, so their row
    # checks pass by identity; anything the caller can still write is copied
    pts = chart_safe_points(S2XS4, 4, seed=3)
    rows = frozen_rows(pts)
    assert rows is not pts and np.array_equal(rows, pts)
    assert not rows.flags.writeable and pts.flags.writeable
    assert frozen_rows(rows) is rows
    view = rows[:2]
    assert frozen_rows(view) is not view


def test_frozen_field_keeps_its_own_copy_of_the_rows():
    # writing to the caller's array after freezing changes nothing frozen:
    # the moved rows are off the batch and raise, the old rows still match
    pts = chart_safe_points(S2XS4, 4, seed=3)
    rows = pts.copy()
    base = default_acs_field(S2XS4)
    frozen = frozen_field(base, rows)
    rows[0] = rows[1]
    with pytest.raises(ContractViolation):
        frozen.jet(rows)
    assert np.array_equal(frozen(pts), base(pts))


def _one_column_at_a_time(derivative, *stacks):
    k = stacks[0].shape[-1]
    return np.concatenate([derivative(*(s[..., j:j + 1] for s in stacks)) for j in range(k)], axis=-1)


def test_stacked_jets_equal_one_column_calls():
    # a k-column stack gives the k one-column derivatives, for every kind
    # of jet: the complex-step default, the built-in closed forms, the
    # frozen field and the gauged family, fresh and frozen
    man = S2XS4
    pts = chart_safe_points(man, 6, seed=7)
    rng = np.random.default_rng(7)
    du = tangent_projectors(man, pts) @ rng.standard_normal((6, 8, 4))
    w = rng.standard_normal((6, 8, 4))
    base = default_acs_field(man)
    par = GaugeParametrization(man, degree=2, generators=4, seed=7)
    theta = 0.3 * rng.standard_normal(par.n_params)
    structures = {
        "complex-step": product_acs_field(man, [s2_rotation_blocks, s4_chart_blocks]),
        "default": base,
        "frozen": frozen_field(base, pts),
        "gauged": par.field(theta, base),
        "gauged-frozen": par.frozen(pts).field(theta, frozen_field(base, pts)),
    }
    for name, Jf in structures.items():
        _, derivative = Jf.jet(pts)
        stacked = derivative(du, w)
        assert stacked.shape == w.shape, name
        np.testing.assert_allclose(
            stacked, _one_column_at_a_time(derivative, du, w), rtol=1e-13, atol=1e-13, err_msg=name
        )


def _near_chart_margin(n: int, margin: float, seed: int) -> np.ndarray:
    """Unit points of S^4 whose last coordinate is just above -1 + margin,
    the edge of ``chart_safe_mask``."""
    rng = np.random.default_rng(seed)
    last = -1.0 + margin * (1.0 + 1e-3 * rng.random(n))
    head = rng.standard_normal((n, 4))
    head *= np.sqrt(1.0 - last**2)[:, np.newaxis] / np.linalg.norm(head, axis=1, keepdims=True)
    return np.column_stack([head, last])


@pytest.mark.parametrize("dim", sorted(FACTOR_BLOCK_BUILDERS))
def test_block_derivatives_match_the_complex_step_of_their_builders(dim):
    # each closed form against the complex step of its own builder, on
    # stacked and on single-column calls; the 4-sphere chart also at points
    # on the edge of the default and of a tight chart margin, where its
    # derivatives grow like 1 / (1 + u_N)^2
    builder, derivative = FACTOR_BLOCK_BUILDERS[dim]
    u = chart_safe_points(spheres((dim, 1.0)), 12, seed=dim)
    if dim == 4:
        u = np.concatenate([u, _near_chart_margin(4, 0.05, 1), _near_chart_margin(4, 1e-4, 2)])
    rng = np.random.default_rng(dim)
    du, w = rng.standard_normal((2,) + u.shape + (3,))
    reference = np.concatenate(
        [complex_step(builder, u, du[..., j]) @ w[..., j, np.newaxis] for j in range(3)], axis=-1
    )
    scale = np.max(np.abs(reference), axis=(1, 2), keepdims=True)
    stacked = derivative(u, du, w)
    assert stacked.shape == w.shape
    assert np.max(np.abs(stacked - reference) / scale) <= 1e-14
    for j in range(3):
        single = derivative(u, du[..., j : j + 1], w[..., j : j + 1])
        assert np.max(np.abs(single - reference[..., j : j + 1]) / scale) <= 1e-14


@pytest.mark.parametrize("curvatures", [(4.0,), (0.25,), (1.0, 2.0), (4.0, 0.25)])
def test_default_jet_matches_the_complex_step_jet(curvatures):
    # the closed-form jet of default_acs_field against the complex step of
    # the same blocks through product_acs_field, away from curvature 1: the
    # values are the same evaluator's, the derivatives and N agree to round-off
    dims = {1: [(2,), (6,), (4,)], 2: [(2, 6), (2, 4)]}[len(curvatures)]
    for dim in dims:
        man = spheres(*zip(dim, curvatures))
        Jf = default_acs_field(man)
        reference = product_acs_field(man, [FACTOR_BLOCK_BUILDERS[d][0] for d in dim])
        pts = chart_safe_points(man, 10, seed=4)
        rng = np.random.default_rng(4)
        du = tangent_projectors(man, pts) @ rng.standard_normal(pts.shape + (4,))
        w = rng.standard_normal(pts.shape + (4,))
        value, derivative = Jf.jet(pts)
        reference_value, reference_derivative = reference.jet(pts)
        assert np.array_equal(value, reference_value)
        expected = reference_derivative(du, w)
        assert np.max(np.abs(derivative(du, w) - expected)) <= 1e-13 * np.max(np.abs(expected))
        _, xs, ys = sample_tangent_pairs(man, pts, 2, seed=5)
        rows = np.repeat(pts, 2, axis=0)
        expected_n = nijenhuis_batch(reference, xs, ys, rows)
        assert np.max(np.abs(nijenhuis_batch(Jf, xs, ys, rows) - expected_n)) <= 1e-13 * max(
            1.0, np.max(np.abs(expected_n))
        )


def test_default_jet_takes_no_complex_step(monkeypatch):
    # the built-in fields behind the nijenhuis commands and the gauged base
    # differentiate in closed form; only hand-built fields, product_acs_field
    # and frozen_field take the complex step
    def no_complex_step(*args):
        raise AssertionError("complex step taken")

    monkeypatch.setattr(fields, "complex_step", no_complex_step)
    for man in (S2, S6, spheres((2, 1.0), (6, 1.0)), S2XS4):
        Jf = default_acs_field(man)
        pts = chart_safe_points(man, 6, seed=1)
        stack = np.ones(pts.shape + (2,))
        Jf.jet(pts)[1](stack, stack)
        assert np.all(np.isfinite(nijenhuis_norms(Jf, pts, 2, seed=1)))
    with pytest.raises(AssertionError):
        nijenhuis_norms(product_acs_field(S2, [s2_rotation_blocks]), fibonacci_sphere(6, seed=1), 2, seed=1)


def test_octonionic_s6_is_far_from_integrable():
    # coordinate fields at a generic point
    Jf = default_acs_field(S6)
    u = low_discrepancy_directions(1, 7, seed=9)[0]
    X = projected_constant_field(S6, np.eye(7)[0])
    Y = projected_constant_field(S6, np.eye(7)[2])
    pts = u[np.newaxis]
    assert np.linalg.norm(nijenhuis_batch(Jf, X(pts), Y(pts), pts)) >= 0.1


def test_octonionic_s6_nearly_kaehler_closed_form():
    # the exact oracle reduces to N(X, Y) = -4 u x proj(x x y) pointwise
    rng = np.random.default_rng(3)
    for k in range(10):
        u = low_discrepancy_directions(1, 7, seed=20 + k)[0]
        a, b = rng.standard_normal((2, 7))
        x = a - np.dot(a, u) * u
        y = b - np.dot(b, u) * u
        cand = -4.0 * cross7(u, cross7(x, y) - np.dot(cross7(x, y), u) * u)
        assert np.max(np.abs(exact_s6_nijenhuis(u, a, b) - cand)) < 1e-12


def test_product_restriction_to_second_factor():
    man = spheres((2, 1.0), (6, 1.0))
    Jf = product_acs_field(man, [s2_rotation_blocks, s6_octonion_blocks], "s2xs6")
    amb_x = np.zeros(10)
    amb_y = np.zeros(10)
    amb_x[3], amb_y[5] = 1.0, 1.0
    X = projected_constant_field(man, amb_x)
    Y = projected_constant_field(man, amb_y)
    J6 = default_acs_field(S6)
    X6 = projected_constant_field(S6, amb_x[3:])
    Y6 = projected_constant_field(S6, amb_y[3:])
    u2 = fibonacci_sphere(3, seed=4)
    u6 = low_discrepancy_directions(3, 7, seed=4)
    pts = np.concatenate([u2, u6], axis=1)
    full = nijenhuis_batch(Jf, X(pts), Y(pts), pts)
    alone = nijenhuis_batch(J6, X6(u6), Y6(u6), u6)
    assert np.max(np.abs(full[:, :3])) < TOL.exact_nijenhuis
    assert np.max(np.abs(full[:, 3:] - alone)) < TOL.exact_nijenhuis


def test_nijenhuis_antisymmetry_and_j_invariance():
    Jf = default_acs_field(S6)
    rng = np.random.default_rng(8)
    pts = low_discrepancy_directions(1, 7, seed=31)
    X = projected_constant_field(S6, rng.standard_normal(7))
    Y = projected_constant_field(S6, rng.standard_normal(7))
    n_xy = nijenhuis_batch(Jf, X(pts), Y(pts), pts)
    n_yx = nijenhuis_batch(Jf, Y(pts), X(pts), pts)
    assert np.max(np.abs(n_xy + n_yx)) < TOL.exact_nijenhuis
    JX, JY = image(Jf, X), image(Jf, Y)
    n_jj = nijenhuis_batch(Jf, JX(pts), JY(pts), pts)
    assert np.max(np.abs(n_jj + n_xy)) < TOL.exact_nijenhuis


def test_nijenhuis_sample_tangency():
    Jf = default_acs_field(S6)
    pts = low_discrepancy_directions(5, 7, seed=2)
    X = projected_constant_field(S6, np.eye(7)[1])
    Y = projected_constant_field(S6, np.eye(7)[4])
    values = nijenhuis_batch(Jf, X(pts), Y(pts), pts)
    assert np.max(np.abs(np.sum(values * pts, axis=1))) < 1e-12


# ---------------------------------------------------------------------------
# Tensoriality
# ---------------------------------------------------------------------------

def nijenhuis_tensoriality_check(Jf, pts, seed, scalar_field=None) -> AuditReport:
    """Check N(f x, y) = f N(x, y) at every given point for a seeded
    polynomial scalar f and the seeded vectors x, y there: with vector
    inputs this checks that the engine's N is linear in x.  Goes through
    ``fields.nijenhuis_batch`` so a patched engine is the one checked."""
    man = Jf.manifold
    pts = unit_rows(man, pts)
    rng = np.random.default_rng(seed)
    if scalar_field is None:
        coeffs = 0.5 * rng.standard_normal(man.ambient_dim)
        const = 1.0 + 0.25 * rng.standard_normal()

        def scalar_field(pts):
            return const + pts @ coeffs

    x = projected_constant_field(man, rng.standard_normal(man.ambient_dim))(pts)
    y = projected_constant_field(man, rng.standard_normal(man.ambient_dim))(pts)
    f = scalar_field(pts)[:, np.newaxis]
    lhs = fields.nijenhuis_batch(Jf, f * x, y, pts)
    rhs = f * fields.nijenhuis_batch(Jf, x, y, pts)
    report = AuditReport()
    report.add(
        "tensoriality",
        np.max(np.linalg.norm(lhs - rhs, axis=1), initial=0.0),
        0.0,
        TOL.exact_nijenhuis,
        "N(f X, Y) == f N(X, Y) at every point",
    )
    return report


def test_tensoriality_canonical_s2():
    Jf = default_acs_field(S2)
    assert nijenhuis_tensoriality_check(Jf, fibonacci_sphere(5, seed=6), seed=3).passed


def test_tensoriality_octonion_first_coordinate():
    Jf = default_acs_field(S6)
    pts = low_discrepancy_directions(4, 7, seed=5)

    def first_coordinate(pts):
        return pts[:, 0]

    report = nijenhuis_tensoriality_check(Jf, pts, seed=4, scalar_field=first_coordinate)
    assert report.passed


def test_exact_engine_checks_reject_offsets_above_round_off(monkeypatch):
    # the restriction and tensoriality checks gate the exact engine at
    # round-off, so an error of 1e-8 in every Nijenhuis value must fail both
    exact = fields.nijenhuis_batch
    monkeypatch.setattr(fields, "nijenhuis_batch", lambda *args: exact(*args) + 1e-8)
    man = spheres((2, 1.0), (6, 1.0))
    Jf = product_acs_field(man, [s2_rotation_blocks, s6_octonion_blocks], "s2xs6")
    pts = np.concatenate([fibonacci_sphere(3, seed=4), low_discrepancy_directions(3, 7, seed=4)], axis=1)
    assert not fields.second_factor_restriction_check(Jf, pts).passed
    pts6 = low_discrepancy_directions(1, 7, seed=5)
    assert not nijenhuis_tensoriality_check(default_acs_field(S6), pts6, seed=3).passed


def test_tensoriality_gauged_field():
    from sphereacs.search import GaugeParametrization

    man = spheres((2, 1.0), (4, 1.0))
    par = GaugeParametrization(man, degree=1, generators=3, seed=5)
    theta = 0.3 * np.random.default_rng(5).standard_normal(par.n_params)
    Jf = par.field(theta, default_acs_field(man))
    pts = chart_safe_points(man, 4, seed=6)
    report = nijenhuis_tensoriality_check(Jf, pts, seed=11)
    assert report.passed


# ---------------------------------------------------------------------------
# Built-in structures: validity and integrability fixtures
# ---------------------------------------------------------------------------

def test_builtin_fields_pointwise_validity():
    cases = [
        (S2, default_acs_field(S2)),
        (S6, default_acs_field(S6)),
        (spheres((4, 1.0)), default_acs_field(spheres((4, 1.0)))),
        (spheres((2, 1.0), (4, 1.0), (6, 2.0)),
         default_acs_field(spheres((2, 1.0), (4, 1.0), (6, 2.0)))),
    ]
    for man, field in cases:
        pts = chart_safe_points(man, 100, seed=3)
        assert acs_field_validity_check(field, pts).passed


def test_s4_chart_variants():
    man4 = spheres((4, 1.0))
    pts = chart_safe_points(man4, 60, seed=8)
    integrable = product_acs_field(man4, [s4_integrable_chart_blocks], "flat-chart")
    twisted = product_acs_field(man4, [s4_chart_blocks], "twisted-chart")
    assert acs_field_validity_check(integrable, pts[:20]).passed
    assert acs_field_validity_check(twisted, pts[:20]).passed
    # the pole-rotation frame carries the locally integrable chart structure;
    # the twisted frame is genuinely non-integrable
    assert nijenhuis_energy(integrable, pts, frame_pairs=2, seed=1) < 1e-12
    assert nijenhuis_energy(twisted, pts, frame_pairs=2, seed=1) > 0.1


def test_chart_base_is_one_gauge_rotation_from_integrable():
    # s4_chart_blocks = R J_int R^T with R = rot tw rot^T, so Q = R^T is a
    # rotation of the tangent space fixing u (a gauge rotation) that takes
    # the search's base to the integrable chart structure: on the chart the
    # gauge energy's infimum is 0, not a positive floor
    u = chart_safe_points(spheres((4, 1.0)), 400, seed=8)
    rot = fields._s4_pole_rotation(u)
    R = rot @ fields._s4_twist(u) @ rot.transpose(0, 2, 1)
    Q = R.transpose(0, 2, 1)
    assert np.max(np.abs(Q.transpose(0, 2, 1) @ Q - np.eye(5))) <= TOL.linalg
    assert np.max(np.abs(np.einsum("nij,nj->ni", Q, u) - u)) <= TOL.linalg
    gauged = Q @ s4_chart_blocks(u) @ Q.transpose(0, 2, 1)
    assert np.max(np.abs(gauged - s4_integrable_chart_blocks(u))) <= TOL.linalg


def test_s4_chart_bad_set_rejected():
    antipode = np.zeros((1, 5))
    antipode[0, -1] = -1.0
    with pytest.raises(DegenerateInput):
        s4_chart_blocks(antipode)


def test_default_field_rejects_unknown_dimension():
    with pytest.raises(InvalidManifold):
        default_acs_field(spheres((8, 1.0)))


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------

def test_energy_canonical_product_2_spheres():
    man = spheres((2, 1.0), (2, 1.0))
    Jf = default_acs_field(man)
    pts = manifold_points(man, 200, seed=5)
    assert nijenhuis_energy(Jf, pts, frame_pairs=2, seed=5) < 1e-10


def test_energy_octonionic_positive_and_seed_stable():
    Jf = default_acs_field(S6)
    energies = []
    for k in range(3):
        pts = low_discrepancy_directions(200, 7, seed=100 + k)
        energies.append(nijenhuis_energy(Jf, pts, frame_pairs=3, seed=200 + k))
    assert min(energies) > 0.0
    assert (max(energies) - min(energies)) / min(energies) < 0.05


def test_energy_deterministic():
    Jf = default_acs_field(S6)
    pts = low_discrepancy_directions(50, 7, seed=1)
    a = nijenhuis_energy(Jf, pts, frame_pairs=2, seed=3)
    b = nijenhuis_energy(Jf, pts, frame_pairs=2, seed=3)
    assert a == b


def test_energy_needs_points():
    Jf = default_acs_field(S6)
    with pytest.raises(ContractViolation):
        nijenhuis_energy(Jf, np.zeros((0, 7)), frame_pairs=1, seed=0)


def test_nijenhuis_norms_match_energy():
    Jf = default_acs_field(S6)
    pts = low_discrepancy_directions(30, 7, seed=2)
    norms = nijenhuis_norms(Jf, pts, frame_pairs=2, seed=9)
    energy = nijenhuis_energy(Jf, pts, frame_pairs=2, seed=9)
    assert norms.shape == (30,)
    assert float(np.mean(norms**2)) == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("fixture, rel", [
    ("s2", 0.0), ("s6-octonion", 0.0), ("s2xs6", 0.0), ("gauged-deg2", 1e-13),
])
def test_row_blocks_equal_one_batch(monkeypatch, fixture, rel):
    # 23 points x 2 frame pairs = 46 rows in 7-row blocks: the last block is
    # short, and the pairs of points 3, 10 and 17 straddle two blocks.  N is
    # computed row by row; only the gauged field's two 2-D matrix products
    # over the rows, of theta with the features and with their gradient,
    # round differently with the row count
    Jf = EXACT_FIXTURES[fixture]()
    pts = chart_safe_points(Jf.manifold, 23, seed=6)
    rows, xs, ys = sample_tangent_pairs(Jf.manifold, pts, 2, seed=7)
    whole = nijenhuis_sq_norms(Jf, xs, ys, rows)
    block_rows = []

    def counted(Jf, x, y, pts):
        block_rows.append(pts.shape[0])
        return nijenhuis_sq_norms(Jf, x, y, pts)

    monkeypatch.setattr(fields, "NIJENHUIS_BLOCK_ROWS", 7)
    monkeypatch.setattr(fields, "nijenhuis_sq_norms", counted)
    norms = nijenhuis_norms(Jf, pts, frame_pairs=2, seed=7)
    energy = nijenhuis_energy(Jf, pts, frame_pairs=2, seed=7)
    assert block_rows == 2 * ([7] * 6 + [4])
    expected_norms = np.sqrt(np.mean(whole.reshape(23, 2), axis=1))
    expected_energy = float(np.mean(whole))
    if rel == 0.0:
        assert np.array_equal(norms, expected_norms)
        assert energy == expected_energy
    else:
        assert np.max(np.abs(norms - expected_norms) / expected_norms) <= rel
        assert abs(energy - expected_energy) <= rel * expected_energy


def one_shot_peak(Jf, n: int, frame_pairs: int) -> int:
    """tracemalloc peak of ``nijenhuis_norms`` at n chart-safe points, the
    points themselves not counted."""
    import tracemalloc

    pts = chart_safe_points(Jf.manifold, n, seed=8)
    tracemalloc.start()
    try:
        nijenhuis_norms(Jf, pts, frame_pairs=frame_pairs, seed=8)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_shot_memory_is_flat_in_the_batch_size():
    # the per-row temporaries of a block dominate the peak; only the output
    # grows with the points
    Jf = EXACT_FIXTURES["gauged-deg2"]()
    block = fields.NIJENHUIS_BLOCK_ROWS
    assert one_shot_peak(Jf, 4 * block, 1) <= 1.5 * one_shot_peak(Jf, block, 1)


@pytest.mark.parametrize("fixture", ["s2", "s6-octonion", "s2xs6", "gauged-deg2"])
def test_one_shot_memory_is_flat_for_every_field(fixture):
    # each block draws its own tangent pairs, so a batch 16 times as large
    # peaks where one block does, whatever the field's per-row cost
    Jf = EXACT_FIXTURES[fixture]()
    block = fields.NIJENHUIS_BLOCK_ROWS
    assert one_shot_peak(Jf, 16 * block, 2) <= 1.5 * one_shot_peak(Jf, block, 2)


@pytest.mark.parametrize("man", [spheres((2, 1.0), (6, 1.0)), S2XS4, S6], ids=["s2xs6", "s2xs4", "s6"])
def test_streamed_pair_draw_equals_the_whole_batch_draw(man):
    # 20 points x 3 frame pairs in 7-row blocks, which split the pairs of
    # several points, from one generator stream
    pts = chart_safe_points(man, 20, seed=3)
    whole = sample_tangent_pairs(man, pts, 3, 11)
    rng = np.random.default_rng(11)
    blocks = [
        sample_tangent_pairs(man, pts[np.arange(start, min(start + 7, 60)) // 3], 1, rng)
        for start in range(0, 60, 7)
    ]
    for whole_part, streamed in zip(whole, zip(*blocks)):
        assert np.array_equal(np.concatenate(streamed), whole_part)


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("frame_pairs", [0, -1])
def test_one_shot_evaluations_reject_frame_pairs_below_one(monkeypatch, n, frame_pairs):
    # fails closed before the first block, so an empty batch, which has no
    # blocks, does not come back as an empty result
    drawn = []

    def counted(*args):
        drawn.append(args)
        return sample_tangent_pairs(*args)

    monkeypatch.setattr(fields, "sample_tangent_pairs", counted)
    Jf = default_acs_field(S6)
    pts = low_discrepancy_directions(5, 7, seed=2)[:n]
    for evaluation in (nijenhuis_norms, nijenhuis_energy):
        with pytest.raises(ContractViolation):
            evaluation(Jf, pts, frame_pairs=frame_pairs, seed=1)
    assert drawn == []


def test_sample_tangent_pairs_orthonormal():
    man = spheres((2, 1.0), (4, 1.0))
    pts = chart_safe_points(man, 20, seed=4)
    pts_rep, xs, ys = sample_tangent_pairs(man, pts, 3, seed=1)
    assert pts_rep.shape == (60, 8)
    assert np.allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(ys, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(np.sum(xs * ys, axis=1))) < 1e-12
    for sl in man.ambient_slices:
        assert np.max(np.abs(np.sum(xs[:, sl] * pts_rep[:, sl], axis=1))) < 1e-12


def test_energy_gauge_sensitivity_is_smooth():
    # central and forward difference quotients of the energy along a fixed
    # gauge direction agree, i.e. the objective responds smoothly
    from sphereacs.search import GaugeParametrization, make_energy_objective

    man = spheres((2, 1.0), (4, 1.0))
    par = GaugeParametrization(man, degree=0, generators=3, seed=2)
    pts = chart_safe_points(man, 40, seed=2)
    objective = make_energy_objective(par, default_acs_field(man), pts, 1, pair_seed=2)
    theta = 0.2 * np.random.default_rng(1).standard_normal(par.n_params)
    direction = np.zeros(par.n_params)
    direction[0] = 1.0
    delta = 1e-3
    e_p, e_m = objective(theta + delta * direction), objective(theta - delta * direction)
    central = (e_p - e_m) / (2 * delta)
    forward = (e_p - objective(theta)) / delta
    assert abs(central) > 1e-4  # a genuinely responsive direction
    assert abs(forward - central) < 0.05 * abs(central) + 1e-8


def test_one_shot_evaluations_reject_a_non_finite_point():
    # the pair draw's norm guards fail closed on NaN: one non-finite point
    # raises instead of coming back as a NaN norm and a NaN energy
    Jf = EXACT_FIXTURES["s2xs6"]()
    pts = chart_safe_points(Jf.manifold, 6, seed=4)
    for bad in (np.nan, np.inf):
        off = pts.copy()
        off[3, 0] = bad
        with np.errstate(invalid="ignore"):
            for evaluation in (nijenhuis_norms, nijenhuis_energy):
                with pytest.raises(DegenerateInput):
                    evaluation(Jf, off, frame_pairs=2, seed=1)
            with pytest.raises(DegenerateInput):
                sample_tangent_pairs(Jf.manifold, off, 1, 1)


def test_pair_stacks_serve_many_structures_on_their_own_pairs_only():
    # one PairStacks gives every structure on its pairs the values of a
    # fresh build, bit for bit, whatever ran on it before; other pairs raise
    man = S2XS4
    pts = chart_safe_points(man, 7, seed=5)
    rows, xs, ys = sample_tangent_pairs(man, pts, 2, 5)
    stacks = PairStacks(man, xs, ys, rows)
    base = default_acs_field(man)
    par = GaugeParametrization(man, degree=2, generators=4, seed=5)
    rng = np.random.default_rng(5)
    structures = [base] + [par.field(0.3 * rng.standard_normal(par.n_params), base) for _ in range(2)]
    for Jf in structures + structures[::-1]:
        assert np.array_equal(nijenhuis_batch(Jf, xs, ys, rows, stacks), nijenhuis_batch(Jf, xs, ys, rows))
    for other in ((ys, xs, rows), (xs.copy(), ys, rows), (xs, ys, rows.copy())):
        with pytest.raises(ContractViolation):
            nijenhuis_batch(base, *other, stacks)
