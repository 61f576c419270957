import numpy as np
import pytest

from sphereacs.acs import (
    OrthogonalACS,
    canonical_product_acs,
    random_block_diagonal_acs,
    random_orthogonal_acs,
    swap_acs,
    validate_acs,
)
from sphereacs.errors import ContractViolation, InvalidManifold
from sphereacs.identities import (
    _half_trace,
    block_preservation_probe,
    gray_combination,
    ricci_star,
    ricci_star_bilinear,
    ricci_star_component_audit,
    ricci_star_identity_check,
    splitting_defect,
)
from sphereacs.manifold import CurvatureOracle, spheres


def first_block_pair(man):
    x = np.zeros(man.total_dim)
    y = np.zeros(man.total_dim)
    x[0], y[1] = 1.0, 1.0
    return x, y


# ---------------------------------------------------------------------------
# Gray combination
# ---------------------------------------------------------------------------

def test_gray_vanishes_on_single_round_sphere():
    for beta in (0.5, 1.0, 2.0):
        man = spheres((6, beta))
        oracle = CurvatureOracle(man)
        rng = np.random.default_rng(int(beta * 10))
        for s in range(60):
            J = random_orthogonal_acs(man, [s, int(beta * 2)])
            w, x, y, z = rng.standard_normal((4, 6))
            assert abs(gray_combination(oracle, J, w, x, y, z)) < 1e-10


def test_gray_vanishes_for_canonical_product_of_2_spheres():
    man = spheres((2, 1.0), (2, 1.0), (2, 3.0))
    oracle = CurvatureOracle(man)
    J = canonical_product_acs(man)
    rng = np.random.default_rng(1)
    for _ in range(100):
        w, x, y, z = rng.standard_normal((4, 6))
        assert abs(gray_combination(oracle, J, w, x, y, z)) < 1e-10


def test_gray_generically_nonzero_for_mixing_structures():
    man = spheres((2, 1.0), (4, 1.0))
    oracle = CurvatureOracle(man)
    x, y = first_block_pair(man)
    values = [
        abs(gray_combination(oracle, random_orthogonal_acs(man, s), x, y, x, y))
        for s in range(20)
    ]
    assert max(values) > 0.05


def test_gray_on_pair_inputs_equals_splitting_defect():
    man = spheres((2, 1.3), (4, 0.8))
    oracle = CurvatureOracle(man)
    x, y = first_block_pair(man)
    for s in range(30):
        J = random_orthogonal_acs(man, s)
        d = splitting_defect(oracle, J, x, y)
        assert gray_combination(oracle, J, x, y, x, y) == pytest.approx(d.direct, abs=1e-15)


# ---------------------------------------------------------------------------
# Splitting defect
# ---------------------------------------------------------------------------

def c_zero_structure(man):
    """Explicit structure on S2 x S4 sending the 2-sphere frame pair fully
    into the 4-sphere block: c = <Jx, y> = 0."""
    m = np.zeros((6, 6))
    m[2, 0] = 1.0  # J e0 = e2
    m[3, 1] = 1.0  # J e1 = e3
    m[0, 2] = -1.0
    m[1, 3] = -1.0
    m[5, 4] = 1.0  # J e4 = e5
    m[4, 5] = -1.0
    return OrthogonalACS(man, m)


def test_splitting_defect_split_structure_is_zero():
    man = spheres((2, 1.0), (4, 1.0))
    oracle = CurvatureOracle(man)
    x, y = first_block_pair(man)
    J = random_block_diagonal_acs(man, 5)
    d = splitting_defect(oracle, J, x, y)
    assert abs(d.c) == pytest.approx(1.0, abs=1e-12)
    assert d.direct == pytest.approx(0.0, abs=1e-12)
    assert d.closed_form == pytest.approx(0.0, abs=1e-12)
    assert d.product_norm_form == pytest.approx(0.0, abs=1e-12)


def test_splitting_defect_c_zero_structure():
    man = spheres((2, 1.0), (4, 1.0))
    oracle = CurvatureOracle(man)
    x, y = first_block_pair(man)
    J = c_zero_structure(man)
    assert validate_acs(J).passed
    d = splitting_defect(oracle, J, x, y)
    assert d.c == 0.0
    assert d.second_factor_term == pytest.approx(-1.0, abs=1e-13)
    assert d.closed_form == pytest.approx(-2.0, abs=1e-13)
    assert d.direct == pytest.approx(d.closed_form, abs=1e-10)


def test_splitting_defect_oracle_equivalence_sampled():
    for alpha, beta in ((1.0, 1.0), (2.0, 0.5)):
        man = spheres((2, alpha), (4, beta))
        oracle = CurvatureOracle(man)
        x, y = first_block_pair(man)
        for s in range(300):
            J = random_orthogonal_acs(man, [s, int(alpha)])
            d = splitting_defect(oracle, J, x, y)
            assert abs(d.direct - d.closed_form) < 1e-10
            assert d.direct <= 1e-12


def test_splitting_defect_strictly_negative_when_mixing():
    man = spheres((2, 1.0), (4, 1.0))
    oracle = CurvatureOracle(man)
    x, y = first_block_pair(man)
    found = 0
    for s in range(200):
        J = random_orthogonal_acs(man, s)
        d = splitting_defect(oracle, J, x, y)
        if 1e-6 < 1.0 - d.c * d.c:
            found += 1
            assert d.direct < 0.0
    assert found > 150


def test_splitting_defect_variant_forms_share_sign_and_zeros():
    man = spheres((2, 1.0), (4, 1.0))
    oracle = CurvatureOracle(man)
    x, y = first_block_pair(man)
    max_gap = 0.0
    for s in range(200):
        J = random_orthogonal_acs(man, s)
        d = splitting_defect(oracle, J, x, y)
        assert d.product_norm_form <= 1e-12
        # same zero set
        if abs(d.direct) < 1e-12:
            assert abs(d.product_norm_form) < 1e-10
        if abs(d.product_norm_form) < 1e-12:
            assert abs(d.direct) < 1e-10
        max_gap = max(max_gap, abs(d.product_norm_form - d.closed_form))
    # the two closed forms are genuinely different polynomials in c
    assert max_gap > 1e-3


def test_splitting_defect_contract_checks():
    man = spheres((2, 1.0), (4, 1.0))
    oracle = CurvatureOracle(man)
    J = random_orthogonal_acs(man, 0)
    x, y = first_block_pair(man)
    with pytest.raises(ContractViolation):
        splitting_defect(oracle, J, 2.0 * x, y)
    with pytest.raises(ContractViolation):
        splitting_defect(oracle, J, x, x)
    bad = np.zeros(6)
    bad[3] = 1.0
    with pytest.raises(ContractViolation):
        splitting_defect(oracle, J, x, bad)
    man46 = spheres((4, 1.0), (6, 1.0))
    with pytest.raises(InvalidManifold):
        splitting_defect(CurvatureOracle(man46), random_orthogonal_acs(man46, 1),
                         np.eye(10)[0], np.eye(10)[1])


def test_splitting_defect_single_2_sphere_edge_case():
    man = spheres((2, 2.0))
    oracle = CurvatureOracle(man)
    x, y = first_block_pair(man)
    J = canonical_product_acs(man)
    d = splitting_defect(oracle, J, x, y)
    assert abs(d.c) == pytest.approx(1.0, abs=1e-14)
    assert d.direct == pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# Ricci *-tensor
# ---------------------------------------------------------------------------

def test_ricci_star_single_factor_is_beta_identity():
    beta = 1.3
    man = spheres((6, beta))
    oracle = CurvatureOracle(man)
    for s in range(5):
        form = ricci_star(oracle, random_orthogonal_acs(man, s))
        assert np.max(np.abs(form.matrix - beta * np.eye(6))) < 1e-12


def test_ricci_star_block_diagonal_structure_values():
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    J = random_block_diagonal_acs(man, 4)
    form = ricci_star(oracle, J)
    expected = np.diag([1.0] * 6 + [2.0] * 6)
    assert np.max(np.abs(form.matrix - expected)) < 1e-11


def test_ricci_star_swap_structure_vanishes():
    man = spheres((6, 1.0), (6, 1.0))
    oracle = CurvatureOracle(man)
    form = ricci_star(oracle, swap_acs(man))
    assert np.max(np.abs(form.matrix)) == 0.0


def test_ricci_star_matches_trace_definition():
    # tr(Z -> R(X, JZ) JY) must equal the -(1/2) frame contraction
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    J = random_orthogonal_acs(man, 11)
    eye = np.eye(man.total_dim)
    rng = np.random.default_rng(2)
    for _ in range(10):
        xv, yv = rng.standard_normal((2, man.total_dim))
        jy = J.matrix @ yv
        trace = sum(
            oracle.product_curvature(xv, J.matrix @ eye[k], jy, eye[k])
            for k in range(man.total_dim)
        )
        assert ricci_star_bilinear(oracle, J, xv, yv) == pytest.approx(
            trace, rel=1e-11, abs=1e-11
        )


def test_ricci_star_frame_independence():
    man = spheres((6, 1.0), (6, 0.5))
    oracle = CurvatureOracle(man)
    J = random_orthogonal_acs(man, 3)
    rng = np.random.default_rng(7)
    from sphereacs.acs import haar_orthogonal

    q = haar_orthogonal(man.total_dim, rng)
    xv, yv = rng.standard_normal((2, man.total_dim))
    jy = J.matrix @ yv
    rotated = -0.5 * sum(
        oracle.product_curvature(xv, jy, q[:, k], J.matrix @ q[:, k])
        for k in range(man.total_dim)
    )
    assert ricci_star_bilinear(oracle, J, xv, yv) == pytest.approx(rotated, rel=1e-11, abs=1e-11)


def curvature_weighted_diagonal(man, J):
    """K = (+)_a kappa_a J_aa: the diagonal blocks of J scaled by their
    factor curvature, the closed form of the half trace -u^T K v."""
    K = np.zeros((man.total_dim, man.total_dim))
    for a, (f, sl) in enumerate(zip(man.factors, man.block_slices)):
        K[sl, sl] = f.curvature * J.block(a, a)
    return K


CLOSED_FORM_MANIFOLDS = [((6, 1.0), (6, 2.0)), ((2, 1.0), (4, 0.5), (6, 2.0))]


@pytest.mark.parametrize("dims", CLOSED_FORM_MANIFOLDS)
def test_half_trace_matches_closed_form(dims):
    man = spheres(*dims)
    oracle = CurvatureOracle(man)
    rng = np.random.default_rng(31)
    for s in range(5):
        J = random_orthogonal_acs(man, [s, 31])
        K = curvature_weighted_diagonal(man, J)
        u, v = rng.standard_normal((2, 9, man.total_dim))
        expected = -np.einsum("si,ij,sj->s", u, K, v)
        assert np.max(np.abs(_half_trace(oracle, J, u, v) - expected)) <= 1e-12
        single = _half_trace(oracle, J, u[0], v[0])
        assert type(single) is float
        assert single == pytest.approx(expected[0], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dims", CLOSED_FORM_MANIFOLDS)
def test_ricci_star_matrix_is_minus_k_j(dims):
    man = spheres(*dims)
    oracle = CurvatureOracle(man)
    for s in range(5):
        J = random_orthogonal_acs(man, [s, 32])
        form = ricci_star(oracle, J)
        closed = -curvature_weighted_diagonal(man, J) @ J.matrix
        assert np.max(np.abs(form.matrix - closed)) <= 1e-13


def test_stacked_structures_match_single_evaluations():
    man = spheres((2, 1.3), (4, 0.8))
    oracle = CurvatureOracle(man)
    structures = [random_orthogonal_acs(man, [s, 33]) for s in range(6)]
    stack = np.stack([J.matrix for J in structures])
    rng = np.random.default_rng(33)
    w, x, y, z = rng.standard_normal((4, 6, man.total_dim))
    gray = gray_combination(oracle, stack, w, x, y, z)
    rho = ricci_star_bilinear(oracle, stack, x, y)
    p, q = first_block_pair(man)
    split = splitting_defect(oracle, stack, p, q)
    for s, J in enumerate(structures):
        assert gray[s] == pytest.approx(
            gray_combination(oracle, J, w[s], x[s], y[s], z[s]), rel=1e-12, abs=1e-12
        )
        assert rho[s] == pytest.approx(
            ricci_star_bilinear(oracle, J, x[s], y[s]), rel=1e-12, abs=1e-12
        )
        one = splitting_defect(oracle, J, p, q)
        for field in ("direct", "closed_form", "product_norm_form", "c", "second_factor_term"):
            assert getattr(split, field)[s] == pytest.approx(
                getattr(one, field), rel=1e-12, abs=1e-12
            )


def test_ricci_star_exchange_identity():
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    for s in range(5):
        J = random_orthogonal_acs(man, s)
        form = ricci_star(oracle, J)
        report = ricci_star_identity_check(form, 50, seed=s)
        assert report.passed
    # swap probe: the identity is universal even where the component audit mismatches
    form = ricci_star(CurvatureOracle(spheres((6, 1.0), (6, 1.0))),
                      swap_acs(spheres((6, 1.0), (6, 1.0))))
    assert ricci_star_identity_check(form, 50, seed=0).passed


def test_ricci_star_canonical_2_sphere_identity_tight():
    man = spheres((2, 1.0), (2, 1.0))
    oracle = CurvatureOracle(man)
    form = ricci_star(oracle, canonical_product_acs(man))
    report = ricci_star_identity_check(form, 100, seed=1)
    assert report.checks[0].computed <= 1e-13


# ---------------------------------------------------------------------------
# Component audit
# ---------------------------------------------------------------------------

def test_component_audit_block_diagonal_passes():
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    for s in range(5):
        report = ricci_star_component_audit(oracle, random_block_diagonal_acs(man, s))
        assert report.mismatches() == []
        assert report.max_error() < 1e-9


def test_component_audit_swap_probe_same_factor_mismatch():
    man = spheres((6, 1.0), (6, 1.0))
    oracle = CurvatureOracle(man)
    report = ricci_star_component_audit(oracle, swap_acs(man))
    same_factor = [c for c in report.select("star-same-factor[") if not c.passed]
    assert same_factor, "the same-factor family must record mismatches for the swap probe"
    for check in same_factor:
        assert check.computed == pytest.approx(0.0, abs=1e-12)
        assert check.expected == pytest.approx(1.0)
    # recorded, never asserted: the report as a whole still passes
    assert report.passed
    assert all(not c.asserted for c in report.checks)


def test_component_audit_single_factor_cross_families_vacuous():
    man = spheres((6, 0.7))
    oracle = CurvatureOracle(man)
    report = ricci_star_component_audit(oracle, random_orthogonal_acs(man, 2))
    assert report.select("star-cross-factor[") == []
    assert report.select("star-right-rotated-cross[") == []
    assert report.select("star-left-rotated-cross[") == []
    for family in ("star-same-factor", "star-right-rotated", "star-left-rotated"):
        checks = report.select(family + "[")
        assert len(checks) == 36
        assert all(c.passed for c in checks)


def test_component_audit_rows_follow_their_formulas():
    # every row against its own scalar contraction and claimed coefficient,
    # on a factor-mixing structure where the claims do not hold
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    J = random_orthogonal_acs(man, 12)
    m, off, betas = J.matrix, man.block_offsets, man.curvatures
    e = np.eye(man.total_dim)

    def h(u, v):
        return _half_trace(oracle, J, u, v)

    def c(a, b, i, j):
        return J.coefficient_block(a, b)[i, j]

    formulas = {
        "star-same-factor": lambda a, b, i, j: (
            h(e[off[a] + i], m[:, off[a] + j]), betas[a] * (i == j)),
        "star-right-rotated": lambda a, b, i, j: (
            -h(e[off[a] + i], e[off[a] + j]), betas[a] * c(a, a, j, i)),
        "star-left-rotated": lambda a, b, i, j: (
            h(m[:, off[a] + i], m[:, off[a] + j]), betas[a] * c(a, a, i, j)),
        "star-cross-factor": lambda a, b, i, j: (h(e[off[a] + i], m[:, off[b] + j]), 0.0),
        "star-right-rotated-cross": lambda a, b, i, j: (
            -h(e[off[a] + i], e[off[b] + j]), 0.0),
        "star-left-rotated-cross": lambda a, b, i, j: (
            h(m[:, off[b] + i], m[:, off[a] + j]), -betas[a] * c(a, b, i, j)),
    }
    rows = [row for row in ricci_star_component_audit(oracle, J).checks
            if not row.name.endswith("-max")]
    assert len(rows) == 6 * 2 * 36
    for row in rows:
        family, label = row.name[:-1].split("[")
        idx = {k: int(v) for k, v in (kv.split("=") for kv in label.split(","))}
        computed, claimed = formulas[family](idx["a"], idx.get("b", idx["a"]), idx["i"], idx["j"])
        assert row.computed == pytest.approx(computed, abs=1e-12)
        assert row.expected == pytest.approx(claimed, abs=1e-15)


def test_component_audit_rejects_non_6_sphere():
    man = spheres((2, 1.0), (6, 1.0))
    with pytest.raises(InvalidManifold):
        ricci_star_component_audit(CurvatureOracle(man), random_orthogonal_acs(man, 0))


# ---------------------------------------------------------------------------
# Block preservation probe
# ---------------------------------------------------------------------------

def test_probe_block_diagonal():
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    form = ricci_star(oracle, random_block_diagonal_acs(man, 1))
    probe = block_preservation_probe(form)
    assert probe.symmetry_defect <= 1e-13
    assert probe.off_block_mass <= 1e-13


def test_probe_swap():
    man = spheres((6, 1.0), (6, 1.0))
    oracle = CurvatureOracle(man)
    probe = block_preservation_probe(ricci_star(oracle, swap_acs(man)))
    assert probe.symmetry_defect <= 1e-13
    assert probe.off_block_mass == pytest.approx(1.0)


def test_probe_random_structure_reports_values():
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    probe = block_preservation_probe(ricci_star(oracle, random_orthogonal_acs(man, 9)))
    assert np.isfinite(probe.symmetry_defect)
    assert np.isfinite(probe.off_block_mass)
    assert probe.off_block_mass > 0.1  # generic structures mix factors
