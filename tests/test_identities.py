from dataclasses import astuple

import numpy as np
import pytest

from sphereacs import identities, manifold, search
from sphereacs.acs import (
    canonical_product_acs,
    random_block_diagonal_acs,
    random_orthogonal_acs,
    random_orthogonal_matrices,
    swap_acs,
    validate_acs,
)
from sphereacs.cli import rows_to_csv
from sphereacs.config import TOL
from sphereacs.errors import ContractViolation, InvalidManifold
from sphereacs.identities import (
    _half_trace,
    component_audit_suite,
    gray_cancellation_audit,
    gray_combination,
    ricci_star,
    ricci_star_bilinear,
    ricci_star_component_audit,
    ricci_star_exchange_audit,
    splitting_defect,
)
from sphereacs.manifold import CurvatureOracle, spheres
from sphereacs.report import AuditReport
from sphereacs.search import splitting_audit, splitting_pressure_probe


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

def product_norm_form(man, J, x, y, d):
    """-alpha (1 - |(Jx)_1|^2 |(Jy)_1|^2) + second_factor_term: a grouping of
    the splitting defect that agrees with closed_form at c^2 in {0, 1} and
    shares its sign and zero set, but differs as a polynomial in c between
    the endpoints; (Jx)_1 is the first factor's block of Jx."""
    first = man.block_slices[0]
    jx1, jy1 = (J @ x)[first], (J @ y)[first]
    return -man.factors[0].curvature * (1.0 - (jx1 @ jx1) * (jy1 @ jy1)) + d.second_factor_term


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
    return m


def test_splitting_defect_split_structure_is_zero():
    man = spheres((2, 1.0), (4, 1.0))
    oracle = CurvatureOracle(man)
    x, y = first_block_pair(man)
    J = random_block_diagonal_acs(man, 5)
    d = splitting_defect(oracle, J, x, y)
    assert abs(d.c) == pytest.approx(1.0, abs=1e-12)
    assert d.direct == pytest.approx(0.0, abs=1e-12)
    assert d.closed_form == pytest.approx(0.0, abs=1e-12)
    assert product_norm_form(man, J, x, y, d) == pytest.approx(0.0, abs=1e-12)


def test_splitting_defect_c_zero_structure():
    man = spheres((2, 1.0), (4, 1.0))
    oracle = CurvatureOracle(man)
    x, y = first_block_pair(man)
    J = c_zero_structure(man)
    assert validate_acs(man, J).passed
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
        product_form = product_norm_form(man, J, x, y, d)
        assert product_form <= 1e-12
        # same zero set
        if abs(d.direct) < 1e-12:
            assert abs(product_form) < 1e-10
        if abs(product_form) < 1e-12:
            assert abs(d.direct) < 1e-10
        max_gap = max(max_gap, abs(product_form - d.closed_form))
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
        rho = ricci_star(oracle, random_orthogonal_acs(man, s))
        assert np.max(np.abs(rho - beta * np.eye(6))) < 1e-12


def test_ricci_star_block_diagonal_structure_values():
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    J = random_block_diagonal_acs(man, 4)
    rho = ricci_star(oracle, J)
    expected = np.diag([1.0] * 6 + [2.0] * 6)
    assert np.max(np.abs(rho - expected)) < 1e-11


def test_ricci_star_swap_structure_vanishes():
    man = spheres((6, 1.0), (6, 1.0))
    oracle = CurvatureOracle(man)
    rho = ricci_star(oracle, swap_acs(man))
    assert np.max(np.abs(rho)) == 0.0


def test_ricci_star_matches_trace_definition():
    # tr(Z -> R(X, JZ) JY) must equal the -(1/2) frame contraction
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    J = random_orthogonal_acs(man, 11)
    eye = np.eye(man.total_dim)
    rng = np.random.default_rng(2)
    for _ in range(10):
        xv, yv = rng.standard_normal((2, man.total_dim))
        jy = J @ yv
        trace = sum(
            oracle.product_curvature(xv, J @ eye[k], jy, eye[k])
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
    jy = J @ yv
    rotated = -0.5 * sum(
        oracle.product_curvature(xv, jy, q[:, k], J @ q[:, k])
        for k in range(man.total_dim)
    )
    assert ricci_star_bilinear(oracle, J, xv, yv) == pytest.approx(rotated, rel=1e-11, abs=1e-11)


def curvature_weighted_diagonal(man, J):
    """K = (+)_a kappa_a J_aa: the diagonal blocks of J scaled by their
    factor curvature, the closed form of the half trace -u^T K v."""
    K = np.zeros((man.total_dim, man.total_dim))
    for f, sl in zip(man.factors, man.block_slices):
        K[sl, sl] = f.curvature * J[sl, sl]
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
        rho = ricci_star(oracle, J)
        closed = -curvature_weighted_diagonal(man, J) @ J
        assert np.max(np.abs(rho - closed)) <= 1e-13
        assert not rho.flags.writeable


def test_stacked_structures_match_single_evaluations():
    man = spheres((2, 1.3), (4, 0.8))
    oracle = CurvatureOracle(man)
    structures = [random_orthogonal_acs(man, [s, 33]) for s in range(6)]
    stack = np.stack(structures)
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
        for field in ("direct", "closed_form", "c", "second_factor_term"):
            assert getattr(split, field)[s] == pytest.approx(
                getattr(one, field), rel=1e-12, abs=1e-12
            )


def exchange_defect(oracle, J, samples, seed):
    """max |rho*(X, Y) - rho*(JY, JX)| over seeded random vector pairs, by
    direct contraction."""
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, samples, oracle.manifold.total_dim))
    lhs = ricci_star_bilinear(oracle, J, x, y)
    rhs = ricci_star_bilinear(oracle, J, y @ J.T, x @ J.T)
    return np.max(np.abs(lhs - rhs))


def test_ricci_star_exchange_identity():
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    for s in range(5):
        J = random_orthogonal_acs(man, s)
        assert exchange_defect(oracle, J, 50, seed=s) <= TOL.contraction * 2.0
    # swap probe: the identity is universal even where the component audit mismatches
    man11 = spheres((6, 1.0), (6, 1.0))
    assert exchange_defect(CurvatureOracle(man11), swap_acs(man11), 50, seed=0) <= TOL.contraction


def test_ricci_star_canonical_2_sphere_identity_tight():
    man = spheres((2, 1.0), (2, 1.0))
    oracle = CurvatureOracle(man)
    assert exchange_defect(oracle, canonical_product_acs(man), 100, seed=1) <= 1e-13


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
    off, betas = man.block_offsets, man.curvatures
    e = np.eye(man.total_dim)

    def h(u, v):
        return _half_trace(oracle, J, u, v)

    def c(a, b, i, j):
        # the mapping coefficient from its definition, e(b)_j . J e(a)_i
        return e[off[b] + j] @ J @ e[off[a] + i]

    formulas = {
        "star-same-factor": lambda a, b, i, j: (
            h(e[off[a] + i], J[:, off[a] + j]), betas[a] * (i == j)),
        "star-right-rotated": lambda a, b, i, j: (
            -h(e[off[a] + i], e[off[a] + j]), betas[a] * c(a, a, j, i)),
        "star-left-rotated": lambda a, b, i, j: (
            h(J[:, off[a] + i], J[:, off[a] + j]), betas[a] * c(a, a, i, j)),
        "star-cross-factor": lambda a, b, i, j: (h(e[off[a] + i], J[:, off[b] + j]), 0.0),
        "star-right-rotated-cross": lambda a, b, i, j: (
            -h(e[off[a] + i], e[off[b] + j]), 0.0),
        "star-left-rotated-cross": lambda a, b, i, j: (
            h(J[:, off[b] + i], J[:, off[a] + j]), -betas[a] * c(a, b, i, j)),
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


def test_component_audit_maxima_are_the_largest_row_errors():
    # each family's -max row is the largest |computed - claimed| of its own
    # per-pair rows, bit for bit, on mixing and block-diagonal structures;
    # both curvature orders, since a cross family's largest error sits in
    # the block pairs of the larger curvature
    for factors in (
        ((6, 1.0), (6, 2.0)), ((6, 2.0), (6, 1.0)), ((6, 0.7),), ((6, 0.5), (6, 1.0), (6, 1.5)),
    ):
        man = spheres(*factors)
        oracle = CurvatureOracle(man)
        for J in (random_orthogonal_acs(man, 5), random_block_diagonal_acs(man, 5)):
            checks = ricci_star_component_audit(oracle, J).checks
            errors = {}
            for c in checks:
                if not c.name.endswith("-max"):
                    errors.setdefault(c.name.split("[")[0], []).append(c.error)
            maxima = [c for c in checks if c.name.endswith("-max")]
            assert [c.name for c in maxima] == [f"{f}-max" for f in sorted(errors)]
            for c in maxima:
                assert c.computed == max(errors[c.name[: -len("-max")]])


def reference_component_suite(manifold, samples, seed, structure=None, swap_probe=False):
    """The components suite with a full ricci_star_component_audit for every
    block-diagonal sample, keeping the rows whose names end in -max: the
    suite's family maxima must equal these rows exactly."""
    oracle = CurvatureOracle(manifold)
    report = AuditReport()
    if structure is not None:
        report.extend(validate_acs(manifold, structure))
        report.extend(ricci_star_component_audit(oracle, structure))
    for s in range(min(samples, 10)):
        sub = ricci_star_component_audit(oracle, random_block_diagonal_acs(manifold, [seed, s]))
        report.checks.extend(
            c._replace(name=f"blockdiag[{s}].{c.name}")
            for c in sub.checks
            if c.name.endswith("-max")
        )
    if swap_probe:
        sub = ricci_star_component_audit(oracle, swap_acs(manifold))
        report.checks.extend(
            c._replace(name=f"swap.{c.name}")
            for c in sub.checks
            if c.name.endswith("-max") or not c.passed
        )
    return report


@pytest.mark.parametrize("swap_probe", [False, True])
@pytest.mark.parametrize("given", [False, True])
@pytest.mark.parametrize("samples", [1, 3, 10, 500])
@pytest.mark.parametrize(
    "factors", [((6, 1.0), (6, 2.0)), ((6, 0.7),), ((6, 1.0), (6, 1.0), (6, 0.5))]
)
def test_component_suite_equals_full_audit_maxima(factors, samples, given, swap_probe):
    man = spheres(*factors)
    structure = random_orthogonal_acs(man, [samples, 9]) if given else None
    args = (man, samples, 9, structure, swap_probe)
    if swap_probe and man.n_factors != 2:
        with pytest.raises(InvalidManifold) as ref:
            reference_component_suite(*args)
        with pytest.raises(InvalidManifold) as got:
            component_audit_suite(*args)
        assert str(got.value) == str(ref.value)
        return
    expected = reference_component_suite(*args).checks
    got = component_audit_suite(*args).checks
    # names, claims, verdict fields and bit-equal values, in the same order
    assert got == expected
    assert len(got) > 0


def test_component_audit_rejects_non_6_sphere():
    man = spheres((2, 1.0), (6, 1.0))
    message = "^the component audit needs every factor to be a 6-sphere$"
    with pytest.raises(InvalidManifold, match=message):
        ricci_star_component_audit(CurvatureOracle(man), random_orthogonal_acs(man, 0))
    for structure in (None, random_orthogonal_acs(man, 0)):
        with pytest.raises(InvalidManifold, match=message):
            component_audit_suite(man, 3, 0, structure)


# ---------------------------------------------------------------------------
# Block preservation probe: rho* symmetry against the off-block mass of J
# ---------------------------------------------------------------------------

def symmetry_defect(rho):
    return float(np.max(np.abs(rho - rho.T)))


def off_block_mass(man, J):
    """Max |entry| of J over all off-factor blocks (0.0 for block-diagonal J)."""
    owner = np.repeat(np.arange(man.n_factors), [f.dim for f in man.factors])
    return float(np.max(np.abs(J[owner[:, np.newaxis] != owner[np.newaxis, :]]), initial=0.0))


def test_probe_block_diagonal():
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    J = random_block_diagonal_acs(man, 1)
    assert symmetry_defect(ricci_star(oracle, J)) <= 1e-13
    assert off_block_mass(man, J) <= 1e-13


def test_probe_swap():
    man = spheres((6, 1.0), (6, 1.0))
    oracle = CurvatureOracle(man)
    J = swap_acs(man)
    assert symmetry_defect(ricci_star(oracle, J)) <= 1e-13
    assert off_block_mass(man, J) == pytest.approx(1.0)


def test_probe_random_structure_reports_values():
    man = spheres((6, 1.0), (6, 2.0))
    oracle = CurvatureOracle(man)
    J = random_orthogonal_acs(man, 9)
    assert np.isfinite(symmetry_defect(ricci_star(oracle, J)))
    assert np.isfinite(off_block_mass(man, J))
    assert off_block_mass(man, J) > 0.1  # generic structures mix factors


@pytest.mark.parametrize("kappa", [1e-12, 1e4, 1e8])
def test_identity_audits_scale_their_tolerances_with_curvature(kappa):
    # the round-off of the curvature sums grows linearly with the curvature:
    # true identities exceed an absolute 1e-10 at kappa = 1e4, and at
    # kappa = 1e-12 an absolute bound could not fail at all
    man6 = spheres((6, kappa), (6, kappa))
    reports = [
        gray_cancellation_audit(spheres((6, kappa)), 200, 7),
        ricci_star_exchange_audit(man6, 200, 7),
        splitting_audit(spheres((2, kappa), (4, kappa)), 200, 7),
    ]
    for report in reports:
        assert report.passed
        assert max(c.tolerance for c in report.checks if c.kind == "check") <= 1e-9 * kappa
    J = random_orthogonal_acs(man6, 7)
    assert exchange_defect(CurvatureOracle(man6), J, 200, seed=7) <= TOL.contraction * kappa


# ---------------------------------------------------------------------------
# Structure streams of the sampled audits
# ---------------------------------------------------------------------------


def test_probe_sample_depends_only_on_seed_and_index(monkeypatch):
    # the probe's arrays at k samples are the first k at n samples, and do
    # not move with the block size; a stream rebuilt for each block would
    # repeat the first block's structures in the second
    man = spheres((2, 1.0), (4, 1.0))
    n, k = 40, 17
    full = astuple(splitting_pressure_probe(man, n, 3))
    for a, b in zip(full, astuple(splitting_pressure_probe(man, k, 3))):
        assert np.array_equal(a[:k], b)
    monkeypatch.setattr(manifold, "SAMPLE_BLOCK", 7)
    blocked = splitting_pressure_probe(man, n, 3)
    for a, b in zip(full, astuple(blocked)):
        assert np.array_equal(a, b)
    assert np.unique(blocked.c).size == np.unique(blocked.direct).size == n


def test_sampled_audit_reports_do_not_depend_on_the_block_size(monkeypatch):
    man6, man66 = spheres((6, 1.0)), spheres((6, 1.0), (6, 2.0))
    runs = []
    for block in (7, 256):
        monkeypatch.setattr(manifold, "SAMPLE_BLOCK", block)
        runs.append([
            rows_to_csv(gray_cancellation_audit(man6, 40, 5).checks),
            rows_to_csv(ricci_star_exchange_audit(man66, 40, 5).checks),
        ])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("audit, dims", [
    (gray_cancellation_audit, ((6, 1.0),)),
    (ricci_star_exchange_audit, ((6, 1.0), (6, 2.0))),
    (splitting_audit, ((2, 1.0), (4, 1.0))),
])
def test_sampled_audits_build_one_stream_per_kind(monkeypatch, audit, dims):
    # a count, not a timing: one structure stream per factor (or one) and
    # one vector stream, however many samples; 600 samples are three blocks,
    # where seeding each sample would build at least 600 generators.  No two
    # streams share a seed (SeedSequence pads with zeros, so [s, 0] is s).
    samples = 600
    assert samples > 2 * manifold.SAMPLE_BLOCK
    man = spheres(*dims)
    default_rng = np.random.default_rng
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    assert audit(man, samples, 11).passed
    assert 1 <= len(built) <= man.n_factors + 2
    firsts = {int(default_rng(*args).integers(2**62)) for args in built}
    assert len(firsts) == len(built)


def test_sampled_audits_fail_closed_on_factor_mixing_draws(monkeypatch):
    # the block-diagonal draws feed the asserted rows: mixing structures in
    # their place fail gray-cancellation and split-zero
    def mixing(manifold, count, rngs):
        return random_orthogonal_matrices(manifold, count, rngs[0])

    monkeypatch.setattr(identities, "random_block_diagonal_matrices", mixing)
    monkeypatch.setattr(search, "random_block_diagonal_matrices", mixing)
    man = spheres((2, 1.0), (4, 1.0))
    for report, row in (
        (gray_cancellation_audit(man, 50, 3), "gray-cancellation"),
        (splitting_audit(man, 50, 3), "split-zero"),
    ):
        assert not report.passed
        assert not report.select(row)[0].passed
