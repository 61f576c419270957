import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereacs.acs import (
    acs_defects,
    acs_from_text,
    acs_to_text,
    block_diagonal_streams,
    canonical_product_acs,
    haar_orthogonal,
    random_block_diagonal_acs,
    random_block_diagonal_matrices,
    random_orthogonal_acs,
    random_orthogonal_matrices,
    standard_rotation_structure,
    swap_acs,
    validate_acs,
)
from sphereacs.errors import ContractViolation, InvalidManifold
from sphereacs.manifold import spheres

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_canonical_product_structure():
    man = spheres((2, 1.0), (2, 3.0))
    J = canonical_product_acs(man)
    s0, s1 = man.block_slices
    assert np.array_equal(J[s0, s0], ROT)
    assert np.array_equal(J[s1, s1], ROT)
    assert np.all(J[s0, s1] == 0.0)
    report = validate_acs(man, J)
    assert report.passed
    assert all(c.computed <= 1e-14 for c in report.checks)


def test_canonical_product_needs_2_spheres():
    with pytest.raises(InvalidManifold):
        canonical_product_acs(spheres((2, 1.0), (4, 1.0)))


def test_identity_fails_square_check():
    man = spheres((2, 1.0), (2, 1.0))
    report = validate_acs(man, np.eye(4))
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["square"].verdict == "mismatch"
    assert by_name["orthogonality"].verdict == "pass"


def test_random_acs_deterministic_and_valid():
    man = spheres((2, 1.0), (4, 1.0))
    a = random_orthogonal_acs(man, 42)
    b = random_orthogonal_acs(man, 42)
    assert np.array_equal(a, b)
    c = random_orthogonal_acs(man, 43)
    assert not np.array_equal(a, c)
    for seed in range(100):
        assert validate_acs(man, random_orthogonal_acs(man, seed)).passed


def test_random_acs_generically_mixes_factors():
    man = spheres((2, 1.0), (4, 1.0))
    s0, s1 = man.block_slices
    mixing = sum(
        1 for seed in range(40) if np.max(np.abs(random_orthogonal_acs(man, seed)[s0, s1])) > 0.1
    )
    assert mixing > 20


def test_random_block_diagonal_acs():
    man = spheres((6, 1.0), (6, 2.0))
    J = random_block_diagonal_acs(man, 3)
    assert validate_acs(man, J).passed
    s0, s1 = man.block_slices
    assert np.max(np.abs(J[s0, s1])) <= 1e-15
    assert np.max(np.abs(J[s1, s0])) <= 1e-15


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_conjugation_invariance(seed):
    man = spheres((2, 1.0), (2, 1.0), (2, 1.0))
    J = canonical_product_acs(man)
    q = haar_orthogonal(man.total_dim, np.random.default_rng(seed))
    assert validate_acs(man, q @ J @ q.T).passed


def test_eigenstructure_of_valid_acs():
    man = spheres((4, 1.0), (2, 1.0))
    for seed in range(10):
        J = random_orthogonal_acs(man, seed)
        assert abs(np.trace(J)) < 1e-10
        assert np.max(np.abs(J @ J + np.eye(6))) < 1e-12


def test_block_accessors():
    man = spheres((2, 1.0), (4, 1.0))
    J = random_orthogonal_acs(man, 5)
    s0, s1 = man.block_slices
    assert J[s0, s1].shape == (2, 4)
    assert np.allclose(J[s0, s1].T, -J[s1, s0], atol=1e-14)
    reassembled = np.block([[J[s0, s0], J[s0, s1]], [J[s1, s0], J[s1, s1]]])
    assert np.array_equal(reassembled, J)


def test_coefficient_block_convention():
    # the coefficient block J[sl[b], sl[a]].T of the module docstring has
    # entries c(a,b)[i,j] = <J e(a)_i, e(b)_j>
    man = spheres((2, 1.0), (4, 1.0))
    J = random_orthogonal_acs(man, 8)
    sl = man.block_slices
    eye = np.eye(6)
    for a in range(2):
        for b in range(2):
            coeff = J[sl[b], sl[a]].T
            for i in range(man.factors[a].dim):
                for j in range(man.factors[b].dim):
                    ei = eye[man.block_offsets[a] + i]
                    ej = eye[man.block_offsets[b] + j]
                    assert coeff[i, j] == pytest.approx(float(ej @ J @ ei), abs=1e-15)


def test_swap_structure():
    man = spheres((6, 1.0), (6, 1.0))
    J = swap_acs(man)
    expected = np.block(
        [[np.zeros((6, 6)), -np.eye(6)], [np.eye(6), np.zeros((6, 6))]]
    )
    assert np.array_equal(J, expected)
    assert validate_acs(man, J).passed
    s0, s1 = man.block_slices
    assert np.all(J[s0, s0] == 0.0)
    assert np.all(J[s1, s1] == 0.0)


def test_swap_structure_preconditions():
    with pytest.raises(InvalidManifold):
        swap_acs(spheres((6, 1.0)))
    with pytest.raises(InvalidManifold):
        swap_acs(spheres((2, 1.0), (4, 1.0)))


def test_standard_rotation_structure_validation():
    with pytest.raises(ContractViolation):
        standard_rotation_structure(3)
    m = standard_rotation_structure(4)
    assert np.array_equal(m @ m, -np.eye(4))


def test_matrix_shape_contract():
    man = spheres((2, 1.0), (2, 1.0))
    with pytest.raises(ContractViolation):
        validate_acs(man, np.eye(3))
    with pytest.raises(ContractViolation):
        acs_defects(man, np.eye(3))


def test_serialization_round_trip():
    man = spheres((2, 1.0), (4, 1.0))
    J = random_orthogonal_acs(man, 17)
    text = acs_to_text(J)
    back = acs_from_text(man, text)
    assert np.array_equal(back, J)
    assert text.splitlines()[0] == "6"


def test_serialization_errors():
    man = spheres((2, 1.0))
    with pytest.raises(ContractViolation):
        acs_from_text(man, "")
    with pytest.raises(ContractViolation):
        acs_from_text(man, "3\n0 1 0\n-1 0 0\n0 0 0\n")  # dim mismatch with manifold
    with pytest.raises(ContractViolation):
        acs_from_text(man, "2\n0 1\n")
    with pytest.raises(ContractViolation):
        acs_from_text(man, "2\n0 x\n-1 0\n")
    with pytest.raises(ContractViolation):
        acs_from_text(man, "2\n0 nan\n-1 0\n")


def test_nan_entry_fails_block_checks():
    man = spheres((6, 1.0), (6, 1.0))
    m = swap_acs(man)
    m[6, 0] = np.nan  # an off-block entry
    report = validate_acs(man, m)
    rows = {c.name: c for c in report.checks}
    for name in ("block-skew", "block-composition"):
        assert np.isnan(rows[name].computed)
        assert not rows[name].passed
    assert not report.passed


def test_acs_defects_of_a_stack_match_the_validator_rows():
    # one stacked evaluation gives each matrix's validate_acs rows; a stack
    # with leading axes keeps them
    man = spheres((2, 1.0), (4, 1.0), (6, 2.0))
    stack = np.stack([
        random_orthogonal_matrices(man, 4, np.random.default_rng(0)),
        random_block_diagonal_matrices(man, 4, block_diagonal_streams(man, 0)),
    ])
    stack[1, 2] = np.eye(man.total_dim)
    defects = acs_defects(man, stack)
    assert defects.shape == (2, 4, 5)
    for k in np.ndindex(2, 4):
        rows = [c.computed for c in validate_acs(man, stack[k]).checks]
        assert np.array_equal(defects[k], rows)
    # the identity is orthogonal and fails every other relation by 2
    assert np.array_equal(defects[1, 2], [0.0, 2.0, 2.0, 2.0, 2.0])
    with pytest.raises(ContractViolation):
        acs_defects(man, stack[..., :-1])


@pytest.mark.parametrize("dims", [((6, 1.0), (6, 2.0)), ((2, 1.0), (4, 1.0), (6, 2.0))])
def test_batched_draws_equal_single_draws(dims):
    # a stack of k drawn from a generator is k consecutive single Haar draws
    # from a generator with the same seed, bit for bit, and the single-draw
    # functions keep their seeding: default_rng(seed), and [seed, a] for
    # factor a of a block-diagonal structure
    man = spheres(*dims)
    n = man.total_dim
    k = 40
    stack = random_orthogonal_matrices(man, k, np.random.default_rng(3))
    blocks = random_block_diagonal_matrices(man, k, block_diagonal_streams(man, 3))
    assert stack.shape == blocks.shape == (k, n, n)
    j0 = standard_rotation_structure(n)
    rng = np.random.default_rng(3)
    factor_rngs = block_diagonal_streams(man, 3)
    for s in range(k):
        q = haar_orthogonal(n, rng)
        assert np.array_equal(stack[s], q @ j0 @ q.T)
        expected = np.zeros((n, n))
        for f, sl, factor_rng in zip(man.factors, man.block_slices, factor_rngs):
            qa = haar_orthogonal(f.dim, factor_rng)
            expected[sl, sl] = qa @ standard_rotation_structure(f.dim) @ qa.T
        assert np.array_equal(blocks[s], expected)
    for seed in [[3, s] for s in range(k)] + [5]:
        q = haar_orthogonal(n, np.random.default_rng(seed))
        assert np.array_equal(random_orthogonal_acs(man, seed), q @ j0 @ q.T)
        expected = np.zeros((n, n))
        for a, (f, sl) in enumerate(zip(man.factors, man.block_slices)):
            qa = haar_orthogonal(f.dim, np.random.default_rng([seed, a]))
            expected[sl, sl] = qa @ standard_rotation_structure(f.dim) @ qa.T
        assert np.array_equal(random_block_diagonal_acs(man, seed), expected)
