import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereacs.acs import (
    OrthogonalACS,
    acs_from_text,
    acs_to_text,
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
    assert np.array_equal(J.block(0, 0), ROT)
    assert np.array_equal(J.block(1, 1), ROT)
    assert np.all(J.block(0, 1) == 0.0)
    report = validate_acs(J)
    assert report.passed
    assert all(c.computed <= 1e-14 for c in report.checks)


def test_canonical_product_needs_2_spheres():
    with pytest.raises(InvalidManifold):
        canonical_product_acs(spheres((2, 1.0), (4, 1.0)))


def test_identity_fails_square_check():
    man = spheres((2, 1.0), (2, 1.0))
    J = OrthogonalACS(man, np.eye(4))
    report = validate_acs(J)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["square"].verdict == "mismatch"
    assert by_name["orthogonality"].verdict == "pass"


def test_random_acs_deterministic_and_valid():
    man = spheres((2, 1.0), (4, 1.0))
    a = random_orthogonal_acs(man, 42)
    b = random_orthogonal_acs(man, 42)
    assert np.array_equal(a.matrix, b.matrix)
    c = random_orthogonal_acs(man, 43)
    assert not np.array_equal(a.matrix, c.matrix)
    for seed in range(100):
        assert validate_acs(random_orthogonal_acs(man, seed)).passed


def test_random_acs_generically_mixes_factors():
    man = spheres((2, 1.0), (4, 1.0))
    mixing = sum(
        1 for seed in range(40) if random_orthogonal_acs(man, seed).off_block_mass() > 0.1
    )
    assert mixing > 20


def test_random_block_diagonal_acs():
    man = spheres((6, 1.0), (6, 2.0))
    J = random_block_diagonal_acs(man, 3)
    assert validate_acs(J).passed
    assert J.off_block_mass() <= 1e-15


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_conjugation_invariance(seed):
    man = spheres((2, 1.0), (2, 1.0), (2, 1.0))
    J = canonical_product_acs(man)
    q = haar_orthogonal(man.total_dim, np.random.default_rng(seed))
    assert validate_acs(OrthogonalACS(man, q @ J.matrix @ q.T)).passed


def test_eigenstructure_of_valid_acs():
    man = spheres((4, 1.0), (2, 1.0))
    for seed in range(10):
        J = random_orthogonal_acs(man, seed)
        assert abs(np.trace(J.matrix)) < 1e-10
        assert np.max(np.abs(J.matrix @ J.matrix + np.eye(6))) < 1e-12


def test_block_accessors():
    man = spheres((2, 1.0), (4, 1.0))
    J = random_orthogonal_acs(man, 5)
    assert J.block(0, 1).shape == (2, 4)
    assert np.allclose(J.block(0, 1).T, -J.block(1, 0), atol=1e-14)
    reassembled = np.block(
        [[J.block(0, 0), J.block(0, 1)], [J.block(1, 0), J.block(1, 1)]]
    )
    assert np.array_equal(reassembled, J.matrix)
    with pytest.raises(ContractViolation):
        J.block(2, 0)


def test_coefficient_block_convention():
    # coefficient_block(a, b)[i, j] must equal <J e(a)_i, e(b)_j>
    man = spheres((2, 1.0), (4, 1.0))
    J = random_orthogonal_acs(man, 8)
    eye = np.eye(6)
    for a in range(2):
        for b in range(2):
            coeff = J.coefficient_block(a, b)
            for i in range(man.factors[a].dim):
                for j in range(man.factors[b].dim):
                    ei = eye[man.block_offsets[a] + i]
                    ej = eye[man.block_offsets[b] + j]
                    assert coeff[i, j] == pytest.approx(float(ej @ J.matrix @ ei), abs=1e-15)


def test_swap_structure():
    man = spheres((6, 1.0), (6, 1.0))
    J = swap_acs(man)
    expected = np.block(
        [[np.zeros((6, 6)), -np.eye(6)], [np.eye(6), np.zeros((6, 6))]]
    )
    assert np.array_equal(J.matrix, expected)
    assert validate_acs(J).passed
    assert np.all(J.block(0, 0) == 0.0)
    assert np.all(J.block(1, 1) == 0.0)


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
    man = spheres((2, 1.0))
    with pytest.raises(ContractViolation):
        OrthogonalACS(man, np.eye(3))


def test_serialization_round_trip():
    man = spheres((2, 1.0), (4, 1.0))
    J = random_orthogonal_acs(man, 17)
    text = acs_to_text(J)
    back = acs_from_text(man, text)
    assert np.array_equal(back.matrix, J.matrix)
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


def test_nan_entry_fails_block_checks_and_off_block_mass():
    man = spheres((6, 1.0), (6, 1.0))
    m = swap_acs(man).matrix.copy()
    m[6, 0] = np.nan  # an off-block entry
    J = OrthogonalACS(man, m)
    report = validate_acs(J)
    rows = {c.name: c for c in report.checks}
    for name in ("block-skew", "block-composition"):
        assert np.isnan(rows[name].computed)
        assert not rows[name].passed
    assert not report.passed
    assert np.isnan(J.off_block_mass())
    assert swap_acs(man).off_block_mass() == 1.0


@pytest.mark.parametrize("dims", [((6, 1.0), (6, 2.0)), ((2, 1.0), (4, 1.0), (6, 2.0))])
def test_batched_draws_equal_single_draws(dims):
    # the stacked QR and conjugation reproduce the one-matrix draws bit for bit
    man = spheres(*dims)
    n = man.total_dim
    seeds = [[3, s] for s in range(40)] + [5]
    stack = random_orthogonal_matrices(man, seeds)
    blocks = random_block_diagonal_matrices(man, seeds)
    assert stack.shape == blocks.shape == (len(seeds), n, n)
    j0 = standard_rotation_structure(n)
    for k, seed in enumerate(seeds):
        q = haar_orthogonal(n, np.random.default_rng(seed))
        assert np.array_equal(stack[k], q @ j0 @ q.T)
        assert np.array_equal(stack[k], random_orthogonal_acs(man, seed).matrix)
        expected = np.zeros((n, n))
        for a, (f, sl) in enumerate(zip(man.factors, man.block_slices)):
            qa = haar_orthogonal(f.dim, np.random.default_rng([seed, a]))
            expected[sl, sl] = qa @ standard_rotation_structure(f.dim) @ qa.T
        assert np.array_equal(blocks[k], expected)
        assert np.array_equal(blocks[k], random_block_diagonal_acs(man, seed).matrix)
