import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeflow.linalg import (
    SX,
    SY,
    SZ,
    apply_local,
    bell_state,
    conjugate,
    dagger,
    equal_up_to_global_phase,
    is_unitary,
    kron,
    partial_trace,
    projector,
    random_state,
    random_unitary,
    transpose,
)


def kron_oracle(a, b):
    """Brute-force index formula (a x b)[(i*rb+k), (j*cb+l)] = a[i,j] b[k,l]."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(rho, dims, keep):
    """Explicit index-sum reduction."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)
    t = rho.reshape(dims + dims)
    for row in np.ndindex(*[dims[i] for i in keep]):
        for col in np.ndindex(*[dims[i] for i in keep]):
            total = 0.0
            for tr in np.ndindex(*[dims[i] for i in traced]):
                ridx = [0] * n
                cidx = [0] * n
                for pos, i in enumerate(keep):
                    ridx[i], cidx[i] = row[pos], col[pos]
                for pos, i in enumerate(traced):
                    ridx[i] = cidx[i] = tr[pos]
                total += t[tuple(ridx) + tuple(cidx)]
            r = int(np.ravel_multi_index(row, [dims[i] for i in keep])) if keep else 0
            c = int(np.ravel_multi_index(col, [dims[i] for i in keep])) if keep else 0
            out[r, c] = total
    return out


def random_int_matrix(rng, shape):
    """Entries are Gaussian integers, so float products are exact."""
    return (
        rng.integers(-4, 5, size=shape) + 1j * rng.integers(-4, 5, size=shape)
    ).astype(complex)


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        assert np.array_equal(kron(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))

    def test_sx_sy_against_oracle(self):
        expected = kron_oracle(SX, SY)
        assert np.array_equal(kron(SX, SY), expected)
        assert expected[0, 3] == -1j

    def test_random_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_int_matrix(rng, (2, 3))
            b = random_int_matrix(rng, (3, 2))
            assert np.array_equal(kron(a, b), kron_oracle(a, b))

    def test_associativity_exact_on_integer_entries(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = (random_int_matrix(rng, (2, 2)) for _ in range(3))
            assert np.array_equal(kron(a, kron(b, c)), kron(kron(a, b), c))

    def test_associativity_on_continuous_entries(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert np.allclose(
                kron(a, kron(b, c)), kron(kron(a, b), c), rtol=0, atol=1e-14
            )


class TestPartialTrace:
    def test_bell_pair_reduces_to_maximally_mixed(self):
        rho = projector(bell_state("PHI+"))
        for keep in ((0,), (1,)):
            red = partial_trace(rho, [2, 2], keep)
            assert np.allclose(red, np.eye(2) / 2, atol=1e-12)

    def test_product_state(self):
        rho = projector(np.array([0, 1, 0, 0], dtype=complex))  # |01>
        red = partial_trace(rho, [2, 2], keep=(0,))
        assert np.allclose(red, np.diag([1.0, 0.0]), atol=1e-12)

    def test_uncorrelated_case(self):
        psi = np.array([0.6, 0.8j])
        rho = kron(projector(psi), np.eye(2) / 2)
        red = partial_trace(rho, [2, 2], keep=(1,))
        assert np.allclose(red, np.eye(2) / 2, atol=1e-12)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(3)
        rho = projector(random_state(8, rng))
        assert np.allclose(partial_trace(rho, [2, 2, 2], (0, 1, 2)), rho, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        rho = projector(random_state(12, rng))
        for keep in ((0,), (1,), (0, 2), (2,)):
            red = partial_trace(rho, [2, 3, 2], keep)
            assert abs(np.trace(red) - np.trace(rho)) < 1e-12

    def test_against_oracle(self):
        rng = np.random.default_rng(9)
        rho = (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        for keep in ((0,), (1, 2), (0, 2)):
            expected = partial_trace_oracle(rho, [2, 3, 2], list(keep))
            assert np.allclose(partial_trace(rho, [2, 3, 2], keep), expected, atol=1e-12)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), [2, 2], keep=(0,))

    def test_keep_out_of_range(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 2], keep=(2,))


class TestAdjoints:
    def test_dagger_hermitian(self):
        assert np.array_equal(dagger(SY), SY)

    def test_transpose_antisymmetric(self):
        assert np.array_equal(transpose(SY), -SY)

    def test_conjugate(self):
        assert np.array_equal(conjugate(1j * np.eye(2)), -1j * np.eye(2))

    def test_dagger_involution_and_factorization(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(dagger(dagger(a)), a)
        assert np.array_equal(transpose(a), conjugate(dagger(a)))


class TestIsUnitary:
    def test_pauli(self):
        assert is_unitary(SY, 1e-10)

    def test_diagonal_non_unitary(self):
        assert not is_unitary(np.diag([1.0, 0.5]).astype(complex), 1e-10)

    def test_partially_entangled_transfer_matrix(self):
        # transfer matrix of cos(t)|00> + sin(t)|11>, t = pi/6
        t = np.pi / 6
        m = np.sqrt(2) * np.diag([np.cos(t), np.sin(t)]).astype(complex)
        assert np.allclose(
            m @ dagger(m), np.diag([2 * np.cos(t) ** 2, 2 * np.sin(t) ** 2]), atol=1e-12
        )
        assert not is_unitary(m, 1e-10)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            is_unitary(np.ones((2, 3)), 1e-10)


class TestGlobalPhase:
    def test_pure_phase(self):
        v = np.array([1.0, 0.0], dtype=complex)
        assert equal_up_to_global_phase(v, np.exp(1j * np.pi / 3) * v, 1e-10)

    def test_orthogonal(self):
        assert not equal_up_to_global_phase(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1e-10
        )

    def test_random_phase_sweep(self):
        rng = np.random.default_rng(8)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        for alpha in rng.uniform(0, 2 * np.pi, size=25):
            assert equal_up_to_global_phase(plus, np.exp(1j * alpha) * plus, 1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            equal_up_to_global_phase(np.ones(2), np.ones(3), 1e-10)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            equal_up_to_global_phase(np.zeros(2), np.ones(2), 1e-10)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(10)
    for d in (2, 3, 5):
        assert is_unitary(random_unitary(d, rng), 1e-10)


# Carriers per tensor at each local dimension: d**carriers <= 256 keeps the
# dense oracle small, while the trailing block d * right runs from d to far
# above the size up to which apply_local switches to one gemm.
CARRIERS = {2: 8, 3: 5, 4: 4}


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from(sorted(CARRIERS)),
    carriers=st.integers(1, 8),
    axis=st.integers(0, 7),
    batch=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, carriers=8, axis=0, batch=2, seed=0)  # d * right = 256: stacked
@example(d=2, carriers=8, axis=7, batch=2, seed=1)  # d * right = 2: one gemm
@example(d=3, carriers=5, axis=1, batch=1, seed=2)  # 81: stacked
@example(d=4, carriers=4, axis=2, batch=3, seed=3)  # 16: one gemm
def test_apply_local_matches_dense_oracle(d, carriers, axis, batch, seed):
    carriers = min(carriers, CARRIERS[d])
    axis %= carriers
    rng = np.random.default_rng(seed)
    shape = (batch,) + (d,) * carriers
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    dense = np.kron(np.kron(np.eye(d**axis), op), np.eye(d ** (carriers - 1 - axis)))
    expected = (t.reshape(batch, -1) @ dense.T).reshape(shape)
    actual = apply_local(t, 1 + axis, op)
    assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))
