import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import DIMS
from timeflow.linalg import (
    SX,
    SY,
    SZ,
    bell_state,
    gaussian_state,
    haar_unitary,
    is_unitary,
    partial_trace,
    projector,
    random_state,
    random_unitary,
    unitary_residuals,
)
from timeflow.reversal import (
    Encoding,
    amplitude_matrix,
    backward_state,
    canonical_pair,
    conjugation_sign,
    is_maximally_entangled,
    local_frame_gate,
    photon_number,
    spin_expectations,
    spin_half,
    state_of_matrix,
    time_reverse_gate,
    time_reverse_state,
    transfer_matrix,
)


def amplitude_matrix_oracle(phi):
    """Direct evaluation of <j i|phi> by index arithmetic."""
    d = int(round(np.sqrt(len(phi))))
    q = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            q[i, j] = phi[j * d + i]
    return q


def random_maxent(d, rng):
    can = np.zeros(d * d, dtype=complex)
    can[:: d + 1] = 1 / np.sqrt(d)
    return np.kron(random_unitary(d, rng), random_unitary(d, rng)) @ can


def partially_entangled(theta):
    return np.array([np.cos(theta), 0, 0, np.sin(theta)], dtype=complex)


def reduced_state_residual(phi):
    """``max|d * tr_1 |phi><phi| - 1|``: the reduced-state criterion, computed
    without the transfer matrix."""
    d = math.isqrt(len(phi))
    reduced = partial_trace(projector(phi), [d, d], keep=(1,))
    return np.max(np.abs(d * reduced - np.eye(d)))


class TestCorrespondence:
    def test_uniform_pair(self):
        q = amplitude_matrix(bell_state("PHI+"))
        assert np.allclose(q, np.eye(2) / np.sqrt(2), atol=1e-15)

    def test_singlet(self):
        q = amplitude_matrix(bell_state("PSI-"))
        expected = np.array([[0, -1], [1, 0]]) / np.sqrt(2)
        assert np.allclose(q, expected, atol=1e-15)
        assert abs(q[1, 0] - 1 / np.sqrt(2)) < 1e-15

    def test_product_state(self):
        q = amplitude_matrix(np.array([1, 0, 0, 0], dtype=complex))
        assert np.array_equal(q, np.array([[1, 0], [0, 0]], dtype=complex))

    def test_against_oracle(self):
        rng = np.random.default_rng(21)
        for d in (2, 3, 4):
            phi = random_state(d * d, rng)
            assert np.array_equal(amplitude_matrix(phi), amplitude_matrix_oracle(phi))

    def test_inverse_examples(self):
        assert np.allclose(
            state_of_matrix(np.eye(2) / np.sqrt(2)), bell_state("PHI+"), atol=1e-15
        )
        assert np.array_equal(
            state_of_matrix(np.array([[1, 0], [0, 0]], dtype=complex)),
            np.array([1, 0, 0, 0], dtype=complex),
        )

    def test_roundtrip_on_random_states(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            phi = random_state(4, rng)
            assert np.max(np.abs(state_of_matrix(amplitude_matrix(phi)) - phi)) < 1e-12

    def test_non_square_length_rejected(self):
        with pytest.raises(ValueError):
            amplitude_matrix(np.ones(5, dtype=complex))


class TestTransferMatrix:
    def test_uniform_pair_gives_identity(self):
        assert np.allclose(transfer_matrix(bell_state("PHI+")), np.eye(2), atol=1e-15)

    def test_singlet(self):
        expected = np.array([[0, -1], [1, 0]], dtype=complex)
        m = transfer_matrix(bell_state("PSI-"))
        assert np.allclose(m, expected, atol=1e-15)
        assert np.allclose(m, -1j * SY, atol=1e-15)
        assert is_unitary(m, 1e-10)

    def test_partially_entangled_diagonal(self):
        t = np.pi / 6
        m = transfer_matrix(partially_entangled(t))
        assert np.allclose(
            m, np.sqrt(2) * np.diag([np.cos(t), np.sin(t)]), atol=1e-15
        )
        assert not is_unitary(m, 1e-10)


class TestMaximalEntanglement:
    def test_uniform_pair(self):
        assert is_maximally_entangled(bell_state("PHI+"), 1e-10)

    def test_product_state(self):
        assert not is_maximally_entangled(np.array([1, 0, 0, 0], dtype=complex), 1e-10)

    def test_partial(self):
        phi = partially_entangled(np.pi / 6)
        red = partial_trace(projector(phi), [2, 2], keep=(1,))
        assert np.allclose(
            red, np.diag([np.cos(np.pi / 6) ** 2, np.sin(np.pi / 6) ** 2]), atol=1e-12
        )
        assert not is_maximally_entangled(phi, 1e-10)

    def test_biconditional_with_unitarity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            constructed = random_maxent(d, rng)
            generic = random_state(d * d, rng)
            for phi in (constructed, generic):
                by_reduced = reduced_state_residual(phi) <= 1e-8
                assert is_maximally_entangled(phi, 1e-8) == by_reduced
                assert is_unitary(transfer_matrix(phi), 1e-8) == by_reduced
            assert is_maximally_entangled(constructed, 1e-8)
            assert not is_maximally_entangled(generic, 1e-8)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_residual_is_the_reduced_state_residual(self, d):
        # Mix a maximally entangled pair with a generic state so that the
        # residuals span many scales; the predicate must switch where the
        # reduced-state residual of the second carrier does, to 1e-14.
        rng = np.random.default_rng(d)
        for eps in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0):
            phi = random_maxent(d, rng) + eps * random_state(d * d, rng)
            phi /= np.linalg.norm(phi)
            r = reduced_state_residual(phi)
            assert abs(unitary_residuals(transfer_matrix(phi)) - r) <= 1e-14
            assert is_maximally_entangled(phi, r + 1e-14)
            if r > 1e-13:
                assert not is_maximally_entangled(phi, r - 1e-14)


class TestConjugationSign:
    def test_spin_matrix(self):
        assert conjugation_sign(SY) == -1

    def test_identity(self):
        assert conjugation_sign(np.eye(2)) == 1

    def test_phase_drops_out(self):
        assert conjugation_sign(1j * SY) == -1

    def test_invalid_matrix(self):
        # real rotation by pi/3: M conj(M) = M**2 is a rotation by 2pi/3
        c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
        with pytest.raises(ValueError):
            conjugation_sign(np.array([[c, -s], [s, c]], dtype=complex))

    def test_encoding_signs(self):
        assert spin_half().sign == -1
        assert photon_number(3).sign == 1
        for k in range(8):
            assert spin_half(np.exp(2j * np.pi * k / 8)).sign == -1

    def test_sign_squares_to_one(self):
        for e in (spin_half(), photon_number(2), photon_number(4)):
            assert e.sign**2 == 1


class TestEncodingValidation:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            Encoding("bad", np.diag([1.0, 0.5]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Encoding("bad", np.ones((2, 3)))

    def test_unit_phase_required(self):
        with pytest.raises(ValueError):
            spin_half(2.0)

    def test_arbitrary_valid_matrix(self):
        e = Encoding("swap-like", np.array([[0, 1], [1, 0]], dtype=complex))
        assert e.sign == 1


class TestTimeReverseState:
    def test_spin_up(self):
        out = time_reverse_state(np.array([1, 0], dtype=complex), spin_half())
        assert np.allclose(out, np.array([0, 1j]), atol=1e-15)

    def test_photon_identity(self):
        psi = np.array([1, 0], dtype=complex)
        assert np.array_equal(time_reverse_state(psi, photon_number(2)), psi)

    def test_spin_expectations_negate(self):
        rng = np.random.default_rng(24)
        e = spin_half()
        for _ in range(50):
            psi = random_state(2, rng)
            rev = time_reverse_state(psi, e)
            assert np.max(np.abs(spin_expectations(rev) + spin_expectations(psi))) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(25)
        psi = random_state(2, rng)
        assert abs(np.linalg.norm(time_reverse_state(psi, spin_half())) - 1) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            time_reverse_state(np.ones(3, dtype=complex), spin_half())


class TestTimeReverseGate:
    def test_sx_under_spin(self):
        assert np.allclose(time_reverse_gate(SX, spin_half()), -SX, atol=1e-15)

    def test_real_symmetric_fixed_by_photon(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(time_reverse_gate(h, photon_number(2)), h, atol=1e-15)

    def test_double_reversal_identity(self):
        rng = np.random.default_rng(26)
        for e in (spin_half(), photon_number(2), spin_half(np.exp(0.7j))):
            for _ in range(20):
                u = random_unitary(2, rng)
                assert np.max(
                    np.abs(time_reverse_gate(time_reverse_gate(u, e), e) - u)
                ) < 1e-12

    def test_result_unitary(self):
        rng = np.random.default_rng(27)
        u = random_unitary(2, rng)
        assert is_unitary(time_reverse_gate(u, spin_half()), 1e-10)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            time_reverse_gate(np.diag([1.0, 0.5]), spin_half())


class TestLocalFrameGate:
    def test_canonical_pair_of_spin_encoding(self):
        # transfer matrix sigma_y / sqrt(2) reshapes to i(|01> - |10>)/sqrt(2)
        pair = canonical_pair(spin_half())
        expected = 1j * bell_state("PSI-")
        assert np.allclose(pair, expected, atol=1e-15)

    def test_defining_relation_on_canonical_pair(self):
        for e in (spin_half(), photon_number(2)):
            pair = canonical_pair(e)
            chi = local_frame_gate(pair, e)
            rebuilt = (chi @ pair.reshape(2, 2)).reshape(-1)
            assert np.max(np.abs(rebuilt - pair)) < 1e-12

    def test_uniform_pair_under_spin_encoding(self):
        # chi = transpose(transfer matrix) @ conj(reversal matrix) = conj(sigma_y)
        e = spin_half()
        chi = local_frame_gate(bell_state("PHI+"), e)
        assert np.allclose(chi, np.conj(SY), atol=1e-15)
        assert np.allclose(chi, -SY, atol=1e-15)
        rebuilt = (chi @ canonical_pair(e).reshape(2, 2)).reshape(-1)
        assert np.max(np.abs(rebuilt - bell_state("PHI+"))) < 1e-12

    def test_random_states_both_encodings(self):
        rng = np.random.default_rng(28)
        for e in (spin_half(), photon_number(2)):
            for _ in range(20):
                psi = random_maxent(2, rng)
                chi = local_frame_gate(psi, e)
                assert is_unitary(chi, 1e-10)
                rebuilt = (chi @ canonical_pair(e).reshape(2, 2)).reshape(-1)
                assert np.max(np.abs(rebuilt - psi)) < 1e-10

    def test_rejects_non_maximal(self):
        with pytest.raises(ValueError):
            local_frame_gate(partially_entangled(np.pi / 6), spin_half())


def kron_backward(psi, phi):
    """``tr_1((|psi><psi| (x) 1) |phi><phi|)`` through the full d**2 x d**2
    product; ``np.kron`` prepends unit axes to the identity, so it acts
    member by member on a stack."""
    d = psi.shape[-1]
    op = np.kron(projector(psi), np.eye(d)) @ projector(phi)
    return partial_trace(op, [d, d], keep=(1,))


def _backward_inputs(d, count, seed, maximal):
    rng = np.random.default_rng(seed)
    psi = gaussian_state(rng.standard_normal((count, 2, d)))
    if maximal:
        phi = haar_unitary(rng.standard_normal((count, 2, d, d))).reshape(count, -1)
        return psi, phi / np.sqrt(d)
    return psi, gaussian_state(rng.standard_normal((count, 2, d * d)))


class TestBackwardState:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("maximal", [False, True])
    def test_reduced_form_equals_the_kron_form(self, d, maximal):
        psi, phi = _backward_inputs(d, 50, 70 + d, maximal)
        rho, _ = backward_state(psi, phi)
        assert rho.shape == (50, d, d)
        assert np.max(np.abs(rho - kron_backward(psi, phi))) <= 1e-12

    @given(st.sampled_from(DIMS), st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_reduced_form_equals_the_kron_form_on_drawn_stacks(
        self, d, count, seed, maximal
    ):
        psi, phi = _backward_inputs(d, count, seed, maximal)
        rho, _ = backward_state(psi, phi)
        assert np.max(np.abs(rho - kron_backward(psi, phi))) <= 1e-12

    def test_uniform_pair_example(self):
        psi = np.array([1, 0], dtype=complex)
        rho, bar = backward_state(psi, bell_state("PHI+"))
        assert np.allclose(bar, psi / np.sqrt(2), atol=1e-15)
        assert np.allclose(rho, projector(psi) / 2, atol=1e-15)

    def test_orthogonal_postselection_vanishes(self):
        psi = np.array([0, 1], dtype=complex)
        rho, bar = backward_state(psi, np.array([1, 0, 0, 0], dtype=complex))
        assert np.max(np.abs(bar)) == 0
        assert np.max(np.abs(rho)) < 1e-15

    def test_reduced_form_equals_outer_product(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            psi = random_state(d, rng)
            phi = random_state(d * d, rng)
            rho, bar = backward_state(psi, phi)
            assert np.max(np.abs(rho - np.outer(bar, bar.conj()))) < 1e-10

    def test_norm_is_inverse_dimension_for_maximal_pairs(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            psi = random_state(d, rng)
            phi = random_maxent(d, rng)
            _, bar = backward_state(psi, phi)
            assert abs(np.linalg.norm(bar) ** 2 - 1.0 / d) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            backward_state(np.ones(3, dtype=complex), bell_state("PHI+"))


def test_spin_expectations_of_basis_states():
    up = np.array([1, 0], dtype=complex)
    assert np.allclose(spin_expectations(up), [0, 0, 0.5], atol=1e-15)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    assert np.allclose(spin_expectations(plus), [0.5, 0, 0], atol=1e-15)
