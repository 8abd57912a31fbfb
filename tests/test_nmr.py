from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import SIGNED_AXES, pulse_sequences

from timeflow.circuits import Gate1, GateCircuit, run_gate_circuit
from timeflow.linalg import PAULI, kron, random_state, random_unitary
from timeflow.nmr import (
    Delay,
    Gradient,
    JCoupling,
    Rotation,
    SpinSystem,
    acausality_sequence,
    apply_jcoupling,
    apply_rotation,
    build_hamiltonian,
    coherence_amplitude,
    evolve,
    fid,
    gradient_crush,
    pauli_decompose,
    phased_real,
    pseudopure_init,
    run_sequence,
    spectral_overlap,
    spectrum,
    validate_label,
)

X, Y, Z, I2 = PAULI["X"], PAULI["Y"], PAULI["Z"], PAULI["I"]
P0 = (I2 + Z) / 2


def single_spin(nu=100.0):
    return SpinSystem((nu,), np.zeros((1, 1)))


def two_spin(nu1=0.0, nu2=0.0, j=50.0):
    return SpinSystem.from_couplings([nu1, nu2], {(0, 1): j})


PARAMETER_SETS = [
    SpinSystem.from_couplings(
        [0.0, 1500.0, -2500.0, 4000.0],
        {(0, 1): 40.0, (0, 2): 2.0, (0, 3): 6.0, (1, 2): 65.0, (1, 3): 1.5, (2, 3): 70.0},
    ),
    SpinSystem.from_couplings(
        [100.0, -800.0, 2100.0, -3000.0],
        {(0, 1): 55.0, (0, 2): 3.5, (0, 3): 9.0, (1, 2): 46.0, (1, 3): 2.2, (2, 3): 31.0},
    ),
    SpinSystem.from_couplings(
        [-50.0, 2300.0, 900.0, -4200.0],
        {(0, 1): 33.0, (0, 2): 1.2, (0, 3): 4.4, (1, 2): 58.0, (1, 3): 0.9, (2, 3): 64.0},
    ),
]


def crush_oracle(rho, spins, n):
    """Projector-sum form: sum_s P_s rho P_s over the crushed spins' basis."""
    out = np.zeros_like(rho)
    for config in np.ndindex(*([2] * len(spins))):
        mats = [I2] * n
        for spin, bit in zip(spins, config):
            mats[spin] = np.diag([1.0 - bit, float(bit)]).astype(complex)
        proj = mats[0]
        for m in mats[1:]:
            proj = kron(proj, m)
        out = out + proj @ rho @ proj
    return out


class TestSpinSystem:
    def test_asymmetric_j_rejected(self):
        j = np.zeros((2, 2))
        j[0, 1] = 5.0
        with pytest.raises(ValueError):
            SpinSystem((0.0, 0.0), j)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            SpinSystem((0.0,), np.array([[1.0]]))

    @pytest.mark.parametrize(
        "larmor,j",
        [
            ((np.nan, 1.0), [[0.0, 0.0], [0.0, 0.0]]),
            ((0.0, np.inf), [[0.0, 0.0], [0.0, 0.0]]),
            ((np.nan, 1.0), [[0.0, np.nan], [np.nan, 0.0]]),
            ((0.0, 1.0), [[0.0, -np.inf], [-np.inf, 0.0]]),
        ],
    )
    def test_non_finite_values_rejected(self, larmor, j):
        with pytest.raises(ValueError, match="finite"):
            SpinSystem(larmor, np.array(j))

    def test_from_couplings(self):
        s = two_spin(j=50.0)
        assert s.j[0, 1] == s.j[1, 0] == 50.0
        assert s.n == 2


class TestHamiltonian:
    def test_single_spin(self):
        energies = build_hamiltonian(single_spin(100.0))
        assert np.allclose(energies, [np.pi * 100, -np.pi * 100], atol=1e-12)

    def test_pure_coupling(self):
        energies = build_hamiltonian(two_spin(0.0, 0.0, 50.0))
        assert np.allclose(energies, (np.pi / 2) * 50.0 * np.array([1, -1, -1, 1]), atol=1e-12)

    def test_always_diagonal(self):
        # the dense generator has no off-diagonal entry, so its diagonal,
        # the energies, is the whole of it
        for s in PARAMETER_SETS:
            h = dense_hamiltonian(s)
            assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0
            assert np.array_equal(build_hamiltonian(s), np.diag(h).real)

    def test_hamiltonian_is_real_energies(self):
        energies = build_hamiltonian(two_spin(37.0, -11.0, 8.0))
        assert energies.dtype == float and energies.shape == (4,)


def _embed(op, spin, n):
    mats = [I2] * n
    mats[spin] = op
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def dense_hamiltonian(s):
    """The generator as a dense sum of embedded Z_i and Z_i Z_j terms."""
    h = sum(np.pi * nu * _embed(Z, i, s.n) for i, nu in enumerate(s.larmor))
    for i in range(s.n):
        for jx in range(i):
            h = h + (np.pi / 2) * s.j[i, jx] * _embed(Z, i, s.n) @ _embed(Z, jx, s.n)
    return h


class TestEvolve:
    def test_zero_time(self):
        rho = pseudopure_init("X0")
        h = build_hamiltonian(two_spin())
        assert np.allclose(evolve(rho, h, 0.0), rho, atol=1e-12)

    def test_larmor_precession_quarter_period(self):
        s = single_spin(100.0)
        h = build_hamiltonian(s)
        t = 2.5e-3  # quarter period at 100 Hz
        out = evolve(X, h, t)
        theta = 2 * np.pi * 100.0 * t
        expected = np.cos(theta) * X + np.sin(theta) * Y
        assert np.allclose(out, expected, atol=1e-10)
        assert np.allclose(out, Y, atol=1e-10)

    def test_precession_closed_form_sweep(self):
        s = single_spin(173.0)
        h = build_hamiltonian(s)
        for t in (1e-4, 7.7e-4, 3.1e-3):
            theta = 2 * np.pi * 173.0 * t
            assert np.allclose(
                evolve(X, h, t), np.cos(theta) * X + np.sin(theta) * Y, atol=1e-10
            )

    def test_pure_zz_matches_coupling_gate(self):
        s = two_spin(0.0, 0.0, 50.0)
        h = build_hamiltonian(s)
        rho = pseudopure_init("X0")
        t = 1.0 / (2 * 50.0)  # the pi/2 coupling time
        assert np.allclose(
            evolve(rho, h, t), apply_jcoupling(rho, (0, 1), np.pi / 2), atol=1e-10
        )

    def test_conditional_rotation_under_zz(self):
        rho = apply_jcoupling(pseudopure_init("X0"), (0, 1), np.pi / 2)
        assert np.allclose(rho, kron(Y, P0), atol=1e-12)

    def test_preserves_spectrum_and_hermiticity(self):
        rng = np.random.default_rng(61)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a + a.conj().T
        h = build_hamiltonian(two_spin(37.0, -11.0, 8.0))
        out = evolve(rho, h, 0.013)
        assert np.max(np.abs(out - out.conj().T)) < 1e-10
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(out)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-10
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="real, finite energy"):
            evolve(X, np.array([0, 1j]), 1.0)

    def test_dense_non_hermitian_rejected(self):
        # a generator is passed as its energies only; a matrix is refused
        rng = np.random.default_rng(62)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="one real, finite energy per row"):
            evolve(np.eye(4, dtype=complex), h, 0.1)

    @pytest.mark.parametrize("entry", [0.6e-10j, -0.6e-10j, np.nan, np.inf, 1j * np.nan])
    def test_diagonal_generator_checked_like_a_dense_one(self, entry):
        # an entry that would make a dense generator non-Hermitian or
        # non-finite is refused, however small its imaginary part
        energies = build_hamiltonian(two_spin(37.0, -11.0, 8.0)).astype(complex)
        energies[2] += entry
        with pytest.raises(ValueError, match="real, finite energy"):
            evolve(np.eye(4, dtype=complex), energies, 0.1)

    @pytest.mark.parametrize("shape,length", [((4, 4), 2), ((4, 4), 8), ((4,), 4), ((4, 2), 4)])
    def test_energies_must_match_the_state(self, shape, length):
        with pytest.raises(ValueError, match="per row"):
            evolve(np.ones(shape, dtype=complex), np.zeros(length), 0.1)


class TestRotations:
    def test_y_quarter_turn_takes_z_to_x(self):
        assert np.allclose(apply_rotation(Z, (0,), "y", np.pi / 2), X, atol=1e-12)

    def test_full_turn_is_identity_on_deviations(self):
        rho = pseudopure_init("Y")
        assert np.allclose(apply_rotation(rho, (0,), "x", 2 * np.pi), rho, atol=1e-12)

    def test_inverse_quarter_turn_takes_x_to_z(self):
        assert np.allclose(apply_rotation(X, (0,), "y", -np.pi / 2), Z, atol=1e-12)

    def test_negative_axis_flips_sense(self):
        assert np.allclose(
            apply_rotation(Z, (0,), "-y", np.pi / 2),
            apply_rotation(Z, (0,), "y", -np.pi / 2),
            atol=1e-12,
        )

    def test_multiple_spins_same_pulse(self):
        rho = pseudopure_init("ZZ")
        out = apply_rotation(rho, (0, 1), "y", np.pi / 2)
        assert np.allclose(out, pseudopure_init("XX"), atol=1e-12)

    def test_bad_spin_index(self):
        with pytest.raises(ValueError):
            apply_rotation(X, (1,), "y", np.pi)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            apply_rotation(X, (0,), "q", np.pi)


class TestGradientCrush:
    def test_transverse_term_destroyed(self):
        assert np.max(np.abs(gradient_crush(X, (0,)))) == 0

    def test_diagonal_term_survives(self):
        assert np.array_equal(gradient_crush(Z, (0,)), Z)

    def test_matches_projector_sum_oracle(self):
        seq = acausality_sequence(False)
        pre = run_sequence(PARAMETER_SETS[0], "X00X", seq[:-1])
        crushed = gradient_crush(pre, (2, 3))
        assert np.allclose(crushed, crush_oracle(pre, (2, 3), 4), atol=1e-12)

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(62)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = a + a.conj().T
        crushed = gradient_crush(rho, (1, 3))
        assert np.array_equal(gradient_crush(crushed, (1, 3)), crushed)
        assert abs(np.trace(crushed) - np.trace(rho)) < 1e-12

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            gradient_crush(X, ())


@pytest.mark.parametrize("shape", [(6, 6), (4, 2)], ids=["6x6", "4x2"])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda rho: apply_rotation(rho, (0,), "x", 1.0),
        lambda rho: apply_jcoupling(rho, (0, 1), 1.0),
        lambda rho: gradient_crush(rho, (0,)),
        pauli_decompose,
    ],
    ids=["apply_rotation", "apply_jcoupling", "gradient_crush", "pauli_decompose"],
)
def test_state_side_must_be_a_power_of_two(kernel, shape):
    with pytest.raises(ValueError, match="matrix side must be a power of two"):
        kernel(np.eye(*shape))


class TestPseudopure:
    def test_x00x_expansion(self):
        rho = pseudopure_init("X00X")
        expected = kron(kron(X, (I2 + Z)), kron((I2 + Z), X)) / 4
        assert np.allclose(rho, expected, atol=1e-14)
        assert np.allclose(rho, kron(kron(X, P0), kron(P0, X)), atol=1e-14)

    def test_single_z(self):
        assert np.array_equal(pseudopure_init("Z"), Z)

    def test_00_is_rank_one_projector(self):
        rho = pseudopure_init("00")
        evals = np.sort(np.linalg.eigvalsh(rho))
        assert np.allclose(evals, [0, 0, 0, 1], atol=1e-12)
        assert np.allclose(rho, rho @ rho, atol=1e-12)

    def test_invalid_symbol(self):
        with pytest.raises(ValueError):
            pseudopure_init("X0Q")

    def test_label_length_check(self):
        with pytest.raises(ValueError):
            validate_label("X0", 4)


class TestPauliDecompose:
    def test_single_z(self):
        assert pauli_decompose(Z) == [("Z", 1.0)]

    def test_x00x_terms(self):
        terms = dict(pauli_decompose(pseudopure_init("X00X")))
        assert set(terms) == {"XIIX", "XZIX", "XIZX", "XZZX"}
        for c in terms.values():
            assert abs(c - 0.25) < 1e-12

    def test_roundtrip_on_random_letter_labels(self):
        rng = np.random.default_rng(63)
        letters = np.array(list("IXYZ"))
        for _ in range(20):
            label = "".join(rng.choice(letters, size=3))
            terms = pauli_decompose(pseudopure_init(label))
            assert terms == [(label, 1.0)]

    def test_reconstruction(self):
        rng = np.random.default_rng(64)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a + a.conj().T
        rebuilt = np.zeros_like(rho)
        for label, c in pauli_decompose(rho, tol=0.0):
            rebuilt = rebuilt + c * pseudopure_init(label)
        assert np.allclose(rebuilt, rho, atol=1e-10)


class TestRunSequence:
    @pytest.mark.parametrize("system", PARAMETER_SETS)
    def test_final_state_without_flip(self, system):
        rho = run_sequence(system, "X00X", acausality_sequence(False))
        assert pauli_decompose(rho, tol=1e-8) == [("XXIZ", pytest.approx(0.25, abs=1e-12))]

    @pytest.mark.parametrize("system", PARAMETER_SETS)
    def test_final_state_with_flip(self, system):
        rho = run_sequence(system, "X00X", acausality_sequence(True))
        assert pauli_decompose(rho, tol=1e-8) == [("YIZI", pytest.approx(0.25, abs=1e-12))]

    def test_no_spurious_terms(self):
        rho = run_sequence(PARAMETER_SETS[1], "X00X", acausality_sequence(False))
        terms = pauli_decompose(rho, tol=1e-12)
        assert len(terms) == 1

    def test_empty_sequence_returns_initial(self):
        rho = run_sequence(PARAMETER_SETS[0], "X00X", [])
        assert np.allclose(rho, pseudopure_init("X00X"), atol=1e-14)

    def test_parameter_independence(self):
        finals = [
            run_sequence(s, "X00X", acausality_sequence(True)) for s in PARAMETER_SETS
        ]
        for rho in finals[1:]:
            assert np.allclose(rho, finals[0], atol=1e-12)

    def test_surviving_component_is_double_coherence_without_flip(self):
        seq = acausality_sequence(False)
        pre = run_sequence(PARAMETER_SETS[0], "X00X", seq[:-1])
        surviving = gradient_crush(pre, (2, 3))
        support = {label[:2] for label, _ in pauli_decompose(surviving, tol=1e-8)}
        assert support <= {"XX", "XY", "YX", "YY"}

    def test_surviving_component_is_single_coherence_with_flip(self):
        seq = acausality_sequence(True)
        pre = run_sequence(PARAMETER_SETS[0], "X00X", seq[:-1])
        surviving = gradient_crush(pre, (2, 3))
        support = {label[:2] for label, _ in pauli_decompose(surviving, tol=1e-8)}
        assert support == {"YI"}

    def test_quarter_of_coherence_survives_crush(self):
        for flip in (False, True):
            seq = acausality_sequence(flip)
            pre = run_sequence(PARAMETER_SETS[0], "X00X", seq[:-1])
            post = gradient_crush(pre, (2, 3))
            ratio = coherence_amplitude(post, 0) / coherence_amplitude(pre, 0)
            assert abs(ratio - 0.25) < 1e-10

    def test_delay_event_uses_hamiltonian(self):
        s = single_spin(100.0)
        rho = run_sequence(s, "X", [Delay(2.5e-3)])
        assert np.allclose(rho, Y, atol=1e-10)

    def test_coupling_without_j_rejected(self):
        s = SpinSystem.from_couplings([0.0, 10.0, 20.0], {(0, 1): 5.0})
        with pytest.raises(ValueError):
            run_sequence(s, "X00", [JCoupling((1, 2), np.pi / 2)])

    def test_rotation_event(self):
        s = single_spin()
        rho = run_sequence(s, "Z", [Rotation((0,), "y", np.pi / 2)])
        assert np.allclose(rho, X, atol=1e-12)

    def test_gradient_event(self):
        s = two_spin()
        rho = run_sequence(s, "XZ", [Gradient((0,))])
        assert np.max(np.abs(rho)) < 1e-14


class TestFid:
    def test_single_spin_precession(self):
        s = single_spin(100.0)
        points, duration = 64, 0.02
        signal = fid(s, X, detect=0, duration=duration, points=points)
        times = np.arange(points) * (duration / points)
        assert np.allclose(signal, 2 * np.exp(2j * np.pi * 100.0 * times), atol=1e-10)

    def test_longitudinal_state_silent(self):
        signal = fid(single_spin(100.0), Z, detect=0, duration=0.01, points=32)
        assert np.max(np.abs(signal)) < 1e-14

    def test_two_spin_line_at_nu_plus_half_j(self):
        s = two_spin(nu1=120.0, nu2=-300.0, j=50.0)
        rho = kron(X, P0)
        points, duration = 128, 0.04
        signal = fid(s, rho, detect=0, duration=duration, points=points)
        times = np.arange(points) * (duration / points)
        expected = 2 * np.exp(2j * np.pi * (120.0 + 25.0) * times)
        assert np.allclose(signal, expected, atol=1e-10)

    def test_bad_detect_index(self):
        with pytest.raises(ValueError):
            fid(single_spin(), X, detect=1, duration=0.01, points=16)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            fid(single_spin(), X, detect=0, duration=0.0, points=16)

    def test_non_finite_coherence_rejected(self):
        rho = kron(X, I2)
        rho[2, 0] = np.nan  # read by the detector of spin 0
        with pytest.raises(ValueError, match="finite"):
            fid(two_spin(), rho, detect=0, duration=0.01, points=16)


class TestSpectrum:
    def test_single_peak_within_one_bin(self):
        nu, points, dwell = 85.0, 512, 1e-3
        times = np.arange(points) * dwell
        spec = spectrum(np.exp(2j * np.pi * nu * times), dwell, line_broadening=0.0)
        peak = spec.frequencies[int(np.argmax(np.abs(spec.intensities)))]
        assert abs(peak - nu) <= 1.0 / (points * dwell)

    def test_zero_signal(self):
        spec = spectrum(np.zeros(64, dtype=complex), 1e-3)
        assert np.max(np.abs(spec.intensities)) == 0

    @pytest.mark.parametrize("width", [-1e4, -1e-3, np.nan])
    def test_negative_broadening_rejected(self, width):
        with pytest.raises(ValueError, match="line broadening"):
            spectrum(np.ones(8, dtype=complex), 0.125, line_broadening=width)

    def test_readout_multiplet_of_initial_state(self):
        # X00Z on four spins: C1 lines at nu1 + (J12 + J13 +- J14)/2, amplitudes +-
        s = PARAMETER_SETS[0]
        rho = pseudopure_init("X00Z")
        points, duration = 8192, 2.0
        signal = fid(s, rho, detect=0, duration=duration, points=points)
        spec = spectrum(signal, duration / points, line_broadening=1.0)
        j = s.j
        expected = sorted(
            [
                (j[0, 1] + j[0, 2] + j[0, 3]) / 2,
                (j[0, 1] + j[0, 2] - j[0, 3]) / 2,
            ]
        )
        mags = np.abs(spec.intensities)
        order = np.argsort(mags)[::-1]
        peaks = sorted(spec.frequencies[order[:2]])
        resolution = 1.0 / duration
        assert abs(peaks[0] - expected[0]) <= resolution
        assert abs(peaks[1] - expected[1]) <= resolution

    def test_phased_real_positive_peak(self):
        nu, points, dwell = -40.0, 256, 1e-3
        times = np.arange(points) * dwell
        spec = spectrum(1j * np.exp(2j * np.pi * nu * times), dwell)
        real = phased_real(spec)
        assert real.max() > 0
        assert abs(real.max() - np.max(np.abs(spec.intensities))) < 1e-9


class TestSpectralOverlap:
    def test_identical_spectra(self):
        times = np.arange(128) * 1e-3
        spec = spectrum(np.exp(2j * np.pi * 30.0 * times), 1e-3, 1.0)
        assert abs(spectral_overlap(spec, spec) - 1.0) < 1e-12

    def test_disjoint_peaks_nearly_orthogonal(self):
        points, dwell = 4096, 1e-3
        times = np.arange(points) * dwell
        a = spectrum(np.exp(2j * np.pi * 100.0 * times), dwell, 2.0)
        b = spectrum(np.exp(2j * np.pi * -150.0 * times), dwell, 2.0)
        assert spectral_overlap(a, b) < 0.05

    def test_grid_mismatch_rejected(self):
        times = np.arange(64) * 1e-3
        a = spectrum(np.exp(2j * np.pi * 10.0 * times), 1e-3)
        b = spectrum(np.exp(2j * np.pi * 10.0 * np.arange(32) * 1e-3), 1e-3)
        with pytest.raises(ValueError):
            spectral_overlap(a, b)

    def test_ideal_experiment_matches_ideal_reference(self):
        s = PARAMETER_SETS[0]
        rho = run_sequence(s, "X00X", acausality_sequence(False))
        # readout rotation making XXIZ observable on C1: rotate C2 to z
        rho = apply_rotation(rho, (1,), "y", -np.pi / 2)
        points, duration = 4096, 2.0
        signal = fid(s, rho, detect=0, duration=duration, points=points)
        spec_a = spectrum(signal, duration / points, line_broadening=1.0)
        spec_b = spectrum(signal.copy(), duration / points, line_broadening=1.0)
        assert abs(spectral_overlap(spec_a, spec_b) - 1.0) < 1e-12


# Differential tests: each kernel against the dense form it replaced, which
# now exists only here.  Inputs come from a drawn seed so that every example
# is reproducible from hypothesis's report.

DENSE = settings(max_examples=15, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


def _hermitian(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


def _random_system(n, rng):
    couplings = {(a, b): rng.uniform(-80.0, 80.0) for a in range(n) for b in range(a)}
    return SpinSystem.from_couplings(list(rng.uniform(-500.0, 500.0, n)), couplings)


def assert_close(actual, expected, tol=1e-12):
    """Agreement to ``tol``, relative to the largest entry when that exceeds 1."""
    expected = np.asarray(expected)
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    assert np.max(np.abs(np.asarray(actual) - expected), initial=0.0) <= tol * scale


def dense_rotation(rho, spins, axis, angle, n):
    theta = -angle if axis.startswith("-") else angle
    sigma = PAULI[axis.lstrip("+-").upper()]
    gate = np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * sigma
    u = np.eye(2**n, dtype=complex)
    for spin in spins:
        u = _embed(gate, spin, n) @ u
    return u @ rho @ u.conj().T


def dense_decompose(rho, n, tol):
    prefixes = {"": np.ones((1, 1))}

    def prefix(label):  # Kronecker product of the letters, cached
        if label not in prefixes:
            prefixes[label] = kron(prefix(label[:-1]), PAULI[label[-1]])
        return prefixes[label]

    terms = []
    for label in map("".join, product("IXYZ", repeat=n)):
        p = kron(prefix(label[:-1]), PAULI[label[-1]])
        c = np.sum(rho * p.T).real / 2**n  # tr(rho p)
        if abs(c) > tol:
            terms.append((label, c))
    return terms


def dense_fid(s, rho, detect, duration, points):
    energies = build_hamiltonian(s)
    op = _embed(X + 1j * Y, detect, s.n)
    out = []
    for t in np.arange(points) * (duration / points):
        u = np.diag(np.exp(-1j * energies * t))
        out.append(np.trace(u @ rho @ u.conj().T @ op))
    return np.array(out)


def z_twirl(rho, spins, n):
    """2**-k sum over subsets S of the k listed spins of Z_S rho Z_S; a
    repeated spin's Z_k Z_k is the identity, so repeats do not matter."""
    twirl = np.zeros_like(rho)
    for flips in product((False, True), repeat=len(spins)):
        z = np.eye(2**n)
        for spin, flip in zip(spins, flips):
            if flip:
                z = _embed(Z, spin, n) @ z
        twirl += z @ rho @ z.conj().T
    return twirl / 2 ** len(spins)


def dense_sequence(s, init, seq):
    """Each event as a 2**n x 2**n unitary built by kron, conjugating the
    state; a gradient as the Z twirl."""
    n = s.n
    rho = pseudopure_init(init)
    energies = np.diag(dense_hamiltonian(s))  # diagonal, see TestHamiltonian
    for ev in seq:
        if isinstance(ev, Rotation):
            rho = dense_rotation(rho, ev.spins, ev.axis, ev.angle, n)
        elif isinstance(ev, Gradient):
            rho = z_twirl(rho, ev.spins, n)
        elif isinstance(ev, JCoupling):
            zz = _embed(Z, ev.pair[0], n) @ _embed(Z, ev.pair[1], n)
            u = np.cos(ev.angle / 2) * np.eye(2**n) - 1j * np.sin(ev.angle / 2) * zz
            rho = u @ rho @ u.conj().T
        else:
            u = np.diag(np.exp(-1j * energies * ev.duration))
            rho = u @ rho @ u.conj().T
    return rho


EIGHT_SPINS = (
    SpinSystem.from_couplings(
        [-350.0 + 100.0 * k for k in range(8)],
        {(a, b): 5.0 + 9.0 * a - 4.0 * b for a in range(8) for b in range(a)},
    ),
    "X0Y1ZI0X",
    [
        Rotation((0, 7, 7), "-y", 1.3),
        JCoupling((6, 2), 2.1),
        Delay(0.004),
        Gradient((1, 5, 1)),
        Rotation((3,), "+X", -0.7),
        JCoupling((0, 7), -0.9),
    ],
)


class TestAgainstDenseForms:
    @DENSE
    @given(
        n=st.integers(1, 5),
        seed=SEEDS,
        spins=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        axis=st.sampled_from(SIGNED_AXES),
        angle=st.floats(-10.0, 10.0),
    )
    # n = 7: spin 0's column axis takes the stacked order, spins 3 and 6 one gemm
    @example(n=7, seed=7, spins=[0, 3, 6, 6], axis="-y", angle=1.3)
    def test_apply_rotation(self, n, seed, spins, axis, angle):
        spins = [spin % n for spin in spins]  # repeats are allowed and kept
        rho = _hermitian(2**n, np.random.default_rng(seed))
        assert_close(
            apply_rotation(rho, spins, axis, angle), dense_rotation(rho, spins, axis, angle, n)
        )

    @DENSE
    @given(n=st.integers(1, 5), seed=SEEDS, sparse=st.booleans())
    @example(n=6, seed=0, sparse=False)  # the dense oracle takes 0.4 s at n=6
    def test_pauli_decompose(self, n, seed, sparse):
        rng = np.random.default_rng(seed)
        if sparse:
            rho = pseudopure_init("".join(rng.choice(list("IXYZ01"), size=n)))
        else:
            rho = _hermitian(2**n, rng)
        fast = pauli_decompose(rho, tol=1e-9)
        slow = dense_decompose(rho, n, tol=1e-9)
        assert [label for label, _ in fast] == [label for label, _ in slow]
        assert_close([c for _, c in fast], [c for _, c in slow])

    @DENSE
    @given(n=st.integers(1, 5), seed=SEEDS)
    def test_build_hamiltonian(self, n, seed):
        s = _random_system(n, np.random.default_rng(seed))
        assert_close(build_hamiltonian(s), np.diag(dense_hamiltonian(s)))

    @DENSE
    @given(n=st.integers(1, 5), seed=SEEDS, t=st.floats(-0.01, 0.01))
    def test_evolve_with_diagonal_generator(self, n, seed, t):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(seed)
        rho = _hermitian(2**n, rng)
        energies = build_hamiltonian(_random_system(n, rng))
        u = expm(-1j * np.diag(energies) * t)
        assert_close(evolve(rho, energies, t), u @ rho @ u.conj().T)

    @DENSE
    @given(
        n=st.integers(1, 5),
        seed=SEEDS,
        detect=st.integers(0, 4),
        points=st.integers(2, 16),
        duration=st.floats(1e-4, 0.02),
        sparse=st.booleans(),
    )
    @example(n=8, seed=62, detect=7, points=16, duration=0.01, sparse=True)  # 000Z1I0X
    def test_fid(self, n, seed, detect, points, duration, sparse):
        rng = np.random.default_rng(seed)
        s = _random_system(n, rng)
        if sparse:  # mostly zero coherences, which the detector skips
            rho = pseudopure_init("".join(rng.choice(list("IXYZ01"), size=n)))
        else:
            rho = _hermitian(2**n, rng)
        detect %= n
        assert_close(
            fid(s, rho, detect, duration, points), dense_fid(s, rho, detect, duration, points)
        )

    @DENSE
    @given(
        n=st.integers(1, 6),
        seed=SEEDS,
        spins=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    )
    def test_gradient_crush(self, n, seed, spins):
        spins = [spin % n for spin in spins]  # repeats are allowed and kept
        rho = _hermitian(2**n, np.random.default_rng(seed))
        assert_close(gradient_crush(rho, spins), z_twirl(rho, spins, n))

    @DENSE
    @given(case=pulse_sequences())
    @example(case=EIGHT_SPINS)
    def test_run_sequence(self, case):
        s, init, seq = case
        assert_close(run_sequence(s, init, seq), dense_sequence(s, init, seq), tol=1e-10)

    @DENSE
    @given(n=st.integers(1, 6), seed=SEEDS, qubit=st.integers(0, 5))
    def test_gate1_in_run_gate_circuit(self, n, seed, qubit):
        rng = np.random.default_rng(seed)
        qubit %= n
        u = random_unitary(2, rng)
        state = random_state(2**n, rng)
        out = run_gate_circuit(GateCircuit(n, (Gate1(qubit, u),)), state)[()].raw
        assert_close(out, _embed(u, qubit, n) @ state)
