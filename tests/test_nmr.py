import re
import tracemalloc
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import allocating_fold, closed_form_fid, event_by_event
from strategies import SIGNED_AXES, pulse_sequences

from timeflow.circuits import Gate1, GateCircuit, run_gate_circuit
from timeflow.cli import main
from timeflow.linalg import INPUT_TOL, PAULI, apply_local, kron, random_state, random_unitary, ry
from timeflow.nmr import (
    Delay,
    Gradient,
    JCoupling,
    Rotation,
    SpinSystem,
    _decompose,
    _fid,
    _line_frequencies,
    _run_reduced,
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

    @pytest.mark.parametrize(
        "pair,message",
        [
            ((0, -1), "coupling (0, -1): spin index -1 out of range"),
            ((0, 5), "coupling (0, 5): spin index 5 out of range"),
            ((3, 1), "coupling (3, 1): spin index 3 out of range"),
            ((0, 1.0), "coupling (0, 1.0): spin index 1.0 is not an integer"),
            ((True, 2), "coupling (True, 2): spin index True is not an integer"),
        ],
    )
    def test_from_couplings_names_a_pair_outside_the_spins(self, pair, message):
        # a negative index used to wrap around to the last spin
        with pytest.raises(ValueError, match=re.escape(message)):
            SpinSystem.from_couplings([0.0, 1.0, 2.0], {pair: 5.0})

    def test_from_couplings_takes_numpy_indices(self):
        s = SpinSystem.from_couplings([0.0, 1.0, 2.0], {(np.int64(0), np.int64(2)): 5.0})
        assert s.j[0, 2] == s.j[2, 0] == 5.0


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

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="evolution time must be finite"):
            evolve(np.eye(2), [1.0, 2.0], t)


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


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: Rotation((0,), "w", 0.2), "invalid axis 'w'"),
        (lambda: Rotation((0,), 1, 0.2), "invalid axis 1"),
        (lambda: Rotation((0,), None, 0.2), "invalid axis None"),
        (lambda: JCoupling((1, 1), 0.2), "coupling needs two distinct spins"),
        (lambda: JCoupling((0, 1, 2), 0.2), "coupling needs two distinct spins"),
        (lambda: Gradient(()), "gradient needs a nonempty spin subset"),
    ],
    ids=["axis-w", "axis-int", "axis-none", "j-self", "j-three", "gradient-empty"],
)
def test_events_check_themselves_when_built(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# The public kernels build their event from their arguments, so they reject
# what the event rejects, before any state is touched.
@pytest.mark.parametrize(
    "kernel,message",
    [
        (lambda rho: apply_rotation(rho, (0,), "y", np.nan), "rotation angle must be finite"),
        (lambda rho: apply_rotation(rho, (1,), "z", -np.inf), "rotation angle must be finite"),
        (lambda rho: apply_rotation(rho, (0,), 2, 0.5), "invalid axis 2"),
        (lambda rho: apply_jcoupling(rho, (0, 1), np.inf), "coupling angle must be finite"),
        (lambda rho: apply_jcoupling(rho, (1, 1), 0.5), "coupling needs two distinct spins"),
        (lambda rho: gradient_crush(rho, ()), "gradient needs a nonempty spin subset"),
    ],
    ids=["rotation-nan", "z-inf", "axis-int", "j-inf", "j-self", "gradient-empty"],
)
def test_public_kernels_check_their_event(kernel, message):
    with pytest.raises(ValueError, match=message):
        kernel(pseudopure_init("XY"))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda rho: pauli_decompose(rho, tol=np.nan), "tol must be finite and non-negative"),
        (lambda rho: pauli_decompose(rho, tol=np.inf), "tol must be finite and non-negative"),
        (lambda rho: pauli_decompose(rho, tol=-1e-9), "tol must be finite and non-negative"),
        (lambda rho: coherence_amplitude(rho, 5), "spin index 5 out of range"),
        (lambda rho: coherence_amplitude(rho, -1), "spin index -1 out of range"),
        (lambda rho: apply_rotation(rho, (0.5,), "y", 1.0), "spin index 0.5 is not an integer"),
        (lambda rho: gradient_crush(rho, (False,)), "spin index False is not an integer"),
        (
            lambda rho: run_sequence(two_spin(), "XY", [Rotation((0.5,), "y", 1.0)]),
            "spin index 0.5 is not an integer",
        ),
    ],
    ids=["tol-nan", "tol-inf", "tol-negative", "spin-5", "spin-negative", "rotation-float",
         "gradient-bool", "sequence-float"],
)
def test_library_inputs_are_rejected_with_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(pseudopure_init("XY"))


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


SIDE_KERNELS = {
    "apply_rotation": lambda rho: apply_rotation(rho, (0,), "x", 1.0),
    "apply_jcoupling": lambda rho: apply_jcoupling(rho, (0, 1), 1.0),
    "gradient_crush": lambda rho: gradient_crush(rho, (0,)),
    "pauli_decompose": pauli_decompose,
    "evolve": lambda rho: evolve(rho, np.zeros(len(rho)), 1.0),
}


# evolve first asks for one energy per row of a square state, so only its
# 6 x 6 case reaches the side check (TestEvolve has the 4 x 2 one)
@pytest.mark.parametrize(
    "kernel,shape",
    [
        pytest.param(kernel, shape, id=f"{kernel}-{shape[0]}x{shape[1]}")
        for kernel in SIDE_KERNELS
        for shape in [(6, 6), (4, 2)]
        if kernel != "evolve" or shape == (6, 6)
    ],
)
def test_state_side_must_be_a_power_of_two(kernel, shape):
    with pytest.raises(ValueError, match="matrix side must be a power of two"):
        SIDE_KERNELS[kernel](np.eye(*shape))


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

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: Delay(np.nan), "delay must be finite"),
            (lambda: Delay(np.inf), "delay must be finite"),
            (lambda: Rotation((0,), "x", np.nan), "rotation angle must be finite"),
            (lambda: Rotation((0,), "z", -np.inf), "rotation angle must be finite"),
            (lambda: JCoupling((0, 1), np.inf), "coupling angle must be finite"),
        ],
        ids=["delay-nan", "delay-inf", "x-nan", "z-inf", "j-inf"],
    )
    def test_non_finite_event_rejected(self, make, message):
        # rejected where the event is built, so no NaN reaches a state
        with pytest.raises(ValueError, match=message):
            run_sequence(two_spin(), "X0", [make()])

    @pytest.mark.parametrize(
        "event,message",
        [
            (partial(Rotation, (2,), "z", 1.0), "spin index 2 out of range"),
            (partial(Rotation, (0, -1), "-x", 1.0), "spin index -1 out of range"),
            (partial(Rotation, (0, 2), "y", 1.0), "spin index 2 out of range"),
            (partial(JCoupling, (0, 2), 1.0), "spin index 2 out of range"),
            (partial(JCoupling, (0, 1), 1.0), "no J coupling"),
            (partial(Gradient, (3,)), "spin index 3 out of range"),
        ],
    )
    def test_folded_events_keep_the_kernel_checks(self, event, message):
        seq = [Delay(1e-3), Rotation((0,), "z", 0.3), event()]
        with pytest.raises(ValueError, match=message):
            run_sequence(two_spin(j=0.0), "XY", seq)

    @pytest.mark.parametrize(
        "seq,message",
        [
            (
                [partial(Rotation, (7,), "y", 0.1), partial(Gradient, (9,))],
                "spin index 7 out of range",
            ),
            (
                [partial(Rotation, (7,), "y", 0.1), partial(Rotation, (0,), "w", 0.2)],
                "invalid axis 'w'",
            ),
            (
                [partial(Gradient, (5,)), partial(Rotation, (0, 9), "-x", 0.3)],
                "spin index 5 out of range",
            ),
        ],
    )
    def test_first_faulty_event_wins_over_the_pulsed_scan(self, seq, message):
        # an event's own faults raise when it is built, before any check
        # against the system; the pass that finds the pulsed spins then
        # reports the first event the system rejects
        with pytest.raises(ValueError, match=message):
            run_sequence(FOUR_SPINS, "XY0Z", [make() for make in seq])

    def test_non_finite_generator_rejected_at_a_delay(self):
        s = SpinSystem((1e308,), np.zeros((1, 1)))  # pi * 1e308 overflows
        assert run_sequence(s, "X", [Rotation((0,), "z", 0.5)]).shape == (2, 2)
        with pytest.raises(ValueError, match="real, finite energy"):
            run_sequence(s, "X", [Rotation((0,), "z", 0.5), Delay(1e-3)])


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

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf, -0.01])
    def test_non_finite_or_negative_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration"):
            fid(single_spin(), X, detect=0, duration=duration, points=16)

    @pytest.mark.parametrize("points", [16.5, 16.0, "16"])
    def test_non_integer_points_rejected(self, points):
        with pytest.raises(ValueError, match="points must be an integer"):
            fid(single_spin(), X, detect=0, duration=0.01, points=points)

    def test_numpy_integer_points_accepted(self):
        signal = fid(single_spin(), X, detect=0, duration=0.01, points=np.int64(16))
        assert np.array_equal(signal, fid(single_spin(), X, detect=0, duration=0.01, points=16))

    def test_overflowing_line_phase_rejected(self):
        # 2 pi * 1e308 overflows, and so does a finite frequency times a long duration
        with pytest.raises(ValueError, match="overflows"):
            fid(single_spin(1e308), X, detect=0, duration=0.01, points=16)
        with pytest.raises(ValueError, match="overflows"):
            fid(single_spin(1e300), X, detect=0, duration=1e10, points=16)

    def test_ten_spins_at_the_point_limit_stay_small(self):
        # all 512 lines of the detected spin at 2**16 points: the factored grid
        # holds about 2 sqrt(points) exponentials per line, not points
        n, points, duration = 10, 2**16, 2.0
        mask = 1 << (n - 1)
        rows = np.flatnonzero(np.arange(2**n) & mask)
        rng = np.random.default_rng(10)
        rho = np.zeros((2**n, 2**n), dtype=complex)
        rho[rows, rows ^ mask] = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        tracemalloc.start()
        signal = fid(TEN_SPINS, rho, 0, duration, points)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * 2**20
        energies = build_hamiltonian(TEN_SPINS)
        freq = energies[rows] - energies[rows ^ mask]
        k = np.array([0, 1, 255, 256, 257, 40000, points - 1])
        t = k * (duration / points)
        expected = np.exp(-1j * np.outer(t, freq)) @ (2 * rho[rows, rows ^ mask])
        assert_close(signal[k], expected, tol=1e-9)


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

    # pi * width overflows to inf, whose product with t = 0 is NaN; or the
    # exponent pi * width * t overflows at the last point
    @pytest.mark.parametrize(
        "points,dwell,width",
        [(8, 0.125, 1e308), (1, 0.125, 1e308), (8, 0.125, np.finfo(float).max), (8, 1e10, 1e300)],
    )
    def test_overflowing_decay_rejected(self, points, dwell, width):
        with pytest.raises(ValueError, match="line broadening .* overflows"):
            spectrum(np.ones(points, dtype=complex), dwell, line_broadening=width)

    @pytest.mark.parametrize("dwell", [0.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_dwell_must_be_finite_and_positive(self, dwell):
        with pytest.raises(ValueError, match="dwell must be finite and positive"):
            spectrum(np.ones(8, dtype=complex), dwell, line_broadening=1.0)

    @pytest.mark.parametrize(
        "signal", [np.ones((8, 8), dtype=complex), np.full(8, np.nan), np.array([1, np.inf, 0])]
    )
    def test_signal_must_be_one_finite_sample_per_point(self, signal):
        with pytest.raises(ValueError, match="one finite sample per point"):
            spectrum(signal, 0.125)

    # 1 / (8 * 5e-324) and 8 * 1e308 overflow
    @pytest.mark.parametrize("dwell", [5e-324, 1e308])
    def test_dwell_whose_grid_overflows_rejected(self, dwell):
        with pytest.raises(ValueError, match=re.escape(f"dwell {dwell} s at 8 points overflows")):
            spectrum(np.ones(8, dtype=complex), dwell)

    def test_finite_decay_that_underflows_accepted(self):
        # exp(-pi * 1e307 * t) is 1 at t = 0 and 0 after: a flat spectrum
        spec = spectrum(np.ones(8, dtype=complex), 0.125, line_broadening=1e307)
        assert np.all(spec.intensities == 1.0)

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


FOUR_SPINS = SpinSystem.from_couplings(
    [120.0, -340.0, 55.0, 410.0],
    {(a, b): 7.0 + 11.0 * a - 3.0 * b for a in range(4) for b in range(a)},
)

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
    @given(label=st.text("IXYZ01", min_size=1, max_size=6))
    def test_pseudopure_init(self, label):
        factors = {"I": I2, "X": X, "Y": Y, "Z": Z, "0": P0, "1": I2 - P0}
        dense = np.ones((1, 1))
        for ch in label:
            dense = kron(dense, factors[ch])
        assert np.array_equal(pseudopure_init(label), dense)

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
    @example(case=(FOUR_SPINS, "XY0Z", [Rotation((3, 3), "x", np.pi / 4), Delay(0.002)]))
    @example(case=(FOUR_SPINS, "YIXZ", [Delay(0.001), Rotation((1, 2, 1), "x", 0.9)]))
    @example(case=(FOUR_SPINS, "X1YI", [JCoupling((0, 3), 0.4), Rotation((0, 2), "-x", 1.1)]))
    @example(case=(FOUR_SPINS, "XXY0", [Rotation((1, 1, 0), "z", 0.7), Rotation((2,), "y", 0.3)]))
    @example(case=(FOUR_SPINS, "XYXY", [  # a J/delay/z run split by a crusher
        JCoupling((0, 1), 0.8), Delay(0.003), Rotation((2,), "-z", 1.2), Gradient((1,)),
        JCoupling((1, 2), -0.6), Delay(0.001), Rotation((0, 0), "z", 0.4),
        Rotation((1, 3), "y", 0.5),
    ]))
    @example(case=(FOUR_SPINS, "ZX1Y", [  # ends with the phase still pending
        Rotation((0,), "y", 1.0), Rotation((1,), "x", -0.6), Delay(0.002), JCoupling((2, 3), 1.3),
    ]))
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


def mp_energies(s):
    """Each basis state's energy under the module's H, at mpmath's working
    precision, with the float offsets and couplings taken exactly."""
    import mpmath

    n = s.n
    nu = [mpmath.mpf(v) for v in s.larmor]
    j = [[mpmath.mpf(float(v)) for v in row] for row in s.j]

    def energy(r):
        z = [1 - 2 * ((int(r) >> (n - 1 - i)) & 1) for i in range(n)]
        return mpmath.pi * (
            mpmath.fsum(nu[i] * z[i] for i in range(n))
            + mpmath.fsum(j[i][k] * z[i] * z[k] for i in range(n) for k in range(i)) / 2
        )

    return [energy(r) for r in range(2**n)]


def mp_fid(s, rho, detect, duration, points):
    """The detection signal as a 120-bit mpmath sum: each line at
    E(r) - E(r ^ mask) of the module's H, at the exact times
    k * duration / points."""
    mpmath = pytest.importorskip("mpmath")
    n = s.n
    mask = 1 << (n - 1 - detect)
    rows = np.flatnonzero(np.arange(2**n) & mask)
    with mpmath.workprec(120):
        energy = mp_energies(s).__getitem__
        lines = [(mpmath.mpc(2 * complex(rho[r, r ^ mask])), energy(r) - energy(r ^ mask))
                 for r in rows]
        omega = np.array([float(w) for _, w in lines])
        signal = np.array([
            complex(mpmath.fsum(c * mpmath.expj(-w * k * mpmath.mpf(duration) / points)
                                for c, w in lines))
            for k in range(points)
        ])
    return signal, omega


# 2, a prime, a square and the counts either side of it: full and ragged
# last rows of the factored sample grid
@pytest.mark.parametrize("points", [2, 31, 35, 36, 37])
@pytest.mark.parametrize("n", range(1, 9))
def test_fid_against_an_mpmath_sum(n, points):
    rng = np.random.default_rng([21, n, points])
    s = _random_system(n, rng)
    rho = _hermitian(2**n, rng)
    detect = int(rng.integers(n))
    duration = float(rng.uniform(0.05, 2.0))
    expected, omega = mp_fid(s, rho, detect, duration, points)
    mask = 1 << (n - 1 - detect)
    rows = np.flatnonzero(np.arange(2**n) & mask)
    weight = np.sum(np.abs(2 * rho[rows, rows ^ mask]))
    # every phase is good to a few ulps of the largest argument |w t|
    bound = 8 * np.finfo(float).eps * max(1.0, np.max(np.abs(omega)) * duration) * weight
    assert np.max(np.abs(fid(s, rho, detect, duration, points) - expected)) <= bound


@pytest.mark.parametrize("duration", [1e-2, 0.1, 1.0])
def test_delay_against_an_mpmath_phase(duration):
    # A delay's phases come from build_hamiltonian's total energies, so the
    # error grows as eps max|E| t: 3.1e-14, 3.0e-13 and 3.1e-12 at these
    # durations, where max|E| is 5.8e3 rad/s, each 0.3 of the bound.
    mpmath = pytest.importorskip("mpmath")
    n = 8
    s = _random_system(n, np.random.default_rng([7, n]))
    label = "X" + "I" * (n - 2) + "X"
    rho0 = pseudopure_init(label)
    rows, cols = np.nonzero(rho0)
    with mpmath.workprec(120):
        energy = mp_energies(s)
        t = mpmath.mpf(duration)
        expected = np.array([
            complex(mpmath.mpc(complex(rho0[r, c])) * mpmath.expj(-(energy[r] - energy[c]) * t))
            for r, c in zip(rows, cols)
        ])
    rho = run_sequence(s, label, [Delay(duration)])
    scale = np.max(np.abs(build_hamiltonian(s))) * duration
    bound = 8 * np.finfo(float).eps * max(1.0, scale) * np.max(np.abs(rho0))
    assert np.max(np.abs(rho[rows, cols] - expected)) <= bound
    rho[rows, cols] = 0
    assert not rho.any()  # a delay moves no element


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), seed=SEEDS, detect=st.integers(0, 9))
def test_line_frequencies_are_energy_differences(n, seed, detect):
    rng = np.random.default_rng(seed)
    s = _random_system(n, rng)
    detect %= n
    mask = 1 << (n - 1 - detect)
    rows = np.flatnonzero(np.arange(2**n) & mask)
    energies = build_hamiltonian(s)
    # each energy sums at most n**2 / 2 terms, each no larger than its share
    # of the scale below
    scale = np.pi * (np.sum(np.abs(s.larmor)) + np.sum(np.abs(s.j)))
    error = np.abs(_line_frequencies(s, detect, rows) - (energies[rows] - energies[rows ^ mask]))
    assert np.max(error) <= n * n * np.finfo(float).eps * scale


def _shuffled_sequence(n, rng):
    """Every event kind at n spins in a random order: single and three-spin
    rotations (one with a repeated spin) about every signed axis, couplings,
    delays and one crusher."""
    axes = ["x", "y", "z", "-x", "-y", "-z"]
    seq = [Rotation((int(rng.integers(n)),), ax, float(rng.uniform(-np.pi, np.pi)))
           for ax in axes]
    for ax in axes:
        spins = tuple(int(k) for k in rng.choice(n, size=3, replace=False))
        seq.append(Rotation(spins, ax, float(rng.uniform(-np.pi, np.pi))))
    seq.append(Rotation(spins[:2] + spins[:1], "x", 0.8))
    for _ in range(4):
        pair = tuple(int(k) for k in rng.choice(n, size=2, replace=False))
        seq.append(JCoupling(pair, float(rng.uniform(-np.pi, np.pi))))
        seq.append(Delay(float(rng.uniform(1e-4, 2e-3))))
    seq.append(Gradient(tuple(int(k) for k in rng.choice(n, size=2, replace=False))))
    return [seq[i] for i in rng.permutation(len(seq))]


@pytest.mark.parametrize("n,seed", [(8, 0), (8, 1), (8, 2), (10, 3)])
def test_run_sequence_matches_event_by_event_kernels(n, seed):
    # the fold against one public kernel call per event, at the sizes of the
    # dynamics benchmark; no dense oracle fits there
    rng = np.random.default_rng([14, n, seed])
    s = _random_system(n, rng)
    # a nonzero trace, which every event keeps, so the crusher cannot zero the state
    init = "".join(rng.choice(list("I01"), size=n - 1)) + "0"
    seq = _shuffled_sequence(n, rng)
    expected = event_by_event(s, init, seq)
    assert np.max(np.abs(expected)) > 1e-3
    assert_close(run_sequence(s, init, seq), expected, tol=1e-10)


TEN_SPINS = SpinSystem.from_couplings(
    [-450.0 + 100.0 * k for k in range(10)],
    {(a, b): 3.0 + 7.0 * a - 2.0 * b for a in range(10) for b in range(a)},
)


# The fold on the columns that can be nonzero against the dense allocating
# fold it replaced.  Both run the same products and phase multiplies on every
# element that can be nonzero, so every bit must agree.
@settings(max_examples=40, deadline=None)
@given(case=pulse_sequences(min_spins=3, max_spins=8, max_events=10))
@example(case=EIGHT_SPINS)
@example(case=(FOUR_SPINS, "XY0Z", [  # x rotations with a repeated spin, then -x
    Delay(0.002), Rotation((3, 1, 3), "x", 0.9), Rotation((0, 2), "-x", -1.4),
]))
@example(case=(FOUR_SPINS, "Y1ZX", [  # a crusher between two pending phases
    JCoupling((0, 3), 0.7), Delay(0.001), Gradient((2, 1)), Rotation((1,), "-z", 0.3),
    Delay(0.003), Rotation((3, 3), "y", 1.1),
]))
@example(case=(FOUR_SPINS, "ZX1Y", [  # ends with the phase still pending
    Rotation((2,), "-x", 0.6), JCoupling((1, 3), -1.2), Delay(0.002), Rotation((0,), "z", 2.0),
]))
@example(case=(FOUR_SPINS, "XY0Z", [  # no x or y pulse: m = 0
    Delay(0.002), JCoupling((0, 1), 0.5), Rotation((2, 3), "-z", 0.3), Gradient((2,)),
    Delay(0.001),
]))
@example(case=(TEN_SPINS, "X0YZI1ZX0Y", [  # n = 10 with one pulsed spin
    Delay(0.001), Rotation((4,), "x", 0.7), JCoupling((4, 9), 1.1), Delay(0.002),
    Rotation((4,), "-y", -1.9), Rotation((0, 8), "z", 0.4), Gradient((1, 4)),
]))
@example(case=(FOUR_SPINS, "XY0Z", [  # a crusher on an unpulsed X spin zeroes all
    Rotation((2,), "y", 0.4), Delay(0.001), Gradient((0, 2)),
]))
@example(case=(FOUR_SPINS, "XY0Z", [  # a crusher on an unpulsed diagonal spin is a no-op
    Rotation((1,), "y", 0.4), Delay(0.001), Gradient((3,)), Rotation((1,), "x", 1.2),
]))
@example(case=(FOUR_SPINS, "IXZ0", [  # an x rotation with a repeated spin, m = 1
    Delay(0.003), Rotation((1, 1), "x", 0.6), JCoupling((1, 2), 0.8), Delay(0.001),
]))
def test_run_sequence_bitwise_equal_to_the_allocating_fold(case):
    s, init, seq = case
    assert np.array_equal(run_sequence(s, init, seq), allocating_fold(s, init, seq))


# Each public kernel on a 4-spin state and the energies of FOUR_SPINS; the
# apply_local calls take the real view (ry) and the complex path.
KERNELS = {
    "apply_local real": lambda rho, e: apply_local(rho.reshape((2,) * 8), 3, ry(0.7)),
    "apply_local complex": lambda rho, e: apply_local(rho.reshape((2,) * 8), 6, X + 1j * Z),
    "apply_rotation y": lambda rho, e: apply_rotation(rho, (0, 3, 3), "y", 0.9),
    "apply_rotation -x": lambda rho, e: apply_rotation(rho, (2,), "-x", 1.3),
    "apply_rotation z": lambda rho, e: apply_rotation(rho, (1, 3), "z", 0.4),
    "evolve": lambda rho, e: evolve(rho, e, 0.002),
    "apply_jcoupling": lambda rho, e: apply_jcoupling(rho, (1, 3), 0.6),
    "gradient_crush": lambda rho, e: gradient_crush(rho, (0, 2)),
    "fid": lambda rho, e: fid(FOUR_SPINS, rho, 2, 0.01, 16),
    "pauli_decompose": lambda rho, e: pauli_decompose(rho),
}


# What the NMR kernels return for a float64 state: a crusher keeps its
# input's dtype, and every other kernel returns complex128.
FLOAT_RESULT_DTYPES = {
    "apply_rotation y": np.complex128,
    "apply_rotation -x": np.complex128,
    "apply_rotation z": np.complex128,
    "evolve": np.complex128,
    "apply_jcoupling": np.complex128,
    "gradient_crush": np.float64,
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_public_kernels_leave_their_input_unchanged(kernel):
    complex_rho = _hermitian(16, np.random.default_rng(17))
    energies = build_hamiltonian(FOUR_SPINS)
    for rho in (complex_rho, complex_rho.real.copy()):
        before, energies_before = rho.tobytes(), energies.tobytes()
        out = KERNELS[kernel](rho, energies)
        assert rho.tobytes() == before and energies.tobytes() == energies_before
        assert not (isinstance(out, np.ndarray) and np.shares_memory(out, rho))
        if kernel in FLOAT_RESULT_DTYPES:
            expected = FLOAT_RESULT_DTYPES[kernel] if rho.dtype == float else np.complex128
            assert out.dtype == expected


@pytest.mark.parametrize("kernel", sorted(FLOAT_RESULT_DTYPES))
def test_public_kernels_read_a_fortran_ordered_state(kernel):
    # the kernels fold over a copy in place, through C-ordered reshapes
    rho = _hermitian(16, np.random.default_rng(18))
    energies = build_hamiltonian(FOUR_SPINS)
    out = KERNELS[kernel](np.asfortranarray(rho), energies)
    assert np.array_equal(out, KERNELS[kernel](rho, energies))


def _bits(values):
    return np.array(values, dtype=float).view(np.int64)


@settings(max_examples=150, deadline=None)
@given(
    case=pulse_sequences(min_spins=1, max_spins=8),
    tol=st.sampled_from([INPUT_TOL, 0.0]),
    detect=st.integers(0, 7),
)
def test_reduced_readout_bitwise_equal_to_the_dense_one(case, tol, detect):
    s, init, seq = case
    state = _run_reduced(s, init, seq)
    rho = run_sequence(s, init, seq)
    labels, coeffs = _decompose(state, tol)
    dense = pauli_decompose(rho, tol)
    assert labels == [label for label, _ in dense]
    assert np.array_equal(_bits(coeffs), _bits([c for _, c in dense]))
    detect %= s.n
    assert np.array_equal(_fid(s, state, detect, 0.05, 16), fid(s, rho, detect, 0.05, 16))


def test_reduced_readout_at_twelve_spins_stays_small():
    # fully coupled, three pulsed spins: the state is 2**15 elements, where
    # the dense result alone would be 4**12 complex numbers, 256 MiB
    n = 12
    rng = np.random.default_rng(27)
    s = SpinSystem.from_couplings(
        list(rng.uniform(-3000.0, 3000.0, n)),
        {(a, b): rng.uniform(2.0, 80.0) for a in range(n) for b in range(a)},
    )
    seq = [Rotation((0,), "y", np.pi / 2), Rotation((1, 2), "x", np.pi / 3),
           JCoupling((0, 1), np.pi / 2), Delay(0.001), Rotation((0, 2), "-y", np.pi / 4),
           JCoupling((1, 3), np.pi / 2), Rotation((1,), "x", 0.7), Gradient((3,))]
    init = "X" + "0" * (n - 2) + "X"
    tracemalloc.start()
    try:
        labels, coeffs = _decompose(_run_reduced(s, init, seq), INPUT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert len(labels) == len(set(labels)) > 0 and labels == sorted(labels)
    # the unpulsed spins 4 to 11 keep the label's diagonal 0s, I or Z each
    assert all(set(label[4:-1]) <= {"I", "Z"} and label[-1] in "XY" for label in labels)
    # Parseval: the fold and a crusher cannot raise tr(rho**2) = 2**n sum c**2,
    # and every event keeps the trace, which X0...0X has none of
    purity = 2**n * float(np.sum(np.square(coeffs)))
    assert 0 < purity <= 2**n * 2 ** -(n - 2) * (1 + 1e-12)
    assert "I" * n not in labels


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=SEEDS, data=st.data())
def test_fid_of_a_product_label_against_its_closed_form(tmp_path_factory, n, seed, data):
    rng = np.random.default_rng(seed)
    s = _random_system(n, rng)
    detect = data.draw(st.integers(0, n - 1))
    letters = [data.draw(st.sampled_from("IZ")) for _ in range(n)]
    letters[detect] = data.draw(st.sampled_from("XY"))
    label = "".join(letters)
    duration = data.draw(st.floats(0.01, 1.0))
    points = data.draw(st.integers(2, 40))
    expected = closed_form_fid(s, label, detect, duration, points)
    # every phase is good to a few ulps of the largest argument |w t|, on
    # 2**(n-1) lines of weight 2 each
    omega = 2 * np.pi * abs(s.larmor[detect]) + np.pi * np.sum(np.abs(s.j[detect]))
    bound = 8 * np.finfo(float).eps * max(1.0, omega * duration) * 2**n
    dense = fid(s, pseudopure_init(label), detect, duration, points)
    assert np.max(np.abs(dense - expected)) <= bound

    # the CLI's reduced state, with no event pulsing any spin, read from --fid-out
    tmp = tmp_path_factory.mktemp("fid")
    larmor = " ".join(repr(v) for v in s.larmor)
    couplings = [f"j {a + 1} {b + 1} {float(s.j[a, b])!r}" for a in range(n) for b in range(a)]
    (tmp / "sys").write_text("\n".join([f"spins {n}", f"larmor {larmor}", *couplings]) + "\n")
    (tmp / "seq").write_text("# free evolution only\n")
    code = main(["nmr", "--spin-system", str(tmp / "sys"), "--sequence", str(tmp / "seq"),
                 "--initial", label, "--detect", str(detect + 1), "--duration", repr(duration),
                 "--points", str(points), "--fid-out", str(tmp / "fid.csv"),
                 "--out", str(tmp / "report.json")])
    assert code == 0
    rows = np.loadtxt(tmp / "fid.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - expected)) <= bound
