import numpy as np
import pytest

from oracles import entangled_basis
from timeflow.circuits import (
    Gate1,
    Gate2,
    GateCircuit,
    Measure,
    TeleportCircuit,
    TRACE_LABELS,
    acausal_circuit,
    acausal_experiment,
    computational_measure,
    forward_oracle,
    nonmax_loss,
    run_gate_circuit,
    timeflow_eval,
    timeflow_trace,
)
from timeflow.linalg import (
    HADAMARD,
    SX,
    basis_state,
    bell_state,
    equal_up_to_global_phase,
    kron,
    phase_distance,
    random_state,
    random_unitary,
)
from timeflow.reversal import photon_number, spin_half


def random_maxent(d, rng):
    can = np.zeros(d * d, dtype=complex)
    can[:: d + 1] = 1 / np.sqrt(d)
    return np.kron(random_unitary(d, rng), random_unitary(d, rng)) @ can


def random_circuit(d, rng):
    return TeleportCircuit(
        d=d,
        u=random_unitary(d, rng),
        v=random_unitary(d, rng),
        w=random_unitary(d, rng),
        phi=random_maxent(d, rng),
        omega=random_maxent(d, rng),
    )


def identity_circuit(d=2):
    phi = bell_state("PHI+") if d == 2 else _uniform(d)
    eye = np.eye(d, dtype=complex)
    return TeleportCircuit(d=d, u=eye, v=eye, w=eye, phi=phi, omega=phi)


def _uniform(d):
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1 / np.sqrt(d)
    return v


class TestTeleportCircuitValidation:
    def test_rejects_non_unitary_gate(self):
        with pytest.raises(ValueError):
            TeleportCircuit(
                d=2,
                u=np.diag([1.0, 0.5]),
                v=np.eye(2),
                w=np.eye(2),
                phi=bell_state("PHI+"),
                omega=bell_state("PHI+"),
            )

    def test_rejects_non_maximal_pair(self):
        with pytest.raises(ValueError):
            TeleportCircuit(
                d=2,
                u=np.eye(2),
                v=np.eye(2),
                w=np.eye(2),
                phi=np.array([1, 0, 0, 0], dtype=complex),
                omega=bell_state("PHI+"),
            )


class TestEntangledBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_and_contains_omega(self, d):
        rng = np.random.default_rng(40 + d)
        omega = random_maxent(d, rng)
        basis = entangled_basis(omega)
        assert len(basis) == d * d
        assert np.max(np.abs(basis[0] - omega)) < 1e-14
        gram = np.array(basis).conj() @ np.array(basis).T
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12

    def test_bell_case(self):
        basis = entangled_basis(bell_state("PHI+"))
        assert np.allclose(basis[1], bell_state("PHI-"), atol=1e-14)
        assert np.allclose(basis[2], bell_state("PSI+"), atol=1e-14)
        assert equal_up_to_global_phase(basis[3], bell_state("PSI-"), 1e-12)


class TestForwardOracle:
    def test_plain_teleportation(self):
        rng = np.random.default_rng(41)
        psi = random_state(2, rng)
        reports = forward_oracle(identity_circuit(), psi)
        assert abs(reports[0].probability - 0.25) < 1e-12
        assert np.max(np.abs(reports[0].state - psi)) < 1e-10

    def test_bit_flip_before_measurement(self):
        c = TeleportCircuit(
            d=2,
            u=SX,
            v=np.eye(2),
            w=np.eye(2),
            phi=bell_state("PHI+"),
            omega=bell_state("PHI+"),
        )
        reports = forward_oracle(c, basis_state(2, 0))
        assert abs(reports[0].probability - 0.25) < 1e-12
        assert np.max(np.abs(reports[0].state - basis_state(2, 1))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_outcomes_uniform(self, d):
        rng = np.random.default_rng(42 + d)
        reports = forward_oracle(random_circuit(d, rng), random_state(d, rng))
        for rep in reports.values():
            assert abs(rep.probability - 1.0 / d**2) < 1e-10
        assert abs(sum(r.probability for r in reports.values()) - 1.0) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            forward_oracle(identity_circuit(), np.ones(3, dtype=complex))


class TestTimeflowEval:
    def test_identity_circuit_raw_is_half_input(self):
        rng = np.random.default_rng(43)
        psi = random_state(2, rng)
        for e in (spin_half(), photon_number(2)):
            rep = timeflow_eval(identity_circuit(), psi, e)
            assert np.max(np.abs(rep.raw - psi / 2)) < 1e-12
            assert abs(rep.probability - 0.25) < 1e-12

    def test_encoding_gives_identical_raw_vectors(self):
        rng = np.random.default_rng(44)
        c = random_circuit(2, rng)
        psi = random_state(2, rng)
        raws = [
            timeflow_eval(c, psi, e).raw
            for e in (spin_half(), photon_number(2), spin_half(np.exp(1.1j)))
        ]
        for raw in raws[1:]:
            assert np.max(np.abs(raw - raws[0])) < 1e-12

    def test_matches_oracle_on_random_circuits(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            c = random_circuit(d, rng)
            psi = random_state(d, rng)
            e = spin_half() if d == 2 else photon_number(d)
            rep = timeflow_eval(c, psi, e)
            oracle = forward_oracle(c, psi)[0]
            assert equal_up_to_global_phase(rep.raw, oracle.raw, 1e-10)
            assert abs(rep.probability - oracle.probability) < 1e-10

    def test_probability_is_inverse_d_squared(self):
        rng = np.random.default_rng(46)
        for d in (2, 3, 4):
            c = random_circuit(d, rng)
            e = photon_number(d)
            rep = timeflow_eval(c, random_state(d, rng), e)
            assert abs(rep.probability - 1.0 / d**2) < 1e-10

    def test_encoding_dimension_mismatch(self):
        with pytest.raises(ValueError):
            timeflow_eval(identity_circuit(), basis_state(2, 0), photon_number(3))


class TestTimeflowTrace:
    def test_structure(self):
        rng = np.random.default_rng(47)
        trace = timeflow_trace(identity_circuit(), random_state(2, rng), spin_half())
        assert tuple(label for label, _ in trace) == TRACE_LABELS
        assert len(trace) == 5

    def test_identity_circuit_steps(self):
        rng = np.random.default_rng(48)
        psi = random_state(2, rng)
        e = photon_number(2)
        trace = dict(timeflow_trace(identity_circuit(), psi, e))
        # photon encoding: chain passes through conj(psi)/sqrt(2) and ends at psi/2
        assert np.max(np.abs(trace["outbound"] - psi)) < 1e-12
        assert np.max(np.abs(trace["first_reversal"] - psi.conj() / np.sqrt(2))) < 1e-12
        assert np.max(np.abs(trace["second_reversal"] - psi / 2)) < 1e-12
        assert np.max(np.abs(trace["closed_form"] - psi / 2)) < 1e-12

    def test_final_equals_eval_exactly(self):
        rng = np.random.default_rng(49)
        c = random_circuit(2, rng)
        psi = random_state(2, rng)
        e = spin_half()
        assert np.array_equal(
            timeflow_trace(c, psi, e)[-1][1], timeflow_eval(c, psi, e).raw
        )

    def test_return_leg_matches_closed_form(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            c = random_circuit(d, rng)
            psi = random_state(d, rng)
            e = spin_half() if d == 2 else photon_number(d)
            trace = dict(timeflow_trace(c, psi, e))
            assert np.max(np.abs(trace["return_leg"] - trace["closed_form"])) < 1e-12

    def test_sign_cancels_between_encodings(self):
        # spin (sign -1) and photon (sign +1) traces differ midway but agree at the end
        rng = np.random.default_rng(51)
        c = random_circuit(2, rng)
        psi = random_state(2, rng)
        spin = dict(timeflow_trace(c, psi, spin_half()))
        photon = dict(timeflow_trace(c, psi, photon_number(2)))
        assert np.max(np.abs(spin["outbound"] - photon["outbound"])) > 1e-3
        assert np.max(np.abs(spin["return_leg"] - photon["return_leg"])) < 1e-12


class TestNonmaxLoss:
    def test_uniform_pair_singular_values(self):
        rep = nonmax_loss(bell_state("PHI+"), basis_state(2, 0))
        assert np.allclose(rep.singular_values, [1.0, 1.0], atol=1e-12)

    def test_product_pair_loses_orthogonal_input(self):
        rep = nonmax_loss(np.array([1, 0, 0, 0], dtype=complex), basis_state(2, 1))
        assert np.max(np.abs(rep.raw)) == 0
        assert rep.transmitted == 0

    def test_partial_pair_singular_values(self):
        t = np.pi / 6
        pi_state = np.array([np.cos(t), 0, 0, np.sin(t)], dtype=complex)
        rep = nonmax_loss(pi_state, basis_state(2, 0))
        expected = sorted([np.sqrt(2) * np.cos(t), np.sqrt(2) * np.sin(t)], reverse=True)
        assert np.allclose(rep.singular_values, expected, atol=1e-12)

    def test_average_transmission_is_sum_of_squares_over_d_squared(self):
        # the Haar average equals sum(s_i**2)/d**2 = 1/d for every pair state
        rng = np.random.default_rng(52)
        for theta in (np.pi / 12, np.pi / 6, np.pi / 4):
            pi_state = np.array([np.cos(theta), 0, 0, np.sin(theta)], dtype=complex)
            sv = nonmax_loss(pi_state, basis_state(2, 0)).singular_values
            trials = 4000
            acc = 0.0
            for _ in range(trials):
                psi = random_state(2, rng)
                acc += nonmax_loss(pi_state, psi).transmitted
            avg = acc / trials
            assert abs(np.sum(sv**2) / 4 - 0.5) < 1e-12
            assert abs(avg - 0.5) < 0.02

    def test_worst_case_transmission_monotone_in_entanglement(self):
        # the guaranteed (worst-case) transmission grows with the pair's entropy
        worst = []
        for theta in (np.pi / 12, np.pi / 6, np.pi / 4):
            pi_state = np.array([np.cos(theta), 0, 0, np.sin(theta)], dtype=complex)
            sv = nonmax_loss(pi_state, basis_state(2, 0)).singular_values
            worst.append(np.min(sv) ** 2 / 2)
        assert worst[0] < worst[1] < worst[2]
        assert abs(worst[2] - 0.5) < 1e-12

    def test_transmission_constant_only_for_maximal(self):
        rng = np.random.default_rng(53)
        pi_max = bell_state("PSI-")
        pi_part = np.array([np.cos(0.5), 0, 0, np.sin(0.5)], dtype=complex)
        vals_max = {
            round(nonmax_loss(pi_max, random_state(2, rng)).transmitted, 9)
            for _ in range(20)
        }
        vals_part = {
            round(nonmax_loss(pi_part, random_state(2, rng)).transmitted, 9)
            for _ in range(20)
        }
        assert vals_max == {0.5}
        assert len(vals_part) > 1


class TestGateCircuit:
    def test_empty_circuit(self):
        rng = np.random.default_rng(54)
        psi = random_state(4, rng)
        reports = run_gate_circuit(GateCircuit(n=2, events=()), psi)
        assert set(reports) == {()}
        assert abs(reports[()].probability - 1.0) < 1e-12
        assert np.max(np.abs(reports[()].raw - psi)) < 1e-12

    def test_cnot_on_10(self):
        circ = GateCircuit(n=2, events=(Gate2("cnot", 0, 1),))
        reports = run_gate_circuit(circ, basis_state(4, 2))  # |10>
        assert np.max(np.abs(reports[()].state - basis_state(4, 3))) < 1e-12

    def test_cz_phase(self):
        circ = GateCircuit(n=2, events=(Gate2("cz", 0, 1),))
        reports = run_gate_circuit(circ, basis_state(4, 3))
        assert np.max(np.abs(reports[()].state + basis_state(4, 3))) < 1e-12

    def test_teleport_instance_matches_forward_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            c = random_circuit(2, rng)
            psi = random_state(2, rng)
            bell_basis = entangled_basis(c.omega)
            circ = GateCircuit(
                n=3,
                events=(
                    Gate1(0, c.u),
                    Gate1(1, c.v),
                    Gate1(2, c.w),
                    Measure((0, 1), tuple(bell_basis)),
                ),
            )
            inp = kron(psi, c.phi)
            gate_reports = run_gate_circuit(circ, inp)
            oracle_reports = forward_oracle(c, psi)
            for k in range(4):
                assert abs(
                    gate_reports[(k,)].probability - oracle_reports[k].probability
                ) < 1e-10
                assert np.max(
                    np.abs(gate_reports[(k,)].raw - oracle_reports[k].raw)
                ) < 1e-10

    def test_measurement_probabilities_sum_to_one(self):
        rng = np.random.default_rng(56)
        psi = random_state(8, rng)
        circ = GateCircuit(
            n=3, events=(Gate1(0, HADAMARD), computational_measure((0, 2)))
        )
        reports = run_gate_circuit(circ, psi)
        assert abs(sum(r.probability for r in reports.values()) - 1.0) < 1e-10

    def test_gates_after_measurement_on_survivors(self):
        circ = GateCircuit(
            n=2, events=(computational_measure((0,)), Gate1(1, SX))
        )
        reports = run_gate_circuit(circ, basis_state(4, 0))
        assert np.max(np.abs(reports[(0,)].state - basis_state(2, 1))) < 1e-12
        assert reports[(1,)].probability < 1e-12

    def test_gate_on_measured_carrier_rejected(self):
        circ = GateCircuit(n=2, events=(computational_measure((0,)), Gate1(0, SX)))
        with pytest.raises(ValueError):
            run_gate_circuit(circ, basis_state(4, 0))

    def test_non_orthonormal_measurement_rejected(self):
        states = (np.array([1, 0], dtype=complex), np.array([1, 1], dtype=complex))
        circ = GateCircuit(n=1, events=(Measure((0,), states),))
        with pytest.raises(ValueError):
            run_gate_circuit(circ, basis_state(2, 0))

    def test_unknown_two_carrier_gate(self):
        circ = GateCircuit(n=2, events=(Gate2("swap", 0, 1),))
        with pytest.raises(ValueError):
            run_gate_circuit(circ, basis_state(4, 0))


class TestAcausalExperiment:
    def test_branch_states(self):
        assert np.max(np.abs(acausal_experiment(0) - basis_state(4, 0))) < 1e-10
        assert np.max(np.abs(acausal_experiment(1) - basis_state(4, 3))) < 1e-10

    def test_postselection_probability_quarter(self):
        for a in (0, 1):
            circ, inp, select = acausal_circuit(a)
            rep = run_gate_circuit(circ, inp)[(select,)]
            assert abs(rep.probability - 0.25) < 1e-10

    @pytest.mark.parametrize("bell", ["PHI+", "PHI-", "PSI+", "PSI-"])
    def test_any_bell_pair_works(self, bell):
        # the disentangler can leave a global phase on the projected branch
        assert equal_up_to_global_phase(
            acausal_experiment(0, bell), basis_state(4, 0), 1e-10
        )
        assert equal_up_to_global_phase(
            acausal_experiment(1, bell), basis_state(4, 3), 1e-10
        )

    def test_invalid_branch(self):
        with pytest.raises(ValueError):
            acausal_experiment(2)
