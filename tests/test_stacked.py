"""Stacked kernels against a loop of the public scalar API.

The circuit and reversal kernels take leading batch axes, and the verify
suites run every trial of a block in one stacked call.  These tests keep the
per-member loop as the reference: each stacked result must equal the loop to
1e-12, and each suite must draw, bit for bit, the unitaries and states that a
trial-by-trial loop of :func:`random_unitary` and :func:`random_state` draws
from a twin generator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import entangled_basis
from strategies import DIMS, encodings, stack, teleport_members
from timeflow import properties
from timeflow.circuits import (
    TeleportCircuit,
    _evolution_chain,
    _outcome_amplitudes,
    forward_oracle,
    timeflow_eval,
    timeflow_trace,
)
from timeflow.linalg import (
    is_unitary,
    partial_trace,
    phase_distance,
    projector,
    random_state,
    random_unitary,
    unitary_residuals,
)
from timeflow.reversal import (
    amplitude_matrix,
    backward_state,
    is_maximally_entangled,
    local_frame_gate,
    photon_number,
    spin_expectations,
    state_of_matrix,
    time_reverse_gate,
    time_reverse_state,
    transfer_matrix,
)

TOL = 1e-12
EXAMPLES = settings(max_examples=40, deadline=None)


def _worst(stacked, members) -> float:
    return float(np.max(np.abs(np.asarray(stacked) - np.stack(members))))


def _tensor_outcomes(c, psi):
    """Project the full three-carrier state onto every basis element."""
    d = c.d
    vw_phi = (c.v @ c.phi.reshape(d, d) @ c.w.T).reshape(-1)
    full = np.kron(c.u @ psi, vw_phi).reshape(d * d, d)
    return np.stack([full.T @ b.conj() for b in entangled_basis(c.omega)])


class TestCircuitKernels:
    @EXAMPLES
    @given(teleport_members(), st.data())
    def test_chain_matches_member_traces(self, members, data):
        d, circuits, states = members
        e = data.draw(encodings(d))
        legs = _evolution_chain(stack(circuits), np.stack(states), e, time_reverse_gate)
        traces = [timeflow_trace(c, psi, e) for c, psi in zip(circuits, states)]
        for k, (label, leg) in enumerate(legs):
            assert all(t[k][0] == label for t in traces)
            assert _worst(leg, [t[k][1] for t in traces]) <= TOL

    @EXAMPLES
    @given(teleport_members(), st.data())
    def test_faulty_chain_matches_member_chains(self, members, data):
        d, circuits, states = members
        e = data.draw(encodings(d))
        faulty = properties.faulty_reverse_gate
        legs = _evolution_chain(stack(circuits), np.stack(states), e, faulty)
        chains = [_evolution_chain(c, psi, e, faulty) for c, psi in zip(circuits, states)]
        for k, (_, leg) in enumerate(legs):
            assert _worst(leg, [chain[k][1] for chain in chains]) <= TOL

    @EXAMPLES
    @given(teleport_members())
    def test_outcomes_match_basis_projection(self, members):
        d, circuits, states = members
        raw = _outcome_amplitudes(stack(circuits), np.stack(states))
        assert raw.shape == (len(circuits), d * d, d)
        expected = [_tensor_outcomes(c, psi) for c, psi in zip(circuits, states)]
        assert _worst(raw, expected) <= TOL
        for c, psi, member in zip(circuits, states, raw):
            reports = forward_oracle(c, psi)
            assert sorted(reports) == list(range(d * d))
            assert _worst(member, [reports[k].raw for k in range(d * d)]) <= TOL

    @EXAMPLES
    @given(teleport_members())
    def test_phase_distance_per_member(self, members):
        _, circuits, states = members
        c, psi = stack(circuits), np.stack(states)
        chain = _evolution_chain(c, psi, photon_number(c.d), time_reverse_gate)[3][1]
        oracle = _outcome_amplitudes(c, psi)[:, 0]
        dist = phase_distance(chain, oracle)
        assert dist.shape == (len(circuits),)
        assert _worst(dist, [phase_distance(a, b) for a, b in zip(chain, oracle)]) <= TOL


class TestReversalKernels:
    @EXAMPLES
    @given(teleport_members())
    def test_pair_kernels(self, members):
        d, circuits, states = members
        phis = np.stack([c.phi for c in circuits])
        assert _worst(amplitude_matrix(phis), [amplitude_matrix(p) for p in phis]) == 0.0
        assert _worst(state_of_matrix(amplitude_matrix(phis)), phis) == 0.0
        assert _worst(transfer_matrix(phis), [transfer_matrix(p) for p in phis]) == 0.0
        assert is_maximally_entangled(phis)
        e = photon_number(d)
        frames = [local_frame_gate(p, e) for p in phis]
        assert _worst(local_frame_gate(phis, e), frames) <= TOL
        rho, psi_bar = backward_state(np.stack(states), phis)
        members_ = [backward_state(s, p) for s, p in zip(states, phis)]
        assert _worst(rho, [m[0] for m in members_]) <= TOL
        assert _worst(psi_bar, [m[1] for m in members_]) <= TOL
        reduced = partial_trace(projector(phis), [d, d], keep=(1,))
        singles = [partial_trace(np.outer(p, p.conj()), [d, d], keep=(1,)) for p in phis]
        assert _worst(reduced, singles) <= TOL

    @EXAMPLES
    @given(teleport_members(dims=(2,)), st.data())
    def test_gate_and_state_reversal(self, members, data):
        _, circuits, states = members
        e = data.draw(encodings(2))
        gates = np.stack([c.u for c in circuits])
        reversed_ = [time_reverse_gate(u, e) for u in gates]
        assert _worst(time_reverse_gate(gates, e), reversed_) <= TOL
        psis = np.stack(states)
        rev = time_reverse_state(psis, e)
        assert _worst(rev, [time_reverse_state(p, e) for p in psis]) <= TOL
        assert _worst(spin_expectations(psis), [spin_expectations(p) for p in psis]) <= TOL


class TestStackedChecks:
    def test_stack_is_unitary_only_when_every_member_is(self):
        rng = np.random.default_rng(3)
        gates = np.stack([random_unitary(3, rng) for _ in range(4)])
        assert is_unitary(gates)
        gates[2, 0, 0] += 1e-6
        assert not is_unitary(gates)
        residuals = unitary_residuals(gates)
        assert residuals.shape == (4,)
        assert np.flatnonzero(residuals > 1e-10).tolist() == [2]

    @given(teleport_members(max_members=2))
    @settings(max_examples=5, deadline=None)
    def test_reports_refuse_a_stack(self, members):
        _, circuits, states = members
        c, psi = stack(circuits), np.stack(states)
        with pytest.raises(ValueError, match="one vector"):
            forward_oracle(c, psi)
        with pytest.raises(ValueError, match="one vector"):
            timeflow_eval(c, psi, photon_number(c.d))

    def test_circuit_stack_rejects_one_bad_member(self):
        rng = np.random.default_rng(4)
        d = 2
        fields = {
            "u": np.stack([random_unitary(d, rng) for _ in range(3)]),
            "v": np.eye(d),
            "w": np.eye(d),
            "phi": np.stack([np.array([1, 0, 0, 1]) / np.sqrt(2)] * 3),
            "omega": np.array([1, 0, 0, 1]) / np.sqrt(2),
        }
        TeleportCircuit(d, **fields)
        bad_gate = dict(fields, u=fields["u"].copy())
        bad_gate["u"][1] *= 1.01
        with pytest.raises(ValueError, match="u is not unitary"):
            TeleportCircuit(d, **bad_gate)
        bad_pair = dict(fields, phi=fields["phi"].copy())
        bad_pair["phi"][2] = [1, 0, 0, 0]
        with pytest.raises(ValueError, match="phi is not maximally entangled"):
            TeleportCircuit(d, **bad_pair)
        with pytest.raises(ValueError, match="length"):
            TeleportCircuit(d, **dict(fields, omega=np.ones((3, 9)) / 3))


def _circuit(d):
    return [("unitary", d)] * 5 + [("state", d)]


# Per trial and dimension, what each normal-only suite draws in the scalar
# order: ("unitary", d) is random_unitary, ("state", n) is random_state, and
# ("normals", shape) is a plain complex Gaussian matrix the suites do not
# hand to either constructor.  A maximally entangled pair is one unitary, and
# a circuit is u, v, w, the unitaries of phi and omega, then its input state.
DRAWS = {
    "correspondence_roundtrip": (
        None, lambda d: [("state", d * d), ("normals", (2, d, d))]
    ),
    "entanglement_unitarity": (None, lambda d: [("unitary", d), ("state", d * d)]),
    "local_frame_relation": ((2,), lambda d: [("unitary", d)] * 3),
    "spin_flip": ((2,), lambda d: [("state", d)]),
    "double_reversal": ((2,), lambda d: [("unitary", d)] * 3),
    "chain_consistency": (None, _circuit),
    "semantics_equivalence": (None, _circuit),
    "probability_law": (None, _circuit),
    "encoding_independence": ((2,), _circuit),
}
SUITE_INDEX = {fn.__name__[len("check_"):]: k for k, fn in enumerate(properties.SUITES)}


def _scalar_draws(name, seed, trials, dims):
    own_dims, recipe = DRAWS[name]
    twin = np.random.default_rng([seed, SUITE_INDEX[name]])
    out = []
    for _ in range(trials):
        for d in own_dims or dims:
            for kind, arg in recipe(d):
                if kind == "unitary":
                    out.append(random_unitary(arg, twin))
                elif kind == "state":
                    out.append(random_state(arg, twin))
                else:
                    twin.standard_normal(arg)
    return out


def _stacked_draws(monkeypatch, name, seed, trials, dims):
    """Run the suite and record what its constructors return, member by
    member in the order of the trials."""
    calls = []
    for ctor, tail in (("haar_unitary", 2), ("gaussian_state", 1)):
        fn = getattr(properties, ctor)

        def record(normals, fn=fn, tail=tail):
            out = fn(normals)
            calls.append(out.reshape(out.shape[0], -1, *out.shape[-tail:]))
            return out

        monkeypatch.setattr(properties, ctor, record)
    suite = properties.SUITES[SUITE_INDEX[name]]
    suite(np.random.default_rng([seed, SUITE_INDEX[name]]), trials, dims, 1e-9,
          time_reverse_gate)
    blocks = -(-trials // calls[0].shape[0])
    size = len(calls) // blocks
    out = []
    for start in range(0, len(calls), size):
        block = calls[start:start + size]
        for i in range(block[0].shape[0]):
            for arrays in block:
                out.extend(arrays[i])
    return out


@pytest.mark.parametrize("name", sorted(DRAWS))
@pytest.mark.parametrize("one_per_block", [False, True])
def test_suite_draws_equal_a_scalar_loop(monkeypatch, name, one_per_block):
    if one_per_block:
        monkeypatch.setattr(properties, "BLOCK_ELEMENTS", 1)
    seed, trials, dims = 11, 4, (2, 3)
    stacked = _stacked_draws(monkeypatch, name, seed, trials, dims)
    scalar = _scalar_draws(name, seed, trials, dims)
    assert len(stacked) == len(scalar)
    assert all(np.array_equal(a, b) for a, b in zip(stacked, scalar))


def _scalar_backward_inputs(seed, trials, dims):
    """``backward_consistency``'s ``(psi, phi)`` per member from a twin
    generator.  Per block, each trial draws per dimension a state, the
    unitary of a maximally entangled pair and a random pair state; then each
    dimension draws one uniform per trial, and below 0.5 the maximally
    entangled pair is the one used."""
    twin = np.random.default_rng([seed, SUITE_INDEX["backward_consistency"]])
    per_block = max(1, properties.BLOCK_ELEMENTS // max(dims) ** 3)
    out = []
    for start in range(0, trials, per_block):
        drawn = [
            [
                (
                    random_state(d, twin),
                    random_unitary(d, twin).reshape(-1) / np.sqrt(d),
                    random_state(d * d, twin),
                )
                for d in dims
            ]
            for _ in range(min(per_block, trials - start))
        ]
        for k in range(len(dims)):
            coins = twin.random(len(drawn))
            for (psi, pair, state), coin in zip((trial[k] for trial in drawn), coins):
                out.append((psi, pair if coin < 0.5 else state))
    return out


# default blocks, one trial per block, and blocks of 4 then 2 trials
@pytest.mark.parametrize("block_elements", [None, 1, 4 * 3**3])
def test_backward_draws_equal_a_scalar_loop(monkeypatch, block_elements):
    if block_elements:
        monkeypatch.setattr(properties, "BLOCK_ELEMENTS", block_elements)
    seed, trials, dims = 11, 6, (2, 3)
    stacked = []

    def record(psi, phi, fn=properties.backward_state):
        stacked.extend(zip(psi, phi))
        return fn(psi, phi)

    monkeypatch.setattr(properties, "backward_state", record)
    suite = properties.SUITES[SUITE_INDEX["backward_consistency"]]
    suite(np.random.default_rng([seed, SUITE_INDEX["backward_consistency"]]), trials,
          dims, 1e-9, time_reverse_gate)
    scalar = _scalar_backward_inputs(seed, trials, dims)
    assert len(stacked) == len(scalar) == trials * len(dims)
    assert all(
        np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        for a, b in zip(stacked, scalar)
    )
    # both kinds of pair occur, so the coins are pinned too
    assert {is_maximally_entangled(phi) for _, phi in stacked} == {True, False}


@pytest.mark.parametrize("faulty", [False, True])
def test_block_size_does_not_change_the_report(monkeypatch, faulty):
    dims = (2, 3, 4)
    whole = properties.run_all(seed=8, trials=6, dims=dims, faulty=faulty)
    monkeypatch.setattr(properties, "BLOCK_ELEMENTS", 1)
    single = properties.run_all(seed=8, trials=6, dims=dims, faulty=faulty)
    for a, b in zip(whole, single):
        assert (a.name, a.trials, a.passed) == (b.name, b.trials, b.passed)
        assert abs(a.max_deviation - b.max_deviation) <= TOL


@pytest.mark.parametrize("d", DIMS)
def test_random_pair_is_the_scalar_construction(d):
    rng, twin = np.random.default_rng(d), np.random.default_rng(d)
    pair = properties._pairs(rng.standard_normal((2, d, d)))
    v = random_unitary(d, twin)
    uniform = np.eye(d).reshape(-1) / np.sqrt(d)
    assert np.array_equal(pair, v.reshape(-1) / np.sqrt(d))
    assert np.max(np.abs(pair - np.kron(v, np.eye(d)) @ uniform)) <= TOL
    assert is_maximally_entangled(pair)
    # one unitary's normals, no more
    assert rng.bit_generator.state == twin.bit_generator.state
