"""Stacked kernels against a loop of the public scalar API.

The circuit and reversal kernels take leading batch axes, and the verify
suites run every trial of a block in one stacked call.  These tests keep the
per-member loop as the reference: each stacked result must equal the loop to
1e-12, and each verify pass must draw, bit for bit, the unitaries and states
that a trial-by-trial loop of :func:`random_unitary` and :func:`random_state`
draws from a twin generator of each page, ``default_rng([seed, key, d,
page])``.
"""

import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import entangled_basis
from strategies import DIMS, encodings, stack, teleport_members
from timeflow import circuits as circuits_module
from timeflow import properties
from timeflow.cli import main
from timeflow.circuits import (
    TeleportCircuit,
    _evolution_chain,
    _outcome_amplitudes,
    forward_oracle,
    timeflow_eval,
    timeflow_trace,
)
from timeflow.linalg import (
    gaussian_state,
    haar_unitary,
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
    spin_half,
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
    def test_unchecked_chain_equals_checked_chain(self, members, data):
        # The chain skips the checks TeleportCircuit already made; building it
        # from the checked public functions must give the same bits.
        d, circuits, states = members
        e = data.draw(encodings(d))
        c, psi = stack(circuits), np.stack(states)
        legs = timeflow_trace(c, psi, e)
        with mock.patch.object(circuits_module, "_local_frame_gate", local_frame_gate):
            checked = _evolution_chain(c, psi, e, time_reverse_gate)
        for (label, leg), (ref_label, ref) in zip(legs, checked, strict=True):
            assert label == ref_label
            assert np.array_equal(leg, ref)

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


def _pair_trial(d):
    return [("state", d), ("unitary", d), ("state", d * d), ("normals", ())]


def _every(dims):
    return dims


def _with_2(dims):
    return tuple(dict.fromkeys((*dims, 2)))


# Per row: its pass's key, the dimensions that pass draws at for a given
# --dims, and what one trial draws at dimension d, in the scalar order:
# ("unitary", d) is random_unitary, ("state", n) is random_state, and
# ("normals", shape) is plain normals the pass hands to neither constructor.
# A maximally entangled pair is one unitary, and a circuit is u, v, w, the
# unitaries of phi and omega, then its input state.  The rows of one pass
# share its entry; the d = 2 gate, pair and spin rows read the circuits.
DRAWS = {
    "correspondence_roundtrip": (1, _every, _pair_trial),
    "backward_consistency": (1, _every, _pair_trial),
    "entanglement_unitarity": (1, _every, _pair_trial),
    "local_frame_relation": (7, _with_2, _circuit),
    "spin_flip": (7, _with_2, _circuit),
    "double_reversal": (7, _with_2, _circuit),
    "chain_consistency": (7, _with_2, _circuit),
    "semantics_equivalence": (7, _with_2, _circuit),
    "probability_law": (7, _with_2, _circuit),
    "encoding_independence": (7, _with_2, _circuit),
}


def _twins(seed, key, d, trials):
    """Per trial, a twin of the generator of its page of ``properties.P``
    trials; the trials of one page share it."""
    for t in range(trials):
        if t % properties.P == 0:
            twin = np.random.default_rng([seed, key, d, t // properties.P])
        yield twin


def _paged_draws(name, seed, trials, dims):
    """What the pass of row ``name`` hands its constructors, dimension by
    dimension and trial by trial, from the twin generators."""
    key, drawn, recipe = DRAWS[name]
    out = []
    for d in drawn(dims):
        for twin in _twins(seed, key, d, trials):
            for kind, arg in recipe(d):
                if kind == "unitary":
                    out.append(random_unitary(arg, twin))
                elif kind == "state":
                    out.append(random_state(arg, twin))
                else:
                    twin.standard_normal(arg)
    return out


def _stacked_draws(monkeypatch, name, seed, trials, dims):
    """Run the pass of row ``name`` and record what its constructors return,
    member by member in the order of the trials, block by block."""
    calls = []
    for ctor, tail in (("haar_unitary", 2), ("gaussian_state", 1)):
        fn = getattr(properties, ctor)

        def record(normals, fn=fn, tail=tail):
            out = fn(normals)
            calls[-1].append(out.reshape(out.shape[0], -1, *out.shape[-tail:]))
            return out

        monkeypatch.setattr(properties, ctor, record)

    def blocks(*args, fn=properties._blocks):
        for block in fn(*args):
            calls.append([])
            yield block

    monkeypatch.setattr(properties, "_blocks", blocks)
    dict(properties.SUITES)[name](seed, trials, dims, 1e-9, time_reverse_gate)
    return [m for block in calls for i in range(len(block[0])) for a in block for m in a[i]]


@pytest.mark.parametrize("name", sorted(DRAWS))
@pytest.mark.parametrize("one_per_block", [False, True])
def test_suite_draws_equal_a_scalar_loop(monkeypatch, name, one_per_block):
    # Pages of 3 trials, so 7 trials span three pages.
    if one_per_block:
        monkeypatch.setattr(properties, "BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(properties, "P", 3)
    for dims in ((2, 3), (3,)):
        stacked = _stacked_draws(monkeypatch, name, 11, 7, dims)
        scalar = _paged_draws(name, 11, 7, dims)
        assert len(stacked) == len(scalar)
        assert all(np.array_equal(a, b) for a, b in zip(stacked, scalar))


@pytest.mark.parametrize("block_elements", [1, 2**10, 2**16])
def test_pages_hold_p_trials(monkeypatch, block_elements):
    # At the shipped page size, trial P opens the second page whether a block
    # holds one trial, part of a page or the whole page.
    monkeypatch.setattr(properties, "BLOCK_ELEMENTS", block_elements)
    assert properties.P == 1024
    trials = properties.P + 6
    for name in ("backward_consistency", "chain_consistency"):
        stacked = _stacked_draws(monkeypatch, name, 5, trials, (2,))
        scalar = _paged_draws(name, 5, trials, (2,))
        members = sum(kind != "normals" for kind, _ in DRAWS[name][2](2))
        assert len(stacked) == len(scalar) == members * trials
        assert all(np.array_equal(a, b) for a, b in zip(stacked, scalar))


@pytest.mark.parametrize("dims", [(2, 3, 8), (4, 3)])
def test_each_page_is_drawn_once_per_request(monkeypatch, dims):
    # Pages of 4 trials, so 10 trials span three pages per pass and
    # dimension.  The circuit pass draws d = 2 for its d = 2 rows when
    # --dims lacks it; keys 0, 2, 3, 5 and 6 are retired.
    monkeypatch.setattr(properties, "P", 4)
    opened = []

    def counting(key, make=np.random.default_rng):
        opened.append(tuple(key))
        return make(key)

    with mock.patch.object(np.random, "default_rng", counting):
        properties.run_all(seed=9, trials=10, dims=dims)
    assert len(opened) == len(set(opened))
    drawn = {key: f(dims) for key, f, _ in DRAWS.values()}
    assert sorted(drawn) == [1, 7]
    expected = {(9, key, d, p) for key, ds in drawn.items() for d in ds for p in range(3)}
    assert set(opened) == expected


@pytest.mark.parametrize("faulty", [False, True])
@pytest.mark.parametrize("d", DIMS)
def test_stacked_chain_equals_a_chain_per_encoding(d, faulty):
    # The circuit pass runs one chain over every encoding of the dimension;
    # each encoding's legs must be the bits of its own chain.
    gate = properties.faulty_reverse_gate if faulty else properties._time_reverse_gate
    rng = np.random.default_rng(d)
    c = properties._circuit(d, rng.standard_normal((6, 5, 2, d, d)))
    psi = gaussian_state(rng.standard_normal((6, 2, d)))
    stacked = _evolution_chain(c, psi, properties._STACKS[d], gate)
    encodings = properties.ENCODINGS[d]
    assert len(encodings) == (11 if d == 2 else 1)
    for k, e in enumerate(encodings):
        for (label, leg), (ref_label, ref) in zip(stacked, _evolution_chain(c, psi, e, gate)):
            assert label == ref_label
            assert np.array_equal(leg if label == "closed_form" else leg[k], ref)


@pytest.mark.parametrize("faulty", [False, True])
def test_circuit_rows_read_each_of_their_encodings(faulty):
    # With legs bitwise equal to one chain per encoding, rebuilding the rows
    # from one chain per encoding must give the same bits: chain_consistency
    # over photon number and spin-1/2 at 1 and 1j, encoding_independence over
    # spin-1/2 at each of ALPHA_PHASES against photon number.
    gate = properties.faulty_reverse_gate if faulty else properties._time_reverse_gate
    spins = [spin_half(alpha) for alpha in properties.ALPHA_PHASES]
    chain = independence = 0.0
    for d in (2, 3):
        encodings = [photon_number(2), spin_half(1.0), spin_half(1j)] if d == 2 else [
            photon_number(d)]
        for gates, psi in properties._blocks(4, 7, d, 40, ((5, 2, d, d), (2, d)), d**3):
            c, psi = properties._circuit(d, gates), gaussian_state(psi)
            for e in encodings:
                legs = _evolution_chain(c, psi, e, gate)
                chain = max(chain, np.max(np.abs(legs[3][1] - legs[4][1])))
            ret = _evolution_chain(c, psi, photon_number(d), gate)[3][1]
            for e in spins if d == 2 else []:
                out = _evolution_chain(c, psi, e, gate)[3][1]
                independence = max(independence, np.max(np.abs(out - ret)))
    rows = {r.name: r.max_deviation
            for r in properties.check_chain_consistency(4, 40, (2, 3), 1e-9, gate)}
    assert rows["chain_consistency"] == chain
    assert rows["encoding_independence"] == independence


@pytest.mark.parametrize("slot", range(3, 11))
def test_encoding_independence_reads_every_spin_phase(monkeypatch, slot):
    # A reversal matrix scaled by 2 belongs to no encoding, so its return leg
    # leaves the photon-number one.  Breaking the stacked d = 2 encodings one
    # ALPHA_PHASES slot at a time must fail encoding_independence alone; a
    # row that skipped a phase would pass with that slot broken.
    matrix = properties._STACKS[2].matrix.copy()
    matrix[slot] *= 2
    monkeypatch.setitem(properties._STACKS, 2, SimpleNamespace(d=2, matrix=matrix))
    for dims in ((2,), (3,)):
        rows = properties.run_all(seed=1, trials=5, dims=dims)
        assert [row.name for row in rows if not row.passed] == ["encoding_independence"]


def _paged_backward_inputs(seed, trials, dims):
    """``backward_consistency``'s ``(psi, phi)`` per member from a twin
    generator per page.  Each trial draws a state, the unitary of a maximally
    entangled pair, a random pair state and one coin normal; below zero the
    maximally entangled pair is the one used."""
    out = []
    for d in dims:
        for twin in _twins(seed, 1, d, trials):
            psi = random_state(d, twin)
            pair = random_unitary(d, twin).reshape(-1) / np.sqrt(d)
            state = random_state(d * d, twin)
            out.append((psi, pair if twin.standard_normal() < 0 else state))
    return out


# default blocks, one trial per block, blocks of 6 and 1 trials of a 7-trial
# page at d = 2 (and single trials at d = 3), and blocks of whole pages
@pytest.mark.parametrize("block_elements", [None, 1, 4 * 3**3, 2**10])
def test_backward_draws_equal_a_scalar_loop(monkeypatch, block_elements):
    if block_elements:
        monkeypatch.setattr(properties, "BLOCK_ELEMENTS", block_elements)
    monkeypatch.setattr(properties, "P", 7)
    seed, trials, dims = 11, 16, (2, 3)
    stacked = []

    def record(psi, phi, fn=properties.backward_state):
        stacked.extend(zip(psi, phi))
        return fn(psi, phi)

    monkeypatch.setattr(properties, "backward_state", record)
    properties.check_backward_consistency(seed, trials, dims, 1e-9, time_reverse_gate)
    scalar = _paged_backward_inputs(seed, trials, dims)
    assert len(stacked) == len(scalar) == trials * len(dims)
    assert all(
        np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        for a, b in zip(stacked, scalar)
    )
    # both kinds of pair occur, so the coins are pinned too
    assert {is_maximally_entangled(phi) for _, phi in stacked} == {True, False}


@pytest.mark.parametrize("faulty", [False, True])
def test_block_size_does_not_change_the_report(monkeypatch, tmp_path, faulty):
    # Pages of 5 trials, so blocks of one trial, part of a page (d = 4 in the
    # d**4 suites at 2**10) and whole pages all occur.
    monkeypatch.setattr(properties, "P", 5)
    argv = ["verify", "--trials", "12", "--dims", "2,3,4", "--seed", "8"]
    reports = []
    for block_elements in (1, 2**10, 2**16, 2**18):
        monkeypatch.setattr(properties, "BLOCK_ELEMENTS", block_elements)
        out = tmp_path / f"{block_elements}.json"
        main(argv + ["--inject-fault"] * faulty + ["--out", str(out)])
        reports.append(out.read_bytes())
    assert reports == reports[:1] * 4
    assert json.loads(reports[0])["all_pass"] != faulty


@pytest.mark.parametrize("faulty", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_dimension_is_drawn_and_checked_alone(seed, faulty):
    # verify's benchmark size: every row of a --dims 2,3,4,8 run reads the
    # worst of the four single-dimension runs.
    whole = properties.run_all(seed=seed, trials=50, dims=(2, 3, 4, 8), faulty=faulty)
    alone = [properties.run_all(seed=seed, trials=50, dims=(d,), faulty=faulty)
             for d in (2, 3, 4, 8)]
    for k, row in enumerate(whole):
        assert row.max_deviation == max(rows[k].max_deviation for rows in alone), row.name


@pytest.mark.parametrize("d", DIMS)
def test_random_pair_is_the_scalar_construction(d):
    rng, twin = np.random.default_rng(d), np.random.default_rng(d)
    pair = properties._pairs(haar_unitary(rng.standard_normal((2, d, d))))
    v = random_unitary(d, twin)
    uniform = np.eye(d).reshape(-1) / np.sqrt(d)
    assert np.array_equal(pair, v.reshape(-1) / np.sqrt(d))
    assert np.max(np.abs(pair - np.kron(v, np.eye(d)) @ uniform)) <= TOL
    assert is_maximally_entangled(pair)
    # one unitary's normals, no more
    assert rng.bit_generator.state == twin.bit_generator.state
