import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from test_stacked import _twins
from timeflow import properties
from timeflow.circuits import TeleportCircuit, _evolution_chain, forward_oracle
from timeflow.linalg import (
    DEFAULT_TOL,
    INPUT_TOL,
    haar_unitary,
    partial_trace,
    random_state,
    random_unitary,
)
from timeflow.properties import SUITES, run_all
from timeflow.reversal import (
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
)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_all_suites_pass_with_default_tolerances():
    results = run_all(seed=2024, trials=30)
    assert all(r.passed for r in results)
    assert len(results) == 11


def test_trials_counted_per_suite():
    results = run_all(seed=1, trials=7)
    by_name = {r.name: r for r in results}
    assert by_name["spin_flip"].trials == 7


def test_fault_injection_breaks_only_chain_suites():
    # The last three runs are verify's benchmark size; the chain runs the
    # unchecked kernels, so the fault must surface through its reverse_gate.
    for seed, trials, dims in [(5, 15, (2, 3))] + [(s, 50, (2, 3, 4, 8)) for s in (1, 2, 3)]:
        results = run_all(seed=seed, trials=trials, dims=dims, faulty=True)
        failing = {r.name for r in results if not r.passed}
        assert failing == {
            "chain_consistency",
            "semantics_equivalence",
            "encoding_independence",
        }


def test_deterministic_given_seed():
    a = run_all(seed=99, trials=10)
    b = run_all(seed=99, trials=10)
    assert a == b


def test_zero_trials_rejected():
    with pytest.raises(ValueError):
        run_all(seed=1, trials=0)


@pytest.mark.parametrize("seed", [-1, -12])
def test_negative_seed_rejected_with_its_value(seed):
    with pytest.raises(ValueError, match=f"^seed must be non-negative, got {seed}$"):
        run_all(seed=seed, trials=1)


def test_dims_override():
    results = run_all(seed=3, trials=5, dims=(2, 4))
    assert all(r.passed for r in results)


def test_default_tolerance_except_exact_suites():
    results = run_all(seed=4, trials=3)
    tolerances = {r.name: r.tolerance for r in results}
    exact = {"entanglement_unitarity", "conjugation_sign"}
    assert all(tolerances.pop(name) == 0.0 for name in exact)
    assert set(tolerances.values()) == {DEFAULT_TOL}


def _passes():
    """Each pass of the report table with the names of its rows."""
    rows = {}
    for name, suite in SUITES:
        rows.setdefault(suite, []).append(name)
    return rows


def test_suite_names_match_benchmark_tracer():
    # The traced benchmark run times properties.check_<row> for each row; a
    # pass is found there under the name of one of its rows, and a renamed
    # pass would silently report zero spans.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tuple(r.name for r in run_all(seed=0, trials=1)) == tracer.SUITES
    assert tuple(name for name, _ in SUITES) == tracer.SUITES
    passes = _passes()
    assert len(passes) == 3
    for suite, names in passes.items():
        assert [getattr(properties, f"check_{n}", None) for n in names].count(suite) == 1


@pytest.mark.parametrize("trials", [1, 9])
def test_haar_unitaries_drawn_per_run(monkeypatch, trials):
    # One per trial of the key-1 pass (its maximally entangled pair) and five
    # per circuit (u, v, w and one per pair), whose pass also draws d = 2
    # when --dims lacks it: a second unitary per pair, or a second draw of a
    # page, would show up here.
    drawn = []

    def counting(normals, fn=properties.haar_unitary):
        out = fn(normals)
        drawn.append(math.prod(out.shape[:-2]))
        return out

    monkeypatch.setattr(properties, "haar_unitary", counting)
    for dims, circuit_dims in [((2, 3, 4, 8), 4), ((3, 4, 8), 4), ((2,), 1)]:
        expected = {
            "check_backward_consistency": trials * len(dims),
            "check_chain_consistency": 5 * trials * circuit_dims,
        }
        counts = {}
        for suite in _passes():
            drawn.clear()
            suite(0, trials, dims, DEFAULT_TOL, time_reverse_gate)
            if drawn:
                counts[suite.__name__] = sum(drawn)
        assert counts == expected
        drawn.clear()
        run_all(seed=0, trials=trials, dims=dims)
        assert sum(drawn) == sum(expected.values())


@pytest.mark.parametrize("faulty", [False, True])
@pytest.mark.parametrize(
    "seed,trials,dims", [(7, 5, (2, 3)), (1, 50, (2, 3, 4, 8)), (12, 9, (4, 2)), (3, 6, (3,))]
)
def test_fused_circuit_rows_equal_the_standalone_suites(seed, trials, dims, faulty):
    # Every row is what its pass reports when run alone, and what a
    # recomputation one trial at a time from the twin generators gives.
    gate = properties.faulty_reverse_gate if faulty else properties._time_reverse_gate
    rows = run_all(seed=seed, trials=trials, dims=dims, faulty=faulty)
    assert [row.name for row in rows] == [name for name, _ in SUITES]
    for (_, suite), row in zip(SUITES, rows):
        assert row in suite(seed, trials, dims, DEFAULT_TOL, gate)
    _assert_rows_by_member(rows, seed, trials, dims, gate)
    # an injected fault must show in the chain rows, or the test compares zeros
    by_name = {row.name: row for row in rows}
    assert (by_name["chain_consistency"].max_deviation > 1e-3) == faulty


@pytest.mark.parametrize("dims", [(2, 3, 8), (4, 3)])
@pytest.mark.parametrize("faulty", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_pass_equals_a_per_trial_recomputation(monkeypatch, seed, faulty, dims):
    # Pages of 5 trials, so 12 trials span three pages; (4, 3) lacks d = 2,
    # which the circuit pass then draws for encoding_independence alone.
    monkeypatch.setattr(properties, "P", 5)
    gate = properties.faulty_reverse_gate if faulty else properties._time_reverse_gate
    rows = run_all(seed=seed, trials=12, dims=dims, faulty=faulty)
    _assert_rows_by_member(rows, seed, 12, dims, gate)
    failing = {row.name for row in rows if not row.passed}
    assert failing == ({"chain_consistency", "semantics_equivalence",
                        "encoding_independence"} if faulty else set())


def _assert_rows_by_member(rows, seed, trials, dims, gate):
    expected = _rows_by_member(seed, trials, dims, gate)
    assert [row.name for row in rows] == list(expected)
    exact = {"entanglement_unitarity", "conjugation_sign"}
    for row in rows:
        count, dev = expected[row.name]
        assert row.trials == count, row.name
        assert row.tolerance == (0.0 if row.name in exact else DEFAULT_TOL)
        if row.name in exact:
            assert row.max_deviation == dev, row.name
        else:
            assert abs(row.max_deviation - dev) <= 1e-12, row.name
        assert row.passed == (row.max_deviation <= row.tolerance)


def _rows_by_member(seed, trials, dims, gate):
    """Every row's trial count and deviation, one trial at a time from the
    public scalar API on the twin generators' draws, with encodings built
    afresh."""
    d2 = [photon_number(2), spin_half(1.0), spin_half(1j)]
    spins = [spin_half(alpha) for alpha in properties.ALPHA_PHASES]
    rows = dict.fromkeys((name for name, _ in SUITES), 0.0)
    for d in dims:
        for twin in _twins(seed, 1, d, trials):
            psi = random_state(d, twin)
            ginibre = twin.standard_normal((2, d, d))
            pair = haar_unitary(ginibre).reshape(-1) / np.sqrt(d)
            state = random_state(d * d, twin)
            phi = pair if twin.standard_normal() < 0 else state
            q = ginibre[0] + 1j * ginibre[1]
            rows["correspondence_roundtrip"] = max(
                rows["correspondence_roundtrip"],
                np.max(np.abs(state_of_matrix(amplitude_matrix(state)) - state)),
                np.max(np.abs(amplitude_matrix(state_of_matrix(q)) - q)),
            )
            rho, psi_bar = backward_state(psi, phi)
            rows["backward_consistency"] = max(
                rows["backward_consistency"], np.max(np.abs(rho - np.outer(psi_bar, psi_bar.conj())))
            )
            for p, maximal in ((pair, True), (state, None)):
                reduced = partial_trace(np.outer(p, p.conj()), [d, d], keep=(1,))
                ent = np.max(np.abs(d * reduced - np.eye(d))) <= INPUT_TOL
                uni = is_maximally_entangled(p, INPUT_TOL)
                rows["entanglement_unitarity"] += ent != uni or maximal not in (None, ent)
    # each phase and each photon-number encoding once
    signs = [(conjugation_sign(e.matrix), e.sign)
             for e in (*spins, photon_number(2), photon_number(3))]
    rows["conjugation_sign"] = max(max(abs(g * g - 1), abs(g - s)) for g, s in signs)
    for d in dict.fromkeys((*dims, 2)):
        for twin in _twins(seed, 7, d, trials):
            u, v, w, phi, omega = (random_unitary(d, twin) for _ in range(5))
            psi = random_state(d, twin)
            c = TeleportCircuit(d, u, v, w, phi.reshape(-1) / np.sqrt(d),
                                omega.reshape(-1) / np.sqrt(d))
            ret = _evolution_chain(c, psi, photon_number(d), gate)[3][1]
            if d == 2:
                for e in spins:
                    out = _evolution_chain(c, psi, e, gate)[3][1]
                    rows["encoding_independence"] = max(
                        rows["encoding_independence"], np.max(np.abs(out - ret))
                    )
                for e in d2:
                    rebuilt = np.kron(local_frame_gate(c.omega, e), np.eye(2)) @ canonical_pair(e)
                    rows["local_frame_relation"] = max(
                        rows["local_frame_relation"], np.max(np.abs(rebuilt - c.omega))
                    )
                    twice = time_reverse_gate(time_reverse_gate(u, e), e)
                    rows["double_reversal"] = max(rows["double_reversal"], np.max(np.abs(twice - u)))
                flipped = spin_expectations(time_reverse_state(psi, spin_half()))
                rows["spin_flip"] = max(
                    rows["spin_flip"], np.max(np.abs(flipped + spin_expectations(psi)))
                )
            if d not in dims:
                continue
            for e in d2 if d == 2 else [photon_number(d)]:
                legs = dict(_evolution_chain(c, psi, e, gate))
                rows["chain_consistency"] = max(
                    rows["chain_consistency"],
                    np.max(np.abs(legs["return_leg"] - legs["closed_form"])),
                )
            oracle = forward_oracle(c, psi)
            raw = oracle[0].raw
            overlap = abs(np.vdot(ret, raw)) / (np.linalg.norm(ret) * np.linalg.norm(raw))
            rows["semantics_equivalence"] = max(rows["semantics_equivalence"], 1.0 - overlap)
            probs = [rep.probability for rep in oracle.values()]
            rows["probability_law"] = max(
                rows["probability_law"], abs(np.linalg.norm(ret) ** 2 - 1 / d**2),
                abs(sum(probs) - 1.0), *(abs(q - 1 / d**2) for q in probs),
            )
    counts = dict.fromkeys(rows, trials)
    counts["entanglement_unitarity"] = 2 * trials * len(dims)
    counts["conjugation_sign"] = len(signs)
    return {name: (counts[name], rows[name]) for name in rows}


class _CountingGenerator:
    """A generator that records how many normals each call draws."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def standard_normal(self, shape):
        self.sizes.append(math.prod(shape))
        return self.rng.standard_normal(shape)


# Per pass, the largest array a trial stacks at dimension d.
_COST = {
    properties.check_backward_consistency: lambda d: d**4,
    properties.check_chain_consistency: lambda d: max(d**3, len(properties.ENCODINGS[d]) * d * d),
}

# The dims each case runs at.  A d = 2 row's circuits are drawn even when 2
# is not among the dims, so double_reversal draws as much per trial without it.
_DIMS = {"double_reversal": (3, 4, 8)}


@pytest.mark.parametrize(
    "name,per_trial",
    [
        # per --dims entry a state, a pair's unitary and a random pair of 2d,
        # 2d^2 and 2d^2 normals, and a coin
        ("backward_consistency", 2 * 17 + 4 * 93 + 4),
        # per --dims entry (2 among them) five unitaries and a state, 10d^2
        # and 2d normals, from the chain pass the d = 2 rows read
        ("local_frame_relation", 10 * 93 + 2 * 17),
        ("double_reversal", 10 * 93 + 2 * 17),
    ],
)
def test_blocks_hold_what_a_trial_draws(monkeypatch, name, per_trial):
    # Each page of 64 trials has its own generator, and its blocks split it
    # into runs of at most max(1, BLOCK_ELEMENTS // cost) whole trials, the
    # same for every page of a dimension; the block size moves no value.
    suite = dict(SUITES)[name]
    cost, dims, trials = _COST[suite], _DIMS.get(name, (2, 3, 4, 8)), 200
    monkeypatch.setattr(properties, "P", 64)
    rows = []
    for block_elements in (2**10, 2**16):
        monkeypatch.setattr(properties, "BLOCK_ELEMENTS", block_elements)
        pages = {}

        def counting(key, make=np.random.default_rng):
            assert tuple(key) not in pages
            return pages.setdefault(tuple(key), _CountingGenerator(make(key)))

        with mock.patch.object(np.random, "default_rng", counting):
            rows.append(suite(4, trials, dims, DEFAULT_TOL, time_reverse_gate))
        drawn = 0
        for (_, _, d, page), rng in pages.items():
            size = min(64, trials - 64 * page)
            per_d = sum(rng.sizes) // size
            per_block = max(1, block_elements // cost(d))
            assert rng.sizes == [
                per_d * min(per_block, size - start) for start in range(0, size, per_block)
            ]
            drawn += sum(rng.sizes)
        assert drawn == per_trial * trials
        assert sorted({page for _, _, _, page in pages}) == [0, 1, 2, 3]
    assert rows[0] == rows[1]
