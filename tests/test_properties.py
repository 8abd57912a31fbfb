import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from test_stacked import _paged_draws
from timeflow import properties
from timeflow.circuits import TeleportCircuit, _evolution_chain, forward_oracle
from timeflow.linalg import DEFAULT_TOL
from timeflow.properties import SUITES, run_all
from timeflow.reversal import photon_number, spin_half, time_reverse_gate

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


def test_dims_override():
    results = run_all(seed=3, trials=5, dims=(2, 4))
    assert all(r.passed for r in results)


def test_default_tolerance_except_exact_suites():
    results = run_all(seed=4, trials=3)
    tolerances = {r.name: r.tolerance for r in results}
    exact = {"entanglement_unitarity", "conjugation_sign"}
    assert all(tolerances.pop(name) == 0.0 for name in exact)
    assert set(tolerances.values()) == {DEFAULT_TOL}


def test_suite_names_match_benchmark_tracer():
    # The traced benchmark run finds each suite of one row as
    # properties.check_<name>; a renamed suite would silently report zero
    # spans there.  The three circuit rows share _circuit_rows.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tuple(r.name for r in run_all(seed=0, trials=1)) == tracer.SUITES
    assert tuple(name for name, _ in SUITES) == tracer.SUITES
    for name, suite in SUITES:
        circuit = name in ("chain_consistency", "semantics_equivalence", "probability_law")
        one_row = getattr(properties, f"check_{name}", None)
        assert suite is (properties._circuit_rows if circuit else one_row)


@pytest.mark.parametrize("trials", [1, 9])
def test_haar_unitaries_drawn_per_run(monkeypatch, trials):
    # Five per circuit (u, v, w and one per pair) and one per maximally
    # entangled pair: a second unitary per pair would show up here.
    drawn = []

    def counting(normals, fn=properties.haar_unitary):
        out = fn(normals)
        drawn.append(math.prod(out.shape[:-2]))
        return out

    monkeypatch.setattr(properties, "haar_unitary", counting)
    dims = (2, 3, 4, 8)
    per_dim = trials * len(dims)
    expected = {
        "backward_consistency": per_dim,
        "entanglement_unitarity": per_dim,
        "local_frame_relation": 3 * trials,  # one pair per d = 2 encoding
        "double_reversal": 3 * trials,  # one gate per d = 2 encoding
        "chain_consistency": 5 * per_dim,
        "semantics_equivalence": 5 * per_dim,
        "probability_law": 5 * per_dim,
        "encoding_independence": 5 * trials,  # d = 2 only
    }
    counts = {}
    for name, suite in SUITES:
        drawn.clear()
        suite(0, trials, dims, DEFAULT_TOL, time_reverse_gate)
        if drawn:
            counts[name] = sum(drawn)
    assert counts == expected
    drawn.clear()
    run_all(seed=0, trials=trials, dims=dims)
    # the three circuit suites share one draw of circuits
    assert sum(drawn) == sum(expected.values()) - 10 * per_dim


@pytest.mark.parametrize("faulty", [False, True])
@pytest.mark.parametrize(
    "seed,trials,dims", [(7, 5, (2, 3)), (1, 50, (2, 3, 4, 8)), (12, 9, (4, 2)), (3, 6, (3,))]
)
def test_fused_circuit_rows_equal_the_standalone_suites(seed, trials, dims, faulty):
    # The circuit rows come from one pass over the circuit pages (key 7); the
    # reference recomputes their deviations one circuit at a time.  Every
    # other row is its suite run alone.
    gate = properties.faulty_reverse_gate if faulty else properties._time_reverse_gate
    rows = run_all(seed=seed, trials=trials, dims=dims, faulty=faulty)
    assert [row.name for row in rows] == [name for name, _ in SUITES]
    circuit_rows = []
    for (name, suite), row in zip(SUITES, rows):
        if suite is properties._circuit_rows:
            circuit_rows.append(row)
        else:
            assert [row] == suite(seed, trials, dims, DEFAULT_TOL, gate)
    expected = _circuit_deviations_by_member(seed, trials, dims, gate)
    for row, dev in zip(circuit_rows, expected):
        assert row.trials == trials and row.tolerance == DEFAULT_TOL
        assert abs(row.max_deviation - dev) <= 1e-12
        assert row.passed == (row.max_deviation <= DEFAULT_TOL)
    # an injected fault must show in the chain rows, or the test compares zeros
    assert (circuit_rows[0].max_deviation > 1e-3) == faulty


def _circuit_deviations_by_member(seed, trials, dims, gate):
    """The chain, semantics and probability deviations, one circuit at a
    time from the twin generators' draws: u, v, w, the unitaries of phi and
    omega, then the input state.  Each encoding's return leg is compared with
    the closed form; the photon-number one with the oracle's designated
    outcome up to global phase, and with the oracle, against 1/d**2."""
    chain = semantics = probability = 0.0
    for d in dims:
        draws = iter(_paged_draws("chain_consistency", seed, trials, (d,)))
        for _ in range(trials):
            u, v, w, phi, omega, psi = (next(draws) for _ in range(6))
            c = TeleportCircuit(d, u, v, w, phi.reshape(-1) / np.sqrt(d),
                                omega.reshape(-1) / np.sqrt(d))
            encodings = [photon_number(d)] + ([spin_half(1.0), spin_half(1j)] if d == 2 else [])
            chains = [dict(_evolution_chain(c, psi, e, gate)) for e in encodings]
            for legs in chains:
                chain = max(chain, np.max(np.abs(legs["return_leg"] - legs["closed_form"])))
            ret = chains[0]["return_leg"]
            oracle = forward_oracle(c, psi)
            raw = oracle[0].raw
            overlap = abs(np.vdot(ret, raw)) / (np.linalg.norm(ret) * np.linalg.norm(raw))
            semantics = max(semantics, 1.0 - overlap)
            probs = [rep.probability for rep in oracle.values()]
            probability = max(probability, abs(np.linalg.norm(ret) ** 2 - 1 / d**2),
                              abs(sum(probs) - 1.0), *(abs(q - 1 / d**2) for q in probs))
    return chain, semantics, probability


class _CountingGenerator:
    """A generator that records how many normals each call draws."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def standard_normal(self, shape):
        self.sizes.append(math.prod(shape))
        return self.rng.standard_normal(shape)


@pytest.mark.parametrize(
    "name,per_trial",
    [
        # 2d^2 state and 2d^2 matrix normals for each --dims entry
        ("correspondence_roundtrip", 4 * (4 + 9 + 16 + 64)),
        # three pairs or gates of 2 x 2 x 2 normals
        ("local_frame_relation", 24),
        ("double_reversal", 24),
    ],
)
def test_blocks_hold_what_a_trial_draws(monkeypatch, name, per_trial):
    # These suites draw no coins, so the block size moves no value.  Each
    # page of 64 trials has its own generator, and its blocks split it into
    # runs of BLOCK_ELEMENTS normals or less, whole trials each.
    suite = getattr(properties, f"check_{name}")
    dims, trials = (2, 3, 4, 8), 200
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
            per_block = block_elements // per_d
            assert rng.sizes == [
                per_d * min(per_block, size - start) for start in range(0, size, per_block)
            ]
            drawn += sum(rng.sizes)
        assert drawn == per_trial * trials
        assert sorted({page for _, _, _, page in pages}) == [0, 1, 2, 3]
    assert rows[0] == rows[1]
