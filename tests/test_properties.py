import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from timeflow import properties
from timeflow.linalg import DEFAULT_TOL
from timeflow.properties import SUITES, run_all
from timeflow.reversal import time_reverse_gate

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
    results = run_all(seed=5, trials=15, faulty=True)
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
    # The traced benchmark run finds each suite as properties.check_<name>;
    # a renamed suite would silently report zero spans there.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tuple(r.name for r in run_all(seed=0, trials=1)) == tracer.SUITES
    assert tuple(fn.__name__ for fn in SUITES) == tuple(f"check_{s}" for s in tracer.SUITES)


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
    for idx, fn in enumerate(SUITES):
        drawn.clear()
        fn(np.random.default_rng([0, idx]), trials, dims, DEFAULT_TOL, time_reverse_gate)
        if drawn:
            counts[fn.__name__[len("check_"):]] = sum(drawn)
    assert counts == expected
    drawn.clear()
    run_all(seed=0, trials=trials, dims=dims)
    assert sum(drawn) == sum(expected.values())
