import importlib.util
from pathlib import Path

import pytest

from timeflow.linalg import DEFAULT_TOL
from timeflow.properties import SUITES, run_all

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
