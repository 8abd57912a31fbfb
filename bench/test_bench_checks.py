"""The benchmark's own checks reject wrong answers, and its loop survives them.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench_checks.py``.
"""

import copy
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from tracer import Tracer
from timeflow import cli, nmr

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def runner(tmp_path):
    """A Runner over a one-slot workload whose request the test supplies."""
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    box = {}
    wl = workloads.Workload(("only",), lambda pos, rnd, out: box["make"](out), {})
    yield box, run.Runner(wl, tmp_path, time.perf_counter())
    signal.signal(signal.SIGALRM, previous)


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_injected_fault_is_counted_as_failed(runner):
    box, r = runner
    argv = ["verify", "--dims", "2,3", "--trials", "5", "--seed", "7", "--inject-fault"]
    box["make"] = lambda out: workloads._cli_request(
        cli, "fault", argv, out, lambda code, rep: checks.check_verify(code, rep, 7, 5))
    _, good = r.run(0, 0)
    assert not good and r.failed == 1 and r.attempted == 1


def test_verify_rejects_a_row_over_its_tolerance(tmp_path):
    argv = ["verify", "--dims", "2", "--trials", "3", "--seed", "5"]
    code, report = _report(tmp_path, argv)
    checks.check_verify(code, report, 5, 3)
    bad = copy.deepcopy(report)
    bad["properties"][0]["max_deviation"] = 1.0
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(code, bad, 5, 3)


def test_request_over_its_cap_fails_without_hanging(runner, monkeypatch):
    box, r = runner
    monkeypatch.setattr(run, "REQUEST_CAP_S", 0.2)
    box["make"] = lambda out: workloads.Request("slow", lambda: time.sleep(5), lambda _: None)
    start = time.perf_counter()
    _, good = r.run(0, 0)
    assert not good and r.failed == 1
    assert time.perf_counter() - start < 2.0


def test_flip_rejects_extra_or_wrong_terms():
    checks.check_flip(0, {"decomposition": {"XXIZ": 0.25}}, "XXIZ")
    for terms in ({"XXIZ": 0.25, "YIZI": 1e-3}, {"XXIZ": 0.2499}, {"YIZI": 0.25}):
        with pytest.raises(checks.CheckFailed):
            checks.check_flip(0, {"decomposition": terms}, "XXIZ")
    with pytest.raises(checks.CheckFailed):
        checks.check_flip(2, {"decomposition": {"XXIZ": 0.25}}, "XXIZ")


@pytest.mark.parametrize("gradient", [False, True])
def test_readout_rejects_perturbed_decomposition(tmp_path, gradient):
    wl = workloads.nmr_readout(11, ROOT, tmp_path)
    pos = workloads.READOUT_SLOTS.index((4, gradient))
    req = wl.request(pos, 0, str(tmp_path / "req"))
    code = req.run()
    report = json.loads((tmp_path / "req.json").read_text())
    initial = report["config"]["initial"]
    checks.check_readout(code, report, initial, gradient)
    bad = copy.deepcopy(report)
    if gradient:
        # after a crusher only the bound and the trace pin the result
        identity = "I" * len(initial)
        bad["decomposition"][identity] = bad["decomposition"].get(identity, 0.0) + 1e-3
    else:
        label = next(iter(bad["decomposition"]))
        bad["decomposition"][label] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_readout(code, bad, initial, gradient)


def test_teleport_checks_reject_wrong_reports(tmp_path):
    identity = str(ROOT / "configs" / "teleport_identity.json")
    code, report = _report(tmp_path, ["teleport", "--circuit", identity])
    checks.check_teleport(code, report, 2)
    bad = copy.deepcopy(report)
    bad["agreement"] = False
    with pytest.raises(checks.CheckFailed):
        checks.check_teleport(code, bad, 2)
    bad = copy.deepcopy(report)
    bad["outcomes"]["1"]["probability"] = 0.3
    with pytest.raises(checks.CheckFailed):
        checks.check_teleport(code, bad, 2)

    path = ROOT / "configs" / "teleport_nonmax.json"
    circuit = json.loads(path.read_text())
    code, report = _report(tmp_path, ["teleport", "--circuit", str(path)])
    checks.check_nonmax(code, report, circuit)
    report["nonmax"]["transmitted"] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_nonmax(code, report, circuit)


def test_acausal_rejects_swapped_branches(tmp_path):
    code, report = _report(tmp_path, ["acausal", "--bell", "PSI-"])
    checks.check_acausal(code, report)
    report["branches"]["0"], report["branches"]["1"] = report["branches"]["1"], report["branches"]["0"]
    with pytest.raises(checks.CheckFailed):
        checks.check_acausal(code, report)


def test_detection_expectation_matches_dense_operator():
    rng = np.random.default_rng(3)
    n = 3
    rho = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    plus = np.array([[0, 2], [0, 0]], dtype=complex)
    for spin in range(n):
        factors = [np.eye(2)] * n
        factors[spin] = plus
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        assert abs(checks.detection_expectation(rho, spin) - np.trace(rho @ op)) < 1e-12


def test_dynamics_rejects_broken_state_or_signal():
    system = nmr.SpinSystem.from_couplings([10.0, -40.0, 75.0], {(0, 1): 8.0, (1, 2): 5.0})
    events = [nmr.Rotation((0, 2), "y", 0.7), nmr.JCoupling((0, 1), 0.4), nmr.Delay(1e-3)]
    rho = nmr.run_sequence(system, "XZ0", events)
    signal_ = nmr.fid(system, rho, 0, 0.1, 64)
    spec = nmr.spectrum(signal_, 0.1 / 64, 1.0)
    checks.check_dynamics(rho, signal_, spec, "XZ0", False, 0, 64)
    broken = rho.copy()
    broken[0, 1] += 1e-3
    shifted = signal_.copy()
    shifted[0] += 1e-3
    for args in ((broken, signal_), (2 * rho, signal_), (rho, shifted)):
        with pytest.raises(checks.CheckFailed):
            checks.check_dynamics(*args, spec, "XZ0", False, 0, 64)
    with pytest.raises(checks.CheckFailed):
        checks.check_dynamics(2 * rho, signal_, spec, "XZ0", True, 0, 64)


def test_tracer_nests_spans_and_restores_the_program(tmp_path):
    original = cli._COMMANDS["acausal"]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["acausal", "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    assert cli._COMMANDS["acausal"] is original
    summary = tracer.summary()
    assert summary["cli.cmd_acausal"]["calls"] == 1
    assert summary["circuits.run_gate_circuit"]["calls"] == 2
    total = summary["cli.cmd_acausal"]["dur"][0]
    assert 0 < summary["cli.cmd_acausal"]["self_s"] < total


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
