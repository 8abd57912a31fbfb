"""Benchmark of the timeflow library and CLI.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

One client in one process sends requests in a closed loop: the next request
goes out only when the previous one has returned.  Every output is checked
(see ``checks.py``).  ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` alternates untraced and traced passes over the workload's cycle and
prints the per-layer metrics from the traced passes (see ``tracer.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the size mix, library versions and thread counts.

The program is imported from ``src/`` of the checkout the script sits in; the
run exits with code 2, printing no result, when that source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import faulthandler
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REQUIRED = (
    "src/timeflow/cli.py",
    "configs/fourspin.spinsys",
    "configs/flip_off.seq",
    "configs/flip_on.seq",
    "configs/teleport_identity.json",
    "configs/teleport_nonmax.json",
)
IMPORT_SAMPLES = 9
# With two BLAS threads an n = 6 decomposition takes 0.30 s or 0.42 s per call,
# depending on the load on the second core, which swings whole runs by 20%.
BLAS_THREADS = 1
REQUEST_CAP_S = 30.0
# No request starts, and every running one is cut, this long after the start;
# the interpreter is stopped outright if it is still running at RUN_CAP_S.
HARD_STOP_S = 150.0
RUN_CAP_S = 175.0
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import timeflow.cli; print(time.perf_counter() - t)"
)


class RequestTimeout(BaseException):
    """Raised inside a request that outlives its cap; a BaseException so that
    no handler inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def measure_import(samples: int) -> list[float]:
    """Seconds for a fresh interpreter to import ``timeflow.cli``, after one
    unrecorded import that writes the bytecode caches."""
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            out.append(float(proc.stdout))
    return out


def _openblas(verb: str):
    """``<verb>_num_threads`` of the OpenBLAS bundled with numpy, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas64_*")):
        return getattr(ctypes.CDLL(path), f"scipy_openblas_{verb}_num_threads64_", None)
    return None


def pin_blas_threads(count: int) -> dict:
    """Set the BLAS thread count of this process; returns the default and the
    count now in effect, None where the BLAS library cannot be found."""
    setter, getter = _openblas("set"), _openblas("get")
    if setter is None or getter is None:
        return {"default": None, "used": None}
    getter.restype = ctypes.c_int
    default = int(getter())
    setter.argtypes = [ctypes.c_int]
    setter(count)
    return {"default": default, "used": int(getter())}


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


class Runner:
    """Runs requests one after another, each capped, and keeps the counts."""

    def __init__(self, workload, workdir: Path, t0: float):
        self.workload = workload
        self.workdir = workdir
        self.hard_stop = t0 + HARD_STOP_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, pos: int, rnd: int) -> tuple[float, bool]:
        """Run and check one request; returns (seconds, correct)."""
        req = self.workload.request(pos, rnd, str(self.workdir / f"r{self.attempted:06d}"))
        self.attempted += 1
        cap = max(0.1, min(REQUEST_CAP_S, self.hard_stop - time.perf_counter()))
        result, error = None, None
        signal.setitimer(signal.ITIMER_REAL, cap)
        start = time.perf_counter()
        try:
            result = req.run()
        except RequestTimeout:
            error = f"over the {cap:.1f} s cap"
        except Exception as exc:  # a raising request is a failed request
            error = f"raised {exc!r}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if error is None:
            try:
                req.check(result)
            except Exception as exc:  # wrong or unreadable output
                error = f"check: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{req.slot}: {error}")
        return elapsed, error is None

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.hard_stop


def end_to_end(runner: Runner, seconds: float, setup: list[float]) -> tuple[dict, dict]:
    """Closed loop over the cycle until ``seconds`` have passed."""
    wl = runner.workload
    lat, ok, busy = [], 0, 0.0
    by_slot = {slot: [] for slot in wl.slots}
    i, deadline = 0, time.perf_counter() + seconds
    while not lat or (time.perf_counter() < deadline and not runner.out_of_time()):
        pos = i % len(wl.slots)
        dt, good = runner.run(pos, 1 + i // len(wl.slots))
        # a failed request counts as having taken the whole cap
        lat.append(dt if good else REQUEST_CAP_S)
        by_slot[wl.slots[pos]].append(lat[-1])
        ok += good
        busy += dt
        i += 1
    p = tail_percentile(len(lat))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "req_per_s": (ok / busy, "1/s"),
        "latency_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
        "latency_tail_ms": (1e3 * float(np.percentile(lat, p if p is not None else 50)), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_ratio": (ok / len(lat), "ratio"),
    }
    info = {"requests": len(lat), "tail_percentile": p, "fail_ratio": 1 - ok / len(lat),
            "busy_s": busy,
            "slot_p50_ms": {k: 1e3 * statistics.median(v) for k, v in by_slot.items() if v}}
    return metrics, info


def _per_call(summary: dict, name: str, size: int, items: int | None = None):
    s = summary[name]
    sel = s["size"] == size
    if items is not None:
        sel &= s["items"] == items
    return s["dur"][sel]


def per_layer(runner: Runner, seconds: float, setup: list[float], trace_path: Path):
    """Alternate untraced and traced passes over the cycle, in rounds, until
    ``seconds`` have passed; per-layer figures are per cycle."""
    from tracer import NAMES, SUITES, Tracer

    wl = runner.workload
    tracer = Tracer()
    busy = {False: 0.0, True: 0.0}
    rounds = 0
    deadline = time.perf_counter() + seconds
    while not rounds or (time.perf_counter() < deadline and not runner.out_of_time()):
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                for pos in range(len(wl.slots)):
                    tracer.request_id = runner.attempted
                    busy[traced] += runner.run(pos, 1 + rounds)[0]
            finally:
                tracer.uninstall()
        rounds += 1
    summary = tracer.summary()
    tracer.save(trace_path)
    metrics = {}
    suite_names = {f"properties.{s}" for s in SUITES}
    for name in NAMES:
        if name not in suite_names and not name.startswith("cli."):
            metrics[f"{name}.calls"] = (summary[name]["calls"] / rounds, "count")
        metrics[f"{name}.self_s"] = (summary[name]["self_s"] / rounds, "s")
    pd = summary["nmr.pauli_decompose"]
    examined = float(np.sum(4.0 ** pd["size"].astype(float)))
    metrics["nmr.pauli_decompose.kept_ratio"] = (
        float(np.sum(pd["items"])) / examined if examined else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (busy[True] / busy[False], "ratio")
    spreads = {}
    for key, values in (
        ("nmr.pauli_decompose.n4", _per_call(summary, "nmr.pauli_decompose", 4)),
        ("nmr.pauli_decompose.n6", _per_call(summary, "nmr.pauli_decompose", 6)),
        ("nmr.apply_rotation.n10", _per_call(summary, "nmr.apply_rotation", 10, items=1)),
        ("setup.import", np.asarray(setup)),
    ):
        if len(values):
            q1, med, q3 = np.percentile(values, (25, 50, 75))
        else:
            q1 = med = q3 = 0.0
        metrics[f"{key}.p50_s"] = (float(med), "s")
        metrics[f"{key}.iqr_s"] = (float(q3 - q1), "s")
        spreads[key] = {"samples": int(len(values)), "q1_s": float(q1), "p50_s": float(med),
                        "q3_s": float(q3)}
    info = {"rounds": rounds, "spans": len(tracer), "per_call": spreads,
            "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, info


def context(args, workload, blas: dict) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mix": workload.mix,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "nproc": os.cpu_count(),
        "clients": 1,
        "loop": "closed",
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a timeflow checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import timeflow.cli  # noqa: F401  (the program under test)

    if SRC not in Path(timeflow.cli.__file__).resolve().parents:
        print(f"error: imported timeflow from {timeflow.cli.__file__}", file=sys.stderr)
        return 2
    blas = pin_blas_threads(BLAS_THREADS)

    t0 = time.perf_counter()
    faulthandler.dump_traceback_later(RUN_CAP_S, exit=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    setup = measure_import(IMPORT_SAMPLES)

    base = ROOT / ".bench_run"
    workdir = base / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = workdir / "inputs"
        inputs.mkdir()
        workload = WORKLOADS[args.workload](args.seed, ROOT, inputs)
        runner = Runner(workload, workdir, t0)
        for pos in range(len(workload.slots)):  # warm-up: one untimed cycle
            runner.run(pos, 0)
        if args.trace:
            trace_path = base / f"trace-{args.workload}.npz"
            metrics, info = per_layer(runner, args.seconds, setup, trace_path)
        else:
            metrics, info = end_to_end(runner, args.seconds, setup)
        ctx = context(args, workload, blas)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        faulthandler.cancel_dump_traceback_later()

    info.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
                wall_s=time.perf_counter() - t0)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print("# run " + json.dumps(info, sort_keys=True))
    print("# context " + json.dumps(ctx, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
