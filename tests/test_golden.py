"""Report snapshots: every subcommand's JSON payload on fixed inputs.

Each case runs the CLI and compares its report (and, for acquisition runs,
the FID and spectrum CSVs) with ``tests/golden/<case>.json``.  Key structure
must match exactly; numbers must agree to 1e-12, absolute for magnitudes up
to 1 and relative above.  Path strings (input files in the config, output
files) are not compared, since they depend on where the checkout lives; the
snapshots store them relative.

Regenerating the snapshots changes test data; say which case changed and why
in CHANGES.md.  To regenerate::

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

from timeflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TOL = 1e-12
PATH_KEYS = {"circuit", "spin_system", "sequence", "fid_file", "spectrum_file"}

_FOURSPIN = ["--spin-system", "configs/fourspin.spinsys"]
_ACQUIRE = ["--detect", "1", "--duration", "1.0", "--points", "64"]
_IDENTITY = ["--circuit", "configs/teleport_identity.json"]

CASES = {
    "teleport-spin": ["teleport", *_IDENTITY],
    "teleport-photon": ["teleport", *_IDENTITY, "--encoding", "photon"],
    "teleport-alpha": ["teleport", *_IDENTITY, "--alpha-phase", "pi/3"],
    "teleport-nonmax": ["teleport", "--circuit", "configs/teleport_nonmax.json"],
    "acausal-phi-plus": ["acausal", "--bell", "PHI+"],
    "acausal-psi-minus": ["acausal", "--bell", "PSI-"],
    "nmr-flip-off": ["nmr", *_FOURSPIN, "--sequence", "configs/flip_off.seq"],
    "nmr-flip-on": ["nmr", *_FOURSPIN, "--sequence", "configs/flip_on.seq"],
    "nmr-flip-off-acquire": [
        "nmr", *_FOURSPIN, "--sequence", "configs/flip_off.seq", *_ACQUIRE
    ],
    "nmr-flip-on-acquire": [
        "nmr", *_FOURSPIN, "--sequence", "configs/flip_on.seq", *_ACQUIRE
    ],
    "nmr-gen5": [
        "nmr",
        "--spin-system", "tests/golden/gen5.spinsys",
        "--sequence", "tests/golden/gen5.seq",
        "--initial", "X0Y1Z",
    ],
    "nmr-gen5-acquire": [
        "nmr",
        "--spin-system", "tests/golden/gen5.spinsys",
        "--sequence", "tests/golden/gen5.seq",
        "--initial", "X0Y1Z",
        *_ACQUIRE,
    ],
    "nmr-gen6": [
        "nmr",
        "--spin-system", "tests/golden/gen6.spinsys",
        "--sequence", "tests/golden/gen6.seq",
        "--initial", "XZ0Y1I",
    ],
    "nmr-gen6-acquire": [
        "nmr",
        "--spin-system", "tests/golden/gen6.spinsys",
        "--sequence", "tests/golden/gen6.seq",
        "--initial", "XZ0Y1I",
        "--detect", "3", "--duration", "0.5", "--points", "32",
    ],
    "verify-small": ["verify", "--trials", "5", "--dims", "2,3", "--seed", "7"],
}


def _read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [rows[0]] + [[float(v) for v in row] for row in rows[1:]]


def run_case(argv: list, workdir: Path) -> tuple[int, dict]:
    """Run one case from the repository root; return exit code and payload."""
    argv = [str(ROOT / a) if a.startswith(("configs/", "tests/")) else a for a in argv]
    report_path = workdir / "report.json"
    files = {}
    if "--detect" in argv:
        files = {"fid": workdir / "fid.csv", "spectrum": workdir / "spectrum.csv"}
        argv += ["--fid-out", str(files["fid"]), "--spectrum-out", str(files["spectrum"])]
    code = main([*argv, "--out", str(report_path)])
    payload = {"report": json.loads(report_path.read_text(encoding="utf-8"))}
    payload.update({name: _read_csv(path) for name, path in files.items()})
    return code, payload


def assert_matches(expected, actual, where: str = "$") -> None:
    """Same key structure and types; numbers within TOL; paths not compared."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{where}: expected an object"
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            if key in PATH_KEYS and isinstance(expected[key], str):
                assert isinstance(actual[key], str), f"{where}.{key}: expected a string"
                continue
            assert_matches(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{where}: expected a list"
        assert len(actual) == len(expected), f"{where}: length differs"
        for k, (e, a) in enumerate(zip(expected, actual)):
            assert_matches(e, a, f"{where}[{k}]")
    elif isinstance(expected, bool) or expected is None or isinstance(expected, str):
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"
    else:
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), (
            f"{where}: expected a number"
        )
        scale = max(1.0, abs(expected))
        assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=TOL * scale), (
            f"{where}: {actual!r} != {expected!r}"
        )


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_snapshot(case, tmp_path):
    expected = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    code, payload = run_case(CASES[case], tmp_path)
    assert code == expected.pop("exit_code")
    assert_matches(expected, payload)


def test_comparison_catches_a_small_coefficient_change(tmp_path):
    expected = json.loads((GOLDEN / "nmr-flip-off.json").read_text(encoding="utf-8"))
    expected.pop("exit_code")
    _, payload = run_case(CASES["nmr-flip-off"], tmp_path)
    payload["report"]["decomposition"]["XXIZ"] += 1e-9
    with pytest.raises(AssertionError, match="XXIZ"):
        assert_matches(expected, payload)


def relative_paths(report: dict, workdir: Path) -> None:
    """Store path strings relative to the checkout or the output directory,
    so that a snapshot does not depend on where it was written."""
    for where in (report, report.get("config", {})):
        for key in PATH_KEYS & where.keys():
            path = Path(where[key])
            base = workdir if path.is_relative_to(workdir) else ROOT
            where[key] = path.relative_to(base).as_posix()


def regenerate(workdir: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        code, payload = run_case(argv, workdir)
        relative_paths(payload["report"], workdir)
        text = json.dumps({"exit_code": code, **payload}, indent=1, sort_keys=True)
        (GOLDEN / f"{case}.json").write_text(text + "\n", encoding="utf-8")
        print(f"wrote {case}.json (exit {code})")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    sys.exit(0)
