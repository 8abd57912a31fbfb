"""Report snapshots: every subcommand's JSON payload on fixed inputs.

Each case runs the CLI and compares its report (and, for acquisition runs,
the FID and spectrum CSVs) with ``tests/golden/<case>.json``.  Key structure
must match exactly; numbers must agree to 1e-12, absolute for magnitudes up
to 1 and relative above.  Path strings (input files in the config, output
files) are not compared, since they depend on where the checkout lives; the
snapshots store them relative.

Regenerating the snapshots changes test data; say which case changed and why
in CHANGES.md.  To regenerate only the named cases, leaving every other
snapshot as it is::

    PYTHONPATH=src python tests/test_golden.py verify-fault-small nmr-gen5

Without names it rewrites every case.  An unknown name exits with code 2
and lists the cases.  A rewrite keeps every stored number that the new run
reproduces within the comparison's tolerance, so values that differ only in
the last bits across machines and BLAS builds do not churn; it writes a key
that is new or gone, a list whose length changed, and a value that moved
beyond the tolerance.
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
    "verify-fault-small": [
        "verify", "--inject-fault", "--trials", "5", "--dims", "2,3", "--seed", "7"
    ],
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


def test_regeneration_rewrites_only_named_cases(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path / "golden")
    assert regenerate(["acausal-psi-minus", "teleport-spin"]) == 0
    written = sorted(p.name for p in (tmp_path / "golden").iterdir())
    assert written == ["acausal-psi-minus.json", "teleport-spin.json"]
    expected = json.loads((ROOT / "tests/golden/teleport-spin.json").read_text(encoding="utf-8"))
    assert_matches(expected, json.loads((tmp_path / "golden/teleport-spin.json").read_text()))


def test_regeneration_keeps_what_the_comparison_accepts(tmp_path, monkeypatch):
    # A stored value within TOL of the new run stays as stored; a value moved
    # beyond TOL, a key the run no longer writes and a list of another length
    # are rewritten.
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path / "golden")
    code, fresh = run_case(CASES["verify-small"], tmp_path)
    fresh = {"exit_code": code, **fresh}
    stored = json.loads(json.dumps(fresh))
    rows = stored["report"]["properties"]
    rows[0]["max_deviation"] += 1e-14
    rows[1]["max_deviation"] += 1e-9
    rows[2]["stale"] = 1.0
    stored["report"]["config"]["dims"].append(4)
    (tmp_path / "golden").mkdir()
    (tmp_path / "golden/verify-small.json").write_text(json.dumps(stored), encoding="utf-8")
    assert regenerate(["verify-small"]) == 0
    written = json.loads((tmp_path / "golden/verify-small.json").read_text(encoding="utf-8"))
    rows[1]["max_deviation"] = fresh["report"]["properties"][1]["max_deviation"]
    del rows[2]["stale"]
    stored["report"]["config"]["dims"].pop()
    assert written == stored
    assert written["report"]["properties"][0] != fresh["report"]["properties"][0]


def test_regeneration_rejects_an_unknown_case(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path / "golden")
    assert regenerate(["teleport-spin", "no-such-case"]) == 2
    err = capsys.readouterr().err
    assert "unknown case no-such-case" in err
    assert all(case in err for case in CASES)
    assert not (tmp_path / "golden").exists()


def relative_paths(report: dict, workdir: Path) -> None:
    """Store path strings relative to the checkout or the output directory,
    so that a snapshot does not depend on where it was written."""
    for where in (report, report.get("config", {})):
        for key in PATH_KEYS & where.keys():
            path = Path(where[key])
            base = workdir if path.is_relative_to(workdir) else ROOT
            where[key] = path.relative_to(base).as_posix()


def keep_stored(stored, new):
    """``new`` with every value that :func:`assert_matches` accepts against
    the stored snapshot's value at the same place replaced by that value."""
    if isinstance(stored, dict) and isinstance(new, dict):
        return {k: keep_stored(stored[k], v) if k in stored else v for k, v in new.items()}
    if isinstance(stored, list) and isinstance(new, list) and len(stored) == len(new):
        return [keep_stored(s, v) for s, v in zip(stored, new)]
    try:
        assert_matches(stored, new)
    except AssertionError:
        return new
    return stored


def regenerate(names) -> int:
    """Rewrite the snapshots of the named cases, or of every case if none is
    named; exit code 2, listing the cases, if a name is unknown."""
    import tempfile

    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case {', '.join(unknown)}; the cases are:", file=sys.stderr)
        print("\n".join(sorted(CASES)), file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for case in sorted(set(names) or CASES):
            code, payload = run_case(CASES[case], workdir)
            relative_paths(payload["report"], workdir)
            snapshot = {"exit_code": code, **payload}
            path = GOLDEN / f"{case}.json"
            if path.exists():
                snapshot = keep_stored(json.loads(path.read_text(encoding="utf-8")), snapshot)
            text = json.dumps(snapshot, indent=1, sort_keys=True)
            path.write_text(text + "\n", encoding="utf-8")
            print(f"wrote {case}.json (exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
