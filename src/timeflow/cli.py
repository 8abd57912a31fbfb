"""Command-line surface.

Four subcommands produce machine-readable reports: ``verify`` runs the
randomized property suites, ``teleport`` evaluates a circuit file under both
semantics, ``acausal`` runs the four-carrier acausality circuit, and ``nmr``
folds a pulse-sequence file over a spin system and reports the final
deviation state (plus spectra when acquisition options are given).

Each subcommand returns its report, the report's CSV rows, its exit code and
the text of each CSV export by path; it opens no file.  :func:`main` writes
the exports and the report, and a run that exits 2 leaves no file it wrote.
Exit codes: 0 success, 1 verification failure, 2 input error.  Reports embed
their config; identical config and seed give identical payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import properties
from .circuits import (
    OutcomeReport,
    TeleportCircuit,
    acausal_circuit,
    forward_oracle,
    nonmax_loss,
    run_gate_circuit,
    timeflow_trace,
)
from .formats import (
    MAX_DIM, MAX_POINTS, _dimension, _in_range, _integers, finite_float, load_circuit,
    load_sequence, load_spin_system, parse_angle, vector_pairs,
)
from .linalg import DEFAULT_TOL, INPUT_TOL, equal_up_to_global_phase
from .nmr import _decompose, _fid, _run_reduced, spectrum, validate_label
from .reversal import is_maximally_entangled, photon_number, spin_half

DEFAULT_SEED = 1234
_SCALARS = (str, int, float, type(None))  # the JSON scalars; bool is an int


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timeflow",
        description="teleportation-like circuit semantics and NMR simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the randomized property suites")
    _add_common(p)
    p.add_argument("--tol", type=finite_float, default=DEFAULT_TOL, help="tolerance")
    p.add_argument("--trials", type=int, default=100, help="trials per suite")
    p.add_argument(
        "--dims", default="2,3", help=f"comma-separated carrier dimensions (each 2 to {MAX_DIM})"
    )
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="deliberately skip the conjugation in gate reversal to show "
        "which suites catch it",
    )

    p = sub.add_parser("teleport", help="evaluate a teleportation-like circuit file")
    _add_common(p)
    p.add_argument("--tol", type=finite_float, default=DEFAULT_TOL, help="tolerance")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--encoding", choices=("spin", "photon"), default="spin")
    p.add_argument(
        "--alpha-phase",
        default="0",
        help="phase angle of the spin reversal matrix (e.g. pi/3)",
    )

    p = sub.add_parser("acausal", help="run the four-carrier acausality circuit")
    _add_common(p)
    p.add_argument("--bell", default="PHI+", help="initial Bell pair name")

    p = sub.add_parser("nmr", help="simulate a pulse sequence on a spin system")
    _add_common(p)
    p.add_argument("--spin-system", required=True, help="spin-system file")
    p.add_argument("--sequence", required=True, help="pulse-sequence file")
    p.add_argument("--initial", default="X00X", help="initial deviation label")
    p.add_argument("--detect", type=int, default=None, help="observed spin (1-based)")
    p.add_argument("--duration", type=finite_float, default=None, help="acquisition time (s)")
    p.add_argument(
        "--points", type=int, default=None, help=f"acquisition points (at most {MAX_POINTS})"
    )
    p.add_argument("--broadening", type=finite_float, default=1.0, help="line broadening (Hz)")
    p.add_argument("--spectrum-out", default=None, help="spectrum CSV path")
    p.add_argument("--fid-out", default=None, help="FID CSV path")
    return parser


def _json_text(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    one top-level value at a time: a nonempty dict of scalars (a config, or a
    decomposition of up to 4**n terms) by the C encoder, whose item separator
    puts each item on its own line at the depth ``indent=2`` gives it, and any
    other value by ``indent=2``, its lines indented one level deeper."""
    parts = []
    for key in sorted(report):
        value = report[key]
        scalars = isinstance(value, dict) and all(isinstance(v, _SCALARS) for v in value.values())
        if value and scalars:
            flat = json.dumps(value, sort_keys=True, separators=(",\n    ", ": "))
            text = "{\n    " + flat[1:-1] + "\n  }"
        else:  # the encoder escapes every newline inside a string
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        parts.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _csv_text(header, rows) -> str:
    """A header line and one line per row: ``str`` of each value (``repr``
    for a float) joined by commas, each line ending in ``\\r\\n``, the bytes
    ``csv.writer`` writes for values that need no quoting."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    return "".join([line % tuple(row) for row in (header, *rows)])


def _emit(report: dict, rows: list[dict], exports: dict, args) -> None:
    """Write each export, then the report to ``--out``, or else to stdout.  If
    a write fails, the files this call opened are removed before the error
    goes on, so a run that exits 2 leaves no output file."""
    if args.format == "json":
        text = _json_text(report)
    else:
        text = "".join(f"# {key}={val}\n" for key, val in sorted(report.get("config", {}).items()))
        if rows:
            text += _csv_text(rows[0], [row.values() for row in rows])
    files = {**exports, args.out: text} if args.out else exports
    opened = []
    try:
        for path, content in files.items():
            with open(path, "w", encoding="utf-8", newline="") as fh:
                opened.append(path)
                fh.write(content)
    except BaseException:
        for path in opened:
            os.remove(path)
        raise
    if not args.out:
        sys.stdout.write(text)


def cmd_verify(args) -> tuple[dict, list[dict], int, dict]:
    dims = tuple(_dimension(d, "--dims entry") for d in _integers(args.dims, "--dims"))
    for k, d in enumerate(dims):
        if d in dims[:k]:
            raise ValueError(f"--dims entry {d} is repeated")
    try:
        results = properties.run_all(
            seed=args.seed, trials=args.trials, tol=args.tol, dims=dims, faulty=args.inject_fault
        )
    except ValueError as exc:  # run_all's own rules: "trials ..." or "seed ..."
        raise ValueError(f"--{exc}") from None
    rows = [
        {
            "property": r.name,
            "trials": r.trials,
            "max_deviation": r.max_deviation,
            "tolerance": r.tolerance,
            "passed": r.passed,
        }
        for r in results
    ]
    all_pass = all(r.passed for r in results)
    report = {
        "command": "verify",
        "config": {
            "seed": args.seed,
            "trials": args.trials,
            "tolerance": args.tol,
            "dims": list(dims),
            "inject_fault": args.inject_fault,
        },
        "properties": rows,
        "all_pass": all_pass,
        "failing": [r.name for r in results if not r.passed],
    }
    return report, rows, 0 if all_pass else 1, {}


def cmd_teleport(args) -> tuple[dict, list[dict], int, dict]:
    spec = load_circuit(args.circuit)
    alpha = parse_angle(args.alpha_phase)  # checked even where the encoding ignores it
    if args.encoding == "spin":
        enc = spin_half(np.exp(1j * alpha))
    else:
        enc = photon_number(spec["d"])
    config = {
        "seed": args.seed,
        "tolerance": args.tol,
        "circuit": args.circuit,
        "encoding": enc.name,
        "alpha_phase": args.alpha_phase,
    }
    if not is_maximally_entangled(spec["phi"], INPUT_TOL):
        loss = nonmax_loss(spec["phi"], spec["psi"])
        report = {
            "command": "teleport",
            "config": config,
            "nonmax": {
                "singular_values": [float(s) for s in loss.singular_values],
                "raw_backward": vector_pairs(loss.raw),
                "transmitted": loss.transmitted,
            },
        }
        rows = [
            {"singular_value": float(s), "transmitted": loss.transmitted}
            for s in loss.singular_values
        ]
        return report, rows, 0, {}

    circuit = TeleportCircuit(**{k: v for k, v in spec.items() if k != "psi"})
    oracle = forward_oracle(circuit, spec["psi"])
    trace = timeflow_trace(circuit, spec["psi"], enc)
    flow = OutcomeReport.from_raw(trace[-1][1])
    agreement = bool(
        equal_up_to_global_phase(flow.raw, oracle[0].raw, args.tol)
        and abs(flow.probability - oracle[0].probability) <= args.tol
    )
    report = {
        "command": "teleport",
        "config": config,
        "outcomes": {
            str(k): {
                "probability": rep.probability,
                "state": vector_pairs(rep.state),
            }
            for k, rep in oracle.items()
        },
        "timeflow": {
            "probability": flow.probability,
            "raw": vector_pairs(flow.raw),
            "state": vector_pairs(flow.state),
        },
        "agreement": agreement,
        "trace": [
            {"label": label, "vector": vector_pairs(vec)} for label, vec in trace
        ],
    }
    rows = [
        {"outcome": k, "probability": rep.probability}
        for k, rep in sorted(oracle.items())
    ]
    return report, rows, 0 if agreement else 1, {}


def cmd_acausal(args) -> tuple[dict, list[dict], int, dict]:
    branches = {}
    rows = []
    for a in (0, 1):
        circuit, inp, select = acausal_circuit(a, args.bell)
        rep = run_gate_circuit(circuit, inp)[(select,)]
        branches[str(a)] = {
            "state": vector_pairs(rep.state),
            "probability": rep.probability,
        }
        rows.append({"a": a, "probability": rep.probability})
    report = {
        "command": "acausal",
        "config": {"seed": args.seed, "bell": args.bell},
        "branches": branches,
    }
    return report, rows, 0, {}


def _flag(flag: str, read, *args):
    """``read(*args)``, whose error is named after ``flag``."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def cmd_nmr(args) -> tuple[dict, list[dict], int, dict]:
    if args.detect is None:
        for flag in ("--fid-out", "--spectrum-out", "--duration", "--points"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ValueError(f"{flag} requires --detect")
    elif args.duration is None or args.points is None:
        raise ValueError("--detect requires --duration and --points")
    elif args.points > MAX_POINTS:
        raise ValueError(f"--points {args.points} exceeds the limit of {MAX_POINTS}")
    system = load_spin_system(args.spin_system)
    sequence = load_sequence(args.sequence, system)
    if args.detect is not None:
        (detect,) = _flag("--detect", _in_range, (args.detect,), system.n)
    _flag("--initial", validate_label, args.initial, system.n)
    # the reduced state is read as it is: never scattered into the dense matrix
    state = _run_reduced(system, args.initial, sequence)
    labels, coeffs = _decompose(state, INPUT_TOL)
    report = {
        "command": "nmr",
        "config": {
            "seed": args.seed,
            "spin_system": args.spin_system,
            "sequence": args.sequence,
            "initial": args.initial,
        },
        "decomposition": dict(zip(labels, coeffs)),
    }
    rows = []
    if args.format == "csv":
        rows = [{"term": label, "coefficient": coeff} for label, coeff in zip(labels, coeffs)]

    exports = {}
    if args.detect is not None:
        signal = _fid(system, state, detect, args.duration, args.points)
        dwell = args.duration / args.points
        spec = spectrum(signal, dwell, args.broadening)
        for key, path, axis, grid, values in (
            ("fid_file", args.fid_out, "time_s", np.arange(args.points) * dwell, signal),
            ("spectrum_file", args.spectrum_out, "frequency_hz", spec.frequencies,
             spec.intensities),
        ):
            if path:
                columns = np.column_stack((grid, values.real, values.imag)).tolist()
                exports[path] = _csv_text((axis, "real", "imaginary"), columns)
                report[key] = path
    return report, rows, 0, exports


_COMMANDS = {
    "verify": cmd_verify,
    "teleport": cmd_teleport,
    "acausal": cmd_acausal,
    "nmr": cmd_nmr,
}

# Built once per process: parse_args returns a fresh namespace on every call
# and no command changes the parser.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if getattr(args, "tol", 0.0) < 0:
            raise ValueError(f"--tol must be non-negative, got {args.tol}")
        report, rows, code, exports = _COMMANDS[args.command](args)
        _emit(report, rows, exports, args)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
