"""Command-line surface.

Four subcommands produce machine-readable reports: ``verify`` runs the
randomized property suites, ``teleport`` evaluates a circuit file under both
semantics, ``acausal`` runs the four-carrier acausality circuit, and ``nmr``
folds a pulse-sequence file over a spin system and reports the final
deviation state (plus spectra when acquisition options are given).

Exit codes: 0 success, 1 verification failure, 2 input error.  Reports embed
the seed and tolerance used; identical config and seed give identical
payloads.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
    finite_float, load_circuit, load_sequence, load_spin_system, parse_angle, vector_pairs
)
from .linalg import DEFAULT_TOL, INPUT_TOL, equal_up_to_global_phase
from .nmr import fid, pauli_decompose, run_sequence, spectrum
from .reversal import is_maximally_entangled, photon_number, spin_half

DEFAULT_SEED = 1234


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")
    p.add_argument("--tol", type=finite_float, default=DEFAULT_TOL, help="tolerance")
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
    p.add_argument("--trials", type=int, default=100, help="trials per suite")
    p.add_argument("--dims", default="2,3", help="comma-separated carrier dimensions")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="deliberately skip the conjugation in gate reversal to show "
        "which suites catch it",
    )

    p = sub.add_parser("teleport", help="evaluate a teleportation-like circuit file")
    _add_common(p)
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
    p.add_argument("--points", type=int, default=None, help="acquisition points")
    p.add_argument("--broadening", type=finite_float, default=1.0, help="line broadening (Hz)")
    p.add_argument("--spectrum-out", default=None, help="spectrum CSV path")
    p.add_argument("--fid-out", default=None, help="FID CSV path")
    return parser


def _emit(report: dict, rows: list[dict], args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        for key, val in sorted(report.get("config", {}).items()):
            buf.write(f"# {key}={val}\n")
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    if args.trials <= 0:
        raise ValueError("--trials must be positive")
    dims = []
    for entry in args.dims.split(","):
        try:
            dims.append(int(entry))
        except ValueError:
            raise ValueError(f"--dims entry {entry!r} is not an integer") from None
    dims = tuple(dims)
    if any(d < 2 for d in dims):
        raise ValueError("--dims entries must be at least 2")
    results = properties.run_all(
        seed=args.seed,
        trials=args.trials,
        tol=args.tol,
        dims=dims,
        faulty=args.inject_fault,
    )
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
    _emit(report, rows, args)
    return 0 if all_pass else 1


def cmd_teleport(args) -> int:
    spec = load_circuit(args.circuit)
    if args.encoding == "spin":
        enc = spin_half(np.exp(1j * parse_angle(args.alpha_phase)))
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
        _emit(report, rows, args)
        return 0

    circuit = TeleportCircuit(
        d=spec["d"],
        u=spec["u"],
        v=spec["v"],
        w=spec["w"],
        phi=spec["phi"],
        omega=spec["omega"],
    )
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
    _emit(report, rows, args)
    return 0 if agreement else 1


def cmd_acausal(args) -> int:
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
        "config": {"seed": args.seed, "tolerance": args.tol, "bell": args.bell},
        "branches": branches,
    }
    _emit(report, rows, args)
    return 0


def cmd_nmr(args) -> int:
    system = load_spin_system(args.spin_system)
    sequence = load_sequence(args.sequence)
    for k, event in enumerate(sequence, 1):
        for s in getattr(event, "spins", getattr(event, "pair", ())):
            if s >= system.n:
                raise ValueError(
                    f"sequence event {k} ({type(event).__name__.lower()}): "
                    f"spin {s + 1} is out of range for a {system.n}-spin system"
                )
    if args.detect is not None and not 1 <= args.detect <= system.n:
        raise ValueError(f"--detect {args.detect} is out of range: spins are 1 to {system.n}")
    rho = run_sequence(system, args.initial, sequence)
    decomposition = pauli_decompose(rho, tol=INPUT_TOL)
    report = {
        "command": "nmr",
        "config": {
            "seed": args.seed,
            "tolerance": args.tol,
            "spin_system": args.spin_system,
            "sequence": args.sequence,
            "initial": args.initial,
        },
        "decomposition": {label: coeff for label, coeff in decomposition},
    }
    rows = [{"term": label, "coefficient": coeff} for label, coeff in decomposition]

    acquire = args.detect is not None
    if acquire:
        if args.duration is None or args.points is None:
            raise ValueError("--detect requires --duration and --points")
        detect = args.detect - 1
        signal = fid(system, rho, detect, args.duration, args.points)
        spec = spectrum(signal, args.duration / args.points, args.broadening)
        if args.fid_out:
            with open(args.fid_out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["time_s", "real", "imaginary"])
                dt = args.duration / args.points
                for k, z in enumerate(signal):
                    writer.writerow([k * dt, z.real, z.imag])
            report["fid_file"] = args.fid_out
        if args.spectrum_out:
            with open(args.spectrum_out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["frequency_hz", "real", "imaginary"])
                for f, z in zip(spec.frequencies, spec.intensities):
                    writer.writerow([f, z.real, z.imag])
            report["spectrum_file"] = args.spectrum_out
    _emit(report, rows, args)
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "teleport": cmd_teleport,
    "acausal": cmd_acausal,
    "nmr": cmd_nmr,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
