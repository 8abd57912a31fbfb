"""The four benchmark workloads: inputs made from the seed, requests, checks.

Every workload is a fixed cycle of request slots.  Request ``(slot, round)``
takes its content from the seed and the round number, and its size from the
slot alone, so every seed runs the same mix of sizes.  A request's ``run`` is
the timed call into timeflow; its ``check`` runs afterwards, untimed, and
raises :class:`checks.CheckFailed` on a wrong output.  Every request writes
to paths of its own: rewriting or unlinking a file written moments before
can stall for tens of milliseconds on some filesystems, which is longer than
most ``cli-small`` requests.

Why these four:

* ``verify`` is the randomized suites at a fixed trial count: properties,
  circuits, reversal and linalg, and no NMR work.
* ``nmr-readout`` is ``timeflow nmr`` at n = 4, 5, 6, where the full Pauli
  decomposition dominates.
* ``nmr-dynamics`` is library propagation plus acquisition at n = 8, 9, 10,
  with no decomposition; the dense rotation and ``expm`` dominate.
* ``cli-small`` is every subcommand on the shipped configs, where per-call
  overhead (argparse, parsers, validation, report serialization) dominates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

VERIFY_TRIALS = 50
VERIFY_DIMS = "2,3,4,8"

# Readout slots: (spins, crusher in the sequence).  Sizes are ordered so that
# the median request is an n = 5 one and every tail percentile an n = 6 one.
READOUT_SLOTS = (
    ("flip_off", "flip_on", (4, True), (4, False))
    + ((5, True), (5, False)) * 2
    + ((6, True), (6, False)) * 2
)
READOUT_EVENTS = {"rot1": 5, "rotm": 1, "j": 3, "delay": 2}

# Dynamics slots, with event counts per spin count.  Larger systems get
# shorter sequences so that a run still holds enough requests for a tail
# percentile; the median request is an n = 9 one, the tail an n = 10 one.
DYNAMICS_SLOTS = ((8, True), (8, False), (9, True), (9, False), (10, True), (10, False))
DYNAMICS_EVENTS = {
    8: {"rot1": 8, "rotm": 4, "j": 6, "delay": 4},
    9: {"rot1": 3, "rotm": 1, "j": 3, "delay": 2},
    10: {"rot1": 1, "rotm": 1, "j": 2, "delay": 1},
}
MULTI_SPIN = 3
ACQ_DURATION = 0.25
ACQ_POINTS = 1024
POOL = 4

ANGLES = {"pi/2": np.pi / 2, "-pi/2": -np.pi / 2, "pi": np.pi, "pi/4": np.pi / 4,
          "3pi/4": 3 * np.pi / 4, "-pi/3": -np.pi / 3}
ANGLE_TOKENS = tuple(ANGLES)
AXES = ("x", "y", "z", "-x", "-y", "-z")
ALPHA_TOKENS = ("pi/4", "pi/3", "3pi/4", "-pi/2", "0.5", "1.25")


@dataclass
class Request:
    slot: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    slots: tuple[str, ...]
    # request(pos, rnd, out): the request at cycle position ``pos`` of round
    # ``rnd``; its output files are new paths starting with ``out``
    request: Callable[[int, int, str], Request]
    mix: dict


def _label(rng, n: int, gradient: bool) -> str:
    """An initial deviation label.  Before a crusher it is made of I, 0 and 1
    only: its trace is then nonzero, every event conserves the trace, and the
    final state can never be crushed to zero.  Without one it carries a
    transverse X or Y factor."""
    symbols, needed = ("I01", "01") if gradient else ("IXYZ01", "XY")
    while True:
        label = "".join(rng.choice(list(symbols), size=n))
        if any(ch in needed for ch in label):
            return label


def _spin_system(rng, n: int) -> tuple[list[float], dict]:
    larmor = [float(v) for v in rng.uniform(-3000.0, 3000.0, size=n)]
    couplings = {
        (a, b): float(rng.uniform(2.0, 80.0)) for a in range(n) for b in range(a + 1, n)
    }
    return larmor, couplings


def _events(rng, n: int, counts: dict, gradient: bool) -> list[tuple]:
    """A shuffled event list; spins 0-based, angles as file-format tokens."""
    events = []
    for kind, count in counts.items():
        for _ in range(count):
            if kind in ("rot1", "rotm"):
                k = 1 if kind == "rot1" else MULTI_SPIN
                spins = tuple(int(s) for s in rng.choice(n, size=k, replace=False))
                if rng.random() < 0.5:
                    token = str(rng.choice(ANGLE_TOKENS))
                else:
                    token = repr(float(rng.uniform(-np.pi, np.pi)))
                events.append(("rotation", spins, str(rng.choice(AXES)), token))
            elif kind == "j":
                a, b = (int(s) for s in rng.choice(n, size=2, replace=False))
                events.append(("jcoupling", (a, b), str(rng.choice(ANGLE_TOKENS))))
            else:
                events.append(("delay", float(rng.uniform(1e-4, 2e-3))))
    if gradient:
        k = int(rng.integers(1, n + 1))
        events.append(("gradient", tuple(int(s) for s in rng.choice(n, size=k, replace=False))))
    order = rng.permutation(len(events))
    return [events[i] for i in order]


def _spins_text(spins) -> str:
    return ",".join(str(s + 1) for s in spins)


def _sequence_text(events) -> str:
    lines = []
    for ev in events:
        if ev[0] == "rotation":
            lines.append(f"rotation {_spins_text(ev[1])} {ev[2]} {ev[3]}")
        elif ev[0] == "jcoupling":
            lines.append(f"jcoupling {ev[1][0] + 1} {ev[1][1] + 1} {ev[2]}")
        elif ev[0] == "delay":
            lines.append(f"delay {ev[1]!r}")
        else:
            lines.append(f"gradient {_spins_text(ev[1])}")
    return "\n".join(lines) + "\n"


def _spin_system_text(larmor, couplings) -> str:
    lines = [f"spins {len(larmor)}", "larmor " + " ".join(repr(v) for v in larmor)]
    lines += [f"j {a + 1} {b + 1} {val!r}" for (a, b), val in couplings.items()]
    return "\n".join(lines) + "\n"


def _angle(token: str) -> float:
    return ANGLES[token] if token in ANGLES else float(token)


def _cli_request(cli, slot, argv, out: str, check) -> Request:
    path = f"{out}.json"
    argv = [*argv, "--out", path]
    return Request(slot, lambda: cli.main(argv), lambda code: check(code, checks.read_json(path)))


def verify(seed: int, root: Path, inputs: Path) -> Workload:
    from timeflow import cli

    def make(pos, rnd, out):
        req_seed = int(np.random.default_rng([seed, rnd]).integers(2**31))
        argv = ["verify", "--dims", VERIFY_DIMS, "--trials", str(VERIFY_TRIALS),
                "--seed", str(req_seed)]
        return _cli_request(
            cli, "trials50", argv, out,
            lambda code, rep: checks.check_verify(code, rep, req_seed, VERIFY_TRIALS),
        )

    return Workload(("trials50",), make, {"dims": VERIFY_DIMS, "trials": VERIFY_TRIALS})


def nmr_readout(seed: int, root: Path, inputs: Path) -> Workload:
    from timeflow import cli

    configs = root / "configs"
    pool = {}
    for pos, slot in enumerate(READOUT_SLOTS):
        if isinstance(slot, str):
            continue
        n, gradient = slot
        for k in range(POOL):
            rng = np.random.default_rng([seed, 1, pos, k])
            larmor, couplings = _spin_system(rng, n)
            events = _events(rng, n, READOUT_EVENTS, gradient)
            spinsys = inputs / f"readout-{pos}-{k}.spinsys"
            seq = inputs / f"readout-{pos}-{k}.seq"
            spinsys.write_text(_spin_system_text(larmor, couplings), encoding="utf-8")
            seq.write_text(_sequence_text(events), encoding="utf-8")
            pool[pos, k] = (spinsys, seq, _label(rng, n, gradient), gradient)

    def make(pos, rnd, out):
        slot = READOUT_SLOTS[pos]
        if isinstance(slot, str):
            label = "XXIZ" if slot == "flip_off" else "YIZI"
            argv = ["nmr", "--spin-system", str(configs / "fourspin.spinsys"),
                    "--sequence", str(configs / f"{slot}.seq")]
            return _cli_request(cli, slot, argv, out,
                                lambda code, rep: checks.check_flip(code, rep, label))
        spinsys, seq, initial, gradient = pool[pos, rnd % POOL]
        argv = ["nmr", "--spin-system", str(spinsys), "--sequence", str(seq),
                "--initial", initial]
        return _cli_request(
            cli, f"n{slot[0]}", argv, out,
            lambda code, rep: checks.check_readout(code, rep, initial, gradient),
        )

    slots = tuple(s if isinstance(s, str) else f"n{s[0]}{'g' if s[1] else ''}"
                  for s in READOUT_SLOTS)
    return Workload(slots, make, {"slots": slots, "events": READOUT_EVENTS})


def nmr_dynamics(seed: int, root: Path, inputs: Path) -> Workload:
    from timeflow import nmr

    def build(ev):
        if ev[0] == "rotation":
            return nmr.Rotation(ev[1], ev[2], _angle(ev[3]))
        if ev[0] == "jcoupling":
            return nmr.JCoupling(ev[1], _angle(ev[2]))
        if ev[0] == "delay":
            return nmr.Delay(ev[1])
        return nmr.Gradient(ev[1])

    pool = {}
    for pos, (n, gradient) in enumerate(DYNAMICS_SLOTS):
        for k in range(POOL):
            rng = np.random.default_rng([seed, 2, pos, k])
            larmor, couplings = _spin_system(rng, n)
            system = nmr.SpinSystem.from_couplings(larmor, couplings)
            events = [build(ev) for ev in _events(rng, n, DYNAMICS_EVENTS[n], gradient)]
            pool[pos, k] = (system, _label(rng, n, gradient), events, int(rng.integers(n)), gradient)

    def make(pos, rnd, out):
        system, initial, events, detect, gradient = pool[pos, rnd % POOL]

        def run():
            rho = nmr.run_sequence(system, initial, events)
            signal = nmr.fid(system, rho, detect, ACQ_DURATION, ACQ_POINTS)
            return rho, signal, nmr.spectrum(signal, ACQ_DURATION / ACQ_POINTS, 1.0)

        def check(result):
            checks.check_dynamics(*result, initial, gradient, detect, ACQ_POINTS)

        return Request(f"n{system.n}", run, check)

    slots = tuple(f"n{n}{'g' if g else ''}" for n, g in DYNAMICS_SLOTS)
    return Workload(slots, make,
                    {"slots": slots, "events": DYNAMICS_EVENTS, "multi_spin": MULTI_SPIN,
                     "points": ACQ_POINTS})


CLI_SLOTS = (
    "teleport-spin",
    "teleport-photon",
    "teleport-alpha",
    "teleport-nonmax",
    "acausal-PHI+",
    "acausal-PSI-",
    "nmr-flip_off",
    "nmr-flip_on",
    "nmr-acquire",
)


def cli_small(seed: int, root: Path, inputs: Path) -> Workload:
    from timeflow import cli

    configs = root / "configs"
    identity = str(configs / "teleport_identity.json")
    nonmax_path = configs / "teleport_nonmax.json"
    nonmax = json.loads(nonmax_path.read_text(encoding="utf-8"))
    spinsys = str(configs / "fourspin.spinsys")

    def make(pos, rnd, out):
        slot = CLI_SLOTS[pos]
        rng = np.random.default_rng([seed, 3, rnd])
        common = ["--seed", str(int(rng.integers(2**31)))]
        if slot.startswith("teleport"):
            argv = ["teleport", "--circuit", identity, *common]
            if slot == "teleport-photon":
                argv += ["--encoding", "photon"]
            elif slot == "teleport-alpha":
                argv.append(f"--alpha-phase={rng.choice(ALPHA_TOKENS)}")
            elif slot == "teleport-nonmax":
                argv[2] = str(nonmax_path)
                return _cli_request(cli, slot, argv, out,
                                    lambda code, rep: checks.check_nonmax(code, rep, nonmax))
            return _cli_request(cli, slot, argv, out,
                                lambda code, rep: checks.check_teleport(code, rep, 2))
        if slot.startswith("acausal"):
            argv = ["acausal", "--bell", slot.split("-", 1)[1], *common]
            return _cli_request(cli, slot, argv, out, checks.check_acausal)
        flip = slot.removeprefix("nmr-")
        if flip != "acquire":
            argv = ["nmr", "--spin-system", spinsys, "--sequence",
                    str(configs / f"{flip}.seq"), *common]
            label = "XXIZ" if flip == "flip_off" else "YIZI"
            return _cli_request(cli, slot, argv, out,
                                lambda code, rep: checks.check_flip(code, rep, label))
        fid_path, spec_path = f"{out}-fid.csv", f"{out}-spectrum.csv"
        argv = ["nmr", "--spin-system", spinsys, "--sequence", str(configs / "flip_on.seq"),
                "--detect", "1", "--duration", "1.0", "--points", str(ACQ_POINTS),
                "--fid-out", str(fid_path), "--spectrum-out", str(spec_path), *common]

        def check(code, rep):
            checks.check_flip(code, rep, "YIZI")
            # --detect 1 is spin 0 of the four
            checks.check_acquisition(code, rep, fid_path, spec_path, ACQ_POINTS, 0, 4)

        return _cli_request(cli, slot, argv, out, check)

    return Workload(CLI_SLOTS, make, {"slots": CLI_SLOTS, "points": ACQ_POINTS})


WORKLOADS = {
    "verify": verify,
    "nmr-readout": nmr_readout,
    "nmr-dynamics": nmr_dynamics,
    "cli-small": cli_small,
}
