"""Parsers and serializers for the interchange files.

Three formats live here, all documented with a grammar in
``docs/file-formats.md``:

* spin-system files: ``spins``, ``larmor`` and ``j`` key-value lines, with
  1-based spin numbers as used in carrier names like C1;
* pulse-sequence files: one ``rotation`` / ``jcoupling`` / ``delay`` /
  ``gradient`` event per line, 1-based spins, angles as floats or fractions
  of pi;
* circuit files: JSON with fields ``d``, ``u``, ``v``, ``w``, ``phi``,
  ``omega``, ``psi``; gates either named (I, X, Y, Z, H, S, RX(t), RY(t),
  RZ(t)) or row-major flat lists of ``[re, im]`` pairs, entangled states
  either Bell names (PHI+, PHI-, PSI+, PSI-), the name MAX for the uniform
  pair, or amplitude lists.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .linalg import HADAMARD, ID2, PAULI, SGATE, basis_state, bell_state, rx, ry, rz
from .nmr import Delay, Gradient, JCoupling, Rotation, SpinSystem

_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d*)?)?\s*pi(?:\s*/\s*(\d+(?:\.\d*)?))?$")


def parse_angle(token: str) -> float:
    """An angle in radians: a float literal or a multiple/fraction of pi.

    Accepted pi forms: ``pi``, ``-pi``, ``pi/2``, ``3pi/4``, ``0.5pi``.
    """
    token = token.strip().lower()
    m = _PI_RE.match(token)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        value = sign * coef * np.pi / den if den else math.inf
    else:
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"cannot parse angle {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle {token!r} is not finite")
    return value


def finite_float(token: str) -> float:
    """A float literal that must be finite."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"number {token!r} is not finite")
    return value


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_spin_system(text: str) -> SpinSystem:
    """Parse the key-value spin-system format."""
    spins = None
    larmor = None
    couplings: dict[tuple[int, int], float] = {}
    for lineno, line in _content_lines(text):
        fields = line.split()
        key = fields[0].lower()
        try:
            if key == "spins":
                spins = int(fields[1])
            elif key == "larmor":
                larmor = [finite_float(v) for v in fields[1:]]
            elif key == "j":
                a, b, val = int(fields[1]), int(fields[2]), finite_float(fields[3])
                couplings[(a - 1, b - 1)] = val
            else:
                raise ValueError(f"unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"spin-system file line {lineno}: {exc}") from None
    if spins is None:
        raise ValueError("spin-system file: missing 'spins' line")
    if larmor is None or len(larmor) != spins:
        raise ValueError(f"spin-system file: need exactly {spins} larmor values")
    for a, b in couplings:
        if not (0 <= a < spins and 0 <= b < spins):
            raise ValueError("spin-system file: coupling spin number out of range")
    return SpinSystem.from_couplings(larmor, couplings)


def load_spin_system(path) -> SpinSystem:
    with open(path, encoding="utf-8") as fh:
        return parse_spin_system(fh.read())


def _parse_spins(tokens) -> tuple[int, ...]:
    spins = tuple(int(v) - 1 for v in tokens)
    if any(s < 0 for s in spins):
        raise ValueError("spin numbers are 1-based")
    return spins


def parse_sequence(text: str) -> list:
    """Parse the line-based pulse-sequence format into event objects."""
    events = []
    for lineno, line in _content_lines(text):
        fields = line.split()
        kind = fields[0].lower()
        try:
            if kind == "rotation":
                spins = _parse_spins(fields[1].split(","))
                axis = fields[2].lower()
                if axis.lstrip("+-") not in ("x", "y", "z"):
                    raise ValueError(f"invalid axis {axis!r}")
                angle = parse_angle(fields[3])
                events.append(Rotation(spins, axis, angle))
            elif kind == "jcoupling":
                pair = _parse_spins((fields[1], fields[2]))
                events.append(JCoupling(pair, parse_angle(fields[3])))
            elif kind == "delay":
                events.append(Delay(finite_float(fields[1])))
            elif kind == "gradient":
                events.append(Gradient(_parse_spins(fields[1].split(","))))
            else:
                raise ValueError(f"unknown event kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"sequence file line {lineno}: {exc}") from None
    return events


def load_sequence(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return parse_sequence(fh.read())


_GATE_RE = re.compile(r"^(RX|RY|RZ)\(([^)]+)\)$")
_FIXED_GATES = {
    "I": ID2,
    "X": PAULI["X"],
    "Y": PAULI["Y"],
    "Z": PAULI["Z"],
    "H": HADAMARD,
    "S": SGATE,
}


def _vector_from_pairs(pairs, dim: int, field: str) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape != (dim, 2):
        raise ValueError(f"field {field!r}: expected {dim} [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"field {field!r}: numbers must be finite")
    return arr[:, 0] + 1j * arr[:, 1]


def parse_gate(value, d: int, field: str) -> np.ndarray:
    """A named gate (d = 2 only, except I) or a row-major matrix."""
    if isinstance(value, str):
        name = value.strip().upper()
        if name == "I":
            return np.eye(d, dtype=complex)
        if d != 2:
            raise ValueError(f"field {field!r}: named gates require d = 2")
        if name in _FIXED_GATES:
            return _FIXED_GATES[name].copy()
        m = _GATE_RE.match(name)
        if m:
            angle = parse_angle(m.group(2))
            return {"RX": rx, "RY": ry, "RZ": rz}[m.group(1)](angle)
        raise ValueError(f"field {field!r}: unknown gate name {value!r}")
    return _vector_from_pairs(value, d * d, field).reshape(d, d)


def parse_entangled_state(value, d: int, field: str) -> np.ndarray:
    """A Bell name (d = 2), MAX for the uniform pair, or an amplitude list."""
    if isinstance(value, str):
        name = value.strip().upper()
        if name == "MAX":
            v = np.zeros(d * d, dtype=complex)
            v[:: d + 1] = 1.0 / np.sqrt(d)
            return v
        if d != 2:
            raise ValueError(f"field {field!r}: Bell names require d = 2")
        try:
            return bell_state(name)
        except ValueError:
            raise ValueError(f"field {field!r}: unknown state name {value!r}") from None
    return _vector_from_pairs(value, d * d, field)


def parse_input_state(value, d: int, field: str = "psi") -> np.ndarray:
    """A basis index or an amplitude list of length d."""
    if isinstance(value, int):
        return basis_state(d, value)
    return _vector_from_pairs(value, d, field)


def parse_circuit(obj: dict) -> dict:
    """Parse a circuit JSON object into arrays; keys d, u, v, w, phi, omega, psi."""
    if not isinstance(obj, dict):
        raise ValueError("circuit file must contain a JSON object")
    try:
        d = int(obj["d"])
    except KeyError:
        raise ValueError("circuit file: missing field 'd'") from None
    if d < 2:
        raise ValueError("circuit file: d must be at least 2")
    out = {"d": d}
    for field in ("u", "v", "w", "phi", "omega", "psi"):
        if field not in obj:
            raise ValueError(f"circuit file: missing field {field!r}")
    for field in ("u", "v", "w"):
        out[field] = parse_gate(obj[field], d, field)
    for field in ("phi", "omega"):
        out[field] = parse_entangled_state(obj[field], d, field)
    out["psi"] = parse_input_state(obj["psi"], d)
    norm = np.linalg.norm(out["psi"])
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("circuit file: psi must be normalized")
    return out


def load_circuit(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"circuit file: invalid JSON ({exc})") from None
    return parse_circuit(obj)


def vector_pairs(v: np.ndarray) -> list[list[float]]:
    """Serialize a complex vector as [re, im] pairs."""
    v = np.asarray(v)
    return [[float(z.real), float(z.imag)] for z in v]
