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
import numbers
import re
from itertools import repeat

import numpy as np

from .linalg import HADAMARD, ID2, INPUT_TOL, PAULI, SGATE, basis_state, bell_state, rx, ry, rz
from .nmr import Delay, Gradient, JCoupling, Rotation, SpinSystem, _check_self_coupling
from .properties import MAX_DIM
from .reversal import canonical_pair, photon_number

# Largest spin count of a spin-system file.  A sequence that pulses every spin
# folds a dense 2**n x 2**n complex state, 256 MiB at n = 12 and 4 GiB at
# n = 14, and its report can hold 4**n terms.
MAX_SPINS = 12

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


def finite_float(token: str, name: str = "value") -> float:
    """A float literal that must be finite, read as the field ``name``."""
    value = _read(float, name, token)
    if not math.isfinite(value):
        raise ValueError(f"{name} {token!r} is not finite")
    return value


def _read(kind, name: str, token: str):
    """``token`` read by ``kind``, int or float; an error names the field."""
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} {token!r} is not {what}") from None


def _content_lines(text: str):
    """``(line number, lower-case keyword, fields)`` per line with content."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields[0].lower(), fields[1:]


# The fields a line holds after its keyword (``larmor`` holds one per spin).
_FIELDS = {
    "spins": ("count",),
    "j": ("first spin", "second spin", "coupling"),
    "rotation": ("spins", "axis", "angle"),
    "jcoupling": ("first spin", "second spin", "angle"),
    "delay": ("duration",),
    "gradient": ("spins",),
}


def _exact(key: str, fields: list) -> list:
    """A ``key`` line's fields, checked against :data:`_FIELDS`: a short line
    names the first missing field, a long one the first extra."""
    names = _FIELDS[key]
    if len(fields) < len(names):
        raise ValueError(f"missing field '{names[len(fields)]}'")
    if len(fields) > len(names):
        raise ValueError(f"unexpected field {fields[len(names)]!r}")
    return fields


def parse_spin_system(text: str) -> SpinSystem:
    """Parse the key-value spin-system format."""
    spins = None
    larmor = None
    couplings: dict[tuple[int, int], tuple] = {}  # (J, line) by 1-based pair, lower first
    seen: dict[str, int] = {}  # the line of the spins and larmor keys
    for lineno, key, fields in _content_lines(text):
        try:
            if key == "spins":
                (count,) = _exact(key, fields)
                spins = _read(int, "count", count)
                if spins < 1:
                    raise ValueError(f"need at least 1 spin, got {spins}")
                if spins > MAX_SPINS:
                    raise ValueError(f"spin count {spins} exceeds the limit of {MAX_SPINS}")
            elif key == "larmor":
                larmor = [finite_float(v, "larmor value") for v in fields]
            elif key == "j":
                a, b, val = _exact(key, fields)
                a, b = _read(int, "first spin", a), _read(int, "second spin", b)
                val = finite_float(val, "coupling")
                if a == b:
                    _check_self_coupling(a, val)
                pair = (min(a, b), max(a, b))
                if pair in couplings:
                    first = couplings[pair][1]
                    raise ValueError(f"coupling of spins {a} and {b} repeats line {first}")
                couplings[pair] = val, lineno
            else:
                raise ValueError(f"unknown key {key!r}")
            if key in seen:
                raise ValueError(f"{key!r} repeats line {seen[key]}")
            if key != "j":
                seen[key] = lineno
        except ValueError as exc:
            raise ValueError(f"spin-system file line {lineno}: {exc}") from None
    if spins is None:
        raise ValueError("spin-system file: missing 'spins' line")
    if larmor is None or len(larmor) != spins:
        raise ValueError(f"spin-system file: need exactly {spins} larmor values")
    by_index = {}  # the couplings by 0-based pair
    for pair, (val, lineno) in couplings.items():
        try:
            by_index[_parse_spins(pair, spins)] = val
        except ValueError as exc:
            raise ValueError(f"spin-system file line {lineno}: coupling {exc}") from None
    return SpinSystem.from_couplings(larmor, by_index)


def load_spin_system(path) -> SpinSystem:
    with open(path, encoding="utf-8") as fh:
        return parse_spin_system(fh.read())


def _parse_spins(tokens, n: int, names=None) -> tuple[int, ...]:
    """0-based indices of 1-based spin numbers, each between 1 and ``n``;
    ``names`` are the tokens' fields, by default each a ``spins entry``."""
    spins = tuple(_read(int, name, v) for name, v in zip(names or repeat("spins entry"), tokens))
    for spin in spins:
        if not 1 <= spin <= n:
            raise ValueError(f"spin {spin} out of range: spins are 1 to {n}")
    return tuple(spin - 1 for spin in spins)


def parse_sequence(text: str, system: SpinSystem) -> list:
    """Parse the line-based pulse-sequence format into event objects whose
    spins exist in ``system`` and whose coupled pairs have a nonzero J."""
    events = []
    for lineno, kind, fields in _content_lines(text):
        try:
            if kind == "rotation":
                spins, axis, angle = _exact(kind, fields)
                spins = _parse_spins(spins.split(","), system.n)
                events.append(Rotation(spins, axis.lower(), parse_angle(angle)))
            elif kind == "jcoupling":
                a, b, angle = _exact(kind, fields)
                pair = _parse_spins((a, b), system.n, _FIELDS[kind])
                events.append(JCoupling(pair, parse_angle(angle)))
                if system.j[pair] == 0.0:
                    raise ValueError(f"spins {pair[0] + 1} and {pair[1] + 1} have no J coupling")
            elif kind == "delay":
                (duration,) = _exact(kind, fields)
                events.append(Delay(finite_float(duration, "duration")))
            elif kind == "gradient":
                (spins,) = _exact(kind, fields)
                events.append(Gradient(_parse_spins(spins.split(","), system.n)))
            else:
                raise ValueError(f"unknown event kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"sequence file line {lineno}: {exc}") from None
    return events


def load_sequence(path, system: SpinSystem) -> list:
    with open(path, encoding="utf-8") as fh:
        return parse_sequence(fh.read(), system)


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
    try:
        arr = np.asarray(pairs, dtype=object)
    except ValueError:  # inconsistent nesting
        arr = np.asarray(None)
    if arr.shape != (dim, 2) or not all(
        isinstance(x, numbers.Real) and not isinstance(x, bool) for x in arr.flat
    ):
        raise ValueError(f"field {field!r}: expected {dim} [re, im] pairs")
    try:
        arr = arr.astype(float)
    except OverflowError:  # an integer beyond the float range
        arr = np.full(arr.shape, np.inf)
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
            return canonical_pair(photon_number(d))
        if d != 2:
            raise ValueError(f"field {field!r}: Bell names require d = 2")
        try:
            return bell_state(name)
        except ValueError:
            raise ValueError(f"field {field!r}: unknown state name {value!r}") from None
    return _vector_from_pairs(value, d * d, field)


def parse_input_state(value, d: int, field: str = "psi") -> np.ndarray:
    """A basis index (not a JSON boolean) or an amplitude list of length d."""
    if isinstance(value, int) and not isinstance(value, bool):
        if not 0 <= value < d:
            raise ValueError(f"field {field!r}: basis index {value} not in 0..{d - 1}")
        return basis_state(d, value)
    return _vector_from_pairs(value, d, field)


def parse_circuit(obj: dict) -> dict:
    """Parse a circuit JSON object into arrays; keys d, u, v, w, phi, omega, psi."""
    if not isinstance(obj, dict):
        raise ValueError("circuit file must contain a JSON object")
    if "d" not in obj:
        raise ValueError("circuit file: missing field 'd'")
    d = obj["d"]
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"circuit file: field 'd' must be an integer, got {d!r}")
    if d < 2:
        raise ValueError("circuit file: d must be at least 2")
    if d > MAX_DIM:
        raise ValueError(f"circuit file: d {d} exceeds the limit of {MAX_DIM}")
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
    if abs(norm - 1.0) > INPUT_TOL:
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
