"""Parsers and serializers for the interchange files, whose grammar is in
``docs/file-formats.md``.

Spin-system files (``spins``, ``larmor`` and ``j`` lines) and pulse-sequence
files (one ``rotation``, ``jcoupling``, ``delay`` or ``gradient`` event per
line) are read through one table, :data:`_FIELDS`, of each keyword's fields
as (name, reader) pairs: one function checks a line's field count against it
and reads the tokens.  Spin numbers in files are 1-based, as in carrier names
like C1; angles are floats or fractions of pi.  ``timeflow verify`` reads
``--dims`` with the same integer reader, and holds each entry to the rule of
a circuit file's ``d`` (:func:`_dimension`).  Circuit files are JSON objects
with fields ``d``, ``u``, ``v``, ``w``, ``phi``, ``omega`` and ``psi``.
"""

from __future__ import annotations

import json
import math
import numbers
import re

import numpy as np

from .linalg import HADAMARD, ID2, INPUT_TOL, PAULI, SGATE, basis_state, bell_state, rx, ry, rz
from .nmr import Delay, Gradient, JCoupling, Rotation, SpinSystem, _check_self_coupling
from .reversal import canonical_pair, photon_number

# The input limits, each checked before any array is built.  MAX_SPINS: a
# sequence that pulses every spin folds a dense 2**n x 2**n complex state,
# 256 MiB at n = 12 and 4 GiB at n = 14, and its report can hold 4**n terms.
# MAX_DIM: verify's key-1 pass holds d**4 complex elements per trial, 16 MiB
# at d = 32 and 256 MiB at d = 64.  MAX_POINTS: each CSV export holds one row
# per point, and fid keeps about 2 sqrt(points) complex exponentials per
# observed line, so 2**16 points of a 10-spin state's 512 lines peak near 6 MiB.
MAX_SPINS = 12
MAX_DIM = 32
MAX_POINTS = 2**16

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
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"{name} {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} {token!r} is not finite")
    return value


def _content_lines(text: str):
    """``(line number, lower-case keyword, fields)`` per line with content."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields[0].lower(), fields[1:]


def _integer(token: str, name: str, n=None) -> int:
    """An integer field; given a spin count ``n``, a spin number from 1 to
    ``n``, returned 0-based."""
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"{name} {token!r} is not an integer") from None
    return _in_range((value,), n)[0]


def _integers(token: str, name: str, n=None) -> tuple[int, ...]:
    """Comma-separated integers, each a ``{name} entry``, read as :func:`_integer` reads one."""
    return _in_range(tuple(_integer(v, f"{name} entry") for v in token.split(",")), n)


def _in_range(spins, n) -> tuple[int, ...]:
    """``spins`` as they are, or, given a count ``n``, each from 1 to ``n`` and made 0-based."""
    if n is None:
        return spins
    for spin in spins:
        if not 1 <= spin <= n:
            raise ValueError(f"spin {spin} out of range: spins are 1 to {n}")
    return tuple(spin - 1 for spin in spins)


def _dimension(value, name: str) -> int:
    """A carrier dimension: an integer, not a bool, from 2 to :data:`MAX_DIM`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} {value!r} is not an integer")
    if not 2 <= value <= MAX_DIM:
        raise ValueError(f"{name} {value} out of range: dimensions are 2 to {MAX_DIM}")
    return value


def _number(token: str, name: str, n=None) -> float:
    return finite_float(token, name)


def _angle(token: str, name: str, n=None) -> float:
    return parse_angle(token)


# Each keyword's fields after it, as (name, reader) pairs; ``larmor`` holds
# one value per spin.  A reader takes the token, the field's name and the spin
# count of a sequence file, or None in a spin-system file, whose j lines are
# range-checked once the whole file is read.
_FIELDS = {
    "spins": (("count", _integer),),
    "j": (("first spin", _integer), ("second spin", _integer), ("coupling", _number)),
    "rotation": (("spins", _integers), ("axis", lambda t, *_: t.lower()), ("angle", _angle)),
    "jcoupling": (("first spin", _integer), ("second spin", _integer), ("angle", _angle)),
    "delay": (("duration", _number),),
    "gradient": (("spins", _integers),),
}


def _fields(key: str, tokens: list, n=None) -> list:
    """A ``key`` line's tokens read by :data:`_FIELDS`, in order: a short
    line names the first missing field, a long one the first extra."""
    fields = _FIELDS[key]
    if len(tokens) < len(fields):
        raise ValueError(f"missing field '{fields[len(tokens)][0]}'")
    if len(tokens) > len(fields):
        raise ValueError(f"unexpected field {tokens[len(fields)]!r}")
    return [read(token, name, n) for (name, read), token in zip(fields, tokens)]


def parse_spin_system(text: str) -> SpinSystem:
    """Parse the key-value spin-system format."""
    spins = None
    larmor = None
    couplings: dict[tuple[int, int], tuple] = {}  # (J, line) by 1-based pair, lower first
    seen: dict[str, int] = {}  # the line of the spins and larmor keys
    for lineno, key, tokens in _content_lines(text):
        try:
            if key == "spins":
                (spins,) = _fields(key, tokens)
                if spins < 1:
                    raise ValueError(f"need at least 1 spin, got {spins}")
                if spins > MAX_SPINS:
                    raise ValueError(f"spin count {spins} exceeds the limit of {MAX_SPINS}")
            elif key == "larmor":
                larmor = [finite_float(v, "larmor value") for v in tokens]
            elif key == "j":
                a, b, val = _fields(key, tokens)
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
            by_index[_in_range(pair, spins)] = val
        except ValueError as exc:
            raise ValueError(f"spin-system file line {lineno}: coupling {exc}") from None
    return SpinSystem.from_couplings(larmor, by_index)


def load_spin_system(path) -> SpinSystem:
    with open(path, encoding="utf-8") as fh:
        return parse_spin_system(fh.read())


# The event that each sequence keyword builds from its fields.
_EVENTS = {"rotation": Rotation, "delay": Delay, "gradient": Gradient,
           "jcoupling": lambda a, b, angle: JCoupling((a, b), angle)}


def parse_sequence(text: str, system: SpinSystem) -> list:
    """Parse the line-based pulse-sequence format into event objects whose
    spins exist in ``system`` and whose coupled pairs have a nonzero J."""
    events = []
    for lineno, kind, tokens in _content_lines(text):
        try:
            if kind not in _EVENTS:
                raise ValueError(f"unknown event kind {kind!r}")
            event = _EVENTS[kind](*_fields(kind, tokens, system.n))
            if kind == "jcoupling" and system.j[event.pair] == 0.0:
                a, b = event.pair
                raise ValueError(f"spins {a + 1} and {b + 1} have no J coupling")
            events.append(event)
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
    d = _dimension(obj["d"], "circuit file: field 'd'")
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
