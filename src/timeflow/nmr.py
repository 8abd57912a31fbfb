"""Idealized liquid-state NMR spin dynamics in the deviation-matrix picture.

Conventions, fixed once here:

* Rotating frame.  ``larmor[i]`` are resonance offsets in Hz, not absolute
  frequencies.  The free-evolution generator is

      H = (1/2) sum_i 2*pi*nu_i Z_i  +  (pi/2) sum_{i>j} J_ij Z_i Z_j

  in rad/s; it is diagonal in the computational basis.
* Rotations are ideal and instantaneous: conjugation by
  ``exp(-i angle sigma_axis / 2)`` on each listed spin.  A pi/2 rotation
  about +y takes a Z deviation to X.
* Coupling gates are pure ZZ evolution, ``exp(-i angle/2 Z_i Z_j)`` with the
  chemical-shift terms suppressed for the duration, standing in for the
  refocused coupling.  ``angle = pi/2`` is the controlled-phase-equivalent
  gate and corresponds to free evolution for time 1/(2 J_ij).
* Field-gradient crushers are ideal: they zero every matrix element that is
  off-diagonal in the computational basis of the crushed spins, which acts as
  a projective measurement without record.  The two-gradient-with-refocusing
  trick that protects the other spins is modeled as crushing only the listed
  subset.
* Detection of spin ``k`` is ``signal(t) = tr(rho(t) (X_k + i Y_k))``.  With
  the Hamiltonian above, a spin-k coherence with the other spins in |0> shows
  up at ``nu_k + sum_j J_kj / 2``.  :func:`fid` reads each line's
  frequency off spin k's own offset and couplings, O(n) per line, and
  splits the sample index into a coarse and a fine part, so a line takes
  about 2 sqrt(points) complex exponentials and one matrix product sums the
  lines.

States are deviation matrices: traceless Pauli terms plus projector factors,
written as symbol strings over {I, X, Y, Z, 0, 1} where 0 and 1 expand to
(1+Z)/2 and (1-Z)/2.  Unitaries act on the deviation exactly as on a density
matrix; positivity and unit trace are not required.  Every symbol's factor
has one nonzero per row, so an initial state is built by one scatter.

Propagation.  One fold, :func:`_fold`, applies every event.  Delays,
couplings and z rotations are diagonal conjugations, ``exp(-i angles)`` on
the basis states, so the fold adds their angles into one pending vector and
applies it in one pass, only before an x or y rotation and at the end; a
crusher commutes with it and acts at once.  An x rotation is run as a y
rotation in a frame turned about z,
``Rx(a) = Rz(-pi/2) Ry(a) Rz(pi/2)`` on each distinct listed spin, whose two
turns join the pending phase.  Every rotation that touches the state is then
real, and :func:`linalg.apply_local`'s kernel contracts a real gate against
the real view of the complex state.

A sequence runs on the columns that can be nonzero.  A spin is pulsed when
an x or y rotation of the sequence lists it, with either sign; a z rotation
does not pulse it.  The free Hamiltonian, couplings, z rotations and
crushers all commute with each spin's Z, so an unpulsed spin keeps the
coherence order its label gave it: its column bit is its row bit, flipped
for X and Y.  With m pulsed spins, :func:`run_sequence` keeps a (2**n, 2**m)
state whose columns hold only the pulsed spins' bits, and one index array of
each element's full column, built once; when every spin is pulsed the
columns are the basis states and the phases broadcast as on a dense state.
The state and one spare of its size are the call's two buffers.  A
rotation's row pass on a spin writes into the spare and its column pass, on
the axis of that spin's column bit, writes back, so the state is in the
first buffer again after each spin; the phase flushes multiply the rows in
place and the columns through the index array, and a crusher zeroes the
elements whose row and full column differ on a crushed spin's bit.
:func:`run_sequence` returns the dense 2**n x 2**n matrix: the state itself
when every spin is pulsed, else the state scattered into a zero matrix.
``timeflow nmr`` reads its report off the reduced state instead:
:func:`_decompose` gives each unpulsed spin a 2 x 2 part of the Pauli trace
map, and :func:`_coherences` finds the detected elements among its columns,
so neither the dense matrix nor the 4**n tensor is built.  The public
kernels :func:`evolve`, :func:`apply_jcoupling`, :func:`apply_rotation` and
:func:`gradient_crush` are one-event runs of the fold on a copy of the dense
state with every spin pulsed: complex128, or a crusher's input dtype.

Events check themselves when built, and the kernels build one from their
arguments; :func:`run_sequence` checks the events against the system first.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .linalg import ATOL, _apply_local_into, apply_local, ry

# Each symbol's 2 x 2 factor as (the nonzeros of rows 0 and 1, flip): row r
# has its one nonzero in column r ^ flip.  I, Z, 0 and 1 are diagonal; X and Y
# are anti-diagonal.
_SYMBOL_FACTORS = {
    "I": ((1, 1), 0),
    "X": ((1, 1), 1),
    "Y": ((-1j, 1j), 1),
    "Z": ((1, -1), 0),
    "0": ((1, 0), 0),
    "1": ((0, 1), 0),
}

AXES = ("x", "y", "z")

# tr(block @ P) for P = I, X, Y, Z, on a spin's 2 x 2 block flattened as
# (rho00, rho01, rho10, rho11)
_PAULI_TRACE = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_LETTERS = np.array(list("IXYZ"))


@dataclass(frozen=True)
class SpinSystem:
    """Rotating-frame offsets (Hz) and the symmetric J-coupling matrix (Hz)."""

    larmor: tuple[float, ...]
    j: np.ndarray

    def __post_init__(self):
        larmor = tuple(float(v) for v in self.larmor)
        if len(larmor) < 1:
            raise ValueError("a spin system needs at least one spin")
        j = np.asarray(self.j, dtype=float)
        n = len(larmor)
        if j.shape != (n, n):
            raise ValueError(f"J matrix must be {n} x {n}")
        if not (np.all(np.isfinite(larmor)) and np.all(np.isfinite(j))):
            raise ValueError("larmor offsets and J couplings must be finite")
        if np.max(np.abs(j - j.T)) > 0:
            raise ValueError("J matrix must be symmetric")
        for spin, value in enumerate(np.diag(j)):
            _check_self_coupling(spin, value)
        object.__setattr__(self, "larmor", larmor)
        object.__setattr__(self, "j", j)

    @property
    def n(self) -> int:
        return len(self.larmor)

    @classmethod
    def from_couplings(cls, larmor, couplings: dict) -> "SpinSystem":
        """Build from offsets and a {(i, j): J_ij} dict (0-based, either order)."""
        n = len(larmor)
        j = np.zeros((n, n))
        for (a, b), val in couplings.items():
            try:
                _check_spins(n, (a, b))
            except ValueError as exc:
                raise ValueError(f"coupling {(a, b)!r}: {exc}") from None
            j[a, b] = j[b, a] = float(val)
        return cls(tuple(larmor), j)


@dataclass(frozen=True)
class Rotation:
    """Ideal rotation of ``angle`` radians about ``axis`` on the listed spins.

    ``axis`` is one of x, y, z, optionally prefixed with a minus sign, which
    flips the sense of rotation.
    """

    spins: tuple[int, ...]
    axis: str
    angle: float

    def __post_init__(self):
        split_axis(self.axis)
        _check_finite("rotation angle", self.angle)


@dataclass(frozen=True)
class JCoupling:
    """Pure ZZ evolution of the given phase angle (rad) on a spin pair."""

    pair: tuple[int, int]
    angle: float

    def __post_init__(self):
        if len(self.pair) != 2 or self.pair[0] == self.pair[1]:
            raise ValueError("coupling needs two distinct spins")
        _check_finite("coupling angle", self.angle)


@dataclass(frozen=True)
class Delay:
    """Free evolution under the system Hamiltonian for ``duration`` seconds."""

    duration: float

    def __post_init__(self):
        _check_finite("delay", self.duration)


@dataclass(frozen=True)
class Gradient:
    """Ideal crusher on the listed spin subset."""

    spins: tuple[int, ...]

    def __post_init__(self):
        if len(self.spins) == 0:
            raise ValueError("gradient needs a nonempty spin subset")


PulseEvent = Rotation | JCoupling | Delay | Gradient


def _check_self_coupling(spin, value) -> None:
    """A spin's coupling to itself is zero: the one rule for the J diagonal,
    a coupling dict's ``(a, a)`` entry and a file's ``j a a`` line."""
    if value != 0.0:
        raise ValueError(f"self-coupling of spin {spin} must be zero, got {value}")


def _check_finite(what: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")


def _bit(n: int, spin):
    """Position of a spin's bit in a basis-state index; spin 0 is the most
    significant of the n bits."""
    return n - 1 - spin


def _spin_mask(n: int, spins) -> int:
    """The basis-state bits of the listed spins, set in one integer."""
    return sum(1 << _bit(n, k) for k in set(spins))


def _z_signs(n: int, idx=None) -> np.ndarray:
    """Row i holds the +1/-1 eigenvalue of Z_i on each basis state of
    ``idx``, by default all 2**n of them."""
    idx = np.arange(2**n) if idx is None else idx
    return 1.0 - 2.0 * ((idx >> _bit(n, np.arange(n))[:, None]) & 1)


def _check_spins(n: int, spins) -> None:
    """Every listed spin is an integer index from 0 to n - 1 (not a bool)."""
    for spin in spins:
        if not isinstance(spin, numbers.Integral) or isinstance(spin, bool):
            raise ValueError(f"spin index {spin!r} is not an integer")
        if not 0 <= spin < n:
            raise ValueError(f"spin index {spin} out of range")


def _spin_count(rho: np.ndarray, spins=()) -> int:
    """The n of a square 2**n-sided state, after checking that ``spins`` exist."""
    side = rho.shape[0]
    if rho.shape != (side, side) or side < 1 or side & (side - 1):
        raise ValueError("matrix side must be a power of two")
    n = side.bit_length() - 1
    _check_spins(n, spins)
    return n


def build_hamiltonian(s: SpinSystem) -> np.ndarray:
    """Energies of the free-evolution generator in rad/s, one per basis state:
    the generator is diagonal in the computational basis."""
    n = s.n
    zs = _z_signs(n)
    energies = np.zeros(2**n)
    for i in range(n):
        energies += np.pi * s.larmor[i] * zs[i]
    for i in range(n):
        for jx in range(i):
            energies += (np.pi / 2) * s.j[i, jx] * zs[i] * zs[jx]
    return energies


def _phase(rho: np.ndarray, angles: np.ndarray, col) -> None:
    """Conjugation by diag(exp(-i angles)), in place: element (k, l) gains
    the phase exp(-i (angles_k - angles_l)), with ``col`` each element's full
    column index l, or one per column (see :func:`run_sequence`)."""
    p = np.exp(-1j * angles)
    rho *= p[:, None]
    rho *= p.conj()[col]


# The phase angles of each diagonal event, one per basis state; conjugation
# by diag(exp(-i angles)) applies the event, and the angles of successive
# diagonal events add.


def _free_angles(energies: np.ndarray, t: float) -> np.ndarray:
    """Free evolution exp(-i diag(energies) t)."""
    if not np.all(np.isfinite(energies)):
        raise ValueError("generator must be one real, finite energy per row of the state")
    return energies * t


def _zz_angles(zs: np.ndarray, pair, angle: float) -> np.ndarray:
    """exp(-i angle/2 Z_i Z_j), from the rows of :func:`_z_signs`."""
    i, jx = pair
    return (angle / 2) * zs[i] * zs[jx]


def _z_angles(zs: np.ndarray, spins, angle: float) -> np.ndarray:
    """The product of exp(-i angle/2 Z_k) over the listed spins; a repeated
    spin rotates once per listing."""
    return (angle / 2) * zs[list(spins)].sum(axis=0)


def _join(pending, angles):
    """The sum of two phase-angle vectors, where None stands for no phase."""
    if pending is None or angles is None:
        return angles if pending is None else pending
    return pending + angles


def evolve(rho: np.ndarray, energies: np.ndarray, t: float) -> np.ndarray:
    """Conjugation by exp(-i diag(energies) t); preserves trace and eigenvalues.

    ``energies`` are the generator's diagonal as :func:`build_hamiltonian`
    gives it: one real, finite value per row of the square ``rho``, whose
    side is a power of two; the time ``t`` must be finite."""
    rho, energies = np.asarray(rho), np.asarray(energies)
    if not (energies.dtype.kind in "iuf" and rho.shape == 2 * energies.shape):
        raise ValueError("generator must be one real, finite energy per row of the state")
    _check_finite("evolution time", t)
    return _one_event(rho, Delay(t), energies=energies)


def split_axis(axis: str) -> tuple[str, float]:
    """The letter and rotation sense of an axis: x, y or z in either case,
    optionally prefixed with one + or -."""
    ax = axis.lower() if isinstance(axis, str) else ""
    letter = ax[1:] if ax.startswith(("-", "+")) else ax
    if letter not in AXES:
        raise ValueError(f"invalid axis {axis!r}")
    return letter, -1.0 if ax.startswith("-") else 1.0


def apply_rotation(rho: np.ndarray, spins, axis: str, angle: float) -> np.ndarray:
    """Rotate the listed spins by ``angle`` about ``axis`` (same pulse on each).

    Each spin's gate acts on its row axis and the gate's conjugate on its
    column axis, so no full-size unitary is formed.  A z rotation is diagonal:
    one phase pass for all the listed spins.
    """
    ev = Rotation(spins, axis, angle)
    return _one_event(rho, ev, ev.spins)


def apply_jcoupling(rho: np.ndarray, pair, angle: float) -> np.ndarray:
    """Pure ZZ phase evolution exp(-i angle/2 Z_i Z_j) on a spin pair."""
    ev = JCoupling(pair, angle)
    return _one_event(rho, ev, ev.pair)


def gradient_crush(rho: np.ndarray, spins) -> np.ndarray:
    """Zero every element off-diagonal in the listed spins' computational basis.

    A full crusher acts as a projective measurement without record; the
    operation is idempotent and trace-preserving.
    """
    ev = Gradient(spins)
    return _one_event(rho, ev, ev.spins, dtype=None)


def _one_event(rho, ev, spins=(), energies=None, dtype=complex):
    """``ev``, which lists ``spins``, folded over a C-ordered copy of the
    dense state with every spin pulsed; a ``dtype`` of None keeps rho's."""
    rho = np.asarray(rho)
    n = _spin_count(rho, spins)
    state = _dense(rho.astype(dtype or rho.dtype, order="C"), n)
    return _fold(state.rho, n, energies, (ev,), state.pulsed, state.col)


def validate_label(label: str, n: int | None = None) -> str:
    label = label.strip().upper()
    if n is not None and len(label) != n:
        raise ValueError(f"label {label!r} must have length {n}")
    for ch in label:
        if ch not in _SYMBOL_FACTORS:
            raise ValueError(f"invalid symbol {ch!r}; allowed: I X Y Z 0 1")
    return label


def pseudopure_init(label: str) -> np.ndarray:
    """Deviation matrix of a symbol string, e.g. X00X -> X (1+Z)/2 (1+Z)/2 X."""
    label = validate_label(label)
    if not label:
        raise ValueError("empty label")
    vals, flip = _expand_label(label)
    idx = np.arange(len(vals))
    out = np.zeros((len(vals), len(vals)), dtype=complex)
    out[idx, idx ^ flip] = vals
    return out


def _expand_label(label: str) -> tuple[np.ndarray, int]:
    """A valid label's deviation as (vals, flip): row r holds its one nonzero
    ``vals[r]`` in column ``r ^ flip``."""
    rows, flips = zip(*(_SYMBOL_FACTORS[ch] for ch in label))
    vals = reduce(np.multiply.outer, np.array(rows, dtype=complex)).ravel()  # kron of the rows
    return vals, int("".join(map(str, flips)), 2)


class _Reduced(NamedTuple):
    """A deviation state on the columns that can be nonzero: ``rho`` is
    (2**n, 2**m), its column c holding the bits of the m ``pulsed`` spins, in
    order; every other spin's column bit is its row bit xor that spin's bit
    of ``flip``.  ``col`` is each element's full column index, or one per
    column when every spin is pulsed."""

    rho: np.ndarray
    pulsed: tuple[int, ...]
    flip: int
    col: np.ndarray


def _dense(rho: np.ndarray, n: int) -> _Reduced:
    """The dense 2**n x 2**n state as the reduced one with every spin pulsed."""
    return _Reduced(rho, tuple(range(n)), 0, np.arange(2**n))


def _reduced_column(n: int, pulsed, full):
    """The reduced column that holds full column index ``full``: the bits of
    the ``pulsed`` spins, in order."""
    m = len(pulsed)
    return sum(((full >> _bit(n, k)) & 1) << (m - 1 - i) for i, k in enumerate(pulsed))


def pauli_decompose(rho: np.ndarray, tol: float = ATOL) -> list[tuple[str, float]]:
    """Expansion over the n-spin Pauli product basis.

    Returns ``(label, coefficient)`` pairs with ``coefficient =
    tr(rho P) / 2**n``, omitting terms at or below ``tol``, in the label
    order of ``itertools.product("IXYZ", repeat=n)``; Hermitian input gives
    real coefficients.  The rows and columns of each spin are paired into
    one axis of length 4 and a fixed 4 x 4 trace map is applied per axis
    (the tensorized Pauli decomposition of Hantzko, Binkowski and Gupta,
    2023), so the cost is O(n 4**n) rather than a matrix product per label.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    rho = np.asarray(rho)
    return list(zip(*_decompose(_dense(rho, _spin_count(rho)), tol)))


def _decompose(state: _Reduced, tol: float) -> tuple[list[str], list[float]]:
    """The labels and coefficients of :func:`pauli_decompose`, read off the
    reduced state.

    A pulsed spin pairs its row axis with its column axis and takes the
    4 x 4 trace map.  An unpulsed spin k keeps its row axis, its column bit
    being the row bit xor f_k, the bit of ``state.flip``; its elements are
    the diagonal of its block when f_k = 0 and the anti-diagonal when
    f_k = 1, so it takes the 2 x 2 part of the map on those two entries:
    letters I and Z, or X and Y, every other letter's coefficient being
    zero.  Row-major order over these axes is the label order of
    ``itertools.product("IXYZ")``, and each coefficient sums the same
    elements, two per axis, as on the dense state.
    """
    rho, pulsed, flip = state.rho, state.pulsed, state.flip
    n = rho.shape[0].bit_length() - 1
    order, picks = [], []
    for k in range(n):
        if k in pulsed:
            order += [k, n + pulsed.index(k)]
            picks.append([0, 1, 2, 3])
        else:
            order.append(k)
            picks.append([1, 2] if flip >> _bit(n, k) & 1 else [0, 3])
    shape = [len(pick) for pick in picks]
    t = rho.reshape((2,) * len(order)).transpose(order).reshape(shape)
    for k, pick in enumerate(picks):
        t = apply_local(t, k, _PAULI_TRACE[np.ix_(pick, pick)])
    coeffs = t.real.reshape(-1) / 2**n
    kept = np.flatnonzero(np.abs(coeffs) > tol)
    # each label joins a row of the first half's grid and one of the second's
    half = n // 2
    head, tail = np.divmod(kept, math.prod(shape[half:]))
    labels = np.empty((len(kept), n), dtype="<U1")
    labels[:, :half] = _label_grid(picks[:half])[head]
    labels[:, half:] = _label_grid(picks[half:])[tail]
    return labels.view(f"<U{n}").ravel().tolist(), coeffs[kept].tolist()


def _label_grid(picks) -> np.ndarray:
    """Every label over spins whose letters are the ``picks`` of "IXYZ", in
    row-major order: one row per label, one column per spin."""
    grid = np.empty([len(pick) for pick in picks] + [len(picks)], dtype="<U1")
    for k, pick in enumerate(picks):
        grid[..., k] = _LETTERS[pick].reshape([-1 if a == k else 1 for a in range(len(picks))])
    return grid.reshape(-1, len(picks)) if picks else grid.reshape(1, 0)


def run_sequence(s: SpinSystem, init: str, seq) -> np.ndarray:
    """Fold a pulse sequence over the initial deviation state.

    Rotations and couplings are ideal; free evolution happens only at
    explicit Delay events.  Coupling gates require a nonzero J on the pair,
    since their duration 1/(2 J) would otherwise diverge.

    Delays, couplings and z rotations are diagonal, so their phase angles add
    up in one pending vector, applied in a single pass before the next x or y
    rotation and at the end.  A crusher commutes with them and does not wait.
    An x rotation is a y rotation in the frame turned by pi/2 about z,
    ``Rx(a) = Rz(-pi/2) Ry(a) Rz(pi/2)`` on each distinct listed spin, and
    the two frame turns join the pending phase on either side.

    The fold runs on the columns that can be nonzero: a spin that no x or y
    rotation lists keeps the column bit its label gave it, so the state is a
    (2**n, 2**m) array over the m pulsed spins' column bits, in two buffers
    for the whole call (see the module notes).  The result is that state
    scattered into the dense 2**n x 2**n deviation matrix.
    """
    state = _run_reduced(s, init, seq)
    if len(state.pulsed) == s.n:
        return state.rho
    out = np.zeros((2**s.n, 2**s.n), dtype=complex)
    out[np.arange(2**s.n)[:, None], state.col] = state.rho
    return out


def _run_reduced(s: SpinSystem, init: str, seq) -> _Reduced:
    """The state after the checked events of ``seq``, folded on the columns
    that can be nonzero (see :func:`run_sequence`)."""
    n = s.n
    vals, flip = _expand_label(validate_label(init, n))
    seq = tuple(seq)
    pulsed = _check_sequence(s, seq)
    mask = _spin_mask(n, pulsed)
    rows = np.arange(2**n)
    # reduced column c holds the pulsed spins' bits of full column cols[c]
    cols = rows[(rows & ~mask) == 0]
    # the full column of each element: the pulsed spins' bits from its
    # reduced column, the others its row's, flipped by the label
    col = cols if len(pulsed) == n else ((rows ^ flip) & ~mask)[:, None] | cols
    rho = np.zeros((2**n, len(cols)), dtype=complex)
    rho[rows, _reduced_column(n, pulsed, rows ^ flip)] = vals
    _fold(rho, n, build_hamiltonian(s), seq, pulsed, col)
    return _Reduced(rho, pulsed, flip, col)


def _fold(rho, n, energies, seq, pulsed, col):
    """Apply the checked events of ``seq`` in place to the C-contiguous
    (2**n, 2**m) state ``rho``, whose columns hold the bits of the m
    ``pulsed`` spins in order, and return it; every spin an x or y rotation
    lists is pulsed.  ``col`` is each element's full column index, or one per
    column when a column's elements share it; delays read ``energies``."""
    shape = (2,) * (n + len(pulsed))  # one axis per row bit and pulsed spin
    t, spare = rho.reshape(shape), np.empty_like(rho).reshape(shape)
    zs = _z_signs(n)
    pending = None  # the angles of the diagonal events not yet applied
    for ev in seq:
        if isinstance(ev, Rotation):
            ax, sign = split_axis(ev.axis)
            if ax == "z":
                angles = _z_angles(zs, ev.spins, sign * ev.angle)
            else:
                frame = _z_angles(zs, set(ev.spins), np.pi / 2) if ax == "x" else None
                pending = _join(pending, frame)
                if pending is not None:
                    _phase(rho, pending, col)
                gate = ry(sign * ev.angle).real  # real, so its own conjugate
                for spin in ev.spins:  # the row pass into the spare, the column pass back
                    _apply_local_into(t, spin, gate, spare)
                    _apply_local_into(spare, n + pulsed.index(spin), gate, t)
                pending = None if frame is None else -frame
                continue
        elif isinstance(ev, JCoupling):
            angles = _zz_angles(zs, ev.pair, ev.angle)
        elif isinstance(ev, Delay):
            angles = _free_angles(energies, ev.duration)
        else:  # zero the elements whose row and column differ on a crushed bit
            key = _spin_mask(n, ev.spins)
            np.putmask(rho, (np.arange(2**n) & key)[:, None] != (col & key), 0)
            continue
        pending = _join(pending, angles)
    if pending is not None:
        _phase(rho, pending, col)
    return rho


def _check_sequence(s: SpinSystem, seq) -> tuple[int, ...]:
    """Check the events of ``seq`` against the spin system, in order, and
    return the distinct spins that an x or y rotation lists, sorted."""
    pulsed = set()
    for ev in seq:
        if isinstance(ev, (Rotation, Gradient)):
            _check_spins(s.n, ev.spins)
            if isinstance(ev, Rotation) and split_axis(ev.axis)[0] != "z":
                pulsed.update(ev.spins)
        elif isinstance(ev, JCoupling):
            _check_spins(s.n, ev.pair)
            i, jx = ev.pair
            if s.j[i, jx] == 0.0:
                raise ValueError(f"spins {i} and {jx} have no J coupling")
        elif not isinstance(ev, Delay):
            raise ValueError(f"unknown pulse event {ev!r}")
    return tuple(sorted(pulsed))


def acausality_sequence(flip: bool) -> list[PulseEvent]:
    """The four-spin sequence whose first spin ends up orthogonally different
    depending on a rotation applied later and elsewhere.

    Spins are 0-based: C1, C2, C3, C4 = 0, 1, 2, 3.  Starting from the X00X
    deviation state the blocks are: (a) entangle C2 and C3; (b) couple C1 to
    C2; (c) optionally rotate C4, the conditional choice; (d) map the C3/C4
    pair back to the computational basis and crush it, the simulated
    entangled-basis measurement.  The final state is the single term XXIZ
    without the flip and YIZI with it, at a quarter of the initial coherence
    amplitude.  The rotation phases of block (d) are a reconstruction; their
    signs are chosen so both final amplitudes come out positive.
    """
    half = np.pi / 2
    seq: list[PulseEvent] = [
        Rotation((1,), "y", half),
        Rotation((2,), "y", half),
        JCoupling((1, 2), half),
        JCoupling((0, 1), half),
    ]
    if flip:
        seq.append(Rotation((3,), "y", -half))
    seq += [
        Rotation((2,), "y", -half),
        JCoupling((2, 3), half),
        Rotation((2,), "y", half),
        Rotation((3,), "x", half),
        Gradient((2, 3)),
    ]
    return seq


def coherence_amplitude(rho: np.ndarray, spin: int, tol: float = 1e-12) -> float:
    """Total magnitude of deviation terms transverse on the given spin.

    Sums |coefficient| over Pauli terms carrying X or Y at ``spin``: the
    part of the state that suitable readout rotations can turn into signal
    on that spin.
    """
    rho = np.asarray(rho)
    _spin_count(rho, (spin,))
    total = 0.0
    for label, c in pauli_decompose(rho, tol=tol):
        if label[spin] in ("X", "Y"):
            total += abs(c)
    return total


def fid(
    s: SpinSystem, rho0: np.ndarray, detect: int, duration: float, points: int
) -> np.ndarray:
    """Complex detection signal of one spin under free evolution.

    Samples ``tr(rho(t) (X_d + i Y_d))`` at ``points`` uniform times starting
    at 0 with spacing ``dt = duration / points``: one line per nonzero
    detected coherence, at the frequency :func:`_line_frequencies` gives.
    Sample k = q b + j, with b = ceil(sqrt(points)), factors as
    ``exp(-i w q b dt) exp(-i w j dt)``, so each line takes about
    2 sqrt(points) exponentials, and one matrix product over the lines sums
    a ceil(points / b) x b grid whose first ``points`` samples are the signal.
    """
    return _fid(s, _dense(np.asarray(rho0), s.n), detect, duration, points)


def _fid(s: SpinSystem, state: _Reduced, detect: int, duration: float, points: int):
    """:func:`fid` of a dense or reduced state."""
    if not isinstance(points, (int, np.integer)):
        raise ValueError(f"points must be an integer, got {points!r}")
    if points < 2:
        raise ValueError("need at least two points")
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and positive, got {duration}")
    n = s.n
    if state.rho.shape != (2**n, 2 ** len(state.pulsed)):
        raise ValueError("state size does not match the spin system")
    _check_spins(n, (detect,))
    rows, seen = _coherences(state, n, detect)
    if not np.all(np.isfinite(seen)):
        raise ValueError("the detected coherences must be finite")
    keep = np.abs(seen) > 1e-300
    rows, seen = rows[keep], seen[keep]
    freq = _line_frequencies(s, detect, rows)
    if not math.isfinite(float(np.max(np.abs(freq), initial=0.0)) * float(duration)):
        raise ValueError(f"a line's phase over {duration} s overflows")
    dt = duration / points
    b = math.isqrt(points - 1) + 1
    a = -(-points // b)
    coarse = np.exp(-1j * np.outer(np.arange(a) * (b * dt), freq))
    coarse *= seen
    fine = np.exp(-1j * np.outer(np.arange(b) * dt, freq))
    return (coarse @ fine.T).reshape(-1)[:points]


def _coherences(state: _Reduced, n: int, detect: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows r with the detected spin's bit set and what the detector
    sees in each: X_d + i Y_d = 2 |0><1| on that spin, so ``2 rho[r, r ^
    mask]`` for that spin's bit ``mask``.  On a reduced state that element
    is in column :func:`_reduced_column` of ``r ^ mask`` when every unpulsed
    spin's column bit is its row bit xor its bit of ``mask``, and zero
    otherwise."""
    mask = _spin_mask(n, (detect,))
    rows = np.flatnonzero(np.arange(2**n) & mask)
    if (mask ^ state.flip) & ~_spin_mask(n, state.pulsed):
        return rows, np.zeros(len(rows), dtype=complex)
    return rows, 2 * state.rho[rows, _reduced_column(n, state.pulsed, rows ^ mask)]


def _line_frequencies(s: SpinSystem, detect: int, rows: np.ndarray) -> np.ndarray:
    """The frequency, in rad/s, at which the detector of spin ``detect`` sees
    the coherence of each row r of ``rows``, which have that spin's bit set:
    ``E(r) - E(r ^ mask)`` for the energies E of :func:`build_hamiltonian`,
    with ``mask`` that spin's bit.

    Only the terms on the detected spin d differ between the two states,
    where Z_d reads -1 and +1, so the difference is
    ``-2 pi nu_d - pi sum_{j != d} J_dj z_j(r)``: O(n) per line, without
    subtracting two energies that are far larger than it.
    """
    zs = _z_signs(s.n, rows)
    return -np.pi * (2 * s.larmor[detect] + s.j[detect] @ zs)


@dataclass(frozen=True)
class Spectrum:
    """A discrete complex spectrum on a uniform frequency grid (Hz)."""

    frequencies: np.ndarray
    intensities: np.ndarray
    dwell: float
    points: int
    line_broadening: float

    def __post_init__(self):
        if len(self.frequencies) != len(self.intensities):
            raise ValueError("frequency and intensity grids differ in length")


def spectrum(signal: np.ndarray, dwell: float, line_broadening: float = 0.0) -> Spectrum:
    """Fourier transform of the exponentially apodized detection signal.

    ``line_broadening`` is the Lorentzian full width at half maximum in Hz
    added by the apodization; the frequency axis is centered around zero
    following the dwell-time convention.  A negative width, which would
    amplify the signal's tail, is rejected, and so are a signal that is not
    one finite sample per point and a dwell that is not finite and positive
    or whose acquisition time ``points * dwell`` or frequency step, its
    inverse, overflows.
    """
    if not (math.isfinite(dwell) and dwell > 0):
        raise ValueError(f"dwell must be finite and positive, got {dwell}")
    if not line_broadening >= 0:
        raise ValueError(f"line broadening must be non-negative, got {line_broadening}")
    signal = np.asarray(signal)
    if signal.ndim != 1 or not np.all(np.isfinite(signal)):
        raise ValueError("signal must be one finite sample per point")
    n = signal.shape[0]
    span = n * float(dwell)
    if n and not (math.isfinite(span) and math.isfinite(1 / span)):
        raise ValueError(f"dwell {dwell} s at {n} points overflows the time or frequency grid")
    times = np.arange(n) * dwell
    # The largest decay exponent, in Python floats (which overflow without a
    # warning): inf there, or inf * 0 = nan at n = 1, would make the spectrum NaN.
    if n and not math.isfinite(math.pi * float(line_broadening) * float(times[-1])):
        raise ValueError(
            f"line broadening {line_broadening} Hz overflows the apodization decay"
        )
    apodized = signal * np.exp(-np.pi * line_broadening * times)
    intensities = np.fft.fftshift(np.fft.fft(apodized))
    freqs = np.fft.fftshift(np.fft.fftfreq(n, d=dwell))
    return Spectrum(
        frequencies=freqs,
        intensities=intensities,
        dwell=float(dwell),
        points=n,
        line_broadening=float(line_broadening),
    )


def spectral_overlap(a: Spectrum, b: Spectrum) -> float:
    """Normalized inner product of two intensity profiles, in [0, 1]."""
    if a.points != b.points or np.max(np.abs(a.frequencies - b.frequencies)) > 0:
        raise ValueError("spectra are not on the same frequency grid")
    na = np.linalg.norm(a.intensities)
    nb = np.linalg.norm(b.intensities)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.abs(np.vdot(a.intensities, b.intensities)) / (na * nb))


def phased_real(spec: Spectrum) -> np.ndarray:
    """Real intensity profile after the zero-order phase that maximizes the
    tallest peak."""
    k = int(np.argmax(np.abs(spec.intensities)))
    ph = np.exp(-1j * np.angle(spec.intensities[k]))
    return (spec.intensities * ph).real
