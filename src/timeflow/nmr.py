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
  up at ``nu_k + sum_j J_kj / 2``.

States are deviation matrices: traceless Pauli terms plus projector factors,
written as symbol strings over {I, X, Y, Z, 0, 1} where 0 and 1 expand to
(1+Z)/2 and (1-Z)/2.  Unitaries act on the deviation exactly as on a density
matrix; positivity and unit trace are not required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, ID2, PAULI, apply_local, kron, rx, ry, rz

_SYMBOL_FACTORS = {
    "I": ID2,
    "X": PAULI["X"],
    "Y": PAULI["Y"],
    "Z": PAULI["Z"],
    "0": (ID2 + PAULI["Z"]) / 2,
    "1": (ID2 - PAULI["Z"]) / 2,
}

AXES = ("x", "y", "z")
_ROTATIONS = {"x": rx, "y": ry, "z": rz}

# tr(block @ P) for P = I, X, Y, Z, on a spin's 2 x 2 block flattened as
# (rho00, rho01, rho10, rho11)
_PAULI_TRACE = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


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
        if np.max(np.abs(np.diag(j))) > 0:
            raise ValueError("J matrix must have a zero diagonal")
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
            if a == b:
                raise ValueError("self-coupling is not allowed")
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


@dataclass(frozen=True)
class JCoupling:
    """Pure ZZ evolution of the given phase angle (rad) on a spin pair."""

    pair: tuple[int, int]
    angle: float


@dataclass(frozen=True)
class Delay:
    """Free evolution under the system Hamiltonian for ``duration`` seconds."""

    duration: float


@dataclass(frozen=True)
class Gradient:
    """Ideal crusher on the listed spin subset."""

    spins: tuple[int, ...]


PulseEvent = Rotation | JCoupling | Delay | Gradient


def _bit(n: int, spin):
    """Position of a spin's bit in a basis-state index; spin 0 is the most
    significant of the n bits."""
    return n - 1 - spin


def _z_signs(n: int) -> np.ndarray:
    """Row i holds the +1/-1 eigenvalue of Z_i on each of the 2**n basis states."""
    idx = np.arange(2**n)
    return 1.0 - 2.0 * ((idx >> _bit(n, np.arange(n))[:, None]) & 1)


def _spin_count(rho: np.ndarray, spins=()) -> int:
    """The n of a square 2**n-sided state, after checking that ``spins`` exist."""
    side = rho.shape[0]
    if rho.shape != (side, side) or side < 1 or side & (side - 1):
        raise ValueError("matrix side must be a power of two")
    n = side.bit_length() - 1
    for spin in spins:
        if not 0 <= spin < n:
            raise ValueError(f"spin index {spin} out of range")
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


def _phase(rho: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Conjugation by diag(exp(-i angles)): element (k, l) gains the phase
    exp(-i (angles_k - angles_l))."""
    p = np.exp(-1j * angles)
    return rho * np.outer(p, p.conj())


def evolve(rho: np.ndarray, energies: np.ndarray, t: float) -> np.ndarray:
    """Conjugation by exp(-i diag(energies) t); preserves trace and eigenvalues.

    ``energies`` are the generator's diagonal as :func:`build_hamiltonian`
    gives it: one real, finite value per row of the square ``rho``."""
    rho = np.asarray(rho)
    energies = np.asarray(energies)
    valid = energies.dtype.kind in "iuf" and rho.shape == 2 * energies.shape
    if not (valid and np.all(np.isfinite(energies))):
        raise ValueError("generator must be one real, finite energy per row of the state")
    return _phase(rho, energies * t)


def split_axis(axis: str) -> tuple[str, float]:
    """The letter and rotation sense of an axis: x, y or z in either case,
    optionally prefixed with one + or -."""
    ax = axis.lower()
    letter = ax[1:] if ax.startswith(("-", "+")) else ax
    if letter not in AXES:
        raise ValueError(f"invalid axis {axis!r}")
    return letter, -1.0 if ax.startswith("-") else 1.0


def apply_rotation(rho: np.ndarray, spins, axis: str, angle: float) -> np.ndarray:
    """Rotate the listed spins by ``angle`` about ``axis`` (same pulse on each).

    Each spin's gate acts on its row axis and the gate's conjugate on its
    column axis, so no full-size unitary is formed.
    """
    ax, sign = split_axis(axis)
    gate = _ROTATIONS[ax](sign * angle)
    rho = np.asarray(rho)
    n = _spin_count(rho, spins)
    t = rho.reshape((2,) * (2 * n))
    for spin in spins:
        t = apply_local(apply_local(t, spin, gate), n + spin, gate.conj())
    return t.reshape(rho.shape)


def apply_jcoupling(rho: np.ndarray, pair, angle: float) -> np.ndarray:
    """Pure ZZ phase evolution exp(-i angle/2 Z_i Z_j) on a spin pair."""
    rho = np.asarray(rho)
    n = _spin_count(rho, pair)
    i, jx = pair
    if i == jx:
        raise ValueError("coupling needs two distinct spins")
    zs = _z_signs(n)
    return _phase(rho, (angle / 2) * zs[i] * zs[jx])


def gradient_crush(rho: np.ndarray, spins) -> np.ndarray:
    """Zero every element off-diagonal in the listed spins' computational basis.

    A full crusher acts as a projective measurement without record; the
    operation is idempotent and trace-preserving.
    """
    rho = np.asarray(rho)
    spins = tuple(spins)
    if not spins:
        raise ValueError("gradient needs a nonempty spin subset")
    n = _spin_count(rho, spins)
    key = np.arange(2**n) & np.bitwise_or.reduce([1 << _bit(n, k) for k in spins])
    return rho * (key[:, None] == key)


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
    out = _SYMBOL_FACTORS[label[0]]
    for ch in label[1:]:
        out = kron(out, _SYMBOL_FACTORS[ch])
    return out


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
    rho = np.asarray(rho)
    n = _spin_count(rho)
    order = [axis for k in range(n) for axis in (k, n + k)]
    t = rho.reshape((2,) * (2 * n)).transpose(order).reshape((4,) * n)
    for k in range(n):
        t = apply_local(t, k, _PAULI_TRACE)
    coeffs = t.real.reshape(-1) / 2**n
    kept = np.flatnonzero(np.abs(coeffs) > tol)
    letters = np.array(list("IXYZ"))[np.stack(np.unravel_index(kept, (4,) * n), -1)]
    return list(zip(letters.view(f"<U{n}").ravel().tolist(), coeffs[kept].tolist()))


def run_sequence(s: SpinSystem, init: str, seq) -> np.ndarray:
    """Fold a pulse sequence over the initial deviation state.

    Rotations and couplings are ideal; free evolution happens only at
    explicit Delay events.  Coupling gates require a nonzero J on the pair,
    since their duration 1/(2 J) would otherwise diverge.
    """
    rho = pseudopure_init(validate_label(init, s.n))
    energies = build_hamiltonian(s)
    for ev in seq:
        if isinstance(ev, Rotation):
            rho = apply_rotation(rho, ev.spins, ev.axis, ev.angle)
        elif isinstance(ev, JCoupling):
            i, jx = ev.pair
            if s.j[i, jx] == 0.0:
                raise ValueError(f"spins {i} and {jx} have no J coupling")
            rho = apply_jcoupling(rho, ev.pair, ev.angle)
        elif isinstance(ev, Delay):
            rho = evolve(rho, energies, ev.duration)
        elif isinstance(ev, Gradient):
            rho = gradient_crush(rho, ev.spins)
        else:
            raise ValueError(f"unknown pulse event {ev!r}")
    return rho


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
    at 0 with spacing ``duration / points``.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if points < 2:
        raise ValueError("need at least two points")
    rho0 = np.asarray(rho0)
    n = s.n
    if rho0.shape != (2**n, 2**n):
        raise ValueError("state size does not match the spin system")
    _spin_count(rho0, (detect,))
    energies = build_hamiltonian(s)
    # X_d + i Y_d = 2 |0><1| on the detected spin, so the detector sees
    # 2 rho0[r, r ^ mask] for each row r with that spin's bit set.
    mask = 1 << _bit(n, detect)
    rows = np.flatnonzero(np.arange(2**n) & mask)
    seen = 2 * rho0[rows, rows ^ mask]
    if not np.all(np.isfinite(seen)):
        raise ValueError("the detected coherences must be finite")
    keep = np.abs(seen) > 1e-300
    rows, seen = rows[keep], seen[keep]
    freq = energies[rows] - energies[rows ^ mask]
    times = np.arange(points) * (duration / points)
    return np.exp(-1j * np.outer(times, freq)) @ seen


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
    amplify the signal's tail, is rejected.
    """
    if not line_broadening >= 0:
        raise ValueError(f"line broadening must be non-negative, got {line_broadening}")
    signal = np.asarray(signal)
    n = signal.shape[0]
    times = np.arange(n) * dwell
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
