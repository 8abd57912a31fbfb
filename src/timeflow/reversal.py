"""Bipartite state <-> matrix correspondence and time reversal of states and gates.

A pure state ``|phi>`` of two d-dimensional carriers corresponds to the d x d
matrix ``Q`` with entries ``Q[i, j] = <j i|phi>``; this is a pure index
rearrangement (column stacking).  Its scaled version ``sqrt(d) * Q`` is
unitary exactly when ``|phi>`` is maximally entangled, which is what lets a
measurement in a maximally entangled basis be read as reversing the arrow of
time of the traversing qubit.

Reversing the clock of a state is an anti-unitary operation: conjugate the
amplitudes in the computational basis, then apply a fixed unitary that
depends on how the physical carrier's observables behave under time
inversion.  That unitary, together with its conjugation sign, is what an
:class:`Encoding` packages.  For a spin-1/2 carrier the unitary is
``alpha * sigma_y`` (any unit phase ``alpha``) and the sign is -1; for a
photon-number carrier it is the identity with sign +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ATOL,
    SX,
    SY,
    SZ,
    conjugate,
    dagger,
    is_unitary,
    partial_trace,
    projector,
)


def conjugation_sign(matrix: np.ndarray, tol: float = ATOL) -> int:
    """Sign s with ``matrix @ conj(matrix) = s * 1``; must be +1 or -1.

    Raises ValueError when the product is not a real sign times the identity,
    which means the matrix cannot be the unitary factor of an anti-unitary
    reversal.
    """
    matrix = np.asarray(matrix)
    prod = matrix @ conjugate(matrix)
    d = prod.shape[0]
    for sign in (1, -1):
        if np.max(np.abs(prod - sign * np.eye(d))) <= tol:
            return sign
    raise ValueError("matrix @ conj(matrix) is not +1 or -1 times the identity")


@dataclass(frozen=True)
class Encoding:
    """A physical-carrier choice: the reversal unitary and its sign."""

    name: str
    matrix: np.ndarray
    sign: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("reversal matrix must be square")
        if not is_unitary(m, ATOL):
            raise ValueError("reversal matrix must be unitary")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sign", conjugation_sign(m))

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def spin_half(alpha: complex = 1.0) -> Encoding:
    """Spin-1/2 encoding: reversal unitary ``alpha * sigma_y``, |alpha| = 1."""
    if abs(abs(alpha) - 1.0) > ATOL:
        raise ValueError("alpha must be a unit phase")
    return Encoding("spin-1/2", alpha * SY)


def photon_number(d: int = 2) -> Encoding:
    """Photon-number encoding: the number operator is invariant, so the
    reversal unitary is the identity."""
    return Encoding("photon-number", np.eye(d, dtype=complex))


ENCODINGS = {"spin": spin_half, "photon": photon_number}


def local_dimension(phi: np.ndarray) -> int:
    """Local carrier dimension d of a bipartite state vector of length d**2."""
    phi = np.asarray(phi)
    if phi.ndim != 1:
        raise ValueError("expected a 1-D amplitude vector")
    d = math.isqrt(phi.shape[0])
    if d * d != phi.shape[0]:
        raise ValueError(f"length {phi.shape[0]} is not a perfect square")
    return d


def amplitude_matrix(phi: np.ndarray) -> np.ndarray:
    """The d x d matrix Q with ``Q[i, j] = <j i|phi>``.

    Pure rearrangement of the d**2 amplitudes; no arithmetic beyond indexing.
    """
    phi = np.asarray(phi)
    d = local_dimension(phi)
    return phi.reshape(d, d).T.copy()


def state_of_matrix(q: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`amplitude_matrix`."""
    q = np.asarray(q)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("expected a square matrix")
    return q.T.reshape(-1).copy()


def transfer_matrix(phi: np.ndarray) -> np.ndarray:
    """``sqrt(d)`` times the amplitude matrix; unitary iff maximally entangled."""
    d = local_dimension(phi)
    return np.sqrt(d) * amplitude_matrix(phi)


def is_maximally_entangled(phi: np.ndarray, tol: float = ATOL) -> bool:
    """True iff the reduced state of either carrier is 1/d within ``tol``.

    The residual is measured as ``max|d * reduced - 1|``, which equals the
    unitarity residual of :func:`transfer_matrix`, so this predicate and
    ``is_unitary(transfer_matrix(phi), tol)`` agree on every input.
    """
    phi = np.asarray(phi)
    d = local_dimension(phi)
    reduced = partial_trace(projector(phi), [d, d], keep=(1,))
    return bool(np.max(np.abs(d * reduced - np.eye(d))) <= tol)


def time_reverse_state(psi: np.ndarray, e: Encoding) -> np.ndarray:
    """Reverse a state's clock: conjugate, then apply the reversal unitary."""
    psi = np.asarray(psi)
    if psi.shape[0] != e.d:
        raise ValueError(f"state dimension {psi.shape[0]} != encoding dimension {e.d}")
    return e.matrix @ conjugate(psi)


def time_reverse_gate(u: np.ndarray, e: Encoding) -> np.ndarray:
    """Gate seen from the reversed clock: sandwich the transpose.

    A gate applied while the qubit's clock runs against the observer's is
    equivalent to applying this matrix on the reversed state.
    """
    u = np.asarray(u)
    if u.shape != (e.d, e.d):
        raise ValueError(f"gate shape {u.shape} != encoding dimension {e.d}")
    if not is_unitary(u, 1e-8):
        raise ValueError("gate must be unitary")
    return e.matrix @ u.T @ dagger(e.matrix)


def canonical_pair(e: Encoding) -> np.ndarray:
    """The maximally entangled state whose transfer matrix is the encoding's
    reversal unitary."""
    return state_of_matrix(e.matrix / np.sqrt(e.d))


def local_frame_gate(psi: np.ndarray, e: Encoding, tol: float = ATOL) -> np.ndarray:
    """The local unitary relating a maximally entangled state to the
    encoding's canonical pair.

    Returns the unitary ``chi`` with ``(chi (x) 1) |canonical_pair(e)> = |psi>``.
    Raises ValueError for non-maximally-entangled input, for which no such
    unitary exists.
    """
    psi = np.asarray(psi)
    if psi.shape[0] != e.d * e.d:
        raise ValueError("state does not match the encoding's carrier dimension")
    if not is_maximally_entangled(psi, tol):
        raise ValueError("state is not maximally entangled")
    return transfer_matrix(psi).T @ conjugate(e.matrix)


def backward_state(psi: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State sent along the second carrier when the pair is found in ``phi``.

    Returns ``(rho, psi_bar)``: the reduced-matrix form
    ``tr_1((|psi><psi| (x) 1) |phi><phi|)`` and the closed form
    ``Q_phi @ conj(psi)``.  The two satisfy ``rho = |psi_bar><psi_bar|``.
    ``psi_bar`` is intentionally left unnormalized: its squared norm is the
    Born probability of finding the pair in ``phi``.
    """
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    d = local_dimension(phi)
    if psi.shape[0] != d:
        raise ValueError(f"input dimension {psi.shape[0]} != carrier dimension {d}")
    op = np.kron(projector(psi), np.eye(d)) @ projector(phi)
    rho = partial_trace(op, [d, d], keep=(1,))
    psi_bar = amplitude_matrix(phi) @ conjugate(psi)
    return rho, psi_bar


def spin_expectations(psi: np.ndarray) -> np.ndarray:
    """Expectation values of the three spin-1/2 components (hbar = 1)."""
    psi = np.asarray(psi)
    return np.array([np.vdot(psi, (p / 2) @ psi).real for p in (SX, SY, SZ)])
