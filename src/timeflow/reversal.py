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

The state and gate functions below take leading batch axes: ``(..., d**2)``
pairs, ``(..., d)`` states and ``(..., d, d)`` gates, acting on each member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ATOL,
    INPUT_TOL,
    SX,
    SY,
    SZ,
    conjugate,
    dagger,
    is_unitary,
    projector,
    transpose,
)


def conjugation_sign(matrix: np.ndarray) -> int:
    """Sign s with ``matrix @ conj(matrix) = s * 1``; must be +1 or -1.

    Raises ValueError when the product is not a real sign times the identity,
    which means the matrix cannot be the unitary factor of an anti-unitary
    reversal.
    """
    matrix = np.asarray(matrix)
    prod = matrix @ conjugate(matrix)
    d = prod.shape[0]
    for sign in (1, -1):
        if np.max(np.abs(prod - sign * np.eye(d))) <= ATOL:
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


def local_dimension(phi: np.ndarray) -> int:
    """Local carrier dimension d of a bipartite state vector of length d**2."""
    phi = np.asarray(phi)
    if phi.ndim < 1:
        raise ValueError("expected an amplitude vector")
    d = math.isqrt(phi.shape[-1])
    if d * d != phi.shape[-1]:
        raise ValueError(f"length {phi.shape[-1]} is not a perfect square")
    return d


def amplitude_matrix(phi: np.ndarray) -> np.ndarray:
    """The d x d matrix Q with ``Q[i, j] = <j i|phi>``.

    Pure rearrangement of the d**2 amplitudes; no arithmetic beyond indexing.
    """
    phi = np.asarray(phi)
    d = local_dimension(phi)
    return transpose(phi.reshape(*phi.shape[:-1], d, d)).copy()


def state_of_matrix(q: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`amplitude_matrix`."""
    q = np.asarray(q)
    if q.ndim < 2 or q.shape[-1] != q.shape[-2]:
        raise ValueError("expected a square matrix")
    return transpose(q).reshape(*q.shape[:-2], -1)


def transfer_matrix(phi: np.ndarray) -> np.ndarray:
    """``sqrt(d)`` times the amplitude matrix; unitary iff maximally entangled."""
    d = local_dimension(phi)
    return np.sqrt(d) * amplitude_matrix(phi)


def is_maximally_entangled(phi: np.ndarray, tol: float = ATOL) -> bool:
    """True iff :func:`transfer_matrix` is unitary within ``tol``.

    Since ``T @ dagger(T) = d * tr_1 |phi><phi|``, the residual is also
    ``max|d * reduced - 1|`` for the reduced state of the second carrier.
    """
    return is_unitary(transfer_matrix(phi), tol)


def time_reverse_state(psi: np.ndarray, e: Encoding) -> np.ndarray:
    """Reverse a state's clock: conjugate, then apply the reversal unitary."""
    psi = np.asarray(psi)
    if psi.shape[-1] != e.d:
        raise ValueError(f"state dimension {psi.shape[-1]} != encoding dimension {e.d}")
    return conjugate(psi) @ transpose(e.matrix)


def _time_reverse_gate(u: np.ndarray, e: Encoding) -> np.ndarray:
    """:func:`time_reverse_gate` without its checks, for gates a validated
    circuit already holds."""
    return e.matrix @ transpose(u) @ dagger(e.matrix)


def time_reverse_gate(u: np.ndarray, e: Encoding) -> np.ndarray:
    """Gate seen from the reversed clock: sandwich the transpose.

    A gate applied while the qubit's clock runs against the observer's is
    equivalent to applying this matrix on the reversed state.
    """
    u = np.asarray(u)
    if u.shape[-2:] != (e.d, e.d):
        raise ValueError(f"gate shape {u.shape} != encoding dimension {e.d}")
    if not is_unitary(u, INPUT_TOL):
        raise ValueError("gate must be unitary")
    return _time_reverse_gate(u, e)


def canonical_pair(e: Encoding) -> np.ndarray:
    """The maximally entangled state whose transfer matrix is the encoding's
    reversal unitary."""
    return state_of_matrix(e.matrix / np.sqrt(e.d))


def _local_frame_gate(psi: np.ndarray, e: Encoding) -> np.ndarray:
    """:func:`local_frame_gate` without its checks, for pairs a validated
    circuit already holds."""
    return transpose(transfer_matrix(psi)) @ conjugate(e.matrix)


def local_frame_gate(psi: np.ndarray, e: Encoding) -> np.ndarray:
    """The local unitary relating a maximally entangled state to the
    encoding's canonical pair.

    Returns the unitary ``chi`` with ``(chi (x) 1) |canonical_pair(e)> = |psi>``.
    Raises ValueError for a pair that is not maximally entangled within
    ``INPUT_TOL``, for which no such unitary exists.
    """
    psi = np.asarray(psi)
    if psi.shape[-1:] != (e.d * e.d,):
        raise ValueError("state does not match the encoding's carrier dimension")
    if not is_maximally_entangled(psi, INPUT_TOL):
        raise ValueError("state is not maximally entangled")
    return _local_frame_gate(psi, e)


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
    if psi.shape[-1] != d:
        raise ValueError(f"input dimension {psi.shape[-1]} != carrier dimension {d}")
    # rho[b, e] = sum_{a, c} psi_a conj(psi_c) <cb|phi><phi|ae>, in O(d**4)
    pairs = projector(phi).reshape(*phi.shape[:-1], d, d, d, d)
    rho = np.einsum("...ac,...cbae->...be", projector(psi), pairs)
    psi_bar = (amplitude_matrix(phi) @ conjugate(psi)[..., None])[..., 0]
    return rho, psi_bar


def spin_expectations(psi: np.ndarray) -> np.ndarray:
    """Expectation values of the three spin-1/2 components (hbar = 1)."""
    psi = np.asarray(psi)
    spins = np.stack((SX, SY, SZ)) / 2
    return np.einsum("...i,kij,...j->...k", psi.conj(), spins, psi).real
