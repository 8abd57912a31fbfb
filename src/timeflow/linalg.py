"""Dense complex linear algebra over small Hilbert spaces.

Everything is a plain numpy array of complex128: operators are square 2-D
arrays, pure states are 1-D amplitude vectors, density matrices are 2-D
Hermitian arrays.  Composite systems are ordered left to right with carrier 1
most significant, so ``kron(a, b)`` acts on ``|c1 c2>`` with ``c1`` indexing
``a`` and the basis index of ``|c1 c2 ... cn>`` is ``sum(c_i * d**(n-i))``.

Systems stay small (dimension <= 2**10), so storage is dense throughout.
"""

from __future__ import annotations

import math

import numpy as np

ATOL = 1e-10

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SGATE = np.array([[1, 0], [0, 1j]], dtype=complex)
PAULI = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}

_SQRT2 = np.sqrt(2.0)
_BELL_AMPLITUDES = {
    "PHI+": np.array([1, 0, 0, 1], dtype=complex) / _SQRT2,
    "PHI-": np.array([1, 0, 0, -1], dtype=complex) / _SQRT2,
    "PSI+": np.array([0, 1, 1, 0], dtype=complex) / _SQRT2,
    "PSI-": np.array([0, 1, -1, 0], dtype=complex) / _SQRT2,
}


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply, left factor most significant."""
    return np.kron(np.asarray(a), np.asarray(b))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def transpose(a: np.ndarray) -> np.ndarray:
    """Transpose in the computational basis."""
    return np.asarray(a).T


def conjugate(a: np.ndarray) -> np.ndarray:
    """Elementwise complex conjugate in the computational basis."""
    return np.conj(a)


def apply_local(t: np.ndarray, axis: int, op: np.ndarray) -> np.ndarray:
    """``out[..., i, ...] = sum_j op[i, j] t[..., j, ...]`` along ``axis``.

    On a tensor with one axis per carrier this is ``1 (x) op (x) 1``; on the
    column axis of a density matrix, ``conj(op)`` gives ``rho @ dagger(op)``.
    """
    t = np.asarray(t)
    left = math.prod(t.shape[:axis])
    return (op @ t.reshape(left, t.shape[axis], -1)).reshape(t.shape)


def projector(v: np.ndarray) -> np.ndarray:
    """Outer product |v><v|."""
    v = np.asarray(v)
    return np.outer(v, v.conj())


def basis_state(dim: int, k: int) -> np.ndarray:
    """Computational basis ket |k> of the given dimension."""
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def bell_state(name: str) -> np.ndarray:
    """Two-qubit Bell state by name: PHI+, PHI-, PSI+ or PSI-."""
    try:
        return _BELL_AMPLITUDES[name.upper()].copy()
    except KeyError:
        raise ValueError(f"unknown Bell state {name!r}") from None


def rx(theta: float) -> np.ndarray:
    """Single-qubit rotation exp(-i theta X / 2)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta: float) -> np.ndarray:
    """Single-qubit rotation exp(-i theta Y / 2)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Single-qubit rotation exp(-i theta Z / 2)."""
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])


def partial_trace(rho: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Reduced matrix of ``rho`` over the subsystems listed in ``keep``.

    ``dims`` lists the subsystem dimensions in carrier order (carrier 1
    first); their product must equal the side of ``rho``.  ``keep`` holds
    0-based subsystem indices; the remaining subsystems are traced out.  The
    total trace is preserved.
    """
    rho = np.asarray(rho)
    dims = [int(d) for d in dims]
    n = len(dims)
    total = int(np.prod(dims))
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("partial_trace expects a square matrix")
    if rho.shape[0] != total:
        raise ValueError(f"dims {dims} do not match matrix side {rho.shape[0]}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")

    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n > len(letters):
        raise ValueError("too many subsystems")
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for i in range(n):
        if i not in keep:
            col[i] = row[i]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    sub = "".join(row) + "".join(col) + "->" + out
    reduced = np.einsum(sub, rho.reshape(dims + dims))
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(dk, dk)


def unitary_deviation(a: np.ndarray) -> float:
    """Max-norm residual ``max|a a^dag - 1|`` of a square matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("unitarity is defined for square matrices only")
    return float(np.max(np.abs(a @ dagger(a) - np.eye(a.shape[0]))))


def is_unitary(a: np.ndarray, tol: float = ATOL) -> bool:
    """True iff ``max|a a^dag - 1| <= tol``."""
    return unitary_deviation(a) <= tol


def is_hermitian(a: np.ndarray, tol: float = ATOL) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - dagger(a))) <= tol)


def equal_up_to_global_phase(x: np.ndarray, y: np.ndarray, tol: float = ATOL) -> bool:
    """True iff ``|<x|y>| >= (1 - tol) * ||x|| * ||y||``."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("global-phase comparison is undefined for a zero vector")
    return bool(np.abs(np.vdot(x, y)) >= (1.0 - tol) * nx * ny)


def phase_distance(x: np.ndarray, y: np.ndarray) -> float:
    """``1 - |<x|y>| / (||x|| ||y||)``; zero iff equal up to a global phase."""
    x, y = np.asarray(x), np.asarray(y)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("phase distance is undefined for a zero vector")
    return float(1.0 - np.abs(np.vdot(x, y)) / (nx * ny))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized state with Gaussian amplitudes (Haar-distributed direction)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph
