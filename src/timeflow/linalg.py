"""Dense complex linear algebra over small Hilbert spaces.

Everything is a plain numpy array of complex128: operators are square 2-D
arrays, pure states are 1-D amplitude vectors, density matrices are 2-D
Hermitian arrays.  Functions marked "stacked" also take leading batch axes,
``(..., d, d)`` or ``(..., d)``, and act on each member.  Composite systems
are ordered left to right with carrier 1 most significant, so ``kron(a, b)``
acts on ``|c1 c2>`` with ``c1`` indexing ``a`` and the basis index of
``|c1 c2 ... cn>`` is ``sum(c_i * d**(n-i))``.

Systems stay small (dimension <= 2**10), so storage is dense throughout.
"""

from __future__ import annotations

import math

import numpy as np

ATOL = 1e-10  # internal identities: encodings, orthonormality, the API default
INPUT_TOL = 1e-8  # caller-supplied gates, pairs and states; the nmr report cutoff
DEFAULT_TOL = 1e-9  # the verify suites' pass threshold and the CLI --tol default

# Largest trailing block d * right that apply_local contracts as one gemm; per
# axis at d = 2, 3, 4 and 8, inner sizes up to 32 beat the stacked product and
# 64 or more lose to it.
_GEMM_INNER = 32

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
    """Conjugate transpose of the last two axes (stacked)."""
    return transpose(np.conj(a))


def transpose(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes in the computational basis (stacked)."""
    return np.asarray(a).swapaxes(-1, -2)


def conjugate(a: np.ndarray) -> np.ndarray:
    """Elementwise complex conjugate in the computational basis."""
    return np.conj(a)


def apply_local(t: np.ndarray, axis: int, op: np.ndarray) -> np.ndarray:
    """``out[..., i, ...] = sum_j op[i, j] t[..., j, ...]`` along ``axis``.

    On a tensor with one axis per carrier this is ``1 (x) op (x) 1``; on the
    column axis of a density matrix, ``conj(op)`` gives ``rho @ dagger(op)``.

    With ``left`` and ``right`` the sizes before and after ``axis``, a small
    trailing block ``d * right`` is one gemm, ``t (left, d*right) @ kron(op^T,
    1_right)``; a large one is ``left`` stacked products ``op @ t (d, right)``.
    """
    t = np.asarray(t)
    left = math.prod(t.shape[:axis])
    d, *rest = t.shape[axis:]
    right = math.prod(rest)
    if d * right <= _GEMM_INNER:
        out = t.reshape(left, d * right) @ np.kron(op.T, np.eye(right))
    else:
        out = op @ t.reshape(left, d, right)
    return out.reshape(t.shape)


def projector(v: np.ndarray) -> np.ndarray:
    """Outer product |v><v| (stacked)."""
    v = np.asarray(v)
    return v[..., :, None] * v[..., None, :].conj()


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
    total trace is preserved.  Stacked.
    """
    rho = np.asarray(rho)
    dims = [int(d) for d in dims]
    n = len(dims)
    total = int(np.prod(dims))
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("partial_trace expects a square matrix")
    if rho.shape[-1] != total:
        raise ValueError(f"dims {dims} do not match matrix side {rho.shape[-1]}")
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
    sub = "..." + "".join(row) + "".join(col) + "->..." + out
    lead = rho.shape[:-2]
    reduced = np.einsum(sub, rho.reshape(*lead, *dims, *dims))
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(*lead, dk, dk)


def unitary_residuals(a: np.ndarray) -> np.ndarray:
    """``max|a a^dag - 1|`` of each matrix in a ``(..., d, d)`` stack."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("unitarity is defined for square matrices only")
    return np.abs(a @ dagger(a) - np.eye(a.shape[-1])).max(axis=(-2, -1))


def is_unitary(a: np.ndarray, tol: float = ATOL) -> bool:
    """True iff ``max|a a^dag - 1| <= tol``; a stack passes iff every member does."""
    return bool(unitary_residuals(a).max() <= tol)


def equal_up_to_global_phase(x: np.ndarray, y: np.ndarray, tol: float = ATOL) -> bool:
    """True iff the flattened arrays have ``phase_distance(x, y) <= tol``."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return bool(phase_distance(x.ravel(), y.ravel()) <= tol)


def phase_distance(x: np.ndarray, y: np.ndarray):
    """``1 - |<x|y>| / (||x|| ||y||)``; zero iff equal up to a global phase.

    Stacked over vectors along the last axis: one float per member."""
    x, y = np.asarray(x), np.asarray(y)
    nx, ny = np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)
    if np.any(nx == 0.0) or np.any(ny == 0.0):
        raise ValueError("phase distance is undefined for a zero vector")
    overlap = np.abs(np.sum(x.conj() * y, axis=-1))
    return 1.0 - overlap / (nx * ny)


def gaussian_state(normals: np.ndarray) -> np.ndarray:
    """Normalized states from ``(..., 2, dim)`` standard normals (real part
    first), a Haar-distributed direction per member."""
    v = normals[..., 0, :] + 1j * normals[..., 1, :]
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def haar_unitary(normals: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from the QR decomposition of the Ginibre
    matrices whose real and imaginary parts are ``(..., 2, d, d)`` normals."""
    q, r = np.linalg.qr(normals[..., 0, :, :] + 1j * normals[..., 1, :, :])
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (ph / np.abs(ph))[..., None, :]


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized state with Gaussian amplitudes (Haar-distributed direction)."""
    return gaussian_state(rng.standard_normal((2, dim)))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    return haar_unitary(rng.standard_normal((2, dim, dim)))
