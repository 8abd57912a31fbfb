"""Independent reference constructions that the library itself does not need.

The outcome kernel ``circuits._outcome_amplitudes`` rolls and phases the
input instead of building a basis; these explicit forms are what the tests
hold it to.
"""

import numpy as np

from timeflow.reversal import local_dimension


def weyl_shift(d: int) -> np.ndarray:
    """Cyclic shift: |k> -> |k+1 mod d>."""
    s = np.zeros((d, d), dtype=complex)
    for k in range(d):
        s[(k + 1) % d, k] = 1.0
    return s


def weyl_clock(d: int) -> np.ndarray:
    """Diagonal phase ramp: |k> -> exp(2 pi i k / d) |k>."""
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def entangled_basis(omega: np.ndarray) -> list[np.ndarray]:
    """Maximally entangled orthonormal basis containing ``omega`` at index 0.

    The basis is completed by applying shift/clock words to omega's first
    carrier: element ``m*d + n`` is ``(shift**m clock**n (x) 1)|omega>``.
    """
    omega = np.asarray(omega)
    d = local_dimension(omega)
    shift, clock = weyl_shift(d), weyl_clock(d)
    basis = []
    sm = np.eye(d, dtype=complex)
    for _m in range(d):
        w = sm.copy()
        for _n in range(d):
            basis.append((w @ omega.reshape(d, d)).reshape(-1))
            w = w @ clock
        sm = shift @ sm
    return basis
