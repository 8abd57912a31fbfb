"""Independent reference constructions that the library itself does not need.

The outcome kernel ``circuits._outcome_amplitudes`` rolls and phases the
input instead of building a basis, and ``nmr.run_sequence`` folds its
diagonal events into one phase pass; these explicit forms are what the tests
hold them to.
"""

import numpy as np

from timeflow.nmr import (
    Delay,
    JCoupling,
    Rotation,
    apply_jcoupling,
    apply_rotation,
    build_hamiltonian,
    evolve,
    gradient_crush,
    pseudopure_init,
)
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


def event_by_event(s, init, seq):
    """The state after ``seq`` with one public kernel call per event, in
    order: the reference for ``run_sequence``'s pending phase and x frame."""
    rho = pseudopure_init(init)
    energies = build_hamiltonian(s)
    for ev in seq:
        if isinstance(ev, Rotation):
            rho = apply_rotation(rho, ev.spins, ev.axis, ev.angle)
        elif isinstance(ev, JCoupling):
            rho = apply_jcoupling(rho, ev.pair, ev.angle)
        elif isinstance(ev, Delay):
            rho = evolve(rho, energies, ev.duration)
        else:
            rho = gradient_crush(rho, ev.spins)
    return rho
