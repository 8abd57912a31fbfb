"""Independent reference constructions that the library itself does not need.

The outcome kernel ``circuits._outcome_amplitudes`` rolls and phases the
input instead of building a basis, ``nmr.run_sequence`` folds its diagonal
events into one phase pass and runs every pass in two buffers it owns,
``linalg.apply_local`` writes into a given output, and ``timeflow nmr``
writes its CSV exports a column at a time and its decomposition with the C
JSON encoder; these explicit forms are what the tests hold them to.

The public NMR kernels are one-event runs of the same fold as
``run_sequence``, so :func:`event_by_event` checks only the fold on reduced
columns and its merging of pending phases across events.  The x rotation's
frame turns are checked independently by ``dense_sequence`` and
``TestAgainstDenseForms.test_apply_rotation`` in ``test_nmr.py``, whose
kron-built gates use the x axes of ``SIGNED_AXES``.
"""

import csv
import json
import math

import numpy as np
import pytest

from timeflow.linalg import _is_real, _use_gemm, ry
from timeflow.nmr import (
    Delay,
    JCoupling,
    Rotation,
    _free_angles,
    _z_angles,
    _z_signs,
    _zz_angles,
    apply_jcoupling,
    apply_rotation,
    build_hamiltonian,
    evolve,
    gradient_crush,
    pseudopure_init,
    split_axis,
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
    order: each a one-event fold on the dense state, the reference for
    ``run_sequence``'s reduced columns and pending-phase merge."""
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


def allocating_apply_local(t, axis, op):
    """``linalg.apply_local`` as it was before it wrote into a given output:
    the same choice of gemm or stacked product, from the kernel's own
    predicate, and the same real view, each product a fresh array."""
    t, op = np.asarray(t), np.asarray(op)
    left = math.prod(t.shape[:axis])
    d, *rest = t.shape[axis:]
    right = math.prod(rest)
    src = t
    real_view = t.dtype.kind == "c" and t.flags.c_contiguous and _is_real(op)
    if real_view:
        op, src, right = op.real, t.view(t.real.dtype), 2 * right
    if _use_gemm(left, d, right, real_view):
        block = (op.T[:, None, :, None] * np.eye(right)[:, None]).reshape(d * right, -1)
        out = src.reshape(left, d * right) @ block
    else:
        out = op @ src.reshape(left, d, right)
    if src is not t:
        out = out.view(np.result_type(out, 1j))
    return out.reshape(t.shape)


def _fresh_phase(rho, angles):
    p = np.exp(-1j * angles)
    out = rho * p[:, None]
    out *= p.conj()
    return out


def allocating_fold(s, init, seq):
    """``run_sequence`` as it was before it owned two state buffers: the same
    pending phase and x frame, with every pass returning a fresh array.  The
    arithmetic is the same, so the results must agree bit for bit."""
    n = s.n
    rho = pseudopure_init(init)
    energies = build_hamiltonian(s)
    zs = _z_signs(n)
    pending = None
    for ev in seq:
        if isinstance(ev, Rotation):
            ax, sign = split_axis(ev.axis)
            if ax == "z":
                angles = _z_angles(zs, ev.spins, sign * ev.angle)
            else:
                frame = _z_angles(zs, set(ev.spins), np.pi / 2) if ax == "x" else None
                if frame is not None:
                    pending = frame if pending is None else pending + frame
                if pending is not None:
                    rho = _fresh_phase(rho, pending)
                gate = ry(sign * ev.angle)
                t = rho.reshape((2,) * (2 * n))
                for spin in ev.spins:
                    t = allocating_apply_local(t, spin, gate)
                    t = allocating_apply_local(t, n + spin, gate.conj())
                rho = t.reshape(rho.shape)
                pending = None if frame is None else -frame
                continue
        elif isinstance(ev, JCoupling):
            angles = _zz_angles(zs, ev.pair, ev.angle)
        elif isinstance(ev, Delay):
            angles = _free_angles(energies, ev.duration)
        else:
            rho = gradient_crush(rho, ev.spins)
            continue
        pending = angles if pending is None else pending + angles
    return rho if pending is None else _fresh_phase(rho, pending)


def write_fid_csv(path, signal, duration, points):
    """The FID export written row by row with ``csv.writer``, sample ``k``
    at time ``k * (duration / points)``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "real", "imaginary"])
        dt = duration / points
        for k, z in enumerate(signal):
            writer.writerow([k * dt, z.real, z.imag])


def write_spectrum_csv(path, spec):
    """The spectrum export written row by row with ``csv.writer``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency_hz", "real", "imaginary"])
        for f, z in zip(spec.frequencies, spec.intensities):
            writer.writerow([f, z.real, z.imag])


def closed_form_fid(s, label, detect, duration, points):
    """tr(rho(t) (X_d + i Y_d)) of a product label with X or Y on spin d and
    I or Z elsewhere: 2**n exp(i 2 pi nu_d t) (1 or i) times cos(pi J_dk t)
    for each I and i sin(pi J_dk t) for each Z, at 120 bits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(120):
        nu = mpmath.mpf(s.larmor[detect])
        out = []
        for k in range(points):
            t = mpmath.mpf(duration) * k / points
            value = 2 ** len(label) * mpmath.expj(2 * mpmath.pi * nu * t)
            value *= 1 if label[detect] == "X" else 1j
            for spin, ch in enumerate(label):
                if spin != detect:
                    angle = mpmath.pi * mpmath.mpf(float(s.j[detect, spin])) * t
                    value *= mpmath.cos(angle) if ch == "I" else 1j * mpmath.sin(angle)
            out.append(complex(value))
    return np.array(out)


def indented_json(report):
    """A JSON report as the pure-Python ``indent=2`` encoder writes it, the
    bytes that ``cli._emit`` must reproduce."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
