"""Randomized verification suites for the library's structural claims.

Every suite takes ``(seed, trials, dims, tol, reverse_gate)``, ignores what
it does not use, and reports per claim a row with the worst deviation it
saw, which passes iff it is within tolerance.  :data:`SUITES` is the table
of report rows, each with its suite; the three circuit rows come from one
pass (:func:`_circuit_rows`).  ``timeflow verify`` runs them; its
fault-injection mode replaces the gate-reversal rule with a wrong one
(conjugation skipped, leaving the adjoint instead of the transpose) to show
which suites catch such a regression.

Draws are keyed.  A suite's trials at dimension d come in pages of ``P``
trials, and page p draws its normals, trial after trial, from
``np.random.default_rng([seed, suite, d, p])``.  The suite key is the
:data:`SUITES` index of the suite's first row, and ``encoding_independence``
reads the d = 2 pages of the circuit rows (key 7).  So a trial's draws do
not depend on the other ``--dims`` entries or on the block size, and each
dimension is drawn and checked on its own: a row's deviation under several
dimensions is the worst of its runs at each one alone.

Trials run in blocks of at most ``BLOCK_ELEMENTS // cost`` trials of one
page, each drawn in one call and checked on stacked arrays, so memory does
not grow with the trial count.  The cost is the largest array a trial
stacks: d**4 elements for ``backward_consistency`` and
``entanglement_unitarity``, d**3 for the circuit suites and, for the others,
the normals one trial draws.

A maximally entangled pair is one Haar unitary ``V`` read as the state
``V / sqrt(d)`` (:func:`_pairs`), so a circuit draws five unitaries: u, v, w
and one for each of its two pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import TeleportCircuit, _evolution_chain, _outcome_amplitudes
from .linalg import (
    DEFAULT_TOL,
    INPUT_TOL,
    dagger,
    gaussian_state,
    haar_unitary,
    partial_trace,
    phase_distance,
    projector,
    unitary_residuals,
)
from .reversal import (
    Encoding,
    _time_reverse_gate,
    amplitude_matrix,
    backward_state,
    canonical_pair,
    conjugation_sign,
    local_frame_gate,
    photon_number,
    spin_half,
    spin_expectations,
    state_of_matrix,
    time_reverse_gate,
    time_reverse_state,
    transfer_matrix,
)

ALPHA_PHASES = tuple(np.exp(2j * np.pi * k / 8) for k in range(8))

P = 1024  # trials per page of draws

# A block holds as many trials as keep its largest stacked array near this
# many complex elements.  Chosen from a sweep of 10,000 trials at dims
# 2, 3, 4, 8 (one BLAS thread): blocks up to 2**16 cut the time, while from
# 2**17 on the time fell by under 10% and the peak RSS rose by 12% or more
# (CHANGES.md has the numbers).
BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    max_deviation: float
    tolerance: float
    passed: bool


def _result(name, trials, dev, tol) -> PropertyResult:
    return PropertyResult(name, trials, float(dev), float(tol), bool(dev <= tol))


def faulty_reverse_gate(u: np.ndarray, e: Encoding) -> np.ndarray:
    """Gate reversal with the conjugation skipped; for fault injection only."""
    return e.matrix @ dagger(u) @ dagger(e.matrix)


def _pairs(normals: np.ndarray) -> np.ndarray:
    """Maximally entangled pairs from ``(..., 2, d, d)`` normals: one Haar
    ``V`` read row-major over ``sqrt(d)``, which is ``(V (x) 1)`` on the
    uniform pair ``sum_k |kk> / sqrt(d)``.  Local unitaries ``a (x) b`` give
    ``a @ transpose(b)`` there, itself Haar for independent Haar ``a`` and
    ``b``, so one unitary draws the same law as two."""
    v = haar_unitary(normals)
    d = v.shape[-1]
    return v.reshape(*v.shape[:-2], d * d) / np.sqrt(d)


def _circuit(d: int, normals: np.ndarray) -> TeleportCircuit:
    """Circuits from ``(..., 5, 2, d, d)`` normals: u, v, w, then the one
    unitary of each of phi and omega."""
    u, v, w = np.moveaxis(haar_unitary(normals[..., :3, :, :, :]), -3, 0)
    phi, omega = np.moveaxis(_pairs(normals[..., 3:, :, :, :]), -2, 0)
    return TeleportCircuit(d=d, u=u, v=v, w=w, phi=phi, omega=omega)


def _encodings_for(d: int) -> list[Encoding]:
    if d == 2:
        return [photon_number(2), spin_half(1.0), spin_half(1j)]
    return [photon_number(d)]


def _blocks(seed, suite, d, trials, shapes, cost=None):
    """Per block, one ``(trials, *shape)`` array per shape of the normals
    that each trial at dimension ``d`` draws from its page's generator.  A
    block is one draw of at most ``max(1, BLOCK_ELEMENTS // cost)`` trials of
    one page; ``cost`` defaults to the normals one trial draws."""
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    per_block = max(1, BLOCK_ELEMENTS // (cost or int(ends[-1])))
    for first in range(0, trials, P):
        rng = np.random.default_rng([seed, suite, d, first // P])
        page = min(P, trials - first)
        for start in range(0, page, per_block):
            b = min(per_block, page - start)
            normals = rng.standard_normal((b, ends[-1]))
            yield [normals[:, lo:hi].reshape(b, *s) for lo, hi, s in zip(ends, ends[1:], shapes)]


def _circuit_draws(seed, trials, d):
    """Random circuits and input states ``(c, psi)`` per block, from the
    circuit pages (key 7)."""
    for gates, psi in _blocks(seed, 7, d, trials, ((5, 2, d, d), (2, d)), d**3):
        yield _circuit(d, gates), gaussian_state(psi)


def check_correspondence_roundtrip(seed, trials, dims, tol, reverse_gate):
    """state -> matrix -> state is the identity, elementwise, both ways."""
    dev = 0.0
    for d in dims:
        for state, matrix in _blocks(seed, 0, d, trials, ((2, d * d), (2, d, d))):
            phi = gaussian_state(state)
            q = matrix[:, 0] + 1j * matrix[:, 1]
            dev = max(dev, np.max(np.abs(state_of_matrix(amplitude_matrix(phi)) - phi)))
            dev = max(dev, np.max(np.abs(amplitude_matrix(state_of_matrix(q)) - q)))
    return [_result("correspondence_roundtrip", trials, dev, tol)]


def check_backward_consistency(seed, trials, dims, tol, reverse_gate):
    """Reduced-matrix form of the backward state equals the closed form's
    outer product.

    A trial draws the input state, a maximally entangled pair, a random pair
    and one coin normal; below zero the maximally entangled pair is used.
    """
    dev = 0.0
    for d in dims:
        shapes = ((2, d), (2, d, d), (2, d * d), ())
        for psi, pair, state, coin in _blocks(seed, 1, d, trials, shapes, d**4):
            phi = np.where((coin < 0)[:, None], _pairs(pair), gaussian_state(state))
            rho, psi_bar = backward_state(gaussian_state(psi), phi)
            dev = max(dev, np.max(np.abs(rho - projector(psi_bar))))
    return [_result("backward_consistency", trials, dev, tol)]


def check_entanglement_unitarity(seed, trials, dims, tol, reverse_gate):
    """Biconditional: the transfer matrix is unitary exactly when the reduced
    state of either carrier is 1/d.  Deviation counts misclassifications, so
    the suite is exact and reports tolerance 0."""
    bad = 0
    for d in dims:
        for pair, state in _blocks(seed, 2, d, trials, ((2, d, d), (2, d * d)), d**4):
            for phi, expect in ((_pairs(pair), True), (gaussian_state(state), None)):
                reduced = partial_trace(projector(phi), [d, d], keep=(1,))
                ent = np.max(np.abs(d * reduced - np.eye(d)), axis=(-2, -1)) <= INPUT_TOL
                uni = unitary_residuals(transfer_matrix(phi)) <= INPUT_TOL
                wrong = ent != uni
                if expect is not None:
                    wrong |= ent != expect
                bad += int(wrong.sum())
    return [_result("entanglement_unitarity", 2 * trials * len(dims), bad, 0.0)]


def check_local_frame_relation(seed, trials, dims, tol, reverse_gate):
    """(chi (x) 1) applied to the canonical pair reproduces the state, for
    every encoding."""
    dev = 0.0
    encodings = _encodings_for(2)
    for (normals,) in _blocks(seed, 3, 2, trials, ((len(encodings), 2, 2, 2),)):
        for psi, e in zip(np.moveaxis(_pairs(normals), 1, 0), encodings):
            chi = local_frame_gate(psi, e)
            rebuilt = (chi @ canonical_pair(e).reshape(2, 2)).reshape(psi.shape)
            dev = max(dev, np.max(np.abs(rebuilt - psi)))
    return [_result("local_frame_relation", trials, dev, tol)]


def check_conjugation_sign(seed, trials, dims, tol, reverse_gate):
    """The reversal unitary's conjugation sign squares to one, exactly."""
    photons = (photon_number(2), photon_number(3))
    encodings = [e for alpha in ALPHA_PHASES for e in (spin_half(alpha), *photons)]
    signs = [(conjugation_sign(e.matrix), e.sign) for e in encodings]
    dev = max(max(abs(g * g - 1), abs(g - sign)) for g, sign in signs)
    return [_result("conjugation_sign", len(encodings), dev, 0.0)]


def check_spin_flip(seed, trials, dims, tol, reverse_gate):
    """All three spin-component expectations negate under time reversal."""
    dev = 0.0
    for (normals,) in _blocks(seed, 5, 2, trials, ((2, 2),)):
        psi = gaussian_state(normals)
        rev = time_reverse_state(psi, spin_half())
        dev = max(dev, np.max(np.abs(spin_expectations(rev) + spin_expectations(psi))))
    return [_result("spin_flip", trials, dev, tol)]


def check_double_reversal(seed, trials, dims, tol, reverse_gate):
    """Reversing a gate twice gives the gate back, for both signs."""
    dev = 0.0
    encodings = _encodings_for(2)
    for (normals,) in _blocks(seed, 6, 2, trials, ((len(encodings), 2, 2, 2),)):
        for u, e in zip(np.moveaxis(haar_unitary(normals), 1, 0), encodings):
            dev = max(dev, np.max(np.abs(time_reverse_gate(time_reverse_gate(u, e), e) - u)))
    return [_result("double_reversal", trials, dev, tol)]


def _circuit_rows(seed, trials, dims, tol, reverse_gate):
    """The three circuit rows from one draw: every encoding's return leg
    against the closed form, the first (photon-number) one against the
    oracle's designated outcome up to global phase, and it and every oracle
    outcome against probability 1/d**2."""
    chain = semantics = probability = 0.0
    for d in dims:
        encodings = _encodings_for(d)
        for c, psi in _circuit_draws(seed, trials, d):
            chains = [_evolution_chain(c, psi, e, reverse_gate) for e in encodings]
            chain = max([chain] + [np.max(np.abs(legs[3][1] - legs[4][1])) for legs in chains])
            ret = chains[0][3][1]
            outcomes = _outcome_amplitudes(c, psi)
            semantics = max(semantics, np.max(np.abs(phase_distance(ret, outcomes[..., 0, :]))))
            probs = np.linalg.norm(outcomes, axis=-1) ** 2
            probability = max(
                probability,
                np.max(np.abs(np.linalg.norm(ret, axis=-1) ** 2 - 1.0 / d**2)),
                np.max(np.abs(probs - 1.0 / d**2)),
                np.max(np.abs(np.sum(probs, axis=-1) - 1.0)),
            )
    names = ("chain_consistency", "semantics_equivalence", "probability_law")
    return [_result(n, trials, dev, tol) for n, dev in zip(names, (chain, semantics, probability))]


def check_encoding_independence(seed, trials, dims, tol, reverse_gate):
    """The chain output is the same vector for every carrier encoding,
    including every unit phase of the spin reversal matrix, on the d = 2
    circuits of the circuit rows."""
    dev = 0.0
    photon, spins = photon_number(2), [spin_half(alpha) for alpha in ALPHA_PHASES]
    for c, psi in _circuit_draws(seed, trials, 2):
        ref = _evolution_chain(c, psi, photon, reverse_gate)[3][1]
        for e in spins:
            out = _evolution_chain(c, psi, e, reverse_gate)[3][1]
            dev = max(dev, np.max(np.abs(out - ref)))
    return [_result("encoding_independence", trials, dev, tol)]


# The report rows in order, each with the suite that reports it; a suite
# reports all of its rows from one run.
SUITES = (
    ("correspondence_roundtrip", check_correspondence_roundtrip),
    ("backward_consistency", check_backward_consistency),
    ("entanglement_unitarity", check_entanglement_unitarity),
    ("local_frame_relation", check_local_frame_relation),
    ("conjugation_sign", check_conjugation_sign),
    ("spin_flip", check_spin_flip),
    ("double_reversal", check_double_reversal),
    ("chain_consistency", _circuit_rows),
    ("semantics_equivalence", _circuit_rows),
    ("probability_law", _circuit_rows),
    ("encoding_independence", check_encoding_independence),
)


def run_all(
    seed: int,
    trials: int = 100,
    tol: float = DEFAULT_TOL,
    dims=(2, 3),
    faulty: bool = False,
) -> list[PropertyResult]:
    """Run every suite at tolerance ``tol`` (the two exact suites report 0)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    reverse_gate = faulty_reverse_gate if faulty else _time_reverse_gate
    rows = {}
    for name, suite in SUITES:
        if name not in rows:
            rows.update((r.name, r) for r in suite(seed, trials, tuple(dims), tol, reverse_gate))
    return [rows[name] for name, _ in SUITES]
