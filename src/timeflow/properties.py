"""Randomized verification suites for the library's structural claims.

Every suite takes ``(rng, trials, dims, tol, reverse_gate)``, ignores what
it does not use, draws its trials from ``rng``, reports the worst deviation
it saw, and passes iff that deviation is within tolerance.  The
suites are what ``timeflow verify`` runs; the fault-injection mode replaces
the gate-reversal rule with a deliberately wrong one (conjugation skipped,
leaving the adjoint instead of the transpose) to demonstrate that the
chain-consistency and semantics-equivalence suites would catch such a
regression.

Trials run in blocks: each block draws all of its normals in one call, cut
in the order a trial-by-trial loop over ``linalg.random_unitary`` and
``linalg.random_state`` would draw them, and every check runs on the stacked
arrays.  A block holds ``BLOCK_ELEMENTS // max(dims)**k`` trials, with k = 3
for the circuit and d**4 suites and k = 2 for the others.  The two suites
that build d**4 elements per trial (``backward_consistency`` and
``entanglement_unitarity``) work through a block in slices of
``BLOCK_ELEMENTS // d**4`` trials per dimension, so a small dimension takes
one pass.  Memory does not grow with the trial count.

A maximally entangled pair is one Haar unitary ``V`` read as the state
``V / sqrt(d)`` (:func:`_pairs`), so a circuit draws five unitaries: u, v, w
and one for each of its two pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    TeleportCircuit,
    _evolution_chain,
    _outcome_amplitudes,
)
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


def _blocks(rng, trials, layouts, cost):
    """Stacked normals for blocks of trials, in trial-by-trial draw order.

    ``layouts`` holds, per stream part (one per dimension), the shapes that a
    trial draws there in turn.  Each block is one ``standard_normal`` call of
    ``max(1, BLOCK_ELEMENTS // cost)`` trials; it yields, per part, one
    ``(trials, *shape)`` array per shape.
    """
    ends = np.cumsum([math.prod(shape) for layout in layouts for shape in layout])
    per_block = max(1, BLOCK_ELEMENTS // cost)
    for start in range(0, trials, per_block):
        b = min(per_block, trials - start)
        pieces = iter(np.split(rng.standard_normal((b, ends[-1])), ends[:-1], axis=1))
        yield [[next(pieces).reshape(b, *shape) for shape in layout] for layout in layouts]


def _slices(n, d, power):
    """Slices of a block's ``n`` trials that keep a stacked array of
    ``d**power`` elements per trial near ``BLOCK_ELEMENTS`` elements."""
    step = max(1, BLOCK_ELEMENTS // d**power)
    return (slice(start, start + step) for start in range(0, n, step))


def _circuit_draws(rng, trials, dims):
    """Stacked random circuits and input states per block and dimension:
    ``(d, c, psi)``."""
    layouts = [((5, 2, d, d), (2, d)) for d in dims]
    for block in _blocks(rng, trials, layouts, max(dims) ** 3):
        for d, (gates, psi) in zip(dims, block):
            yield d, _circuit(d, gates), gaussian_state(psi)


def check_correspondence_roundtrip(rng, trials, dims, tol, reverse_gate):
    """state -> matrix -> state is the identity, elementwise, both ways."""
    dev = 0.0
    layouts = [((2, d * d), (2, d, d)) for d in dims]
    for block in _blocks(rng, trials, layouts, max(dims) ** 2):
        for state, matrix in block:
            phi = gaussian_state(state)
            q = matrix[:, 0] + 1j * matrix[:, 1]
            dev = max(dev, np.max(np.abs(state_of_matrix(amplitude_matrix(phi)) - phi)))
            dev = max(dev, np.max(np.abs(amplitude_matrix(state_of_matrix(q)) - q)))
    return _result("correspondence_roundtrip", trials, dev, tol)


def check_backward_consistency(rng, trials, dims, tol, reverse_gate):
    """Reduced-matrix form of the backward state equals the closed form's
    outer product.

    Per block: one normal draw holding, per trial and dimension, the input
    state, a maximally entangled pair and a random pair; then, per dimension,
    one uniform per trial that keeps the maximally entangled pair below 0.5.
    """
    dev = 0.0
    layouts = [((2, d), (2, d, d), (2, d * d)) for d in dims]
    for block in _blocks(rng, trials, layouts, max(dims) ** 3):
        for d, (psi, pair, state) in zip(dims, block):
            keep_pair = rng.random(len(psi)) < 0.5
            phi = np.where(keep_pair[:, None], _pairs(pair), gaussian_state(state))
            psi = gaussian_state(psi)
            for s in _slices(len(psi), d, 4):
                rho, psi_bar = backward_state(psi[s], phi[s])
                dev = max(dev, np.max(np.abs(rho - projector(psi_bar))))
    return _result("backward_consistency", trials, dev, tol)


def check_entanglement_unitarity(rng, trials, dims, tol, reverse_gate):
    """Biconditional: the transfer matrix is unitary exactly when the reduced
    state of either carrier is 1/d.  Deviation counts misclassifications, so
    the suite is exact and reports tolerance 0."""
    bad = 0
    layouts = [((2, d, d), (2, d * d)) for d in dims]
    for block in _blocks(rng, trials, layouts, max(dims) ** 3):
        for d, (pair, state) in zip(dims, block):
            for phi, expect in ((_pairs(pair), True), (gaussian_state(state), None)):
                reduced = np.concatenate([
                    partial_trace(projector(phi[s]), [d, d], keep=(1,))
                    for s in _slices(len(phi), d, 4)
                ])
                ent = np.max(np.abs(d * reduced - np.eye(d)), axis=(-2, -1)) <= INPUT_TOL
                uni = unitary_residuals(transfer_matrix(phi)) <= INPUT_TOL
                wrong = ent != uni
                if expect is not None:
                    wrong |= ent != expect
                bad += int(wrong.sum())
    return _result("entanglement_unitarity", 2 * trials * len(dims), bad, 0.0)


def check_local_frame_relation(rng, trials, dims, tol, reverse_gate):
    """(chi (x) 1) applied to the canonical pair reproduces the state, for
    every encoding."""
    dev = 0.0
    encodings = _encodings_for(2)
    for ((normals,),) in _blocks(rng, trials, [((len(encodings), 2, 2, 2),)], 2**2):
        pairs = _pairs(normals)
        for k, e in enumerate(encodings):
            psi = pairs[:, k]
            chi = local_frame_gate(psi, e)
            rebuilt = (chi @ canonical_pair(e).reshape(2, 2)).reshape(psi.shape)
            dev = max(dev, np.max(np.abs(rebuilt - psi)))
    return _result("local_frame_relation", trials, dev, tol)


def check_conjugation_sign(rng, trials, dims, tol, reverse_gate):
    """The reversal unitary's conjugation sign squares to one, exactly."""
    dev = 0.0
    count = 0
    for alpha in ALPHA_PHASES:
        for e in (spin_half(alpha), photon_number(2), photon_number(3)):
            count += 1
            g = conjugation_sign(e.matrix)
            dev = max(dev, abs(g * g - 1))
            dev = max(dev, abs(g - e.sign))
    return _result("conjugation_sign", count, dev, 0.0)


def check_spin_flip(rng, trials, dims, tol, reverse_gate):
    """All three spin-component expectations negate under time reversal."""
    dev = 0.0
    for ((normals,),) in _blocks(rng, trials, [((2, 2),)], 2**2):
        psi = gaussian_state(normals)
        rev = time_reverse_state(psi, spin_half())
        dev = max(dev, np.max(np.abs(spin_expectations(rev) + spin_expectations(psi))))
    return _result("spin_flip", trials, dev, tol)


def check_double_reversal(rng, trials, dims, tol, reverse_gate):
    """Reversing a gate twice gives the gate back, for both signs."""
    dev = 0.0
    encodings = _encodings_for(2)
    for ((normals,),) in _blocks(rng, trials, [((len(encodings), 2, 2, 2),)], 2**2):
        gates = haar_unitary(normals)
        for k, e in enumerate(encodings):
            u = gates[:, k]
            dev = max(
                dev,
                np.max(np.abs(time_reverse_gate(time_reverse_gate(u, e), e) - u)),
            )
    return _result("double_reversal", trials, dev, tol)


def check_chain_consistency(rng, trials, dims, tol, reverse_gate):
    """The return leg of the evolution chain equals the closed form."""
    dev = 0.0
    for d, c, psi in _circuit_draws(rng, trials, dims):
        for e in _encodings_for(d):
            chain = _evolution_chain(c, psi, e, reverse_gate)
            dev = max(dev, np.max(np.abs(chain[3][1] - chain[4][1])))
    return _result("chain_consistency", trials, dev, tol)


def check_semantics_equivalence(rng, trials, dims, tol, reverse_gate):
    """Chain evaluation matches the tensor-product oracle up to global phase."""
    dev = 0.0
    for d, c, psi in _circuit_draws(rng, trials, dims):
        chain = _evolution_chain(c, psi, _encodings_for(d)[0], reverse_gate)
        oracle = _outcome_amplitudes(c, psi)[..., 0, :]
        dev = max(dev, np.max(np.abs(phase_distance(chain[3][1], oracle))))
    return _result("semantics_equivalence", trials, dev, tol)


def check_probability_law(rng, trials, dims, tol, reverse_gate):
    """Every outcome probability is 1/d**2 in both semantics."""
    dev = 0.0
    for d, c, psi in _circuit_draws(rng, trials, dims):
        chain = _evolution_chain(c, psi, _encodings_for(d)[0], reverse_gate)
        chain_prob = np.linalg.norm(chain[3][1], axis=-1) ** 2
        probs = np.linalg.norm(_outcome_amplitudes(c, psi), axis=-1) ** 2
        dev = max(dev, np.max(np.abs(chain_prob - 1.0 / d**2)))
        dev = max(dev, np.max(np.abs(probs - 1.0 / d**2)))
        dev = max(dev, np.max(np.abs(np.sum(probs, axis=-1) - 1.0)))
    return _result("probability_law", trials, dev, tol)


def check_encoding_independence(rng, trials, dims, tol, reverse_gate):
    """The chain output is the same vector for every carrier encoding,
    including every unit phase of the spin reversal matrix."""
    dev = 0.0
    for _, c, psi in _circuit_draws(rng, trials, (2,)):
        ref = _evolution_chain(c, psi, photon_number(2), reverse_gate)[3][1]
        for alpha in ALPHA_PHASES:
            out = _evolution_chain(c, psi, spin_half(alpha), reverse_gate)[3][1]
            dev = max(dev, np.max(np.abs(out - ref)))
    return _result("encoding_independence", trials, dev, tol)


# Suite k draws from the stream [seed, k], so the order fixes every report.
SUITES = (
    check_correspondence_roundtrip,
    check_backward_consistency,
    check_entanglement_unitarity,
    check_local_frame_relation,
    check_conjugation_sign,
    check_spin_flip,
    check_double_reversal,
    check_chain_consistency,
    check_semantics_equivalence,
    check_probability_law,
    check_encoding_independence,
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
    reverse_gate = faulty_reverse_gate if faulty else time_reverse_gate
    return [
        fn(np.random.default_rng([seed, idx]), trials, tuple(dims), tol, reverse_gate)
        for idx, fn in enumerate(SUITES)
    ]
