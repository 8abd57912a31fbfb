"""Randomized verification suites for the library's structural claims.

:data:`SUITES` is the table of the 11 report rows, each with the pass that
reports it.  A pass takes ``(seed, trials, dims, tol, reverse_gate)``,
ignores what it does not use, and returns a row per claim with the worst
deviation it saw, which passes iff it is within tolerance.  Two passes
draw, each one kind of random object per dimension for every row that
checks it, and each is named after one of its rows:

- ``check_backward_consistency`` (key 1): per trial an input state, a
  maximally entangled pair, a random pair and a coin, also for
  ``entanglement_unitarity`` and, on the random pairs and the Ginibre
  matrices of the maximally entangled ones, ``correspondence_roundtrip``;
- ``check_chain_consistency`` (key 7): circuits and input states, also for
  ``semantics_equivalence``, ``probability_law`` and, on the d = 2 circuits
  (drawn for them alone when 2 is not in ``dims``), ``encoding_independence``,
  ``local_frame_relation`` (on the pair omega), ``double_reversal`` (on the
  gate u) and ``spin_flip`` (on the input states).

``conjugation_sign`` draws nothing.  ``timeflow verify`` runs the passes;
its fault-injection mode replaces the gate-reversal rule with a wrong one
(conjugation skipped, leaving the adjoint instead of the transpose) to show
which rows catch such a regression.  The d = 2 gate and pair rows call the
checked public functions, which the fault does not reach.

Draws are keyed: a pass's trials at dimension d come in pages of ``P``, and
page p draws its normals, trial after trial, from
``np.random.default_rng([seed, key, d, p])``, where the key is the
:data:`SUITES` index of the row the pass is named after (keys 0, 2, 3, 5
and 6, which earlier layouts drew from, are retired).  So a trial's draws
depend neither on the other ``--dims`` entries nor on the block size, and a
row's deviation under several dimensions is the worst of its runs at each
one alone.  Trials run in blocks of at most ``BLOCK_ELEMENTS // cost``
trials of one page, each drawn in one call and checked on stacked arrays,
so memory does not grow with the trial count.  The cost is the largest
array a trial stacks: d**4 elements for key 1, and d**3 or the chain's d**2
per encoding for the circuits.

Every encoding a row uses comes from :data:`ENCODINGS`, built once at
import; one chain per block evaluates all of a dimension's encodings, their
reversal unitaries stacked on a leading axis.  A maximally entangled pair is
one Haar unitary read as a state (:func:`_pairs`), so a circuit draws five
unitaries: u, v, w and one for each of its two pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .circuits import TeleportCircuit, _evolution_chain, _outcome_amplitudes
from .formats import MAX_DIM
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

# Every encoding a row uses: photon number at each dimension, then at d = 2
# spin-1/2 at phases 1 and 1j (with photon number, the encodings of the chain
# and d = 2 gate rows) and at each of ALPHA_PHASES.
ENCODINGS = {d: (photon_number(d),) for d in range(2, MAX_DIM + 1)}
ENCODINGS[2] += (spin_half(1.0), spin_half(1j), *map(spin_half, ALPHA_PHASES))
# Each dimension's encodings as one, for the chain and the gate-reversal
# rules, which broadcast over the leading axis of the stacked matrices.
_STACKS = {
    d: SimpleNamespace(d=d, matrix=np.stack([e.matrix for e in es])[:, None])
    for d, es in ENCODINGS.items()
}


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


def _pairs(v: np.ndarray) -> np.ndarray:
    """Maximally entangled pairs from Haar unitaries ``V``: each read
    row-major over ``sqrt(d)``, which is ``(V (x) 1)`` on the uniform pair
    ``sum_k |kk> / sqrt(d)``.  Local unitaries ``a (x) b`` give ``a @
    transpose(b)`` there, itself Haar for independent Haar ``a`` and ``b``,
    so one unitary draws the same law as two."""
    d = v.shape[-1]
    return v.reshape(*v.shape[:-2], d * d) / np.sqrt(d)


def _circuit(d: int, normals: np.ndarray) -> TeleportCircuit:
    """Circuits from ``(..., 5, 2, d, d)`` normals: u, v, w, then the one
    unitary of each of phi and omega."""
    u, v, w, phi, omega = np.moveaxis(haar_unitary(normals), -3, 0)
    return TeleportCircuit(d=d, u=u, v=v, w=w, phi=_pairs(phi), omega=_pairs(omega))


def _blocks(seed, key, d, trials, shapes, cost):
    """Per block, one ``(trials, *shape)`` array per shape of the normals
    that each trial at dimension ``d`` draws from its page's generator.  A
    block is one draw of at most ``max(1, BLOCK_ELEMENTS // cost)`` trials of
    one page."""
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    per_block = max(1, BLOCK_ELEMENTS // cost)
    for first in range(0, trials, P):
        rng = np.random.default_rng([seed, key, d, first // P])
        page = min(P, trials - first)
        for start in range(0, page, per_block):
            b = min(per_block, page - start)
            normals = rng.standard_normal((b, ends[-1]))
            yield [normals[:, lo:hi].reshape(b, *s) for lo, hi, s in zip(ends, ends[1:], shapes)]


def check_backward_consistency(seed, trials, dims, tol, reverse_gate):
    """Reduced-matrix form of the backward state equals the closed form's
    outer product, on the trial's maximally entangled pair where its coin
    normal is below zero and on its random pair elsewhere.  With both pairs,
    ``entanglement_unitarity``: the transfer matrix is unitary exactly when
    the reduced state of either carrier is 1/d, as for the maximally
    entangled pair; its deviation counts misclassifications (tolerance 0).
    ``correspondence_roundtrip``: state -> matrix -> state is the identity,
    elementwise, on the random pairs, and matrix -> state -> matrix on the
    Ginibre matrices the maximally entangled pairs are made from."""
    dev, bad, roundtrip = 0.0, 0, 0.0
    for d in dims:
        shapes = ((2, d), (2, d, d), (2, d * d), ())
        for psi, pair, state, coin in _blocks(seed, 1, d, trials, shapes, d**4):
            q = pair[:, 0] + 1j * pair[:, 1]
            psi, pairs = gaussian_state(psi), _pairs(haar_unitary(pair))
            states = gaussian_state(state)
            roundtrip = max(
                roundtrip,
                np.max(np.abs(state_of_matrix(amplitude_matrix(states)) - states)),
                np.max(np.abs(amplitude_matrix(state_of_matrix(q)) - q)),
            )
            rho, psi_bar = backward_state(psi, np.where((coin < 0)[:, None], pairs, states))
            dev = max(dev, np.max(np.abs(rho - projector(psi_bar))))
            for phi, expect in ((pairs, True), (states, None)):
                reduced = partial_trace(projector(phi), [d, d], keep=(1,))
                ent = np.max(np.abs(d * reduced - np.eye(d)), axis=(-2, -1)) <= INPUT_TOL
                uni = unitary_residuals(transfer_matrix(phi)) <= INPUT_TOL
                wrong = ent != uni
                if expect is not None:
                    wrong |= ent != expect
                bad += int(wrong.sum())
    return [
        _result("correspondence_roundtrip", trials, roundtrip, tol),
        _result("backward_consistency", trials, dev, tol),
        _result("entanglement_unitarity", 2 * trials * len(dims), bad, 0.0),
    ]


def check_conjugation_sign(seed, trials, dims, tol, reverse_gate):
    """The reversal unitary's conjugation sign squares to one, exactly, for
    each spin phase and the photon-number encodings at d = 2 and 3."""
    encodings = (*ENCODINGS[2][3:], ENCODINGS[2][0], ENCODINGS[3][0])
    signs = [(conjugation_sign(e.matrix), e.sign) for e in encodings]
    dev = max(max(abs(g * g - 1), abs(g - sign)) for g, sign in signs)
    return [_result("conjugation_sign", len(encodings), dev, 0.0)]


def check_chain_consistency(seed, trials, dims, tol, reverse_gate):
    """Seven rows from one draw of circuits and input states per dimension,
    and per block one chain over every encoding of it.  The first
    three encodings' return legs are held to the closed form; the
    photon-number one to the oracle's designated outcome up to global phase,
    and it and every oracle outcome to probability 1/d**2.  On the d = 2
    circuits every spin phase's return leg is held to the photon-number one
    (``encoding_independence``); for each of the first three encodings,
    ``(chi (x) 1)`` on the canonical pair reproduces omega
    (``local_frame_relation``) and reversing u twice gives it back
    (``double_reversal``); and the input states' three spin-component
    expectations negate under time reversal (``spin_flip``)."""
    chain = semantics = probability = independence = frame = double = flip = 0.0
    for d in dict.fromkeys((*dims, 2)):
        cost = max(d**3, len(ENCODINGS[d]) * d * d)  # outcomes, or the stacked chain
        for gates, psi in _blocks(seed, 7, d, trials, ((5, 2, d, d), (2, d)), cost):
            c, psi = _circuit(d, gates), gaussian_state(psi)
            legs = _evolution_chain(c, psi, _STACKS[d], reverse_gate)
            ret = legs[3][1]
            if d == 2:
                independence = max(independence, np.max(np.abs(ret[3:] - ret[0])))
                for e in ENCODINGS[2][:3]:
                    rebuilt = local_frame_gate(c.omega, e) @ canonical_pair(e).reshape(2, 2)
                    frame = max(frame, np.max(np.abs(rebuilt.reshape(c.omega.shape) - c.omega)))
                    twice = time_reverse_gate(time_reverse_gate(c.u, e), e)
                    double = max(double, np.max(np.abs(twice - c.u)))
                rev = spin_expectations(time_reverse_state(psi, ENCODINGS[2][1]))
                flip = max(flip, np.max(np.abs(rev + spin_expectations(psi))))
            if d not in dims:
                continue
            chain = max(chain, np.max(np.abs(ret[:3] - legs[4][1])))
            outcomes = _outcome_amplitudes(c, psi)
            semantics = max(semantics, np.max(np.abs(phase_distance(ret[0], outcomes[..., 0, :]))))
            probs = np.linalg.norm(outcomes, axis=-1) ** 2
            probability = max(
                probability,
                np.max(np.abs(np.linalg.norm(ret[0], axis=-1) ** 2 - 1.0 / d**2)),
                np.max(np.abs(probs - 1.0 / d**2)),
                np.max(np.abs(np.sum(probs, axis=-1) - 1.0)),
            )
    names = ("chain_consistency", "semantics_equivalence", "probability_law",
             "encoding_independence", "local_frame_relation", "double_reversal", "spin_flip")
    devs = (chain, semantics, probability, independence, frame, double, flip)
    return [_result(n, trials, dev, tol) for n, dev in zip(names, devs)]


# The report rows in order, each with the pass that reports it; a pass
# reports all of its rows from one run.
SUITES = (
    ("correspondence_roundtrip", check_backward_consistency),
    ("backward_consistency", check_backward_consistency),
    ("entanglement_unitarity", check_backward_consistency),
    ("local_frame_relation", check_chain_consistency),
    ("conjugation_sign", check_conjugation_sign),
    ("spin_flip", check_chain_consistency),
    ("double_reversal", check_chain_consistency),
    ("chain_consistency", check_chain_consistency),
    ("semantics_equivalence", check_chain_consistency),
    ("probability_law", check_chain_consistency),
    ("encoding_independence", check_chain_consistency),
)


def run_all(
    seed: int,
    trials: int = 100,
    tol: float = DEFAULT_TOL,
    dims=(2, 3),
    faulty: bool = False,
) -> list[PropertyResult]:
    """Run every pass at tolerance ``tol`` (the two exact rows report 0)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if seed < 0:  # default_rng takes no negative seed
        raise ValueError(f"seed must be non-negative, got {seed}")
    reverse_gate = faulty_reverse_gate if faulty else _time_reverse_gate
    rows = {}
    for name, suite in SUITES:
        if name not in rows:
            rows.update((r.name, r) for r in suite(seed, trials, tuple(dims), tol, reverse_gate))
    return [rows[name] for name, _ in SUITES]
