"""Randomized verification suites for the library's structural claims.

Each suite draws its trials from a seeded generator, reports the worst
deviation it saw, and passes iff that deviation is within tolerance.  The
suites are what ``timeflow verify`` runs; the fault-injection mode replaces
the gate-reversal rule with a deliberately wrong one (conjugation skipped,
leaving the adjoint instead of the transpose) to demonstrate that the
chain-consistency and semantics-equivalence suites would catch such a
regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (
    TeleportCircuit,
    _evolution_chain,
    forward_oracle,
)
from .linalg import dagger, phase_distance, random_state, random_unitary
from .reversal import (
    Encoding,
    amplitude_matrix,
    backward_state,
    canonical_pair,
    conjugation_sign,
    is_maximally_entangled,
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


def random_maximally_entangled(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random maximally entangled pair: local unitaries on the uniform pair."""
    can = np.zeros(d * d, dtype=complex)
    can[:: d + 1] = 1.0 / np.sqrt(d)
    return np.kron(random_unitary(d, rng), random_unitary(d, rng)) @ can


def random_circuit(d: int, rng: np.random.Generator) -> TeleportCircuit:
    return TeleportCircuit(
        d=d,
        u=random_unitary(d, rng),
        v=random_unitary(d, rng),
        w=random_unitary(d, rng),
        phi=random_maximally_entangled(d, rng),
        omega=random_maximally_entangled(d, rng),
    )


def _encodings_for(d: int) -> list[Encoding]:
    if d == 2:
        return [photon_number(2), spin_half(1.0), spin_half(1j)]
    return [photon_number(d)]


def check_correspondence_roundtrip(rng, trials, dims=(2, 3), tol=1e-12):
    """state -> matrix -> state is the identity, elementwise, both ways."""
    dev = 0.0
    for _ in range(trials):
        for d in dims:
            phi = random_state(d * d, rng)
            dev = max(dev, np.max(np.abs(state_of_matrix(amplitude_matrix(phi)) - phi)))
            q = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            dev = max(dev, np.max(np.abs(amplitude_matrix(state_of_matrix(q)) - q)))
    return _result("correspondence_roundtrip", trials, dev, tol)


def check_backward_consistency(rng, trials, dims=(2, 3), tol=1e-10):
    """Reduced-matrix form of the backward state equals the closed form's
    outer product."""
    dev = 0.0
    for _ in range(trials):
        for d in dims:
            psi = random_state(d, rng)
            phi = (
                random_maximally_entangled(d, rng)
                if rng.random() < 0.5
                else random_state(d * d, rng)
            )
            rho, psi_bar = backward_state(psi, phi)
            dev = max(dev, np.max(np.abs(rho - np.outer(psi_bar, psi_bar.conj()))))
    return _result("backward_consistency", trials, dev, tol)


def check_entanglement_unitarity(rng, trials, dims=(2, 3), class_tol=1e-8, tol=0.0):
    """Biconditional: the transfer matrix is unitary exactly for maximally
    entangled states.  Deviation counts misclassifications."""
    from .linalg import is_unitary

    bad = 0
    total = 0
    for _ in range(trials):
        for d in dims:
            for phi, expect in (
                (random_maximally_entangled(d, rng), True),
                (random_state(d * d, rng), None),
            ):
                total += 1
                ent = is_maximally_entangled(phi, class_tol)
                uni = is_unitary(transfer_matrix(phi), class_tol)
                if ent != uni or (expect is not None and ent != expect):
                    bad += 1
    return _result("entanglement_unitarity", total, bad, tol)


def check_local_frame_relation(rng, trials, tol=1e-10):
    """(chi (x) 1) applied to the canonical pair reproduces the state, for
    every encoding."""
    dev = 0.0
    for _ in range(trials):
        for e in _encodings_for(2):
            psi = random_maximally_entangled(2, rng)
            chi = local_frame_gate(psi, e)
            d = e.d
            rebuilt = (chi @ canonical_pair(e).reshape(d, d)).reshape(-1)
            dev = max(dev, np.max(np.abs(rebuilt - psi)))
    return _result("local_frame_relation", trials, dev, tol)


def check_conjugation_sign(rng, trials, tol=0.0):
    """The reversal unitary's conjugation sign squares to one, exactly."""
    dev = 0.0
    count = 0
    for alpha in ALPHA_PHASES:
        for e in (spin_half(alpha), photon_number(2), photon_number(3)):
            count += 1
            g = conjugation_sign(e.matrix)
            dev = max(dev, abs(g * g - 1))
            dev = max(dev, abs(g - e.sign))
    return _result("conjugation_sign", count, dev, tol)


def check_spin_flip(rng, trials, tol=1e-10):
    """All three spin-component expectations negate under time reversal."""
    dev = 0.0
    for _ in range(trials):
        psi = random_state(2, rng)
        rev = time_reverse_state(psi, spin_half())
        dev = max(dev, np.max(np.abs(spin_expectations(rev) + spin_expectations(psi))))
    return _result("spin_flip", trials, dev, tol)


def check_double_reversal(rng, trials, tol=1e-10):
    """Reversing a gate twice gives the gate back, for both signs."""
    dev = 0.0
    for _ in range(trials):
        for e in _encodings_for(2):
            u = random_unitary(2, rng)
            dev = max(
                dev,
                np.max(np.abs(time_reverse_gate(time_reverse_gate(u, e), e) - u)),
            )
    return _result("double_reversal", trials, dev, tol)


def check_chain_consistency(rng, trials, dims=(2, 3), tol=1e-10, reverse_gate=None):
    """The return leg of the evolution chain equals the closed form."""
    reverse_gate = reverse_gate or time_reverse_gate
    dev = 0.0
    for _ in range(trials):
        for d in dims:
            c = random_circuit(d, rng)
            psi = random_state(d, rng)
            for e in _encodings_for(d):
                chain = _evolution_chain(c, psi, e, reverse_gate)
                dev = max(dev, np.max(np.abs(chain[3][1] - chain[4][1])))
    return _result("chain_consistency", trials, dev, tol)


def check_semantics_equivalence(
    rng, trials, dims=(2, 3), tol=1e-10, reverse_gate=None
):
    """Chain evaluation matches the tensor-product oracle up to global phase."""
    reverse_gate = reverse_gate or time_reverse_gate
    dev = 0.0
    for _ in range(trials):
        for d in dims:
            c = random_circuit(d, rng)
            psi = random_state(d, rng)
            e = _encodings_for(d)[0]
            chain = _evolution_chain(c, psi, e, reverse_gate)
            oracle = forward_oracle(c, psi)[0]
            dev = max(dev, abs(phase_distance(chain[3][1], oracle.raw)))
    return _result("semantics_equivalence", trials, dev, tol)


def check_probability_law(rng, trials, dims=(2, 3), tol=1e-10, reverse_gate=None):
    """Every outcome probability is 1/d**2 in both semantics."""
    reverse_gate = reverse_gate or time_reverse_gate
    dev = 0.0
    for _ in range(trials):
        for d in dims:
            c = random_circuit(d, rng)
            psi = random_state(d, rng)
            e = _encodings_for(d)[0]
            chain = _evolution_chain(c, psi, e, reverse_gate)
            dev = max(dev, abs(np.linalg.norm(chain[3][1]) ** 2 - 1.0 / d**2))
            reports = forward_oracle(c, psi)
            for rep in reports.values():
                dev = max(dev, abs(rep.probability - 1.0 / d**2))
            dev = max(dev, abs(sum(r.probability for r in reports.values()) - 1.0))
    return _result("probability_law", trials, dev, tol)


def check_encoding_independence(rng, trials, tol=1e-10, reverse_gate=None):
    """The chain output is the same vector for every carrier encoding,
    including every unit phase of the spin reversal matrix."""
    reverse_gate = reverse_gate or time_reverse_gate
    dev = 0.0
    for _ in range(trials):
        c = random_circuit(2, rng)
        psi = random_state(2, rng)
        ref = _evolution_chain(c, psi, photon_number(2), reverse_gate)[3][1]
        for alpha in ALPHA_PHASES:
            out = _evolution_chain(c, psi, spin_half(alpha), reverse_gate)[3][1]
            dev = max(dev, np.max(np.abs(out - ref)))
    return _result("encoding_independence", trials, dev, tol)


# (suite, takes dims, takes reverse_gate, tolerance overridable)
_SUITES = (
    (check_correspondence_roundtrip, True, False, True),
    (check_backward_consistency, True, False, True),
    (check_entanglement_unitarity, True, False, False),
    (check_local_frame_relation, False, False, True),
    (check_conjugation_sign, False, False, False),
    (check_spin_flip, False, False, True),
    (check_double_reversal, False, False, True),
    (check_chain_consistency, True, True, True),
    (check_semantics_equivalence, True, True, True),
    (check_probability_law, True, True, True),
    (check_encoding_independence, False, True, True),
)


def run_all(
    seed: int,
    trials: int = 100,
    tol: float | None = None,
    dims=(2, 3),
    faulty: bool = False,
) -> list[PropertyResult]:
    """Run every suite; ``tol`` overrides each suite's default tolerance."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    results = []
    for idx, (fn, takes_dims, takes_reverse, overridable) in enumerate(_SUITES):
        rng = np.random.default_rng([seed, idx])
        kwargs = {}
        if tol is not None and overridable:
            kwargs["tol"] = tol
        if takes_dims:
            kwargs["dims"] = tuple(dims)
        if takes_reverse and faulty:
            kwargs["reverse_gate"] = faulty_reverse_gate
        results.append(fn(rng, trials, **kwargs))
    return results
