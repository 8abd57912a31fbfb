"""Teleportation-like circuits under two evaluation semantics.

A teleportation-like circuit has three carriers: carrier 1 holds the input
state, carriers 2 and 3 start in a maximally entangled pair, local unitaries
``u``, ``v``, ``w`` act on carriers 1, 2, 3, and carriers 1 and 2 are
projected onto a maximally entangled basis whose designated element is
``omega``.

:func:`forward_oracle` evaluates the circuit as an ordinary tensor-product
simulation and reports the conditional carrier-3 state for every basis
outcome.  :func:`timeflow_eval` instead composes one matrix chain that reads
the circuit as a single qubit traversing the carriers forward and backward in
the observer's time; its unnormalized output for the designated outcome is

    (1/d) * w @ M_phi @ transpose(v) @ conj(M_omega) @ u @ psi,

whose squared norm 1/d**2 is the outcome probability.  The two semantics
agree up to global phase on every circuit; :func:`timeflow_trace` exposes the
intermediate legs of the chain for inspection.

:class:`GateCircuit` is a small statevector simulator (qubit carriers,
single-carrier gates, CNOT/CZ, post-selected projective measurements) used to
cross-check the oracle and to run the four-carrier acausality circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL,
    SX,
    HADAMARD,
    apply_local,
    basis_state,
    bell_state,
    dagger,
    is_unitary,
    kron,
)
from .reversal import (
    Encoding,
    amplitude_matrix,
    is_maximally_entangled,
    local_dimension,
    local_frame_gate,
    time_reverse_gate,
    transfer_matrix,
)

TRACE_LABELS = (
    "outbound",
    "first_reversal",
    "second_reversal",
    "return_leg",
    "closed_form",
)


@dataclass(frozen=True)
class OutcomeReport:
    """A post-selected outcome: normalized state, probability, raw vector."""

    state: np.ndarray
    probability: float
    raw: np.ndarray

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> "OutcomeReport":
        raw = np.asarray(raw)
        norm = np.linalg.norm(raw)
        state = raw / norm if norm > 1e-300 else raw.copy()
        return cls(state=state, probability=float(norm**2), raw=raw)


@dataclass(frozen=True)
class TeleportCircuit:
    """Three carriers, local unitaries u, v, w, initial pair ``phi`` on
    carriers 2,3 and measured outcome ``omega`` on carriers 1,2."""

    d: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    phi: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        d = self.d
        for name in ("u", "v", "w"):
            g = np.asarray(getattr(self, name), dtype=complex)
            if g.shape != (d, d):
                raise ValueError(f"{name} must be {d} x {d}")
            if not is_unitary(g, 1e-8):
                raise ValueError(f"{name} is not unitary")
            object.__setattr__(self, name, g)
        for name in ("phi", "omega"):
            s = np.asarray(getattr(self, name), dtype=complex)
            if s.shape != (d * d,):
                raise ValueError(f"{name} must have length d**2 = {d * d}")
            if not is_maximally_entangled(s, 1e-8):
                raise ValueError(f"{name} is not maximally entangled")
            object.__setattr__(self, name, s)


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


def forward_oracle(c: TeleportCircuit, psi: np.ndarray) -> dict[int, OutcomeReport]:
    """Tensor-product evaluation: conditional carrier-3 states per outcome.

    Builds ``(u (x) v (x) w)(|psi> (x) |phi>)`` and projects carriers 1,2
    onto each element of the entangled basis containing ``omega``.  Outcome 0
    is the designated ``omega``.  Probabilities sum to 1.
    """
    psi = np.asarray(psi)
    d = c.d
    if psi.shape != (d,):
        raise ValueError(f"input state must have dimension {d}")
    vw_phi = (c.v @ c.phi.reshape(d, d) @ c.w.T).reshape(-1)
    full = np.kron(c.u @ psi, vw_phi).reshape(d * d, d)
    reports = {}
    for k, b in enumerate(entangled_basis(c.omega)):
        raw = full.T @ b.conj()
        reports[k] = OutcomeReport.from_raw(raw)
    return reports


def _evolution_chain(c: TeleportCircuit, psi: np.ndarray, e: Encoding, reverse_gate):
    """The labeled legs of the one-qubit reading of the circuit.

    ``reverse_gate(u, e)`` supplies the reversed-clock form of a gate; the
    production entry point passes :func:`timeflow.reversal.time_reverse_gate`.
    """
    psi = np.asarray(psi)
    d = c.d
    if psi.shape != (d,):
        raise ValueError(f"input state must have dimension {d}")
    if e.d != d:
        raise ValueError(f"encoding dimension {e.d} != circuit dimension {d}")
    chi_omega = local_frame_gate(c.omega, e)
    chi_phi = local_frame_gate(c.phi, e)
    sqrt_d = np.sqrt(d)

    outbound = dagger(chi_omega) @ c.u @ psi
    first = (e.matrix @ outbound.conj()) / sqrt_d
    second = (e.matrix @ first.conj()) / sqrt_d
    ret = c.w @ reverse_gate(chi_phi, e) @ reverse_gate(c.v, e) @ second
    closed = (
        c.w
        @ transfer_matrix(c.phi)
        @ c.v.T
        @ transfer_matrix(c.omega).conj()
        @ c.u
        @ psi
    ) / d
    return list(zip(TRACE_LABELS, (outbound, first, second, ret, closed)))


def timeflow_trace(
    c: TeleportCircuit, psi: np.ndarray, e: Encoding
) -> list[tuple[str, np.ndarray]]:
    """Labeled intermediate vectors of the single-qubit evaluation.

    Five entries: after the forward gate and measurement-frame change, after
    each of the two clock reversals (each carrying a 1/sqrt(d) factor from
    the under-normalized post-selection), after the return leg through the
    reversed gates, and the closed form.  The last entry equals the raw
    vector of :func:`timeflow_eval` exactly; the return leg matches it up to
    floating-point roundoff for every encoding, which is how the conjugation
    sign drops out.
    """
    return _evolution_chain(c, psi, e, time_reverse_gate)


def timeflow_eval(c: TeleportCircuit, psi: np.ndarray, e: Encoding) -> OutcomeReport:
    """Single-chain evaluation of the designated outcome.

    The raw vector is ``(1/d) w @ M_phi @ transpose(v) @ conj(M_omega) @ u @ psi``
    and its squared norm, always 1/d**2, is the outcome probability.
    """
    return OutcomeReport.from_raw(timeflow_trace(c, psi, e)[-1][1])


@dataclass(frozen=True)
class NonmaxReport:
    """Diagnostics for post-selection on a partially entangled pair."""

    singular_values: np.ndarray
    raw: np.ndarray
    transmitted: float


def nonmax_loss(pi: np.ndarray, psi: np.ndarray) -> NonmaxReport:
    """What survives post-selection on an arbitrarily entangled pair ``pi``.

    The singular values of the transfer matrix (sqrt(d) times the Schmidt
    coefficients) are all 1 exactly when ``pi`` is maximally entangled; any
    spread means the backward map is non-unitary and part of the input is
    lost.  ``raw`` is the unnormalized backward vector and ``transmitted``
    its squared norm.
    """
    pi = np.asarray(pi)
    psi = np.asarray(psi)
    d = local_dimension(pi)
    if psi.shape != (d,):
        raise ValueError(f"input state must have dimension {d}")
    sv = np.linalg.svd(transfer_matrix(pi), compute_uv=False)
    raw = amplitude_matrix(pi) @ psi.conj()
    return NonmaxReport(
        singular_values=sv, raw=raw, transmitted=float(np.linalg.norm(raw) ** 2)
    )


@dataclass(frozen=True)
class Gate1:
    """Single-carrier gate: a 2 x 2 unitary on one qubit."""

    qubit: int
    matrix: np.ndarray


@dataclass(frozen=True)
class Gate2:
    """Two-carrier gate, ``kind`` in {"cnot", "cz"}; control listed first."""

    kind: str
    control: int
    target: int


@dataclass(frozen=True)
class Measure:
    """Post-selected projective measurement on a carrier subset.

    ``states`` are orthonormal vectors over the measured carriers (in the
    listed order); outcome k post-selects onto ``states[k]`` and removes the
    measured carriers from the register.
    """

    qubits: tuple[int, ...]
    states: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class GateCircuit:
    """An ordered event list over ``n`` qubit carriers."""

    n: int
    events: tuple


def computational_measure(qubits) -> Measure:
    """Measurement of the listed carriers in the computational basis."""
    qubits = tuple(qubits)
    dim = 2 ** len(qubits)
    return Measure(qubits=qubits, states=tuple(basis_state(dim, k) for k in range(dim)))


def _apply_gate2(state: np.ndarray, nq: int, kind: str, cpos: int, tpos: int) -> np.ndarray:
    t = state.reshape((2,) * nq).copy()

    def sl(cv, tv):
        idx = [slice(None)] * nq
        idx[cpos], idx[tpos] = cv, tv
        return tuple(idx)

    if kind == "cnot":
        t[sl(1, 0)], t[sl(1, 1)] = t[sl(1, 1)].copy(), t[sl(1, 0)].copy()
    elif kind == "cz":
        t[sl(1, 1)] *= -1.0
    else:
        raise ValueError(f"unknown two-carrier gate kind {kind!r}")
    return t.reshape(-1)


def _check_orthonormal(states, tol: float = ATOL):
    mat = np.array(states)
    gram = mat.conj() @ mat.T
    if np.max(np.abs(gram - np.eye(len(states)))) > tol:
        raise ValueError("measurement states must be orthonormal")


def run_gate_circuit(
    g: GateCircuit, input_state: np.ndarray
) -> dict[tuple[int, ...], OutcomeReport]:
    """Statevector simulation with post-selection bookkeeping.

    Returns a map from the tuple of measurement outcome indices (empty tuple
    if the circuit has no measurement) to the report for the carriers that
    remain.  Probabilities over all outcome tuples sum to 1 when every
    measurement basis is complete.
    """
    state = np.asarray(input_state, dtype=complex)
    if state.shape != (2**g.n,):
        raise ValueError(f"input state must have dimension 2**{g.n}")

    def positions(alive: list[int], qubits) -> list[int]:
        pos = []
        for q in qubits:
            if q not in alive:
                raise ValueError(f"carrier {q} is out of range or already measured")
            pos.append(alive.index(q))
        return pos

    def walk(state, alive, events, key):
        for i, ev in enumerate(events):
            nq = len(alive)
            if isinstance(ev, Gate1):
                (pos,) = positions(alive, (ev.qubit,))
                u = np.asarray(ev.matrix, dtype=complex)
                if u.shape != (2, 2):
                    raise ValueError("single-carrier gate must be 2 x 2")
                state = apply_local(state.reshape((2,) * nq), pos, u).reshape(-1)
            elif isinstance(ev, Gate2):
                if ev.control == ev.target:
                    raise ValueError("control and target must differ")
                cpos, tpos = positions(alive, (ev.control, ev.target))
                state = _apply_gate2(state, nq, ev.kind, cpos, tpos)
            elif isinstance(ev, Measure):
                pos = positions(alive, ev.qubits)
                _check_orthonormal(ev.states)
                t = np.moveaxis(
                    state.reshape((2,) * nq), pos, range(len(pos))
                ).reshape(2 ** len(pos), -1)
                rest_alive = [q for q in alive if q not in ev.qubits]
                out = {}
                for k, b in enumerate(ev.states):
                    b = np.asarray(b, dtype=complex)
                    if b.shape != (2 ** len(pos),):
                        raise ValueError("measurement state has the wrong dimension")
                    branch = b.conj() @ t
                    out.update(
                        walk(branch, rest_alive, events[i + 1 :], key + (k,))
                    )
                return out
            else:
                raise ValueError(f"unknown event {ev!r}")
        return {key: OutcomeReport.from_raw(state)}

    return walk(state, list(range(g.n)), tuple(g.events), ())


_BELL_DISENTANGLED_INDEX = {"PHI+": 0, "PSI+": 1, "PHI-": 2, "PSI-": 3}


def acausal_circuit(a: int, bell: str = "PHI+") -> tuple[GateCircuit, np.ndarray, int]:
    """The four-carrier circuit whose last pair already reflects a later choice.

    Carriers: 0 holds |0>, carriers 1,2 start in the named Bell pair, carrier
    3 holds |0>.  A CNOT from 2 to 3 runs first; only afterwards is the NOT
    applied (or not) on carrier 0.  The pair (0,1) is then measured in the
    Bell basis, realized as the inverse entangler (CNOT then Hadamard)
    followed by a computational-basis projection.  Returns the circuit, its
    input state and the outcome index that corresponds to finding the input
    Bell state again.
    """
    if a not in (0, 1):
        raise ValueError("a must be 0 or 1")
    inp = kron(basis_state(2, 0), kron(bell_state(bell), basis_state(2, 0)))
    events = [Gate2("cnot", 2, 3)]
    if a == 1:
        events.append(Gate1(0, SX))
    events += [
        Gate2("cnot", 0, 1),
        Gate1(0, HADAMARD),
        computational_measure((0, 1)),
    ]
    return (
        GateCircuit(n=4, events=tuple(events)),
        inp,
        _BELL_DISENTANGLED_INDEX[bell.upper()],
    )


def acausal_experiment(a: int, bell: str = "PHI+") -> np.ndarray:
    """Post-selected state of carriers 3,4 in the acausality circuit.

    Equals |00> when no NOT is applied (a = 0) and |11> when it is (a = 1),
    even though the CNOT writing onto the last carrier ran before the choice.
    """
    circuit, inp, select = acausal_circuit(a, bell)
    reports = run_gate_circuit(circuit, inp)
    return reports[(select,)].state
