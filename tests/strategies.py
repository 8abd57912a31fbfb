"""Shared hypothesis strategies for the circuit and reversal tests.

Members are built one at a time with the public scalar API
(:func:`random_unitary`, :func:`random_state`, :class:`TeleportCircuit`), so
a test can stack them and compare the stacked kernels with a loop over the
members.
"""

import numpy as np
from hypothesis import strategies as st

from timeflow.circuits import TeleportCircuit
from timeflow.linalg import random_state, random_unitary
from timeflow.reversal import photon_number, spin_half

DIMS = (2, 3, 4, 8)
FIELDS = ("u", "v", "w", "phi", "omega")


def maximally_entangled(d, rng):
    """Local unitaries on the uniform pair, as a d**2 x d**2 product."""
    uniform = np.zeros(d * d, dtype=complex)
    uniform[:: d + 1] = 1 / np.sqrt(d)
    return np.kron(random_unitary(d, rng), random_unitary(d, rng)) @ uniform


def _circuit(d, rng, plain):
    """A random circuit; ``plain`` swaps each gate for the identity."""
    gates = [np.eye(d) if p else random_unitary(d, rng) for p in plain]
    pairs = [maximally_entangled(d, rng) for _ in range(2)]
    return TeleportCircuit(d, *gates, *pairs)


@st.composite
def teleport_members(draw, dims=DIMS, max_members=4):
    """``(d, circuits, states)``: one to ``max_members`` teleport circuits of
    one dimension in {2, 3, 4, 8}, with an input state each."""
    d = draw(st.sampled_from(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, max_members))
    plain = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    circuits = [_circuit(d, rng, plain) for _ in range(count)]
    return d, circuits, [random_state(d, rng) for _ in range(count)]


def encodings(d):
    """Every encoding for dimension d: the photon number, and at d = 2 the
    spin-1/2 reversal at any unit phase."""
    photon = st.just(photon_number(d))
    if d != 2:
        return photon
    phases = st.floats(0.0, 2 * np.pi).map(lambda a: spin_half(np.exp(1j * a)))
    return st.one_of(photon, phases)


def stack(circuits):
    """One :class:`TeleportCircuit` whose fields stack the members' fields."""
    fields = (np.stack([getattr(c, f) for c in circuits]) for f in FIELDS)
    return TeleportCircuit(circuits[0].d, *fields)
