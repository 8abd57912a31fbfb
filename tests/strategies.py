"""Shared hypothesis strategies for the circuit, reversal and NMR tests.

Circuit members are built one at a time with the public scalar API
(:func:`random_unitary`, :func:`random_state`, :class:`TeleportCircuit`), so
a test can stack them and compare the stacked kernels with a loop over the
members.
"""

import numpy as np
from hypothesis import strategies as st

from timeflow.circuits import TeleportCircuit
from timeflow.linalg import random_state, random_unitary
from timeflow.nmr import Delay, Gradient, JCoupling, Rotation, SpinSystem
from timeflow.reversal import photon_number, spin_half

DIMS = (2, 3, 4, 8)
FIELDS = ("u", "v", "w", "phi", "omega")
SIGNED_AXES = ("x", "y", "z", "+x", "+y", "+z", "-x", "-y", "-z", "X", "+Y", "-Z")


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


@st.composite
def pulse_sequences(draw, max_spins=6, max_events=8):
    """``(system, init, seq)``: an n-spin system with every pair coupled, an
    initial label over IXYZ01 and up to ``max_events`` events of every kind,
    with signed axes and repeated spins."""
    n = draw(st.integers(1, max_spins))
    spin = st.integers(0, n - 1)
    spins = st.lists(spin, min_size=1, max_size=3).map(tuple)
    angles = st.floats(-10.0, 10.0)
    kinds = [
        st.builds(Rotation, spins, st.sampled_from(SIGNED_AXES), angles),
        st.builds(Delay, st.floats(0.0, 0.01)),
        st.builds(Gradient, spins),
    ]
    if n > 1:
        pairs = st.lists(spin, min_size=2, max_size=2, unique=True).map(tuple)
        kinds.append(st.builds(JCoupling, pairs, angles))
    offsets = draw(st.lists(st.floats(-500.0, 500.0), min_size=n, max_size=n))
    j = st.floats(1.0, 80.0) | st.floats(-80.0, -1.0)
    system = SpinSystem.from_couplings(
        offsets, {(a, b): draw(j) for a in range(n) for b in range(a)}
    )
    init = "".join(draw(st.lists(st.sampled_from("IXYZ01"), min_size=n, max_size=n)))
    return system, init, draw(st.lists(st.one_of(kinds), max_size=max_events))
