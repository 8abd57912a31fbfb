"""A fault table for the ``verify`` rows: each fault replaces one library
function with a plausible wrong version, and lists the exact set of report
rows that must fail under it at seeds 1-3 and dims (2, 3) and (2, 3, 4, 8).

A fault is patched in every ``timeflow`` module that binds the function, so
the passes and the library functions they call all see it, unless it names
the modules to patch.  A fault that fails no row carries the reason, and a
row that no fault fails is listed in :data:`BLIND` with the reason, so each
gap stays visible.  See DeMillo, Lipton & Sayward, IEEE Computer 11(4), 34
(1978), on mutation analysis.
"""

import sys

import numpy as np
import pytest

from timeflow import circuits, properties, reversal
from timeflow.linalg import dagger, transpose
from timeflow.properties import SUITES, run_all
from timeflow.reversal import local_dimension

_backward_state = reversal.backward_state
_outcome_amplitudes = circuits._outcome_amplitudes


def _amplitudes_untransposed(phi):
    phi = np.asarray(phi)
    d = local_dimension(phi)
    return phi.reshape(*phi.shape[:-1], d, d).copy()


def _backward_state_unconjugated(psi, phi):
    rho, _ = _backward_state(psi, phi)
    return rho, (reversal.amplitude_matrix(phi) @ np.asarray(psi)[..., None])[..., 0]


# name: (attribute, owner, wrong version, rows that fail, modules to patch
# or None for every module that binds it, reason when no row fails)
FAULTS = {
    "amplitude_matrix without its transpose": (
        "amplitude_matrix", reversal, _amplitudes_untransposed,
        {"correspondence_roundtrip", "backward_consistency", "local_frame_relation",
         "semantics_equivalence"}, None, None),
    "time_reverse_state without the conjugation": (
        "time_reverse_state", reversal, lambda psi, e: np.asarray(psi) @ transpose(e.matrix),
        {"spin_flip"}, None, None),
    "time_reverse_gate with u^dag for u^T": (
        "time_reverse_gate", reversal, properties.faulty_reverse_gate, set(), None,
        "double_reversal applies it twice, and T T u T^dag T^dag = u whenever T^2 ~ 1, "
        "as for every encoding in use"),
    "time_reverse_gate with T^T for T^dag": (
        "time_reverse_gate", reversal, lambda u, e: e.matrix @ transpose(u) @ transpose(e.matrix),
        set(), None, "applied twice it gives T^2 u (T^T)^2 = u whenever T^2 ~ 1"),
    "local_frame_gate with T^dag for conj(T)": (
        "local_frame_gate", reversal,
        lambda psi, e: transpose(reversal.transfer_matrix(psi)) @ dagger(e.matrix),
        {"local_frame_relation"}, None, None),
    "conjugation_sign always +1": (
        "conjugation_sign", reversal, lambda matrix: 1, {"conjugation_sign"}, None, None),
    "backward_state's closed form without conj(psi)": (
        "backward_state", reversal, _backward_state_unconjugated, {"backward_consistency"},
        None, None),
    "_outcome_amplitudes scaled by 1.01": (
        "_outcome_amplitudes", circuits, lambda c, psi: 1.01 * _outcome_amplitudes(c, psi),
        {"probability_law"}, None, None),
    # what --inject-fault does: the chain's gate reversal skips the conjugation
    "--inject-fault": (
        "_time_reverse_gate", reversal, properties.faulty_reverse_gate,
        {"chain_consistency", "semantics_equivalence", "encoding_independence"}, None, None),
    # patched everywhere, TeleportCircuit rejects every drawn phi before any row
    "transfer_matrix without sqrt(d), in properties": (
        "transfer_matrix", reversal, reversal.amplitude_matrix, {"entanglement_unitarity"},
        (properties,), None),
}

# Rows that no fault above fails, with the reason.
BLIND = {
    "double_reversal": "both wrong gate rules are involutions on every encoding in use",
}


def _patch(monkeypatch, attribute, owner, wrong, modules):
    original = getattr(owner, attribute)
    if modules is None:
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("timeflow.") and vars(m).get(attribute) is original]
    for module in modules:
        monkeypatch.setattr(module, attribute, wrong)


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("dims", [(2, 3), (2, 3, 4, 8)], ids=["dims23", "dims2348"])
def test_fault_fails_exactly_its_rows(monkeypatch, fault, dims):
    attribute, owner, wrong, rows, modules, _ = FAULTS[fault]
    _patch(monkeypatch, attribute, owner, wrong, modules)
    for seed in (1, 2, 3):
        results = run_all(seed=seed, trials=50, dims=dims)
        assert {r.name for r in results if not r.passed} == rows, seed


def test_every_row_fails_under_a_fault_or_is_listed_blind():
    caught = set().union(*(entry[3] for entry in FAULTS.values()))
    assert caught.isdisjoint(BLIND)
    assert caught | set(BLIND) == {name for name, _ in SUITES}
    for fault, (_, _, _, rows, _, reason) in FAULTS.items():
        assert bool(rows) != bool(reason), fault


def test_without_a_fault_every_row_passes():
    for dims in ((2, 3), (2, 3, 4, 8)):
        for seed in (1, 2, 3):
            assert all(r.passed for r in run_all(seed=seed, trials=50, dims=dims))
