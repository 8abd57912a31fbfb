"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each timeflow layer from outside:
it replaces the function object wherever a timeflow module refers to it (its
own module, every module that imported it by name, and module-level tuples,
lists and dicts such as dispatch tables), records one span per call, and puts
the original objects back on ``uninstall``.  Nothing inside the package is
edited, so the same tracer runs unchanged against later versions; a function
that no longer exists is skipped and reports zero calls.

A span is (id, name, start, end, parent id, request id, size, items).  ``size``
is the spin count n for the nmr layer; ``items`` is the number of terms
returned by ``pauli_decompose`` and the number of spins rotated by
``apply_rotation``.  Spans are kept in memory, as eight doubles each in one
flat array because a traced ``verify`` run makes about a million, and
written out by ``save``.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

SUITES = (
    "correspondence_roundtrip",
    "backward_consistency",
    "entanglement_unitarity",
    "local_frame_relation",
    "conjugation_sign",
    "spin_flip",
    "double_reversal",
    "chain_consistency",
    "semantics_equivalence",
    "probability_law",
    "encoding_independence",
)

# (span name, timeflow module, attribute)
TARGETS = (
    *(
        (f"nmr.{f}", "nmr", f)
        for f in (
            "run_sequence",
            "apply_rotation",
            "apply_jcoupling",
            "gradient_crush",
            "evolve",
            "build_hamiltonian",
            "pauli_decompose",
            "fid",
            "spectrum",
        )
    ),
    ("circuits.evolution_chain", "circuits", "_evolution_chain"),
    *(
        (f"circuits.{f}", "circuits", f)
        for f in (
            "forward_oracle",
            "timeflow_trace",
            "timeflow_eval",
            "run_gate_circuit",
            "nonmax_loss",
        )
    ),
    *(
        (f"reversal.{f}", "reversal", f)
        for f in (
            "is_maximally_entangled",
            "local_frame_gate",
            "time_reverse_gate",
            "transfer_matrix",
            "backward_state",
        )
    ),
    *(
        (f"linalg.{f}", "linalg", f)
        for f in ("random_unitary", "random_state", "partial_trace", "is_unitary")
    ),
    *((f"properties.{s}", "properties", f"check_{s}") for s in SUITES),
    ("properties.random_circuit", "properties", "random_circuit"),
    ("properties.random_maximally_entangled", "properties", "random_maximally_entangled"),
    *(
        (f"formats.{f}", "formats", f)
        for f in ("parse_spin_system", "parse_sequence", "parse_circuit")
    ),
    *(
        (f"cli.{f}", "cli", f)
        for f in ("cmd_verify", "cmd_teleport", "cmd_acausal", "cmd_nmr")
    ),
    ("cli.emit", "cli", "_emit"),
)

NAMES = tuple(name for name, _, _ in TARGETS)
FIELDS = ("id", "name", "start", "end", "parent", "request", "size", "items")


def _spin_count(args) -> int:
    if not args:
        return -1
    first = args[0]
    n = getattr(first, "n", None)
    if isinstance(n, int):
        return n
    shape = getattr(first, "shape", ())
    if len(shape) == 2 and shape[0] > 0:
        return int(round(math.log2(shape[0])))
    return -1


def _items(name, args, kwargs, result) -> int:
    if name == "nmr.pauli_decompose" and result is not None:
        return len(result)
    if name == "nmr.apply_rotation":
        spins = args[1] if len(args) > 1 else kwargs.get("spins", ())
        return len(tuple(spins))
    return -1


def _substitute(value, mapping: dict):
    """``value`` with every object in ``mapping`` (keyed by id) replaced,
    descending into tuples, lists and dicts; the same object if nothing
    changed."""
    if id(value) in mapping:
        return mapping[id(value)]
    if isinstance(value, (tuple, list)):
        items = [_substitute(v, mapping) for v in value]
        if any(a is not b for a, b in zip(items, value)):
            return type(value)(items)
    elif isinstance(value, dict):
        items = {k: _substitute(v, mapping) for k, v in value.items()}
        if any(items[k] is not v for k, v in value.items()):
            return items
    return value


class Tracer:
    """Records spans for calls into the functions in :data:`TARGETS`."""

    def __init__(self):
        self.records = array("d")
        self.request_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple] = []

    def _wrap(self, name_idx: int, fn):
        name = NAMES[name_idx]
        sized = name.startswith("nmr.")
        counted = name in ("nmr.pauli_decompose", "nmr.apply_rotation")
        clock = time.perf_counter
        records, stack = self.records, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                records.extend(
                    (
                        span_id,
                        name_idx,
                        start,
                        end,
                        parent,
                        self.request_id,
                        _spin_count(args) if sized else -1,
                        _items(name, args, kwargs, result) if counted else -1,
                    )
                )

        return wrapper

    def install(self) -> None:
        """Replace every reference to a target inside the timeflow package."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "timeflow" or key.startswith("timeflow."))
        ]
        mapping = {}
        for idx, (_, module, attr) in enumerate(TARGETS):
            fn = getattr(sys.modules.get(f"timeflow.{module}"), attr, None)
            if callable(fn):
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = (fn, self._wrap(idx, fn))
                mapping[id(fn)] = self._wrappers[id(fn)][1]
        for m in modules:
            for key, value in list(vars(m).items()):
                if key.startswith("__"):
                    continue
                new = _substitute(value, mapping)
                if new is not value:
                    self._restore.append((m, key, value))
                    setattr(m, key, new)

    def uninstall(self) -> None:
        for m, key, value in reversed(self._restore):
            setattr(m, key, value)
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.records) // len(FIELDS)

    def arrays(self) -> dict[str, np.ndarray]:
        table = np.frombuffer(self.records, dtype=float).reshape(-1, len(FIELDS))
        # astype copies, so no array keeps the record buffer exported
        return {
            k: table[:, i].astype(float if k in ("start", "end") else np.int64)
            for i, k in enumerate(FIELDS)
        }

    def save(self, path) -> None:
        """Write the spans and the name table to an ``.npz`` file."""
        np.savez_compressed(path, names=np.asarray(NAMES), **self.arrays())

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total self seconds, and the raw spans.

        Self time is a span's duration minus the durations of its direct
        child spans; calls run on one thread, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(self._next_id + 1)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child[a["id"]]
        out = {}
        for idx, name in enumerate(NAMES):
            sel = a["name"] == idx
            out[name] = {
                "calls": int(sel.sum()),
                "self_s": float(self_time[sel].sum()),
                "dur": dur[sel],
                "size": a["size"][sel],
                "items": a["items"][sel],
            }
        return out
