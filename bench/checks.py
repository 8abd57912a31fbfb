"""Independent checks of every benchmark request's output.

Each check recomputes what it can with the benchmark's own arithmetic (label
purities and traces, the detection operator, Schmidt values of a 2 x 2 pair)
and raises :class:`CheckFailed` on the first disagreement.  None of them
calls into timeflow, so a defect in the program cannot also hide in its
check.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

TOL = 1e-9

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class CheckFailed(Exception):
    """A request's output is wrong."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def label_purity(label: str) -> float:
    """``tr(rho0**2)`` of a deviation label: 2 per I/X/Y/Z factor, 1 per 0/1."""
    return float(2 ** sum(ch in "IXYZ" for ch in label))


def label_trace(label: str) -> float:
    """``tr(rho0)``: 2 per I, 0 per X/Y/Z, 1 per 0/1."""
    return math.prod({"I": 2.0, "0": 1.0, "1": 1.0}.get(ch, 0.0) for ch in label)


def _pairs_vector(pairs) -> np.ndarray:
    return np.array([re + 1j * im for re, im in pairs])


def check_verify(code: int, report: dict, seed: int, trials: int) -> None:
    """``all_pass``, and every suite row's deviation within its tolerance."""
    require(code == 0, f"verify exited {code}")
    require(report.get("all_pass") is True, f"verify failing: {report.get('failing')}")
    require(report["config"]["seed"] == seed, "verify report has the wrong seed")
    require(report["config"]["trials"] == trials, "verify report has the wrong trials")
    rows = report["properties"]
    require(len(rows) > 0, "verify report lists no suites")
    for row in rows:
        dev, tol = row["max_deviation"], row["tolerance"]
        require(math.isfinite(dev) and dev <= tol, f"suite {row['property']}: {dev} > {tol}")
        require(row["passed"] is True, f"suite {row['property']} not passed")


def check_flip(code: int, report: dict, label: str) -> None:
    """The shipped four-spin run ends in exactly one term at amplitude 1/4."""
    require(code == 0, f"nmr exited {code}")
    terms = report["decomposition"]
    require(set(terms) == {label}, f"expected only {label}, got {sorted(terms)}")
    require(abs(terms[label] - 0.25) <= TOL, f"{label} amplitude {terms[label]} != 0.25")


def check_readout(code: int, report: dict, initial: str, has_gradient: bool) -> None:
    """Parseval and the trace for a generated readout request.

    ``2**n * sum(c**2)`` is ``tr(rho**2)``: unitaries conserve it and a
    crusher can only lower it.  The identity coefficient is ``tr(rho)/2**n``,
    which every event conserves.
    """
    require(code == 0, f"nmr exited {code}")
    n = len(initial)
    terms = report["decomposition"]
    require(len(terms) > 0, "empty decomposition")
    coeffs = np.array(list(terms.values()), dtype=float)
    require(np.all(np.isfinite(coeffs)), "non-finite coefficient")
    for label in terms:
        require(len(label) == n and set(label) <= set("IXYZ"), f"bad label {label!r}")
    purity = label_purity(initial)
    got = 2**n * float(np.sum(coeffs**2))
    if has_gradient:
        require(got <= purity * (1 + TOL), f"purity grew: {got} > {purity}")
    else:
        require(abs(got - purity) <= TOL * purity, f"purity {got} != {purity}")
    identity = terms.get("I" * n, 0.0)
    expect = label_trace(initial) / 2**n
    require(abs(identity - expect) <= TOL, f"identity term {identity} != {expect}")


def check_teleport(code: int, report: dict, d: int) -> None:
    """Both semantics agree and every outcome has probability 1/d**2."""
    require(code == 0, f"teleport exited {code}")
    require(report.get("agreement") is True, "semantics disagree")
    outcomes = report["outcomes"]
    require(len(outcomes) == d * d, f"{len(outcomes)} outcomes, expected {d * d}")
    for k, rep in outcomes.items():
        p = rep["probability"]
        require(abs(p - 1.0 / d**2) <= TOL, f"outcome {k} probability {p}")
    require(abs(report["timeflow"]["probability"] - 1.0 / d**2) <= TOL, "chain probability")


def check_nonmax(code: int, report: dict, circuit: dict) -> None:
    """Singular values and transmitted weight of a partially entangled pair,
    recomputed from the circuit file's amplitudes."""
    require(code == 0, f"teleport exited {code}")
    d = int(circuit["d"])
    phi, psi = _pairs_vector(circuit["phi"]), _pairs_vector(circuit["psi"])
    q = phi.reshape(d, d).T
    sv = np.linalg.svd(math.sqrt(d) * q, compute_uv=False)
    got = np.array(report["nonmax"]["singular_values"])
    require(got.shape == sv.shape and np.allclose(got, sv, atol=TOL), "singular values")
    transmitted = float(np.linalg.norm(q @ psi.conj()) ** 2)
    require(abs(report["nonmax"]["transmitted"] - transmitted) <= TOL, "transmitted weight")


def check_acausal(code: int, report: dict) -> None:
    """Branch a=0 ends in |00>, branch a=1 in |11>, up to global phase."""
    require(code == 0, f"acausal exited {code}")
    for a, index in (("0", 0), ("1", 3)):
        state = _pairs_vector(report["branches"][a]["state"])
        require(state.shape == (4,), f"branch {a} state has {state.size} amplitudes")
        require(abs(abs(state[index]) - 1.0) <= TOL, f"branch {a} is not |{a}{a}>")


def detection_expectation(rho: np.ndarray, spin: int) -> complex:
    """``tr(rho (X + iY)_spin)`` from index arithmetic.

    ``X + iY = 2|0><1|``, so the operator pairs basis index ``a`` (bit 0 on
    the spin) with ``a`` plus that bit, and the trace sums ``2 rho[b, a]``.
    """
    n = int(round(math.log2(rho.shape[0])))
    bit = 1 << (n - 1 - spin)
    a = np.arange(rho.shape[0])
    a = a[(a & bit) == 0]
    return complex(2.0 * np.sum(rho[a | bit, a]))


def rho_from_terms(terms: dict, n: int) -> np.ndarray:
    """Deviation matrix of a Pauli expansion, built with the benchmark's own
    Kronecker products."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for label, c in terms.items():
        p = np.ones((1, 1), dtype=complex)
        for ch in label:
            p = np.kron(p, _PAULI[ch])
        rho += c * p
    return rho


def check_dynamics(rho, signal, spec, initial: str, has_gradient: bool, detect: int,
                   points: int) -> None:
    """rho stays Hermitian, its Frobenius norm is conserved (or does not grow
    once a gradient has run), and ``fid[0]`` is ``tr(rho (X + iY)_detect)``."""
    n = len(initial)
    require(rho.shape == (2**n, 2**n), f"state shape {rho.shape}")
    scale = max(1.0, float(np.max(np.abs(rho))))
    require(float(np.max(np.abs(rho - rho.conj().T))) <= TOL * scale, "rho not Hermitian")
    norm2 = float(np.vdot(rho, rho).real)
    purity = label_purity(initial)
    if has_gradient:
        require(norm2 <= purity * (1 + TOL), f"norm grew: {norm2} > {purity}")
    else:
        require(abs(norm2 - purity) <= TOL * purity, f"norm {norm2} != {purity}")
    require(len(signal) == points and np.all(np.isfinite(signal)), "bad FID samples")
    expect = detection_expectation(rho, detect)
    require(abs(signal[0] - expect) <= TOL * max(1.0, abs(expect)), f"fid[0] {signal[0]} != {expect}")
    require(len(spec.intensities) == points, "spectrum length")
    require(np.all(np.isfinite(spec.intensities)), "non-finite spectrum")


def check_acquisition(code: int, report: dict, fid_path, spectrum_path, points: int,
                      detect: int, n: int) -> None:
    """The CSV files hold ``points`` finite rows each, and the first FID
    sample matches the detection operator applied to the reported state."""
    require(code == 0, f"nmr exited {code}")
    fid_rows = read_csv_rows(fid_path)
    spec_rows = read_csv_rows(spectrum_path)
    require(len(fid_rows) == points + 1 and len(spec_rows) == points + 1, "CSV row count")
    values = np.array(fid_rows[1:] + spec_rows[1:], dtype=float)
    require(np.all(np.isfinite(values)), "non-finite CSV value")
    rho = rho_from_terms(report["decomposition"], n)
    first = complex(values[0, 1], values[0, 2])
    expect = detection_expectation(rho, detect)
    require(abs(first - expect) <= 1e-6 * max(1.0, abs(expect)), f"fid[0] {first} != {expect}")
