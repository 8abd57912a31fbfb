"""The laws of the random samplers that the verify suites draw from.

Every verify identity holds for any unitary, so the suites cannot tell a
Haar sampler from a wrong one; these moment tests can.  Each draws a fixed
sample per dimension and holds each sample mean to its exact value within
``Z`` standard errors, the error estimated from the same sample.

* Haar unitaries: E|tr U|^2 = 1 and E|tr U|^4 = 2 for every d >= 2
  (Diaconis & Shahshahani, J. Appl. Probab. 31A, 49, 1994); E|U_ij|^2 = 1/d
  and E|U_ij|^4 = 2/(d(d+1)) (Weingarten calculus, Collins & Sniady, Commun.
  Math. Phys. 264, 773, 2006).  A QR without the phase fix of Mezzadri
  (Notices AMS 54, 592, 2007) moves the trace moments; a real Ginibre matrix
  gives the orthogonal group, whose fourth moments are larger.
* Gaussian states: E|psi_k|^2 = 1/d and E|psi_k|^4 = 2/(d(d+1)).
* Maximally entangled pairs: one unitary read as ``V / sqrt(d)`` has the law
  of ``(a (x) b)|Phi>`` for independent Haar ``a`` and ``b``.
"""

from functools import lru_cache

import numpy as np
import pytest

from timeflow.linalg import gaussian_state, haar_unitary
from timeflow.properties import _pairs

DIMS = (2, 3, 4, 8)
DRAWS = 20_000
Z = 5.0  # standard errors allowed; the fixed samples below sit within 3.3


def _z(samples, expected) -> float:
    """How many standard errors the mean of ``samples`` (axis 0) lies from
    ``expected``; the largest over any remaining axes."""
    samples = np.asarray(samples, dtype=float)
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    return float(np.max(np.abs(samples.mean(axis=0) - expected) / se))


def _z_between(a, b) -> float:
    """Standard errors between the means of two independent samples."""
    se = np.hypot(a.std(ddof=1) / np.sqrt(len(a)), b.std(ddof=1) / np.sqrt(len(b)))
    return float(abs(a.mean() - b.mean()) / se)


@lru_cache(maxsize=None)
def _unitaries(d):
    return haar_unitary(np.random.default_rng([2007, d]).standard_normal((DRAWS, 2, d, d)))


@pytest.mark.parametrize("d", DIMS)
def test_haar_trace_moments(d):
    trace2 = np.abs(np.trace(_unitaries(d), axis1=-2, axis2=-1)) ** 2
    assert _z(trace2, 1.0) <= Z
    assert _z(trace2**2, 2.0) <= Z


@pytest.mark.parametrize("d", DIMS)
def test_haar_entry_moments(d):
    entries2 = np.abs(_unitaries(d)) ** 2
    assert _z(entries2, 1.0 / d) <= Z  # every entry on its own
    assert _z((entries2**2).mean(axis=(-2, -1)), 2.0 / (d * (d + 1))) <= Z


@pytest.mark.parametrize("d", DIMS)
def test_gaussian_state_moments(d):
    psi = gaussian_state(np.random.default_rng([1994, d]).standard_normal((DRAWS, 2, d)))
    amp2 = np.abs(psi) ** 2
    assert _z(amp2, 1.0 / d) <= Z
    assert _z((amp2**2).mean(axis=-1), 2.0 / (d * (d + 1))) <= Z


@pytest.mark.parametrize("d", DIMS)
def test_pair_law_matches_two_local_unitaries(d):
    normals = np.random.default_rng([2006, d]).standard_normal((DRAWS // 2, 2, d, d))
    pairs = _pairs(haar_unitary(normals))
    # (a (x) b) sum_k |kk> / sqrt(d) has amplitudes (a b^T)_ij / sqrt(d); the
    # two halves of the Haar sample are independent of each other and of pairs
    a, b = np.split(_unitaries(d), 2)
    reference = np.einsum("nik,njk->nij", a, b).reshape(len(a), d * d) / np.sqrt(d)
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    for sample in (pairs, reference):
        assert np.allclose(np.linalg.norm(sample, axis=-1), 1.0, atol=1e-12)
    stats = [
        # |<Phi|pair>|^2 = |tr V|^2 / d^2, and one amplitude |V_00|^2 / d
        (lambda s: np.abs(s @ phi) ** 2, 1.0 / d**2, 2.0 / d**4),
        (lambda s: np.abs(s[:, 0]) ** 2, 1.0 / d**2, 2.0 / (d**3 * (d + 1))),
    ]
    for stat, mean, second in stats:
        x, y = stat(pairs), stat(reference)
        for sample in (x, y):
            assert _z(sample, mean) <= Z
            assert _z(sample**2, second) <= Z
        assert _z_between(x, y) <= Z
        assert _z_between(x**2, y**2) <= Z
