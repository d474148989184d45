"""Shared random-instance generators for the test suite."""

import numpy as np
import pytest


def rand_orthogonal(n, rng):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def rand_psd(n, rng, rank=None, scale=1.0):
    r = rank or n
    B = rng.standard_normal((n, r))
    return scale * (B @ B.T) / r


def rand_stable_symmetric(n, rng, lo=-5.0, hi=-0.3):
    Q = rand_orthogonal(n, rng)
    return Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.T


def rand_stable(n, rng, margin=0.3):
    """Generic (non-normal) matrix shifted to spectral abscissa <= -margin."""
    A = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(A).real)
    return A - (shift + margin + rng.uniform(0.0, 1.0)) * np.eye(n)


def count_certificates(monkeypatch, *modules):
    """Route each module's ``certify_stability`` through one counter; returns
    the list of certified generators, which grows with every call."""
    calls = []
    for module in modules:
        def counted(A, original=module.certify_stability):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(module, "certify_stability", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
