"""Shared random-instance generators for the test suite."""

from functools import cached_property

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


def heat1d(n):
    """Dirichlet second differences on (0, 1): the exactly symmetric heat
    generator and its interior grid."""
    h = 1.0 / (n + 1)
    A = (np.diag(np.ones(n - 1), -1) + np.diag(np.full(n, -2.0))
         + np.diag(np.ones(n - 1), 1)) / h**2
    return A, h * np.arange(1, n + 1)


def convdiff1d(n, nu=1.0, c=10.0):
    """Central differences of u_t = nu u_xx - c u_x on (0, 1), Dirichlet
    ends: the non-normal convection-diffusion generator and its interior
    grid.  Its spectrum is real while the cell Peclet number c h / (2 nu) is
    below 1, with an eigenbasis whose condition number grows with c."""
    A, grid = heat1d(n)
    h = grid[0]
    convection = np.diag(np.ones(n - 1), -1) - np.diag(np.ones(n - 1), 1)
    return nu * A + c / (2.0 * h) * convection, grid


def iterate_p1_map(cfg, p0):
    """Iterate problem 1's fixed-point map p <- dG_p*(X Lambda X) / beta
    (``cfg.fixed_point_map``) from p0 until the step and the stationarity
    residual both meet cfg.tol; returns the iterates, the last one the
    limit.  Fails the test when cfg.max_iter maps do not get there."""
    from riccati_place.optimize import solve_state_pair

    history = [np.array(p0, dtype=float, ndmin=1)]
    for _ in range(cfg.max_iter):
        state = solve_state_pair(cfg, history[-1])
        image = cfg.fixed_point_map(state)
        if (np.linalg.norm(state.gradient(cfg)) <= cfg.tol
                and np.linalg.norm(image - state.p) <= cfg.tol):
            return history
        history.append(image)
    pytest.fail(f"the problem-1 map found no fixed point within {cfg.max_iter} maps")


def count_calls(monkeypatch, name, *owners, keywords=False):
    """Route attribute ``name`` of each owner (a module or object) through one
    counter; returns the list of positional-argument tuples, one per call,
    or of ``(args, kwargs)`` pairs with ``keywords=True``."""
    calls = []
    for owner in owners:
        def counted(*args, _original=getattr(owner, name), **kwargs):
            calls.append((args, kwargs) if keywords else args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def open_residual_bound(monkeypatch):
    """Leave every capacitance solve's residual bound open (an infinite
    bound for each member), so that each member forms its residual and is
    decided on it by ``riccati._residual_within``, as a bound too loose to
    decide would leave it.  An infinite bound proves no eigenbasis step."""
    from riccati_place import riccati

    monkeypatch.setattr(riccati, "_residual_bound",
                        lambda S_fro, Y, *args: np.full(Y.shape[:-2], np.inf))


def gram_members(calls):
    """Matrices put through the power steps on ``S'S`` among the
    ``linalg._power_bounds`` calls that ``count_calls(..., keywords=True)``
    recorded."""
    return sum(len(args[0]) for args, kwargs in calls if kwargs.get("gram"))


def count_computed(monkeypatch, owner, name):
    """Route the cached property ``name`` of the class ``owner`` through a
    counter; returns the list of instances it was computed for, one per
    computation (a cached read is not counted)."""
    fact = vars(owner)[name]
    computed = []

    def counted(instance):
        computed.append(instance)
        return fact.func(instance)

    replacement = cached_property(counted)
    replacement.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, replacement)
    return computed


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
