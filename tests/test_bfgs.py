"""The resumable BFGS is scipy's BFGS, bit for bit.

``emastate.bfgs`` re-implements ``scipy.optimize.minimize(method="BFGS",
jac=True)`` as a generator so that many searches can share one evaluation
per round.  These tests run both on the same functions and compare every
reported field bit for bit: the final point, value and gradient, the
iteration and evaluation counts, the status and the message.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize as scipy_minimize

from emastate import bfgs

PENALTY = 1e12


def _quadratic(rng, n):
    M = rng.normal(size=(n, n))
    A = M @ M.T + 0.1 * np.eye(n)
    b = rng.normal(size=n)
    return lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b)


def _rosenbrock(rng, n):
    def f(x):
        d = x[1:] - x[:-1] ** 2
        g = -2.0 * (1.0 - x)
        g[1:] += 200.0 * d
        g[:-1] -= 400.0 * d * x[:-1]
        return 100.0 * np.sum(d ** 2) + np.sum((1.0 - x) ** 2), g
    return f


def _penalized(rng, n):
    """A quadratic that returns the penalty and a zero gradient past a
    wall, as a fit's objective does where its matrices overflow."""
    quad, wall = _quadratic(rng, n), rng.uniform(0.2, 1.5)
    return lambda x: (PENALTY, np.zeros_like(x)) if x.max() > wall else quad(x)


def _non_finite(rng, n):
    """A quadratic that is NaN outside a ball."""
    quad, radius = _quadratic(rng, n), rng.uniform(0.5, 3.0)
    return lambda x: quad(x) if x @ x < radius ** 2 else (np.nan, np.full_like(x, np.nan))


KINDS = {"quadratic": _quadratic, "rosenbrock": _rosenbrock, "penalized": _penalized,
         "non-finite": _non_finite}


def _fields(r):
    return (r.x.tobytes(), float(r.fun).hex(), np.asarray(r.jac).tobytes(), r.nit, r.nfev,
            r.njev, r.status, r.message)


def _scipy(fun, x0, gtol, maxiter):
    with np.errstate(all="ignore"):
        return scipy_minimize(fun, x0, jac=True, method="BFGS",
                              options={"gtol": gtol, "maxiter": maxiter})


def _lockstep(fun, starts, gtol, maxiter):
    seen = []

    def evaluate(pending):
        seen.append([i for i, _ in pending])
        return [fun(x) for _, x in pending]

    with np.errstate(all="ignore"):
        out = bfgs.minimize(evaluate, starts, gtol=gtol, maxiter=maxiter)
    return out, seen


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), kind=st.sampled_from(sorted(KINDS)),
       n_starts=st.integers(1, 3), maxiter=st.sampled_from([2, 200]),
       gtol=st.sampled_from([1e-3, 1e-6]), seed=st.integers(0, 2**32 - 1))
def test_each_lockstep_search_equals_scipy_bfgs_bit_for_bit(n, kind, n_starts, maxiter,
                                                           gtol, seed):
    rng = np.random.default_rng(seed)
    fun = KINDS[kind](rng, n)
    starts = [rng.normal(scale=1.5, size=n) for _ in range(n_starts)]
    out, rounds = _lockstep(fun, starts, gtol, maxiter)
    want = [_scipy(fun, x0, gtol, maxiter) for x0 in starts]
    assert [_fields(r) for r in out.results] == [_fields(r) for r in want]
    assert out.nfev == sum(r.nfev for r in want) and out.nit == sum(r.nit for r in want)
    assert rounds[0] == list(range(n_starts))       # the first round serves every search
    if maxiter == 2:
        assert all(r.nit <= 2 for r in out.results)


def test_a_failed_wolfe1_search_falls_back_to_wolfe2_as_scipy_does(monkeypatch):
    """sum |x| has no point that meets the curvature condition along a
    kinked line, so Moré-Thuente's search fails and ``line_search_wolfe2``
    runs, synchronously, for that one search."""
    calls = []
    wolfe2 = bfgs.line_search_wolfe2
    monkeypatch.setattr(bfgs, "line_search_wolfe2",
                        lambda *a, **k: calls.append(1) or wolfe2(*a, **k))

    def fun(x):
        return np.sum(np.abs(x)), np.sign(x)

    starts = [np.array([0.5, -0.7]), np.array([2.0, 1.0, -1.0])[:2], np.array([0.3, 0.2])]
    out, _ = _lockstep(fun, starts, 1e-6, 50)
    assert calls
    assert [_fields(r) for r in out.results] == [_fields(_scipy(fun, x0, 1e-6, 50))
                                                 for x0 in starts]


@pytest.mark.parametrize("maxiter", [2, 5])
def test_maxiter_stop_reports_scipy_s_status_and_message(maxiter):
    fun = _rosenbrock(None, 3)
    out, _ = _lockstep(fun, [np.array([-1.2, 1.0, 0.5])], 1e-8, maxiter)
    r = out.results[0]
    assert (r.status, r.message, r.nit) == (
        1, "Maximum number of iterations has been exceeded.", maxiter)
