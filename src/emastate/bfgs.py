"""BFGS as a resumable search, and a driver that runs many searches in lockstep.

:func:`bfgs` is scipy 1.17's ``_minimize_bfgs`` (Nocedal & Wright 2006,
*Numerical Optimization*, ch. 6), as ``scipy.optimize.minimize(fun, x0,
jac=True, method="BFGS")`` runs it, turned into a generator: it yields each
point whose value and gradient it needs and is sent them back as ``(f, g)``.
Its line search is ``scalar_search_wolfe1``: Moré & Thuente's search (1994,
*ACM TOMS* 20:286), whose reverse-communication step scipy ships as
``DCSRCH._iterate``, here driven directly.  When that search fails, scipy's
``line_search_wolfe2`` runs on a plain function for that one search, as
``_line_search_wolfe12`` falls back.  A last-x memo reads and counts values
as ``ScalarFunction`` does, so the iterates, values, ``nit``, ``nfev``,
``status`` and ``message`` are scipy's, bit for bit.

:func:`minimize` runs a list of such searches together: each round it hands
the pending point of every live search to one ``evaluate`` call, so that a
caller can serve them all from one stacked pass.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._dcsrch import DCSRCH
from scipy.optimize._linesearch import LineSearchWarning, line_search_wolfe2
from scipy.optimize._optimize import _status_message, vecnorm

# _minimize_bfgs's line-search settings
_C1, _C2, _AMIN, _AMAX, _XTOL = 1e-4, 0.9, 1e-100, 1e100, 1e-14


class _Memo:
    """``ScalarFunction``'s last-x memo over a function returning (f, g), as
    ``minimize`` wraps ``jac=True``: f and g are counted (``nfev``,
    ``njev``) when first read at a new x, and the function runs when
    neither has been read there yet."""

    def __init__(self):
        self.x, self.fg, self.read, self.nfev, self.njev = None, None, [False, False], 0, 0

    def _stale(self, x) -> bool:
        if self.x is None or not np.array_equal(x, self.x):
            self.x, self.read = np.array(x, dtype=float), [False, False]
        return not any(self.read)

    def _take(self, fg):
        f, g = fg
        self.fg = (f if np.isscalar(f) else np.asarray(f).item(), np.atleast_1d(g))

    def _get(self, which: int):
        if not self.read[which]:
            self.read[which] = True
            if which:
                self.njev += 1
            else:
                self.nfev += 1
        return self.fg[which]

    def look(self, x, which: int):
        """Read f (0) or g (1) at x, yielding x when it must be evaluated."""
        if self._stale(x):
            self._take((yield np.copy(self.x)))
        return self._get(which)

    def call(self, x, which: int, fun):
        """:meth:`look` with ``fun`` evaluating at once."""
        if self._stale(x):
            self._take(fun(np.copy(self.x)))
        return self._get(which)


def _line_search(memo: _Memo, fun, xk, pk, gfk, old_fval, old_old_fval):
    """``_line_search_wolfe12`` as ``_minimize_bfgs`` calls it, as a
    generator: ``(alpha, f, f at xk, g)``, or None when both searches fail."""
    derphi0 = np.dot(gfk, pk)
    if old_old_fval is not None and derphi0 != 0:         # scalar_search_wolfe1
        alpha1 = min(1.0, 1.01*2*(old_fval - old_old_fval)/derphi0)
        if alpha1 < 0:
            alpha1 = 1.0
    else:
        alpha1 = 1.0
    dcsrch = DCSRCH(None, None, _C1, _C2, _XTOL, _AMIN, _AMAX)
    stp, phi1, derphi1, task, gval = alpha1, old_fval, derphi0, b"START", gfk
    for _ in range(100):                                  # DCSRCH.__call__
        stp, phi1, derphi1, task = dcsrch._iterate(alpha1, phi1, derphi1, task)
        if not np.isfinite(stp):
            task, stp = b"WARN", None
            break
        if task[:2] != b"FG":
            break
        alpha1 = stp
        phi1 = yield from memo.look(xk + stp*pk, 0)
        gval = yield from memo.look(xk + stp*pk, 1)
        derphi1 = np.dot(gval, pk)
    else:
        stp = None
    if stp is not None and task[:5] != b"ERROR" and task[:4] != b"WARN":
        return stp, phi1, old_fval, gval
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LineSearchWarning)
        alpha, _, _, fval, old_fval, gval = line_search_wolfe2(
            lambda x: memo.call(x, 0, fun), lambda x: memo.call(x, 1, fun), xk, pk, gfk,
            old_fval, old_old_fval, c1=_C1, c2=_C2, amax=_AMAX)
    return None if alpha is None else (alpha, fval, old_fval, gval)


def bfgs(x0, fun, gtol: float = 1e-5, maxiter: int | None = None):
    """``minimize(fun, x0, jac=True, method="BFGS", options={"gtol": gtol,
    "maxiter": maxiter})`` as a generator that yields each point to evaluate
    and is sent its ``(f, g)``; returns the same ``OptimizeResult``.
    ``fun(x) -> (f, g)`` evaluates only for the rare ``line_search_wolfe2``
    fallback."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).flatten()
    if maxiter is None:
        maxiter = len(x0) * 200
    memo = _Memo()
    old_fval = yield from memo.look(x0, 0)
    gfk = yield from memo.look(x0, 1)

    k = 0
    N = len(x0)
    I = np.eye(N, dtype=int)
    Hk = I
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2    # sets the first step to about 1
    xk = x0
    warnflag = 0
    xrtol = 0
    gnorm = vecnorm(gfk, ord=np.inf)
    while (gnorm > gtol) and (k < maxiter):
        pk = -np.dot(Hk, gfk)
        found = yield from _line_search(memo, fun, xk, pk, gfk, old_fval, old_old_fval)
        if found is None:
            warnflag = 2
            break
        alpha_k, old_fval, old_old_fval, gfkp1 = found
        sk = alpha_k * pk
        xkp1 = xk + sk
        xk = xkp1
        if gfkp1 is None:
            gfkp1 = yield from memo.look(xkp1, 1)
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = vecnorm(gfk, ord=np.inf)
        if (gnorm <= gtol):
            break
        if (alpha_k*vecnorm(pk) <= xrtol*(xrtol + vecnorm(xk))):
            break
        if not np.isfinite(old_fval):
            warnflag = 2
            break
        rhok_inv = np.dot(yk, sk)
        if rhok_inv == 0.:
            rhok = 1000.0
        else:
            rhok = 1. / rhok_inv
        A1 = I - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        A2 = I - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
        Hk = np.dot(A1, np.dot(Hk, A2)) + (rhok * sk[:, np.newaxis] *
                                           sk[np.newaxis, :])

    fval = old_fval
    if warnflag == 2:
        msg = _status_message['pr_loss']
    elif k >= maxiter:
        warnflag = 1
        msg = _status_message['maxiter']
    elif np.isnan(gnorm) or np.isnan(fval) or np.isnan(xk).any():
        warnflag = 3
        msg = _status_message['nan']
    else:
        msg = _status_message['success']
    return OptimizeResult(fun=fval, jac=gfk, hess_inv=Hk, nfev=memo.nfev,
                          njev=memo.njev, status=warnflag,
                          success=(warnflag == 0), message=msg, x=xk, nit=k)


def minimize(evaluate, starts, gtol: float, maxiter: int) -> OptimizeResult:
    """One :func:`bfgs` search from each start, all in lockstep.

    Each round, ``evaluate`` gets the pending point of every live search as
    a list of ``(search index, x)`` and returns their ``(f, g)`` in that
    order; each search then runs on to its next point or its end.  A
    search's fallback line search calls ``evaluate`` with its one point.
    Each search's iterates depend only on its own values, so each result is
    what a search run alone gives.  Returns ``results``, the searches'
    ``OptimizeResult`` in start order, with their summed ``nfev`` and
    ``nit``."""
    searches = [bfgs(x0, lambda x, i=i: evaluate([(i, x)])[0], gtol, maxiter)
                for i, x0 in enumerate(starts)]
    pending = {i: next(s) for i, s in enumerate(searches)}
    results = [None] * len(searches)
    while pending:
        live = list(pending.items())
        for (i, _), fg in zip(live, evaluate(live)):
            try:
                pending[i] = searches[i].send(fg)
            except StopIteration as stop:
                results[i] = stop.value
                del pending[i]
    return OptimizeResult(results=results, nfev=sum(r.nfev for r in results),
                          nit=sum(r.nit for r in results))
