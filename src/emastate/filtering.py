"""State estimation and likelihood evaluation.

Linear-Gaussian models get the exact Kalman filter and fixed-interval
smoother, with missing channels dropped from each update by zeroed selection
rows (a fully missing ping keeps the prediction untouched).  One recursion
runs over a stack of members that each carry their own series and spec
arrays: a pooled fit stacks participants (and, for 1x1 models, the
finite-difference points of every search of every compared candidate), CLI
``filter`` a chunk of participants, and every public filter is a stack of
one, so a participant gets the numbers, and the errors, of its own call.
One backward pass over a stored pass, Koopman & Shephard's disturbance
smoother (:func:`_backward`), serves both the exact score of matrix fits
(:func:`_kalman_score`) and the smoother, whose moments follow from it with
no inverse of a predicted covariance.
Models with up to 3 states and 2 channels run one recursion written out over
scalar entries, with S inverted in closed form: on Python floats per member
for small stacks, elementwise for large ones, bit for bit alike; larger
models run a vectorized matrix recursion.  Every filter, in both time
modes, takes its steps from one builder,
:func:`emastate.model._cohort_steps`: a table of the distinct steps and
each step's row in it.  In continuous time the table holds each distinct
inter-ping gap, discretized exactly by one truncated-Taylor kernel call
for all gaps of the cohort (:func:`emastate.model._gap_transitions`); in
discrete time it is the spec's own matrices.  Models with count,
ordinal, or dichotomous channels fall back to a bootstrap particle filter;
fits run its likelihood-only pass, which keeps no moments and gives the
filter's log-likelihood to the bit.

Both filters enter through one cohort entry point, :func:`_cohort`: the
public filters as a cohort of one (:func:`_alone`, which first validates
the spec), CLI ``filter --method kalman`` and each point of a particle fit
as a cohort of all participants.  It checks the filter's own arguments,
then each series, then builds every series' steps in one call (and for the
particle filter their noise factors), and raises the first failure in
participant order, as filtering one participant after another would.

Covariance updates use the Joseph form: EMA series are long and round-off
accumulates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, gammaln, log_expit

from .dataset import missing_cells
from .errors import EmaError
from .model import (GAUSSIAN, GRADED_RESPONSE, BERNOULLI_LOGISTIC, POISSON,
                    ModelSpec, _cohort_steps, _step_roots, psd_sqrt, require_valid)
from .model import discretize  # noqa: F401  (perfbench/spans.py wraps it here)

COND_LIMIT = 1e12
_TINY = np.finfo(float).tiny      # smallest normal double


@dataclass
class FilterResult:
    """Per-ping predicted and filtered state moments plus the likelihood."""

    timestamps: np.ndarray
    predicted_mean: np.ndarray      # (T, n)
    predicted_cov: np.ndarray       # (T, n, n)
    filtered_mean: np.ndarray       # (T, n)
    filtered_cov: np.ndarray        # (T, n, n)
    loglik_contributions: np.ndarray
    log_likelihood: float
    missing_handled: int            # pings with >= 1 missing channel
    missing: np.ndarray             # (T, p) mask actually used

    def to_delimited(self, y_names: list[str] | None = None, sep: str = ",") -> str:
        """One row per ping: time, filtered means/variances, loglik, miss flags."""
        n = self.filtered_mean.shape[1]
        p = self.missing.shape[1]
        if y_names is None:
            y_names = [f"y{j + 1}" for j in range(p)]
        header = (["t"] + [f"mean.s{i + 1}" for i in range(n)]
                  + [f"var.s{i + 1}" for i in range(n)] + ["loglik"]
                  + [f"miss.{nm}" for nm in y_names])
        row = _row_format(2 * n + 2, sep, p)
        values = np.column_stack([self.timestamps, self.filtered_mean,
                                  np.diagonal(self.filtered_cov, 0, 1, 2),
                                  self.loglik_contributions]).tolist()
        flags = self.missing.astype(int).tolist()
        return "\n".join([sep.join(header)]
                         + [row(*v, *m) for v, m in zip(values, flags)]) + "\n"


@dataclass
class SmoothResult:
    """Fixed-interval smoother output: the moments of each state given all
    observed cells; lag_one_cov[t] = Cov(x[t+1], x[t] | all)."""

    timestamps: np.ndarray
    smoothed_mean: np.ndarray
    smoothed_cov: np.ndarray
    lag_one_cov: np.ndarray         # (T-1, n, n)

    def to_delimited(self, sep: str = ",") -> str:
        n = self.smoothed_mean.shape[1]
        header = (["t"] + [f"mean.s{i + 1}" for i in range(n)]
                  + [f"var.s{i + 1}" for i in range(n)])
        row = _row_format(2 * n + 1, sep)
        values = np.column_stack([self.timestamps, self.smoothed_mean,
                                  np.diagonal(self.smoothed_cov, 0, 1, 2)]).tolist()
        return "\n".join([sep.join(header)] + [row(*v) for v in values]) + "\n"


def _row_format(n_numbers: int, sep: str, n_flags: int = 0):
    """One row's formatter: numbers as ``.12g``, then integer flags.  Python
    floats format exactly as the numpy scalars they came from."""
    sep = sep.replace("{", "{{").replace("}", "}}")
    return sep.join(["{:.12g}"] * n_numbers + ["{}"] * n_flags).format


_SINGULAR, _NON_FINITE = 1, 2     # per-member failure codes of a stacked pass
_SMALL_SHAPE = (3, 2)   # most (states, channels) that run the closed-form recursion


@dataclass
class _StackPass:
    """Output of :func:`_kalman_stack`, built by :func:`_pass_result`;
    ``fail`` is 0 or a failure code."""

    loglik: np.ndarray              # B (lean) or B + (T,) (stored)
    total: np.ndarray               # B; each member's log-likelihood
    fail: np.ndarray                # B
    fail_ping: np.ndarray           # B; first failing ping, -1 if none
    fail_eig: np.ndarray            # B + (2,); eigenvalue range of S there
    moments: tuple | None = None    # pred_m, pred_P, filt_m, filt_P
    scalar: bool = False            # a 1x1 pass: S is the variance s

    def raise_failure(self, member=()) -> None:
        """Raise the failure of one member (of a single-member pass by
        default), if any, in the words of that member's own filter call."""
        code, t = int(self.fail[member]), int(self.fail_ping[member])
        if code == _SINGULAR:
            lo, hi = self.fail_eig[member]
            raise EmaError("SINGULAR_INNOVATION",
                           f"innovation variance {lo:.3g} <= 0 at ping {t}" if self.scalar
                           else f"innovation covariance at ping {t} is numerically "
                                f"singular (eigenvalues {lo:.3g}..{hi:.3g})")
        if code == _NON_FINITE:
            what = "variance" if self.scalar else "covariance"
            raise EmaError("NON_FINITE", f"innovation or its {what} is non-finite at ping {t}")


def _pass_result(terms, seen, finite, lo, hi, L, batch, store, moments=None,
                 scalar=False) -> _StackPass:
    """The :class:`_StackPass` of either recursion, from these per member
    and ping, each (M, T): the likelihood term, whether the member observes
    a channel, whether its S is finite, and the eigenvalue range of S.  A
    member's total sums its terms over its own ``L`` pings, as the total of
    a single series does.  A member fails at its first observed ping whose
    S is non-finite (``NON_FINITE``) or fails the eigenvalue range check
    (``SINGULAR_INNOVATION``; on a ``scalar`` pass, where lo is hi, only
    lo > 0 can fail), else at its first non-finite term if its total is not
    finite.  Failed members may hold inf or NaN, so the callers run it
    under their ``np.errstate``."""
    M, T = terms.shape
    total = np.empty(M)
    for k in set(L.tolist()):           # each member over its own pings
        own = L == k
        total[own] = terms[own, :k].sum(-1)
    ok = finite & (lo > 0.0)
    flagged = seen & ~(ok if scalar else ok & (hi <= COND_LIMIT * lo))
    fail, fail_ping, fail_eig = np.zeros(M, dtype=int), np.full(M, -1), np.zeros((M, 2))
    failed, non_finite = flagged.any(-1), ~np.isfinite(total)
    if failed.any() or non_finite.any():
        member = np.arange(M)
        at = np.where(failed, flagged.argmax(-1), (~np.isfinite(terms)).argmax(-1))
        fail = np.where(failed, np.where(finite[member, at], _SINGULAR, _NON_FINITE),
                        np.where(non_finite, _NON_FINITE, 0))
        fail_ping = np.where(fail != 0, at, -1)
        singular = fail == _SINGULAR
        fail_eig[singular] = np.stack([lo[member, at], hi[member, at]], -1)[singular]
    return _StackPass((terms.reshape(batch + (T,)) if store else total.reshape(batch)),
                      total.reshape(batch), fail.reshape(batch), fail_ping.reshape(batch),
                      fail_eig.reshape(batch + (2,)), moments, scalar)


def _kalman_stack(y, obs, u, mu0, P0, H, Theta, trans, store=False,
                  lengths=None) -> _StackPass:
    """One predict/update recursion over a stack of members.

    Every argument's leading axes broadcast to the stack shape B, so members
    may share data (participants) or spec arrays (finite-difference points):
    ``y``/``obs`` (..., T, p), ``u`` (..., T, q), ``mu0`` (..., n),
    ``P0``/``H``/``Theta`` (..., n, n)/(..., p, n)/(..., p, p).
    ``trans`` is (A, Sigma, G), each stacked over the steps: (T-1, ...),
    entry k for the step into ping k+1, or (1, ...) when one step serves
    every ping.  ``lengths`` (broadcast to B; all T by default) counts the
    pings of each member's own series.

    Unobserved cells leave the update by the selection device of Durbin &
    Koopman (2012, *Time Series Analysis by State Space Methods*, ch. 4,
    missing observations): that channel's H row, residual and Theta row
    and column are zeroed and it gets its own innovation variance c, so it
    decouples and adds nothing.  Here c is an observed diagonal entry of S,
    which lies in [lambda_min, lambda_max] of the observed block, so the
    padded eigenvalue check equals the check on that block; log c is taken
    back out of the log-determinant.

    Where a member's S is non-finite or fails the eigenvalue check, it is
    read as I, so no solve raises; :func:`_pass_result` fails that member
    alone, and its later numbers are not read.  With ``store`` the per-ping
    moments and likelihood terms are kept; otherwise only each member's
    total, summed over its own pings as in a stored pass, so both give the
    same numbers.

    Up to ``_SMALL_SHAPE`` (states, channels), :func:`_small_stack` runs
    instead.
    """
    T, p = y.shape[-2:]
    n = mu0.shape[-1]
    shapes = [y.shape[:-2], mu0.shape[:-1], P0.shape[:-2], H.shape[:-2],
              Theta.shape[:-2]]
    batch = np.broadcast_shapes(*shapes, *(np.shape(x)[1:-2] for x in trans))
    L = np.broadcast_to(T if lengths is None else lengths, batch)
    if n <= _SMALL_SHAPE[0] and p <= _SMALL_SHAPE[1] and T:
        return _small_stack(y, obs, u, mu0, P0, H, Theta, trans, store, L)
    I_n, I_p = np.eye(n), np.eye(p)
    Ht = H.swapaxes(-1, -2)
    log_2pi = np.log(2.0 * np.pi)

    # masks of the data stack, per ping
    flat = obs.reshape((math.prod(obs.shape[:-2]),) + obs.shape[-2:])
    any_obs = flat.any(axis=(0, 2)).tolist()
    all_obs = flat.all(axis=(0, 2)).tolist()
    obs_pair = obs[..., :, None] & obs[..., None, :]
    miss_diag = (~obs)[..., None] * I_p
    member_any = obs.any(-1)
    n_obs = obs.sum(-1)

    m = np.broadcast_to(mu0, batch + (n,))
    P = np.broadcast_to(P0, batch + (n, n))
    ll, lo, hi = np.zeros((3,) + batch + (T,))
    finite = np.ones(batch + (T,), dtype=bool)
    if store:
        pm = np.zeros(batch + (T, n)); pP = np.zeros(batch + (T, n, n))
        fm = np.zeros_like(pm); fP = np.zeros_like(pP)

    with np.errstate(all="ignore"):     # failures are found after the loop
        for t in range(T):
            if t:
                if t == 1 or len(trans[0]) > 1:     # else one step serves every ping
                    A, Sigma, G = (x[t - 1] for x in trans)
                    At = A.swapaxes(-1, -2)
                m = (A @ m[..., None])[..., 0]
                if G.shape[-1]:
                    m = m + (G @ u[..., t - 1, :, None])[..., 0]
                P = A @ P @ At + Sigma
                P = 0.5 * (P + P.swapaxes(-1, -2))
            if store:
                pm[..., t, :], pP[..., t, :, :] = m, P
            if not any_obs[t]:
                if store:
                    fm[..., t, :], fP[..., t, :, :] = m, P
                continue

            HP = H @ P
            S = HP @ Ht + Theta
            v = y[..., t, :] - (H @ m[..., None])[..., 0]
            log_pad = 0.0
            if not all_obs[t]:
                o = obs[..., t, :]
                HP = np.where(o[..., None], HP, 0.0)
                v = np.where(o, v, 0.0)
                S = np.where(obs_pair[..., t, :, :], S, 0.0)
                c = np.where(member_any[..., t],
                             np.diagonal(S, 0, -2, -1).max(-1), 1.0)
                S = S + c[..., None, None] * miss_diag[..., t, :, :]
                log_pad = (p - n_obs[..., t]) * np.log(c)
            S = 0.5 * (S + S.swapaxes(-1, -2))

            if not math.isfinite(S.sum()):
                finite[..., t] = np.isfinite(S).all((-2, -1))
                S = np.where(finite[..., t, None, None], S, I_p)
            w = np.linalg.eigvalsh(S)
            lo[..., t], hi[..., t] = w[..., 0], w[..., -1]
            ok = (w[..., 0] > 0.0) & (w[..., -1] <= COND_LIMIT * w[..., 0])
            if not ok.all():
                S = np.where(ok[..., None, None], S, I_p)

            X = np.linalg.solve(S, np.concatenate([HP, v[..., None]], axis=-1))
            K = X[..., :n].swapaxes(-1, -2)
            m = m + (K @ v[..., None])[..., 0]
            IKH = I_n - K @ H
            P = IKH @ P @ IKH.swapaxes(-1, -2) + K @ Theta @ X[..., :n]
            P = 0.5 * (P + P.swapaxes(-1, -2))
            step = -0.5 * (n_obs[..., t] * log_2pi + np.log(w).sum(-1) - log_pad
                           + (v * X[..., n]).sum(-1))
            ll[..., t] = np.where(member_any[..., t], step, 0.0)    # not -0.0
            if store:
                fm[..., t, :], fP[..., t, :, :] = m, P

        return _pass_result(*(np.broadcast_to(x, batch + (T,)).reshape(L.size, T)
                              for x in (ll, member_any, finite, lo, hi)),
                            L.reshape(-1), batch, store, (pm, pP, fm, fP) if store else None)


def _sym(x, i, j):
    return f"{x}{min(i, j)}{max(i, j)}"


def _names(x, I, J, upper=False):
    return ", ".join(f"{x}{i}{j}" for i in I for j in J if not upper or i <= j) + ","


def _each(x, I, J, expr, upper=False, pad=8):
    """Source of one statement ``x_ij = expr(i, j)`` per entry."""
    return "\n".join(f"{' ' * pad}{x}{i}{j} = {expr(i, j)}"
                     for i in I for j in J if not upper or i <= j)


def _dot(terms):
    return " + ".join(terms)


@functools.cache
def _small_recursion(n: int, p: int, elementwise: bool):
    """The predict/update recursion of an n-state, p-channel model, written
    out over scalar entries: on Python floats for one member or, with
    ``elementwise``, on (members,) arrays, the same operations in the same
    order, so both forms give the same numbers bit for bit.

    The update is the selection device of :func:`_kalman_stack` with c = 1
    (a missing channel's gain column is 0 and det S is the observed
    block's), S is inverted as adjugate over determinant, and P takes
    Joseph's form; symmetric matrices are kept as upper triangles (Sigma as
    Q, Theta as R).  The float form stops before dividing by an S that is not
    positive definite.  Returns flat lists of the predicted and filtered (m,
    P) per ping and of (S, det S, v' S^-1 v) per update (no det S if p = 1).
    """
    N, C = range(n), range(p)

    def pick(c, a, b):
        return f"np.where({c}, {a}, {b})" if elementwise else f"({a} if {c} else {b})"

    m, P = ", ".join(f"m{i}" for i in N) + ",", _names("P", N, N, True)
    if p == 1:
        inverse = f"""
        {'' if elementwise else 'if not S00 > 0.0: inn += (S00, 0.0); break'}
        inn += (S00, v0*v0 / S00)
{_each("K", N, [0], lambda i, j: f"F0{i} / S00")}"""
    else:
        inverse = f"""
        if not full:
            o0, o1 = os[t]
{_each("F", C, N, lambda j, k: pick(f"o{j}", f"F{j}{k}", "0.0"), pad=12)}
            v0, v1 = {pick("o0", "v0", "0.0")}, {pick("o1", "v1", "0.0")}
            S00, S11 = {pick("o0", "S00", "1.0")}, {pick("o1", "S11", "1.0")}
            S01 = {pick("o0 & o1", "S01", "0.0")}
        det = S00*S11 - S01*S01
        {'' if elementwise else
         'if not (det > 0.0 and S00 > 0.0): inn += (S00, S01, S11, det, 0.0); break'}
        inn += (S00, S01, S11, det, (v0*(S11*v0 - S01*v1) + v1*(S00*v1 - S01*v0)) / det)
{_each("K", N, [0], lambda i, j: f"(F0{i}*S11 - F1{i}*S01) / det")}
{_each("K", N, [1], lambda i, j: f"(F1{i}*S00 - F0{i}*S01) / det")}"""
    restore = f"""
        if not seen:
            hit = {" | ".join(f"os[t][{j}]" for j in C)}
            {m} {P} = [np.where(hit, a, b) for a, b in zip(({m} {P}), x)]"""
    source = f"""
def rec(ys, os, gus, steps, m, P, H, R, flags, fill):
    {m} = m
    {P} = P
    {_names("H", C, N)} = H
    {_names("R", C, C, True)} = R
    pred, filt, inn = [], [], []
    for t, (live, full, seen) in enumerate(flags):
        if t:
            ({_names("A", N, N)}), ({_names("Q", N, N, True)}) = steps[t - 1]
            {", ".join(f"g{i}" for i in N)}, = gus[t - 1]
            {m} = {"".join(_dot([f"A{i}{k}*m{k}" for k in N] + [f"g{i}"]) + ", " for i in N)}
{_each("X", N, N, lambda i, k: _dot(f"A{i}{j}*{_sym('P', j, k)}" for j in N), pad=12)}
{_each("P", N, N, lambda i, j: _dot([f"X{i}{k}*A{j}{k}" for k in N] + [f"Q{i}{j}"]), True, 12)}
        x = ({m} {P})
        pred += x
        if not live:
            filt += x
            inn += fill
            continue
        {", ".join(f"y{j}" for j in C)}, = ys[t]
{_each("F", C, N, lambda j, k: _dot(f"H{j}{i}*{_sym('P', i, k)}" for i in N))}
{_each("S", C, C, lambda j, k: _dot([f"F{j}{i}*H{k}{i}" for i in N] + [f"R{j}{k}"]), True)}
{_each("v", C, [""], lambda j, _: f"y{j} - ({_dot(f'H{j}{i}*m{i}' for i in N)})")}{inverse}
{_each("I", N, N, lambda i, k: f"{'1.0 - ' if i == k else '-'}({_dot(f'K{i}{j}*H{j}{k}' for j in C)})")}
{_each("J", N, N, lambda i, k: _dot(f"I{i}{j}*{_sym('P', j, k)}" for j in N))}
{_each("W", N, C, lambda i, k: _dot(f"K{i}{j}*{_sym('R', j, k)}" for j in C))}
        {m} = {"".join(f"m{i} + ({_dot(f'K{i}{j}*v{j}' for j in C)}), " for i in N)}
{_each("P", N, N, lambda i, j: _dot(f"J{i}{k}*I{j}{k}" for k in N)
      + f" + ({_dot(f'W{i}{k}*K{j}{k}' for k in C)})", True)}{restore if elementwise else ""}
        filt += ({m} {P})
    return pred, filt, inn
"""
    scope = {"np": np}
    exec(compile(source, f"<small Kalman recursion {n}x{p}>", "exec"), scope)
    return scope["rec"]


@functools.cache
def _small_backward(n: int):
    """The backward loop of :func:`_backward` for n states, written out
    over Python floats: from the last ping down, r = b + L' r and
    N = B + (L' N) L from r = 0 and N = 0, each sum in index order, N kept
    as its upper triangle.  Takes per ping, last first, the row b, B (upper
    triangle), L (row-major); returns r and N after each ping, flat and last
    first."""
    N = range(n)
    r, NN = _names("r", N, [""]), _names("N", N, N, True)
    source = f"""
def back(rows):
    {r} = {"0.0, " * n}
    {NN} = {"0.0, " * (n * (n + 1) // 2)}
    out = []
    for {_names("b", N, [""])} {_names("B", N, N, True)} {_names("L", N, N)} in rows:
{_each("E", N, N, lambda i, k: _dot(f"L{j}{i}*{_sym('N', j, k)}" for j in N))}
        {r} = {"".join(f"b{i} + ({_dot(f'L{j}{i}*r{j}' for j in N)}), " for i in N)}
{_each("N", N, N, lambda i, j: f"B{i}{j} + ({_dot(f'E{i}{k}*L{k}{j}' for k in N)})", True)}
        out += ({r} {NN})
    return out
"""
    scope = {}
    exec(compile(source, f"<small backward loop {n}>", "exec"), scope)
    return scope["back"]


def _backward(y, obs, a, P, A, H, Theta):
    """The backward pass of Koopman & Shephard's disturbance smoother over a
    stack of M members (Koopman & Shephard 1992, *Biometrika* 79:823; Durbin
    & Koopman 2012, sec. 4.4-4.7), from the predicted moments ``a``
    (M, T, n) and ``P`` (M, T, n, n) of a stored :func:`_kalman_stack`
    pass.  ``A`` broadcasts to (M, T, n, n): entry t is the step out of ping
    t, and the last entry is never read.

    Per ping t, with Z and Theta restricted to the observed channels,
    F = Z P Z' + Theta, v = y - Z a, K = A P Z' F^-1 and L = A - K Z (K = 0
    and L = A where nothing is observed), the pass runs
    r[t-1] = Z' F^-1 v + L' r[t], N[t-1] = Z' F^-1 Z + L' N[t] L from
    r[T-1] = N[T-1] = 0.  Returns Z, F^-1, F^-1 v, K, L and r[t-1], N[t-1]
    per ping.  Up to ``_SMALL_SHAPE[0]`` states and below
    ``_SCORE_MIN_MEMBERS`` members the loop runs per member on floats
    (:func:`_small_backward`), else over all members at once.
    """
    M, T, p = y.shape
    n = a.shape[-1]
    pair = obs[..., :, None] & obs[..., None, :]
    Z = np.where(obs[..., None], H, 0.0)                            # (M, T, p, n)
    Zt = Z.swapaxes(-1, -2)
    F = Z @ P @ Zt + np.where(pair, Theta, 0.0) + (~obs)[..., None] * np.eye(p)
    Finv = np.where(pair, np.linalg.inv(F), 0.0)
    Fv = (Finv @ np.where(obs, y - (H @ a[..., None])[..., 0], 0.0)[..., None])[..., 0]
    ZtFinv = Zt @ Finv
    K = A @ P @ ZtFinv                                              # (M, T, n, p)
    L = A - K @ Z
    b, B = (Zt @ Fv[..., None])[..., 0], ZtFinv @ Z

    if n <= _SMALL_SHAPE[0] and M < _SCORE_MIN_MEMBERS:
        iu, ju, full = _upper(n)
        rows = np.concatenate([b, B[..., iu, ju], L.reshape(M, T, n * n)], -1)
        back = _small_backward(n)
        out = np.array([back(x) for x in rows[:, ::-1].tolist()]).reshape(M, T, -1)[:, ::-1]
        rr, NN = out[..., :n], out[..., n + full]
    else:
        rr, NN = np.zeros((M, T, n)), np.zeros((M, T, n, n))
        r, Nt, Lt = np.zeros((M, n)), np.zeros((M, n, n)), L.swapaxes(-1, -2)
        for t in range(T - 1, -1, -1):
            r = b[:, t] + (Lt[:, t] @ r[..., None])[..., 0]
            Nt = B[:, t] + Lt[:, t] @ Nt @ L[:, t]
            rr[:, t], NN[:, t] = r, Nt
    return Z, Finv, Fv, K, L, rr, NN


def _kalman_score(y, obs, u, a, P, A, H, Theta) -> dict:
    """Gradients of the summed log-likelihood of a stack of members that
    share one discrete-time spec, in its seven matrices (keyed by their
    ``ModelSpec`` names), from the members' predicted moments ``a``
    (M, T, n) and ``P`` (M, T, n, n) of a stored :func:`_kalman_stack` pass
    and the backward pass of :func:`_backward` (Durbin & Koopman 2012,
    sec. 7.3.3).

    With x = a + P r[t-1], e = F^-1 v - K' r[t] and D = F^-1 + K' N[t] K,
    symmetric matrices M get the symmetric G with dl = tr(G dM).  No inverse
    of Sigma, Theta or P0 is taken.  A member's pings after its last
    observed one add nothing, so they are zeroed first.
    """
    M, T = y.shape[:2]
    n = a.shape[-1]
    seen = obs.any(-1)
    last = np.where(seen.any(-1), T - 1 - seen[:, ::-1].argmax(-1), -1)
    beyond = np.arange(T) > last[:, None]
    a = np.where(beyond[..., None], 0.0, a)
    P = np.where(beyond[..., None, None], 0.0, P)
    Z, Finv, Fv, K, L, rr, NN = _backward(y, obs, a, P, A, H, Theta)
    # r[t], N[t] per ping (0 at the last); r[-1], N[-1] are rr[:, 0], NN[:, 0]
    r = np.concatenate([rr[:, 1:], np.zeros((M, 1, n))], 1)
    Nt = np.concatenate([NN[:, 1:], np.zeros((M, 1, n, n))], 1)
    x = a + (P @ rr[..., None])[..., 0]
    LP = L @ P
    e = Fv - (K.swapaxes(-1, -2) @ r[..., None])[..., 0]
    KtN = K.swapaxes(-1, -2) @ Nt

    def outer(f, g):            # sum over members and pings of f g'
        k = f.size // f.shape[-1]
        return f.reshape(k, -1).T @ g.reshape(k, g.shape[-1])

    return {"A": outer(r, x) - (Nt @ LP).sum((0, 1)),
            "G": outer(r, u),
            "Sigma": 0.5 * (outer(r, r) - Nt.sum((0, 1))),
            "H": outer(e, x) - (Finv @ Z @ P - KtN @ LP).sum((0, 1)),
            "Theta": 0.5 * (outer(e, e) - (Finv + KtN @ K).sum((0, 1))),
            "initial_mean": rr[:, 0].sum(0),
            "initial_cov": 0.5 * (outer(rr[:, 0], rr[:, 0]) - NN[:, 0].sum(0))}


@functools.cache
def _upper(n: int):
    """Indices of an n x n upper triangle, and where each (i, j) is in it."""
    iu, ju = np.triu_indices(n)
    at = np.zeros((n, n), dtype=int)
    at[iu, ju] = at[ju, iu] = np.arange(iu.size)
    return iu, ju, at


def _eig_range(a, b, d):
    """Closed-form (lambda_min, lambda_max) of the symmetric [[a, b], [b, d]]:
    within a few eps ||S|| of the exact values when it is PSD, as LAPACK's."""
    hi = (a + d) / 2 + np.sqrt(((a - d) / 2) ** 2 + b * b)
    return (a * d - b * b) / hi, hi


# Measured crossovers (README.md): a stack of fewer members runs the float
# form once per member, for 1x1 models and for the other small shapes; and
# the backward pass (_backward) runs per member on floats.
_STACK_MIN_MEMBERS, _STACK_MIN_MEMBERS_SMALL, _SCORE_MIN_MEMBERS = 8, 32, 8


def _paired_1x1(y, o, gu, a, sigma, m0, P0, h, theta):
    """The elementwise form of the 1x1 recursion with [P, m] paired in one
    array, so that one ufunc steps both: about 16 calls per ping, not 24.
    Its operations are the float form's, at most commuted (m a is taken as
    m a 1, y - h m as y + h m (-1), and a sum as its mirror image, all of
    which IEEE arithmetic leaves exact), so its numbers are too.  It stays
    in cache at any width: a shared step is one (2, M) row, the outputs
    start out holding the terms each ping adds to ([Sigma, G u] in the
    predictions, [theta, y] in the innovations), and each filtered row,
    an unobserved ping's too, is written as the loop reaches it.  Arguments
    are per ping (T, M) or per step (steps, M) or (1, M); returns the
    elementwise form's (pred, filt, inn) as (T, 2, M)."""
    T, M = y.shape
    steps = len(a)

    def pair(first, second, lead=()):
        out = np.empty(lead + (2, M))
        out[..., 0, :], out[..., 1, :] = first, second
        return out

    a_a, a_one = pair(a, a, (steps,)), pair(a, 1.0, (steps,))
    h_h, h_neg, q = pair(h, h), pair(h, -1.0), pair(-h, theta)
    any_obs, all_obs, miss = o.any(1).tolist(), o.all(1).tolist(), ~o
    pred = np.empty((T, 2, M))              # per ping: [P, m] predicted
    pred[0, 0], pred[0, 1] = P0, m0
    pred[1:, 0], pred[1:, 1] = sigma, gu
    filt = np.empty_like(pred)              # and filtered
    inn = np.empty_like(pred)               # per ping: s, v, then v' S^-1 v
    inn[:, 0], inn[:, 1] = theta, y
    for t in range(T):
        x_p = pred[t]
        if t:
            j = t - 1 if steps > 1 else 0
            step = x * a_a[j]
            step *= a_one[j]
            x_p += step                                 # [a P a + Sigma, a m + G u]
        if not any_obs[t]:
            filt[t] = x = x_p
            continue
        s_v = inn[t]
        hx = x_p * h_h                                  # [h P, h m]
        s_v += hx * h_neg                               # [s, v]
        k = hx[0] / s_v[0]
        kq = k * q                                      # [-k h, k theta]
        x = filt[t]
        np.add(x_p[1], k * s_v[1], out=x[1])            # m + k v
        ikh = 1.0 + kq[0]
        joseph = ikh * x_p[0]
        joseph *= ikh
        np.add(joseph, kq[1] * k, out=x[0])            # ikh P ikh + k theta k
        if not all_obs[t]:
            np.copyto(x, x_p, where=miss[t])
    inn[:, 1] = inn[:, 1] * inn[:, 1] / inn[:, 0]       # [s, v' S^-1 v]
    return pred[:, ::-1], filt[:, ::-1], inn


def _small_stack(y, obs, u, mu0, P0, H, Theta, trans, store, L) -> _StackPass:
    """:func:`_kalman_stack` by :func:`_small_recursion`: on floats once per
    member over its own pings (fewer than ``_STACK_MIN_MEMBERS`` members for
    1x1, ``_STACK_MIN_MEMBERS_SMALL`` else), or elementwise over all members
    (1x1: :func:`_paired_1x1`).  The likelihood terms and the eigenvalue
    range of S (:func:`_eig_range`) come after the loop from each ping's S,
    det S and quadratic form, alike for both forms; :func:`_pass_result`
    finds the failures.
    """
    T, p = y.shape[-2:]
    n, q = mu0.shape[-1], u.shape[-1]
    batch = L.shape
    M = math.prod(batch)
    iu, ju, full = _upper(n)
    ip, jp, _ = _upper(p)

    def lanes(x, core=2, lead=0):
        """x, the axes after ``lead`` but before ``core`` made one last axis of B."""
        outer, inner, nb = x.shape[:lead], x.shape[x.ndim - core:], len(batch)
        if M == 1:
            return x.reshape(outer + inner + (1,))
        out = np.empty(outer + inner + batch, dtype=x.dtype)
        out.transpose(*range(lead), *range(lead + core, lead + core + nb),
                      *range(lead, lead + core))[...] = \
            x.reshape(outer + (1,) * (nb + lead + core - x.ndim) + x.shape[lead:])
        return out.reshape(outer + inner + (M,))

    ys, os, us, L = lanes(y), lanes(obs), lanes(u), L.reshape(M)      # (T, p or q, M)
    start = [lanes(mu0, 1), lanes(P0)[iu, ju], lanes(H).reshape(p * n, M), lanes(Theta)[ip, jp]]
    A, Q, G = (lanes(x, 2, 1) for x in trans)      # (steps, ., ., M)
    shared = len(A) == 1        # then one step serves every ping
    A, Q = A.reshape(len(A), n * n, M), Q[:, iu, ju]
    gus = np.zeros((T - 1, n, M))
    for k in range(q):          # G u elementwise, inputs in order
        term = G[:, :, k] * us[:-1, None, k]
        gus = term if k == 0 else gus + term

    floats = M < (_STACK_MIN_MEMBERS if n == p == 1 else _STACK_MIN_MEMBERS_SMALL)
    fill = (1.0, 0.0) if p == 1 else (1.0, 0.0, 1.0, 1.0, 0.0)
    with np.errstate(all="ignore"):     # failures are detected after the loop
        if floats:
            pred = np.zeros((M, T * (n + iu.size))); filt = np.zeros_like(pred)
            inn = np.tile(fill, (M, T))
            rec = _small_recursion(n, p, False)
            for r in range(M):
                k = int(L[r])
                live = os[:k, :, r].any(1).tolist()
                steps = list(zip(A[..., r].tolist(), Q[..., r].tolist()))
                out = rec(ys[:k, :, r].tolist(), os[:k, :, r].tolist(), gus[..., r].tolist(),
                          steps * (k - 1) if shared else steps[:max(k - 1, 0)],
                          *(x[:, r].tolist() for x in start),
                          list(zip(live, os[:k, :, r].all(1).tolist(), live)), fill)
                for arr, rows in zip((pred, filt, inn), out):
                    arr[r, :len(rows)] = rows
            pred, filt, inn = (x.reshape(M, T, -1).transpose(1, 2, 0) for x in (pred, filt, inn))
        elif n == p == 1:
            pred, filt, inn = _paired_1x1(ys[:, 0], os[:, 0], gus[:, 0], A[:, 0], Q[:, 0],
                                          *(x[0] for x in start))
        else:
            flags = zip(os.any((1, 2)).tolist(), os.all((1, 2)).tolist(),
                        os.any(1).all(1).tolist())
            out = _small_recursion(n, p, True)(
                list(ys), list(os), list(gus),
                [(A[0], Q[0])] * (T - 1) if shared else list(zip(A, Q)), *start,
                list(flags), tuple(np.full(M, v) for v in fill))
            pred, filt, inn = (np.reshape(x, (T, -1, M)) if store or x is out[2] else None
                               for x in out)

        seen = os.any(1)                                            # (T, M)
        det, quad = inn[:, 0 if p == 1 else 3], inn[:, -1]
        n_obs = seen if p == 1 else os.sum(1)
        terms = np.where(seen, -0.5 * (n_obs * np.log(2.0 * np.pi) + np.log(det) + quad),
                         0.0).T.copy()                              # (M, T)
        if p == 1:              # lambda_min = lambda_max = s
            lo = hi = inn[:, 0]
            finite = np.isfinite(lo)
        else:
            a, b, d = inn[:, 0], inn[:, 1], inn[:, 2]
            alone = np.where(os[:, 0], a, d)            # one observed channel
            lo, hi = (np.where(os.all(1), x, alone) for x in _eig_range(a, b, d))
            finite = np.isfinite(inn[:, :-1]).all(1)
        moments = None
        if store:
            moments = ()
            for x in (pred, filt):
                moments += (x[:, :n].transpose(2, 0, 1).reshape(batch + (T, n)),
                            x[:, n + full].transpose(3, 0, 1, 2).reshape(batch + (T, n, n)))
        return _pass_result(terms, seen.T, finite.T, lo.T, hi.T, L, batch, store, moments,
                            scalar=n == p == 1)


def _series(spec: ModelSpec, y, missing, u, timestamps):
    """Checked (y, missing, u) of one series, NaN cells counted as missing
    and every observed cell finite, and its timestamps.

    Timestamps default to 0, 1, 2, ... and are required in continuous
    time; given ones must be finite and strictly increasing.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    T = y.shape[0]
    if y.shape[1] != spec.n_obs:
        raise EmaError("INVALID_MODEL",
                       f"series has {y.shape[1]} channels, model expects {spec.n_obs}")
    missing = missing_cells(y, False if missing is None else np.atleast_2d(missing))
    if u is None:
        u = np.zeros((T, spec.n_inputs))
    else:
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            u = u.reshape(T, -1)
        if u.shape != (T, spec.n_inputs):
            raise EmaError("INVALID_MODEL",
                           f"U has shape {u.shape}, expected ({T}, {spec.n_inputs})")
        if not math.isfinite(u.sum()) and not np.isfinite(u).all():
            t = int(np.argmax(~np.isfinite(u).all(axis=1)))
            raise EmaError("NA_IN_U", f"input at ping {t} is missing or non-finite")
    bad = (np.isinf(y) & ~missing).any(axis=1)
    if bad.any():
        raise EmaError("NON_FINITE", f"observed value at ping {int(np.argmax(bad))} is infinite")
    continuous = spec.time_mode == "continuous"
    if timestamps is None:
        if continuous:
            raise EmaError("INVALID_MODEL", "a continuous-time spec needs timestamps")
        timestamps = np.arange(T, dtype=float)
    timestamps = np.asarray(timestamps, dtype=float).reshape(-1)
    if timestamps.size != T:
        raise EmaError("INVALID_MODEL", f"{timestamps.size} timestamps for {T} pings")
    # compared, not differenced: an overflowing gap is the gap kernel's error
    if not (np.isfinite(timestamps).all() and (timestamps[1:] > timestamps[:-1]).all()):
        raise EmaError("NON_MONOTONE_TIME", "timestamps must be finite and strictly increasing")
    return y, missing, u, timestamps


def _require_gaussian(spec: ModelSpec) -> None:
    if not spec.all_gaussian:
        raise EmaError("LIKELIHOOD_MODE_MISMATCH",
                       "the Kalman filter applies only to all-Gaussian channels; "
                       "use particle_filter for count/ordinal/dichotomous data")


def _alone(spec: ModelSpec, y, missing, u, timestamps, **particles):
    """The filter of one series, run as a cohort of one (:func:`_cohort`,
    with ``particles`` its particle arguments), and the transition matrices
    of its steps; the spec must pass :func:`~emastate.model.validate_model`."""
    require_valid(spec)
    one = SimpleNamespace(Y=y, missing=missing, U=u, timestamps=timestamps)
    return next(_cohort(spec, [one], **particles))


def kalman_filter(spec: ModelSpec, y, missing=None, u=None,
                  timestamps=None) -> FilterResult:
    """Exact filter for a discrete-time all-Gaussian spec.

    Missing channels are dropped from that ping's update and from the
    likelihood; the prediction-error decomposition therefore covers observed
    cells only.
    """
    if spec.time_mode != "discrete":
        raise EmaError("INVALID_MODEL", "kalman_filter expects a discrete-time spec; "
                                        "use kalman_filter_ct")
    return _alone(spec, y, missing, u, timestamps)[0]


def kalman_filter_ct(spec: ModelSpec, timestamps, y, missing=None,
                     u=None) -> FilterResult:
    """Filter a continuous-time spec over arbitrarily spaced pings.

    Each gap is discretized exactly (matrix exponential of the drift and the
    matching noise integral), then one predict/update step runs; inputs are
    held over the gap.
    """
    if spec.time_mode != "continuous":
        raise EmaError("INVALID_MODEL", "kalman_filter_ct expects a continuous-time spec")
    return _alone(spec, y, missing, u, timestamps)[0]


def _stack_series(series, p: int, q: int):
    """Checked series (y, missing, u, ...) as (R, T_max, .) arrays of y, the
    observed mask and u, plus each series' ping count; pings past a series'
    end count as unobserved."""
    lengths = np.array([s[0].shape[0] for s in series])
    R, T = len(series), int(lengths.max())
    y = np.zeros((R, T, p))
    obs = np.zeros((R, T, p), dtype=bool)
    u = np.zeros((R, T, q))
    for r, (Y, missing, U, *_) in enumerate(series):
        k = lengths[r]
        y[r, :k], obs[r, :k], u[r, :k] = Y, ~missing, U
    return y, obs, u, lengths


def _gap_steps(table, rows):
    """The steps (A, Sigma, G) of a stack of members as :func:`_kalman_stack`
    takes them: step k of member b is entry ``rows[b + (k,)]`` of ``table``
    (:func:`~emastate.model._cohort_steps`), stacked as (steps,) + B + its
    matrix shape, and a row of -1, past a member's last ping, is the
    identity with no noise and no input.  A one-entry table is one step
    that serves every ping, so it passes as it is."""
    if len(table[0]) == 1:
        return table
    pad = (np.eye(table[0].shape[-1]), *(np.zeros(x.shape[1:]) for x in table[1:]))
    rows = np.moveaxis(rows, -1, 0)
    return tuple(np.concatenate([x, e[None]])[rows] for x, e in zip(table, pad))


# Members of one stacked pass of :func:`_kalman_runs`: bounds the memory of
# its stored moments on big cohorts.
_COHORT_CHUNK = 64


def _cohort(spec: ModelSpec, participants, n_particles=None, seed=None, store=True):
    """Yield the filter of each participant (objects with ``Y``,
    ``missing``, ``U`` and ``timestamps``) in order, with the (T-1, n, n)
    transition matrices of its steps: the Kalman filter, or with
    ``n_particles`` the particle filter, each participant's draws from its
    own generator seeded with ``seed``.  Every filter of the package runs
    here: a public filter as a cohort of one (:func:`_alone`), CLI
    ``filter --method kalman`` a cohort of all participants, and a particle
    fit one cohort per point, whose participants yield their per-ping
    log-likelihood terms in place of a :class:`FilterResult` (``store``
    false).  Each participant equals its own call bit for bit.  The spec
    is not checked here.

    The cohort is staged once, in the order one participant's own call
    meets the checks: the filter's own (Gaussian channels for the Kalman
    filter, at least 100 particles); each series in turn (:func:`_series`,
    and for the particle filter the observation checks of
    :func:`_observation_density`) until one fails; the steps of the
    series before it from one :func:`~emastate.model._cohort_steps` call;
    and for the particle filter the initial covariance's factor and the
    step noises' from one :func:`~emastate.model._step_roots` call.  The
    Kalman filter then runs in stacked chunks (:func:`_kalman_runs`), the
    particle filter participant by participant (:func:`_particle_pass`).
    The first participant whose series, gaps, noise factor or filter fails
    raises what its own call would, after the participants before it are
    yielded.
    """
    particle = n_particles is not None
    if not particle:
        _require_gaussian(spec)
    elif n_particles < 100:
        raise EmaError("PARTICLES_TOO_FEW", f"need >= 100 particles, got {n_particles}")
    series, pending = [], None
    for p in participants:
        try:
            s = _series(spec, p.Y, p.missing, p.U, p.timestamps)
            series.append(s + ((_observation_density(spec, *s[:2]),) if particle else ()))
        except EmaError as err:
            pending = err
            break
    with np.errstate(over="ignore"):    # an overflowing gap is the gap kernel's error
        gaps = [np.diff(s[3]) for s in series]
    (A_d, Sigma_d, G_d), rows, kept, err = _cohort_steps(spec, gaps)
    pending = err or pending        # a cut participant comes before a failing series
    if particle:
        try:        # the initial covariance fails each participant's own call after its gaps
            L0 = psd_sqrt(spec.initial_cov) if kept else None
            roots, kept, pending = _step_roots(Sigma_d, rows, kept, pending)
        except EmaError as bad:
            kept, pending = 0, bad
    series = [(*s, r[:max(len(s[0]) - 1, 0)]) for s, r in zip(series[:kept], rows)]  # + its steps

    if particle:
        runs = (_particle_pass(spec, y, missing, u, density, L0, (A_d[k], G_d[k], roots[k]),
                               n_particles, seed, store)
                for y, missing, u, _, density, k in series)
    else:
        runs = _kalman_runs(spec, series, (A_d, Sigma_d, G_d), rows)
    for (y, missing, _, timestamps, *_, k), (moments, ll, total) in zip(series, runs):
        yield ((FilterResult(timestamps, *moments, ll, total, int(missing.any(axis=1).sum()),
                             missing) if store else ll), A_d[k])
    if pending is not None:
        raise pending


def _kalman_runs(spec: ModelSpec, series, table, rows):
    """The stored moments, per-ping log-likelihood terms and total of
    each checked series (see :func:`_cohort`), from one stored
    :func:`_kalman_stack` pass per chunk of ``_COHORT_CHUNK`` series,
    padded as in a pooled fit (identity steps from :func:`_gap_steps`,
    unobserved pings); a series whose filter fails raises in its turn."""
    for lo in range(0, len(series), _COHORT_CHUNK):
        chunk = series[lo:lo + _COHORT_CHUNK]
        y, obs, u, lengths = _stack_series(chunk, spec.n_obs, spec.n_inputs)
        steps = rows[lo:lo + len(chunk), :max(y.shape[1] - 1, 0)]
        res = _kalman_stack(y, obs, u, spec.initial_mean, spec.initial_cov, spec.H,
                            spec.Theta, _gap_steps(table, steps), store=True, lengths=lengths)
        for r, k in enumerate(lengths):
            res.raise_failure(r)
            yield [x[r, :k] for x in res.moments], res.loglik[r, :k], float(res.total[r])


def kalman_smooth(spec: ModelSpec, y, missing=None, u=None,
                  timestamps=None) -> SmoothResult:
    """Fixed-interval smoother; works for both time modes.

    The filter's predicted moments (a, P) and the backward pass of
    :func:`_backward` (r, N and L per ping) give the smoothed mean
    a[t] + P[t] r[t-1], the smoothed covariance P[t] - P[t] N[t-1] P[t]
    and the lag-one covariance Cov(x[t+1], x[t] | all) =
    (I - P[t+1] N[t]) L[t] P[t] (Durbin & Koopman 2012, sec. 4.4-4.7).  No
    inverse of a predicted covariance is taken, so a singular one (a
    noiseless random-walk state) needs no special case.
    """
    f, A = _alone(spec, y, missing, u, timestamps)
    a, P = f.predicted_mean, f.predicted_cov
    T, n = a.shape
    if not T:
        return SmoothResult(f.timestamps, a, P, np.zeros((0, n, n)))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    steps = np.concatenate([A, np.eye(n)[None]])        # the last step is never read
    *_, L, r, N = (x[0] for x in _backward(y[None], ~f.missing[None], a[None], P[None],
                                            steps[None], spec.H, spec.Theta))
    PN = P @ N
    V = P - PN @ P
    lag1 = (np.eye(n) - PN[1:]) @ L[:-1] @ P[:-1]
    return SmoothResult(f.timestamps, a + (P @ r[..., None])[..., 0],
                        0.5 * (V + V.swapaxes(-1, -2)), lag1)


# ---------------------------------------------------------------------------
# Particle filter for non-Gaussian measurement families
# ---------------------------------------------------------------------------

def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D float array, in the arithmetic of
    ``scipy.special.logsumexp`` (scipy 1.17), without its per-call dispatch.

    The m entries equal to the maximum are split out of the sum, which is
    then ``log1p(s) + log(m) + max`` with s the mean excess over them; the
    result is bit-equal to scipy's on every input, including ties, -inf,
    +inf and NaN entries (Blanchard, Higham & Higham 2021, *IMA J. Numer.
    Anal.* 41:2311, on this shifted form).  Floating-point warnings are
    ignored here; the particle pass, which ignores them for its whole
    recursion, calls :func:`_lse` directly.
    """
    with np.errstate(all="ignore"):
        return _lse(a)


def _lse(a: np.ndarray) -> float:
    """:func:`_logsumexp` for callers already under ``np.errstate(all="ignore")``."""
    a_max = a.max()
    top = a == a_max
    m = float(np.count_nonzero(top))
    e = np.exp(a - a_max)
    e[top] = 0.0
    s = e.sum()
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def _resample_due(log_w: np.ndarray) -> bool:
    """Whether the effective sample size 1 / sum(w^2), w = exp(log_w), of
    the normalized log weights ``log_w`` is below half their count N.

    The decision is that of the exact form 1 / exp(logsumexp(2 log_w)) at
    the cost of one exp and one dot.  Both forms round the same sum
    s = sum(exp(2 log_w)).  The dot adds N non-negative squares of exps
    that are within a few ulps, so it is within (N + 8)u of s relative,
    u = 2^-53 (Higham 2002, *Accuracy and Stability of Numerical
    Algorithms*, section 4.2); the exact form's shifted exponentials, their
    sum and its log stay within (1.4N + 12 ln N + 8)u.  The two sizes thus
    differ by under (2.4N + 12 ln N + 16)u relative, which is below the
    band of N max(1e-9, 3e-16 N) around N/2 for every N (below 2e-9
    relative up to N = 3.3 million).  Outside the band both forms fall on
    the same side of N/2; inside it the exact form decides.
    """
    N = log_w.size
    e = np.exp(log_w)
    ess = 1.0 / e.dot(e)
    if abs(ess - 0.5 * N) <= N * max(1e-9, 3e-16 * N):
        ess = 1.0 / np.exp(_lse(2.0 * log_w))
    return ess < 0.5 * N


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices of N particles drawn systematically: with one uniform U and
    the positions p_k = (U + k) / N, k = 0..N-1, index k is the first i
    whose cumulative weight c_i reaches p_k, and N - 1 past the last.

    These are the indices of ``np.searchsorted(c, p)`` clipped at N - 1,
    bit for bit, found by counting rather than searching.  G_i, the number
    of positions at or below c_i, is floor(c_i N - U) + 1 but for rounding
    that is far below one position (a few N u), so comparing c_i with the
    exact positions at G_i - 1 and G_i corrects it by one either way; then
    index k is the number of i with G_i <= k, and forcing G_{N-1} = N
    gives the last particle every position past the end.
    """
    N = weights.size
    u = rng.uniform()
    c = np.cumsum(weights)
    G = (c * N + (1.0 - u)).astype(np.intp)     # within one of the count
    G -= (u + (G - 1)) / N > c                  # position G - 1 lies above c_i
    G += (u + G) / N <= c                       # position G lies at or below c_i
    G[-1] = N
    return np.bincount(G)[:N].cumsum()


def _weighted_moments(P: np.ndarray, wts: np.ndarray):
    """Weighted mean and covariance of the state-major particles P (n, N)."""
    mean = P @ wts
    d = P - mean[:, None]
    cov = (d * wts) @ d.T
    return mean, 0.5 * (cov + cov.T)


def _check_observations(spec: ModelSpec, y: np.ndarray, missing: np.ndarray) -> None:
    """Every observed cell of a non-Gaussian channel must be a value its
    family can produce: a non-negative integer count (Poisson), a category
    in 1..K (graded response), 0 or 1 (Bernoulli)."""
    for j, ch in enumerate(spec.channels):
        v = y[:, j]
        whole = v == np.floor(v)
        if ch.family == POISSON:
            ok, what = whole & (v >= 0), "a non-negative integer count"
        elif ch.family == GRADED_RESPONSE:
            K = len(ch.thresholds) + 1
            ok, what = whole & (v >= 1) & (v <= K), f"a category in 1..{K}"
        elif ch.family == BERNOULLI_LOGISTIC:
            ok, what = (v == 0) | (v == 1), "0 or 1"
        else:
            continue
        bad = ~ok & ~missing[:, j]
        if bad.any():
            t = int(np.argmax(bad))
            raise EmaError("INVALID_MODEL",
                           f"channel {j}: value {v[t]:g} at ping {t} is not {what}")


def _log_expit_gap(zu, zl):
    """log(expit(zu) - expit(zl)) for zu > zl, either possibly infinite: the
    plain difference, floored at 1e-300, except where it kept under half its
    digits, recomputed as log_expit(zu) + log_expit(-zl) + log(-expm1(zl - zu))."""
    upper = expit(zu)
    gap = upper - expit(zl)
    out = np.log(np.maximum(gap, 1e-300))
    lost = gap < 2.0**-26 * upper
    if lost.any():
        zu, zl = (np.broadcast_to(z, out.shape)[lost] for z in (zu, zl))
        exact = log_expit(zu) + log_expit(-zl) + np.log(-np.expm1(zl - zu))
        out[lost] = np.where(zl < zu, exact, out[lost])
    return out


def _poisson_logpmf(k, s, scale, link):
    """log P(k | rate) at rate = scale*exp(s) or scale*s: the plain form,
    except where the rate is below the smallest normal double and its log
    has lost digits or is -inf, recomputed as the compensated sum of
    k log(scale), k s (or k log(s)), -rate and -log(k!); a negative rate
    gives -inf and a NaN rate NaN."""
    rate = scale * (np.exp(s) if link == "log" else s)
    lp = k * np.log(rate) - rate - gammaln(k + 1.0)
    tail = ~(rate >= _TINY)
    if tail.any():
        s, r = s[tail], rate[tail]
        terms = [-r, -gammaln(k + 1.0)]
        if k:
            terms += [k * math.log(scale), k * (s if link == "log" else np.log(s))]
        lp[tail] = np.where(r < 0, -np.inf, _compensated_sum(terms))
    return lp


def _compensated_sum(terms):
    """The sum of arrays (or scalars) that broadcast, each addition's rounding error
    carried by Knuth's TwoSum and added back at the end (Ogita, Rump & Oishi
    2005, *SIAM J. Sci. Comput.* 26:1955, Sum2): as accurate as summing in
    twice the precision, then rounding.  A non-finite sum is left as is."""
    total, carry = terms[0], 0.0
    for x in terms[1:]:
        new = total + x
        z = new - total
        carry = carry + ((total - (new - z)) + (x - z))
        total = new
    return np.where(np.isfinite(total), total + carry, total)


def _observation_density(spec: ModelSpec, y: np.ndarray, missing: np.ndarray):
    """``density(P, t)``: the log observation density of y[t] at every
    particle of the state-major array P (n, N).

    Observed Gaussian channels enter jointly through their Theta sub-block,
    whose checks and Cholesky factor are computed once per pattern of
    observed Gaussian channels, at the first ping that shows it; each
    observed non-Gaussian channel contributes its pmf; missing channels
    contribute nothing (weight one).  Overflow inside the density is left to
    show as NaN or +inf, which the filter reports.
    """
    _check_observations(spec, y, missing)
    gauss = np.array([c.family == GAUSSIAN for c in spec.channels])
    thresholds = [np.asarray(c.thresholds) for c in spec.channels]
    log_2pi = np.log(2.0 * np.pi)
    blocks = {}

    def gaussian_block(g, t):
        key = g.tobytes()
        if key not in blocks:
            Tg = spec.Theta[np.ix_(g, g)]
            if not np.isfinite(Tg).all():
                raise EmaError("NON_FINITE", f"Gaussian channel error covariance "
                                             f"is non-finite (ping {t})")
            w_eig = np.linalg.eigvalsh(0.5 * (Tg + Tg.T))
            if w_eig[0] <= 0.0 or w_eig[-1] > COND_LIMIT * w_eig[0]:
                raise EmaError("SINGULAR_INNOVATION", f"Gaussian channel error "
                                                      f"covariance is singular (ping {t})")
            cf = cho_factor(Tg, lower=True)
            logdet = 2.0 * np.log(np.diag(cf[0])).sum()
            blocks[key] = (spec.H[g].T, cf, g.sum() * log_2pi + logdet)
        return blocks[key]

    def density(P, t):
        obs = ~missing[t]
        y_t = y[t]
        logw = np.zeros(P.shape[1])
        g = gauss & obs
        with np.errstate(all="ignore"):
            if g.any():
                # on a row-major copy, whose products round as an (N, n) array's
                HgT, cf, const = gaussian_block(g, t)
                resid = y_t[g][None, :] - P.T.copy() @ HgT
                maha = np.einsum("ij,ij->i", resid, cho_solve(cf, resid.T).T)
                logw += -0.5 * (const + maha)
            for j, ch in enumerate(spec.channels):
                if not obs[j] or gauss[j]:
                    continue
                s = P[ch.state_index]
                if ch.family == POISSON:
                    logw += _poisson_logpmf(y_t[j], s, ch.scale, ch.link)
                elif ch.family == GRADED_RESPONSE:
                    th = thresholds[j]
                    k = int(y_t[j])
                    logw += _log_expit_gap(
                        ch.discrimination * (s - th[k - 2]) if k >= 2 else np.inf,
                        ch.discrimination * (s - th[k - 1]) if k <= th.size else -np.inf)
                elif ch.family == BERNOULLI_LOGISTIC:
                    z = ch.discrimination * (s - ch.thresholds[0])
                    logw += (_log_expit_gap(z, -np.inf) if y_t[j] >= 0.5
                             else _log_expit_gap(np.inf, z))
        return logw

    return density


@np.errstate(all="ignore")      # non-finite states are caught by the checks below
def _particle_pass(spec: ModelSpec, y, missing, u, density, L0, steps, n_particles: int,
                   rng_seed: int, store: bool):
    """The bootstrap recursion of :func:`particle_filter` over one series
    staged by :func:`_cohort`: its checked data, its observation
    ``density``, the factor ``L0`` of the initial covariance, and the steps
    (A, G, L) into each ping after the first, L L' the step's noise.

    Returns the moments (predicted and filtered means and covariances; None
    without ``store``), the per-ping log-likelihood terms and their sum.
    The particles are one state-major array P (n, N), stepped as
    A P + G u + L Z' with Z the (N, n) normal block: the random stream and
    the log-likelihood terms are those of an (N, n) array bit for bit, and
    the moments agree with its to rounding.
    The normalized weights are recomputed only when the log weights change,
    and without ``store`` only when a resample reads them, so the
    likelihood of both modes is the same to the bit.  The effective
    sample size is checked only after an update: with no observed channel
    the weights are those that passed the last check (or are uniform).
    That check (:func:`_resample_due`) and the resample
    (:func:`_systematic_resample`) compute only the decisions they return,
    the same ones as the exact log-sum-exp form and a binary search.  The
    whole recursion runs under one ``np.errstate``, so its log-sum-exps
    call :func:`_lse`.
    """
    T, n, N = y.shape[0], spec.n_states, n_particles
    rng = np.random.default_rng(rng_seed)
    P = spec.initial_mean[:, None] + L0 @ rng.standard_normal((N, n)).T
    log_w = flat_log_w = np.full(N, -np.log(N))
    wts = flat_wts = np.exp(flat_log_w - _lse(flat_log_w))
    ll = np.zeros(T)
    observed = (~missing).any(axis=1).tolist()
    if store:
        pred_m = np.empty((T, n)); pred_P = np.empty((T, n, n))
        filt_m = np.empty((T, n)); filt_P = np.empty((T, n, n))

    for t in range(T):
        if t > 0:
            A, G, L = (x[t - 1] for x in steps)
            drift = (G @ u[t - 1])[:, None] if G.shape[1] else 0.0
            P = A @ P + drift + L @ rng.standard_normal((N, n)).T
        if store:
            pred_m[t], pred_P[t] = _weighted_moments(P, wts)
        if not observed[t]:
            if store:
                filt_m[t], filt_P[t] = pred_m[t], pred_P[t]
            continue

        incr = density(P, t)
        if not incr.sum() < np.inf:
            bad = np.isnan(incr) | (incr == np.inf)
            if bad.any():
                raise EmaError("NON_FINITE", f"observation density of particle "
                                             f"{int(np.argmax(bad))} is NaN or +inf "
                                             f"at ping {t}")
        log_w = log_w + incr
        tot = _lse(log_w)
        if not np.isfinite(tot):
            raise EmaError("DEGENERATE_WEIGHTS",
                           f"all particle weights vanished at ping {t}")
        ll[t] = tot          # log sum of W_prev * incremental weight
        log_w = log_w - tot
        if store:
            wts = np.exp(log_w - _lse(log_w))
            filt_m[t], filt_P[t] = _weighted_moments(P, wts)

        if _resample_due(log_w):
            if not store:
                wts = np.exp(log_w - _lse(log_w))
            P = P.take(_systematic_resample(wts, rng), axis=1)
            log_w, wts = flat_log_w, flat_wts

    return ((pred_m, pred_P, filt_m, filt_P) if store else None), ll, float(ll.sum())


def particle_filter(spec: ModelSpec, y, n_particles: int, rng_seed: int,
                    missing=None, u=None, timestamps=None) -> FilterResult:
    """Bootstrap filter: propagate through the state equation, weight by the
    observation likelihood over observed channels, resample systematically
    when the effective sample size drops below half the particle count.

    The likelihood estimate sums, per ping, the log of the weighted mean of
    the incremental weights; with resampling at every ping this reduces to
    the plain mean, and either way the estimator of the likelihood itself is
    unbiased.  An observation density that is NaN or +inf raises
    ``NON_FINITE``; weights that all vanish raise ``DEGENERATE_WEIGHTS``.
    A spec that fails :func:`~emastate.model.validate_model` raises its
    first error, as in the Kalman filters.
    Particles are stored state-major, (n_states, n_particles), so the
    per-particle work of a ping runs over contiguous rows.
    """
    return _alone(spec, y, missing, u, timestamps, n_particles=n_particles, seed=rng_seed)[0]
