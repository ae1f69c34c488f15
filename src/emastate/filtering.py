"""State estimation and likelihood evaluation.

Linear-Gaussian models get the exact Kalman filter and fixed-interval
smoother, with missing channels dropped from each update (a fully missing
ping keeps the prediction untouched).  One recursion runs vectorized over a
stack of members that each carry their own series and spec arrays: a matrix
filter call is a stack of one, and a pooled fit stacks participants and
finite-difference points into one pass.  Missing channels are removed with
zeroed selection rows instead of per-ping sub-blocks.  A single series of a
1-state, 1-channel model runs a pure-float loop; a stack of such members
runs that loop's arithmetic elementwise, which gives every member the
loop's numbers bit for bit, or, with only a few members, the loop itself.
Continuous-time specs are filtered by discretizing each inter-ping gap
exactly (one batched truncated-Taylor kernel for all gaps of a series, its
truncation error below 2^-53; see :func:`emastate.model._gap_transitions`);
every entry point gets its series, timestamps and per-step transitions from
one front end.  CLI ``filter`` runs a whole cohort as one stacked pass per
chunk of participants, with all gaps discretized in one call and each ping's
transitions gathered per member; every participant gets the numbers, and
the errors, of its own filter call.  The smoother solves for all its gains
J[t] at once, before the backward loop; its lag-one covariance needs no
filter gains: Cov(x[t+1], x[t] | all) = P_s[t+1] J[t]' (Sarkka 2013,
*Bayesian Filtering and Smoothing*, RTS smoother).
Models with count, ordinal, or dichotomous channels fall back to a
bootstrap particle filter; fits run its likelihood-only pass, which keeps
no moments and gives the filter's log-likelihood to the bit.

Covariance updates use the Joseph form plus explicit symmetrization: EMA
series are long and round-off accumulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, gammaln

from .errors import EmaError
from .model import (GAUSSIAN, GRADED_RESPONSE, BERNOULLI_LOGISTIC, POISSON,
                    ModelSpec, _discretize_gaps, _gap_transitions, psd_sqrt)
from .model import discretize  # noqa: F401  (perfbench/spans.py wraps it here)

COND_LIMIT = 1e12


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
    """Fixed-interval smoother output; lag_one_cov[t] = Cov(x[t+1], x[t] | all)."""

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


def _series_arrays(spec: ModelSpec, y, missing, u):
    """Shape-checked (y, missing, u) of one series; NaN cells count as missing."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    T = y.shape[0]
    if y.shape[1] != spec.n_obs:
        raise EmaError("INVALID_MODEL",
                       f"series has {y.shape[1]} channels, model expects {spec.n_obs}")
    if missing is None:
        missing = np.isnan(y)
    else:
        missing = np.atleast_2d(np.asarray(missing, dtype=bool))
        missing = missing | np.isnan(y)
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
    return y, missing, u


def _normalize_series(spec: ModelSpec, y, missing, u):
    """As :func:`_series_arrays`, and every observed cell must be finite."""
    y, missing, u = _series_arrays(spec, y, missing, u)
    if np.isinf(y).any():
        bad = (np.isinf(y) & ~missing).any(axis=1)
        if bad.any():
            raise EmaError("NON_FINITE",
                           f"observed value at ping {int(np.argmax(bad))} is infinite")
    return y, missing, u


def _kalman_pass_scalar(y, missing, u, mu0, P0, H, Theta, transitions):
    """Pure-float recursion for 1-state, 1-channel models (the hot path in
    estimation); same formulas as the general pass."""
    T = y.shape[0]
    h = float(H[0, 0]); theta = float(Theta[0, 0])
    pred_m = np.empty(T); pred_P = np.empty(T)
    filt_m = np.empty(T); filt_P = np.empty(T)
    ll = np.zeros(T)
    have_u = u.shape[1] > 0
    log2pi = np.log(2.0 * np.pi)
    ys, miss = y[:, 0].tolist(), missing[:, 0].tolist()   # Python floats: same values

    m = float(mu0[0]); P = float(P0[0, 0])
    last = None
    for t in range(T):
        if t > 0:
            if transitions[t - 1] is not last:
                last = transitions[t - 1]
                a, sigma, g = float(last[0][0, 0]), float(last[1][0, 0]), last[2][0]
            m = a * m + (float(g @ u[t - 1]) if have_u else 0.0)
            P = a * P * a + sigma
        pred_m[t] = m; pred_P[t] = P
        if miss[t]:
            filt_m[t] = m; filt_P[t] = P
            continue
        s = h * P * h + theta
        if s <= 0.0:
            err = EmaError("SINGULAR_INNOVATION",
                           f"innovation variance {s:.3g} <= 0 at ping {t}")
            err.ping, err.variance = t, s     # read by _scalar_members
            raise err
        v = ys[t] - h * m
        k = P * h / s
        m = m + k * v
        ikh = 1.0 - k * h
        P = ikh * P * ikh + k * theta * k
        filt_m[t] = m; filt_P[t] = P
        ll[t] = -0.5 * (log2pi + np.log(s) + v * v / s)

    shape = (T, 1, 1)
    return (pred_m.reshape(T, 1), pred_P.reshape(shape),
            filt_m.reshape(T, 1), filt_P.reshape(shape), ll)


_SINGULAR, _NON_FINITE = 1, 2     # per-member failure codes of a stacked pass


@dataclass
class _StackPass:
    """Output of :func:`_kalman_stack`; ``fail`` is 0 or a failure code."""

    loglik: np.ndarray              # B (lean) or B + (T,) (stored)
    fail: np.ndarray                # B
    fail_ping: np.ndarray           # B; first failing ping, -1 if unknown
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


def _kalman_stack(y, obs, u, mu0, P0, H, Theta, trans, store=False,
                  lengths=None) -> _StackPass:
    """One predict/update recursion over a stack of members.

    Every argument's leading axes broadcast to the stack shape B, so members
    may share data (participants) or spec arrays (finite-difference points):
    ``y``/``obs`` (..., T, p), ``u`` (..., T, q), ``mu0`` (..., n),
    ``P0``/``H``/``Theta`` (..., n, n)/(..., p, n)/(..., p, p).
    ``trans[k]`` is (A, Sigma, G) for the step into ping k+1.

    Unobserved cells leave the update by the selection device of Durbin &
    Koopman (2012, *Time Series Analysis by State Space Methods*, ch. 4,
    missing observations): that channel's H row, residual and Theta row
    and column are zeroed and it gets its own innovation variance c, so it
    decouples and adds nothing.  c is an observed diagonal entry of S, which
    lies in [lambda_min, lambda_max] of the observed block, so the padded
    eigenvalue check equals the check on that block; log c is taken back
    out of the log-determinant.

    A member whose S is non-finite or fails the eigenvalue check fails alone
    (``fail``/``fail_ping``) and stops updating; the others run on.  With
    ``store`` the per-ping moments and likelihood terms are kept; otherwise
    only each member's summed log-likelihood.

    A 1x1 stack (n = p = 1) runs :func:`_scalar_stack`, or with fewer than
    ``_STACK_MIN_MEMBERS`` members :func:`_scalar_members`; either way its
    members equal :func:`_kalman_pass_scalar` on their own series bit for
    bit.  There
    ``lengths`` (broadcast to B; all T by default) counts the pings of each
    member's own series, and a member's total sums its terms over those pings
    only, as the total of a single series does.  The matrix recursion adds
    its terms as it goes, so padding pings, which add zero, change nothing.
    """
    T, p = y.shape[-2:]
    n = mu0.shape[-1]
    shapes = [y.shape[:-2], mu0.shape[:-1], P0.shape[:-2], H.shape[:-2],
              Theta.shape[:-2]]
    if trans:
        shapes += [np.shape(x)[:-2] for x in trans[0]]
    batch = np.broadcast_shapes(*shapes)
    if n == p == 1:
        L = np.broadcast_to(T if lengths is None else lengths, batch)
        if math.prod(batch) < _STACK_MIN_MEMBERS:
            return _scalar_members(y, obs, u, mu0, P0, H, Theta, trans, store, L)
        return _scalar_stack(y, obs, u, mu0, P0, H, Theta, trans, store, L)
    I_n, I_p = np.eye(n), np.eye(p)
    Ht = H.swapaxes(-1, -2)
    log_2pi = np.log(2.0 * np.pi)

    # masks of the data stack, per ping
    flat = obs.reshape((-1,) + obs.shape[-2:])
    any_obs = flat.any(axis=(0, 2)).tolist()
    all_obs = flat.all(axis=(0, 2)).tolist()
    obs_pair = obs[..., :, None] & obs[..., None, :]
    miss_diag = (~obs)[..., None] * I_p
    member_any = obs.any(-1)
    n_obs = obs.sum(-1)

    m = np.broadcast_to(mu0, batch + (n,))
    P = np.broadcast_to(P0, batch + (n, n))
    fail = np.zeros(batch, dtype=int)
    fail_ping = np.full(batch, -1)
    fail_eig = np.zeros(batch + (2,))
    failed = None                   # bool mask once any member has failed
    ll = np.zeros(batch + (T,) if store else batch)
    if store:
        pm = np.zeros(batch + (T, n)); pP = np.zeros(batch + (T, n, n))
        fm = np.zeros_like(pm); fP = np.zeros_like(pP)

    last = None
    with np.errstate(all="ignore"):     # failures are detected explicitly
        for t in range(T):
            if t:
                if trans[t - 1] is not last:
                    last = trans[t - 1]
                    A, Sigma, G = last
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
                new = ~np.isfinite(S).all((-2, -1)) & (fail == 0)
                fail = np.where(new, _NON_FINITE, fail)
                fail_ping = np.where(new, t, fail_ping)
                failed = fail != 0
            if failed is not None:
                S = np.where(failed[..., None, None], I_p, S)
            w = np.linalg.eigvalsh(S)
            ok = (w[..., 0] > 0.0) & (w[..., -1] <= COND_LIMIT * w[..., 0])
            if not ok.all():
                fail = np.where(ok, fail, _SINGULAR)
                fail_ping = np.where(ok, fail_ping, t)
                fail_eig = np.where(ok[..., None], fail_eig, w[..., [0, -1]])
                failed = fail != 0
                S = np.where(failed[..., None, None], I_p, S)
            if failed is not None:
                if failed.all():
                    break
                HP = np.where(failed[..., None, None], 0.0, HP)
                v = np.where(failed[..., None], 0.0, v)

            X = np.linalg.solve(S, np.concatenate([HP, v[..., None]], axis=-1))
            K = X[..., :n].swapaxes(-1, -2)
            m = m + (K @ v[..., None])[..., 0]
            IKH = I_n - K @ H
            P = IKH @ P @ IKH.swapaxes(-1, -2) + K @ Theta @ X[..., :n]
            P = 0.5 * (P + P.swapaxes(-1, -2))
            step = -0.5 * (n_obs[..., t] * log_2pi + np.log(w).sum(-1) - log_pad
                           + (v * X[..., n]).sum(-1))
            if store:
                fm[..., t, :], fP[..., t, :, :] = m, P
                ll[..., t] = np.where(member_any[..., t], step, 0.0)    # not -0.0
            else:
                ll = ll + step

        total = ll.sum(-1) if store else ll
        new = ~np.isfinite(total) & (fail == 0)
    if new.any():
        fail = np.where(new, _NON_FINITE, fail)
        if store:
            fail_ping = np.where(new, np.argmax(~np.isfinite(ll), -1), fail_ping)
    return _StackPass(ll, fail, fail_ping, fail_eig,
                      (pm, pP, fm, fP) if store else None)


# Measured crossover (CHANGES.md): a 1x1 stack of fewer members runs the float
# loop per member, which ties or wins there; the elementwise recursion costs
# about the same per ping whatever the member count.
_STACK_MIN_MEMBERS = 5


def _scalar_stack(y, obs, u, mu0, P0, H, Theta, trans, store, L) -> _StackPass:
    """The 1x1 case of :func:`_kalman_stack`: the float loop's arithmetic,
    in its order, elementwise over the members.

    The state is the pair [P, m], so one ufunc steps both.  Every product
    and sum is the float loop's own; operands are at most commuted, and
    ``y - h m`` is taken as ``y + (-1 h m)``, which IEEE arithmetic leaves
    exact.  G u is computed for all pings before the loop with the float
    loop's dot product.  The likelihood terms and the check s <= 0 need
    only s and v, so they run over all pings after the loop.  A failing
    member's later values are not meaningful; the others are untouched.
    """
    T = y.shape[-2]
    batch = L.shape
    nb = len(batch)

    def pings_first(x):
        """(..., T) to (T, ...), the other axes right-aligned to the batch."""
        x = x.transpose(x.ndim - 1, *range(x.ndim - 1))
        return x.reshape(x.shape[:1] + (1,) * (nb + 1 - x.ndim) + x.shape[1:])

    def pair(first, second, lead=()):
        """[first, second] on a new axis before the batch axes, materialized
        to lead + (2,) + B: ufuncs on broadcast operands cost twice as much."""
        out = np.empty(lead + (2,) + batch)
        row = (Ellipsis, 0) + (slice(None),) * nb
        out[row] = first
        out[row[:1] + (1,) + row[2:]] = second
        return out

    if trans:
        if len(set(map(id, trans))) == 1:
            A, Sigma, G = (x[..., None, :, :] for x in trans[0])
        else:
            A, Sigma, G = (np.stack(np.broadcast_arrays(*x), axis=-3) for x in zip(*trans))
        a = pings_first(A[..., 0, 0])
        a_a, a_one = pair(a, a, (T - 1,)), pair(a, 1.0, (T - 1,))
        gu = pings_first((u[..., :-1, None, :] @ G[..., 0, :, None])[..., 0, 0])
        sig_gu = pair(pings_first(Sigma[..., 0, 0]), gu, (T - 1,))    # [Sigma, G u]
    h, theta = H[..., 0, 0], Theta[..., 0, 0]
    h_h, h_neg = pair(h, h), pair(h, -1.0)
    theta_y = pair(theta, pings_first(y[..., 0]), (T,))
    o = pings_first(obs[..., 0])
    miss = ~o
    any_obs = o.reshape(T, -1).any(1).tolist()
    all_obs = o.reshape(T, -1).all(1).tolist()

    sv = np.zeros((T, 4) + batch)           # per ping: s, v, -h, theta
    sv[:, 2], sv[:, 3] = -h, theta
    pred = np.empty((T, 2) + batch)         # per ping: [P, m] predicted
    filt = np.empty_like(pred)              # and filtered
    pred[0, 0], pred[0, 1] = P0[..., 0, 0], mu0[..., 0]
    with np.errstate(all="ignore"):     # failures are detected after the loop
        for t in range(T):
            x_p = pred[t]
            if t:
                step = x * a_a[t - 1]
                step *= a_one[t - 1]
                np.add(step, sig_gu[t - 1], out=x_p)     # [a P a + Sigma, a m + G u]
            if not any_obs[t]:
                x = x_p
                continue
            s_v = sv[t]
            hx = x_p * h_h                              # [h P, h m]
            np.add(theta_y[t], hx * h_neg, out=s_v[:2])  # [s, v]
            k = hx[0] / s_v[0]
            kq = k * s_v[1:]                            # [k v, -k h, k theta]
            x = filt[t]
            np.add(x_p[1], kq[0], out=x[1])             # m + k v
            ikh = 1.0 + kq[1]
            joseph = ikh * x_p[0]
            joseph *= ikh
            np.add(joseph, kq[2] * k, out=x[0])        # ikh P ikh + k theta k
            if not all_obs[t]:
                np.copyto(x, x_p, where=miss[t])

        s, v = sv[:, 0], sv[:, 1]
        terms = np.where(o, -0.5 * (np.log(2.0 * np.pi) + np.log(s) + v * v / s), 0.0)
        ll = terms.transpose(*range(1, nb + 1), 0).copy()      # B + (T,)
        total = np.empty(batch)
        for n in np.unique(L):          # each member over its own pings
            own = L == n
            total[own] = ll[own][:, :n].sum(-1)

    bad = (s <= 0.0) & o
    singular = bad.any(0)
    ping = np.where(singular, bad.argmax(0), np.argmax(~np.isfinite(ll), -1))
    fail = np.where(singular, _SINGULAR, np.where(np.isfinite(total), 0, _NON_FINITE))
    fail_eig = np.zeros(batch + (2,))
    if singular.any():
        s_at = np.take_along_axis(s, ping[None], 0)[0]
        fail_eig[singular] = s_at[singular, None]
    moments = None
    if store:
        filt = np.where(o[:, None], filt, pred)
        moments = tuple(arr[:, i].transpose(*range(1, nb + 1), 0)[(...,) + (None,) * (2 - i)]
                        for arr in (pred, filt) for i in (1, 0))     # pm, pP, fm, fP
    return _StackPass(ll if store else total, fail, np.where(fail != 0, ping, -1),
                      fail_eig, moments, scalar=True)


def _scalar_members(y, obs, u, mu0, P0, H, Theta, trans, store, L) -> _StackPass:
    """A small 1x1 stack: :func:`_kalman_pass_scalar` per member, on views
    of the stack's arrays; the same :class:`_StackPass` as
    :func:`_scalar_stack`, bit for bit."""
    T = y.shape[-2]
    batch = L.shape
    shared = len(set(map(id, trans))) <= 1
    ll = np.zeros(batch + (T,))
    total = np.zeros(batch)
    fail = np.zeros(batch, dtype=int)
    fail_ping = np.full(batch, -1)
    fail_eig = np.zeros(batch + (2,))
    moments = ([np.zeros(batch + (T,) + (1,) * k) for k in (1, 2, 1, 2)]
               if store else None)

    with np.errstate(all="ignore"):     # failures are reported per member
        for idx in np.ndindex(batch):
            def member(x, core=2):
                """This member's view of x, whose leading axes broadcast to B."""
                lead = x.shape[:x.ndim - core]
                return x[tuple(i if n > 1 else 0
                               for i, n in zip(idx[len(batch) - len(lead):], lead))]

            if shared:
                steps = [tuple(map(member, trans[0]))] * len(trans) if trans else []
            else:
                steps = [tuple(map(member, tr)) for tr in trans]
            try:
                out = _kalman_pass_scalar(member(y), ~member(obs), member(u),
                                          member(mu0, 1), member(P0), member(H),
                                          member(Theta), steps)
            except EmaError as err:
                if err.code != "SINGULAR_INNOVATION":
                    raise
                fail[idx], fail_ping[idx], fail_eig[idx] = _SINGULAR, err.ping, err.variance
                continue
            ll[idx] = out[4]
            total[idx] = out[4][:L[idx]].sum()
            if store:
                for stored, x in zip(moments, out):
                    stored[idx] = x

    new = (fail == 0) & ~np.isfinite(total)
    fail = np.where(new, _NON_FINITE, fail)
    fail_ping = np.where(new, np.argmax(~np.isfinite(ll), -1), fail_ping)
    return _StackPass(ll if store else total, fail, fail_ping, fail_eig, moments, scalar=True)


def _filter_pass(y, missing, u, mu0, P0, H, Theta, trans):
    """Single-series pass with every moment kept: the float loop when
    n = p = 1, the stacked recursion with one member otherwise."""
    if mu0.size == 1 and y.shape[1] == 1:
        out = _kalman_pass_scalar(y, missing, u, mu0, P0, H, Theta, trans)
        ll = out[4]
        if not math.isfinite(ll.sum()):
            t = int(np.argmax(~np.isfinite(ll)))
            raise EmaError("NON_FINITE",
                           f"innovation or its variance is non-finite at ping {t}")
        return out
    res = _kalman_stack(y, ~missing, u, mu0, P0, H, Theta, trans, store=True)
    res.raise_failure()
    return (*res.moments, res.loglik)


def _series(spec: ModelSpec, y, missing, u, timestamps):
    """Checked (y, missing, u) of one series and its timestamps.

    Timestamps default to 0, 1, 2, ... and are required, strictly
    increasing, in continuous time.
    """
    y, missing, u = _normalize_series(spec, y, missing, u)
    T = y.shape[0]
    continuous = spec.time_mode == "continuous"
    if timestamps is None:
        if continuous:
            raise EmaError("INVALID_MODEL", "a continuous-time spec needs timestamps")
        timestamps = np.arange(T, dtype=float)
    timestamps = np.asarray(timestamps, dtype=float).reshape(-1)
    if timestamps.size != T:
        raise EmaError("INVALID_MODEL", f"{timestamps.size} timestamps for {T} pings")
    if continuous and (np.diff(timestamps) <= 0).any():
        raise EmaError("NON_MONOTONE_TIME", "timestamps must be strictly increasing")
    return y, missing, u, timestamps


def _prepare(spec: ModelSpec, y, missing, u, timestamps):
    """:func:`_series`, plus ``trans``: ``trans[k]`` is (A, Sigma, G) for the
    step into ping k+1.  Continuous time discretizes each gap exactly;
    discrete time uses the spec's own matrices for every step.
    """
    y, missing, u, timestamps = _series(spec, y, missing, u, timestamps)
    if spec.time_mode == "continuous":
        trans = _discretize_gaps(spec, np.diff(timestamps))
    else:
        trans = [(spec.A, spec.Sigma, spec.G)] * max(y.shape[0] - 1, 0)
    return y, missing, u, timestamps, trans


def _require_gaussian(spec: ModelSpec) -> None:
    if not spec.all_gaussian:
        raise EmaError("LIKELIHOOD_MODE_MISMATCH",
                       "the Kalman filter applies only to all-Gaussian channels; "
                       "use particle_filter for count/ordinal/dichotomous data")


def _kalman(spec: ModelSpec, y, missing, u, timestamps):
    """The Kalman filter of any all-Gaussian spec, plus the transitions it used."""
    _require_gaussian(spec)
    y, missing, u, timestamps, trans = _prepare(spec, y, missing, u, timestamps)
    pm, pP, fm, fP, ll = _filter_pass(y, missing, u, spec.initial_mean,
                                      spec.initial_cov, spec.H, spec.Theta, trans)
    return FilterResult(timestamps, pm, pP, fm, fP, ll, float(ll.sum()),
                        int(missing.any(axis=1).sum()), missing), trans


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
    return _kalman(spec, y, missing, u, timestamps)[0]


def kalman_filter_ct(spec: ModelSpec, timestamps, y, missing=None,
                     u=None) -> FilterResult:
    """Filter a continuous-time spec over arbitrarily spaced pings.

    Each gap is discretized exactly (matrix exponential of the drift and the
    matching noise integral), then one predict/update step runs; inputs are
    held over the gap.
    """
    if spec.time_mode != "continuous":
        raise EmaError("INVALID_MODEL", "kalman_filter_ct expects a continuous-time spec")
    return _kalman(spec, y, missing, u, timestamps)[0]


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


# Members of one stacked pass of :func:`_kalman_cohort`: bounds the memory of
# its stored moments on big cohorts.
_COHORT_CHUNK = 64


def _kalman_cohort(spec: ModelSpec, participants):
    """Yield the Kalman filter of each participant (objects with ``Y``,
    ``missing``, ``U`` and ``timestamps``) in order, each equal bit for bit
    to its own :func:`kalman_filter` or :func:`kalman_filter_ct` call.

    Every series is checked first, and all gaps are discretized in one
    :func:`~emastate.model._gap_transitions` call; each ping then gathers
    its members' transitions into (members, n, n) arrays, and one stored
    :func:`_kalman_stack` pass runs per chunk of ``_COHORT_CHUNK``
    participants, ping axes padded as in a pooled fit (identity steps in
    continuous time, unobserved pings).  Errors come in the order of the
    per-participant calls: the first participant whose series, gaps or
    filter fails raises what its own call would, after the participants
    before it are yielded.
    """
    _require_gaussian(spec)
    series, pending = [], None
    for p in participants:
        try:
            series.append(_series(spec, p.Y, p.missing, p.U, p.timestamps))
        except EmaError as err:
            pending = err
            break
    n, q = spec.n_states, spec.n_inputs
    continuous = spec.time_mode == "continuous"
    while continuous and series:
        gaps = [np.diff(s[3]) for s in series]
        try:
            *table, which = _gap_transitions(spec, np.concatenate(gaps))
            break
        except EmaError as err:     # the first participant with a failing gap
            owner = np.repeat(np.arange(len(series)), [g.size for g in gaps])
            del series[owner[err.gap]:]
            pending = err
    if continuous and series:       # row -1 pads: the identity step
        pad = (np.eye(n), np.zeros((n, n)), np.zeros((n, q)))
        table = [np.concatenate([x, e[None]]) for x, e in zip(table, pad)]
        starts = np.cumsum([0] + [s[0].shape[0] - 1 for s in series])

    for lo in range(0, len(series), _COHORT_CHUNK):
        chunk = series[lo:lo + _COHORT_CHUNK]
        y, obs, u, lengths = _stack_series(chunk, spec.n_obs, q)
        R, T = y.shape[:2]
        if continuous:
            rows = np.full((T - 1, R), -1)
            for r in range(R):
                rows[:lengths[r] - 1, r] = which[starts[lo + r]:starts[lo + r + 1]]
            trans = list(zip(*(x[rows] for x in table)))
        else:
            trans = [(spec.A, spec.Sigma, spec.G)] * (T - 1)
        res = _kalman_stack(y, obs, u, spec.initial_mean, spec.initial_cov, spec.H,
                            spec.Theta, trans, store=True, lengths=lengths)
        pm, pP, fm, fP = res.moments
        for r, (_, missing, _, timestamps) in enumerate(chunk):
            res.raise_failure(r)
            k = lengths[r]
            ll = res.loglik[r, :k]
            yield FilterResult(timestamps, pm[r, :k], pP[r, :k], fm[r, :k], fP[r, :k], ll,
                               float(ll.sum()), int(missing.any(axis=1).sum()), missing)
    if pending is not None:
        raise pending


def kalman_smooth(spec: ModelSpec, y, missing=None, u=None,
                  timestamps=None) -> SmoothResult:
    """Fixed-interval (RTS) smoother; works for both time modes.

    With the smoother gain J[t] = P_f[t] A' P_pred[t+1]^{-1}, the lag-one
    covariance is Cov(x[t+1], x[t] | all) = P_s[t+1] J[t]' (Sarkka 2013,
    *Bayesian Filtering and Smoothing*, RTS smoother).
    """
    r, trans = _kalman(spec, y, missing, u, timestamps)
    pm, pP, fm, fP = r.predicted_mean, r.predicted_cov, r.filtered_mean, r.filtered_cov
    T, n = fm.shape
    # every gain at once: X[t] = J[t]' solves P_pred[t+1] X = A fP[t]; a
    # pseudo-inverse guards a singular prediction (Sigma = 0 cases)
    AfP = np.array([tr[0] for tr in trans]).reshape(-1, n, n) @ fP[:-1]
    try:
        X = np.linalg.solve(pP[1:], AfP)
    except np.linalg.LinAlgError:
        X = np.empty_like(AfP)
        for t in range(T - 1):
            try:
                X[t] = np.linalg.solve(pP[t + 1], AfP[t])
            except np.linalg.LinAlgError:
                X[t] = np.linalg.pinv(pP[t + 1]) @ AfP[t]
    J = X.swapaxes(-1, -2)
    sm = fm.copy()
    sP = fP.copy()
    for t in range(T - 2, -1, -1):
        sm[t] = fm[t] + J[t] @ (sm[t + 1] - pm[t + 1])
        sP[t] = fP[t] + J[t] @ (sP[t + 1] - pP[t + 1]) @ X[t]
        sP[t] = 0.5 * (sP[t] + sP[t].T)
    lag1 = sP[1:] @ X
    return SmoothResult(r.timestamps, sm, sP, lag1)


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
    Anal.* 41:2311, on this shifted form).
    """
    a_max = a.max()
    top = a == a_max
    m = float(np.count_nonzero(top))
    with np.errstate(all="ignore"):
        e = np.exp(a - a_max)
        e[top] = 0.0
        s = e.sum()
        if s != 0:
            s = s / m
        return np.log1p(s) + np.log(m) + a_max


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    N = weights.size
    positions = (rng.uniform() + np.arange(N)) / N
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), N - 1)


def _weighted_moments(particles: np.ndarray, wts: np.ndarray):
    mean = wts @ particles
    d = particles - mean
    cov = (d * wts[:, None]).T @ d
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


def _observation_density(spec: ModelSpec, y: np.ndarray, missing: np.ndarray):
    """``density(particles, t)``: the log observation density of y[t] at
    every particle.

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

    def density(particles, t):
        obs = ~missing[t]
        y_t = y[t]
        logw = np.zeros(particles.shape[0])
        g = gauss & obs
        with np.errstate(all="ignore"):
            if g.any():
                HgT, cf, const = gaussian_block(g, t)
                resid = y_t[g][None, :] - particles @ HgT
                maha = np.einsum("ij,ij->i", resid, cho_solve(cf, resid.T).T)
                logw += -0.5 * (const + maha)
            for j, ch in enumerate(spec.channels):
                if not obs[j] or gauss[j]:
                    continue
                s = particles[:, ch.state_index]
                if ch.family == POISSON:
                    rate = ch.scale * (np.exp(s) if ch.link == "log" else s)
                    lp = np.full(particles.shape[0], -np.inf)
                    ok = rate > 0
                    k = y_t[j]
                    lp[ok] = k * np.log(rate[ok]) - rate[ok] - gammaln(k + 1.0)
                    logw += lp
                elif ch.family == GRADED_RESPONSE:
                    th = thresholds[j]
                    k = int(y_t[j])
                    upper = (expit(ch.discrimination * (s - th[k - 2]))
                             if k >= 2 else np.ones_like(s))
                    lower = (expit(ch.discrimination * (s - th[k - 1]))
                             if k <= th.size else np.zeros_like(s))
                    logw += np.log(np.maximum(upper - lower, 1e-300))
                elif ch.family == BERNOULLI_LOGISTIC:
                    p = expit(ch.discrimination * (s - ch.thresholds[0]))
                    logw += np.log(np.maximum(p if y_t[j] >= 0.5 else 1.0 - p, 1e-300))
        return logw

    return density


def _particle_pass(spec: ModelSpec, y, n_particles: int, rng_seed: int, missing,
                   u, timestamps, store: bool):
    """The bootstrap recursion of :func:`particle_filter`.

    Returns (timestamps, missing, per-ping log-likelihood terms, moments);
    the moments (predicted and filtered means and covariances) only with
    ``store``.  The normalized weights are recomputed only when the log
    weights change, and without ``store`` only when a resample reads them,
    so the likelihood of both modes is the same to the bit.  The effective
    sample size is checked only after an update: with no observed channel
    the weights are those that passed the last check (or are uniform).
    """
    if n_particles < 100:
        raise EmaError("PARTICLES_TOO_FEW", f"need >= 100 particles, got {n_particles}")
    y, missing, u, timestamps, trans = _prepare(spec, y, missing, u, timestamps)
    density = _observation_density(spec, y, missing)
    T, n, N = y.shape[0], spec.n_states, n_particles

    rng = np.random.default_rng(rng_seed)
    L0 = psd_sqrt(spec.initial_cov)
    chol = {}
    for tr in trans:
        if id(tr) not in chol:
            chol[id(tr)] = psd_sqrt(tr[1])

    particles = spec.initial_mean + rng.standard_normal((N, n)) @ L0.T
    log_w = flat_log_w = np.full(N, -np.log(N))
    wts = flat_wts = np.exp(flat_log_w - _logsumexp(flat_log_w))
    ll = np.zeros(T)
    observed = (~missing).any(axis=1).tolist()
    if store:
        pred_m = np.empty((T, n)); pred_P = np.empty((T, n, n))
        filt_m = np.empty((T, n)); filt_P = np.empty((T, n, n))

    for t in range(T):
        if t > 0:
            A, _, G = trans[t - 1]
            L = chol[id(trans[t - 1])]
            drift = (G @ u[t - 1]) if G.shape[1] else 0.0
            particles = particles @ A.T + drift + rng.standard_normal((N, n)) @ L.T
        if store:
            pred_m[t], pred_P[t] = _weighted_moments(particles, wts)
        if not observed[t]:
            if store:
                filt_m[t], filt_P[t] = pred_m[t], pred_P[t]
            continue

        incr = density(particles, t)
        if not incr.sum() < np.inf:
            bad = np.isnan(incr) | (incr == np.inf)
            if bad.any():
                raise EmaError("NON_FINITE", f"observation density of particle "
                                             f"{int(np.argmax(bad))} is NaN or +inf "
                                             f"at ping {t}")
        log_w = log_w + incr
        tot = _logsumexp(log_w)
        if not np.isfinite(tot):
            raise EmaError("DEGENERATE_WEIGHTS",
                           f"all particle weights vanished at ping {t}")
        ll[t] = tot          # log sum of W_prev * incremental weight
        log_w = log_w - tot
        if store:
            wts = np.exp(log_w - _logsumexp(log_w))
            filt_m[t], filt_P[t] = _weighted_moments(particles, wts)

        ess = 1.0 / np.exp(_logsumexp(2.0 * log_w))
        if ess < N / 2.0:
            if not store:
                wts = np.exp(log_w - _logsumexp(log_w))
            particles = particles[_systematic_resample(wts, rng)]
            log_w, wts = flat_log_w, flat_wts

    return timestamps, missing, ll, (pred_m, pred_P, filt_m, filt_P) if store else None


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
    """
    timestamps, missing, ll, moments = _particle_pass(
        spec, y, n_particles, rng_seed, missing, u, timestamps, store=True)
    return FilterResult(timestamps, *moments, ll, float(ll.sum()),
                        int(missing.any(axis=1).sum()), missing)
