"""State estimation and likelihood evaluation.

Linear-Gaussian models get the exact Kalman filter and fixed-interval
smoother, with missing channels dropped from each update (a fully missing
ping keeps the prediction untouched).  Matrix models (n * p > 1) run one
recursion, vectorized over a stack of members that each carry their own
series and spec arrays: a filter call is a stack of one, and a pooled fit
stacks participants and finite-difference points into one pass.  Missing
channels are removed with zeroed selection rows instead of per-ping
sub-blocks.  1-state, 1-channel models keep a pure-float loop.
Continuous-time specs are filtered by discretizing each inter-ping gap
exactly; every entry point gets its series, timestamps and per-step
transitions from one front end.  The smoother's lag-one covariance needs no
filter gains: Cov(x[t+1], x[t] | all) = P_s[t+1] J[t]' with J[t] the smoother
gain (Sarkka 2013, *Bayesian Filtering and Smoothing*, RTS smoother).
Models with count, ordinal, or dichotomous channels fall back to a
bootstrap particle filter.

Covariance updates use the Joseph form plus explicit symmetrization: EMA
series are long and round-off accumulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, gammaln, logsumexp

from .errors import EmaError
from .model import (GAUSSIAN, GRADED_RESPONSE, BERNOULLI_LOGISTIC, POISSON,
                    ModelSpec, _discretize_gaps, psd_sqrt)
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
        T, n = self.filtered_mean.shape
        p = self.missing.shape[1]
        if y_names is None:
            y_names = [f"y{j + 1}" for j in range(p)]
        header = (["t"] + [f"mean.s{i + 1}" for i in range(n)]
                  + [f"var.s{i + 1}" for i in range(n)] + ["loglik"]
                  + [f"miss.{nm}" for nm in y_names])
        lines = [sep.join(header)]
        for t in range(T):
            row = [f"{self.timestamps[t]:.12g}"]
            row += [f"{v:.12g}" for v in self.filtered_mean[t]]
            row += [f"{self.filtered_cov[t, i, i]:.12g}" for i in range(n)]
            row.append(f"{self.loglik_contributions[t]:.12g}")
            row += [str(int(m)) for m in self.missing[t]]
            lines.append(sep.join(row))
        return "\n".join(lines) + "\n"


@dataclass
class SmoothResult:
    """Fixed-interval smoother output; lag_one_cov[t] = Cov(x[t+1], x[t] | all)."""

    timestamps: np.ndarray
    smoothed_mean: np.ndarray
    smoothed_cov: np.ndarray
    lag_one_cov: np.ndarray         # (T-1, n, n)

    def to_delimited(self, sep: str = ",") -> str:
        T, n = self.smoothed_mean.shape
        header = (["t"] + [f"mean.s{i + 1}" for i in range(n)]
                  + [f"var.s{i + 1}" for i in range(n)])
        lines = [sep.join(header)]
        for t in range(T):
            row = [f"{self.timestamps[t]:.12g}"]
            row += [f"{v:.12g}" for v in self.smoothed_mean[t]]
            row += [f"{self.smoothed_cov[t, i, i]:.12g}" for i in range(n)]
            lines.append(sep.join(row))
        return "\n".join(lines) + "\n"


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

    m = float(mu0[0]); P = float(P0[0, 0])
    for t in range(T):
        if t > 0:
            A, Sigma, G = transitions[t - 1]
            a = float(A[0, 0])
            m = a * m + (float(G[0] @ u[t - 1]) if have_u else 0.0)
            P = a * P * a + float(Sigma[0, 0])
        pred_m[t] = m; pred_P[t] = P
        if missing[t, 0]:
            filt_m[t] = m; filt_P[t] = P
            continue
        s = h * P * h + theta
        if s <= 0.0:
            raise EmaError("SINGULAR_INNOVATION",
                           f"innovation variance {s:.3g} <= 0 at ping {t}")
        v = y[t, 0] - h * m
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

    def raise_failure(self) -> None:
        """Raise the failure of a single-member pass, if any."""
        code, t = int(self.fail), int(self.fail_ping)
        if code == _SINGULAR:
            lo, hi = self.fail_eig
            raise EmaError("SINGULAR_INNOVATION",
                           f"innovation covariance at ping {t} is numerically "
                           f"singular (eigenvalues {lo:.3g}..{hi:.3g})")
        if code == _NON_FINITE:
            raise EmaError("NON_FINITE",
                           f"innovation or its covariance is non-finite at ping {t}")


def _kalman_stack(y, obs, u, mu0, P0, H, Theta, trans, store=False) -> _StackPass:
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
    """
    T, p = y.shape[-2:]
    n = mu0.shape[-1]
    shapes = [y.shape[:-2], mu0.shape[:-1], P0.shape[:-2], H.shape[:-2],
              Theta.shape[:-2]]
    if trans:
        shapes += [np.shape(x)[:-2] for x in trans[0]]
    batch = np.broadcast_shapes(*shapes)
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
                ll[..., t] = step
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


def _prepare(spec: ModelSpec, y, missing, u, timestamps):
    """Checked (y, missing, u) of one series, its timestamps, and ``trans``:
    ``trans[k]`` is (A, Sigma, G) for the step into ping k+1.

    Timestamps default to 0, 1, 2, ... and are required in continuous time,
    where each gap is discretized exactly; discrete time uses the spec's own
    matrices for every step.
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
    if continuous:
        gaps = np.diff(timestamps)
        if (gaps <= 0).any():
            raise EmaError("NON_MONOTONE_TIME", "timestamps must be strictly increasing")
        trans = _discretize_gaps(spec, gaps)
    else:
        trans = [(spec.A, spec.Sigma, spec.G)] * max(T - 1, 0)
    return y, missing, u, timestamps, trans


def _kalman(spec: ModelSpec, y, missing, u, timestamps):
    """The Kalman filter of any all-Gaussian spec, plus the transitions it used."""
    if not spec.all_gaussian:
        raise EmaError("LIKELIHOOD_MODE_MISMATCH",
                       "the Kalman filter applies only to all-Gaussian channels; "
                       "use particle_filter for count/ordinal/dichotomous data")
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
    sm = fm.copy()
    sP = fP.copy()
    lag1 = np.empty((max(T - 1, 0), n, n))
    for t in range(T - 2, -1, -1):
        A_next = trans[t][0]
        # pseudo-inverse guards a singular prediction (Sigma = 0 cases)
        Pp = pP[t + 1]
        try:
            Jt = np.linalg.solve(Pp, A_next @ fP[t]).T
        except np.linalg.LinAlgError:
            Jt = (np.linalg.pinv(Pp) @ (A_next @ fP[t])).T
        lag1[t] = sP[t + 1] @ Jt.T
        sm[t] = fm[t] + Jt @ (sm[t + 1] - pm[t + 1])
        sP[t] = fP[t] + Jt @ (sP[t + 1] - Pp) @ Jt.T
        sP[t] = 0.5 * (sP[t] + sP[t].T)
    return SmoothResult(r.timestamps, sm, sP, lag1)


# ---------------------------------------------------------------------------
# Particle filter for non-Gaussian measurement families
# ---------------------------------------------------------------------------

def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    N = weights.size
    positions = (rng.uniform() + np.arange(N)) / N
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), N - 1)


def _channel_loglik(spec: ModelSpec, particles: np.ndarray, y_t: np.ndarray,
                    obs: np.ndarray) -> np.ndarray:
    """Log of the observation density at y_t for every particle.

    Observed Gaussian channels enter jointly through their Theta sub-block;
    each observed non-Gaussian channel contributes its pmf; missing channels
    contribute nothing (weight one).
    """
    N = particles.shape[0]
    logw = np.zeros(N)
    gauss = np.array([c.family == GAUSSIAN for c in spec.channels]) & obs
    if gauss.any():
        Hg = spec.H[gauss]
        Tg = spec.Theta[np.ix_(gauss, gauss)]
        resid = y_t[gauss][None, :] - particles @ Hg.T
        if not np.isfinite(Tg).all():
            raise EmaError("NON_FINITE", "Gaussian channel error covariance is non-finite")
        w_eig = np.linalg.eigvalsh(0.5 * (Tg + Tg.T))
        if w_eig[0] <= 0.0 or w_eig[-1] > COND_LIMIT * w_eig[0]:
            raise EmaError("SINGULAR_INNOVATION",
                           "Gaussian channel error covariance is singular")
        cf = cho_factor(Tg, lower=True)
        maha = np.einsum("ij,ij->i", resid, cho_solve(cf, resid.T).T)
        logdet = 2.0 * np.log(np.diag(cf[0])).sum()
        logw += -0.5 * (gauss.sum() * np.log(2.0 * np.pi) + logdet + maha)
    for j, ch in enumerate(spec.channels):
        if not obs[j] or ch.family == GAUSSIAN:
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
            th = np.asarray(ch.thresholds)
            k = int(y_t[j])
            if not 1 <= k <= th.size + 1:
                raise EmaError("INVALID_MODEL",
                               f"channel {j}: category {y_t[j]} outside 1..{th.size + 1}")
            upper = (expit(ch.discrimination * (s - th[k - 2]))
                     if k >= 2 else np.ones_like(s))
            lower = (expit(ch.discrimination * (s - th[k - 1]))
                     if k <= th.size else np.zeros_like(s))
            logw += np.log(np.maximum(upper - lower, 1e-300))
        elif ch.family == BERNOULLI_LOGISTIC:
            p = expit(ch.discrimination * (s - ch.thresholds[0]))
            logw += np.log(np.maximum(p if y_t[j] >= 0.5 else 1.0 - p, 1e-300))
    return logw


def particle_filter(spec: ModelSpec, y, n_particles: int, rng_seed: int,
                    missing=None, u=None, timestamps=None) -> FilterResult:
    """Bootstrap filter: propagate through the state equation, weight by the
    observation likelihood over observed channels, resample systematically
    when the effective sample size drops below half the particle count.

    The likelihood estimate sums, per ping, the log of the weighted mean of
    the incremental weights; with resampling at every ping this reduces to
    the plain mean, and either way the estimator of the likelihood itself is
    unbiased.
    """
    if n_particles < 100:
        raise EmaError("PARTICLES_TOO_FEW", f"need >= 100 particles, got {n_particles}")
    y, missing, u, timestamps, trans = _prepare(spec, y, missing, u, timestamps)
    T = y.shape[0]
    n = spec.n_states

    rng = np.random.default_rng(rng_seed)
    L0 = psd_sqrt(spec.initial_cov)
    chol_cache = {id(tr): psd_sqrt(tr[1]) for tr in trans} if trans else {}

    particles = spec.initial_mean + rng.standard_normal((n_particles, n)) @ L0.T
    log_w = np.full(n_particles, -np.log(n_particles))

    pred_m = np.empty((T, n)); pred_P = np.empty((T, n, n))
    filt_m = np.empty((T, n)); filt_P = np.empty((T, n, n))
    ll = np.zeros(T)

    def weighted_moments(pts, lw):
        wts = np.exp(lw - logsumexp(lw))
        mean = wts @ pts
        d = pts - mean
        cov = (d * wts[:, None]).T @ d
        return mean, 0.5 * (cov + cov.T)

    for t in range(T):
        if t > 0:
            A, _, G = trans[t - 1]
            L = chol_cache[id(trans[t - 1])]
            drift = (G @ u[t - 1]) if G.shape[1] else 0.0
            particles = particles @ A.T + drift + rng.standard_normal((n_particles, n)) @ L.T
        pred_m[t], pred_P[t] = weighted_moments(particles, log_w)

        obs = ~missing[t]
        if obs.any():
            incr = _channel_loglik(spec, particles, y[t], obs)
            tot = logsumexp(log_w + incr)
            if not np.isfinite(tot):
                raise EmaError("DEGENERATE_WEIGHTS",
                               f"all particle weights vanished at ping {t}")
            ll[t] = tot          # log sum of W_prev * incremental weight
            log_w = log_w + incr - tot
        filt_m[t], filt_P[t] = weighted_moments(particles, log_w)

        ess = 1.0 / np.exp(logsumexp(2.0 * log_w))
        if ess < n_particles / 2.0:
            idx = _systematic_resample(np.exp(log_w - logsumexp(log_w)), rng)
            particles = particles[idx]
            log_w = np.full(n_particles, -np.log(n_particles))

    return FilterResult(timestamps, pred_m, pred_P, filt_m, filt_P, ll, float(ll.sum()),
                        int(missing.any(axis=1).sum()), missing)
