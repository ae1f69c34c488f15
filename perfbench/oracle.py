"""Independent references for the benchmark's correctness checks.

Nothing here imports emastate.  Each reference is built from first
principles with numpy and scipy, so a defect in the program cannot hide in
its own oracle:

* Gaussian series: the joint normal density of every observed cell, with the
  state covariance assembled block by block (discrete time from powers of A,
  continuous time from ``expm(A dt)`` and the ``solve_continuous_lyapunov``
  stationary covariance).
* Fits: an L-BFGS-B optimum of that joint density over the same free
  parameters (log standard deviations for variances).
* Non-Gaussian channels: a point-mass (grid) filter per independent state
  chain, which is exact up to quadrature error.

One reference sizes work rather than checking it: a plain BFGS search on a
textbook Kalman filter's likelihood (``reference_evaluations``) counts the
likelihood evaluations a fit of given data takes.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov, solve_triangular
from scipy.optimize import minimize
from scipy.special import expit, gammaln

LOG2PI = np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Joint Gaussian construction
# ---------------------------------------------------------------------------

def _fill_cov(diag_blocks: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(T n, T n) state covariance from Cov(x_t, x_t) and one-step maps.

    Cov(x_t, x_s) = steps[t-1] Cov(x_{t-1}, x_s) for s < t.
    """
    T, n, _ = diag_blocks.shape
    C = np.zeros((T, n, T, n))
    for t in range(T):
        C[t, :, t, :] = diag_blocks[t]
        if t:
            C[t, :, :t, :] = np.einsum("ij,jsk->isk", steps[t - 1], C[t - 1, :, :t, :])
    M = C.reshape(T * n, T * n)
    return np.tril(M) + np.tril(M, -1).T


def discrete_state_moments(A, G, Sigma, mu0, P0, U):
    """Mean (T, n) and covariance (T n, T n) of x_0..x_{T-1} for
    x_t = A x_{t-1} + G u_{t-1} + e_t, x_0 ~ N(mu0, P0)."""
    T, n = U.shape[0], A.shape[0]
    m = np.empty((T, n))
    P = np.empty((T, n, n))
    m[0], P[0] = mu0, P0
    for t in range(1, T):
        m[t] = A @ m[t - 1] + G @ U[t - 1]
        P[t] = A @ P[t - 1] @ A.T + Sigma
    return m, _fill_cov(P, np.repeat(A[None], max(T - 1, 0), axis=0))


def stationary_cov_ct(A, Sigma):
    """P_inf solving A P + P A' + Sigma = 0."""
    P = solve_continuous_lyapunov(A, -Sigma)
    return 0.5 * (P + P.T)


def ct_state_moments(A, Sigma, times):
    """Zero mean and covariance of a stationary continuous-time state sampled
    at ``times``: Cov(x_t, x_s) = expm(A (t - s)) P_inf."""
    T, n = times.size, A.shape[0]
    P_inf = stationary_cov_ct(A, Sigma)
    steps = expm(A[None] * np.diff(times)[:, None, None])
    return np.zeros((T, n)), _fill_cov(np.repeat(P_inf[None], T, axis=0), steps)


def observe(m, Cx, H, Theta):
    """Mean (T, p) and covariance (T p, T p) of y_t = H x_t + nu_t."""
    T, n = m.shape
    p = H.shape[0]
    C4 = Cx.reshape(T, n, T, n)
    Cy = np.einsum("ij,tjsk,lk->tisl", H, C4, H).reshape(T * p, T * p)
    Cy += np.kron(np.eye(T), Theta)
    return m @ H.T, Cy


def gaussian_loglik(y, missing, mean, cov) -> float:
    """log N(y_obs; mean_obs, cov_obs) over the observed cells of a (T, p) series."""
    obs = ~missing.reshape(-1)
    if not obs.any():
        return 0.0
    r = y.reshape(-1)[obs] - mean.reshape(-1)[obs]
    L = np.linalg.cholesky(cov[np.ix_(obs, obs)])
    z = solve_triangular(L, r, lower=True)
    return float(-0.5 * (obs.sum() * LOG2PI + 2.0 * np.log(np.diag(L)).sum() + z @ z))


def smoothed_means(y, missing, m, Cx, H, Theta) -> np.ndarray:
    """E[x_t | every observed cell], shape (T, n)."""
    T, n = m.shape
    p = H.shape[0]
    mean_y, Cy = observe(m, Cx, H, Theta)
    obs = ~missing.reshape(-1)
    if not obs.any():
        return m.copy()
    Cxy = np.einsum("tjsk,lk->tjsl", Cx.reshape(T, n, T, n), H).reshape(T * n, T * p)
    r = y.reshape(-1)[obs] - mean_y.reshape(-1)[obs]
    w = np.linalg.solve(Cy[np.ix_(obs, obs)], r)
    return m + (Cxy[:, obs] @ w).reshape(T, n)


# ---------------------------------------------------------------------------
# Reference optimum of a pooled discrete-time Gaussian fit
# ---------------------------------------------------------------------------

class PooledGaussianFit:
    """Pooled joint-Gaussian likelihood of a discrete template over free slots.

    ``free`` lists (matrix, index, transform) with transform "plain" (the
    entry itself) or "log_sd" (a diagonal variance parameterized by its log
    standard deviation); everything else stays at the template value.
    """

    def __init__(self, base: dict, free: list, series: list):
        self.base = {k: np.array(v, dtype=float) for k, v in base.items()}
        self.free = free
        self.series = series            # [(Y, missing, U)]

    def matrices(self, theta) -> dict:
        mats = {k: v.copy() for k, v in self.base.items()}
        for value, (name, idx, transform) in zip(theta, self.free):
            mats[name][idx] = np.exp(2.0 * value) if transform == "log_sd" else value
        return mats

    def theta_of(self, mats: dict) -> np.ndarray:
        out = []
        for name, idx, transform in self.free:
            v = float(np.asarray(mats[name], dtype=float)[idx])
            out.append(0.5 * np.log(v) if transform == "log_sd" else v)
        return np.array(out)

    def loglik_at(self, mats: dict) -> float:
        cache = {}
        total = 0.0
        for Y, miss, U in self.series:
            key = (Y.shape[0], U.tobytes())
            if key not in cache:
                m, Cx = discrete_state_moments(mats["A"], mats["G"], mats["Sigma"],
                                               mats["initial_mean"], mats["initial_cov"], U)
                cache[key] = observe(m, Cx, mats["H"], mats["Theta"])
            total += gaussian_loglik(Y, miss, *cache[key])
        return total

    def loglik(self, theta) -> float:
        try:
            return self.loglik_at(self.matrices(theta))
        except np.linalg.LinAlgError:
            return -np.inf

    def filter_loglik(self, theta) -> float:
        """The same likelihood by a textbook Kalman filter, which rounds
        like a recursive filter does.  Only the search that sizes a fit's work
        uses it; the correctness checks use the joint density."""
        mats = self.matrices(theta)
        return sum(kalman_loglik(Y, miss, U, mats) for Y, miss, U in self.series)

    def optimum(self, starts) -> float:
        """Best log-likelihood L-BFGS-B reaches from any of the starts."""
        best = -np.inf

        def negll(theta):
            ll = self.loglik(theta)
            return -ll if np.isfinite(ll) else 1e12

        for x0 in starts:
            best = max(best, self.loglik(x0))
            res = minimize(negll, x0, method="L-BFGS-B",
                           options={"ftol": 1e-13, "gtol": 1e-7, "maxiter": 1000})
            best = max(best, -float(res.fun))
        return best


def kalman_loglik(Y, missing, U, mats) -> float:
    """log p(observed cells) of one series by a Kalman filter that takes the
    observed cells one at a time, for x_t = A x_{t-1} + G u_{t-1} + e_t and
    y_t = x_t + nu_t with diagonal Theta.  Plain Python floats: at n <= 2
    that is several times faster than numpy."""
    n = mats["A"].shape[0]
    if not (np.array_equal(mats["H"], np.eye(n))
            and np.array_equal(mats["Theta"], np.diag(np.diag(mats["Theta"])))):
        raise ValueError("kalman_loglik needs H = I and a diagonal Theta")
    A, Q = mats["A"].tolist(), mats["Sigma"].tolist()
    theta = np.diag(mats["Theta"]).tolist()
    drive = (U[:-1] @ mats["G"].T).tolist() if U.shape[1] else [[0.0] * n] * len(U)
    x, P = mats["initial_mean"].tolist(), mats["initial_cov"].tolist()
    obs, y = (~missing).tolist(), Y.tolist()
    r = range(n)
    ll = 0.0
    for t in range(len(y)):
        if t:
            x = [sum(A[i][k] * x[k] for k in r) + drive[t - 1][i] for i in r]
            AP = [[sum(A[i][k] * P[k][j] for k in r) for j in r] for i in r]
            P = [[sum(AP[i][k] * A[j][k] for k in r) + Q[i][j] for j in r] for i in r]
        for j in r:
            if not obs[t][j]:
                continue
            s = P[j][j] + theta[j]
            if not s > 0.0:
                return -np.inf
            v = y[t][j] - x[j]
            col = [P[i][j] for i in r]
            x = [x[i] + col[i] * v / s for i in r]
            P = [[P[i][k] - col[i] * col[k] / s for k in r] for i in r]
            ll -= 0.5 * (LOG2PI + np.log(s) + v * v / s)
    return float(ll)


def lag_one_start(series, n: int) -> dict | None:
    """Start values from a lag-one regression over pings observed in full at
    both ends: A by least squares, the Sigma and Theta diagonals each at half
    the residual variance.  None when there are fewer than 3 n such pairs."""
    X0, X1 = [], []
    for Y, miss, _ in series:
        ok = ~miss.any(axis=1)
        pair = ok[:-1] & ok[1:]
        X0.append(Y[:-1][pair])
        X1.append(Y[1:][pair])
    X0, X1 = np.vstack(X0), np.vstack(X1)
    if X0.shape[0] < 3 * n:
        return None
    A = np.linalg.lstsq(X0, X1, rcond=None)[0].T
    R = np.cov((X1 - X0 @ A.T).T).reshape(n, n)
    half = np.diag(np.maximum(0.5 * np.diag(R), 1e-4))
    return {"A": A, "Sigma": half, "Theta": half}


def reference_evaluations(model: PooledGaussianFit, start: np.ndarray, restarts: int,
                          seed: int, tol: float) -> int:
    """Likelihood evaluations a plain search for the optimum needs.

    BFGS with central-difference gradients from ``start`` and from
    ``restarts - 1`` starts perturbed by N(0, (0.25 (1 + |start|))^2), each
    until the gradient's largest entry is below ``tol``.  This is the
    benchmark's measure of how much likelihood work a fit of these data
    takes; it depends on the data and the search settings only.

    The likelihood is the filter's (``filter_loglik``), not the joint
    density: a search is sensitive to rounding in the last digits, and the
    joint density's rounding sent BFGS down longer paths than a recursive
    filter's on about half of the seeds tried.
    """
    calls = 0

    def negll(theta):
        nonlocal calls
        calls += 1
        ll = model.filter_loglik(theta)
        return -ll if np.isfinite(ll) else 1e12

    def grad(theta):
        g = np.empty_like(theta)
        for i in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[i]))
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            g[i] = (negll(up) - negll(down)) / (2.0 * h)
        return g

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    starts = [start] + [start + rng.normal(0.0, 0.25 * (1.0 + np.abs(start)))
                        for _ in range(restarts - 1)]
    if not any(negll(s) < 1e12 for s in starts):
        return calls
    for s in starts:
        minimize(negll, s, jac=grad, method="BFGS", options={"gtol": tol, "maxiter": 200})
    return calls


def information_ranks(lls, ks, n_obs) -> tuple[list, list]:
    """AIC and BIC ranks; ties go to fewer parameters, then listed order."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: (vals[i], ks[i], i))
        out = [0] * len(vals)
        for pos, i in enumerate(order):
            out[i] = pos + 1
        return out
    aic = [2.0 * k - 2.0 * ll for ll, k in zip(lls, ks)]
    bic = [k * np.log(n_obs) - 2.0 * ll for ll, k in zip(lls, ks)]
    return ranks(aic), ranks(bic)


# ---------------------------------------------------------------------------
# Grid filter for one scalar AR(1) chain with a non-Gaussian channel
# ---------------------------------------------------------------------------

def graded_response_logpmf(k: int, x, discrimination, thresholds):
    th = np.asarray(thresholds, dtype=float)
    upper = expit(discrimination * (x - th[k - 2])) if k >= 2 else np.ones_like(x)
    lower = expit(discrimination * (x - th[k - 1])) if k <= th.size else np.zeros_like(x)
    return np.log(np.maximum(upper - lower, 1e-300))


def poisson_log_logpmf(k: float, x, scale):
    rate = scale * np.exp(x)
    return k * np.log(rate) - rate - gammaln(k + 1.0)


def grid_filter(a, s2, y, missing, logpmf, n_grid=801, span=10.0):
    """Exact-to-quadrature likelihood of y under x_t = a x_{t-1} + e_t,
    e_t ~ N(0, s2), x_0 stationary, one channel with log-pmf ``logpmf(y, x)``.

    Returns (log-likelihood, per-ping E[g^2]/E[g]^2 under the predictive,
    1 where the channel is missing): the relative second moment of the
    incremental weight, which sets a bootstrap particle filter's variance.
    """
    sd0 = np.sqrt(s2 / (1.0 - a * a))
    x = np.linspace(-span * sd0, span * sd0, n_grid)
    dx = x[1] - x[0]
    K = np.exp(-0.5 * (x[:, None] - a * x[None, :]) ** 2 / s2) / np.sqrt(2 * np.pi * s2) * dx
    f = np.exp(-0.5 * (x / sd0) ** 2)
    f /= f.sum()
    ll = 0.0
    rel2 = np.ones(y.size)
    for t in range(y.size):
        if t:
            f = K @ f
            f /= f.sum()
        if missing[t]:
            continue
        g = np.exp(logpmf(y[t], x))
        z = f @ g
        ll += np.log(z)
        rel2[t] = (f @ (g * g)) / (z * z)
        f = f * g / z
    return ll, rel2
