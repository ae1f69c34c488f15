"""Independent reference implementations used to freeze expected values.

These deliberately avoid the package's recursive code paths: the Gaussian
oracle builds the full joint normal distribution of all states and
observations and conditions on the observed cells; the integral oracles use
dense-grid quadrature.
"""

import numpy as np


def gaussian_joint(spec, Y, missing, U=None):
    """Joint-normal construction for short series.

    Returns a dict with exact predicted/filtered/smoothed moments, the
    smoothed lag-one cross-covariances, and the log-likelihood of the
    observed cells.
    """
    n, T, A = spec.n_states, Y.shape[0], spec.A
    mx = np.zeros((T, n))
    mx[0] = spec.initial_mean
    for t in range(1, T):
        mx[t] = A @ mx[t - 1]
        if U is not None and spec.n_inputs:
            mx[t] += spec.G @ U[t - 1]

    # Cov(x_s, x_t) blocks
    Pb = np.zeros((T, T, n, n))
    Pb[0, 0] = spec.initial_cov
    for t in range(1, T):
        Pb[t, t] = A @ Pb[t - 1, t - 1] @ A.T + spec.Sigma
    for s in range(T):
        for t in range(s + 1, T):
            Pb[s, t] = Pb[s, s] @ np.linalg.matrix_power(A, t - s).T
            Pb[t, s] = Pb[s, t].T

    Cx = np.block([[Pb[s, t] for t in range(T)] for s in range(T)])
    return _condition_on_cells(mx, Cx, spec.H, spec.Theta, Y, missing)


def ct_gaussian_joint(spec, timestamps, Y, missing):
    """:func:`gaussian_joint` for a stable continuous-time spec started in
    its stationary law (mean 0, ``initial_cov`` = P_inf) without inputs.

    Built without discretizing any gap: Cov(x_t, x_s) = expm(A (t - s)) P_inf
    for t >= s, with P_inf solving A P + P A' + Sigma = 0.
    """
    from scipy.linalg import expm, solve_continuous_lyapunov

    t = np.asarray(timestamps, dtype=float)
    T, n = t.size, spec.n_states
    P_inf = solve_continuous_lyapunov(spec.A, -spec.Sigma)
    P_inf = 0.5 * (P_inf + P_inf.T)
    Pb = np.zeros((T, T, n, n))
    for s in range(T):
        for u in range(s, T):
            Pb[u, s] = expm(spec.A * (t[u] - t[s])) @ P_inf
            Pb[s, u] = Pb[u, s].T
    Cx = np.block([[Pb[s, u] for u in range(T)] for s in range(T)])
    return _condition_on_cells(np.zeros((T, n)), Cx, spec.H, spec.Theta, Y, missing)


def _condition_on_cells(mx, Cx, H, Theta, Y, missing):
    """Predicted/filtered/smoothed moments and log-likelihood from the state
    means (T, n) and joint state covariance (T n, T n)."""
    T, n = mx.shape
    p = H.shape[0]
    Hb = np.kron(np.eye(T), H)
    Cy = Hb @ Cx @ Hb.T + np.kron(np.eye(T), Theta)
    Cxy = Cx @ Hb.T
    mx_flat = mx.reshape(-1)
    my = Hb @ mx_flat
    y_flat = Y.reshape(-1).copy()
    obs_flat = ~missing.reshape(-1)

    def conditional(x_idx, cond_mask):
        """E[x_idx | y at cond_mask] and its covariance."""
        if not cond_mask.any():
            return mx_flat[x_idx], Cx[np.ix_(x_idx, x_idx)]
        So = Cy[np.ix_(cond_mask, cond_mask)]
        Sxo = Cxy[np.ix_(x_idx, cond_mask)]
        K = Sxo @ np.linalg.inv(So)
        mean = mx_flat[x_idx] + K @ (y_flat[cond_mask] - my[cond_mask])
        cov = Cx[np.ix_(x_idx, x_idx)] - K @ Sxo.T
        return mean, 0.5 * (cov + cov.T)

    ping_of_cell = np.repeat(np.arange(T), p)
    out = {
        "predicted_mean": np.zeros((T, n)), "predicted_cov": np.zeros((T, n, n)),
        "filtered_mean": np.zeros((T, n)), "filtered_cov": np.zeros((T, n, n)),
        "smoothed_mean": np.zeros((T, n)), "smoothed_cov": np.zeros((T, n, n)),
        "lag_one_cov": np.zeros((max(T - 1, 0), n, n)),
    }
    for t in range(T):
        x_idx = np.arange(t * n, (t + 1) * n)
        past = obs_flat & (ping_of_cell <= t - 1)
        upto = obs_flat & (ping_of_cell <= t)
        out["predicted_mean"][t], out["predicted_cov"][t] = conditional(x_idx, past)
        out["filtered_mean"][t], out["filtered_cov"][t] = conditional(x_idx, upto)
        out["smoothed_mean"][t], out["smoothed_cov"][t] = conditional(x_idx, obs_flat)
    for t in range(T - 1):
        both = np.concatenate([np.arange((t + 1) * n, (t + 2) * n),
                               np.arange(t * n, (t + 1) * n)])
        _, cov = conditional(both, obs_flat)
        out["lag_one_cov"][t] = cov[:n, n:]

    k = int(obs_flat.sum())
    if k:
        So = Cy[np.ix_(obs_flat, obs_flat)]
        r = y_flat[obs_flat] - my[obs_flat]
        sign, logdet = np.linalg.slogdet(So)
        out["log_likelihood"] = float(
            -0.5 * (k * np.log(2.0 * np.pi) + logdet + r @ np.linalg.solve(So, r)))
    else:
        out["log_likelihood"] = 0.0
    return out


def random_stable_spec(rng, n=2, p=2, with_theta=True):
    """A random stable discrete model with PD covariances."""
    import emastate as es
    A = rng.normal(scale=0.5, size=(n, n))
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    if rho >= 0.95:
        A *= 0.9 / rho
    Ls = rng.normal(scale=0.6, size=(n, n))
    Sigma = Ls @ Ls.T + 0.2 * np.eye(n)
    H = rng.normal(scale=1.0, size=(p, n))
    Lt = rng.normal(scale=0.4, size=(p, p))
    Theta = Lt @ Lt.T + (0.2 * np.eye(p) if with_theta else 0.05 * np.eye(p))
    mu0 = rng.normal(size=n)
    Lp = rng.normal(scale=0.5, size=(n, n))
    P0 = Lp @ Lp.T + 0.3 * np.eye(n)
    return es.ModelSpec(A=A, Sigma=Sigma, H=H, Theta=Theta,
                        initial_mean=mu0, initial_cov=P0)


def trapezoid_noise_integral(a, sigma, dt, n_grid=10_000):
    """Trapezoid-rule evaluation of int_0^dt e^{a s} sigma e^{a s} ds (scalar)."""
    s = np.linspace(0.0, dt, n_grid)
    f = np.exp(a * s) * sigma * np.exp(a * s)
    return float(np.trapezoid(f, s))


def van_loan_reference(A, Sigma, G, dt, digits=40):
    """(A_d, Sigma_d, G_d) of dx = A x dt + G u dt + dW, Cov(dW) = Sigma dt,
    over a gap ``dt``, from block exponentials in ``digits``-digit arithmetic
    (Van Loan 1978, *IEEE TAC* 23:395):

        exp([[A, G], [0, 0]] dt) holds G_d = int_0^dt exp(A s) ds G, and
        exp([[K, vec Sigma], [0, 0]] dt) holds vec Sigma_d, K = A (+) A,

    so no block needs exp(-A dt), which would cancel on long gaps."""
    import mpmath as mp

    n, m = A.shape[0], G.shape[1]
    with mp.workdps(digits):
        h = mp.mpf(float(dt))
        B = mp.zeros(n + m)
        for i in range(n):
            for j in range(n):
                B[i, j] = float(A[i, j])
            for j in range(m):
                B[i, n + j] = float(G[i, j])
        EB = mp.expm(B * h)
        K = mp.zeros(n * n + 1)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    K[i * n + j, k * n + j] += float(A[i, k])
                    K[i * n + j, i * n + k] += float(A[j, k])
                K[i * n + j, n * n] = float(Sigma[i, j])
        EK = mp.expm(K * h)
        A_d = [[float(EB[i, j]) for j in range(n)] for i in range(n)]
        G_d = [[float(EB[i, n + j]) for j in range(m)] for i in range(n)]
        S_d = [[float(EK[i * n + j, n * n]) for j in range(n)] for i in range(n)]
    return np.array(A_d), np.array(S_d), np.array(G_d).reshape(n, m)


def poisson_t2_loglik(a, sigma2, mu0, p0, scale, link, y, n_grid=400, span=8.0):
    """Dense-grid quadrature of the T=2 Poisson state-space likelihood.

    p(y0, y1) = iint N(x0; mu0, p0) Pois(y0; r(x0))
                     N(x1; a x0, sigma2) Pois(y1; r(x1)) dx1 dx0
    with r(x) = scale*x (identity; zero likelihood where r <= 0) or
    scale*exp(x).
    """
    from scipy.special import gammaln

    sd0 = np.sqrt(p0)
    sd1 = np.sqrt(sigma2)
    lo = mu0 - span * (sd0 + sd1) - span
    hi = mu0 + span * (sd0 + sd1) + span
    x0 = np.linspace(lo, hi, n_grid)
    x1 = np.linspace(lo, hi, n_grid)

    def pois_pmf(k, x):
        rate = scale * (np.exp(x) if link == "log" else x)
        out = np.zeros_like(x)
        ok = rate > 0
        out[ok] = np.exp(k * np.log(rate[ok]) - rate[ok] - gammaln(k + 1.0))
        return out

    prior0 = np.exp(-0.5 * (x0 - mu0) ** 2 / p0) / np.sqrt(2 * np.pi * p0)
    g0 = prior0 * pois_pmf(y[0], x0)
    trans = (np.exp(-0.5 * (x1[None, :] - a * x0[:, None]) ** 2 / sigma2)
             / np.sqrt(2 * np.pi * sigma2))
    g1 = pois_pmf(y[1], x1)
    inner = np.trapezoid(trans * g1[None, :], x1, axis=1)
    total = np.trapezoid(g0 * inner, x0)
    return float(np.log(total))


def graded_response_stationary_probs(a, sigma2, discrimination, thresholds,
                                     n_grid=10_000, span=10.0):
    """Category probabilities under the stationary state distribution, by
    quadrature over a dense state grid."""
    from scipy.special import expit

    var = sigma2 / (1.0 - a * a)
    sd = np.sqrt(var)
    x = np.linspace(-span * sd, span * sd, n_grid)
    dens = np.exp(-0.5 * x * x / var) / np.sqrt(2 * np.pi * var)
    th = np.asarray(thresholds, dtype=float)
    K = th.size + 1
    exceed = expit(discrimination * (x[:, None] - th[None, :]))   # P(y > i)
    upper = np.hstack([np.ones((n_grid, 1)), exceed])             # P(y > k-1)
    lower = np.hstack([exceed, np.zeros((n_grid, 1))])            # P(y > k)
    probs = np.empty(K)
    for k in range(K):
        probs[k] = np.trapezoid(dens * (upper[:, k] - lower[:, k]), x)
    return probs


def bootstrap_filter(spec, y, missing, u, trans, n_particles, seed):
    """Reference bootstrap particle filter, written plainly.

    It draws its random numbers in the package's order (initial particles,
    one normal block per step, one uniform per systematic resample when the
    ESS falls below N/2), normalizes with ``scipy.special.logsumexp``
    wherever a normalized weight is read, and evaluates every ping's
    observation density and both weighted moments afresh.  ``trans[k]`` is
    (A, Sigma, G) for the step into ping k+1.  Returns (pred_m, pred_P,
    filt_m, filt_P, loglik terms).
    """
    from scipy.linalg import cho_factor, cho_solve
    from scipy.special import expit, gammaln, logsumexp

    T, n, N = y.shape[0], spec.n_states, n_particles
    rng = np.random.default_rng(seed)

    def density(pts, y_t, obs):
        logw = np.zeros(N)
        gauss = np.array([c.family == "gaussian" for c in spec.channels]) & obs
        if gauss.any():
            Hg = spec.H[gauss]
            Tg = spec.Theta[np.ix_(gauss, gauss)]
            resid = y_t[gauss][None, :] - pts @ Hg.T
            cf = cho_factor(Tg, lower=True)
            maha = np.einsum("ij,ij->i", resid, cho_solve(cf, resid.T).T)
            logdet = 2.0 * np.log(np.diag(cf[0])).sum()
            logw += -0.5 * (gauss.sum() * np.log(2.0 * np.pi) + logdet + maha)
        for j, ch in enumerate(spec.channels):
            if not obs[j] or ch.family == "gaussian":
                continue
            s = pts[:, ch.state_index]
            if ch.family == "poisson":
                rate = ch.scale * (np.exp(s) if ch.link == "log" else s)
                lp = np.full(N, -np.inf)
                ok = rate > 0
                k = y_t[j]
                lp[ok] = k * np.log(rate[ok]) - rate[ok] - gammaln(k + 1.0)
                logw += lp
            elif ch.family == "graded_response":
                th = np.asarray(ch.thresholds)
                k = int(y_t[j])
                upper = (expit(ch.discrimination * (s - th[k - 2]))
                         if k >= 2 else np.ones_like(s))
                lower = (expit(ch.discrimination * (s - th[k - 1]))
                         if k <= th.size else np.zeros_like(s))
                logw += np.log(np.maximum(upper - lower, 1e-300))
            else:
                p = expit(ch.discrimination * (s - ch.thresholds[0]))
                logw += np.log(np.maximum(p if y_t[j] >= 0.5 else 1.0 - p, 1e-300))
        return logw

    def moments(pts, lw):
        wts = np.exp(lw - logsumexp(lw))
        mean = wts @ pts
        d = pts - mean
        cov = (d * wts[:, None]).T @ d
        return mean, 0.5 * (cov + cov.T)

    L0 = np.linalg.cholesky(spec.initial_cov)
    pts = spec.initial_mean + rng.standard_normal((N, n)) @ L0.T
    log_w = np.full(N, -np.log(N))
    pred_m = np.empty((T, n)); pred_P = np.empty((T, n, n))
    filt_m = np.empty((T, n)); filt_P = np.empty((T, n, n))
    ll = np.zeros(T)
    for t in range(T):
        if t > 0:
            A, Sigma, G = trans[t - 1]
            drift = (G @ u[t - 1]) if G.shape[1] else 0.0
            L = np.linalg.cholesky(Sigma)
            pts = pts @ A.T + drift + rng.standard_normal((N, n)) @ L.T
        pred_m[t], pred_P[t] = moments(pts, log_w)
        obs = ~missing[t]
        if obs.any():
            incr = density(pts, y[t], obs)
            tot = logsumexp(log_w + incr)
            ll[t] = tot
            log_w = log_w + incr - tot
        filt_m[t], filt_P[t] = moments(pts, log_w)
        if 1.0 / np.exp(logsumexp(2.0 * log_w)) < N / 2.0:
            idx = _systematic_resample(np.exp(log_w - logsumexp(log_w)), rng)
            pts = pts[idx]
            log_w = np.full(N, -np.log(N))
    return pred_m, pred_P, filt_m, filt_P, ll


def _systematic_resample(weights, rng):
    N = weights.size
    positions = (rng.uniform() + np.arange(N)) / N
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), N - 1)


def batch_means_se(indicator, n_batches=50):
    """Monte-Carlo standard error of the mean of a correlated 0/1 series."""
    x = np.asarray(indicator, dtype=float)
    m = x.size // n_batches
    x = x[: m * n_batches]
    means = x.reshape(n_batches, m).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(n_batches))


class ObservedCellGaussian:
    """Joint normal law of the observed cells of a discrete-time linear
    Gaussian state-space model, as a function of chosen free entries.

    The covariance is built directly, with no filtering recursion:
    P_t = A P_{t-1} A' + Sigma from the template's ``initial_cov`` P_0,
    Cov(x_t, x_s) = A^{t-s} P_s for t >= s, and Cov(y_s, y_t) =
    H Cov(x_s, x_t) H' + Theta [s == t].  ``free`` lists the entries
    ``(name, index)`` that vary, on their natural scale; a covariance entry
    moves together with its mirror.  Everything else, ``initial_cov``
    included, stays at the template's value, as in
    ``Parameterization.unpack``.  Derivatives of the moments are taken by
    complex step, which is exact to rounding because every moment is a
    polynomial in the free entries.
    """

    NAMES = ("A", "Sigma", "H", "Theta", "initial_mean", "initial_cov")
    _STEP = 1e-30

    def __init__(self, spec, missing, free):
        self.base = {name: np.array(getattr(spec, name), dtype=float)
                     for name in self.NAMES}
        self.obs = ~np.asarray(missing, dtype=bool).reshape(-1)
        self.T = np.asarray(missing).shape[0]
        self.free = [(name, tuple(idx)) for name, idx in free]
        t, s = np.meshgrid(np.arange(self.T), np.arange(self.T), indexing="ij")
        self._lo, self._hi = np.minimum(t, s), np.maximum(t, s)
        self._lower = (t >= s)[:, :, None, None]

    def values(self, spec) -> np.ndarray:
        """The free entries of ``spec`` as a vector."""
        return np.array([getattr(spec, name)[idx] for name, idx in self.free])

    def moments(self, theta):
        """Mean (k,) and covariance (k, k) of the k observed cells."""
        theta = np.asarray(theta)
        m = {name: v.astype(theta.dtype) for name, v in self.base.items()}
        for (name, idx), v in zip(self.free, theta):
            m[name][idx] = v
            if name in ("Sigma", "Theta", "initial_cov"):
                m[name][idx[::-1]] = v
        A, H, T = m["A"], m["H"], self.T
        n = A.shape[0]
        mean = np.empty((T, n), dtype=theta.dtype)
        P = np.empty((T, n, n), dtype=theta.dtype)
        mean[0], P[0] = m["initial_mean"], m["initial_cov"]
        for t in range(1, T):
            mean[t] = A @ mean[t - 1]
            P[t] = A @ P[t - 1] @ A.T + m["Sigma"]
        powers = np.empty((T, n, n), dtype=theta.dtype)
        powers[0] = np.eye(n)
        for d in range(1, T):
            powers[d] = A @ powers[d - 1]
        below = powers[self._hi - self._lo] @ P[self._lo]   # Cov(x_hi, x_lo)
        Cx = np.where(self._lower, below, below.transpose(0, 1, 3, 2))
        Cy = np.einsum("ij,tjsk,lk->tisl", H, Cx.transpose(0, 2, 1, 3), H,
                       optimize=True)                   # Cov(y_t, y_s)
        Cy[np.arange(T), :, np.arange(T), :] += m["Theta"]
        p = H.shape[0]
        my = (mean @ H.T).reshape(-1)[self.obs]
        return my, Cy.reshape(T * p, T * p)[np.ix_(self.obs, self.obs)]

    def _derivatives(self, theta):
        dm, dC = [], []
        for i in range(len(self.free)):
            z = np.asarray(theta, dtype=complex)
            z[i] += 1j * self._STEP
            mz, Cz = self.moments(z)
            dm.append(mz.imag / self._STEP)
            dC.append(Cz.imag / self._STEP)
        return dm, dC

    def _factor(self, theta):
        """Observed-cell mean at real ``theta`` and the Cholesky factor of
        the covariance."""
        from scipy.linalg import cho_factor
        mu, C = self.moments(np.asarray(theta, dtype=float))
        return mu, cho_factor(C, lower=True)

    def loglik(self, theta, Y, gradient=False):
        """Log-density of the observed cells of ``Y``, and its gradient in
        the free entries when ``gradient``."""
        from scipy.linalg import cho_solve
        mu, cf = self._factor(theta)
        r = np.asarray(Y, dtype=float).reshape(-1)[self.obs] - mu
        alpha = cho_solve(cf, r)
        logdet = 2.0 * np.sum(np.log(np.diag(cf[0])))
        ll = -0.5 * (r.size * np.log(2.0 * np.pi) + logdet + r @ alpha)
        if not gradient:
            return float(ll)
        Cinv = cho_solve(cf, np.eye(r.size))
        g = np.array([-0.5 * np.sum(Cinv * dCi) + 0.5 * alpha @ dCi @ alpha
                      + dmi @ alpha for dmi, dCi in zip(*self._derivatives(theta))])
        return float(ll), g

    def information(self, theta) -> np.ndarray:
        """Expected Fisher information of the observed cells in the free
        entries: I_ij = tr(C^-1 dC_i C^-1 dC_j) / 2 + dm_i' C^-1 dm_j."""
        from scipy.linalg import cho_solve
        _, cf = self._factor(theta)
        Cinv = cho_solve(cf, np.eye(cf[0].shape[0]))
        dm, dC = self._derivatives(theta)
        W = [Cinv @ d for d in dC]
        q = len(self.free)
        info = np.empty((q, q))
        for i in range(q):
            for j in range(q):
                info[i, j] = 0.5 * np.sum(W[i] * W[j].T) + dm[i] @ Cinv @ dm[j]
        return info
