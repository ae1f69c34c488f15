"""Model specification, validation, and time-mode transforms.

The central object is :class:`ModelSpec`, a linear-Gaussian state equation

    x[t+1] = A x[t] + G u[t] + e[t],      e[t] ~ N(0, Sigma)

observed through per-channel measurement families (Gaussian rows of H with
error covariance Theta, or Poisson / graded-response / Bernoulli-logistic
channels driven by a single state each).  ``time_mode`` selects whether A is
a one-step transition matrix or the drift of the stochastic differential
equation dx = A x dt + G u dt + dW; :func:`discretize` and
:func:`to_continuous` convert between the two representations.  Every
continuous-time gap, in :func:`discretize`, the filters and the simulator,
comes from one batched kernel, :func:`_gap_transitions`: a degree-17 Taylor
series of Van Loan's integrals in Horner form at a halved step, whose
truncation error stays below 2^-53 relative, then doublings back to the gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm, logm, solve_continuous_lyapunov, solve_discrete_lyapunov

from .errors import EmaError

GAUSSIAN = "gaussian"
POISSON = "poisson"
GRADED_RESPONSE = "graded_response"
BERNOULLI_LOGISTIC = "bernoulli_logistic"
FAMILIES = (GAUSSIAN, POISSON, GRADED_RESPONSE, BERNOULLI_LOGISTIC)

DIFFUSE_VARIANCE = 1e6


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Factor L with L L' = M for M symmetric PSD within round-off (as
    :func:`validate_model` means it; zero matrices allowed), else ``NOT_PSD``."""
    if not M.size:
        return np.asarray(M, dtype=float)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        why = _psd_violation(M)
        if why is not None:
            raise EmaError("NOT_PSD", f"cannot factor the matrix: {why}")
        w, V = np.linalg.eigh(0.5 * (M + M.T))
        return V * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class MeasurementChannel:
    """One observed variable and its measurement family.

    Non-Gaussian families are driven by a single state, ``state_index``;
    Gaussian channels use their row of the model's H matrix instead.

    scale           Poisson rate multiplier (rate = scale*x or scale*exp(x)).
    link            Poisson only: "identity" or "log".
    discrimination  slope of the logistic curves (graded response and
                    Bernoulli-logistic).
    thresholds      strictly increasing cutpoints, one fewer than the number
                    of categories (graded response); the single threshold of
                    a Bernoulli-logistic channel.
    categories      number of ordered categories K (graded response); values
                    are labelled 1..K.
    """

    family: str
    state_index: int = 0
    scale: float = 1.0
    link: str = "identity"
    discrimination: float = 1.0
    thresholds: tuple[float, ...] = ()
    categories: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(v) for v in self.thresholds))
        if self.family == GRADED_RESPONSE and self.categories is None:
            object.__setattr__(self, "categories", len(self.thresholds) + 1)

    def to_dict(self) -> dict:
        d = {"family": self.family, "state_index": self.state_index}
        if self.family == POISSON:
            d["scale"] = self.scale
            d["link"] = self.link
        if self.family in (GRADED_RESPONSE, BERNOULLI_LOGISTIC):
            d["discrimination"] = self.discrimination
            d["thresholds"] = list(self.thresholds)
        if self.family == GRADED_RESPONSE:
            d["categories"] = self.categories
        return d

    @staticmethod
    def from_dict(d: dict) -> "MeasurementChannel":
        allowed = {"family", "state_index", "scale", "link", "discrimination",
                   "thresholds", "categories"}
        unknown = set(d) - allowed
        if unknown:
            raise EmaError("UNKNOWN_KEY", f"unknown channel keys: {sorted(unknown)}")
        if "family" not in d:
            raise EmaError("PARSE_ERROR", "channel missing 'family'")
        return MeasurementChannel(
            family=d["family"],
            state_index=int(d.get("state_index", 0)),
            scale=float(d.get("scale", 1.0)),
            link=d.get("link", "identity"),
            discrimination=float(d.get("discrimination", 1.0)),
            thresholds=tuple(d.get("thresholds", ())),
            categories=d.get("categories"),
        )


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterization of a state-space model.

    All matrices are copied and frozen at construction; instances are
    immutable and safe to share across threads.  ``initial_mean`` and
    ``initial_cov`` default to the stationary moments when the dynamics are
    stable, and to a diffuse prior (mean 0, covariance 1e6*I) otherwise.
    """

    A: np.ndarray
    Sigma: np.ndarray
    G: np.ndarray | None = None
    H: np.ndarray | None = None
    Theta: np.ndarray | None = None
    channels: tuple[MeasurementChannel, ...] | None = None
    initial_mean: np.ndarray | None = None
    initial_cov: np.ndarray | None = None
    time_mode: str = "discrete"
    random_walk_states: frozenset[int] = frozenset()
    n_states: int = field(init=False)
    n_obs: int = field(init=False)
    n_inputs: int = field(init=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise EmaError("INVALID_MODEL", f"A must be square, got {A.shape}")
        if self.time_mode not in ("discrete", "continuous"):
            raise EmaError("INVALID_MODEL", f"bad time_mode {self.time_mode!r}")

        Sigma = np.atleast_2d(np.asarray(self.Sigma, dtype=float))
        if Sigma.shape != (n, n):
            raise EmaError("INVALID_MODEL", f"Sigma must be {n}x{n}, got {Sigma.shape}")

        G = np.zeros((n, 0)) if self.G is None else np.asarray(self.G, dtype=float)
        if G.ndim == 1:
            G = G.reshape(n, -1)
        if G.shape[0] != n:
            raise EmaError("INVALID_MODEL", f"G must have {n} rows, got {G.shape}")
        m = G.shape[1]

        if self.H is None:
            H = np.eye(n)
        else:
            H = np.atleast_2d(np.asarray(self.H, dtype=float))
        p = H.shape[0]
        if H.shape[1] != n:
            raise EmaError("INVALID_MODEL", f"H must have {n} columns, got {H.shape}")

        Theta = np.zeros((p, p)) if self.Theta is None else np.atleast_2d(
            np.asarray(self.Theta, dtype=float))
        if Theta.shape != (p, p):
            raise EmaError("INVALID_MODEL", f"Theta must be {p}x{p}, got {Theta.shape}")

        channels = self.channels
        if channels is None:
            channels = tuple(MeasurementChannel(GAUSSIAN) for _ in range(p))
        else:
            channels = tuple(channels)
        if len(channels) != p:
            raise EmaError("INVALID_MODEL",
                           f"need {p} channels (one per row of H), got {len(channels)}")

        rw = frozenset(int(i) for i in self.random_walk_states)
        for i in rw:
            if not 0 <= i < n:
                raise EmaError("INVALID_MODEL", f"random_walk_states index {i} out of range")

        if self.initial_mean is None:
            mu0 = np.zeros(n)
        else:
            mu0 = np.asarray(self.initial_mean, dtype=float).reshape(-1)
            if mu0.shape != (n,):
                raise EmaError("INVALID_MODEL", f"initial_mean must have length {n}")
        if self.initial_cov is None:
            P0 = _default_initial_cov(A, Sigma, self.time_mode)
        else:
            P0 = np.atleast_2d(np.asarray(self.initial_cov, dtype=float))
            if P0.shape != (n, n):
                raise EmaError("INVALID_MODEL", f"initial_cov must be {n}x{n}")

        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "Sigma", _frozen(Sigma))
        object.__setattr__(self, "G", _frozen(G))
        object.__setattr__(self, "H", _frozen(H))
        object.__setattr__(self, "Theta", _frozen(Theta))
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "initial_mean", _frozen(mu0))
        object.__setattr__(self, "initial_cov", _frozen(P0))
        object.__setattr__(self, "random_walk_states", rw)
        object.__setattr__(self, "n_states", n)
        object.__setattr__(self, "n_obs", p)
        object.__setattr__(self, "n_inputs", m)

    @property
    def all_gaussian(self) -> bool:
        return all(c.family == GAUSSIAN for c in self.channels)

    def with_matrices(self, **kwargs) -> "ModelSpec":
        """New spec with some matrices replaced (dims must be unchanged)."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {
            "n_states": self.n_states,
            "n_obs": self.n_obs,
            "n_inputs": self.n_inputs,
            "A": self.A.tolist(),
            "G": self.G.tolist(),
            "H": self.H.tolist(),
            "Sigma": self.Sigma.tolist(),
            "Theta": self.Theta.tolist(),
            "channels": [c.to_dict() for c in self.channels],
            "initial_mean": self.initial_mean.tolist(),
            "initial_cov": self.initial_cov.tolist(),
            "time_mode": self.time_mode,
            "random_walk_states": sorted(self.random_walk_states),
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        allowed = {"n_states", "n_obs", "n_inputs", "A", "G", "H", "Sigma", "Theta",
                   "channels", "initial_mean", "initial_cov", "time_mode",
                   "random_walk_states"}
        unknown = set(d) - allowed
        if unknown:
            raise EmaError("UNKNOWN_KEY", f"unknown model keys: {sorted(unknown)}")
        for key in ("A", "Sigma"):
            if key not in d:
                raise EmaError("PARSE_ERROR", f"model missing required key {key!r}")
        channels = None
        if "channels" in d:
            channels = tuple(MeasurementChannel.from_dict(c) for c in d["channels"])
        spec = ModelSpec(
            A=np.asarray(d["A"], dtype=float),
            Sigma=np.asarray(d["Sigma"], dtype=float),
            G=np.asarray(d["G"], dtype=float) if "G" in d else None,
            H=np.asarray(d["H"], dtype=float) if "H" in d else None,
            Theta=np.asarray(d["Theta"], dtype=float) if "Theta" in d else None,
            channels=channels,
            initial_mean=d.get("initial_mean"),
            initial_cov=d.get("initial_cov"),
            time_mode=d.get("time_mode", "discrete"),
            random_walk_states=frozenset(d.get("random_walk_states", ())),
        )
        for key, want in (("n_states", spec.n_states), ("n_obs", spec.n_obs),
                          ("n_inputs", spec.n_inputs)):
            if key in d and int(d[key]) != want:
                raise EmaError("PARSE_ERROR",
                               f"declared {key}={d[key]} but matrices imply {want}")
        return spec

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "ModelSpec":
        try:
            with open(path) as fh:
                d = json.load(fh)
        except FileNotFoundError:
            raise EmaError("FILE_NOT_FOUND", f"no such model file: {path}")
        except json.JSONDecodeError as exc:
            raise EmaError("PARSE_ERROR", f"{path}: {exc}")
        return ModelSpec.from_dict(d)


def _is_stable(A: np.ndarray, time_mode: str) -> bool:
    eig = np.linalg.eigvals(A)
    if time_mode == "discrete":
        return bool(np.max(np.abs(eig)) < 1.0)
    return bool(np.max(eig.real) < 0.0)


def _default_initial_cov(A, Sigma, time_mode) -> np.ndarray:
    if _is_stable(A, time_mode):
        if time_mode == "discrete":
            cov = solve_discrete_lyapunov(A, Sigma)
        else:
            cov = solve_continuous_lyapunov(A, -Sigma)
        return 0.5 * (cov + cov.T)
    return DIFFUSE_VARIANCE * np.eye(A.shape[0])


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_model`: errors block use, warnings do not."""

    errors: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {"errors": [list(e) for e in self.errors],
                "warnings": [list(w) for w in self.warnings]}


def _psd_violation(M: np.ndarray) -> str | None:
    """None if symmetric PSD within tolerance, else a description."""
    asym = np.max(np.abs(M - M.T)) if M.size else 0.0
    if asym > 1e-8 * (1.0 + np.max(np.abs(M))):
        return f"not symmetric (max asymmetry {asym:.3g})"
    S = 0.5 * (M + M.T)
    eig = np.linalg.eigvalsh(S) if S.size else np.array([0.0])
    tol = 1e-10 * abs(np.trace(S))
    if eig.min() < -tol:
        return f"minimum eigenvalue {eig.min():.6g} below tolerance {-tol:.3g}"
    return None


def validate_model(spec: ModelSpec) -> ValidationReport:
    """Check every ModelSpec invariant; violations come back as report data.

    Pure: the spec is not touched and repeated calls return equal reports.
    """
    report = ValidationReport()

    for name, M, code in (("Sigma", spec.Sigma, "NON_PSD_SIGMA"),
                          ("Theta", spec.Theta, "NON_PSD_THETA"),
                          ("initial_cov", spec.initial_cov, "NON_PSD_INITIAL_COV")):
        why = _psd_violation(M)
        if why is not None:
            report.errors.append((code, f"{name} is {why}"))

    for i in sorted(spec.random_walk_states):
        row = spec.A[i]
        want_diag = 1.0 if spec.time_mode == "discrete" else 0.0
        off = np.delete(row, i)
        if row[i] != want_diag or np.any(off != 0.0):
            report.errors.append((
                "BAD_RANDOM_WALK_ROW",
                f"state {i} is flagged as a random walk but A[{i},:] is not "
                f"pinned (diagonal must be exactly {want_diag}, off-diagonals 0)"))

    free = sorted(set(range(spec.n_states)) - spec.random_walk_states)
    if free:
        sub = spec.A[np.ix_(free, free)]
        eig = np.linalg.eigvals(sub)
        if spec.time_mode == "discrete":
            rho = float(np.max(np.abs(eig)))
            if rho >= 1.0:
                report.warnings.append((
                    "UNSTABLE_DYNAMICS",
                    f"spectral radius {rho:.6g} >= 1 outside the declared "
                    f"random-walk states"))
        else:
            reals = float(np.max(eig.real))
            if reals >= 0.0:
                report.warnings.append((
                    "UNSTABLE_DYNAMICS",
                    f"drift eigenvalue real part {reals:.6g} >= 0 outside the "
                    f"declared random-walk states"))

    for j, ch in enumerate(spec.channels):
        if ch.family not in FAMILIES:
            report.errors.append(("BAD_FAMILY", f"channel {j}: unknown family {ch.family!r}"))
            continue
        if not 0 <= ch.state_index < spec.n_states:
            report.errors.append(("BAD_STATE_INDEX",
                                  f"channel {j}: state_index {ch.state_index} out of range"))
        if ch.family == POISSON:
            if ch.scale <= 0:
                report.errors.append(("BAD_SCALE", f"channel {j}: scale must be > 0"))
            if ch.link not in ("identity", "log"):
                report.errors.append(("BAD_LINK", f"channel {j}: link {ch.link!r}"))
        if ch.family in (GRADED_RESPONSE, BERNOULLI_LOGISTIC):
            if ch.discrimination <= 0:
                report.errors.append(("BAD_DISCRIMINATION",
                                      f"channel {j}: discrimination must be > 0"))
        if ch.family == GRADED_RESPONSE:
            th = np.asarray(ch.thresholds)
            if th.size == 0 or np.any(np.diff(th) <= 0):
                report.errors.append(("BAD_THRESHOLDS",
                                      f"channel {j}: thresholds must be strictly increasing"))
            elif ch.categories != th.size + 1 or ch.categories < 2:
                report.errors.append(("BAD_CATEGORIES",
                                      f"channel {j}: categories must equal len(thresholds)+1 >= 2"))
        if ch.family == BERNOULLI_LOGISTIC and len(ch.thresholds) != 1:
            report.errors.append(("BAD_THRESHOLDS",
                                  f"channel {j}: bernoulli_logistic needs exactly one threshold"))
    return report


def require_valid(spec: ModelSpec) -> None:
    """Raise the first validation error as an EmaError."""
    report = validate_model(spec)
    if report.errors:
        code, msg = report.errors[0]
        raise EmaError(code, msg)


def _pin_random_walk_rows(A: np.ndarray, rw: frozenset[int], time_mode: str) -> np.ndarray:
    # expm/logm keep pinned rows only to round-off; restore them exactly.
    A = A.copy()
    for i in rw:
        A[..., i, :] = 0.0
        A[..., i, i] = 1.0 if time_mode == "discrete" else 0.0
    return A


def _expm_integral(A_c: np.ndarray, dt) -> np.ndarray:
    """integral_0^dt exp(A s) ds, also for singular A; stacked A and dt broadcast."""
    n, Z = A_c.shape[-1], np.zeros_like(A_c)
    return expm(np.block([[A_c, Z + np.eye(n)], [Z, Z]]) * dt)[..., :n, n:]


# Degree of the Taylor series in :func:`_gap_transitions` (its bound is there)
_TAYLOR_DEGREE = 17


def _gap_transitions(spec: ModelSpec, dts, drifts=None):
    """Exact (A_d, Sigma_d, G_d) of the distinct gaps of ``dts``, stacked,
    and ``which``: gap i uses entry ``which[i]``.  Each gap runs under the
    spec's drift or its own (``drifts``, (K, n, n)); gaps with equal drift
    and equal length share the entry built at the first of them, and no
    entry depends on the other gaps of the call.

    One truncated Taylor series, evaluated in Horner form by batched
    products over the whole stack, gives Van Loan's (1978, *IEEE TAC*
    23:395) integrals at a step h = dt / 2^s (Moler & Van Loan 2003, *SIAM
    Rev.* 45:3, methods 3 and 19).  With X = A h and
    phi(Z) = sum_k Z^k / (k+1)!, the series of exp(A s) on [0, h]:

        A(h) = I + X phi(X),   G(h) = h phi(X) G,   Sigma(h) = h phi(M) Sigma,

    where M(R) = X R + (X R)' is the Lyapunov operator of X: phi = I + (X/j) phi
    and R = Sigma + M(R) / j run from the top degree down.  s is the least
    halving count with nu = h max(||A||_1, ||A||_inf) <= 1/2; then
    ||X||_1 <= 1/2 and ||M||_1 <= ||X||_1 + ||X||_inf <= 1 (the 1-norm alone
    does not bound M for a non-normal drift), so both series, cut after
    degree 17, leave a relative remainder below
    sum_{k>=18} 1/(k+1)! < 8.7e-18 < 2^-53.  s masked doublings follow,
    A(2h) = A(h)^2, Sigma(2h) = Sigma(h) + A(h) Sigma(h) A(h)',
    G(2h) = G(h) + A(h) G(h) (Higham 2005, *SIAM J. Matrix Anal. Appl.*
    26:1179).  A gap whose result is not finite raises ``NON_FINITE``
    naming that gap (``err.gap``, its index in ``dts``).
    """
    dts = np.asarray(dts, dtype=float).reshape(-1)
    bad = ~((dts > 0) & np.isfinite(dts))
    if bad.any():
        err = EmaError("INVALID_MODEL", f"dt must be positive and finite, got {dts[bad][0]}")
        err.gap = int(np.argmax(bad))
        raise err
    n, K = spec.n_states, dts.size
    rows = dts[:, None] if drifts is None else np.concatenate(
        [np.reshape(drifts, (K, n * n)), dts[:, None]], axis=1)
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1] * 8)))[:, 0]
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    gaps, dts = dts, dts[first]
    A_c = np.array(np.broadcast_to(spec.A if drifts is None else drifts[first],
                                   (first.size, n, n)))
    # max(||A||_1, ||A||_inf); a non-finite drift fails below
    norm = np.maximum(np.abs(A_c).sum(-2).max(-1), np.abs(A_c).sum(-1).max(-1))
    I = np.eye(n)
    Q = 0.5 * (spec.Sigma + spec.Sigma.T)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.where(np.isfinite(norm) & (norm * dts > 0.5),
                     np.ceil(np.log2(norm) + np.log2(dts) + 1.0), 0).astype(int)
        h = np.ldexp(dts, -s)[:, None, None]
        X = A_c * h
        phi, R = I, Q
        for j in range(_TAYLOR_DEGREE + 1, 1, -1):
            Xj = X / j
            phi = I + Xj @ phi
            XR = Xj @ R
            R = Q + (XR + XR.swapaxes(-1, -2))
        A_d = _pin_random_walk_rows(I + X @ phi, spec.random_walk_states, "discrete")
        Sigma_d = h * R
        G_d = h * phi @ spec.G if spec.n_inputs else np.zeros((dts.size, n, 0))
        for j in range(s.max(initial=0)):
            k = s > j
            a = A_d[k]
            Sigma_d[k] += a @ Sigma_d[k] @ a.swapaxes(-1, -2)
            G_d[k] += a @ G_d[k]
            A_d[k] = a @ a
        Sigma_d = 0.5 * (Sigma_d + Sigma_d.swapaxes(-1, -2))
    bad = ~np.isfinite(np.concatenate([A_d, Sigma_d, G_d], axis=-1)).all((1, 2))
    if bad.any():
        i = int(first[bad].min())
        err = EmaError("NON_FINITE", f"matrix exponential overflowed at dt={gaps[i]}")
        err.gap = i
        raise err
    return A_d, Sigma_d, G_d, which


def _discretize_gaps(spec: ModelSpec, dts, drifts=None) -> list[tuple]:
    """:func:`_gap_transitions` as one (A_d, Sigma_d, G_d) per gap; gaps that
    share an entry share one tuple."""
    A_d, Sigma_d, G_d, which = _gap_transitions(spec, dts, drifts)
    shared = list(zip(A_d, Sigma_d, G_d))
    return [shared[i] for i in which.tolist()]


def discretize(spec: ModelSpec, dt: float) -> ModelSpec:
    """Exact discretization of a continuous-time spec over a step of ``dt``.

    The transition matrix is the matrix exponential of the drift scaled by
    dt; the innovation covariance is the stochastic integral of the
    continuous noise over the step, and inputs are held constant across the
    step (zero-order hold).  Both stay exact for gaps of any length.
    """
    if spec.time_mode != "continuous":
        raise EmaError("INVALID_MODEL", "discretize expects a continuous-time spec")
    [(A_d, Sigma_d, G_d)] = _discretize_gaps(spec, [dt])
    return replace(spec, A=A_d, Sigma=Sigma_d, G=G_d, time_mode="discrete",
                   initial_mean=spec.initial_mean, initial_cov=spec.initial_cov)


def to_continuous(spec: ModelSpec, dt: float) -> ModelSpec:
    """Continuous-time representation whose ``dt``-discretization is ``spec``.

    The drift is the principal matrix logarithm of A divided by dt, which
    exists only when A has no eigenvalue on the closed negative real axis.
    The innovation covariance and input matrix invert the corresponding
    integrals of :func:`discretize`.
    """
    if spec.time_mode != "discrete":
        raise EmaError("INVALID_MODEL", "to_continuous expects a discrete-time spec")
    if not dt > 0:
        raise EmaError("INVALID_MODEL", f"dt must be positive, got {dt}")
    eig = np.linalg.eigvals(spec.A)
    bad = (np.abs(eig.imag) < 1e-12) & (eig.real <= 0.0)
    if np.any(bad):
        raise EmaError("NO_PRINCIPAL_LOG",
                       f"A has eigenvalue {eig[bad][0].real:.6g} on the closed "
                       f"negative real axis; no principal logarithm")
    A_c = np.real(logm(spec.A)) / dt
    A_c = _pin_random_walk_rows(A_c, spec.random_walk_states, "continuous")

    # Invert vec(Sigma_d) = [int_0^dt exp(K s) ds] vec(Sigma_c),
    # K = I (+) A_c (Kronecker sum), same block trick one level up.
    n = spec.n_states
    K = np.kron(np.eye(n), A_c) + np.kron(A_c, np.eye(n))
    Phi = _expm_integral(K, dt)
    Sigma_c = np.linalg.solve(Phi, spec.Sigma.reshape(-1)).reshape(n, n)
    Sigma_c = 0.5 * (Sigma_c + Sigma_c.T)

    if spec.n_inputs:
        G_c = np.linalg.solve(_expm_integral(A_c, dt), spec.G)
    else:
        G_c = spec.G
    return replace(spec, A=A_c, Sigma=Sigma_c, G=G_c, time_mode="continuous",
                   initial_mean=spec.initial_mean, initial_cov=spec.initial_cov)


def stationary_moments(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Stationary mean and covariance of a stable discrete-time spec (u = 0).

    The covariance solves cov = A cov A' + Sigma; a unit root (including any
    declared random-walk state) has no stationary distribution.
    """
    if spec.time_mode != "discrete":
        raise EmaError("INVALID_MODEL", "stationary_moments expects a discrete-time spec")
    rho = float(np.max(np.abs(np.linalg.eigvals(spec.A))))
    if rho >= 1.0:
        raise EmaError("NOT_STATIONARY",
                       f"spectral radius {rho:.6g} >= 1; no stationary distribution")
    cov = solve_discrete_lyapunov(spec.A, spec.Sigma)
    return np.zeros(spec.n_states), 0.5 * (cov + cov.T)


def nyquist_check(process_period: float, sampling_interval: float) -> str:
    """Advisory sampling-rate check: sample strictly faster than half the
    period of the process under study.  Returns "adequate" or "inadequate"."""
    if process_period <= 0 or sampling_interval <= 0:
        raise EmaError("INVALID_MODEL", "period and interval must be positive")
    return "adequate" if sampling_interval < process_period / 2.0 else "inadequate"
