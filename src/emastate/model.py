"""Model specification, validation, and time-mode transforms.

The central object is :class:`ModelSpec`, a linear-Gaussian state equation

    x[t+1] = A x[t] + G u[t] + e[t],      e[t] ~ N(0, Sigma)

observed through per-channel measurement families (Gaussian rows of H with
error covariance Theta, or Poisson / graded-response / Bernoulli-logistic
channels driven by a single state each).  ``time_mode`` selects whether A is
a one-step transition matrix or the drift of the stochastic differential
equation dx = A x dt + G u dt + dW; :func:`discretize` and
:func:`to_continuous` convert between the two representations.  Every
continuous-time gap, in :func:`discretize`, the filters, the fits and the
simulator, comes from one batched kernel, :func:`_gap_transitions`: a
degree-17 Taylor series of Van Loan's integrals at a halved step, whose
truncation error stays below 2^-53 relative, then doublings back to the gap.
The series is a polynomial in the scaled step with one table of matrix
coefficients per drift, so a gap costs an elementwise Horner evaluation
and its doublings.
The filters, the particle filter, the simulator and continuous-time fits
take their steps, in both time modes, from one builder,
:func:`_cohort_steps`: a table of a cohort's distinct steps, each step's
row in it, and one failure cut at the first series whose gap fails.  Their
noise factors come from :func:`_step_roots`.

Every JSON document (model, scenario, template) is built by one reader,
:func:`from_document`: a document's keys are its dataclass's init fields
and its defaults are the dataclass defaults, so neither is written twice.
A malformed document raises ``PARSE_ERROR`` and an unknown key
``UNKNOWN_KEY``, never a Python traceback.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, field, fields, replace

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


def read_document(path, what: str):
    """The JSON value in the ``what`` file at ``path``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise EmaError("FILE_NOT_FOUND", f"no such {what} file: {path}")
    except ValueError as exc:          # bad JSON or bad text encoding
        raise EmaError("PARSE_ERROR", f"{path}: {exc}")


def from_document(cls, d, what: str, **convert):
    """``cls`` built from the JSON object ``d``, the ``what`` part of a document.

    The keys are ``cls``'s init fields, every field without a default is
    required, and an omitted or null field keeps its default.
    ``convert[key]`` turns a given value into the field's type.  A field
    that is not an init field (``ModelSpec.n_states``) may be declared and
    must then equal the built value.  A conversion that fails is
    ``PARSE_ERROR``; an EmaError of the constructor passes through.
    """
    if not isinstance(d, dict):
        raise EmaError("PARSE_ERROR", f"{what} must be a JSON object")
    fs = fields(cls)
    unknown = set(d) - {f.name for f in fs}
    if unknown:
        raise EmaError("UNKNOWN_KEY", f"unknown {what} keys: {sorted(unknown)}")
    d = {k: v for k, v in d.items() if v is not None}
    for f in fs:
        if f.init and f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise EmaError("PARSE_ERROR", f"{what} missing required key {f.name!r}")
    declared = [f.name for f in fs if not f.init and f.name in d]
    try:
        obj = cls(**{k: convert[k](v) if k in convert else v
                     for k, v in d.items() if k not in declared})
        for key in declared:
            if int(d[key]) != getattr(obj, key):
                raise EmaError("PARSE_ERROR", f"declared {key}={d[key]} but matrices "
                                              f"imply {getattr(obj, key)}")
    except (TypeError, ValueError) as exc:
        raise EmaError("PARSE_ERROR", f"bad {what}: {exc}")
    return obj


def _floats(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


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
        return from_document(MeasurementChannel, d, "channel", state_index=int,
                             scale=float, discrimination=float, thresholds=tuple)


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

    # Work that depends on the spec alone runs once per instance and is kept
    # on it: its arrays are read-only, so nothing kept can go stale.

    @functools.cached_property
    def _validation(self) -> "ValidationReport":
        """The report of :func:`validate_model`'s checks."""
        return _checks(self)

    @functools.cached_property
    def _drift_table(self):
        """The Taylor table of the spec's own drift in :func:`_gap_transitions`."""
        return _taylor_table(self, self.A[None], _drift_norms(self.A[None]))

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
        return from_document(
            ModelSpec, d, "model", A=_floats, Sigma=_floats, G=_floats, H=_floats,
            Theta=_floats, random_walk_states=frozenset,
            channels=lambda v: tuple(MeasurementChannel.from_dict(c) for c in v))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "ModelSpec":
        return ModelSpec.from_dict(read_document(path, "model"))


def _is_stable(A: np.ndarray, time_mode: str) -> bool:
    eig = np.linalg.eigvals(A)
    if time_mode == "discrete":
        return bool(np.max(np.abs(eig)) < 1.0)
    return bool(np.max(eig.real) < 0.0)


def non_finite_matrices(spec) -> list[str]:
    """Names of the spec's matrices that hold a NaN or infinite entry."""
    return [name for name in ("A", "Sigma", "G", "H", "Theta", "initial_mean", "initial_cov")
            if not np.isfinite(getattr(spec, name)).all()]


def _default_initial_cov(A, Sigma, time_mode) -> np.ndarray:
    for name, M in (("A", A), ("Sigma", Sigma)):
        if not np.isfinite(M).all():
            raise EmaError("NON_FINITE", f"{name} has a non-finite entry, so no stationary "
                                         f"covariance can be computed")
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

    Pure: the checks run once per spec instance, and each call returns a
    fresh copy of their report.  Non-finite entries are not reported here:
    the filters raise ``NON_FINITE`` at the ping they first reach.
    """
    report = spec._validation
    return ValidationReport(list(report.errors), list(report.warnings))


@np.errstate(all="ignore")
def _checks(spec: ModelSpec) -> ValidationReport:
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
    sub = spec.A[np.ix_(free, free)]
    if free and np.isfinite(sub).all():
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
    if spec._validation.errors:
        raise EmaError(*spec._validation.errors[0])


def _pin_random_walk_rows(A: np.ndarray, rw: frozenset[int], time_mode: str) -> np.ndarray:
    # a copy of A with the random-walk rows pinned exactly: fits never estimate
    # them, and expm/logm keep them only to round-off
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
_INV_FACTORIALS = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, _TAYLOR_DEGREE + 3)])  # 1/k!, k <= 19


def _gap_transitions(spec: ModelSpec, dts, drifts=None):
    """Exact (A_d, Sigma_d, G_d) of the distinct gaps of ``dts``, stacked,
    and ``which``: gap i uses entry ``which[i]``.  Each gap runs under the
    spec's drift or its own (``drifts``, (K, n, n)); gaps with equal drift
    and equal length share the entry built at the first of them, and no
    entry depends on the other gaps of the call.

    One truncated Taylor series gives Van Loan's (1978, *IEEE TAC* 23:395)
    integrals at a step h = dt / 2^s (Moler & Van Loan 2003, *SIAM Rev.*
    45:3, methods 3 and 19).  With nu = max(||A||_1, ||A||_inf), B = A / nu,
    tau = nu h and M(R) = B R + (B R)' the Lyapunov operator of B, the
    series of exp(A s) on [0, h] are polynomials in the scalar tau:

        A(h) = sum_{k<=18} tau^k B^k / k!,
        G(h) / h = sum_{k<=17} tau^k B^k G / (k+1)!,
        Sigma(h) / h = sum_{k<=17} tau^k M^k(Sigma) / (k+1)!.

    Each distinct drift builds one table of these matrix coefficients, one
    stacked product per degree (:func:`_taylor_table`; the spec's own
    drift's, used when ``drifts`` is None, is built once per spec and kept
    on it), and every gap under it evaluates the table
    by Horner's rule in its own tau, elementwise (Al-Mohy & Higham 2011,
    *SIAM J. Sci. Comput.* 33:488, on one exponential at many step
    lengths).  Products are stacked over drifts or entries, never across
    them, so each entry's arithmetic is its own.  s is
    the least halving count with tau <= 1/2; then ||tau B||_1 <= 1/2 and
    ||tau M||_1 <= 1 (the 1-norm alone does not bound M for a non-normal
    drift), so the series leave a relative remainder below
    sum_{k>=18} 1/(k+1)! < 8.7e-18 < 2^-53.  s doublings follow,
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
    gaps, n, K = dts, spec.n_states, dts.size
    # sort the gaps by their bits, drift first: equal gaps form runs, and each
    # drift's entries one run of runs
    if drifts is None:
        keys = dts.view(np.int64)[:, None]
    else:
        flat = np.reshape(np.asarray(drifts, dtype=float), (K, n * n))
        keys = np.concatenate([flat, dts[:, None]], axis=1).view(np.int64)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.ones(K, dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(1)
    first, which = order[new], np.empty(K, dtype=int)
    which[order] = np.cumsum(new) - 1
    if drifts is None:
        A_c, drift = spec.A[None], np.zeros(first.size, dtype=int)
    else:
        keys = keys[new, :-1]
        new = np.ones(first.size, dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]).any(1)
        A_c, drift = flat[first[new]].reshape(-1, n, n), np.cumsum(new) - 1
    norm = _drift_norms(A_c)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nu, dts = norm[drift], dts[first]
        s = np.where(np.isfinite(nu) & (nu * dts > 0.5),
                     np.ceil(np.log2(nu) + np.log2(dts) + 1.0), 0).astype(int)
        # entries in order of s, so the gaps still doubling are a suffix
        by_s = np.argsort(s, kind="stable")
        first, drift, nu, dts, s = first[by_s], drift[by_s], nu[by_s], dts[by_s], s[by_s]
        which = np.argsort(by_s)[which]
        if A_c.shape[0] == first.size:     # a drift per entry: no gather
            A_c, norm, drift = A_c[drift], nu, slice(None)
        # the spec's own drift's table is kept on the spec
        table = spec._drift_table if drifts is None else _taylor_table(spec, A_c, norm)
        h = np.ldexp(dts, -s)
        # Horner's rule in tau per entry, entries last
        if table.shape[-1] > 1:
            table = table[..., drift]
        tau = nu * h
        P = table[-1] * tau
        for c in table[-2:0:-1]:
            P += c
            P *= tau
        P += table[0]
        P = np.ascontiguousarray(P.T).reshape(first.size, n, 2 * n + spec.n_inputs)
        P[..., n:] *= h[:, None, None]      # [A(h), Sigma(h), G(h)] per entry
        for i in spec.random_walk_states:   # exact already for a zero drift row
            P[:, i, :n] = 0.0
            P[:, i, i] = 1.0
        for lo in np.searchsorted(s, np.arange(s[-1] if s.size else 0), side="right").tolist():
            X = P[lo:]                      # the entries still doubling
            a = X[..., :n]
            Y = a @ X                       # [A A, A Sigma, A G]
            X[..., n:2 * n] += Y[..., n:2 * n] @ a.swapaxes(1, 2)
            X[..., 2 * n:] += Y[..., 2 * n:]
            X[..., :n] = Y[..., :n]
        S = P[..., n:2 * n]
        A_d, Sigma_d, G_d = P[..., :n].copy(), 0.5 * (S + S.swapaxes(1, 2)), P[..., 2 * n:].copy()
    bad = ~np.isfinite(np.concatenate([A_d, Sigma_d, G_d], axis=-1)).all((1, 2))
    if bad.any():
        i = int(first[bad].min())
        err = EmaError("NON_FINITE", f"matrix exponential overflowed at dt={gaps[i]}")
        err.gap = i
        raise err
    return A_d, Sigma_d, G_d, which


def _drift_norms(A_c):
    """max(||A||_1, ||A||_inf) of each drift of A_c (D, n, n); a drift that
    is not finite fails in :func:`_gap_transitions`."""
    norm = np.abs(A_c)
    return np.maximum(norm.sum(1).max(1), norm.sum(2).max(1))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _taylor_table(spec: ModelSpec, A_c, norm):
    """The Horner table for :func:`_gap_transitions` of the drifts A_c
    (D, n, n) with norms ``norm`` (:func:`_drift_norms`), (degree + 2,
    n (2n + inputs), D): degree k holds [B^k / k!, M^k(Sigma) / (k+1)!,
    B^k G / (k+1)!] of B = A / norm, one stacked product per degree."""
    n, m = spec.n_states, spec.n_inputs
    B = A_c / np.where(norm > 0, norm, 1.0)[:, None, None]
    w = 2 * n + m
    table = np.empty((_TAYLOR_DEGREE + 2, B.shape[0], n, w))
    table[0] = np.concatenate([np.eye(n), 0.5 * (spec.Sigma + spec.Sigma.T), spec.G], axis=1)
    for k in range(1, _TAYLOR_DEGREE + 2):
        R = np.matmul(B, table[k - 1], out=table[k])[..., n:2 * n]
        R += R.swapaxes(1, 2)           # numpy buffers the overlapping operand
    table *= np.where(np.arange(w) < n, _INV_FACTORIALS[:-1, None],
                      _INV_FACTORIALS[1:, None])[:, None, None, :]
    table[-1, ..., n:] = 0.0
    return table.reshape(_TAYLOR_DEGREE + 2, B.shape[0], n * w).transpose(0, 2, 1)


def _cohort_steps(spec: ModelSpec, gaps, drifts=None):
    """The steps of a cohort of series, as every caller of the gap kernel
    takes them: ``gaps`` holds each series' gaps between pings and
    ``drifts``, if given, each series' drift per step, (gaps, n, n).

    Returns ``table``, the (A_d, Sigma_d, G_d) of the distinct steps, each
    stacked; ``rows``, (series, most gaps): each step's entry of ``table``,
    -1 past a series' end; ``kept``, the number of series whose steps are
    in ``rows``; and ``err``, the error that cut the others, or None.

    In continuous time every gap goes into one :func:`_gap_transitions`
    call.  A gap that fails cuts the series that owns it and every later
    one, so ``err`` is the error a series-by-series loop meets first; the
    kept series' gaps then run alone, and no entry depends on the other
    gaps of its call.  In discrete time the table is the spec's own
    matrices, one entry, or with ``drifts`` one entry per step: its drift
    with the spec's Sigma and G.
    """
    counts = np.array([len(g) for g in gaps], dtype=int)
    starts, kept, err = np.cumsum([0, *counts]), counts.size, None
    flat = None if drifts is None else np.concatenate([*drifts, np.zeros((0,) + spec.A.shape)])
    if spec.time_mode == "continuous":
        dts = np.concatenate([*gaps, np.zeros(0)])
        try:
            *table, which = _gap_transitions(spec, dts, flat)
        except EmaError as first:
            kept, err = int(np.searchsorted(starts, first.gap, side="right")) - 1, first
            end = starts[kept]
            *table, which = _gap_transitions(spec, dts[:end], None if flat is None else flat[:end])
    else:           # the spec's own step, or one per drift
        A = spec.A[None] if flat is None else flat
        table = [A, *(np.broadcast_to(x, (len(A),) + x.shape) for x in (spec.Sigma, spec.G))]
        which = 0 if flat is None else np.arange(len(A))
    rows = np.full((counts.size, counts.max(initial=0)), -1)
    counts[kept:] = 0
    rows[np.arange(rows.shape[1]) < counts[:, None]] = which
    return tuple(table), rows, kept, err


def _step_roots(Sigma_d, rows, kept, err):
    """Factors L with L L' = Sigma_d[e] of a step table's noises, and the
    cut of :func:`_cohort_steps` (``kept`` series, then ``err``) moved to
    the first series with a step whose noise cannot be factored, if any;
    that series comes before the cut, as ``rows`` is -1 past it.

    The noises come from one Cholesky call.  Where a noise is singular, the
    entries that ``rows`` uses are factored by :func:`psd_sqrt` instead,
    once per distinct noise, in order of first use.  A table whose noises
    are all one noise, bit for bit (discrete time under drifts), is
    factored once."""
    if len(Sigma_d) > 1 and (Sigma_d.view(np.uint64) == Sigma_d[:1].view(np.uint64)).all():
        roots, kept, err = _step_roots(Sigma_d[:1], np.minimum(rows, 0), kept, err)
        return np.broadcast_to(roots, Sigma_d.shape), kept, err
    try:
        return np.linalg.cholesky(Sigma_d), kept, err
    except np.linalg.LinAlgError:       # some noise is singular
        roots, factors = np.zeros(np.shape(Sigma_d)), {}
    entries, first = np.unique(rows, return_index=True)
    for at in np.sort(first[entries >= 0]).tolist():
        e = rows.flat[at]
        key = Sigma_d[e].tobytes()
        if key not in factors:
            try:
                factors[key] = psd_sqrt(Sigma_d[e])
            except EmaError as bad:
                return roots, at // rows.shape[1], bad
        roots[e] = factors[key]
    return roots, kept, err


def discretize(spec: ModelSpec, dt: float) -> ModelSpec:
    """Exact discretization of a continuous-time spec over a step of ``dt``.

    The transition matrix is the matrix exponential of the drift scaled by
    dt; the innovation covariance is the stochastic integral of the
    continuous noise over the step, and inputs are held constant across the
    step (zero-order hold).  Both stay exact for gaps of any length.
    """
    if spec.time_mode != "continuous":
        raise EmaError("INVALID_MODEL", "discretize expects a continuous-time spec")
    A_d, Sigma_d, G_d, _ = _gap_transitions(spec, [dt])
    return replace(spec, A=A_d[0], Sigma=Sigma_d[0], G=G_d[0], time_mode="discrete",
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
    if not 0 < dt < np.inf:
        raise EmaError("INVALID_MODEL", f"dt must be positive and finite, got {dt}")
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
    cov = _default_initial_cov(spec.A, spec.Sigma, "discrete")      # NON_FINITE first
    rho = float(np.max(np.abs(np.linalg.eigvals(spec.A))))
    if rho >= 1.0:
        raise EmaError("NOT_STATIONARY",
                       f"spectral radius {rho:.6g} >= 1; no stationary distribution")
    return np.zeros(spec.n_states), cov


def nyquist_check(process_period: float, sampling_interval: float) -> str:
    """Advisory sampling-rate check: sample strictly faster than half the
    period of the process under study.  Returns "adequate" or "inadequate"."""
    if not (0 < process_period < np.inf and 0 < sampling_interval < np.inf):
        raise EmaError("INVALID_MODEL", "period and interval must be positive and finite")
    return "adequate" if sampling_interval < process_period / 2.0 else "inadequate"
