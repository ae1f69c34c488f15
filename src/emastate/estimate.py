"""Maximum-likelihood estimation and model comparison.

A :class:`ParameterMap` marks each model-matrix entry free, fixed (at the
template value or an explicit number), or tied to a named group sharing one
underlying value.  Covariance matrices are parameterized through a
lower-triangular factor with log-transformed diagonal, so every point of the
unconstrained space maps to a PSD matrix; no post-hoc projection is ever
applied.

Fitting maximizes the filter log-likelihood with BFGS over centrally
differenced gradients, multi-started from perturbations of a heuristic
initialization (lag-one regression for the transition matrix, residual
moments for the variances).  Pooled fits share one parameter vector across
participants, each participant's filter starting from the initial
distribution.  BFGS gets the value and the gradient of each iterate from
one evaluation of its 2k+1 points (the iterate and its 2k central-difference
neighbours), whose matrices one scatter writes for all points at once.  For
discrete-time Kalman fits the participants are stacked once, padded to the
longest series, so an iterate is one stacked filter pass over the 2k+1
points times all participants.  Scalar (1x1) fits get the same values, bit
for bit, as filtering each series alone.  Continuous-time and particle fits
filter one series at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .dataset import EmaDataset, Participant
from .errors import EmaError
from .filtering import (_kalman_stack, _particle_pass, _series_arrays, _stack_series,
                        kalman_filter, kalman_filter_ct)
from .filtering import particle_filter  # noqa: F401  (perfbench/spans.py wraps it here)
from .model import ModelSpec, validate_model
from .simulate import DisturbanceEvent, encode_disturbance

FREE = "free"
FIXED = "fixed"

_MATRIX_NAMES = ("A", "G", "H", "initial_mean", "Sigma", "Theta", "initial_cov")
_COV_NAMES = ("Sigma", "Theta", "initial_cov")
_MIN_SD = 1e-8


def _status_kind(s) -> str:
    if isinstance(s, str):
        if s == FREE:
            return FREE
        if s == FIXED:
            return FIXED
        if s.startswith("tied:") and len(s) > 5:
            return "tied"
        raise EmaError("BAD_PARAMETER_MAP", f"unknown status {s!r}")
    if isinstance(s, (int, float)):
        return "value"
    raise EmaError("BAD_PARAMETER_MAP", f"unknown status {s!r}")


@dataclass(frozen=True)
class ParameterMap:
    """Entry-wise estimation statuses for the model matrices.

    ``statuses`` maps a matrix name to a grid (same shape as the matrix) of
    "free", "fixed", a number (fixed at that value), or "tied:<group>".
    Omitted matrices stay fully fixed at their template values.

    Covariance matrices support two freedom patterns: free diagonal entries
    with all off-diagonals fixed at zero (independent log-standard-deviation
    parameters), or an entirely free matrix (full Cholesky factor).  Rows of
    A covered by the template's random-walk flags are always forced to their
    pinned values.
    """

    statuses: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in self.statuses:
            if name not in _MATRIX_NAMES:
                raise EmaError("BAD_PARAMETER_MAP", f"unknown matrix name {name!r}")

    def grid(self, name: str, shape: tuple) -> np.ndarray:
        g = self.statuses.get(name)
        if g is None:
            return np.full(shape, FIXED, dtype=object)
        arr = np.empty(shape, dtype=object)
        flat = np.asarray(g, dtype=object).reshape(shape)
        for idx in np.ndindex(shape):
            _status_kind(flat[idx])
            arr[idx] = flat[idx]
        return arr

    def to_dict(self) -> dict:
        out = {}
        for name, g in self.statuses.items():
            out[name] = np.asarray(g, dtype=object).tolist()
        return out

    @staticmethod
    def from_dict(d: dict) -> "ParameterMap":
        return ParameterMap(dict(d))


class _Slot:
    """One free scalar of the unconstrained vector."""

    __slots__ = ("transform", "targets", "start")

    def __init__(self, transform: str, start: float):
        self.transform = transform      # "plain" | "log_sd" | "chol_diag" | "chol_off"
        self.targets: list[tuple] = []  # (matrix_name, index)
        self.start = start


class Parameterization:
    """Compiled map between the unconstrained vector and ModelSpec matrices.

    Compiling leaves each matrix's base value (the template with fixed-value
    overrides and pinned random-walk rows) and the writes that put the free
    slots into it; :meth:`scatter` runs those writes for a whole stack of
    points at once.
    """

    def __init__(self, template: ModelSpec, pmap: ParameterMap):
        self.template = template
        self.slots: list[_Slot] = []
        self._groups: dict[str, _Slot] = {}
        self._base = {name: np.array(getattr(template, name), dtype=float)
                      for name in _MATRIX_NAMES}
        self._writes: dict[tuple, tuple] = {}   # (name, transform) -> (flat indices, slots)
        self._chol: list[str] = []              # covariances set to L L' from a factor

        for name in ("A", "G", "H", "initial_mean"):
            value = self._base[name]
            grid = pmap.grid(name, value.shape)
            if name == "A":
                for i in template.random_walk_states:
                    grid[i, :] = FIXED      # unit-root rows are never estimated
            for idx in np.ndindex(value.shape):
                s = grid[idx]
                kind = _status_kind(s)
                if kind == FIXED:
                    continue
                if kind == "value":
                    value[idx] = float(s)
                    continue
                self._write(name, idx, self._slot_for(s, "plain", float(value[idx])))

        for name in _COV_NAMES:
            self._compile_cov(name, pmap.grid(name, self._base[name].shape),
                              self._base[name])
        for i in template.random_walk_states:
            self._base["A"][i, :] = 0.0
            self._base["A"][i, i] = 1.0 if template.time_mode == "discrete" else 0.0
        self._writes = {key: (np.array(at), np.array(cols, dtype=int))
                        for key, (at, cols) in self._writes.items()}
        self.n_free = len(self.slots)

    def _write(self, name: str, idx: tuple, slot: _Slot) -> None:
        slot.targets.append((name, idx))
        at, cols = self._writes.setdefault((name, slot.transform), ([], []))
        at.append(np.ravel_multi_index(idx, self._base[name].shape))
        cols.append(self.slots.index(slot))

    def _slot_for(self, status, transform: str, start: float) -> _Slot:
        if isinstance(status, str) and status.startswith("tied:"):
            gid = status[5:]
            if gid in self._groups:
                slot = self._groups[gid]
                if slot.transform != transform:
                    raise EmaError("BAD_PARAMETER_MAP",
                                   f"tied group {gid!r} mixes incompatible transforms")
                return slot
            slot = _Slot(transform, start)
            self._groups[gid] = slot
            self.slots.append(slot)
            return slot
        slot = _Slot(transform, start)
        self.slots.append(slot)
        return slot

    def _compile_cov(self, name: str, grid: np.ndarray, value: np.ndarray) -> None:
        n = grid.shape[0]
        free_pos = [idx for idx in np.ndindex(grid.shape)
                    if _status_kind(grid[idx]) in (FREE, "tied")]
        for idx in np.ndindex(grid.shape):
            if _status_kind(grid[idx]) == "value":
                raise EmaError("BAD_PARAMETER_MAP",
                               f"{name}: use the template to fix covariance values")
        if not free_pos:
            return
        sym_free = {(i, j) for i, j in free_pos} | {(j, i) for i, j in free_pos}
        diag_only = all(i == j for i, j in sym_free)
        full = all((i, j) in sym_free for i in range(n) for j in range(n) if i >= j)
        if diag_only:
            off = value - np.diag(np.diag(value))
            if np.any(off != 0.0):
                raise EmaError("BAD_PARAMETER_MAP",
                               f"{name}: diagonal-only freedom requires zero "
                               f"off-diagonals in the template")
            for i in range(n):
                if (i, i) in sym_free:
                    start = np.log(np.sqrt(max(value[i, i], _MIN_SD ** 2)))
                    self._write(name, (i, i), self._slot_for(grid[i, i], "log_sd", start))
        elif full:
            if any(_status_kind(grid[idx]) == "tied" for idx in free_pos):
                raise EmaError("BAD_PARAMETER_MAP",
                               f"{name}: tying is not supported for a full "
                               f"covariance factor")
            self._chol.append(name)
            V = 0.5 * (value + value.T) + _MIN_SD * np.eye(n)
            try:
                L = np.linalg.cholesky(V)
            except np.linalg.LinAlgError:
                w, Q = np.linalg.eigh(V)
                L = np.linalg.cholesky(Q @ np.diag(np.clip(w, _MIN_SD, None)) @ Q.T)
            for i in range(n):
                for j in range(i + 1):
                    if i == j:
                        slot = _Slot("chol_diag", np.log(max(L[i, i], _MIN_SD)))
                    else:
                        slot = _Slot("chol_off", L[i, j])
                    self.slots.append(slot)
                    self._write(name, (i, j), slot)
        else:
            raise EmaError("BAD_PARAMETER_MAP",
                           f"{name}: unsupported freedom pattern; free the "
                           f"diagonal only or the whole matrix")

    def start_vector(self) -> np.ndarray:
        return np.array([s.start for s in self.slots], dtype=float)

    def set_start(self, name: str, idx, value: float) -> None:
        """Point a slot's start at a heuristic value (pre-transform scale)."""
        for slot in self.slots:
            if (name, idx) in slot.targets:
                if slot.transform == "plain" or slot.transform == "chol_off":
                    slot.start = value
                elif slot.transform == "log_sd":
                    slot.start = np.log(np.sqrt(max(value, _MIN_SD ** 2)))
                elif slot.transform == "chol_diag":
                    slot.start = np.log(max(np.sqrt(max(value, 0.0)), _MIN_SD))
                return

    def scatter(self, thetas) -> dict:
        """The seven matrices at every point of a (points, n_free) stack, as
        (points, ...) arrays.  A log-sd or Cholesky diagonal that overflows
        leaves an infinite entry for the likelihood to penalize."""
        thetas = np.asarray(thetas, dtype=float)
        k = thetas.shape[0]
        mats = {name: np.repeat(base[None], k, axis=0) for name, base in self._base.items()}
        factors = {name: np.zeros_like(mats[name]) for name in self._chol}
        with np.errstate(all="ignore"):
            for (name, transform), (at, cols) in self._writes.items():
                v = thetas[:, cols]
                if transform in ("log_sd", "chol_diag"):
                    v = np.exp(v)
                if transform == "log_sd":
                    v = v * v
                out = factors[name] if transform.startswith("chol") else mats[name]
                out.reshape(k, -1)[:, at] = v
            for name, L in factors.items():
                mats[name] = L @ L.swapaxes(-1, -2)
        return mats

    def unpack(self, theta: np.ndarray) -> ModelSpec:
        """The spec at one point: :meth:`scatter`'s one-point case."""
        mats = self.scatter([theta])
        return self.template.with_matrices(**{name: m[0] for name, m in mats.items()})


# ---------------------------------------------------------------------------
# Likelihood plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitOptions:
    n_restarts: int = 5
    max_iter: int = 200
    tol: float = 1e-3               # gradient inf-norm for "converged"
    likelihood: str = "kalman"      # "kalman" | "particle"
    n_particles: int = 2000
    particle_seed: int = 0          # common random numbers across iterations
    seed: int = 0                   # restart perturbations
    perturb_scale: float = 0.25
    fd_step: float = 1e-6


def _series_loglik(spec: ModelSpec, p: Participant, options: FitOptions) -> float:
    if options.likelihood == "kalman":
        if spec.time_mode == "continuous":
            r = kalman_filter_ct(spec, p.timestamps, p.Y, p.missing, p.U)
        else:
            r = kalman_filter(spec, p.Y, p.missing, p.U)
    elif options.likelihood == "particle":
        ll = _particle_pass(spec, p.Y, options.n_particles, options.particle_seed,
                            p.missing, p.U, p.timestamps, store=False)[2]
        return float(ll.sum())
    else:
        raise EmaError("BAD_PARAMETER_MAP", f"unknown likelihood {options.likelihood!r}")
    return r.log_likelihood


def _fd_points(x: np.ndarray, step: float):
    """x, then x + h_i e_i and x - h_i e_i for each i, with
    h_i = step * max(1, |x_i|); also 2h, the differences' divisor."""
    h = step * np.maximum(1.0, np.abs(x))
    points = np.repeat(x[None], 2 * x.size + 1, axis=0)
    i = np.arange(x.size)
    points[2 * i + 1, i] += h
    points[2 * i + 2, i] -= h
    return points, 2.0 * h


def _central_diff_grad(f_many, x: np.ndarray, step: float) -> np.ndarray:
    """Central differences; ``f_many`` gets the 2k points of
    :func:`_fd_points` (without x itself) in one call."""
    points, h2 = _fd_points(x, step)
    f = np.asarray(f_many(points[1:]), dtype=float)
    return (f[0::2] - f[1::2]) / h2


def _value_and_grad(objectives, step: float):
    """``x -> (f(x), central differences)`` from one ``objectives`` call over
    all 2k + 1 points of :func:`_fd_points`: BFGS asks for both at every
    iterate.  Each point's value does not depend on the others in the call,
    so both equal a one-point call plus :func:`_central_diff_grad`."""
    def value_and_grad(x):
        points, h2 = _fd_points(x, step)
        f = np.asarray(objectives(points), dtype=float)
        return float(f[0]), (f[1::2] - f[2::2]) / h2
    return value_and_grad


def _stack_participants(spec: ModelSpec, participants: Sequence[Participant]):
    """Participants' series stacked by :func:`~emastate.filtering._stack_series`."""
    return _stack_series([_series_arrays(spec, p.Y, p.missing, p.U) for p in participants],
                         spec.n_obs, spec.n_inputs)


def _stacked_objectives(par: Parameterization, stack, penalty: float,
                        thetas) -> np.ndarray:
    """Negative pooled log-likelihood at each point, from one Kalman pass
    over a (points, participants) stack; a point any of whose participants
    fails, or whose total is not finite, gets the penalty.  Participant
    totals are added left to right, as the per-series sum of
    :func:`_series_loglik` values does."""
    y, obs, u, lengths = stack
    m = {name: v[:, None] for name, v in par.scatter(thetas).items()}
    res = _kalman_stack(y, obs, u, m["initial_mean"], m["initial_cov"], m["H"], m["Theta"],
                        [(m["A"], m["Sigma"], m["G"])] * (y.shape[1] - 1), lengths=lengths)
    with np.errstate(all="ignore"):       # failed members may hold inf or NaN
        total = np.add.accumulate(res.loglik, axis=1)[:, -1]
    ok = (res.fail == 0).all(axis=1) & np.isfinite(total)
    return np.where(ok, -total, penalty)


def _heuristic_start(par: Parameterization, participants: Sequence[Participant]) -> None:
    """Lag-one regression start for A; residual moments for the variances.

    Applies only when the measurement is square and identity-like (the usual
    VAR-style layout); otherwise the template values stand.
    """
    tpl = par.template
    n, p = tpl.n_states, tpl.n_obs
    if p != n or not np.allclose(tpl.H, np.eye(n)) or tpl.time_mode != "discrete":
        return
    X0, X1 = [], []
    for part in participants:
        ok = ~part.missing.any(axis=1)
        pair = ok[:-1] & ok[1:]
        if pair.any():
            X0.append(part.Y[:-1][pair])
            X1.append(part.Y[1:][pair])
    if not X0:
        return
    X0 = np.vstack(X0); X1 = np.vstack(X1)
    if X0.shape[0] < 3 * n:
        return
    if not (np.all(np.isfinite(X0)) and np.all(np.isfinite(X1))):
        return
    A_hat, *_ = np.linalg.lstsq(X0, X1, rcond=None)
    A_hat = A_hat.T
    resid = X1 - X0 @ A_hat.T
    R = np.cov(resid.T).reshape(n, n)
    if not (np.all(np.isfinite(A_hat)) and np.all(np.isfinite(R))):
        return
    for i in range(n):
        for j in range(n):
            par.set_start("A", (i, j), A_hat[i, j])
        par.set_start("Sigma", (i, i), max(0.5 * R[i, i], 1e-4))
        par.set_start("Theta", (i, i), max(0.5 * R[i, i], 1e-4))


_RECOVERABLE = frozenset({"SINGULAR_INNOVATION", "DEGENERATE_WEIGHTS",
                          "NON_FINITE", "NEGATIVE_RATE"})


def _fit_single(par: Parameterization, participants: Sequence[Participant],
                options: FitOptions, n_obs_used: int, seed_seq,
                pid: str | None) -> "FitResult":
    penalty = 1e12
    tpl = par.template

    if options.likelihood == "kalman" and tpl.time_mode == "discrete":
        stack = _stack_participants(tpl, participants)

        def objectives(thetas):
            return _stacked_objectives(par, stack, penalty, thetas)
    else:
        def objective(theta):
            spec = par.unpack(theta)
            try:
                with np.errstate(all="ignore"):   # non-finite points are penalized
                    total = sum(_series_loglik(spec, p, options) for p in participants)
            except EmaError as err:
                if err.code in _RECOVERABLE:      # a different theta may cure these
                    return penalty
                raise
            return -total if np.isfinite(total) else penalty

        def objectives(thetas):
            return [objective(theta) for theta in thetas]

    rng = np.random.default_rng(seed_seq)
    theta0 = par.start_vector()
    starts = [theta0]
    for _ in range(options.n_restarts - 1):
        scale = options.perturb_scale * (1.0 + np.abs(theta0))
        starts.append(theta0 + rng.normal(0.0, scale))

    if not any(objectives([s])[0] < penalty for s in starts):
        raise EmaError("NONFINITE_LIKELIHOOD",
                       "likelihood is non-finite at every multi-start initialization")

    fun = _value_and_grad(objectives, options.fd_step)
    best = None
    restart_objectives = []
    for s in starts:
        res = minimize(fun, s, jac=True, method="BFGS",
                       options={"gtol": options.tol, "maxiter": options.max_iter})
        restart_objectives.append(float(res.fun))
        if best is None or res.fun < best.fun:
            best = res
    if best.fun >= penalty:
        raise EmaError("NONFINITE_LIKELIHOOD", "no restart reached a finite likelihood")

    gnorm = float(np.max(np.abs(best.jac))) if best.jac is not None else np.inf
    converged = bool(gnorm < options.tol and best.status == 0)
    spec_hat = par.unpack(best.x)
    ll = -float(best.fun)
    aic, bic = information_criteria(ll, par.n_free, n_obs_used)
    return FitResult(spec_hat=spec_hat, log_likelihood=ll, n_free=par.n_free,
                     n_obs_used=n_obs_used, aic=aic, bic=bic, converged=converged,
                     n_restarts_used=len(starts),
                     restart_objectives=restart_objectives,
                     gradient_norm=gnorm, seed=options.seed, participant=pid,
                     theta_hat=np.asarray(best.x, dtype=float))


@dataclass
class FitResult:
    """Estimated spec plus optimizer diagnostics.

    Standard errors are deliberately absent (not zero): finite-difference
    Hessians over particle likelihoods are unreliable.
    """

    spec_hat: ModelSpec
    log_likelihood: float
    n_free: int
    n_obs_used: int
    aic: float
    bic: float
    converged: bool
    n_restarts_used: int
    restart_objectives: list
    gradient_norm: float
    seed: int
    participant: str | None = None
    theta_hat: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "model": self.spec_hat.to_dict(),
            "log_likelihood": self.log_likelihood,
            "n_free": self.n_free,
            "n_obs_used": self.n_obs_used,
            "aic": self.aic,
            "bic": self.bic,
            "converged": self.converged,
            "n_restarts_used": self.n_restarts_used,
            "restart_objectives": list(self.restart_objectives),
            "gradient_norm": self.gradient_norm,
            "seed": self.seed,
            "participant": self.participant,
            "standard_errors": None,
        }


def information_criteria(log_likelihood: float, k: int, n_obs_used: int) -> tuple[float, float]:
    """AIC = 2k - 2ll; BIC = k ln(n) - 2ll, n = observed scalar cells."""
    if k < 0 or n_obs_used < 1:
        raise EmaError("BAD_PARAMETER_MAP", "need k >= 0 and n_obs_used >= 1")
    aic = 2.0 * k - 2.0 * log_likelihood
    bic = k * np.log(n_obs_used) - 2.0 * log_likelihood
    return float(aic), float(bic)


def fit(template: ModelSpec, pmap: ParameterMap, data: EmaDataset,
        mode: str = "pooled", options: FitOptions = FitOptions()):
    """Maximize the filter likelihood over the free parameters.

    mode "pooled"       one shared parameter set over every participant, the
                        filter restarting from the initial distribution at
                        each participant boundary; returns one FitResult.
    mode "idiographic"  an independent fit per participant; returns a list.
    """
    report = validate_model(template)
    if report.errors:
        raise EmaError(report.errors[0][0], report.errors[0][1])
    if not data.participants:
        raise EmaError("BAD_SCENARIO", "dataset has no participants")
    if mode not in ("pooled", "idiographic"):
        raise EmaError("BAD_SCENARIO", f"unknown fit mode {mode!r}")
    if options.likelihood == "kalman" and not template.all_gaussian:
        raise EmaError("LIKELIHOOD_MODE_MISMATCH",
                       "kalman likelihood requires all-Gaussian channels; "
                       "request the particle likelihood instead")

    empty = [p.pid for p in data.participants if p.missing.all()]
    if empty and (mode == "idiographic" or len(empty) == len(data.participants)):
        raise EmaError("NO_OBSERVATIONS", f"participant {empty[0]} has no observed cell"
                       if mode == "idiographic" else "no participant has an observed cell")

    par = Parameterization(template, pmap)
    if par.n_free == 0:
        raise EmaError("NO_FREE_PARAMS", "the parameter map leaves nothing to estimate")

    if mode == "pooled":
        _heuristic_start(par, data.participants)
        n_used = data.observed_cells()
        return _fit_single(par, data.participants, options, n_used,
                           np.random.SeedSequence((options.seed, 0)), None)

    results = []
    for i, p in enumerate(data.participants):
        par_i = Parameterization(template, pmap)
        _heuristic_start(par_i, [p])
        n_used = int((~p.missing).sum())
        results.append(_fit_single(par_i, [p], options, n_used,
                                   np.random.SeedSequence((options.seed, i)), p.pid))
    return results


# ---------------------------------------------------------------------------
# Disturbance-coding comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonRow:
    model_id: str
    k: int
    loglik: float
    aic: float
    bic: float
    rank_aic: int
    rank_bic: int
    converged: bool


@dataclass
class ComparisonTable:
    """Full fit table; every candidate is reported, never just the winner."""

    rows: list

    def best(self, criterion: str = "aic") -> str:
        key = {"aic": lambda r: r.rank_aic, "bic": lambda r: r.rank_bic}[criterion]
        return min(self.rows, key=key).model_id

    def to_delimited(self, sep: str = ",") -> str:
        header = ["model_id", "k", "loglik", "aic", "bic",
                  "rank_aic", "rank_bic", "converged"]
        lines = [sep.join(header)]
        for r in self.rows:
            lines.append(sep.join([
                r.model_id, str(r.k), f"{r.loglik:.12g}", f"{r.aic:.12g}",
                f"{r.bic:.12g}", str(r.rank_aic), str(r.rank_bic),
                str(bool(r.converged)).lower()]))
        return "\n".join(lines) + "\n"


def _ranks(values: Sequence[float], ks: Sequence[int]) -> list[int]:
    # ties break toward fewer free parameters, then listed order
    order = sorted(range(len(values)), key=lambda i: (values[i], ks[i], i))
    ranks = [0] * len(values)
    for pos, i in enumerate(order):
        ranks[i] = pos + 1
    return ranks


def rank_fits(labels: Sequence[str], fits: Sequence[FitResult]) -> ComparisonTable:
    aics = [f.aic for f in fits]
    bics = [f.bic for f in fits]
    ks = [f.n_free for f in fits]
    r_a = _ranks(aics, ks)
    r_b = _ranks(bics, ks)
    rows = [ComparisonRow(model_id=lab, k=f.n_free, loglik=f.log_likelihood,
                          aic=f.aic, bic=f.bic, rank_aic=ra, rank_bic=rb,
                          converged=f.converged)
            for lab, f, ra, rb in zip(labels, fits, r_a, r_b)]
    return ComparisonTable(rows)


def compare_disturbance_codings(template: ModelSpec, pmap: ParameterMap,
                                data: EmaDataset,
                                candidates: Sequence[Sequence[DisturbanceEvent]],
                                options: FitOptions = FitOptions(),
                                labels: Sequence[str] | None = None) -> ComparisonTable:
    """Fit one pooled model per disturbance coding and rank by AIC/BIC.

    Each candidate's events are re-encoded onto every participant's ping
    grid, overwriting exactly the input slots the candidate touches; all
    other inputs and every other modelling choice stay identical.
    """
    if len(candidates) < 1:
        raise EmaError("BAD_SCENARIO", "need at least one candidate coding")
    if labels is None:
        labels = [f"coding_{i}" for i in range(len(candidates))]
    fits = []
    for events in candidates:
        d = data.copy()
        slots = sorted({e.input_slot for e in events})
        for p in d.participants:
            enc = encode_disturbance(list(events), p.timestamps, template.n_inputs)
            for s in slots:
                p.U[:, s] = enc[:, s]
        fits.append(fit(template, pmap, d, mode="pooled", options=options))
    return rank_fits(list(labels), fits)
