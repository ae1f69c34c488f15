"""Synthetic EMA data generation.

Builds multi-participant datasets from a :class:`~emastate.model.ModelSpec`
under a ping schedule, with optional time trends, coded disturbances,
regime switches (declared breakpoints), a time-varying transition entry,
and post-hoc missingness injection under five mechanisms.

Reproducibility: participant ``i`` of a run seeded with ``s`` draws from
``np.random.SeedSequence((s, i, stream))`` so serial and parallel
generation agree bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .dataset import EmaDataset, Participant, default_names
from .errors import EmaError
from .model import (GAUSSIAN, GRADED_RESPONSE, BERNOULLI_LOGISTIC, POISSON,
                    ModelSpec, _discretize_gaps, psd_sqrt, require_valid)
from .model import discretize  # noqa: F401  (perfbench/spans.py wraps it here)

HOURS_PER_DAY = 24.0
DEFAULT_WEEKEND = frozenset({5, 6})     # Saturday, Sunday with Monday == 0


# ---------------------------------------------------------------------------
# Ping schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PingSchedule:
    """When observations are solicited over the study horizon (hours).

    kind "fixed"          pings every ``interval`` hours starting at 0.
    kind "jittered"       fixed grid plus U(-max_jitter, +max_jitter) noise;
                          max_jitter must stay below interval/2 so order is
                          preserved.
    kind "random_window"  ``pings_per_day`` draws uniform over the union of
                          per-day clock windows.
    kind "event_driven"   exponential inter-event gaps with mean
                          ``mean_interval``.

    If ``day_length`` and ``night_length`` are set, the day is modelled as
    day_length active hours followed by night_length silent hours (period
    anchored at t=0) and pings falling into the silent span are dropped.
    """

    kind: str
    horizon: float
    interval: float | None = None
    max_jitter: float = 0.0
    windows: tuple[tuple[float, float], ...] = ()
    pings_per_day: int = 0
    mean_interval: float | None = None
    day_length: float | None = None
    night_length: float | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["windows"] = [list(w) for w in self.windows]
        return d


def _schedule_draw(sched: PingSchedule, rng: np.random.Generator) -> np.ndarray:
    if sched.horizon <= 0:
        raise EmaError("EMPTY_SCHEDULE", f"horizon {sched.horizon} admits no pings")
    if sched.kind == "fixed":
        if not sched.interval or sched.interval <= 0:
            raise EmaError("INVALID_SCHEDULE", "fixed schedule needs interval > 0")
        n = int(np.ceil(sched.horizon / sched.interval)) + 1
        t = np.arange(n) * sched.interval
        t = t[t < sched.horizon]
    elif sched.kind == "jittered":
        if not sched.interval or sched.interval <= 0:
            raise EmaError("INVALID_SCHEDULE", "jittered schedule needs interval > 0")
        if not 0 <= sched.max_jitter < sched.interval / 2:
            raise EmaError("INVALID_SCHEDULE",
                           "max_jitter must lie in [0, interval/2) to keep pings ordered")
        n = int(np.ceil(sched.horizon / sched.interval)) + 1
        base = np.arange(n) * sched.interval
        t = base + rng.uniform(-sched.max_jitter, sched.max_jitter, size=n)
        t = np.clip(t, 0.0, None)
        t = t[t < sched.horizon]
    elif sched.kind == "random_window":
        if not sched.windows or sched.pings_per_day <= 0:
            raise EmaError("INVALID_SCHEDULE",
                           "random_window schedule needs windows and pings_per_day > 0")
        widths = np.array([hi - lo for lo, hi in sched.windows], dtype=float)
        if np.any(widths <= 0):
            raise EmaError("INVALID_SCHEDULE", "every window needs positive width")
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        total = edges[-1]
        days = int(np.ceil(sched.horizon / HOURS_PER_DAY))
        out = []
        for d in range(days):
            u = np.sort(rng.uniform(0.0, total, size=sched.pings_per_day))
            w = np.searchsorted(edges, u, side="right") - 1
            clock = np.array([sched.windows[k][0] + (u_i - edges[k])
                              for k, u_i in zip(w, u)])
            out.append(d * HOURS_PER_DAY + clock)
        t = np.concatenate(out) if out else np.array([])
        t = t[t < sched.horizon]
    elif sched.kind == "event_driven":
        if not sched.mean_interval or sched.mean_interval <= 0:
            raise EmaError("INVALID_SCHEDULE", "event_driven schedule needs mean_interval > 0")
        out = []
        t_cur = rng.exponential(sched.mean_interval)
        while t_cur < sched.horizon:
            out.append(t_cur)
            t_cur += rng.exponential(sched.mean_interval)
        t = np.array(out)
    else:
        raise EmaError("INVALID_SCHEDULE", f"unknown schedule kind {sched.kind!r}")

    if sched.day_length is not None and sched.night_length is not None:
        period = sched.day_length + sched.night_length
        t = t[np.mod(t, period) < sched.day_length]
    t = np.unique(t)
    if t.size == 0:
        raise EmaError("EMPTY_SCHEDULE", "schedule produced no pings within the horizon")
    return t


def generate_schedule(sched: PingSchedule, rng_seed: int) -> np.ndarray:
    """Draw the ping timestamps; deterministic for a fixed seed."""
    return _schedule_draw(sched, np.random.default_rng(rng_seed))


# ---------------------------------------------------------------------------
# Exogenous input coding: trends and disturbances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendSpec:
    """A deterministic time covariate mapped into the input vector.

    The scalar trend value v(t) is multiplied into u_t by ``coefficients``
    (one coefficient per input slot).  Kinds:

    none          v = 0
    linear        v = ping index 1..T
    weekend       v = 1 on days whose weekday is in ``weekend_days``
    custom_dummy  v = 1 inside any of the absolute-time ``windows``
    sinusoid      v = sin(2*pi*(t + phase)/period)
    """

    kind: str
    coefficients: tuple[float, ...]
    weekend_days: frozenset[int] = DEFAULT_WEEKEND
    period: float = HOURS_PER_DAY
    phase: float = 0.0
    windows: tuple[tuple[float, float], ...] = ()

    def values(self, timestamps: np.ndarray, start_weekday: int = 0) -> np.ndarray:
        t = np.asarray(timestamps, dtype=float)
        if self.kind == "none":
            return np.zeros(t.size)
        if self.kind == "linear":
            return np.arange(1, t.size + 1, dtype=float)
        if self.kind == "weekend":
            weekday = (start_weekday + np.floor_divide(t, HOURS_PER_DAY).astype(int)) % 7
            return np.isin(weekday, sorted(self.weekend_days)).astype(float)
        if self.kind == "custom_dummy":
            v = np.zeros(t.size)
            for lo, hi in self.windows:
                v[(t >= lo) & (t < hi)] = 1.0
            return v
        if self.kind == "sinusoid":
            return np.sin(2.0 * np.pi * (t + self.phase) / self.period)
        raise EmaError("BAD_SCENARIO", f"unknown trend kind {self.kind!r}")


@dataclass(frozen=True)
class DisturbanceEvent:
    """A coded external event entering one input slot.

    pulse            magnitude at the first ping at/after onset only
    persistent       magnitude at every ping at/after onset
    geometric_decay  magnitude * decay_ratio**k at the k-th ping after onset
    """

    onset: float
    coding: str
    magnitude: float
    decay_ratio: float = 0.5
    input_slot: int = 0


def encode_disturbance(events: Sequence[DisturbanceEvent], timestamps: np.ndarray,
                       n_inputs: int | None = None) -> np.ndarray:
    """Turn coded events into input columns on the given ping grid.

    Overlapping events targeting one slot add up.
    """
    t = np.asarray(timestamps, dtype=float)
    if n_inputs is None:
        n_inputs = 1 + max((e.input_slot for e in events), default=-1)
    U = np.zeros((t.size, max(n_inputs, 0)))
    for e in events:
        if e.coding not in ("pulse", "persistent", "geometric_decay"):
            raise EmaError("BAD_SCENARIO", f"unknown disturbance coding {e.coding!r}")
        if e.coding == "geometric_decay" and not 0.0 < e.decay_ratio < 1.0:
            raise EmaError("BAD_SCENARIO", "decay_ratio must lie in (0, 1)")
        if not 0 <= e.input_slot < U.shape[1]:
            raise EmaError("BAD_SCENARIO", f"input_slot {e.input_slot} out of range")
        k = int(np.searchsorted(t, e.onset, side="left"))
        if k >= t.size:
            continue
        if e.coding == "pulse":
            U[k, e.input_slot] += e.magnitude
        elif e.coding == "persistent":
            U[k:, e.input_slot] += e.magnitude
        else:
            steps = np.arange(t.size - k)
            U[k:, e.input_slot] += e.magnitude * e.decay_ratio ** steps
    return U


# ---------------------------------------------------------------------------
# Non-stationary variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regime:
    """Overrides active from a breakpoint on: replacement A and/or a state
    mean offset (the state is simulated in deviations around the offset)."""

    A: np.ndarray | None = None
    mean_offset: np.ndarray | None = None


@dataclass(frozen=True)
class RegimeSchedule:
    breakpoints: tuple[float, ...]
    regimes: tuple[Regime, ...]

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        if len(bp) != len(self.regimes):
            raise EmaError("BAD_SCENARIO", "need one regime per breakpoint")
        if len(bp) > 1 and np.any(np.diff(bp) <= 0):
            raise EmaError("BAD_SCENARIO", "breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)

    def segment(self, t: float) -> int:
        """0 before the first breakpoint, r after breakpoint r-1."""
        return int(np.searchsorted(self.breakpoints, t, side="right"))


@dataclass(frozen=True)
class TvpSchedule:
    """Sigmoid trajectory for a single entry of A (simulation only)."""

    target: tuple[int, int]
    start_value: float
    end_value: float
    midpoint: float
    steepness: float
    trajectory: str = "sigmoid"

    def value(self, t: float) -> float:
        if self.trajectory != "sigmoid":
            raise EmaError("BAD_SCENARIO", f"unknown trajectory {self.trajectory!r}")
        s = expit(self.steepness * (t - self.midpoint))
        return self.start_value + (self.end_value - self.start_value) * s


# ---------------------------------------------------------------------------
# Core simulation
# ---------------------------------------------------------------------------

def _measure_ping(spec: ModelSpec, x: np.ndarray, rng: np.random.Generator,
                  L_theta: np.ndarray) -> np.ndarray:
    """Draw one observation vector; RNG call order is fixed per ping."""
    y = np.empty(spec.n_obs)
    nu = L_theta @ rng.standard_normal(spec.n_obs)
    for j, ch in enumerate(spec.channels):
        if ch.family == GAUSSIAN:
            y[j] = spec.H[j] @ x + nu[j]
        elif ch.family == POISSON:
            s = x[ch.state_index]
            rate = ch.scale * (np.exp(s) if ch.link == "log" else s)
            if not np.isfinite(rate):
                raise EmaError("NON_FINITE", f"channel {j}: Poisson rate overflowed")
            if rate <= 0:
                raise EmaError("NEGATIVE_RATE",
                               f"channel {j}: identity-link Poisson rate {rate:.6g} <= 0")
            y[j] = rng.poisson(rate)
        elif ch.family == GRADED_RESPONSE:
            p_exceed = expit(ch.discrimination * (x[ch.state_index] - np.asarray(ch.thresholds)))
            y[j] = 1.0 + np.sum(rng.uniform() < p_exceed)
        elif ch.family == BERNOULLI_LOGISTIC:
            p = expit(ch.discrimination * (x[ch.state_index] - ch.thresholds[0]))
            y[j] = 1.0 if rng.uniform() < p else 0.0
        else:
            raise EmaError("BAD_FAMILY", f"channel {j}: unknown family {ch.family!r}")
    return y


def _build_inputs(spec: ModelSpec, timestamps: np.ndarray,
                  trends: Sequence[TrendSpec], events: Sequence[DisturbanceEvent],
                  start_weekday: int) -> np.ndarray:
    U = np.zeros((timestamps.size, spec.n_inputs))
    for tr in trends:
        coef = np.asarray(tr.coefficients, dtype=float)
        if coef.shape != (spec.n_inputs,):
            raise EmaError("BAD_SCENARIO",
                           f"trend coefficients must have length n_inputs={spec.n_inputs}")
        U += np.outer(tr.values(timestamps, start_weekday), coef)
    if events:
        U += encode_disturbance(events, timestamps, spec.n_inputs)
    return U


def _simulate_participant(spec: ModelSpec, timestamps: np.ndarray, U: np.ndarray,
                          regimes: RegimeSchedule | None, tvp: TvpSchedule | None,
                          rng: np.random.Generator) -> np.ndarray:
    """State recursion + measurement; returns the (T, n_obs) observations.
    The step into ping k uses ping k's regime drift and tvp value."""
    n = spec.n_states
    T = timestamps.size
    regs = regimes.regimes if regimes is not None else ()
    drift_of = [np.asarray(spec.A, dtype=float)] + [
        np.asarray(spec.A if r.A is None else r.A, dtype=float) for r in regs]
    if any(A.shape != (n, n) for A in drift_of):
        raise EmaError("BAD_SCENARIO", f"every regime A must be {n}x{n}")
    offset_of = [np.zeros(n)] + [np.zeros(n) if r.mean_offset is None else
                                 np.asarray(r.mean_offset, dtype=float).reshape(n) for r in regs]
    segs = [regimes.segment(t) for t in timestamps] if regs else [0] * T

    drifts = np.array([drift_of[seg] for seg in segs[1:]]).reshape(T - 1, n, n)
    if tvp is not None:
        drifts[:, tvp.target[0], tvp.target[1]] = [tvp.value(t) for t in timestamps[1:]]
    if spec.time_mode == "continuous":
        trans = _discretize_gaps(spec, np.diff(timestamps), drifts)
    else:
        trans = [(A, spec.Sigma, spec.G) for A in drifts]
    distinct = list({id(S): S for _, S, _ in trans}.values())
    try:
        roots = np.linalg.cholesky(np.reshape(distinct, (-1, n, n)))
    except np.linalg.LinAlgError:       # some gap noise is singular
        roots = [psd_sqrt(S) for S in distinct]
    factors = dict(zip(map(id, distinct), roots))
    L_theta = psd_sqrt(spec.Theta)
    L0 = psd_sqrt(spec.initial_cov)

    Y = np.empty((T, spec.n_obs))
    z = spec.initial_mean + L0 @ rng.standard_normal(n)
    Y[0] = _measure_ping(spec, z + offset_of[segs[0]], rng, L_theta)
    for k in range(1, T):
        A, S, G = trans[k - 1]
        z = A @ z + G @ U[k - 1] + factors[id(S)] @ rng.standard_normal(n)
        Y[k] = _measure_ping(spec, z + offset_of[segs[k]], rng, L_theta)
    return Y


def simulate_dataset(spec: ModelSpec, sched: PingSchedule,
                     trends: Sequence[TrendSpec] = (),
                     events: Sequence[DisturbanceEvent] = (),
                     regimes: RegimeSchedule | None = None,
                     tvp: TvpSchedule | None = None,
                     n_participants: int = 1,
                     rng_seed: int = 0,
                     y_names: Sequence[str] | None = None,
                     u_names: Sequence[str] | None = None,
                     start_weekday: int = 0) -> EmaDataset:
    """Generate a fully observed dataset from the model under the schedule.

    Discrete-time specs require a fixed-interval schedule (the model treats
    every lag as equivalent); continuous-time specs simulate each gap by
    exact discretization, so any schedule kind is admissible.
    """
    require_valid(spec)
    if spec.time_mode == "discrete" and sched.kind != "fixed":
        raise EmaError("SCHEDULE_MODE_MISMATCH",
                       "a discrete-time model needs a fixed-interval schedule; "
                       "use a continuous-time spec for irregular pings")
    if n_participants < 1:
        raise EmaError("BAD_SCENARIO", "n_participants must be >= 1")

    participants = []
    for i in range(n_participants):
        rng_s = np.random.default_rng(np.random.SeedSequence((rng_seed, i, 0)))
        rng_x = np.random.default_rng(np.random.SeedSequence((rng_seed, i, 1)))
        timestamps = _schedule_draw(sched, rng_s)
        U = _build_inputs(spec, timestamps, trends, events, start_weekday)
        Y = _simulate_participant(spec, timestamps, U, regimes, tvp, rng_x)
        participants.append(Participant(
            pid=f"p{i + 1:03d}",
            timestamps=timestamps,
            Y=Y,
            missing=np.zeros_like(Y, dtype=bool),
            U=U,
            metadata={"seed": rng_seed, "participant_index": i,
                      "schedule": sched.to_dict(), "start_weekday": start_weekday},
        ))
    return EmaDataset(
        participants=participants,
        y_names=list(y_names) if y_names else default_names("y", spec.n_obs),
        u_names=list(u_names) if u_names else default_names("u", spec.n_inputs),
        metadata={"seed": rng_seed, "n_participants": n_participants},
    )


# ---------------------------------------------------------------------------
# Missingness mechanisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MissingnessSpec:
    """How cells go missing.

    mechanism    MCAR   every cell independently with probability ``rate``
                 MAR    cells of the non-driver channels, logistic in the
                        contemporaneous driver value
                 MNAR   the driver channel, logistic in its own value
                 TMAR   whole pings, elevated inside the clock-time windows
                 ATMAR  the driver channel, logistic in its value ``lag``
                        pings earlier (first ``lag`` pings never masked)
    rate         target marginal missing proportion over the eligible cells;
                 the logistic intercept is calibrated by bisection so the
                 expected rate matches within +-0.02.
    slope        logistic slope on the driving value (may be +-inf to force
                 probabilities of exactly 0/1).
    """

    mechanism: str
    rate: float
    driver: int = 0
    slope: float = 1.0
    time_windows: tuple[tuple[float, float], ...] = ()
    lag: int = 1


def _logistic_prob(b: float, slope: float, drivers: np.ndarray) -> np.ndarray:
    """expit(b + slope*driver), with slope*0 == 0 even for infinite slopes."""
    drivers = np.asarray(drivers, dtype=float)
    z = np.zeros_like(drivers)
    nz = drivers != 0.0
    z[nz] = slope * drivers[nz]
    return expit(b + z)


def _calibrate_intercept(drivers: np.ndarray, slope: float, rate: float) -> float:
    """Bisection on b so that mean(expit(b + slope*driver)) == rate."""
    lo, hi = -40.0, 40.0

    def mean_p(b):
        return float(np.mean(_logistic_prob(b, slope, drivers)))

    if not np.isfinite(mean_p(0.0)):
        raise EmaError("CALIBRATION_FAILED", "non-finite masking probabilities")
    if mean_p(lo) > rate + 0.02 or mean_p(hi) < rate - 0.02:
        raise EmaError("CALIBRATION_FAILED",
                       f"cannot reach marginal rate {rate} with slope {slope}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_p(mid) < rate:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    if abs(mean_p(b) - rate) > 0.02:
        raise EmaError("CALIBRATION_FAILED",
                       f"bisection stalled at rate {mean_p(b):.4f} (target {rate})")
    return b


def inject_missingness(data: EmaDataset, miss: MissingnessSpec,
                       rng_seed: int) -> EmaDataset:
    """Return a copy of the dataset with cells masked under the mechanism.

    Probabilities are computed from the pre-masking values, mirroring how a
    data-generating process would act on the true series.
    """
    if not 0.0 <= miss.rate < 1.0:
        raise EmaError("BAD_SCENARIO", f"rate must lie in [0, 1), got {miss.rate}")
    if miss.mechanism not in ("MCAR", "MAR", "MNAR", "TMAR", "ATMAR"):
        raise EmaError("BAD_SCENARIO", f"unknown mechanism {miss.mechanism!r}")
    out = data.copy()
    if miss.rate == 0.0:
        return out
    n_obs = out.n_obs
    if miss.mechanism in ("MAR", "MNAR", "ATMAR") and not 0 <= miss.driver < n_obs:
        raise EmaError("BAD_SCENARIO", f"driver {miss.driver} out of range")

    for i, p in enumerate(out.participants):
        rng = np.random.default_rng(np.random.SeedSequence((rng_seed, i, 2)))
        T = p.n_pings
        if miss.mechanism == "MCAR":
            new = rng.uniform(size=p.Y.shape) < miss.rate
        elif miss.mechanism == "TMAR":
            clock = np.mod(p.timestamps, HOURS_PER_DAY)
            inside = np.zeros(T)
            for lo, hi in miss.time_windows:
                if lo <= hi:
                    inside[(clock >= lo) & (clock < hi)] = 1.0
                else:                       # window wraps past midnight
                    inside[(clock >= lo) | (clock < hi)] = 1.0
            b = _calibrate_intercept(inside, miss.slope, miss.rate)
            prob = _logistic_prob(b, miss.slope, inside)
            ping_masked = rng.uniform(size=T) < prob
            new = np.repeat(ping_masked[:, None], n_obs, axis=1)
        else:
            driver_vals = p.Y[:, miss.driver]
            observed_driver = ~p.missing[:, miss.driver]
            new = np.zeros_like(p.missing)
            if miss.mechanism == "MAR":
                rows = np.where(observed_driver)[0]
                if rows.size:
                    v = driver_vals[rows]
                    cols = [j for j in range(n_obs) if j != miss.driver]
                    if cols:
                        b = _calibrate_intercept(np.repeat(v, len(cols)),
                                                 miss.slope, miss.rate)
                        prob = _logistic_prob(b, miss.slope, v)
                        draws = rng.uniform(size=(rows.size, len(cols)))
                        for c_idx, j in enumerate(cols):
                            new[rows, j] = draws[:, c_idx] < prob
            elif miss.mechanism == "MNAR":
                rows = np.where(observed_driver)[0]
                if rows.size:
                    v = driver_vals[rows]
                    b = _calibrate_intercept(v, miss.slope, miss.rate)
                    prob = _logistic_prob(b, miss.slope, v)
                    new[rows, miss.driver] = rng.uniform(size=rows.size) < prob
            else:                           # ATMAR
                if miss.lag < 1:
                    raise EmaError("BAD_SCENARIO", "lag must be a positive integer")
                rows = np.arange(miss.lag, T)
                rows = rows[~p.missing[rows - miss.lag, miss.driver]]
                if rows.size:
                    v = driver_vals[rows - miss.lag]
                    b = _calibrate_intercept(v, miss.slope, miss.rate)
                    prob = _logistic_prob(b, miss.slope, v)
                    new[rows, miss.driver] = rng.uniform(size=rows.size) < prob
        p.missing |= new
        p.Y[p.missing] = np.nan
        p.metadata = dict(p.metadata)
        p.metadata["missingness"] = {"mechanism": miss.mechanism, "rate": miss.rate}
    out.metadata = dict(out.metadata)
    out.metadata["missingness"] = {"mechanism": miss.mechanism, "rate": miss.rate,
                                   "seed": rng_seed}
    return out


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Everything a simulate run needs beyond the model itself."""

    schedule: PingSchedule
    trends: tuple[TrendSpec, ...] = ()
    events: tuple[DisturbanceEvent, ...] = ()
    missingness: MissingnessSpec | None = None
    regimes: RegimeSchedule | None = None
    tvp: TvpSchedule | None = None
    n_participants: int = 1
    seed: int | None = None
    start_weekday: int = 0


def _check_keys(d: dict, allowed: set, what: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise EmaError("UNKNOWN_KEY", f"unknown {what} keys: {sorted(unknown)}")


def _pairs(v) -> tuple[tuple[float, float], ...]:
    return tuple((float(a), float(b)) for a, b in v)


def scenario_from_dict(d: dict) -> Scenario:
    """Parse the scenario document (unknown keys are rejected everywhere)."""
    _check_keys(d, {"schedule", "trends", "events", "missingness", "regimes",
                    "tvp", "n_participants", "seed", "start_weekday"}, "scenario")
    if "schedule" not in d:
        raise EmaError("BAD_SCENARIO", "scenario needs a schedule")

    s = d["schedule"]
    _check_keys(s, {"kind", "horizon", "interval", "max_jitter", "windows",
                    "pings_per_day", "mean_interval", "day_length",
                    "night_length"}, "schedule")
    sched = PingSchedule(
        kind=s.get("kind", "fixed"), horizon=float(s.get("horizon", 0.0)),
        interval=s.get("interval"), max_jitter=float(s.get("max_jitter", 0.0)),
        windows=_pairs(s.get("windows", ())),
        pings_per_day=int(s.get("pings_per_day", 0)),
        mean_interval=s.get("mean_interval"),
        day_length=s.get("day_length"), night_length=s.get("night_length"))

    trends = []
    for tr in d.get("trends", ()):
        _check_keys(tr, {"kind", "coefficients", "weekend_days", "period",
                         "phase", "windows"}, "trend")
        trends.append(TrendSpec(
            kind=tr["kind"], coefficients=tuple(tr.get("coefficients", ())),
            weekend_days=frozenset(tr.get("weekend_days", DEFAULT_WEEKEND)),
            period=float(tr.get("period", HOURS_PER_DAY)),
            phase=float(tr.get("phase", 0.0)),
            windows=_pairs(tr.get("windows", ()))))

    events = []
    for e in d.get("events", ()):
        _check_keys(e, {"onset", "coding", "magnitude", "decay_ratio",
                        "input_slot"}, "event")
        events.append(DisturbanceEvent(
            onset=float(e["onset"]), coding=e["coding"],
            magnitude=float(e["magnitude"]),
            decay_ratio=float(e.get("decay_ratio", 0.5)),
            input_slot=int(e.get("input_slot", 0))))

    missing = None
    if "missingness" in d and d["missingness"] is not None:
        m = d["missingness"]
        _check_keys(m, {"mechanism", "rate", "driver", "slope", "time_windows",
                        "lag"}, "missingness")
        missing = MissingnessSpec(
            mechanism=m["mechanism"], rate=float(m["rate"]),
            driver=int(m.get("driver", 0)), slope=float(m.get("slope", 1.0)),
            time_windows=_pairs(m.get("time_windows", ())),
            lag=int(m.get("lag", 1)))

    regimes = None
    if "regimes" in d and d["regimes"] is not None:
        r = d["regimes"]
        _check_keys(r, {"breakpoints", "regimes"}, "regimes")
        regs = []
        for reg in r.get("regimes", ()):
            _check_keys(reg, {"A", "mean_offset"}, "regime")
            regs.append(Regime(
                A=np.asarray(reg["A"], dtype=float) if reg.get("A") is not None else None,
                mean_offset=(np.asarray(reg["mean_offset"], dtype=float)
                             if reg.get("mean_offset") is not None else None)))
        regimes = RegimeSchedule(breakpoints=tuple(r.get("breakpoints", ())),
                                 regimes=tuple(regs))

    tvp = None
    if "tvp" in d and d["tvp"] is not None:
        v = d["tvp"]
        _check_keys(v, {"target", "trajectory", "start_value", "end_value",
                        "midpoint", "steepness"}, "tvp")
        tvp = TvpSchedule(target=tuple(int(i) for i in v["target"]),
                          start_value=float(v["start_value"]),
                          end_value=float(v["end_value"]),
                          midpoint=float(v["midpoint"]),
                          steepness=float(v["steepness"]),
                          trajectory=v.get("trajectory", "sigmoid"))

    return Scenario(schedule=sched, trends=tuple(trends), events=tuple(events),
                    missingness=missing, regimes=regimes, tvp=tvp,
                    n_participants=int(d.get("n_participants", 1)),
                    seed=d.get("seed"),
                    start_weekday=int(d.get("start_weekday", 0)))


def run_scenario(spec: ModelSpec, scenario: Scenario, rng_seed: int) -> EmaDataset:
    """Simulate per the scenario, then apply its missingness mechanism."""
    data = simulate_dataset(spec, scenario.schedule, scenario.trends,
                            scenario.events, scenario.regimes, scenario.tvp,
                            scenario.n_participants, rng_seed,
                            start_weekday=scenario.start_weekday)
    if scenario.missingness is not None:
        data = inject_missingness(data, scenario.missingness, rng_seed)
    return data
