"""Synthetic EMA data generation.

Builds multi-participant datasets from a :class:`~emastate.model.ModelSpec`
under a ping schedule, with optional time trends, coded disturbances,
regime switches (declared breakpoints), a time-varying transition entry,
and post-hoc missingness injection under five mechanisms.

Reproducibility: participant ``i`` of a run seeded with ``s`` draws from
``np.random.SeedSequence((s, i, stream))`` so serial and parallel
generation agree bit for bit.

Every step, in both time modes, comes from the step builder the filters
share (:func:`~emastate.model._cohort_steps`), and every step noise's
factor from :func:`~emastate.model._step_roots`.  A dataset holds only
finite values: an input that is not finite is ``BAD_SCENARIO`` and a draw
that is not ``NON_FINITE``, naming the participant and the ping.

A scenario document is read by :func:`scenario_from_dict`: the keys and
defaults of each section are the fields of its dataclass (``Scenario``,
``PingSchedule``, ``TrendSpec`` and so on), built by
:func:`~emastate.model.from_document`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .dataset import EmaDataset, Participant, default_names
from .errors import EmaError
from .model import (GAUSSIAN, GRADED_RESPONSE, BERNOULLI_LOGISTIC, POISSON,
                    ModelSpec, _cohort_steps, _floats, _step_roots, from_document, psd_sqrt,
                    require_valid)
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

    kind: str = "fixed"
    horizon: float = 0.0
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
    if not np.isfinite(sched.horizon):
        raise EmaError("INVALID_SCHEDULE", f"horizon must be finite, got {sched.horizon}")
    if sched.kind == "fixed":
        if not (sched.interval or 0) > 0:      # NaN too
            raise EmaError("INVALID_SCHEDULE", "fixed schedule needs interval > 0")
        n = int(np.ceil(sched.horizon / sched.interval)) + 1
        t = np.arange(n) * sched.interval
        t = t[t < sched.horizon]
    elif sched.kind == "jittered":
        if not (sched.interval or 0) > 0:
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
        if not np.all((widths > 0) & (widths < np.inf)):     # NaN and infinite bounds too
            raise EmaError("INVALID_SCHEDULE", "every window needs finite bounds with hi > lo")
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        days = int(np.ceil(sched.horizon / HOURS_PER_DAY))
        u = np.sort(rng.uniform(0.0, edges[-1], size=(days, sched.pings_per_day)), axis=1)
        w = np.searchsorted(edges, u, side="right") - 1     # each day's draws, in order
        clock = np.array([lo for lo, _ in sched.windows])[w] + (u - edges[w])
        t = (np.arange(days)[:, None] * HOURS_PER_DAY + clock).reshape(-1)
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
    coefficients: tuple[float, ...] = ()
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
        if not np.isfinite(e.onset):
            raise EmaError("BAD_SCENARIO", f"event onset must be finite, got {e.onset}")
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
    breakpoints: tuple[float, ...] = ()
    regimes: tuple[Regime, ...] = ()

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        if len(bp) != len(self.regimes):
            raise EmaError("BAD_SCENARIO", "need one regime per breakpoint")
        if not np.isfinite(bp).all() or np.any(np.diff(bp) <= 0):
            raise EmaError("BAD_SCENARIO", "breakpoints must be finite and strictly increasing")
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


def _finite(code: str, i: int, what: str, X: np.ndarray) -> np.ndarray:
    """X, if every row is finite; else ``code``, naming participant ``i``
    and the ping of its first row that is not."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise EmaError(code, f"participant p{i + 1:03d}: {what} at ping {bad[0]} is not finite")
    return X


@np.errstate(all="ignore")      # a non-finite input is raised below
def _build_inputs(spec: ModelSpec, timestamps: np.ndarray,
                  trends: Sequence[TrendSpec], events: Sequence[DisturbanceEvent],
                  start_weekday: int, i: int) -> np.ndarray:
    """The inputs of participant ``i``; ``BAD_SCENARIO`` if one is not finite."""
    U = np.zeros((timestamps.size, spec.n_inputs))
    for tr in trends:
        coef = np.asarray(tr.coefficients, dtype=float)
        if coef.shape != (spec.n_inputs,):
            raise EmaError("BAD_SCENARIO",
                           f"trend coefficients must have length n_inputs={spec.n_inputs}")
        U += np.outer(tr.values(timestamps, start_weekday), coef)
    if events:
        U += encode_disturbance(events, timestamps, spec.n_inputs)
    return _finite("BAD_SCENARIO", i, "input", U)


def _regime_paths(spec: ModelSpec, timestamps: np.ndarray, regimes: RegimeSchedule | None,
                  tvp: TvpSchedule | None):
    """Each step's drift (the step into ping k uses ping k's regime drift
    and tvp value) and each ping's state mean offset."""
    n = spec.n_states
    regs = (Regime(),) + (regimes.regimes if regimes is not None else ())
    drift_of = [np.asarray(spec.A if r.A is None else r.A, dtype=float) for r in regs]
    offset_of = [np.zeros(n) if r.mean_offset is None else
                 np.asarray(r.mean_offset, dtype=float).reshape(-1) for r in regs]
    if any(A.shape != (n, n) or x.shape != (n,) for A, x in zip(drift_of, offset_of)):
        raise EmaError("BAD_SCENARIO", f"regime A must be {n}x{n} and mean_offset of length {n}")
    if tvp is not None and not (len(tvp.target) == 2 and all(0 <= i < n for i in tvp.target)):
        raise EmaError("BAD_SCENARIO", f"tvp target {tvp.target} is not an entry of A")
    segs = np.searchsorted(() if regimes is None else regimes.breakpoints, timestamps, "right")
    drifts = np.array(drift_of)[segs[1:]]
    if tvp is not None:
        drifts[:, tvp.target[0], tvp.target[1]] = tvp.value(timestamps[1:])
    return drifts, np.array(offset_of)[segs]


@np.errstate(over="ignore", invalid="ignore")      # a state that overflows is raised below
def _simulate_participant(spec: ModelSpec, A, R, G, U, offsets, L0, L_theta,
                          rng: np.random.Generator, i: int) -> np.ndarray:
    """State recursion + measurement of participant ``i`` of a spec with a
    non-Gaussian channel; returns the (T, n_obs) observations.  Step k (into
    ping k+1) has transition A[k], noise factor R[k] and input matrix G[k];
    ping k's state is offset by offsets[k].  Per ping, n state normals then
    the measurement's draws, which interleave; a state that is not finite
    raises ``NON_FINITE`` before its ping is measured."""
    n, p, T = spec.n_states, spec.n_obs, offsets.shape[0]
    drive = (G @ U[:-1, :, None])[..., 0]
    Y = np.empty((T, p))
    z = spec.initial_mean + L0 @ rng.standard_normal(n)
    for k in range(T):
        if k:
            z = A[k - 1] @ z + drive[k - 1] + R[k - 1] @ rng.standard_normal(n)
        x = z + offsets[k]
        if not np.isfinite(x).all():
            raise EmaError("NON_FINITE", f"participant p{i + 1:03d}: state at ping {k} "
                                         f"is not finite")
        Y[k] = _measure_ping(spec, x, rng, L_theta)
    return Y


@np.errstate(over="ignore", invalid="ignore")      # draws that overflow are raised below
def _simulate_gaussian(spec: ModelSpec, A, R, G, U, offsets, E, L0, L_theta) -> np.ndarray:
    """The observations of a cohort of P participants of an all-Gaussian
    spec, in lockstep: one loop over pings steps the (P, n) states, each
    participant with its own rows.  Every argument is time-major, padded
    past a participant's last ping: the steps A, R (noise factors) and G
    (T - 1, P, ...), the inputs U (T, P, q), the state offsets (T, P, n)
    and the normals E (T, P, n + p), each participant's block drawn from
    its own generator.  Each product is stacked over pings and
    participants; a stacked matmul calls the per-slice kernel once per
    slice, so every participant's numbers are those of its own loop.
    Returns (T, P, p)."""
    n = spec.n_states
    drive = (G @ U[:-1, ..., None])[..., 0]
    noise = (R @ E[1:, :, :n, None])[..., 0]
    Z = np.empty(offsets.shape)
    z = Z[0] = spec.initial_mean + (L0 @ E[0, :, :n, None])[..., 0]
    for k in range(1, len(Z)):
        z = Z[k] = (A[k - 1] @ z[..., None])[..., 0] + drive[k - 1] + noise[k - 1]
    X = (Z + offsets)[..., None, :]
    nu = (L_theta @ E[..., n:, None])[..., 0]
    return np.stack([(X @ h[:, None])[..., 0, 0] for h in spec.H], axis=-1) + nu


def _simulate_cohort(spec: ModelSpec, cohort: list, rngs):
    """The observations of each participant of ``cohort`` (timestamps, U,
    drifts and offsets each), drawn from ``rngs``, and the error of the
    first participant that stops the cohort, or None.

    The steps of every participant come from one
    :func:`~emastate.model._cohort_steps` call and their noise factors from
    one :func:`~emastate.model._step_roots` call; each cuts the cohort at
    the first participant whose steps fail, so the error is the one a
    participant-by-participant run meets first.  An all-Gaussian spec steps
    the kept participants in lockstep (:func:`_simulate_gaussian`), ragged
    lengths padded; a spec with a non-Gaussian channel, whose draws
    interleave, runs :func:`_simulate_participant` per participant.  The
    first kept participant, in cohort order, whose states or draws are not
    all finite raises ``NON_FINITE`` at once, as it comes before any cut
    participant.
    """
    (A_d, S_d, G_d), rows, kept, pending = _cohort_steps(
        spec, [np.diff(c[0]) for c in cohort], [c[2] for c in cohort])
    roots, kept, pending = _step_roots(S_d, rows, kept, pending)
    if not kept:
        return [], pending
    L_theta, L0 = psd_sqrt(spec.Theta), psd_sqrt(spec.initial_cov)
    if not spec.all_gaussian:
        Ys = []
        for i, ((_, U, _, offsets), rng) in enumerate(zip(cohort[:kept], rngs)):
            steps = rows[i, :len(offsets) - 1]
            Ys.append(_finite("NON_FINITE", i, "simulated value", _simulate_participant(
                spec, A_d[steps], roots[steps], G_d[steps], U, offsets, L0, L_theta, rng, i)))
        return Ys, pending
    lengths = [len(c[3]) for c in cohort[:kept]]
    T, n, p = max(lengths), spec.n_states, spec.n_obs
    E, U, offsets = (np.zeros((T, kept, k)) for k in (n + p, spec.n_inputs, n))
    for i, (k, (_, U_i, _, offsets_i), rng) in enumerate(zip(lengths, cohort, rngs)):
        E[:k, i], U[:k, i], offsets[:k, i] = rng.standard_normal((k, n + p)), U_i, offsets_i
    steps = np.maximum(rows[:kept, :T - 1].T, 0)      # past a participant's end: not read
    Y = _simulate_gaussian(spec, A_d[steps], roots[steps], G_d[steps], U, offsets, E, L0,
                           L_theta)
    return [_finite("NON_FINITE", i, "simulated value", Y[:k, i].copy())
            for i, k in enumerate(lengths)], pending


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
    exact discretization, so any schedule kind is admissible.  Every
    participant's schedule, inputs and regime path come first, each from
    its own random streams, then the whole cohort's gaps at once
    (:func:`_simulate_cohort`): the data, and the error raised when a
    participant fails, are those of simulating one participant after
    another.  Inputs or draws that are not all finite fail their
    participant, so every error is raised before any data is returned.
    """
    require_valid(spec)
    if spec.time_mode == "discrete" and sched.kind != "fixed":
        raise EmaError("SCHEDULE_MODE_MISMATCH",
                       "a discrete-time model needs a fixed-interval schedule; "
                       "use a continuous-time spec for irregular pings")
    if n_participants < 1:
        raise EmaError("BAD_SCENARIO", "n_participants must be >= 1")

    cohort, pending = [], None
    for i in range(n_participants):
        rng_s = np.random.default_rng(np.random.SeedSequence((rng_seed, i, 0)))
        try:
            timestamps = _schedule_draw(sched, rng_s)
            U = _build_inputs(spec, timestamps, trends, events, start_weekday, i)
            cohort.append((timestamps, U, *_regime_paths(spec, timestamps, regimes, tvp)))
        except EmaError as err:
            pending = err
            break
    Ys, failed = _simulate_cohort(spec, cohort, [np.random.default_rng(
        np.random.SeedSequence((rng_seed, i, 1))) for i in range(len(cohort))])
    if failed or pending:
        raise failed or pending
    participants = []
    for i, ((timestamps, U, *_), Y) in enumerate(zip(cohort, Ys)):
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
    lag = miss.lag if miss.mechanism == "ATMAR" else 0
    if miss.mechanism == "ATMAR" and lag < 1:
        raise EmaError("BAD_SCENARIO", "lag must be a positive integer")

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
            new = np.zeros_like(p.missing)
            if miss.mechanism == "MAR":
                rows = np.flatnonzero(~p.missing[:, miss.driver])
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
            else:                           # ATMAR, and MNAR as ATMAR at lag 0
                rows = np.arange(lag, T)
                rows = rows[~p.missing[rows - lag, miss.driver]]
                if rows.size:
                    v = driver_vals[rows - lag]
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


def _pairs(v) -> tuple[tuple[float, float], ...]:
    return tuple((float(a), float(b)) for a, b in v)


def _part(cls, what: str, **convert):
    """Converter of one ``what`` object of a scenario into a ``cls``."""
    return lambda v: from_document(cls, v, what, **convert)


def _parts(cls, what: str, **convert):
    """Converter of a list of ``what`` objects into a tuple of ``cls``."""
    one = _part(cls, what, **convert)
    return lambda v: tuple(map(one, v))


def scenario_from_dict(d: dict) -> Scenario:
    """Parse the scenario document: each section's keys and defaults are its
    dataclass's fields, and unknown keys are rejected everywhere."""
    return from_document(
        Scenario, d, "scenario", n_participants=int, seed=int, start_weekday=int,
        schedule=_part(PingSchedule, "schedule", horizon=float, interval=float,
                       max_jitter=float, windows=_pairs, pings_per_day=int,
                       mean_interval=float, day_length=float, night_length=float),
        trends=_parts(TrendSpec, "trend", coefficients=tuple, weekend_days=frozenset,
                      period=float, phase=float, windows=_pairs),
        events=_parts(DisturbanceEvent, "event", onset=float, magnitude=float,
                      decay_ratio=float, input_slot=int),
        missingness=_part(MissingnessSpec, "missingness", rate=float, driver=int,
                          slope=float, time_windows=_pairs, lag=int),
        regimes=_part(RegimeSchedule, "regimes", breakpoints=tuple,
                      regimes=_parts(Regime, "regime", A=_floats, mean_offset=_floats)),
        tvp=_part(TvpSchedule, "tvp", target=lambda v: tuple(map(int, v)),
                  start_value=float, end_value=float, midpoint=float, steepness=float))


def run_scenario(spec: ModelSpec, scenario: Scenario, rng_seed: int) -> EmaDataset:
    """Simulate per the scenario, then apply its missingness mechanism."""
    data = simulate_dataset(spec, scenario.schedule, scenario.trends,
                            scenario.events, scenario.regimes, scenario.tvp,
                            scenario.n_participants, rng_seed,
                            start_weekday=scenario.start_weekday)
    if scenario.missingness is not None:
        data = inject_missingness(data, scenario.missingness, rng_seed)
    return data
