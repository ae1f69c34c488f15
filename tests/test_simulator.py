import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

import emastate as es
from emastate.errors import EmaError

from oracles import batch_means_se, graded_response_stationary_probs


def ar1(a=0.5, sigma2=1.0, theta=0.0, **kw):
    return es.ModelSpec(A=[[a]], Sigma=[[sigma2]], Theta=[[theta]], **kw)


# --- schedules ---------------------------------------------------------------

def test_fixed_schedule_grid():
    sched = es.PingSchedule(kind="fixed", horizon=7 * 24.0, interval=24.0)
    t = es.generate_schedule(sched, 0)
    assert np.allclose(t, np.arange(7) * 24.0)


def test_random_window_pings_inside_windows():
    sched = es.PingSchedule(kind="random_window", horizon=10 * 24.0,
                            windows=((8.0, 20.0),), pings_per_day=5)
    t = es.generate_schedule(sched, 42)
    assert t.size == 50
    clock = np.mod(t, 24.0)
    assert np.all((clock >= 8.0) & (clock < 20.0))
    assert np.all(np.diff(t) > 0)


def test_event_driven_count_matches_poisson_oracle():
    sched = es.PingSchedule(kind="event_driven", horizon=30 * 24.0,
                            mean_interval=6.0)
    counts = [es.generate_schedule(sched, s).size for s in range(100)]
    expected = 30 * 24.0 / 6.0            # 120 events on average
    se = np.sqrt(expected) / np.sqrt(100)  # Poisson-count oracle
    assert abs(np.mean(counts) - expected) < 3 * np.sqrt(expected)
    assert abs(np.mean(counts) - expected) < 5 * se + 3  # mean is tight too


def test_jittered_schedule_keeps_order():
    sched = es.PingSchedule(kind="jittered", horizon=240.0, interval=4.0,
                            max_jitter=1.5)
    t = es.generate_schedule(sched, 3)
    assert np.all(np.diff(t) > 0)
    assert t.min() >= 0.0 and t.max() < 240.0


def test_night_structure_drops_pings():
    sched = es.PingSchedule(kind="fixed", horizon=48.0, interval=2.0,
                            day_length=12.0, night_length=12.0)
    t = es.generate_schedule(sched, 0)
    assert np.all(np.mod(t, 24.0) < 12.0)


def test_empty_schedule_rejected():
    sched = es.PingSchedule(kind="fixed", horizon=0.0, interval=24.0)
    with pytest.raises(EmaError) as exc:
        es.generate_schedule(sched, 0)
    assert exc.value.code == "EMPTY_SCHEDULE"


def test_schedule_deterministic_per_seed():
    sched = es.PingSchedule(kind="event_driven", horizon=100.0, mean_interval=3.0)
    assert np.array_equal(es.generate_schedule(sched, 9), es.generate_schedule(sched, 9))


# --- disturbance coding ------------------------------------------------------

def test_geometric_decay_series():
    t = np.arange(10, dtype=float)
    ev = es.DisturbanceEvent(onset=3.0, coding="geometric_decay", magnitude=1.0,
                             decay_ratio=0.5)
    U = es.encode_disturbance([ev], t, 1)
    assert np.allclose(U[:, 0], [0, 0, 0, 1.0, 0.5, 0.25, 0.125, 0.0625,
                                 0.03125, 0.015625])


def test_persistent_after_last_ping_is_zero():
    t = np.arange(5, dtype=float)
    ev = es.DisturbanceEvent(onset=99.0, coding="persistent", magnitude=1.0)
    U = es.encode_disturbance([ev], t, 1)
    assert np.all(U == 0.0)


def test_pulse_hits_exactly_one_ping():
    t = np.arange(5, dtype=float)
    ev = es.DisturbanceEvent(onset=1.5, coding="pulse", magnitude=2.0)
    U = es.encode_disturbance([ev], t, 1)
    assert np.count_nonzero(U) == 1 and U[2, 0] == 2.0


def test_overlapping_events_sum():
    t = np.arange(4, dtype=float)
    evs = [es.DisturbanceEvent(onset=0.0, coding="persistent", magnitude=1.0),
           es.DisturbanceEvent(onset=2.0, coding="pulse", magnitude=3.0)]
    U = es.encode_disturbance(evs, t, 1)
    assert np.allclose(U[:, 0], [1.0, 1.0, 4.0, 1.0])


# --- simulate_dataset --------------------------------------------------------

def test_noiseless_null_system_is_identically_zero():
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[0.0]], Theta=[[0.0]],
                        initial_mean=[0.0], initial_cov=[[0.0]])
    sched = es.PingSchedule(kind="fixed", horizon=50.0, interval=1.0)
    data = es.simulate_dataset(spec, sched, rng_seed=0)
    assert np.all(data.participants[0].Y == 0.0)


def test_discrete_mode_requires_fixed_schedule():
    sched = es.PingSchedule(kind="event_driven", horizon=100.0, mean_interval=5.0)
    with pytest.raises(EmaError) as exc:
        es.simulate_dataset(ar1(), sched, rng_seed=0)
    assert exc.value.code == "SCHEDULE_MODE_MISMATCH"


def test_identity_link_negative_rate_rejected():
    ch = es.MeasurementChannel(family="poisson", scale=1.0, link="identity")
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], H=[[1.0]], Theta=[[0.0]],
                        channels=(ch,), initial_mean=[0.0])
    sched = es.PingSchedule(kind="fixed", horizon=200.0, interval=1.0)
    with pytest.raises(EmaError) as exc:
        es.simulate_dataset(spec, sched, rng_seed=1)
    assert exc.value.code == "NEGATIVE_RATE"


def test_seed_reproducibility_bit_identical():
    sched = es.PingSchedule(kind="jittered", horizon=100.0, interval=2.0,
                            max_jitter=0.5)
    spec = es.to_continuous(ar1(theta=0.3), 1.0)
    d1 = es.simulate_dataset(spec, sched, n_participants=3, rng_seed=21)
    d2 = es.simulate_dataset(spec, sched, n_participants=3, rng_seed=21)
    for p1, p2 in zip(d1.participants, d2.participants):
        assert np.array_equal(p1.Y, p2.Y)
        assert np.array_equal(p1.timestamps, p2.timestamps)


def test_graded_response_frequencies_match_quadrature():
    a, sigma2, disc = 0.5, 1.0, 1.2
    th = (-1.5, -0.5, 0.5, 1.5)
    ch = es.MeasurementChannel(family="graded_response", discrimination=disc,
                               thresholds=th)
    spec = es.ModelSpec(A=[[a]], Sigma=[[sigma2]], H=[[1.0]], Theta=[[0.0]],
                        channels=(ch,))
    T = 5000
    sched = es.PingSchedule(kind="fixed", horizon=float(T), interval=1.0)
    data = es.simulate_dataset(spec, sched, rng_seed=2024)
    y = data.participants[0].Y[:, 0].astype(int)
    probs = graded_response_stationary_probs(a, sigma2, disc, th)
    for k in range(1, 6):
        ind = (y == k).astype(float)
        se = batch_means_se(ind)
        assert abs(ind.mean() - probs[k - 1]) < 3 * se + 1e-12


def test_regime_means_shift_in_declared_direction():
    spec = ar1()
    sched = es.PingSchedule(kind="fixed", horizon=100.0, interval=1.0)
    regimes = es.RegimeSchedule(
        breakpoints=(33.0, 66.0),
        regimes=(es.Regime(mean_offset=np.array([3.0])),
                 es.Regime(mean_offset=np.array([-3.0]))))
    deltas = []
    for seed in range(10):
        data = es.simulate_dataset(spec, sched, regimes=regimes, rng_seed=seed)
        y = data.participants[0].Y[:, 0]
        m_early, m_mid, m_late = y[:33].mean(), y[33:66].mean(), y[66:].mean()
        deltas.append((m_mid - m_early, m_mid - m_late))
    deltas = np.array(deltas)
    assert np.all(deltas[:, 0] > 0)       # mid (3) above early (0)
    assert np.all(deltas[:, 1] > 0)       # mid (3) above late (-3)


def test_tvp_sigmoid_trajectory_changes_persistence():
    spec = es.ModelSpec(A=[[0.0]], Sigma=[[1.0]], Theta=[[0.0]])
    sched = es.PingSchedule(kind="fixed", horizon=101.0, interval=1.0)
    tvp = es.TvpSchedule(target=(0, 0), start_value=0.0, end_value=1.0,
                         midpoint=50.0, steepness=0.15)
    lag1 = []
    for seed in range(20):
        y = es.simulate_dataset(spec, sched, tvp=tvp, rng_seed=seed).participants[0].Y[:, 0]
        early, late = y[:40], y[60:]
        lag1.append((np.corrcoef(early[:-1], early[1:])[0, 1],
                     np.corrcoef(late[:-1], late[1:])[0, 1]))
    lag1 = np.array(lag1)
    assert lag1[:, 1].mean() > lag1[:, 0].mean() + 0.3


def _draws_factoring_each_gap(spec, timestamps, U, regimes, tvp, rng):
    """The state recursion with psd_sqrt called per distinct gap covariance."""
    from emastate.model import _discretize_gaps, psd_sqrt
    from emastate.simulate import _measure_ping
    n, T = spec.n_states, timestamps.size
    regs = regimes.regimes if regimes is not None else ()
    drift_of = [spec.A] + [spec.A if r.A is None else np.asarray(r.A) for r in regs]
    offset_of = [np.zeros(n)] + [np.zeros(n) if r.mean_offset is None else
                                 np.asarray(r.mean_offset).reshape(n) for r in regs]
    segs = [regimes.segment(t) for t in timestamps] if regs else [0] * T
    drifts = np.array([drift_of[seg] for seg in segs[1:]]).reshape(T - 1, n, n)
    if tvp is not None:
        drifts[:, tvp.target[0], tvp.target[1]] = [tvp.value(t) for t in timestamps[1:]]
    if spec.time_mode == "continuous":
        trans = _discretize_gaps(spec, np.diff(timestamps), drifts)
    else:
        trans = [(A, spec.Sigma, spec.G) for A in drifts]
    factors = {id(S): psd_sqrt(S) for _, S, _ in trans}
    L_theta, L0 = psd_sqrt(spec.Theta), psd_sqrt(spec.initial_cov)
    Y = np.empty((T, spec.n_obs))
    z = spec.initial_mean + L0 @ rng.standard_normal(n)
    Y[0] = _measure_ping(spec, z + offset_of[segs[0]], rng, L_theta)
    for k in range(1, T):
        A, S, G = trans[k - 1]
        z = A @ z + G @ U[k - 1] + factors[id(S)] @ rng.standard_normal(n)
        Y[k] = _measure_ping(spec, z + offset_of[segs[k]], rng, L_theta)
    return Y


@pytest.mark.parametrize("case", ["discrete", "continuous", "singular noise"])
def test_batched_gap_factoring_draws_equal_per_gap_factoring_bit_for_bit(case):
    from emastate.simulate import _simulate_participant
    Sigma = [[1.0, 0.0], [0.0, 0.0]] if case == "singular noise" else [[1.0, 0.3], [0.3, 0.6]]
    disc = es.ModelSpec(A=[[0.6, 0.1], [0.0, 0.5]], Sigma=Sigma, G=[[0.4], [0.1]],
                        Theta=0.5 * np.eye(2))
    spec = es.to_continuous(disc, 2.0) if case == "continuous" else disc
    timestamps = (np.cumsum(np.random.default_rng(3).uniform(0.2, 9.0, 80))
                  if case == "continuous" else np.arange(80.0))
    U = np.random.default_rng(4).normal(size=(80, 1))
    regimes = es.RegimeSchedule(breakpoints=(20.0, 50.0), regimes=(
        es.Regime(A=spec.A * 0.8, mean_offset=np.array([1.0, -1.0])), es.Regime()))
    tvp = es.TvpSchedule(target=(1, 1), start_value=spec.A[1, 1], end_value=spec.A[1, 1] * 0.5,
                         midpoint=40.0, steepness=0.2)
    for reg, tv in ((None, None), (regimes, tvp)):
        got = _simulate_participant(spec, timestamps, U, reg, tv, np.random.default_rng(9))
        want = _draws_factoring_each_gap(spec, timestamps, U, reg, tv, np.random.default_rng(9))
        assert got.tobytes() == want.tobytes()


def test_weekend_gaps_simulate_the_stationary_law():
    """At a 72 h interval pings are all but independent draws from the
    stationary law, so Cov(y) = P_inf + Theta; each entry's sample mean of
    y_i y_j must lie within 4 batch-means standard errors of it."""
    disc = es.ModelSpec(A=[[0.5, 0.1], [0.0, 0.4]], Sigma=np.eye(2), Theta=0.5 * np.eye(2))
    ct = es.to_continuous(disc, 1.0).with_matrices(initial_cov=None)
    sched = es.PingSchedule(kind="fixed", horizon=72.0 * 2000, interval=72.0)
    Y = es.simulate_dataset(ct, sched, rng_seed=31).participants[0].Y
    assert Y.shape == (2000, 2) and np.isfinite(Y).all()
    target = solve_continuous_lyapunov(ct.A, -ct.Sigma) + ct.Theta
    for i in range(2):
        for j in range(i + 1):
            prod = Y[:, i] * Y[:, j]
            assert abs(prod.mean() - target[i, j]) < 4.0 * batch_means_se(prod), (i, j)


def test_downsampling_rmse_monotone_in_thinning():
    for seed in range(20):
        cols = es.figure_series("fig1a", seed)
        rmse = es.thinning_rmse(cols)
        assert rmse[1] <= rmse[5] <= rmse[10]


def test_random_walk_retains_shock_stationary_returns():
    hits = 0
    n_seeds = 100
    from emastate.figures import FIG3C_SHOCK
    for seed in range(n_seeds):
        cols = es.figure_series("fig3c", seed)
        stat, walk = cols["stationary"], cols["random_walk"]
        sd_stat = np.sqrt(1.0 / (1.0 - 0.25))
        ok_stat = abs(stat[75:].mean()) < 2 * sd_stat
        # "retains the shock" is relative to the walk's pre-shock level
        ok_walk = walk[75:].mean() - walk[40:50].mean() >= FIG3C_SHOCK / 2.0
        hits += ok_stat and ok_walk
    assert hits >= 90


# --- missingness -------------------------------------------------------------

def _dataset(n_participants=10, T=100, seed=5, n_obs=1):
    if n_obs == 1:
        spec = ar1(theta=0.3)
    else:
        spec = es.ModelSpec(A=np.eye(n_obs) * 0.5, Sigma=np.eye(n_obs),
                            Theta=0.3 * np.eye(n_obs))
    sched = es.PingSchedule(kind="fixed", horizon=float(T), interval=1.0)
    return es.simulate_dataset(spec, sched, n_participants=n_participants,
                               rng_seed=seed)


def test_mcar_rate_zero_leaves_dataset_unchanged():
    data = _dataset()
    out = es.inject_missingness(data, es.MissingnessSpec("MCAR", 0.0), 1)
    assert es.datasets_equal(data, out)


def test_mcar_realized_fraction_concentrates():
    data = _dataset(n_participants=10, T=300)
    out = es.inject_missingness(data, es.MissingnessSpec("MCAR", 0.3), 7)
    frac = np.mean(np.concatenate([p.missing.ravel() for p in out.participants]))
    assert 0.27 <= frac <= 0.33


def test_inject_returns_copy():
    data = _dataset()
    before = data.participants[0].Y.copy()
    es.inject_missingness(data, es.MissingnessSpec("MCAR", 0.5), 1)
    assert np.array_equal(data.participants[0].Y, before)
    assert not data.participants[0].missing.any()


def test_tmar_window_probability_one_masks_every_night_ping():
    spec = es.to_continuous(ar1(theta=0.3), 1.0)
    sched = es.PingSchedule(kind="jittered", horizon=10 * 24.0, interval=2.0,
                            max_jitter=0.5)
    data = es.simulate_dataset(spec, sched, rng_seed=3)
    night_frac = np.mean(np.mod(data.participants[0].timestamps, 24.0) >= 22.0)
    miss = es.MissingnessSpec("TMAR", rate=round(float(night_frac), 2),
                              slope=np.inf, time_windows=((22.0, 24.0),))
    out = es.inject_missingness(data, miss, 11)
    p = out.participants[0]
    night = np.mod(p.timestamps, 24.0) >= 22.0
    assert p.missing[night].all()


def test_mar_masks_only_non_driver_channels():
    data = _dataset(n_obs=3)
    out = es.inject_missingness(data, es.MissingnessSpec("MAR", 0.25, driver=1), 13)
    for p in out.participants:
        assert not p.missing[:, 1].any()
        assert p.missing[:, [0, 2]].any()


def test_mar_calibration_hits_rate():
    data = _dataset(n_participants=20, T=200, n_obs=2)
    out = es.inject_missingness(data, es.MissingnessSpec("MAR", 0.3, driver=0,
                                                         slope=1.5), 17)
    frac = np.mean(np.concatenate([p.missing[:, 1] for p in out.participants]))
    assert abs(frac - 0.3) < 0.05


def test_mnar_masks_driver_only_and_depends_on_value():
    data = _dataset(n_participants=30, T=200)
    out = es.inject_missingness(data, es.MissingnessSpec("MNAR", 0.3, driver=0,
                                                         slope=2.0), 19)
    vals = np.concatenate([p.Y[:, 0] for p in data.participants])
    masked = np.concatenate([p.missing[:, 0] for p in out.participants])
    # positive slope: masked cells should have larger underlying values
    assert vals[masked].mean() > vals[~masked].mean() + 0.3


def test_atmar_never_masks_first_lag_pings():
    data = _dataset(n_participants=20)
    out = es.inject_missingness(data, es.MissingnessSpec("ATMAR", 0.4, driver=0,
                                                         slope=1.0, lag=3), 23)
    for p in out.participants:
        assert not p.missing[:3, 0].any()


def test_atmar_depends_on_lagged_value():
    data = _dataset(n_participants=30, T=300)
    out = es.inject_missingness(data, es.MissingnessSpec("ATMAR", 0.3, driver=0,
                                                         slope=2.0, lag=1), 29)
    lagged, masked = [], []
    for po, pm in zip(data.participants, out.participants):
        lagged.append(po.Y[:-1, 0])
        masked.append(pm.missing[1:, 0])
    lagged = np.concatenate(lagged); masked = np.concatenate(masked)
    assert lagged[masked].mean() > lagged[~masked].mean() + 0.3


def test_calibration_failure_reported():
    data = _dataset()
    # slope -inf sends every probability to 0 for positive drivers and 1 for
    # negative ones; a target far above the reachable range must fail
    miss = es.MissingnessSpec("TMAR", 0.9, slope=-np.inf,
                              time_windows=((0.0, 24.0),))
    with pytest.raises(EmaError) as exc:
        es.inject_missingness(data, miss, 1)
    assert exc.value.code == "CALIBRATION_FAILED"


# --- scenario parsing --------------------------------------------------------

def test_scenario_roundtrip_and_unknown_keys():
    d = {
        "schedule": {"kind": "fixed", "horizon": 48.0, "interval": 2.0},
        "trends": [{"kind": "linear", "coefficients": [0.1]}],
        "events": [{"onset": 10.0, "coding": "pulse", "magnitude": 1.0}],
        "missingness": {"mechanism": "MCAR", "rate": 0.2},
        "n_participants": 2,
    }
    sc = es.scenario_from_dict(d)
    assert sc.schedule.interval == 2.0
    assert sc.trends[0].kind == "linear"
    assert sc.missingness.rate == 0.2
    with pytest.raises(EmaError) as exc:
        es.scenario_from_dict({**d, "extra": 1})
    assert exc.value.code == "UNKNOWN_KEY"


# --- additional measurement families and trend kinds --------------------------

def test_bernoulli_logistic_values_and_rate():
    ch = es.MeasurementChannel(family="bernoulli_logistic", discrimination=2.0,
                               thresholds=(0.0,))
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], H=[[1.0]], Theta=[[0.0]],
                        channels=(ch,))
    sched = es.PingSchedule(kind="fixed", horizon=2000.0, interval=1.0)
    y = es.simulate_dataset(spec, sched, rng_seed=9).participants[0].Y[:, 0]
    assert set(np.unique(y)) <= {0.0, 1.0}
    # symmetric threshold at the stationary mean: close to half endorsement
    assert abs(y.mean() - 0.5) < 0.05


def test_count_channel_values_are_nonnegative_integers():
    ch = es.MeasurementChannel(family="poisson", scale=2.0, link="log")
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[0.5]], H=[[1.0]], Theta=[[0.0]],
                        channels=(ch,))
    sched = es.PingSchedule(kind="fixed", horizon=500.0, interval=1.0)
    y = es.simulate_dataset(spec, sched, rng_seed=10).participants[0].Y[:, 0]
    assert np.all(y >= 0)
    assert np.all(y == np.round(y))


def test_sinusoid_and_custom_dummy_trends():
    t = np.arange(8, dtype=float)
    sin = es.TrendSpec(kind="sinusoid", coefficients=(1.0,), period=8.0, phase=0.0)
    assert np.allclose(sin.values(t), np.sin(2 * np.pi * t / 8.0))
    dummy = es.TrendSpec(kind="custom_dummy", coefficients=(1.0,),
                         windows=((2.0, 5.0),))
    assert np.allclose(dummy.values(t), [0, 0, 1, 1, 1, 0, 0, 0])


def test_scenario_parses_regimes_and_tvp():
    d = {
        "schedule": {"kind": "fixed", "horizon": 100.0, "interval": 1.0},
        "regimes": {"breakpoints": [33.0, 66.0],
                    "regimes": [{"mean_offset": [3.0]},
                                {"mean_offset": [-3.0], "A": [[0.2]]}]},
        "tvp": {"target": [0, 0], "start_value": 0.0, "end_value": 1.0,
                "midpoint": 50.0, "steepness": 0.15},
    }
    sc = es.scenario_from_dict(d)
    assert sc.regimes.segment(10.0) == 0
    assert sc.regimes.segment(40.0) == 1
    assert sc.regimes.regimes[1].A[0, 0] == 0.2
    assert sc.tvp.value(50.0) == pytest.approx(0.5)
