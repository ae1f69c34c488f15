import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor
from scipy.special import logsumexp

import emastate as es
from emastate.errors import EmaError
from emastate.filtering import _logsumexp, _particle_pass, _prepare
from emastate.model import psd_sqrt

from oracles import (bootstrap_filter, ct_gaussian_joint, gaussian_joint,
                     poisson_t2_loglik, random_stable_spec)


def _simulate_series(spec, T, seed, miss_frac=0.0):
    rng = np.random.default_rng(seed)
    sched = es.PingSchedule(kind="fixed", horizon=float(T), interval=1.0)
    data = es.simulate_dataset(spec, sched, rng_seed=seed)
    p = data.participants[0]
    missing = rng.uniform(size=p.Y.shape) < miss_frac
    if missing.all(axis=None):
        missing[0, 0] = False
    Y = p.Y.copy()
    Y[missing] = np.nan
    return Y, missing


# --- Kalman filter -----------------------------------------------------------

def test_tiny_measurement_noise_tracks_observations():
    spec = es.ModelSpec(A=np.eye(2) * 0.5, Sigma=np.eye(2), H=np.eye(2),
                        Theta=1e-12 * np.eye(2))
    Y, _ = _simulate_series(spec, 30, 0)
    r = es.kalman_filter(spec, Y)
    assert np.allclose(r.filtered_mean, Y, atol=1e-6)


def test_fully_missing_ping_keeps_prediction_exactly():
    spec = es.ModelSpec(A=[[0.7]], Sigma=[[1.0]], Theta=[[0.4]])
    Y, missing = _simulate_series(spec, 20, 1)
    missing[7, :] = True
    r = es.kalman_filter(spec, Y, missing)
    assert np.array_equal(r.filtered_mean[7], r.predicted_mean[7])
    assert np.array_equal(r.filtered_cov[7], r.predicted_cov[7])
    assert r.loglik_contributions[7] == 0.0
    assert r.missing_handled == 1


def test_t3_dense_model_matches_joint_gaussian_oracle():
    spec = es.ModelSpec(A=[[0.5, 0.2], [-0.1, 0.6]],
                        Sigma=[[1.0, 0.3], [0.3, 0.8]],
                        H=[[1.0, 0.0], [0.5, 1.0]],
                        Theta=[[0.5, 0.1], [0.1, 0.4]],
                        initial_mean=[0.2, -0.1], initial_cov=np.eye(2))
    Y, missing = _simulate_series(spec, 3, 2)
    missing[1, 0] = True
    Y[1, 0] = np.nan
    r = es.kalman_filter(spec, Y, missing)
    o = gaussian_joint(spec, Y, missing)
    assert abs(r.log_likelihood - o["log_likelihood"]) < 1e-8
    assert np.allclose(r.filtered_mean, o["filtered_mean"], atol=1e-8)
    assert np.allclose(r.filtered_cov, o["filtered_cov"], atol=1e-8)
    assert np.allclose(r.predicted_mean, o["predicted_mean"], atol=1e-8)
    assert np.allclose(r.predicted_cov, o["predicted_cov"], atol=1e-8)


def test_oracle_agreement_on_random_models_with_missingness():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = random_stable_spec(rng)
        T = int(rng.integers(2, 6))
        Y, missing = _simulate_series(spec, T, int(rng.integers(1e6)), miss_frac=0.3)
        r = es.kalman_filter(spec, Y, missing)
        o = gaussian_joint(spec, Y, missing)
        assert abs(r.log_likelihood - o["log_likelihood"]) < 1e-8
        assert np.allclose(r.filtered_mean, o["filtered_mean"], atol=1e-8)
        assert np.allclose(r.filtered_cov, o["filtered_cov"], atol=1e-8)


def test_loglik_invariant_to_missingness_encoding():
    """Masking a channel equals marginalizing it out of the joint density."""
    spec = es.ModelSpec(A=np.eye(2) * 0.6, Sigma=np.eye(2),
                        H=np.eye(2), Theta=0.5 * np.eye(2))
    Y, missing = _simulate_series(spec, 4, 3)
    missing[2, 1] = True
    Y[2, 1] = np.nan
    r = es.kalman_filter(spec, Y, missing)
    o = gaussian_joint(spec, Y, missing)   # oracle drops the cell entirely
    assert abs(r.log_likelihood - o["log_likelihood"]) < 1e-8


def test_inputs_shift_the_prediction():
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], G=[[2.0]], Theta=[[0.5]])
    Y, missing = _simulate_series(es.ModelSpec(A=[[0.5]], Sigma=[[1.0]],
                                               Theta=[[0.5]]), 5, 4)
    U = np.zeros((5, 1)); U[1, 0] = 1.0
    r0 = es.kalman_filter(spec, Y, missing, u=np.zeros((5, 1)))
    r1 = es.kalman_filter(spec, Y, missing, u=U)
    # u at t=1 affects the prediction at t=2 and nothing earlier
    assert np.allclose(r0.predicted_mean[:2], r1.predicted_mean[:2])
    assert abs((r1.predicted_mean[2] - r0.predicted_mean[2])[0] - 2.0) < 1e-12


def test_singular_innovation_reported():
    spec = es.ModelSpec(A=[[0.5, 0.0], [0.0, 0.5]],
                        Sigma=[[1.0, 1.0], [1.0, 1.0]],   # rank one
                        H=np.eye(2), Theta=np.zeros((2, 2)),
                        initial_cov=[[1.0, 1.0], [1.0, 1.0]])
    Y = np.zeros((3, 2))
    with pytest.raises(EmaError) as exc:
        es.kalman_filter(spec, Y)
    assert exc.value.code == "SINGULAR_INNOVATION"


def test_kalman_rejects_non_gaussian_channels():
    ch = es.MeasurementChannel(family="poisson")
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], H=[[1.0]], Theta=[[0.0]],
                        channels=(ch,))
    with pytest.raises(EmaError) as exc:
        es.kalman_filter(spec, np.ones((3, 1)))
    assert exc.value.code == "LIKELIHOOD_MODE_MISMATCH"


def test_covariances_stay_psd_over_long_series():
    rng = np.random.default_rng(11)
    spec = random_stable_spec(rng)
    T = 100_000
    y = rng.normal(size=(T, spec.n_obs))
    r = es.kalman_filter(spec, y)
    for t in range(0, T, 5000):
        P = r.filtered_cov[t]
        assert np.allclose(P, P.T)
        assert np.linalg.eigvalsh(P).min() > -1e-10
    P = r.filtered_cov[-1]
    assert np.linalg.eigvalsh(P).min() > -1e-10


def test_scalar_fast_path_matches_joint_gaussian_oracle():
    # 1-state/1-channel series take a dedicated float recursion; pin it to
    # the same oracle as the general path, inputs and missingness included
    rng = np.random.default_rng(5)
    y = rng.normal(size=(5, 1))
    missing = rng.uniform(size=(5, 1)) < 0.2
    u = rng.normal(size=(5, 1))
    spec = es.ModelSpec(A=[[0.7]], Sigma=[[0.9]], G=[[0.4]], H=[[1.3]],
                        Theta=[[0.6]], initial_mean=[0.2], initial_cov=[[1.5]])
    o = gaussian_joint(spec, y, missing, u)
    r = es.kalman_filter(spec, y, missing, u=u)
    assert np.allclose(r.filtered_mean, o["filtered_mean"], atol=1e-8)
    assert np.allclose(r.filtered_cov, o["filtered_cov"], atol=1e-8)
    assert abs(r.log_likelihood - o["log_likelihood"]) < 1e-8


# --- continuous-time filtering -----------------------------------------------

def test_ct_equal_spacing_matches_discrete():
    disc = es.ModelSpec(A=[[0.6, 0.1], [0.0, 0.7]], Sigma=np.eye(2),
                        Theta=0.3 * np.eye(2), initial_cov=np.eye(2))
    ct = es.to_continuous(disc, 1.0)
    Y, missing = _simulate_series(disc, 25, 6, miss_frac=0.2)
    t = np.arange(25, dtype=float)
    r_d = es.kalman_filter(disc, Y, missing)
    r_c = es.kalman_filter_ct(ct, t, Y, missing)
    assert abs(r_d.log_likelihood - r_c.log_likelihood) < 1e-10
    assert np.allclose(r_d.filtered_mean, r_c.filtered_mean, atol=1e-10)


def test_night_gap_equals_inserted_missing_rows():
    """The two recommended night treatments coincide for linear-Gaussian
    models: filtering across the raw gap in continuous time, or inserting
    night-length/interval missing rows and filtering at the day cadence."""
    delta = 2.4
    disc = es.ModelSpec(A=[[0.6]], Sigma=[[1.0]], Theta=[[0.5]],
                        initial_cov=[[4.0 / 3.0]])
    ct = es.to_continuous(disc, delta)
    # two days of 5 pings each; the night gap is 14.4h = 6 day-intervals
    day1 = np.arange(5) * delta
    day2 = 24.0 + np.arange(5) * delta
    t = np.concatenate([day1, day2])
    rng = np.random.default_rng(8)
    Y = rng.normal(size=(10, 1))
    r_ct = es.kalman_filter_ct(ct, t, Y)

    data = es.EmaDataset(
        [es.Participant("p1", t, Y, np.zeros_like(Y, bool), np.zeros((10, 0)))],
        ["y1"], [])
    aug = es.augment_night_gaps(data, day_window=(0.0, 12.0), target_interval=delta)
    pa = aug.participants[0]
    assert pa.n_pings == 15                      # 5 NA rows inserted
    r_disc = es.kalman_filter(disc, pa.Y, pa.missing)
    morning = 10                                 # index of the t=24 ping
    assert abs(r_disc.predicted_mean[morning, 0] - r_ct.predicted_mean[5, 0]) < 1e-6
    assert abs(r_disc.log_likelihood - r_ct.log_likelihood) < 1e-6


def test_ct_single_observation_is_one_bayes_update():
    ct = es.ModelSpec(A=[[-0.3]], Sigma=[[1.0]], Theta=[[0.5]],
                      time_mode="continuous", initial_mean=[1.0],
                      initial_cov=[[2.0]])
    y = np.array([[0.4]])
    r = es.kalman_filter_ct(ct, [0.0], y)
    P0, th = 2.0, 0.5
    k = P0 / (P0 + th)
    assert abs(r.filtered_mean[0, 0] - (1.0 + k * (0.4 - 1.0))) < 1e-12
    assert abs(r.filtered_cov[0, 0, 0] - (1 - k) * P0 * (1 - k) - k * th * k) < 1e-12


def test_ct_filter_and_smoother_across_multi_day_gaps_match_joint_oracle():
    """Weekend (72 h) and 500 h gaps: far beyond where a one-shot Van Loan
    block cancels (|lambda| dt ~ 50 and ~ 460 here)."""
    ct = es.to_continuous(_var2(), 1.0).with_matrices(initial_cov=None)  # stationary
    t = np.array([0.0, 1.0, 2.5, 74.5, 75.0, 76.3, 576.3, 577.0, 578.1])
    rng = np.random.default_rng(21)
    Y = rng.normal(size=(t.size, 2))
    missing = rng.uniform(size=Y.shape) < 0.2
    missing[3] = [True, False]
    Y[missing] = np.nan
    o = ct_gaussian_joint(ct, t, Y, missing)
    r = es.kalman_filter_ct(ct, t, Y, missing)
    s = es.kalman_smooth(ct, Y, missing, timestamps=t)
    assert abs(r.log_likelihood - o["log_likelihood"]) < 1e-8
    for got, want in ((r.predicted_cov, "predicted_cov"), (r.filtered_mean, "filtered_mean"),
                      (r.filtered_cov, "filtered_cov"), (s.smoothed_mean, "smoothed_mean"),
                      (s.smoothed_cov, "smoothed_cov"), (s.lag_one_cov, "lag_one_cov")):
        assert np.allclose(got, o[want], rtol=0.0, atol=1e-8), want


@pytest.mark.parametrize("gap", [np.nan, np.inf])
@pytest.mark.parametrize("entry", ["kalman_filter_ct", "kalman_smooth", "particle_filter"])
def test_non_finite_gap_is_typed(entry, gap):
    spec = es.ModelSpec(A=[[-0.5]], Sigma=[[1.0]], Theta=[[0.5]], initial_cov=[[1.0]],
                        time_mode="continuous")
    y = np.zeros((4, 1))
    t = np.array([0.0, 1.0, 2.0, 2.0 + gap])
    calls = {
        "kalman_filter_ct": lambda: es.kalman_filter_ct(spec, t, y),
        "kalman_smooth": lambda: es.kalman_smooth(spec, y, timestamps=t),
        "particle_filter": lambda: es.particle_filter(spec, y, 100, 0, timestamps=t),
    }
    with pytest.raises(EmaError) as exc:
        calls[entry]()
    assert exc.value.code == "INVALID_MODEL"


# --- smoother ----------------------------------------------------------------

def test_smoother_t1_equals_filter():
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.2]])
    y = np.array([[1.0]])
    r = es.kalman_filter(spec, y)
    s = es.kalman_smooth(spec, y)
    assert np.allclose(s.smoothed_mean, r.filtered_mean)
    assert np.allclose(s.smoothed_cov, r.filtered_cov)


def _smoother_case(name):
    """(spec, oracle spec, Y, missing, timestamps) for the smoother oracle test."""
    dense = es.ModelSpec(A=[[0.5, 0.2], [-0.1, 0.6]],
                         Sigma=[[1.0, 0.3], [0.3, 0.8]],
                         H=[[1.0, 0.0], [0.5, 1.0]],
                         Theta=[[0.5, 0.1], [0.1, 0.4]],
                         initial_mean=[0.2, -0.1], initial_cov=np.eye(2))
    if name == "dense-2x2":
        Y, missing = _simulate_series(dense, 3, 9)
        missing[0, 1] = True
        return dense, dense, Y, missing, None
    if name == "scalar":            # the float loop
        spec = es.ModelSpec(A=[[0.7]], Sigma=[[1.0]], Theta=[[0.4]],
                            initial_mean=[0.5], initial_cov=[[2.0]])
        Y, missing = _simulate_series(spec, 5, 10)
        missing[2, 0] = True
        return spec, spec, Y, missing, None
    if name == "ct-even-grid":
        ct = es.to_continuous(dense.with_matrices(A=np.array([[0.6, 0.1], [0.0, 0.7]])), 2.0)
        Y, missing = _simulate_series(dense, 4, 11, miss_frac=0.25)
        return ct, es.discretize(ct, 2.0), Y, missing, 2.0 * np.arange(4)
    # a noiseless random-walk state: the predicted covariance is singular,
    # so the smoother gain takes the pseudo-inverse
    rw = es.ModelSpec(A=[[1.0, 0.0], [0.2, 0.5]], Sigma=[[0.0, 0.0], [0.0, 1.0]],
                      H=[[1.0, 0.0], [0.5, 1.0]], Theta=[[0.5, 0.1], [0.1, 0.4]],
                      initial_mean=[0.3, 0.0], initial_cov=[[0.0, 0.0], [0.0, 1.0]],
                      random_walk_states=[0])
    Y, missing = _simulate_series(rw, 4, 12)
    missing[1, 0] = True
    return rw, rw, Y, missing, None


def test_smoother_matches_joint_gaussian_oracle():
    for case in ("dense-2x2", "scalar", "ct-even-grid", "random-walk-singular"):
        spec, oracle_spec, Y, missing, timestamps = _smoother_case(case)
        Y[missing] = np.nan
        s = es.kalman_smooth(spec, Y, missing, timestamps=timestamps)
        o = gaussian_joint(oracle_spec, Y, missing)
        assert np.allclose(s.smoothed_mean, o["smoothed_mean"], atol=1e-8), case
        assert np.allclose(s.smoothed_cov, o["smoothed_cov"], atol=1e-8), case
        assert np.allclose(s.lag_one_cov, o["lag_one_cov"], atol=1e-8), case


def _per_ping_smoother(spec, Y, missing, timestamps):
    """The smoother's backward loop with one gain solve per ping."""
    r = (es.kalman_filter_ct(spec, timestamps, Y, missing) if spec.time_mode == "continuous"
         else es.kalman_filter(spec, Y, missing, timestamps=timestamps))
    trans = _prepare(spec, Y, missing, None, timestamps)[4]
    pm, pP, fm, fP = r.predicted_mean, r.predicted_cov, r.filtered_mean, r.filtered_cov
    T, n = fm.shape
    sm, sP = fm.copy(), fP.copy()
    lag1 = np.empty((max(T - 1, 0), n, n))
    for t in range(T - 2, -1, -1):
        A_next, Pp = trans[t][0], pP[t + 1]
        try:
            Jt = np.linalg.solve(Pp, A_next @ fP[t]).T
        except np.linalg.LinAlgError:
            Jt = (np.linalg.pinv(Pp) @ (A_next @ fP[t])).T
        lag1[t] = sP[t + 1] @ Jt.T
        sm[t] = fm[t] + Jt @ (sm[t + 1] - pm[t + 1])
        sP[t] = fP[t] + Jt @ (sP[t + 1] - Pp) @ Jt.T
        sP[t] = 0.5 * (sP[t] + sP[t].T)
    return sm, sP, lag1


@pytest.mark.parametrize("case", ["dense-2x2", "scalar", "ct-even-grid",
                                  "random-walk-singular", "ct-irregular", "one ping"])
def test_batched_smoother_gains_equal_the_per_ping_loop_bit_for_bit(case):
    if case == "ct-irregular":
        spec = es.to_continuous(_smoother_case("dense-2x2")[0], 3.0)
        Y, missing = _simulate_series(_smoother_case("dense-2x2")[0], 60, 13, miss_frac=0.3)
        timestamps = np.cumsum(np.random.default_rng(13).uniform(0.1, 16.0, 60))
    elif case == "one ping":
        spec, _, Y, missing, timestamps = _smoother_case("dense-2x2")
        Y, missing = Y[:1], missing[:1]
    else:
        spec, _, Y, missing, timestamps = _smoother_case(case)
    Y = np.where(missing, np.nan, Y)
    s = es.kalman_smooth(spec, Y, missing, timestamps=timestamps)
    for got, want in zip((s.smoothed_mean, s.smoothed_cov, s.lag_one_cov),
                         _per_ping_smoother(spec, Y, missing, timestamps)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_smoothing_never_inflates_covariance():
    rng = np.random.default_rng(13)
    for _ in range(50):
        spec = random_stable_spec(rng)
        Y, missing = _simulate_series(spec, 8, int(rng.integers(1e6)), miss_frac=0.2)
        r = es.kalman_filter(spec, Y, missing)
        s = es.kalman_smooth(spec, Y, missing)
        for t in range(8):
            diff = r.filtered_cov[t] - s.smoothed_cov[t]
            assert np.linalg.eigvalsh(0.5 * (diff + diff.T)).min() > -1e-8


# --- particle filter ---------------------------------------------------------

def test_particle_matches_kalman_on_gaussian_model():
    spec = es.ModelSpec(A=[[0.6]], Sigma=[[1.0]], Theta=[[0.5]])
    Y, missing = _simulate_series(spec, 30, 14, miss_frac=0.15)
    exact = es.kalman_filter(spec, Y, missing).log_likelihood
    lls = np.array([es.particle_filter(spec, Y, 4000, s, missing).log_likelihood
                    for s in range(40)])
    se = lls.std(ddof=1) / np.sqrt(lls.size)
    assert abs(lls.mean() - exact) < 3 * se + 0.05


def test_particle_filtered_moments_track_kalman():
    spec = es.ModelSpec(A=[[0.6]], Sigma=[[1.0]], Theta=[[0.5]])
    Y, missing = _simulate_series(spec, 30, 15)
    kal = es.kalman_filter(spec, Y)
    pf = es.particle_filter(spec, Y, 20_000, 3)
    assert np.allclose(pf.filtered_mean, kal.filtered_mean, atol=0.1)


def test_particle_poisson_t2_matches_quadrature():
    ch = es.MeasurementChannel(family="poisson", scale=1.0, link="identity")
    spec = es.ModelSpec(A=[[0.9]], Sigma=[[0.25]], H=[[1.0]], Theta=[[0.0]],
                        channels=(ch,), initial_mean=[3.0], initial_cov=[[0.25]])
    y = np.array([[2.0], [4.0]])
    exact = poisson_t2_loglik(0.9, 0.25, 3.0, 0.25, 1.0, "identity", [2, 4])
    lls = np.array([es.particle_filter(spec, y, 10_000, s).log_likelihood
                    for s in range(30)])
    se = lls.std(ddof=1) / np.sqrt(lls.size)
    assert abs(lls.mean() - exact) < 3 * se + 0.01


def test_particle_graded_response_runs_and_weights():
    ch = es.MeasurementChannel(family="graded_response", discrimination=1.5,
                               thresholds=(-1.0, 0.0, 1.0))
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], H=[[1.0]], Theta=[[0.0]],
                        channels=(ch,))
    sched = es.PingSchedule(kind="fixed", horizon=50.0, interval=1.0)
    data = es.simulate_dataset(spec, sched, rng_seed=16)
    r = es.particle_filter(spec, data.participants[0].Y, 2000, 1)
    assert np.isfinite(r.log_likelihood)
    # higher observed categories imply larger filtered state on average
    y = data.participants[0].Y[:, 0]
    lo = r.filtered_mean[y <= 2, 0].mean()
    hi = r.filtered_mean[y >= 3, 0].mean()
    assert hi > lo


@pytest.mark.parametrize("n_times", [4, 6])
@pytest.mark.parametrize("entry, mode", [
    ("kalman_filter", "discrete"), ("kalman_filter_ct", "continuous"),
    ("kalman_smooth", "discrete"), ("kalman_smooth", "continuous"),
    ("particle_filter", "discrete"), ("particle_filter", "continuous")])
def test_timestamps_must_match_series_length(entry, mode, n_times):
    spec = es.ModelSpec(A=[[0.5 if mode == "discrete" else -0.5]], Sigma=[[1.0]],
                        Theta=[[0.5]], initial_cov=[[1.0]], time_mode=mode)
    y = np.zeros((5, 1))
    t = np.arange(n_times, dtype=float)
    calls = {
        "kalman_filter": lambda: es.kalman_filter(spec, y, timestamps=t),
        "kalman_filter_ct": lambda: es.kalman_filter_ct(spec, t, y),
        "kalman_smooth": lambda: es.kalman_smooth(spec, y, timestamps=t),
        "particle_filter": lambda: es.particle_filter(spec, y, 100, 0, timestamps=t),
    }
    with pytest.raises(EmaError) as exc:
        calls[entry]()
    assert exc.value.code == "INVALID_MODEL"


def test_particles_too_few_rejected():
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.5]])
    with pytest.raises(EmaError) as exc:
        es.particle_filter(spec, np.zeros((3, 1)), 10, 0)
    assert exc.value.code == "PARTICLES_TOO_FEW"


def test_particle_missing_channels_contribute_unit_weight():
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.5]])
    Y = np.array([[0.3], [np.nan], [0.1]])
    r = es.particle_filter(spec, Y, 500, 2)
    assert r.loglik_contributions[1] == 0.0
    assert r.missing_handled == 1


def test_particle_likelihood_estimator_is_unbiased():
    spec = es.ModelSpec(A=[[0.6]], Sigma=[[1.0]], Theta=[[0.5]])
    Y, _ = _simulate_series(spec, 10, 17)
    exact = es.kalman_filter(spec, Y).log_likelihood
    ratios = np.array([
        np.exp(es.particle_filter(spec, Y, 2000, s).log_likelihood - exact)
        for s in range(200)])
    assert abs(ratios.mean() - 1.0) < 0.05


def test_degenerate_weights_reported():
    ch = es.MeasurementChannel(family="poisson", scale=1.0, link="identity")
    spec = es.ModelSpec(A=[[0.99]], Sigma=[[1e-12]], H=[[1.0]], Theta=[[0.0]],
                        channels=(ch,), initial_mean=[-5.0], initial_cov=[[1e-12]])
    y = np.array([[4.0]])      # every particle sits at negative rate
    with pytest.raises(EmaError) as exc:
        es.particle_filter(spec, y, 200, 0)
    assert exc.value.code == "DEGENERATE_WEIGHTS"


def test_filter_result_export_table():
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.3]])
    Y, missing = _simulate_series(spec, 5, 18)
    missing[2, 0] = True
    r = es.kalman_filter(spec, Y, missing)
    table = r.to_delimited(["mood"])
    lines = table.strip().splitlines()
    assert lines[0] == "t,mean.s1,var.s1,loglik,miss.mood"
    assert len(lines) == 6
    assert lines[3].endswith(",1")     # the masked ping is flagged


def test_smooth_result_export_table():
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.3]])
    Y, _ = _simulate_series(spec, 4, 20)
    s = es.kalman_smooth(spec, Y)
    lines = s.to_delimited().strip().splitlines()
    assert lines[0] == "t,mean.s1,var.s1"
    assert len(lines) == 5


def _any_doubles(rng, size):
    """Doubles from random bit patterns (NaNs, infinities and subnormals
    included), with -0, NaN, +-inf and subnormals placed up front."""
    x = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310]
    x.flat[:6] = special[:x.size]
    return x


def test_python_floats_format_as_their_numpy_scalars():
    """The tables format ``.tolist()`` values with one row template."""
    x = _any_doubles(np.random.default_rng(0), 100_000)
    assert [f"{v:.12g}" for v in x] == list(map("{:.12g}".format, x.tolist()))


@settings(max_examples=40, deadline=None)
@given(T=st.integers(0, 6), n=st.integers(1, 3), p=st.integers(1, 3),
       sep=st.sampled_from([",", "\t", "{}", ";"]), seed=st.integers(0, 2**32 - 1))
def test_tables_equal_per_number_formatting(T, n, p, sep, seed):
    rng = np.random.default_rng(seed)
    t, m, ll = _any_doubles(rng, T), _any_doubles(rng, (T, n)), _any_doubles(rng, T)
    cov = _any_doubles(rng, (T, n, n))
    miss = rng.random((T, p)) < 0.5
    f = es.FilterResult(t, m, cov, m, cov, ll, 0.0, int(miss.any(1).sum()), miss)
    s = es.SmoothResult(t, m, cov, cov[1:])
    rows, srows = [], []
    for k in range(T):
        nums = [t[k], *m[k], *np.diagonal(cov[k])]
        srows.append(sep.join(f"{v:.12g}" for v in nums))
        rows.append(sep.join([f"{v:.12g}" for v in nums + [ll[k]]]
                             + [str(int(b)) for b in miss[k]]))
    names = [f"y{j + 1}" for j in range(p)]
    header = ["t"] + [f"mean.s{i + 1}" for i in range(n)] + [f"var.s{i + 1}" for i in range(n)]
    assert f.to_delimited(sep=sep) == "\n".join(
        [sep.join(header + ["loglik"] + [f"miss.{nm}" for nm in names])] + rows) + "\n"
    assert s.to_delimited(sep=sep) == "\n".join([sep.join(header)] + srows) + "\n"


# --- non-finite inputs and innovations ----------------------------------------

def _var2(**kw):
    args = dict(A=[[0.5, 0.1], [0.0, 0.4]], Sigma=np.eye(2), H=np.eye(2),
                Theta=0.5 * np.eye(2), initial_cov=np.eye(2))
    args.update(kw)
    return es.ModelSpec(**args)


def test_non_finite_innovation_is_typed():
    # the predicted covariance overflows, so S is infinite from ping 1 on
    scalar = es.ModelSpec(A=[[1e200]], Sigma=[[1.0]], Theta=[[0.5]], initial_cov=[[1.0]])
    matrix = _var2(A=1e200 * np.eye(2))
    for spec in (scalar, matrix):
        with pytest.raises(EmaError) as exc:
            es.kalman_filter(spec, np.zeros((5, spec.n_obs)))
        assert exc.value.code == "NON_FINITE"


@pytest.mark.parametrize("theta_diag", [[np.inf, 0.0], [np.nan, 1.0]])
def test_particle_non_finite_gaussian_theta_is_typed(theta_diag):
    spec = _var2().with_matrices(Theta=np.diag(theta_diag))
    with pytest.raises(EmaError) as exc:
        es.particle_filter(spec, np.zeros((3, 2)), 100, 0)
    assert exc.value.code == "NON_FINITE"


def test_non_finite_input_rejected():
    for spec in (es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], G=[[1.0]], Theta=[[0.5]]),
                 _var2(G=[[1.0], [0.5]])):
        u = np.zeros((5, 1))
        u[2, 0] = np.nan
        with pytest.raises(EmaError) as exc:
            es.kalman_filter(spec, np.zeros((5, spec.n_obs)), u=u)
        assert exc.value.code == "NA_IN_U"
        assert "ping 2" in exc.value.message


def test_infinite_observed_value_rejected_but_masked_one_ignored():
    for spec in (es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.5]]), _var2()):
        p = spec.n_obs
        y = np.zeros((5, p))
        y[3, p - 1] = -np.inf
        with pytest.raises(EmaError) as exc:
            es.kalman_filter(spec, y)
        assert exc.value.code == "NON_FINITE"
        missing = np.zeros((5, p), dtype=bool)
        missing[3, p - 1] = True
        y_nan = y.copy()
        y_nan[3, p - 1] = np.nan
        assert (es.kalman_filter(spec, y, missing).log_likelihood
                == es.kalman_filter(spec, y_nan).log_likelihood)


# --- particle filter: exact arithmetic, one pass, checked observations -------

@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5000),
       offset=st.sampled_from([-1e3, 0.0, 1e3]), spread=st.floats(1e-3, 50.0),
       ties=st.integers(0, 5), neg_inf=st.floats(0.0, 1.0),
       special=st.sampled_from(["none", "all -inf", "+inf", "nan", "+inf and nan"]))
def test_logsumexp_is_bit_equal_to_scipy(seed, size, offset, spread, ties, neg_inf,
                                         special):
    rng = np.random.default_rng(seed)
    a = offset + spread * rng.standard_normal(size)
    a[rng.integers(0, size, ties)] = a.max()
    a[rng.uniform(size=size) < neg_inf] = -np.inf
    if special == "all -inf":
        a[:] = -np.inf
    elif special != "none":
        a[rng.integers(0, size)] = np.inf if special.startswith("+inf") else np.nan
        if special == "+inf and nan":
            a[rng.integers(0, size)] = np.nan
    ours = np.float64(_logsumexp(a))
    assert ours.tobytes() == np.float64(logsumexp(a)).tobytes()


def _particle_case(name):
    """(spec, y, missing, timestamps) of one of the reference-comparison cases."""
    rng = np.random.default_rng(31)
    likert = (es.MeasurementChannel(family="graded_response", discrimination=1.5,
                                    thresholds=(-1.5, -0.5, 0.5, 1.5)),
              es.MeasurementChannel(family="poisson", state_index=1, link="log",
                                    scale=2.0))
    if name == "gaussian 2x2":
        spec = random_stable_spec(rng)
    elif name == "graded + poisson":
        spec = es.ModelSpec(A=np.diag([0.6, 0.5]), Sigma=np.diag([0.5, 0.3]),
                            H=np.eye(2), Theta=np.zeros((2, 2)), channels=likert)
    elif name == "bernoulli":
        ch = es.MeasurementChannel(family="bernoulli_logistic", discrimination=1.2,
                                   thresholds=(0.3,))
        spec = es.ModelSpec(A=[[0.7]], Sigma=[[0.6]], H=[[1.0]], Theta=[[0.0]],
                            channels=(ch,))
    else:
        spec = es.ModelSpec(A=[[-0.4, 0.1], [0.0, -0.7]], Sigma=np.diag([0.5, 0.3]),
                            H=np.eye(2), Theta=np.zeros((2, 2)), channels=likert,
                            initial_cov=np.eye(2), time_mode="continuous")
    if spec.time_mode == "continuous":
        sched = es.PingSchedule(kind="random_window", horizon=96.0, pings_per_day=6,
                                windows=((9.0, 21.0),))
    else:
        sched = es.PingSchedule(kind="fixed", horizon=80.0, interval=1.0)
    p = es.simulate_dataset(spec, sched, rng_seed=32).participants[0]
    missing = rng.uniform(size=p.Y.shape) < 0.25
    return spec, np.where(missing, np.nan, p.Y), missing, p.timestamps


PARTICLE_CASES = ["gaussian 2x2", "graded + poisson", "bernoulli", "continuous time"]


@pytest.mark.parametrize("case", PARTICLE_CASES)
def test_particle_filter_matches_reference_bit_for_bit(case):
    spec, y, missing, times = _particle_case(case)
    y, missing, u, _, trans = _prepare(spec, y, missing, None, times)
    ref = bootstrap_filter(spec, y, missing, u, trans, 500, 4)
    r = es.particle_filter(spec, y, 500, 4, missing, timestamps=times)
    ours = (r.predicted_mean, r.predicted_cov, r.filtered_mean, r.filtered_cov,
            r.loglik_contributions)
    for got, want in zip(ours, ref):
        assert got.tobytes() == want.tobytes()
    assert r.log_likelihood == float(ref[4].sum())


@pytest.mark.parametrize("case", PARTICLE_CASES)
def test_likelihood_only_pass_equals_the_filter_bit_for_bit(case):
    spec, y, missing, times = _particle_case(case)
    *_, ll, moments = _particle_pass(spec, y, 500, 9, missing, None, times, store=False)
    assert moments is None
    assert float(ll.sum()) == es.particle_filter(spec, y, 500, 9, missing,
                                                 timestamps=times).log_likelihood


def test_state_noise_factored_once_per_distinct_transition(monkeypatch):
    from emastate import filtering
    calls = []

    def counting(M):
        calls.append(M)
        return psd_sqrt(M)

    monkeypatch.setattr(filtering, "psd_sqrt", counting)
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.5]])
    es.particle_filter(spec, np.zeros((500, 1)), 100, 0)
    assert len(calls) == 2          # the initial covariance and one Sigma


def test_gaussian_block_factored_once_per_missingness_pattern(monkeypatch):
    from emastate import filtering
    calls = []

    def counting(M, **kw):
        calls.append(M)
        return cho_factor(M, **kw)

    monkeypatch.setattr(filtering, "cho_factor", counting)
    spec = _var2()
    y = np.zeros((60, 2))
    missing = np.zeros((60, 2), dtype=bool)
    missing[10:20, 0] = True
    missing[30:35, 1] = True
    missing[40:45] = True
    es.particle_filter(spec, y, 100, 0, missing)
    assert [M.shape for M in calls] == [(2, 2), (1, 1), (1, 1)]


def test_gaussian_block_error_raised_at_first_ping_of_its_pattern():
    spec = _var2().with_matrices(Theta=np.diag([0.5, np.nan]))
    missing = np.zeros((6, 2), dtype=bool)
    missing[:3, 1] = True
    with pytest.raises(EmaError) as exc:
        es.particle_filter(spec, np.zeros((6, 2)), 100, 0, missing)
    assert exc.value.code == "NON_FINITE"
    assert "ping 3" in exc.value.message


def test_overflowing_observation_density_is_non_finite_without_warnings():
    ch = es.MeasurementChannel(family="poisson", scale=1.0, link="log")
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], H=[[1.0]], Theta=[[0.0]],
                        channels=(ch,), initial_mean=[800.0], initial_cov=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmaError) as exc:
            es.particle_filter(spec, np.array([[2.0], [3.0]]), 200, 0)
    assert exc.value.code == "NON_FINITE"
    assert "ping 0" in exc.value.message


@pytest.mark.parametrize("family, value", [
    ("poisson", -1.0), ("poisson", 2.5), ("graded_response", 2.5),
    ("graded_response", 0.0), ("graded_response", 6.0),
    ("bernoulli_logistic", 0.5), ("bernoulli_logistic", 2.0)])
def test_impossible_observation_rejected_once_naming_channel_and_ping(family, value):
    th = {"poisson": (), "graded_response": (-1.5, -0.5, 0.5, 1.5),
          "bernoulli_logistic": (0.0,)}[family]
    ch = es.MeasurementChannel(family=family, link="log", thresholds=th)
    gauss = es.MeasurementChannel(family="gaussian")
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], H=[[1.0], [1.0]],
                        Theta=np.diag([0.5, 0.0]), channels=(gauss, ch))
    y = np.ones((5, 2))
    y[2, 1] = value
    with pytest.raises(EmaError) as exc:
        es.particle_filter(spec, y, 100, 0)
    assert exc.value.code == "INVALID_MODEL"
    assert "channel 1" in exc.value.message and "ping 2" in exc.value.message
    missing = np.zeros((5, 2), dtype=bool)
    missing[2, 1] = True            # the same value in a missing cell is ignored
    assert np.isfinite(es.particle_filter(spec, y, 100, 0, missing).log_likelihood)
