import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_factor
from scipy.special import gammaln, log_expit, logsumexp

import emastate as es
from emastate import filtering
from emastate.errors import EmaError
from emastate.filtering import (_cohort, _logsumexp, _observation_density, _resample_due,
                                _series, _systematic_resample, _weighted_moments)
from emastate.model import _gap_transitions

from oracles import (bootstrap_filter, ct_gaussian_joint, gaussian_joint,
                     poisson_t2_loglik, random_stable_spec, rts_backward_loop)
from oracles import _systematic_resample as searched_resample


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


@pytest.mark.parametrize("t, code, says", [
    # a non-finite timestamp is rejected before any gap is built
    ([0.0, 1.0, 2.0, np.nan], "NON_MONOTONE_TIME", "finite and strictly increasing"),
    ([0.0, 1.0, 2.0, np.inf], "NON_MONOTONE_TIME", "finite and strictly increasing"),
    # finite and increasing, but the first gap overflows: the gap kernel's check
    ([-1e308, 1e308, 1.2e308, 1.5e308], "INVALID_MODEL", "dt must be positive and finite, got inf"),
])
@pytest.mark.parametrize("entry", ["kalman_filter_ct", "kalman_smooth", "particle_filter",
                                   "fit"])
@pytest.mark.filterwarnings("error::RuntimeWarning")    # the typed error is the only signal
def test_non_finite_gap_is_typed(entry, t, code, says):
    spec = es.ModelSpec(A=[[-0.5]], Sigma=[[1.0]], Theta=[[0.5]], initial_cov=[[1.0]],
                        time_mode="continuous")
    y = np.zeros((4, 1))
    t = np.array(t)
    calls = {
        "kalman_filter_ct": lambda: es.kalman_filter_ct(spec, t, y),
        "kalman_smooth": lambda: es.kalman_smooth(spec, y, timestamps=t),
        "particle_filter": lambda: es.particle_filter(spec, y, 100, 0, timestamps=t),
        # the Participant checks its own timestamps first, then the fit its gaps
        "fit": lambda: es.fit(spec, es.ParameterMap({"A": [["free"]]}), es.EmaDataset(
            [es.Participant("p1", t, y, np.zeros((4, 1), bool), np.zeros((4, 0)))], ["y1"], []),
            options=es.FitOptions(n_restarts=1, max_iter=1)),
    }
    with pytest.raises(EmaError) as exc:
        calls[entry]()
    assert exc.value.code == code and says in exc.value.message


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
    # which the smoother never inverts
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


def _steps(spec, timestamps, T):
    """(A, Sigma, G) of each step: the spec's own in discrete time, else the
    rows of the gap kernel's table that the gaps use."""
    if spec.time_mode == "discrete":
        return [(spec.A, spec.Sigma, spec.G)] * max(T - 1, 0)
    *table, which = _gap_transitions(spec, np.diff(timestamps))
    return list(zip(*(x[which] for x in table)))


def _per_ping_gains(spec, Y, missing, timestamps):
    """The filter's moments (fm, fP, pm, pP) and the smoother's X[t] = J[t]',
    solved one ping at a time."""
    r = (es.kalman_filter_ct(spec, timestamps, Y, missing) if spec.time_mode == "continuous"
         else es.kalman_filter(spec, Y, missing, timestamps=timestamps))
    fm, fP, pP = r.filtered_mean, r.filtered_cov, r.predicted_cov
    T, n = fm.shape
    trans = _steps(spec, timestamps, T)
    X = np.empty((max(T - 1, 0), n, n))
    for t in range(T - 1):
        A_next, Pp = trans[t][0], pP[t + 1]
        try:
            X[t] = np.linalg.solve(Pp, A_next @ fP[t])
        except np.linalg.LinAlgError:
            X[t] = np.linalg.pinv(Pp) @ (A_next @ fP[t])
    return (fm, fP, r.predicted_mean, pP), X


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


# one-state specs that validate_model rejects, and data the density would accept
INVALID_PARTICLE_SPECS = {
    "BAD_FAMILY": (dict(H=[[1.0], [1.0]], Theta=np.eye(2), channels=(
        es.MeasurementChannel(family="poisson", link="log"),
        es.MeasurementChannel(family="gaussain"))), [[1.0, 0.2], [2.0, 0.1], [0.0, -0.3]]),
    "BAD_LINK": (dict(Theta=[[0.0]], channels=(
        es.MeasurementChannel(family="poisson", link="sqrt"),)), [[1.0], [2.0]]),
    "BAD_THRESHOLDS": (dict(Theta=[[0.0]], channels=(
        es.MeasurementChannel(family="graded_response", thresholds=(1.0, 0.0)),)),
        [[1.0], [3.0]]),
}


@pytest.mark.parametrize("code", INVALID_PARTICLE_SPECS)
def test_particle_filter_rejects_a_spec_that_fails_validation(code):
    matrices, y = INVALID_PARTICLE_SPECS[code]
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], **matrices)
    assert [c for c, _ in es.validate_model(spec).errors] == [code]
    with pytest.raises(EmaError) as exc:
        es.particle_filter(spec, np.array(y), 200, 1)
    assert exc.value.code == code


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


class _FixedUniform:
    """A generator whose one uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


@st.composite
def _resample_weights(draw):
    """Normalized weights of 1 to 5,000 particles: exponential, heavy-tailed,
    mostly zero, one-hot, tied or uniform."""
    N = draw(st.integers(1, 5000))
    kind = draw(st.sampled_from(["exponential", "heavy", "zeros", "one-hot", "ties",
                                 "uniform"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "exponential":
        w = rng.exponential(size=N)
    elif kind == "heavy":
        w = rng.pareto(0.5, size=N)
    elif kind == "zeros":
        w = rng.exponential(size=N) * (rng.uniform(size=N) < 0.3)
    elif kind == "one-hot":
        w = np.zeros(N)
        w[rng.integers(N)] = 1.0
    elif kind == "ties":
        w = rng.choice([0.0, 0.25, 1.0, 3.0], size=N)
    else:
        w = np.ones(N)
    if not w.sum() > 0:
        w[-1] = 1.0
    return w / w.sum()


@settings(max_examples=400, deadline=None)
@given(w=_resample_weights(),
       u=st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]),
                   st.floats(0.0, 1.0, exclude_max=True)))
def test_counting_resample_equals_the_binary_search_bit_for_bit(w, u):
    got = _systematic_resample(w, _FixedUniform(u))
    want = searched_resample(w, _FixedUniform(u))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5000),
       spread=st.floats(1e-3, 30.0), neg_inf=st.floats(0.0, 0.9))
def test_resample_decision_equals_the_exact_effective_sample_size(seed, size, spread,
                                                                 neg_inf):
    rng = np.random.default_rng(seed)
    a = spread * rng.standard_normal(size)
    a[rng.uniform(size=size) < neg_inf] = -np.inf
    a[rng.integers(size)] = 0.0
    log_w = a - logsumexp(a)
    assert _resample_due(log_w) == (1.0 / np.exp(_logsumexp(2.0 * log_w)) < size / 2.0)


@pytest.mark.parametrize("weights", [(1.0, 0.0), (0.5, 0.5, 0.0, 0.0)])
def test_effective_sample_size_of_exactly_half_is_decided_by_the_exact_form(monkeypatch,
                                                                           weights):
    exact, lse = [], filtering._lse

    def counting(a):
        exact.append(a.size)
        return lse(a)

    monkeypatch.setattr(filtering, "_lse", counting)
    with np.errstate(divide="ignore"):
        log_w = np.log(np.array(weights))
    assert 1.0 / np.exp(logsumexp(2.0 * log_w)) == len(weights) / 2.0
    assert not _resample_due(log_w)         # ESS == N/2 is not below half
    assert exact == [len(weights)]          # the fallback band ran the exact form


def _particle_case(name):
    """(spec, y, missing, timestamps, inputs) of one of the reference-comparison
    cases."""
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
    elif name == "step input":
        spec = es.ModelSpec(A=np.diag([0.6, 0.5]), Sigma=np.diag([0.5, 0.3]),
                            G=[[0.8], [-0.5]], H=np.eye(2), Theta=np.zeros((2, 2)),
                            channels=likert)
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
    step = [es.DisturbanceEvent(onset=40.0, coding="persistent", magnitude=1.0)]
    p = es.simulate_dataset(spec, sched, events=step if spec.n_inputs else (),
                            rng_seed=32).participants[0]
    missing = rng.uniform(size=p.Y.shape) < 0.25
    return spec, np.where(missing, np.nan, p.Y), missing, p.timestamps, p.U


PARTICLE_CASES = ["gaussian 2x2", "graded + poisson", "step input", "bernoulli",
                  "continuous time"]


@pytest.mark.parametrize("case", PARTICLE_CASES)
def test_particle_filter_matches_reference_bit_for_bit(case):
    spec, y, missing, times, u = _particle_case(case)
    y, missing, u, _ = _series(spec, y, missing, u, times)
    ref = bootstrap_filter(spec, y, missing, u, _steps(spec, times, y.shape[0]), 500, 4)
    r = es.particle_filter(spec, y, 500, 4, missing, u, timestamps=times)
    ours = (r.predicted_mean, r.predicted_cov, r.filtered_mean, r.filtered_cov,
            r.loglik_contributions)
    for got, want in zip(ours, ref):
        assert got.tobytes() == want.tobytes()
    assert r.log_likelihood == float(ref[4].sum())


@pytest.mark.parametrize("case", PARTICLE_CASES)
def test_likelihood_only_pass_equals_the_filter_bit_for_bit(case):
    spec, y, missing, times, u = _particle_case(case)
    one = SimpleNamespace(Y=y, missing=missing, U=u, timestamps=times)
    (ll, _), = _cohort(spec, [one], 500, 9, store=False)
    assert ll.shape == (y.shape[0],)
    assert float(ll.sum()) == es.particle_filter(spec, y, 500, 9, missing, u,
                                                 timestamps=times).log_likelihood


def _particle_cohort(case):
    """The spec of a reference-comparison case and four participants cut
    from its series: overlapping windows of different lengths, one of a
    single ping."""
    spec, y, missing, times, u = _particle_case(case)
    T = y.shape[0]
    return spec, [SimpleNamespace(Y=y[at], missing=missing[at], U=u[at], timestamps=times[at])
                  for at in (slice(0, T // 2), slice(3, 4), slice(2, T), slice(5, 5 + T // 4))]


@pytest.mark.parametrize("case", PARTICLE_CASES)
def test_particle_cohort_equals_each_participant_s_own_call_bit_for_bit(case):
    spec, people = _particle_cohort(case)
    stored = list(_cohort(spec, people, 500, 4))
    terms = list(_cohort(spec, people, 500, 4, store=False))
    assert len(stored) == len(terms) == len(people)
    for p, (r, A), (ll, A_lean) in zip(people, stored, terms):
        want = es.particle_filter(spec, p.Y, 500, 4, p.missing, p.U, timestamps=p.timestamps)
        for name in ("timestamps", "predicted_mean", "predicted_cov", "filtered_mean",
                     "filtered_cov", "loglik_contributions", "missing"):
            a, b = getattr(r, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert (r.log_likelihood, r.missing_handled) == (want.log_likelihood,
                                                         want.missing_handled)
        assert ll.tobytes() == r.loglik_contributions.tobytes()
        assert A.shape == (max(p.Y.shape[0] - 1, 0), spec.n_states, spec.n_states)
        assert A.tobytes() == A_lean.tobytes()


@pytest.mark.parametrize("time_mode, tvp, distinct",
                         [("discrete", False, 1), ("continuous", False, 3), ("discrete", True, 1)])
def test_state_noise_factored_once_per_distinct_transition(monkeypatch, time_mode, tvp, distinct):
    factored, cholesky = [], np.linalg.cholesky

    def counting(M):            # psd_sqrt and the step roots both factor here
        factored.append(int(np.prod(np.shape(M)[:-2])))
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    spec = es.ModelSpec(A=[[0.5 if time_mode == "discrete" else -0.5]], Sigma=[[1.0]],
                        Theta=[[0.5]], time_mode=time_mode)
    if tvp:     # a drift per step, each with the spec's own Sigma
        es.simulate_dataset(spec, es.PingSchedule(kind="fixed", horizon=500.0, interval=1.0),
                            tvp=es.TvpSchedule((0, 0), 0.2, 0.6, 250.0, 0.05),
                            n_participants=3, rng_seed=1)
        assert sum(factored) == 2 + distinct    # Theta, the initial covariance, Sigma
        return
    times = np.cumsum(np.tile([1.0, 2.0, 3.0], 167))[:500]      # gaps of 1, 2 and 3
    es.particle_filter(spec, np.zeros((500, 1)), 100, 0, timestamps=times)
    assert sum(factored) == 1 + distinct    # the initial covariance and each distinct Sigma


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


# --- oracle agreement on either side of the closed-form recursion's limits ---

def _boundary_case(rng, n, p, mode, noiseless):
    """A random n-state, p-channel spec and a short series with missing cells
    and an all-missing ping; continuous time gets multi-day gaps and a drift
    made stable (eigenvalue real parts at most -0.1), so that the oracle's
    start is the stationary law, and a ``noiseless`` discrete spec a
    deterministic random-walk state, whose predicted covariance is
    singular."""
    base = random_stable_spec(rng, n=n, p=p)
    if mode == "continuous":
        drift = -np.diag(rng.uniform(0.2, 1.5, n)) + rng.normal(scale=0.1, size=(n, n))
        drift -= max(0.0, np.linalg.eigvals(drift).real.max() + 0.1) * np.eye(n)
        spec = es.ModelSpec(A=drift, Sigma=base.Sigma, H=base.H, Theta=base.Theta,
                            time_mode="continuous")
    elif noiseless:
        A, Sigma, P0 = base.A.copy(), base.Sigma.copy(), base.initial_cov.copy()
        A[0] = np.eye(n)[0]
        Sigma[0] = Sigma[:, 0] = P0[0] = P0[:, 0] = 0.0
        spec = base.with_matrices(A=A, Sigma=Sigma, initial_cov=P0)
    else:
        spec = base
    T = int(rng.integers(1, 7))
    Y = rng.normal(size=(T, p))
    missing = rng.uniform(size=(T, p)) < 0.3
    missing[int(rng.integers(T))] = True
    Y[missing] = np.nan
    gaps = np.where(rng.uniform(size=T) < 0.3, rng.uniform(24.0, 80.0, T),
                    rng.uniform(0.2, 4.0, T))
    return spec, Y, missing, np.cumsum(gaps)


@pytest.mark.parametrize("wide", [False, True])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), p=st.integers(1, 3), mode=st.sampled_from(["discrete", "continuous"]),
       noiseless=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=1, p=1, mode="continuous", noiseless=False, seed=384)     # drift +0.082 unshifted
def test_filter_and_smoother_match_the_joint_oracle_on_both_recursions(wide, n, p, mode,
                                                                       noiseless, seed):
    rng = np.random.default_rng(seed)
    spec, Y, missing, t = _boundary_case(rng, n, p, mode, noiseless)
    with pytest.MonkeyPatch.context() as mp:
        if wide:        # the smoother's backward pass in its numpy form
            mp.setattr(filtering, "_SCORE_MIN_MEMBERS", 1)
        if mode == "continuous":
            r = es.kalman_filter_ct(spec, t, Y, missing)
            s = es.kalman_smooth(spec, Y, missing, timestamps=t)
            o = ct_gaussian_joint(spec, t, Y, missing)
        else:
            r = es.kalman_filter(spec, Y, missing)
            s = es.kalman_smooth(spec, Y, missing)
            o = gaussian_joint(spec, Y, missing)
    assert np.isclose(r.log_likelihood, o["log_likelihood"], rtol=1e-8, atol=1e-8)
    for got, want in ((r.predicted_mean, "predicted_mean"), (r.predicted_cov, "predicted_cov"),
                      (r.filtered_mean, "filtered_mean"), (r.filtered_cov, "filtered_cov"),
                      (s.smoothed_mean, "smoothed_mean"), (s.smoothed_cov, "smoothed_cov"),
                      (s.lag_one_cov, "lag_one_cov")):
        assert np.allclose(got, o[want], rtol=1e-8, atol=1e-8), want


def _named_smoother_case(case):
    """(spec, Y, missing, timestamps) of a named smoother case: the four of
    :func:`_smoother_case`, an irregular continuous-time series, or one ping."""
    if case == "ct-irregular":
        dense = _smoother_case("dense-2x2")[0]
        spec = es.to_continuous(dense, 3.0)
        Y, missing = _simulate_series(dense, 60, 13, miss_frac=0.3)
        timestamps = np.cumsum(np.random.default_rng(13).uniform(0.1, 16.0, 60))
    elif case == "one ping":
        spec, _, Y, missing, timestamps = _smoother_case("dense-2x2")
        Y, missing = Y[:1], missing[:1]
    else:
        spec, _, Y, missing, timestamps = _smoother_case(case)
    return spec, np.where(missing, np.nan, Y), missing, timestamps


def _named(case):
    return example(case=case, n=1, p=1, mode="discrete", noiseless=False, seed=0)


@pytest.mark.parametrize("wide", [False, True])
@settings(max_examples=80, deadline=None)
@given(case=st.just(None), n=st.integers(1, 3), p=st.integers(1, 3),
       mode=st.sampled_from(["discrete", "continuous"]), noiseless=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@_named("dense-2x2")
@_named("scalar")
@_named("ct-even-grid")
@_named("random-walk-singular")
@_named("ct-irregular")
@_named("one ping")
@example(case=None, n=1, p=1, mode="continuous", noiseless=False, seed=384)
def test_smoother_matches_the_rts_reference(wide, case, n, p, mode, noiseless, seed):
    """The disturbance smoother's moments equal the RTS smoother's, with
    its gains solved one ping at a time (a pseudo-inverse where the
    predicted covariance is singular) and its numpy backward loop
    (:func:`oracles.rts_backward_loop`), to 64 eps of the largest entry
    either reads or writes: the observed cells, filtered and predicted
    means, or covariances.  Over 6,000 random cases the largest difference
    was 23 eps.  Named cases run first; the others are :func:`_boundary_case`
    draws (missing cells, all-missing pings, multi-day gaps, one-ping
    series, singular predictions).  ``wide`` runs the numpy form of the
    backward pass."""
    if case is None:
        spec, Y, missing, t = _boundary_case(np.random.default_rng(seed), n, p, mode,
                                             noiseless)
        t = t if mode == "continuous" else None
    else:
        spec, Y, missing, t = _named_smoother_case(case)
    with pytest.MonkeyPatch.context() as mp:
        if wide:
            mp.setattr(filtering, "_SCORE_MIN_MEMBERS", 1)
        s = es.kalman_smooth(spec, Y, missing, timestamps=t)
    (fm, fP, pm, pP), X = _per_ping_gains(spec, Y, missing, t)
    sm, sP = rts_backward_loop(fm, fP, pm, pP, X)
    y = np.where(missing, 0.0, Y)
    for got, want, read in ((s.smoothed_mean, sm, (y, fm, pm)),
                            (s.smoothed_cov, sP, (fP, pP)),
                            (s.lag_one_cov, sP[1:] @ X, (fP, pP))):
        assert got.shape == want.shape
        norm = max(np.abs(x).max(initial=0.0) for x in read + (want,))
        assert np.abs(got - want).max(initial=0.0) <= 64 * np.finfo(float).eps * norm


# --- ordinal and binary densities in the tails --------------------------------

def _exact_log_between(zu, zl):
    """log(expit(zu) - expit(zl)) at 250 digits, more than the tails here cancel."""
    import mpmath
    with mpmath.workdps(250):
        def ex(z):
            return mpmath.mpf(1) / (1 + mpmath.exp(-mpmath.mpf(z))) if np.isfinite(z) \
                else mpmath.mpf(z > 0)
        return float(mpmath.log(ex(zu) - ex(zl)))


@settings(max_examples=150, deadline=None)
@given(state=st.floats(-60.0, 60.0), discrimination=st.floats(0.3, 3.0),
       cuts=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4, unique=True),
       family=st.sampled_from(["graded_response", "bernoulli_logistic"]),
       pick=st.integers(0, 4))
def test_ordinal_and_binary_log_densities_match_mpmath_in_the_tails(
        state, discrimination, cuts, family, pick):
    th = sorted(cuts)
    if family == "bernoulli_logistic":
        th = th[:1]
    if any(b - a < 1e-3 for a, b in zip(th, th[1:])):
        return
    K = len(th) + 1
    ch = es.MeasurementChannel(family=family, discrimination=discrimination, thresholds=th)
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], channels=[ch])
    k = pick % K + (1 if family == "graded_response" else 0)     # a category, or 0/1
    density = _observation_density(spec, np.array([[float(k)]]), np.zeros((1, 1), bool))
    got = density(np.array([[state]]), 0)[0]
    z = [discrimination * (state - c) for c in th]
    if family == "graded_response":
        zu, zl = (z[k - 2] if k >= 2 else np.inf), (z[k - 1] if k <= len(th) else -np.inf)
    else:
        zu, zl = (z[0], -np.inf) if k == 1 else (np.inf, z[0])
    want = _exact_log_between(zu, zl)
    # a kept plain difference has lost at most half its digits: its log is
    # off by at most about 2^-27; a recomputed cell is exact to rounding
    assert abs(got - want) <= 2.0**-26 + 1e-12 * abs(want)


def test_graded_response_upper_tail_is_not_clipped():
    # category 1 of a 5-category channel far above every threshold
    ch = es.MeasurementChannel(family="graded_response", discrimination=1.5,
                               thresholds=(-1.5, -0.5, 0.5, 1.5))
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], channels=[ch])
    density = _observation_density(spec, np.array([[1.0]]), np.zeros((1, 1), bool))
    state = np.array([25.0, 15.0])
    got = density(state[None, :], 0)      # one state row of N = 2 particles
    np.testing.assert_allclose(got, log_expit(-1.5 * (state + 1.5)), rtol=1e-14)


def _exact_poisson_logpmf(k, state, scale, link):
    import mpmath
    with mpmath.workdps(60):
        x = mpmath.mpf(state)
        if link == "identity" and x == 0:
            return 0.0 if k == 0 else -np.inf
        rate = scale * (mpmath.exp(x) if link == "log" else x)
        return float(k * mpmath.log(rate) - rate - mpmath.loggamma(k + 1))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 6), scale=st.floats(0.1, 10.0),
       link=st.sampled_from(["log", "identity"]), depth=st.floats(0.0, 1.0))
@example(k=0, scale=2.0, link="log", depth=0.0)
@example(k=3, scale=2.0, link="identity", depth=0.0)
@example(k=0, scale=2.0, link="identity", depth=0.0)
# the uncompensated tail was 1.82e-12 off here, over the bound of 1.70e-12
@example(k=6, scale=3.3914075610349017, link="identity", depth=0.6368318788524215)
def test_poisson_log_density_matches_mpmath_where_the_rate_underflows(k, scale, link, depth):
    # log link: states -800..-690, so scale*exp(state) runs from 0 through the
    # subnormals to normal doubles; identity link: 0 and states 1e-323..1e-300
    if link == "log":
        state = -800.0 + 110.0 * depth
    else:
        state = 0.0 if depth == 0.0 else 10.0 ** (-323.0 + 23.0 * depth)
    ch = es.MeasurementChannel(family="poisson", link=link, scale=scale)
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], channels=[ch])
    density = _observation_density(spec, np.array([[float(k)]]), np.zeros((1, 1), bool))
    got = density(np.array([[state]]), 0)[0]
    want = _exact_poisson_logpmf(k, state, scale, link)
    if np.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= 4e-16 * abs(want) + 1e-320


def test_poisson_plain_form_is_kept_above_the_smallest_normal_rate():
    ch = es.MeasurementChannel(family="poisson", link="log", scale=2.0)
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], channels=[ch])
    # dense: the two forms round apart only where the rate is near 1
    state = np.linspace(-708.0, 5.0, 200_001)
    density = _observation_density(spec, np.array([[4.0]]), np.zeros((1, 1), bool))
    rate = 2.0 * np.exp(state)
    plain = 4.0 * np.log(rate) - rate - gammaln(5.0)
    assert density(state[None, :], 0).tobytes() == plain.tobytes()
    ident = es.MeasurementChannel(family="poisson", link="identity", scale=2.0)
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], channels=[ident])
    density = _observation_density(spec, np.array([[0.0]]), np.zeros((1, 1), bool))
    # negative rates keep the plain form's -inf, a NaN rate its NaN
    got = density(np.array([[-1.0, -1e-300, np.nan]]), 0)
    assert (got[:2] == -np.inf).all() and np.isnan(got[2])


@pytest.mark.parametrize("family", ["poisson", "graded_response", "bernoulli_logistic"])
def test_a_nan_particle_state_is_non_finite_under_every_family(family):
    th = {"poisson": (), "graded_response": (-1.0, 0.0, 1.0),
          "bernoulli_logistic": (0.0,)}[family]
    ch = es.MeasurementChannel(family=family, link="log", thresholds=th)
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], H=[[1.0]], Theta=[[0.0]],
                        channels=(ch,), initial_mean=[np.nan], initial_cov=[[1.0]])
    with pytest.raises(EmaError) as exc:
        es.particle_filter(spec, np.ones((3, 1)), 100, 0)
    assert exc.value.code == "NON_FINITE"
    assert "ping 0" in exc.value.message


def test_poisson_count_of_zero_at_an_underflowed_rate_keeps_its_weight():
    ch = es.MeasurementChannel(family="poisson", link="log", scale=1.0)
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], channels=[ch], initial_mean=[-800.0],
                        initial_cov=[[1.0]])
    r = es.particle_filter(spec, np.zeros((2, 1)), 200, 0)
    # P(0 | rate) = exp(-rate): exactly 1 at ping 0, 1 - O(e^-400) at ping 1
    assert r.loglik_contributions[0] == 0.0
    assert -1e-150 < r.loglik_contributions[1] <= 0.0


def _row_major_moments(particles, wts):
    """The weighted moments over row-major (N, n) particles: the reference
    that pins the state-major formula."""
    mean = wts @ particles
    d = particles - mean
    cov = (d * wts[:, None]).T @ d
    return mean, 0.5 * (cov + cov.T)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), N=st.integers(100, 5000),
       zeros=st.sampled_from([0.0, 0.3, 0.9]), dominant=st.booleans(),
       spread=st.floats(1e-3, 1e3))
def test_state_major_moments_agree_with_the_row_major_formula(seed, n, N, zeros, dominant,
                                                              spread):
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    X = spread * (rng.uniform(-10.0, 10.0, n) + rng.standard_normal((N, n)) @ mix)
    w = rng.exponential(size=N)
    w[rng.uniform(size=N) < zeros] = 0.0
    w[rng.integers(N)] = 1e9 * w.sum() if dominant else 1.0
    w /= w.sum()
    mean, cov = _weighted_moments(np.ascontiguousarray(X.T), w)
    want_mean, want_cov = _row_major_moments(X, w)
    assert np.abs(mean - want_mean).max() <= 1e-12 * np.abs(X).max()
    assert np.abs(cov - want_cov).max() <= 1e-12 * np.abs(np.diag(want_cov)).max()
    assert (cov == cov.T).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_ping_continuous_particle_series_has_no_gap_and_matches_reference(n):
    spec = es.ModelSpec(A=-0.5 * np.eye(n), Sigma=np.eye(n), H=np.ones((2, n)),
                        Theta=np.eye(2), time_mode="continuous")
    times, y = np.array([3.0]), np.array([[0.4, -0.2]])
    assert _steps(spec, times, 1) == []
    r = es.particle_filter(spec, y, 5000, 7, timestamps=times)
    ref = bootstrap_filter(spec, y, np.zeros((1, 2), bool), np.zeros((1, 0)), [], 5000, 7)
    ours = (r.predicted_mean, r.predicted_cov, r.filtered_mean, r.filtered_cov,
            r.loglik_contributions)
    for got, want in zip(ours, ref):
        assert got.tobytes() == want.tobytes()
    exact = es.kalman_filter_ct(spec, times, y).log_likelihood
    assert abs(r.log_likelihood - exact) < 0.05


# --- the Kalman filters run only on specs that validate ----------------------

@pytest.mark.parametrize("run", ["filter", "filter_ct", "smooth"])
def test_kalman_filters_reject_a_spec_that_validate_rejects(run):
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[-0.5]], Theta=[[0.1]], initial_cov=[[1.0]])
    ct = es.ModelSpec(A=[[-0.5]], Sigma=[[-0.5]], Theta=[[0.1]], initial_cov=[[1.0]],
                      time_mode="continuous")
    y, t = np.array([[0.1], [0.3], [-0.2]]), np.array([0.0, 1.0, 2.5])
    call = {"filter": lambda: es.kalman_filter(spec, y),
            "filter_ct": lambda: es.kalman_filter_ct(ct, t, y),
            "smooth": lambda: es.kalman_smooth(spec, y)}[run]
    with pytest.raises(EmaError) as exc:
        call()
    assert exc.value.code == "NON_PSD_SIGMA"


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_validate_model_leaves_non_finite_entries_to_the_filters_without_warnings(entry):
    spec = es.ModelSpec(A=[[0.5, 0.0], [0.0, entry]], Sigma=np.diag([1.0, entry]),
                        Theta=np.diag([entry, 0.5]), initial_cov=np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = es.validate_model(spec)
        assert report.ok
        with pytest.raises(EmaError) as exc:
            es.kalman_filter(spec, np.zeros((4, 2)))
    assert exc.value.code == "NON_FINITE"


def test_particle_filter_with_an_infinite_state_variance_is_non_finite_without_warnings():
    poisson = [es.MeasurementChannel(family="poisson", state_index=i, link="log")
               for i in (0, 1)]
    spec = es.ModelSpec(A=0.5 * np.eye(2), Sigma=np.diag([1.0, np.inf]), H=np.eye(2),
                        Theta=np.zeros((2, 2)), channels=tuple(poisson),
                        initial_cov=np.eye(2))
    y = np.array([[1.0, np.nan]] * 5)      # the second state is never observed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmaError) as exc:
            es.particle_filter(spec, y, 200, 0)
    assert exc.value.code == "NON_FINITE"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("time_mode", ["discrete", "continuous"])
def test_non_finite_timestamps_are_non_monotone_time(bad, time_mode):
    spec = es.ModelSpec(A=[[0.5 if time_mode == "discrete" else -0.5]], Sigma=[[1.0]],
                        Theta=[[0.5]], time_mode=time_mode)
    for times in ([0.0, bad, 2.0], [bad]):
        y = np.zeros((len(times), 1))
        for call in (es.kalman_smooth, es.kalman_filter if time_mode == "discrete" else None):
            if call is None:
                call = es.kalman_filter_ct
                with pytest.raises(EmaError) as exc:
                    call(spec, times, y)
            else:
                with pytest.raises(EmaError) as exc:
                    call(spec, y, timestamps=times)
            assert exc.value.code == "NON_MONOTONE_TIME"
        with pytest.raises(EmaError) as exc:
            es.Participant("p1", times, y, np.zeros_like(y, dtype=bool), np.zeros((len(times), 0)))
        assert exc.value.code == "NON_MONOTONE_TIME"

