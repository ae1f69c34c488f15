import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm, solve_continuous_lyapunov

import emastate as es
from emastate.errors import NUMERICAL_CODES, EmaError
from emastate.model import _cohort_steps, _gap_transitions, _step_roots, psd_sqrt

from oracles import trapezoid_noise_integral, van_loan_reference


def test_validate_clean_spec():
    spec = es.ModelSpec(A=[[0.5, 0.2], [0.0, 0.5]], Sigma=np.eye(2),
                        Theta=np.eye(2), H=np.eye(2))
    report = es.validate_model(spec)
    assert report.errors == []


def test_validate_indefinite_sigma():
    spec = es.ModelSpec(A=np.eye(2) * 0.5, Sigma=[[1.0, 2.0], [2.0, 1.0]])
    report = es.validate_model(spec)
    assert any(code == "NON_PSD_SIGMA" for code, _ in report.errors)


def test_validate_unstable_warns_without_error():
    spec = es.ModelSpec(A=[[1.05]], Sigma=[[1.0]])
    report = es.validate_model(spec)
    assert report.errors == []
    assert any(code == "UNSTABLE_DYNAMICS" for code, _ in report.warnings)


def test_validate_stable_no_warning():
    spec = es.ModelSpec(A=[[0.9]], Sigma=[[1.0]])
    assert es.validate_model(spec).warnings == []


def test_random_walk_row_pinning():
    ok = es.ModelSpec(A=[[1.0, 0.0], [0.3, 0.5]], Sigma=np.eye(2),
                      random_walk_states={0})
    assert es.validate_model(ok).errors == []
    assert es.validate_model(ok).warnings == []    # unit root is declared
    bad = es.ModelSpec(A=[[1.0, 0.1], [0.3, 0.5]], Sigma=np.eye(2),
                       random_walk_states={0})
    assert any(code == "BAD_RANDOM_WALK_ROW" for code, _ in es.validate_model(bad).errors)


def test_validate_channel_invariants():
    ch = es.MeasurementChannel(family="graded_response", discrimination=-1.0,
                               thresholds=(0.5, -0.5))
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], H=[[1.0]], channels=(ch,))
    codes = {code for code, _ in es.validate_model(spec).errors}
    assert "BAD_DISCRIMINATION" in codes and "BAD_THRESHOLDS" in codes


def test_validate_is_pure():
    spec = es.ModelSpec(A=[[1.05]], Sigma=[[1.0]])
    r1, r2 = es.validate_model(spec), es.validate_model(spec)
    assert r1.to_dict() == r2.to_dict()


# --- continuous <-> discrete -------------------------------------------------

def test_discretize_matches_two_state_example():
    a = -0.69314718
    spec = es.ModelSpec(A=[[a, 0.4], [0.0, a]], Sigma=np.eye(2),
                        time_mode="continuous")
    d = es.discretize(spec, 1.0)
    assert np.allclose(d.A, [[0.5, 0.2], [0.0, 0.5]], atol=1e-6)


def test_discretize_zero_drift_is_identity():
    spec = es.ModelSpec(A=np.zeros((2, 2)), Sigma=np.eye(2),
                        time_mode="continuous", initial_cov=np.eye(2))
    assert np.allclose(es.discretize(spec, 3.7).A, np.eye(2))


def test_discretize_noise_matches_quadrature_oracle():
    spec = es.ModelSpec(A=[[-1.0]], Sigma=[[2.0]], time_mode="continuous")
    d = es.discretize(spec, 0.5)
    expected = trapezoid_noise_integral(-1.0, 2.0, 0.5)
    assert abs(d.Sigma[0, 0] - expected) < 1e-6


def test_to_continuous_matches_paper_rounding():
    spec = es.ModelSpec(A=[[0.5, 0.2], [0.0, 0.5]], Sigma=np.eye(2))
    c = es.to_continuous(spec, 1.0)
    assert np.allclose(c.A, [[-0.69, 0.4], [0.0, -0.69]], atol=5e-3)


def test_to_continuous_identity_gives_zero_drift():
    spec = es.ModelSpec(A=np.eye(2), Sigma=np.eye(2), initial_cov=np.eye(2))
    assert np.allclose(es.to_continuous(spec, 1.0).A, 0.0, atol=1e-12)


@pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0])
def test_to_continuous_rejects_a_step_that_is_not_positive_and_finite(dt):
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]])
    with pytest.raises(EmaError) as exc:
        es.to_continuous(spec, dt)
    assert exc.value.code == "INVALID_MODEL"


def test_to_continuous_rejects_negative_real_eigenvalue():
    spec = es.ModelSpec(A=[[-0.5]], Sigma=[[1.0]])
    with pytest.raises(EmaError) as exc:
        es.to_continuous(spec, 1.0)
    assert exc.value.code == "NO_PRINCIPAL_LOG"


def test_roundtrip_recovers_discrete_matrices():
    rng = np.random.default_rng(1)
    done = 0
    while done < 10:
        A = rng.normal(scale=0.4, size=(3, 3)) + 0.3 * np.eye(3)
        eig = np.linalg.eigvals(A)
        if np.any((np.abs(eig.imag) < 1e-9) & (eig.real <= 1e-6)):
            continue
        Ls = rng.normal(scale=0.5, size=(3, 3))
        spec = es.ModelSpec(A=A, Sigma=Ls @ Ls.T + 0.1 * np.eye(3),
                            G=rng.normal(size=(3, 2)),
                            initial_cov=np.eye(3))
        back = es.discretize(es.to_continuous(spec, 1.0), 1.0)
        assert np.allclose(back.A, spec.A, atol=1e-8)
        assert np.allclose(back.Sigma, spec.Sigma, atol=1e-8)
        assert np.allclose(back.G, spec.G, atol=1e-8)
        done += 1


def test_semigroup_property():
    rng = np.random.default_rng(2)
    A = rng.normal(scale=0.5, size=(3, 3)) - 0.8 * np.eye(3)
    spec = es.ModelSpec(A=A, Sigma=np.eye(3), time_mode="continuous",
                        initial_cov=np.eye(3))
    lhs = es.discretize(spec, 0.7 + 1.3).A
    rhs = es.discretize(spec, 0.7).A @ es.discretize(spec, 1.3).A
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_discretize_preserves_random_walk_rows():
    spec = es.ModelSpec(A=[[0.0, 0.0], [0.4, -0.8]], Sigma=np.eye(2),
                        time_mode="continuous", random_walk_states={0},
                        initial_cov=np.eye(2))
    d = es.discretize(spec, 2.0)
    assert d.A[0, 0] == 1.0 and d.A[0, 1] == 0.0
    assert es.validate_model(d).errors == []


def test_non_finite_discretization_rejected():
    spec = es.ModelSpec(A=[[500.0]], Sigma=[[1.0]], time_mode="continuous",
                        initial_cov=[[1.0]])
    with pytest.raises(EmaError) as exc:
        es.discretize(spec, 10.0)
    assert exc.value.code == "NON_FINITE"


def _drift(seed, n, stable):
    """A random n x n drift; shifted so every eigenvalue has real part at
    most -0.05 when ``stable``."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (n, n))
    if stable:
        A -= (np.linalg.eigvals(A).real.max() + rng.uniform(0.05, 1.0)) * np.eye(n)
    L = rng.uniform(-1.0, 1.0, (n, n))
    return rng, A, L @ L.T + 0.01 * np.eye(n)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       log_dts=st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=6))
def test_gap_noise_matches_lyapunov_form_for_stable_drifts(seed, n, log_dts):
    """Sigma_d = P_inf - A_d P_inf A_d' for gaps of 0.01 h to 10^4 h.  The
    reference itself loses |P_inf| * eps to cancellation, so the error is
    measured against |P_inf|."""
    _, A, Sigma = _drift(seed, n, stable=True)
    spec = es.ModelSpec(A=A, Sigma=Sigma, time_mode="continuous", initial_cov=np.eye(n))
    P = solve_continuous_lyapunov(A, -Sigma)
    dts = 10.0 ** np.array(log_dts)
    A_ds, Sigma_ds, _, which = _gap_transitions(spec, dts)
    for A_d, Sigma_d, dt in zip(A_ds[which], Sigma_ds[which], dts):
        E = expm(A * dt)
        assert np.abs(A_d - E).max() <= 1e-12 * max(1.0, np.abs(E).max())
        assert np.abs(Sigma_d - (P - E @ P @ E.T)).max() <= 1e-12 * np.abs(P).max()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), walk=st.booleans(),
       a=st.floats(0.01, 40.0), b=st.floats(0.01, 40.0))
def test_gap_transitions_compose_as_a_semigroup(seed, n, walk, a, b):
    """Any drift, random-walk rows and inputs included: A(a+b) = A(a) A(b),
    Sigma(a+b) = Sigma(a) + A(a) Sigma(b) A(a)', G(a+b) = G(a) + A(a) G(b)."""
    rng, A, Sigma = _drift(seed, n, stable=False)
    if walk:
        A[0] = 0.0
    spec = es.ModelSpec(A=A, Sigma=Sigma, G=rng.uniform(-1.0, 1.0, (n, 2)),
                        time_mode="continuous", initial_cov=np.eye(n),
                        random_walk_states={0} if walk else set())
    *table, which = _gap_transitions(spec, [a, b, a + b])
    (A_a, A_b, A_ab), (S_a, S_b, S_ab), (G_a, G_b, G_ab) = (x[which] for x in table)
    for lhs, rhs in ((A_ab, A_a @ A_b), (S_ab, S_a + A_a @ S_b @ A_a.T),
                     (G_ab, G_a + A_a @ G_b)):
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(lhs).max(), np.abs(rhs).max())
    if walk:
        assert A_ab[0, 0] == 1.0 and not A_ab[0, 1:].any()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), walk=st.booleans(),
       coupling=st.floats(0.0, 4.0), log_dts=st.lists(st.floats(-2.0, 4.0), min_size=1,
                                                     max_size=3), per_gap=st.booleans())
def test_gap_transitions_match_a_40_digit_van_loan_reference(seed, n, walk, coupling,
                                                             log_dts, per_gap):
    """Stable non-normal drifts Q T Q' (T upper triangular, off-diagonal up
    to ``coupling``), optionally a random-walk first row, inputs, and gaps of
    0.01 h to 10^4 h: A_d, Sigma_d and G_d agree with the reference to 1e-12,
    relative to the largest entry (to 1 for A_d, which starts at I and may
    decay to nothing).  With ``per_gap``, each gap runs under its own drift,
    as under a tvp schedule: the stable block shifted left by one of two
    amounts, so drifts repeat."""
    rng = np.random.default_rng(seed)
    T = np.triu(rng.uniform(-coupling, coupling, (n, n)), 1) + np.diag(-rng.uniform(0.05, 2.0, n))
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = Q @ T @ Q.T
    if walk:
        A[0] = 0.0
        A[1:, 1:] = T[1:, 1:]             # the other states stay stable
    L = rng.uniform(-1.0, 1.0, (n, n))
    spec = es.ModelSpec(A=A, Sigma=L @ L.T + 0.01 * np.eye(n), G=rng.uniform(-1.0, 1.0, (n, 2)),
                        time_mode="continuous", initial_cov=np.eye(n),
                        random_walk_states={0} if walk else set())
    dts = 10.0 ** np.array(log_dts)
    drifts = None
    if per_gap:
        drifts = np.repeat(spec.A[None], dts.size, axis=0)
        block = slice(1 if walk else 0, None)
        shifts = rng.uniform(0.0, 0.5, 2)[np.arange(dts.size) % 2]
        drifts[:, block, block] -= shifts[:, None, None] * np.eye(n)[block, block]
    *table, which = _gap_transitions(spec, dts, drifts)
    for k, (got, dt) in enumerate(zip(zip(*(x[which] for x in table)), dts)):
        want = van_loan_reference(spec.A if drifts is None else drifts[k], spec.Sigma, spec.G, dt)
        for i, (g, w) in enumerate(zip(got, want)):
            scale = max(1.0, np.abs(w).max()) if i == 0 else np.abs(w).max()
            assert np.abs(g - w).max() <= 1e-12 * scale, ("A_d", "Sigma_d", "G_d")[i]


@pytest.mark.parametrize("tvp", [False, True])
def test_gap_stack_slices_equal_one_gap_discretize_bit_for_bit(tvp):
    """For 1 to 6 states; with ``tvp`` the stack builds its tables over
    several drifts at once, while ``discretize`` builds one drift's."""
    for n in (1, 2, 3, 4, 6):
        rng, A, Sigma = _drift(3, n, stable=True)
        spec = es.ModelSpec(A=A, Sigma=Sigma, G=rng.normal(size=(n, 2)),
                            time_mode="continuous", initial_cov=np.eye(n))
        dts = np.array([0.05, 0.4, 2.0, 3.7, 24.0, 72.0, 500.0, 2.0, 0.4,
                        np.nextafter(2.0, 3.0)])
        drifts = None
        if tvp:
            drifts = np.repeat(A[None], dts.size, axis=0)
            drifts[:, 0, 0] += np.linspace(-0.3, 0.2, dts.size)
        *table, which = _gap_transitions(spec, dts, drifts)
        for i, (A_d, Sigma_d, G_d) in enumerate(zip(*(x[which] for x in table))):
            one = es.discretize(spec if drifts is None else spec.with_matrices(A=drifts[i]),
                                dts[i])
            assert np.array_equal(A_d, one.A) and np.array_equal(Sigma_d, one.Sigma)
            assert np.array_equal(G_d, one.G)
        # equal gaps share one entry only under equal drifts
        assert (which[2] == which[7]) == (not tvp) and (which[1] == which[8]) == (not tvp)


def test_zero_drift_gaps_are_exact():
    Sigma, G = np.array([[1.3, 0.4], [0.4, 0.7]]), np.array([[0.5, -1.0], [2.0, 0.25]])
    spec = es.ModelSpec(A=np.zeros((2, 2)), Sigma=Sigma, G=G, time_mode="continuous",
                        initial_cov=np.eye(2))
    dts = np.array([0.3, 7.0, 1e4, 0.3])
    for drifts in (None, np.zeros((4, 2, 2))):
        *table, which = _gap_transitions(spec, dts, drifts)
        for A_d, Sigma_d, G_d, dt in zip(*(x[which] for x in table), dts):
            assert np.array_equal(A_d, np.eye(2))
            assert np.array_equal(Sigma_d, dt * Sigma) and np.array_equal(G_d, dt * G)


@pytest.mark.parametrize("name", ["A", "Sigma"])
def test_default_initial_cov_of_a_non_finite_matrix_is_non_finite(name):
    mats = {"A": np.array([[-0.5, 0.1], [0.0, -0.3]]), "Sigma": np.eye(2)}
    mats[name][1, 1] = np.nan
    with pytest.raises(EmaError) as exc:
        es.ModelSpec(**mats, time_mode="continuous")
    assert exc.value.code == "NON_FINITE" and exc.value.message.startswith(f"{name} ")


def test_astronomical_gap_on_stable_drift_reaches_stationary_law():
    spec = es.to_continuous(es.ModelSpec(A=[[0.5, 0.1], [0.0, 0.4]], Sigma=np.eye(2)), 1.0)
    d = es.discretize(spec, 1e300)
    P = solve_continuous_lyapunov(spec.A, -spec.Sigma)
    assert not d.A.any()
    assert np.allclose(d.Sigma, P, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
def test_discretize_rejects_bad_gap(dt):
    spec = es.ModelSpec(A=[[-0.5]], Sigma=[[1.0]], time_mode="continuous", initial_cov=[[1.0]])
    with pytest.raises(EmaError) as exc:
        es.discretize(spec, dt)
    assert exc.value.code == "INVALID_MODEL"


# --- stationary moments ------------------------------------------------------

def test_stationary_white_noise():
    mean, cov = es.stationary_moments(es.ModelSpec(A=[[0.0]], Sigma=[[1.0]]))
    assert mean == pytest.approx(0.0)
    assert cov[0, 0] == pytest.approx(1.0)


def test_stationary_ar_half_analytic_and_simulated():
    mean, cov = es.stationary_moments(es.ModelSpec(A=[[0.5]], Sigma=[[1.0]]))
    assert cov[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)
    # long-run simulation cross-check
    from scipy.signal import lfilter
    eps = np.random.default_rng(0).standard_normal(1_000_000)
    x = lfilter([1.0], [1.0, -0.5], eps)
    assert np.var(x) == pytest.approx(4.0 / 3.0, rel=0.02)


def test_stationary_random_walk_rejected():
    with pytest.raises(EmaError) as exc:
        es.stationary_moments(es.ModelSpec(A=[[1.0]], Sigma=[[1.0]],
                                           initial_cov=[[1.0]],
                                           random_walk_states={0}))
    assert exc.value.code == "NOT_STATIONARY"


@pytest.mark.parametrize("name", ["A", "Sigma"])
def test_stationary_moments_of_a_non_finite_matrix_is_non_finite(name):
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]]).with_matrices(**{name: [[np.nan]]})
    with pytest.raises(EmaError) as exc:
        es.stationary_moments(spec)
    assert exc.value.code == "NON_FINITE" and exc.value.message.startswith(f"{name} ")


def test_stationary_cov_solves_fixed_point():
    rng = np.random.default_rng(3)
    for _ in range(5):
        A = rng.normal(scale=0.4, size=(3, 3))
        A *= 0.9 / max(np.abs(np.linalg.eigvals(A)).max(), 0.9)
        L = rng.normal(size=(3, 3))
        spec = es.ModelSpec(A=A, Sigma=L @ L.T + 0.1 * np.eye(3))
        _, cov = es.stationary_moments(spec)
        resid = cov - spec.A @ cov @ spec.A.T - spec.Sigma
        assert np.linalg.norm(resid, "fro") < 1e-8


# --- nyquist -----------------------------------------------------------------

def test_nyquist_boundary_is_strict():
    assert es.nyquist_check(24.0, 12.0) == "inadequate"
    assert es.nyquist_check(24.0, 6.0) == "adequate"
    assert es.nyquist_check(7 * 24.0, 24.0) == "adequate"


@pytest.mark.parametrize("period, interval", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                              (1.0, np.inf), (0.0, 1.0), (1.0, -1.0)])
def test_nyquist_rejects_a_period_or_interval_that_is_not_positive_and_finite(period, interval):
    with pytest.raises(EmaError) as exc:
        es.nyquist_check(period, interval)
    assert exc.value.code == "INVALID_MODEL"


# --- serialization -----------------------------------------------------------

def test_model_json_roundtrip(tmp_path):
    ch = es.MeasurementChannel(family="poisson", scale=2.0, link="log")
    spec = es.ModelSpec(A=[[0.6, 0.1], [0.0, 0.7]], Sigma=np.eye(2),
                        G=[[1.0], [0.0]], H=[[1.0, 0.0]],
                        Theta=[[0.0]], channels=(ch,),
                        random_walk_states=frozenset())
    path = tmp_path / "model.json"
    spec.save(path)
    back = es.ModelSpec.load(path)
    assert np.allclose(back.A, spec.A)
    assert np.allclose(back.G, spec.G)
    assert back.channels[0].family == "poisson"
    assert back.channels[0].link == "log"
    assert back.time_mode == spec.time_mode


def test_model_json_unknown_key_rejected(tmp_path):
    d = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]]).to_dict()
    d["surprise"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(EmaError) as exc:
        es.ModelSpec.load(path)
    assert exc.value.code == "UNKNOWN_KEY"


def test_model_json_dimension_mismatch_rejected(tmp_path):
    d = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]]).to_dict()
    d["n_states"] = 4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(EmaError) as exc:
        es.ModelSpec.load(path)
    assert exc.value.code == "PARSE_ERROR"


def test_psd_tolerance_absorbs_roundoff():
    eps = -1e-12      # tiny negative eigenvalue relative to the trace
    spec = es.ModelSpec(A=[[0.5, 0.0], [0.0, 0.5]],
                        Sigma=[[1.0, 0.0], [0.0, eps]])
    codes = {code for code, _ in es.validate_model(spec).errors}
    assert "NON_PSD_SIGMA" not in codes


def test_psd_sqrt_rejects_a_clearly_indefinite_matrix():
    with pytest.raises(EmaError) as exc:
        psd_sqrt(np.diag([1.0, -5.0]))
    assert exc.value.code == "NOT_PSD" and "NOT_PSD" in NUMERICAL_CODES


def test_psd_sqrt_clips_only_round_off():
    V = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))[0]
    M = V @ np.diag([2.0, 1.0, -1e-13]) @ V.T
    M = 0.5 * (M + M.T)
    L = psd_sqrt(M)
    assert np.abs(L @ L.T - M).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), rank=st.integers(0, 4),
       wobble=st.floats(0.0, 0.9))
def test_psd_sqrt_factors_whatever_validation_accepts(seed, n, rank, wobble):
    """Rank-deficient covariances plus symmetric round-off up to the
    validation tolerance: a spec that validates has factorable Sigma, Theta
    and initial_cov."""
    rng = np.random.default_rng(seed)

    def cov():
        B = rng.normal(size=(n, min(rank, n)))
        M = B @ B.T
        E = rng.normal(size=(n, n))
        E = (E + E.T) / (2.0 * max(np.abs(np.linalg.eigvalsh(E + E.T)).max(), 1e-300))
        return M + wobble * 1e-10 * abs(np.trace(M)) * E

    spec = es.ModelSpec(A=0.5 * np.eye(n), Sigma=cov(), Theta=cov(), initial_cov=cov())
    assume(not es.validate_model(spec).errors)
    for M in (spec.Sigma, spec.Theta, spec.initial_cov):
        L = psd_sqrt(M)
        assert np.abs(L @ L.T - M).max() <= 2e-10 * abs(np.trace(M)) + 1e-14


def test_spec_matrices_are_immutable():
    spec = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]])
    with pytest.raises(ValueError):
        spec.A[0, 0] = 0.9


# --- the step builder --------------------------------------------------------

def _series_by_series(spec, gaps, drifts):
    """Each series' steps from its own kernel call (the spec's matrices in
    discrete time), up to the first series whose call fails, and that
    error."""
    steps = []
    for s, g in enumerate(gaps):
        drift = None if drifts is None else drifts[s]
        if spec.time_mode == "discrete":
            A = np.repeat(spec.A[None], g.size, 0) if drift is None else drift
            steps.append((A, np.repeat(spec.Sigma[None], g.size, 0),
                          np.repeat(spec.G[None], g.size, 0)))
            continue
        try:
            *table, which = _gap_transitions(spec, g, drift)
        except EmaError as err:
            return steps, err
        steps.append(tuple(x[which] for x in table))
    return steps, None


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), continuous=st.booleans(),
       with_drifts=st.booleans(), pings=st.lists(st.integers(0, 12), min_size=1, max_size=6),
       overflow=st.integers(-1, 5))
def test_cohort_steps_equal_each_series_own_kernel_call(seed, n, continuous, with_drifts,
                                                        pings, overflow):
    """One builder call against a series-by-series loop: every kept step
    bit for bit, and the same cut.  With ``overflow`` naming a series that
    has a gap, one of its gaps is 1e3 h under an explosive drift."""
    rng, A, Sigma = _drift(seed, n, stable=continuous)
    spec = es.ModelSpec(A=A, Sigma=Sigma, G=rng.normal(size=(n, 1)), initial_cov=np.eye(n),
                        time_mode="continuous" if continuous else "discrete")
    gaps = [rng.uniform(0.05, 30.0, max(T - 1, 0)) for T in pings]
    drifts = [A + rng.uniform(-0.1, 0.1, (g.size, n, n)) for g in gaps] if with_drifts else None
    placed = 0 <= overflow < len(gaps) and gaps[overflow].size > 0
    if placed:
        # eigenvalues with real parts in [0.4, 1.6]: 1e3 h overflows, 30 h does not
        explosive = np.eye(n) + rng.uniform(-0.2, 0.2, (n, n))
        k = rng.integers(gaps[overflow].size)
        gaps[overflow][k] = 1e3
        if drifts is None:
            spec = spec.with_matrices(A=explosive)
        else:
            drifts[overflow][k] = explosive
    want, want_err = _series_by_series(spec, gaps, drifts)

    table, rows, kept, err = _cohort_steps(spec, gaps, drifts)
    assert kept == len(want) == (overflow if placed and continuous else len(gaps))
    assert (err is None) == (want_err is None)
    if err is not None:
        assert (err.code, err.message) == (want_err.code, want_err.message)
    assert rows.shape == (len(gaps), max(g.size for g in gaps))
    for s, g in enumerate(gaps):
        used = rows[s, :g.size] if s < kept else np.zeros(0, dtype=int)
        assert (rows[s, used.size:] == -1).all() and (used >= 0).all()
        for got, ref in zip((x[used] for x in table), want[s] if s < kept else ()):
            assert got.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), entries=st.integers(1, 5),
       singular=st.integers(-1, 4), not_psd=st.integers(-1, 4),
       lengths=st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_step_roots_equal_psd_sqrt_per_entry_in_order_of_first_use(seed, n, entries, singular,
                                                                   not_psd, lengths):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(entries, n, n))
    Sigma_d = L @ L.swapaxes(1, 2) + 0.1 * np.eye(n)
    if 0 <= singular < entries:
        Sigma_d[singular, :, 0] = Sigma_d[singular, 0, :] = 0.0
    if 0 <= not_psd < entries:
        Sigma_d[not_psd] -= 2.0 * np.linalg.eigvalsh(Sigma_d[not_psd])[-1] * np.eye(n)
    rows = np.full((len(lengths), max(lengths)), -1)
    for s, k in enumerate(lengths):
        rows[s, :k] = rng.integers(entries, size=k)

    roots, kept, err = _step_roots(Sigma_d, rows, len(rows), None)
    want_kept, want_err = len(rows), None
    for s, k in zip(*np.nonzero(rows >= 0)):     # every step, in order of use
        try:
            ref = psd_sqrt(Sigma_d[rows[s, k]])
        except EmaError as bad:
            want_kept, want_err = s, bad
            break
        assert roots[rows[s, k]].tobytes() == ref.tobytes()
    assert kept == want_kept and (err is None) == (want_err is None)
    if err is not None:
        assert err.message == want_err.message


def test_validation_and_drift_table_run_once_per_spec_instance(monkeypatch):
    from emastate import model
    calls = []
    for name in ("_checks", "_taylor_table"):
        def counting(*a, _f=getattr(model, name), _name=name):
            calls.append(_name)
            return _f(*a)
        monkeypatch.setattr(model, name, counting)
    spec = es.ModelSpec(A=[[-0.5, 0.1], [0.0, -0.3]], Sigma=np.eye(2), Theta=np.eye(2),
                        time_mode="continuous")
    for _ in range(3):
        es.kalman_filter_ct(spec, [0.0, 1.0, 2.5], np.zeros((3, 2)))
        es.validate_model(spec).errors.append(("X", "a caller's edit"))
    assert sorted(calls) == ["_checks", "_taylor_table"]
    assert es.validate_model(spec).errors == []
    other = spec.with_matrices(A=[[-0.5, 0.1], [0.0, -0.4]])     # one entry differs
    a, b = (_gap_transitions(s, [1.0])[0] for s in (spec, other))
    assert a.tobytes() != b.tobytes() and len(calls) == 3
