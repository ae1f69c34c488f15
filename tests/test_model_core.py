import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm, solve_continuous_lyapunov

import emastate as es
from emastate.errors import NUMERICAL_CODES, EmaError
from emastate.model import _discretize_gaps, psd_sqrt

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
    for (A_d, Sigma_d, _), dt in zip(_discretize_gaps(spec, dts), dts):
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
    (A_a, S_a, G_a), (A_b, S_b, G_b), (A_ab, S_ab, G_ab) = _discretize_gaps(spec, [a, b, a + b])
    for lhs, rhs in ((A_ab, A_a @ A_b), (S_ab, S_a + A_a @ S_b @ A_a.T),
                     (G_ab, G_a + A_a @ G_b)):
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(lhs).max(), np.abs(rhs).max())
    if walk:
        assert A_ab[0, 0] == 1.0 and not A_ab[0, 1:].any()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), walk=st.booleans(),
       coupling=st.floats(0.0, 4.0), log_dts=st.lists(st.floats(-2.0, 4.0), min_size=1,
                                                     max_size=3))
def test_gap_transitions_match_a_40_digit_van_loan_reference(seed, n, walk, coupling,
                                                             log_dts):
    """Stable non-normal drifts Q T Q' (T upper triangular, off-diagonal up
    to ``coupling``), optionally a random-walk first row, inputs, and gaps of
    0.01 h to 10^4 h: A_d, Sigma_d and G_d agree with the reference to 1e-12,
    relative to the largest entry (to 1 for A_d, which starts at I and may
    decay to nothing)."""
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
    for got, dt in zip(_discretize_gaps(spec, dts), dts):
        want = van_loan_reference(spec.A, spec.Sigma, spec.G, dt)
        for i, (g, w) in enumerate(zip(got, want)):
            scale = max(1.0, np.abs(w).max()) if i == 0 else np.abs(w).max()
            assert np.abs(g - w).max() <= 1e-12 * scale, ("A_d", "Sigma_d", "G_d")[i]


@pytest.mark.parametrize("tvp", [False, True])
def test_gap_stack_slices_equal_one_gap_discretize_bit_for_bit(tvp):
    rng, A, Sigma = _drift(3, 3, stable=True)
    spec = es.ModelSpec(A=A, Sigma=Sigma, G=rng.normal(size=(3, 2)), time_mode="continuous",
                        initial_cov=np.eye(3))
    dts = np.array([0.05, 0.4, 2.0, 3.7, 24.0, 72.0, 500.0, 2.0, 0.4,
                    np.nextafter(2.0, 3.0)])
    drifts = None
    if tvp:
        drifts = np.repeat(A[None], dts.size, axis=0)
        drifts[:, 0, 0] += np.linspace(-0.3, 0.2, dts.size)
    trans = _discretize_gaps(spec, dts, drifts)
    for i, (A_d, Sigma_d, G_d) in enumerate(trans):
        one = es.discretize(spec if drifts is None else spec.with_matrices(A=drifts[i]), dts[i])
        assert np.array_equal(A_d, one.A) and np.array_equal(Sigma_d, one.Sigma)
        assert np.array_equal(G_d, one.G)
    # equal gaps share one tuple only under equal drifts
    assert (trans[2] is trans[7]) == (not tvp) and (trans[1] is trans[8]) == (not tvp)


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
