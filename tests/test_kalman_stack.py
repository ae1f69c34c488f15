"""Property tests for the stacked Kalman recursion.

One pass runs a (specs, participants) stack: every member must reproduce
the joint-normal log-likelihood of its own observed cells, whatever the
missingness pattern or the padding of a shorter participant, and a member
that fails must fail alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emastate as es
from emastate.errors import EmaError
from emastate.filtering import _kalman_stack

from oracles import gaussian_joint, random_stable_spec


def _spec_with_input(rng, n, p):
    base = random_stable_spec(rng, n=n, p=p)
    return es.ModelSpec(A=base.A, Sigma=base.Sigma, G=rng.normal(size=(n, 1)),
                        H=base.H, Theta=base.Theta, initial_mean=base.initial_mean,
                        initial_cov=base.initial_cov)


def _cohort(rng, p, lengths, miss_frac):
    """Per-participant (Y, missing, U) with some fully missing pings."""
    series = []
    for T in lengths:
        Y = rng.normal(size=(T, p))
        missing = rng.uniform(size=(T, p)) < miss_frac
        missing[rng.uniform(size=T) < 0.2] = True
        Y[missing] = np.nan
        series.append((Y, missing, rng.normal(size=(T, 1))))
    return series


def _run_stack(specs, series):
    """One pass over specs x participants, padding to the longest series."""
    R, T = len(series), max(s[0].shape[0] for s in series)
    p = specs[0].n_obs
    y = np.zeros((R, T, p)); obs = np.zeros((R, T, p), dtype=bool)
    u = np.zeros((R, T, 1))
    for r, (Y, missing, U) in enumerate(series):
        k = Y.shape[0]
        y[r, :k], obs[r, :k], u[r, :k] = Y, ~missing, U

    def arr(name):
        return np.stack([getattr(s, name) for s in specs])[:, None]

    trans = [(arr("A"), arr("Sigma"), arr("G"))] * (T - 1)
    return _kalman_stack(y, obs, u, arr("initial_mean"), arr("initial_cov"),
                         arr("H"), arr("Theta"), trans)


def _lengths(rng, R):
    T = int(rng.integers(3, 7))
    lengths = [T] * R
    lengths[int(rng.integers(R))] = int(rng.integers(1, T))    # one is shorter
    return lengths


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), p=st.integers(1, 3), n_specs=st.integers(1, 3),
       n_people=st.integers(2, 3), miss_frac=st.floats(0.0, 0.6),
       seed=st.integers(0, 2**32 - 1))
def test_every_member_matches_joint_gaussian_oracle(n, p, n_specs, n_people,
                                                    miss_frac, seed):
    rng = np.random.default_rng(seed)
    specs = [_spec_with_input(rng, n, p) for _ in range(n_specs)]
    series = _cohort(rng, p, _lengths(rng, n_people), miss_frac)
    res = _run_stack(specs, series)
    assert res.loglik.shape == (n_specs, n_people)
    assert not res.fail.any()
    for i, spec in enumerate(specs):
        for r, (Y, missing, U) in enumerate(series):
            want = gaussian_joint(spec, Y, missing, U)["log_likelihood"]
            assert np.isclose(res.loglik[i, r], want, rtol=1e-8, atol=1e-10)


def _singular_spec(n):
    ones = np.ones((n, n))
    return es.ModelSpec(A=0.5 * np.eye(n), Sigma=ones, G=np.zeros((n, 1)),
                        H=np.eye(n), Theta=np.zeros((n, n)), initial_cov=ones)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 3), n_specs=st.integers(2, 4), n_people=st.integers(2, 3),
       miss_frac=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_singular_member_fails_alone(n, n_specs, n_people, miss_frac, seed):
    rng = np.random.default_rng(seed)
    specs = [_spec_with_input(rng, n, n) for _ in range(n_specs)]
    series = _cohort(rng, n, _lengths(rng, n_people), miss_frac)
    for Y, missing, _ in series:          # a fully observed ping exposes rank one
        missing[0] = False
        Y[0] = rng.normal(size=n)
    k = int(rng.integers(n_specs))
    clean = _run_stack(specs, series)
    specs[k] = _singular_spec(n)
    res = _run_stack(specs, series)

    assert (res.fail[k] == 1).all()       # SINGULAR_INNOVATION at ping 0
    assert (res.fail_ping[k] == 0).all()
    others = np.arange(n_specs) != k
    assert not res.fail[others].any()
    np.testing.assert_array_equal(res.loglik[others], clean.loglik[others])


def test_single_member_raises_with_ping_index():
    spec = _singular_spec(2)
    Y = np.zeros((4, 2))
    missing = np.zeros((4, 2), dtype=bool)
    missing[:2, 1] = True                 # one channel alone is not singular
    with pytest.raises(EmaError) as exc:
        es.kalman_filter(spec, Y, missing, u=np.zeros((4, 1)))
    assert exc.value.code == "SINGULAR_INNOVATION"
    assert "ping 2" in exc.value.message


def test_padding_keeps_the_eigenvalue_check_of_the_observed_block():
    # one channel is always missing; the observed 1x1 block is perfectly
    # conditioned at any scale, so no scale may read as singular
    rng = np.random.default_rng(0)
    for scale in (1e-14, 1e14):
        spec = es.ModelSpec(A=0.5 * np.eye(2), Sigma=scale * np.eye(2), H=np.eye(2),
                            Theta=scale * np.eye(2), initial_cov=scale * np.eye(2))
        Y = np.sqrt(scale) * rng.normal(size=(4, 2))
        missing = np.zeros((4, 2), dtype=bool)
        missing[:, 1] = True
        Y[missing] = np.nan
        r = es.kalman_filter(spec, Y, missing)
        want = gaussian_joint(spec, Y, missing)["log_likelihood"]
        assert np.isclose(r.log_likelihood, want, rtol=1e-8)
