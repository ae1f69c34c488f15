"""The exact score of matrix Kalman fits.

A discrete-time Kalman fit of a model with more than one state or channel
gets each iterate's gradient from one stored filter pass and one backward
pass (``filtering._kalman_score``), chained to the free parameters through
``Parameterization.chain``.  These tests hold the seven matrix gradients to
central differences of the joint Gaussian density of the observed cells
(``oracles.gaussian_joint``), and the parameter gradient to central
differences of the stacked objective, over every parameter transform.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emastate as es
from emastate import filtering
from emastate.estimate import (Parameterization, _stack_participants, _stacked_objectives,
                               _value_and_score)

from oracles import gaussian_joint

PENALTY = 1e12
MATRICES = ("A", "G", "H", "initial_mean", "Sigma", "Theta", "initial_cov")
SYMMETRIC = ("Sigma", "Theta", "initial_cov")


def _pd(rng, k, diagonal=False):
    if diagonal:
        return np.diag(rng.uniform(0.4, 1.5, k))
    L = rng.normal(scale=0.5, size=(k, k))
    return L @ L.T + 0.4 * np.eye(k)


def _random_case(rng, n, p, q, diag_covs=()):
    """A random spec with cross-loaded H, inputs and random-walk rows, and
    1-3 participants of unequal lengths with missing cells and an
    all-missing ping."""
    rw = {int(i) for i in np.flatnonzero(rng.random(n) < 0.3)}
    A = rng.normal(scale=0.4, size=(n, n))
    A[list(rw)] = 0.0
    A[list(rw), list(rw)] = 1.0
    spec = es.ModelSpec(A=A, G=rng.normal(size=(n, q)), H=rng.normal(size=(p, n)),
                        Sigma=_pd(rng, n, "Sigma" in diag_covs),
                        Theta=_pd(rng, p, "Theta" in diag_covs),
                        initial_mean=rng.normal(size=n),
                        initial_cov=_pd(rng, n, "initial_cov" in diag_covs),
                        random_walk_states=rw)
    people = []
    for i in range(int(rng.integers(1, 4))):
        T = int(rng.integers(1, 9))
        missing = rng.random((T, p)) < 0.3
        missing[rng.integers(0, T)] = True
        people.append(es.Participant(f"p{i}", np.arange(T, dtype=float),
                                     rng.normal(size=(T, p)), missing,
                                     rng.normal(size=(T, q))))
    return spec, people


def _matrix_score(spec, people):
    """The score of the stacked participants in the seven matrices."""
    y, obs, u, lengths = _stack_participants(spec, people)
    res = filtering._kalman_stack(y, obs, u, spec.initial_mean, spec.initial_cov, spec.H,
                                  spec.Theta, (spec.A[None], spec.Sigma[None], spec.G[None]),
                                  store=True, lengths=lengths)
    assert not res.fail.any()
    return filtering._kalman_score(y, obs, u, *res.moments[:2], spec.A, spec.H, spec.Theta)


def _oracle_loglik(mats, people):
    spec = SimpleNamespace(n_states=mats["A"].shape[0], n_inputs=mats["G"].shape[1], **mats)
    return sum(gaussian_joint(spec, x.Y, x.missing, x.U)["log_likelihood"] for x in people)


@pytest.mark.parametrize("wide", [False, True])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), p=st.integers(1, 2), q=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_matrix_score_matches_central_differences_of_the_joint_density(wide, n, p, q, seed):
    rng = np.random.default_rng(seed)
    spec, people = _random_case(rng, n, p, q)
    with pytest.MonkeyPatch.context() as mp:
        if wide:        # the backward pass over all members at once
            mp.setattr(filtering, "_SCORE_MIN_MEMBERS", 1)
        score = _matrix_score(spec, people)
    base = {name: np.array(getattr(spec, name), dtype=float) for name in MATRICES}
    h = 1e-5
    for name in MATRICES:
        want = np.zeros_like(base[name])
        for idx in np.ndindex(base[name].shape):
            if name in SYMMETRIC and idx[0] > idx[1]:
                continue
            values = []
            for step in (h, -h):
                mats = {k: v.copy() for k, v in base.items()}
                mats[name][idx] += step
                if name in SYMMETRIC:
                    mats[name][idx[::-1]] = mats[name][idx]
                values.append(_oracle_loglik(mats, people))
            want[idx] = (values[0] - values[1]) / (2 * h)
        got = score[name]
        if name in SYMMETRIC:        # a symmetric pair moves both entries
            got = np.triu(got + got.T - np.diag(np.diag(got)))
            want = np.triu(want)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max(initial=1.0),
                                   err_msg=name)


def _random_map(rng, n, p, q, diag_covs):
    """Statuses over plain, fixed-value and tied entries, and log-sd
    (diagonal) or Cholesky (full) covariances, some diagonals tied."""
    def plain(shape):
        choice = rng.choice(["free", "fixed", "value", "tied:a", "tied:b"], size=shape)
        grid = choice.astype(object)
        for idx in np.ndindex(shape):
            if choice[idx] == "value":
                grid[idx] = float(rng.normal(scale=0.3))
        return grid.tolist()

    def cov(name, k):
        if name not in diag_covs:
            return [["free"] * k for _ in range(k)] if rng.random() < 0.7 else None
        grid = [["fixed"] * k for _ in range(k)]
        for i in range(k):
            grid[i][i] = str(rng.choice(["free", "fixed", "tied:v"]))
        return grid

    statuses = {"A": plain((n, n)), "G": plain((n, q)), "H": plain((p, n)),
                "initial_mean": plain((n,)), "Sigma": cov("Sigma", n),
                "Theta": cov("Theta", p), "initial_cov": cov("initial_cov", n)}
    return es.ParameterMap({k: v for k, v in statuses.items() if v is not None})


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), p=st.integers(1, 3), q=st.integers(0, 2),
       diag_covs=st.sets(st.sampled_from(SYMMETRIC)), seed=st.integers(0, 2**32 - 1))
def test_parameter_score_matches_central_differences_of_the_objective(n, p, q, diag_covs,
                                                                       seed):
    rng = np.random.default_rng(seed)
    spec, people = _random_case(rng, n, p, q, diag_covs)
    par = Parameterization(spec, _random_map(rng, n, p, q, diag_covs))
    if not par.n_free:
        return
    stack = _stack_participants(spec, people)
    x = par.start_vector() + rng.normal(scale=0.1, size=par.n_free)
    value, grad = _value_and_score(par, stack, PENALTY)(x)
    lean = _stacked_objectives(par, stack, PENALTY, [x])[0]
    assert lean < PENALTY
    if p <= filtering._SMALL_SHAPE[1]:
        assert value == lean
    else:           # 3 channels: the stored terms are summed in another order
        assert value == pytest.approx(lean, rel=1e-13)

    h = 1e-5 * np.maximum(1.0, np.abs(x))
    f = _stacked_objectives(par, stack, PENALTY, np.concatenate([x + np.diag(h),
                                                                 x - np.diag(h)]))
    want = (f[:par.n_free] - f[par.n_free:]) / (2 * h)
    assert (f < PENALTY).all()
    np.testing.assert_allclose(grad, want, rtol=1e-5, atol=1e-5 * np.abs(want).max(initial=1.0))
