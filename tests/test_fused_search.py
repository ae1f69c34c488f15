"""One evaluation per BFGS iterate.

A fit hands BFGS one function that returns an iterate's value and its
gradient from a single evaluation.  Scalar, continuous-time and particle
fits take central differences from the 2k+1 points (the iterate, then
x + h_i e_i and x - h_i e_i), and a discrete-time scalar Kalman fit
evaluates them as one stacked pass whose matrices
``Parameterization.scatter`` writes for all points at once.  A
discrete-time Kalman fit of a larger model takes the exact score from one
stored pass at the iterate.  These tests hold that design to the sequential
one (a one-point objective pass, then a 2k-point gradient pass or a
separate score call) bit for bit: a point's value must not depend on the
other points of its stack, the score's pass must give the one-point
objective's value, and each row of the scatter must be the matrices
``unpack`` gives for that point.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import emastate as es
from emastate import estimate
from emastate.estimate import (FitOptions, Parameterization, _stack_participants,
                               _stacked_objectives)

from oracles import central_diff_grad

PENALTY = 1e12


def _bits(r):
    """Every field of a FitResult in a form that compares bit for bit."""
    def b(v):
        if isinstance(v, es.ModelSpec):
            return json.dumps(v.to_dict())
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.shape, v.tobytes()
        if isinstance(v, float):
            return float(v).hex()
        if isinstance(v, list):
            return [b(x) for x in v]
        return v
    return {f.name: b(getattr(r, f.name)) for f in dataclasses.fields(r)}


def _sequential(monkeypatch):
    """Run fits through the sequential search: each search runs alone in
    scipy's BFGS, which gets a one-point objective and, separately, a
    2k-point central-difference gradient or (matrix Kalman fits) the
    gradient of a score call.  The patched evaluations hand the driver
    these function pairs in place of values."""
    from scipy.optimize import OptimizeResult, minimize

    def split(objectives, step):
        def pairs(pending):
            return [(lambda x, o=o: float(objectives([x], [o])[0]),
                     lambda x, o=o: central_diff_grad(
                         lambda points: objectives(points, [o] * len(points)), x, step))
                    for o, _ in pending]
        return pairs

    score = estimate._value_and_score

    def split_score(par, stack, penalty):
        return lambda x: (
            lambda x: float(estimate._stacked_objectives(par, stack, penalty, [x])[0]),
            lambda x: score(par, stack, penalty)(x)[1])

    def sequential_minimize(evaluate, starts, gtol, maxiter):
        results = []
        for i, x0 in enumerate(starts):
            objective, grad = evaluate([(i, x0)])[0]
            results.append(minimize(objective, x0, jac=grad, method="BFGS",
                                    options={"gtol": gtol, "maxiter": maxiter}))
        return OptimizeResult(results=results, nfev=sum(r.nfev for r in results),
                              nit=sum(r.nit for r in results))

    monkeypatch.setattr(estimate, "_value_and_grad", split)
    monkeypatch.setattr(estimate, "_value_and_score", split_score)
    monkeypatch.setattr(estimate, "minimize", sequential_minimize)


def _simulate(spec, horizon, n_participants, seed, kind="fixed", miss=0.2):
    sched = es.PingSchedule(kind=kind, horizon=horizon, interval=1.0,
                            max_jitter=0.4 if kind == "jittered" else 0.0)
    data = es.simulate_dataset(spec, sched, n_participants=n_participants, rng_seed=seed)
    if miss:
        data = es.inject_missingness(data, es.MissingnessSpec("MCAR", miss), seed + 1)
    return data


def _pooled_var2():
    truth = es.ModelSpec(A=[[0.6, 0.15], [0.1, 0.5]], Sigma=np.diag([1.0, 0.8]),
                         Theta=np.diag([0.4, 0.4]))
    pmap = es.ParameterMap({"A": [["free", "free"], ["free", "free"]],
                            "Sigma": [["free", "fixed"], ["fixed", "free"]],
                            "Theta": [["free", "fixed"], ["fixed", "free"]]})
    data = _simulate(truth, 40.0, 3, seed=41)
    p = data.participants[2]        # one shorter series
    data.participants[2] = es.Participant(p.pid, p.timestamps[:28], p.Y[:28],
                                          p.missing[:28], p.U[:28])
    return truth, pmap, data, "pooled", FitOptions(n_restarts=3, max_iter=60, seed=2)


def _idiographic_ar1():
    truth = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.5]])
    pmap = es.ParameterMap({"A": [["free"]], "Sigma": [["free"]], "Theta": [["free"]]})
    data = _simulate(truth, 40.0, 3, seed=7)
    return truth, pmap, data, "idiographic", FitOptions(n_restarts=2, max_iter=60, seed=1)


def _continuous_time():
    truth = es.to_continuous(es.ModelSpec(A=[[0.6]], Sigma=[[1.0]], Theta=[[0.3]]), 1.0)
    pmap = es.ParameterMap({"A": [["free"]], "Sigma": [["free"]]})
    data = _simulate(truth, 40.0, 2, seed=33, kind="jittered", miss=0.0)
    return truth, pmap, data, "pooled", FitOptions(n_restarts=1, max_iter=30, seed=0)


def _particle():
    ch = es.MeasurementChannel(family="poisson", scale=1.0, link="log")
    truth = es.ModelSpec(A=[[0.5]], Sigma=[[0.4]], Theta=[[0.0]], channels=(ch,))
    data = _simulate(truth, 30.0, 1, seed=15, miss=0.0)
    opts = FitOptions(n_restarts=1, max_iter=15, tol=1e-2, likelihood="particle",
                      n_particles=100, particle_seed=7)
    return truth, es.ParameterMap({"A": [["free"]]}), data, "pooled", opts


@pytest.mark.parametrize("case", [_pooled_var2, _idiographic_ar1, _continuous_time,
                                  _particle])
def test_fused_search_equals_the_sequential_search_bit_for_bit(monkeypatch, case):
    template, pmap, data, mode, opts = case()
    passes = []
    stacked = estimate._stacked_objectives
    monkeypatch.setattr(estimate, "_stacked_objectives",
                        lambda *a: passes.append(1) or stacked(*a))

    def run():
        r = es.fit(template, pmap, data, mode=mode, options=opts)
        return [_bits(x) for x in (r if mode == "idiographic" else [r])]

    fused, fused_passes = run(), len(passes)
    with monkeypatch.context() as m:
        _sequential(m)
        sequential = run()
    assert fused == sequential
    if template.time_mode == "discrete" and opts.likelihood == "kalman":
        assert 0 < fused_passes < len(passes) - fused_passes


# --- a point's value does not depend on its stack ------------------------------

def _cohort(rng, p, q, n_people):
    """Participants of unequal lengths with missing cells (one nearly empty)."""
    people = []
    for i in range(n_people):
        T = int(rng.integers(2, 25))
        Y = rng.normal(size=(T, p))
        missing = rng.random((T, p)) < 0.3
        if i == 1:
            missing[1:] = True
        people.append(es.Participant(f"p{i}", np.arange(T, dtype=float), Y, missing,
                                     rng.normal(size=(T, q))))
    return people


SCALAR = (es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], G=[[0.8]], Theta=[[0.5]]),
          es.ParameterMap({"A": [["free"]], "G": [["free"]], "Sigma": [["free"]],
                           "Theta": [["free"]]}))
MATRIX = (es.ModelSpec(A=[[0.5, 0.1], [0.0, 0.4]], Sigma=[[1.0, 0.2], [0.2, 0.8]],
                       G=[[0.3], [0.0]], Theta=np.diag([0.4, 0.3])),
          es.ParameterMap({"A": [["free", "free"], ["fixed", "free"]],
                           "G": [["free"], ["fixed"]],
                           "Sigma": [["free", "free"], ["free", "free"]],
                           "Theta": [["free", "fixed"], ["fixed", "free"]]}))


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(["scalar", "matrix"]), n_people=st.integers(1, 3),
       n_others=st.integers(1, 12), overflow=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# Sigma[0, 0] overflows and reaches only an all-missing last ping
@example(model="matrix", n_people=1, n_others=1, overflow=True, seed=27)
def test_a_point_s_value_does_not_depend_on_the_other_points_of_its_stack(
        model, n_people, n_others, overflow, seed):
    template, pmap = SCALAR if model == "scalar" else MATRIX
    rng = np.random.default_rng(seed)
    people = _cohort(rng, template.n_obs, template.n_inputs, n_people)
    par = Parameterization(template, pmap)
    stack = _stack_participants(template, people)
    x0 = par.start_vector()
    points = x0 + rng.normal(scale=0.5, size=(n_others + 1, par.n_free))
    at = int(rng.integers(0, n_others + 1))
    if overflow:                    # a neighbour whose log-sd overflows to inf
        big = (at + 1) % (n_others + 1)
        log_sd = [k for k, s in enumerate(par.slots) if s.transform in ("log_sd", "chol_diag")]
        points[big, rng.choice(log_sd)] = 400.0
    # 1x1: alone runs the float loop per member (fewer than _STACK_MIN_MEMBERS),
    # the stack runs it too or the elementwise branch, depending on its size
    alone = _stacked_objectives(par, stack, PENALTY, points[at:at + 1])
    together = _stacked_objectives(par, stack, PENALTY, points)
    assert alone[0].tobytes() == together[at].tobytes()
    if overflow:
        assert together[big] == PENALTY


# --- the scatter's rows are unpack's matrices ------------------------------------

MATRICES = ("A", "G", "H", "initial_mean", "Sigma", "Theta", "initial_cov")


def _random_map(rng, n, p, q):
    """Statuses over every kind of plain entry, diagonal or full-Cholesky
    covariances, tied groups and fixed values."""
    def plain(shape):
        choice = rng.choice(["free", "fixed", "value", "tied:a", "tied:b"], size=shape)
        grid = choice.astype(object)
        for idx in np.ndindex(shape):
            if choice[idx] == "value":
                grid[idx] = float(rng.normal())
        return grid.tolist()

    def cov(k):
        mode = rng.choice(["none", "diag", "chol"])
        if mode == "chol":
            return [["free"] * k for _ in range(k)]
        grid = [["fixed"] * k for _ in range(k)]
        if mode == "diag":
            for i in range(k):
                grid[i][i] = str(rng.choice(["free", "fixed", "tied:v"]))
        return grid

    return es.ParameterMap({"A": plain((n, n)), "G": plain((n, q)), "H": plain((p, n)),
                            "initial_mean": plain((n,)), "Sigma": cov(n),
                            "Theta": cov(p), "initial_cov": cov(n)})


def _entrywise(par, pmap, theta):
    """The matrices at one point, built entry by entry from each slot's
    targets: the unpacking that the scatter replaced."""
    tpl = par.template
    m = {name: np.array(getattr(tpl, name), dtype=float) for name in MATRICES}
    for name, grid in pmap.statuses.items():
        for idx, s in np.ndenumerate(np.asarray(grid, dtype=object)):
            if isinstance(s, float):
                m[name][idx] = s
    factors = {}
    with np.errstate(all="ignore"):
        for value, slot in zip(theta, par.slots):
            for name, idx in slot.targets:
                if slot.transform == "plain":
                    m[name][idx] = value
                elif slot.transform == "log_sd":
                    sd = np.exp(value)
                    m[name][idx] = sd * sd
                else:
                    L = factors.setdefault(name, np.zeros_like(m[name]))
                    L[idx] = np.exp(value) if slot.transform == "chol_diag" else value
        for name, L in factors.items():
            m[name] = L @ L.T
    for i in tpl.random_walk_states:
        m["A"][i] = 0.0
        m["A"][i, i] = 1.0 if tpl.time_mode == "discrete" else 0.0
    return m


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3), p=st.integers(1, 2), q=st.integers(0, 1),
       time_mode=st.sampled_from(["discrete", "continuous"]),
       n_points=st.integers(1, 6), overflow=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_scatter_rows_equal_unpack_bit_for_bit(n, p, q, time_mode, n_points,
                                               overflow, seed):
    rng = np.random.default_rng(seed)
    rw = {int(i) for i in np.flatnonzero(rng.random(n) < 0.3)}
    A = rng.normal(scale=0.3, size=(n, n))
    if time_mode == "discrete":
        A[list(rw)] = 0.0
        A[list(rw), list(rw)] = 1.0
    template = es.ModelSpec(A=A, Sigma=np.diag(rng.uniform(0.5, 2.0, n)),
                            G=rng.normal(size=(n, q)), H=rng.normal(size=(p, n)),
                            Theta=np.diag(rng.uniform(0.5, 2.0, p)),
                            initial_mean=rng.normal(size=n),
                            initial_cov=np.diag(rng.uniform(0.5, 2.0, n)),
                            time_mode=time_mode, random_walk_states=rw)
    pmap = _random_map(rng, n, p, q)
    par = Parameterization(template, pmap)
    thetas = par.start_vector() + rng.normal(scale=2.0, size=(n_points, par.n_free))
    exp_slots = [k for k, s in enumerate(par.slots) if s.transform in ("log_sd", "chol_diag")]
    overflow = overflow and bool(exp_slots)
    if overflow:
        thetas[0, rng.choice(exp_slots)] = 400.0

    mats = par.scatter(thetas)
    for k in range(n_points):
        spec = par.unpack(thetas[k])
        want = _entrywise(par, pmap, thetas[k])
        for name in MATRICES:
            assert mats[name][k].tobytes() == getattr(spec, name).tobytes(), name
            assert mats[name][k].tobytes() == want[name].tobytes(), name
        for i in rw:
            assert spec.A[i].tolist() == [float(i == j and time_mode == "discrete")
                                          for j in range(n)]
    if overflow:
        assert not all(np.isfinite(mats[name][0]).all() for name in MATRICES)
        if time_mode == "discrete":     # fully observed: the point is penalized
            people = [es.Participant("p0", np.arange(6.0), rng.normal(size=(6, p)),
                                     np.zeros((6, p), dtype=bool), rng.normal(size=(6, q)))]
            stack = _stack_participants(template, people)
            assert _stacked_objectives(par, stack, PENALTY, thetas)[0] == PENALTY
