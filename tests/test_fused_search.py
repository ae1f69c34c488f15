"""One evaluation per BFGS iterate, one stacked pass per round and group.

A fit hands BFGS one function that returns an iterate's value and its
gradient from a single evaluation, and the lockstep driver evaluates the
pending iterates of all searches together.  Kalman problems of one time
mode, shape, input count and participant count share one round
evaluator.  Scalar and continuous-time Kalman searches take central
differences from the 2k+1 points (the iterate, then x + h_i e_i and
x - h_i e_i) of every pending search in one lean pass, whose matrices
``Parameterization.scatter`` writes for all points at once (in continuous
time, each point's gaps then go through one gap-kernel call).  Discrete-time
Kalman searches of a larger model take the exact score: one stored pass at
every pending iterate, then each search's backward pass over its own
participants.  Particle fits take central differences of points filtered
one series at a time.  These tests hold that design to the sequential one,
each search alone in scipy's BFGS with a one-point objective pass and a
2k-point gradient pass or the score of a stored pass over its own
participants, bit for bit: a point's value must not depend on the other
points of its stack, a search's score must not depend on the other
searches of its pass, and each row of the scatter must be the matrices
``unpack`` gives for that point.  A compare, whose candidates' searches
share passes whatever their templates, is held to one sequential fit per
candidate the same way.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import emastate as es
from emastate import estimate, filtering
from emastate.estimate import (FitOptions, Parameterization, _stack_participants,
                               _stacked_objectives)
from emastate.filtering import _kalman_score

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


def _score_alone(prob, x):
    """The exact score of one search run alone, as a discrete-time matrix
    fit searched one search at a time: one stored one-point pass over its
    own participants' stack, the backward pass and the chain; a point whose
    value does not stand, or whose score is not finite, gets zeros."""
    par = prob.par
    stack = _stack_participants(par.template, prob.participants)
    mats, res, _, ok = estimate._kalman_pass([(par, [x])], stack, store=True)
    if ok[0]:
        with np.errstate(all="ignore"):
            g = par.chain(x, _kalman_score(*stack[:3], res.moments[0][0], res.moments[1][0],
                                           mats["A"][0], mats["H"][0], mats["Theta"][0]))
        if np.isfinite(g).all():
            return -g
    return np.zeros(par.n_free)


def _sequential(monkeypatch):
    """Run fits through the sequential search: each search runs alone in
    scipy's BFGS, which gets a one-point objective and, separately, a
    2k-point central-difference gradient or (discrete-time matrix Kalman
    fits) the score of that search alone (:func:`_score_alone`).  The
    patched evaluators hand the driver these function pairs in place of
    values."""
    from scipy.optimize import OptimizeResult, minimize
    evaluators = estimate._evaluators

    def split(problems, options, penalty):
        lean, _ = evaluators(problems, options, penalty)

        def pairs(pending):
            out = []
            for o, _ in pending:
                prob, tpl = problems[o], problems[o].par.template
                if (options.likelihood == "kalman" and tpl.time_mode == "discrete"
                        and (tpl.n_states > 1 or tpl.n_obs > 1)):
                    grad = lambda x, prob=prob: _score_alone(prob, x)   # noqa: E731
                else:
                    grad = lambda x, o=o: central_diff_grad(            # noqa: E731
                        lambda points: lean[o]([(o, np.array(points))])[0], x,
                        estimate._FD_STEP)
                out.append((lambda x, o=o: float(lean[o]([(o, x[None])])[0][0]), grad))
            return out
        return lean, [pairs] * len(problems)

    def sequential_minimize(evaluate, starts, gtol, maxiter):
        results = []
        for i, x0 in enumerate(starts):
            objective, grad = evaluate([(i, x0)])[0]
            results.append(minimize(objective, x0, jac=grad, method="BFGS",
                                    options={"gtol": gtol, "maxiter": maxiter}))
        return OptimizeResult(results=results, nfev=sum(r.nfev for r in results),
                              nit=sum(r.nit for r in results))

    monkeypatch.setattr(estimate, "_evaluators", split)
    monkeypatch.setattr(estimate, "minimize", sequential_minimize)


def _simulate(spec, horizon, n_participants, seed, kind="fixed", miss=0.2):
    sched = es.PingSchedule(kind=kind, horizon=horizon, interval=1.0,
                            max_jitter=0.4 if kind == "jittered" else 0.0)
    data = es.simulate_dataset(spec, sched, n_participants=n_participants, rng_seed=seed)
    if miss:
        data = es.inject_missingness(data, es.MissingnessSpec("MCAR", miss), seed + 1)
    return data


def _passes(templates, opts):
    """The passes a case's searches make: none (particle fits), lean only,
    or also the stored passes of the exact score (a discrete-time template
    with more than one state or channel)."""
    if opts.likelihood != "kalman":
        return None
    return "score" if any(t.time_mode == "discrete" and (t.n_states > 1 or t.n_obs > 1)
                          for t in templates) else "lean"


def _fit_case(template, pmap, data, mode, opts):
    """A case of one fit call, run the same way both times."""
    def run():
        r = es.fit(template, pmap, data, mode=mode, options=opts)
        return r if mode == "idiographic" else [r]
    return run, run, _passes([template], opts)


def _var2_inputs():
    truth = es.ModelSpec(A=[[0.6, 0.15], [0.1, 0.5]], Sigma=np.diag([1.0, 0.8]),
                         Theta=np.diag([0.4, 0.4]))
    pmap = es.ParameterMap({"A": [["free", "free"], ["free", "free"]],
                            "Sigma": [["free", "fixed"], ["fixed", "free"]],
                            "Theta": [["free", "fixed"], ["fixed", "free"]]})
    data = _simulate(truth, 40.0, 3, seed=41)
    p = data.participants[2]        # one shorter series
    data.participants[2] = es.Participant(p.pid, p.timestamps[:28], p.Y[:28],
                                          p.missing[:28], p.U[:28])
    return truth, pmap, data


def _pooled_var2():
    return _fit_case(*_var2_inputs(), "pooled", FitOptions(n_restarts=3, max_iter=60, seed=2))


def _idiographic_var2():
    """12 participants of ragged lengths, 3 restarts each: a round's stored
    pass holds up to 36 searches' iterates, so it runs the elementwise
    recursion (at least ``_STACK_MIN_MEMBERS_SMALL`` members), while each
    search alone runs the float form on its one member."""
    truth, pmap, _ = _var2_inputs()
    data = _simulate(truth, 30.0, 12, seed=43)
    for i, k in ((1, 21), (4, 12), (7, 25)):
        p = data.participants[i]
        data.participants[i] = es.Participant(p.pid, p.timestamps[:k], p.Y[:k],
                                              p.missing[:k], p.U[:k])
    run, sequential, passes = _fit_case(truth, pmap, data, "idiographic",
                                        FitOptions(n_restarts=3, max_iter=40, seed=8))

    def fused():
        widths, kalman_pass = [], estimate._kalman_pass

        def counted(segments, stack, store=False):
            widths.append(store * sum(len(thetas) for _, thetas in segments))
            return kalman_pass(segments, stack, store)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimate, "_kalman_pass", counted)
            out = run()
        assert max(widths) >= filtering._STACK_MIN_MEMBERS_SMALL
        return out
    return fused, sequential, passes


def _idiographic_ar1():
    truth = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.5]])
    pmap = es.ParameterMap({"A": [["free"]], "Sigma": [["free"]], "Theta": [["free"]]})
    data = _simulate(truth, 40.0, 3, seed=7)
    return _fit_case(truth, pmap, data, "idiographic", FitOptions(n_restarts=2, max_iter=60,
                                                                  seed=1))


def _continuous_time():
    truth = es.to_continuous(es.ModelSpec(A=[[0.6]], Sigma=[[1.0]], Theta=[[0.3]]), 1.0)
    pmap = es.ParameterMap({"A": [["free"]], "Sigma": [["free"]]})
    data = _simulate(truth, 40.0, 2, seed=33, kind="jittered", miss=0.0)
    return _fit_case(truth, pmap, data, "pooled", FitOptions(n_restarts=1, max_iter=30, seed=0))


def _idiographic_continuous_time():
    truth = es.to_continuous(es.ModelSpec(A=[[0.6]], Sigma=[[1.0]], Theta=[[0.3]]), 1.0)
    pmap = es.ParameterMap({"A": [["free"]], "Sigma": [["free"]], "Theta": [["free"]]})
    data = _simulate(truth, 30.0, 3, seed=19, kind="jittered")
    for i, k in ((1, 21), (2, 12)):         # ragged lengths
        p = data.participants[i]
        data.participants[i] = es.Participant(p.pid, p.timestamps[:k], p.Y[:k],
                                              p.missing[:k], p.U[:k])
    return _fit_case(truth, pmap, data, "idiographic", FitOptions(n_restarts=2, max_iter=40,
                                                                  seed=4))


def _particle():
    ch = es.MeasurementChannel(family="poisson", scale=1.0, link="log")
    truth = es.ModelSpec(A=[[0.5]], Sigma=[[0.4]], Theta=[[0.0]], channels=(ch,))
    data = _simulate(truth, 30.0, 1, seed=15, miss=0.0)
    opts = FitOptions(n_restarts=1, max_iter=15, tol=1e-2, likelihood="particle",
                      n_particles=100, particle_seed=7)
    return _fit_case(truth, es.ParameterMap({"A": [["free"]]}), data, "pooled", opts)


def _candidates_case(candidates, opts):
    """A compare: one fit_candidates call, against one fit per candidate."""
    return (lambda: estimate.fit_candidates(candidates, opts),
            lambda: [es.fit(*c, mode="pooled", options=opts) for c in candidates],
            _passes([c[0] for c in candidates], opts))


def _mixed_candidates():
    """Candidates of every kind: two 1x1 discrete-time templates (one a
    random walk) and two 1x1 continuous-time ones on one jittered cohort,
    whose searches share passes, and a 2x2 score template on its own data."""
    ar1 = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], G=[[0.8]], Theta=[[0.5]])
    ct = es.to_continuous(ar1, 1.0)
    data = _simulate(ct, 30.0, 3, seed=23, kind="jittered")
    free = {"A": [["free"]], "Sigma": [["free"]], "Theta": [["free"]]}
    walk = dataclasses.replace(ar1.with_matrices(A=[[1.0]], initial_cov=[[4.0]]),
                               random_walk_states={0})
    return _candidates_case([
        (ar1, es.ParameterMap(free), data),
        (walk, es.ParameterMap({"G": [["free"]], "Sigma": [["free"]], "Theta": [["free"]]}),
         data),
        _var2_inputs(),
        (ct, es.ParameterMap({"A": [["free"]], "Sigma": [["free"]]}), data),
        (ct, es.ParameterMap(free), data)], FitOptions(n_restarts=2, max_iter=30, seed=5))


def _var2_candidates():
    """Two 2x2 score templates on one dataset, whose searches share stored
    passes, and one on data with a different participant count."""
    truth, pmap, data = _var2_inputs()
    diagonal = es.ParameterMap({**pmap.statuses, "A": [["free", "fixed"], ["fixed", "free"]],
                                "Sigma": [["free", "free"], ["free", "free"]]})
    return _candidates_case([(truth, pmap, data), (truth, diagonal, data),
                             (truth, pmap, _simulate(truth, 25.0, 4, seed=47))],
                            FitOptions(n_restarts=2, max_iter=40, seed=9))


def _narrow_passes():
    """The mixed candidates in passes of at most 30 members (10 points of 3
    participants): a round's blocks split over several passes, and a pass
    may hold two candidates."""
    fused, sequential, kalman = _mixed_candidates()

    def narrow():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimate, "_PASS_MEMBERS", 30)
            return fused()
    return narrow, sequential, kalman


def _disturbance_codings():
    """compare_disturbance_codings, against one fit per candidate's coded
    data, ranked."""
    truth = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], G=[[1.0]], Theta=[[0.5]])
    sched = es.PingSchedule(kind="fixed", horizon=40.0, interval=1.0)
    event = es.DisturbanceEvent(onset=20.0, coding="persistent", magnitude=3.0)
    data = es.simulate_dataset(truth, sched, events=[event], n_participants=3, rng_seed=11)
    pmap = es.ParameterMap({"A": [["free"]], "G": [["free"]], "Sigma": [["free"]]})
    codings = [[es.DisturbanceEvent(onset=20.0, coding="pulse", magnitude=3.0)],
               [event],
               [es.DisturbanceEvent(onset=20.0, coding="geometric_decay", magnitude=3.0,
                                    decay_ratio=0.5)]]
    opts = FitOptions(n_restarts=2, max_iter=60, seed=3)

    def coded(events):
        d = data.copy()
        for p in d.participants:
            enc = es.encode_disturbance(list(events), p.timestamps, truth.n_inputs)
            for slot in sorted({e.input_slot for e in events}):
                p.U[:, slot] = enc[:, slot]
        return d

    labels = ["pulse", "persistent", "geometric"]
    return (lambda: es.compare_disturbance_codings(truth, pmap, data, codings, opts,
                                                   labels).rows,
            lambda: es.rank_fits(labels, [es.fit(truth, pmap, coded(c), options=opts)
                                          for c in codings]).rows, "lean")


@pytest.mark.parametrize("case", [_pooled_var2, _idiographic_ar1, _continuous_time,
                                  _idiographic_continuous_time, _particle,
                                  _mixed_candidates, _narrow_passes,
                                  _disturbance_codings, _idiographic_var2, _var2_candidates])
def test_fused_search_equals_the_sequential_search_bit_for_bit(monkeypatch, case):
    fused_run, sequential_run, passes = case()
    flags = []              # per _kalman_pass call, whether it stored its moments
    kalman_pass = estimate._kalman_pass

    def counted(segments, stack, store=False):
        flags.append(store)
        return kalman_pass(segments, stack, store)
    monkeypatch.setattr(estimate, "_kalman_pass", counted)

    fused = [_bits(x) for x in fused_run()]
    n_fused = len(flags)
    with monkeypatch.context() as m:
        _sequential(m)
        sequential = [_bits(x) for x in sequential_run()]
    assert fused == sequential
    lean, kept = ([runs.count(kind) for runs in (flags[:n_fused], flags[n_fused:])]
                  for kind in (False, True))
    if passes:                  # fewer lean passes than the sequential run
        assert 0 < lean[0] < lean[1]
    if passes == "score":       # and fewer stored passes
        assert 0 < kept[0] < kept[1]


def _failing_candidates():
    """A healthy 1x1 candidate and three that fail fit's checks, each in
    its own way."""
    ar1 = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.5]])
    data = _simulate(ar1, 20.0, 2, seed=3)
    free = es.ParameterMap({"A": [["free"]]})
    counts = dataclasses.replace(ar1, channels=(es.MeasurementChannel(family="poisson"),))
    var2, var2_map, _ = _var2_inputs()
    return (ar1, free, data), {
        "nothing free": (ar1, es.ParameterMap({}), data),
        "non-Gaussian": (counts, free, data),
        "wrong channels": (var2, var2_map, data)}


@pytest.mark.parametrize("order", [("nothing free", "non-Gaussian", "wrong channels"),
                                   ("wrong channels", "nothing free", "non-Gaussian"),
                                   ("non-Gaussian", "wrong channels", "nothing free")])
def test_a_candidate_failing_its_checks_raises_what_its_own_fit_raises_in_order(
        monkeypatch, order):
    healthy, failing = _failing_candidates()
    with pytest.raises(es.EmaError) as want:
        es.fit(*failing[order[0]])
    monkeypatch.setattr(estimate, "minimize", None)     # no search starts
    with pytest.raises(es.EmaError) as got:
        estimate.fit_candidates([healthy] + [failing[name] for name in order])
    assert (got.value.code, got.value.message) == (want.value.code, want.value.message)


class _Searching(Exception):
    """The lockstep search was reached."""


@pytest.mark.parametrize("cured", [True, False])
def test_start_checks_try_a_later_start_only_where_every_earlier_one_is_penalized(
        monkeypatch, cured):
    """Three candidates of one group, 3 starts each: every problem's first
    start goes in one lean call, then each later start only for the
    problems whose earlier ones were all penalized.  A problem with no
    finite start stops the fit before any search."""
    ar1 = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.5]])
    data = _simulate(ar1, 20.0, 2, seed=3)
    free = es.ParameterMap({"A": [["free"]], "Sigma": [["free"]]})
    penalized = {(1, 0), (2, 0), (2, 1)} | (set() if cured else {(2, 2)})
    calls, evaluators = [], estimate._evaluators

    def counting(problems, options, penalty):
        lean, rounds = evaluators(problems, options, penalty)

        def checked(segments):
            calls.append([j for j, _ in segments])
            tries = len(calls) - 1          # each call tries one start of each problem
            return [np.where((j, tries) in penalized, penalty, v)
                    for (j, _), v in zip(segments, lean[0](segments))]
        return [checked] * len(problems), rounds

    def searching(*args, **kwargs):
        raise _Searching
    monkeypatch.setattr(estimate, "_evaluators", counting)
    monkeypatch.setattr(estimate, "minimize", searching)
    with pytest.raises(_Searching if cured else es.EmaError) as got:
        estimate.fit_candidates([(ar1, free, data)] * 3, FitOptions(n_restarts=3))
    assert calls == [[0, 1, 2], [1, 2], [2]]
    if not cured:
        assert got.value.code == "NONFINITE_LIKELIHOOD"


# --- a point's value does not depend on its stack ------------------------------

def _cohort(rng, p, q, n_people, irregular=False):
    """Participants of unequal lengths with missing cells (one nearly empty);
    with ``irregular``, pinged at gaps of 0.2 to 4 h or, one in four, 1 to 3
    days, the first gap 2 days."""
    people = []
    for i in range(n_people):
        T = int(rng.integers(2, 25))
        Y = rng.normal(size=(T, p))
        missing = rng.random((T, p)) < 0.3
        if i == 1:
            missing[1:] = True
        U, t = rng.normal(size=(T, q)), np.arange(T, dtype=float)
        if irregular:
            gaps = np.where(rng.random(T) < 0.25, rng.uniform(24.0, 72.0, T),
                            rng.uniform(0.2, 4.0, T))
            gaps[1] = 48.0
            t = np.cumsum(gaps)
        people.append(es.Participant(f"p{i}", t, Y, missing, U))
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
CONTINUOUS = (es.ModelSpec(A=[[-0.5, 0.1], [0.0, -0.4]], Sigma=[[1.0, 0.2], [0.2, 0.8]],
                           G=[[0.3], [0.0]], Theta=np.diag([0.4, 0.3]), time_mode="continuous",
                           initial_cov=np.eye(2)),
              MATRIX[1])
MODELS = {"scalar": SCALAR, "matrix": MATRIX, "continuous": CONTINUOUS}


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(list(MODELS)), n_people=st.integers(1, 3),
       n_others=st.integers(1, 12), overflow=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# Sigma[0, 0] overflows and reaches only an all-missing last ping
@example(model="matrix", n_people=1, n_others=1, overflow=True, seed=27)
def test_a_point_s_value_does_not_depend_on_the_other_points_of_its_stack(
        model, n_people, n_others, overflow, seed):
    template, pmap = MODELS[model]
    rng = np.random.default_rng(seed)
    people = _cohort(rng, template.n_obs, template.n_inputs, n_people,
                     irregular=model == "continuous")
    par = Parameterization(template, pmap)
    stack = _stack_participants(template, people)
    x0 = par.start_vector()
    points = x0 + rng.normal(scale=0.5, size=(n_others + 1, par.n_free))
    at = int(rng.integers(0, n_others + 1))
    big = (at + 1) % (n_others + 1)         # the neighbour that overflows
    if overflow and model == "continuous":  # its drift: exp(40/h x 48 h) is inf
        points[big, [("A", (0, 0)) in s.targets for s in par.slots]] = 40.0
    elif overflow:                          # its log-sd: exp(400) is inf
        log_sd = [k for k, s in enumerate(par.slots) if s.transform in ("log_sd", "chol_diag")]
        points[big, rng.choice(log_sd)] = 400.0
    # 1x1: alone runs the float loop per member (fewer than _STACK_MIN_MEMBERS),
    # the stack runs it too or the elementwise branch, depending on its size
    together = _stacked_objectives(par, stack, PENALTY, points)
    for k in (at, big):
        alone = _stacked_objectives(par, stack, PENALTY, points[k:k + 1])
        assert alone[0].tobytes() == together[k].tobytes()
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
