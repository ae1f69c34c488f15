"""Property tests for the stacked Kalman recursion.

One pass runs a (specs, participants) stack: every member must reproduce
the joint-normal log-likelihood of its own observed cells, whatever the
missingness pattern or the padding of a shorter participant, and a member
that fails must fail alone.  A 1x1 stack must reproduce the float loop,
``_kalman_pass_scalar``, bit for bit on either side of the member count
at which it stops running that loop per member.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emastate as es
from emastate.errors import EmaError
from emastate import filtering
from emastate.filtering import _kalman_pass_scalar, _kalman_stack

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


# --- the 1x1 branch: each member is the float loop, bit for bit --------------

def _scalar_stack_case(rng, n_specs, n_people, q, miss_frac, per_step=False):
    """Random 1x1 specs (one a random walk) over ragged participants with
    MCAR cells, fully missing runs and maybe one all-missing participant;
    with ``per_step`` every step gets its own transition, as in continuous
    time."""
    lengths = rng.integers(1, 40, size=n_people)
    T = int(lengths.max())
    y = np.zeros((n_people, T, 1)); obs = np.zeros((n_people, T, 1), dtype=bool)
    u = np.zeros((n_people, T, q))
    for r, L in enumerate(lengths):
        y[r, :L] = rng.normal(scale=2.0, size=(L, 1))
        obs[r, :L] = rng.uniform(size=(L, 1)) >= miss_frac
        u[r, :L] = rng.normal(size=(L, q))
    if n_people > 1 and rng.uniform() < 0.3:
        obs[int(rng.integers(n_people))] = False
    y[~obs] = np.nan

    def arr(*shape_and_draw):
        return np.array(shape_and_draw[0]).reshape((n_specs, 1) + shape_and_draw[1])

    a = rng.uniform(-1.2, 1.2, size=n_specs)
    a[int(rng.integers(n_specs))] = 1.0
    spec = dict(A=arr(a, (1, 1)), Sigma=arr(rng.uniform(0.0, 2.0, n_specs), (1, 1)),
                G=arr(rng.normal(size=(n_specs, q)), (1, q)),
                H=arr(rng.normal(size=n_specs), (1, 1)),
                Theta=arr(rng.uniform(0.01, 2.0, n_specs), (1, 1)),
                mu0=arr(rng.normal(size=n_specs), (1,)),
                P0=arr(rng.uniform(0.0, 3.0, n_specs), (1, 1)))
    step = (spec["A"], spec["Sigma"], spec["G"])
    spec["trans"] = ([tuple(x * rng.uniform(0.5, 1.0) for x in step) for _ in range(T - 1)]
                     if per_step else [step] * (T - 1))
    return y, obs, u, lengths, spec


def _stack_1x1(y, obs, u, lengths, spec, store):
    return _kalman_stack(y, obs, u, spec["mu0"], spec["P0"], spec["H"], spec["Theta"],
                         spec["trans"], store=store, lengths=lengths)


def _float_loop(y, obs, u, lengths, spec, i, r):
    L = lengths[r]
    m = {k: v[i, 0] for k, v in spec.items() if k != "trans"}
    steps = [tuple(x[i, 0] for x in step) for step in spec["trans"][:L - 1]]
    return _kalman_pass_scalar(y[r, :L], ~obs[r, :L], u[r, :L], m["mu0"], m["P0"],
                               m["H"], m["Theta"], steps)


@settings(max_examples=60, deadline=None)
@given(n_specs=st.integers(1, 4), n_people=st.integers(1, 6), q=st.integers(0, 1),
       miss_frac=st.floats(0.0, 0.9), threshold=st.sampled_from([1, 10**9]),
       per_step=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_scalar_stack_members_equal_the_float_loop_bit_for_bit(
        n_specs, n_people, q, miss_frac, threshold, per_step, seed):
    rng = np.random.default_rng(seed)
    case = _scalar_stack_case(rng, n_specs, n_people, q, miss_frac, per_step)
    y, obs, u, lengths, spec = case
    with pytest.MonkeyPatch.context() as mp:     # elementwise or one loop per member
        mp.setattr(filtering, "_STACK_MIN_MEMBERS", threshold)
        lean = _stack_1x1(*case, store=False)
        stored = _stack_1x1(*case, store=True)
    assert not lean.fail.any() and not stored.fail.any()
    for i in range(n_specs):
        for r in range(n_people):
            L = lengths[r]
            *moments, terms = _float_loop(*case, i, r)
            assert stored.loglik[i, r, :L].tobytes() == terms.tobytes()
            assert lean.loglik[i, r] == terms.sum()
            for got, want in zip(stored.moments, moments):
                assert got[i, r, :L].tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(n_specs=st.integers(2, 4), n_people=st.integers(1, 4),
       threshold=st.sampled_from([1, 10**9]), seed=st.integers(0, 2**32 - 1))
def test_scalar_member_with_zero_innovation_variance_fails_alone(n_specs, n_people,
                                                                  threshold, seed):
    rng = np.random.default_rng(seed)
    y, obs, u, lengths, spec = _scalar_stack_case(rng, n_specs, n_people, 1, 0.4)
    for r, L in enumerate(lengths):       # every participant observes something
        obs[r, int(rng.integers(L))] = True
    y[obs] = rng.normal(size=int(obs.sum()))
    k = int(rng.integers(n_specs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtering, "_STACK_MIN_MEMBERS", threshold)
        clean = _stack_1x1(y, obs, u, lengths, spec, store=False)
        spec["H"][k], spec["Theta"][k] = 0.0, 0.0        # s = 0 at its first observed ping
        res = _stack_1x1(y, obs, u, lengths, spec, store=False)

    assert (res.fail[k] == filtering._SINGULAR).all()
    np.testing.assert_array_equal(res.fail_ping[k], obs[:, :, 0].argmax(axis=1))
    others = np.arange(n_specs) != k
    assert not res.fail[others].any()
    assert res.loglik[others].tobytes() == clean.loglik[others].tobytes()


# --- the stored pass: zero terms where a member observes nothing -------------

def test_stored_term_is_positive_zero_where_only_another_member_observes():
    spec = es.ModelSpec(A=[[0.5, 0.1], [0.0, 0.6]], Sigma=np.eye(2), Theta=0.5 * np.eye(2))
    y = np.ones((2, 3, 2))
    obs = np.ones((2, 3, 2), dtype=bool)
    obs[1, 1] = False                     # member 1 sees nothing at ping 1; member 0 does
    trans = [(spec.A, spec.Sigma, spec.G)] * 2
    res = _kalman_stack(y, obs, np.zeros((2, 3, 0)), spec.initial_mean, spec.initial_cov,
                        spec.H, spec.Theta, trans, store=True)
    assert res.loglik[1, 1] == 0.0 and not np.signbit(res.loglik[1, 1])
    single = es.kalman_filter(spec, y[1], ~obs[1])
    assert res.loglik[1].tobytes() == single.loglik_contributions.tobytes()


# --- the cohort pass of CLI filter: each participant's own call, bit for bit ---

COHORT_MODELS = ["1x1 discrete", "2x2 discrete", "2x2 continuous"]


def _cohort_spec(model, **kw):
    if model == "1x1 discrete":
        return es.ModelSpec(A=[[0.6]], Sigma=[[0.8]], G=[[0.3]], Theta=[[0.5]], **kw)
    A = [[0.5, 0.15], [-0.1, 0.6]] if model == "2x2 discrete" else [[-0.3, 0.1], [0.05, -0.5]]
    return es.ModelSpec(A=A, Sigma=[[1.0, 0.2], [0.2, 0.7]], G=[[0.3], [-0.2]],
                        H=[[1.0, 0.0], [0.4, 1.0]], Theta=[[0.5, 0.1], [0.1, 0.4]],
                        time_mode="discrete" if model == "2x2 discrete" else "continuous",
                        **kw)


def _cohort_people(rng, spec, lengths, miss_frac=0.3):
    """Participants of the given lengths; the third sees nothing at all.  Gaps
    are irregular, with shared 3 h steps and overnight gaps."""
    people = []
    for i, T in enumerate(lengths):
        gaps = np.where(rng.uniform(size=T) < 0.4, 3.0, rng.uniform(0.2, 6.0, T))
        gaps[rng.uniform(size=T) < 0.15] = 14.0
        missing = rng.uniform(size=(T, spec.n_obs)) < miss_frac
        missing[rng.uniform(size=T) < 0.2] = True
        if i == 2:
            missing[:] = True
        Y = np.where(missing, np.nan, rng.normal(size=(T, spec.n_obs)))
        people.append(SimpleNamespace(pid=f"p{i + 1:03d}", Y=Y, missing=missing,
                                      U=rng.normal(size=(T, 1)),
                                      timestamps=np.cumsum(gaps) - gaps[0]))
    return people


def _own_call(spec, p):
    if spec.time_mode == "continuous":
        return es.kalman_filter_ct(spec, p.timestamps, p.Y, p.missing, p.U)
    return es.kalman_filter(spec, p.Y, p.missing, p.U, timestamps=p.timestamps)


FILTER_FIELDS = ("timestamps", "predicted_mean", "predicted_cov", "filtered_mean",
                 "filtered_cov", "loglik_contributions", "missing")


@pytest.mark.parametrize("model", COHORT_MODELS)
@pytest.mark.parametrize("chunk", [3, 6, 64])
def test_cohort_pass_equals_each_participant_s_own_call_bit_for_bit(model, chunk,
                                                                     monkeypatch):
    # chunks of 6 run the 1x1 elementwise branch, chunks of 3 the float loop
    monkeypatch.setattr(filtering, "_COHORT_CHUNK", chunk)
    rng = np.random.default_rng(COHORT_MODELS.index(model))
    spec = _cohort_spec(model)
    people = _cohort_people(rng, spec, [9, 1, 14, 6, 11, 14, 3, 8])
    got = list(filtering._kalman_cohort(spec, people))
    assert len(got) == len(people)
    for p, r in zip(people, got):
        want = _own_call(spec, p)
        for name in FILTER_FIELDS:
            a, b = getattr(r, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (p.pid, name)
        assert r.log_likelihood == want.log_likelihood
        assert r.missing_handled == want.missing_handled


@pytest.mark.parametrize("model", COHORT_MODELS)
def test_cli_filter_equals_the_per_participant_loop_byte_for_byte(model, tmp_path):
    from emastate import dataio
    from emastate.cli import main
    from emastate.dataset import EmaDataset, Participant

    spec = _cohort_spec(model)
    rng = np.random.default_rng(7)
    people = [Participant(pid=p.pid, timestamps=p.timestamps, Y=p.Y, missing=p.missing,
                          U=p.U) for p in _cohort_people(rng, spec, [12, 1, 7, 12, 5, 9])]
    dataio.write_dataset(EmaDataset(people, ["a", "b"][:spec.n_obs], ["u"]),
                         tmp_path / "d.csv")
    spec.save(tmp_path / "m.json")
    assert main(["filter", "--data", str(tmp_path / "d.csv"), "--model",
                 str(tmp_path / "m.json"), "--method", "kalman",
                 "--out", str(tmp_path / "f.csv")]) == 0

    data = dataio.read_dataset(tmp_path / "d.csv")
    blocks = []
    for p in data.participants:
        rows = _own_call(spec, p).to_delimited(data.y_names).splitlines()
        blocks += ([f"participant_id,{rows[0]}"] if not blocks else [])
        blocks += [f"{p.pid},{row}" for row in rows[1:]]
    assert (tmp_path / "f.csv").read_text() == "\n".join(blocks) + "\n"


def _failing(spec, people, kind, rng):
    """Make ``people`` fail in the given way.  With Theta = 0 and a zero
    initial covariance, a participant who observes ping 0 has a singular
    innovation there; the others miss ping 0."""
    for p in people:
        if kind == "SINGULAR_INNOVATION":
            p.missing[0] = False
            p.Y[0] = rng.normal(size=spec.n_obs)
        else:
            p.missing[0] = True
            p.Y[0] = np.nan
            if kind == "NA_IN_U":
                p.U[3, 0] = np.nan
            elif kind == "NON_FINITE":            # an infinite observed value
                p.missing[4] = False
                p.Y[4] = np.inf
            elif kind == "NON_MONOTONE_TIME":
                p.timestamps[5] = p.timestamps[4]
            elif kind == "gap overflow":          # exp(0.05 * 1e4) overflows
                p.timestamps[6:] += 1e4


DATA_ERRORS = {"1x1 discrete": ["NA_IN_U", "NON_FINITE"],
               "2x2 discrete": ["NA_IN_U", "NON_FINITE"],
               "2x2 continuous": ["NA_IN_U", "NON_FINITE", "NON_MONOTONE_TIME",
                                  "gap overflow"]}


@pytest.mark.parametrize("model, data_error",
                         [(m, e) for m, errs in DATA_ERRORS.items() for e in errs])
@pytest.mark.parametrize("singular_first", [True, False])
def test_cohort_pass_raises_the_first_failure_in_file_order(model, data_error,
                                                            singular_first, monkeypatch):
    monkeypatch.setattr(filtering, "_COHORT_CHUNK", 3)
    rng = np.random.default_rng(11)
    n = 1 if model.startswith("1x1") else 2
    drift = [[0.05, 0.0], [0.1, -0.5]] if data_error == "gap overflow" else None
    spec = _cohort_spec(model, initial_cov=np.zeros((n, n)))
    spec = spec.with_matrices(Theta=np.zeros((n, n)), A=spec.A if drift is None else drift)
    people = _cohort_people(rng, spec, [9, 12, 7, 10, 11, 8, 12])
    for p in people:
        _failing(spec, [p], "healthy", rng)
    first, second = (4, 5) if singular_first else (5, 4)
    _failing(spec, [people[first]], "SINGULAR_INNOVATION", rng)
    _failing(spec, [people[second]], data_error, rng)

    with pytest.raises(EmaError) as want:
        for p in people:
            _own_call(spec, p)
    got = []
    with pytest.raises(EmaError) as err:
        for r in filtering._kalman_cohort(spec, people):
            got.append(r)
    assert (err.value.code, err.value.message) == (want.value.code, want.value.message)
    assert err.value.code == ("SINGULAR_INNOVATION" if singular_first else
                              "NON_FINITE" if data_error == "gap overflow" else data_error)
    assert len(got) == 4
