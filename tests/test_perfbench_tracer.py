"""The benchmark's outside tracer still fits the package.

``perfbench/spans.py`` wraps functions where each module binds them (for
example ``discretize`` in ``filtering`` and ``simulate``, ``minimize`` in
``estimate`` and ``Parameterization.unpack``); renaming or dropping one of
those bindings would break ``perfbench/run.py --trace 1``.
"""

from pathlib import Path

from emastate import filtering, model, simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = {owner: owner.discretize for owner in (filtering, simulate)}
    tracer = spans.Tracer().install()
    try:
        assert all(owner.discretize is not orig for owner, orig in originals.items())
    finally:
        tracer.uninstall()
    assert all(owner.discretize is orig for owner, orig in originals.items())
    assert filtering.discretize is model.discretize


def test_traced_pooled_fit_completes_and_counts_iterations(monkeypatch):
    """The tracer wraps ``estimate.minimize`` and ``Parameterization.unpack``;
    a fit must run through both wrappers and give the untraced answer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import emastate as es

    truth = es.ModelSpec(A=[[0.5]], Sigma=[[1.0]], Theta=[[0.5]])
    sched = es.PingSchedule(kind="fixed", horizon=30.0, interval=1.0)
    data = es.simulate_dataset(truth, sched, n_participants=2, rng_seed=3)
    pmap = es.ParameterMap({"A": [["free"]], "Sigma": [["free"]]})
    opts = es.FitOptions(n_restarts=2, max_iter=40)

    def run():
        r = es.fit(truth, pmap, data, options=opts)
        return r.theta_hat.tobytes(), r.log_likelihood, r.restart_objectives

    untraced = run()
    tracer = spans.Tracer().install()
    try:
        traced = tracer.operation(0, run)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.layer_metrics([0])["estimate.nit"] > 0
    assert tracer.counts[0]["estimate.unpack"] == 1     # the fitted spec
