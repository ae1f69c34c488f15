"""The benchmark's outside tracer still fits the package.

``perfbench/spans.py`` wraps functions where each module binds them (for
example ``discretize`` in ``filtering`` and ``simulate``); renaming or
dropping one of those bindings would break ``perfbench/run.py --trace 1``.
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
