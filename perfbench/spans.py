"""Spans and counts recorded from outside the program.

A :class:`Tracer` replaces public functions on emastate's modules with
wrappers that open a span (name, layer, start, end, parent span, operation
id) and record counts at the same boundary.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original back.

Self time follows the usual rule: a span's duration minus the part of it
that its child spans cover.  Calls are sequential in one thread, so the
children never overlap and that part is the sum of their durations.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np

from emastate import cli, dataio, estimate, filtering, simulate
from emastate.errors import EmaError

ROOT = "bench.op"
RECOVERABLE = ("SINGULAR_INNOVATION", "DEGENERATE_WEIGHTS", "NON_FINITE", "NEGATIVE_RATE")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _rows(data) -> int:
    return sum(p.n_pings for p in data.participants)


class Tracer:
    """In-memory spans plus per-operation counts."""

    def __init__(self):
        self.spans: list[list] = []     # [name, layer, start, end, parent, op, child_s]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._stack.pop()
        if span[4] is not None:
            self.spans[span[4]][6] += span[3] - span[2]

    def count(self, key: str, value: float = 1) -> None:
        self.counts[self.op][key] += value

    def operation(self, op_id: int, fn):
        """Run ``fn`` as operation ``op_id`` under a root span."""
        self.op = op_id
        idx = self._open(ROOT, "bench")
        try:
            return fn()
        finally:
            self._close(idx)

    # -- wrappers ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, layer: str,
              on_return=None, on_error=None):
        """Wrap ``owner.attr`` in a span.  ``on_return(tracer, args, kwargs,
        result)`` and ``on_error(tracer, args, kwargs, err)`` record counts;
        every EmaError is also counted by its code."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = orig(*args, **kwargs)
            except EmaError as err:
                tracer._close(idx)
                tracer.count(f"{name}.error.{err.code}")
                if on_error is not None:
                    on_error(tracer, args, kwargs, err)
                raise
            except BaseException:
                tracer._close(idx)
                raise
            tracer._close(idx)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self) -> "Tracer":
        """Wrap the public functions of every layer, as each caller binds them."""
        self.patch(cli, "main", "cli.main", "cli")
        self.patch(dataio, "read_dataset", "dataio.read_dataset", "dataio",
                   lambda tr, a, k, r: tr.count("dataio.rows", _rows(r)))
        self.patch(dataio, "write_dataset", "dataio.write_dataset", "dataio",
                   lambda tr, a, k, r: tr.count("dataio.rows", _rows(a[0])))
        for owner in (cli, simulate):
            self.patch(owner, "run_scenario", "simulate.run_scenario", "simulate",
                       lambda tr, a, k, r: tr.count("simulate.pings", _rows(r)))
        for owner, who in ((filtering, "filtering"), (simulate, "simulate")):
            self.patch(owner, "discretize", "model.discretize", "model",
                       functools.partial(_count_discretize, who=who))
        for owner, who in ((cli, "cli"), (estimate, "estimate")):
            for fn, y_pos in (("kalman_filter", 1), ("kalman_filter_ct", 2),
                              ("particle_filter", 1)):
                self._patch_filter(owner, fn, y_pos, who)
        self._patch_filter(filtering, "kalman_smooth", 1, "bench")
        self.patch(cli, "fit", "estimate.fit", "estimate")
        self.patch(estimate, "minimize", "estimate.minimize", "estimate", _count_minimize)
        self.patch(estimate.Parameterization, "unpack", "estimate.unpack", "estimate",
                   lambda tr, a, k, r: tr.count("estimate.unpack"))
        return self

    def _patch_filter(self, owner, fn: str, y_pos: int, who: str) -> None:
        """Filter calls count pings and gaps; as bound in ``estimate`` they
        also count likelihood evaluations the objective penalizes."""
        name = f"filtering.{fn}"
        in_fit = who == "estimate"

        def on_return(tr, args, kwargs, result):
            T = np.atleast_2d(np.asarray(_arg(args, kwargs, y_pos, "y"))).shape[0]
            tr.count(f"{name}.pings", T)
            if args[0].time_mode == "continuous":
                tr.count("filtering.gaps", max(T - 1, 0))
            if in_fit:
                tr.count("estimate.filter_calls")
                if not math.isfinite(result.log_likelihood):
                    tr.count("estimate.penalized")

        def on_error(tr, args, kwargs, err):
            if in_fit:
                tr.count("estimate.filter_calls")
                if err.code in RECOVERABLE:
                    tr.count("estimate.penalized")

        self.patch(owner, fn, name, "filtering", on_return, on_error)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def op_seconds(self, op_id: int) -> float:
        for s in self.spans:
            if s[0] == ROOT and s[5] == op_id:
                return s[3] - s[2]
        raise KeyError(op_id)

    def to_json(self) -> dict:
        return {"fields": ["name", "layer", "start", "end", "parent", "op", "child_s"],
                "spans": self.spans,
                "counts": {str(k): dict(v) for k, v in self.counts.items()}}

    def layer_metrics(self, op_ids: list[int]) -> dict:
        """Per-layer metrics averaged over the given operations."""
        ops = set(op_ids)
        n = max(len(ops), 1)
        calls: Counter = Counter()
        dur: Counter = Counter()
        self_s: Counter = Counter()
        for name, layer, start, end, parent, op, child in self.spans:
            if op not in ops:
                continue
            calls[name] += 1
            dur[name] += end - start
            self_s[name] += end - start - child
        c: Counter = Counter()
        for op in ops:
            c.update(self.counts[op])

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        kal = ("filtering.kalman_filter", "filtering.kalman_filter_ct")
        kal_self = sum(self_s[k] for k in kal)
        kal_calls = sum(calls[k] for k in kal)
        kal_pings = sum(c[f"{k}.pings"] for k in kal)
        disc_calls = calls["model.discretize"]
        unpacks = calls["estimate.unpack"]
        fits = calls["estimate.fit"]
        errors = Counter()
        for key, v in c.items():
            if ".error." in key and key.startswith("filtering."):
                code = key.rsplit(".", 1)[1]
                errors[code if code in RECOVERABLE else "other"] += v
        filtering_self = sum(v for k, v in self_s.items() if k.startswith("filtering."))
        estimate_self = self_s["estimate.fit"] + self_s["estimate.minimize"]
        op_total = dur[ROOT]
        m = {
            "cli.self_s": self_s["cli.main"] / n,
            "cli.calls": calls["cli.main"] / n,
            "dataio.read_s": dur["dataio.read_dataset"] / n,
            "dataio.write_s": dur["dataio.write_dataset"] / n,
            "dataio.rows": c["dataio.rows"] / n,
            "simulate.pings": c["simulate.pings"] / n,
            "simulate.us_per_ping": ratio(self_s["simulate.run_scenario"],
                                          c["simulate.pings"], 1e6),
            "simulate.self_s": self_s["simulate.run_scenario"] / n,
            "model.discretize_calls": disc_calls / n,
            "model.discretize_us": ratio(dur["model.discretize"], disc_calls, 1e6),
            "model.self_s": self_s["model.discretize"] / n,
            "filtering.kalman_calls": kal_calls / n,
            "filtering.kalman_us_per_ping": ratio(kal_self, kal_pings, 1e6),
            "filtering.kalman_us_per_call": ratio(kal_self, kal_calls, 1e6),
            "filtering.kalman_ct_self_us_per_ping": ratio(
                self_s["filtering.kalman_filter_ct"],
                c["filtering.kalman_filter_ct.pings"], 1e6),
            "filtering.gap_cache_hit_ratio": (
                1.0 - c["discretize.filtering"] / c["filtering.gaps"]
                if c["filtering.gaps"] else 0.0),
            "filtering.smooth_us_per_ping": ratio(self_s["filtering.kalman_smooth"],
                                                  c["filtering.kalman_smooth.pings"], 1e6),
            "filtering.particle_us_per_ping": ratio(self_s["filtering.particle_filter"],
                                                    c["filtering.particle_filter.pings"], 1e6),
            "filtering.ping_steps": sum(v for k, v in c.items() if k.startswith("filtering.")
                                        and k.endswith(".pings")) / n,
            "filtering.self_s": filtering_self / n,
            "filtering.errors": sum(errors.values()) / n,
            "estimate.objective_evals": (unpacks - fits) / n,
            "estimate.nfev": c["estimate.nfev"] / n,
            "estimate.nit": c["estimate.nit"] / n,
            "estimate.penalized_ratio": ratio(c["estimate.penalized"],
                                              c["estimate.filter_calls"]),
            "estimate.unpack_us": ratio(dur["estimate.unpack"], unpacks, 1e6),
            "estimate.unpack_s": self_s["estimate.unpack"] / n,
            "estimate.self_s": estimate_self / n,
            "trace.op_s": op_total / n,
            "trace.remainder_s": self_s[ROOT] / n,
            "trace.accounted_ratio": ratio(op_total - self_s[ROOT], op_total),
            "trace.spans": sum(calls.values()) / n,
        }
        for code in RECOVERABLE + ("other",):
            m[f"filtering.errors.{code}"] = errors[code] / n
        return m


def _count_discretize(tr, args, kwargs, result, who):
    tr.count(f"discretize.{who}")


def _count_minimize(tr, args, kwargs, result):
    tr.count("estimate.nfev", int(result.nfev))
    tr.count("estimate.nit", int(result.nit))
