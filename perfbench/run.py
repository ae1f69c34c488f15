#!/usr/bin/env python3
"""emastate benchmark: one workload, one closed-loop client, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The harness times set-up (a fresh interpreter
that imports emastate and writes the workload's inputs, three times), then
repeats the operation for ``--seconds`` with each one starting after the
previous one ends.  A fixed calibration kernel runs in blocks around every
set-up and is sampled every 0.1 s inside every untraced operation; the
end-to-end times are scaled by it to a nominal host speed.  With
``--trace 1`` traced and untraced operations alternate.  Every output is
checked against independent references and byte-compared with the first
operation's.  With ``--trace 0`` it prints the
end-to-end metrics named in BENCHMARK.json, with ``--trace 1`` the per-layer
metrics of the traced operations.  A run record with versions, settings and
every sample goes to ``perfbench/out/records/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)       # before numpy loads its BLAS

import argparse          # noqa: E402
import json              # noqa: E402
import platform          # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import statistics        # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
import threading         # noqa: E402
import time              # noqa: E402
import traceback         # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
SETUP_TIMEOUT_S = 120
SETUP_CAL_S = 0.25      # calibration block before, between and after set-ups
SAMPLE_S = 0.1          # one calibration sample per this many seconds of an operation


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", dest="setup_only", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    return args


def import_program():
    """Put the checkout's sources first on the path; fail if they are absent."""
    if not (SRC / "emastate" / "__init__.py").is_file():
        sys.exit(f"error: no emastate sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def timed_setup(name: str, seed: int, work: Path, cal) -> tuple[list, list, Path]:
    """Set up SETUP_REPS times in fresh interpreters; inputs must agree byte for byte.
    Returns the wall times, the host slowdown around each, and the inputs."""
    samples, dirs, per_call = [], [], [cal.run(SETUP_CAL_S)]
    for k in range(SETUP_REPS):
        d = work / f"setup{k}"
        d.mkdir()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--setup-only", str(d),
                                 "--workload", name, "--seed", str(seed)],
                                cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # show in the sample; a timer enforces the limit instead.
        limit = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        limit.start()
        try:
            rc = proc.wait()
            samples.append(time.perf_counter() - t0)
        finally:
            limit.cancel()
        if rc != 0:
            raise RuntimeError(f"set-up exited with code {rc}")
        dirs.append(d)
        per_call.append(cal.run(SETUP_CAL_S))
    first = {f.name: f.read_bytes() for f in sorted(dirs[0].iterdir())}
    for d in dirs[1:]:
        if {f.name: f.read_bytes() for f in sorted(d.iterdir())} != first:
            raise RuntimeError("set-ups with one seed wrote different inputs")
    return samples, cal.between(per_call), dirs[0]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Loop:
    """Closed loop over one workload's operation, counting failures."""

    def __init__(self, workload, inputs: Path, seed: int, tracer, cal):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.tracer = tracer
        self.cal = cal
        self.ops: list[dict] = []
        self.reference: dict | None = None

    def attempt(self, traced: bool) -> dict:
        """Run the operation once.  An untraced one is sampled by the
        calibration kernel; its ``seconds`` exclude the samples."""
        op_id = len(self.ops)
        op = {"id": op_id, "traced": traced, "ok": False, "error": None}
        t0 = time.perf_counter()
        try:
            if traced:
                self.tracer.install()
                try:
                    outputs = self.tracer.operation(
                        op_id, lambda: self.workload.operation(self.inputs, self.seed))
                finally:
                    self.tracer.uninstall()
            else:
                sampler = self.cal.sampling(SAMPLE_S)
                with sampler:
                    outputs = self.workload.operation(self.inputs, self.seed)
        except Exception as exc:        # the loop keeps running; the op counts as failed
            op["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            outputs = None
        if traced:
            op["seconds"] = self.tracer.op_seconds(op_id)
        else:
            op["wall_s"] = time.perf_counter() - t0
            op["seconds"] = op["wall_s"] - sampler.seconds
            op["samples"] = sampler.calls
            op["slowdown"] = sampler.slowdown()
        op["stages"] = self.workload.stage_seconds()
        if outputs is not None:
            if self.reference is None:
                self.reference = outputs
            op["ok"] = outputs == self.reference
            if not op["ok"]:
                op["error"] = "outputs differ from the first operation's"
        self.ops.append(op)
        return op

    def repeat(self, seconds: float, alternate: bool) -> None:
        """Untraced operations for ``seconds``, at least one; with
        ``alternate`` each is followed by a traced one."""
        end = time.perf_counter() + seconds
        while True:
            self.attempt(traced=False)
            if alternate:
                self.attempt(traced=True)
            if time.perf_counter() >= end:
                return


def metric_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run(args) -> int:
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    import calibrate
    import numpy
    import scipy
    from spans import Tracer

    units = metric_table()[args.trace]
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    cal = calibrate.Calibration()
    try:
        setup_samples, setup_slow, inputs = timed_setup(workload.name, args.seed, work, cal)
        loop = Loop(workload, inputs, args.seed, tracer, cal)
        loop.repeat(args.seconds, alternate=bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = (workload.check(inputs, args.seed, loop.reference)
                    if loop.reference is not None else ["no operation produced outputs"])
        ref_steps = workload.work(inputs, args.seed)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(loop.ops)
    failed = attempted if problems else sum(not op["ok"] for op in loop.ops)
    untraced = [op for op in loop.ops if not op["traced"]]
    traced = [op for op in loop.ops if op["traced"]]
    untraced_s = statistics.median(op["seconds"] for op in untraced)
    mean_s = statistics.fmean(op["seconds"] for op in untraced)
    # Each operation's time at the nominal host speed, summed over the loop;
    # an operation too short to be sampled takes the run's mean slowdown.
    nominal_op_s = sum(op["seconds"] / (op["slowdown"] or cal.slowdown()) for op in untraced)
    nominal_setup = [s / k for s, k in zip(setup_samples, setup_slow)]

    if args.trace:
        values = tracer.layer_metrics([op["id"] for op in traced])
        values["trace.untraced_op_s"] = untraced_s
        values["trace.overhead_s"] = statistics.median(
            t["seconds"] - u["seconds"] for u, t in zip(untraced, traced))
        samples = dict.fromkeys(values, len(traced))
    else:
        values = {"setup_s": statistics.median(nominal_setup),
                  "ping_steps_per_s": ref_steps * len(untraced) / nominal_op_s,
                  "peak_rss_mb": peak_rss_mb}
        samples = {"setup_s": len(setup_samples), "ping_steps_per_s": len(untraced),
                   "peak_rss_mb": 1}
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    stages = {}
    for op in untraced:
        for stage, sec in op["stages"].items():
            stages.setdefault(stage, []).append(sec)
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "metrics": {k: {**v, "samples": samples[k]} for k, v in metrics.items()},
        "op_median_s": untraced_s, "op_mean_s": mean_s, "ref_ping_steps_per_op": ref_steps,
        "unscaled": {"ping_steps_per_s": ref_steps / mean_s,
                     "setup_s": statistics.median(setup_samples)},
        "calibration": {"nominal_s": calibrate.NOMINAL_S, "sample_s": SAMPLE_S,
                        "calls": cal.calls, "seconds": cal.seconds,
                        "slowdown": cal.slowdown(), "setup_slowdowns": setup_slow},
        "stage_median_s": {k: statistics.median(v) for k, v in stages.items()},
        "setup_samples_s": setup_samples,
        "ops": loop.ops, "problems": problems,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (records / f"{tag}.spans.json").write_text(json.dumps(tracer.to_json()) + "\n")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def setup_only(args) -> int:
    workloads = import_program()
    workloads.WORKLOADS[args.workload].write_inputs(Path(args.setup_only), args.seed)
    return 0


if __name__ == "__main__":
    ARGS = parse_args()
    sys.exit(setup_only(ARGS) if ARGS.setup_only else run(ARGS))
