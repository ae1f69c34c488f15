"""The benchmark's workloads: inputs, the timed operation, correctness checks.

Each workload writes its inputs from the seed alone (``write_inputs``), runs
one operation the way a user would (``operation``, through
``emastate.cli.main`` in-process), checks that operation's outputs against
the independent references in :mod:`oracle` (``check``), and states the
operation's work in ping steps fixed by the inputs alone (``work``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.linalg import expm, solve_discrete_lyapunov

import oracle
from emastate import cli, dataio, filtering
from emastate.model import ModelSpec, discretize, to_continuous


class OperationFailed(Exception):
    """The program exited non-zero or raised during an operation."""


def run_cli(argv: list) -> None:
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise OperationFailed(f"emastate {argv[0]} exited with code {rc}")


def read_files(d: Path, names) -> dict:
    return {name: (d / name).read_bytes() for name in names}


def with_sidecars(name: str) -> list:
    return [name, f"{name}.summary.txt", f"{name}.manifest.json"]


# ---------------------------------------------------------------------------
# Dataset files, written and parsed without the program's own I/O
# ---------------------------------------------------------------------------

def ema_times(days: int, per_day: int) -> np.ndarray:
    """Fixed clock-time pings: ``per_day`` pings three hours apart from 09:00."""
    return np.array([24.0 * d + 9.0 + 3.0 * k for d in range(days) for k in range(per_day)])


def write_dataset_file(path: Path, series: list, y_names: list, u_names=()) -> None:
    """series: [(times, Y, missing, U)], participants p001, p002, ..."""
    header = ["participant_id", "t"] + [f"y.{n}" for n in y_names] + [f"u.{n}" for n in u_names]
    lines = [",".join(header)]
    for i, (times, Y, miss, U) in enumerate(series):
        for t in range(times.size):
            cells = [f"p{i + 1:03d}", "%.12g" % times[t]]
            cells += ["NA" if miss[t, j] else "%.12g" % Y[t, j] for j in range(Y.shape[1])]
            cells += ["%.12g" % v for v in U[t]]
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def read_dataset_file(path: Path) -> dict:
    """pid -> (times, Y, missing, U) from a dataset file."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    ny = sum(c.startswith("y.") for c in header)
    rows: dict = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows.setdefault(cells[0], []).append(cells[1:])
    out = {}
    for pid, block in rows.items():
        times = np.array([float(r[0]) for r in block])
        raw = [r[1:1 + ny] for r in block]
        miss = np.array([[c == "NA" for c in r] for r in raw], dtype=bool).reshape(-1, ny)
        Y = np.array([[np.nan if c == "NA" else float(c) for c in r] for r in raw]).reshape(-1, ny)
        U = np.array([[float(c) for c in r[1 + ny:]] for r in block]).reshape(len(block), -1)
        out[pid] = (times, Y, miss, U)
    return out


def read_table(data: bytes) -> list:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def loglik_by_participant(filtered: bytes) -> dict:
    out: dict = {}
    for row in read_table(filtered):
        out[row["participant_id"]] = out.get(row["participant_id"], 0.0) + float(row["loglik"])
    return out


def simulate_var(rng, A, Sigma, Theta, times, U=None, G=None, miss_rate=0.0):
    """One series of x_t = A x_{t-1} + G u_{t-1} + e_t, y_t = x_t + nu_t,
    x_0 stationary, cells masked completely at random."""
    T, n = times.size, A.shape[0]
    U = np.zeros((T, 0)) if U is None else U
    G = np.zeros((n, U.shape[1])) if G is None else G
    x = np.linalg.cholesky(solve_discrete_lyapunov(A, Sigma)) @ rng.standard_normal(n)
    X = np.empty((T, n))
    for t in range(T):
        if t:
            x = A @ x + G @ U[t - 1] + np.linalg.cholesky(Sigma) @ rng.standard_normal(n)
        X[t] = x
    Y = X + rng.standard_normal((T, n)) @ np.linalg.cholesky(Theta).T
    miss = rng.uniform(size=Y.shape) < miss_rate
    Y[miss] = np.nan
    return X, Y, miss, U


def relative_gap(a, b) -> float:
    return abs(a - b) / max(1.0, abs(b))


class Workload:
    name = ""
    why = ""

    def write_inputs(self, d: Path, seed: int) -> None:
        raise NotImplementedError

    def operation(self, d: Path, seed: int) -> dict:
        """Run the operation once; return every output file's bytes."""
        raise NotImplementedError

    def check(self, d: Path, seed: int, outputs: dict) -> list:
        """Problems found in one operation's outputs (empty when correct)."""
        raise NotImplementedError

    def work(self, d: Path, seed: int) -> int:
        """Ping steps a reference solution of the operation's problems takes:
        pings times the passes over them.  For a fit the passes are the
        likelihood evaluations of :func:`oracle.reference_evaluations`, so
        the count follows the data, never the program."""
        raise NotImplementedError

    def stage_seconds(self) -> dict:
        """Wall time of each stage of the last operation, if it has stages."""
        return {}


# ---------------------------------------------------------------------------
# Pooled fits
# ---------------------------------------------------------------------------

FIT_TOL = 1e-3      # --tol of every fit: the gradient's largest entry at convergence


def search_start(model: "oracle.PooledGaussianFit", n: int) -> np.ndarray:
    """A fit's first start: lag-one regression values where the regression
    applies, template values elsewhere, variances as log standard deviations."""
    guess = oracle.lag_one_start(model.series, n) or {}
    out = []
    for name, idx, transform in model.free:
        v = float((guess[name] if name in guess else model.base[name])[idx])
        out.append(np.log(np.sqrt(max(v, 1e-16))) if transform == "log_sd" else v)
    return np.array(out)


def fit_work(model: "oracle.PooledGaussianFit", n: int, restarts: int, seed: int,
             tol: float) -> int:
    evals = oracle.reference_evaluations(model, search_start(model, n), restarts, seed, tol)
    return evals * sum(Y.shape[0] for Y, _, _ in model.series)


def _fit_problems(label, row_ll, converged, model, starts,
                  ll_at_estimate=None) -> tuple[list, float]:
    """Problems with one reported fit, and the reference optimum."""
    problems = []
    if not converged:
        problems.append(f"{label}: fit did not converge")
    if ll_at_estimate is not None and not relative_gap(ll_at_estimate, row_ll) <= 1e-6:
        problems.append(f"{label}: reported log-likelihood {row_ll:.10g} but the joint "
                        f"Gaussian density at the estimate is {ll_at_estimate:.10g}")
    ref = model.optimum(starts)
    if not abs(ref - row_ll) <= 1e-3:
        problems.append(f"{label}: log-likelihood {row_ll:.10g} is not within 1e-3 "
                        f"of the reference optimum {ref:.10g}")
    return problems, ref


class PooledVar2(Workload):
    name = "pooled-var2"
    why = ("pooled ML fit of a bivariate VAR(1): objective and gradient evaluations "
           "over the general 2x2 Kalman path")
    n_participants, days, per_day, miss_rate = 2, 14, 5, 0.2
    restarts = 1
    # With one BFGS start the check needs a single interior optimum.  At 70
    # pings with A = [[.5, .15], [.1, .4]] and Theta = diag(.5, .6) one seed in
    # about 30 stopped at a boundary local optimum (a variance near 0) 0.27
    # below the global one; with Theta = diag(.3, .3) one seed in about 60
    # stopped 0.002 short of the optimum along a nearly flat direction.
    # Persistent dynamics and 140 pings separate process from measurement
    # noise: one start reached the optimum on 60 of 60 seeds.
    A = np.array([[0.7, 0.15], [0.1, 0.6]])
    Sigma = np.diag([1.0, 0.8])
    Theta = np.diag([0.4, 0.4])
    template = {
        "model": {"A": [[0.0, 0.0], [0.0, 0.0]], "Sigma": [[1.0, 0.0], [0.0, 1.0]],
                  "Theta": [[1.0, 0.0], [0.0, 1.0]], "initial_mean": [0.0, 0.0],
                  "initial_cov": [[2.0, 0.0], [0.0, 2.0]], "time_mode": "discrete"},
        "parameters": {"A": [["free", "free"], ["free", "free"]],
                       "Sigma": [["free", "fixed"], ["fixed", "free"]],
                       "Theta": [["free", "fixed"], ["fixed", "free"]]},
    }
    free = ([("A", (i, j), "plain") for i in range(2) for j in range(2)]
            + [(m, (i, i), "log_sd") for m in ("Sigma", "Theta") for i in range(2)])

    def write_inputs(self, d, seed):
        rng = np.random.default_rng(seed)
        times = ema_times(self.days, self.per_day)
        series = []
        for _ in range(self.n_participants):
            _, Y, miss, U = simulate_var(rng, self.A, self.Sigma, self.Theta, times,
                                         miss_rate=self.miss_rate)
            series.append((times, Y, miss, U))
        write_dataset_file(d / "data.csv", series, ["y1", "y2"])
        (d / "template.json").write_text(json.dumps(self.template, indent=2) + "\n")

    def operation(self, d, seed):
        run_cli(["fit", "--data", d / "data.csv", "--template", d / "template.json",
                 "--mode", "pooled", "--restarts", self.restarts, "--tol", FIT_TOL,
                 "--out", d / "fit.json", "--seed", seed])
        return read_files(d, with_sidecars("fit.json"))

    def _model(self, d):
        tpl = self.template["model"]
        base = {"A": tpl["A"], "G": np.zeros((2, 0)), "H": np.eye(2), "Sigma": tpl["Sigma"],
                "Theta": tpl["Theta"], "initial_mean": tpl["initial_mean"],
                "initial_cov": tpl["initial_cov"]}
        series = [(Y, miss, U) for _, Y, miss, U in read_dataset_file(d / "data.csv").values()]
        return oracle.PooledGaussianFit(base, self.free, series)

    def check(self, d, seed, outputs):
        result = json.loads(outputs["fit.json"])["results"][0]
        model = self._model(d)
        est = {k: np.asarray(v, dtype=float) for k, v in result["model"].items()
               if k in ("A", "Sigma", "Theta")}
        truth = {"A": self.A, "Sigma": self.Sigma, "Theta": self.Theta}
        starts = [model.theta_of(truth), model.theta_of(est)]
        ll_at = model.loglik_at({**model.base, **est})
        return _fit_problems("fit", result["log_likelihood"], result["converged"],
                             model, starts, ll_at)[0]

    def work(self, d, seed):
        return fit_work(self._model(d), 2, self.restarts, seed, FIT_TOL)


class CompareAr1(Workload):
    name = "compare-ar1"
    why = ("compare of three scalar templates over many short series: per-call "
           "overhead of the scalar filter path")
    n_participants, days, per_day, miss_rate = 8, 7, 5, 0.3
    restarts = 3
    a, g, s2, th = 0.5, 0.8, 1.0, 0.5
    base = {"A": [[0.3]], "G": [[0.0]], "Sigma": [[1.0]], "Theta": [[1.0]],
            "initial_mean": [0.0], "initial_cov": [[2.0]], "time_mode": "discrete"}
    templates = {
        "g0": ({}, {"A": [["free"]], "Sigma": [["free"]], "Theta": [["free"]]}),
        "gfree": ({}, {"A": [["free"]], "G": [["free"]], "Sigma": [["free"]],
                       "Theta": [["free"]]}),
        "rw": ({"A": [[1.0]], "initial_cov": [[4.0]], "random_walk_states": [0]},
               {"G": [["free"]], "Sigma": [["free"]], "Theta": [["free"]]}),
    }

    def write_inputs(self, d, seed):
        rng = np.random.default_rng(seed)
        times = ema_times(self.days, self.per_day)
        onset = times.size // 2
        U = (np.arange(times.size) >= onset).astype(float).reshape(-1, 1)
        series = []
        for _ in range(self.n_participants):
            _, Y, miss, _ = simulate_var(rng, np.array([[self.a]]), np.array([[self.s2]]),
                                         np.array([[self.th]]), times, U,
                                         np.array([[self.g]]), self.miss_rate)
            series.append((times, Y, miss, U))
        write_dataset_file(d / "data.csv", series, ["mood"], ["event"])
        for label, (over, params) in self.templates.items():
            doc = {"model": {**self.base, **over}, "parameters": params}
            (d / f"{label}.json").write_text(json.dumps(doc, indent=2) + "\n")

    def operation(self, d, seed):
        run_cli(["compare", "--data", d / "data.csv", "--templates",
                 *[d / f"{label}.json" for label in self.templates],
                 "--restarts", self.restarts, "--tol", FIT_TOL, "--out", d / "table.csv",
                 "--seed", seed])
        return read_files(d, with_sidecars("table.csv"))

    def _models(self, d) -> dict:
        """label -> the pooled likelihood over that template's free slots."""
        series = [(Y, miss, U) for _, Y, miss, U in read_dataset_file(d / "data.csv").values()]
        models = {}
        for label, (over, params) in self.templates.items():
            tpl = {**self.base, **over}
            free = [(m, (0, 0), "log_sd" if m in ("Sigma", "Theta") else "plain")
                    for m in params]
            base = {k: tpl[k] for k in ("A", "G", "Sigma", "Theta", "initial_mean",
                                        "initial_cov")}
            base["H"] = [[1.0]]
            models[label] = oracle.PooledGaussianFit(base, free, series)
        return models

    def work(self, d, seed):
        return sum(fit_work(model, 1, self.restarts, seed, FIT_TOL)
                   for model in self._models(d).values())

    def check(self, d, seed, outputs):
        rows = read_table(outputs["table.csv"])
        models = self._models(d)
        series = next(iter(models.values())).series
        n_obs = int(sum((~miss).sum() for _, miss, _ in series))
        problems, ref_lls, ks = [], [], []
        if [r["model_id"] for r in rows] != list(self.templates):
            return [f"table lists {[r['model_id'] for r in rows]}, "
                    f"expected {list(self.templates)}"]
        truth = {"A": [[self.a]], "G": [[self.g]], "Sigma": [[self.s2]], "Theta": [[self.th]]}
        for row, (label, (over, params)) in zip(rows, self.templates.items()):
            model = models[label]
            free = model.free
            start = model.theta_of({**model.base, **{k: np.array(v) for k, v in truth.items()
                                                     if k in params}})
            found, ref = _fit_problems(label, float(row["loglik"]),
                                       row["converged"] == "true", model, [start])
            problems += found
            ref_lls.append(ref)
            ks.append(len(free))
            if int(row["k"]) != len(free):
                problems.append(f"{label}: k={row['k']}, expected {len(free)}")
        rank_aic, rank_bic = oracle.information_ranks(ref_lls, ks, n_obs)
        if [int(r["rank_aic"]) for r in rows] != rank_aic or \
                [int(r["rank_bic"]) for r in rows] != rank_bic:
            problems.append(f"ranks differ from the reference AIC {rank_aic} / BIC {rank_bic}")
        return problems


# ---------------------------------------------------------------------------
# Continuous-time filtering and smoothing over irregular pings
# ---------------------------------------------------------------------------

class IrregularCt(Workload):
    name = "irregular-ct"
    why = ("simulate, filter and smooth a continuous-time model at random pings: "
           "every gap is discretized afresh, no estimation")
    n_participants, days, per_day, miss_rate = 20, 14, 6, 0.25
    window = (9.0, 21.0)

    def __init__(self):
        self._stages: dict = {}

    def write_inputs(self, d, seed):
        discrete = ModelSpec(A=[[0.6, 0.1], [0.0, 0.7]], Sigma=[[1.0, 0.0], [0.0, 0.8]],
                             Theta=[[0.5, 0.0], [0.0, 0.5]])
        doc = to_continuous(discrete, 3.0).to_dict()
        del doc["initial_mean"], doc["initial_cov"]     # stationary defaults
        (d / "model.json").write_text(json.dumps(doc, indent=2) + "\n")
        scenario = {
            "schedule": {"kind": "random_window", "horizon": 24.0 * self.days,
                         "windows": [list(self.window)], "pings_per_day": self.per_day},
            "missingness": {"mechanism": "MCAR", "rate": self.miss_rate},
            "n_participants": self.n_participants,
        }
        (d / "scenario.json").write_text(json.dumps(scenario, indent=2) + "\n")

    def operation(self, d, seed):
        t0 = time.perf_counter()
        run_cli(["simulate", "--model", d / "model.json", "--scenario", d / "scenario.json",
                 "--out", d / "data.csv", "--seed", seed])
        t1 = time.perf_counter()
        run_cli(["filter", "--data", d / "data.csv", "--model", d / "model.json",
                 "--method", "kalman", "--out", d / "filtered.csv"])
        t2 = time.perf_counter()
        spec = ModelSpec.load(d / "model.json")
        blocks = []
        for p in dataio.read_dataset(d / "data.csv").participants:
            r = filtering.kalman_smooth(spec, p.Y, p.missing, p.U, timestamps=p.timestamps)
            rows = r.to_delimited().splitlines()
            blocks += ([f"participant_id,{rows[0]}"] if not blocks else [])
            blocks += [f"{p.pid},{row}" for row in rows[1:]]
        (d / "smoothed.csv").write_text("\n".join(blocks) + "\n")
        self._stages = {"simulate": t1 - t0, "filter": t2 - t1,
                        "smooth": time.perf_counter() - t2}
        return read_files(d, with_sidecars("data.csv") + with_sidecars("filtered.csv")
                          + ["smoothed.csv"])

    def stage_seconds(self):
        return dict(self._stages)

    def work(self, d, seed):
        return 3 * self.n_participants * self.days * self.per_day    # simulate, filter, smooth

    def check(self, d, seed, outputs):
        problems = []
        doc = json.loads((d / "model.json").read_text())
        A, Sigma = np.array(doc["A"]), np.array(doc["Sigma"])
        H, Theta = np.array(doc["H"]), np.array(doc["Theta"])
        data = read_dataset_file(d / "data.csv")
        filt = loglik_by_participant(outputs["filtered.csv"])
        smooth = {}
        for row in read_table(outputs["smoothed.csv"]):
            smooth.setdefault(row["participant_id"], []).append(
                [float(row["mean.s1"]), float(row["mean.s2"])])

        if len(data) != self.n_participants:
            problems.append(f"{len(data)} participants simulated, expected {self.n_participants}")
        cells = sum(miss.size for _, _, miss, _ in data.values())
        missing = sum(miss.sum() for _, _, miss, _ in data.values())
        if abs(missing / cells - self.miss_rate) > 0.05:
            problems.append(f"missing share {missing / cells:.3f}, expected {self.miss_rate}")

        P_inf = oracle.stationary_cov_ct(A, Sigma)
        spec = ModelSpec.load(d / "model.json")
        worst_sigma = worst_ll = worst_sm = 0.0
        for pid, (times, Y, miss, _) in data.items():
            clock = np.mod(times, 24.0)
            if times.size != self.days * self.per_day or np.any(clock < self.window[0]) \
                    or np.any(clock >= self.window[1]):
                problems.append(f"{pid}: {times.size} pings, or a ping outside the window")
            for dt in np.unique(np.diff(times)):
                E = expm(A * dt)
                ref = P_inf - E @ P_inf @ E.T
                got = discretize(spec, float(dt)).Sigma
                worst_sigma = max(worst_sigma, np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
            m, Cx = oracle.ct_state_moments(A, Sigma, times)
            ll = oracle.gaussian_loglik(Y, miss, *oracle.observe(m, Cx, H, Theta))
            worst_ll = max(worst_ll, relative_gap(filt[pid], ll) if pid in filt else math.inf)
            sm = oracle.smoothed_means(Y, miss, m, Cx, H, Theta)
            got_sm = np.array(smooth.get(pid, []))
            worst_sm = max(worst_sm, float(np.max(np.abs(got_sm - sm)))
                           if got_sm.shape == sm.shape else math.inf)
        if not worst_sigma <= 1e-8:
            problems.append(f"Sigma_d differs from P_inf - A_d P_inf A_d' by {worst_sigma:.3g} "
                            f"(relative) at some gap")
        if not worst_ll <= 1e-8:
            problems.append(f"filter log-likelihood differs from the joint Gaussian by "
                            f"{worst_ll:.3g} (relative)")
        if not worst_sm <= 1e-6:
            problems.append(f"smoothed means differ from E[x | y] by {worst_sm:.3g}")
        return problems


# ---------------------------------------------------------------------------
# Particle likelihood for ordinal and count channels
# ---------------------------------------------------------------------------

class LikertParticle(Workload):
    name = "likert-particle"
    why = ("particle filter on a graded-response and a Poisson channel: the only "
           "workload that runs particle_filter")
    n_participants, days, per_day, miss_rate = 8, 14, 5, 0.2
    n_particles = 2000
    a = (0.6, 0.5)
    s2 = (0.5, 0.3)
    discrimination, thresholds = 1.5, (-1.5, -0.5, 0.5, 1.5)
    scale = 2.0

    def write_inputs(self, d, seed):
        model = {
            "A": [[self.a[0], 0.0], [0.0, self.a[1]]],
            "Sigma": [[self.s2[0], 0.0], [0.0, self.s2[1]]],
            "channels": [
                {"family": "graded_response", "state_index": 0,
                 "discrimination": self.discrimination,
                 "thresholds": list(self.thresholds), "categories": 5},
                {"family": "poisson", "state_index": 1, "link": "log", "scale": self.scale},
            ],
            "time_mode": "discrete",
        }
        (d / "model.json").write_text(json.dumps(model, indent=2) + "\n")
        rng = np.random.default_rng(seed)
        times = ema_times(self.days, self.per_day)
        A, Sigma = np.diag(self.a), np.diag(self.s2)
        series = []
        for _ in range(self.n_participants):
            X, _, miss, U = simulate_var(rng, A, Sigma, np.eye(2), times,
                                         miss_rate=self.miss_rate)
            p_exceed = 1.0 / (1.0 + np.exp(-self.discrimination
                                           * (X[:, :1] - np.array(self.thresholds))))
            mood = 1.0 + (rng.uniform(size=(times.size, 1)) < p_exceed).sum(axis=1)
            events = rng.poisson(self.scale * np.exp(X[:, 1])).astype(float)
            series.append((times, np.column_stack([mood, events]), miss, U))
        write_dataset_file(d / "data.csv", series, ["mood", "events"])

    def operation(self, d, seed):
        run_cli(["filter", "--data", d / "data.csv", "--model", d / "model.json",
                 "--method", "particle", "--particles", self.n_particles,
                 "--out", d / "filtered.csv", "--seed", seed])
        return read_files(d, with_sidecars("filtered.csv"))

    def reference(self, d) -> tuple[float, float]:
        """Grid-filter log-likelihood and the particle filter's Monte-Carlo
        standard deviation implied by the incremental-weight second moments."""
        total, var = 0.0, 0.0
        th = self.thresholds
        for _, Y, miss, _ in read_dataset_file(d / "data.csv").values():
            ll0, r0 = oracle.grid_filter(
                self.a[0], self.s2[0], Y[:, 0], miss[:, 0],
                lambda k, x: oracle.graded_response_logpmf(int(k), x, self.discrimination, th))
            ll1, r1 = oracle.grid_filter(
                self.a[1], self.s2[1], Y[:, 1], miss[:, 1],
                lambda k, x: oracle.poisson_log_logpmf(k, x, self.scale))
            total += ll0 + ll1
            var += float(np.sum(r0 * r1 - 1.0)) / self.n_particles
        return total, math.sqrt(var)

    def work(self, d, seed):
        return self.n_participants * self.days * self.per_day

    def check(self, d, seed, outputs):
        lls = loglik_by_participant(outputs["filtered.csv"])
        total = sum(lls.values())
        if len(lls) != self.n_participants or not math.isfinite(total):
            return [f"log-likelihood {total} over {len(lls)} participants"]
        ref, sd = self.reference(d)
        band = 6.0 * sd + 0.5 * sd * sd
        if not abs(total - ref) <= band:
            return [f"particle log-likelihood {total:.6g} is outside {ref:.6g} +- {band:.3g}"]
        return []


WORKLOADS = {w.name: w for w in (PooledVar2(), CompareAr1(), IrregularCt(), LikertParticle())}
