"""Maximum-likelihood estimation and model comparison.

A :class:`ParameterMap` marks each model-matrix entry free, fixed (at the
template value or an explicit number), or tied to a named group sharing one
underlying value.  Covariance matrices are parameterized through a
lower-triangular factor with log-transformed diagonal, so every point of the
unconstrained space maps to a PSD matrix; no post-hoc projection is ever
applied.

Fitting maximizes the filter log-likelihood with BFGS, multi-started from
perturbations of a heuristic initialization (lag-one regression for the
transition matrix, residual moments for the variances; Gaussian templates
only).  Pooled fits share one parameter vector across participants, each
participant's filter starting from the initial distribution.  BFGS gets the
value and the gradient of each iterate from one evaluation.  For Kalman
fits the participants are stacked once, padded to the longest series, and
every likelihood comes from :func:`_kalman_pass`: one scatter per
candidate writes the matrices of its points, and one stacked pass filters
all points times all participants.

All searches of one :func:`fit` call (its restarts, and for an idiographic
fit every participant's restarts), and of one :func:`fit_candidates` call
(every candidate's restarts, as CLI ``compare`` and
:func:`compare_disturbance_codings` run them), go through one lockstep
driver, :func:`_fit_single`, on the main thread.  It runs
:func:`emastate.bfgs.minimize`, a resumable port of scipy's BFGS: each
round, every live search's pending point is evaluated together, and each
search reaches the iterates it would reach alone, bit for bit.  Each
problem it searches (a candidate's pooled fit, or one participant's fit)
carries its own ``Parameterization`` and data.

Kalman problems of one time mode, shape, input count and participant
count form a group with one round evaluator: each round, one stacked pass
(up to ``_PASS_MEMBERS`` members) serves every live search of the group,
with one scatter per candidate; each member carries its own problem's
series.

- Discrete-time models with more than one state or channel get the exact
  score, whatever the number k of free parameters: one stored pass at the
  iterates, then per search one backward pass
  (:func:`~emastate.filtering._kalman_score`) over its own participants,
  and the matrix gradients chained to the free parameters by
  :meth:`Parameterization.chain`.
- 1x1 and continuous-time Kalman fits, and particle fits, take central
  differences from the 2k+1 points (the iterate and its 2k neighbours).
  For a 1x1 model a pass of all 2k+1 points costs about as much as a pass
  at the iterate alone, so the score could not pay there.  The Kalman
  ones run all their points in one lean pass; in continuous time each
  point first discretizes its members' gaps in one gap-kernel call.  A
  particle fit filters one series at a time.

Kalman fits get the same values, bit for bit, as filtering each series
alone: each participant's terms are summed over its own pings, and the
participants are added left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple, Sequence

import numpy as np

from .bfgs import minimize      # perfbench/spans.py wraps it here
from .dataset import EmaDataset, Participant, missing_cells
from .errors import EmaError
from .filtering import (_gap_steps, _kalman_score, _kalman_stack, _particle_pass, _series,
                        _stack_series)
# perfbench/spans.py wraps these here
from .filtering import kalman_filter, kalman_filter_ct, particle_filter  # noqa: F401
from .model import ModelSpec, _gap_transitions, require_valid
from .simulate import DisturbanceEvent, encode_disturbance

FREE = "free"
FIXED = "fixed"

_MATRIX_NAMES = ("A", "G", "H", "initial_mean", "Sigma", "Theta", "initial_cov")
_COV_NAMES = ("Sigma", "Theta", "initial_cov")
_MIN_SD = 1e-8


def _status_kind(s) -> str:
    if isinstance(s, str):
        if s == FREE:
            return FREE
        if s == FIXED:
            return FIXED
        if s.startswith("tied:") and len(s) > 5:
            return "tied"
        raise EmaError("BAD_PARAMETER_MAP", f"unknown status {s!r}")
    if isinstance(s, (int, float)):
        return "value"
    raise EmaError("BAD_PARAMETER_MAP", f"unknown status {s!r}")


@dataclass(frozen=True)
class ParameterMap:
    """Entry-wise estimation statuses for the model matrices.

    ``statuses`` maps a matrix name to a grid (same shape as the matrix) of
    "free", "fixed", a number (fixed at that value), or "tied:<group>".
    Omitted matrices stay fully fixed at their template values.

    Covariance matrices support two freedom patterns: free diagonal entries
    with all off-diagonals fixed at zero (independent log-standard-deviation
    parameters), or an entirely free matrix (full Cholesky factor).  Rows of
    A covered by the template's random-walk flags are always forced to their
    pinned values.
    """

    statuses: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in self.statuses:
            if name not in _MATRIX_NAMES:
                raise EmaError("BAD_PARAMETER_MAP", f"unknown matrix name {name!r}")

    def grid(self, name: str, shape: tuple) -> np.ndarray:
        g = self.statuses.get(name)
        if g is None:
            return np.full(shape, FIXED, dtype=object)
        arr = np.array(g, dtype=object)     # a ragged grid keeps lists as entries
        if arr.size != np.prod(shape) or any(isinstance(s, list) for s in arr.flat):
            raise EmaError("BAD_PARAMETER_MAP", f"{name} grid of shape {arr.shape} does "
                                                f"not fit the {name} matrix of shape {shape}")
        for s in arr.flat:
            _status_kind(s)
        return arr.reshape(shape)

    def to_dict(self) -> dict:
        return {name: np.asarray(g, dtype=object).tolist() for name, g in self.statuses.items()}

    @staticmethod
    def from_dict(d: dict) -> "ParameterMap":
        return ParameterMap(dict(d))


class _Slot:
    """One free scalar of the unconstrained vector."""

    __slots__ = ("transform", "targets", "start")

    def __init__(self, transform: str, start: float):
        self.transform = transform      # "plain" | "log_sd" | "chol_diag" | "chol_off"
        self.targets: list[tuple] = []  # (matrix_name, index)
        self.start = start


class Parameterization:
    """Compiled map between the unconstrained vector and ModelSpec matrices.

    Compiling leaves each matrix's base value (the template with fixed-value
    overrides and pinned random-walk rows) and the writes that put the free
    slots into it; :meth:`scatter` runs those writes for a whole stack of
    points at once.
    """

    def __init__(self, template: ModelSpec, pmap: ParameterMap):
        self.template = template
        self.slots: list[_Slot] = []
        self._groups: dict[str, _Slot] = {}
        self._base = {name: np.array(getattr(template, name), dtype=float)
                      for name in _MATRIX_NAMES}
        self._writes: dict[tuple, tuple] = {}   # (name, transform) -> (flat indices, slots)
        self._chol: list[str] = []              # covariances set to L L' from a factor

        for name in ("A", "G", "H", "initial_mean"):
            value = self._base[name]
            grid = pmap.grid(name, value.shape)
            if name == "A":
                for i in template.random_walk_states:
                    grid[i, :] = FIXED      # unit-root rows are never estimated
            for idx in np.ndindex(value.shape):
                s = grid[idx]
                kind = _status_kind(s)
                if kind == FIXED:
                    continue
                if kind == "value":
                    value[idx] = float(s)
                    continue
                self._write(name, idx, self._slot_for(s, "plain", float(value[idx])))

        for name in _COV_NAMES:
            self._compile_cov(name, pmap.grid(name, self._base[name].shape),
                              self._base[name])
        for i in template.random_walk_states:
            self._base["A"][i, :] = 0.0
            self._base["A"][i, i] = 1.0 if template.time_mode == "discrete" else 0.0
        self._writes = {key: (np.array(at), np.array(cols, dtype=int))
                        for key, (at, cols) in self._writes.items()}
        self.n_free = len(self.slots)

    def _write(self, name: str, idx: tuple, slot: _Slot) -> None:
        slot.targets.append((name, idx))
        at, cols = self._writes.setdefault((name, slot.transform), ([], []))
        at.append(np.ravel_multi_index(idx, self._base[name].shape))
        cols.append(self.slots.index(slot))

    def _slot_for(self, status, transform: str, start: float) -> _Slot:
        if isinstance(status, str) and status.startswith("tied:"):
            gid = status[5:]
            if gid in self._groups:
                slot = self._groups[gid]
                if slot.transform != transform:
                    raise EmaError("BAD_PARAMETER_MAP",
                                   f"tied group {gid!r} mixes incompatible transforms")
                return slot
            slot = _Slot(transform, start)
            self._groups[gid] = slot
            self.slots.append(slot)
            return slot
        slot = _Slot(transform, start)
        self.slots.append(slot)
        return slot

    def _compile_cov(self, name: str, grid: np.ndarray, value: np.ndarray) -> None:
        n = grid.shape[0]
        free_pos = [idx for idx in np.ndindex(grid.shape)
                    if _status_kind(grid[idx]) in (FREE, "tied")]
        for idx in np.ndindex(grid.shape):
            if _status_kind(grid[idx]) == "value":
                raise EmaError("BAD_PARAMETER_MAP",
                               f"{name}: use the template to fix covariance values")
        if not free_pos:
            return
        sym_free = {(i, j) for i, j in free_pos} | {(j, i) for i, j in free_pos}
        diag_only = all(i == j for i, j in sym_free)
        full = all((i, j) in sym_free for i in range(n) for j in range(n) if i >= j)
        if diag_only:
            off = value - np.diag(np.diag(value))
            if np.any(off != 0.0):
                raise EmaError("BAD_PARAMETER_MAP",
                               f"{name}: diagonal-only freedom requires zero "
                               f"off-diagonals in the template")
            for i in range(n):
                if (i, i) in sym_free:
                    start = np.log(np.sqrt(max(value[i, i], _MIN_SD ** 2)))
                    self._write(name, (i, i), self._slot_for(grid[i, i], "log_sd", start))
        elif full:
            if any(_status_kind(grid[idx]) == "tied" for idx in free_pos):
                raise EmaError("BAD_PARAMETER_MAP",
                               f"{name}: tying is not supported for a full "
                               f"covariance factor")
            self._chol.append(name)
            V = 0.5 * (value + value.T) + _MIN_SD * np.eye(n)
            try:
                L = np.linalg.cholesky(V)
            except np.linalg.LinAlgError:
                w, Q = np.linalg.eigh(V)
                L = np.linalg.cholesky(Q @ np.diag(np.clip(w, _MIN_SD, None)) @ Q.T)
            for i in range(n):
                for j in range(i + 1):
                    if i == j:
                        slot = _Slot("chol_diag", np.log(max(L[i, i], _MIN_SD)))
                    else:
                        slot = _Slot("chol_off", L[i, j])
                    self.slots.append(slot)
                    self._write(name, (i, j), slot)
        else:
            raise EmaError("BAD_PARAMETER_MAP",
                           f"{name}: unsupported freedom pattern; free the "
                           f"diagonal only or the whole matrix")

    def start_vector(self) -> np.ndarray:
        return np.array([s.start for s in self.slots], dtype=float)

    def set_start(self, name: str, idx, value: float) -> None:
        """Point a slot's start at a heuristic value (pre-transform scale)."""
        for slot in self.slots:
            if (name, idx) in slot.targets:
                if slot.transform == "plain" or slot.transform == "chol_off":
                    slot.start = value
                elif slot.transform == "log_sd":
                    slot.start = np.log(np.sqrt(max(value, _MIN_SD ** 2)))
                elif slot.transform == "chol_diag":
                    slot.start = np.log(max(np.sqrt(max(value, 0.0)), _MIN_SD))
                return

    def scatter(self, thetas) -> dict:
        """The seven matrices at every point of a (points, n_free) stack, as
        (points, ...) arrays.  A log-sd or Cholesky diagonal that overflows
        leaves an infinite entry for the likelihood to penalize."""
        thetas = np.asarray(thetas, dtype=float)
        k = thetas.shape[0]
        mats = {name: np.repeat(base[None], k, axis=0) for name, base in self._base.items()}
        factors = {name: np.zeros_like(mats[name]) for name in self._chol}
        with np.errstate(all="ignore"):
            for (name, transform), (at, cols) in self._writes.items():
                v = thetas[:, cols]
                if transform in ("log_sd", "chol_diag"):
                    v = np.exp(v)
                if transform == "log_sd":
                    v = v * v
                out = factors[name] if transform.startswith("chol") else mats[name]
                out.reshape(k, -1)[:, at] = v
            for name, L in factors.items():
                mats[name] = L @ L.swapaxes(-1, -2)
        return mats

    def chain(self, theta, grads: dict) -> np.ndarray:
        """The gradient in theta of a function whose gradients in the seven
        matrices at :meth:`unpack`'s point are ``grads`` (for a symmetric M,
        the symmetric G with df = tr(G dM)): :meth:`scatter`'s writes run
        backwards.  A plain write passes G through, a log-sd write scales it
        by 2 v (v the variance), a Cholesky factor L takes (G + G') L, times
        exp(theta) on its diagonal; a tied slot sums its targets."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(self.n_free)
        factors = {name: np.zeros_like(self._base[name]) for name in self._chol}
        values = {}
        for (name, transform), (at, cols) in self._writes.items():
            v = theta[cols]
            if transform in ("log_sd", "chol_diag"):
                v = np.exp(v)
            if transform.startswith("chol"):
                factors[name].flat[at] = v
            values[name, transform] = v
        pulled = {name: (grads[name] + grads[name].T) @ L for name, L in factors.items()}
        for (name, transform), (at, cols) in self._writes.items():
            v = values[name, transform]
            g = (pulled[name] if transform.startswith("chol") else grads[name]).flat[at]
            if transform == "log_sd":
                g = g * (2.0 * v * v)
            elif transform == "chol_diag":
                g = g * v
            np.add.at(out, cols, g)
        return out

    def unpack(self, theta: np.ndarray) -> ModelSpec:
        """The spec at one point: :meth:`scatter`'s one-point case."""
        mats = self.scatter([theta])
        return self.template.with_matrices(**{name: m[0] for name, m in mats.items()})


# ---------------------------------------------------------------------------
# Likelihood plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitOptions:
    n_restarts: int = 5
    max_iter: int = 200
    tol: float = 1e-3               # gradient inf-norm for "converged"
    likelihood: str = "kalman"      # "kalman" | "particle"
    n_particles: int = 2000
    particle_seed: int = 0          # common random numbers across iterations
    seed: int = 0                   # restart perturbations


# Central differences step by h_i = _FD_STEP * max(1, |x_i|); a restart
# starts from theta0 plus normals of scale _PERTURB_SCALE * (1 + |theta0|).
_FD_STEP = 1e-6
_PERTURB_SCALE = 0.25


def _fd_points(x: np.ndarray, step: float):
    """x, then x + h_i e_i and x - h_i e_i for each i, with
    h_i = step * max(1, |x_i|); also 2h, the differences' divisor."""
    h = step * np.maximum(1.0, np.abs(x))
    points = np.repeat(x[None], 2 * x.size + 1, axis=0)
    i = np.arange(x.size)
    points[2 * i + 1, i] += h
    points[2 * i + 2, i] -= h
    return points, 2.0 * h


def _value_and_grad(objectives, step: float):
    """``[(owner, x)] -> [(f(x), central differences)]`` from one
    ``objectives`` call over the 2k + 1 points of :func:`_fd_points` of
    every x, as ``[(owner, points)]``: a search asks for both at every
    iterate.  Each point's value does not depend on the others in the call,
    so each pair equals a one-point call plus central differences of 2k
    points."""
    def value_and_grad(pending):
        fd = [_fd_points(x, step) for _, x in pending]
        values = objectives([(o, points) for (o, _), (points, _) in zip(pending, fd)])
        return [(float(v[0]), (v[1::2] - v[2::2]) / h2) for v, (_, h2) in zip(values, fd)]
    return value_and_grad


def _stack_participants(spec: ModelSpec, participants: Sequence[Participant]):
    """Participants' series, checked by :func:`fit`, stacked by
    :func:`~emastate.filtering._stack_series`; NaN cells count as missing.
    In continuous time the stack also holds each series' gaps, (R, T - 1),
    zero past its end."""
    stack = _stack_series([(p.Y, missing_cells(p.Y, p.missing), p.U) for p in participants],
                          spec.n_obs, spec.n_inputs)
    if spec.time_mode == "continuous":
        gaps = np.zeros((len(participants), max(stack[0].shape[1] - 1, 0)))
        for r, p in enumerate(participants):
            gaps[r, :max(len(p.timestamps) - 1, 0)] = np.diff(p.timestamps)
        stack += (gaps,)
    return stack


def _ct_steps(templates, mats, gaps, lengths, ok):
    """The steps of a continuous-time (points, participants) stack, each
    point under its own template.  Each point marked in ``ok`` discretizes
    its members' gaps in one
    :func:`~emastate.model._gap_transitions` call; a point whose gap
    overflows (``NON_FINITE``) is cleared in ``ok``, and another kernel
    error is raised.  The steps of a cleared point, and every step past a
    member's end, are the identity (:func:`~emastate.filtering._gap_steps`)."""
    K, R = len(ok), np.shape(lengths)[-1]
    real = np.arange(gaps.shape[-1]) < np.broadcast_to(lengths, (K, R))[..., None] - 1
    gaps, steps = np.broadcast_to(gaps, real.shape), []
    for k in range(K):
        table, which = [mats[name][:0] for name in ("A", "Sigma", "G")], []
        if ok[k]:
            spec = templates[k].with_matrices(A=mats["A"][k], Sigma=mats["Sigma"][k],
                                              G=mats["G"][k])
            try:
                *table, which = _gap_transitions(spec, gaps[k][real[k]])
            except EmaError as err:
                if err.code != "NON_FINITE":
                    raise
                ok[k] = False
        steps.append(_gap_steps(table, which, real[k] & ok[k]))
    return tuple(np.stack(x, 1) for x in zip(*steps))


def _kalman_pass(segments, stack, store=False):
    """One lean (or with ``store``, stored) Kalman pass over a (points,
    participants) stack, its points given as ``[(par, thetas)]`` in order,
    one :meth:`Parameterization.scatter` per entry: the points' matrices,
    the pass, each point's negative pooled log-likelihood, and whether that
    value stands.  It does not stand where the point's matrices are not all
    finite (even if the infinite entry never reaches an observed ping), a
    gap overflows, a participant fails, or the total is not finite.
    Participant totals are added left to right, as a sum of the
    participants' own filter log-likelihoods is."""
    y, obs, u, lengths, *gaps = stack
    parts = [par.scatter(thetas) for par, thetas in segments]
    mats = parts[0] if len(parts) == 1 else {
        name: np.concatenate([m[name] for m in parts]) for name in parts[0]}
    ok = np.isfinite(np.concatenate([v.reshape(len(v), -1) for v in mats.values()], 1)).all(1)
    m = {name: v[:, None] for name, v in mats.items()}
    if gaps:
        templates = [par.template for par, thetas in segments for _ in range(len(thetas))]
        trans = _ct_steps(templates, mats, gaps[0], lengths, ok)
    else:
        trans = (m["A"][None], m["Sigma"][None], m["G"][None])
    res = _kalman_stack(y, obs, u, m["initial_mean"], m["initial_cov"], m["H"], m["Theta"],
                        trans, store=store, lengths=lengths)
    with np.errstate(all="ignore"):       # failed members may hold inf or NaN
        total = np.add.accumulate(res.total, axis=1)[:, -1]
    return mats, res, -total, ok & (res.fail == 0).all(axis=1) & np.isfinite(total)


def _stacked_objectives(par: Parameterization, stack, penalty: float,
                        thetas) -> np.ndarray:
    """Negative pooled log-likelihood at each point, from one lean
    :func:`_kalman_pass`, or the penalty where that value does not stand."""
    _, _, value, ok = _kalman_pass([(par, thetas)], stack)
    return np.where(ok, value, penalty)


def _heuristic_start(par: Parameterization, participants: Sequence[Participant]) -> None:
    """Lag-one regression start for A; residual moments for the variances.

    Applies only when every channel is Gaussian and the measurement is square
    and identity-like (the usual VAR-style layout); otherwise the template
    values stand.  A Gaussian regression on Likert categories or counts
    would only bias the start.
    """
    tpl = par.template
    n, p = tpl.n_states, tpl.n_obs
    if (not tpl.all_gaussian or p != n or not np.allclose(tpl.H, np.eye(n))
            or tpl.time_mode != "discrete"):
        return
    X0, X1 = [], []
    for part in participants:
        ok = part.observed.all(axis=1)
        pair = ok[:-1] & ok[1:]
        if pair.any():
            X0.append(part.Y[:-1][pair])
            X1.append(part.Y[1:][pair])
    if not X0:
        return
    X0 = np.vstack(X0); X1 = np.vstack(X1)
    if X0.shape[0] < 3 * n or not (np.isfinite(X0).all() and np.isfinite(X1).all()):
        return
    A_hat, *_ = np.linalg.lstsq(X0, X1, rcond=None)
    A_hat = A_hat.T
    resid = X1 - X0 @ A_hat.T
    R = np.cov(resid.T).reshape(n, n)
    if not (np.all(np.isfinite(A_hat)) and np.all(np.isfinite(R))):
        return
    for i in range(n):
        for j in range(n):
            par.set_start("A", (i, j), A_hat[i, j])
        par.set_start("Sigma", (i, i), max(0.5 * R[i, i], 1e-4))
        par.set_start("Theta", (i, i), max(0.5 * R[i, i], 1e-4))


_RECOVERABLE = frozenset({"SINGULAR_INNOVATION", "DEGENERATE_WEIGHTS",
                          "NON_FINITE", "NEGATIVE_RATE"})
# Members of one stacked pass of a lockstep fit's objective, unless a single
# search's points need more: bounds the memory of wide rounds.
_PASS_MEMBERS = 2048


class _Problem(NamedTuple):
    """One likelihood to maximize: a candidate's pooled fit, or one
    participant's idiographic fit, under its own parameterization, with its
    own heuristic start and restart seed."""

    par: Parameterization
    theta0: np.ndarray
    participants: Sequence[Participant]
    n_obs_used: int
    seed_seq: np.random.SeedSequence
    pid: str | None


def _kalman_evaluators(group: dict, penalty: float):
    """The lean objective ``[(j, points)] -> [values at the points]`` and
    the round evaluator ``[(j, x)] -> [(f, g)]`` of the Kalman problems
    ``group`` ({j: problem}), which share a shape, time mode, input count
    and participant count R.

    Both run :func:`_kalman_pass`es over one stack.  Consecutive whole
    blocks of points share a pass of at most ``_PASS_MEMBERS`` members (a
    block that needs more runs alone), with one scatter per run of points
    under one ``Parameterization``.  Each member carries its own problem's
    series, lengths and gaps; problems that share their participants share
    one row of the stack.

    1x1 and continuous-time groups take central differences of the lean
    objective (:func:`_value_and_grad`).  The others take the exact score:
    one stored pass at the pending iterates, then, per search,
    :func:`~emastate.filtering._kalman_score` over its own R members, cut to
    its own longest series, and :meth:`Parameterization.chain`.  So each
    search's backward pass runs in the form it runs in alone, and its f is
    the lean value at x, bit for bit.  A point whose value does not stand,
    or whose score is not finite, gets ``(penalty, zeros)``."""
    rows = {}           # one row of the stack per distinct participant list
    row = {j: rows.setdefault(id(prob.participants), (len(rows), prob.participants))[0]
           for j, prob in group.items()}
    lists = [people for _, people in rows.values()]
    tpl = next(iter(group.values())).par.template
    stack = [x.reshape((len(lists), len(lists[0])) + x.shape[1:]) for x in _stack_participants(
        tpl, [p for people in lists for p in people])]
    width = max(_PASS_MEMBERS // len(lists[0]), 1)

    def passes(segments, store=False):
        """Each pass's segments, and the pass."""
        chunks, size = [[]], 0
        for seg in segments:
            if chunks[-1] and size + len(seg[1]) > width:
                chunks.append([])
                size = 0
            chunks[-1].append(seg)
            size += len(seg[1])
        for chunk in chunks:
            parts = [(par, np.concatenate([points for _, points in seg])) for par, seg in
                     groupby(chunk, key=lambda seg: group[seg[0]].par)]
            owners = np.repeat([row[j] for j, _ in chunk], [len(points) for _, points in chunk])
            yield chunk, _kalman_pass(parts, [x[0] if len(lists) == 1 else x[owners]
                                              for x in stack], store)

    def objectives(segments):
        values = []
        for chunk, (_, _, value, ok) in passes(segments):
            values += np.split(np.where(ok, value, penalty),
                               np.cumsum([len(points) for _, points in chunk])[:-1])
        return values

    # The exact score needs one pass at the iterate whatever k is; a 1x1
    # pass of all 2k+1 points costs about as much as one point.
    if tpl.time_mode == "continuous" or tpl.n_states == tpl.n_obs == 1:
        return objectives, _value_and_grad(objectives, _FD_STEP)

    def scores(pending):
        out = []
        for chunk, (mats, res, value, ok) in passes([(j, x[None]) for j, x in pending], True):
            for k, (j, (x,)) in enumerate(chunk):
                # its own rows of the stack and of the pass, cut to its own
                # longest series: the arrays a stack of its own would give
                par, T, g = group[j].par, stack[3][row[j]].max(), None
                if ok[k]:
                    with np.errstate(all="ignore"):
                        g = par.chain(x, _kalman_score(
                            *(s[row[j], :, :T] for s in stack[:3]),
                            *(m[k][:, :T] for m in res.moments[:2]),
                            mats["A"][k], mats["H"][k], mats["Theta"][k]))
                out.append((float(value[k]), -g) if g is not None and np.isfinite(g).all()
                           else (penalty, np.zeros(par.n_free)))
        return out
    return objectives, scores


def _evaluators(problems: Sequence[_Problem], options: FitOptions, penalty: float):
    """Per problem, its lean objective ``[(j, points)] -> [values]`` and its
    round evaluator ``[(j, x)] -> [(f, g)]``; problems that are served
    together share one function.

    Kalman problems of one shape, time mode, input count and participant
    count form a group, and each group gets one pair from
    :func:`_kalman_evaluators`: each round, one stacked pass serves every
    pending search of the group, lean over the 2k+1 points of each (1x1
    and continuous-time groups) or stored at each iterate (the exact
    score).  Particle problems take central differences of an objective
    that filters their points one series at a time."""
    if options.likelihood == "particle":
        def objective(prob, theta):
            spec = prob.par.unpack(theta)
            if not all(np.isfinite(getattr(spec, name)).all() for name in _MATRIX_NAMES):
                return penalty
            try:
                with np.errstate(all="ignore"):   # non-finite points are penalized
                    total = sum(float(_particle_pass(
                        spec, p.Y, options.n_particles, options.particle_seed, p.missing,
                        p.U, p.timestamps, store=False)[2].sum()) for p in prob.participants)
            except EmaError as err:
                if err.code in _RECOVERABLE:      # a different theta may cure these
                    return penalty
                raise
            return -total if np.isfinite(total) else penalty

        def particle(segments):
            return [np.array([objective(problems[j], x) for x in points])
                    for j, points in segments]
        return [particle] * len(problems), [_value_and_grad(particle, _FD_STEP)] * len(problems)

    keys = [(p.par.template.time_mode, p.par.template.n_states, p.par.template.n_obs,
             p.par.template.n_inputs, len(p.participants)) for p in problems]
    groups = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, {})[j] = problems[j]
    pairs = {key: _kalman_evaluators(group, penalty) for key, group in groups.items()}
    return [pairs[key][0] for key in keys], [pairs[key][1] for key in keys]


def _dispatch(functions, items):
    """Each item ``(j, x)`` through ``functions[j]``, in one call per
    distinct function, which takes and returns lists; the results in item
    order."""
    calls = {}
    for at, (j, _) in enumerate(items):
        calls.setdefault(functions[j], []).append(at)
    out = {at: result for function, ats in calls.items()
           for at, result in zip(ats, function([items[at] for at in ats]))}
    return [out[at] for at in range(len(items))]


def _fit_single(problems: Sequence[_Problem], options: FitOptions) -> list:
    """One :class:`FitResult` per problem, every problem's restarts searched
    together.

    Each problem's starts are its ``theta0`` and perturbations of it.
    Before any search, each problem's first start of finite likelihood is
    sought: the first start of every problem in one call per lean
    objective, then each later start for the problems whose earlier
    starts were all penalized.  The first problem (in problem order) left
    without one raises ``NONFINITE_LIKELIHOOD``.  Then one
    :func:`~emastate.bfgs.minimize` call runs the BFGS searches of every
    problem in lockstep, each iterate's value and gradient from one
    evaluation.  Each round, the pending searches are handed to their
    problems' round evaluators (:func:`_evaluators`), one call per
    evaluator: the Kalman searches of every problem of one group, whatever
    its template, share one stacked pass.  Each search's iterates depend
    only on its own values, so each result equals a search run alone, and
    a problem failing after its search raises in problem order.
    """
    penalty = 1e12
    lean, rounds = _evaluators(problems, options, penalty)
    n, starts = options.n_restarts, []     # search i is start i % n of problem i // n
    for prob in problems:
        rng = np.random.default_rng(prob.seed_seq)
        scale = _PERTURB_SCALE * (1.0 + np.abs(prob.theta0))
        starts += [prob.theta0] + [prob.theta0 + rng.normal(0.0, scale) for _ in range(n - 1)]
    unchecked = list(range(len(problems)))      # no start of finite likelihood found yet
    for i in range(n):
        values = _dispatch(lean, [(j, starts[j * n + i][None]) for j in unchecked])
        unchecked = [j for j, v in zip(unchecked, values) if v[0] >= penalty]
    if unchecked:
        raise EmaError("NONFINITE_LIKELIHOOD",
                       "likelihood is non-finite at every multi-start initialization")

    # A penalized point gets the gradient 0 from the score, and from central
    # differences when both of its neighbours are penalized too.
    def evaluate(pending):
        return _dispatch(rounds, [(i // n, x) for i, x in pending])
    searches = minimize(evaluate, starts, gtol=options.tol, maxiter=options.max_iter).results

    results = []
    for j, prob in enumerate(problems):
        own = searches[j * n:(j + 1) * n]
        best = min(own, key=lambda r: r.fun)      # the first of equal minima
        if best.fun >= penalty:
            raise EmaError("NONFINITE_LIKELIHOOD", "no restart reached a finite likelihood")
        gnorm = float(np.max(np.abs(best.jac))) if best.jac is not None else np.inf
        ll = -float(best.fun)
        aic, bic = information_criteria(ll, prob.par.n_free, prob.n_obs_used)
        results.append(FitResult(
            spec_hat=prob.par.unpack(best.x), log_likelihood=ll, n_free=prob.par.n_free,
            n_obs_used=prob.n_obs_used, aic=aic, bic=bic,
            converged=bool(gnorm < options.tol and best.status == 0),
            n_restarts_used=len(own), restart_objectives=[float(r.fun) for r in own],
            gradient_norm=gnorm, seed=options.seed, participant=prob.pid,
            theta_hat=np.asarray(best.x, dtype=float),
            restarts=[{key: r[key] for key in ("nit", "nfev", "status", "message")}
                      for r in own]))
    return results


@dataclass
class FitResult:
    """Estimated spec plus optimizer diagnostics.

    ``restart_objectives`` and ``restarts`` follow the start order (the
    heuristic start first).  ``restarts`` holds each restart's BFGS ``nit``,
    ``nfev``, ``status`` and ``message`` as scipy reports them; it is not
    written by :meth:`to_dict`.

    Standard errors are deliberately absent (not zero): finite-difference
    Hessians over particle likelihoods are unreliable.
    """

    spec_hat: ModelSpec
    log_likelihood: float
    n_free: int
    n_obs_used: int
    aic: float
    bic: float
    converged: bool
    n_restarts_used: int
    restart_objectives: list
    gradient_norm: float
    seed: int
    participant: str | None = None
    theta_hat: np.ndarray | None = None
    restarts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "model": self.spec_hat.to_dict(),
            "log_likelihood": self.log_likelihood,
            "n_free": self.n_free,
            "n_obs_used": self.n_obs_used,
            "aic": self.aic,
            "bic": self.bic,
            "converged": self.converged,
            "n_restarts_used": self.n_restarts_used,
            "restart_objectives": list(self.restart_objectives),
            "gradient_norm": self.gradient_norm,
            "seed": self.seed,
            "participant": self.participant,
            "standard_errors": None,
        }


def information_criteria(log_likelihood: float, k: int, n_obs_used: int) -> tuple[float, float]:
    """AIC = 2k - 2ll; BIC = k ln(n) - 2ll, n = observed scalar cells."""
    if k < 0 or n_obs_used < 1:
        raise EmaError("BAD_PARAMETER_MAP", "need k >= 0 and n_obs_used >= 1")
    aic = 2.0 * k - 2.0 * log_likelihood
    bic = k * np.log(n_obs_used) - 2.0 * log_likelihood
    return float(aic), float(bic)


def _problems(template: ModelSpec, pmap: ParameterMap, data: EmaDataset, mode: str,
              options: FitOptions) -> list:
    """The checks of :func:`fit`, then its problems: one pooled problem, or
    one per participant, all under one ``Parameterization``.  Options out
    of range (fewer than one start, a negative ``max_iter``, a negative or
    non-finite ``tol``) are ``BAD_FIT_OPTIONS``."""
    require_valid(template)
    if not data.participants:
        raise EmaError("BAD_SCENARIO", "dataset has no participants")
    if mode not in ("pooled", "idiographic"):
        raise EmaError("BAD_SCENARIO", f"unknown fit mode {mode!r}")
    if options.likelihood not in ("kalman", "particle"):
        raise EmaError("BAD_PARAMETER_MAP", f"unknown likelihood {options.likelihood!r}")
    for name, ok, rule in (("n_restarts", options.n_restarts >= 1, "at least 1"),
                           ("max_iter", options.max_iter >= 0, "at least 0"),
                           ("tol", 0.0 <= options.tol < np.inf, "finite and at least 0")):
        if not ok:
            raise EmaError("BAD_FIT_OPTIONS",
                           f"{name} must be {rule}, got {getattr(options, name)}")
    if options.likelihood == "kalman" and not template.all_gaussian:
        raise EmaError("LIKELIHOOD_MODE_MISMATCH",
                       "kalman likelihood requires all-Gaussian channels; "
                       "request the particle likelihood instead")

    for p in data.participants:         # the filters' own series checks, once
        try:
            _series(template, p.Y, p.missing, p.U, p.timestamps)
        except EmaError as err:         # no parameter makes an infinite cell's likelihood finite
            code = "NONFINITE_LIKELIHOOD" if err.code == "NON_FINITE" else err.code
            raise EmaError(code, f"participant {p.pid}: {err.message}") from None

    empty = [p.pid for p in data.participants if not p.observed.any()]
    if empty and (mode == "idiographic" or len(empty) == len(data.participants)):
        raise EmaError("NO_OBSERVATIONS", f"participant {empty[0]} has no observed cell"
                       if mode == "idiographic" else "no participant has an observed cell")

    par = Parameterization(template, pmap)
    if par.n_free == 0:
        raise EmaError("NO_FREE_PARAMS", "the parameter map leaves nothing to estimate")

    if mode == "pooled":
        _heuristic_start(par, data.participants)
        return [_Problem(par, par.start_vector(), data.participants, data.observed_cells(),
                         np.random.SeedSequence((options.seed, 0)), None)]
    problems = []
    for i, p in enumerate(data.participants):
        par_i = Parameterization(template, pmap)
        _heuristic_start(par_i, [p])
        problems.append(_Problem(par, par_i.start_vector(), [p], int(p.observed.sum()),
                                 np.random.SeedSequence((options.seed, i)), p.pid))
    return problems


def fit(template: ModelSpec, pmap: ParameterMap, data: EmaDataset,
        mode: str = "pooled", options: FitOptions = FitOptions()):
    """Maximize the filter likelihood over the free parameters.

    mode "pooled"       one shared parameter set over every participant, the
                        filter restarting from the initial distribution at
                        each participant boundary; returns one FitResult.
    mode "idiographic"  an independent fit per participant; returns a list.

    Before any search, every participant's series gets the filters' checks
    and a failure names the participant; an observed infinite cell, whose
    likelihood no parameter makes finite, is ``NONFINITE_LIKELIHOOD``.
    Then each fit's starts must reach a finite likelihood, and every
    restart of every fit runs in one lockstep :func:`_fit_single` call, the
    driver that :func:`fit_candidates` shares, with the results each search
    gives when run alone.
    """
    results = _fit_single(_problems(template, pmap, data, mode, options), options)
    return results[0] if mode == "pooled" else results


def fit_candidates(candidates, options: FitOptions = FitOptions()) -> list:
    """One pooled :func:`fit` per candidate ``(template, pmap, data)``, in
    order, with the results each gives alone.

    The candidates are taken one at a time and each gets :func:`fit`'s
    checks before the next is taken, so a candidate that fails to load (an
    error the iterable raises) or to pass them is raised in candidate
    order, before any search.  Then one lockstep :func:`_fit_single` call
    searches every candidate: each round, one stacked pass serves the
    searches of all Kalman candidates of one time mode, shape, input count
    and participant count.  A candidate's failure to reach a finite
    likelihood is raised after every candidate has passed its checks.
    """
    return _fit_single([prob for template, pmap, data in candidates
                        for prob in _problems(template, pmap, data, "pooled", options)],
                       options)


# ---------------------------------------------------------------------------
# Disturbance-coding comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonRow:
    model_id: str
    k: int
    loglik: float
    aic: float
    bic: float
    rank_aic: int
    rank_bic: int
    converged: bool


@dataclass
class ComparisonTable:
    """Full fit table; every candidate is reported, never just the winner."""

    rows: list

    def best(self, criterion: str = "aic") -> str:
        key = {"aic": lambda r: r.rank_aic, "bic": lambda r: r.rank_bic}[criterion]
        return min(self.rows, key=key).model_id

    def to_delimited(self, sep: str = ",") -> str:
        header = ["model_id", "k", "loglik", "aic", "bic",
                  "rank_aic", "rank_bic", "converged"]
        lines = [sep.join(header)]
        for r in self.rows:
            lines.append(sep.join([
                r.model_id, str(r.k), f"{r.loglik:.12g}", f"{r.aic:.12g}",
                f"{r.bic:.12g}", str(r.rank_aic), str(r.rank_bic),
                str(bool(r.converged)).lower()]))
        return "\n".join(lines) + "\n"


def _ranks(values: Sequence[float], ks: Sequence[int]) -> list[int]:
    # ties break toward fewer free parameters, then listed order
    order = sorted(range(len(values)), key=lambda i: (values[i], ks[i], i))
    ranks = [0] * len(values)
    for pos, i in enumerate(order):
        ranks[i] = pos + 1
    return ranks


def rank_fits(labels: Sequence[str], fits: Sequence[FitResult]) -> ComparisonTable:
    aics = [f.aic for f in fits]
    bics = [f.bic for f in fits]
    ks = [f.n_free for f in fits]
    r_a = _ranks(aics, ks)
    r_b = _ranks(bics, ks)
    rows = [ComparisonRow(model_id=lab, k=f.n_free, loglik=f.log_likelihood,
                          aic=f.aic, bic=f.bic, rank_aic=ra, rank_bic=rb,
                          converged=f.converged)
            for lab, f, ra, rb in zip(labels, fits, r_a, r_b)]
    return ComparisonTable(rows)


def compare_disturbance_codings(template: ModelSpec, pmap: ParameterMap,
                                data: EmaDataset,
                                candidates: Sequence[Sequence[DisturbanceEvent]],
                                options: FitOptions = FitOptions(),
                                labels: Sequence[str] | None = None) -> ComparisonTable:
    """Fit one pooled model per disturbance coding and rank by AIC/BIC.

    Each candidate's events are re-encoded onto every participant's ping
    grid, overwriting exactly the input slots the candidate touches; all
    other inputs and every other modelling choice stay identical.  The
    codings are fitted together by :func:`fit_candidates`.
    """
    if len(candidates) < 1:
        raise EmaError("BAD_SCENARIO", "need at least one candidate coding")
    if labels is None:
        labels = [f"coding_{i}" for i in range(len(candidates))]

    def coded(events):
        d = data.copy()
        slots = sorted({e.input_slot for e in events})
        for p in d.participants:
            enc = encode_disturbance(list(events), p.timestamps, template.n_inputs)
            for s in slots:
                p.U[:, s] = enc[:, s]
        return template, pmap, d
    return rank_fits(list(labels), fit_candidates(map(coded, candidates), options))
