"""Dataset files and covariate plumbing.

The on-disk format is delimited text with header
``participant_id,t,y.<channel>...,u.<input>...``; missing observations are
the literal token ``NA`` (allowed in y columns only), every other cell is a
finite number (``nan`` and ``inf`` tokens are parse errors), and ``t`` is
hours since the participant's study start.  Rows are sorted by
(participant_id, t) with strictly increasing time within a participant.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .dataset import EmaDataset, Participant
from .errors import EmaError
from .simulate import DEFAULT_WEEKEND, HOURS_PER_DAY, TrendSpec

NA = "NA"
_FMT = "%.12g"


def write_dataset(data: EmaDataset, path, sep: str = ",") -> None:
    """Write the dataset; NA marks missing cells (masked or NaN), numbers use 12 significant
    digits (round-trips comfortably within 1e-9)."""
    header = (["participant_id", "t"]
              + [f"y.{n}" for n in data.y_names]
              + [f"u.{n}" for n in data.u_names])
    lines = [sep.join(header)]
    for p in sorted(data.participants, key=lambda q: q.pid):
        for t, y, miss, u in zip(p.timestamps.tolist(), p.Y.tolist(), (~p.observed).tolist(),
                                 p.U.tolist()):
            lines.append(sep.join([p.pid, _FMT % t]
                                  + [NA if m else _FMT % v for v, m in zip(y, miss)]
                                  + [_FMT % v for v in u]))
    atomic_write(path, "\n".join(lines) + "\n")


def atomic_write(path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it there."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_dataset(path, sep: str = ",") -> EmaDataset:
    """Parse a dataset file, enforcing the format invariants.

    Raises PARSE_ERROR (with the offending line number, and the column of
    a cell that is not a finite number), NON_MONOTONE_TIME for unsorted or
    duplicated timestamps, and NA_IN_U for missing tokens in input columns.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise EmaError("FILE_NOT_FOUND", f"no such dataset file: {path}")
    if not lines:
        raise EmaError("PARSE_ERROR", f"{path}:1: empty file")
    header = lines[0].split(sep)
    if len(header) < 2 or header[0] != "participant_id" or header[1] != "t":
        raise EmaError("PARSE_ERROR",
                       f"{path}:1: header must start with participant_id{sep}t")
    y_names, u_names = [], []
    for k, col in enumerate(header[2:], start=3):
        if col.startswith("y."):
            if u_names:
                raise EmaError("PARSE_ERROR",
                               f"{path}:1: y columns must precede u columns")
            y_names.append(col[2:])
        elif col.startswith("u."):
            u_names.append(col[2:])
        else:
            raise EmaError("PARSE_ERROR",
                           f"{path}:1: column {k} must be y.<name> or u.<name>")
    n_y, n_u = len(y_names), len(u_names)

    order: list[str] = []
    rows: dict[str, tuple] = {}     # per participant: t, y, missing and u, row by row
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(sep)
        if len(cells) != 2 + n_y + n_u:
            raise EmaError("PARSE_ERROR",
                           f"{path}:{ln}: expected {2 + n_y + n_u} cells, got {len(cells)}")
        pid = cells[0]
        try:
            t = _number(cells[1])
            y = [math.nan if cell == NA else _number(cell) for cell in cells[2:2 + n_y]]
            u = [_number(cell) for cell in cells[2 + n_y:]]
        except ValueError:
            raise _cell_error(path, ln, cells, y_names, u_names) from None
        if pid not in rows:
            if order and any(pid < q for q in order):
                raise EmaError("PARSE_ERROR",
                               f"{path}:{ln}: rows are not sorted by participant_id")
            order.append(pid)
            rows[pid] = ([], [], [], [])
        elif order[-1] != pid:
            raise EmaError("PARSE_ERROR",
                           f"{path}:{ln}: participant {pid} appears in separate blocks")
        ts, ys, miss, us = rows[pid]
        if ts and t <= ts[-1]:
            raise EmaError("NON_MONOTONE_TIME",
                           f"{path}:{ln}: t={cells[1]} does not increase within "
                           f"participant {pid}")
        ts.append(t)
        ys.append(y)
        miss.append([cell == NA for cell in cells[2:2 + n_y]])
        us.append(u)

    participants = []
    for pid in order:
        ts, ys, miss, us = rows[pid]
        participants.append(Participant(
            pid=pid,
            timestamps=np.array(ts),
            Y=np.array(ys).reshape(len(ts), n_y),
            missing=np.array(miss, dtype=bool).reshape(len(ts), n_y),
            U=np.array(us).reshape(len(ts), n_u),
        ))
    return EmaDataset(participants, y_names, u_names, metadata={"source": str(path)})


def _number(cell: str) -> float:
    """The finite number a cell holds; ``nan`` and ``inf`` are ValueErrors."""
    v = float(cell)
    if not math.isfinite(v):
        raise ValueError(cell)
    return v


def _cell_error(path, ln, cells, y_names, u_names) -> EmaError:
    """The error of the first cell of a row, in column order, that does not
    parse as a finite number: a bad timestamp or value, or NA in an input
    column."""
    cols = ["t"] + [f"y.{name}" for name in y_names] + [f"u.{name}" for name in u_names]
    for cell, col in zip(cells[1:], cols):
        if cell == NA and col[0] != "t":
            if col[0] == "u":
                return EmaError("NA_IN_U", f"{path}:{ln}: NA is not permitted in {col}")
            continue
        try:
            _number(cell)
        except ValueError:
            return EmaError("PARSE_ERROR", f"{path}:{ln}: bad timestamp {cell!r}" if col == "t"
                            else f"{path}:{ln}: bad value {cell!r} in {col}")


# ---------------------------------------------------------------------------
# Night-gap augmentation
# ---------------------------------------------------------------------------

def _night_midpoints_between(t0: float, t1: float, wake: float, sleep: float):
    """Clock midnights-of-sleep that fall strictly inside (t0, t1)."""
    night_len = wake + HOURS_PER_DAY - sleep
    if night_len <= 0:
        return []
    mid = (sleep + 0.5 * night_len) % HOURS_PER_DAY
    d0 = int(np.floor((t0 - mid) / HOURS_PER_DAY))
    out = []
    for d in range(d0, d0 + int((t1 - t0) / HOURS_PER_DAY) + 2):
        m = d * HOURS_PER_DAY + mid
        if t0 < m < t1:
            out.append(m)
    return out


def augment_night_gaps(data: EmaDataset, day_window: tuple[float, float],
                       target_interval: float) -> EmaDataset:
    """Insert all-NA rows across night gaps so a discrete-time filter sees an
    approximately equal-interval grid.

    ``day_window`` is (wake, sleep) in clock hours; a ping gap counts as a
    night gap when it spans the middle of a night.  The number of inserted
    rows approximates the excess gap beyond one regular interval,
    round((gap - target_interval)/target_interval), matching the rule of one
    missing slot per daytime-interval's worth of night.  Inserted rows are
    spread evenly, carry zero inputs, and are flagged in the participant
    metadata; existing rows are never altered.
    """
    wake, sleep = day_window
    if target_interval <= 0:
        raise EmaError("BAD_SCENARIO", "target_interval must be positive")
    out = data.copy()
    for p in out.participants:
        T = p.n_pings
        new_t, new_y, new_m, new_u = [], [], [], []
        inserted = []
        for t in range(T):
            new_t.append(p.timestamps[t])
            new_y.append(p.Y[t])
            new_m.append(p.missing[t])
            new_u.append(p.U[t])
            if t + 1 >= T:
                continue
            t0, t1 = p.timestamps[t], p.timestamps[t + 1]
            if not _night_midpoints_between(t0, t1, wake, sleep):
                continue
            gap = t1 - t0
            n_ins = int(round((gap - target_interval) / target_interval))
            if n_ins < 1:
                continue
            spacing = gap / (n_ins + 1)
            for k in range(1, n_ins + 1):
                inserted.append(len(new_t))
                new_t.append(t0 + k * spacing)
                new_y.append(np.full(data.n_obs, np.nan))
                new_m.append(np.ones(data.n_obs, dtype=bool))
                new_u.append(np.zeros(data.n_inputs))
        p.timestamps = np.array(new_t)
        p.Y = np.vstack(new_y) if new_y else p.Y
        p.missing = np.vstack(new_m) if new_m else p.missing
        p.U = (np.vstack(new_u) if new_u else p.U).reshape(len(new_t), data.n_inputs)
        p.metadata = dict(p.metadata)
        p.metadata["inserted_rows"] = inserted
    return out


# ---------------------------------------------------------------------------
# Time covariates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeCovariate:
    """A requested time coding appended to the input matrix.

    kind "linear_t"           ping index 1..T within each participant
    kind "weekend_dummy"      0/1 for day-of-week in ``days`` (participant
                              metadata key "start_weekday" anchors day 0;
                              Monday == 0)
    kind "clock_time"         hours since the most recent midnight
    kind "time_since_waking"  hours since that day's wake time; wake_times
                              maps pid to a clock hour or to a per-day list
    """

    kind: str
    name: str | None = None
    days: frozenset[int] = DEFAULT_WEEKEND
    wake_times: dict | float | None = None

    @property
    def column_name(self) -> str:
        return self.name or self.kind


def _wake_hour(cov: TimeCovariate, pid: str, day: int) -> float:
    wt = cov.wake_times
    if isinstance(wt, dict):
        wt = wt.get(pid)
        if wt is None:
            raise EmaError("MISSING_WAKE_TIMES", f"no wake times for participant {pid}")
    if wt is None:
        raise EmaError("MISSING_WAKE_TIMES",
                       "time_since_waking requires wake_times")
    if isinstance(wt, (int, float)):
        return float(wt)
    seq = list(wt)
    if day < len(seq):
        return float(seq[day])
    return float(seq[-1])


def _covariate_values(cov: TimeCovariate, p: Participant) -> np.ndarray:
    t = p.timestamps
    if cov.kind in ("linear_t", "weekend_dummy"):
        trend = TrendSpec("linear" if cov.kind == "linear_t" else "weekend",
                          weekend_days=cov.days)
        return trend.values(t, int(p.metadata.get("start_weekday", 0)))
    if cov.kind == "clock_time":
        return np.mod(t, HOURS_PER_DAY)
    if cov.kind == "time_since_waking":
        out = np.empty(t.size)
        for i, ti in enumerate(t):
            day = int(ti // HOURS_PER_DAY)
            w = day * HOURS_PER_DAY + _wake_hour(cov, p.pid, day)
            if ti < w and day > 0:
                day -= 1
                w = day * HOURS_PER_DAY + _wake_hour(cov, p.pid, day)
            out[i] = ti - w
        return out
    raise EmaError("BAD_SCENARIO", f"unknown time covariate kind {cov.kind!r}")


def encode_time_covariates(data: EmaDataset, codings: list[TimeCovariate]) -> EmaDataset:
    """Append (or replace, by column name) the requested time codings.

    Re-encoding a coding of the same name is idempotent: the named column is
    replaced, never duplicated.
    """
    out = data.copy()
    for cov in codings:
        name = cov.column_name
        if name in out.u_names:
            j = out.u_names.index(name)
            for p in out.participants:
                p.U[:, j] = _covariate_values(cov, p)
        else:
            out.u_names.append(name)
            for p in out.participants:
                vals = _covariate_values(cov, p).reshape(-1, 1)
                p.U = np.hstack([p.U, vals])
    return out
