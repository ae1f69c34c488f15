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

    The participant column is split off and every numeric cell of the file
    is parsed by one numpy call, which reads text cells as Python's
    ``float`` does; participants are cut where the participant column
    changes.  Every check runs on those arrays, and the error raised is
    that of the first failing row in file order, as a row-by-row reader
    meets it.  Rows are read one at a time only to word that error
    (:func:`_cell_error`), and to find the first cell that does not parse
    when the bulk parse fails.
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
    n_y = len(y_names)
    cols = ["t"] + [f"y.{name}" for name in y_names] + [f"u.{name}" for name in u_names]
    width = len(cols)               # numeric cells per row

    rows = [line for line in lines[1:] if line.strip()]
    # rows before the first one of the wrong width, then before the first
    # one whose cells do not all parse
    stop = next((i for i, line in enumerate(rows) if line.count(sep) != width), len(rows))
    cells = sep.join(rows[:stop]).split(sep) if stop else []
    pids = cells[::width + 1]
    del cells[::width + 1]
    try:
        values = _numbers(cells)
    except ValueError:
        stop = next(i for i in range(stop) if _cell_error(rows[i].split(sep), cols))
        values = _numbers(cells[:stop * width])
    values = values.reshape(stop, width)
    t = values[:, 0]

    # the first failing row of each kind: a bad cell (NA only where y allows
    # it), a participant out of order, a time that does not increase
    ok = np.isfinite(values)
    na = np.zeros((stop, n_y), dtype=bool)
    r, c = np.nonzero(~ok[:, 1:1 + n_y])
    na[r, c] = [cells[k] == NA for k in (r * width + c + 1).tolist()]
    ok[:, 1:1 + n_y] |= na
    bad_cell = np.flatnonzero(~ok.all(1))
    starts = [i for i in range(stop) if not i or pids[i] != pids[i - 1]]
    # while the blocks so far are sorted, a block is out of order (unsorted,
    # or seen before) exactly when its participant sorts before the last one
    misplaced = [i for i in starts[1:] if pids[i] < pids[i - 1]]
    late = (np.flatnonzero(~(t[1:] > t[:-1])) + 1).tolist()
    late = [i for i in late if pids[i] == pids[i - 1]]

    first = min([stop] + [x[0] for x in (bad_cell, late, misplaced) if len(x)])
    if first < len(rows):
        ln = [k for k, line in enumerate(lines[1:], start=2) if line.strip()][first]
        row = rows[first].split(sep)
        if first == stop and len(row) != width + 1:
            raise EmaError("PARSE_ERROR",
                           f"{path}:{ln}: expected {width + 1} cells, got {len(row)}")
        if first == stop or bad_cell.size and bad_cell[0] == first:
            code, what = _cell_error(row, cols)
            raise EmaError(code, f"{path}:{ln}: {what}")
        pid = row[0]
        if misplaced and misplaced[0] == first:
            raise EmaError("PARSE_ERROR", f"{path}:{ln}: " + (
                f"participant {pid} appears in separate blocks" if pid in pids[:first]
                else "rows are not sorted by participant_id"))
        raise EmaError("NON_MONOTONE_TIME",
                       f"{path}:{ln}: t={row[1]} does not increase within participant {pid}")

    participants = []
    for s, e in zip(starts, starts[1:] + [stop]):
        participants.append(Participant(
            pid=pids[s], timestamps=t[s:e].copy(), Y=values[s:e, 1:1 + n_y].copy(),
            missing=na[s:e], U=values[s:e, 1 + n_y:].copy()))
    return EmaDataset(participants, y_names, u_names, metadata={"source": str(path)})


def _numbers(cells: list[str]) -> np.ndarray:
    """The cells as floats, NA as NaN, in one call; numpy reads a text cell
    as Python's ``float`` does, so a cell that does not parse raises
    ValueError."""
    return np.array([math.nan if cell == NA else cell for cell in cells], dtype=float)


def _number(cell: str) -> float:
    """The finite number a cell holds; ``nan`` and ``inf`` are ValueErrors."""
    v = float(cell)
    if not math.isfinite(v):
        raise ValueError(cell)
    return v


def _cell_error(cells, cols):
    """(code, message) of the first cell of a row, in column order, that
    does not parse as a finite number: a bad timestamp or value, or NA in
    an input column; None if every cell does.  ``cells`` is the row's
    cells, its participant first, and ``cols`` the names of the others."""
    for cell, col in zip(cells[1:], cols):
        if cell == NA and col[0] != "t":
            if col[0] == "u":
                return "NA_IN_U", f"NA is not permitted in {col}"
            continue
        try:
            _number(cell)
        except ValueError:
            return "PARSE_ERROR", (f"bad timestamp {cell!r}" if col == "t"
                                   else f"bad value {cell!r} in {col}")
    return None


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
