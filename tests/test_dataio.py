import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emastate as es
from emastate.errors import EmaError


def _make_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- read/write --------------------------------------------------------------

def test_roundtrip_simulated_dataset(tmp_path):
    spec = es.ModelSpec(A=[[0.5, 0.1], [0.0, 0.6]], Sigma=np.eye(2),
                        Theta=0.3 * np.eye(2), G=[[1.0], [0.5]])
    sched = es.PingSchedule(kind="fixed", horizon=50.0, interval=1.0)
    trend = es.TrendSpec(kind="linear", coefficients=(0.05,))
    data = es.simulate_dataset(spec, sched, trends=[trend],
                               n_participants=10, rng_seed=31)
    data = es.inject_missingness(data, es.MissingnessSpec("MCAR", 0.2), 5)
    path = tmp_path / "d.csv"
    es.write_dataset(data, path)
    back = es.read_dataset(path)
    assert es.datasets_equal(data, back, atol=1e-9)


def test_na_cell_sets_mask(tmp_path):
    path = _make_file(tmp_path, "participant_id,t,y.mood\np1,0,1.5\np1,1,NA\n")
    data = es.read_dataset(path)
    p = data.participants[0]
    assert p.missing[1, 0] and not p.missing[0, 0]
    assert np.isnan(p.Y[1, 0])
    assert data.y_names == ["mood"]


def test_duplicate_timestamp_rejected(tmp_path):
    path = _make_file(tmp_path, "participant_id,t,y.m\np1,0,1\np1,0,2\n")
    with pytest.raises(EmaError) as exc:
        es.read_dataset(path)
    assert exc.value.code == "NON_MONOTONE_TIME"


def test_na_in_u_rejected(tmp_path):
    path = _make_file(tmp_path, "participant_id,t,y.m,u.x\np1,0,1,NA\n")
    with pytest.raises(EmaError) as exc:
        es.read_dataset(path)
    assert exc.value.code == "NA_IN_U"


def test_parse_error_carries_line_number(tmp_path):
    path = _make_file(tmp_path, "participant_id,t,y.m\np1,0,1\np1,oops,2\n")
    with pytest.raises(EmaError) as exc:
        es.read_dataset(path)
    assert exc.value.code == "PARSE_ERROR"
    assert ":3:" in exc.value.message


def test_unsorted_participants_rejected(tmp_path):
    path = _make_file(tmp_path,
                      "participant_id,t,y.m\np2,0,1\np1,0,1\n")
    with pytest.raises(EmaError) as exc:
        es.read_dataset(path)
    assert exc.value.code == "PARSE_ERROR"


def test_split_participant_block_rejected(tmp_path):
    path = _make_file(tmp_path,
                      "participant_id,t,y.m\np1,0,1\np2,0,1\np1,1,1\n")
    with pytest.raises(EmaError) as exc:
        es.read_dataset(path)
    assert exc.value.code == "PARSE_ERROR"


# --- night-gap augmentation --------------------------------------------------

def _two_day_dataset(delta=2.4, pings_per_day=5):
    t = np.concatenate([np.arange(pings_per_day) * delta,
                        24.0 + np.arange(pings_per_day) * delta])
    Y = np.arange(t.size, dtype=float).reshape(-1, 1)
    return es.EmaDataset(
        [es.Participant("p1", t, Y, np.zeros_like(Y, bool), np.zeros((t.size, 0)))],
        ["y1"], [])


def test_paper_night_counting_five_rows():
    # 5 pings over a 12h day leaves a 12h night; at the 2.4h day cadence that
    # is 5 missing slots
    data = _two_day_dataset()
    out = es.augment_night_gaps(data, day_window=(0.0, 12.0), target_interval=2.4)
    p = out.participants[0]
    assert p.n_pings == 15
    assert p.metadata["inserted_rows"] == [5, 6, 7, 8, 9]
    assert p.missing[5:10].all()
    # even spread continues the day grid exactly here
    assert np.allclose(np.diff(p.timestamps), 2.4)


def test_continuous_pinging_unchanged():
    t = np.arange(48) * 1.0
    Y = np.zeros((48, 1))
    data = es.EmaDataset(
        [es.Participant("p1", t, Y, np.zeros_like(Y, bool), np.zeros((48, 0)))],
        ["y1"], [])
    out = es.augment_night_gaps(data, day_window=(0.0, 24.0), target_interval=1.0)
    assert out.participants[0].n_pings == 48
    assert out.participants[0].metadata["inserted_rows"] == []


def test_inserted_count_matches_rounding_rule():
    # wake 8:00, sleep 22:00; randomize the day cadence and the clock time of
    # the last evening ping, then check the excess-gap rounding rule
    rng = np.random.default_rng(37)
    wake, sleep = 8.0, 22.0
    for _ in range(20):
        delta = float(rng.uniform(1.5, 3.5))
        last = sleep - float(rng.uniform(0.0, delta))
        day = np.arange(wake, last + 1e-9, delta)
        t = np.concatenate([day, [24.0 + wake]])
        Y = np.zeros((t.size, 1))
        data = es.EmaDataset(
            [es.Participant("p1", t, Y, np.zeros_like(Y, bool),
                            np.zeros((t.size, 0)))], ["y1"], [])
        out = es.augment_night_gaps(data, day_window=(wake, sleep),
                                    target_interval=delta)
        n_inserted = len(out.participants[0].metadata["inserted_rows"])
        night_gap = (24.0 + wake - day[-1]) - delta
        assert n_inserted == round(night_gap / delta)


def test_augmentation_never_alters_observed_values():
    data = _two_day_dataset()
    before = data.participants[0].Y.copy()
    out = es.augment_night_gaps(data, day_window=(0.0, 12.0), target_interval=2.4)
    p = out.participants[0]
    kept = ~p.missing[:, 0]
    assert np.array_equal(p.Y[kept], before)
    assert np.array_equal(data.participants[0].Y, before)


# --- time covariates ---------------------------------------------------------

def _daily_dataset(T=7, start_weekday=0):
    t = np.arange(T) * 24.0
    Y = np.zeros((T, 1))
    meta = {"start_weekday": start_weekday}
    return es.EmaDataset(
        [es.Participant("p1", t, Y, np.zeros_like(Y, bool),
                        np.zeros((T, 0)), metadata=meta)], ["y1"], [])


def test_weekend_dummy_monday_start():
    data = _daily_dataset()
    out = es.encode_time_covariates(data, [es.TimeCovariate("weekend_dummy")])
    assert out.u_names == ["weekend_dummy"]
    assert np.allclose(out.participants[0].U[:, 0], [0, 0, 0, 0, 0, 1, 1])


def test_linear_t_is_ping_index():
    data = _daily_dataset(T=5)
    out = es.encode_time_covariates(data, [es.TimeCovariate("linear_t")])
    assert np.allclose(out.participants[0].U[:, 0], [1, 2, 3, 4, 5])


def test_time_since_waking():
    t = np.array([14.0])
    Y = np.zeros((1, 1))
    data = es.EmaDataset(
        [es.Participant("p1", t, Y, np.zeros_like(Y, bool), np.zeros((1, 0)))],
        ["y1"], [])
    cov = es.TimeCovariate("time_since_waking", wake_times={"p1": 7.5})
    out = es.encode_time_covariates(data, [cov])
    assert out.participants[0].U[0, 0] == pytest.approx(6.5)


def test_time_since_waking_requires_wake_times():
    data = _daily_dataset()
    with pytest.raises(EmaError) as exc:
        es.encode_time_covariates(data, [es.TimeCovariate("time_since_waking")])
    assert exc.value.code == "MISSING_WAKE_TIMES"


def test_clock_time_wraps_by_day():
    t = np.array([3.0, 27.5])
    Y = np.zeros((2, 1))
    data = es.EmaDataset(
        [es.Participant("p1", t, Y, np.zeros_like(Y, bool), np.zeros((2, 0)))],
        ["y1"], [])
    out = es.encode_time_covariates(data, [es.TimeCovariate("clock_time")])
    assert np.allclose(out.participants[0].U[:, 0], [3.0, 3.5])


def test_reencoding_replaces_named_column():
    data = _daily_dataset()
    once = es.encode_time_covariates(data, [es.TimeCovariate("linear_t")])
    twice = es.encode_time_covariates(once, [es.TimeCovariate("linear_t")])
    assert twice.u_names == ["linear_t"]
    assert twice.participants[0].U.shape[1] == 1
    assert np.allclose(twice.participants[0].U, once.participants[0].U)


@pytest.mark.parametrize("row, where", [
    ("p1,nan,1.0,0.0", "bad timestamp 'nan'"), ("p1,1,inf,0.0", "bad value 'inf' in y.a"),
    ("p1,1,1.0,Infinity", "bad value 'Infinity' in u.x"), ("p1,1,NaN,0.0", "bad value 'NaN' in y.a")])
def test_non_finite_token_is_a_parse_error_naming_line_and_column(tmp_path, row, where):
    path = _make_file(tmp_path, f"participant_id,t,y.a,u.x\np1,0,0.5,0.0\n{row}\n")
    with pytest.raises(EmaError) as exc:
        es.read_dataset(path)
    assert exc.value.code == "PARSE_ERROR"
    assert exc.value.message == f"{path}:3: {where}"


def test_nan_cells_of_y_are_missing_cells():
    Y = np.array([[0.5, np.nan], [np.nan, 1.0], [0.2, 0.3]])
    p = es.Participant("p1", [0.0, 1.0, 2.0], Y, np.zeros((3, 2), dtype=bool), np.zeros((3, 0)))
    assert p.missing.tolist() == [[False, True], [True, False], [False, False]]
    data = es.EmaDataset([p], ["a", "b"], [])
    assert data.observed_cells() == 4


# --- the bulk reader equals a row-by-row reader --------------------------------

def _row_by_row(path, sep=","):
    """Reference reader: every row's cells parsed and checked one by one, in
    file order, by Python's float; returns (pid, t, Y, missing, U) per
    participant, or raises the first error."""
    lines = open(path).read().splitlines()
    header = lines[0].split(sep)
    n_y = sum(c.startswith("y.") for c in header)
    cols = header[1:]
    order, rows = [], {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(sep)
        if len(cells) != len(header):
            raise EmaError("PARSE_ERROR",
                           f"{path}:{ln}: expected {len(header)} cells, got {len(cells)}")
        values = []
        for cell, col in zip(cells[1:], cols):
            if cell == "NA" and col[0] != "t":
                if col[0] == "u":
                    raise EmaError("NA_IN_U", f"{path}:{ln}: NA is not permitted in {col}")
                values.append(np.nan)
                continue
            try:
                v = float(cell)
                assert np.isfinite(v)
            except (ValueError, AssertionError):
                raise EmaError("PARSE_ERROR", f"{path}:{ln}: bad timestamp {cell!r}"
                               if col == "t" else f"{path}:{ln}: bad value {cell!r} in {col}")
            values.append(v)
        pid = cells[0]
        if pid not in rows:
            if order and any(pid < q for q in order):
                raise EmaError("PARSE_ERROR", f"{path}:{ln}: rows are not sorted by participant_id")
            order.append(pid)
            rows[pid] = []
        elif order[-1] != pid:
            raise EmaError("PARSE_ERROR",
                           f"{path}:{ln}: participant {pid} appears in separate blocks")
        if rows[pid] and values[0] <= rows[pid][-1][0][0]:
            raise EmaError("NON_MONOTONE_TIME", f"{path}:{ln}: t={cells[1]} does not "
                                                f"increase within participant {pid}")
        rows[pid].append((values, [c == "NA" for c in cells[2:2 + n_y]]))
    out = []
    for pid in order:
        v = np.array([r[0] for r in rows[pid]]).reshape(len(rows[pid]), len(cols))
        m = np.array([r[1] for r in rows[pid]], dtype=bool).reshape(len(rows[pid]), n_y)
        out.append((pid, v[:, 0], v[:, 1:1 + n_y], m, v[:, 1 + n_y:]))
    return out


_TOKENS = ["0", "1.5", "-2.25e-3", "7", "1e300", " 3 ", "1_0", "+4", ".5", "5.", "١",
           "NA", "na", " NA", "+NA", "NAN", "nan", "-inf", "Infinity", "1e999", "",
           "0x1p3", "1,5", "1d0", "abc"]


@settings(max_examples=300, deadline=None)
@given(n_y=st.integers(0, 2), n_u=st.integers(0, 2), blank=st.booleans(),
       rows=st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.floats(-1.0, 6.0),
                               st.lists(st.sampled_from(_TOKENS), min_size=4, max_size=4),
                               st.integers(0, 30)),
                     min_size=0, max_size=12))
def test_bulk_reader_equals_a_row_by_row_reader(tmp_path_factory, n_y, n_u, blank, rows):
    header = ["participant_id", "t"] + [f"y.y{j}" for j in range(n_y)] + \
        [f"u.u{j}" for j in range(n_u)]
    lines = [",".join(header)]
    for pid, t, tokens, dice in rows:
        cells = [pid, "%.3g" % t] + tokens[:n_y + n_u]
        if dice == 0:
            cells = cells[:-1] or ["a"]                     # a row of the wrong width
        elif dice == 1:
            cells[1] = tokens[0]                            # a timestamp of any token
        elif dice > 10:                                     # mostly numbers, some NA
            cells[2:] = ["NA" if (dice + k) % 5 == 0 and k < n_y else "%.17g" % (t * k - dice)
                         for k in range(n_y + n_u)]
        lines.append(",".join(cells))
        if blank and dice == 2:
            lines.append("  ")
    path = tmp_path_factory.mktemp("bulk") / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    try:
        want = _row_by_row(path)
    except EmaError as err:
        with pytest.raises(EmaError) as got:
            es.read_dataset(path)
        assert (got.value.code, got.value.message) == (err.code, err.message)
        return
    data = es.read_dataset(path)
    assert [p.pid for p in data.participants] == [w[0] for w in want]
    for p, (_, t, Y, missing, U) in zip(data.participants, want):
        for a, b in ((p.timestamps, t), (p.Y, Y), (p.missing, missing), (p.U, U)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
