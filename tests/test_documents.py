"""Model, scenario and template documents: one reader, typed errors.

Every document is built from its dataclass's own fields, so a key that is
not a field is ``UNKNOWN_KEY``, a missing required field or a value that
does not convert is ``PARSE_ERROR``, and an omitted key keeps the
dataclass default.  The contract test feeds the command line malformed
files and asserts a typed error, never a traceback.
"""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emastate as es
from emastate.cli import main
from emastate.errors import EmaError
from emastate.model import from_document, read_document


# --- the reader ---------------------------------------------------------------

def test_read_document_types_its_failures(tmp_path):
    with pytest.raises(EmaError) as exc:
        read_document(tmp_path / "absent.json", "scenario")
    assert exc.value.code == "FILE_NOT_FOUND"
    assert "no such scenario file" in exc.value.message
    for text in (b"{not json", b"\xff\xfe{}"):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(EmaError) as exc:
            read_document(path, "scenario")
        assert exc.value.code == "PARSE_ERROR"


def test_from_document_keys_are_the_dataclass_fields():
    ev = from_document(es.DisturbanceEvent, {"onset": 1, "coding": "pulse", "magnitude": 2},
                       "event", onset=float, magnitude=float)
    assert ev == es.DisturbanceEvent(1.0, "pulse", 2.0)
    with pytest.raises(EmaError) as exc:
        from_document(es.DisturbanceEvent, {"onset": 1, "coding": "pulse"}, "event")
    assert (exc.value.code, exc.value.message) == (
        "PARSE_ERROR", "event missing required key 'magnitude'")
    with pytest.raises(EmaError) as exc:
        from_document(es.DisturbanceEvent, {"onset": 1, "coding": "pulse", "magnitude": 2,
                                            "size": 3}, "event")
    assert (exc.value.code, exc.value.message) == ("UNKNOWN_KEY", "unknown event keys: ['size']")
    with pytest.raises(EmaError) as exc:
        from_document(es.DisturbanceEvent, ["onset"], "event")
    assert (exc.value.code, exc.value.message) == ("PARSE_ERROR", "event must be a JSON object")


def test_a_failed_conversion_is_a_parse_error_naming_the_part():
    with pytest.raises(EmaError) as exc:
        es.scenario_from_dict({"schedule": {"horizon": "ten"}})
    assert exc.value.code == "PARSE_ERROR"
    assert exc.value.message.startswith("bad schedule: ")
    with pytest.raises(EmaError) as exc:
        es.ModelSpec.from_dict({"A": "abc", "Sigma": [[1.0]]})
    assert exc.value.code == "PARSE_ERROR"
    assert exc.value.message.startswith("bad model: ")


def test_a_constructor_error_passes_through_unchanged():
    with pytest.raises(EmaError) as exc:
        es.ModelSpec.from_dict({"A": [[0.5]], "Sigma": [[1.0, 0.0]]})
    assert exc.value.code == "INVALID_MODEL"
    with pytest.raises(EmaError) as exc:
        es.scenario_from_dict({"schedule": {}, "regimes": {"breakpoints": [1.0]}})
    assert exc.value.code == "BAD_SCENARIO"


def test_declared_model_sizes_are_checked_against_the_matrices():
    d = {"A": [[0.5]], "Sigma": [[1.0]], "n_states": 1, "n_obs": "1", "n_inputs": 0}
    assert es.ModelSpec.from_dict(d).n_obs == 1
    with pytest.raises(EmaError) as exc:
        es.ModelSpec.from_dict({**d, "n_obs": 2})
    assert exc.value.message == "declared n_obs=2 but matrices imply 1"
    with pytest.raises(EmaError) as exc:
        es.ModelSpec.from_dict({**d, "n_states": "two"})
    assert exc.value.code == "PARSE_ERROR"


# --- every optional key parses to its value or to the dataclass default -------

_num = st.floats(-50, 50, allow_nan=False).map(lambda v: round(v, 3))
_pos = st.floats(0.5, 50, allow_nan=False).map(lambda v: round(v, 3))
_pairs = st.lists(st.tuples(_num, _num), max_size=3).map(lambda v: [list(p) for p in v])


def _as_pairs(v):
    return tuple((float(a), float(b)) for a, b in v)


# section -> (dataclass, required keys, optional keys); each key maps to a
# strategy of JSON values and the attribute a value must parse to
_SECTIONS = {
    "schedule": (es.PingSchedule, {}, {
        "kind": (st.sampled_from(["fixed", "jittered", "random_window", "event_driven"]), str),
        "horizon": (_pos, float), "interval": (_pos, float), "max_jitter": (_pos, float),
        "windows": (_pairs, _as_pairs), "pings_per_day": (st.integers(0, 9), int),
        "mean_interval": (_pos, float), "day_length": (_pos, float),
        "night_length": (_pos, float)}),
    "trend": (es.TrendSpec, {"kind": (st.sampled_from(["linear", "weekend"]), str)}, {
        "coefficients": (st.lists(_num, max_size=3), tuple),
        "weekend_days": (st.lists(st.integers(0, 6), max_size=3), frozenset),
        "period": (_pos, float), "phase": (_num, float), "windows": (_pairs, _as_pairs)}),
    "event": (es.DisturbanceEvent, {"onset": (_num, float),
                                    "coding": (st.sampled_from(["pulse", "persistent"]), str),
                                    "magnitude": (_num, float)}, {
        "decay_ratio": (_pos, float), "input_slot": (st.integers(0, 3), int)}),
    "missingness": (es.MissingnessSpec, {"mechanism": (st.sampled_from(["MCAR", "MNAR"]), str),
                                         "rate": (st.floats(0, 0.9), float)}, {
        "driver": (st.integers(0, 3), int), "slope": (_num, float),
        "time_windows": (_pairs, _as_pairs), "lag": (st.integers(1, 5), int)}),
    "regime": (es.Regime, {}, {
        "A": (st.just([[0.25]]), np.asarray), "mean_offset": (st.just([1.5]), np.asarray)}),
    "tvp": (es.TvpSchedule, {"target": (st.just([0, 0]), tuple), "start_value": (_num, float),
                             "end_value": (_num, float), "midpoint": (_num, float),
                             "steepness": (_pos, float)}, {
        "trajectory": (st.just("sigmoid"), str)}),
    "scenario": (es.Scenario, {"schedule": (st.just({}), lambda v: es.PingSchedule())}, {
        "trends": (st.just([]), tuple), "events": (st.just([]), tuple),
        "n_participants": (st.integers(1, 9), int), "seed": (st.integers(0, 99), int),
        "start_weekday": (st.integers(0, 6), int)}),
    "channel": (es.MeasurementChannel, {"family": (st.just("poisson"), str)}, {
        "state_index": (st.integers(0, 3), int), "scale": (_pos, float),
        "link": (st.sampled_from(["identity", "log"]), str),
        "discrimination": (_pos, float), "thresholds": (st.lists(_num, max_size=3), tuple),
        "categories": (st.integers(2, 6), int)}),
}


def _parse_section(name, section):
    """The object the section parses to, embedded where a document holds it."""
    if name == "channel":
        return es.MeasurementChannel.from_dict(section)
    if name == "scenario":
        return es.scenario_from_dict(section)
    doc = {"schedule": {}}
    doc[{"trend": "trends", "event": "events"}.get(name, name)] = (
        [section] if name in ("trend", "event") else section)
    if name == "regime":
        doc = {"schedule": {}, "regimes": {"breakpoints": [1.0], "regimes": [section]}}
    sc = es.scenario_from_dict(doc)
    return {"schedule": sc.schedule, "trend": sc.trends and sc.trends[0],
            "event": sc.events and sc.events[0], "missingness": sc.missingness,
            "regime": sc.regimes and sc.regimes.regimes[0], "tvp": sc.tvp}[name]


@st.composite
def _section(draw):
    name = draw(st.sampled_from(sorted(_SECTIONS)))
    _, required, optional = _SECTIONS[name]
    keys = draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    section = {k: draw(required[k][0]) for k in required}
    section.update({k: draw(optional[k][0]) for k in keys})
    return name, section


@settings(max_examples=300, deadline=None)
@given(_section())
def test_each_optional_key_parses_to_its_value_or_the_dataclass_default(case):
    name, section = case
    cls, required, optional = _SECTIONS[name]
    obj = _parse_section(name, section)
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        if f.name in section:
            want = {**required, **optional}[f.name][1](section[f.name])
        else:
            want = f.default if f.default is not dataclasses.MISSING else f.default_factory()
        got = getattr(obj, f.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), f.name
        else:
            assert got == want and type(got) is type(want), f.name


def test_the_regime_schedule_defaults_to_no_regimes():
    sc = es.scenario_from_dict({"schedule": {"interval": 1.0}, "regimes": {}})
    assert sc.regimes == es.RegimeSchedule((), ())
    assert sc.schedule == es.PingSchedule("fixed", 0.0, 1.0)


# --- the command line on malformed input files --------------------------------

MODEL = {"A": [[0.5]], "Sigma": [[1.0]], "Theta": [[0.5]]}
SCHEDULE = {"kind": "fixed", "horizon": 10.0, "interval": 1.0}
DATA = "participant_id,t,y.y1\np1,0,0.5\np1,1,{cell}\np1,2,0.25\n"


def _scenario(**sections):
    return {"schedule": SCHEDULE, **sections}


_TREND = {"kind": "linear"}
_EVENT = {"onset": 1.0, "coding": "pulse", "magnitude": 1.0}
_MISSING = {"mechanism": "MCAR", "rate": 0.1}
_REGIMES = {"breakpoints": [5.0], "regimes": [{"mean_offset": [1.0]}]}
_TVP = {"target": [0, 0], "start_value": 0.1, "end_value": 0.5, "midpoint": 5.0,
        "steepness": 1.0}

SIMULATE_CASES = {
    "trend without kind": (MODEL, _scenario(trends=[{"coefficients": []}]), "PARSE_ERROR"),
    "horizon not a number": (MODEL, {"schedule": {"horizon": "ten"}}, "PARSE_ERROR"),
    "event without magnitude": (MODEL, _scenario(events=[{"onset": 1.0, "coding": "pulse"}]),
                                "PARSE_ERROR"),
    "model A not a number": ({**MODEL, "A": "abc"}, _scenario(), "PARSE_ERROR"),
    "model without A": ({"Sigma": [[1.0]]}, _scenario(), "PARSE_ERROR"),
    "model as a list": ([MODEL], _scenario(), "PARSE_ERROR"),
    "model unknown key": ({**MODEL, "B": 1}, _scenario(), "UNKNOWN_KEY"),
    "model n_states not a number": ({**MODEL, "n_states": "one"}, _scenario(), "PARSE_ERROR"),
    "channel unknown key": ({**MODEL, "channels": [{"family": "gaussian", "x": 1}]},
                            _scenario(), "UNKNOWN_KEY"),
    "channel not an object": ({**MODEL, "channels": ["gaussian"]}, _scenario(), "PARSE_ERROR"),
    "scenario as a list": (MODEL, ["a", "not", "dict"], "PARSE_ERROR"),
    "scenario without schedule": (MODEL, {"n_participants": 2}, "PARSE_ERROR"),
    "scenario unknown key": (MODEL, _scenario(extra=1), "UNKNOWN_KEY"),
    "schedule unknown key": (MODEL, {"schedule": {**SCHEDULE, "every": 1}}, "UNKNOWN_KEY"),
    "trend unknown key": (MODEL, _scenario(trends=[{**_TREND, "x": 1}]), "UNKNOWN_KEY"),
    "event unknown key": (MODEL, _scenario(events=[{**_EVENT, "x": 1}]), "UNKNOWN_KEY"),
    "missingness unknown key": (MODEL, _scenario(missingness={**_MISSING, "x": 1}),
                                "UNKNOWN_KEY"),
    "regimes unknown key": (MODEL, _scenario(regimes={**_REGIMES, "x": 1}), "UNKNOWN_KEY"),
    "regime unknown key": (MODEL, _scenario(regimes={"breakpoints": [5.0],
                                                     "regimes": [{"x": 1}]}), "UNKNOWN_KEY"),
    "tvp unknown key": (MODEL, _scenario(tvp={**_TVP, "x": 1}), "UNKNOWN_KEY"),
    "schedule not an object": (MODEL, {"schedule": 5}, "PARSE_ERROR"),
    "trends not a list": (MODEL, _scenario(trends=3), "PARSE_ERROR"),
    "trend not an object": (MODEL, _scenario(trends=["linear"]), "PARSE_ERROR"),
    "event not an object": (MODEL, _scenario(events=[1.0]), "PARSE_ERROR"),
    "missingness not an object": (MODEL, _scenario(missingness="MCAR"), "PARSE_ERROR"),
    "regimes not an object": (MODEL, _scenario(regimes=[]), "PARSE_ERROR"),
    "regime not an object": (MODEL, _scenario(regimes={"breakpoints": [5.0], "regimes": [1]}),
                             "PARSE_ERROR"),
    "tvp not an object": (MODEL, _scenario(tvp=1), "PARSE_ERROR"),
    "tvp without start_value": (MODEL, _scenario(tvp={k: v for k, v in _TVP.items()
                                                      if k != "start_value"}), "PARSE_ERROR"),
    "missingness rate not a number": (MODEL, _scenario(missingness={**_MISSING, "rate": "high"}),
                                      "PARSE_ERROR"),
    "breakpoints not numbers": (MODEL, _scenario(regimes={"breakpoints": "ab",
                                                          "regimes": [{}, {}]}), "PARSE_ERROR"),
}

TEMPLATE_CASES = {
    "template unknown key": ({"model": MODEL, "params": {}}, "UNKNOWN_KEY"),
    "template without model": ({"parameters": {"A": [["free"]]}}, "PARSE_ERROR"),
    "template as a list": ([MODEL], "PARSE_ERROR"),
    "parameters as a list": ({"model": MODEL, "parameters": ["A"]}, "PARSE_ERROR"),
    "wrong-shape grid": ({"model": MODEL, "parameters": {"A": [["free", "free"]]}},
                         "BAD_PARAMETER_MAP"),
    "ragged grid": ({"model": {**MODEL, "A": [[0.5, 0.0], [0.0, 0.5]], "H": [[1.0, 0.0]],
                               "Sigma": [[1.0, 0.0], [0.0, 1.0]]},
                     "parameters": {"A": [["free", "free"], ["free"]]}}, "BAD_PARAMETER_MAP"),
}

_EXIT = {"PARSE_ERROR": 4, "FILE_NOT_FOUND": 4, "UNKNOWN_KEY": 2, "BAD_PARAMETER_MAP": 2,
         "NON_PSD_SIGMA": 2}


def _assert_typed_failure(rc, err, code):
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert re.fullmatch(r"error [A-Z_]+: .+", last), last
    assert last.startswith(f"error {code}: ")
    assert rc == _EXIT[code] and rc in (2, 3, 4)


def _write(path, obj):
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_on_a_malformed_document_is_a_typed_error(tmp_path, capsys, case):
    model, scenario, code = SIMULATE_CASES[case]
    rc = main(["simulate", "--model", _write(tmp_path / "m.json", model),
               "--scenario", _write(tmp_path / "s.json", scenario),
               "--out", str(tmp_path / "d.csv"), "--seed", "1"])
    _assert_typed_failure(rc, capsys.readouterr().err, code)
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("case", sorted(TEMPLATE_CASES))
def test_fit_on_a_malformed_template_is_a_typed_error(tmp_path, capsys, case):
    template, code = TEMPLATE_CASES[case]
    rc = main(["fit", "--data", _write(tmp_path / "d.csv", DATA.format(cell="1.0")),
               "--template", _write(tmp_path / "t.json", template),
               "--out", str(tmp_path / "f.json"), "--seed", "1"])
    _assert_typed_failure(rc, capsys.readouterr().err, code)


@pytest.mark.parametrize("command", ["fit", "filter", "validate"])
@pytest.mark.parametrize("text, code", [
    ("{\"A\": [[0.5]],", "PARSE_ERROR"), ("[1, 2]", "PARSE_ERROR"), (None, "FILE_NOT_FOUND")])
def test_an_unreadable_model_or_template_file_is_a_typed_error(tmp_path, capsys, command,
                                                                text, code):
    path = str(tmp_path / "m.json") if text is None else _write(tmp_path / "m.json", text)
    data = _write(tmp_path / "d.csv", DATA.format(cell="1.0"))
    argv = {"fit": ["fit", "--data", data, "--template", path, "--seed", "1"],
            "filter": ["filter", "--data", data, "--model", path],
            "validate": ["validate", "--model", path]}[command]
    rc = main(argv + ([] if command == "validate" else ["--out", str(tmp_path / "o")]))
    _assert_typed_failure(rc, capsys.readouterr().err, code)


@pytest.mark.parametrize("command", ["fit", "filter"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
def test_a_non_finite_data_token_is_a_parse_error(tmp_path, capsys, command, cell):
    data = _write(tmp_path / "d.csv", DATA.format(cell=cell))
    model = _write(tmp_path / "m.json", MODEL)
    template = _write(tmp_path / "t.json", {"model": MODEL, "parameters": {"A": [["free"]]}})
    argv = (["fit", "--template", template, "--seed", "1"] if command == "fit"
            else ["filter", "--model", model])
    rc = main(argv + ["--data", data, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    _assert_typed_failure(rc, err, "PARSE_ERROR")
    assert f":3: bad value '{cell}' in y.y1" in err


def test_filter_rejects_a_model_that_validate_rejects(tmp_path, capsys):
    model = _write(tmp_path / "m.json", {**MODEL, "Sigma": [[-0.5]]})
    data = _write(tmp_path / "d.csv", DATA.format(cell="1.0"))
    for method in ("kalman", "particle"):
        rc = main(["filter", "--data", data, "--model", model, "--method", method,
                   "--seed", "1", "--out", str(tmp_path / "f.csv")])
        _assert_typed_failure(rc, capsys.readouterr().err, "NON_PSD_SIGMA")
    assert not (tmp_path / "f.csv").exists()
    assert main(["validate", "--model", model]) == 2
