import json
import os

import numpy as np
import pytest

import emastate as es
from emastate.cli import main


AR1_MODEL = {
    "n_states": 1, "n_obs": 1, "n_inputs": 0,
    "A": [[0.5]], "G": [], "H": [[1.0]],
    "Sigma": [[1.0]], "Theta": [[0.5]],
    "channels": [{"family": "gaussian", "state_index": 0}],
    "initial_mean": [0.0], "initial_cov": [[4.0 / 3.0]],
    "time_mode": "discrete", "random_walk_states": [],
}

SCENARIO = {
    "schedule": {"kind": "fixed", "horizon": 120.0, "interval": 1.0},
    "n_participants": 2,
}


def _write(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    d = dict(AR1_MODEL)
    d["G"] = [[0.0]]
    d["n_inputs"] = 1
    return _write(tmp_path / "model.json", d)


@pytest.fixture
def scenario_file(tmp_path):
    return _write(tmp_path / "scenario.json", SCENARIO)


def test_simulate_writes_dataset_and_manifest(tmp_path, model_file, scenario_file):
    out = tmp_path / "data.csv"
    rc = main(["simulate", "--model", model_file, "--scenario", scenario_file,
               "--out", str(out), "--seed", "3"])
    assert rc == 0
    assert out.exists()
    data = es.read_dataset(out)
    assert data.n_participants == 2
    manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    assert len(manifest["inputs"]["model"]) == 1
    assert (tmp_path / "data.csv.summary.txt").exists()


def test_simulate_zero_horizon_fails_with_exit_2(tmp_path, model_file):
    bad = dict(SCENARIO)
    bad["schedule"] = {"kind": "fixed", "horizon": 0.0, "interval": 1.0}
    scenario = _write(tmp_path / "bad.json", bad)
    rc = main(["simulate", "--model", model_file, "--scenario", scenario,
               "--out", str(tmp_path / "x.csv"), "--seed", "1"])
    assert rc == 2


def test_simulate_same_seed_byte_identical(tmp_path, model_file, scenario_file, monkeypatch):
    for d in ("run1", "run2"):
        (tmp_path / d).mkdir()
    outs = []
    for d in ("run1", "run2"):
        monkeypatch.chdir(tmp_path / d)
        rc = main(["simulate", "--model", model_file, "--scenario", scenario_file,
                   "--out", "data.csv", "--seed", "11"])
        assert rc == 0
        outs.append((tmp_path / d / "data.csv").read_bytes())
    assert outs[0] == outs[1]


def test_fit_pooled_recovers_shared_dynamics(tmp_path, model_file, scenario_file):
    data_out = tmp_path / "d.csv"
    main(["simulate", "--model", model_file, "--scenario", scenario_file,
          "--out", str(data_out), "--seed", "5"])
    model = dict(AR1_MODEL); model["G"] = [[0.0]]; model["n_inputs"] = 1
    template = {
        "model": model,
        "parameters": {"A": [["free"]], "Sigma": [["free"]], "Theta": [["free"]]},
    }
    tpl = _write(tmp_path / "tpl.json", template)
    fit_out = tmp_path / "fit.json"
    rc = main(["fit", "--data", str(data_out), "--template", tpl,
               "--mode", "pooled", "--restarts", "2", "--out", str(fit_out),
               "--seed", "7"])
    assert rc == 0
    payload = json.loads(fit_out.read_text())
    assert payload["mode"] == "pooled"
    a_hat = payload["results"][0]["model"]["A"][0][0]
    assert abs(a_hat - 0.5) < 0.15
    assert payload["results"][0]["standard_errors"] is None


def test_fit_idiographic_one_participant_matches_pooled(tmp_path, model_file):
    scenario = dict(SCENARIO); scenario["n_participants"] = 1
    sc = _write(tmp_path / "s1.json", scenario)
    data_out = tmp_path / "d1.csv"
    main(["simulate", "--model", model_file, "--scenario", sc,
          "--out", str(data_out), "--seed", "9"])
    model = dict(AR1_MODEL); model["G"] = [[0.0]]; model["n_inputs"] = 1
    tpl = _write(tmp_path / "tpl.json",
                 {"model": model,
                  "parameters": {"A": [["free"]], "Sigma": [["free"]]}})
    outs = {}
    for mode in ("pooled", "idiographic"):
        out = tmp_path / f"{mode}.json"
        rc = main(["fit", "--data", str(data_out), "--template", tpl,
                   "--mode", mode, "--restarts", "2", "--out", str(out),
                   "--seed", "13"])
        assert rc == 0
        outs[mode] = json.loads(out.read_text())["results"][0]
    assert outs["pooled"]["log_likelihood"] == pytest.approx(
        outs["idiographic"]["log_likelihood"], abs=1e-6)


def test_fit_with_an_unobserved_participant_exits_2(tmp_path, model_file, scenario_file,
                                                    capsys):
    data_out = tmp_path / "d.csv"
    main(["simulate", "--model", model_file, "--scenario", scenario_file,
          "--out", str(data_out), "--seed", "5"])
    data = es.read_dataset(data_out)
    p = data.participants[1]
    p.missing[:] = True
    p.Y[:] = np.nan
    es.write_dataset(data, data_out)
    model = dict(AR1_MODEL); model["G"] = [[0.0]]; model["n_inputs"] = 1
    tpl = _write(tmp_path / "tpl.json", {"model": model, "parameters": {"A": [["free"]]}})
    rc = main(["fit", "--data", str(data_out), "--template", tpl, "--mode", "idiographic",
               "--out", str(tmp_path / "f.json"), "--seed", "1"])
    assert rc == 2
    assert f"NO_OBSERVATIONS: participant {p.pid}" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_fit_particle_on_gaussian_warns_but_runs(tmp_path, model_file, capsys):
    scenario = {"schedule": {"kind": "fixed", "horizon": 40.0, "interval": 1.0}}
    sc = _write(tmp_path / "s.json", scenario)
    data_out = tmp_path / "d.csv"
    main(["simulate", "--model", model_file, "--scenario", sc,
          "--out", str(data_out), "--seed", "15"])
    model = dict(AR1_MODEL); model["G"] = [[0.0]]; model["n_inputs"] = 1
    tpl = _write(tmp_path / "tpl.json",
                 {"model": model, "parameters": {"A": [["free"]]}})
    rc = main(["fit", "--data", str(data_out), "--template", tpl,
               "--likelihood", "particle", "--particles", "300",
               "--restarts", "1", "--max-iter", "15",
               "--out", str(tmp_path / "f.json"), "--seed", "17"])
    assert rc == 0
    assert "kalman" in capsys.readouterr().err


def test_filter_command_exports_table(tmp_path, model_file, scenario_file):
    data_out = tmp_path / "d.csv"
    main(["simulate", "--model", model_file, "--scenario", scenario_file,
          "--out", str(data_out), "--seed", "19"])
    out = tmp_path / "filtered.csv"
    rc = main(["filter", "--data", str(data_out), "--model", model_file,
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "participant_id,t,mean.s1,var.s1,loglik,miss.y1"
    assert len(lines) == 1 + 2 * 120


def test_filter_methods_write_the_same_time_column(tmp_path, model_file):
    scenario = _write(tmp_path / "sc.json", {
        "schedule": {"kind": "fixed", "horizon": 20.0, "interval": 2.0},
        "n_participants": 2})
    data_out = tmp_path / "d.csv"
    main(["simulate", "--model", model_file, "--scenario", scenario,
          "--out", str(data_out), "--seed", "23"])
    cols = {}
    for method in ("kalman", "particle"):
        out = tmp_path / f"{method}.csv"
        rc = main(["filter", "--data", str(data_out), "--model", model_file,
                   "--method", method, "--particles", "200", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        cols[method] = [row.split(",")[:2] for row in out.read_text().splitlines()]
    assert cols["particle"] == cols["kalman"]
    assert [t for _, t in cols["kalman"][1:4]] == ["0", "2", "4"]


def test_compare_emits_full_table(tmp_path, model_file, scenario_file):
    data_out = tmp_path / "d.csv"
    main(["simulate", "--model", model_file, "--scenario", scenario_file,
          "--out", str(data_out), "--seed", "21"])
    model = dict(AR1_MODEL); model["G"] = [[0.0]]; model["n_inputs"] = 1
    tpl_a = _write(tmp_path / "free_a.json",
                   {"model": model, "parameters": {"A": [["free"]]}})
    tpl_b = _write(tmp_path / "free_a_sigma.json",
                   {"model": model,
                    "parameters": {"A": [["free"]], "Sigma": [["free"]]}})
    out = tmp_path / "table.csv"
    rc = main(["compare", "--data", str(data_out),
               "--templates", tpl_a, tpl_b, "--restarts", "1",
               "--out", str(out), "--seed", "23"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "model_id,k,loglik,aic,bic,rank_aic,rank_bic,converged"
    assert len(lines) == 3
    assert lines[1].startswith("free_a,1,")
    assert lines[2].startswith("free_a_sigma,2,")


def test_compare_identical_templates_tie_break_listed_order(tmp_path, model_file,
                                                            scenario_file):
    data_out = tmp_path / "d.csv"
    main(["simulate", "--model", model_file, "--scenario", scenario_file,
          "--out", str(data_out), "--seed", "25"])
    model = dict(AR1_MODEL); model["G"] = [[0.0]]; model["n_inputs"] = 1
    tpl = {"model": model, "parameters": {"A": [["free"]]}}
    t1 = _write(tmp_path / "cand1.json", tpl)
    t2 = _write(tmp_path / "cand2.json", tpl)
    out = tmp_path / "table.csv"
    main(["compare", "--data", str(data_out), "--templates", t1, t2,
          "--restarts", "1", "--out", str(out), "--seed", "27"])
    rows = out.read_text().splitlines()[1:]
    assert rows[0].split(",")[0] == "cand1"
    assert rows[0].split(",")[5] == "1" and rows[1].split(",")[5] == "2"
    assert rows[0].split(",")[2] == rows[1].split(",")[2]    # identical loglik


@pytest.mark.parametrize("order", [("no_free", "missing"), ("missing", "no_free")])
def test_compare_reports_the_first_failing_template_in_listed_order(tmp_path, model_file,
                                                                    scenario_file, order,
                                                                    capsys):
    """A template that fails to load, or fails the fit's checks, is reported
    in listed order, before any search runs."""
    from emastate import estimate
    data_out = tmp_path / "d.csv"
    main(["simulate", "--model", model_file, "--scenario", scenario_file,
          "--out", str(data_out), "--seed", "25"])
    model = dict(AR1_MODEL); model["G"] = [[0.0]]; model["n_inputs"] = 1
    paths = {"good": _write(tmp_path / "good.json",
                            {"model": model, "parameters": {"A": [["free"]]}}),
             "no_free": _write(tmp_path / "no_free.json", {"model": model}),
             "missing": str(tmp_path / "missing.json")}
    want = {"no_free": "error NO_FREE_PARAMS", "missing": "error FILE_NOT_FOUND"}
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "minimize", None)
        rc = main(["compare", "--data", str(data_out), "--templates", paths["good"],
                   *[paths[name] for name in order], "--restarts", "1",
                   "--out", str(tmp_path / "table.csv"), "--seed", "27"])
    assert rc in (2, 4)
    assert capsys.readouterr().err.startswith(want[order[0]])
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
@pytest.mark.parametrize("flags, message", [
    (["--restarts", "0"], "n_restarts must be at least 1, got 0"),
    (["--max-iter", "-1"], "max_iter must be at least 0, got -1"),
    (["--tol", "nan"], "tol must be finite and at least 0, got nan"),
    (["--tol", "-1"], "tol must be finite and at least 0, got -1.0")])
def test_out_of_range_fit_flags_exit_2_and_write_nothing(tmp_path, model_file, scenario_file,
                                                         command, flags, message, capsys):
    data_out = tmp_path / "d.csv"
    main(["simulate", "--model", model_file, "--scenario", scenario_file,
          "--out", str(data_out), "--seed", "5"])
    model = dict(AR1_MODEL); model["G"] = [[0.0]]; model["n_inputs"] = 1
    tpl = _write(tmp_path / "tpl.json", {"model": model, "parameters": {"A": [["free"]]}})
    out = tmp_path / "result"
    inputs = (["--template", tpl] if command == "fit" else ["--templates", tpl, tpl])
    capsys.readouterr()
    rc = main([command, "--data", str(data_out), *inputs, *flags, "--out", str(out),
               "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == f"error BAD_FIT_OPTIONS: {message}"
    assert not [name for name in os.listdir(tmp_path) if name.startswith("result")]


def test_plotdata_figures(tmp_path):
    for fig in ("fig1a", "fig1b", "fig3a", "fig3b", "fig3c"):
        rc = main(["plotdata", "--figure", fig, "--out", str(tmp_path / fig),
                   "--seed", "1"])
        assert rc == 0
        assert (tmp_path / fig / f"{fig}.csv").exists()


def test_plotdata_fig1a_has_three_aligned_series(tmp_path):
    main(["plotdata", "--figure", "fig1a", "--out", str(tmp_path), "--seed", "2"])
    lines = (tmp_path / "fig1a.csv").read_text().splitlines()
    assert lines[0] == "t,full,thin5,thin10"
    assert len(lines) == 201


def test_plotdata_fig3b_segment_means_order(tmp_path):
    main(["plotdata", "--figure", "fig3b", "--out", str(tmp_path), "--seed", "3"])
    lines = (tmp_path / "fig3b.csv").read_text().splitlines()[1:]
    vals = np.array([float(l.split(",")[1]) for l in lines])
    early, mid, late = vals[:33].mean(), vals[33:66].mean(), vals[66:].mean()
    assert mid > early > late


def test_plotdata_unknown_figure(tmp_path):
    rc = main(["plotdata", "--figure", "fig9z", "--out", str(tmp_path), "--seed", "1"])
    assert rc == 2


def test_plotdata_deterministic(tmp_path):
    for d in ("a", "b"):
        rc = main(["plotdata", "--figure", "fig3c", "--out", str(tmp_path / d),
                   "--seed", "31"])
        assert rc == 0
    assert ((tmp_path / "a" / "fig3c.csv").read_bytes()
            == (tmp_path / "b" / "fig3c.csv").read_bytes())


def test_validate_ok_and_failing_exit_codes(tmp_path):
    good = _write(tmp_path / "good.json", AR1_MODEL)
    assert main(["validate", "--model", good]) == 0
    bad_model = dict(AR1_MODEL)
    bad_model["Sigma"] = [[-1.0]]
    bad = _write(tmp_path / "bad.json", bad_model)
    out = tmp_path / "report.json"
    rc = main(["validate", "--model", bad, "--out", str(out)])
    assert rc == 2
    report = json.loads(out.read_text())
    assert report["errors"][0][0] == "NON_PSD_SIGMA"


def test_missing_input_file_exit_4(tmp_path):
    rc = main(["validate", "--model", str(tmp_path / "nope.json")])
    assert rc == 4


def test_numerical_failure_exit_3(tmp_path):
    # rank-one state noise with no measurement error makes the innovation
    # covariance singular
    model = {
        "A": [[0.5, 0.0], [0.0, 0.5]],
        "Sigma": [[1.0, 1.0], [1.0, 1.0]],
        "H": [[1.0, 0.0], [0.0, 1.0]],
        "Theta": [[0.0, 0.0], [0.0, 0.0]],
        "channels": [{"family": "gaussian"}, {"family": "gaussian"}],
        "initial_mean": [0.0, 0.0],
        "initial_cov": [[1.0, 1.0], [1.0, 1.0]],
        "time_mode": "discrete",
    }
    mf = _write(tmp_path / "singular.json", model)
    data = tmp_path / "d.csv"
    data.write_text("participant_id,t,y.a,y.b\np1,0,0.1,0.2\np1,1,0.0,0.1\n")
    rc = main(["filter", "--data", str(data), "--model", mf,
               "--out", str(tmp_path / "f.csv")])
    assert rc == 3


def test_simulate_writes_the_dataset_atomically(tmp_path, model_file, scenario_file,
                                                monkeypatch):
    out = tmp_path / "data.csv"
    out.write_text("previous contents\n")
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        if str(dst) == str(out):        # the target is untouched till its rename
            assert out.read_text() == "previous contents\n"
        renamed.append((str(src), str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    rc = main(["simulate", "--model", model_file, "--scenario", scenario_file,
               "--out", str(out), "--seed", "3"])
    assert rc == 0
    assert (f"{out}.tmp", str(out)) in renamed
    assert es.read_dataset(out).n_participants == 2


@pytest.mark.parametrize("initial_cov", [None, [[1.0, 0.0], [0.0, 1.0]]])
def test_validate_reports_each_non_finite_matrix(tmp_path, capsys, initial_cov):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [[0.5, 0.0], [0.0, float("nan")]],
                                "Sigma": [[1.0, 0.0], [0.0, 1.0]],
                                "Theta": [[float("inf"), 0.0], [0.0, 0.5]],
                                "initial_cov": initial_cov}))
    out = tmp_path / "report.json"
    rc = main(["validate", "--model", str(path), "--out", str(out)])
    printed = capsys.readouterr()
    assert rc == 3 and "Traceback" not in printed.err
    if initial_cov is None:     # no default initial_cov from a non-finite A
        assert printed.err.strip().splitlines()[-1].startswith("error NON_FINITE: A ")
        return
    assert "error NON_FINITE: A has a non-finite entry" in printed.out
    assert "error NON_FINITE: Theta has a non-finite entry" in printed.out
    errors = json.loads(out.read_text())["errors"]
    assert [e for e in errors if e[0] == "NON_FINITE"] == [
        ["NON_FINITE", "A has a non-finite entry"], ["NON_FINITE", "Theta has a non-finite entry"]]


def test_simulate_seed_defaults_to_the_scenario_seed(tmp_path, model_file, capsys):
    seeded = _write(tmp_path / "seeded.json", dict(SCENARIO, seed=9))

    def run(name, scenario, *seed):
        rc = main(["simulate", "--model", model_file, "--scenario", scenario,
                   "--out", str(tmp_path / name), *seed])
        return rc, tmp_path / name

    rc, default = run("default.csv", seeded)
    assert rc == 0
    assert run("nine.csv", seeded, "--seed", "9")[1].read_bytes() == default.read_bytes()
    assert "seed: 9" in (tmp_path / "default.csv.summary.txt").read_text()
    assert json.loads((tmp_path / "default.csv.manifest.json").read_text())["seed"] == 9
    given = run("three.csv", seeded, "--seed", "3")[1]     # --seed wins
    plain = run("plain.csv", _write(tmp_path / "plain.json", SCENARIO), "--seed", "3")[1]
    assert given.read_bytes() == plain.read_bytes() != default.read_bytes()
    capsys.readouterr()
    rc, _ = run("none.csv", str(tmp_path / "plain.json"))
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith("error BAD_SCENARIO: ")
