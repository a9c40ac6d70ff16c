"""Exercises the simulate driver end to end on tiny grids."""

import ast
import dataclasses
import glob
import json
import os
import re
import runpy
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from dense_ops import dense_vectors

from dressedlight import ModelParams, cli, model, solve_system
from dressedlight.cli import OUTPUT_ENV_VAR, build_parser, main
from dressedlight.qoptical import MAX_QO_UNKNOWNS

FLOAT_FIELD = re.compile(r"-?\d\.\d{12}e[+-]\d{2,3}$")


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _chart_config(**overrides):
    cfg = {
        "model": {"n_emitters": 1, "limit": "tc", "n_max": 12},
        "grid": {"g_min": 0.1, "g_max": 0.3, "g_steps": 3,
                 "T_min": 0.1, "T_max": 0.2, "T_steps": 2},
    }
    cfg.update(overrides)
    return cfg


def _read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_g2chart_writes_csv_summary_and_plot(tmp_path):
    cfg = _write_config(tmp_path, _chart_config())
    out = tmp_path / "run"
    assert main(["g2chart", "--config", cfg, "--out", str(out)]) == 0

    header, rows = _read_rows(out / "g2chart.csv")
    assert header == ["g", "T", "g2_zero", "collision_count", "degenerate",
                      "stationary_residual", "cutoff_tail", "status"]
    assert len(rows) == 6
    for row in rows:
        assert row["status"] == "0"
        assert FLOAT_FIELD.match(row["g2_zero"])
        assert float(row["g2_zero"]) > 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "g2chart"
    assert summary["config"]["workers"] == 1
    assert summary["metrics"]["n_points"] == 6
    assert summary["metrics"]["n_failed"] == 0
    assert "g2chart.csv" in summary["files"]

    script = (out / "plot_g2chart.py").read_text()
    assert "g2chart.csv" in script
    compile(script, "plot_g2chart.py", "exec")


def test_grid_rows_iterate_temperature_fastest(tmp_path):
    cfg = _write_config(tmp_path, _chart_config())
    out = tmp_path / "run"
    main(["g2chart", "--config", cfg, "--out", str(out)])
    _, rows = _read_rows(out / "g2chart.csv")
    g = [float(r["g"]) for r in rows]
    t = [float(r["T"]) for r in rows]
    assert g == [0.1, 0.1, 0.2, 0.2, 0.3, 0.3]
    assert t == [0.1, 0.2] * 3


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, _chart_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["g2chart", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["g2chart", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "g2chart.csv").read_bytes() == \
        (out2 / "g2chart.csv").read_bytes()


def test_missing_model_block_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"grid": _chart_config()["grid"]})
    assert main(["g2chart", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "model" in err
    assert not (tmp_path / "run").exists()


def test_config_errors_list_every_field_path(tmp_path, capsys):
    broken = _chart_config()
    broken["model"]["n_emitters"] = "two"
    broken["model"]["typo_field"] = 1
    broken["grid"]["g_steps"] = 2.5
    broken["unexpected"] = {}
    cfg = _write_config(tmp_path, broken)
    assert main(["g2chart", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    for path in ("model.n_emitters", "model.typo_field", "grid.g_steps",
                 "unexpected"):
        assert path in err


@pytest.mark.parametrize("task,payload,paths", [
    # a typo inside an optional block would otherwise fall back to its default
    ("spectrum", {"model": {"n_emitters": 1, "limit": "tc", "g": 0.3,
                            "temperature": 0.1, "n_max": 10},
                  "omega_grid": {"omega_max": 2.0, "point": 50}},
     ["omega_grid.point"]),
    # blocks of other tasks are not silently ignored either
    ("g2chart", {"model": {"n_emitters": 1, "limit": "tc", "n_max": 8},
                 "grid": {"g_min": 0.1, "g_max": 0.2, "g_steps": 2,
                          "T_min": 0.1, "T_max": 0.2, "T_steps": 2,
                          "t_stpes": 4},
                 "omega_grid": {}, "levels": 3},
     ["grid.t_stpes", "omega_grid", "levels"]),
], ids=["block-typo", "unread-blocks"])
def test_unknown_keys_and_unread_blocks_are_config_errors(tmp_path, capsys,
                                                          task, payload,
                                                          paths):
    cfg = _write_config(tmp_path, payload)
    assert main([task, "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    for path in paths:
        assert "config error: %s: " % path in err
    assert not (tmp_path / "run").exists()


_POINT_NO_CUTOFF = {"n_emitters": 1, "limit": "tc", "g": 0.3,
                    "temperature": 0.1}


@pytest.mark.parametrize("task,payload,line", [
    ("g2chart", _chart_config(model={"limit": "tc"}),
     "model.n_emitters: missing required field"),
    ("g2chart", _chart_config(model={"n_emitters": 1, "limit": "tc",
                                     "gamma": 0}),
     "model.gamma: must be > 0"),
    ("g2chart", _chart_config(grid={"g_min": 0.001, "g_max": 0.3,
                                    "g_steps": 3, "T_min": 0.1,
                                    "T_max": 0.2, "T_steps": 2}),
     "grid.g_min: must be >= 0.01"),
    ("g2chart", _chart_config(model={"n_emitters": 1, "limit": "foo"}),
     "model.limit: must be 'dicke' or 'tc'"),
    ("spectrum", {"model": {"n_emitters": 1, "g": 0.3, "temperature": 0.1}},
     "model.limit: missing required field"),
    ("analytic-compare", _chart_config(model={"n_emitters": 1,
                                              "limit": "dicke"}),
     "model.limit: analytic-compare is defined in the tc limit"),
    ("g2chart", _chart_config(grid={"g_min": 0.3, "g_max": 0.1,
                                    "g_steps": 3, "T_min": 0.1,
                                    "T_max": 0.2, "T_steps": 2}),
     "grid.g_max: must be >= grid.g_min"),
    ("spectrum", {"model": _POINT_NO_CUTOFF,
                  "omega_grid": {"omega_min": 2.0, "omega_max": 2.0}},
     "omega_grid.omega_max: must be > omega_grid.omega_min"),
    ("converge", {"model": _POINT_NO_CUTOFF, "n_max_pair": [5, 3]},
     "n_max_pair: expected [n_low, n_high] with 2 <= n_low < n_high"),
    ("converge", {"model": _POINT_NO_CUTOFF, "n_max_pair": [1, 4]},
     "n_max_pair: expected [n_low, n_high] with 2 <= n_low < n_high"),
    ("converge", {"model": _POINT_NO_CUTOFF, "n_max_pair": [2, True]},
     "n_max_pair: expected [n_low, n_high] with 2 <= n_low < n_high"),
    ("g2chart", [_chart_config()], "<root>: config must be a JSON object"),
    ("g2chart", _chart_config(output_dir=3), "output_dir: expected a string"),
], ids=["missing-n-emitters", "zero-gamma", "g-min-below-floor",
        "unknown-limit", "no-limit-or-g-prime", "compare-dicke",
        "g-max-below-g-min", "empty-omega-band", "cutoff-pair-descending",
        "cutoff-pair-below-two", "cutoff-pair-bool", "root-list",
        "output-dir-number"])
def test_invalid_values_are_config_errors(tmp_path, capsys, monkeypatch,
                                          task, payload, line):
    # no --out flag, so a config output_dir is read; the environment
    # variable keeps any output inside tmp_path
    monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "run"))
    cfg = _write_config(tmp_path, payload)
    assert main([task, "--config", cfg]) == 2
    assert "config error: %s" % line in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "run").exists()


def test_malformed_output_dir_is_config_error_under_the_out_flag(tmp_path,
                                                                capsys):
    # a bad config value is an error even where a flag overrides it
    cfg = _write_config(tmp_path, _chart_config(output_dir=3))
    assert main(["g2chart", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: output_dir: expected a string"]
    assert not (tmp_path / "run").exists()


def test_eigen_groups_levels_like_the_solve():
    # the eigen task and the solve share one level tolerance; three
    # emitters without counter-rotating terms have degenerate levels
    params = ModelParams(3, 0.3, 0.0, 0.1, n_max=30)
    rows = cli._eigen_rows(params, {"levels": params.dim})
    groups = [row[3] for row in rows]
    assert groups == solve_system(params).eig.group_index.tolist()
    assert groups[-1] + 1 < params.dim


# per config model field: a value just outside its range and the boundary
# value that is accepted
_MODEL_BOUNDS = {
    "n_emitters": (0, 1), "n_max": (1, 2),
    "g": (-5e-324, 0.0), "temperature": (-5e-324, 0.0),
    "x0": (0, 5e-324), "gamma": (0, 5e-324),
    "omega_c": (0, 5e-324), "omega_x": (0, 5e-324),
}


def _read_model_value(tmp_path, name, value):
    """(ModelParams message, parse_config issues), None where accepted."""
    point = {"n_emitters": 1, "g": 0.3, "temperature": 0.1, name: value}
    try:
        ModelParams(**dict(point, g_prime=0.0))
        library = None
    except ValueError as exc:
        library = str(exc)
    cfg = _write_config(tmp_path, {"model": dict(point, limit="tc")})
    try:
        cli.parse_config(cfg, "spectrum")
        issues = None
    except cli.ConfigError as exc:
        issues = exc.issues
    return library, issues


def test_model_params_and_the_config_accept_alike(tmp_path):
    # the library and the config reader take the same model values, and a
    # rejection names the field in both
    assert set(_MODEL_BOUNDS) == {field.name for field in
                                  dataclasses.fields(ModelParams)} - {"g_prime"}
    for name, (outside, boundary) in _MODEL_BOUNDS.items():
        for value in (True, "0.3", None, 10**400, outside, boundary):
            library, issues = _read_model_value(tmp_path, name, value)
            assert (library is None) == (issues is None), (name, value)
            if library is not None:
                assert library.startswith(name + " "), library
                assert [path for path, _ in issues] == ["model." + name]
        assert _read_model_value(tmp_path, name, outside)[0] is not None
        assert _read_model_value(tmp_path, name, boundary) == (None, None)


def test_qo_dimension_above_solver_limit_is_config_error(tmp_path, capsys,
                                                        monkeypatch):
    # C(7, 3) 22^2 = 16940 symmetric-subspace unknowns > MAX_QO_UNKNOWNS,
    # then a dimension 2^2 31 = 124 above a lowered model.DEFAULT_MAX_DIM:
    # no grid point could be solved
    for n_emitters, qo_n_max, max_dim in ((4, 21, model.DEFAULT_MAX_DIM),
                                          (2, 30, 123)):
        monkeypatch.setattr(model, "DEFAULT_MAX_DIM", max_dim)
        cfg = _write_config(tmp_path, {
            "model": {"n_emitters": n_emitters, "limit": "dicke"},
            "grid": {"g_min": 0.1, "g_max": 0.2, "g_steps": 2,
                     "T_min": 0.1, "T_max": 0.1, "T_steps": 1},
            "qo_n_max": qo_n_max})
        assert main(["qo-chart", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "config error: qo_n_max: " in err
        assert f"<= {MAX_QO_UNKNOWNS} " in err
        assert f"2^N (n_max+1) <= {max_dim}\n" in err
        assert not (tmp_path / "run").exists()


def test_qo_chart_runs_three_emitters_at_the_default_cutoff(tmp_path):
    # C(6, 3) 16^2 = 5120 unknowns: refused while the full 2^3 16 = 128
    # dimensional space was the limit
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 3, "limit": "dicke"},
        "grid": {"g_min": 0.4, "g_max": 0.4, "g_steps": 1,
                 "T_min": 0.1, "T_max": 0.1, "T_steps": 1}})
    out = tmp_path / "run"
    assert main(["qo-chart", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_rows(out / "qo-chart.csv")
    assert [row["status"] for row in rows] == ["0"]
    assert float(rows[0]["stationary_residual"]) < 1e-12
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    assert metrics["qo_n_max"] == cli.DEFAULT_QO_NMAX


def test_equal_grid_bounds_need_a_single_step(tmp_path, capsys):
    broken = _chart_config()
    broken["grid"].update(g_min=0.2, g_max=0.2, g_steps=2,
                          T_min=0.1, T_max=0.1, T_steps=3)
    cfg = _write_config(tmp_path, broken)
    assert main(["g2chart", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "grid.g_max" in err and "grid.T_max" in err
    assert not (tmp_path / "run").exists()
    # one step at equal bounds is a single well-defined value
    single = _chart_config()
    single["grid"].update(g_min=0.2, g_max=0.2, g_steps=1)
    cfg = _write_config(tmp_path, single, name="single.json")
    out = tmp_path / "single"
    assert main(["g2chart", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_rows(out / "g2chart.csv")
    assert len({(r["g"], r["T"]) for r in rows}) == len(rows) == 2


@pytest.mark.parametrize("task", sorted(cli.TASKS))
def test_g_prime_is_an_unknown_field(tmp_path, capsys, task):
    # limit is the one config spelling of g_prime; the library takes any
    payload = json.loads(json.dumps(CONTRACTS[task][0]))
    payload["model"]["g_prime"] = 0.0
    cfg = _write_config(tmp_path, payload)
    assert main([task, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: model.g_prime: unknown field"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("task", ["g2chart", "spectrum"])
@pytest.mark.parametrize("limit,line", [
    (None, "model.limit: missing required field"),
    ("foo", "model.limit: must be 'dicke' or 'tc'"),
], ids=["missing", "unknown"])
def test_limit_is_required_and_dicke_or_tc(tmp_path, capsys, task, limit,
                                           line):
    payload = json.loads(json.dumps(CONTRACTS[task][0]))
    del payload["model"]["limit"]
    if limit is not None:
        payload["model"]["limit"] = limit
    cfg = _write_config(tmp_path, payload)
    assert main([task, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: " + line]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("task,keys", [
    ("g2chart", ("g", "temperature")),
    ("qo-chart", ("g",)),
    ("eigen", ("temperature",)),
])
def test_sweep_tasks_reject_a_fixed_coupling_or_temperature(tmp_path, capsys,
                                                           task, keys):
    # a sweep sets g and T per point (eigen at T = 0), so a model value
    # would be read by no point
    payload = json.loads(json.dumps(CONTRACTS[task][0]))
    payload["model"].update(dict.fromkeys(keys, 0.2))
    cfg = _write_config(tmp_path, payload)
    assert main([task, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    for key in keys:
        assert "config error: model.%s: not read by the %s task" % (
            key, task) in err
    assert not (tmp_path / "run").exists()


def test_sweep_summary_echoes_no_fixed_coupling_or_temperature(tmp_path):
    cfg = _write_config(tmp_path, _chart_config())
    out = tmp_path / "run"
    assert main(["g2chart", "--config", cfg, "--out", str(out)]) == 0
    model = json.loads((out / "summary.json").read_text())["config"]["model"]
    assert not {"g", "g_prime", "temperature"} & set(model)


@pytest.mark.parametrize("task,path", [
    ("eigen", "model.gamma"),
    ("eigen", "model.x0"),
    ("qo-chart", "model.n_max"),
    ("converge", "model.n_max"),
    ("eigen", "grid.T_min"),
])
def test_fields_another_task_reads_are_config_errors(tmp_path, capsys, task,
                                                     path):
    # eigen builds H only, at T = 0; qo-chart takes its cutoff from
    # qo_n_max, converge from n_max_pair
    payload = json.loads(json.dumps(CONTRACTS[task][0]))
    block, key = path.split(".")
    payload[block][key] = 0.2
    cfg = _write_config(tmp_path, payload)
    assert main([task, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: %s: not read by the %s task" % (path, task)]
    assert not (tmp_path / "run").exists()


def test_invalid_json_and_missing_file_are_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["g2chart", "--config", str(bad),
                 "--out", str(tmp_path / "run")]) == 2
    assert main(["g2chart", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_integer_too_large_for_a_float_is_config_error(tmp_path, capsys,
                                                       sign):
    # json reads the literal as an int that float() cannot convert
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 1, "limit": "tc", "g": sign * 10**400,
                  "temperature": 0.1, "n_max": 10}})
    assert main(["spectrum", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: model.g: must be finite"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("task", ["g2chart", "spectrum"])
@pytest.mark.parametrize("workers", [2, 0, True, 1.0, "1"],
                         ids=["two", "zero", "true", "float", "string"])
def test_workers_must_be_one(tmp_path, capsys, task, workers):
    # every point runs in the simulate process; the key is kept, one-valued,
    # because the bench configs still write "workers": 1
    cfg = _write_config(tmp_path, dict(CONTRACTS[task][0], workers=workers))
    assert main([task, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: workers: must be 1; every point runs in this process"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("task", sorted(cli.TASKS))
def test_workers_one_is_accepted_by_every_task(tmp_path, task):
    cfg = _write_config(tmp_path, dict(CONTRACTS[task][0], workers=1))
    assert cli.parse_config(cfg, task)["workers"] == 1


def test_workers_flag_is_gone(tmp_path, capsys):
    cfg = _write_config(tmp_path, _chart_config())
    with pytest.raises(SystemExit) as exc:
        main(["g2chart", "--config", cfg, "--out", str(tmp_path / "run"),
              "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_dark_ground_state_column_fails_partially(tmp_path, capsys):
    # at T=0 the stationary state cannot emit, so that column errors out
    cfg = _write_config(tmp_path, _chart_config(
        grid={"g_min": 0.1, "g_max": 0.2, "g_steps": 2,
              "T_min": 0.0, "T_max": 0.1, "T_steps": 2}))
    out = tmp_path / "run"
    assert main(["g2chart", "--config", cfg, "--out", str(out)]) == 3

    _, rows = _read_rows(out / "g2chart.csv")
    assert len(rows) == 4
    for row in rows:
        if float(row["T"]) == 0.0:
            assert row["status"] == "1"
            assert row["g2_zero"] == "nan"
        else:
            assert row["status"] == "0"
            assert np.isfinite(float(row["g2_zero"]))

    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["n_failed"] == 2
    assert len(summary["metrics"]["failures"]) == 2
    assert "failed" in capsys.readouterr().err


def test_dimension_limit_fails_grid_points_at_any_emitter_number(tmp_path):
    # 2^15000 3 has 4516 digits: each point fails with the dimension
    # limit, not with Python's limit on formatting a long integer
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 15000, "limit": "tc", "n_max": 2},
        "grid": {"g_min": 0.1, "g_max": 0.2, "g_steps": 2,
                 "T_min": 0.1, "T_max": 0.1, "T_steps": 1}})
    out = tmp_path / "run"
    assert main(["g2chart", "--config", cfg, "--out", str(out)]) == 3
    failures = json.loads((out / "summary.json").read_text())[
        "metrics"]["failures"]
    assert len(failures) == 2
    for failure in failures:
        assert failure["error"].startswith("DimensionLimitError: ")


@pytest.mark.parametrize("task,payload", [
    # T = 0 with one emitter: the stationary state cannot emit
    ("g2time", {"model": {"n_emitters": 1, "limit": "tc", "g": 0.3,
                          "temperature": 0.0, "n_max": 8}}),
    # the cutoff exceeds the dimension limit before anything is allocated
    ("spectrum", {"model": {"n_emitters": 1, "limit": "tc", "g": 0.3,
                            "temperature": 0.1, "n_max": 20000}}),
    # the first cutoff solves, the second exceeds the dimension limit
    ("converge", {"model": {"n_emitters": 1, "limit": "tc", "g": 0.3,
                            "temperature": 0.1},
                  "n_max_pair": [8, 20000]}),
], ids=["g2time-dark", "spectrum-too-large", "converge-second-too-large"])
def test_failed_fixed_point_solve_is_recorded(tmp_path, capsys, task,
                                              payload):
    # the task's one point failed: one stderr line, the error in
    # summary.json, exit 3 and no CSV or plot script
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "run"
    assert main([task, "--config", cfg, "--out", str(out)]) == 3

    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert re.match(r"%s: \w+Error: " % task, err[0])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["files"] == []
    metrics = summary["metrics"]
    assert metrics["n_points"] == 1
    assert metrics["n_failed"] == 1
    assert metrics["failures"] == [{"error": err[0][len(task) + 2:]}]
    assert sorted(os.listdir(out)) == ["summary.json"]


def test_g2chart_trust_columns_and_their_maxima(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 2, "limit": "dicke", "n_max": 10},
        "grid": {"g_min": 0.3, "g_max": 0.3, "g_steps": 1,
                 "T_min": 0.2, "T_max": 0.3, "T_steps": 2}})
    out = tmp_path / "run"
    assert main(["g2chart", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_rows(out / "g2chart.csv")
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    for name in ("stationary_residual", "cutoff_tail"):
        column = [float(row[name]) for row in rows]
        assert metrics["max_" + name] == pytest.approx(max(column), rel=1e-11)
    assert 0 <= metrics["max_stationary_residual"] <= 1e-9

    # the tail at T = 0.3 is <n_max| rho |n_max> summed over the emitter
    # configurations, from the dense state in the lab basis
    system = solve_system(ModelParams(2, 0.3, 0.3, 0.3, n_max=10))
    vectors = dense_vectors(system.eig)
    rho = (vectors * system.stationary.populations) @ vectors.T
    top = np.zeros((11, 11))
    top[10, 10] = 1.0
    expected = np.trace(np.kron(np.eye(4), top) @ rho)
    assert expected > 1e-12
    assert float(rows[1]["cutoff_tail"]) == pytest.approx(expected, rel=1e-9)


def test_cutoff_tail_falls_as_the_cutoff_rises():
    tails = [solve_system(ModelParams(2, 0.3, 0.3, 0.3, n_max=n)).cutoff_tail()
             for n in (6, 10, 14)]
    assert tails[0] > 1e3 * tails[1] > 1e6 * tails[2] > 0


def test_spectrum_reports_dominant_peak(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 2, "limit": "dicke", "g": 0.5,
                  "temperature": 0.07, "n_max": 60},
        "omega_grid": {"omega_min": 0.0, "omega_max": 2.0, "points": 400},
    })
    out = tmp_path / "run"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0

    header, rows = _read_rows(out / "spectrum.csv")
    assert header == ["omega", "spectrum"]
    assert len(rows) == 400
    assert all(float(r["spectrum"]) >= 0 for r in rows)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["dominant_weight_fraction"] > 0.95
    assert summary["metrics"]["integrated_emission"] > 0
    compile((out / "plot_spectrum.py").read_text(), "plot_spectrum.py", "exec")


def test_g2time_curve_relaxes_to_thermal(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 2, "limit": "tc", "g": 0.5,
                  "temperature": 0.07, "n_max": 30},
        "t_grid": {"t_max": 5000.0, "points": 50},
    })
    out = tmp_path / "run"
    assert main(["g2time", "--config", cfg, "--out", str(out)]) == 0

    _, rows = _read_rows(out / "g2time.csv")
    assert len(rows) == 50
    summary = json.loads((out / "summary.json").read_text())
    assert abs(float(rows[0]["g2"]) - summary["metrics"]["g2_zero"]) < 1e-12
    assert abs(summary["metrics"]["g2_final"] - 1.0) < 1e-3
    # g2(t) has relaxed: t_max is many times the slowest relaxation time
    assert summary["metrics"]["relaxation_gap"] * 5000.0 > 10.0
    assert 0 <= summary["metrics"]["stationary_residual"] < 1e-9
    # the coherence pairs dropped below the floor move g2 by at most this
    assert 0 <= summary["metrics"]["g2_truncation_bound"] < 1e-12


def test_eigen_rows_per_coupling_and_level(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 2, "limit": "tc", "n_max": 6},
        "grid": {"g_min": 0.1, "g_max": 0.5, "g_steps": 3},
        "levels": 8,
    })
    out = tmp_path / "run"
    assert main(["eigen", "--config", cfg, "--out", str(out)]) == 0

    header, rows = _read_rows(out / "eigen.csv")
    assert header == ["g", "level", "energy", "group"]
    assert len(rows) == 24
    for g in (0.1, 0.3, 0.5):
        energies = [float(r["energy"]) for r in rows if float(r["g"]) == g]
        assert energies == sorted(energies)
    compile((out / "plot_eigen.py").read_text(), "plot_eigen.py", "exec")


def test_qo_chart_is_thermal_without_counterrotating_terms(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 1, "limit": "tc"},
        "grid": {"g_min": 0.1, "g_max": 0.5, "g_steps": 2,
                 "T_min": 0.1, "T_max": 0.3, "T_steps": 2},
        "qo_n_max": 8,
    })
    out = tmp_path / "run"
    assert main(["qo-chart", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_rows(out / "qo-chart.csv")
    assert len(rows) == 4
    for row in rows:
        assert abs(float(row["g2_zero"]) - 2.0) < 1e-5


def test_analytic_compare_reports_trusted_error(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 1, "limit": "tc", "n_max": 30},
        "grid": {"g_min": 0.1, "g_max": 0.3, "g_steps": 2,
                 "T_min": 0.05, "T_max": 0.1, "T_steps": 2},
    })
    out = tmp_path / "run"
    assert main(["analytic-compare", "--config", cfg, "--out", str(out)]) == 0

    header, rows = _read_rows(out / "analytic-compare.csv")
    assert "g2_refined" in header and "trusted" in header
    assert all(r["trusted"] == "1" for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["max_rel_err_trusted"] < 0.2


def test_analytic_compare_rejects_multiple_emitters(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 2, "limit": "tc"},
        "grid": {"g_min": 0.1, "g_max": 0.3, "g_steps": 2,
                 "T_min": 0.05, "T_max": 0.1, "T_steps": 2},
    })
    assert main(["analytic-compare", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    assert "n_emitters" in capsys.readouterr().err


def test_converge_tracks_cutoff_stability(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_emitters": 1, "limit": "tc", "g": 0.3,
                  "temperature": 0.1},
        "n_max_pair": [20, 26],
    })
    out = tmp_path / "run"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0

    _, rows = _read_rows(out / "converge.csv")
    metrics_named = [r["metric"] for r in rows]
    assert metrics_named == ["g2_zero", "integrated_emission",
                             "peak_weight_max_rel"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["g2_zero_abs_diff"] < 1e-6
    assert summary["metrics"]["peak_weight_max_rel_diff"] < 1e-4
    compile((out / "plot_converge.py").read_text(), "plot_converge.py",
            "exec")


def test_output_directory_precedence(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    cfg_dir = tmp_path / "from_config"
    cli_dir = tmp_path / "from_flag"
    monkeypatch.setenv(OUTPUT_ENV_VAR, str(env_dir))

    with_dir = _chart_config(output_dir=str(cfg_dir))
    cfg = _write_config(tmp_path, with_dir, name="with_dir.json")
    assert main(["g2chart", "--config", cfg]) == 0
    assert (cfg_dir / "g2chart.csv").exists()

    assert main(["g2chart", "--config", cfg, "--out", str(cli_dir)]) == 0
    assert (cli_dir / "g2chart.csv").exists()

    bare = _write_config(tmp_path, _chart_config(), name="bare.json")
    assert main(["g2chart", "--config", bare]) == 0
    assert (env_dir / "g2chart.csv").exists()


def test_module_invocation_propagates_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    # the child imports the package this test imported, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dressedlight.cli", "g2chart",
         "--config", str(bad), "--out", str(tmp_path / "run")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


# One tiny config per task.  The grid tasks get a T=0 column, where the
# stationary state is dark (or the comparison solver refuses), so their
# failed-row fill is pinned too.
_TINY_GRID = {"g_min": 0.1, "g_max": 0.2, "g_steps": 2,
              "T_min": 0.0, "T_max": 0.1, "T_steps": 2}
_TINY_POINT = {"n_emitters": 1, "limit": "tc", "g": 0.3, "temperature": 0.1,
               "n_max": 10}
CONTRACTS = {
    # task: (config, header, exit code, value fields of a failed row,
    #        trust diagnostics in the summary metrics)
    "eigen": (
        {"model": {"n_emitters": 1, "limit": "tc", "n_max": 6},
         "grid": {"g_min": 0.1, "g_max": 0.3, "g_steps": 2}, "levels": 3},
        ["g", "level", "energy", "group"], 0, None, ()),
    "spectrum": (
        {"model": _TINY_POINT, "omega_grid": {"omega_max": 2.0, "points": 50}},
        ["omega", "spectrum"], 0, None,
        ("stationary_residual", "cutoff_tail")),
    "g2time": (
        {"model": _TINY_POINT, "t_grid": {"t_max": 100.0, "points": 5}},
        ["t", "g2"], 0, None, ("stationary_residual", "cutoff_tail")),
    "converge": (
        {"model": _POINT_NO_CUTOFF, "n_max_pair": [8, 10]},
        ["metric", "n_low", "n_high", "value_low", "value_high", "abs_diff",
         "rel_diff"], 0, None, ()),
    "g2chart": (
        {"model": {"n_emitters": 1, "limit": "tc", "n_max": 8},
         "grid": _TINY_GRID},
        ["g", "T", "g2_zero", "collision_count", "degenerate",
         "stationary_residual", "cutoff_tail", "status"], 3,
        ["nan", "0", "0", "nan", "nan"],
        ("max_stationary_residual", "max_cutoff_tail")),
    "qo-chart": (
        {"model": {"n_emitters": 1, "limit": "dicke"}, "grid": _TINY_GRID,
         "qo_n_max": 8},
        ["g", "T", "g2_zero", "stationary_residual", "cutoff_tail",
         "status"], 3, ["nan", "nan", "nan"],
        ("max_stationary_residual", "max_cutoff_tail")),
    "analytic-compare": (
        {"model": {"n_emitters": 1, "limit": "tc", "n_max": 8},
         "grid": _TINY_GRID},
        ["g", "T", "g2_numeric", "g2_basic", "g2_refined", "trusted",
         "rel_err_refined", "stationary_residual", "cutoff_tail", "status"],
        3, ["nan", "nan", "nan", "0", "nan", "nan", "nan"],
        ("max_stationary_residual", "max_cutoff_tail")),
}


def test_task_lists_agree():
    # a new task needs its contract pins here, its CLI choice and its
    # README row, all read from or checked against the one task table
    choices = next(action.choices for action in build_parser()._actions
                   if action.dest == "task")
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as handle:
        readme = handle.read()
    table = readme.split("## Command line")[1].split("\n## ")[0]
    rows = set(re.findall(r"^\| ([\w-]+) +\|", table, re.M)) - {"task"}
    assert set(CONTRACTS) == set(choices) == rows == set(cli.TASKS)


@pytest.fixture(scope="module", params=sorted(CONTRACTS))
def task_run(request, tmp_path_factory):
    """Run one task on its tiny config; yields (task, out_dir, exit code)."""
    task = request.param
    tmp = tmp_path_factory.mktemp(task)
    cfg = _write_config(tmp, CONTRACTS[task][0])
    code = main([task, "--config", cfg, "--out", str(tmp / "run")])
    return task, tmp / "run", code


def test_task_csv_header_exit_code_and_failed_rows(task_run):
    task, out, code = task_run
    _, header, exit_code, failed_fill, trust = CONTRACTS[task]
    assert code == exit_code
    got_header, rows = _read_rows(out / ("%s.csv" % task))
    assert got_header == header
    assert rows
    # each tiny point that solved is converged and far from its cutoff;
    # a grid's maximum is taken over its solved rows
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    for key in trust:
        assert 0 <= metrics[key] <= 1e-9
        column = key[len("max_"):]
        if column in header:
            solved = [float(row[column]) for row in rows
                      if row["status"] == "0"]
            assert metrics[key] == pytest.approx(max(solved), rel=1e-11)
    if failed_fill is None:
        return
    for row in rows:
        values = [row[name] for name in header[2:-1]]
        if float(row["T"]) == 0.0:
            assert row["status"] == "1"
            assert values == failed_fill
        else:
            assert row["status"] == "0"
            assert all(v != "nan" for v in values)


def test_plot_script_reads_its_csv_and_saves_png(task_run):
    # matplotlib is stubbed, so this runs the CSV/numpy half of the script.
    # numpy must be imported before patch.dict: modules first imported
    # inside it are dropped on exit, and numpy cannot be imported twice.
    task, out, _ = task_run
    fig, ax = mock.MagicMock(), mock.MagicMock()
    pyplot = mock.MagicMock()
    pyplot.subplots.return_value = (fig, ax)
    matplotlib = mock.MagicMock(pyplot=pyplot)
    stubs = {"matplotlib": matplotlib, "matplotlib.pyplot": pyplot}
    with mock.patch.dict(sys.modules, stubs):
        runpy.run_path(str(out / ("plot_%s.py" % task)), run_name="__main__")
    matplotlib.use.assert_called_once_with("Agg")
    fig.savefig.assert_called_once()
    assert os.path.basename(fig.savefig.call_args[0][0]) == "%s.png" % task
    if task == "spectrum":
        # the axis follows the sampled band, 0..2 here
        ax.set_xlim.assert_called_once_with(0.0, 2.0)


# Runs in a fresh interpreter, since this one has SciPy loaded already.
# argv[1] is JSON: the (task, config) pairs to parse, then the (task,
# config, output dir) runs; prints the loaded SciPy submodules after each,
# and the process pool modules loaded by the import.
_LAZY_SCRIPT = """
import json, sys
from dressedlight import cli

def loaded(prefixes=("scipy.linalg", "scipy.sparse")):
    return sorted(m for m in sys.modules if m.startswith(prefixes))

parse, runs = json.loads(sys.argv[1])
report = {"import": loaded(),
          "pool": loaded(("concurrent", "multiprocessing"))}
for task, cfg in parse:
    cli.parse_config(cfg, task)
report["parse_config"] = loaded()
for task, cfg, out in runs:
    report[task] = (cli.main([task, "--config", cfg, "--out", out]),
                    loaded())
print(json.dumps(report))
"""


def test_scipy_submodules_load_at_first_use(tmp_path):
    # a g2chart or spectrum run uses numpy only; g2time reaches
    # scipy.sparse (the propagator's K), and qo-chart scipy.sparse.linalg,
    # through their attribute paths.  g2time loads no scipy.linalg, and so
    # no second OpenBLAS beside NumPy's.  Grid points run in this process,
    # so no process pool module loads.
    parse = [(task, _write_config(tmp_path, cfg, task + ".json"))
             for task, (cfg, *_) in sorted(CONTRACTS.items())]
    tiny = {"n_emitters": 1, "limit": "tc", "n_max": 4}
    point = dict(tiny, g=0.3, temperature=0.1)
    configs = {
        "g2chart": {"model": tiny,
                    "grid": dict(_TINY_GRID, T_min=0.05)},
        "spectrum": {"model": point, "omega_grid": {"points": 20}},
        "g2time": {"model": point, "t_grid": {"t_max": 10.0, "points": 3}},
        "qo-chart": {"model": {"n_emitters": 1, "limit": "tc"},
                     "grid": dict(_TINY_GRID, T_min=0.05),
                     "qo_n_max": 4},
    }
    runs = [(task, _write_config(tmp_path, cfg, "run-%s.json" % task),
             str(tmp_path / task)) for task, cfg in configs.items()]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCRIPT, json.dumps([parse, runs])],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().split("\n")[-1])
    assert report["import"] == report["parse_config"] == report["pool"] == []
    assert report["g2chart"] == [0, []]
    assert report["spectrum"] == [0, []]
    code, modules = report["g2time"]
    assert code == 0 and "scipy.sparse" in modules
    assert not any(m.startswith("scipy.linalg") for m in modules)
    code, modules = report["qo-chart"]
    assert code == 0 and "scipy.sparse.linalg" in modules


def test_no_source_module_imports_a_scipy_submodule():
    # only the top-level package is imported; each call site names its
    # submodule (scipy.linalg.eigh), which SciPy loads at first access
    src = os.path.dirname(cli.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += ["%s:%d %s" % (os.path.basename(path), node.lineno, name)
                      for name in names
                      if name.startswith("scipy.") or (
                          name == "scipy"
                          and isinstance(node, ast.ImportFrom))]
    assert found == []


def test_comparison_solver_has_no_numpy_linalg_call():
    # one BLAS pool per comparison solve: SuperLU runs on SciPy's OpenBLAS,
    # and a NumPy BLAS call would wake NumPy's separate pool, whose spinning
    # worker competes with SuperLU's for the cores
    path = os.path.join(os.path.dirname(cli.__file__), "qoptical.py")
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            found.append("%d %s.linalg" % (node.lineno, node.value.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names = ["%s.%s" % (node.module, name) for name in names]
            found += ["%d %s" % (node.lineno, name) for name in names
                      if name.startswith("numpy.linalg")]
    assert found == []


def test_propagator_has_no_dense_eigensolver():
    # the population propagator is Lanczos quadrature on a sparse K: no
    # eigh of any kind and nothing from scipy.linalg in dynamics.py
    path = os.path.join(os.path.dirname(cli.__file__), "dynamics.py")
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "eigh" \
                or isinstance(node, ast.Name) and node.id == "eigh":
            found.append("%d eigh" % node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "linalg" \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "scipy":
            found.append("%d scipy.linalg" % node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names = ["%s.%s" % (node.module, name) for name in names]
            found += ["%d %s" % (node.lineno, name) for name in names
                      if name.startswith("scipy.linalg")
                      or name.endswith(".eigh")]
    assert found == []


def test_every_module_level_import_is_used():
    # an import that only a deleted function read, or that is kept only so
    # that an outside lookup of the name resolves, is dead code
    src = os.path.dirname(cli.__file__)
    unused = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (os.path.basename(path), line, name)
                   for name, line in sorted(imported.items())
                   if name not in used]
    assert unused == []
