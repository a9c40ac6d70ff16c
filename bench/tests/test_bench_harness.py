"""Tests of the benchmark harness itself, on a tiny system (N=1, n_max=4)."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from dressedlight.cli import parse_config  # noqa: E402

TINY_MODEL = {"n_emitters": 1, "limit": "tc", "n_max": 4}
TINY_CHART = {"model": TINY_MODEL, "workers": 1,
              "grid": {"g_min": 0.2, "g_max": 0.4, "g_steps": 2,
                       "T_min": 0.1, "T_max": 0.2, "T_steps": 2}}
TINY_G2TIME = {"model": dict(TINY_MODEL, g=0.3, temperature=0.1),
               "workers": 1, "t_grid": {"t_max": 50.0, "points": 4}}


def _simulate(tmp_path, task, cfg):
    """Run one simulate child on ``cfg``; its sample and output directory."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    sample = bench_run.run_child(
        [sys.executable, "-m", "dressedlight.cli", task, "--config",
         str(cfg_path), "--out", str(out)], str(tmp_path / "child.log"))
    return sample, str(out)


def _rewrite_csv(out, task, column, row, change):
    path = os.path.join(out, "%s.csv" % task)
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    index = header.index(column)
    fields[index] = repr(change(float(fields[index])))
    lines[row + 1] = ",".join(fields)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def chart_run(tmp_path_factory):
    return _simulate(tmp_path_factory.mktemp("chart"), "g2chart", TINY_CHART)


def test_self_time_is_span_minus_its_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [6.0, 2.0, 1.0, 1.0]
    assert spans.totals(tracer.spans)["root"] == (1, 10.0, 6.0)


def test_traced_run_self_times_match_children(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CHART))
    spans_path = tmp_path / "spans.json"
    code = spans.main([str(spans_path), "g2chart", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
    assert code == 0
    record = json.loads(spans_path.read_text())
    assert record["missing"] == []
    recorded = record["spans"]
    for index, own in enumerate(spans.self_times(recorded)):
        name, start, end, _ = recorded[index]
        children = sum(e - s for _, s, e, p in recorded if p == index)
        assert own == pytest.approx(end - start - children, abs=1e-9)
    metrics = spans.layer_metrics(recorded, record["counters"])
    assert metrics["pipeline.solve_system_calls"] == 4
    assert metrics["spectral.group_transitions_calls"] == 4 * 2  # N + 1
    assert metrics["dynamics.expm_calls"] == 0
    assert 0 < metrics["pipeline.self_s"] < metrics["pipeline.solve_system_s"]


def test_missing_target_reports_zero_calls():
    tracer = spans.Tracer()
    tracer.install(targets=(
        ("dressedlight.pipeline", "no_such_function",
         "spectral.group_transitions"),
        ("dressedlight.no_such_module", "f", "dynamics.expm"),
        ("dressedlight.dynamics", "NoSuchClass.__init__",
         "dynamics.propagator_build"),
    ))
    tracer.uninstall()
    assert len(tracer.missing) == 3
    metrics = spans.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["spectral.group_transitions_calls"] == 0
    assert metrics["dynamics.expm_calls"] == 0
    assert metrics["dynamics.propagator_eig_accept_ratio"] == 0.0
    assert set(metrics) == set(spans.LAYER_METRICS)


def test_wait4_metrics_are_present(chart_run):
    sample, _ = chart_run
    assert sample["exit"] == 0
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        assert sample[key] > 0


def test_output_check_rejects_perturbed_csv(chart_run):
    _, out = chart_run
    outputs = workloads.read_outputs("g2chart", out)
    reference = workloads.observed_values("g2chart", outputs)
    assert workloads.check_outputs("g2chart", TINY_CHART, outputs,
                                   reference) == []

    _rewrite_csv(out, "g2chart", "g2_zero", 2, lambda v: v * (1 + 1e-4))
    perturbed = workloads.read_outputs("g2chart", out)
    assert workloads.check_outputs("g2chart", TINY_CHART, perturbed, None) == []
    assert workloads.check_outputs("g2chart", TINY_CHART, perturbed,
                                   reference)

    _rewrite_csv(out, "g2chart", "status", 1, lambda v: 1)
    assert workloads.check_outputs("g2chart", TINY_CHART,
                                   workloads.read_outputs("g2chart", out))


def test_g2time_check_ties_t0_to_summary(tmp_path):
    sample, out = _simulate(tmp_path, "g2time", TINY_G2TIME)
    assert sample["exit"] == 0
    assert workloads.check_outputs(
        "g2time", TINY_G2TIME, workloads.read_outputs("g2time", out)) == []
    _rewrite_csv(out, "g2time", "g2", 0, lambda v: v * (1 + 1e-4))
    problems = workloads.check_outputs(
        "g2time", TINY_G2TIME, workloads.read_outputs("g2time", out))
    assert any("g2(t=0)" in p for p in problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_are_seeded_and_valid(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    assert workload.config(3) == workload.config(3)
    assert workload.config(3) != workload.config(4)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(workload.config(3)))
    parse_config(str(cfg_path), workload.task)
    reference = workloads.load_reference(name)
    assert reference["config"] == workload.config(workloads.DEFAULT_SEED)
