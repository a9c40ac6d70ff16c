"""Command line driver for parameter sweeps and result serialization.

Entry point ``simulate`` runs one task described by a JSON config file and
writes three artifacts into the output directory:

* ``<task>.csv``     -- data rows, header line first, floats as ``%.12e``
* ``summary.json``   -- resolved config echo, counters, task metrics
* ``plot_<task>.py`` -- self-contained matplotlib script reading the CSV

Tasks
-----
eigen             dressed energies versus coupling (at T = 0)
spectrum          emission spectrum S(omega) at one parameter point
g2chart           g2(0) over a (g, T) grid at fixed emitter number
g2time            g2(t) curve at one parameter point
qo-chart          g2(0) over a (g, T) grid from the bare-operator solver
analytic-compare  closed-form g2(0) versus full numerics (single emitter)
converge          cutoff stability of g2(0), emission, and peak weights

All frequencies, temperatures, and couplings are in units of the bare
resonance frequency; times in its inverse.  Exit codes: 0 success, 2 config
error, 3 when at least one grid point failed (remaining rows are still
written, failed rows carry status=1 and nan values) or when the solve of a
fixed-point task (spectrum, g2time, converge) failed (no CSV or plot script
is written, and summary.json records the error).

Each task is one ``Task`` record in ``TASKS``: the field tables it reads
(its model table is ``MODEL`` less the fields it never reads), its runner,
its plot script and, for the (g, T) grid tasks run by ``run_grid``, the
value function, columns, failed-row values and metrics.  ``MODEL`` is read
off the ``ModelParams`` fields, each with its kind, range and default,
with ``limit`` in place of g_prime.  ``_read_fields`` reads the tables and
checks every number with ``model.check_value``, as ``ModelParams`` does; a
key outside them is "not read by" the task when another task's table for
the same object holds it, else unknown, and either is a config error.
Every grid point, eigen's included, is evaluated by ``_point``, which
records an exception as a failed point; ``main`` records the exception of
a fixed-point task the same way.  Grid points run one after another in
this process, in fixed (g outer, T inner) order, so repeated runs produce
byte-identical CSV files.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, qoptical
from .analytic import tc_g2_approximation
from .model import (ModelParams, build_hamiltonian, build_operators,
                    check_value)
from .observables import cluster_weights
from .pipeline import solve_system
from .qoptical import qo_admits, qo_g2_zero, qo_limits
from .spectral import diagonalize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3

OUTPUT_ENV_VAR = "DRESSEDLIGHT_OUTDIR"

# relative weight below which spectrum peaks are left out of the summary
PEAK_REPORT_FLOOR = 1e-6
# Fock cutoff of the bare-operator solver when a qo-chart config sets none
DEFAULT_QO_NMAX = 15


class ConfigError(Exception):
    """Invalid run configuration; ``issues`` is a list of (path, message)."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join("%s: %s" % issue for issue in self.issues))


# ---------------------------------------------------------------------------
# config parsing
#
# Each config field is declared once, as (key, kind, default, minimum,
# positive) in the field table of its block, or as a Block for a nested
# object.  kind is int or float (checked by model.check_value) or a
# function returning the error message for a bad value.  default is
# REQUIRED or the value of an absent field; null is read as absent where
# the default is None.  The model fields are read from ModelParams.

REQUIRED = "required"


class Block(NamedTuple):
    """A config object at key with its field table; check(values, issues)
    checks the values read and returns them resolved."""

    key: str
    fields: tuple
    required: bool = False
    check: Callable = None


def _path(path, key):
    return "%s.%s" % (path, key) if path else key


def _read_fields(block, path, fields, task, issues):
    """Read the ``fields`` that ``task`` reads in ``block``, at ``path``.

    Returns {key: value}.  An absent or rejected field takes its default
    (None when required).  A rejected or missing required field adds a
    (JSON path, message) issue, and so does each key outside ``fields``:
    "not read by" the task when another task's table for the object at
    ``path`` ("" is the root) holds it, "unknown field" otherwise.
    """
    values = {}
    for field in fields:
        if isinstance(field, Block):
            values[field.key] = _read_block(
                block.get(field.key, None if field.required else {}),
                _path(path, field.key), field, task, issues)
            continue
        key, kind, default, minimum, positive = field
        required = default is REQUIRED
        values[key] = None if required else default
        if key not in block:
            if required:
                issues.append((_path(path, key), "missing required field"))
            continue
        value, message = block[key], None
        if value is None and default is None:
            pass  # read as absent
        elif kind in (int, float):
            try:
                value = check_value(value, kind, minimum, positive)
            except ValueError as exc:
                message = str(exc)
        else:
            message = kind(value)
        if message is None:
            values[key] = value
        else:
            issues.append((_path(path, key), message))
    tables = [other.blocks + TOP_FIELDS for other in TASKS.values()]
    if path:
        tables = [field.fields for table in tables for field in table
                  if isinstance(field, Block) and field.key == path]
    elsewhere = {field[0] for table in tables for field in table}
    for key in sorted(set(block) - {field[0] for field in fields}):
        issues.append((_path(path, key), "not read by the %s task" % task
                       if key in elsewhere else "unknown field"))
    return values


def _read_block(block, path, spec, task, issues):
    if not isinstance(block, dict):
        issues.append((path, "missing required object" if spec.required
                       else "expected an object"))
        return None
    values = _read_fields(block, path, spec.fields, task, issues)
    return values if spec.check is None else spec.check(values, issues)


def _g_prime(limit, g):
    """g_prime of a limit: g for "dicke", 0 for "tc"."""
    return g if limit == "dicke" else 0.0


def _resolve_limit(model, _issues):
    """Set g_prime at a fixed point; a sweep sets it per point."""
    if "g" in model:
        model["g_prime"] = _g_prime(model["limit"], model["g"])
    return model


def _single_tc_model(model, issues):
    # the closed forms describe one emitter without counter-rotating terms
    if model["n_emitters"] not in (None, 1):
        issues.append(("model.n_emitters",
                       "analytic-compare is defined for a single emitter"))
    if model["limit"] == "dicke":
        issues.append(("model.limit",
                       "analytic-compare is defined in the tc limit"))
    return model


def _grid_axes(values, issues):
    """{axis: (lo, hi, steps)}; equal bounds are allowed for one step only."""
    spec = {}
    for axis in [key[:-len("_min")] for key in values if key.endswith("_min")]:
        lo, hi, steps = (values[axis + end]
                         for end in ("_min", "_max", "_steps"))
        spec[axis] = (lo, hi, steps)
        if lo is None or hi is None:
            continue
        if hi < lo:
            issues.append(("grid.%s_max" % axis,
                           "must be >= grid.%s_min" % axis))
        elif hi == lo and steps is not None and steps > 1:
            # equal bounds would solve the same point steps times
            issues.append(("grid.%s_max" % axis,
                           "must be > grid.%s_min when grid.%s_steps > 1"
                           % (axis, axis)))
    return spec


def _omega_band(values, issues):
    if values["omega_max"] <= values["omega_min"]:
        issues.append(("omega_grid.omega_max",
                       "must be > omega_grid.omega_min"))
    return values


def _cutoff_pair(value):
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       and v >= 2 for v in value)
            or value[0] >= value[1]):
        return "expected [n_low, n_high] with 2 <= n_low < n_high"
    return None


# every ModelParams field with its rule and default but g_prime, which
# the limit sets: "dicke" for g_prime = g, "tc" for g_prime = 0
MODEL = Block("model", tuple(
    (spec.name, kind,
     REQUIRED if spec.default is dataclasses.MISSING else spec.default,
     minimum, positive)
    for spec in dataclasses.fields(ModelParams) if spec.name != "g_prime"
    for kind, minimum, positive in [spec.metadata["rule"]]
) + (("limit", lambda value: None if value in ("dicke", "tc")
      else "must be 'dicke' or 'tc'", REQUIRED, None, False),),
    True, _resolve_limit)
PER_POINT = ("g", "temperature")  # a sweep sets them (and g_prime) per point


def _model_without(keys, check=_resolve_limit):
    return MODEL._replace(check=check, fields=tuple(
        field for field in MODEL.fields if field[0] not in keys))


# a swept axis runs from <axis>_min to <axis>_max in <axis>_steps points
G_AXIS = (("g_min", float, REQUIRED, 0.01, False),
          ("g_max", float, REQUIRED, None, True),
          ("g_steps", int, REQUIRED, 1, False))
T_AXIS = (("T_min", float, REQUIRED, 0.0, False),
          ("T_max", float, REQUIRED, None, True),
          ("T_steps", int, REQUIRED, 1, False))
G_GRID = Block("grid", G_AXIS, True, _grid_axes)
GT_GRID = Block("grid", G_AXIS + T_AXIS, True, _grid_axes)
OMEGA_GRID = Block("omega_grid", (
    ("omega_min", float, 0.0, 0.0, False),
    ("omega_max", float, 3.0, None, True),
    ("points", int, 2000, 2, False),
), check=_omega_band)
# t_max None: the delays span 50 decay times 1 / gamma
T_GRID = Block("t_grid", (
    ("t_max", float, None, None, True),
    ("points", int, 500, 2, False),
))
LEVELS = ("levels", int, 12, 1, False)
QO_N_MAX = ("qo_n_max", int, DEFAULT_QO_NMAX, 2, False)
N_MAX_PAIR = ("n_max_pair", _cutoff_pair, [100, 120], None, False)
# read by every task, after the blocks of its record; workers is kept,
# one-valued, because the bench configs still write "workers": 1
TOP_FIELDS = (
    ("workers", lambda value: None if type(value) is int and value == 1
     else "must be 1; every point runs in this process", 1, None, False),
    ("output_dir", lambda value: None if isinstance(value, str)
     else "expected a string", None, None, False),
)


def parse_config(path, task, out_override=None):
    """Read and validate the JSON config for ``task``.

    Returns a resolved plain dict ready for the task runners.  Raises
    ConfigError listing every problem found, each with a dotted field path.
    """
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError([(path, "cannot read config: %s" % exc)])
    except json.JSONDecodeError as exc:
        raise ConfigError([(path, "invalid JSON: %s" % exc)])
    if not isinstance(cfg, dict):
        raise ConfigError([("<root>", "config must be a JSON object")])

    issues = []
    resolved = _read_fields(cfg, "", TASKS[task].blocks + TOP_FIELDS, task,
                            issues)
    if out_override is not None:
        resolved["output_dir"] = out_override
    elif resolved["output_dir"] is None:
        resolved["output_dir"] = os.environ.get(OUTPUT_ENV_VAR, "out")
    qo_n_max, model = resolved.get("qo_n_max"), resolved["model"]
    if qo_n_max is not None and model and model["n_emitters"] is not None:
        if not qo_admits(model["n_emitters"], qo_n_max):
            issues.append(("qo_n_max", "the comparison solver needs "
                           + qo_limits()))

    if issues:
        raise ConfigError(issues)
    resolved["task"] = task
    resolved["limit"] = resolved["model"].pop("limit")
    t_grid = resolved.get("t_grid")
    if t_grid is not None and t_grid["t_max"] is None:
        t_grid["t_max"] = 50.0 / resolved["model"]["gamma"]
    return resolved


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.12e" % value


def _csv_text(header, rows):
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row)
                                  for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# grid points and their runners


def _error_text(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def _point(value, resolved, g, temperature):
    """Evaluate ``value`` at one grid point.

    Returns (values, None) on success and (None, "Type: message") when the
    point raised, so one bad point does not stop the sweep.
    """
    kwargs = dict(resolved["model"], g=g, temperature=temperature,
                  g_prime=_g_prime(resolved["limit"], g))
    try:
        return value(ModelParams(**kwargs), resolved), None
    except Exception as exc:  # recorded per point, sweep continues
        return None, _error_text(exc)


class Trust(NamedTuple):
    """Diagnostics that say whether a solved point can be trusted.

    run_grid writes them last before status in every grid row (the
    defaults on a failed row) and their maxima as max_<field> metrics.
    """

    stationary_residual: float = math.nan
    cutoff_tail: float = math.nan


def _trust(system):
    return Trust(system.stationary.residual, system.cutoff_tail())


def _g2_values(params, _resolved):
    system = solve_system(params)
    return (float(system.g2_zero()), system.collision_count,
            int(system.eig.degenerate)), _trust(system)


def _qo_values(params, resolved):
    params = dataclasses.replace(params, n_max=resolved["qo_n_max"])
    # looked up on the module, where bench/spans.py puts its timing wrapper
    state = qoptical.qo_stationary_state(params)
    return ((float(qo_g2_zero(params, state)),),
            Trust(state.residual, state.cutoff_tail))


def _compare_values(params, _resolved):
    system = solve_system(params)
    numeric = float(system.g2_zero())
    basic = tc_g2_approximation(params.g, params.temperature)
    refined = tc_g2_approximation(params.g, params.temperature, refined=True)
    rel = abs(float(refined) - numeric) / numeric
    return (numeric, float(basic), float(refined), int(refined.trusted),
            rel), _trust(system)


def _eigen_rows(params, resolved):
    # energies only; skips the dissipative half of the pipeline
    eig = diagonalize(build_hamiltonian(build_operators(params)))
    keep = min(resolved["levels"], eig.energies.size)
    return [(params.g, k, float(eig.energies[k]), int(eig.group_index[k]))
            for k in range(keep)]


def _g2_metrics(_resolved, ok):
    return dict(degenerate_points=int(sum(v[2] for v in ok)),
                collision_points=int(sum(1 for v in ok if v[1] > 0)))


def _qo_metrics(resolved, _ok):
    return dict(qo_n_max=resolved["qo_n_max"])


def _compare_metrics(_resolved, ok):
    trusted_err = [v[4] for v in ok if v[3]]
    return dict(max_rel_err_trusted=max(trusted_err, default=None))


def run_grid(resolved):
    """Run a (g, T) grid task; rows in (g outer, T inner) order."""
    task = resolved["task"]
    value, columns, failed_fill, task_metrics = TASKS[task].grid
    grid = resolved["grid"]
    points = [(g, t) for g in np.linspace(*grid["g"])
              for t in np.linspace(*grid["T"])]
    rows, ok, trusts, failures = [], [], [], []
    for g, t in points:
        result, error = _point(value, resolved, g, t)
        if error is None:
            values, trust = result
            ok.append(values)
            trusts.append(trust)
            rows.append((g, t) + values + trust + (0,))
        else:
            failures.append({"g": g, "T": t, "error": error})
            rows.append((g, t) + failed_fill + Trust() + (1,))
    metrics = dict(task_metrics(resolved, ok), n_points=len(points),
                   n_failed=len(failures), failures=failures)
    for name in Trust._fields:
        metrics["max_" + name] = max((getattr(v, name) for v in trusts),
                                     default=None)
    return ("g", "T") + columns + Trust._fields + ("status",), rows, metrics


def run_eigen(resolved):
    g_axis = np.linspace(*resolved["grid"]["g"])
    # the energies do not depend on the temperature
    results = [_point(_eigen_rows, resolved, g, 0.0) for g in g_axis]
    rows = [row for block, error in results if error is None for row in block]
    failures = [{"g": float(g), "error": error}
                for g, (_, error) in zip(g_axis, results) if error is not None]
    metrics = {"n_points": len(g_axis), "n_failed": len(failures),
               "levels": resolved["levels"], "failures": failures}
    return ["g", "level", "energy", "group"], rows, metrics


def run_spectrum(resolved):
    system = solve_system(ModelParams(**resolved["model"]))
    og = resolved["omega_grid"]
    omega = np.linspace(og["omega_min"], og["omega_max"], og["points"])
    spectrum = system.spectrum(omega)
    total = spectrum.weights.sum()
    keep = spectrum.weights > PEAK_REPORT_FLOOR * total
    order = np.argsort(spectrum.weights[keep])[::-1]
    peaks = [{"center": float(c), "half_width": float(h),
              "weight": float(w), "weight_fraction": float(w / total)}
             for c, h, w in zip(spectrum.centers[keep][order],
                                spectrum.half_widths[keep][order],
                                spectrum.weights[keep][order])]
    metrics = {
        "n_peaks_reported": len(peaks),
        "dominant_weight_fraction": peaks[0]["weight_fraction"] if peaks else 0.0,
        "integrated_emission": float(system.integrated_emission()),
        "collision_count": system.collision_count,
        "degenerate": bool(system.eig.degenerate),
        "peaks": peaks,
        **_trust(system)._asdict(),
    }
    return ["omega", "spectrum"], zip(omega, spectrum.values), metrics


def run_g2time(resolved):
    system = solve_system(ModelParams(**resolved["model"]))
    tg = resolved["t_grid"]
    times = np.linspace(0.0, tg["t_max"], tg["points"])
    result = system.g2_time(times)
    metrics = {
        "g2_zero": float(result.zero_value),
        "g2_final": float(result.values[-1]),
        "t_max": tg["t_max"],
        "relaxation_gap": result.relaxation_gap,
        "g2_truncation_bound": result.truncation_bound,
        "collision_count": system.collision_count,
        **_trust(system)._asdict(),
    }
    return ["t", "g2"], zip(times, result.values), metrics


def run_converge(resolved):
    n_low, n_high = resolved["n_max_pair"]
    systems = {}
    for cutoff in (n_low, n_high):
        params = ModelParams(**dict(resolved["model"], n_max=cutoff))
        systems[cutoff] = solve_system(params)

    def peak_weights(system):
        # coincident-frequency peaks are summed first; their individual
        # weights depend on the basis inside a degenerate level, the sums
        # do not
        spec = system.spectrum(np.array([1.0]))
        centers, weights = cluster_weights(spec)
        keep = weights > 1e-3 * weights.sum()
        return centers[keep], weights[keep]

    g2 = {c: float(systems[c].g2_zero()) for c in systems}
    emission = {c: float(systems[c].integrated_emission()) for c in systems}
    c_low, w_low = peak_weights(systems[n_low])
    c_high, w_high = peak_weights(systems[n_high])
    # match significant peaks of the low run to nearest high-run centers
    weight_rel = 0.0
    for center, weight in zip(c_low, w_low):
        j = int(np.argmin(np.abs(c_high - center)))
        weight_rel = max(weight_rel,
                         abs(w_high[j] - weight) / max(weight, w_high[j]))

    rows = [(name, n_low, n_high, value[n_low], value[n_high],
             abs(value[n_high] - value[n_low]),
             abs(value[n_high] - value[n_low]) / abs(value[n_high]))
            for name, value in (("g2_zero", g2),
                                ("integrated_emission", emission))]
    rows.append(("peak_weight_max_rel", n_low, n_high, float(w_low.max()),
                 float(w_high.max()), weight_rel, weight_rel))
    metrics = {
        "n_max_pair": [n_low, n_high],
        "g2_zero_abs_diff": rows[0][5],
        "emission_rel_diff": rows[1][6],
        "peak_weight_max_rel_diff": weight_rel,
    }
    header = ["metric", "n_low", "n_high", "value_low", "value_high",
              "abs_diff", "rel_diff"]
    return header, rows, metrics


# ---------------------------------------------------------------------------
# plot script emission

_PLOT_HEAD = '''\
"""__DOC__"""
import csv
import os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = os.path.dirname(os.path.abspath(__file__))
rows = list(csv.DictReader(open(os.path.join(here, "__CSV__"))))
'''

_PLOT_TAIL = '''\
fig.tight_layout()
fig.savefig(os.path.join(here, "__STEM__.png"), dpi=160)
print("wrote __STEM__.png")
'''

_PLOT_CHART = ("Regenerate the g2(0) chart from __CSV__ (clamped at 4).", '''\
g = np.array([float(r["g"]) for r in rows])
T = np.array([float(r["T"]) for r in rows])
z = np.array([float(r["g2_zero"]) for r in rows])
gs, Ts = np.unique(g), np.unique(T)
grid = z.reshape(gs.size, Ts.size)

fig, ax = plt.subplots(figsize=(5.2, 4.0))
mesh = ax.pcolormesh(Ts, gs, np.clip(grid, 0.0, 4.0), cmap="RdBu_r",
                     vmin=0.0, vmax=4.0, shading="nearest")
fig.colorbar(mesh, ax=ax, label="$g^{(2)}(0)$ (clamped at 4)")
ax.set_xlabel("temperature")
ax.set_ylabel("coupling g")
''')


def _plot_script(task):
    doc, body = TASKS[task].plot
    script = _PLOT_HEAD.replace("__DOC__", doc) + body + _PLOT_TAIL
    script = script.replace("__CSV__", "%s.csv" % task)
    return script.replace("__STEM__", task)


# ---------------------------------------------------------------------------
# the task table


class Task(NamedTuple):
    """One simulate task.

    blocks are the top-level fields it reads besides output_dir and
    workers (a one-valued row the bench configs still write), model
    first, each Block with exactly the fields it reads there;
    runner(resolved) returns (CSV header, rows, metrics); plot is
    the docstring and body of its plot script.  A fixed-point task, one
    whose model table holds g, solves the one point its model block gives.
    grid is (value function returning (values, Trust), columns, failed-row
    values, metrics) for a task run by run_grid, which adds the Trust
    columns.
    """

    blocks: tuple
    runner: Callable
    plot: tuple
    grid: tuple = None


TASKS = {
    # eigen builds H only, at T = 0
    "eigen": Task((_model_without(PER_POINT + ("gamma", "x0")), G_GRID,
                   LEVELS), run_eigen, (
        "Regenerate the dressed energy levels versus coupling from __CSV__.",
        '''\
g = np.array([float(r["g"]) for r in rows])
level = np.array([int(r["level"]) for r in rows])
energy = np.array([float(r["energy"]) for r in rows])

fig, ax = plt.subplots(figsize=(5.2, 4.0))
for k in np.unique(level):
    sel = level == k
    ax.plot(g[sel], energy[sel], lw=1.0)
ax.set_xlabel("coupling g")
ax.set_ylabel("energy")
''')),
    "spectrum": Task((MODEL, OMEGA_GRID), run_spectrum, (
        "Regenerate the emission spectrum plot from __CSV__.", '''\
omega = np.array([float(r["omega"]) for r in rows])
value = np.array([float(r["spectrum"]) for r in rows])

fig, ax = plt.subplots(figsize=(5.6, 3.4))
ax.plot(omega, value, lw=1.2)
ax.set_xlim(omega.min(), omega.max())
ax.set_ylim(bottom=0.0)
ax.set_xlabel("frequency")
ax.set_ylabel("emission spectrum")
''')),
    "g2chart": Task(
        (_model_without(PER_POINT), GT_GRID), run_grid, _PLOT_CHART,
        grid=(_g2_values, ("g2_zero", "collision_count", "degenerate"),
              (math.nan, 0, 0), _g2_metrics)),
    "g2time": Task((MODEL, T_GRID), run_g2time, (
        "Regenerate the g2(t) curve from __CSV__ (reference line at 1).",
        '''\
t = np.array([float(r["t"]) for r in rows])
g2 = np.array([float(r["g2"]) for r in rows])

fig, ax = plt.subplots(figsize=(5.6, 3.4))
ax.plot(t, g2, lw=1.2)
ax.axhline(1.0, color="0.4", lw=0.8, ls="--")
ax.set_xlabel("delay t")
ax.set_ylabel("$g^{(2)}(t)$")
''')),
    # the comparison solver's cutoff is qo_n_max
    "qo-chart": Task(
        (_model_without(PER_POINT + ("n_max",)), GT_GRID, QO_N_MAX), run_grid,
        _PLOT_CHART,
        grid=(_qo_values, ("g2_zero",), (math.nan,), _qo_metrics)),
    "analytic-compare": Task(
        (_model_without(PER_POINT, _single_tc_model), GT_GRID), run_grid, (
        "Regenerate the closed-form versus numeric g2(0) comparison from "
        "__CSV__.",
        '''\
g = np.array([float(r["g"]) for r in rows])
T = np.array([float(r["T"]) for r in rows])
err = np.array([float(r["rel_err_refined"]) for r in rows])
gs, Ts = np.unique(g), np.unique(T)

fig, ax = plt.subplots(figsize=(5.2, 4.0))
mesh = ax.pcolormesh(Ts, gs, err.reshape(gs.size, Ts.size), cmap="viridis",
                     shading="nearest")
fig.colorbar(mesh, ax=ax, label="relative error of refined form")
ax.set_xlabel("temperature")
ax.set_ylabel("coupling g")
'''), grid=(
        _compare_values,
        ("g2_numeric", "g2_basic", "g2_refined", "trusted", "rel_err_refined"),
        (math.nan, math.nan, math.nan, 0, math.nan), _compare_metrics)),
    # the two cutoffs are n_max_pair
    "converge": Task((_model_without(("n_max",)), N_MAX_PAIR), run_converge, (
        "Regenerate the cutoff stability chart from __CSV__.", '''\
labels = [r["metric"] for r in rows]
diffs = np.array([max(float(r["rel_diff"]), 1e-18) for r in rows])

fig, ax = plt.subplots(figsize=(5.2, 3.2))
ax.bar(range(len(labels)), diffs)
ax.set_yscale("log")
ax.set_xticks(range(len(labels)), labels, rotation=20, ha="right")
ax.set_ylabel("relative change")
''')),
}


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a dressed-state emission task from a JSON config.")
    parser.add_argument("task", choices=tuple(TASKS))
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides config and %s)"
                        % OUTPUT_ENV_VAR)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        resolved = parse_config(args.config, args.task, out_override=args.out)
    except ConfigError as exc:
        for path, message in exc.issues:
            print("config error: %s: %s" % (path, message), file=sys.stderr)
        return EXIT_CONFIG

    out_dir = resolved["output_dir"]
    os.makedirs(out_dir, exist_ok=True)

    record = TASKS[args.task]
    csv_name = "%s.csv" % args.task
    started = time.time()
    try:
        header, rows, metrics = record.runner(resolved)
    except Exception as exc:
        # a sweep records a failed point in its rows
        if "g" not in {field[0] for field in record.blocks[0].fields}:
            raise
        # the task's one point failed: recorded like a failed grid point
        error = _error_text(exc)
        metrics = {"n_points": 1, "n_failed": 1,
                   "failures": [{"error": error}]}
        outputs, message = {}, "%s: %s" % (args.task, error)
    else:
        outputs = {csv_name: _csv_text(header, rows),
                   "plot_%s.py" % args.task: _plot_script(args.task)}
        message = ("%s: %d of %d points failed; see summary.json"
                   % (args.task, metrics.get("n_failed", 0),
                      metrics.get("n_points", 0)))

    summary = {
        "task": args.task,
        "version": __version__,
        "config": {k: v for k, v in resolved.items() if k != "output_dir"},
        "wall_time_s": round(time.time() - started, 3),
        "files": list(outputs),
        "metrics": metrics,
    }
    outputs["summary.json"] = json.dumps(summary, indent=2,
                                         sort_keys=True) + "\n"
    for name, text in outputs.items():
        with open(os.path.join(out_dir, name), "w") as handle:
            handle.write(text)

    if metrics.get("n_failed", 0):
        print(message, file=sys.stderr)
        return EXIT_PARTIAL
    print("%s: wrote %s" % (args.task, os.path.join(out_dir, csv_name)))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
