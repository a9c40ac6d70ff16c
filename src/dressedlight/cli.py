"""Command line driver for parameter sweeps and result serialization.

Entry point ``simulate`` runs one task described by a JSON config file and
writes three artifacts into the output directory:

* ``<task>.csv``     -- data rows, header line first, floats as ``%.12e``
* ``summary.json``   -- resolved config echo, counters, task metrics
* ``plot_<task>.py`` -- self-contained matplotlib script reading the CSV

Tasks
-----
eigen             dressed energies versus coupling (fixed temperature)
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

The three (g, T) grid tasks share one runner, ``run_grid``; the table
``GRID_TASKS`` gives each its value function, value columns, failed-row
values and extra summary metrics.  Every grid point, eigen's included, is
evaluated by ``_point``, which records an exception as a failed point;
``main`` records the exception of a fixed-point task the same way.
Grid rows are emitted in fixed (g outer, T inner) order regardless of the
worker count, so repeated runs produce byte-identical CSV files.
"""

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .analytic import tc_g2_approximation
from .model import ModelParams, build_hamiltonian
from .observables import cluster_weights
from .pipeline import solve_system
from .qoptical import DEFAULT_QO_NMAX, qo_g2_zero
from .spectral import diagonalize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3

TASKS = (
    "eigen",
    "spectrum",
    "g2chart",
    "g2time",
    "qo-chart",
    "analytic-compare",
    "converge",
)
FIXED_POINT_TASKS = ("spectrum", "g2time", "converge")

OUTPUT_ENV_VAR = "DRESSEDLIGHT_OUTDIR"

DEFAULT_N_MAX = 100
DEFAULT_OMEGA_GRID = {"omega_min": 0.0, "omega_max": 3.0, "points": 2000}
DEFAULT_EIGEN_LEVELS = 12
DEFAULT_T_POINTS = 500
DEFAULT_CONVERGE_PAIR = [100, 120]

# relative weight below which spectrum peaks are left out of the summary
PEAK_REPORT_FLOOR = 1e-6


class ConfigError(Exception):
    """Invalid run configuration; ``issues`` is a list of (path, message)."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join("%s: %s" % issue for issue in self.issues))


# ---------------------------------------------------------------------------
# config parsing


def _type_name(value):
    return type(value).__name__


def _get_number(block, key, path, issues, required=False, default=None,
                minimum=None, positive=False):
    if key not in block:
        if required:
            issues.append((path, "missing required field"))
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        issues.append((path, "expected a number, got %s" % _type_name(value)))
        return default
    value = float(value)
    if not math.isfinite(value):
        issues.append((path, "must be finite"))
        return default
    if positive and value <= 0:
        issues.append((path, "must be > 0"))
        return default
    if minimum is not None and value < minimum:
        issues.append((path, "must be >= %g" % minimum))
        return default
    return value


def _get_int(block, key, path, issues, required=False, default=None,
             minimum=None):
    if key not in block:
        if required:
            issues.append((path, "missing required field"))
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        issues.append((path, "expected an integer, got %s" % _type_name(value)))
        return default
    if minimum is not None and value < minimum:
        issues.append((path, "must be >= %d" % minimum))
        return default
    return value


def _parse_model(cfg, task, issues):
    """Resolve the model block into ModelParams kwargs plus the limit label."""
    block = cfg.get("model")
    if not isinstance(block, dict):
        issues.append(("model", "missing required object"))
        return None, None
    fixed_point = task in FIXED_POINT_TASKS

    n_emitters = _get_int(block, "n_emitters", "model.n_emitters", issues,
                          required=True, minimum=1)
    g = _get_number(block, "g", "model.g", issues,
                    required=fixed_point, default=0.1, minimum=0.0)
    temperature = _get_number(block, "temperature", "model.temperature",
                              issues, required=fixed_point,
                              default=0.1, minimum=0.0)
    n_max = _get_int(block, "n_max", "model.n_max", issues,
                     default=DEFAULT_N_MAX, minimum=2)
    gamma = _get_number(block, "gamma", "model.gamma", issues,
                        default=1e-2, positive=True)
    x0 = _get_number(block, "x0", "model.x0", issues, default=1.0,
                     positive=True)
    omega_c = _get_number(block, "omega_c", "model.omega_c", issues,
                          positive=True)
    omega_x = _get_number(block, "omega_x", "model.omega_x", issues,
                          positive=True)

    limit = block.get("limit")
    has_gp = "g_prime" in block
    if limit is not None and has_gp:
        issues.append(("model.limit",
                       "give either 'limit' or 'g_prime', not both"))
    if limit is not None and limit not in ("dicke", "tc"):
        issues.append(("model.limit", "must be 'dicke' or 'tc'"))
        limit = None
    if has_gp:
        if task in GRID_TASKS or task == "eigen":
            issues.append(("model.g_prime",
                           "sweep tasks vary g; use 'limit' instead"))
        gp = _get_number(block, "g_prime", "model.g_prime", issues,
                         default=0.0, minimum=0.0)
        limit = "dicke" if (g is not None and gp == g) else "custom"
    elif limit is None:
        issues.append(("model.limit", "missing required field"))
        gp = 0.0
    else:
        gp = g if limit == "dicke" else 0.0

    if task == "analytic-compare" and n_emitters not in (None, 1):
        issues.append(("model.n_emitters",
                       "analytic-compare is defined for a single emitter"))
    if task == "analytic-compare" and limit == "dicke":
        issues.append(("model.limit",
                       "analytic-compare is defined in the tc limit"))

    unknown = set(block) - {"n_emitters", "g", "g_prime", "limit",
                            "temperature", "n_max", "gamma", "x0",
                            "omega_c", "omega_x"}
    for key in sorted(unknown):
        issues.append(("model.%s" % key, "unknown field"))

    if issues:
        return None, limit
    kwargs = dict(n_emitters=n_emitters, g=g, g_prime=gp,
                  temperature=temperature, n_max=n_max, gamma=gamma, x0=x0,
                  omega_c=omega_c, omega_x=omega_x)
    return kwargs, limit


def _parse_grid(cfg, issues, need_t=True):
    block = cfg.get("grid")
    if not isinstance(block, dict):
        issues.append(("grid", "missing required object"))
        return None
    g_min = _get_number(block, "g_min", "grid.g_min", issues, required=True,
                        minimum=0.01)
    g_max = _get_number(block, "g_max", "grid.g_max", issues, required=True,
                        positive=True)
    g_steps = _get_int(block, "g_steps", "grid.g_steps", issues,
                       required=True, minimum=1)
    spec = {"g": (g_min, g_max, g_steps)}
    if need_t:
        t_min = _get_number(block, "T_min", "grid.T_min", issues,
                            required=True, minimum=0.0)
        t_max = _get_number(block, "T_max", "grid.T_max", issues,
                            required=True, positive=True)
        t_steps = _get_int(block, "T_steps", "grid.T_steps", issues,
                           required=True, minimum=1)
        spec["T"] = (t_min, t_max, t_steps)
    for axis in ("g", "T") if need_t else ("g",):
        lo, hi, steps = spec.get(axis, (None, None, None))
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
    return spec if not issues else None


def _axis(lo, hi, steps):
    if steps == 1:
        return np.array([lo])
    return np.linspace(lo, hi, steps)


def _parse_omega_grid(cfg, issues):
    block = cfg.get("omega_grid", {})
    if not isinstance(block, dict):
        issues.append(("omega_grid", "expected an object"))
        return None
    merged = dict(DEFAULT_OMEGA_GRID)
    lo = _get_number(block, "omega_min", "omega_grid.omega_min", issues,
                     default=merged["omega_min"], minimum=0.0)
    hi = _get_number(block, "omega_max", "omega_grid.omega_max", issues,
                     default=merged["omega_max"], positive=True)
    pts = _get_int(block, "points", "omega_grid.points", issues,
                   default=merged["points"], minimum=2)
    if lo is not None and hi is not None and hi <= lo:
        issues.append(("omega_grid.omega_max", "must be > omega_grid.omega_min"))
        return None
    return {"omega_min": lo, "omega_max": hi, "points": pts}


def _parse_t_grid(cfg, gamma, issues):
    block = cfg.get("t_grid", {})
    if not isinstance(block, dict):
        issues.append(("t_grid", "expected an object"))
        return None
    t_max = _get_number(block, "t_max", "t_grid.t_max", issues,
                        default=50.0 / gamma, positive=True)
    pts = _get_int(block, "points", "t_grid.points", issues,
                   default=DEFAULT_T_POINTS, minimum=2)
    return {"t_max": t_max, "points": pts}


def parse_config(path, task, workers_override=None, out_override=None):
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
    model_kwargs, limit = _parse_model(cfg, task, issues)

    resolved = {"task": task, "limit": limit}
    if task in GRID_TASKS:
        resolved["grid"] = _parse_grid(cfg, issues, need_t=True)
    elif task == "eigen":
        resolved["grid"] = _parse_grid(cfg, issues, need_t=False)
        resolved["levels"] = _get_int(cfg, "levels", "levels", issues,
                                      default=DEFAULT_EIGEN_LEVELS, minimum=1)
    if task == "spectrum":
        resolved["omega_grid"] = _parse_omega_grid(cfg, issues)
    if task == "g2time":
        gamma = model_kwargs["gamma"] if model_kwargs else 1e-2
        resolved["t_grid"] = _parse_t_grid(cfg, gamma, issues)
    if task == "qo-chart":
        resolved["qo_n_max"] = _get_int(cfg, "qo_n_max", "qo_n_max", issues,
                                        default=DEFAULT_QO_NMAX, minimum=2)
    if task == "converge":
        pair = cfg.get("n_max_pair", DEFAULT_CONVERGE_PAIR)
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           and v >= 2 for v in pair)
                or pair[0] >= pair[1]):
            issues.append(("n_max_pair",
                           "expected [n_low, n_high] with 2 <= n_low < n_high"))
        else:
            resolved["n_max_pair"] = pair

    workers = _get_int(cfg, "workers", "workers", issues, default=1, minimum=1)
    if workers_override is not None:
        workers = workers_override
    resolved["workers"] = workers

    out_dir = out_override
    if out_dir is None:
        out_dir = cfg.get("output_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            issues.append(("output_dir", "expected a string"))
            out_dir = None
    if out_dir is None:
        out_dir = os.environ.get(OUTPUT_ENV_VAR, "out")
    resolved["output_dir"] = out_dir

    known_top = {"model", "grid", "omega_grid", "t_grid", "levels",
                 "qo_n_max", "n_max_pair", "workers", "output_dir"}
    for key in sorted(set(cfg) - known_top):
        issues.append((key, "unknown field"))

    if issues:
        raise ConfigError(issues)
    resolved["model"] = model_kwargs
    return resolved


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.12e" % value


def _write_csv(path, header, rows):
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _write_summary(out_dir, payload):
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _map_points(worker, jobs, n_workers):
    """Run ``worker`` over ``jobs`` preserving input order."""
    if n_workers <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    chunk = max(1, len(jobs) // (4 * n_workers))
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, jobs, chunksize=chunk))


# ---------------------------------------------------------------------------
# grid points and their runners


def _error_text(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def _point(job):
    """Evaluate one grid point; top level so it pickles for the pool.

    Returns (values, None) on success and (None, "Type: message") when the
    point raised, so one bad point does not stop the sweep.
    """
    value, resolved, g, temperature = job
    kwargs = dict(resolved["model"], g=g, temperature=temperature,
                  g_prime=(g if resolved["limit"] == "dicke" else 0.0))
    try:
        return value(ModelParams(**kwargs), resolved), None
    except Exception as exc:  # recorded per point, sweep continues
        return None, _error_text(exc)


def _g2_values(params, _resolved):
    system = solve_system(params)
    return (float(system.g2_zero()), system.collision_count,
            int(system.eig.degenerate))


def _qo_values(params, resolved):
    return (float(qo_g2_zero(params, n_max=resolved["qo_n_max"])),)


def _compare_values(params, _resolved):
    numeric = float(solve_system(params).g2_zero())
    basic = tc_g2_approximation(params.g, params.temperature)
    refined = tc_g2_approximation(params.g, params.temperature, refined=True)
    rel = abs(float(refined) - numeric) / numeric
    return (numeric, float(basic), float(refined), int(refined.trusted), rel)


def _eigen_rows(params, resolved):
    # energies only; skips the dissipative half of the pipeline
    eig = diagonalize(build_hamiltonian(params))
    keep = min(resolved["levels"], eig.energies.size)
    return [(params.g, k, float(eig.energies[k]), int(eig.group_index[k]))
            for k in range(keep)]


def _g2_metrics(_resolved, ok):
    return {"degenerate_points": int(sum(v[2] for v in ok)),
            "collision_points": int(sum(1 for v in ok if v[1] > 0))}


def _qo_metrics(resolved, _ok):
    return {"qo_n_max": resolved["qo_n_max"]}


def _compare_metrics(_resolved, ok):
    trusted_err = [v[4] for v in ok if v[3]]
    return {"max_rel_err_trusted": max(trusted_err) if trusted_err else None}


# (g, T) grid tasks: value function, its CSV columns, the values written
# for a failed point, and the summary metrics computed from the good points
GRID_TASKS = {
    "g2chart": (_g2_values, ("g2_zero", "collision_count", "degenerate"),
                (math.nan, 0, 0), _g2_metrics),
    "qo-chart": (_qo_values, ("g2_zero",), (math.nan,), _qo_metrics),
    "analytic-compare": (
        _compare_values,
        ("g2_numeric", "g2_basic", "g2_refined", "trusted", "rel_err_refined"),
        (math.nan, math.nan, math.nan, 0, math.nan), _compare_metrics),
}


def run_grid(resolved, out_dir):
    """Run a (g, T) grid task; rows in (g outer, T inner) order."""
    task = resolved["task"]
    value, columns, failed_fill, task_metrics = GRID_TASKS[task]
    grid = resolved["grid"]
    points = [(g, t) for g in _axis(*grid["g"]) for t in _axis(*grid["T"])]
    jobs = [(value, resolved, g, t) for g, t in points]
    rows, ok, failures = [], [], []
    for (g, t), (values, error) in zip(
            points, _map_points(_point, jobs, resolved["workers"])):
        if error is None:
            ok.append(values)
            rows.append((g, t) + values + (0,))
        else:
            failures.append({"g": g, "T": t, "error": error})
            rows.append((g, t) + failed_fill + (1,))
    _write_csv(os.path.join(out_dir, "%s.csv" % task),
               ("g", "T") + columns + ("status",), rows)
    metrics = dict(task_metrics(resolved, ok), n_points=len(points),
                   n_failed=len(failures), failures=failures)
    return metrics, len(failures)


def run_eigen(resolved, out_dir):
    g_axis = _axis(*resolved["grid"]["g"])
    temperature = resolved["model"]["temperature"]
    results = _map_points(
        _point, [(_eigen_rows, resolved, g, temperature) for g in g_axis],
        resolved["workers"])
    rows = [row for block, error in results if error is None for row in block]
    _write_csv(os.path.join(out_dir, "eigen.csv"),
               ["g", "level", "energy", "group"], rows)
    failures = [{"g": float(g), "error": error}
                for g, (_, error) in zip(g_axis, results) if error is not None]
    metrics = {"n_points": len(g_axis), "n_failed": len(failures),
               "levels": resolved["levels"], "failures": failures}
    return metrics, len(failures)


def run_spectrum(resolved, out_dir):
    params = ModelParams(**resolved["model"])
    system = solve_system(params)
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
    }
    _write_csv(os.path.join(out_dir, "spectrum.csv"), ["omega", "spectrum"],
               list(zip(omega, spectrum.values)))
    return metrics, 0


def run_g2time(resolved, out_dir):
    params = ModelParams(**resolved["model"])
    system = solve_system(params)
    tg = resolved["t_grid"]
    times = np.linspace(0.0, tg["t_max"], tg["points"])
    result = system.g2_time(times)
    metrics = {
        "g2_zero": float(result.zero_value),
        "g2_final": float(result.values[-1]),
        "t_max": tg["t_max"],
        "max_imag": float(result.max_imag),
        "relaxation_gap": result.relaxation_gap,
        "stationary_residual": system.stationary.residual,
        "collision_count": system.collision_count,
    }
    _write_csv(os.path.join(out_dir, "g2time.csv"), ["t", "g2"],
               list(zip(times, result.values)))
    return metrics, 0


def run_converge(resolved, out_dir):
    n_low, n_high = resolved["n_max_pair"]
    systems = {}
    for cutoff in (n_low, n_high):
        params = ModelParams(**dict(resolved["model"], n_max=cutoff))
        systems[cutoff] = solve_system(params)

    def peak_weights(system):
        # coincident-frequency peaks are summed first; their individual
        # weights depend on the eigenvector gauge, the sums do not
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

    rows = [
        ("g2_zero", n_low, n_high, g2[n_low], g2[n_high],
         abs(g2[n_high] - g2[n_low]),
         abs(g2[n_high] - g2[n_low]) / abs(g2[n_high])),
        ("integrated_emission", n_low, n_high, emission[n_low],
         emission[n_high], abs(emission[n_high] - emission[n_low]),
         abs(emission[n_high] - emission[n_low]) / abs(emission[n_high])),
        ("peak_weight_max_rel", n_low, n_high, float(w_low.max()),
         float(w_high.max()), weight_rel, weight_rel),
    ]
    header = ["metric", "n_low", "n_high", "value_low", "value_high",
              "abs_diff", "rel_diff"]
    _write_csv(os.path.join(out_dir, "converge.csv"), header, rows)
    metrics = {
        "n_max_pair": [n_low, n_high],
        "g2_zero_abs_diff": rows[0][5],
        "emission_rel_diff": rows[1][6],
        "peak_weight_max_rel_diff": weight_rel,
    }
    return metrics, 0


RUNNERS = {
    "eigen": run_eigen,
    "spectrum": run_spectrum,
    "g2chart": run_grid,
    "g2time": run_g2time,
    "qo-chart": run_grid,
    "analytic-compare": run_grid,
    "converge": run_converge,
}


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

# per task: the script docstring and the body between head and tail
_PLOT_BODIES = {
    "eigen": (
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
'''),
    "spectrum": ("Regenerate the emission spectrum plot from __CSV__.", '''\
omega = np.array([float(r["omega"]) for r in rows])
value = np.array([float(r["spectrum"]) for r in rows])

fig, ax = plt.subplots(figsize=(5.6, 3.4))
ax.plot(omega, value, lw=1.2)
ax.set_xlim(omega.min(), omega.max())
ax.set_ylim(bottom=0.0)
ax.set_xlabel("frequency")
ax.set_ylabel("emission spectrum")
'''),
    "g2chart": _PLOT_CHART,
    "g2time": (
        "Regenerate the g2(t) curve from __CSV__ (reference line at 1).",
        '''\
t = np.array([float(r["t"]) for r in rows])
g2 = np.array([float(r["g2"]) for r in rows])

fig, ax = plt.subplots(figsize=(5.6, 3.4))
ax.plot(t, g2, lw=1.2)
ax.axhline(1.0, color="0.4", lw=0.8, ls="--")
ax.set_xlabel("delay t")
ax.set_ylabel("$g^{(2)}(t)$")
'''),
    "qo-chart": _PLOT_CHART,
    "analytic-compare": (
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
'''),
    "converge": ("Regenerate the cutoff stability chart from __CSV__.", '''\
labels = [r["metric"] for r in rows]
diffs = np.array([max(float(r["rel_diff"]), 1e-18) for r in rows])

fig, ax = plt.subplots(figsize=(5.2, 3.2))
ax.bar(range(len(labels)), diffs)
ax.set_yscale("log")
ax.set_xticks(range(len(labels)), labels, rotation=20, ha="right")
ax.set_ylabel("relative change")
'''),
}


def emit_plot_script(task, out_dir):
    doc, body = _PLOT_BODIES[task]
    script = _PLOT_HEAD.replace("__DOC__", doc) + body + _PLOT_TAIL
    script = script.replace("__CSV__", "%s.csv" % task)
    script = script.replace("__STEM__", task)
    path = os.path.join(out_dir, "plot_%s.py" % task)
    with open(path, "w") as handle:
        handle.write(script)
    return path


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a dressed-state emission task from a JSON config.")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides config and %s)"
                        % OUTPUT_ENV_VAR)
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers for grid tasks (default 1)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.workers is not None and args.workers < 1:
        print("config error: --workers: must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        resolved = parse_config(args.config, args.task,
                                workers_override=args.workers,
                                out_override=args.out)
    except ConfigError as exc:
        for path, message in exc.issues:
            print("config error: %s: %s" % (path, message), file=sys.stderr)
        return EXIT_CONFIG

    out_dir = resolved["output_dir"]
    os.makedirs(out_dir, exist_ok=True)

    started = time.time()
    try:
        metrics, n_failed = RUNNERS[args.task](resolved, out_dir)
    except Exception as exc:
        if args.task not in FIXED_POINT_TASKS:
            raise
        # the task's one point failed: recorded like a failed grid point
        error = _error_text(exc)
        metrics = {"n_points": 1, "n_failed": 1,
                   "failures": [{"error": error}]}
        n_failed, files, message = 1, [], "%s: %s" % (args.task, error)
    else:
        files = ["%s.csv" % args.task,
                 os.path.basename(emit_plot_script(args.task, out_dir))]
        message = ("%s: %d of %d points failed; see summary.json"
                   % (args.task, n_failed, metrics.get("n_points", 0)))

    summary = {
        "task": args.task,
        "version": __version__,
        "config": {k: v for k, v in resolved.items() if k != "output_dir"},
        "wall_time_s": round(time.time() - started, 3),
        "files": files,
        "metrics": metrics,
    }
    _write_summary(out_dir, summary)

    if n_failed:
        print(message, file=sys.stderr)
        return EXIT_PARTIAL
    print("%s: wrote %s" % (args.task, os.path.join(out_dir,
                                                    "%s.csv" % args.task)))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
