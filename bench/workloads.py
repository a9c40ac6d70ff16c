"""Benchmark workloads: seeded configs for `simulate` and checks on its outputs.

Each workload is one `simulate` task on a config drawn from a seed.  The
seed picks the (g, T) grid bounds, or the single (g, T) point, from fixed
ranges; everything that sets the amount of work (emitter number, Fock
cutoff, grid size, delay count) is fixed, so every seed costs about the
same.  The program only ever sees the generated config file.
"""

import csv
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

# |observed - reference| <= RTOL * |reference| + ATOL_SCALE * max|reference column|
RTOL = 1e-6
ATOL_SCALE = 1e-9

# CSV columns and summary metrics compared with the stored reference.
# Diagnostic counters (collision_count, degenerate) are left out on purpose:
# they are being redefined and are not physical observables.
COMPARED = {
    "g2chart": (("g2_zero",), ()),
    "qo-chart": (("g2_zero",), ()),
    "g2time": (("g2",), ("g2_zero", "g2_final")),
    "spectrum": (("spectrum",), ("integrated_emission",
                                 "dominant_weight_fraction")),
}

# Grid workloads sweep the full ranges.  Single-point workloads draw near a
# nominal point, because their cost depends on (g, T): at some points the
# propagator keeps its eigendecomposition and no expm runs, and the number
# of populated levels grows with T.
G_RANGE = (0.1, 0.8)
T_RANGE = (0.02, 0.3)
T_MAX = 5000.0
N_DELAYS = 10
OMEGA_POINTS = 2000  # the CLI's default omega grid, 0..3

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    model: dict
    grid_steps: tuple = None  # (g_steps, T_steps) for grid tasks
    point: tuple = None       # (g range, T range) for single-point tasks
    extra: tuple = ()         # fixed top-level config entries

    def config(self, seed):
        """The `simulate` config for ``seed``; equal seeds give equal configs."""
        rng = random.Random("%s:%d" % (self.name, seed))
        cfg = {"model": dict(self.model), "workers": 1}
        if self.grid_steps:
            # Bounds are drawn from the low and high parts of each range, so
            # every seed sweeps a similar share of the parameter plane.
            g_mid = sum(G_RANGE) / 2
            t_mid = sum(T_RANGE) / 2
            cfg["grid"] = {
                "g_min": _draw(rng, G_RANGE[0], g_mid - 0.05),
                "g_max": _draw(rng, g_mid + 0.05, G_RANGE[1]),
                "g_steps": self.grid_steps[0],
                "T_min": _draw(rng, T_RANGE[0], t_mid - 0.02),
                "T_max": _draw(rng, t_mid + 0.02, T_RANGE[1]),
                "T_steps": self.grid_steps[1],
            }
        else:
            g_range, t_range = self.point
            cfg["model"]["g"] = _draw(rng, *g_range)
            cfg["model"]["temperature"] = _draw(rng, *t_range)
        cfg.update(dict(self.extra))
        return cfg

    def operations(self, cfg):
        """Operations one `simulate` run attempts: grid rows, or 1."""
        if self.grid_steps:
            return cfg["grid"]["g_steps"] * cfg["grid"]["T_steps"]
        return 1


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="chart-dicke-n2",
        task="g2chart",
        model={"n_emitters": 2, "limit": "dicke", "n_max": 100},
        grid_steps=(2, 1),
    ),
    Workload(
        name="g2time-dicke-n2",
        task="g2time",
        model={"n_emitters": 2, "limit": "dicke", "n_max": 100},
        point=((0.4, 0.6), (0.06, 0.08)),
        extra=(("t_grid", {"t_max": T_MAX, "points": N_DELAYS}),),
    ),
    Workload(
        name="spectrum-tc-n4",
        task="spectrum",
        model={"n_emitters": 4, "limit": "tc", "n_max": 60},
        point=((0.25, 0.35), (0.08, 0.12)),
    ),
    Workload(
        name="qo-chart-n2",
        task="qo-chart",
        model={"n_emitters": 2, "limit": "dicke"},
        grid_steps=(4, 4),
        extra=(("qo_n_max", 15),),
    ),
)}


def read_outputs(task, out_dir):
    """CSV columns (as float lists) and summary metrics of one run."""
    with open(os.path.join(out_dir, "%s.csv" % task), newline="") as handle:
        rows = list(csv.DictReader(handle))
    columns = {key: [float(row[key]) for row in rows] for key in rows[0]} \
        if rows else {}
    with open(os.path.join(out_dir, "summary.json")) as handle:
        metrics = json.load(handle)["metrics"]
    return {"columns": columns, "metrics": metrics}


def observed_values(task, outputs):
    """The compared subset of ``outputs``, in the reference file's layout."""
    cols, mets = COMPARED[task]
    return {"columns": {c: outputs["columns"][c] for c in cols},
            "metrics": {m: outputs["metrics"][m] for m in mets}}


def _axis(lo, hi, steps):
    return np.array([lo]) if steps == 1 else np.linspace(lo, hi, steps)


def _expected_inputs(task, cfg):
    """Input columns the CSV must echo back, as computed from ``cfg``."""
    if task in ("g2chart", "qo-chart"):
        grid = cfg["grid"]
        g = _axis(grid["g_min"], grid["g_max"], grid["g_steps"])
        t = _axis(grid["T_min"], grid["T_max"], grid["T_steps"])
        return {"g": np.repeat(g, t.size), "T": np.tile(t, g.size)}
    if task == "g2time":
        tg = cfg["t_grid"]
        return {"t": np.linspace(0.0, tg["t_max"], tg["points"])}
    return {"omega": np.linspace(0.0, 3.0, OMEGA_POINTS)}


def _close(observed, reference):
    observed = np.asarray(observed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if observed.shape != reference.shape:
        return False
    scale = np.max(np.abs(reference)) if reference.size else 0.0
    return bool(np.all(np.abs(observed - reference)
                       <= RTOL * np.abs(reference) + ATOL_SCALE * scale))


def check_outputs(task, cfg, outputs, reference=None):
    """Problems found in one run's outputs; an empty list means it passed.

    Checks the invariants that hold for any seed, and, when ``reference``
    is given, the compared values against it to the stated tolerance.
    """
    problems = []
    columns, metrics = outputs["columns"], outputs["metrics"]
    for name, expected in _expected_inputs(task, cfg).items():
        if not _close(columns.get(name, []), expected):
            problems.append("input column %s does not match the config" % name)
    if "status" in columns and any(s != 0 for s in columns["status"]):
        problems.append("rows with status != 0")
    for name in COMPARED[task][0]:
        values = columns.get(name)
        if not values:
            problems.append("column %s missing or empty" % name)
        elif not all(math.isfinite(v) for v in values):
            problems.append("column %s has non-finite values" % name)
    if task == "g2time" and columns.get("g2"):
        if not _close([columns["g2"][0]], [metrics["g2_zero"]]):
            problems.append("g2(t=0) %r differs from summary g2_zero %r"
                            % (columns["g2"][0], metrics["g2_zero"]))
    if task == "spectrum" and not metrics.get("integrated_emission", 0) > 0:
        problems.append("integrated_emission is not > 0")
    if reference is not None and not problems:
        observed = observed_values(task, outputs)
        for part in ("columns", "metrics"):
            for name, ref in reference[part].items():
                got = observed[part][name]
                if not _close(np.atleast_1d(got), np.atleast_1d(ref)):
                    problems.append("%s %s differs from the reference"
                                    % (part[:-1], name))
    return problems


def reference_path(name):
    return os.path.join(REFERENCE_DIR, "%s.json" % name)


def load_reference(name):
    """Stored reference for workload ``name`` at DEFAULT_SEED."""
    with open(reference_path(name)) as handle:
        return json.load(handle)
