"""Span tracing of `simulate` from outside the package.

The tracer replaces the names each caller looks up (for example
``dressedlight.pipeline.group_transitions`` or
``dressedlight.spectral.EigenSystem.to_eigenbasis``) with timing wrappers.
Each call records a span (name, start, end, parent) in memory.  A target
whose name no longer exists is skipped and reports 0 calls.

Run as a script, it traces one `simulate` invocation in-process and
writes the spans as JSON:

    PYTHONPATH=src python3 bench/spans.py SPANS.json g2chart --config cfg.json --out DIR
"""

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

# (module, attribute path as the caller looks it up, span name)
TARGETS = (
    ("dressedlight.cli", "parse_config", "cli.parse_config"),
    ("dressedlight.cli", "solve_system", "pipeline.solve_system"),
    ("dressedlight.cli", "build_hamiltonian", "model.build_hamiltonian"),
    ("dressedlight.cli", "diagonalize", "spectral.diagonalize"),
    ("dressedlight.cli", "qo_g2_zero", "qoptical.qo_g2_zero"),
    ("dressedlight.pipeline", "build_operators", "model.build_operators"),
    ("dressedlight.pipeline", "build_hamiltonian", "model.build_hamiltonian"),
    ("dressedlight.pipeline", "diagonalize", "spectral.diagonalize"),
    ("dressedlight.pipeline", "group_transitions",
     "spectral.group_transitions"),
    ("dressedlight.pipeline", "build_rate_table",
     "dissipation.build_rate_table"),
    ("dressedlight.pipeline", "stationary_state", "dynamics.stationary_state"),
    ("dressedlight.spectral", "EigenSystem.to_eigenbasis",
     "spectral.to_eigenbasis"),
    ("dressedlight.dynamics", "DiagonalPropagator.__init__",
     "dynamics.propagator_build"),
    ("dressedlight.dynamics", "RegressionEvolver.curve",
     "dynamics.regression_curve"),
    ("dressedlight.dynamics", "scipy.linalg.expm", "dynamics.expm"),
    ("dressedlight.observables", "emission_operator",
     "observables.emission_operator"),
    ("dressedlight.observables", "g2_zero", "observables.g2_zero"),
    ("dressedlight.observables", "emission_spectrum",
     "observables.emission_spectrum"),
    ("dressedlight.observables", "g2_time", "observables.g2_time"),
    ("dressedlight.qoptical", "qo_stationary_state",
     "qoptical.qo_stationary_state"),
    ("dressedlight.qoptical", "qo_liouvillian", "qoptical.qo_liouvillian"),
    ("dressedlight.qoptical", "build_operators", "model.build_operators"),
    ("dressedlight.qoptical", "build_hamiltonian", "model.build_hamiltonian"),
)

ROOT_SPAN = "cli.main"

# Counter bumped after DiagonalPropagator.__init__ when the built propagator
# kept its eigendecomposition.
EIG_ACCEPTED = "dynamics.propagator_eig_accepted"


def _count_eig_accepted(tracer, args, _result):
    if getattr(args[0], "uses_eigendecomposition", False):
        tracer.counters[EIG_ACCEPTED] = tracer.counters.get(EIG_ACCEPTED, 0) + 1


AFTER = {"dynamics.propagator_build": _count_eig_accepted}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self.missing = []
        self._stack = []
        self._installed = []

    @contextmanager
    def span(self, name):
        record = [name, self.clock(), None,
                  self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(self, module, path, name, after=None):
        """Replace ``module``.``path`` with a timing wrapper.

        Returns False, and records ``name`` as missing, when the module or
        any part of the dotted path does not exist.
        """
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = None if owner is None else getattr(owner, attr, None)
        if original is None:
            self.missing.append("%s.%s" % (module, path))
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))
        return True

    def install(self, targets=TARGETS):
        for module, path, name in targets:
            self.wrap(module, path, name, AFTER.get(name))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per span: its duration minus the part covered by its direct children."""
    children = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def totals(spans):
    """{span name: (calls, inclusive seconds, self seconds)}."""
    out = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, incl + end - start, self_s + own)
    return out


def _incl(name):
    return lambda t, c: t.get(name, (0, 0.0, 0.0))[1]


def _self(name):
    return lambda t, c: t.get(name, (0, 0.0, 0.0))[2]


def _calls(name):
    return lambda t, c: t.get(name, (0, 0.0, 0.0))[0]


def _accept_ratio(t, c):
    built = _calls("dynamics.propagator_build")(t, c)
    return c.get(EIG_ACCEPTED, 0) / built if built else 0.0


# per-layer metric: (unit, function of (totals, counters)) for one simulate run
LAYER_METRICS = {
    "cli.self_s": ("s", _self(ROOT_SPAN)),
    "cli.parse_config_s": ("s", _incl("cli.parse_config")),
    "pipeline.solve_system_s": ("s", _incl("pipeline.solve_system")),
    "pipeline.solve_system_calls": ("count", _calls("pipeline.solve_system")),
    "pipeline.self_s": ("s", _self("pipeline.solve_system")),
    "model.build_operators_s": ("s", _incl("model.build_operators")),
    "model.build_hamiltonian_s": ("s", _incl("model.build_hamiltonian")),
    "spectral.diagonalize_s": ("s", _incl("spectral.diagonalize")),
    "spectral.group_transitions_s": ("s", _incl("spectral.group_transitions")),
    "spectral.group_transitions_calls":
        ("count", _calls("spectral.group_transitions")),
    "spectral.to_eigenbasis_s": ("s", _incl("spectral.to_eigenbasis")),
    "spectral.to_eigenbasis_calls": ("count", _calls("spectral.to_eigenbasis")),
    "dissipation.build_rate_table_s":
        ("s", _incl("dissipation.build_rate_table")),
    "dynamics.stationary_state_s": ("s", _incl("dynamics.stationary_state")),
    "dynamics.propagator_build_s": ("s", _incl("dynamics.propagator_build")),
    "dynamics.propagator_build_calls":
        ("count", _calls("dynamics.propagator_build")),
    "dynamics.propagator_eig_accept_ratio": ("ratio", _accept_ratio),
    "dynamics.expm_calls": ("count", _calls("dynamics.expm")),
    "dynamics.regression_curve_s": ("s", _incl("dynamics.regression_curve")),
    "observables.emission_operator_s":
        ("s", _incl("observables.emission_operator")),
    "observables.g2_zero_s": ("s", _incl("observables.g2_zero")),
    "observables.emission_spectrum_s":
        ("s", _incl("observables.emission_spectrum")),
    "observables.g2_time_s": ("s", _incl("observables.g2_time")),
    "qoptical.qo_g2_zero_s": ("s", _incl("qoptical.qo_g2_zero")),
    "qoptical.qo_liouvillian_s": ("s", _incl("qoptical.qo_liouvillian")),
    "qoptical.qo_stationary_state_s":
        ("s", _incl("qoptical.qo_stationary_state")),
}


def layer_metrics(spans, counters):
    """Every LAYER_METRICS value for the spans of one simulate run."""
    t = totals(spans)
    return {name: fn(t, counters) for name, (_, fn) in LAYER_METRICS.items()}


def median_metrics(runs):
    """Median of each layer metric over several traced runs.

    Counts take the lower median, so they stay whole numbers.
    """
    return {name: (statistics.median_low if unit == "count"
                   else statistics.median)(run[name] for run in runs)
            for name, (unit, _) in LAYER_METRICS.items()}


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    from dressedlight import cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(ROOT_SPAN):
            code = cli.main(cli_argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as handle:
        json.dump({"exit": code, "spans": tracer.spans,
                   "counters": tracer.counters, "missing": tracer.missing},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
