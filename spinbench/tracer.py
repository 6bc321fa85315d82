"""Outside-in layer trace of one ``spinweave run``.

Run as a script, this module wraps the names each spinweave layer is called
through (in the namespace of the module that calls them: ``cli.*``,
``otoc.*``, plus the methods ``ExactEvolution.unitary`` and
``TmemSolver.solve``), runs the command line, and writes a JSON summary::

    python3 spinbench/tracer.py TRACE.json run CONFIG --jobs 1 --output-dir DIR

Every wrapped call records a span (layer, start, end, parent span) in
memory.  Counts are read from the arguments and results at the same
boundary, outside the timed span; byte counts are computed from array
sizes, not measured.  The program itself is not changed.

A layer whose wrapped name no longer exists, or that a run of a pipeline
which should reach it never called, is reported absent rather than as
zero, so that a refactor which bypasses a wrapper cannot pass for a
speed-up.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

ALL = frozenset({"exact", "sampled", "mitigated"})
MEASURED = frozenset({"sampled", "mitigated"})
MITIGATED = frozenset({"mitigated"})

_COMPLEX_BYTES = 16


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _evolution(args, kwargs, result):
    return {"ising.evolution_calls": 1}


def _circuit(args, kwargs, result):
    return {"otoc.circuit_gates": len(result.gates)}


def _weave(args, kwargs, result):
    return {"weave.gates_built": len(result.gates)}


def _statevector(args, kwargs, result):
    gates = len(_arg(args, kwargs, 1, "c").gates)
    # Each gate reads and writes the whole state vector once.
    state_bytes = _COMPLEX_BYTES * 2 ** result.n_qubits
    return {"qsim.gates_applied": gates,
            "qsim.bytes_computed": 2 * gates * state_bytes}


def _density(args, kwargs, result):
    gates = _arg(args, kwargs, 0, "c").gates
    cnots = sum(1 for g in gates if g.kind == "CNOT")
    # Each gate contracts the density tensor twice (rows, then columns) and
    # each CNOT adds a depolarizing update; each pass reads and writes it.
    tensor_bytes = _COMPLEX_BYTES * 4 ** result.n_qubits
    return {"noise.dm_runs": 1, "noise.dm_gates": len(gates),
            "noise.dm_cnots": cnots,
            "noise.dm_bytes_computed": (4 * len(gates) + 2 * cnots) * tensor_bytes}


def _shots(args, kwargs, result):
    return {"noise.shots_drawn": _arg(args, kwargs, 1, "shots")}


def _tmem(args, kwargs, result):
    _, iterations, converged = result
    return {"mitigation.tmem_solves": 1, "mitigation.tmem_iterations": iterations,
            "mitigation.tmem_nonconverged": int(not converged)}


def _zne(args, kwargs, result):
    pair = _arg(args, kwargs, 0, "pair")
    raw = (3.0 * pair.p1.probabilities - pair.p3.probabilities) / 2.0
    projected = bool((raw < 0.0).any() or (raw > 1.0).any())
    return {"mitigation.zne_projections": int(projected)}


def _written(args, kwargs, result):
    return {"surface_io.bytes_written": sum(p.stat().st_size for p in result)}


def _svg(args, kwargs, result):
    return {"heatmap.svg_bytes": len(result.encode("utf-8"))}


@dataclass(frozen=True)
class Probe:
    """One wrapped name: ``target`` is ``module:attr`` or
    ``module:Class.method`` inside the ``spinweave`` package."""

    layer: str
    target: str
    pipelines: frozenset  # pipelines whose runs call the target
    count: Callable | None = None


PROBES = (
    Probe("config.validate", "cli:validate_config", ALL),
    Probe("otoc.build_surface", "cli:build_surface", ALL),
    Probe("surface_io.write", "cli:write_surface", ALL, _written),
    Probe("surface_io.load", "cli:load_surface", ALL),
    Probe("heatmap.render", "cli:render_heatmap", ALL, _svg),
    Probe("ising.evolution", "otoc:cached_evolution", ALL),
    Probe("ising.evolution", "ising:ExactEvolution.unitary", ALL, _evolution),
    Probe("ising.phase", "otoc:classical_otoc_phase", MEASURED),
    Probe("otoc.value", "otoc:_otoc_value", ALL),
    Probe("otoc.circuit", "otoc:fabs_measurement_circuit", MEASURED, _circuit),
    Probe("weave.build", "otoc:weave_circuit", MEASURED, _weave),
    Probe("qsim.statevector", "otoc:apply_circuit", frozenset({"sampled"}),
          _statevector),
    Probe("qsim.statevector", "otoc:measurement_distribution",
          frozenset({"sampled"})),
    Probe("noise.density", "otoc:simulate_noisy", MITIGATED, _density),
    Probe("noise.sampling", "otoc:sample_counts", MEASURED, _shots),
    Probe("noise.sampling", "otoc:empirical_distribution", MEASURED),
    Probe("mitigation.tmem", "mitigation:TmemSolver.solve", MITIGATED, _tmem),
    Probe("mitigation.zne", "otoc:zne_correct", MITIGATED, _zne),
)

# (metric, unit, kind, layer): kind "time" sums the layer's spans, "self"
# subtracts the spans nested directly inside them, "count" reads a counter
# named like the metric.
LAYER_METRICS = (
    ("ising.evolution_s", "s", "time", "ising.evolution"),
    ("ising.evolution_calls", "count", "count", "ising.evolution"),
    ("ising.phase_s", "s", "time", "ising.phase"),
    ("otoc.self_s", "s", "self", "otoc.build_surface"),
    ("otoc.value_s", "s", "time", "otoc.value"),
    ("otoc.circuit_s", "s", "time", "otoc.circuit"),
    ("otoc.circuit_gates", "count", "count", "otoc.circuit"),
    ("weave.build_s", "s", "time", "weave.build"),
    ("weave.gates_built", "count", "count", "weave.build"),
    ("qsim.statevector_s", "s", "time", "qsim.statevector"),
    ("qsim.gates_applied", "count", "count", "qsim.statevector"),
    ("qsim.bytes_computed", "bytes", "count", "qsim.statevector"),
    ("noise.density_s", "s", "time", "noise.density"),
    ("noise.dm_runs", "count", "count", "noise.density"),
    ("noise.dm_gates", "count", "count", "noise.density"),
    ("noise.dm_cnots", "count", "count", "noise.density"),
    ("noise.dm_bytes_computed", "bytes", "count", "noise.density"),
    ("noise.sampling_s", "s", "time", "noise.sampling"),
    ("noise.shots_drawn", "count", "count", "noise.sampling"),
    ("mitigation.tmem_s", "s", "time", "mitigation.tmem"),
    ("mitigation.tmem_solves", "count", "count", "mitigation.tmem"),
    ("mitigation.tmem_iterations", "count", "count", "mitigation.tmem"),
    ("mitigation.tmem_nonconverged", "count", "count", "mitigation.tmem"),
    ("mitigation.zne_s", "s", "time", "mitigation.zne"),
    ("mitigation.zne_projections", "count", "count", "mitigation.zne"),
    ("config.validate_s", "s", "time", "config.validate"),
    ("surface_io.write_s", "s", "time", "surface_io.write"),
    ("surface_io.load_s", "s", "time", "surface_io.load"),
    ("surface_io.bytes_written", "bytes", "count", "surface_io.write"),
    ("heatmap.render_s", "s", "time", "heatmap.render"),
    ("heatmap.svg_bytes", "bytes", "count", "heatmap.render"),
)


def _resolve(target: str, package: str):
    """(owner, attribute name) for a probe target, or None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = import_module(f"{package}.{module_name}")
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (layer, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.fired: set = set()
        self.missing: list = []
        self.count_errors: set = set()
        self._stack: list = []

    def install(self, probes=PROBES, package: str = "spinweave"):
        for probe in probes:
            found = _resolve(probe.target, package)
            if found is None:
                self.missing.append(probe.target)
                continue
            owner, attr = found
            setattr(owner, attr, self._wrap(probe, getattr(owner, attr)))

    def _wrap(self, probe: Probe, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (probe.layer, start, end, parent)
            self.fired.add(probe.layer)
            if probe.count is not None:
                try:
                    self.counts.update(probe.count(args, kwargs, return_value))
                except Exception:  # a changed signature must not stop the run
                    self.count_errors.add(probe.layer)
            return return_value
        return traced

    def summary(self) -> dict:
        busy, child = Counter(), Counter()
        for layer, start, end, parent in self.spans:
            busy[layer] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        for index, (layer, start, end, _) in enumerate(self.spans):
            own[layer] += end - start - child[index]
        return {"time": dict(busy), "self": dict(own), "counts": dict(self.counts),
                "fired": sorted(self.fired), "missing": sorted(self.missing),
                "count_errors": sorted(self.count_errors)}


def absent_layers(summary: dict, pipeline: str, probes=PROBES) -> set:
    """Layers whose numbers cannot be trusted in this summary: a wrapped
    name is gone, or the pipeline should reach the layer and never did."""
    missing = set(summary["missing"])
    out = set()
    for probe in probes:
        if probe.target in missing:
            out.add(probe.layer)
        elif pipeline in probe.pipelines and probe.layer not in summary["fired"]:
            out.add(probe.layer)
    return out


def layer_metrics(summaries: list, pipeline: str, metrics=LAYER_METRICS,
                  probes=PROBES) -> tuple[dict, list]:
    """Per-layer metrics over the summaries of repeated traced runs.

    Times are medians over the runs; counts come from the first run (the
    caller checks that they repeat).  Returns ({metric: (value, unit)},
    [absent metric names]).
    """
    absent_by_run = [absent_layers(s, pipeline, probes) for s in summaries]
    values, absent = {}, []
    for name, unit, kind, layer in metrics:
        if any(layer in a for a in absent_by_run) or (
                kind == "count" and any(layer in s["count_errors"] for s in summaries)):
            absent.append(name)
        elif kind == "count":
            values[name] = (summaries[0]["counts"].get(name, 0), unit)
        else:  # "time" and "self" name the summary's own keys
            values[name] = (statistics.median(s[kind].get(layer, 0.0)
                                              for s in summaries), unit)
    return values, absent


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from spinweave import cli
    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
