"""Per-layer tracing of one kerrjc sweep, from outside the package.

Each layer is a set of kerrjc functions.  ``Tracer.install`` replaces every
binding of those functions in every loaded ``kerrjc`` module (``cli``,
``experiments`` and ``geomphase`` all import ``evolve_closed`` by name, so
patching only ``kerrjc.dynamics`` would miss most calls) with a wrapper that
records a span: layer, start, end and the span that called it.  A target
that no longer exists makes its layer's metrics absent (``None``), so a
refactor that moves a function does not break the traced run.

A layer's time is the summed duration of its outermost spans (a span inside
another span of the same layer is not counted again); ``*.self_s`` is a
span's duration minus the time covered by its direct child spans.  Counts
are read from the wrapped calls' results and arguments, where the work is
done.  The open-leg rate is computed from array sizes, not read from
hardware counters: 8*d^4 real flops per hop (one d^2 x d^2 complex
matrix-vector product); a closed RK4 step is 8*d^2 by the same count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

# layer -> the (module, function) pairs it wraps
LAYERS = {
    "experiments": [("kerrjc.experiments", "run_sweep")],
    "experiments.csv": [("kerrjc.experiments", "write_sweep_csv")],
    "svg": [("kerrjc.svg", "line_chart"), ("kerrjc.svg", "bloch_chart")],
    "model.hamiltonian": [("kerrjc.model", "hamiltonian")],
    "dynamics.closed": [("kerrjc.dynamics", "evolve_closed")],
    "dynamics.open": [("kerrjc.dynamics", "evolve_lindblad")],
    "dynamics.generator": [("kerrjc.dynamics", "liouvillian"),
                           ("kerrjc.dynamics", "rk4_step_matrix")],
    "dynamics.health": [("kerrjc.dynamics", "_check_density_stack"),
                        ("kerrjc.dynamics", "_check_truncation_stack")],
    "geomphase.track": [("kerrjc.geomphase", "track_dominant_eigenvector")],
    "geomphase.phase": [("kerrjc.geomphase", "phase_series")],
    "information.negativity": [("kerrjc.experiments", "_negativity_series"),
                               ("kerrjc.information", "negativity")],
}

FLAGS = ("ok", "degraded", "singular", "tracking_error")

# per-layer metric -> unit; the order is the order of BENCHMARK.json
UNITS = {
    "dynamics.closed_s": "s",
    "dynamics.closed_steps": "count",
    "dynamics.closed_ns_per_step": "ns",
    "dynamics.open_s": "s",
    "dynamics.open_hops": "count",
    "dynamics.open_gflops_computed": "GFLOP/s",
    "dynamics.generator_s": "s",
    "dynamics.step_builds": "count",
    "dynamics.health_s": "s",
    "dynamics.health_eig_samples": "count",
    "geomphase.track_s": "s",
    "geomphase.track_samples": "count",
    "geomphase.track_us_per_sample": "us",
    "geomphase.phase_s": "s",
    "geomphase.chain_samples": "count",
    "geomphase.chain_useful_ratio": "ratio",
    "information.negativity_s": "s",
    "information.negativity_samples": "count",
    "experiments.csv_s": "s",
    "experiments.csv_bytes": "bytes",
    "svg.s": "s",
    "svg.bytes": "bytes",
    "experiments.self_s": "s",
    "experiments.points": "count",
    "experiments.rows": "count",
    **{f"experiments.flag.{flag}": "count" for flag in FLAGS},
    "model.hamiltonian_s": "s",
    "model.hamiltonian_per_point": "calls/point",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _bindings(target):
    """Every (namespace, name) in a loaded kerrjc module bound to ``target``."""
    return [(vars(mod), name)
            for mod in list(sys.modules.values())
            if mod is not None and mod.__name__.split(".")[0] == "kerrjc"
            for name, value in list(vars(mod).items()) if value is target]


def replace_everywhere(module_name, attr, make_replacement):
    """Swap ``module.attr`` for ``make_replacement(original)`` wherever it is bound.

    Returns a function that puts the originals back, or ``None`` when the
    target does not exist.
    """
    try:
        original = getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError):
        return None
    replacement = make_replacement(original)
    sites = _bindings(original)
    for namespace, name in sites:
        namespace[name] = replacement

    def restore():
        for namespace, name in sites:
            namespace[name] = original
    return restore


def _arg(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind_partial(*args, **kwargs).arguments.get(name)
    except (TypeError, ValueError):
        return None


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans and counts of one traced run; all spans share one run."""

    def __init__(self):
        self.spans = []  # dicts: layer, start, end, parent (index or None)
        self.counts = Counter()
        self.present = set()  # layers with at least one wrapped target
        self.chains = {}  # phase-chain input identity -> longest prefix seen
        self._stack = []
        self._restores = []

    def wrap(self, layer, fn, count=None):
        """``fn`` recording a span of ``layer``, and its counts when outermost."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = all(self.spans[i]["layer"] != layer for i in self._stack)
            span = {"layer": layer, "parent": self._stack[-1] if self._stack else None,
                    "outermost": outermost, "start": time.perf_counter(), "end": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if outermost and count is not None:
                count(fn, args, kwargs, result)
            return result
        return traced

    def install(self):
        for layer, targets in LAYERS.items():
            count = getattr(self, "_count_" + layer.replace(".", "_"), None)
            for module_name, attr in targets:
                restore = replace_everywhere(
                    module_name, attr,
                    lambda fn, layer=layer, count=count: self.wrap(layer, fn, count))
                if restore is not None:
                    self.present.add(layer)
                    self._restores.append(restore)

    def uninstall(self):
        while self._restores:
            self._restores.pop()()

    def call_main(self, main, argv):
        """Run ``main(argv)`` as the root ``cli`` span, with every layer wrapped."""
        self.install()
        self.present.add("cli")
        try:
            return self.wrap("cli", main)(argv)
        finally:
            self.uninstall()

    # counters, one per layer that counts work; each reads the wrapped call

    def _count_experiments(self, fn, args, kwargs, result):
        self.counts["points"] += len(result.spec.grid)
        self.counts["rows"] += len(result.rows)
        if "valid" in result.columns:
            col = list(result.columns).index("valid")
            self.counts.update("flag." + row[col] for row in result.rows)

    def _count_experiments_csv(self, fn, args, kwargs, result):
        self.counts["csv_bytes"] += _file_size(_arg(fn, args, kwargs, "path"))

    def _count_svg(self, fn, args, kwargs, result):
        self.counts["svg_bytes"] += _file_size(_arg(fn, args, kwargs, "path"))

    def _count_model_hamiltonian(self, fn, args, kwargs, result):
        self.counts["hamiltonian_calls"] += 1

    def _count_dynamics_closed(self, fn, args, kwargs, result):
        self.counts["closed_steps"] += result.config.n_steps

    def _count_dynamics_open(self, fn, args, kwargs, result):
        d = result.states.shape[1]
        hops = len(result.times) - 1
        self.counts["open_hops"] += hops
        self.counts["open_flops"] += 8 * d**4 * hops

    def _count_dynamics_generator(self, fn, args, kwargs, result):
        if fn.__name__ == "rk4_step_matrix":
            self.counts["step_builds"] += 1

    def _count_dynamics_health(self, fn, args, kwargs, result):
        if fn.__name__ == "_check_density_stack":
            self.counts["health_eig_samples"] += len(_arg(fn, args, kwargs, "states"))

    def _count_geomphase_track(self, fn, args, kwargs, result):
        self.counts["track_samples"] += len(result.times)

    def _count_geomphase_phase(self, fn, args, kwargs, result):
        n = len(result[0])
        self.counts["chain_samples"] += n
        # every checkpoint re-runs the chain over a prefix of one sequence;
        # a prefix shares its start address and first sample with the rest
        states = _arg(fn, args, kwargs, "states")
        try:
            key = (states.__array_interface__["data"][0], states[0].tobytes())
        except (AttributeError, IndexError, KeyError):
            key = len(self.chains)
        self.chains[key] = max(self.chains.get(key, 0), n)

    def _count_information_negativity(self, fn, args, kwargs, result):
        self.counts["negativity_samples"] += len(result) if getattr(result, "ndim", 0) else 1

    # aggregation

    def layer_seconds(self, layer):
        return sum((s["end"] - s["start"] for s in self.spans
                    if s["layer"] == layer and s["outermost"]), 0.0)

    def self_seconds(self, layer):
        children = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        return sum((s["end"] - s["start"] - children[i]
                    for i, s in enumerate(self.spans) if s["layer"] == layer), 0.0)

    def metrics(self):
        """Per-layer metrics (``trace.overhead_frac`` excepted) by name.

        The metrics of a layer none of whose targets exist are ``None``.
        """
        c, t = self.counts, self.layer_seconds
        closed_s, open_s = t("dynamics.closed"), t("dynamics.open")
        track_s = t("geomphase.track")
        by_layer = {
            "dynamics.closed": {
                "dynamics.closed_s": closed_s,
                "dynamics.closed_steps": c["closed_steps"],
                "dynamics.closed_ns_per_step": _ratio(closed_s * 1e9, c["closed_steps"]),
            },
            "dynamics.open": {
                "dynamics.open_s": open_s,
                "dynamics.open_hops": c["open_hops"],
                "dynamics.open_gflops_computed": _ratio(c["open_flops"] / 1e9, open_s),
            },
            "dynamics.generator": {
                "dynamics.generator_s": t("dynamics.generator"),
                "dynamics.step_builds": c["step_builds"],
            },
            "dynamics.health": {
                "dynamics.health_s": t("dynamics.health"),
                "dynamics.health_eig_samples": c["health_eig_samples"],
            },
            "geomphase.track": {
                "geomphase.track_s": track_s,
                "geomphase.track_samples": c["track_samples"],
                "geomphase.track_us_per_sample": _ratio(track_s * 1e6, c["track_samples"]),
            },
            "geomphase.phase": {
                "geomphase.phase_s": t("geomphase.phase"),
                "geomphase.chain_samples": c["chain_samples"],
                "geomphase.chain_useful_ratio": _ratio(sum(self.chains.values()),
                                                       c["chain_samples"]),
            },
            "information.negativity": {
                "information.negativity_s": t("information.negativity"),
                "information.negativity_samples": c["negativity_samples"],
            },
            "experiments.csv": {
                "experiments.csv_s": t("experiments.csv"),
                "experiments.csv_bytes": c["csv_bytes"],
            },
            "svg": {"svg.s": t("svg"), "svg.bytes": c["svg_bytes"]},
            "experiments": {
                "experiments.self_s": self.self_seconds("experiments"),
                "experiments.points": c["points"],
                "experiments.rows": c["rows"],
                **{f"experiments.flag.{flag}": c["flag." + flag] for flag in FLAGS},
            },
            "model.hamiltonian": {
                "model.hamiltonian_s": t("model.hamiltonian"),
                "model.hamiltonian_per_point": _ratio(c["hamiltonian_calls"], c["points"]),
            },
            "cli": {"cli.self_s": self.self_seconds("cli")},
        }
        return {name: value if layer in self.present else None
                for layer, group in by_layer.items() for name, value in group.items()}


def _ratio(num, den):
    """num / den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0
