"""Per-layer tracing for the benchmark, applied from outside the program.

Hooks replace a layer's public functions with timing wrappers for the length
of one traced run and put the originals back afterwards.  A module-level
function is patched where it is defined and in every ``sdnsec`` module that
imported it by name (``controller`` imports ``select_policy`` and
``find_as_paths`` that way, ``simulation`` imports ``probe_topology``), so
each call is seen once whichever name the caller used.  A method is patched
on its class.

A span is recorded per call: name, start, end, parent span and the flow id
when an argument carries one (otherwise the parent's).  Spans stay in memory
until :meth:`Tracer.write_spans`.  Self time is a span's duration minus the
time its child spans cover.  Count-only hooks record no span, for functions
called too often for a span to be cheap.

A hook whose target no longer exists is skipped with a warning, and every
metric it feeds reads ``None``: later refactors may delete or rename
functions, and the benchmark must keep running on them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

_NO_FLOW = ""


@dataclass
class LayerStats:
    calls: int = 0
    durations_ns: list[int] = field(default_factory=list)
    self_ns: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    unknown: set[str] = field(default_factory=set)  # counters the target could not give

    def bump(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


# observe(stats, args, result) records what a call did at the boundary
Observer = Callable[[LayerStats, tuple, object], None]


@dataclass(frozen=True)
class Hook:
    module: str
    target: str  # "function" or "Class.method"
    name: str  # metric prefix, <module>.<function>
    observe: Observer | None = None
    span: bool = True


def _observe_lookup(stats: LayerStats, args: tuple, result: object) -> None:
    if result is None:
        stats.bump("misses")
    table = getattr(args[0], "table", None)
    if table is None:
        stats.unknown.add("table_len")
    else:
        stats.bump("table_len", len(table))


def _observe_select(stats: LayerStats, args: tuple, result: object) -> None:
    try:
        stats.bump("repo_len", len(args[0]))
    except TypeError:
        stats.unknown.add("repo_len")


def _observe_as_paths(stats: LayerStats, args: tuple, result: object) -> None:
    stats.bump("paths_returned", len(result))
    # the controller routes on the first path only
    stats.bump("paths_used", 1 if result else 0)


def _observe_defense(stats: LayerStats, args: tuple, result: object) -> None:
    if getattr(result, "value", result) == "throttle":
        stats.bump("throttled")


HOOKS: tuple[Hook, ...] = (
    Hook("sdnsec.scenario", "parse_scenario", "scenario.parse_scenario"),
    Hook("sdnsec.formats", "parse_compact_pe", "formats.parse_compact_pe"),
    Hook("sdnsec.simulation", "build_world", "simulation.build_world"),
    Hook("sdnsec.topology", "probe_topology", "topology.probe_topology"),
    Hook("sdnsec.simulation", "Simulation.run", "simulation.loop"),
    Hook("sdnsec.simulation", "Simulation._on_switch_rx", "simulation.events", span=False),
    Hook("sdnsec.simulation", "Simulation._on_ctrl_job", "simulation.events", span=False),
    Hook("sdnsec.simulation", "Simulation._on_apply_result", "simulation.events", span=False),
    Hook("sdnsec.dataplane", "Switch.lookup", "dataplane.lookup", _observe_lookup),
    Hook("sdnsec.dataplane", "Switch.install", "dataplane.install"),
    Hook("sdnsec.controller", "Controller.handle_packet_in", "controller.handle_packet_in"),
    Hook("sdnsec.controller", "synthesize_rules", "controller.synthesize_rules"),
    Hook("sdnsec.policy", "select_policy", "policy.select_policy", _observe_select),
    Hook("sdnsec.topology", "find_as_paths", "topology.find_as_paths", _observe_as_paths),
    Hook("sdnsec.topology", "find_switch_path", "topology.find_switch_path"),
    Hook("sdnsec.interdomain", "handle_tag", "interdomain.tag"),
    Hook("sdnsec.interdomain", "ptt_tag", "interdomain.tag"),
    Hook("sdnsec.interdomain", "validate_handle", "interdomain.validate_handle"),
    Hook("sdnsec.interdomain", "verify_ptt", "interdomain.verify_ptt"),
    Hook("sdnsec.interdomain", "merge_constraints", "interdomain.merge_constraints"),
    Hook("sdnsec.defense", "FloodMonitor.record_and_check", "defense.record_and_check", _observe_defense),
    Hook("sdnsec.labels", "LabelWindow.satisfies", "labels.satisfies", span=False),
    Hook("sdnsec.metrics", "emit", "metrics.emit"),
)


# span layer -> timing stats reported for it
_TIMINGS: dict[str, tuple[str, ...]] = {
    "dataplane.lookup": ("calls", "total_s", "p50_us", "p99_us"),
    "dataplane.install": ("calls", "total_s"),
    "policy.select_policy": ("calls", "total_s", "p50_us", "p99_us"),
    "formats.parse_compact_pe": ("calls", "total_s"),
    "scenario.parse_scenario": ("total_s",),
    "topology.find_as_paths": ("calls", "total_s", "p50_us", "p99_us"),
    "topology.find_switch_path": ("calls", "total_s"),
    "topology.probe_topology": ("total_s",),
    "simulation.build_world": ("total_s",),
    "interdomain.tag": ("calls", "total_s"),
    "interdomain.validate_handle": ("calls", "total_s"),
    "interdomain.verify_ptt": ("calls", "total_s"),
    "interdomain.merge_constraints": ("calls", "total_s"),
    "defense.record_and_check": ("calls", "total_s"),
    "controller.handle_packet_in": ("calls", "total_s", "p50_us", "p99_us", "self_s"),
    "controller.synthesize_rules": ("calls", "total_s"),
    "simulation.loop": ("self_s", "total_s"),  # total_s only feeds host_us_per_event
    "metrics.emit": ("total_s",),
}

# ratio metric -> (layer, numerator, base), counters or "calls"
_RATIOS: dict[str, tuple[str, str, str]] = {
    "dataplane.lookup.miss_ratio": ("dataplane.lookup", "misses", "calls"),
    "dataplane.lookup.table_len_mean": ("dataplane.lookup", "table_len", "calls"),
    "policy.select_policy.repo_len_mean": ("policy.select_policy", "repo_len", "calls"),
    "topology.find_as_paths.useful_ratio": ("topology.find_as_paths", "paths_used", "paths_returned"),
    "defense.record_and_check.throttle_ratio": ("defense.record_and_check", "throttled", "calls"),
}


def _flow_of(args: tuple) -> str:
    for arg in args:
        flow = getattr(arg, "flow_id", None)
        if isinstance(flow, str):
            return flow
    return _NO_FLOW


class Tracer:
    """Installs :data:`HOOKS`, collects spans and turns them into metrics."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self.spans: list[tuple] = []
        self.stats: dict[str, LayerStats] = {}
        self.missing: set[str] = set()
        self.warnings: list[str] = []
        self._stack: list[list] = []  # [span index, child ns, flow id]
        self._patches: list[tuple[object, str, object]] = []
        self._origin = 0

    # --- installation ---------------------------------------------------------

    def __enter__(self) -> Tracer:
        self._origin = time.perf_counter_ns()
        for hook in self.hooks:
            self._install(hook)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install(self, hook: Hook) -> None:
        stats = self.stats.setdefault(hook.name, LayerStats())
        try:
            module = importlib.import_module(hook.module)
            owner: object = module
            *parents, attr = hook.target.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.add(hook.name)
            self.warnings.append(f"hook target {hook.module}.{hook.target} not found; {hook.name} metrics are null")
            return
        wrapper = self._span_wrapper(hook, original, stats) if hook.span else self._count_wrapper(original, stats)
        if parents:
            self._patch(owner, attr, wrapper)
            return
        for name, loaded in list(sys.modules.items()):
            if name == "sdnsec" or name.startswith("sdnsec."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count_wrapper(self, fn, stats: LayerStats):
        def counted(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, hook: Hook, fn, stats: LayerStats):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name, observe = hook.name, hook.observe

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            flow = _flow_of(args) or (stack[-1][2] if stack else _NO_FLOW)
            frame = [index, 0, flow]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1][0] if stack else -1
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, flow)
                stats.calls += 1
                stats.durations_ns.append(duration)
                stats.self_ns += duration - frame[1]
            if observe is not None:
                observe(stats, args, result)
            return result

        return traced

    # --- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float | int | None]:
        """Per-layer metrics named ``<module>.<function>.<stat>``, in the
        units :func:`unit_of` gives; ratios with a zero base read 0."""
        out: dict[str, float | int | None] = {}
        for name, fields in _TIMINGS.items():
            stats = self.stats[name]
            ordered = sorted(stats.durations_ns)
            values = {
                "calls": stats.calls,
                "total_s": sum(ordered) / 1e9,
                "self_s": stats.self_ns / 1e9,
                "p50_us": percentile(ordered, 0.50) / 1e3,
                "p99_us": percentile(ordered, 0.99) / 1e3,
            }
            for field_ in fields:
                out[f"{name}.{field_}"] = None if name in self.missing else values[field_]
        for metric, (name, numerator, base) in _RATIOS.items():
            stats = self.stats[name]
            counts = dict(stats.counters, calls=stats.calls)
            if name in self.missing or numerator in stats.unknown:
                out[metric] = None
            else:
                out[metric] = counts.get(numerator, 0) / counts[base] if counts.get(base) else 0.0
        as_paths = self.stats["topology.find_as_paths"]
        out["topology.find_as_paths.paths_returned"] = (
            None if "topology.find_as_paths" in self.missing else as_paths.counters.get("paths_returned", 0)
        )
        for metric, name in (("simulation.events", "simulation.events"), ("labels.satisfies.calls", "labels.satisfies")):
            out[metric] = None if name in self.missing else self.stats[name].calls
        events, loop_s = out["simulation.events"], out["simulation.loop.total_s"]
        if events is None or loop_s is None:
            out["simulation.host_us_per_event"] = None
        else:
            out["simulation.host_us_per_event"] = loop_s * 1e6 / events if events else 0.0
        del out["simulation.loop.total_s"]
        return out

    def shares(self) -> list[tuple[str, float, float, float]]:
        """(layer, total seconds, self seconds, share of the traced time) per
        span layer, largest total first.  The traced time is the sum of the
        root spans, i.e. parse, build, simulation loop and emit."""
        traced_ns = sum(end - start for _, start, end, parent, _ in self.spans if parent == -1)
        rows = []
        for name, stats in self.stats.items():
            if stats.durations_ns:
                total = sum(stats.durations_ns)
                rows.append((name, total / 1e9, stats.self_ns / 1e9, total / traced_ns))
        return sorted(rows, key=lambda row: -row[1])

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines (name, start_ns, end_ns, parent,
        flow); times are relative to the tracer's start.  Returns the count."""
        with open(path, "w") as handle:
            for name, start, end, parent, flow in self.spans:
                handle.write(json.dumps([name, start - self._origin, end - self._origin, parent, flow]))
                handle.write("\n")
        return len(self.spans)


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of an ascending list; 0 when it is empty."""
    if not ordered:
        return 0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_us", "_us_per_event")):
        return "us"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("table_len_mean"):
        return "rules"
    if metric.endswith("repo_len_mean"):
        return "exprs"
    return "count"
