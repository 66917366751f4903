"""Run results and their stable textual emissions.

One simulation run produces one report: per-flow outcomes with the exact
path taken, per-packet-in latency in ticks, a time series of rule
installations and the counters counted from those records.  Emissions are
byte-stable: equal runs serialize identically, and the delimited form loads
straight into standard plotting tools.

A ``records`` line is built straight from its record's fields, read with
``getattr`` in the order of their sorted names, which are worked out once
per record class; every field is a JSON string, number, boolean or tuple of
strings, so a value of any other type is an error, not a guess.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cache

__all__ = ["FORMATS", "FlowRecord", "InstallRecord", "LatencyRecord", "MetricsReport", "emit", "emit_series"]

# the emission formats of a report and of a series
FORMATS = ("table", "delimited", "records")


@dataclass(slots=True)
class FlowRecord:
    index: int
    flow_id: str
    src: str
    dst: str
    request_tick: int
    outcome: str = "pending"  # delivered | dropped
    reason: str = ""
    drop_domain: str = ""
    delivered_tick: int = -1
    as_path: tuple[str, ...] = ()
    switch_path: tuple[str, ...] = ()
    from_flood: bool = False

    @property
    def establishment_ticks(self) -> int:
        if self.outcome != "delivered":
            return -1
        return self.delivered_tick - self.request_tick


@dataclass(frozen=True, slots=True)
class LatencyRecord:
    domain: str
    arrival_tick: int
    start_tick: int
    emission_tick: int

    @property
    def latency(self) -> int:
        return self.emission_tick - self.arrival_tick


@dataclass(frozen=True, slots=True)
class InstallRecord:
    tick: int
    domain: str
    src_ip: str
    flow_id: str
    rules: int
    provenance: str


@dataclass
class MetricsReport:
    scenario: str
    mode: str
    enforcement: bool
    flows: list[FlowRecord] = field(default_factory=list)
    latencies: list[LatencyRecord] = field(default_factory=list)
    installs: list[InstallRecord] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    # --- derived views -------------------------------------------------------

    def flow(self, src: str, dst: str) -> FlowRecord:
        for record in self.flows:
            if record.src == src and record.dst == dst:
                return record
        raise KeyError(f"no flow {src} -> {dst}")

    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(r.latency for r in self.latencies) / len(self.latencies)

    def established_within(self, horizon_tick: int) -> int:
        """Flow-mod batches emitted up to the horizon (saturation measure)."""
        return sum(1 for record in self.installs if record.tick <= horizon_tick)

    def conservation_holds(self) -> bool:
        outcomes = {"delivered", "dropped"}
        return all(f.outcome in outcomes for f in self.flows)


_FLOW_COLUMNS = (
    "index",
    "flow_id",
    "src",
    "dst",
    "outcome",
    "reason",
    "drop_domain",
    "request_tick",
    "delivered_tick",
    "establishment_ticks",
    "as_path",
    "switch_path",
)


def _flow_row(record: FlowRecord) -> list[str]:
    cells = (getattr(record, column) for column in _FLOW_COLUMNS)
    return [">".join(cell) if isinstance(cell, tuple) else str(cell) for cell in cells]


def _aligned(header: tuple[str, ...], rows: list[list[str]]) -> list[str]:
    """The header and each row, every column padded to its widest cell."""
    widths = [len(name) for name in header]
    for row in rows:
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    return ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in [header, *rows]]


def _delimited(header: tuple[str, ...], rows: list[list[str]]) -> list[str]:
    """The header and each row as comma-joined lines."""
    return [",".join(row) for row in [header, *rows]]


@cache
def _sorted_fields(record_class: type) -> tuple[str, ...]:
    return tuple(sorted(f.name for f in fields(record_class)))


def _record_line(record: FlowRecord | InstallRecord) -> str:
    """One ``records`` line: the record's fields as a JSON object with its
    keys in sorted order."""
    return json.dumps({name: getattr(record, name) for name in _sorted_fields(type(record))})


def emit(report: MetricsReport, fmt: str = "table") -> str:
    """Render a report as ``table`` (aligned), ``delimited`` (CSV with a
    header row) or ``records`` (JSON lines)."""
    if fmt == "records":
        lines = [
            json.dumps(
                {
                    "scenario": report.scenario,
                    "mode": report.mode,
                    "enforcement": report.enforcement,
                    "counters": report.counters,
                },
                sort_keys=True,
            )
        ]
        lines += [_record_line(flow) for flow in report.flows]
        lines += [_record_line(rec) for rec in report.installs]
        return "\n".join(lines) + "\n"
    rows = [_flow_row(flow) for flow in report.flows]
    counters = sorted(report.counters.items())
    if fmt == "delimited":
        out = _delimited(_FLOW_COLUMNS, rows)
        out.append("")
        out += _delimited(("counter", "value"), [[name, str(value)] for name, value in counters])
        return "\n".join(out) + "\n"
    if fmt != "table":
        raise ValueError(f"unknown emission format {fmt!r}")
    header, *lines = _aligned(_FLOW_COLUMNS, rows)
    out = [f"scenario: {report.scenario}  mode={report.mode} enforcement={report.enforcement}"]
    out += [header, "-" * len(header), *lines, ""]
    out += [f"{name}: {value}" for name, value in counters]
    return "\n".join(out) + "\n"


def emit_series(series: dict[str, list[tuple[int, float]]], fmt: str = "delimited") -> str:
    """Render labeled (x, y) series, one column per label, x-aligned.

    Used for rate sweeps where several response policies are compared over
    the same offered-rate axis.
    """
    labels = list(series)
    xs = sorted({x for points in series.values() for x, _ in points})
    by_label = {label: dict(points) for label, points in series.items()}
    header = ("x", *labels)
    rows = [[str(x)] + [str(by_label[label].get(x, "")) for label in labels] for x in xs]
    if fmt == "delimited":
        return "\n".join(_delimited(header, rows)) + "\n"
    if fmt == "table":
        return "\n".join(_aligned(header, rows)) + "\n"
    if fmt == "records":
        out = [json.dumps({"x": x, **{label: by_label[label].get(x) for label in labels}}, sort_keys=True) for x in xs]
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown emission format {fmt!r}")
