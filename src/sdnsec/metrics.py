"""Run results and their stable textual emissions.

One simulation run produces one report: per-flow outcomes with the exact
path taken, per-packet-in latency in ticks, a time series of rule
installations and the counters counted from those records.  Emissions are
byte-stable: equal runs serialize identically.  A flow row is read off one
column list, which ``table`` and ``delimited`` share.

The ``delimited`` form is CSV with a header row, written by ``csv.writer``
with ``"\\n"`` line ends: a cell is quoted only when it holds a comma, a
double quote or a line break, so a host id such as ``client "a", east``
reads back as one cell and every row as wide as its header.  The scenario
reader refuses an id that does not print, so no cell of a run's report holds
a bare ``\\r``, which ``csv.writer`` would leave unquoted; :func:`emit_series`
refuses such a series label, and the label ``x``, the name of its axis column.

A ``records`` line is written by a function built once per record class
(:func:`_line_writer`), as ``dataclasses`` builds ``__init__``: from the
class's fields in sorted-name order and each field's declared type, it reads
every field and writes the JSON object in one f-string.  A ``str`` goes
through ``json``'s own C escaper, an ``int`` is written by ``int.__repr__``,
a ``bool`` as ``true`` / ``false`` and a ``tuple[str, ...]`` as a list of
escaped strings, so the line is byte for byte what ``json.dumps`` with sorted
keys writes.  A value whose type is not its field's declared type (a ``bool``
in an ``int`` field, a list in a tuple field, a non-``str`` in a ``str``
field or tuple) is a ``TypeError``, not a guess.  Only the header line goes
through ``json.dumps``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import get_type_hints

from .frozen import frozen

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


@frozen(slots=True)
class LatencyRecord:
    domain: str
    arrival_tick: int
    start_tick: int
    emission_tick: int

    @property
    def latency(self) -> int:
        return self.emission_tick - self.arrival_tick


@frozen(slots=True)
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


def _delimited(header: tuple[str, ...], rows: list[list[str]]) -> str:
    """The header and each row as CSV lines, through ``csv.writer``: a cell
    is quoted only when it holds a comma, a double quote or a line break."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


# How a records line writes a field of each declared type: the test, on
# the value's variable ``%s``, that rejects another type (None where the
# escaper rejects it), and the f-string replacement field that writes it.
_FIELD_WRITERS = {
    str: (None, "{_string(%s)}"),
    int: ("%s.__class__ is not int", "{%s!r}"),
    bool: ("%s.__class__ is not bool", '{"true" if %s else "false"}'),
    tuple[str, ...]: ("%s.__class__ is not tuple", "[{_strings(map(_string, %s))}]"),
}


def _wrong_type(record_class: type, name: str, declared: str, value: object) -> TypeError:
    return TypeError(f"{record_class.__name__}.{name} is declared {declared}, not {type(value).__name__}: {value!r}")


@cache
def _line_writer(record_class: type):
    """The function that writes one ``records`` line of a ``record_class``
    record: its fields as a JSON object with sorted keys and ``json.dumps``'s
    separators, every value checked against its field's declared type."""
    declared = get_type_hints(record_class)
    body = [
        "    if record.__class__ is not record_class:",
        "        raise TypeError(f'{type(record).__name__} is not a {record_class.__name__}')",
    ]
    items = []
    for number, spec in enumerate(sorted(fields(record_class), key=attrgetter("name"))):
        if declared[spec.name] not in _FIELD_WRITERS:
            raise TypeError(f"{record_class.__name__}.{spec.name}: a records line writes no {spec.type}")
        test, value = _FIELD_WRITERS[declared[spec.name]]
        variable = f"v{number}"
        body.append(f"    {variable} = record.{spec.name}")
        if test is not None:
            body.append(f"    if {test % variable}:")
            body.append(f"        raise _wrong_type(record_class, {spec.name!r}, {spec.type!r}, {variable})")
        items.append(f'"{spec.name}": {value % variable}')
    body.append("    return f'{{" + ", ".join(items) + "}}'")
    source = "\n".join(["def write(record):", *body])
    namespace = {
        "record_class": record_class,
        "_wrong_type": _wrong_type,
        "_string": encode_basestring_ascii,
        "_strings": ", ".join,
    }
    exec(source, namespace)
    write = namespace["write"]
    write.__qualname__ = write.__name__ = f"write_{record_class.__name__}_line"
    return write


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
        lines += map(_line_writer(FlowRecord), report.flows)
        lines += map(_line_writer(InstallRecord), report.installs)
        return "\n".join(lines) + "\n"
    rows = [_flow_row(flow) for flow in report.flows]
    counters = sorted(report.counters.items())
    if fmt == "delimited":
        counter_rows = [[name, str(value)] for name, value in counters]
        return _delimited(_FLOW_COLUMNS, rows) + "\n" + _delimited(("counter", "value"), counter_rows)
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
    the same offered-rate axis.  A label that would corrupt the output is a
    ``ValueError``: ``"x"``, the axis column's own name, and a label that
    does not print (``str.isprintable``), which ``csv.writer`` may leave
    unquoted.
    """
    for label in series:
        if label == "x":
            raise ValueError("series label 'x' is the axis column's name")
        if not label.isprintable():
            raise ValueError(f"series label {label!r} holds a character that does not print")
    labels = list(series)
    xs = sorted({x for points in series.values() for x, _ in points})
    by_label = {label: dict(points) for label, points in series.items()}
    header = ("x", *labels)
    rows = [[str(x)] + [str(by_label[label].get(x, "")) for label in labels] for x in xs]
    if fmt == "delimited":
        return _delimited(header, rows)
    if fmt == "table":
        return "\n".join(_aligned(header, rows)) + "\n"
    if fmt == "records":
        out = [json.dumps({"x": x, **{label: by_label[label].get(x) for label in labels}}, sort_keys=True) for x in xs]
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown emission format {fmt!r}")
