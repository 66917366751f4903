"""Deterministic work counts on the per-flow path.

No ``ipaddress`` object and no ``dataclasses.asdict``: addresses are plain
integers from the parser on, and a ``records`` line is encoded from its
record's fields.  These tests count the calls that either regression would
bring back: building, hashing, comparing or formatting an ``IPv4Address``
or ``IPv4Network``, and ``dataclasses.asdict``.  They run every golden case
and the benchmark workloads at seed 1, building each world first, and
assert that ``Simulation.run()`` and ``emit`` in every format make none of
these calls.  Nor do they call ``normalize_mac``: the scenario reader
normalizes every MAC, and a packet-in's flow context holds the packet itself.

Dataplane calls that grow with the offered flows: the bundled flood at
three request rates makes ``Switch.lookup`` and ``Switch.install`` calls
in proportion to its flows, within :data:`GROWTH_FACTOR`.

Control-plane calls with upper bounds that hold at every size: a padded
repository matches at most one expression per offered flow, whatever its
size; a chain of n domains makes at most 2n-1 switch path searches and n
matches.  Each controller searches a route once: the bundled flood makes
one path search at every rate, and the workloads at seed 1 have fixed
bounds on path searches and label checks.  Credentials cost no more HMACs
than the packet-ins need: a chain of n domains, whose policies delegate
nothing, tags at most two handles per domain link and no token, and the
transit mesh has fixed bounds at seed 1.  A handle's tag binds its token
without a tag of its own.

The rule path builds a flow's two matches once per packet, not once per
domain it crosses, and files each written rule with one ``Switch.install``
call: the workloads at seed 1 have fixed bounds on ``FlowMatch``
constructions, and their install calls equal the rules the report counts.
A packet prints its two addresses once, and every record, summary and
flow id reads that text: the workloads at seed 1 have fixed bounds on
``format_ipv4`` calls.  The batch check counts a switch's rules before it
counts new matches, and counts those by mask and key, so a run hashes no
``FlowMatch``; and every ``FlowRule`` a run builds is a rule
``synthesize_rules`` returns.

The policy reader converts each field text once per document: reading the
``acl_proactive`` repository at seed 1 parses each distinct (column,
address text) once, each distinct services text once and builds each
distinct endpoint selector once, bounds taken from the document itself.  A
second read of the same document makes the same calls, so no cache outlives
one read.

The counts are deterministic, so a lost optimisation fails here at once,
whatever the machine's speed.
"""

import dataclasses
import json
import sys
from collections import Counter
from ipaddress import IPv4Address, IPv4Network

import pytest
from test_golden import CASES, build_case
from test_workloads import WORKLOADS

from sdnsec import controller, formats
from sdnsec.dataplane import FlowMatch, FlowRule, Switch
from sdnsec.interdomain import handle_tag, ptt_tag
from sdnsec.labels import LabelWindow
from sdnsec.metrics import emit
from sdnsec.policy import EndpointSelector, format_ipv4, match_pe, normalize_mac
from sdnsec.scenario import bundled_scenario_path, load_scenario, parse_scenario
from sdnsec.simulation import Simulation, build_world
from sdnsec.sweep import chain_scenario, pad_policies
from sdnsec.topology import _least_shortest_path

COUNTED = (
    *((IPv4Address, name) for name in ("__init__", "__hash__", "__eq__", "__str__", "__format__")),
    *((IPv4Network, name) for name in ("__init__", "__hash__", "__eq__", "__str__", "__contains__")),
)
FORMATS = ("records", "table", "delimited")


class CallCounter:
    """Wraps every :data:`COUNTED` method, each ``(class, name)`` of
    ``methods`` and each of ``functions`` (where it is defined and wherever
    an ``sdnsec`` module imported it by name); calls count only inside
    :meth:`counting`, under ``Class.name`` for a method and the function's
    ``module.name``."""

    def __init__(self, functions=(dataclasses.asdict,), methods=()) -> None:
        self.calls: Counter[str] = Counter()
        self.active = False
        self.functions = functions
        self.methods = methods
        self._undo: list = []

    def _wrap(self, label: str, original):
        def counted(*args, **kwargs):
            if self.active:
                self.calls[label] += 1
            return original(*args, **kwargs)

        return counted

    def __enter__(self) -> "CallCounter":
        for cls, name in (*COUNTED, *self.methods):
            own = cls.__dict__.get(name)
            setattr(cls, name, self._wrap(f"{cls.__name__}.{name}", getattr(cls, name)))
            self._undo.append((cls, name, own))
        sdnsec_modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sdnsec"]
        for original in self.functions:
            name = original.__name__
            wrapper = self._wrap(f"{original.__module__}.{name}", original)
            for module in [sys.modules[original.__module__], *sdnsec_modules]:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, own in reversed(self._undo):
            if own is None:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
        self._undo.clear()

    def counting(self, work) -> Counter:
        """The counted calls ``work()`` makes."""
        self.calls.clear()
        self.active = True
        try:
            work()
        finally:
            self.active = False
        return Counter(self.calls)


def _world(case: str):
    if case.startswith("workload:"):
        document, _ = WORKLOADS[case.removeprefix("workload:")](1)
        parsed = parse_scenario(json.loads(json.dumps(document, sort_keys=True)))
        return build_world(parsed, parsed.costs)
    return build_case(case)


def _run_and_emit(world) -> None:
    report = Simulation(world).run()
    for fmt in FORMATS:
        emit(report, fmt)


def test_the_counters_see_each_counted_call():
    before = [cls.__dict__.get(name) for cls, name in COUNTED]
    with CallCounter() as counter:
        calls = counter.counting(
            lambda: (
                hash(IPv4Address("10.0.0.1")),
                f"{IPv4Address(1)}",
                IPv4Address(1) in IPv4Network("0.0.0.0/8"),
                dataclasses.asdict(dataclasses.make_dataclass("D", ["x"])(1)),
            )
        )
    assert {"IPv4Address.__hash__", "IPv4Address.__format__", "IPv4Network.__contains__", "dataclasses.asdict"} <= set(
        calls
    )
    # every wrapper is gone again
    assert [cls.__dict__.get(name) for cls, name in COUNTED] == before
    assert dataclasses.asdict.__module__ == "dataclasses"


@pytest.mark.parametrize("case", [*CASES, *(f"workload:{name}" for name in sorted(WORKLOADS))])
def test_run_and_emit_build_no_address_object_and_call_no_asdict(case):
    world = _world(case)
    with CallCounter((dataclasses.asdict, normalize_mac)) as counter:
        calls = counter.counting(lambda: _run_and_emit(world))
    assert calls == Counter()


FLOOD_RATES = (250, 1_000, 4_000)
# Calls per offered flow at any two rates differ by at most this factor.
# Where the tables have room each flow makes 3 lookups and 4 installs; at
# 4,000 rps the tables fill and about half the flows stop at the
# controller, which lowers both.  A count that grew with the table or with
# the load would multiply by about 4 from one rate to the next.
GROWTH_FACTOR = 2.5


def test_dataplane_calls_grow_no_faster_than_the_offered_flows(monkeypatch):
    calls: Counter[str] = Counter()
    for name in ("lookup", "install"):

        def counted(*args, _original=getattr(Switch, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Switch, name, counted)
    flood = load_scenario(bundled_scenario_path("flood_single_domain"))
    per_flow = {}
    for rate in FLOOD_RATES:
        world = build_world(flood.with_flood_rate(rate))
        calls.clear()
        report = Simulation(world).run()
        per_flow[rate] = {name: count / report.counters["offered"] for name, count in calls.items()}
    for name in ("lookup", "install"):
        ratios = [per_flow[rate].get(name, 0) for rate in FLOOD_RATES]
        assert 0 < max(ratios) <= GROWTH_FACTOR * min(ratios), (name, per_flow)


def _run_counts(world, *functions, methods=()) -> tuple[Counter, dict[str, int]]:
    """The calls to ``functions`` and ``methods`` that
    ``Simulation(world).run()`` makes, and the run's report counters."""
    reports = []
    with CallCounter(functions, methods) as counter:
        calls = counter.counting(lambda: reports.append(Simulation(world).run()))
    return calls, reports[0].counters


@pytest.mark.parametrize("total", [500, 2_000, 8_000])
def test_padded_selection_matches_at_most_one_expression_per_flow(total):
    saturation = load_scenario(bundled_scenario_path("pe_saturation"))
    calls, counters = _run_counts(build_world(pad_policies(saturation, total)), match_pe)
    assert 0 < calls["sdnsec.policy.match_pe"] <= counters["offered"], calls


@pytest.mark.parametrize("mode", ["reactive", "proactive"])
@pytest.mark.parametrize("domains", [4, 16, 64])
def test_chain_path_searches_and_matches_grow_linearly(domains, mode):
    calls, _ = _run_counts(build_world(chain_scenario(domains, mode)), match_pe, _least_shortest_path)
    assert 0 < calls["sdnsec.topology._least_shortest_path"] <= 2 * domains - 1, calls
    assert 0 < calls["sdnsec.policy.match_pe"] <= domains, calls


@pytest.mark.parametrize("mode", ["reactive", "proactive"])
@pytest.mark.parametrize("domains", [4, 16, 64])
def test_chain_credentials_tag_two_handles_per_domain_link(domains, mode):
    calls, _ = _run_counts(build_world(chain_scenario(domains, mode)), handle_tag, ptt_tag)
    assert 0 < calls["sdnsec.interdomain.handle_tag"] <= 2 * (domains - 1), calls
    assert calls["sdnsec.interdomain.ptt_tag"] == 0, calls


def test_mesh_transit_credential_tags_are_bounded():
    calls, counters = _run_counts(_world("workload:mesh_transit"), handle_tag, ptt_tag)
    assert counters["packet_ins"] == 656
    assert 0 < calls["sdnsec.interdomain.handle_tag"] <= 868, calls
    assert 0 < calls["sdnsec.interdomain.ptt_tag"] <= 364, calls


# seed 1: (path searches, label checks).  Each controller searches a route
# once per (ends, required path, window), so flood_table, whose flows share
# one source switch, destination and window, searches once; and a search
# stops at the source's level, so it asks no label beyond it.
SEARCH_BOUNDS = {"flood_table": (1, 3), "acl_proactive": (103, 636), "mesh_transit": (458, 1_536)}


@pytest.mark.parametrize("workload", sorted(SEARCH_BOUNDS))
def test_each_controller_searches_a_route_once(workload):
    calls, _ = _run_counts(_world(f"workload:{workload}"), _least_shortest_path, methods=((LabelWindow, "satisfies"),))
    searches, checks = SEARCH_BOUNDS[workload]
    assert 0 < calls["sdnsec.topology._least_shortest_path"] <= searches, calls
    assert 0 < calls["LabelWindow.satisfies"] <= checks, calls


def test_flood_path_searches_do_not_grow_with_the_rate():
    flood = load_scenario(bundled_scenario_path("flood_single_domain"))
    searches = [
        _run_counts(build_world(flood.with_flood_rate(rate)), _least_shortest_path)[0][
            "sdnsec.topology._least_shortest_path"
        ]
        for rate in FLOOD_RATES
    ]
    assert searches == [1] * len(FLOOD_RATES), dict(zip(FLOOD_RATES, searches))


# seed 1; a flow's two matches are built once per packet, so mesh_transit,
# whose flows cross several domains, builds far fewer than two per packet-in
FLOW_MATCH_BOUNDS = {"flood_table": 1_742, "acl_proactive": 720, "mesh_transit": 444}


@pytest.mark.parametrize("workload", sorted(FLOW_MATCH_BOUNDS))
def test_rule_path_builds_each_flows_matches_once_and_files_each_rule_once(workload):
    methods = ((FlowMatch, "__post_init__"), (Switch, "install"))
    calls, counters = _run_counts(_world(f"workload:{workload}"), methods=methods)
    assert 0 < calls["FlowMatch.__post_init__"] <= FLOW_MATCH_BOUNDS[workload], calls
    # build_world wrote the ARP rules before the run
    assert calls["Switch.install"] == counters["rules_installed"] + counters["proactive_installs"] > 0, (calls, counters)


# seed 1: two addresses printed per packet built; acl_proactive builds a
# packet for each pre-installed flow and again when the flow is offered
FORMAT_IPV4_BOUNDS = {"flood_table": 1_840, "acl_proactive": 3_600, "mesh_transit": 492}


@pytest.mark.parametrize("workload", sorted(FORMAT_IPV4_BOUNDS))
def test_rule_path_prints_each_address_once_and_hashes_no_match(workload, monkeypatch):
    synthesized = []

    def counted(*args, _original=controller.synthesize_rules, **kwargs):
        synthesized.append(_original(*args, **kwargs))
        return synthesized[-1]

    monkeypatch.setattr(controller, "synthesize_rules", counted)
    methods = ((FlowMatch, "__hash__"), (FlowRule, "__init__"))
    calls, _ = _run_counts(_world(f"workload:{workload}"), format_ipv4, methods=methods)
    assert 0 < calls["sdnsec.policy.format_ipv4"] <= FORMAT_IPV4_BOUNDS[workload], calls
    assert calls["FlowMatch.__hash__"] == 0, calls
    assert calls["FlowRule.__init__"] == sum(len(batch) for batch in synthesized) > 0, calls


def _code_calls(work, *functions) -> Counter:
    """The calls of each of ``functions`` that ``work()`` makes, under its
    ``__qualname__``; seen by code object, so a call through a table that
    holds the function counts too."""
    names = {function.__code__: function.__qualname__ for function in functions}
    calls: Counter[str] = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def _compact_fields(text: str) -> tuple[str, ...]:
    """The thirteen condition fields of a compact policy with no nested
    list, each stripped of its outer brackets."""
    conditions = text.partition("<")[2].rpartition(">:<")[0]
    fields = tuple(field.strip().strip("(){}").strip() for field in conditions.split(","))
    assert len(fields) == 13, text
    return fields


def test_the_policy_reader_converts_each_field_text_once_per_document():
    document, _ = WORKLOADS["acl_proactive"](1)
    text = json.dumps(document, sort_keys=True)
    counted = (formats.parse_ipv4, formats._parse_services, EndpointSelector.__init__)
    reads = [_code_calls(lambda: parse_scenario(json.loads(text)), *counted) for _ in range(2)]
    # the bounds, from the document: the addresses parsed outside the
    # policies (host and subnet fields), then each distinct text once
    bare = json.loads(text)
    for domain in bare["domains"]:
        domain["policies"] = []
    outside = _code_calls(lambda: parse_scenario(bare), formats.parse_ipv4)["parse_ipv4"]
    policies = [_compact_fields(policy) for domain in document["domains"] for policy in domain.get("policies", [])]
    addresses = {(column, fields[column]) for fields in policies for column in (3, 4) if fields[column] != "*"}
    services = {fields[10] for fields in policies if fields[10] != "*"}
    # a selector is its domain, host address and MAC fields, on either side
    selectors = {
        selector
        for fields in policies
        for selector in (fields[1:6:2], fields[2:7:2])
        if selector != ("*", "*", "*")
    }
    assert len(policies) == 1_700 and (len(addresses), len(services), len(selectors)) == (1_560, 6, 1_500)
    first = reads[0]
    assert 0 < first["parse_ipv4"] <= outside + len(addresses), first
    assert 0 < first["_parse_services"] <= len(services), first
    assert 0 < first["EndpointSelector.__init__"] <= len(selectors), first
    assert reads[1] == first
