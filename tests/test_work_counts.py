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
On the same runs ``emit(report, "records")`` calls ``json.dumps`` once, for
its header line: each record's line is written by its class's line writer.

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
without a tag of its own.  Each domain's key is prepared when the world is
built, so a run at seed 1 calls ``hmac.new`` on no workload: every tag
copies its key's prepared states.

The rule path builds a flow's two matches once per packet, not once per
domain it crosses, and files each written rule with one ``Switch.install``
call: the workloads at seed 1 have fixed bounds on ``FlowMatch.exact``
calls, build no match through the general constructor (no
``FlowMatch.__post_init__`` call), and their install calls equal the rules
the report counts.
A packet prints its two addresses once, and every record, summary and
flow id reads that text, and each flow's packet is built once, a
pre-installed flow's too: the workloads at seed 1 have fixed bounds on
``format_ipv4`` calls, two per offered flow.  The batch check passes a
switch with room for the whole batch unexamined, and counts a tight
switch's new matches by mask and key, so a run hashes no ``FlowMatch``; and
every ``FlowRule`` a run builds is a rule ``synthesize_rules`` returns.

The policy reader converts each field text once per document, not once
per domain: reading the ``acl_proactive`` repository at seed 1 and the
four domains of the bundled ``four_domain_transit`` parses each distinct
(position, address or domain descriptor text) once, each distinct services
text once and builds each distinct endpoint selector once, bounds taken
from the document itself.  A second read of the same document makes the
same calls, so no cache outlives one read.

Facts that do not change during a run are worked out once, not per
packet-in or event.  At seed 1: selection ranks an expression with
``specificity`` at most once (fixed bounds per workload); ``mesh_transit``
names no gateway during the run, as each controller keeps its gateway
table from when it was built; ``acl_proactive``'s flood monitor floors and
prints no ``Fraction``, as it keeps its budgets from when it was built; and
the event loop pushes at most a fixed number of events on its heap: the
offers are heapified once, and a handler's next step waits on the heap
only when something queued comes at or before it.  A route memo is read
once per packet-in, with a key that holds a label window's two bounds, not
the window, so no workload hashes a ``LabelWindow`` during the run.  A
packet crosses installed rules in one handler call while its next hop
would be the next event run: the workloads at seed 1 have fixed bounds on
insertion numbers handed out (one per offer and per step pushed) and on
``Simulation._on_switch_rx`` calls, and make as many ``Switch.lookup``
calls as the reference loop, which pushes every hop.

A flow table files each rule as itself, its install number kept beside it
by its mask table: after one warm-up run, which fills the module-level
caches, the GC-tracked objects a seed-1 run leaves alive repeat exactly from
run to run, and each workload has a fixed bound on them that a wrapper
object per filed rule would exceed.

The counts are deterministic, so a lost optimisation fails here at once,
whatever the machine's speed.
"""

import dataclasses
import gc
import heapq
import hmac
import json
import sys
from collections import Counter
from fractions import Fraction
from ipaddress import IPv4Address, IPv4Network

import pytest
from helpers import HeapSimulation
from test_golden import CASES
from test_workloads import WORKLOADS, case_world

from sdnsec import controller, formats
from sdnsec.dataplane import FlowMatch, FlowRule, Switch
from sdnsec.defense import FloodMonitor
from sdnsec.interdomain import handle_tag, ptt_tag
from sdnsec.labels import LabelWindow
from sdnsec.metrics import emit
from sdnsec.policy import EndpointSelector, format_ipv4, match_pe, normalize_mac, specificity
from sdnsec.scenario import bundled_scenario_path, load_scenario, parse_scenario
from sdnsec.simulation import Simulation, build_world
from sdnsec.sweep import chain_scenario, pad_policies
from sdnsec.topology import _least_shortest_path, gateway_name

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
    world = case_world(case)
    with CallCounter((dataclasses.asdict, normalize_mac)) as counter:
        calls = counter.counting(lambda: _run_and_emit(world))
    assert calls == Counter()


@pytest.mark.parametrize("case", [*CASES, *(f"workload:{name}" for name in sorted(WORKLOADS))])
def test_records_emission_calls_json_dumps_for_its_header_only(case):
    report = Simulation(case_world(case)).run()
    with CallCounter((json.dumps,)) as counter:
        calls = counter.counting(lambda: emit(report, "records"))
    assert calls == Counter({"json.dumps": 1})


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
    calls, counters = _run_counts(case_world("workload:mesh_transit"), handle_tag, ptt_tag)
    assert counters["packet_ins"] == 656
    assert 0 < calls["sdnsec.interdomain.handle_tag"] <= 868, calls
    assert 0 < calls["sdnsec.interdomain.ptt_tag"] <= 364, calls


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_run_prepares_no_key_and_hashes_no_label_window(workload):
    calls, counters = _run_counts(case_world(f"workload:{workload}"), hmac.new, methods=((LabelWindow, "__hash__"),))
    assert counters["packet_ins"] > 0
    assert calls["hmac.new"] == 0, calls
    assert calls["LabelWindow.__hash__"] == 0, calls


# seed 1: (path searches, label checks).  Each controller searches a route
# once per (ends, required path, window), so flood_table, whose flows share
# one source switch, destination and window, searches once; and a search
# stops at the source's level, so it asks no label beyond it.
SEARCH_BOUNDS = {"flood_table": (1, 3), "acl_proactive": (103, 636), "mesh_transit": (458, 1_536)}


@pytest.mark.parametrize("workload", sorted(SEARCH_BOUNDS))
def test_each_controller_searches_a_route_once(workload):
    calls, _ = _run_counts(case_world(f"workload:{workload}"), _least_shortest_path, methods=((LabelWindow, "satisfies"),))
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
    methods = ((FlowMatch, "exact"), (FlowMatch, "__post_init__"), (Switch, "install"))
    calls, counters = _run_counts(case_world(f"workload:{workload}"), methods=methods)
    assert 0 < calls["FlowMatch.exact"] <= FLOW_MATCH_BOUNDS[workload], calls
    # a flow's matches skip the general constructor, left to the one ARP
    # match and to block rules; no workload run blocks a host
    assert calls["FlowMatch.__post_init__"] == 0, calls
    # build_world wrote the ARP rules before the run
    assert calls["Switch.install"] == counters["rules_installed"] + counters["proactive_installs"] > 0, (calls, counters)


# seed 1: two addresses printed per packet built, and one packet built per
# offered flow, pre-installed or not
FORMAT_IPV4_BOUNDS = {"flood_table": 1_840, "acl_proactive": 2_800, "mesh_transit": 492}


@pytest.mark.parametrize("workload", sorted(FORMAT_IPV4_BOUNDS))
def test_rule_path_prints_each_address_once_and_hashes_no_match(workload, monkeypatch):
    synthesized = []

    def counted(*args, _original=controller.synthesize_rules, **kwargs):
        synthesized.append(_original(*args, **kwargs))
        return synthesized[-1]

    monkeypatch.setattr(controller, "synthesize_rules", counted)
    methods = ((FlowMatch, "__hash__"), (FlowRule, "__init__"))
    calls, _ = _run_counts(case_world(f"workload:{workload}"), format_ipv4, methods=methods)
    assert 0 < calls["sdnsec.policy.format_ipv4"] <= FORMAT_IPV4_BOUNDS[workload], calls
    assert calls["FlowMatch.__hash__"] == 0, calls
    assert calls["FlowRule.__init__"] == sum(len(batch) for batch in synthesized) > 0, calls


# seed 1: an expression is ranked the first time it is among the matches of
# a selection with no deny, and its rank is kept
SPECIFICITY_BOUNDS = {"flood_table": 3, "acl_proactive": 189, "mesh_transit": 22}


@pytest.mark.parametrize("workload", sorted(SPECIFICITY_BOUNDS))
def test_selection_ranks_each_expression_once(workload):
    calls, _ = _run_counts(case_world(f"workload:{workload}"), specificity)
    assert 0 < calls["sdnsec.policy.specificity"] <= SPECIFICITY_BOUNDS[workload], calls


def test_mesh_transit_names_no_gateway_during_the_run():
    calls, counters = _run_counts(case_world("workload:mesh_transit"), gateway_name)
    assert counters["packet_ins"] == 656
    assert calls["sdnsec.topology.gateway_name"] == 0, calls


def test_the_flood_monitor_floors_and_prints_no_fraction_during_the_run():
    world = case_world("workload:acl_proactive")
    methods = ((Fraction, "__floor__"), (Fraction, "__str__"), (FloodMonitor, "record_and_check"))
    calls, _ = _run_counts(world, methods=methods)
    details = [event.summary for ctrl in world.controllers.values() for event in ctrl.events]
    # the monitor answered and its budgets were printed, from text kept
    assert calls["FloodMonitor.record_and_check"] > 0, calls
    assert any(" thost=" in detail for detail in details)
    assert calls["Fraction.__floor__"] == calls["Fraction.__str__"] == 0, calls


# seed 1: the offers are heapified, not pushed, and a handler's next step is
# pushed only when something queued comes at or before it; most steps come
# before every other flow's and run at once
HEAP_PUSH_BOUNDS = {"flood_table": 877, "acl_proactive": 173, "mesh_transit": 2}


@pytest.mark.parametrize("workload", sorted(HEAP_PUSH_BOUNDS))
def test_the_event_loop_keeps_the_next_event_off_the_heap(workload, monkeypatch):
    world = case_world(f"workload:{workload}")
    pushes = []

    def counted(heap, item, _original=heapq.heappush):
        pushes.append(item)
        _original(heap, item)

    monkeypatch.setattr(heapq, "heappush", counted)
    Simulation(world).run()
    assert 0 < len(pushes) <= HEAP_PUSH_BOUNDS[workload]


# seed 1: (insertion numbers handed out, Simulation._on_switch_rx calls); an
# offer and a pushed step take one insertion number each, and a step that
# runs at once takes none; a packet crosses installed rules in one handler
# call while its next hop would be the next event run
HOP_EVENT_BOUNDS = {"flood_table": (1_797, 1_794), "acl_proactive": (1_573, 1_402), "mesh_transit": (248, 902)}


@pytest.mark.parametrize("workload", sorted(HOP_EVENT_BOUNDS))
def test_a_packet_crosses_installed_rules_in_one_handler_call(workload):
    numbered, handler_calls = HOP_EVENT_BOUNDS[workload]
    runs = {}
    for loop in (Simulation, HeapSimulation):
        sim = loop(case_world(f"workload:{workload}"))
        with CallCounter((), ((Simulation, "_on_switch_rx"), (Switch, "lookup"))) as counter:
            runs[loop] = sim, counter.counting(sim.run)
    (sim, calls), (reference, expected) = runs[Simulation], runs[HeapSimulation]
    assert 0 < sim._seq <= numbered, sim._seq
    assert 0 < calls["Simulation._on_switch_rx"] <= handler_calls, calls
    # every hop is still one lookup: the reference makes one per handler call
    lookups = calls["Switch.lookup"]
    assert lookups == expected["Switch.lookup"] == expected["Simulation._on_switch_rx"], (calls, expected)
    assert sim._seq < reference._seq


# seed 1: the GC-tracked objects a run keeps, a little above the 10,137 /
# 5,553 / 7,494 of a flow table that files each rule as itself; a wrapper
# object per rule the run leaves filed (4,944 / 1,074 / 3,936 rules) would
# pass every bound
KEPT_OBJECT_BOUNDS = {"flood_table": 10_200, "acl_proactive": 5_600, "mesh_transit": 7_550}


def _kept_objects(world) -> tuple[int, dict[str, int]]:
    """The GC-tracked objects ``Simulation(world).run()`` leaves alive,
    its report among them, and the run's report counters."""
    gc.collect()
    before = len(gc.get_objects())
    report = Simulation(world).run()
    gc.collect()
    return len(gc.get_objects()) - before, report.counters


@pytest.mark.parametrize("workload", sorted(KEPT_OBJECT_BOUNDS))
def test_a_run_keeps_no_wrapper_per_installed_rule(workload):
    # the first run fills the module-level caches; from the second run on
    # the count repeats exactly
    _kept_objects(case_world(f"workload:{workload}"))
    kept, counters = _kept_objects(case_world(f"workload:{workload}"))
    assert kept == _kept_objects(case_world(f"workload:{workload}"))[0]
    assert counters["offered"] < kept <= KEPT_OBJECT_BOUNDS[workload], (kept, counters)


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
    """The thirteen condition fields of a compact policy as written, split
    at the commas outside brackets, surrounding spaces kept."""
    conditions = text.partition("<")[2].rpartition(">:<")[0]
    fields = [""]
    depth = 0
    for char in conditions:
        if char == "," and not depth:
            fields.append("")
            continue
        depth += (char in "({[") - (char in ")}]")
        fields[-1] += char
    assert len(fields) == 13, text
    return tuple(fields)


def _assert_each_field_text_converts_once(document: dict, sizes: tuple[int, ...]) -> None:
    text = json.dumps(document, sort_keys=True)
    counted = (formats.parse_ipv4, formats._parse_services, EndpointSelector.__init__)
    reads = [_code_calls(lambda: parse_scenario(json.loads(text)), *counted) for _ in range(2)]
    # the bounds, from the document: the addresses parsed outside the
    # policies (host and subnet fields), then each distinct text once, in
    # whichever domain it first appears
    bare = json.loads(text)
    for domain in bare["domains"]:
        domain["policies"] = []
    outside = _code_calls(lambda: parse_scenario(bare), formats.parse_ipv4)["parse_ipv4"]
    policies = [_compact_fields(policy) for domain in document["domains"] for policy in domain.get("policies", [])]

    def given(fields, position):
        return fields[position].strip() != "*"

    addresses = {(position, fields[position]) for fields in policies for position in (3, 4) if given(fields, position)}
    # a domain descriptor parses its subnet's address
    subnets = {(position, fields[position]) for fields in policies for position in (1, 2) if "/" in fields[position]}
    services = {fields[10] for fields in policies if given(fields, 10)}
    # a selector is its domain, host address and MAC fields, on either side
    selectors = {
        fields[positions]
        for fields in policies
        for positions in (slice(1, 6, 2), slice(2, 7, 2))
        if any(field.strip() != "*" for field in fields[positions])
    }
    assert (len(policies), len(addresses), len(subnets), len(services), len(selectors)) == sizes
    first = reads[0]
    assert 0 < first["parse_ipv4"] <= outside + len(addresses) + len(subnets), first
    assert 0 < first["_parse_services"] <= len(services), first
    assert 0 < first["EndpointSelector.__init__"] <= len(selectors), first
    assert reads[1] == first


def test_the_policy_reader_converts_each_field_text_once_per_document():
    # sizes: the policies, then the distinct address, subnet, services and
    # selector texts
    _assert_each_field_text_converts_once(WORKLOADS["acl_proactive"](1)[0], (1_700, 1_560, 0, 6, 1_500))
    # four domains whose policies repeat descriptor, services and selector texts
    four_domains = json.loads(bundled_scenario_path("four_domain_transit").read_text())
    _assert_each_field_text_converts_once(four_domains, (4, 2, 3, 1, 5))
