import csv
import hashlib
import inspect
import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from sdnsec.controller import Controller, DropReason
from sdnsec.dataplane import ARP_RULE_PRIORITY, FLOW_RULE_PRIORITY, ActionKind, Packet, flow_dump, format_flow_dump
from sdnsec.defense import ResponseMode
from sdnsec.interdomain import extend_handle
from sdnsec.metrics import emit, emit_series
from sdnsec.scenario import (
    ScenarioError,
    bundled_scenario_path,
    list_bundled_scenarios,
    load_scenario,
    parse_scenario,
)
from sdnsec.simulation import Simulation, build_world, run
from sdnsec.sweep import chain_scenario

from helpers import HeapSimulation, delivered, installs_per_window, ip, queue_event, records_digest
from test_workloads import workload_world

ALLOW_ALL = "p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>"


def load(name):
    return load_scenario(bundled_scenario_path(name))


def test_minimal_intra_delivery():
    report = run(load("minimal"))
    assert report.counters["offered"] == 1
    assert report.counters["delivered"] == 1
    assert report.flows[0].switch_path == ("S1",)
    assert report.flows[0].as_path == ("AS1",)


@pytest.mark.parametrize("mode, packet_ins, delivered_tick", [("reactive", 1, 15), ("proactive", 0, 2)])
def test_arp_flow_meets_the_discovery_rule(mode, packet_ins, delivered_tick):
    # every switch starts with the ARP rule, which sends ARP packets to the
    # controller; the flow rule the controller installs then outranks it
    doc = json.loads(bundled_scenario_path("minimal").read_text())
    doc["mode"] = mode
    doc["traffic"][0]["type"] = "ARP"
    report = run(parse_scenario(doc))
    [flow] = report.flows
    assert flow.outcome == "delivered"
    assert flow.delivered_tick == delivered_tick
    assert report.counters["packet_ins"] == packet_ins


def test_empty_traffic_program():
    scenario = replace(load("minimal"), traffic=())
    report = run(scenario)
    assert report.counters["offered"] == 0
    assert report.flows == []


def test_service_paths_pin_routes():
    report = run(load("intra_service_paths"))
    http = report.flow("client_http", "172.56.16.6")
    ftp = report.flow("client_ftp", "172.56.16.8")
    assert http.outcome == "delivered"
    assert http.switch_path == ("SW1", "SW5", "SW4")
    assert ftp.outcome == "delivered"
    assert ftp.switch_path == ("SW1", "SW3", "SW4")


def test_service_path_flow_dump_matches_golden(pytestconfig):
    world = build_world(load("intra_service_paths"))
    Simulation(world).run()
    golden = (pytestconfig.rootpath / "tests" / "golden" / "service_paths_sw5_dump.txt").read_text()
    assert format_flow_dump(world.switches["SW5"]) == golden


def test_transit_chain_handle_records_journey():
    world = build_world(load("four_domain_transit"))
    report = Simulation(world).run()
    flow = report.flows[0]
    assert flow.outcome == "delivered"
    assert flow.as_path == ("AS1", "AS2", "AS3", "AS4")
    assert flow.switch_path[0] == "S1A"
    assert flow.switch_path[-1] == "S4A"
    # the handle's visited list is exactly the domain sequence the packet
    # actually crossed, and every one of those domains issued an allow
    crossed = []
    for switch in flow.switch_path:
        domain = world.switch_domain[switch]
        if not crossed or crossed[-1] != domain:
            crossed.append(domain)
    assert tuple(crossed) == flow.as_path
    for domain in flow.as_path:
        events = [e for e in world.controllers[domain].events if e.flow_id == flow.flow_id]
        assert events and events[-1].verdict == "install", domain


def test_removing_any_transit_policy_drops_at_that_domain():
    scenario = load("four_domain_transit")
    for as_id, pe_id in [("AS1", "1"), ("AS2", "4"), ("AS3", "2"), ("AS4", "2")]:
        report = run(scenario.without_policy(as_id, pe_id))
        flow = report.flows[0]
        assert flow.outcome == "dropped", as_id
        assert flow.reason == "POLICY"
        assert flow.drop_domain == as_id


def test_byod_flow_needs_destination_permit():
    scenario = load("roaming_byod")
    with_pe = run(scenario)
    assert with_pe.flows[0].outcome == "delivered"
    without = run(scenario.without_policy("AS2", "8"))
    flow = without.flows[0]
    assert flow.outcome == "dropped"
    assert flow.drop_domain == "AS2"
    # nothing was installed in the destination domain
    assert all(record.domain != "AS2" for record in without.installs)


def test_unknown_traffic_isolated_on_low_label_switches():
    report = run(load("unknown_transit"))
    world = build_world(load("unknown_transit"))
    guest = report.flow("guest", "192.168.52.80")
    trusted = report.flow("trusted", "192.168.52.90")
    assert guest.outcome == trusted.outcome == "delivered"
    guest_labels = {world.controllers[world.switch_domain[s]].intra.node(s).rank for s in guest.switch_path}
    assert guest_labels == {1}
    assert set(guest.switch_path).isdisjoint(trusted.switch_path)


def test_conservation_across_scenarios():
    for name in (
        "minimal",
        "intra_service_paths",
        "four_domain_transit",
        "roaming_byod",
        "unknown_transit",
        "worm_scan",
        "service_misuse",
        "source_location_block",
        "chained_rate_limit",
    ):
        report = run(load(name))
        c = report.counters
        assert (
            c["delivered"]
            + c["dropped_policy"]
            + c["dropped_defense"]
            + c["dropped_nopath"]
            + c["dropped_other"]
            == c["offered"]
        ), name
        assert report.conservation_holds(), name


def test_determinism_byte_identical():
    for name in ("four_domain_transit", "flood_single_domain"):
        assert records_digest(run(load(name))) == records_digest(run(load(name))), name


@pytest.mark.parametrize("name", list_bundled_scenarios())
def test_built_world_charges_the_scenarios_costs(name):
    # pe_saturation sets its own costs; a world built without them emits
    # every install at other ticks.  Digests keep a failure's report short.
    def digest(report):
        return hashlib.sha256((emit(report, "records") + repr(report.latencies)).encode()).hexdigest()

    scenario = load(name)
    assert digest(Simulation(build_world(scenario)).run()) == digest(run(scenario))


# every bundled scenario, and the flood under the block-rule response, as no
# bundled scenario writes a block rule
PACKET_IN_CASES = [*list_bundled_scenarios(), "flood_single_domain/drop_rule"]


@pytest.mark.parametrize("enforcement", [True, False], ids=["enforced", "baseline"])
@pytest.mark.parametrize("mode", ["reactive", "proactive"])
@pytest.mark.parametrize("case", PACKET_IN_CASES)
def test_a_packet_in_answers_one_record_and_the_loop_keeps_each_clock(case, mode, enforcement, monkeypatch):
    answers = []
    handle_packet_in = Controller.handle_packet_in

    def recorded(ctrl, packet, *args, **kwargs):
        before = len(ctrl.events)
        result = handle_packet_in(ctrl, packet, *args, **kwargs)
        [event] = ctrl.events[before:]
        answers.append((ctrl.as_id, packet, result, event))
        return result

    monkeypatch.setattr(Controller, "handle_packet_in", recorded)
    name, _, response = case.partition("/")
    scenario = replace(load(name), mode=mode, enforcement=enforcement)
    if response:
        scenario = replace(scenario, defense_response=ResponseMode(response))
    report = run(scenario)

    blocked = set()
    for domain, packet, result, event in answers:
        first_block = result.reason == DropReason.DEFENSE_BLOCKED and (domain, packet.src_ip) not in blocked
        if first_block:
            blocked.add((domain, packet.src_ip))
        admitted = result.reason == ""
        assert (result.installs != ()) == (admitted or first_block), (case, event)
        if admitted:
            assert (result.provenance, len(result.installs)) == (event.matched_pe, event.rules_installed), case
        elif first_block:
            assert result.provenance == f"defense:{packet.src_text}", case
    # a controller serves one packet-in at a time, in arrival order
    free_at = {}
    for record in report.latencies:
        assert record.start_tick == max(record.arrival_tick, free_at.get(record.domain, 0)), (case, record)
        free_at[record.domain] = record.emission_tick


def test_proactive_mode_equivalence():
    # the chains make pre-install follow the egress rule across every hop
    scenarios = [load("intra_service_paths"), load("four_domain_transit")]
    scenarios += [chain_scenario(n) for n in (1, 6, 12)]
    for scenario in scenarios:
        name = scenario.name
        reactive = run(scenario)
        proactive = run(replace(scenario, mode="proactive"))
        assert proactive.counters["packet_ins"] == 0, name
        assert all(f.outcome == "delivered" for f in proactive.flows), name
        assert [(f.src, f.outcome, f.switch_path) for f in reactive.flows] == [
            (f.src, f.outcome, f.switch_path) for f in proactive.flows
        ], name


PREINSTALL_CASES = [
    *(f"{name}/{on}" for name in list_bundled_scenarios() for on in ("enforced", "baseline")),
    *(f"acl_proactive@{seed}" for seed in (1, 2, 3)),
]


@pytest.mark.parametrize("case", PREINSTALL_CASES)
def test_preinstall_starts_each_flow_where_and_when_it_is_offered(case, monkeypatch):
    offered, calls = [], []
    expand_traffic, preinstall = Simulation._expand_traffic, Simulation._preinstall
    handle_packet_in = Controller.handle_packet_in
    signature = inspect.signature(handle_packet_in)

    def offers(sim):
        singles = expand_traffic(sim)
        # every offer waits on the heap as its flow's first event
        queued = [args[0] for _, _, _, args in sorted(sim._heap, key=lambda event: event[1])]
        offered.extend(inflight for inflight in queued if not inflight.record.from_flood)
        return singles

    def recorded(ctrl, *args, **kwargs):
        calls.append(signature.bind(ctrl, *args, **kwargs).arguments)
        return handle_packet_in(ctrl, *args, **kwargs)

    def preinstalling(sim, *args):
        with monkeypatch.context() as patch:
            patch.setattr(Controller, "handle_packet_in", recorded)
            preinstall(sim, *args)

    monkeypatch.setattr(Simulation, "_expand_traffic", offers)
    monkeypatch.setattr(Simulation, "_preinstall", preinstalling)
    name, _, variant = case.partition("/")
    if variant:
        world = build_world(replace(load(name), mode="proactive", enforcement=variant == "enforced"))
    else:
        workload, _, seed = name.partition("@")
        world = workload_world(workload, int(seed))
        assert world.scenario.mode == "proactive"
    Simulation(world).run()

    # each single flow's calls run together, the flows in (tick, document)
    # order; its first call takes the offered packet where and when it is offered
    firsts = []
    for call in calls:
        if not firsts or call["packet"] is not firsts[-1]["packet"]:
            assert all(call["packet"] is not first["packet"] for first in firsts), case
            firsts.append(call)
    expected = sorted(offered, key=lambda inflight: inflight.record.request_tick)
    assert len(firsts) == len(expected), case
    for first, inflight in zip(firsts, expected):
        src = world.hosts[inflight.record.src]
        assert first["packet"] is inflight.packet, case
        assert (first["ingress"], first["entry_peer"], first["tick"]) == (
            src.switch,
            src.id,
            inflight.record.request_tick,
        ), case


def test_baseline_establishes_superset():
    for name in ("worm_scan", "service_misuse", "unknown_transit"):
        scenario = load(name)
        secured = run(scenario)
        baseline = run(replace(scenario, enforcement=False))
        secure_delivered = {f.flow_id for f in delivered(secured)}
        baseline_delivered = {f.flow_id for f in delivered(baseline)}
        assert secure_delivered <= baseline_delivered, name


def test_worm_scan_blocked_at_source_domain():
    report = run(load("worm_scan"))
    scans = [f for f in report.flows if f.src == "infected"]
    assert all(f.outcome == "dropped" and f.drop_domain == "AS1" for f in scans)
    legit = report.flow("neighbor_a", "10.2.0.8")
    assert legit.outcome == "delivered"


def test_unauthorized_service_denied():
    report = run(load("service_misuse"))
    allowed = [f for f in report.flows if f.flow_id.endswith(":80/tcp")]
    blocked = [f for f in report.flows if f.flow_id.endswith(":22/tcp")]
    assert allowed[0].outcome == "delivered"
    assert blocked[0].outcome == "dropped"


def test_source_location_deny_overrides():
    report = run(load("source_location_block"))
    assert report.flow("freeloader", "10.42.0.80").outcome == "dropped"
    assert report.flow("freeloader", "10.42.0.80").drop_domain == "AS2"
    assert report.flow("partner", "10.42.0.80").outcome == "delivered"


def test_chained_flows_rate_limited_per_source():
    report = run(load("chained_rate_limit"))
    for bot in ("bot1", "bot2"):
        outcomes = [f.outcome for f in report.flows if f.src == bot]
        assert outcomes.count("delivered") == 3
        assert outcomes.count("dropped") == 2


def test_flood_throttle_caps_at_threshold():
    scenario = replace(load("flood_single_domain"), defense_response=ResponseMode.THROTTLE)
    report = run(scenario)
    per_window = installs_per_window(report, scenario.window_ticks, "10.9.0.66")
    assert per_window == {0: 100, 1: 100}


def test_flood_drop_rule_blocks_offender():
    scenario = replace(load("flood_single_domain"), defense_response=ResponseMode.DROP_RULE)
    report = run(scenario)
    per_window = installs_per_window(report, scenario.window_ticks, "10.9.0.66")
    assert per_window == {0: 100}
    block_installs = [r for r in report.installs if r.provenance.startswith("defense:")]
    assert len(block_installs) == 1
    legit = [f for f in report.flows if f.src == "legit"]
    assert all(f.outcome == "delivered" for f in legit)


@pytest.mark.parametrize("mode", ["reactive", "proactive"])
def test_blocked_host_reaching_the_controller_again_gets_no_second_block_rule(mode):
    # a 1,000-tick window and a slow controller: the offender trips the
    # defense long before its block rule lands, so later requests queued at
    # the controller are refused as blocked without a second rule
    doc = json.loads(bundled_scenario_path("flood_single_domain").read_text())
    doc.update(mode=mode, defense={"response": "drop_rule", "window_ticks": 1000})
    doc["capacity"]["controller_rps"] = 40
    report = run(parse_scenario(doc))
    block_installs = [r for r in report.installs if r.provenance.startswith("defense:")]
    assert [r.provenance for r in block_installs] == ["defense:10.9.0.66"]
    reasons = [f.reason for f in report.flows if f.outcome == "dropped"]
    assert reasons.count("DEFENSE_BLOCKED") > 1
    assert reasons.count("BLOCKED_AT_SWITCH") > 0
    legit = [f for f in report.flows if f.src == "legit"]
    assert len(legit) == 5 and all(f.outcome == "delivered" for f in legit)


def test_emissions_stable_and_parseable():
    report = run(load("minimal"))
    delimited = emit(report, "delimited")
    header = delimited.splitlines()[0].split(",")
    assert header[0] == "index"
    assert "outcome" in header
    table = emit(report, "table")
    assert "delivered" in table
    records = emit(report, "records")
    assert records.count("\n") >= 2
    with pytest.raises(ValueError):
        emit(report, "yaml")


# printable ids, commas, double quotes and spaces among them: a cell that
# holds a comma or a quote must be quoted for its row to keep its width
PRINTABLE_IDS = st.text(st.sampled_from(', "a') | st.characters(), min_size=1, max_size=6).filter(str.isprintable)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(PRINTABLE_IDS.filter(lambda text: text not in {"b", "S1"}))
def test_delimited_report_reads_back_as_csv(host_id):
    doc = json.loads(bundled_scenario_path("minimal").read_text())
    doc["domains"][0]["hosts"][0]["id"] = doc["traffic"][0]["from"] = host_id
    flows, counters = emit(run(parse_scenario(doc)), "delimited").split("\n\n")
    header, *rows = csv.reader(io.StringIO(flows))
    assert len(rows) == 1 and all(len(row) == len(header) for row in rows)
    assert rows[0][header.index("src")] == host_id
    header, *rows = csv.reader(io.StringIO(counters))
    assert header == ["counter", "value"] and all(len(row) == 2 for row in rows)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(PRINTABLE_IDS.filter(lambda text: text != "base"))
def test_delimited_series_reads_back_as_csv(label):
    series = {"base": [(1, 2.0), (2, 3.0)], label: [(2, 4.0)]}
    header, *rows = csv.reader(io.StringIO(emit_series(series, "delimited")))
    assert header == ["x", "base", label]
    assert rows == [["1", "2.0", ""], ["2", "3.0", "4.0"]]


def line_doc(policy=ALLOW_ALL, labels=("SL2", "SL2", "SL2"), **fields):
    """One domain, switches S1-S2-S3 in a row, host a on S1 and b on S3."""
    doc = {
        "name": "line",
        "domains": [
            {
                "id": "AS1",
                "subnet": "10.0.0.0/24",
                "type": "EDU",
                "label": "SL2",
                "handle_key": "k",
                "switches": [{"id": f"S{i}", "label": label} for i, label in enumerate(labels, 1)],
                "links": [["S1", "S2"], ["S2", "S3"]],
                "hosts": [
                    {"id": "a", "ip": "10.0.0.1", "mac": "00:00:00:00:00:0a", "switch": "S1"},
                    {"id": "b", "ip": "10.0.0.2", "mac": "00:00:00:00:00:0b", "switch": "S3"},
                ],
                "policies": [policy],
            }
        ],
        "links": [],
        "traffic": [{"at": 0, "from": "a", "to": "b", "port": 80, "type": "SYN"}],
    }
    doc.update(fields)
    return doc


def test_label_upper_bound_constrains_switch_path():
    policy = "p = <*,*,*,*,*,*,*,*,(SL2+=; SL3-=),*,*,*,*>:<Allow>"
    report = run(parse_scenario(line_doc(policy, labels=("SL2", "SL5", "SL2"))))
    flow = report.flows[0]
    assert (flow.outcome, flow.reason) == ("dropped", "NO_SATISFYING_PATH")


def test_same_flow_retry_is_delivered():
    # the retry misses while the first packet-in is still queued
    syn = {"from": "a", "to": "b", "port": 80, "type": "SYN"}
    report = run(parse_scenario(line_doc(traffic=[{"at": 0, **syn}, {"at": 3, **syn}])))
    assert [flow.outcome for flow in report.flows] == ["delivered", "delivered"]
    assert [flow.switch_path for flow in report.flows] == [("S1", "S2", "S3")] * 2


def test_policy_named_baseline_does_not_limit_unenforced_runs():
    # with enforcement off no policy is selected, whatever its id
    policy = "baseline = <*,*,*,*,*,*,*,*,*,rate<=1,*,*,*>:<Allow>"
    syn = {"from": "a", "to": "b", "type": "SYN"}
    traffic = [{"at": 0, "port": 80, **syn}, {"at": 10, "port": 81, **syn}]
    enforced = run(parse_scenario(line_doc(policy, traffic=traffic)))
    assert [(f.outcome, f.reason) for f in enforced.flows][1] == ("dropped", "RATE_LIMIT")
    report = run(parse_scenario(line_doc(policy, traffic=traffic, enforcement=False)))
    assert [flow.outcome for flow in report.flows] == ["delivered", "delivered"]


@pytest.mark.parametrize("mode", ["reactive", "proactive"])
def test_flow_mod_batch_is_all_or_nothing(mode):
    world = build_world(parse_scenario(line_doc(mode=mode, table_capacity=2)))
    report = Simulation(world).run()
    flow = report.flows[0]
    assert (flow.outcome, flow.reason) == ("dropped", "TABLE_FULL")
    assert report.counters["rules_installed"] == report.counters["proactive_installs"] == 0
    assert report.installs == []
    for switch in world.switches.values():
        assert [rule.match.priority for rule in flow_dump(switch)] == [ARP_RULE_PRIORITY]


RATE_ONE = "p1 = <*, *, *, *, *, *, *, *, (rate<=1), *, *, *, *>:<Allow>"


def minimal_doc(traffic, policy=ALLOW_ALL, **fields):
    """The bundled ``minimal`` scenario (hosts a and b on S1) with ``traffic``."""
    doc = json.loads(bundled_scenario_path("minimal").read_text())
    doc["domains"][0]["policies"] = [policy]
    doc.update(traffic=traffic, **fields)
    return doc


def test_preinstalled_flow_counts_against_its_own_rate_window():
    # the 80/tcp flow is admitted in window 1 before the loop runs; the flood
    # request of window 0 must not wipe that count, so window 1's flood
    # request is over the budget
    traffic = [
        {"at": 1_500_000, "from": "a", "to": "b", "port": 80, "type": "HTTP"},
        {"kind": "flood", "from": "a", "to": "b", "rate": 1, "seconds": 3, "port_base": 20000},
    ]
    report = run(parse_scenario(minimal_doc(traffic, RATE_ONE, mode="proactive")))
    assert [(f.flow_id.split(":")[1], f.outcome, f.reason) for f in report.flows] == [
        ("80/tcp", "delivered", ""),
        ("20000/tcp", "delivered", ""),
        ("20001/tcp", "dropped", "RATE_LIMIT"),
        ("20002/tcp", "delivered", ""),
    ]


@pytest.mark.parametrize("mode", ["reactive", "proactive"])
@pytest.mark.parametrize("rate, admitted", [("1/2", 0), ("1", 1), ("3/2", 1), ("2", 2)])
def test_a_window_admits_the_whole_part_of_a_fractional_rate(mode, rate, admitted):
    # three flows from a in one window: admitting a flow must keep the
    # window's count within the budget, so a fraction of a flow admits none
    traffic = [{"at": i * 1000, "from": "a", "to": "b", "port": 80 + i, "type": "HTTP"} for i in range(3)]
    policy = f"p1 = <*, *, *, *, *, *, *, *, (rate<={rate}), *, *, *, *>:<Allow>"
    report = run(parse_scenario(minimal_doc(traffic, policy, mode=mode)))
    expected = [("delivered", "")] * admitted + [("dropped", "RATE_LIMIT")] * (3 - admitted)
    assert [(f.outcome, f.reason) for f in report.flows] == expected


RATE_ONE_FLOW = "p1 = <*, *, *, *, *, *, *, *, rate<=1, *, *, *, *>:<Allow>"


@pytest.mark.parametrize(
    "mode, traffic, fields, reasons",
    [
        ("reactive", [(0, "b", 80), (1_500_000, "b", 81)], {"table_capacity": 3}, ["", "TABLE_FULL"]),
        ("proactive", [(0, "b", 80), (1_500_000, "b", 81)], {"table_capacity": 3}, ["", "RATE_LIMIT"]),
        ("reactive", [(0, "10.0.0.77", 80), (10, "b", 81)], {}, ["NO_ROUTE", "RATE_LIMIT"]),
        ("proactive", [(0, "10.0.0.77", 80), (10, "b", 81)], {}, ["RATE_LIMIT", "RATE_LIMIT"]),
    ],
)
def test_limit_a_rate_budget_is_spent_by_flows_never_admitted(mode, traffic, fields, reasons):
    """ROADMAP item 9, pinned as it stands: the rate check charges a flow's
    window when it runs, before the route and path checks and before the
    event loop writes the batch.  With table room for one flow's rules, the
    second flow (window 1) is refused as TABLE_FULL in reactive mode but
    RATE_LIMIT in proactive mode, whose pre-install charged it already.  A
    flow to an address no host has spends the budget of window 0, so the next
    flow drops RATE_LIMIT; proactive pre-install charges that next flow's
    window first, so the unroutable flow drops RATE_LIMIT too.  The change
    that charges only admitted flows flips these reasons on purpose."""
    offered = [{"at": at, "from": "a", "to": to, "port": port, "type": "HTTP"} for at, to, port in traffic]
    report = run(parse_scenario(minimal_doc(offered, RATE_ONE_FLOW, mode=mode, **fields)))
    assert [flow.reason for flow in report.flows] == reasons


@pytest.mark.parametrize(
    "token, outcome",
    [
        ("pkt.port=80", ("delivered", "")),
        ("pkt.port=080", ("delivered", "")),
        ("pkt.type=HTTP", ("delivered", "")),
        ("pkt.port=81", ("dropped", "POLICY")),
    ],
)
def test_packet_attribute_policy_decides_its_flow(token, outcome):
    # the a->b flow is 80/HTTP; a port token is read as a port
    traffic = [{"at": 0, "from": "a", "to": "b", "port": 80, "type": "HTTP"}]
    policy = f"p1 = <*, *, *, *, *, *, *, *, ({token}), *, *, *, *>:<Allow>"
    (flow,) = run(parse_scenario(minimal_doc(traffic, policy))).flows
    assert (flow.outcome, flow.reason) == outcome


@pytest.mark.parametrize("mode", ["reactive", "proactive"])
@pytest.mark.parametrize("reverse", [False, True])
def test_earlier_flow_takes_the_last_table_slot_in_either_mode(mode, reverse):
    # room for one flow's two rules next to the ARP rule
    traffic = [
        {"at": 1000, "from": "a", "to": "b", "port": 80, "type": "HTTP"},
        {"at": 0, "from": "a", "to": "b", "port": 81, "type": "HTTP"},
    ]
    doc = minimal_doc(traffic[::-1] if reverse else traffic, mode=mode, table_capacity=3)
    outcomes = {f.flow_id.split(":")[1]: (f.outcome, f.reason) for f in run(parse_scenario(doc)).flows}
    assert outcomes == {"81/tcp": ("delivered", ""), "80/tcp": ("dropped", "TABLE_FULL")}


@st.composite
def rate_limited_flows(draw):
    """2-5 flows a->b on distinct ports at distinct ticks across three
    one-second windows, each well before its window's end, and one ordering
    of them."""
    tick = st.builds(lambda window, offset: window * 1_000_000 + offset, st.integers(0, 2), st.integers(0, 899_999))
    ticks = draw(st.lists(tick, min_size=2, max_size=5, unique=True))
    ports = draw(st.lists(st.integers(1, 65535), min_size=len(ticks), max_size=len(ticks), unique=True))
    flows = [{"at": t, "from": "a", "to": "b", "port": p, "type": "HTTP"} for t, p in zip(ticks, ports)]
    return flows, draw(st.permutations(flows))


@settings(derandomize=True, deadline=None)
@given(rate_limited_flows())
def test_proactive_outcomes_do_not_depend_on_traffic_order(case):
    # rate<=1 admits at most one flow from a in each window (a flow is
    # delivered, or dropped as TABLE_FULL, only once admitted), and the order
    # the traffic is written in changes no flow's outcome
    def run_proactive(traffic):
        return run(parse_scenario(minimal_doc(traffic, RATE_ONE, mode="proactive", table_capacity=5))).flows

    flows, shuffled = case
    records = run_proactive(flows)
    admitted = [f for f in records if f.outcome == "delivered" or f.reason == "TABLE_FULL"]
    windows = [f.request_tick // 1_000_000 for f in admitted]
    assert len(windows) == len(set(windows))
    outcomes = {f.flow_id: (f.outcome, f.reason) for f in records}
    assert {f.flow_id: (f.outcome, f.reason) for f in run_proactive(shuffled)} == outcomes


def transit_doc(traffic):
    """AS1-AS2, then AS2-AS3-AS5 and AS2-AS4-AS5.  AS3 and its switches are
    SL2, everything else SL3.  AS1 allows with the flow constraint SL3+=,
    which it delegates in its transfer token; every other domain allows all."""
    gateways = {
        "AS1": ("1SW2",),
        "AS2": ("2SW1", "2SW3", "2SW4"),
        "AS3": ("3SW2", "3SW5"),
        "AS4": ("4SW2", "4SW5"),
        "AS5": ("5SW3", "5SW4"),
    }
    domains = []
    for number, (as_id, switches) in enumerate(gateways.items(), 1):
        label = "SL2" if as_id == "AS3" else "SL3"
        domains.append(
            {
                "id": as_id,
                "subnet": f"10.0.{number}.0/24",
                "type": "EDU",
                "label": label,
                "handle_key": f"key-{as_id}",
                "switches": [{"id": switch, "label": label} for switch in switches],
                "links": [[switches[0], other] for other in switches[1:]],
                "hosts": [],
                "policies": [ALLOW_ALL],
            }
        )
    domains[0]["policies"] = ["p = <*,*,*,*,*,*,*,*,SL3+=,*,*,*,*>:<Allow>"]
    domains[0]["hosts"] = [{"id": "h1", "ip": "10.0.1.2", "mac": "00:00:00:00:00:01", "switch": "1SW2"}]
    domains[4]["hosts"] = [{"id": "h5", "ip": "10.0.5.2", "mac": "00:00:00:00:00:05", "switch": "5SW3"}]
    links = [["AS1", "AS2"], ["AS2", "AS3"], ["AS2", "AS4"], ["AS3", "AS5"], ["AS4", "AS5"]]
    return {"name": "transit", "domains": domains, "links": links, "traffic": traffic}


def test_transfer_token_constrains_transit_route():
    # only the token tells AS2 about AS1's SL3+= constraint; without it AS2
    # would take the first shortest path, through AS3
    doc = transit_doc([{"at": 0, "from": "h1", "to": "h5", "port": 80, "type": "HTTP"}])
    flow = run(parse_scenario(doc)).flows[0]
    assert flow.outcome == "delivered"
    assert flow.as_path == ("AS1", "AS2", "AS4", "AS5")


def test_retry_crossing_installed_rules_carries_the_token():
    # AS1's rules stay installed after AS2 refuses the first attempt, so the
    # retry reaches AS2 without AS1's controller; AS1's egress rule still
    # tags it with the handle and the SL3+= token, which steer AS2 off AS3
    syn = {"from": "h1", "to": "h5", "port": 80, "type": "HTTP"}
    doc = transit_doc([{"at": 0, **syn}, {"at": 50_000, **syn}])
    doc["domains"][1]["policies"] = ["q = <*,*,*,*,*,*,*,*,valid[10000,1000000000),*,*,*,*>:<Allow>"]
    first, retry = run(parse_scenario(doc)).flows
    assert (first.outcome, first.reason, first.drop_domain) == ("dropped", "POLICY", "AS2")
    assert retry.outcome == "delivered"
    assert retry.as_path == ("AS1", "AS2", "AS4", "AS5")


def loop_doc(pin_back):
    """AS1 pins its exit toward AS2, from where the way on to b in AS3 leads
    back into AS1: either AS2 pins its exit back (line AS1-AS2-AS3), or AS2
    is a stub off AS1 and AS3 hangs off AS1, so AS2's route runs through AS1."""
    if pin_back:
        gateways = {"AS1": ("1SW2",), "AS2": ("2SW1", "2SW3"), "AS3": ("3SW2",)}
        links = [["AS1", "AS2"], ["AS2", "AS3"]]
    else:
        gateways = {"AS1": ("1SW2", "1SW3"), "AS2": ("2SW1",), "AS3": ("3SW1",)}
        links = [["AS1", "AS2"], ["AS1", "AS3"]]
    domains = [
        {
            "id": as_id,
            "subnet": f"10.0.{number}.0/24",
            "type": "EDU",
            "label": "SL2",
            "handle_key": f"key-{as_id}",
            "switches": [{"id": switch, "label": "SL2"} for switch in switches],
            "links": [[switches[0], other] for other in switches[1:]],
            "hosts": [],
            "policies": [ALLOW_ALL],
        }
        for number, (as_id, switches) in enumerate(gateways.items(), 1)
    ]
    domains[0]["policies"] = ["p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<(1SW2, Allow)>"]
    if pin_back:
        domains[1]["policies"] = ["q = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<(2SW1, Allow)>"]
    domains[0]["hosts"] = [{"id": "a", "ip": "10.0.1.2", "mac": "00:00:00:00:00:0a", "switch": "1SW2"}]
    domains[2]["hosts"] = [
        {"id": "b", "ip": "10.0.3.2", "mac": "00:00:00:00:00:0b", "switch": gateways["AS3"][0]}
    ]
    traffic = [{"at": 0, "from": "a", "to": "b", "port": 80, "type": "HTTP"}]
    return {"name": "loop", "domains": domains, "links": links, "traffic": traffic}


@pytest.mark.parametrize(
    "pin_back, baseline_path",
    [(True, ("AS1", "AS2", "AS3")), (False, ("AS1", "AS3"))],
    ids=["pinned-back", "routed-back"],
)
def test_flow_never_reenters_a_visited_domain(pin_back, baseline_path):
    scenario = parse_scenario(loop_doc(pin_back))
    # the controller refuses the hop back first, so that a regression fails
    # here rather than bouncing between two domains in the runs below
    world = build_world(scenario)
    packet = Packet(
        src_ip=ip("10.0.1.2"),
        dst_ip=ip("10.0.3.2"),
        src_mac="00:00:00:00:00:0a",
        dst_mac="00:00:00:00:00:0b",
        ip_proto="tcp",
        service_port=80,
        packet_type="HTTP",
    )
    handle = extend_handle(None, packet.flow_id, "AS1", None, world.controllers["AS1"].handle_key)
    result = world.controllers["AS2"].handle_packet_in(packet, "2SW1", "1SW2", 0, handle=handle)
    assert (result.installs, result.reason) == ((), "NO_SATISFYING_PATH")
    for mode in ("reactive", "proactive"):
        flow = run(replace(scenario, mode=mode)).flows[0]
        assert (flow.outcome, flow.reason, flow.drop_domain) == ("dropped", "NO_SATISFYING_PATH", "AS2"), mode
        # the handle is extended with enforcement off too, so the check holds
        # there; the unpinned baseline route does not loop
        baseline = run(replace(scenario, mode=mode, enforcement=False)).flows[0]
        assert (baseline.outcome, baseline.as_path) == ("delivered", baseline_path), mode


def test_as_path_follows_switches_taken():
    # the reply rides the first flow's return rules and reaches no controller
    doc = transit_doc(
        [
            {"at": 0, "from": "h1", "to": "h5", "port": 80, "type": "HTTP"},
            {"at": 1_000, "from": "h5", "to": "h1", "port": 80, "type": "HTTP"},
        ]
    )
    report = run(parse_scenario(doc))
    reply = report.flows[1]
    assert report.counters["packet_ins"] == 4  # one per domain, all for the first flow
    assert reply.outcome == "delivered"
    assert reply.switch_path == ("5SW3", "5SW4", "4SW5", "4SW2", "2SW4", "2SW1", "1SW2")
    assert reply.as_path == ("AS5", "AS4", "AS2", "AS1")


COST_FIELDS = ("base", "defense", "per_pe", "per_switch", "per_rule")


@st.composite
def mutated_bundled_documents(draw):
    name = draw(st.sampled_from(list_bundled_scenarios()))
    doc = json.loads(bundled_scenario_path(name).read_text())
    doc["mode"] = draw(st.sampled_from(("reactive", "proactive")))
    capacity = draw(st.none() | st.integers(1, 4))
    if capacity is not None:
        doc["table_capacity"] = capacity
    doc["costs"] = draw(st.dictionaries(st.sampled_from(COST_FIELDS), st.integers(-3, 50)))
    if draw(st.booleans()):
        item = draw(st.sampled_from(doc["traffic"]))
        key = "port_base" if item.get("kind") == "flood" else "port"
        item[key] = draw(st.sampled_from((0, 1, 65535, 70000)))
    domain = draw(st.sampled_from(doc["domains"]))
    if domain["policies"] and draw(st.booleans()):
        del domain["policies"][draw(st.integers(0, len(domain["policies"]) - 1))]
    broken = draw(st.none() | st.sampled_from(("repeat", "reverse", "self-link", "blank-key", "stray")))
    linked = [owner["links"] for owner in (doc, *doc["domains"]) if owner.get("links")]
    if broken in ("repeat", "reverse", "self-link") and linked:
        links = draw(st.sampled_from(linked))
        a, b = draw(st.sampled_from(links))
        links.append({"repeat": [a, b], "reverse": [b, a], "self-link": [a, a]}[broken])
    elif broken == "blank-key":
        domain["handle_key"] = ""
    elif broken == "stray":
        draw(st.sampled_from([domain, *domain["switches"], *domain.get("hosts", [])]))["stray"] = 1
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_bundled_documents())
def test_mutated_bundled_scenarios_are_rejected_or_run_clean(doc):
    try:
        scenario = parse_scenario(doc)
    except ScenarioError:
        return
    world = build_world(scenario)
    report = Simulation(world).run()
    counters = report.counters
    assert report.conservation_holds()
    dropped = sum(value for key, value in counters.items() if key.startswith("dropped_"))
    assert counters["delivered"] + dropped == counters["offered"] == len(report.flows)
    for switch in world.switches.values():
        assert len(flow_dump(switch)) <= switch.capacity
        # install checks no capacity, so a table within it shows that every
        # write went through install_batch; the table's count is its rules
        assert len(switch.table) == len(flow_dump(switch))
        # synthesis writes forward rules before return rules, so a batch cut
        # short leaves a forward rule without its return rule
        installed = {rule.match for rule in flow_dump(switch)}
        for rule in flow_dump(switch):
            if rule.action == ActionKind.FORWARD:
                assert rule.next_hop in switch.ports
            if rule.match.priority == FLOW_RULE_PRIORITY:
                match = rule.match
                assert replace(match, src_ip=match.dst_ip, dst_ip=match.src_ip) in installed


# a Simulation needs a world to be built; its loop reads nothing of it
_LOOP_WORLD = build_world(load("minimal"))


def _run_with_a_step(loop, ticks, place, at, delay):
    """Queue events at ``ticks`` and, at index ``place``, one at ``at`` that
    returns a step ``delay`` ticks later; answer the order they ran in and
    each answer ``_runs_next`` gave."""
    sim = loop(_LOOP_WORLD)
    ran, answers = [], []
    runs_next = sim._runs_next

    def asked(tick):
        answers.append(runs_next(tick))
        return answers[-1]

    def queued(tick, name):
        ran.append(name)

    def parent(tick):
        ran.append("parent")
        return tick + delay, queued, ("step",)

    sim._runs_next = asked
    events = [(tick, queued, index) for index, tick in enumerate(ticks)]
    events.insert(min(place, len(events)), (at, parent))
    for tick, handler, *args in events:
        queue_event(sim, tick, handler, *args)
    sim._run_events()
    return ran, answers


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 4), max_size=6), st.integers(0, 6), st.integers(0, 4), st.integers(0, 2))
def test_a_hop_is_taken_at_once_only_when_it_would_run_next(ticks, place, at, delay):
    # the loop asks _runs_next once about the returned step, which runs
    # right after its parent exactly when the answer was yes, in the order
    # the reference loop runs it
    ran, answers = _run_with_a_step(Simulation, ticks, place, at, delay)
    assert answers == [ran[ran.index("parent") + 1] == "step"], (ran, answers)
    assert ran == _run_with_a_step(HeapSimulation, ticks, place, at, delay)[0]
