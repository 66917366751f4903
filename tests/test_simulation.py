import pytest

from sdnsec.dataplane import format_flow_dump
from sdnsec.defense import ResponseMode
from sdnsec.metrics import emit
from sdnsec.scenario import bundled_scenario_path, load_scenario
from sdnsec.simulation import Simulation, build_world, run


def load(name):
    return load_scenario(bundled_scenario_path(name))


def test_minimal_intra_delivery():
    report = run(load("minimal"))
    assert report.counters["offered"] == 1
    assert report.counters["delivered"] == 1
    assert report.flows[0].switch_path == ("S1",)
    assert report.flows[0].as_path == ("AS1",)


def test_empty_traffic_program():
    from dataclasses import replace

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
    guest_labels = {world.switches[s].sec_label.rank for s in guest.switch_path}
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
        first = emit(run(load(name)), "records")
        second = emit(run(load(name)), "records")
        assert first == second, name


def test_proactive_mode_equivalence():
    for name in ("intra_service_paths", "four_domain_transit"):
        reactive = run(load(name))
        proactive = run(load(name).with_mode("proactive"))
        assert proactive.counters["packet_ins"] == 0, name
        assert [(f.src, f.outcome, f.switch_path) for f in reactive.flows] == [
            (f.src, f.outcome, f.switch_path) for f in proactive.flows
        ], name


def test_baseline_establishes_superset():
    for name in ("worm_scan", "service_misuse", "unknown_transit"):
        scenario = load(name)
        secured = run(scenario)
        baseline = run(scenario.with_enforcement(False))
        secure_delivered = {f.flow_id for f in secured.delivered()}
        baseline_delivered = {f.flow_id for f in baseline.delivered()}
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
    scenario = load("flood_single_domain").with_defense(ResponseMode.THROTTLE)
    report = run(scenario)
    per_window = report.installs_per_window("10.9.0.66")
    assert per_window == {0: 100, 1: 100}


def test_flood_drop_rule_blocks_offender():
    scenario = load("flood_single_domain").with_defense(ResponseMode.DROP_RULE)
    report = run(scenario)
    per_window = report.installs_per_window("10.9.0.66")
    assert per_window == {0: 100}
    block_installs = [r for r in report.installs if r.provenance.startswith("defense:")]
    assert len(block_installs) == 1
    legit = [f for f in report.flows if f.src == "legit"]
    assert all(f.outcome == "delivered" for f in legit)


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
