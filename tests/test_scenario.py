import json
from dataclasses import replace

import pytest

from sdnsec.defense import ResponseMode
from sdnsec.scenario import (
    ScenarioError,
    bundled_scenario_path,
    list_bundled_scenarios,
    load_scenario,
    parse_scenario,
)
from sdnsec.simulation import run

from helpers import ip


def minimal_doc():
    return {
        "name": "t",
        "domains": [
            {
                "id": "AS1",
                "subnet": "10.0.0.0/24",
                "type": "EDU",
                "label": "SL1",
                "handle_key": "k",
                "switches": [{"id": "S1", "label": "SL1"}],
                "links": [],
                "hosts": [
                    {"id": "a", "ip": "10.0.0.1", "mac": "00:00:00:00:00:0a", "switch": "S1"},
                    {"id": "b", "ip": "10.0.0.2", "mac": "00:00:00:00:00:0b", "switch": "S1"},
                ],
                "policies": ["p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>"],
            }
        ],
        "links": [],
        "traffic": [{"at": 0, "from": "a", "to": "b", "port": 80, "type": "HTTP"}],
    }


def test_minimal_scenario_loads():
    scenario = parse_scenario(minimal_doc())
    assert scenario.name == "t"
    assert len(scenario.domains) == 1
    assert scenario.domains[0].hosts[0].id == "a"


def test_traffic_is_resolved_to_addresses_at_parse():
    doc = minimal_doc()
    doc["traffic"].append({"at": 1, "from": "a", "to": "10.0.0.9", "port": 80, "type": "HTTP"})
    assert [item.dst for item in parse_scenario(doc).traffic] == [ip("10.0.0.2"), ip("10.0.0.9")]


def test_traffic_literal_tolerates_leading_zeros_as_a_host_ip_does():
    doc = minimal_doc()
    doc["domains"][0]["hosts"][1]["ip"] = "10.0.0.02"
    doc["traffic"][0]["to"] = "10.0.0.02"
    scenario = parse_scenario(doc)
    assert scenario.domains[0].hosts[1].ip == scenario.traffic[0].dst == ip("10.0.0.2")
    assert run(scenario).flows[0].outcome == "delivered"


def test_bundled_transit_scenario_has_four_domains_and_policies():
    scenario = load_scenario(bundled_scenario_path("four_domain_transit"))
    assert [d.id for d in scenario.domains] == ["AS1", "AS2", "AS3", "AS4"]
    assert all(len(d.policies) == 1 for d in scenario.domains)
    as1 = scenario.domain("AS1").policies[0]
    assert as1.action_exit == "1SW2"
    assert as1.services == frozenset({80, 443})


def test_all_bundled_scenarios_load():
    for name in list_bundled_scenarios():
        scenario = load_scenario(bundled_scenario_path(name))
        assert scenario.name == name


def test_undefined_switch_reference_is_an_error():
    doc = minimal_doc()
    doc["domains"][0]["hosts"][0]["switch"] = "S9"
    with pytest.raises(ScenarioError, match=r"hosts\[0\].switch.*S9"):
        parse_scenario(doc)


def test_undefined_link_end_is_an_error():
    doc = minimal_doc()
    doc["domains"][0]["links"] = [["S1", "S7"]]
    with pytest.raises(ScenarioError, match=r"links\[0\].*S7"):
        parse_scenario(doc)


def test_undefined_traffic_host_is_an_error():
    doc = minimal_doc()
    doc["traffic"][0]["from"] = "ghost"
    with pytest.raises(ScenarioError, match="ghost"):
        parse_scenario(doc)


def test_missing_gateway_switch_is_an_error():
    doc = minimal_doc()
    doc["domains"].append(
        {
            "id": "AS2",
            "subnet": "10.1.0.0/24",
            "type": "EDU",
            "label": "SL1",
            "handle_key": "k2",
            "switches": [{"id": "2SW1", "label": "SL1"}],
            "links": [],
            "hosts": [],
            "policies": [],
        }
    )
    doc["links"] = [["AS1", "AS2"]]
    with pytest.raises(ScenarioError, match="1SW2"):
        parse_scenario(doc)


def test_duplicate_policy_id_is_an_error():
    doc = minimal_doc()
    doc["domains"][0]["policies"] = [
        "p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>",
        "p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Deny>",
    ]
    with pytest.raises(ScenarioError, match=r"^\$\.domains\[0\]\.policies\[1\]: duplicate id 'p', first at position 0$"):
        parse_scenario(doc)


def test_record_error_names_its_position_in_policies():
    doc = minimal_doc()
    doc["domains"][0]["policies"] = [
        "p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>",
        {"id": "r1", "action": "allow"},
        {"id": "r2", "action": "allow", "seq": "(;)"},
    ]
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(doc)
    assert caught.value.path == "$.domains[0].policies[2]"
    assert "record (id 'r2'): empty seq list" in str(caught.value)


def test_mixed_policies_keep_document_order():
    doc = minimal_doc()
    doc["domains"][0]["policies"] = [
        {"id": "r1", "action": "allow"},
        "p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>",
        {"id": "r2", "action": "deny"},
    ]
    (domain,) = parse_scenario(doc).domains
    assert [pe.id for pe in domain.policies] == ["r1", "p", "r2"]


def test_bad_mode_is_an_error():
    doc = minimal_doc()
    doc["mode"] = "lazy"
    with pytest.raises(ScenarioError, match="mode"):
        parse_scenario(doc)


def test_defense_requires_capacity():
    doc = minimal_doc()
    doc["defense"] = {"response": "throttle"}
    with pytest.raises(ScenarioError, match="capacity"):
        parse_scenario(doc)


def test_repository_records_accepted_inline():
    doc = minimal_doc()
    doc["domains"][0]["policies"] = [
        {
            "id": "21",
            "srcassub": "10.0.0.0/25",
            "action": "allow",
        }
    ]
    scenario = parse_scenario(doc)
    assert scenario.domains[0].policies[0].id == "21"


def test_without_policy_variant():
    scenario = load_scenario(bundled_scenario_path("four_domain_transit"))
    variant = scenario.without_policy("AS2", "4")
    assert scenario.domain("AS2").policies
    assert not variant.domain("AS2").policies
    with pytest.raises(KeyError):
        scenario.without_policy("AS2", "nope")


def test_with_defense_and_rate_variants():
    scenario = load_scenario(bundled_scenario_path("flood_single_domain"))
    assert scenario.defense_response is ResponseMode.NONE
    throttled = replace(scenario, defense_response=ResponseMode.THROTTLE)
    assert throttled.defense_response is ResponseMode.THROTTLE
    rated = scenario.with_flood_rate(75)
    flood = [t for t in rated.traffic if hasattr(t, "rate")]
    assert flood[0].rate == 75
    with pytest.raises(ValueError, match="'minimal' has no flood"):
        load_scenario(bundled_scenario_path("minimal")).with_flood_rate(75)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)


def test_unknown_bundled_name_lists_known():
    with pytest.raises(ScenarioError, match="minimal"):
        bundled_scenario_path("does_not_exist")


CAPACITY = {"controller_rps": 400, "switches_per_controller": 2, "hosts_per_switch": 2}


def _flood(**fields):
    entry = {"kind": "flood", "at": 0, "from": "a", "to": "b", "rate": 10, "seconds": 1}
    entry.update(fields)
    return [entry]


def _set(*keys, value):
    def mutate(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return mutate


def _append(*keys, value):
    def mutate(doc):
        target = doc
        for key in keys:
            target = target[key]
        target.append(value)

    return mutate


def _fabric(*links):
    """Switches S1 and S2 in the one domain, joined by these switch links."""

    def mutate(doc):
        doc["domains"][0]["switches"] = [{"id": "S1", "label": "SL1"}, {"id": "S2", "label": "SL1"}]
        doc["domains"][0]["links"] = [list(pair) for pair in links]

    return mutate


def _second_domain(*links, **fields):
    """Domain AS2 (10.1.0.0/24) with gateway 2SW1, gateway 1SW2 in AS1, and
    these domain links."""

    def mutate(doc):
        doc["domains"][0]["switches"].append({"id": "1SW2", "label": "SL1"})
        domain = {
            "id": "AS2",
            "subnet": "10.1.0.0/24",
            "type": "EDU",
            "label": "SL1",
            "handle_key": "k2",
            "switches": [{"id": "2SW1", "label": "SL1"}],
        }
        doc["domains"].append({**domain, **fields})
        doc["links"] = [list(pair) for pair in links]

    return mutate


def _host(host_id, ip="10.0.0.3"):
    return {"id": host_id, "ip": ip, "mac": "00:00:00:00:00:0c", "switch": "S1"}


@pytest.mark.parametrize(
    "mutate, path",
    [
        (_set("traffic", 0, "to", value="ghost"), "$.traffic[0].to"),
        (_set("traffic", 0, "to", value="10.0.0.300"), "$.traffic[0].to"),
        (_set("table_capacity", value=0), "$.table_capacity"),
        (_set("max_ttl", value=0), "$.max_ttl"),
        (_set("defense", value={"response": "none", "window_ticks": 0}), "$.defense.window_ticks"),
        (_set("defense", value="throttle"), "$.defense"),
        (_set("costs", value=5), "$.costs"),
        (_set("traffic", value=_flood(rate=0)), "$.traffic[0].rate"),
        (_set("traffic", value=_flood(seconds=0)), "$.traffic[0].seconds"),
        (_set("traffic", value=_flood(to="nowhere")), "$.traffic[0].to"),
        (_set("domains", 0, value=5), "$.domains[0]"),
        (_set("domains", 0, value="AS1"), "$.domains[0]"),
        (_set("domains", 0, "switches", 0, value=5), "$.domains[0].switches[0]"),
        (_set("domains", 0, "hosts", 0, value="a"), "$.domains[0].hosts[0]"),
        (_set("traffic", 0, value=7), "$.traffic[0]"),
        (_set("traffic", 0, "port", value=70000), "$.traffic[0].port"),
        (_set("traffic", 0, "port", value=0), "$.traffic[0].port"),
        (_set("traffic", value=_flood(rate=10, port_base=65530)), "$.traffic[0].port_base"),
        (_set("costs", value={"base": -50}), "$.costs.base"),
        (_set("max_tll", value=0), "$.max_tll"),
        (_set("seed", value=1), "$.seed"),
        (_set("costs", value={"bass": 5}), "$.costs.bass"),
        (_set("capacity", value={**CAPACITY, "switch_rps": 9}), "$.capacity.switch_rps"),
        (_set("capacity", value=[400]), "$.capacity"),
        (_set("defense", value={"response": "none", "windows_ticks": 0}), "$.defense.windows_ticks"),
        (_set("traffic", 0, "seconds", value=2), "$.traffic[0].seconds"),
        (_set("traffic", value=_flood(port=80)), "$.traffic[0].port"),
        (_set("traffic", 0, "port", value=80.7), "$.traffic[0].port"),
        (_set("traffic", 0, "port", value=True), "$.traffic[0].port"),
        (_set("traffic", 0, "port", value="abc"), "$.traffic[0].port"),
        (_set("traffic", 0, "at", value=-50), "$.traffic[0].at"),
        (_set("traffic", 0, "at", value="x"), "$.traffic[0].at"),
        (_set("traffic", 0, "size", value=64), "$.traffic[0].size"),
        (_set("traffic", value=_flood(rate=10.5)), "$.traffic[0].rate"),
        (_set("traffic", value=_flood(seconds=True)), "$.traffic[0].seconds"),
        (_set("traffic", value=_flood(port_base="20000")), "$.traffic[0].port_base"),
        (_set("traffic", value=_flood(at=-1)), "$.traffic[0].at"),
        (_set("table_capacity", value="1024"), "$.table_capacity"),
        (_set("max_ttl", value=2.5), "$.max_ttl"),
        (_set("defense", value={"response": "none", "window_ticks": 1.5}), "$.defense.window_ticks"),
        (_set("costs", value={"base": "5"}), "$.costs.base"),
        (_set("capacity", value={**CAPACITY, "switches_per_controller": 2.5}), "$.capacity.switches_per_controller"),
        (_set("capacity", value={**CAPACITY, "hosts_per_switch": False}), "$.capacity.hosts_per_switch"),
        (_set("enforcement", value="false"), "$.enforcement"),
        (_set("links", value={"AS1": "AS2"}), "$.links"),
        (_set("links", value=5), "$.links"),
        (_set("traffic", value={"at": 0}), "$.traffic"),
        (_set("domains", 0, "policies", value=7), "$.domains[0].policies"),
        (_set("domains", 0, "policies", value="p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>"), "$.domains[0].policies"),
        (
            _set("domains", 0, "policies", value=["defense:p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>"]),
            "$.domains[0].policies[0]",
        ),
        (_set("domains", 0, "users", value=["00:00:00:00:00:0a"]), "$.domains[0].users"),
        (_set("domains", 0, "links", value=5), "$.domains[0].links"),
        (_set("domains", 0, "hosts", value=5), "$.domains[0].hosts"),
        (_set("capacity", value={**CAPACITY, "controller_rps": True}), "$.capacity.controller_rps"),
        (_set("capacity", value={**CAPACITY, "controller_rps": "400"}), "$.capacity.controller_rps"),
        (_set("capacity", value={**CAPACITY, "controller_rps": 0}), "$.capacity.controller_rps"),
        (_set("capacity", value={**CAPACITY, "controller_rps": float("inf")}), "$.capacity.controller_rps"),
        (_set("traffic", 0, "proto", value=6), "$.traffic[0].proto"),
        (_set("traffic", value=_flood(type=5)), "$.traffic[0].type"),
        (_set("traffic", value=_flood(proto=17)), "$.traffic[0].proto"),
        (_set("name", value=5), "$.name"),
        (_set("mode", value=["reactive"]), "$.mode"),
        (_set("domains", 0, "users", value={"00:00:00:00:00:0a": None}), "$.domains[0].users['00:00:00:00:00:0a']"),
        (
            _set("domains", 0, "users", value={"00:00:00:00:00:0A": "Alice", "00:00:00:00:00:0a": "Mallory"}),
            "$.domains[0].users['00:00:00:00:00:0a']",
        ),
        (_fabric(("S1", "S2"), ("S2", "S1")), "$.domains[0].links[1]"),
        (_fabric(("S1", "S2"), ("S1", "S2")), "$.domains[0].links[1]"),
        (_fabric(("S1", "S1")), "$.domains[0].links[0]"),
        (_set("domains", 0, "links", value=[[["S1"], "S1"]]), "$.domains[0].links[0]"),
        (_second_domain(("AS1", "AS2"), ("AS1", "AS2")), "$.links[1]"),
        (_second_domain(("AS1", "AS2"), ("AS2", "AS1")), "$.links[1]"),
        (_append("domains", 0, "hosts", value=_host("S1")), "$.domains[0].hosts[2].id"),
        (_set("domains", 0, "polices", value=[]), "$.domains[0].polices"),
        (_set("domains", 0, "switches", 0, "ports", value=4), "$.domains[0].switches[0].ports"),
        (_set("domains", 0, "hosts", 0, "vlan", value=10), "$.domains[0].hosts[0].vlan"),
        (_set("domains", 0, "handle_key", value=""), "$.domains[0].handle_key"),
        (_set("domains", 0, "hosts", 0, "ip", value="10.0.1.1"), "$.domains[0].hosts[0].ip"),
        # Arabic-Indic "10": int() reads it, IPv4Address does not
        (_set("domains", 0, "hosts", 0, "ip", value="\u0661\u0660.0.0.1"), "$.domains[0].hosts[0].ip"),
        (_second_domain(subnet="10.0.0.0/16"), "$.domains[1].subnet"),
        (_second_domain(subnet="10.0.0.128/25"), "$.domains[1].subnet"),
        (_second_domain(subnet="10.0.0.0/24"), "$.domains[1].subnet"),
        (_append("domains", 0, "switches", value={"id": "S1", "label": "SL1"}), "$.domains[0].switches[1].id"),
        (
            _second_domain(switches=[{"id": "2SW1", "label": "SL1"}, {"id": "S1", "label": "SL1"}]),
            "$.domains[1].switches[1].id",
        ),
        (_append("domains", 0, "hosts", value=_host("a")), "$.domains[0].hosts[2].id"),
        (_append("domains", 0, "hosts", value=_host("c", ip="10.0.0.1")), "$.domains[0].hosts[2].ip"),
        (_second_domain(id="AS1"), "$.domains[1].id"),
    ],
    ids=[
        "undeclared-to",
        "malformed-ip-to",
        "table-capacity-0",
        "max-ttl-0",
        "window-ticks-0",
        "defense-not-object",
        "costs-not-object",
        "flood-rate-0",
        "flood-seconds-0",
        "flood-undeclared-to",
        "domain-int",
        "domain-string",
        "switch-int",
        "host-string",
        "traffic-int",
        "port-70000",
        "port-0",
        "flood-ports-past-65535",
        "negative-cost",
        "unknown-top-level",
        "removed-seed",
        "unknown-cost",
        "unknown-capacity",
        "capacity-not-object",
        "unknown-defense",
        "seconds-on-flow",
        "port-on-flood",
        "port-float",
        "port-bool",
        "port-string",
        "at-negative",
        "at-string",
        "removed-size",
        "flood-rate-float",
        "flood-seconds-bool",
        "flood-port-base-string",
        "flood-at-negative",
        "table-capacity-string",
        "max-ttl-float",
        "window-ticks-float",
        "cost-string",
        "capacity-switches-float",
        "capacity-hosts-bool",
        "enforcement-string",
        "links-object",
        "links-int",
        "traffic-object",
        "policies-int",
        "policies-string",
        "policy-id-reserved-prefix",
        "users-array",
        "domain-links-int",
        "hosts-int",
        "capacity-rps-bool",
        "capacity-rps-string",
        "capacity-rps-0",
        "capacity-rps-infinite",
        "proto-int",
        "flood-type-int",
        "flood-proto-int",
        "name-int",
        "mode-array",
        "user-null",
        "user-mac-repeated",
        "switch-link-reversed",
        "switch-link-repeated",
        "switch-self-link",
        "switch-link-end-array",
        "domain-link-repeated",
        "domain-link-reversed",
        "host-id-is-a-switch",
        "unknown-domain-field",
        "unknown-switch-field",
        "unknown-host-field",
        "blank-handle-key",
        "host-outside-subnet",
        "host-ip-non-ascii-digits",
        "subnet-contains-earlier",
        "subnet-inside-earlier",
        "subnet-repeated",
        "switch-id-repeated-in-domain",
        "switch-id-repeated-across-domains",
        "host-id-repeated",
        "host-ip-repeated",
        "domain-id-repeated",
    ],
)
def test_run_time_failures_are_rejected_at_parse(mutate, path):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(doc)
    assert caught.value.path == path
