import json
import re
from dataclasses import replace

import pytest

from sdnsec import scenario as scenario_module
from sdnsec.defense import ResponseMode
from sdnsec.scenario import (
    FloodSpec,
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


@pytest.mark.parametrize("unnamed", ["<*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>", " = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>"])
def test_compact_policy_without_a_name_is_an_error(unnamed):
    # an unnamed policy would be reported as a made-up id in every decision
    doc = minimal_doc()
    doc["domains"][0]["policies"] = ["p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Deny>", unnamed]
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(doc)
    assert caught.value.path == "$.domains[0].policies[1]"
    assert "needs a 'name =' prefix" in str(caught.value)


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


@pytest.mark.parametrize("rate", [0, -3])
def test_flood_rate_variant_must_offer_a_request(rate):
    scenario = load_scenario(bundled_scenario_path("flood_single_domain"))
    with pytest.raises(ValueError, match=rf"^flood rate must be at least 1, got {rate}$"):
        scenario.with_flood_rate(rate)
    with pytest.raises(ValueError, match=r"^flood seconds must be at least 1, got 0$"):
        FloodSpec(at=0, src_host="attacker", dst=1, rate=1, seconds=0)


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
    "mutate, path, message",
    [
        (
            _set("traffic", 0, "to", value="ghost"),
            "$.traffic[0].to",
            "'ghost' is neither a declared host nor an IPv4 address",
        ),
        (
            _set("traffic", 0, "to", value="10.0.0.300"),
            "$.traffic[0].to",
            "'10.0.0.300' is neither a declared host nor an IPv4 address",
        ),
        (_set("table_capacity", value=0), "$.table_capacity", "must be at least 1, got 0"),
        (_set("max_ttl", value=0), "$.max_ttl", "must be at least 1, got 0"),
        (
            _set("defense", value={"response": "none", "window_ticks": 0}),
            "$.defense.window_ticks",
            "must be at least 1, got 0",
        ),
        (_set("defense", value="throttle"), "$.defense", "expected an object, got str"),
        (_set("costs", value=5), "$.costs", "expected an object, got int"),
        (_set("traffic", value=_flood(rate=0)), "$.traffic[0].rate", "must be at least 1, got 0"),
        (_set("traffic", value=_flood(seconds=0)), "$.traffic[0].seconds", "must be at least 1, got 0"),
        (
            _set("traffic", value=_flood(to="nowhere")),
            "$.traffic[0].to",
            "'nowhere' is neither a declared host nor an IPv4 address",
        ),
        (_set("domains", 0, value=5), "$.domains[0]", "expected an object, got int"),
        (_set("domains", 0, value="AS1"), "$.domains[0]", "expected an object, got str"),
        (_set("domains", 0, "switches", 0, value=5), "$.domains[0].switches[0]", "expected an object, got int"),
        (_set("domains", 0, "hosts", 0, value="a"), "$.domains[0].hosts[0]", "expected an object, got str"),
        (_set("traffic", 0, value=7), "$.traffic[0]", "expected an object, got int"),
        (_set("traffic", 0, "port", value=70000), "$.traffic[0].port", "must be in 1..65535, got 70000"),
        (_set("traffic", 0, "port", value=0), "$.traffic[0].port", "must be in 1..65535, got 0"),
        (
            _set("traffic", value=_flood(rate=10, port_base=65530)),
            "$.traffic[0].port_base",
            "flood ports 65530..65539 leave 1..65535",
        ),
        (_set("costs", value={"base": -50}), "$.costs.base", "must be at least 0, got -50"),
        (_set("max_tll", value=0), "$.max_tll", "unknown field"),
        (_set("seed", value=1), "$.seed", "unknown field"),
        (_set("costs", value={"bass": 5}), "$.costs.bass", "unknown field"),
        (_set("capacity", value={**CAPACITY, "switch_rps": 9}), "$.capacity.switch_rps", "unknown field"),
        (_set("capacity", value=[400]), "$.capacity", "expected an object, got list"),
        (_set("defense", value={"response": "none", "windows_ticks": 0}), "$.defense.windows_ticks", "unknown field"),
        (_set("traffic", 0, "seconds", value=2), "$.traffic[0].seconds", "unknown field"),
        (_set("traffic", value=_flood(port=80)), "$.traffic[0].port", "unknown field"),
        (_set("traffic", 0, "port", value=80.7), "$.traffic[0].port", "expected an integer, got float"),
        (_set("traffic", 0, "port", value=True), "$.traffic[0].port", "expected an integer, got bool"),
        (_set("traffic", 0, "port", value="abc"), "$.traffic[0].port", "expected an integer, got str"),
        (_set("traffic", 0, "at", value=-50), "$.traffic[0].at", "must be at least 0, got -50"),
        (_set("traffic", 0, "at", value="x"), "$.traffic[0].at", "expected an integer, got str"),
        (_set("traffic", 0, "size", value=64), "$.traffic[0].size", "unknown field"),
        (_set("traffic", value=_flood(rate=10.5)), "$.traffic[0].rate", "expected an integer, got float"),
        (_set("traffic", value=_flood(seconds=True)), "$.traffic[0].seconds", "expected an integer, got bool"),
        (_set("traffic", value=_flood(port_base="20000")), "$.traffic[0].port_base", "expected an integer, got str"),
        (_set("traffic", value=_flood(at=-1)), "$.traffic[0].at", "must be at least 0, got -1"),
        (_set("table_capacity", value="1024"), "$.table_capacity", "expected an integer, got str"),
        (_set("max_ttl", value=2.5), "$.max_ttl", "expected an integer, got float"),
        (
            _set("defense", value={"response": "none", "window_ticks": 1.5}),
            "$.defense.window_ticks",
            "expected an integer, got float",
        ),
        (_set("costs", value={"base": "5"}), "$.costs.base", "expected an integer, got str"),
        (
            _set("capacity", value={**CAPACITY, "switches_per_controller": 2.5}),
            "$.capacity.switches_per_controller",
            "expected an integer, got float",
        ),
        (
            _set("capacity", value={**CAPACITY, "hosts_per_switch": False}),
            "$.capacity.hosts_per_switch",
            "expected an integer, got bool",
        ),
        (_set("enforcement", value="false"), "$.enforcement", "expected bool, got str"),
        (_set("links", value={"AS1": "AS2"}), "$.links", "expected list, got dict"),
        (_set("links", value=5), "$.links", "expected list, got int"),
        (_set("traffic", value={"at": 0}), "$.traffic", "expected list, got dict"),
        (_set("domains", 0, "policies", value=7), "$.domains[0].policies", "expected list, got int"),
        (
            _set("domains", 0, "policies", value="p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>"),
            "$.domains[0].policies",
            "expected list, got str",
        ),
        (
            _set("domains", 0, "policies", value=["defense:p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>"]),
            "$.domains[0].policies[0]",
            "policy expression 'defense:p': policy id 'defense:p' starts with the reserved prefix 'defense:'",
        ),
        (_set("domains", 0, "users", value=["00:00:00:00:00:0a"]), "$.domains[0].users", "expected dict, got list"),
        (_set("domains", 0, "links", value=5), "$.domains[0].links", "expected list, got int"),
        (_set("domains", 0, "hosts", value=5), "$.domains[0].hosts", "expected list, got int"),
        (
            _set("capacity", value={**CAPACITY, "controller_rps": True}),
            "$.capacity.controller_rps",
            "expected a number, got bool",
        ),
        (
            _set("capacity", value={**CAPACITY, "controller_rps": "400"}),
            "$.capacity.controller_rps",
            "expected a number, got str",
        ),
        (
            _set("capacity", value={**CAPACITY, "controller_rps": 0}),
            "$.capacity.controller_rps",
            "must be a positive finite number, got 0",
        ),
        (
            _set("capacity", value={**CAPACITY, "controller_rps": float("inf")}),
            "$.capacity.controller_rps",
            "must be a positive finite number, got inf",
        ),
        (_set("traffic", 0, "proto", value=6), "$.traffic[0].proto", "expected str, got int"),
        (_set("traffic", value=_flood(type=5)), "$.traffic[0].type", "expected str, got int"),
        (_set("traffic", value=_flood(proto=17)), "$.traffic[0].proto", "expected str, got int"),
        (_set("name", value=5), "$.name", "expected str, got int"),
        (_set("mode", value=["reactive"]), "$.mode", "expected str, got list"),
        (
            _set("domains", 0, "users", value={"00:00:00:00:00:0a": None}),
            "$.domains[0].users['00:00:00:00:00:0a']",
            "expected str, got NoneType",
        ),
        (
            _set("domains", 0, "users", value={"00:00:00:00:00:0A": "Alice", "00:00:00:00:00:0a": "Mallory"}),
            "$.domains[0].users['00:00:00:00:00:0a']",
            "duplicate '00:00:00:00:00:0a', first declared at $.domains[0].users['00:00:00:00:00:0A']",
        ),
        (_fabric(("S1", "S2"), ("S2", "S1")), "$.domains[0].links[1]", "repeats the link between 'S2' and 'S1'"),
        (_fabric(("S1", "S2"), ("S1", "S2")), "$.domains[0].links[1]", "repeats the link between 'S1' and 'S2'"),
        (_fabric(("S1", "S1")), "$.domains[0].links[0]", "switch 'S1' is linked to itself"),
        (_set("domains", 0, "links", value=[[["S1"], "S1"]]), "$.domains[0].links[0]", "undefined switch ['S1']"),
        (_second_domain(("AS1", "AS2"), ("AS1", "AS2")), "$.links[1]", "repeats the link between 'AS1' and 'AS2'"),
        (_second_domain(("AS1", "AS2"), ("AS2", "AS1")), "$.links[1]", "repeats the link between 'AS2' and 'AS1'"),
        (
            _append("domains", 0, "hosts", value=_host("S1")),
            "$.domains[0].hosts[2].id",
            "duplicate 'S1', first declared at $.domains[0].switches[0]",
        ),
        (_set("domains", 0, "polices", value=[]), "$.domains[0].polices", "unknown field"),
        (_set("domains", 0, "switches", 0, "ports", value=4), "$.domains[0].switches[0].ports", "unknown field"),
        (_set("domains", 0, "hosts", 0, "vlan", value=10), "$.domains[0].hosts[0].vlan", "unknown field"),
        (_set("domains", 0, "handle_key", value=""), "$.domains[0].handle_key", "must be a non-empty string"),
        (
            _set("domains", 0, "hosts", 0, "ip", value="10.0.1.1"),
            "$.domains[0].hosts[0].ip",
            "10.0.1.1 lies outside the domain subnet 10.0.0.0/24",
        ),
        # Arabic-Indic "10": int() reads it, IPv4Address does not
        (
            _set("domains", 0, "hosts", 0, "ip", value="\u0661\u0660.0.0.1"),
            "$.domains[0].hosts[0].ip",
            "Only decimal digits permitted in '\u0661\u0660' in '\u0661\u0660.0.0.1'",
        ),
        (
            _second_domain(subnet="10.0.0.0/16"),
            "$.domains[1].subnet",
            "10.0.0.0/16 and 10.0.0.0/24 overlap; the other is at $.domains[0]",
        ),
        (
            _second_domain(subnet="10.0.0.128/25"),
            "$.domains[1].subnet",
            "10.0.0.0/24 and 10.0.0.128/25 overlap; the other is at $.domains[0]",
        ),
        (
            _second_domain(subnet="10.0.0.0/24"),
            "$.domains[1].subnet",
            "10.0.0.0/24 and 10.0.0.0/24 overlap; the other is at $.domains[0]",
        ),
        (
            _append("domains", 0, "switches", value={"id": "S1", "label": "SL1"}),
            "$.domains[0].switches[1].id",
            "duplicate 'S1', first declared at $.domains[0].switches[0]",
        ),
        (
            _second_domain(switches=[{"id": "2SW1", "label": "SL1"}, {"id": "S1", "label": "SL1"}]),
            "$.domains[1].switches[1].id",
            "duplicate 'S1', first declared at $.domains[0].switches[0]",
        ),
        (
            _append("domains", 0, "hosts", value=_host("a")),
            "$.domains[0].hosts[2].id",
            "duplicate 'a', first declared at $.domains[0].hosts[0]",
        ),
        (
            _append("domains", 0, "hosts", value=_host("c", ip="10.0.0.1")),
            "$.domains[0].hosts[2].ip",
            "duplicate '10.0.0.1', first declared at $.domains[0].hosts[0]",
        ),
        (_second_domain(id="AS1"), "$.domains[1].id", "duplicate 'AS1', first declared at $.domains[0]"),
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
def test_run_time_failures_are_rejected_at_parse(mutate, path, message):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(doc)
    assert caught.value.path == path
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "character", ["\n", "\r", "\t", "\x00", "\u2028"], ids=["newline", "return", "tab", "nul", "line-separator"]
)
@pytest.mark.parametrize(
    "keys, path",
    [
        (("hosts", 1), "$.domains[0].hosts[1].id"),
        (("switches", 0), "$.domains[0].switches[0].id"),
        ((), "$.domains[0].id"),
    ],
    ids=["host", "switch", "domain"],
)
def test_an_id_that_does_not_print_is_an_error(keys, path, character):
    # such a character would split a report row or a flow-dump line
    doc = minimal_doc()
    element = doc["domains"][0]
    for key in keys:
        element = element[key]
    element["id"] = f"{element['id']}{character}x"
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(doc)
    assert caught.value.path == path
    assert str(caught.value) == f"{path}: id {element['id']!r} holds a character that does not print"


@pytest.mark.parametrize("kind", ["Flood", "FLOOD", 5, None, True, ["flood"]])
def test_a_traffic_kind_other_than_flood_is_an_unknown_kind(kind):
    # kind is a known field: a wrong value is not reported as an unknown one
    doc = minimal_doc()
    doc["traffic"] = _flood()
    doc["traffic"][0]["kind"] = kind
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(doc)
    assert caught.value.path == "$.traffic[0].kind"
    assert str(caught.value) == (
        f"$.traffic[0].kind: unknown traffic kind {kind!r}; the one kind is 'flood' (a plain flow has none)"
    )


def filled_minimal():
    """``minimal`` with every optional object present, and a flood."""
    doc = json.loads(bundled_scenario_path("minimal").read_text())
    doc.update(
        capacity={"controller_rps": 400, "switches_per_controller": 1, "hosts_per_switch": 2},
        defense={"response": "throttle", "window_ticks": 1000},
        costs={"base": 1},
    )
    doc["domains"][0]["users"] = {"00:00:00:00:00:0a": "alice"}
    doc["traffic"].append({"kind": "flood", "at": 5, "from": "a", "to": "b", "rate": 2})
    return doc


# each field set of the reader -> the path of one object it checks in filled_minimal()
FIELD_SETS = {
    "_TOP_LEVEL_FIELDS": "$",
    "_CAPACITY_FIELDS": "$.capacity",
    "_DEFENSE_FIELDS": "$.defense",
    "_COST_FIELDS": "$.costs",
    "_DOMAIN_FIELDS": "$.domains[0]",
    "_SWITCH_FIELDS": "$.domains[0].switches[0]",
    "_HOST_FIELDS": "$.domains[0].hosts[0]",
    "_FLOW_FIELDS": "$.traffic[0]",
    "_FLOOD_FIELDS": "$.traffic[1]",
}


def reader_field_sets() -> dict[str, set[str]]:
    return {name: value for name, value in vars(scenario_module).items() if re.fullmatch(r"_[A-Z_]+_FIELDS", name)}


def test_every_field_set_is_checked_below():
    assert set(reader_field_sets()) == set(FIELD_SETS)
    parse_scenario(filled_minimal())


def object_at(doc: dict, path: str) -> dict:
    """The object of ``doc`` at a ``$.key[index]...`` path."""
    for key, index in re.findall(r"\.(\w+)(?:\[(\d+)\])?", path):
        doc = doc[key] if not index else doc[key][int(index)]
    return doc


@pytest.mark.parametrize(
    "path, field", [(path, field) for name, path in FIELD_SETS.items() for field in sorted(reader_field_sets()[name])]
)
def test_every_accepted_field_is_read(path, field):
    # a field the reader accepts but never reads would take null silently
    doc = filled_minimal()
    object_at(doc, path)[field] = None
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(doc)
    assert caught.value.path == f"{path}.{field}"

