import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sdnsec import controller
from sdnsec.controller import DropReason, synthesize_rules
from sdnsec.dataplane import FLOW_RULE_PRIORITY, ActionKind, Packet
from sdnsec.defense import ResponseMode
from sdnsec.interdomain import DomainKey, extend_handle, forward_ptt
from sdnsec.labels import LabelWindow, parse_label_constraint
from sdnsec.policy import Action, Constraint, ConstraintKind, PolicyExpression, PolicyIndex
from sdnsec.scenario import bundled_scenario_path, load_scenario, parse_scenario
from sdnsec.simulation import Simulation, build_world
from sdnsec.topology import find_as_paths, find_switch_path

from helpers import egress_hop, ip
from test_golden import CASES as GOLDEN_CASES, MODES, _run as run_golden_case
from test_golden_drops import CASES as DROP_CASES, _run as run_drop_case
from test_workloads import WORKLOADS


def make_packet(src="10.0.0.2", dst="192.168.52.72", port=443, ptype="HTTPS"):
    return Packet(
        src_ip=ip(src),
        dst_ip=ip(dst),
        src_mac="00:00:00:00:00:01",
        dst_mac="00:00:00:00:01:01",
        ip_proto="tcp",
        service_port=port,
        packet_type=ptype,
    )


@pytest.fixture
def transit_world():
    return build_world(load_scenario(bundled_scenario_path("four_domain_transit")))


def test_synthesize_batch_is_twice_path_length():
    packet = make_packet()
    for k in range(1, 7):
        path = tuple(f"SW{i}" for i in range(k))
        installs = synthesize_rules(path, packet, final_peer="dst", entry_peer="src")
        assert len(installs) == 2 * k


def test_synthesized_rules_match_flow_tuple_and_reverse():
    packet = make_packet()
    installs = synthesize_rules(("SW1", "SW2"), packet, final_peer="dst", entry_peer="src")
    forward = [rule for _, rule in installs if rule.match.src_ip == packet.src_ip]
    reverse = [rule for _, rule in installs if rule.match.src_ip == packet.dst_ip]
    assert len(forward) == len(reverse) == 2
    for rule in forward + reverse:
        assert rule.action == ActionKind.FORWARD
        assert rule.match.service_port == packet.service_port


def test_synthesized_batch_is_pinned_rule_by_rule():
    # forward rules in path order, then return rules in path order: install
    # order orders a switch's flow rules in its flow dump
    packet = make_packet()
    ptt = forward_ptt(None, packet.flow_id, (Constraint(ConstraintKind.RATE_THRESHOLD, rate=3),), DomainKey(b"k"))
    handle = extend_handle(None, packet.flow_id, "AS1", ptt, DomainKey(b"k"))
    profile = frozenset({"ids", "fw"})
    installs = synthesize_rules(
        ("S1", "S2", "S3"),
        packet,
        final_peer="dst",
        entry_peer="src",
        sec_profile=profile,
        handle_out=handle,
    )
    forward = (packet.src_ip, packet.dst_ip)
    reverse = (packet.dst_ip, packet.src_ip)
    assert [(s, (r.match.src_ip, r.match.dst_ip), r.next_hop) for s, r in installs] == [
        ("S1", forward, "S2"),
        ("S2", forward, "S3"),
        ("S3", forward, "dst"),
        ("S1", reverse, "src"),
        ("S2", reverse, "S1"),
        ("S3", reverse, "S2"),
    ]
    assert [r.handle for _, r in installs] == [None] * 2 + [handle] + [None] * 3
    assert handle.ptt == ptt
    for _, rule in installs:
        assert (rule.action, rule.match.priority) == (ActionKind.FORWARD, FLOW_RULE_PRIORITY)
        assert rule.sec_profile_tags == profile
        assert (rule.match.ip_proto, rule.match.service_port, rule.match.packet_type) == ("tcp", 443, "HTTPS")
        assert (rule.match.src_mac, rule.match.dst_mac) == (None, None)
    with pytest.raises(ValueError):
        synthesize_rules((), packet, final_peer="dst", entry_peer="src")


def test_empty_repository_is_default_deny(transit_world):
    ctrl = transit_world.controllers["AS1"]
    ctrl.policy_repo = []
    result = ctrl.handle_packet_in(make_packet(), "S1A", "X", 0)
    assert result.installs == ()
    assert result.reason == DropReason.POLICY


def test_admitted_flow_installs_and_pins_exit(transit_world):
    ctrl = transit_world.controllers["AS1"]
    result = ctrl.handle_packet_in(make_packet(), "S1A", "X", 0)
    assert ctrl.events[-1].matched_pe == "1"
    # the pinned exit's forward rule leads into AS2 and carries the credential
    gateway, peer, rule = egress_hop(transit_world, result.installs)
    assert (gateway, peer) == ("1SW2", "2SW1")
    assert rule.handle.visited == ("AS1",)
    assert [str(c) for c in rule.handle.ptt.constraints] == ["SL2+="]


def test_every_batch_names_its_decision(transit_world):
    ctrl = transit_world.controllers["AS1"]
    result = ctrl.handle_packet_in(make_packet(), "S1A", "X", 0)
    assert result.provenance == "1"
    assert all(rule.match.priority > 10 for _, rule in result.installs)


def test_no_flow_mod_for_denied_context(transit_world):
    ctrl = transit_world.controllers["AS1"]
    result = ctrl.handle_packet_in(make_packet(port=22, ptype="SSH"), "S1A", "X", 0)
    assert result.installs == ()
    assert result.reason == DropReason.POLICY


def test_unknown_destination_is_dropped(transit_world):
    # an allow that matches any flow, so the drop is the route check's
    ctrl = transit_world.controllers["AS1"]
    ctrl.policy_repo = PolicyIndex([PolicyExpression(id="any", action=Action.ALLOW)])
    result = ctrl.handle_packet_in(make_packet(dst="198.18.0.1"), "S1A", "X", 0)
    assert result.installs == ()
    assert result.reason == DropReason.NO_ROUTE


def test_tampered_handle_dropped_in_pipeline(transit_world):
    ctrl = transit_world.controllers["AS2"]
    packet = make_packet()
    forged = extend_handle(None, packet.flow_id, "AS1", None, DomainKey(b"wrong-key"))
    result = ctrl.handle_packet_in(packet, "2SW1", "1SW2", 0, handle=forged)
    assert result.installs == ()
    assert result.reason == DropReason.HANDLE_INVALID


def test_baseline_mode_allows_everything(transit_world):
    ctrl = transit_world.controllers["AS1"]
    ctrl.enforcement_enabled = False
    result = ctrl.handle_packet_in(make_packet(port=22, ptype="SSH"), "S1A", "X", 0)
    assert result.provenance == "baseline"
    assert ctrl.events[-1].matched_pe == "baseline"


def test_enforcement_latency_exceeds_baseline(transit_world):
    ctrl = transit_world.controllers["AS1"]
    enforced = ctrl.handle_packet_in(make_packet(), "S1A", "X", 0).service_ticks
    ctrl.enforcement_enabled = False
    without = ctrl.handle_packet_in(make_packet(port=80, ptype="HTTP"), "S1A", "X", 0).service_ticks
    assert enforced > without


def test_event_log_records_each_packet_in(transit_world):
    ctrl = transit_world.controllers["AS1"]
    ctrl.handle_packet_in(make_packet(), "S1A", "X", 0)
    ctrl.handle_packet_in(make_packet(port=22, ptype="SSH"), "S1A", "X", 5)
    assert len(ctrl.events) == 2
    assert ctrl.events[0].verdict == "install"
    assert ctrl.events[0].matched_pe == "1"
    assert ctrl.events[1].verdict == "drop"
    assert ctrl.events[1].service_ticks > 0


def test_block_rule_is_emitted_once_per_offender():
    # Thost = 100: the 101st request blocks the attacker; the requests that
    # reach the controller before the block rule is in place are dropped
    # again without a second rule
    scenario = replace(load_scenario(bundled_scenario_path("flood_single_domain")), defense_response=ResponseMode.DROP_RULE)
    ctrl = build_world(scenario).controllers["AS1"]
    results = [
        ctrl.handle_packet_in(make_packet("10.9.0.66", "10.9.0.80", 20000 + i, "SYN"), "S1", "attacker", i)
        for i in range(103)
    ]
    blocked = [result for result in results if result.reason == DropReason.DEFENSE_BLOCKED]
    assert [result.installs != () for result in blocked] == [True, False, False]
    assert ctrl.monitor.blocked == {ip("10.9.0.66")}


def _label_path(token: str) -> Constraint:
    return Constraint(ConstraintKind.LABEL_PATH, label=parse_label_constraint(token))


def _from_as1(world, packet, ptt_key: DomainKey, *constraints):
    """A packet-in at AS2 carrying a valid AS1 handle and a token over
    ``constraints`` tagged under ``ptt_key``."""
    ptt = forward_ptt(None, packet.flow_id, constraints, ptt_key)
    handle = extend_handle(None, packet.flow_id, "AS1", ptt, world.controllers["AS1"].handle_key)
    return world.controllers["AS2"].handle_packet_in(packet, "2SW1", "1SW2", 0, handle=handle)


def test_forged_token_drops_the_flow(transit_world):
    ctrl = transit_world.controllers["AS2"]
    result = _from_as1(transit_world, make_packet(), DomainKey(b"wrong-key"), _label_path("SL2+="))
    assert [(e.verdict, e.reason, e.matched_pe) for e in ctrl.events] == [
        ("drop", "HANDLE_INVALID", None),
    ]
    assert result.installs == ()


def test_delegated_packet_predicate_that_fails_drops_policy(transit_world):
    ctrl = transit_world.controllers["AS2"]
    as1_key = transit_world.controllers["AS1"].handle_key
    http_only = Constraint(ConstraintKind.PACKET_ATTR, attr="type", value="HTTP")
    result = _from_as1(transit_world, make_packet(), as1_key, http_only)
    assert result.installs == ()
    assert result.reason == DropReason.POLICY
    assert ctrl.events[-1].matched_pe == "4"


CONSTRAINTS = st.one_of(
    st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4).map(
        lambda rate: Constraint(ConstraintKind.RATE_THRESHOLD, rate=rate)
    ),
    st.sampled_from(
        [
            _label_path("SL2+="),
            Constraint(ConstraintKind.PACKET_ATTR, attr="type", value="HTTP"),
            Constraint(ConstraintKind.SIGNATURE, signature="scan"),
        ]
    ),
)
CONSTRAINT_TUPLES = st.lists(CONSTRAINTS, max_size=3).map(tuple)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(delegated=CONSTRAINT_TUPLES, flow_cons=CONSTRAINT_TUPLES, dom_cons=CONSTRAINT_TUPLES)
def test_rate_check_admits_by_the_tightest_budget_of_token_and_winner(delegated, flow_cons, dom_cons):
    # the budget is the least rate among the token's and the winner's
    # constraints joined, and one window admits its whole part of flows
    ctrl = build_world(load_scenario(bundled_scenario_path("minimal"))).controllers["AS1"]
    winner = PolicyExpression(id="w", action=Action.ALLOW, flow_cons=flow_cons, dom_cons=dom_cons)
    joined = [c.rate for c in delegated + winner.constraints if c.kind is ConstraintKind.RATE_THRESHOLD]
    offered = 8
    admitted = min(offered, math.floor(min(joined))) if joined else offered
    decisions = [ctrl._rate_admits(ip("10.0.0.1"), delegated, winner.rates, 0) for _ in range(offered)]
    assert decisions == [True] * admitted + [False] * (offered - admitted)


def _as1_with_policy_1(world, **changes):
    ctrl = world.controllers["AS1"]
    [pe] = world.scenario.domain("AS1").policies
    ctrl.policy_repo = [replace(pe, **changes)]
    return ctrl


def test_unsatisfiable_own_constraints_deny(transit_world):
    # SL1 exactly, with the SL2+= domain constraint: the allow wins selection,
    # and its own empty window is a policy drop that names it
    ctrl = _as1_with_policy_1(transit_world, flow_cons=(_label_path("SL1"),))
    result = ctrl.handle_packet_in(make_packet(), "S1A", "X", 0)
    assert result.installs == ()
    assert result.reason == DropReason.POLICY
    events = [(e.verdict, e.reason, e.matched_pe) for e in ctrl.events]
    assert events == [("drop", DropReason.POLICY, "1")]


def test_pinned_exit_into_a_domain_outside_the_window_has_no_path(transit_world):
    # SL2 exactly, with the SL2+= domain constraint: AS2 behind 1SW2 is SL3
    ctrl = _as1_with_policy_1(transit_world, flow_cons=(_label_path("SL2"),))
    result = ctrl.handle_packet_in(make_packet(), "S1A", "X", 0)
    assert result.reason == DropReason.NO_SATISFYING_PATH
    assert ctrl.events[-1].matched_pe == "1"


def test_pinned_exit_that_is_not_a_gateway_has_no_path(transit_world):
    ctrl = _as1_with_policy_1(transit_world, action_exit="S1A")
    result = ctrl.handle_packet_in(make_packet(), "S1A", "X", 0)
    assert result.reason == DropReason.NO_SATISFYING_PATH
    assert ctrl.events[-1].matched_pe == "1"


def test_a_route_is_searched_once_and_charged_on_every_packet_in(transit_world, monkeypatch):
    searches = Counter()
    for name in ("find_as_paths", "find_switch_path"):

        def counted(*args, _original=getattr(controller, name), _name=name, **kwargs):
            searches[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(controller, name, counted)
    # with no pinned exit the domain route is searched as well
    ctrl = _as1_with_policy_1(transit_world, action_exit=None)
    first, again = (ctrl.handle_packet_in(make_packet(), "S1A", "X", tick) for tick in (0, 1))
    assert first.installs == again.installs and first.installs != ()
    assert first.service_ticks == again.service_ticks
    assert searches == {"find_as_paths": 1, "find_switch_path": 1}
    # AS3 is SL2, so no domain route satisfies SL3+=; the miss is kept too
    ctrl = _as1_with_policy_1(transit_world, action_exit=None, flow_cons=(_label_path("SL3+="),))
    reasons = [ctrl.handle_packet_in(make_packet(), "S1A", "X", tick).reason for tick in (2, 3)]
    assert reasons == [DropReason.NO_SATISFYING_PATH] * 2
    assert searches == {"find_as_paths": 2, "find_switch_path": 1}
    window = parse_label_constraint("SL3+=")
    assert ctrl._next_domains[("AS4", window.lo, window.hi)] is None


def _workload_run(case: str):
    name, mode = case.split("/")
    document, _ = WORKLOADS[name](1)
    parsed = parse_scenario(json.loads(json.dumps(document, sort_keys=True)))
    world = build_world(replace(parsed, mode=mode), parsed.costs)
    return world, Simulation(world).run()


RUNS = {"golden": run_golden_case, "drops": run_drop_case, "workload": _workload_run}
MEMO_CASES = [
    *(f"golden:{case}" for case in GOLDEN_CASES),
    *(f"drops:{case}" for case in DROP_CASES),
    *(f"workload:{name}/{mode}" for name in sorted(WORKLOADS) for mode in MODES),
]


@pytest.mark.parametrize("case", MEMO_CASES)
def test_every_memoized_route_is_what_a_fresh_search_returns(case):
    source, _, name = case.partition(":")
    world, _ = RUNS[source](name)
    for ctrl in world.controllers.values():
        # a memo keys a label window by its two bounds
        for (dst_domain, lo, hi), next_as in ctrl._next_domains.items():
            paths = find_as_paths(ctrl.as_graph, ctrl.as_id, dst_domain, LabelWindow(lo, hi))
            assert next_as == (paths[0][1] if paths else None), (ctrl.as_id, dst_domain, lo, hi)
        for key, path in ctrl._switch_paths.items():
            ingress, egress, required, lo, hi = key
            fresh = find_switch_path(ctrl.intra, ingress, egress, required=required, constraint=LabelWindow(lo, hi))
            assert path == fresh, (ctrl.as_id, key)
        # an installed flow took its switch path from the memo
        if any(event.verdict == "install" for event in ctrl.events):
            assert ctrl._switch_paths
