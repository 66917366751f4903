import random
from dataclasses import replace
from ipaddress import IPv4Address

import pytest

from sdnsec.labels import SecurityLabel
from sdnsec.dataplane import (
    ActionKind,
    FlowMatch,
    FlowRule,
    Packet,
    Switch,
    TableFullError,
    flow_dump,
    format_flow_dump,
)


def make_packet(**overrides):
    defaults = dict(
        src_ip=IPv4Address("10.0.0.2"),
        dst_ip=IPv4Address("10.0.0.9"),
        src_mac="00:00:00:00:00:01",
        dst_mac="00:00:00:00:00:09",
        ip_proto="tcp",
        service_port=80,
        packet_type="HTTP",
    )
    defaults.update(overrides)
    return Packet(**defaults)


def make_switch(**kwargs):
    return Switch("SW1", SecurityLabel(2), **kwargs)


def forward(priority, port, **match):
    return FlowRule(FlowMatch(**match), ActionKind.FORWARD, priority, out_port=port)


def test_empty_table_is_packet_in():
    sw = make_switch()
    outcome = sw.process_packet(make_packet())
    assert outcome.kind == "packet_in"
    assert sw.stats.packet_ins == 1


def test_installed_rule_forwards():
    sw = make_switch()
    sw.attach("peer-a")
    sw.attach("peer-b")
    sw.install(forward(100, 2, packet_type="HTTP"))
    outcome = sw.process_packet(make_packet())
    assert outcome.kind == "forwarded"
    assert outcome.rule.out_port == 2
    assert outcome.peer == "peer-b"


def test_drop_consumes_silently():
    sw = make_switch()
    sw.install(FlowRule(FlowMatch(src_ip=IPv4Address("10.0.0.2")), ActionKind.DROP, 200))
    outcome = sw.process_packet(make_packet())
    assert outcome.kind == "dropped"
    assert sw.stats.dropped == 1
    assert sw.stats.packet_ins == 0


def test_block_rule_stops_packet_ins():
    sw = make_switch()
    sw.install(FlowRule(FlowMatch(src_ip=IPv4Address("10.0.0.2")), ActionKind.DROP, 200))
    for port in range(2000, 2050):
        assert sw.process_packet(make_packet(service_port=port)).kind == "dropped"
    assert sw.stats.packet_ins == 0


def test_priority_wins_over_insertion_order():
    sw = make_switch()
    sw.attach("low")
    sw.attach("high")
    sw.install(forward(10, 1))
    sw.install(forward(50, 2, packet_type="HTTP"))
    outcome = sw.process_packet(make_packet())
    assert outcome.rule.out_port == 2
    assert outcome.peer == "high"


def test_reinstall_same_rule_is_idempotent():
    sw = make_switch()
    sw.attach("peer")
    rule = forward(100, 1, packet_type="HTTP")
    sw.install(rule)
    sw.install(forward(100, 1, packet_type="HTTP"))
    assert len(sw.table) == 1


def test_higher_priority_replaces_identical_match():
    sw = make_switch()
    sw.attach("peer")
    sw.install(forward(100, 1, packet_type="HTTP"))
    sw.process_packet(make_packet())
    sw.install(forward(150, 1, packet_type="HTTP"))
    assert len(sw.table) == 1
    assert sw.table[0].priority == 150
    # counters survive the replacement so accounting stays exact
    assert sw.table[0].packets == 1


def test_table_capacity_surfaces_error():
    sw = make_switch(capacity=2)
    sw.attach("peer")
    sw.install(forward(1, 1, service_port=1))
    sw.install(forward(1, 1, service_port=2))
    # a match already installed takes no new entry
    assert sw.room_for({FlowMatch(service_port=1), FlowMatch(service_port=2)})
    assert not sw.room_for({FlowMatch(service_port=1), FlowMatch(service_port=3)})
    with pytest.raises(TableFullError):
        sw.install(forward(1, 1, service_port=3))


def test_dump_is_priority_then_insertion_ordered():
    sw = make_switch()
    sw.attach("peer")
    a = forward(100, 1, packet_type="HTTP")
    b = forward(100, 1, packet_type="FTP")
    c = FlowRule(FlowMatch(packet_type="ARP"), ActionKind.TO_CONTROLLER, 10)
    sw.install(a)
    sw.install(b)
    sw.install(c)
    assert flow_dump(sw) == [a, b, c]
    text = format_flow_dump(sw)
    assert text.splitlines()[0].startswith("priority=100")
    assert text.splitlines()[-1].endswith("action=TO_CONTROLLER")


def test_fresh_switch_dump_empty():
    assert flow_dump(make_switch()) == []
    assert format_flow_dump(make_switch()) == ""


def test_dump_counts_distinct_installs():
    sw = make_switch()
    sw.attach("peer")
    for port in range(1, 26):
        sw.install(forward(100, 1, service_port=port))
    assert len(flow_dump(sw)) == 25


def test_outcomes_match_linear_scan_oracle():
    rng = random.Random(1234)
    sw = make_switch(capacity=100)
    sw.attach("peer")
    rules = []
    for i in range(50):
        match = FlowMatch(
            service_port=rng.choice((None, 80, 443, 21)),
            packet_type=rng.choice((None, "HTTP", "FTP", "SYN")),
            src_ip=rng.choice((None, IPv4Address("10.0.0.2"), IPv4Address("10.0.0.3"))),
        )
        action = rng.choice((ActionKind.FORWARD, ActionKind.DROP))
        rule = FlowRule(match, action, rng.randrange(0, 300), out_port=1 if action == ActionKind.FORWARD else None)
        try:
            sw.install(rule)
        except TableFullError:
            break
    snapshot = flow_dump(sw)

    def oracle(packet):
        best = None
        for rule in snapshot:  # snapshot is priority-desc, insertion-stable
            if rule.match.matches(packet, None):
                if best is None or rule.priority > best.priority:
                    best = rule
        return best

    for trial in range(200):
        packet = make_packet(
            service_port=rng.choice((80, 443, 21, 9999)),
            packet_type=rng.choice(("HTTP", "FTP", "SYN", "HTTPS")),
            src_ip=rng.choice((IPv4Address("10.0.0.2"), IPv4Address("10.0.0.3"))),
        )
        expected = oracle(packet)
        outcome = sw.process_packet(packet)
        if expected is None:
            assert outcome.kind == "packet_in"
        elif expected.action == ActionKind.DROP:
            assert outcome.kind == "dropped"
            assert outcome.rule.priority == expected.priority
        else:
            assert outcome.kind == "forwarded"
            assert outcome.rule.priority == expected.priority


def test_counters_are_exact():
    rng = random.Random(7)
    sw = make_switch()
    sw.attach("peer")
    sw.install(forward(100, 1, packet_type="HTTP"))
    sw.install(FlowRule(FlowMatch(packet_type="SYN"), ActionKind.DROP, 100))
    offered = 0
    for _ in range(300):
        packet = make_packet(packet_type=rng.choice(("HTTP", "SYN", "FTP")), service_port=rng.randrange(1, 500))
        sw.process_packet(packet)
        offered += 1
    rule_hits = sum(rule.packets for rule in sw.table)
    # every offered packet either hit a rule or raised a packet-in
    assert rule_hits + sw.stats.packet_ins == offered
    assert sw.stats.offered == offered
