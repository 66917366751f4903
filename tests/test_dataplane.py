import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import ScanTable, ip, match_hits, scan_lookup
from sdnsec.dataplane import (
    ActionKind,
    FlowMatch,
    FlowRule,
    Packet,
    Switch,
    flow_dump,
    format_flow_dump,
    install_batch,
)


def make_packet(**overrides):
    defaults = dict(
        src_ip=ip("10.0.0.2"),
        dst_ip=ip("10.0.0.9"),
        src_mac="00:00:00:00:00:01",
        dst_mac="00:00:00:00:00:09",
        ip_proto="tcp",
        service_port=80,
        packet_type="HTTP",
    )
    defaults.update(overrides)
    return Packet(**defaults)


def make_switch(**kwargs):
    return Switch("SW1", **kwargs)


def forward(priority, next_hop, **match):
    return FlowRule(FlowMatch(**match), ActionKind.FORWARD, priority, next_hop=next_hop)


def test_empty_table_is_packet_in():
    assert make_switch().lookup(make_packet()) is None


def test_installed_rule_forwards():
    sw = make_switch()
    sw.attach("peer-a")
    sw.attach("peer-b")
    rule = forward(100, "peer-b", packet_type="HTTP")
    sw.install(rule)
    assert sw.lookup(make_packet()) is rule
    assert sw.ports[rule.next_hop] == 2
    assert format_flow_dump(sw).endswith(" action=FORWARD:2\n")


def test_forward_rule_toward_an_unattached_node_is_refused():
    sw = make_switch()
    sw.attach("peer")
    sw.install(forward(100, "peer", service_port=80))
    before = format_flow_dump(sw)
    with pytest.raises(ValueError, match="SW1 has no port toward stranger"):
        install_batch({"SW1": sw}, [("SW1", forward(200, "stranger", service_port=80))])
    with pytest.raises(ValueError, match="SW1 has no port toward stranger"):
        install_batch({"SW1": sw}, [("SW1", forward(100, "stranger", service_port=443))])
    assert format_flow_dump(sw) == before
    assert len(sw.table) == 1


def test_a_batch_with_a_rule_toward_an_unattached_node_writes_nothing():
    sw = make_switch()
    sw.attach("peer")
    before = format_flow_dump(sw)
    batch = [("SW1", forward(100, "peer", service_port=80)), ("SW1", forward(100, "stranger", service_port=443))]
    with pytest.raises(ValueError, match="SW1 has no port toward stranger"):
        install_batch({"SW1": sw}, batch)
    assert len(sw.table) == 0
    assert format_flow_dump(sw) == before


def test_drop_consumes_silently():
    sw = make_switch()
    block = FlowRule(FlowMatch(src_ip=ip("10.0.0.2")), ActionKind.DROP, 200)
    sw.install(block)
    assert sw.lookup(make_packet()) is block


def test_block_rule_stops_packet_ins():
    sw = make_switch()
    block = FlowRule(FlowMatch(src_ip=ip("10.0.0.2")), ActionKind.DROP, 200)
    sw.install(block)
    for port in range(2000, 2050):
        assert sw.lookup(make_packet(service_port=port)) is block
    assert flow_dump(sw) == [block]


def test_priority_wins_over_insertion_order():
    sw = make_switch()
    sw.attach("low")
    sw.attach("high")
    sw.install(forward(10, "low"))
    high = forward(50, "high", packet_type="HTTP")
    sw.install(high)
    assert sw.lookup(make_packet()) is high
    assert sw.ports[high.next_hop] == 2


def test_reinstall_same_rule_is_idempotent():
    sw = make_switch()
    sw.attach("peer")
    rule = forward(100, "peer", packet_type="HTTP")
    sw.install(rule)
    sw.install(forward(100, "peer", packet_type="HTTP"))
    assert len(flow_dump(sw)) == 1


def test_higher_priority_replaces_identical_match():
    sw = make_switch()
    sw.attach("peer")
    sw.install(forward(100, "peer", packet_type="HTTP"))
    replacement = forward(150, "peer", packet_type="HTTP")
    sw.install(replacement)
    assert flow_dump(sw) == [replacement]
    assert sw.lookup(make_packet()) is replacement


def test_table_capacity_surfaces_error():
    sw = make_switch(capacity=2)
    sw.attach("peer")
    switches = {"SW1": sw}
    for port in (1, 2):
        assert install_batch(switches, [("SW1", forward(1, "peer", service_port=port))])
    # a match already installed takes no new entry
    assert install_batch(switches, [("SW1", forward(1, "peer", service_port=port)) for port in (1, 2)])
    before = flow_dump(sw)
    assert not install_batch(switches, [("SW1", forward(1, "peer", service_port=port)) for port in (1, 3)])
    assert not install_batch(switches, [("SW1", forward(1, "peer", service_port=3))])
    assert flow_dump(sw) == before
    assert len(sw.table) == 2


def test_a_batch_that_overflows_one_switch_writes_on_no_switch():
    first, second = Switch("SW1"), Switch("SW2", capacity=1)
    for sw in (first, second):
        sw.attach("peer")
        sw.install(forward(100, "peer", service_port=1))
    before = flow_dump(first)
    batch = [
        # a new match and a replacement on the switch with room, then a
        # new match on the full one
        ("SW1", forward(100, "peer", service_port=2)),
        ("SW1", forward(200, "peer", service_port=1)),
        ("SW2", forward(100, "peer", service_port=2)),
    ]
    assert not install_batch({"SW1": first, "SW2": second}, batch)
    assert flow_dump(first) == before
    assert len(first.table) == 1
    assert len(second.table) == 1


def test_a_match_named_twice_on_one_switch_takes_one_entry():
    sw = make_switch(capacity=2)
    sw.attach("peer")
    sw.install(forward(100, "peer", service_port=1))
    twice = [("SW1", forward(priority, "peer", service_port=2)) for priority in (100, 200)]
    assert install_batch({"SW1": sw}, twice)
    assert len(sw.table) == len(flow_dump(sw)) == 2
    assert sw.lookup(make_packet(service_port=2)) is twice[1][1]


def test_dump_is_priority_then_insertion_ordered():
    sw = make_switch()
    sw.attach("peer")
    a = forward(100, "peer", packet_type="HTTP")
    b = forward(100, "peer", packet_type="FTP")
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
        sw.install(forward(100, "peer", service_port=port))
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
            src_ip=rng.choice((None, ip("10.0.0.2"), ip("10.0.0.3"))),
        )
        action = rng.choice((ActionKind.FORWARD, ActionKind.DROP))
        rule = FlowRule(match, action, rng.randrange(0, 300), next_hop="peer" if action == ActionKind.FORWARD else None)
        sw.install(rule)
    snapshot = flow_dump(sw)

    def oracle(packet):
        best = None
        for rule in snapshot:  # snapshot is priority-desc, insertion-stable
            if match_hits(rule.match, packet):
                if best is None or rule.priority > best.priority:
                    best = rule
        return best

    for trial in range(200):
        packet = make_packet(
            service_port=rng.choice((80, 443, 21, 9999)),
            packet_type=rng.choice(("HTTP", "FTP", "SYN", "HTTPS")),
            src_ip=rng.choice((ip("10.0.0.2"), ip("10.0.0.3"))),
        )
        assert sw.lookup(packet) is oracle(packet)


ADDRESSES = (ip("10.0.0.2"), ip("10.0.0.3"))
MAC = "00:00:00:00:00:01"


def maybe(values):
    return st.one_of(st.none(), st.sampled_from(values))


# a match fixes any subset of the fields, so the masks vary from the empty
# one (matches everything) to all seven; MAC fields take one value, so they
# change the mask without changing which packets match
MATCHES = st.builds(
    FlowMatch,
    src_ip=maybe(ADDRESSES),
    dst_ip=maybe(ADDRESSES),
    src_mac=maybe((MAC,)),
    dst_mac=maybe((MAC,)),
    ip_proto=maybe(("tcp", "udp")),
    service_port=maybe((80, 443)),
    packet_type=maybe(("HTTP", "SYN")),
)
PACKETS = st.builds(
    Packet,
    src_ip=st.sampled_from(ADDRESSES),
    dst_ip=st.sampled_from(ADDRESSES),
    src_mac=st.just(MAC),
    dst_mac=st.just(MAC),
    ip_proto=st.sampled_from(("tcp", "udp")),
    service_port=st.sampled_from((80, 443)),
    packet_type=st.sampled_from(("HTTP", "SYN")),
)


@st.composite
def table_programs(draw):
    """A capacity and a sequence of installs and packets.  Installs draw
    from a small pool of matches at three priorities, so re-installs at
    equal, higher and lower priority and full tables all occur."""
    pool = draw(st.lists(MATCHES, min_size=1, max_size=6))
    installs = st.tuples(
        st.just("install"),
        st.sampled_from(pool),
        st.sampled_from((10, 100, 200)),
        st.sampled_from((ActionKind.FORWARD, ActionKind.DROP, ActionKind.TO_CONTROLLER)),
    )
    packets = st.tuples(st.just("packet"), PACKETS)
    return draw(st.integers(1, 6)), draw(st.lists(st.one_of(installs, packets), max_size=40))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table_programs())
def test_tuple_space_agrees_with_the_priority_scan(program):
    capacity, ops = program
    sw = make_switch(capacity=capacity)
    sw.attach("peer")
    reference = ScanTable(capacity)
    for op in ops:
        if op[0] == "install":
            _, match, priority, action = op
            rule = FlowRule(match, action, priority, next_hop="peer" if action == ActionKind.FORWARD else None)
            # the switch refuses a new match beyond capacity as the reference does
            assert install_batch({"SW1": sw}, [("SW1", rule)]) is reference.install(rule)
            # the same rules in the same order
            assert flow_dump(sw) == reference.rules
            assert len(sw.table) == len(reference.rules)
        else:
            _, packet = op
            expected = scan_lookup(reference.rules, packet)
            found = sw.lookup(packet)
            assert found is scan_lookup(flow_dump(sw), packet)
            assert found is expected


SWITCH_IDS = ("SW1", "SW2")


@st.composite
def batch_programs(draw):
    """Both switches' capacities and a sequence of batches, each of 1-6
    rules over the two switches.  The rules draw from a pool of at most
    four matches at three priorities, so batches name installed matches,
    name one match twice and fill the tables."""
    pool = draw(st.lists(MATCHES, min_size=1, max_size=4))
    rules = st.tuples(
        st.sampled_from(SWITCH_IDS),
        st.sampled_from(pool),
        st.sampled_from((10, 100, 200)),
        st.sampled_from((ActionKind.FORWARD, ActionKind.DROP)),
    )
    capacities = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    return capacities, draw(st.lists(st.lists(rules, min_size=1, max_size=6), min_size=1, max_size=8))


def reference_batch(tables: dict[str, ScanTable], batch: list[tuple[str, FlowRule]]) -> bool:
    """The batch applied all or nothing: only if, on every switch, the
    distinct matches the table lacks fit in the room it has left."""
    for switch_id, table in tables.items():
        installed = [rule.match for rule in table.rules]
        new = {rule.match for s, rule in batch if s == switch_id and rule.match not in installed}
        if len(table.rules) + len(new) > table.capacity:
            return False
    for switch_id, rule in batch:
        assert tables[switch_id].install(rule)
    return True


_PORT_80, _PORT_443, _SYN = FlowMatch(service_port=80), FlowMatch(service_port=443), FlowMatch(packet_type="SYN")


def _rules(*names):
    return [(switch_id, match, 100, ActionKind.FORWARD) for switch_id, match in names]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(batch_programs())
# a batch that lands exactly at capacity fits, and one past it does not
@example(((2, 6), [_rules(("SW1", _PORT_80), ("SW1", _PORT_443))]))
@example(((2, 6), [_rules(("SW1", _PORT_80), ("SW1", _PORT_443), ("SW1", _SYN))]))
# one past capacity by its rule count, but naming an installed match
@example(((2, 6), [_rules(("SW1", _PORT_80)), _rules(("SW1", _PORT_80), ("SW1", _PORT_443))]))
# one past capacity by its rule count, but naming one match twice
@example(((1, 6), [[("SW1", _PORT_80, 100, ActionKind.FORWARD), ("SW1", _PORT_80, 200, ActionKind.DROP)]]))
# room on one switch and none on the other writes on neither
@example(((6, 1), [_rules(("SW1", _PORT_80), ("SW2", _PORT_80), ("SW2", _SYN))]))
def test_a_batch_is_written_whole_exactly_when_its_new_matches_fit(program):
    capacities, batches = program
    switches = {switch_id: Switch(switch_id, capacity) for switch_id, capacity in zip(SWITCH_IDS, capacities)}
    references = {switch_id: ScanTable(capacity) for switch_id, capacity in zip(SWITCH_IDS, capacities)}
    for sw in switches.values():
        sw.attach("peer")
    for drawn in batches:
        batch = [
            (switch_id, FlowRule(match, action, priority, "peer" if action == ActionKind.FORWARD else None))
            for switch_id, match, priority, action in drawn
        ]
        assert install_batch(switches, batch) is reference_batch(references, batch)
        for switch_id, sw in switches.items():
            assert flow_dump(sw) == references[switch_id].rules
            assert len(sw.table) == len(references[switch_id].rules)
