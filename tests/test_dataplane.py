import random
from operator import attrgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import ScanTable, ip, match_hits, records_digest, scan_lookup
from test_golden import CASES
from test_workloads import WORKLOADS, case_world
from sdnsec.dataplane import (
    ARP_RULE,
    ARP_RULE_PRIORITY,
    BLOCK_RULE_PRIORITY,
    FLOW_RULE_PRIORITY,
    FlowMatch,
    FlowRule,
    Packet,
    Switch,
    flow_dump,
    format_flow_dump,
    install_batch,
)
from sdnsec.simulation import Simulation


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


FLOW_FIELDS = ("src_ip", "dst_ip", "ip_proto", "service_port", "packet_type")


# matches and rules of the program's three shapes, each a priority and a
# key: a flow's match (here the flow of make_packet(**fields)), the ARP
# match and a defense block on a source address
def flow_match(**fields):
    packet = make_packet(**fields)
    return FlowMatch(FLOW_RULE_PRIORITY, tuple(getattr(packet, name) for name in FLOW_FIELDS))


def flow_rule(next_hop="peer", **fields):
    return FlowRule(flow_match(**fields), next_hop)


def block_rule(src_ip=ip("10.0.0.2")):
    return FlowRule(FlowMatch(BLOCK_RULE_PRIORITY, src_ip))


def shaped_rule(match):
    """A new rule for ``match``, as its shape has it: a flow match's forwards
    to ``peer``, a block or ARP match's names no next hop."""
    return FlowRule(match, "peer" if match.priority == FLOW_RULE_PRIORITY else None)


def test_empty_table_is_packet_in():
    assert make_switch().lookup(make_packet()) is None


def test_installed_rule_forwards():
    sw = make_switch()
    sw.attach("peer-a")
    sw.attach("peer-b")
    rule = flow_rule(next_hop="peer-b")
    sw.install(rule)
    assert sw.lookup(make_packet()) is rule
    assert sw.ports[rule.next_hop] == 2
    assert format_flow_dump(sw).endswith(" action=FORWARD:2\n")


def test_forward_rule_toward_an_unattached_node_is_refused():
    sw = make_switch()
    sw.attach("peer")
    sw.install(flow_rule())
    before = format_flow_dump(sw)
    with pytest.raises(ValueError, match="SW1 has no port toward stranger"):
        install_batch({"SW1": sw}, [("SW1", flow_rule(next_hop="stranger"))])
    with pytest.raises(ValueError, match="SW1 has no port toward stranger"):
        install_batch({"SW1": sw}, [("SW1", flow_rule(next_hop="stranger", service_port=443))])
    assert format_flow_dump(sw) == before
    assert len(sw.table) == 1


def test_a_batch_with_a_rule_toward_an_unattached_node_writes_nothing():
    sw = make_switch()
    sw.attach("peer")
    before = format_flow_dump(sw)
    batch = [("SW1", flow_rule()), ("SW1", flow_rule(next_hop="stranger", service_port=443))]
    with pytest.raises(ValueError, match="SW1 has no port toward stranger"):
        install_batch({"SW1": sw}, batch)
    assert len(sw.table) == 0
    assert format_flow_dump(sw) == before


def test_drop_consumes_silently():
    sw = make_switch()
    block = block_rule()
    sw.install(block)
    assert sw.lookup(make_packet()) is block


def test_block_rule_stops_packet_ins():
    sw = make_switch()
    block = block_rule()
    sw.install(block)
    for port in range(2000, 2050):
        assert sw.lookup(make_packet(service_port=port)) is block
    assert flow_dump(sw) == [block]


def test_priority_wins_over_insertion_order():
    # an ARP packet's own flow rule outranks the ARP punt, installed before
    # it or after it
    arp_packet = make_packet(packet_type="ARP")
    for order in ((0, 1), (1, 0)):
        sw = make_switch()
        sw.attach("peer")
        rules = (ARP_RULE, flow_rule(packet_type="ARP"))
        for index in order:
            sw.install(rules[index])
        assert sw.lookup(arp_packet) is rules[1]
        assert sw.lookup(make_packet(packet_type="ARP", service_port=443)) is rules[0]


def test_reinstall_same_rule_is_idempotent():
    sw = make_switch()
    sw.attach("peer")
    rule = flow_rule()
    sw.install(rule)
    sw.install(flow_rule())
    assert len(flow_dump(sw)) == 1


def test_a_block_mask_filed_after_the_flow_mask_wins_the_lookup():
    sw = make_switch()
    sw.attach("peer")
    arp, flow, block = ARP_RULE, flow_rule(), block_rule()
    for rule in (arp, flow, block):
        assert install_batch({"SW1": sw}, [("SW1", rule)])
    assert sw.lookup(make_packet()) is block
    assert sw.lookup(make_packet(src_ip=ip("10.0.0.3"), packet_type="ARP")) is arp
    assert flow_dump(sw) == [block, flow, arp]


def test_table_capacity_surfaces_error():
    sw = make_switch(capacity=2)
    sw.attach("peer")
    switches = {"SW1": sw}
    for port in (1, 2):
        assert install_batch(switches, [("SW1", flow_rule(service_port=port))])
    # a match already installed takes no new entry
    assert install_batch(switches, [("SW1", flow_rule(service_port=port)) for port in (1, 2)])
    before = flow_dump(sw)
    assert not install_batch(switches, [("SW1", flow_rule(service_port=port)) for port in (1, 3)])
    assert not install_batch(switches, [("SW1", flow_rule(service_port=3))])
    assert flow_dump(sw) == before
    assert len(sw.table) == 2


def test_a_batch_that_overflows_one_switch_writes_on_no_switch():
    first, second = Switch("SW1"), Switch("SW2", capacity=1)
    for sw in (first, second):
        sw.attach("peer")
        sw.install(flow_rule(service_port=1))
    before = flow_dump(first)
    batch = [
        # a new match and a replacement on the switch with room, then a
        # new match on the full one
        ("SW1", flow_rule(service_port=2)),
        ("SW1", flow_rule(service_port=1)),
        ("SW2", flow_rule(service_port=2)),
    ]
    assert not install_batch({"SW1": first, "SW2": second}, batch)
    assert flow_dump(first) == before
    assert len(first.table) == 1
    assert len(second.table) == 1


def test_a_match_named_twice_on_one_switch_takes_one_entry():
    sw = make_switch(capacity=2)
    sw.attach("peer")
    assert install_batch({"SW1": sw}, [("SW1", flow_rule(service_port=1))])
    twice = [("SW1", flow_rule(service_port=2)) for _ in range(2)]
    assert install_batch({"SW1": sw}, twice)
    assert len(sw.table) == len(flow_dump(sw)) == 2
    assert sw.lookup(make_packet(service_port=2)) is twice[1][1]


def test_dump_is_priority_then_insertion_ordered():
    sw = make_switch()
    sw.attach("peer")
    arp, a, block, b = ARP_RULE, flow_rule(packet_type="HTTP"), block_rule(), flow_rule(packet_type="FTP")
    for rule in (arp, a, block, b):
        assert install_batch({"SW1": sw}, [("SW1", rule)])
    # re-installing a rule keeps its place
    assert install_batch({"SW1": sw}, [("SW1", a)])
    assert flow_dump(sw) == [block, a, b, arp]
    text = format_flow_dump(sw)
    assert text.splitlines()[0].startswith("priority=200")
    assert text.splitlines()[1].startswith("priority=100")
    assert text.splitlines()[-1].endswith("action=TO_CONTROLLER")


def test_fresh_switch_dump_empty():
    assert flow_dump(make_switch()) == []
    assert format_flow_dump(make_switch()) == ""


def test_dump_counts_distinct_installs():
    sw = make_switch()
    sw.attach("peer")
    for port in range(1, 26):
        sw.install(flow_rule(service_port=port))
    assert len(flow_dump(sw)) == 25


HEADER_FIELDS = ("src_ip", "dst_ip", "src_mac", "dst_mac", "ip_proto", "service_port", "packet_type")


@pytest.mark.parametrize("missing", [*((name,) for name in HEADER_FIELDS), ("ip_proto", "service_port")], ids="+".join)
def test_a_packet_refuses_a_none_header_field(missing):
    # a None field would print in the flow id and wildcard the flow's rules
    with pytest.raises(ValueError, match=f"no header field None: {', '.join(missing)}$"):
        make_packet(**dict.fromkeys(missing))


# one value per header field, of the field's type
FIELD_VALUES = dict(
    zip(HEADER_FIELDS, (ip("10.0.0.2"), ip("10.0.0.9"), "00:00:00:00:00:01", "00:00:00:00:00:09", "tcp", 80, "HTTP"))
)


# the fields each rule shape fixes, by its priority
SHAPES = {BLOCK_RULE_PRIORITY: ("src_ip",), FLOW_RULE_PRIORITY: FLOW_FIELDS, ARP_RULE_PRIORITY: ("packet_type",)}
FLOW_KEY = tuple(FIELD_VALUES[name] for name in FLOW_FIELDS)


def drawn_key(priority, arity):
    """A key of the packet of ``FIELD_VALUES``: a bare value (the field of
    the one-field shape at ``priority``, else ``src_ip``), that value as a
    1-tuple, or the first four or all five values of the flow's key."""
    value = FIELD_VALUES[SHAPES.get(priority, ("src_ip",))[0]]
    return {"scalar": value, "1-tuple": (value,), "4-tuple": FLOW_KEY[:4], "5-tuple": FLOW_KEY}[arity]


BUILT = {(BLOCK_RULE_PRIORITY, "scalar"), (FLOW_RULE_PRIORITY, "5-tuple"), (ARP_RULE_PRIORITY, "scalar")}


@pytest.mark.parametrize("arity", ["scalar", "1-tuple", "4-tuple", "5-tuple"])
@pytest.mark.parametrize("priority", [0, 10, 99, 100, 150, 200, 201])
def test_a_match_builds_at_a_shapes_priority_with_a_key_of_its_arity(priority, arity):
    key = drawn_key(priority, arity)
    if (priority, arity) not in BUILT:
        message = "no rule shape has priority" if priority not in SHAPES else f"a priority-{priority} key holds"
        with pytest.raises(ValueError, match=message):
            FlowMatch(priority, key)
        return
    match = FlowMatch(priority, key)
    assert (match.priority, match.key) == (priority, key)
    assert match.fixed() == {name: FIELD_VALUES[name] for name in SHAPES[priority]}
    # the key is what lookup probes for a packet of the flow
    sw = make_switch()
    rule = shaped_rule(match)
    sw.install(rule)
    assert sw.lookup(make_packet(**FIELD_VALUES)) is rule


def test_a_match_prints_the_fields_it_fixes_and_stars_the_others():
    # the flow and ARP lines of tests/golden/service_paths_sw5_dump.txt
    flow = FlowMatch(FLOW_RULE_PRIORITY, (ip("172.56.16.4"), ip("172.56.16.6"), "tcp", 80, "HTTP"))
    assert flow.text() == (
        "src_ip=172.56.16.4 dst_ip=172.56.16.6 src_mac=* dst_mac=* ip_proto=tcp service_port=80 packet_type=HTTP"
    )
    assert ARP_RULE.match.text() == "src_ip=* dst_ip=* src_mac=* dst_mac=* ip_proto=* service_port=* packet_type=ARP"
    assert FlowMatch(BLOCK_RULE_PRIORITY, ip("10.0.0.2")).text() == (
        "src_ip=10.0.0.2 dst_ip=* src_mac=* dst_mac=* ip_proto=* service_port=* packet_type=*"
    )


def test_outcomes_match_linear_scan_oracle():
    rng = random.Random(1234)
    sw = make_switch(capacity=100)
    sw.attach("peer")
    sources = (ip("10.0.0.2"), ip("10.0.0.3"), ip("10.0.0.4"))
    for i in range(50):
        shape = rng.randrange(10)
        if shape == 0:
            rule = ARP_RULE
        elif shape == 1:
            rule = block_rule(rng.choice(sources))
        else:
            rule = flow_rule(
                service_port=rng.choice((80, 443, 21)),
                packet_type=rng.choice(("HTTP", "FTP", "SYN")),
                src_ip=rng.choice(sources),
            )
        assert install_batch({"SW1": sw}, [("SW1", rule)])
    snapshot = flow_dump(sw)
    assert {rule.match.priority for rule in snapshot} == {ARP_RULE_PRIORITY, FLOW_RULE_PRIORITY, BLOCK_RULE_PRIORITY}

    def oracle(packet):
        best = None
        for rule in snapshot:  # snapshot is priority-desc, insertion-stable
            if match_hits(rule.match, packet):
                if best is None or rule.match.priority > best.match.priority:
                    best = rule
        return best

    for trial in range(200):
        packet = make_packet(
            service_port=rng.choice((80, 443, 21, 9999)),
            packet_type=rng.choice(("HTTP", "FTP", "SYN", "HTTPS", "ARP")),
            src_ip=rng.choice((*sources, ip("10.0.0.5"))),
        )
        assert sw.lookup(packet) is oracle(packet)


ADDRESSES = (ip("10.0.0.2"), ip("10.0.0.3"))
MAC = "00:00:00:00:00:01"


PACKETS = st.builds(
    Packet,
    src_ip=st.sampled_from(ADDRESSES),
    dst_ip=st.sampled_from(ADDRESSES),
    src_mac=st.just(MAC),
    dst_mac=st.just(MAC),
    ip_proto=st.sampled_from(("tcp", "udp")),
    service_port=st.sampled_from((80, 443)),
    packet_type=st.sampled_from(("HTTP", "SYN", "ARP")),
)
# a match of one of the program's three rule shapes: a flow's, the ARP
# match or a defense block
SHAPED_MATCHES = st.one_of(
    st.builds(
        FlowMatch,
        st.just(FLOW_RULE_PRIORITY),
        st.tuples(
            st.sampled_from(ADDRESSES),
            st.sampled_from(ADDRESSES),
            st.sampled_from(("tcp", "udp")),
            st.sampled_from((80, 443)),
            st.sampled_from(("HTTP", "SYN")),
        ),
    ),
    st.just(ARP_RULE.match),
    st.builds(FlowMatch, st.just(BLOCK_RULE_PRIORITY), st.sampled_from(ADDRESSES)),
)


@st.composite
def table_programs(draw):
    """A capacity and a sequence of installs and packets.  Installs draw
    from a small pool of shaped matches, so re-installs, rules of every
    shape and full tables all occur."""
    pool = draw(st.lists(SHAPED_MATCHES, min_size=1, max_size=6))
    installs = st.tuples(st.just("install"), st.sampled_from(pool))
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
            rule = shaped_rule(op[1])
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


def test_one_rule_object_filed_in_two_switches_keeps_its_place_in_each():
    # a rule's place in a switch is its key's place in that switch's table
    # of its shape, not a field of the rule, so a rule shared by two switches has
    # its own place in each
    first, second = Switch("SW1"), Switch("SW2")
    for sw in (first, second):
        sw.attach("peer")
    references = {"SW1": ScanTable(8), "SW2": ScanTable(8)}
    shared = flow_rule()
    other = flow_rule(service_port=443)
    switches = {"SW1": first, "SW2": second}
    steps = [
        ("SW1", shared),
        ("SW1", other),
        ("SW2", other),
        ("SW2", shared),
        # a re-install keeps the rule's place in its switch
        ("SW1", shared),
        ("SW2", shared),
        # another rule for the shared match replaces it, in its place, in
        # one switch alone
        ("SW2", flow_rule()),
        ("SW1", shared),
    ]
    packets = [make_packet(), make_packet(service_port=443), make_packet(packet_type="SYN")]
    for switch_id, rule in steps:
        assert install_batch(switches, [(switch_id, rule)])
        assert references[switch_id].install(rule)
        for sid, sw in switches.items():
            assert flow_dump(sw) == references[sid].rules
            for packet in packets:
                assert sw.lookup(packet) is scan_lookup(references[sid].rules, packet)
    assert flow_dump(first) == [shared, other]
    assert first.lookup(make_packet()) is shared
    assert second.lookup(make_packet()) is flow_dump(second)[1] is not shared


@st.composite
def shared_rule_programs(draw):
    """A pool of rule objects of the three shapes, each filed in either of
    two switches any number of times, and packets looked up in both: one
    rule object sits in two tables, and re-installs of a rule and of
    another rule for its match occur."""
    matches = draw(st.lists(SHAPED_MATCHES, min_size=1, max_size=4))
    pool = [shaped_rule(match) for match in draw(st.lists(st.sampled_from(matches), min_size=1, max_size=6))]
    installs = st.tuples(st.sampled_from(SWITCH_IDS), st.sampled_from(pool))
    return draw(st.lists(st.one_of(installs, PACKETS), max_size=30))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shared_rule_programs())
def test_rule_objects_shared_by_two_switches_agree_with_the_priority_scan(ops):
    switches = {switch_id: Switch(switch_id) for switch_id in SWITCH_IDS}
    references = {switch_id: ScanTable(switches[switch_id].capacity) for switch_id in SWITCH_IDS}
    for sw in switches.values():
        sw.attach("peer")
    for op in ops:
        if isinstance(op, tuple):
            switch_id, rule = op
            assert install_batch(switches, [(switch_id, rule)])
            assert references[switch_id].install(rule)
        for switch_id, sw in switches.items():
            assert flow_dump(sw) == references[switch_id].rules
            if not isinstance(op, tuple):
                assert sw.lookup(op) is scan_lookup(references[switch_id].rules, op)



@st.composite
def batch_programs(draw):
    """Both switches' capacities and a sequence of batches, each of 1-6
    rules over the two switches.  The rules draw from a pool of at most
    four shaped matches, so batches name installed matches, name one match
    twice and fill the tables."""
    pool = draw(st.lists(SHAPED_MATCHES, min_size=1, max_size=4))
    rules = st.tuples(st.sampled_from(SWITCH_IDS), st.sampled_from(pool))
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


_PORT_80, _PORT_443, _SYN = flow_match(), flow_match(service_port=443), flow_match(packet_type="SYN")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(batch_programs())
# a batch that lands exactly at capacity fits, and one past it does not
@example(((2, 6), [[("SW1", _PORT_80), ("SW1", _PORT_443)]]))
@example(((2, 6), [[("SW1", _PORT_80), ("SW1", _PORT_443), ("SW1", _SYN)]]))
# one past capacity by its rule count, but naming an installed match
@example(((2, 6), [[("SW1", _PORT_80)], [("SW1", _PORT_80), ("SW1", _PORT_443)]]))
# one past capacity by its rule count, but naming one match twice
@example(((1, 6), [[("SW1", _PORT_80), ("SW1", _PORT_80)]]))
# room on one switch and none on the other writes on neither
@example(((6, 1), [[("SW1", _PORT_80), ("SW2", _PORT_80), ("SW2", _SYN)]]))
def test_a_batch_is_written_whole_exactly_when_its_new_matches_fit(program):
    capacities, batches = program
    switches = {switch_id: Switch(switch_id, capacity) for switch_id, capacity in zip(SWITCH_IDS, capacities)}
    references = {switch_id: ScanTable(capacity) for switch_id, capacity in zip(SWITCH_IDS, capacities)}
    for sw in switches.values():
        sw.attach("peer")
    for drawn in batches:
        batch = [(switch_id, shaped_rule(match)) for switch_id, match in drawn]
        assert install_batch(switches, batch) is reference_batch(references, batch)
        for switch_id, sw in switches.items():
            assert flow_dump(sw) == references[switch_id].rules
            assert len(sw.table) == len(references[switch_id].rules)


def _swapped(packet):
    return make_packet(
        src_ip=packet.dst_ip,
        dst_ip=packet.src_ip,
        ip_proto=packet.ip_proto,
        service_port=packet.service_port,
        packet_type=packet.packet_type,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(packet=PACKETS, probes=st.lists(PACKETS, max_size=6))
def test_rules_filed_under_a_packets_matches_find_what_the_field_check_finds(packet, probes):
    # for the flow's request, its reply and other packets
    probes = [packet, _swapped(packet), *probes]
    sw = make_switch()
    sw.attach("peer")
    rules = [FlowRule(match, "peer") for match in packet.matches]
    assert install_batch({"SW1": sw}, [("SW1", rule) for rule in rules])
    hits = [sw.lookup(probe) for probe in probes]
    for probe, hit in zip(probes, hits):
        assert (hit is not None) == any(match_hits(match, probe) for match in packet.matches)
        assert hit is None or match_hits(hit.match, probe)
    assert [hit.match for hit in hits[:2]] == list(packet.matches)


def _scan_lookup(switch, packet):
    # the switch's rules in a stable sort by descending priority
    return scan_lookup(sorted(flow_dump(switch), key=attrgetter("match.priority"), reverse=True), packet)


def _run_outputs(case):
    world = case_world(case)
    report = Simulation(world).run()
    return records_digest(report), {switch_id: format_flow_dump(sw) for switch_id, sw in world.switches.items()}


@pytest.mark.parametrize("case", [*CASES, *(f"workload:{name}" for name in sorted(WORKLOADS))])
def test_a_run_decides_as_a_run_that_scans_every_rule(case, monkeypatch):
    # every golden case, the defense responses' block rules included, and
    # each workload at seed 1
    probed = _run_outputs(case)
    monkeypatch.setattr(Switch, "lookup", _scan_lookup)
    assert _run_outputs(case) == probed
