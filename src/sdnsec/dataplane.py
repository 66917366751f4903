"""Simulated match-action switches: flow tables and lookup.

The program writes three kinds of rule, and a rule's shape, the header
fields its match fixes, is its priority and fixes its action: a defense
block on a source address drops (200), a flow's 5-tuple forwards (100) and
the ARP match punts to the controller (10).  ``_SHAPES`` lists them once, by
priority in lookup order, each with its fields, the getter of its key and
its action.  A match is what a table files and probes, its shape's priority
and its key, the values of the fields the shape fixes as that getter reads
them off a packet; a priority of no shape, or a key of another arity, is a
``ValueError`` when the match is built.  A switch's flow table is a tuple
space with fixed masks (Srinivasan, Suri & Varghese, SIGCOMM 1999), one
table per kind of rule as in OpenFlow 1.3: one dict per shape, which files
each rule as itself under its match's key, in install order, so one rule
object may sit in the tables of several switches.  A lookup probes the block
table when it holds a rule, then the flow table, then the ARP table, with
the packet's values for each shape's fields, and returns the first hit:
three hash probes at most, whatever the rules.  The simulation executes the
rule found and raises a packet-in on a miss.  Every switch's ARP rule is one
shared object, ``ARP_RULE``.  A forward rule, and only a forward rule, names
its next hop, the attached peer (switch or host) the packet goes to; port
numbers exist only in a switch's wiring (``Switch.ports``) and in its flow
dump, which prints a rule's action as its shape names it.  A forward rule at
a domain's egress gateway also carries the flow's handle, which holds its
transfer token, and the switch adds it to the packet as it leaves.
:func:`install_batch` writes a flow-mod batch all or nothing, like an
OpenFlow 1.4 bundle; it is the one write path and the one capacity and
next-hop check.  Its capacity check passes a switch with room for the whole
batch unexamined, and counts a tight switch's new matches by priority and
key, a match named twice once; when one switch would overflow, it writes
nothing.  All mutation happens on the simulation loop's thread.

Packet and match addresses are plain ``int`` values, so a probe key hashes
natively.  A packet prints its two addresses once (``src_text``,
``dst_text``), for its flow id, the records and the event summaries, and
writes that text and its flow id into its ``__dict__`` in one step.  A
packet fixes every header field: one left ``None`` is a ``ValueError`` when
it is built.  It builds its flow's forward and return match on first read
(``Packet.matches``, a lock-free :class:`~sdnsec.frozen.cached` field), once
for every domain it crosses.  A flow dump prints the fields a match fixes,
its addresses as dotted text, and ``*`` for the others.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from .frozen import cached, frozen
from .interdomain import Handle
from .policy import derive_flow_id, format_ipv4

__all__ = [
    "FlowMatch",
    "FlowRule",
    "FlowTable",
    "Packet",
    "Switch",
    "flow_dump",
    "format_flow_dump",
    "install_batch",
]

DEFAULT_TABLE_CAPACITY = 1024

ARP_RULE_PRIORITY = 10
FLOW_RULE_PRIORITY = 100
BLOCK_RULE_PRIORITY = 200


@frozen
class Packet:
    """One packet's header fields.  It carries its two addresses' dotted
    text, printed once when it is built, and its flow id, which
    :func:`~sdnsec.policy.derive_flow_id` spells from that text; records,
    event summaries and block rules read the text off the packet."""

    src_ip: int
    dst_ip: int
    src_mac: str
    dst_mac: str
    ip_proto: str
    service_port: int
    packet_type: str
    # derived once per packet; the controller and the records read them often
    src_text: str = field(init=False, repr=False, compare=False)
    dst_text: str = field(init=False, repr=False, compare=False)
    flow_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (
            self.src_ip is None
            or self.dst_ip is None
            or self.src_mac is None
            or self.dst_mac is None
            or self.ip_proto is None
            or self.service_port is None
            or self.packet_type is None
        ):
            # a None field would print in the flow id and sit in the flow's key
            missing = [name for name in _HEADER_FIELDS if getattr(self, name) is None]
            raise ValueError(f"a packet leaves no header field None: {', '.join(missing)}")
        src_text, dst_text = format_ipv4(self.src_ip), format_ipv4(self.dst_ip)
        flow_id = derive_flow_id(src_text, dst_text, self.ip_proto, self.service_port)
        self.__dict__.update(src_text=src_text, dst_text=dst_text, flow_id=flow_id)

    @cached
    def matches(self) -> tuple[FlowMatch, FlowMatch]:
        """The flow's forward match and its return match, the addresses
        swapped: the flow priority and the 5-tuple key; built once per
        packet and read by every domain it crosses."""
        src, dst, proto, port, kind = self.src_ip, self.dst_ip, self.ip_proto, self.service_port, self.packet_type
        return (
            FlowMatch(FLOW_RULE_PRIORITY, (src, dst, proto, port, kind)),
            FlowMatch(FLOW_RULE_PRIORITY, (dst, src, proto, port, kind)),
        )


# the header fields a Packet carries, in the order a flow dump prints them
_HEADER_FIELDS = ("src_ip", "dst_ip", "src_mac", "dst_mac", "ip_proto", "service_port", "packet_type")

_ADDRESS_FIELDS = ("src_ip", "dst_ip")

_FLOW_FIELDS = ("src_ip", "dst_ip", "ip_proto", "service_port", "packet_type")

# the program's three rule shapes, in lookup order: a shape's priority ->
# the header fields its matches fix, the getter of its key, which reads
# those fields off a packet (the bare value of a one-field shape, a tuple
# of a wider one's), and the action its rules take, as a flow dump prints it
_SHAPES = {
    BLOCK_RULE_PRIORITY: (("src_ip",), attrgetter("src_ip"), "DROP"),
    FLOW_RULE_PRIORITY: (_FLOW_FIELDS, attrgetter(*_FLOW_FIELDS), "FORWARD"),
    ARP_RULE_PRIORITY: (("packet_type",), attrgetter("packet_type"), "TO_CONTROLLER"),
}
_block_key, _flow_key, _arp_key = (key for _, key, _ in _SHAPES.values())


@frozen(slots=True)
class FlowMatch:
    """A match of one of the program's rule shapes (``_SHAPES``): the
    shape's ``priority`` and the ``key`` its table files the match under,
    the values of the fields the shape fixes, as the shape's getter reads
    them off a packet; every other header field matches anything.  A
    priority that names no shape, or a key of another arity than its
    shape's fields (a bare value for one field, a tuple for more), raises
    ``ValueError``."""

    priority: int
    key: object

    def __post_init__(self) -> None:
        shape = _SHAPES.get(self.priority)
        if shape is None:
            raise ValueError(f"no rule shape has priority {self.priority!r}")
        names, key = shape[0], self.key
        # a wider shape's key is a tuple of its values, a one-field shape's the bare value
        if (len(key) if type(key) is tuple else None) != (len(names) if len(names) > 1 else None):
            raise ValueError(f"a priority-{self.priority} key holds the values of: {', '.join(names)}")

    def fixed(self) -> dict[str, object]:
        """``{field: value}`` for the header fields the match fixes."""
        names, key = _SHAPES[self.priority][0], self.key
        return dict(zip(names, key)) if len(names) > 1 else {names[0]: key}

    def text(self) -> str:
        """Every header field, as it fixes it or ``*``."""
        fixed = self.fixed()
        for name in _ADDRESS_FIELDS:
            if name in fixed:
                fixed[name] = format_ipv4(fixed[name])
        return " ".join(f"{name}={fixed.get(name, '*')}" for name in _HEADER_FIELDS)


@dataclass(slots=True, init=False)
class FlowRule:
    """A flow-table entry, whose match's shape fixes what it does
    (``_SHAPES``): it names a ``next_hop`` to forward to exactly when its
    match has the flow shape, and raises ``ValueError`` otherwise."""

    match: FlowMatch
    next_hop: str | None
    sec_profile_tags: frozenset[str]
    # the credential added to packets leaving the domain through this rule
    handle: Handle | None

    def __init__(
        self,
        match: FlowMatch,
        next_hop: str | None = None,
        sec_profile_tags: frozenset[str] = frozenset(),
        handle: Handle | None = None,
    ) -> None:
        # one call checks and writes a rule, not a dataclass __init__ that
        # calls __post_init__: a flow builds two rules per switch of its path
        if next_hop is None:
            if match.priority == FLOW_RULE_PRIORITY:
                raise ValueError("forward rule needs a next hop")
        elif match.priority != FLOW_RULE_PRIORITY:
            raise ValueError("only forward rules carry a next hop")
        self.match = match
        self.next_hop = next_hop
        self.sec_profile_tags = sec_profile_tags
        self.handle = handle


# a table files a rule as itself, so every switch's ARP rule is this one
ARP_RULE = FlowRule(FlowMatch(ARP_RULE_PRIORITY, "ARP"))


class FlowTable:
    """A switch's rules: ``rules`` maps each priority of ``_SHAPES`` to its
    shape's table, in lookup order (block, flow, ARP), and a table maps a
    match's key to its rule, filed as itself, in install order.  ``len()``
    is the number of rules."""

    __slots__ = ("rules", "size")

    def __init__(self) -> None:
        self.rules: dict[int, dict[object, FlowRule]] = {priority: {} for priority in _SHAPES}
        self.size = 0

    def __len__(self) -> int:
        return self.size


class Switch:
    """One forwarding element; owned by a controller over a control channel."""

    def __init__(
        self,
        switch_id: str,
        capacity: int = DEFAULT_TABLE_CAPACITY,
    ):
        self.id = switch_id
        self.capacity = capacity
        # attached peer (switch or host id) -> its port number
        self.ports: dict[str, int] = {}
        self.table = FlowTable()

    def attach(self, peer: str) -> None:
        """Wire a peer (switch or host id) to the next free port; injective."""
        if peer in self.ports:
            raise ValueError(f"{peer} already attached to {self.id}")
        self.ports[peer] = len(self.ports) + 1

    def install(self, rule: FlowRule) -> None:
        """File ``rule`` itself in its match's shape's table, under the
        match's key.  A rule for an installed match replaces it in place, so
        re-installing a rule is idempotent.  :func:`install_batch` checks
        next hops and capacity first."""
        match, table = rule.match, self.table
        rules, key = table.rules[match.priority], match.key
        if key not in rules:
            table.size += 1
        rules[key] = rule

    def lookup(self, packet: Packet) -> FlowRule | None:
        """The highest-priority rule matching ``packet``: a probe of the
        block table when it holds a rule, then of the flow table, then of
        the ARP table, up to the first hit."""
        rules = self.table.rules
        block = rules[BLOCK_RULE_PRIORITY]
        if block:
            rule = block.get(_block_key(packet))
            if rule is not None:
                return rule
        rule = rules[FLOW_RULE_PRIORITY].get(_flow_key(packet))
        if rule is None:
            return rules[ARP_RULE_PRIORITY].get(_arp_key(packet))
        return rule


def install_batch(switches: dict[str, Switch], installs: Sequence[tuple[str, FlowRule]]) -> bool:
    """Write every ``(switch id, rule)`` of ``installs`` through
    :meth:`Switch.install`, or none of them.  A forward rule whose next hop
    is not attached to its switch raises ``ValueError`` before anything is
    written.  A switch with room for the whole batch cannot overflow, so
    the capacity check looks closer only at a switch without: it counts the
    matches of the rules the switch is named in that are new to it, a match
    named twice counted once.  When some switch lacks room for those, the
    batch is refused and False returned."""
    size = len(installs)
    # switch id -> its rules, for a switch without room for the whole batch
    tight: dict[str, list[FlowRule]] = {}
    for switch_id, rule in installs:
        switch = switches[switch_id]
        if rule.next_hop not in switch.ports and rule.next_hop is not None:
            raise ValueError(f"{switch_id} has no port toward {rule.next_hop}")
        if switch.capacity - switch.table.size < size:
            tight.setdefault(switch_id, []).append(rule)
    for switch_id, rules in tight.items():
        switch = switches[switch_id]
        if _new_matches(switch, rules) > switch.capacity - switch.table.size:
            return False
    for switch_id, rule in installs:
        switches[switch_id].install(rule)
    return True


def _new_matches(switch: Switch, rules: list[FlowRule]) -> int:
    """How many distinct matches of ``rules`` ``switch``'s table lacks; a
    match counts by its ``(priority, key)``, as the table files it."""
    tables = switch.table.rules
    new = set()
    for rule in rules:
        match = rule.match
        if match.key not in tables[match.priority]:
            new.add((match.priority, match.key))
    return len(new)


def flow_dump(switch: Switch) -> list[FlowRule]:
    """Snapshot of the table in canonical order, the order lookup probes:
    the block, flow and ARP tables, priority descending, each in install
    order."""
    return [rule for rules in switch.table.rules.values() for rule in rules.values()]


def format_flow_dump(switch: Switch) -> str:
    """One line per rule of :func:`flow_dump`, which prints its match's
    shape's action; a forward rule prints the port its next hop is attached
    to."""
    lines = []
    for rule in flow_dump(switch):
        action = _SHAPES[rule.match.priority][2]
        if rule.next_hop is not None:
            action = f"{action}:{switch.ports[rule.next_hop]}"
        tags = ",".join(sorted(rule.sec_profile_tags)) if rule.sec_profile_tags else "-"
        lines.append(f"priority={rule.match.priority} {rule.match.text()} tags={tags} action={action}")
    return "\n".join(lines) + ("\n" if lines else "")
