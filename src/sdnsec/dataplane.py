"""Simulated match-action switches: flow tables and lookup.

The program writes three kinds of rule, and a rule's shape, the header
fields its match fixes, is its priority: a defense block on a source address
(200), a flow's 5-tuple (100) and the ARP punt to the controller (10).
``_SHAPES`` lists them once, in lookup order, each with its fields, its
priority and the getter of its key; a match of any other shape is a
``ValueError`` when it is built, so a rule cannot carry a wrong priority.
A switch's flow table is a tuple space with fixed masks (Srinivasan, Suri &
Varghese, SIGCOMM 1999), one table per kind of rule as in OpenFlow 1.3: one
dict per shape, which files each rule as itself under its match's key, in
install order, so one rule object may sit in the tables of several
switches.  A lookup probes the block table when it holds a rule, then the
flow table, then the ARP table, with the packet's values for each shape's
fields, and returns the first hit: three hash probes at most, whatever the
rules.  The simulation executes the rule found (forward, drop or punt to
the controller) and raises a packet-in on a miss.  A forward rule names its
next hop, the attached peer (switch or host) the packet goes to; port
numbers exist only in a switch's wiring (``Switch.ports``) and in its flow
dump.  A forward rule at a domain's egress gateway also carries the flow's
handle, which holds its transfer token, and the switch adds it to the
packet as it leaves.  :func:`install_batch` writes a flow-mod batch all or
nothing, like an OpenFlow 1.4 bundle; it is the one write path and the one
capacity and next-hop check.  Its capacity check passes a switch with room
for the whole batch unexamined, and counts a tight switch's new matches by
priority and key, a match named twice once; when one switch would overflow,
it writes nothing.  All mutation happens on the simulation loop's thread.

Packet and match addresses are plain ``int`` values, so a probe key hashes
natively.  A packet prints its two addresses once (``src_text``,
``dst_text``), for its flow id, the records and the event summaries, and
writes that text and its flow id into its ``__dict__`` in one step.  A
packet fixes every header field: one left ``None`` is a ``ValueError`` when
it is built.  It builds its flow's forward and return match on first read
(``Packet.matches``, a lock-free :class:`~sdnsec.frozen.cached` field), once
for every domain it crosses, each through :meth:`FlowMatch.exact`: every
flow match has the same shape, so that constructor writes the flow
priority and the 5-tuple key with the fields, in one step, where the
general constructor works its shape out from the fields it leaves
non-``None``.  A flow dump prints a match's addresses as dotted text.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from .frozen import cached, frozen
from .interdomain import Handle
from .policy import derive_flow_id, format_ipv4

__all__ = [
    "ActionKind",
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
            # a None field would wildcard it in the flow's rules
            missing = [name for name in _HEADER_FIELDS if getattr(self, name) is None]
            raise ValueError(f"a packet leaves no header field None: {', '.join(missing)}")
        src_text, dst_text = format_ipv4(self.src_ip), format_ipv4(self.dst_ip)
        flow_id = derive_flow_id(src_text, dst_text, self.ip_proto, self.service_port)
        self.__dict__.update(src_text=src_text, dst_text=dst_text, flow_id=flow_id)

    @cached
    def matches(self) -> tuple[FlowMatch, FlowMatch]:
        """The flow's forward match and its return match, the addresses
        swapped, each built with its priority and key in one step
        (:meth:`FlowMatch.exact`); built once per packet and read by every
        domain it crosses."""
        src, dst, proto, port, kind = self.src_ip, self.dst_ip, self.ip_proto, self.service_port, self.packet_type
        return FlowMatch.exact(src, dst, proto, port, kind), FlowMatch.exact(dst, src, proto, port, kind)


# the match fields a Packet carries too, under the same names
_HEADER_FIELDS = ("src_ip", "dst_ip", "src_mac", "dst_mac", "ip_proto", "service_port", "packet_type")

_ADDRESS_FIELDS = ("src_ip", "dst_ip")

_FLOW_FIELDS = ("src_ip", "dst_ip", "ip_proto", "service_port", "packet_type")

# the program's three rule shapes, in lookup order: the header fields a
# match of the shape fixes -> its priority and the getter of its key, which
# reads those fields off a match or a packet alike
_SHAPES = {
    ("src_ip",): (BLOCK_RULE_PRIORITY, attrgetter("src_ip")),
    _FLOW_FIELDS: (FLOW_RULE_PRIORITY, attrgetter(*_FLOW_FIELDS)),
    ("packet_type",): (ARP_RULE_PRIORITY, attrgetter("packet_type")),
}
_block_key, _flow_key, _arp_key = (key for _, key in _SHAPES.values())


@frozen(slots=True)
class FlowMatch:
    """A match of one of the program's rule shapes (``_SHAPES``): the
    header fields its shape fixes are set, the others ``None``, which
    matches anything.

    ``FlowMatch(...)`` takes its shape from the fields it leaves
    non-``None``, and from the shape its ``priority`` and its ``key``, the
    values of those fields as the shape's getter reads them; a field
    pattern of no shape raises ``ValueError``.  ARP and block matches are
    built so.  :meth:`FlowMatch.exact` builds the match a packet's flow
    takes."""

    src_ip: int | None = None
    dst_ip: int | None = None
    src_mac: str | None = None
    dst_mac: str | None = None
    ip_proto: str | None = None
    service_port: int | None = None
    packet_type: str | None = None
    # its shape's priority and its key in that shape's table, worked out once
    priority: int = field(init=False, repr=False, compare=False)
    key: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fixed = tuple(name for name in _HEADER_FIELDS if getattr(self, name) is not None)
        shape = _SHAPES.get(fixed)
        if shape is None:
            raise ValueError(f"no rule shape fixes just the fields: {', '.join(fixed) or 'none'}")
        priority, key = shape
        # a slotted record has no __dict__ to update in one step; the
        # generic setter also serves a plain dataclass given this method
        object.__setattr__(self, "priority", priority)
        object.__setattr__(self, "key", key(self))

    @classmethod
    def exact(cls, src_ip: int, dst_ip: int, ip_proto: str, service_port: int, packet_type: str) -> FlowMatch:
        """The match of one flow: every header field but the two MACs fixed,
        equal to ``FlowMatch(src_ip, dst_ip, None, None, ip_proto,
        service_port, packet_type)``.  It writes the fields, the flow
        priority and the 5-tuple key through the slots' setters, bound once
        the class is built (``_set_*`` below), with no ``__post_init__``.  A
        header field added to the flow's match, such as a request/reply
        flag, is written here too."""
        match = _new(cls)
        _set_src_ip(match, src_ip)
        _set_dst_ip(match, dst_ip)
        _set_src_mac(match, None)
        _set_dst_mac(match, None)
        _set_ip_proto(match, ip_proto)
        _set_service_port(match, service_port)
        _set_packet_type(match, packet_type)
        _set_priority(match, FLOW_RULE_PRIORITY)
        _set_key(match, (src_ip, dst_ip, ip_proto, service_port, packet_type))
        return match

    def text(self) -> str:
        parts = []
        for name in _HEADER_FIELDS:
            value = getattr(self, name)
            if value is None:
                value = "*"
            elif name in _ADDRESS_FIELDS:
                value = format_ipv4(value)
            parts.append(f"{name}={value}")
        return " ".join(parts)


# FlowMatch.exact's slot setters, taken from the built class
_new = object.__new__
(
    _set_src_ip,
    _set_dst_ip,
    _set_src_mac,
    _set_dst_mac,
    _set_ip_proto,
    _set_service_port,
    _set_packet_type,
    _set_priority,
    _set_key,
) = (FlowMatch.__dict__[name].__set__ for name in (*_HEADER_FIELDS, "priority", "key"))


class ActionKind:
    FORWARD = "FORWARD"
    DROP = "DROP"
    TO_CONTROLLER = "TO_CONTROLLER"


@dataclass(slots=True, init=False)
class FlowRule:
    match: FlowMatch
    action: str
    next_hop: str | None
    sec_profile_tags: frozenset[str]
    # the credential added to packets leaving the domain through this rule
    handle: Handle | None

    def __init__(
        self,
        match: FlowMatch,
        action: str,
        next_hop: str | None = None,
        sec_profile_tags: frozenset[str] = frozenset(),
        handle: Handle | None = None,
    ) -> None:
        # one call checks and writes a rule, not a dataclass __init__ that
        # calls __post_init__: a flow builds two rules per switch of its path
        if next_hop is None:
            if action == ActionKind.FORWARD:
                raise ValueError("forward rule needs a next hop")
        elif action != ActionKind.FORWARD:
            raise ValueError("only forward rules carry a next hop")
        self.match = match
        self.action = action
        self.next_hop = next_hop
        self.sec_profile_tags = sec_profile_tags
        self.handle = handle


class FlowTable:
    """A switch's rules: ``rules`` maps each shape's priority to its table,
    in lookup order (block, flow, ARP), and a table maps a match's key to
    its rule, filed as itself, in install order.  ``len()`` is the number
    of rules."""

    __slots__ = ("rules", "size")

    def __init__(self) -> None:
        self.rules: dict[int, dict[object, FlowRule]] = {priority: {} for priority, _ in _SHAPES.values()}
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
    """One line per rule of :func:`flow_dump`; a forward rule prints the
    port its next hop is attached to."""
    lines = []
    for rule in flow_dump(switch):
        action = rule.action if rule.next_hop is None else f"{rule.action}:{switch.ports[rule.next_hop]}"
        tags = ",".join(sorted(rule.sec_profile_tags)) if rule.sec_profile_tags else "-"
        lines.append(f"priority={rule.match.priority} {rule.match.text()} tags={tags} action={action}")
    return "\n".join(lines) + ("\n" if lines else "")
