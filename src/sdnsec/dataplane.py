"""Simulated match-action switches: flow tables and lookup.

A switch keeps its flow table as a tuple space (Srinivasan, Suri & Varghese,
SIGCOMM 1999; the megaflow classifier of Open vSwitch): one hash table per
wildcard mask, the set of match fields a rule fixes.  A lookup probes each
mask once with the packet's values for that mask's fields, so its cost grows
with the number of masks (three in a simulated run: ARP, flow and block
rules), not with the number of rules.  A mask's table files each rule as
itself under its match's key, and keeps the rule's install number beside it
under the same key, never on the rule, so one rule object may sit in the
tables of several switches.  A lookup returns the highest-priority matching
rule, and among equal priorities the one installed first (the least install
number); the simulation executes it (forward, drop or punt to the
controller) and raises a packet-in on a miss.  A forward rule names its next
hop, the attached peer (switch or host) the packet goes to; port numbers
exist only in a switch's wiring (``Switch.ports``) and in its flow dump.  A
forward rule at a domain's egress gateway also carries the flow's handle,
which holds its transfer token, and the switch adds it to the packet as it
leaves.
:func:`install_batch` writes a flow-mod batch all or nothing, like an
OpenFlow 1.4 bundle; it is the one write path and the one capacity and
next-hop check.  Only on a switch without room for the whole batch does
it count the rules the switch is named in, and only where that count could
overflow its table the matches new to it (by mask and key, a match named
twice once); when one switch would overflow, it writes nothing.  All
mutation happens on the simulation loop's thread.

Packet and match addresses are plain ``int`` values, so a probe key hashes
natively.  A packet prints its two addresses once (``src_text``,
``dst_text``), for its flow id, the records and the event summaries, and
writes that text and its flow id into its ``__dict__`` in one step; it
builds its flow's forward and return match on first read
(``Packet.matches``, a lock-free :class:`~sdnsec.frozen.cached` field), once
for every domain it crosses.  A flow dump prints a match's addresses as
dotted text.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import count
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
        src_text, dst_text = format_ipv4(self.src_ip), format_ipv4(self.dst_ip)
        flow_id = derive_flow_id(src_text, dst_text, self.ip_proto, self.service_port)
        self.__dict__.update(src_text=src_text, dst_text=dst_text, flow_id=flow_id)

    @cached
    def matches(self) -> tuple[FlowMatch, FlowMatch]:
        """The flow's forward match and its return match, the addresses
        swapped; built once per packet and read by every domain it crosses."""
        proto, port, kind = self.ip_proto, self.service_port, self.packet_type
        return (
            FlowMatch(self.src_ip, self.dst_ip, None, None, proto, port, kind),
            FlowMatch(self.dst_ip, self.src_ip, None, None, proto, port, kind),
        )


# the match fields a Packet carries too, under the same names
_HEADER_FIELDS = ("src_ip", "dst_ip", "src_mac", "dst_mac", "ip_proto", "service_port", "packet_type")

_ADDRESS_FIELDS = ("src_ip", "dst_ip")

# the header fields a match fixes
_Mask = tuple[str, ...]


@cache
def _probe(mask: _Mask) -> Callable[[object], object]:
    """Reads the fields ``mask`` fixes: a match's key, or a packet's probe."""
    return attrgetter(*mask) if mask else lambda _item: ()


@cache
def _layout(nones: tuple[bool, ...]) -> tuple[_Mask, Callable[[object], object]]:
    """The header fields a match fixes, from which of its fields are None,
    and the function that reads them (:func:`_probe`)."""
    mask = tuple(name for name, none in zip(_HEADER_FIELDS, nones) if not none)
    return mask, _probe(mask)


@frozen(slots=True)
class FlowMatch:
    """Wildcardable subset of packet header fields (None matches anything)."""

    src_ip: int | None = None
    dst_ip: int | None = None
    src_mac: str | None = None
    dst_mac: str | None = None
    ip_proto: str | None = None
    service_port: int | None = None
    packet_type: str | None = None
    # its table in a switch's tuple space and its key there, worked out once
    mask: _Mask = field(init=False, repr=False, compare=False)
    key: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mask, probe = _layout(
            (
                self.src_ip is None,
                self.dst_ip is None,
                self.src_mac is None,
                self.dst_mac is None,
                self.ip_proto is None,
                self.service_port is None,
                self.packet_type is None,
            )
        )
        # a slotted record has no __dict__ to update in one step; the
        # generic setter also serves a plain dataclass given this method
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "key", probe(self))

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


class ActionKind:
    FORWARD = "FORWARD"
    DROP = "DROP"
    TO_CONTROLLER = "TO_CONTROLLER"


@dataclass(slots=True, init=False)
class FlowRule:
    match: FlowMatch
    action: str
    priority: int
    next_hop: str | None
    sec_profile_tags: frozenset[str]
    # the credential added to packets leaving the domain through this rule
    handle: Handle | None

    def __init__(
        self,
        match: FlowMatch,
        action: str,
        priority: int,
        next_hop: str | None = None,
        sec_profile_tags: frozenset[str] = frozenset(),
        handle: Handle | None = None,
    ) -> None:
        # one call checks and writes a rule, not a dataclass __init__ that
        # calls __post_init__: a flow builds two rules per switch of its path
        if priority < 0:
            raise ValueError("priority must be >= 0")
        if next_hop is None:
            if action == ActionKind.FORWARD:
                raise ValueError("forward rule needs a next hop")
        elif action != ActionKind.FORWARD:
            raise ValueError("only forward rules carry a next hop")
        self.match = match
        self.action = action
        self.priority = priority
        self.next_hop = next_hop
        self.sec_profile_tags = sec_profile_tags
        self.handle = handle


class _MaskTable:
    """The rules of one wildcard mask, keyed by their match's ``key``:
    ``probe(packet)`` is the key a matching packet yields.  ``rules`` maps a
    key to its rule, filed as itself, and ``numbers`` maps the same key to
    that rule's install number.  Of two rules, the one a scan in priority
    order would meet first has the higher priority, or the equal priority
    and the lesser number."""

    __slots__ = ("probe", "rules", "numbers")

    def __init__(self, mask: _Mask):
        self.probe = _probe(mask)
        self.rules: dict[object, FlowRule] = {}
        self.numbers: dict[object, int] = {}


class FlowTable:
    """A switch's rules as a tuple space: one :class:`_MaskTable` per
    wildcard mask in use, each keeping its rules' install numbers beside
    them.  ``len()`` is the number of rules."""

    __slots__ = ("masks", "size")

    def __init__(self) -> None:
        self.masks: dict[_Mask, _MaskTable] = {}
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
        self._install_numbers = count()

    def attach(self, peer: str) -> None:
        """Wire a peer (switch or host id) to the next free port; injective."""
        if peer in self.ports:
            raise ValueError(f"{peer} already attached to {self.id}")
        self.ports[peer] = len(self.ports) + 1

    def install(self, rule: FlowRule) -> None:
        """File ``rule`` itself under its match's mask and key, and its
        install number in that mask table's ``numbers`` under the same key.
        A rule for an installed match replaces it, unless its priority is
        lower, when it is ignored.  At equal priority the replacement keeps
        the old rule's number, so its place among equal priorities, and
        re-installing a rule is idempotent; at higher priority it takes a
        new number, as if newly installed.  :func:`install_batch` checks
        next hops and capacity first."""
        match, tables = rule.match, self.table
        table = tables.masks.get(match.mask)
        if table is None:
            table = tables.masks[match.mask] = _MaskTable(match.mask)
        key, fresh = match.key, next(self._install_numbers)
        # numbers are never reused, so the key was new exactly when its
        # number is the fresh one
        if table.numbers.setdefault(key, fresh) == fresh:
            table.rules[key] = rule
            tables.size += 1
            return
        old = table.rules[key]
        if rule.priority < old.priority:
            return
        if rule.priority > old.priority:
            table.numbers[key] = fresh
        table.rules[key] = rule

    def lookup(self, packet: Packet) -> FlowRule | None:
        """The highest-priority rule matching ``packet``, the earliest
        installed among equal priorities: one probe per mask."""
        best = None
        for table in self.table.masks.values():
            key = table.probe(packet)
            rule = table.rules.get(key)
            if rule is not None and (
                best is None
                or rule.priority > best.priority
                or (rule.priority == best.priority and table.numbers[key] < best_table.numbers[best_key])
            ):
                best, best_table, best_key = rule, table, key
        return best


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
    tight = set()
    for switch_id, rule in installs:
        switch = switches[switch_id]
        if rule.next_hop not in switch.ports and rule.next_hop is not None:
            raise ValueError(f"{switch_id} has no port toward {rule.next_hop}")
        if switch.capacity - switch.table.size < size:
            tight.add(switch_id)
    for switch_id in tight:
        switch = switches[switch_id]
        if _new_matches(switch, [rule for s, rule in installs if s == switch_id]) > switch.capacity - switch.table.size:
            return False
    for switch_id, rule in installs:
        switches[switch_id].install(rule)
    return True


def _new_matches(switch: Switch, rules: list[FlowRule]) -> int:
    """How many distinct matches of ``rules`` ``switch``'s table lacks; a
    match counts by its ``(mask, key)``, as the table files it."""
    new = set()
    for rule in rules:
        match = rule.match
        table = switch.table.masks.get(match.mask)
        if table is None or match.key not in table.rules:
            new.add((match.mask, match.key))
    return len(new)


def flow_dump(switch: Switch) -> list[FlowRule]:
    """Snapshot of the table in canonical order: priority descending, then
    install order, which is also the order in which lookup breaks ties.
    Sorted on each call by each rule's priority and the install number its
    mask table keeps beside it; the switch keeps no ordered list."""
    filed = [
        (-rule.priority, table.numbers[key], rule)
        for table in switch.table.masks.values()
        for key, rule in table.rules.items()
    ]
    return [rule for _, _, rule in sorted(filed)]


def format_flow_dump(switch: Switch) -> str:
    """One line per rule of :func:`flow_dump`; a forward rule prints the
    port its next hop is attached to."""
    lines = []
    for rule in flow_dump(switch):
        action = rule.action if rule.next_hop is None else f"{rule.action}:{switch.ports[rule.next_hop]}"
        tags = ",".join(sorted(rule.sec_profile_tags)) if rule.sec_profile_tags else "-"
        lines.append(f"priority={rule.priority} {rule.match.text()} tags={tags} action={action}")
    return "\n".join(lines) + ("\n" if lines else "")
