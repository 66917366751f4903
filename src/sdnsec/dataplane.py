"""Simulated match-action switches: flow tables and lookup.

A switch keeps its flow table as a tuple space (Srinivasan, Suri & Varghese,
SIGCOMM 1999; the megaflow classifier of Open vSwitch): one hash table per
wildcard mask, the set of match fields a rule fixes.  A lookup probes each
mask once with the packet's values for that mask's fields, so its cost grows
with the number of masks (three in a simulated run: ARP, flow and block
rules), not with the number of rules.  A lookup returns the highest-priority
matching rule, and among equal priorities the one installed first; the
simulation executes it (forward, drop or punt to the controller) and raises
a packet-in on a miss.  A forward rule names its next hop, the attached peer
(switch or host) the packet goes to; port numbers exist only in a switch's
wiring (``Switch.ports``) and in its flow dump.  A forward rule at a
domain's egress gateway also carries the flow's handle, which holds its
transfer token, and the switch adds it to the packet as it leaves.
:func:`install_batch` writes a flow-mod batch all or nothing, like an
OpenFlow 1.4 bundle; it is the one write path and the one capacity and
next-hop check.  It counts the rules each switch is named in first, and
counts the matches new to a switch only where that count could overflow
its table.  All mutation happens on the simulation loop's thread.

Packet and match addresses are plain ``int`` values, so a probe key hashes
natively.  A packet prints its two addresses once, for its flow id and the
records; a flow dump prints a match's as dotted text.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import count
from operator import attrgetter

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


@dataclass(frozen=True)
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
        object.__setattr__(self, "src_text", src_text)
        object.__setattr__(self, "dst_text", dst_text)
        object.__setattr__(self, "flow_id", derive_flow_id(src_text, dst_text, self.ip_proto, self.service_port))

    @cached_property
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
def _mask(nones: tuple[bool, ...]) -> _Mask:
    """The header fields a match fixes, from which of its fields are None."""
    return tuple(name for name, none in zip(_HEADER_FIELDS, nones) if not none)


@cache
def _probe(mask: _Mask) -> Callable[[object], object]:
    """Reads the fields ``mask`` fixes: a match's key, or a packet's probe."""
    return attrgetter(*mask) if mask else lambda _item: ()


@dataclass(frozen=True)
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
        mask = _mask(
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
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "key", _probe(mask)(self))

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


@dataclass(slots=True)
class FlowRule:
    match: FlowMatch
    action: str
    priority: int
    next_hop: str | None = None
    sec_profile_tags: frozenset[str] = frozenset()
    # the credential added to packets leaving the domain through this rule
    handle: Handle | None = None

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ValueError("priority must be >= 0")
        if self.action == ActionKind.FORWARD and self.next_hop is None:
            raise ValueError("forward rule needs a next hop")
        if self.action != ActionKind.FORWARD and self.next_hop is not None:
            raise ValueError("only forward rules carry a next hop")


class _MaskTable:
    """The rules of one wildcard mask, keyed by their match's ``key``:
    ``probe(packet)`` is the key a matching packet yields.  An entry is
    ``(-priority, install number, rule)``, so the least entry is the one a
    scan in priority order would meet first."""

    __slots__ = ("probe", "entries")

    def __init__(self, mask: _Mask):
        self.probe = _probe(mask)
        self.entries: dict[object, tuple[int, int, FlowRule]] = {}


class FlowTable:
    """A switch's rules as a tuple space: one :class:`_MaskTable` per
    wildcard mask in use.  ``len()`` is the number of rules."""

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
        """File ``rule`` under its match's mask and key.  A rule for an
        installed match replaces it, unless its priority is lower, when it
        is ignored.  At equal priority the replacement keeps the old rule's
        place among equal priorities, so re-installing a rule is idempotent;
        at higher priority it counts as newly installed.
        :func:`install_batch` checks next hops and capacity first."""
        mask = rule.match.mask
        table = self.table.masks.get(mask) or self.table.masks.setdefault(mask, _MaskTable(mask))
        entry = (-rule.priority, next(self._install_numbers), rule)
        # one hash of the key files a new match, the common case
        existing = table.entries.setdefault(rule.match.key, entry)
        if existing is entry:
            self.table.size += 1
            return
        _, number, old = existing
        if rule.priority < old.priority:
            return
        if rule.priority > old.priority:
            number = entry[1]
        table.entries[rule.match.key] = (-rule.priority, number, rule)

    def lookup(self, packet: Packet) -> FlowRule | None:
        """The highest-priority rule matching ``packet``, the earliest
        installed among equal priorities: one probe per mask."""
        best = None
        for table in self.table.masks.values():
            entry = table.entries.get(table.probe(packet))
            if entry is not None and (best is None or entry < best):
                best = entry
        return None if best is None else best[2]


def install_batch(switches: dict[str, Switch], installs: Sequence[tuple[str, FlowRule]]) -> bool:
    """Write every ``(switch id, rule)`` of ``installs`` through
    :meth:`Switch.install`, or none of them.  A forward rule whose next hop
    is not attached to its switch raises ``ValueError`` before anything is
    written.  The capacity check counts the rules each switch is named in
    first; only where that count could overflow the switch's table does it
    count the matches new to the switch, a match named twice counted once.
    When some switch lacks room for those, the batch is refused and False
    returned."""
    named: dict[str, int] = {}
    for switch_id, rule in installs:
        if rule.next_hop is not None and rule.next_hop not in switches[switch_id].ports:
            raise ValueError(f"{switch_id} has no port toward {rule.next_hop}")
        named[switch_id] = named.get(switch_id, 0) + 1
    for switch_id, count in named.items():
        switch = switches[switch_id]
        room = switch.capacity - switch.table.size
        if count > room and _new_matches(switch, [rule for s, rule in installs if s == switch_id]) > room:
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
        if table is None or match.key not in table.entries:
            new.add((match.mask, match.key))
    return len(new)


def flow_dump(switch: Switch) -> list[FlowRule]:
    """Snapshot of the table in canonical order: priority descending, then
    install order, which is also the order in which lookup breaks ties.
    Sorted on each call; the switch keeps no ordered list."""
    entries = [entry for table in switch.table.masks.values() for entry in table.entries.values()]
    return [rule for _, _, rule in sorted(entries)]


def format_flow_dump(switch: Switch) -> str:
    """One line per rule of :func:`flow_dump`; a forward rule prints the
    port its next hop is attached to."""
    lines = []
    for rule in flow_dump(switch):
        action = rule.action if rule.next_hop is None else f"{rule.action}:{switch.ports[rule.next_hop]}"
        tags = ",".join(sorted(rule.sec_profile_tags)) if rule.sec_profile_tags else "-"
        lines.append(f"priority={rule.priority} {rule.match.text()} tags={tags} action={action}")
    return "\n".join(lines) + ("\n" if lines else "")
