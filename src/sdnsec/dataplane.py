"""Simulated match-action switches: flow tables, lookup and table-miss events.

A switch owns a priority-ordered flow table.  An arriving packet executes the
highest-priority matching rule; a miss raises a packet-in for the controller.
The packet-in carries the packet, so the switch buffers nothing.  A forward
rule at a domain's egress gateway also carries the flow's handle and
transfer token, which the switch adds to the packet as it leaves.  All
mutation happens on the simulation loop's thread.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from ipaddress import IPv4Address

from .interdomain import Handle, PolicyTransferToken
from .labels import SecurityLabel
from .policy import derive_flow_id

__all__ = [
    "ActionKind",
    "FlowMatch",
    "FlowRule",
    "ForwardOutcome",
    "Packet",
    "Switch",
    "TableFullError",
    "flow_dump",
    "format_flow_dump",
]

DEFAULT_TABLE_CAPACITY = 1024

ARP_RULE_PRIORITY = 10
FLOW_RULE_PRIORITY = 100
BLOCK_RULE_PRIORITY = 200


class TableFullError(Exception):
    """A new match does not fit the flow table (see :meth:`Switch.room_for`)."""


@dataclass(frozen=True)
class Packet:
    src_ip: IPv4Address
    dst_ip: IPv4Address
    src_mac: str
    dst_mac: str
    ip_proto: str
    service_port: int
    packet_type: str
    payload_size: int = 64
    timestamp: int = 0

    @property
    def flow_id(self) -> str:
        return derive_flow_id(self.src_ip, self.dst_ip, self.ip_proto, self.service_port)


@dataclass(frozen=True)
class FlowMatch:
    """Wildcardable subset of packet header fields (None matches anything)."""

    src_ip: IPv4Address | None = None
    dst_ip: IPv4Address | None = None
    src_mac: str | None = None
    dst_mac: str | None = None
    ip_proto: str | None = None
    service_port: int | None = None
    packet_type: str | None = None
    in_port: int | None = None

    def matches(self, packet: Packet, in_port: int | None = None) -> bool:
        return (
            (self.src_ip is None or self.src_ip == packet.src_ip)
            and (self.dst_ip is None or self.dst_ip == packet.dst_ip)
            and (self.src_mac is None or self.src_mac == packet.src_mac)
            and (self.dst_mac is None or self.dst_mac == packet.dst_mac)
            and (self.ip_proto is None or self.ip_proto == packet.ip_proto)
            and (self.service_port is None or self.service_port == packet.service_port)
            and (self.packet_type is None or self.packet_type == packet.packet_type)
            and (self.in_port is None or self.in_port == in_port)
        )

    def text(self) -> str:
        parts = []
        for name in ("src_ip", "dst_ip", "src_mac", "dst_mac", "ip_proto", "service_port", "packet_type", "in_port"):
            value = getattr(self, name)
            parts.append(f"{name}={value if value is not None else '*'}")
        return " ".join(parts)


class ActionKind:
    FORWARD = "FORWARD"
    DROP = "DROP"
    TO_CONTROLLER = "TO_CONTROLLER"


@dataclass
class FlowRule:
    match: FlowMatch
    action: str
    priority: int
    out_port: int | None = None
    sec_profile_tags: frozenset[str] = frozenset()
    # credentials added to packets leaving the domain through this rule
    handle: Handle | None = None
    ptt: PolicyTransferToken | None = None
    packets: int = 0
    bytes: int = 0

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ValueError("priority must be >= 0")
        if self.action == ActionKind.FORWARD and self.out_port is None:
            raise ValueError("forward rule needs an output port")
        if self.action != ActionKind.FORWARD and self.out_port is not None:
            raise ValueError("only forward rules carry an output port")

    def text(self) -> str:
        action = f"{self.action}:{self.out_port}" if self.action == ActionKind.FORWARD else self.action
        tags = ",".join(sorted(self.sec_profile_tags)) if self.sec_profile_tags else "-"
        return f"priority={self.priority} {self.match.text()} tags={tags} action={action}"


@dataclass(frozen=True)
class ForwardOutcome:
    """Result of offering one packet to a switch."""

    kind: str  # forwarded | dropped | packet_in
    peer: str | None = None
    rule: FlowRule | None = None


@dataclass
class SwitchStats:
    offered: int = 0
    forwarded: int = 0
    dropped: int = 0
    packet_ins: int = 0


class Switch:
    """One forwarding element; owned by a controller over a control channel."""

    def __init__(
        self,
        switch_id: str,
        sec_label: SecurityLabel,
        capacity: int = DEFAULT_TABLE_CAPACITY,
    ):
        self.id = switch_id
        self.sec_label = sec_label
        self.capacity = capacity
        self.ports: dict[int, str] = {}
        self.table: list[FlowRule] = []
        self._by_match: dict[FlowMatch, FlowRule] = {}
        self.stats = SwitchStats()

    def attach(self, peer: str) -> int:
        """Wire a peer (switch or host id) to the next free port; injective."""
        if peer in self.ports.values():
            raise ValueError(f"{peer} already attached to {self.id}")
        port = len(self.ports) + 1
        self.ports[port] = peer
        return port

    def port_to(self, peer: str) -> int:
        for port, attached in self.ports.items():
            if attached == peer:
                return port
        raise KeyError(f"{self.id} has no port toward {peer}")

    def install(self, rule: FlowRule) -> None:
        """Insert in priority position; re-installing an identical match is
        idempotent and an identical-match rule of lower priority is replaced.
        A new match beyond capacity raises :class:`TableFullError`."""
        existing = self._by_match.get(rule.match)
        if existing is not None:
            if rule.priority < existing.priority:
                return
            carried = replace(rule, packets=existing.packets, bytes=existing.bytes)
            self._by_match[rule.match] = carried
            if rule.priority == existing.priority:
                self.table[self.table.index(existing)] = carried
            else:
                self.table.remove(existing)
                self._insort(carried)
            return
        if len(self.table) >= self.capacity:
            raise TableFullError(f"{self.id} flow table full ({self.capacity} entries)")
        self._by_match[rule.match] = rule
        self._insort(rule)

    def room_for(self, matches: set[FlowMatch]) -> bool:
        """True iff installing rules with ``matches`` stays within capacity;
        a match already installed takes no new entry."""
        new = sum(1 for match in matches if match not in self._by_match)
        return len(self.table) + new <= self.capacity

    def _insort(self, rule: FlowRule) -> None:
        # insertion point after equal priorities keeps insertion order stable
        index = bisect.bisect_right(self.table, -rule.priority, key=lambda r: -r.priority)
        self.table.insert(index, rule)

    def lookup(self, packet: Packet, in_port: int | None) -> FlowRule | None:
        for rule in self.table:
            if rule.match.matches(packet, in_port):
                return rule
        return None

    def process_packet(self, packet: Packet, in_port: int | None = None) -> ForwardOutcome:
        """Table lookup: execute the highest-priority match, else packet-in."""
        self.stats.offered += 1
        rule = self.lookup(packet, in_port)
        if rule is None:
            self.stats.packet_ins += 1
            return ForwardOutcome(kind="packet_in")
        rule.packets += 1
        rule.bytes += packet.payload_size
        if rule.action == ActionKind.DROP:
            self.stats.dropped += 1
            return ForwardOutcome(kind="dropped", rule=rule)
        if rule.action == ActionKind.TO_CONTROLLER:
            self.stats.packet_ins += 1
            return ForwardOutcome(kind="packet_in", rule=rule)
        self.stats.forwarded += 1
        return ForwardOutcome(kind="forwarded", peer=self.ports[rule.out_port], rule=rule)


def flow_dump(switch: Switch) -> list[FlowRule]:
    """Snapshot of the table in canonical order (priority desc, insertion)."""
    return list(switch.table)


def format_flow_dump(switch: Switch) -> str:
    lines = [rule.text() for rule in flow_dump(switch)]
    return "\n".join(lines) + ("\n" if lines else "")
