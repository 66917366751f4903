"""Policy expressions, flow contexts and the match/select semantics.

A policy expression pairs a set of wildcardable condition fields with an
allow/deny action plus obligations (a switch path, a label requirement on
the path, a pinned exit switch, rate budgets, constraints to delegate and
a security profile), which the controller reads off the winner.
Selection over a repository is default-deny, deny-overrides, then
most-specific-allow with the smallest id as the final tie-break, so the
winner is a pure function of (repository, context); no winner is the
default deny.  A constraint prints as its policy-format token through
``str()``.

A flow context is the packet itself plus what the controller knows about the
flow.  Host MACs, in a packet or a selector, arrive normalized from the
reader (:func:`normalize_mac`), so matching compares them as they are.

A repository is selected through a :class:`PolicyIndex`, which files each
expression under its first exact flow id, source host, destination host or
service port.  A selection probes those few buckets plus the wildcard list
and runs the full match on the candidates only, so its host cost follows the
expressions that could match, not the repository size.  The controller's
modelled cost (``CostModel.per_pe`` ticks per expression) is unchanged.

Addresses are plain ``int`` values, which hash and compare natively; dotted
text appears only where a document is parsed and where output is printed
(:func:`format_ipv4`).  A subnet stays an ``IPv4Network``, and membership is
tested as ``address & mask == network`` on integers worked out once per
subnet (:func:`subnet_bits`).
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from ipaddress import IPv4Network
from typing import TYPE_CHECKING

from .labels import LabelWindow, SecurityLabel

if TYPE_CHECKING:
    from .dataplane import Packet

__all__ = [
    "Action",
    "Constraint",
    "ConstraintKind",
    "DomainInfo",
    "DuplicatePolicyIdError",
    "EndpointSelector",
    "FlowContext",
    "PolicyExpression",
    "PolicyIndex",
    "check_unique_ids",
    "derive_flow_id",
    "format_ipv4",
    "match_pe",
    "normalize_mac",
    "predicates_hold",
    "select_policy",
    "specificity",
    "subnet_bits",
]

_MAC_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")

# A defense block rule's provenance: this prefix and the offender's address.
# An admitted flow's rules carry their policy's id, so no id may start with it.
BLOCK_PROVENANCE_PREFIX = "defense:"


def normalize_mac(text: str) -> str:
    """Validate and lowercase a six-octet colon-separated MAC address."""
    mac = text.strip().lower()
    if not _MAC_RE.match(mac):
        raise ValueError(f"bad MAC address {text!r}: expected six colon-separated octets")
    return mac


def format_ipv4(address: int) -> str:
    """The dotted-quad text of an integer IPv4 address."""
    return f"{address >> 24}.{address >> 16 & 255}.{address >> 8 & 255}.{address & 255}"


def subnet_bits(subnet: IPv4Network) -> tuple[int, int]:
    """``(network, mask)`` of ``subnet`` as integers: an address is in the
    subnet iff ``address & mask == network``."""
    return int(subnet.network_address), int(subnet.netmask)


def derive_flow_id(src_text: str, dst_text: str, ip_proto: str, service_port: int) -> str:
    """Canonical flow key used to tie packets, handles and tokens together;
    the addresses come as dotted text (:func:`format_ipv4`), which a packet
    prints once."""
    return f"{src_text}>{dst_text}:{service_port}/{ip_proto}"


class Action(Enum):
    ALLOW = "allow"
    DENY = "deny"


class ConstraintKind(Enum):
    LABEL_PATH = "label_path"
    RATE_THRESHOLD = "rate_threshold"
    PACKET_ATTR = "packet_attr"
    SIGNATURE = "signature"


# a PACKET_ATTR constraint's attribute -> the packet's value as it spells it
PACKET_ATTRS = {"type": lambda packet: packet.packet_type, "port": lambda packet: str(packet.service_port)}


@dataclass(frozen=True)
class Constraint:
    """One flow or domain constraint.

    LABEL_PATH applies its label constraint to every element of the path
    (domains across domains, switches within one).  RATE_THRESHOLD carries a
    requests-per-window budget.  PACKET_ATTR is an equality predicate on one
    of ``PACKET_ATTRS``.  SIGNATURE names an attack-signature token compared
    against the packet type.
    """

    kind: ConstraintKind
    label: LabelWindow | None = None
    rate: Fraction | None = None
    attr: str | None = None
    value: str | None = None
    signature: str | None = None

    def __post_init__(self) -> None:
        if self.kind is ConstraintKind.LABEL_PATH:
            if self.label is None:
                raise ValueError("LABEL_PATH constraint requires exactly one label constraint")
        elif self.kind is ConstraintKind.RATE_THRESHOLD:
            if self.rate is None or self.rate <= 0:
                raise ValueError("RATE_THRESHOLD constraint requires a positive rate")
        elif self.kind is ConstraintKind.PACKET_ATTR:
            if self.attr not in PACKET_ATTRS or self.value is None:
                raise ValueError(f"PACKET_ATTR constraint requires attr ({', '.join(PACKET_ATTRS)}) and value")
        elif not self.signature:
            raise ValueError("SIGNATURE constraint requires a signature token")

    def __str__(self) -> str:
        if self.kind is ConstraintKind.LABEL_PATH:
            assert self.label is not None
            return str(self.label)
        if self.kind is ConstraintKind.RATE_THRESHOLD:
            assert self.rate is not None
            value = int(self.rate) if self.rate.denominator == 1 else self.rate
            return f"rate<={value}"
        if self.kind is ConstraintKind.PACKET_ATTR:
            return f"pkt.{self.attr}={self.value}"
        return f"sig.{self.signature}"


@dataclass(frozen=True)
class EndpointSelector:
    """Wildcardable description of one end of a flow; ``None`` means any."""

    as_id: str | None = None
    subnet: IPv4Network | None = None
    as_type: str | None = None
    label_req: LabelWindow | None = None
    host_ip: int | None = None
    host_mac: str | None = None

    @cached_property
    def _subnet_bits(self) -> tuple[int, int]:
        """The set subnet's ``(network, mask)``, worked out on first read."""
        return subnet_bits(self.subnet)


ANY_ENDPOINT = EndpointSelector()


def _classify_path(entries: tuple[str, ...]) -> str:
    kinds = {"as" if entry.startswith("AS") else "switch" for entry in entries}
    if len(kinds) > 1:
        raise ValueError(f"path mixes AS and switch identifiers: {entries}")
    return kinds.pop()


@dataclass(frozen=True)
class PolicyExpression:
    """One policy rule: condition fields, constraints and an action.

    The obligations an allow puts on its flow are derived from the fields
    on first read and kept on the instance.
    """

    id: str
    action: Action
    flow_id: str | None = None
    source: EndpointSelector = ANY_ENDPOINT
    dest: EndpointSelector = ANY_ENDPOINT
    user: str | None = None
    flow_cons: tuple[Constraint, ...] = ()
    dom_cons: tuple[Constraint, ...] = ()
    services: frozenset[int] | None = None
    sec_profile: frozenset[str] | None = None
    path: tuple[str, ...] | None = None
    action_exit: str | None = None
    validity: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.id.startswith(BLOCK_PROVENANCE_PREFIX):
            raise ValueError(f"policy id {self.id!r} starts with the reserved prefix {BLOCK_PROVENANCE_PREFIX!r}")
        if self.path is not None:
            if not self.path:
                raise ValueError("path must be nonempty or wildcard")
            if len(set(self.path)) != len(self.path):
                raise ValueError(f"path repeats an element: {self.path}")
            _classify_path(self.path)
        if self.services is not None and not self.services:
            raise ValueError("services must be a nonempty port set or wildcard")
        if self.sec_profile is not None:
            if not self.sec_profile:
                raise ValueError("security profile must be nonempty or wildcard")
            unknown = self.sec_profile - {"conf", "intg"}
            if unknown:
                raise ValueError(f"unknown security-profile tokens: {sorted(unknown)}")
        if self.validity is not None:
            start, end = self.validity
            if start > end:
                raise ValueError(f"validity window start {start} after end {end}")

    @cached_property
    def switch_path(self) -> tuple[str, ...] | None:
        """A switch-typed path: the switches the flow must cross, in order."""
        return self.path if self.path is not None and _classify_path(self.path) == "switch" else None

    @cached_property
    def domain_path(self) -> tuple[str, ...] | None:
        """A domain-typed path: a condition on the domains already traversed."""
        return self.path if self.path is not None and _classify_path(self.path) == "as" else None

    @cached_property
    def label_window(self) -> LabelWindow:
        """All LABEL_PATH constraints of this expression collapsed to one
        window; an empty one admits no label."""
        labels = [c.label for c in self.flow_cons + self.dom_cons if c.kind is ConstraintKind.LABEL_PATH]
        return LabelWindow.conjoin(labels)


@dataclass(frozen=True)
class DomainInfo:
    """What a controller knows about an AS when matching: identity, address
    space, administrative type and security label.  Unknown pieces are None
    and fail any non-wildcard condition on them."""

    as_id: str
    subnet: IPv4Network | None = None
    as_type: str | None = None
    label: SecurityLabel | None = None


@dataclass(frozen=True)
class FlowContext:
    """What policies see of one flow: its packet, plus what the controller
    knows about it (the two domains, the tick, the bound user and the
    domains traversed so far).  The packet's MACs arrive normalized from the
    scenario reader."""

    packet: Packet
    src_as: DomainInfo
    dst_as: DomainInfo
    timestamp: int
    user: str | None = None
    traversed_path: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.traversed_path)) != len(self.traversed_path):
            raise ValueError(f"traversed path repeats a domain: {self.traversed_path}")


def _selector_matches(sel: EndpointSelector, domain: DomainInfo, ip: int, mac: str) -> bool:
    if sel.as_id is not None and sel.as_id != domain.as_id:
        return False
    if sel.subnet is not None:
        network, mask = sel._subnet_bits
        if (ip & mask) != network:
            return False
    if sel.as_type is not None and sel.as_type != domain.as_type:
        return False
    if sel.label_req is not None:
        if domain.label is None or not sel.label_req.satisfies(domain.label):
            return False
    if sel.host_ip is not None and sel.host_ip != ip:
        return False
    if sel.host_mac is not None and sel.host_mac != mac:
        return False
    return True


def predicates_hold(constraints: tuple[Constraint, ...], ctx: FlowContext) -> bool:
    """True iff every PACKET_ATTR and SIGNATURE constraint holds for ``ctx``;
    other kinds are not predicates on the packet and are skipped."""
    packet = ctx.packet
    for constraint in constraints:
        if constraint.kind is ConstraintKind.PACKET_ATTR:
            if PACKET_ATTRS[constraint.attr](packet) != constraint.value:
                return False
        elif constraint.kind is ConstraintKind.SIGNATURE:
            if packet.packet_type != constraint.signature:
                return False
    return True


def match_pe(pe: PolicyExpression, ctx: FlowContext) -> bool:
    """True iff every non-wildcard condition of ``pe`` holds for ``ctx``.

    Subnets match by containment of the host address; a domain-typed path
    condition requires the context's traversed domains to equal it exactly;
    a switch-typed path is an obligation, never a condition.
    """
    packet = ctx.packet
    if pe.flow_id is not None and pe.flow_id != packet.flow_id:
        return False
    if not _selector_matches(pe.source, ctx.src_as, packet.src_ip, packet.src_mac):
        return False
    if not _selector_matches(pe.dest, ctx.dst_as, packet.dst_ip, packet.dst_mac):
        return False
    if pe.user is not None and pe.user != ctx.user:
        return False
    if pe.services is not None and packet.service_port not in pe.services:
        return False
    if pe.domain_path is not None and ctx.traversed_path != pe.domain_path:
        return False
    if pe.validity is not None:
        start, end = pe.validity
        if not start <= ctx.timestamp < end:
            return False
    return predicates_hold(pe.flow_cons + pe.dom_cons, ctx)


def specificity(pe: PolicyExpression) -> int:
    """Count of non-wildcard condition fields, used to rank overlapping allows."""
    count = 0
    count += pe.flow_id is not None
    for sel in (pe.source, pe.dest):
        count += sel.as_id is not None
        count += sel.subnet is not None
        count += sel.as_type is not None
        count += sel.label_req is not None
        count += sel.host_ip is not None
        count += sel.host_mac is not None
    count += pe.user is not None
    count += bool(pe.flow_cons)
    count += bool(pe.dom_cons)
    count += pe.services is not None
    count += pe.sec_profile is not None
    count += pe.path is not None
    count += pe.validity is not None
    return count


class DuplicatePolicyIdError(ValueError):
    """Two expressions of one repository share an id; ``position`` is the
    index of the second."""

    def __init__(self, pe_id: str, first: int, position: int):
        super().__init__(f"duplicate id {pe_id!r}, first at position {first}")
        self.position = position


def check_unique_ids(pes: list[PolicyExpression]) -> None:
    """Ids name the matched expression in every decision and break selection
    ties, so one repository never repeats an id."""
    first: dict[str, int] = {}
    for position, pe in enumerate(pes):
        if pe.id in first:
            raise DuplicatePolicyIdError(pe.id, first[pe.id], position)
        first[pe.id] = position


class PolicyIndex:
    """One domain's repository, filed for selection.

    Each expression sits in exactly one bucket family, chosen by its first
    exact field: flow id, source host IP, destination host IP, then services
    (one entry per port).  Expressions with none of these go to one wildcard
    list.  A context has one value per family, so a probe sees each
    expression at most once, and any expression that can match the context
    is among the candidates.  Ids are unique, as in every repository.

    ``len()`` is the expression count.
    """

    def __init__(self, pes: Iterable[PolicyExpression]):
        pes = list(pes)
        check_unique_ids(pes)
        self._count = len(pes)
        self._by_flow: dict[str, list[PolicyExpression]] = {}
        self._by_src: dict[int, list[PolicyExpression]] = {}
        self._by_dst: dict[int, list[PolicyExpression]] = {}
        self._by_port: dict[int, list[PolicyExpression]] = {}
        self._wild: list[PolicyExpression] = []
        for pe in pes:
            if pe.flow_id is not None:
                self._by_flow.setdefault(pe.flow_id, []).append(pe)
            elif pe.source.host_ip is not None:
                self._by_src.setdefault(pe.source.host_ip, []).append(pe)
            elif pe.dest.host_ip is not None:
                self._by_dst.setdefault(pe.dest.host_ip, []).append(pe)
            elif pe.services is not None:
                for port in pe.services:
                    self._by_port.setdefault(port, []).append(pe)
            else:
                self._wild.append(pe)

    def __len__(self) -> int:
        return self._count

    def candidates(self, ctx: FlowContext) -> list[PolicyExpression]:
        """Every expression that could match ``ctx``, each once."""
        packet = ctx.packet
        return [
            *self._by_flow.get(packet.flow_id, ()),
            *self._by_src.get(packet.src_ip, ()),
            *self._by_dst.get(packet.dst_ip, ()),
            *self._by_port.get(packet.service_port, ()),
            *self._wild,
        ]


def select_policy(
    repo: PolicyIndex | Iterable[PolicyExpression], ctx: FlowContext
) -> PolicyExpression | None:
    """The expression of one domain's repository that decides ``ctx``.

    No match returns None (default deny); any matching deny wins over every
    allow; otherwise the most specific allow wins, ties broken by the
    lexicographically smallest id.  A plain sequence of expressions is
    indexed first.
    """
    index = repo if isinstance(repo, PolicyIndex) else PolicyIndex(repo)
    matches = [pe for pe in index.candidates(ctx) if match_pe(pe, ctx)]
    if not matches:
        return None
    denies = [pe for pe in matches if pe.action is Action.DENY]
    if denies:
        return min(denies, key=lambda p: p.id)
    return min(matches, key=lambda p: (-specificity(p), p.id))
