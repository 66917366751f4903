"""Cross-domain flow credentials: visited-path handles and transfer tokens.

Every flow that leaves its origin domain travels with a *handle* (the ordered
list of domains it has visited, integrity-tagged) and optionally a *policy
transfer token* (flow-scoped constraints the origin delegates to transit
domains).  Tags are keyed hashes over a canonical wire form; each domain tags
with its own key and verifies arrivals under the key of the adjacent domain
that forwarded them, so a tag survives exactly one hop and is re-minted at
each domain boundary.

Wire forms are pipe-delimited with fixed field order (see
``docs/wire-formats.md``); tamper tests rely on them being byte-precise.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from .labels import LabelWindow
from .policy import Constraint, ConstraintKind, DELEGABLE_KINDS

__all__ = [
    "AugmentedPacket",
    "Handle",
    "PolicyTransferToken",
    "handle_tag",
    "merge_constraints",
    "mint_handle",
    "mint_ptt",
    "ptt_tag",
    "validate_handle",
    "verify_ptt",
]


def _handle_payload(flow_id: str, origin_as: str, visited: tuple[str, ...]) -> bytes:
    return f"handle|v1|{flow_id}|{origin_as}|{','.join(visited)}".encode()


def _ptt_payload(flow_id: str, origin_as: str, constraints: tuple[Constraint, ...]) -> bytes:
    body = ";".join(c.text() for c in constraints)
    return f"ptt|v1|{flow_id}|{origin_as}|{body}".encode()


@dataclass(frozen=True)
class Handle:
    """Integrity-tagged record of the domains a flow has visited, in order."""

    flow_id: str
    origin_as: str
    visited: tuple[str, ...]
    tag: str

    def __post_init__(self) -> None:
        if not self.visited:
            raise ValueError("handle must record at least the origin domain")
        if len(set(self.visited)) != len(self.visited):
            raise ValueError(f"handle repeats a domain: {self.visited}")

    def payload(self) -> bytes:
        return _handle_payload(self.flow_id, self.origin_as, self.visited)

    def to_wire(self) -> str:
        return f"{self.payload().decode()}|{self.tag}"

    @classmethod
    def from_wire(cls, wire: str) -> Handle:
        kind, version, flow_id, origin, visited, tag = wire.split("|")
        if (kind, version) != ("handle", "v1"):
            raise ValueError(f"not a v1 handle: {wire!r}")
        return cls(flow_id, origin, tuple(visited.split(",")), tag)


def handle_tag(flow_id: str, origin_as: str, visited: tuple[str, ...], key: bytes) -> str:
    return hmac.new(key, _handle_payload(flow_id, origin_as, visited), hashlib.sha256).hexdigest()


def mint_handle(flow_id: str, origin_as: str, key: bytes) -> Handle:
    tag = handle_tag(flow_id, origin_as, (origin_as,), key)
    return Handle(flow_id, origin_as, (origin_as,), tag)


def extend_handle_record(handle: Handle, as_id: str, key: bytes) -> Handle:
    """Append ``as_id`` and re-tag under the extending domain's key.

    Callers must have validated the incoming handle first (see
    :func:`validate_handle`); this function does not check it.
    """
    visited = handle.visited + (as_id,)
    tag = handle_tag(handle.flow_id, handle.origin_as, visited, key)
    return Handle(handle.flow_id, handle.origin_as, visited, tag)


@dataclass(frozen=True)
class PolicyTransferToken:
    """Flow-scoped constraints delegated from the origin to transit domains."""

    flow_id: str
    origin_as: str
    constraints: tuple[Constraint, ...]
    tag: str

    def __post_init__(self) -> None:
        foreign = [c for c in self.constraints if c.kind not in DELEGABLE_KINDS]
        if foreign:
            raise ValueError(f"token carries non-flow-scoped constraints: {foreign}")

    def payload(self) -> bytes:
        return _ptt_payload(self.flow_id, self.origin_as, self.constraints)

    def to_wire(self) -> str:
        return f"{self.payload().decode()}|{self.tag}"

    @classmethod
    def from_wire(cls, wire: str) -> PolicyTransferToken:
        from .formats import _parse_constraint_token

        kind, version, flow_id, origin, body, tag = wire.split("|")
        if (kind, version) != ("ptt", "v1"):
            raise ValueError(f"not a v1 transfer token: {wire!r}")
        constraints = []
        for token in filter(None, body.split(";")):
            parsed = _parse_constraint_token(token, where="transfer token")
            if isinstance(parsed, tuple):
                raise ValueError("transfer token cannot carry a validity window")
            constraints.append(parsed)
        return cls(flow_id, origin, tuple(constraints), tag)


def ptt_tag(flow_id: str, origin_as: str, constraints: tuple[Constraint, ...], key: bytes) -> str:
    return hmac.new(key, _ptt_payload(flow_id, origin_as, constraints), hashlib.sha256).hexdigest()


def mint_ptt(
    flow_id: str, origin_as: str, constraints: tuple[Constraint, ...], key: bytes
) -> PolicyTransferToken | None:
    """Token carrying only delegable flow constraints; none means no token."""
    delegable = tuple(c for c in constraints if c.kind in DELEGABLE_KINDS)
    if not delegable:
        return None
    return PolicyTransferToken(flow_id, origin_as, delegable, ptt_tag(flow_id, origin_as, delegable, key))


def retag_ptt(
    ptt: PolicyTransferToken, extra: tuple[Constraint, ...], key: bytes
) -> PolicyTransferToken:
    """Transit re-emission: append the transit domain's own delegable flow
    constraints, keep origin attribution, re-tag under the forwarder's key."""
    merged = ptt.constraints + tuple(
        c for c in extra if c.kind in DELEGABLE_KINDS and c not in ptt.constraints
    )
    return PolicyTransferToken(
        ptt.flow_id, ptt.origin_as, merged, ptt_tag(ptt.flow_id, ptt.origin_as, merged, key)
    )


def verify_ptt(ptt: PolicyTransferToken, key: bytes) -> bool:
    expected = ptt_tag(ptt.flow_id, ptt.origin_as, ptt.constraints, key)
    return hmac.compare_digest(expected, ptt.tag)


@dataclass(frozen=True)
class AugmentedPacket:
    """Packet plus its cross-domain credentials, as transferred at an edge."""

    packet: object
    handle: Handle
    ptt: PolicyTransferToken | None = None

    def __post_init__(self) -> None:
        flow_id = getattr(self.packet, "flow_id", None)
        if flow_id is not None and self.handle.flow_id != flow_id:
            raise ValueError(
                f"handle flow {self.handle.flow_id!r} does not match packet flow {flow_id!r}"
            )

    def to_wire(self) -> str:
        p = self.packet
        packet_line = (
            f"pkt|v1|{p.src_ip}|{p.dst_ip}|{p.src_mac}|{p.dst_mac}|{p.ip_proto}"
            f"|{p.service_port}|{p.packet_type}|{p.payload_size}|{p.timestamp}"
        )
        lines = [packet_line, self.handle.to_wire()]
        if self.ptt is not None:
            lines.append(self.ptt.to_wire())
        return "\n".join(lines)

    @classmethod
    def from_wire(cls, wire: str) -> AugmentedPacket:
        from ipaddress import IPv4Address

        from .dataplane import Packet

        lines = wire.split("\n")
        if len(lines) not in (2, 3):
            raise ValueError("augmented packet wire form has 2 or 3 lines")
        kind, version, src_ip, dst_ip, src_mac, dst_mac, proto, port, ptype, size, ts = lines[0].split("|")
        if (kind, version) != ("pkt", "v1"):
            raise ValueError(f"not a v1 packet line: {lines[0]!r}")
        packet = Packet(
            src_ip=IPv4Address(src_ip),
            dst_ip=IPv4Address(dst_ip),
            src_mac=src_mac,
            dst_mac=dst_mac,
            ip_proto=proto,
            service_port=int(port),
            packet_type=ptype,
            payload_size=int(size),
            timestamp=int(ts),
        )
        handle = Handle.from_wire(lines[1])
        ptt = PolicyTransferToken.from_wire(lines[2]) if len(lines) == 3 else None
        return cls(packet, handle, ptt)


def validate_handle(ctrl, handle: Handle) -> bool:
    """A handle is acceptable at a domain iff its tag verifies under the key
    of the domain it last visited, its visited list is duplicate-free, and
    that last domain is a topology neighbor."""
    if len(set(handle.visited)) != len(handle.visited):
        return False
    last = handle.visited[-1]
    if last not in ctrl.topo.neighbors():
        return False
    key = ctrl.key_ring.get(last)
    if key is None:
        return False
    expected = handle_tag(handle.flow_id, handle.origin_as, handle.visited, key)
    return hmac.compare_digest(expected, handle.tag)


def merge_constraints(
    window: LabelWindow, ptt: PolicyTransferToken | None
) -> tuple[LabelWindow, tuple[Constraint, ...]]:
    """Conjoin the winning allow's label window with a (verified) token.

    The token's label-path constraints narrow ``window`` on both bounds; an
    empty result is unsatisfiable and callers turn it into a drop.  The
    token's other constraints are returned for the packet-predicate and rate
    checks.
    """
    delegated = ptt.constraints if ptt is not None else ()
    labels = [c.label for c in delegated if c.kind is ConstraintKind.LABEL_PATH]
    others = tuple(c for c in delegated if c.kind is not ConstraintKind.LABEL_PATH)
    return window.intersect(LabelWindow.conjoin(labels)), others
