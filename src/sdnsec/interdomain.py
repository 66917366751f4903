"""Cross-domain flow credentials: visited-path handles and transfer tokens.

Every flow that leaves its origin domain travels with a *handle* (the ordered
list of domains it has visited, integrity-tagged) and optionally a *policy
transfer token* (flow-scoped constraints the origin delegates to transit
domains).  Tags are HMAC-SHA256 over a canonical pipe-delimited payload
(``handle|v1|flow|origin|visited,...`` and ``ptt|v1|flow|origin|constraint;...``),
so flipping any tag bit or payload field fails verification.

Tagging follows a chain-of-keys model: each domain controller owns one key
(``handle_key`` in the scenario) and holds the keys of its topology
neighbors and of no other domain (its *key ring*, which is therefore also
its neighbor set).  Every domain that forwards a credential re-tags it
under its own key (a handle gains the domain's id, a token its delegable
flow constraints), and the next domain verifies it under the key of the
adjacent domain it came from, the last entry of the handle's visited list.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from .labels import LabelWindow
from .policy import Constraint, ConstraintKind, DELEGABLE_KINDS

__all__ = [
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


def validate_handle(handle: Handle, key_ring: dict[str, bytes]) -> bool:
    """A handle is acceptable at a domain iff the domain it last visited is in
    the domain's key ring, which holds exactly its topology neighbors, and
    its tag verifies under that neighbor's key.  Construction already
    refuses a visited list that repeats a domain."""
    key = key_ring.get(handle.visited[-1])
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
