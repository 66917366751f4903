"""Cross-domain flow credentials: visited-path handles and transfer tokens.

Every flow that leaves its origin domain travels with one credential, a
*handle*: the ordered list of domains it has visited, integrity-tagged, and
optionally the *policy transfer token* it carries (flow-scoped constraints
the origin delegates to transit domains).  A credential keeps only what the
packet does not carry: the flow id is the packet's own, and a handle's
origin is its first visited domain.  Tags are HMAC-SHA256 over a canonical
pipe-delimited payload that takes the flow id from its caller
(``handle|v1|flow|visited,...|token-tag`` and ``ptt|v1|flow|constraint;...``),
so flipping any tag bit or payload field, or presenting the credential on
another flow, fails verification.  A handle's payload ends in its token's
tag (``-`` for no token), so the handle's tag binds the token: stripping or
swapping it fails the handle check, and a domain mints its token before its
handle.

Tagging follows a chain-of-keys model: each domain controller owns one key
(``handle_key`` in the scenario) and holds the keys of its topology
neighbors and of no other domain (its *key ring*, which is therefore also
its neighbor set).  Every domain that forwards a credential re-tags it
under its own key (a handle gains the domain's id, a token its delegable
flow constraints), and the next domain verifies it under the key of the
adjacent domain it came from, the last entry of the handle's visited list.
:func:`extend_handle` and :func:`forward_ptt` build each credential, the
origin's first one and every re-tagged one alike; :func:`forward_ptt` alone
picks the delegable kinds (``DELEGABLE_KINDS``: label, ``pkt.`` and rate
constraints) out of the winner's flow constraints.

A key is a :class:`DomainKey`, prepared once per domain when the world is
built and shared by every key ring that names the domain: it holds the
secret and its keyed inner and outer SHA-256 states (RFC 2104), so a tag
copies those states and hashes only the payload; it never works out the
key schedule again.  Verification still recomputes a credential's tag from
its content and compares it with :func:`hmac.compare_digest`.
"""

from __future__ import annotations

import hashlib
import hmac

from .frozen import frozen
from .labels import LabelWindow
from .policy import Constraint, ConstraintKind

__all__ = [
    "DomainKey",
    "Handle",
    "PolicyTransferToken",
    "extend_handle",
    "forward_ptt",
    "handle_tag",
    "merge_constraints",
    "ptt_tag",
    "validate_handle",
    "verify_ptt",
]

# Flow-scoped constraint kinds that may be delegated downstream in a
# policy transfer token; SIGNATURE stays local to the defining domain.
DELEGABLE_KINDS = frozenset({ConstraintKind.LABEL_PATH, ConstraintKind.PACKET_ATTR, ConstraintKind.RATE_THRESHOLD})


# each byte of a zero-padded secret XORed with HMAC's inner and outer pads
_INNER_PAD = bytes(x ^ 0x36 for x in range(256))
_OUTER_PAD = bytes(x ^ 0x5C for x in range(256))


class DomainKey:
    """A domain's HMAC-SHA256 key with its key schedule worked out once.

    :meth:`tag` equals ``hmac.new(secret, payload, hashlib.sha256).hexdigest()``
    and leaves the prepared states as they were, so one key tags any number
    of payloads."""

    __slots__ = ("secret", "_inner", "_outer")

    def __init__(self, secret: bytes):
        self.secret = secret
        block = hashlib.sha256().block_size
        padded = (hashlib.sha256(secret).digest() if len(secret) > block else secret).ljust(block, b"\0")
        self._inner = hashlib.sha256(padded.translate(_INNER_PAD))
        self._outer = hashlib.sha256(padded.translate(_OUTER_PAD))

    def tag(self, payload: bytes) -> str:
        inner = self._inner.copy()
        inner.update(payload)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.hexdigest()


@frozen(slots=True)
class Handle:
    """Integrity-tagged record of the domains a flow has visited, in order
    (the first is its origin), and of the transfer token it carries."""

    visited: tuple[str, ...]
    tag: str
    ptt: PolicyTransferToken | None = None

    def __post_init__(self) -> None:
        if not self.visited:
            raise ValueError("handle must record at least the origin domain")
        if len(set(self.visited)) != len(self.visited):
            raise ValueError(f"handle repeats a domain: {self.visited}")


def handle_tag(flow_id: str, visited: tuple[str, ...], ptt: PolicyTransferToken | None, key: DomainKey) -> str:
    token = ptt.tag if ptt is not None else "-"
    return key.tag(f"handle|v1|{flow_id}|{','.join(visited)}|{token}".encode())


def extend_handle(
    handle: Handle | None, flow_id: str, as_id: str, ptt: PolicyTransferToken | None, key: DomainKey
) -> Handle:
    """The handle flow ``flow_id`` leaves ``as_id`` with, holding the token
    ``ptt`` it leaves with and tagged under ``key``: ``handle``'s visited
    list with ``as_id`` appended, or with no handle a new one that
    ``as_id`` originates.

    Callers must have validated the incoming handle first (see
    :func:`validate_handle`); this function does not check it.
    """
    visited = (as_id,) if handle is None else handle.visited + (as_id,)
    return Handle(visited, handle_tag(flow_id, visited, ptt, key), ptt)


@frozen(slots=True)
class PolicyTransferToken:
    """Flow-scoped constraints delegated from the origin to transit domains."""

    constraints: tuple[Constraint, ...]
    tag: str

    def __post_init__(self) -> None:
        foreign = [c for c in self.constraints if c.kind not in DELEGABLE_KINDS]
        if foreign:
            raise ValueError(f"token carries non-flow-scoped constraints: {foreign}")


def ptt_tag(flow_id: str, constraints: tuple[Constraint, ...], key: DomainKey) -> str:
    body = ";".join(map(str, constraints))
    return key.tag(f"ptt|v1|{flow_id}|{body}".encode())


def forward_ptt(
    ptt: PolicyTransferToken | None,
    flow_id: str,
    constraints: tuple[Constraint, ...],
    key: DomainKey,
) -> PolicyTransferToken | None:
    """The token flow ``flow_id`` leaves a domain with, tagged under ``key``.

    ``ptt`` keeps its constraints and gains the delegable ones of
    ``constraints`` it lacks.  With no token, a new one carries the
    delegable ones; when there are none, there is no token.
    """
    carried = ptt.constraints if ptt is not None else ()
    merged = carried + tuple(c for c in constraints if c.kind in DELEGABLE_KINDS and c not in carried)
    if ptt is None and not merged:
        return None
    return PolicyTransferToken(merged, ptt_tag(flow_id, merged, key))


def verify_ptt(ptt: PolicyTransferToken, flow_id: str, key: DomainKey) -> bool:
    return hmac.compare_digest(ptt_tag(flow_id, ptt.constraints, key), ptt.tag)


def validate_handle(handle: Handle, flow_id: str, key_ring: dict[str, DomainKey]) -> bool:
    """A handle is acceptable at a domain for flow ``flow_id`` iff the
    domain it last visited is in the domain's key ring, which holds exactly
    its topology neighbors, and its tag, which covers its token's tag,
    verifies under that neighbor's key.  The token's own tag is checked
    apart (:func:`verify_ptt`).  Construction already refuses a visited
    list that repeats a domain."""
    key = key_ring.get(handle.visited[-1])
    if key is None:
        return False
    return hmac.compare_digest(handle_tag(flow_id, handle.visited, handle.ptt, key), handle.tag)


def merge_constraints(
    window: LabelWindow, ptt: PolicyTransferToken | None
) -> tuple[LabelWindow, tuple[Constraint, ...]]:
    """Conjoin the winning allow's label window with a (verified) token.

    The token's label-path constraints narrow ``window`` on both bounds; an
    empty result is unsatisfiable and callers turn it into a drop.  The
    token's other constraints are returned for the packet-predicate and rate
    checks.
    """
    if ptt is None:
        return window, ()
    labels = [c.label for c in ptt.constraints if c.kind is ConstraintKind.LABEL_PATH]
    others = tuple(c for c in ptt.constraints if c.kind is not ConstraintKind.LABEL_PATH)
    return window.intersect(LabelWindow.conjoin(labels)), others
