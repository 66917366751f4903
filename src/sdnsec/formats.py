"""The two textual policy formats and their round-trip serializers.

Repository format: a JSON array of flat string-field records, one record per
policy expression, with the fixed field set ``id, flowid, srcasid, srcassub,
srcastype, srcastrulabel, dstasid, dstassub, dstastype, dstastrulabel,
srcip, dstip, srcmac, dstmac, user, flowcons, domcons, services, secprof,
seq, action``.  An empty string and ``*`` both mean wildcard.

Compact format: ``<f1, f2, ..., f13>:<action>`` with the thirteen condition
fields ordered flow id, source domain, destination domain, source host IP,
destination host IP, source MAC, destination MAC, user, flow constraints,
domain constraints, services, security profile, path.  Sub-lists are wrapped
in ``(...)`` or ``{...}`` and split on ``;`` or ``,``.  A domain field is
either a bare AS id or a parenthesized descriptor whose elements are
classified by shape (CIDR, AS id, SL token, else type).  The action may
carry an exit-switch attribute: ``(1SW2, Allow)``.  An optional ``name =``
prefix supplies the expression id.  The full grammar lives in
``docs/policy-formats.md``.

Both formats share the record layout: a compact expression is lowered onto
a repository record (``COMPACT_COLUMNS``), so one builder makes every
expression and one encoder feeds both serializers.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from ipaddress import IPv4Address, IPv4Network

from .labels import LabelParseError, parse_label_constraint
from .policy import (
    Action,
    Constraint,
    ConstraintKind,
    DuplicatePolicyIdError,
    EndpointSelector,
    PolicyExpression,
    check_unique_ids,
    normalize_mac,
)

__all__ = [
    "PolicyParseError",
    "format_compact_pe",
    "parse_compact_pe",
    "parse_ipv4",
    "parse_network",
    "parse_record",
    "parse_repository",
    "serialize_repository",
]

WILDCARD = "*"

REPOSITORY_FIELDS = (
    "id",
    "flowid",
    "srcasid",
    "srcassub",
    "srcastype",
    "srcastrulabel",
    "dstasid",
    "dstassub",
    "dstastype",
    "dstastrulabel",
    "srcip",
    "dstip",
    "srcmac",
    "dstmac",
    "user",
    "flowcons",
    "domcons",
    "services",
    "secprof",
    "seq",
    "action",
)

# Compact position -> record column.  ``src`` and ``dst`` stand for a domain
# descriptor, whose elements fill that side's four ``as...`` columns.
COMPACT_COLUMNS = (
    "flowid", "src", "dst", "srcip", "dstip", "srcmac", "dstmac",
    "user", "flowcons", "domcons", "services", "secprof", "seq",
)


class PolicyParseError(ValueError):
    """A policy document or expression could not be parsed."""

    def __init__(self, message: str, *, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)
        self.where = where


def parse_ipv4(text: str) -> IPv4Address:
    """Parse a dotted quad, tolerating leading zeros in octets (``.04`` == ``.4``)."""
    parts = text.strip().split(".")
    if len(parts) == 4 and all(p.isdigit() for p in parts):
        text = ".".join(str(int(p)) for p in parts)
    return IPv4Address(text)


def parse_network(text: str) -> IPv4Network:
    """Parse ``a.b.c.d/len`` CIDR, with the same leading-zero tolerance."""
    addr, sep, length = text.strip().partition("/")
    if not sep:
        raise ValueError(f"bad CIDR {text!r}: missing prefix length")
    return IPv4Network(f"{parse_ipv4(addr)}/{length}")


def _is_wild(value: str) -> bool:
    return value.strip() in ("", WILDCARD)


def _strip_group(token: str) -> str:
    token = token.strip()
    while len(token) >= 2 and token[0] + token[-1] in ("()", "{}"):
        token = token[1:-1].strip()
    return token


def _split_top(text: str, seps: str = ",") -> list[str]:
    """Split on separators at bracket depth zero (round, curly or square)."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch in seps and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _split_list(token: str) -> list[str]:
    inner = _strip_group(token)
    if _is_wild(inner):
        return []
    return [part.strip() for part in _split_top(inner, ",;") if part.strip()]


def _list_column(record: dict[str, str], column: str, where: str) -> list[str] | None:
    """A list column's tokens, or ``None`` for the wildcard.  A list with no
    token, such as ``(;)``, would match nothing, and both serializers print
    it as the wildcard, so it is an error."""
    text = record.get(column, "")
    if _is_wild(_strip_group(text)):
        return None
    tokens = _split_list(text)
    if not tokens:
        raise PolicyParseError(f"empty {column} list {text!r}", where=where)
    return tokens


def _parse_constraint_token(token: str, where: str) -> Constraint | tuple[int, int]:
    """One constraint token; a ``valid[a,b)`` token yields a validity window."""
    token = token.strip()
    if token.startswith("valid[") and token.endswith(")"):
        inner = token[len("valid[") : -1]
        try:
            start_text, end_text = inner.split(",")
            start, end = int(start_text), int(end_text)
        except ValueError:
            raise PolicyParseError(f"bad validity token {token!r}", where=where) from None
        return (start, end)
    if token.startswith("rate<="):
        try:
            rate = Fraction(token[len("rate<=") :])
        except (ValueError, ZeroDivisionError):
            raise PolicyParseError(f"bad rate token {token!r}", where=where) from None
        if rate <= 0:
            raise PolicyParseError(f"rate must be positive in {token!r}", where=where)
        return Constraint(ConstraintKind.RATE_THRESHOLD, rate=rate)
    if token.startswith("pkt."):
        attr, sep, value = token[len("pkt.") :].partition("=")
        if not sep or not attr or not value:
            raise PolicyParseError(f"bad packet-attribute token {token!r}", where=where)
        return Constraint(ConstraintKind.PACKET_ATTR, attr=attr.strip(), value=value.strip())
    if token.startswith("sig."):
        name = token[len("sig.") :].strip()
        if not name:
            raise PolicyParseError(f"bad signature token {token!r}", where=where)
        return Constraint(ConstraintKind.SIGNATURE, signature=name)
    try:
        return Constraint(ConstraintKind.LABEL_PATH, label=parse_label_constraint(token))
    except LabelParseError as exc:
        raise PolicyParseError(f"bad constraint token {token!r} ({exc.reason})", where=where) from None


def _intersect_validity(
    a: tuple[int, int] | None, b: tuple[int, int] | None
) -> tuple[int, int] | None:
    """Overlap of two ``[start, end)`` windows; ``None`` is unbounded."""
    if a is None:
        return b
    if b is None:
        return a
    return (max(a[0], b[0]), min(a[1], b[1]))


def _parse_constraints(
    tokens: list[str], where: str
) -> tuple[tuple[Constraint, ...], tuple[int, int] | None]:
    constraints: list[Constraint] = []
    validity: tuple[int, int] | None = None
    for token in tokens:
        parsed = _parse_constraint_token(token, where)
        if isinstance(parsed, tuple):
            validity = _intersect_validity(validity, parsed)
        else:
            constraints.append(parsed)
    return tuple(constraints), validity


def _parse_services(tokens: list[str], where: str) -> frozenset[int]:
    ports: set[int] = set()
    for token in tokens:
        lo, sep, hi = token.partition("-")
        try:
            low, high = (int(lo), int(hi)) if sep else (int(token), int(token))
        except ValueError:
            raise PolicyParseError(f"bad service port {token!r}", where=where) from None
        if low > high:
            raise PolicyParseError(f"reversed service port range {token!r}", where=where)
        if low < 1 or high > 65535:
            raise PolicyParseError(f"service port {token!r} out of range 1..65535", where=where)
        ports.update(range(low, high + 1))
    return frozenset(ports)


def _parse_action(text: str, where: str) -> tuple[Action, str | None]:
    tokens = _split_list(text) or [_strip_group(text)]
    exit_switch: str | None = None
    verb: str | None = None
    for token in tokens:
        lowered = token.lower()
        if lowered in ("allow", "deny"):
            verb = lowered
        elif exit_switch is None:
            exit_switch = token
        else:
            raise PolicyParseError(f"unrecognized action token {token!r}", where=where)
    if verb is None:
        raise PolicyParseError(f"action must be allow or deny, got {text!r}", where=where)
    return Action(verb), exit_switch


# --- the record layout both formats share -------------------------------------


def _build_pe(record: dict[str, str], where: str) -> PolicyExpression:
    """Build one expression from record columns; an absent column is a wildcard.

    Both formats end here: the repository parser passes its checked records,
    the compact parser the record its fields were lowered onto.
    """

    def opt(name: str, convert=str):
        raw = record.get(name)
        if raw is None or _is_wild(raw):
            return None
        try:
            return convert(raw.strip())
        except ValueError as exc:
            raise PolicyParseError(f"bad {name} value {raw!r}: {exc}", where=where) from None

    def selector(side: str) -> EndpointSelector:
        return EndpointSelector(
            as_id=opt(f"{side}asid"),
            subnet=opt(f"{side}assub", parse_network),
            as_type=opt(f"{side}astype"),
            label_req=opt(f"{side}astrulabel", parse_label_constraint),
            host_ip=opt(f"{side}ip", parse_ipv4),
            host_mac=opt(f"{side}mac", normalize_mac),
        )

    flow_cons, validity_a = _parse_constraints(_list_column(record, "flowcons", where) or [], where)
    dom_cons, validity_b = _parse_constraints(_list_column(record, "domcons", where) or [], where)
    action, exit_switch = _parse_action(record["action"], where)
    services = _list_column(record, "services", where)
    sec_profile = _list_column(record, "secprof", where)
    path = _list_column(record, "seq", where)
    fields = dict(
        id=record["id"],
        action=action,
        flow_id=opt("flowid"),
        source=selector("src"),
        dest=selector("dst"),
        user=opt("user"),
        flow_cons=flow_cons,
        dom_cons=dom_cons,
        services=None if services is None else _parse_services(services, where),
        sec_profile=None if sec_profile is None else frozenset(token.lower() for token in sec_profile),
        path=None if path is None else tuple(path),
        action_exit=exit_switch,
        validity=_intersect_validity(validity_a, validity_b),
    )
    try:
        return PolicyExpression(**fields)
    except ValueError as exc:
        raise PolicyParseError(str(exc), where=where) from None


def _encode(pe: PolicyExpression) -> dict[str, list[str]]:
    """The record columns of ``pe`` as token lists; no token is the wildcard."""

    def one(value) -> list[str]:
        return [str(value)] if value else []

    columns = {"id": [pe.id], "flowid": one(pe.flow_id)}
    for side, sel in (("src", pe.source), ("dst", pe.dest)):
        columns[f"{side}asid"] = one(sel.as_id)
        columns[f"{side}assub"] = one(sel.subnet)
        columns[f"{side}astype"] = one(sel.as_type)
        columns[f"{side}astrulabel"] = one(sel.label_req)
        columns[f"{side}ip"] = one(sel.host_ip)
        columns[f"{side}mac"] = one(sel.host_mac)
    validity = [f"valid[{pe.validity[0]},{pe.validity[1]})"] if pe.validity else []
    columns.update(
        user=one(pe.user),
        flowcons=[c.text() for c in pe.flow_cons] + validity,
        domcons=[c.text() for c in pe.dom_cons],
        services=[str(port) for port in sorted(pe.services or ())],
        secprof=sorted(pe.sec_profile or ()),
        seq=list(pe.path or ()),
        action=[pe.action_exit, pe.action.value] if pe.action_exit else [pe.action.value],
    )
    return columns


def _group(tokens: list[str]) -> str:
    """``*`` for no token, a lone token as is, several parenthesized."""
    if not tokens:
        return WILDCARD
    if len(tokens) == 1:
        return tokens[0]
    return f"({', '.join(tokens)})"


# --- repository format -----------------------------------------------------


def parse_record(record: object, position: str) -> PolicyExpression:
    """Parse one repository record; errors name ``position`` and the id.

    Strict: a non-object record, unknown or non-string fields and a missing
    id or action are errors.
    """
    if not isinstance(record, dict):
        raise PolicyParseError("record is not an object", where=position)
    where = f"{position} (id {record.get('id', '?')!r})"
    unknown = set(record) - set(REPOSITORY_FIELDS)
    if unknown:
        raise PolicyParseError(f"unknown fields {sorted(unknown)}", where=where)
    for name, value in record.items():
        if not isinstance(value, str):
            raise PolicyParseError(
                f"field {name!r} must be a string, got {type(value).__name__}", where=where
            )
    for required in ("id", "action"):
        if _is_wild(record.get(required, "")):
            raise PolicyParseError(f"missing required field {required!r}", where=where)
    return _build_pe(record, where)


def parse_repository(document: str | list) -> list[PolicyExpression]:
    """Parse a repository document (JSON text or already-loaded array).

    Strict: every record as :func:`parse_record`, and ids are unique.
    """
    if isinstance(document, str):
        try:
            loaded = json.loads(document)
        except json.JSONDecodeError as exc:
            raise PolicyParseError(f"repository is not valid JSON: {exc}") from None
    else:
        loaded = document
    if not isinstance(loaded, list):
        raise PolicyParseError("repository must be a JSON array of records")
    pes = [parse_record(record, f"record {index}") for index, record in enumerate(loaded)]
    try:
        check_unique_ids(pes)
    except DuplicatePolicyIdError as exc:
        raise PolicyParseError(str(exc), where=f"record {exc.position}") from None
    return pes


def serialize_repository(pes: list[PolicyExpression]) -> str:
    """Serialize expressions back to the repository JSON layout.

    The validity window, when present, is emitted as a ``valid[a,b)`` token
    inside ``flowcons`` since the record layout has no dedicated column.
    """
    records = []
    for pe in pes:
        columns = _encode(pe)
        record = {name: ", ".join(columns[name]) or WILDCARD for name in REPOSITORY_FIELDS}
        record["action"] = _group(columns["action"])
        records.append(record)
    return json.dumps(records, indent=2)


# --- compact format ----------------------------------------------------------

def _lower_domain(side: str, text: str) -> dict[str, str]:
    """Sort a domain descriptor's elements by shape into ``side``'s columns.

    ``a.b.c.d/len`` is the subnet, ``AS...`` the identity, ``SL...`` the label
    requirement, anything else the type; a later element of a shape wins.
    """
    columns = {}
    for token in _split_list(text) or [_strip_group(text)]:
        if _is_wild(token):
            continue
        if "/" in token:
            column = "assub"
        elif token.startswith("AS"):
            column = "asid"
        elif token.startswith("SL"):
            column = "astrulabel"
        else:
            column = "astype"
        columns[side + column] = token
    return columns


def parse_compact_pe(text: str, *, pe_id: str = "anon") -> PolicyExpression:
    """Parse one compact ``<conditions>:<action>`` policy expression.

    A ``name =`` prefix, when present, overrides ``pe_id``.  The thirteen
    condition fields must all be present; a count mismatch is an error that
    reports expected versus found.  The fields are lowered onto a repository
    record through ``COMPACT_COLUMNS``.
    """
    body = text.strip()
    if "=" in body.split("<", 1)[0]:
        name, _, body = body.partition("=")
        pe_id = name.strip() or pe_id
        body = body.strip()
    where = f"policy expression {pe_id!r}"
    if not (body.startswith("<") and body.endswith(">")):
        raise PolicyParseError("expected <conditions>:<action>", where=where)
    halves = re.split(r">\s*:\s*<", body)
    if len(halves) != 2:
        raise PolicyParseError("expected exactly one ':' between conditions and action", where=where)
    cond_text, action_text = halves[0][1:], halves[1][:-1]
    fields = [f.strip() for f in _split_top(cond_text, ",")]
    if len(fields) != len(COMPACT_COLUMNS):
        raise PolicyParseError(
            f"expected {len(COMPACT_COLUMNS)} condition fields, found {len(fields)}", where=where
        )
    record = {"id": pe_id, "action": action_text}
    for column, field in zip(COMPACT_COLUMNS, fields):
        if field == WILDCARD:  # an absent column is the wildcard
            continue
        if column in ("src", "dst"):
            record.update(_lower_domain(column, field))
        else:
            record[column] = _strip_group(field)
    return _build_pe(record, where)


def format_compact_pe(pe: PolicyExpression) -> str:
    """Serialize to the compact form with the ``id =`` prefix."""
    columns = _encode(pe)

    def field(column: str) -> str:
        if column not in ("src", "dst"):
            return _group(columns[column])
        parts = [token for name in ("assub", "asid", "astype", "astrulabel") for token in columns[column + name]]
        if parts and parts == columns[column + "asid"]:
            return parts[0]
        return f"({', '.join(parts)})" if parts else WILDCARD

    *exit_switch, verb = columns["action"]
    action = _group(exit_switch + [verb.capitalize()])
    return f"{pe.id} = <{', '.join(field(column) for column in COMPACT_COLUMNS)}>:<{action}>"
