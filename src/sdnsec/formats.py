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
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from ipaddress import IPv4Address, IPv4Network

from .labels import ANY_LABEL, LabelParseError, parse_label_constraint
from .policy import (
    Action,
    Constraint,
    ConstraintKind,
    EndpointSelector,
    PolicyExpression,
)

__all__ = [
    "PolicyParseError",
    "format_compact_pe",
    "parse_compact_pe",
    "parse_ipv4",
    "parse_network",
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

COMPACT_FIELDS = (
    "flow id",
    "source domain",
    "destination domain",
    "source host ip",
    "destination host ip",
    "source mac",
    "destination mac",
    "user",
    "flow constraints",
    "domain constraints",
    "services",
    "security profile",
    "path",
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
    text: str, where: str
) -> tuple[tuple[Constraint, ...], tuple[int, int] | None]:
    constraints: list[Constraint] = []
    validity: tuple[int, int] | None = None
    for token in _split_list(text):
        parsed = _parse_constraint_token(token, where)
        if isinstance(parsed, tuple):
            validity = _intersect_validity(validity, parsed)
        else:
            constraints.append(parsed)
    return tuple(constraints), validity


def _parse_services(text: str, where: str) -> frozenset[int] | None:
    if _is_wild(_strip_group(text)):
        return None
    ports: set[int] = set()
    for token in _split_list(text):
        lo, sep, hi = token.partition("-")
        try:
            if sep:
                ports.update(range(int(lo), int(hi) + 1))
            else:
                ports.add(int(token))
        except ValueError:
            raise PolicyParseError(f"bad service port {token!r}", where=where) from None
    for port in ports:
        if not 0 < port < 65536:
            raise PolicyParseError(f"service port {port} out of range", where=where)
    return frozenset(ports)


def _parse_sec_profile(text: str, where: str) -> frozenset[str] | None:
    if _is_wild(_strip_group(text)):
        return None
    tokens = frozenset(token.lower() for token in _split_list(text))
    unknown = tokens - {"conf", "intg"}
    if unknown:
        raise PolicyParseError(f"unknown security-profile tokens {sorted(unknown)}", where=where)
    return tokens


def _parse_path(text: str, where: str) -> tuple[str, ...] | None:
    if _is_wild(_strip_group(text)):
        return None
    entries = tuple(_split_list(text))
    if not entries:
        return None
    try:
        PolicyExpression(id="probe", action=Action.ALLOW, path=entries)
    except ValueError as exc:
        raise PolicyParseError(str(exc), where=where) from None
    return entries


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


# --- repository format -----------------------------------------------------


def _record_where(index: int, record: dict) -> str:
    pe_id = record.get("id", "?")
    return f"record {index} (id {pe_id!r})"


def _parse_record(index: int, record: dict) -> PolicyExpression:
    where = _record_where(index, record)
    if not isinstance(record, dict):
        raise PolicyParseError("record is not an object", where=f"record {index}")
    unknown = set(record) - set(REPOSITORY_FIELDS)
    if unknown:
        raise PolicyParseError(f"unknown fields {sorted(unknown)}", where=where)
    for required in ("id", "action"):
        if required not in record or _is_wild(str(record[required])):
            raise PolicyParseError(f"missing required field {required!r}", where=where)
    get = lambda name: str(record.get(name, ""))

    def opt(name: str, convert):
        raw = get(name)
        if _is_wild(raw):
            return None
        try:
            return convert(raw.strip())
        except (ValueError, LabelParseError) as exc:
            raise PolicyParseError(f"bad {name} value {raw!r}: {exc}", where=where) from None

    def label(name: str):
        raw = get(name)
        if _is_wild(raw):
            return ANY_LABEL
        try:
            return parse_label_constraint(raw)
        except LabelParseError as exc:
            raise PolicyParseError(f"bad {name} value {raw!r}: {exc.reason}", where=where) from None

    source = EndpointSelector(
        as_id=opt("srcasid", str),
        subnet=opt("srcassub", parse_network),
        as_type=opt("srcastype", str),
        label_req=label("srcastrulabel"),
        host_ip=opt("srcip", parse_ipv4),
        host_mac=opt("srcmac", str),
    )
    dest = EndpointSelector(
        as_id=opt("dstasid", str),
        subnet=opt("dstassub", parse_network),
        as_type=opt("dstastype", str),
        label_req=label("dstastrulabel"),
        host_ip=opt("dstip", parse_ipv4),
        host_mac=opt("dstmac", str),
    )
    flow_cons, validity_a = _parse_constraints(get("flowcons"), where)
    dom_cons, validity_b = _parse_constraints(get("domcons"), where)
    validity = _intersect_validity(validity_a, validity_b)
    action, exit_switch = _parse_action(get("action"), where)
    try:
        return PolicyExpression(
            id=str(record["id"]),
            action=action,
            flow_id=opt("flowid", str),
            source=source,
            dest=dest,
            user=opt("user", str),
            flow_cons=flow_cons,
            dom_cons=dom_cons,
            services=_parse_services(get("services"), where),
            sec_profile=_parse_sec_profile(get("secprof"), where),
            path=_parse_path(get("seq"), where),
            action_exit=exit_switch,
            validity=validity,
        )
    except ValueError as exc:
        raise PolicyParseError(str(exc), where=where) from None


def parse_repository(document: str | list) -> list[PolicyExpression]:
    """Parse a repository document (JSON text or already-loaded array).

    Strict: unknown fields, missing id/action and duplicate ids are errors.
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
    pes = [_parse_record(index, record) for index, record in enumerate(loaded)]
    seen: dict[str, int] = {}
    for index, pe in enumerate(pes):
        if pe.id in seen:
            raise PolicyParseError(
                f"duplicate id {pe.id!r} (records {seen[pe.id]} and {index})"
            )
        seen[pe.id] = index
    return pes


def _selector_record(sel: EndpointSelector, prefix: str) -> dict[str, str]:
    return {
        f"{prefix}asid": sel.as_id or WILDCARD,
        f"{prefix}assub": str(sel.subnet) if sel.subnet else WILDCARD,
        f"{prefix}astype": sel.as_type or WILDCARD,
        f"{prefix}astrulabel": sel.label_req.text(),
        f"{prefix}ip": str(sel.host_ip) if sel.host_ip else WILDCARD,
        f"{prefix}mac": sel.host_mac or WILDCARD,
    }


def _constraints_text(constraints: tuple[Constraint, ...], validity: tuple[int, int] | None) -> str:
    tokens = [c.text() for c in constraints]
    if validity is not None:
        tokens.append(f"valid[{validity[0]},{validity[1]})")
    return ", ".join(tokens) if tokens else WILDCARD


def serialize_repository(pes: list[PolicyExpression]) -> str:
    """Serialize expressions back to the repository JSON layout.

    The validity window, when present, is emitted as a ``valid[a,b)`` token
    inside ``flowcons`` since the record layout has no dedicated column.
    """
    records = []
    for pe in pes:
        record = {
            "id": pe.id,
            "flowid": pe.flow_id or WILDCARD,
            **_selector_record(pe.source, "src"),
            **_selector_record(pe.dest, "dst"),
            "user": pe.user or WILDCARD,
            "flowcons": _constraints_text(pe.flow_cons, pe.validity),
            "domcons": _constraints_text(pe.dom_cons, None),
            "services": ", ".join(str(p) for p in sorted(pe.services))
            if pe.services is not None
            else WILDCARD,
            "secprof": ", ".join(sorted(pe.sec_profile))
            if pe.sec_profile is not None
            else WILDCARD,
            "seq": ", ".join(pe.path) if pe.path is not None else WILDCARD,
            "action": f"({pe.action_exit}, {pe.action.value})"
            if pe.action_exit
            else pe.action.value,
        }
        records.append({name: record[name] for name in REPOSITORY_FIELDS})
    return json.dumps(records, indent=2)


# --- compact format ----------------------------------------------------------


def _parse_domain_field(text: str, where: str) -> EndpointSelector:
    """Domain descriptor: ``*``, a bare AS id, or a parenthesized element list.

    Elements are classified by shape: ``a.b.c.d/len`` is the subnet, ``AS...``
    the identity, ``SL...`` the label requirement, anything else the type.
    """
    if _is_wild(_strip_group(text)):
        return EndpointSelector()
    as_id = subnet = as_type = None
    label_req = ANY_LABEL
    for token in _split_list(text) or [_strip_group(text)]:
        if token == WILDCARD:
            continue
        if "/" in token:
            try:
                subnet = parse_network(token)
            except ValueError as exc:
                raise PolicyParseError(f"bad subnet {token!r}: {exc}", where=where) from None
        elif token.startswith("AS"):
            as_id = token
        elif token.startswith("SL"):
            try:
                label_req = parse_label_constraint(token)
            except LabelParseError as exc:
                raise PolicyParseError(f"bad label {token!r}: {exc.reason}", where=where) from None
        else:
            as_type = token
    return EndpointSelector(as_id=as_id, subnet=subnet, as_type=as_type, label_req=label_req)


def _scalar(text: str) -> str | None:
    inner = _strip_group(text)
    return None if _is_wild(inner) else inner


def parse_compact_pe(text: str, *, pe_id: str = "anon") -> PolicyExpression:
    """Parse one compact ``<conditions>:<action>`` policy expression.

    A ``name =`` prefix, when present, overrides ``pe_id``.  The thirteen
    condition fields must all be present; a count mismatch is an error that
    reports expected versus found.
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
    if len(fields) != len(COMPACT_FIELDS):
        raise PolicyParseError(
            f"expected {len(COMPACT_FIELDS)} condition fields, found {len(fields)}", where=where
        )
    action, exit_switch = _parse_action(action_text, where)
    source = _parse_domain_field(fields[1], where)
    dest = _parse_domain_field(fields[2], where)

    def host_ip(index: int):
        token = _scalar(fields[index])
        if token is None:
            return None
        try:
            return parse_ipv4(token)
        except ValueError as exc:
            raise PolicyParseError(f"bad host address {token!r}: {exc}", where=where) from None

    source = EndpointSelector(
        as_id=source.as_id,
        subnet=source.subnet,
        as_type=source.as_type,
        label_req=source.label_req,
        host_ip=host_ip(3),
        host_mac=_scalar(fields[5]),
    )
    dest = EndpointSelector(
        as_id=dest.as_id,
        subnet=dest.subnet,
        as_type=dest.as_type,
        label_req=dest.label_req,
        host_ip=host_ip(4),
        host_mac=_scalar(fields[6]),
    )
    flow_cons, validity_a = _parse_constraints(fields[8], where)
    dom_cons, validity_b = _parse_constraints(fields[9], where)
    validity = _intersect_validity(validity_a, validity_b)
    try:
        return PolicyExpression(
            id=pe_id,
            action=action,
            flow_id=_scalar(fields[0]),
            source=source,
            dest=dest,
            user=_scalar(fields[7]),
            flow_cons=flow_cons,
            dom_cons=dom_cons,
            services=_parse_services(fields[10], where),
            sec_profile=_parse_sec_profile(fields[11], where),
            path=_parse_path(fields[12], where),
            action_exit=exit_switch,
            validity=validity,
        )
    except ValueError as exc:
        raise PolicyParseError(str(exc), where=where) from None


def _compact_domain(sel: EndpointSelector) -> str:
    parts = []
    if sel.subnet is not None:
        parts.append(str(sel.subnet))
    if sel.as_id is not None:
        parts.append(sel.as_id)
    if sel.as_type is not None:
        parts.append(sel.as_type)
    if not sel.label_req.is_wildcard:
        parts.append(sel.label_req.text())
    if not parts:
        return WILDCARD
    if len(parts) == 1 and parts[0] == sel.as_id:
        return sel.as_id
    return f"({', '.join(parts)})"


def format_compact_pe(pe: PolicyExpression) -> str:
    """Serialize to the compact form with the ``id =`` prefix."""

    def group(tokens) -> str:
        tokens = list(tokens)
        if not tokens:
            return WILDCARD
        if len(tokens) == 1:
            return tokens[0]
        return f"({', '.join(tokens)})"

    fields = [
        pe.flow_id or WILDCARD,
        _compact_domain(pe.source),
        _compact_domain(pe.dest),
        str(pe.source.host_ip) if pe.source.host_ip else WILDCARD,
        str(pe.dest.host_ip) if pe.dest.host_ip else WILDCARD,
        pe.source.host_mac or WILDCARD,
        pe.dest.host_mac or WILDCARD,
        pe.user or WILDCARD,
        group([c.text() for c in pe.flow_cons] + ([f"valid[{pe.validity[0]},{pe.validity[1]})"] if pe.validity else [])),
        group(c.text() for c in pe.dom_cons),
        group(str(p) for p in sorted(pe.services)) if pe.services is not None else WILDCARD,
        group(sorted(pe.sec_profile)) if pe.sec_profile is not None else WILDCARD,
        group(pe.path) if pe.path is not None else WILDCARD,
    ]
    action = f"({pe.action_exit}, {pe.action.value.capitalize()})" if pe.action_exit else pe.action.value.capitalize()
    return f"{pe.id} = <{', '.join(fields)}>:<{action}>"
