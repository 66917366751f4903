"""The two textual policy formats and their round-trip serializers.

Repository format: a JSON array of flat string-field records, one record per
policy expression.  The column tables below (``_SCALAR_COLUMNS`` and
``_LIST_COLUMNS``) are the record layout: a record's fields are ``id``, their
columns in order, then ``action`` (``REPOSITORY_FIELDS``).  An empty string
and ``*`` both mean wildcard.

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
repository record columns (``COMPACT_COLUMNS``), so one converter reads
every column, one builder makes every expression from the converted
entries, and one encoder feeds both serializers.

A host address parses to a plain ``int`` and prints as dotted text again
through :func:`~sdnsec.policy.format_ipv4`; a subnet stays an ``IPv4Network``.

One document is read with one value table, a plain dict.  The compact
reader keeps in it one table per compact position, from a field's raw text
to that field's converted entries: a domain descriptor lowered onto its
side's columns, group brackets stripped, each column converted, and the
wildcard as no entry.  The repository reader maps ``(column, field text)``
to that column's converted entries.  Each distinct set of selector fields
maps to one shared ``EndpointSelector``.  Equal field texts (in the compact
format, equal raw texts at one position) are converted once per document;
every value is immutable, so expressions may share it.  Only successful
conversions enter the table, so a bad text raises at each occurrence.  A
table lives for one document read and no longer.

A conversion's error names the bad text, not where it is: the reader adds
the expression's position, formatted only when there is an error.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from ipaddress import IPv4Address, IPv4Network

from .labels import LabelParseError, parse_label_constraint
from .policy import (
    PACKET_ATTRS,
    Action,
    Constraint,
    ConstraintKind,
    DuplicatePolicyIdError,
    EndpointSelector,
    PolicyExpression,
    check_unique_ids,
    format_ipv4,
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

# Compact position -> record column.  ``src`` and ``dst`` stand for a domain
# descriptor, whose elements fill that side's four ``as...`` columns.
COMPACT_COLUMNS = (
    "flowid", "src", "dst", "srcip", "dstip", "srcmac", "dstmac",
    "user", "flowcons", "domcons", "services", "secprof", "seq",
)

_DOTTED_QUAD = re.compile(r"(\d+)\.(\d+)\.(\d+)\.(\d+)", re.ASCII)
_LIST_SEPARATORS = re.compile("[,;]")
_BRACKETS = re.compile(r"[(){}\[\]]")
# Text in which each opening bracket is closed by the next bracket, with no
# separator between them, such as ``a, (80), b``: every separator in it sits
# at depth zero, so a plain split is exact.
_FLAT_GROUPS = re.compile(r"[^(){}\[\]]*(?:[({\[][^(){}\[\],;]*[)}\]][^(){}\[\]]*)*")
_DEPTH = {"(": 1, "{": 1, "[": 1, ")": -1, "}": -1, "]": -1}
_CONDITIONS_ACTION = re.compile(r">\s*:\s*<")
_VERBS = {action.value: action for action in Action}
# The value table's key of the compact reader's tables, one per compact
# position: raw field text -> that field's converted entries.
_POSITIONS = "compact positions"


class PolicyParseError(ValueError):
    """A policy document or expression could not be parsed."""

    def __init__(self, message: str, *, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)


def parse_ipv4(text: str) -> int:
    """Parse a dotted quad to its integer, tolerating leading zeros in
    octets (``.04`` == ``.4``)."""
    quad = _DOTTED_QUAD.fullmatch(text.strip())
    if quad:
        a, b, c, d = map(int, quad.groups())
        if a < 256 and b < 256 and c < 256 and d < 256:
            return a << 24 | b << 16 | c << 8 | d
    # any other shape, such as an octet over 255 or a non-ASCII digit, is
    # parsed from text, and IPv4Address gives the error
    parts = text.strip().split(".")
    if len(parts) == 4 and all(p.isascii() and p.isdigit() for p in parts):
        text = ".".join(str(int(p)) for p in parts)
    return int(IPv4Address(text))


def parse_network(text: str) -> IPv4Network:
    """Parse ``a.b.c.d/len`` CIDR, with the same leading-zero tolerance."""
    addr, sep, length = text.strip().partition("/")
    if not sep:
        raise ValueError(f"bad CIDR {text!r}: missing prefix length")
    return IPv4Network(f"{format_ipv4(parse_ipv4(addr))}/{length}")


def _decimal(text: str) -> int:
    """An unsigned ASCII decimal, surrounding whitespace allowed; ``int``
    alone would also take signs, underscores and non-ASCII digits."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal number: {text!r}")
    return int(text)


def _rate(text: str) -> Fraction:
    """An ASCII ``digits``, ``digits.digits`` or ``digits/digits``, surrounding
    whitespace allowed; ``Fraction`` alone would also take signs,
    underscores, exponents and bare points (``.5``)."""
    text = text.strip()
    head, sep, tail = text.partition("/" if "/" in text else ".")
    _decimal(head)
    if sep:
        _decimal(tail)
    return Fraction(text)


def _is_wild(value: str) -> bool:
    return value.strip() in ("", WILDCARD)


def _strip_group(token: str) -> str:
    token = token.strip()
    if token[:1] not in ("(", "{"):
        return token
    while len(token) >= 2 and token[0] + token[-1] in ("()", "{}"):
        token = token[1:-1].strip()
    return token


def _split_top(text: str, seps: str = ",") -> list[str]:
    """Split on ``seps`` (``","`` or ``",;"``) at bracket depth zero.

    Brackets of any kind count toward the depth and are not matched by
    kind, so ``valid[0,10)`` is one token.  A piece that ends inside
    brackets is joined to the next with the separator between them.
    """
    pieces = text.split(seps) if seps == "," else _LIST_SEPARATORS.split(text)
    if len(pieces) == 1 or _FLAT_GROUPS.fullmatch(text):
        return pieces
    parts: list[str] = []
    depth = 0
    end = -1  # index in ``text`` of the separator after the current piece
    for piece in pieces:
        if depth:
            parts[-1] += text[end] + piece
        else:
            parts.append(piece)
        end += len(piece) + 1
        if _BRACKETS.search(piece):
            for ch in piece:
                depth += _DEPTH.get(ch, 0)
    return parts


def _split_list(token: str) -> list[str] | None:
    """A list's non-empty tokens, or ``None`` for the wildcard."""
    inner = _strip_group(token)
    if _is_wild(inner):
        return None
    return [part for part in map(str.strip, _split_top(inner, ",;")) if part]


def _parse_constraint_token(token: str) -> Constraint | tuple[int, int]:
    """One constraint token; a ``valid[a,b)`` token yields a validity window."""
    token = token.strip()
    if token.startswith("valid[") and token.endswith(")"):
        inner = token[len("valid[") : -1]
        try:
            start_text, end_text = inner.split(",")
            start, end = _decimal(start_text), _decimal(end_text)
        except ValueError:
            raise PolicyParseError(f"bad validity token {token!r}") from None
        return (start, end)
    if token.startswith("rate<="):
        try:
            rate = _rate(token[len("rate<=") :])
        except (ValueError, ZeroDivisionError):
            raise PolicyParseError(f"bad rate token {token!r}") from None
        if rate <= 0:
            raise PolicyParseError(f"rate must be positive in {token!r}")
        return Constraint(ConstraintKind.RATE_THRESHOLD, rate=rate)
    if token.startswith("pkt."):
        attr, sep, value = (part.strip() for part in token[len("pkt.") :].partition("="))
        if not sep or not value or attr not in PACKET_ATTRS:
            attrs = ", ".join(PACKET_ATTRS)
            raise PolicyParseError(f"bad packet-attribute token {token!r} (attr: {attrs})")
        value = str(_port(value, token)) if attr == "port" else value
        return Constraint(ConstraintKind.PACKET_ATTR, attr=attr, value=value)
    if token.startswith("sig."):
        name = token[len("sig.") :].strip()
        if not name:
            raise PolicyParseError(f"bad signature token {token!r}")
        return Constraint(ConstraintKind.SIGNATURE, signature=name)
    try:
        return Constraint(ConstraintKind.LABEL_PATH, label=parse_label_constraint(token))
    except LabelParseError as exc:
        raise PolicyParseError(f"bad constraint token {token!r} ({exc.reason})") from None


def _intersect_validity(
    a: tuple[int, int] | None, b: tuple[int, int] | None
) -> tuple[int, int] | None:
    """Overlap of two ``[start, end)`` windows; ``None`` is unbounded.
    Disjoint windows overlap in the empty window at the later start."""
    if a is None:
        return b
    if b is None:
        return a
    start = max(a[0], b[0])
    return (start, max(start, min(a[1], b[1])))


def _parse_constraints(
    tokens: list[str],
) -> tuple[tuple[Constraint, ...], tuple[int, int] | None]:
    constraints: list[Constraint] = []
    validity: tuple[int, int] | None = None
    for token in tokens:
        parsed = _parse_constraint_token(token)
        if isinstance(parsed, tuple):
            validity = _intersect_validity(validity, parsed)
        else:
            constraints.append(parsed)
    return tuple(constraints), validity


def _port(text: str, token: str) -> int:
    """A service port of ``token``: ASCII digits in 1..65535."""
    try:
        port = _decimal(text)
    except ValueError:
        raise PolicyParseError(f"bad service port {token!r}") from None
    if not 1 <= port <= 65535:
        raise PolicyParseError(f"service port {token!r} out of range 1..65535")
    return port


def _parse_services(tokens: list[str]) -> frozenset[int]:
    ports: set[int] = set()
    for token in tokens:
        lo, sep, hi = token.partition("-")
        low, high = (_port(lo, token), _port(hi, token)) if sep else (_port(token, token),) * 2
        if low > high:
            raise PolicyParseError(f"reversed service port range {token!r}")
        ports.update(range(low, high + 1))
    return frozenset(ports)


def _parse_profile(tokens: list[str]) -> frozenset[str]:
    return frozenset(token.lower() for token in tokens)


def _parse_path(tokens: list[str]) -> tuple[str, ...]:
    return tuple(tokens)


def _parse_action(text: str) -> tuple[Action, str | None]:
    """An action's verb and exit switch; raises ValueError on a bad action."""
    bare = _VERBS.get(text.lower())
    if bare is not None:
        return bare, None
    tokens = _split_list(text) or [_strip_group(text)]
    exit_switch: str | None = None
    verb: Action | None = None
    for token in tokens:
        lowered = token.lower()
        if lowered in _VERBS:
            if verb is not None:
                raise ValueError(f"action names more than one verb in {text!r}")
            verb = _VERBS[lowered]
        elif exit_switch is None:
            exit_switch = token
        else:
            raise ValueError(f"unrecognized action token {token!r}")
    if verb is None:
        raise ValueError(f"action must be allow or deny, got {text!r}")
    return verb, exit_switch


# --- the record layout both formats share -------------------------------------


def _token(text: str) -> str:
    """The one token of a one-value column; a list in it would print bare
    and read back as several fields."""
    if _LIST_SEPARATORS.search(text):
        raise ValueError("a one-value column holds no ',' or ';'")
    return text


# Scalar column -> (selector or None for the expression, field, converter,
# printer), in record order.  A converter takes the stripped text and raises
# ValueError on a bad value; the printer turns the field's value back into
# that text.
_SIDES = (("src", "source"), ("dst", "dest"))
_SCALAR_COLUMNS = {
    "flowid": (None, "flow_id", _token, str),
    **{
        side + column: (selector, *spec)
        for side, selector in _SIDES
        for column, *spec in (
            ("asid", "as_id", _token, str),
            ("assub", "subnet", parse_network, str),
            ("astype", "as_type", _token, str),
            ("astrulabel", "label_req", parse_label_constraint, str),
        )
    },
    **{side + "ip": (selector, "host_ip", parse_ipv4, format_ipv4) for side, selector in _SIDES},
    **{side + "mac": (selector, "host_mac", normalize_mac, str) for side, selector in _SIDES},
    "user": (None, "user", _token, str),
}

# List column -> (expression field, converter of its tokens).  A converter
# raises PolicyParseError naming the bad token; the reader adds where it is.
_LIST_COLUMNS = {
    "flowcons": ("flow_cons", _parse_constraints),
    "domcons": ("dom_cons", _parse_constraints),
    "services": ("services", _parse_services),
    "secprof": ("sec_profile", _parse_profile),
    "seq": ("path", _parse_path),
}

# A repository record's fields, in the order the serializer writes them.
REPOSITORY_FIELDS = ("id", *_SCALAR_COLUMNS, *_LIST_COLUMNS, "action")


def _column_entry(column: str, raw: str) -> tuple[tuple, ...]:
    """The converted entries of one condition column's text: none for the
    wildcard, else one ``(selector or None, field, value, validity window or
    None)``.  A list with no token, such as ``(;)``, would match nothing,
    and both serializers print it as the wildcard, so it is an error.  An
    error does not say where the text is: the reader adds that.
    """
    text = raw.strip()
    if text == "" or text == WILDCARD:
        return ()
    if column in _SCALAR_COLUMNS:
        selector, name, convert, _ = _SCALAR_COLUMNS[column]
        try:
            return ((selector, name, convert(text), None),)
        except ValueError as exc:
            raise PolicyParseError(f"bad {column} value {raw!r}: {exc}") from None
    tokens = _split_list(text)
    if tokens is None:
        return ()
    if not tokens:
        raise PolicyParseError(f"empty {column} list {raw!r}")
    name, convert = _LIST_COLUMNS[column]
    if convert is _parse_constraints:
        return ((None, name, *convert(tokens)),)
    return ((None, name, convert(tokens), None),)


def _where(pe_id: str, position: str | None) -> str:
    """Where an error is: the record at ``position`` with id ``pe_id``, or,
    for ``None``, the compact expression ``pe_id``."""
    if position is None:
        return f"policy expression {pe_id!r}"
    return f"{position} (id {pe_id!r})"


def _build_pe(pe_id: str, action: str, entries: list[tuple], table: dict, position: str | None) -> PolicyExpression:
    """Build one expression from its id, action and converted condition
    entries (:func:`_column_entry`).

    Both formats end here: the repository parser passes the entries of its
    checked record's condition columns, the compact parser those of its
    thirteen fields.  A field no entry sets stays at the wildcard.  Each
    distinct set of selector fields is built into one ``EndpointSelector``
    per ``table`` (see the module docstring).  An error is named as
    :func:`_where` names ``pe_id`` at ``position``.
    """
    fields: dict[str, object] = {}
    selectors: dict[str, dict[str, object]] = {"source": {}, "dest": {}}
    for selector, name, value, window in entries:
        (fields if selector is None else selectors[selector])[name] = value
        if window is not None:
            fields["validity"] = _intersect_validity(fields.get("validity"), window)
    for name, selector in selectors.items():
        if selector:
            key = frozenset(selector.items())
            shared = table.get(key)
            if shared is None:
                shared = table[key] = EndpointSelector(**selector)
            fields[name] = shared
    try:
        verb, exit_switch = _parse_action(action)
        return PolicyExpression(id=pe_id, action=verb, action_exit=exit_switch, **fields)
    except ValueError as exc:
        raise PolicyParseError(str(exc), where=_where(pe_id, position)) from None


def _encode(pe: PolicyExpression) -> dict[str, list[str]]:
    """The record columns of ``pe`` as token lists, read through the parser's
    column tables; no token is the wildcard, and a set prints sorted."""
    columns = {"id": [pe.id]}
    for column, (selector, name, _, show) in _SCALAR_COLUMNS.items():
        value = getattr(pe if selector is None else getattr(pe, selector), name)
        columns[column] = [] if value is None else [show(value)]
    for column, (name, _) in _LIST_COLUMNS.items():
        value = getattr(pe, name) or ()
        columns[column] = [str(token) for token in (sorted(value) if isinstance(value, frozenset) else value)]
    if pe.validity:
        columns["flowcons"].append(f"valid[{pe.validity[0]},{pe.validity[1]})")
    columns["action"] = [pe.action_exit, pe.action.value] if pe.action_exit else [pe.action.value]
    return columns


def _group(tokens: list[str]) -> str:
    """``*`` for no token, a lone token as is, several parenthesized."""
    if not tokens:
        return WILDCARD
    if len(tokens) == 1:
        return tokens[0]
    return f"({', '.join(tokens)})"


# --- repository format -----------------------------------------------------


def parse_record(record: object, position: str, *, table: dict | None = None) -> PolicyExpression:
    """Parse one repository record; errors name ``position`` and the id.

    Strict: a non-object record, unknown or non-string fields and a missing
    id or action are errors.  ``table`` is the document's value table; a
    fresh one is used when none is given, with the same result.
    """
    if not isinstance(record, dict):
        raise PolicyParseError("record is not an object", where=position)
    where = _where(record.get("id", "?"), position)
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
    if table is None:
        table = {}
    entries: list[tuple] = []
    try:
        for column, text in record.items():
            if column not in ("id", "action"):
                key = (column, text)
                found = table.get(key)
                if found is None:
                    found = table[key] = _column_entry(column, text)
                entries += found
    except PolicyParseError as fault:
        raise PolicyParseError(str(fault), where=where) from None
    return _build_pe(record["id"], record["action"], entries, table, position)


def parse_repository(document: str | list) -> list[PolicyExpression]:
    """Parse a repository document (JSON text or already-loaded array).

    Strict: every record as :func:`parse_record`, and ids are unique.  The
    records share one value table.
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
    table: dict = {}
    pes = [parse_record(record, f"record {index}", table=table) for index, record in enumerate(loaded)]
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
    requirement, anything else the type; a second element of one shape is
    an error.
    """
    columns: dict[str, str] = {}
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
        if side + column in columns:
            raise PolicyParseError(f"two {side + column} elements in domain descriptor {text!r}")
        columns[side + column] = token
    return columns


def _field_entries(column: str, raw: str) -> tuple[tuple, ...]:
    """The converted entries of the compact field at ``column`` (of
    ``COMPACT_COLUMNS``) from its raw text: a domain descriptor's elements
    lowered onto their side's columns, else the text less its group
    brackets."""
    if column in ("src", "dst"):
        return sum([_column_entry(*key) for key in _lower_domain(column, raw.strip()).items()], ())
    return _column_entry(column, _strip_group(raw))


def _lowering_fault(fields: list[str]) -> PolicyParseError | None:
    """The first domain descriptor's fault among a compact expression's
    raw ``fields``, or ``None`` when every descriptor lowers."""
    for column, raw in zip(COMPACT_COLUMNS, fields):
        if column in ("src", "dst"):
            try:
                _lower_domain(column, raw.strip())
            except PolicyParseError as fault:
                return fault
    return None


def parse_compact_pe(text: str, *, pe_id: str = "anon", table: dict | None = None) -> PolicyExpression:
    """Parse one compact ``<conditions>:<action>`` policy expression.

    A ``name =`` prefix, when present, overrides ``pe_id``.  The thirteen
    condition fields must all be present; a count mismatch is an error that
    reports expected versus found.  Each raw field text is looked up in the
    table for its compact position inside ``table``; a text not there is
    lowered onto repository record columns through ``COMPACT_COLUMNS``, its
    columns converted, and its entries enter that position's table.  Of
    several faults, a domain descriptor's is reported before any
    conversion's, then the first in field order.  ``table`` is the
    document's value table; a fresh one is used when none is given, with
    the same result.
    """
    head, opens, body = text.partition("<")
    if "=" in head:
        name, _, head = head.partition("=")
        pe_id = name.strip() or pe_id
    body = body.rstrip()
    if head.strip() or not opens or not body.endswith(">"):
        raise PolicyParseError("expected <conditions>:<action>", where=_where(pe_id, None))
    colon = _CONDITIONS_ACTION.search(body)
    if colon is None or _CONDITIONS_ACTION.search(body, colon.end()):
        raise PolicyParseError("expected exactly one ':' between conditions and action", where=_where(pe_id, None))
    action_text = body[colon.end() : -1]
    fields = _split_top(body[: colon.start()], ",")
    if len(fields) != len(COMPACT_COLUMNS):
        raise PolicyParseError(
            f"expected {len(COMPACT_COLUMNS)} condition fields, found {len(fields)}", where=_where(pe_id, None)
        )
    if table is None:
        table = {}
    positions = table.get(_POSITIONS)
    if positions is None:
        # each position knows the wildcard from the start, as written
        # first or after ", ", so that no field converts it
        positions = table[_POSITIONS] = tuple({WILDCARD: (), " " + WILDCARD: ()} for _ in COMPACT_COLUMNS)
    entries: list[tuple] = []
    try:
        for column, known, raw in zip(COMPACT_COLUMNS, positions, fields):
            found = known.get(raw)
            if found is None:
                found = known[raw] = _field_entries(column, raw)
            if found:
                entries += found
    except PolicyParseError as fault:
        raise PolicyParseError(str(_lowering_fault(fields) or fault), where=_where(pe_id, None)) from None
    return _build_pe(pe_id, action_text, entries, table, None)


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
