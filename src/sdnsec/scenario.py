"""Scenario documents: the declarative world a simulation runs in.

A scenario is one JSON document naming the domain graph (per-domain labels,
types, subnets and keys), each domain's switch fabric and hosts, per-domain
policy repositories (inline, in either policy format), static MAC-to-user
bindings, a capacity model with a defense response, and a timed traffic
program.  ``docs/scenario-format.md`` documents the schema; bundled
scenarios live in ``sdnsec/scenarios/``.

Each object kind has a field table, compiled into one reader that reads
all of an object's fields in one call (:func:`_reader`): one set test for
unknown fields, then each field in table order.  The first fault met is
reported (an unknown field: the first in document order), and its path is
built only then, a step per enclosing reader.  Switch and host ids share
one namespace.  Every id must print (``str.isprintable``) and a traffic
``type`` or ``proto`` is one printable word: a line break, a tab or a space
would split a report row, a flow id or a flow-dump line.

Host and traffic addresses are parsed to plain ``int`` values
(:func:`~sdnsec.formats.parse_ipv4`); a subnet stays an ``IPv4Network``,
checked for overlap here.  Dotted text comes back only in error messages.

Every domain's policies are read with one value table for the whole
document (see :mod:`sdnsec.formats`): a field text repeated in several
domains is converted once, and equal selectors are one object.  Reading a
domain builds its :attr:`DomainSpec.policy_index`, which checks the ids
and is the index its controller selects from.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, replace
from importlib import resources
from ipaddress import IPv4Network
from pathlib import Path

from .controller import CostModel
from .dataplane import DEFAULT_TABLE_CAPACITY
from .defense import CapacityModel, ResponseMode
from .formats import PolicyParseError, parse_compact_pe, parse_ipv4, parse_network, parse_record
from .frozen import cached, frozen
from .labels import SecurityLabel, parse_label
from .policy import DuplicatePolicyIdError, PolicyExpression, PolicyIndex, format_ipv4, normalize_mac, subnet_bits
from .topology import gateway_name

__all__ = [
    "DomainSpec", "FloodSpec", "FlowSpec", "HostSpec", "MODES", "Scenario", "ScenarioError", "SwitchSpec",
    "bundled_scenario_path", "list_bundled_scenarios", "load_scenario", "parse_scenario",
]

TICKS_PER_SECOND = 1_000_000
MODES = ("reactive", "proactive")


class ScenarioError(ValueError):
    """Scenario document is malformed; the message carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path, self.message = path, message


@frozen
class SwitchSpec:
    id: str
    label: SecurityLabel


@frozen
class HostSpec:
    id: str
    ip: int
    mac: str
    switch: str


@frozen
class DomainSpec:
    id: str
    subnet: IPv4Network
    as_type: str
    label: SecurityLabel
    handle_key: str
    switches: tuple[SwitchSpec, ...]
    links: tuple[tuple[str, str], ...]
    hosts: tuple[HostSpec, ...]
    users: dict[str, str]
    policies: tuple[PolicyExpression, ...]

    @cached
    def policy_index(self) -> PolicyIndex:
        """The policies filed for selection, which checks their ids once."""
        return PolicyIndex(self.policies)


@frozen
class FlowSpec:
    """One flow attempt: a single first packet offered at a tick."""

    at: int
    src_host: str
    dst: int  # the declared host's address, or the literal
    port: int
    packet_type: str
    proto: str = "tcp"


@frozen
class FloodSpec:
    """A burst of one-packet flows from one host at a fixed request rate."""

    at: int
    src_host: str
    dst: int
    rate: int  # requests per second
    seconds: int
    packet_type: str = "SYN"
    port_base: int = 20000
    proto: str = "tcp"

    def __post_init__(self) -> None:
        for name in ("rate", "seconds"):
            if getattr(self, name) < 1:
                raise ValueError(f"flood {name} must be at least 1, got {getattr(self, name)}")
        last = self.port_base + self.rate * self.seconds - 1
        if last > 65535:
            raise ValueError(f"flood ports {self.port_base}..{last} leave 1..65535")


@frozen
class Scenario:
    name: str
    mode: str  # one of MODES
    enforcement: bool
    domains: tuple[DomainSpec, ...]
    links: tuple[tuple[str, str], ...]
    traffic: tuple[FlowSpec | FloodSpec, ...]
    capacity: CapacityModel | None = None
    defense_response: ResponseMode = ResponseMode.NONE
    window_ticks: int = TICKS_PER_SECOND
    table_capacity: int = DEFAULT_TABLE_CAPACITY
    max_ttl: int = 6
    costs: CostModel = CostModel()

    def domain(self, as_id: str) -> DomainSpec:
        for domain in self.domains:
            if domain.id == as_id:
                return domain
        raise KeyError(as_id)

    # functional updates used by experiments and acceptance variants

    def without_policy(self, as_id: str, pe_id: str) -> Scenario:
        domain = self.domain(as_id)
        if pe_id not in {pe.id for pe in domain.policies}:
            raise KeyError(f"{as_id} has no policy {pe_id}")
        updated = replace(domain, policies=tuple(pe for pe in domain.policies if pe.id != pe_id))
        return replace(self, domains=tuple(updated if d.id == as_id else d for d in self.domains))

    def with_policies(self, as_id: str, policies: tuple[PolicyExpression, ...]) -> Scenario:
        domain = self.domain(as_id)
        updated = replace(domain, policies=domain.policies + tuple(policies))
        return replace(self, domains=tuple(updated if d.id == as_id else d for d in self.domains))

    def with_flood_rate(self, rate: int) -> Scenario:
        if not any(isinstance(item, FloodSpec) for item in self.traffic):
            raise ValueError(f"scenario {self.name!r} has no flood to set a request rate on")
        traffic = tuple(replace(item, rate=rate) if isinstance(item, FloodSpec) else item for item in self.traffic)
        return replace(self, traffic=traffic)


def _within(step: str, fault: ScenarioError) -> ScenarioError:
    return ScenarioError(step + fault.path, fault.message)


# the straight-line code of a reader: its object test, then per row the fetch, the JSON type test and the check
_OBJECT = "def read(obj, reading):\n if type(obj) is not dict or not known.issuperset(obj):\n  raise fault(None, obj)\n"
_FETCH = " v{n} = obj.get({key!r}, absent)\n if v{n} is absent:\n  {absent}\n"
_TYPE = " elif {test}:\n  raise fault({n}, v{n})\n"
_CHECK = " else:\n  try:\n   v{n} = {call}(v{n})\n  except ValueError as e:\n   raise fault({n}, v{n}, e) from None\n"


def _reader(kind: str, *table: tuple):
    """``read(obj, reading)``: the ``table`` fields of ``obj`` as read, in
    table order, compiled once as straight-line code that only tests; when a
    test fails, ``fault`` builds that field's path and message.  A row is
    ``(key, json_type, check)``, plus a default for an optional field.  The
    type test is exact (a bool is an int to Python, not to JSON); with None,
    ``check`` alone reads the value.  A check is None, a ``(test, message)``
    pair (an expression of the value ``{v}``, written into the reader after
    the type test, and the message it formats when false), or a function or
    :class:`_Reading` method name that returns the value read and raises
    ``ValueError`` for a fault."""
    known, absent = {row[0] for row in table}, object()

    def fault(number: int | None, value, exc: ValueError | None = None) -> ScenarioError:
        """The fault of row ``number`` (None: the object), whose ``value`` failed a test."""
        if number is None:
            if value.__class__ is not dict:
                return ScenarioError("", f"expected an object, got {type(value).__name__}")
            return ScenarioError(f".{next(key for key in value if key not in known)}", "unknown field")
        key, json_type, check, *_ = table[number]
        if exc is not None:  # a LabelParseError's reason omits the token, which the path locates
            located = exc if isinstance(exc, ScenarioError) else ScenarioError("", getattr(exc, "reason", str(exc)))
            return _within(f".{key}", located)
        if value is absent:
            return ScenarioError(f".{key}", "missing required field")
        if value.__class__ not in (json_type if isinstance(json_type, tuple) else (json_type,)):
            name = {int: "an integer", (int, float): "a number"}.get(json_type) or json_type.__name__
            return ScenarioError(f".{key}", f"expected {name}, got {type(value).__name__}")
        return ScenarioError(f".{key}", check[1].format(v=value))

    names, source = dict(absent=absent, known=known, fault=fault, inf=math.inf), [_OBJECT]
    for n, (key, json_type, check, *default) in enumerate(table):
        names.update({f"d{n}": default[0] if default else None, f"t{n}": json_type, f"c{n}": check})
        source.append(_FETCH.format(n=n, key=key, absent=f"v{n} = d{n}" if default else f"raise fault({n}, absent)"))
        if json_type is not None:
            test = f"v{n}.__class__ {'not in' if isinstance(json_type, tuple) else 'is not'} t{n}"
            if isinstance(check, tuple):
                test += f" or not ({check[0].format(v=f'v{n}')})"
            source.append(_TYPE.format(n=n, test=test))
        if check is not None and not isinstance(check, tuple):
            source.append(_CHECK.format(n=n, call=f"reading.{check}" if isinstance(check, str) else f"c{n}"))
    source.append(f" return {''.join(f'v{n}, ' for n in range(len(table)))}")
    exec(compile("".join(source), f"<reader {kind}>", "exec"), names)
    names["read"].known = known
    return names["read"]


def _each(read):
    """The check of a list whose items ``read(reading, index, item)`` reads."""

    def each(reading, items: list) -> tuple:
        out = []
        try:
            for index, item in enumerate(items):
                out.append(read(reading, index, item))
        except ScenarioError as fault:
            raise _within(f"[{index}]", fault) from None
        return tuple(out)

    return each


def _pairs(items: list, ends, what: str) -> tuple[tuple[str, str], ...]:
    """A ``links`` list: ``[a, b]`` pairs of two different declared ``what`` ids, none repeated."""
    pairs, seen = [], set()
    for index, pair in enumerate(items):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioError(f"[{index}]", f"{what} link must be a [a, b] pair")
        for end in pair:
            if not isinstance(end, str) or end not in ends:
                raise ScenarioError(f"[{index}]", f"undefined {what} {end!r}")
        a, b = pair
        if a == b:
            raise ScenarioError(f"[{index}]", f"{what} {a!r} is linked to itself")
        if (a, b) in seen:
            raise ScenarioError(f"[{index}]", f"repeats the link between {a!r} and {b!r}")
        seen.update(((a, b), (b, a)))
        pairs.append((a, b))
    return tuple(pairs)


class _Reading:
    """One document being read: what it has declared so far, and the checks
    of the fields that look at it.  An element declaring an id, an address
    or a user's MAC is kept as its position, ``(domain index, "switches" |
    "hosts" | "users", index or MAC)``, written out only for a duplicate."""

    def __init__(self):
        # declared switch and host ids (peers on switch ports), host addresses and domain ids; hosts' addresses
        self.nodes, self.ips, self.domain_ids, self.host_ips = {}, {}, {}, {}
        self.table: dict = {}  # the policies' value table, one for the whole document
        self.capacity: CapacityModel | None = None
        # the domain being read, its subnet and switch ids, and the position of its switch or host being read
        self.domain_index, self.subnet, self.network, self.mask, self.switch_ids, self.at = 0, None, 0, 0, set(), ()

    def declare(self, declared: dict, value, position: tuple):
        """``value``, declared at ``position``; a repeat is an error naming the first."""
        first = declared.setdefault(value, position)
        if first is not position:
            domain, kind, key = first
            text = format_ipv4(value) if value.__class__ is int else value
            raise ValueError(f"duplicate {text!r}, first declared at $.domains[{domain}].{kind}[{key!r}]")
        return value

    def domain_id(self, text: str) -> str:
        if not text.isprintable():
            raise ValueError(f"id {text!r} holds a character that does not print")
        if not text.startswith("AS"):
            raise ValueError(f"domain ids start with 'AS', got {text!r}")
        return text

    def node_id(self, text: str) -> str:
        if not text.isprintable():
            raise ValueError(f"id {text!r} holds a character that does not print")
        if self.at[1] != "switches":
            return self.declare(self.nodes, text, self.at)
        if text.startswith("AS"):
            raise ValueError("switch ids must not start with 'AS'")
        self.switch_ids.add(self.declare(self.nodes, text, self.at))
        return text

    def subnet_of(self, text: str) -> IPv4Network:
        self.subnet = parse_network(text)
        self.network, self.mask = subnet_bits(self.subnet)
        return self.subnet

    @_each
    def switches(self, index: int, item) -> SwitchSpec:
        self.at = (self.domain_index, "switches", index)
        return SwitchSpec(*_read_switch(item, self))

    def switch_links(self, items: list) -> tuple[tuple[str, str], ...]:
        return _pairs(items, self.switch_ids, "switch")

    def host_ip(self, text: str) -> int:
        ip = parse_ipv4(text)
        if ip & self.mask != self.network:
            raise ValueError(f"{format_ipv4(ip)} lies outside the domain subnet {self.subnet}")
        return self.declare(self.ips, ip, self.at)

    @_each
    def hosts(self, index: int, item) -> HostSpec:
        self.at = (self.domain_index, "hosts", index)
        return HostSpec(*_read_host(item, self))

    def users(self, mapping: dict) -> dict[str, str]:
        """A domain's ``users``: each MAC, normalized, to its user."""
        users, first_keys = {}, {}
        for mac, user in mapping.items():
            try:
                if user.__class__ is not str:
                    raise ValueError(f"expected str, got {type(user).__name__}")
                users[self.declare(first_keys, normalize_mac(mac), (self.domain_index, "users", mac))] = user
            except ValueError as exc:
                raise ScenarioError(f"[{mac!r}]", str(exc)) from None
        return users

    def policies(self, items: list) -> tuple[PolicyExpression, ...]:
        """A domain's policies, named compact strings or records, read with the value table."""
        policies = []
        for index, item in enumerate(items):
            try:
                if item.__class__ is str:
                    policies.append(parse_compact_pe(item, pe_id="", table=self.table))
                elif item.__class__ is dict:
                    policies.append(parse_record(item, "record", table=self.table))
                else:
                    raise ScenarioError(f"[{index}]", "policy must be a compact string or a record object")
            except PolicyParseError as exc:
                raise ScenarioError(f"[{index}]", str(exc)) from None
            if not policies[-1].id:
                message = "a compact policy needs a 'name =' prefix: its id names it in every decision"
                raise ScenarioError(f"[{index}]", message)
        return tuple(policies)

    @_each
    def each_domain(self, index: int, item) -> DomainSpec:
        self.domain_index, self.switch_ids = index, set()
        as_id, subnet, label, switches, links, hosts, users, key, as_type, policies = _read_domain(item, self)
        domain = DomainSpec(as_id, subnet, as_type, label, key, switches, links, hosts, users or {}, policies)
        try:
            domain.policy_index  # checks the ids; the domain's controller selects from this index
        except DuplicatePolicyIdError as exc:
            raise ScenarioError(f".policies[{exc.position}]", str(exc)) from None
        first = self.domain_ids.setdefault(as_id, index)
        if first != index:
            raise ScenarioError(".id", f"duplicate {as_id!r}, first declared at $.domains[{first}]")
        return domain

    def domains(self, items: list) -> tuple[DomainSpec, ...]:
        """The domains, no two subnets overlapping."""
        domains = self.each_domain(items)
        # CIDR blocks overlap only by nesting, so an overlap shows between neighbours in address order
        by_address = sorted((domain.subnet, index) for index, domain in enumerate(domains))
        for (low, i), (high, j) in zip(by_address, by_address[1:]):
            if high.network_address <= low.broadcast_address:
                message = f"{low} and {high} overlap; the other is at $.domains[{min(i, j)}]"
                raise ScenarioError(f"[{max(i, j)}].subnet", message)
        self.host_ips = {host.id: host.ip for domain in domains for host in domain.hosts}
        return domains

    def domain_links(self, items: list) -> tuple[tuple[str, str], ...]:
        """The domain links, each end's gateway switch declared in its domain."""
        links = _pairs(items, self.domain_ids, "domain")
        for index, (a, b) in enumerate(links):
            for owner, peer in ((a, b), (b, a)):
                gateway = gateway_name(owner, peer)
                if self.nodes.get(gateway, ())[:2] != (self.domain_ids[owner], "switches"):
                    raise ScenarioError(f"[{index}]", f"gateway switch {gateway!r} must be declared in domain {owner}")
        return links

    def capacity_model(self, obj) -> CapacityModel:
        self.capacity = CapacityModel(*_read_capacity(obj, self))
        return self.capacity

    def response(self, value) -> ResponseMode:
        try:
            return ResponseMode(value)
        except ValueError:
            raise ValueError(f"unknown response {value!r}") from None

    def defense(self, obj) -> tuple[ResponseMode, int]:
        response, window_ticks = _read_defense(obj, self)
        if response is not ResponseMode.NONE and self.capacity is None:
            raise ScenarioError("", "a defense response requires a capacity model")
        return response, window_ticks

    def costs(self, obj) -> CostModel:
        """The cost model, its given charges checked in document order."""
        for key in obj if obj.__class__ is dict and _read_costs.known.issuperset(obj) else ():
            _read_costs({key: obj[key]}, self)
        return CostModel(*_read_costs(obj, self))

    def destination(self, text: str) -> int:
        """A declared host's address, or else the literal's."""
        address = self.host_ips.get(text)
        if address is None:
            try:
                return parse_ipv4(text)
            except ValueError:
                raise ValueError(f"{text!r} is neither a declared host nor an IPv4 address") from None
        return address

    @_each
    def traffic(self, index: int, item) -> FlowSpec | FloodSpec:
        """A plain flow, or a flood: an item with a ``kind``."""
        if item.__class__ is not dict or "kind" not in item:
            src, dst, at, port, packet_type, proto = _read_flow(item, self)
            return FlowSpec(at, src, dst, port, packet_type, proto)
        if item["kind"] != "flood":
            message = f"unknown traffic kind {item['kind']!r}; the one kind is 'flood' (a plain flow has none)"
            raise ScenarioError(".kind", message)
        src, dst, at, rate, seconds, port_base, packet_type, proto, _ = _read_flood(item, self)
        try:
            return FloodSpec(at, src, dst, rate, seconds, packet_type, port_base, proto)
        except ValueError as exc:  # the port bound
            raise ScenarioError(".port_base", str(exc)) from None


def _at_least(low: int) -> tuple[str, str]:
    return f"{low} <= {{v}}", f"must be at least {low}, got {{v}}"


_PORT = "1 <= {v} <= 65535", "must be in 1..65535, got {v}"
# a traffic type or proto is one word, as a flow id and a flow-dump line print it
_WORD = "{v} and ' ' not in {v} and {v}.isprintable()", "must be non-empty printable text with no whitespace, got {v!r}"
_SOURCE = "{v} in reading.host_ips", "undefined host {v!r}"
_MODE = f"{{v}} in {MODES}", f"mode must be {' or '.join(MODES)}, got {{v!r}}"

_read_switch = _reader("switch", ("id", str, "node_id"), ("label", str, parse_label))
_read_host = _reader(
    "host", ("id", str, "node_id"), ("ip", str, "host_ip"), ("mac", str, normalize_mac),
    ("switch", str, ("{v} in reading.switch_ids", "undefined switch {v!r}")),
)
_read_domain = _reader(
    "domain", ("id", str, "domain_id"), ("subnet", str, "subnet_of"), ("label", str, parse_label),
    ("switches", list, "switches"), ("links", list, "switch_links", ()), ("hosts", list, "hosts", ()),
    ("users", dict, "users", None), ("handle_key", str, ("{v}", "must be a non-empty string")), ("type", str, None),
    ("policies", list, "policies", ()),
)
_read_flow = _reader(
    "flow", ("from", str, _SOURCE), ("to", str, "destination"), ("at", int, _at_least(0), 0), ("port", int, _PORT),
    ("type", str, _WORD), ("proto", str, _WORD, FlowSpec.proto),
)
_read_flood = _reader(
    "flood", ("from", str, _SOURCE), ("to", str, "destination"), ("at", int, _at_least(0), 0),
    ("rate", int, _at_least(1)), ("seconds", int, _at_least(1), 1), ("port_base", int, _PORT, FloodSpec.port_base),
    ("type", str, _WORD, FloodSpec.packet_type), ("proto", str, _WORD, FloodSpec.proto),
    ("kind", None, None),  # "flood", checked before the other fields
)
_read_capacity = _reader(
    "capacity", ("controller_rps", (int, float), ("0 < {v} < inf", "must be a positive finite number, got {v}")),
    ("switches_per_controller", int, _at_least(1)), ("hosts_per_switch", int, _at_least(1)),
)
_read_defense = _reader(
    "defense", ("response", None, "response", Scenario.defense_response),
    ("window_ticks", int, _at_least(1), Scenario.window_ticks),
)
_read_costs = _reader("costs", *((spec.name, int, _at_least(0), spec.default) for spec in fields(CostModel)))
_read_scenario = _reader(
    "scenario", ("name", str, None, None), ("mode", str, _MODE, MODES[0]),  # name None: the name hint
    ("domains", list, "domains"), ("links", list, "domain_links", ()), ("capacity", None, "capacity_model", None),
    ("defense", None, "defense", (Scenario.defense_response, Scenario.window_ticks)),
    ("costs", None, "costs", Scenario.costs), ("enforcement", bool, None, True), ("traffic", list, "traffic", ()),
    ("table_capacity", int, _at_least(1), Scenario.table_capacity), ("max_ttl", int, _at_least(1), Scenario.max_ttl),
)


def parse_scenario(document: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a loaded scenario document and resolve every reference."""
    try:
        name, mode, domains, links, capacity, defense, costs, enforcement, traffic, table_capacity, max_ttl = (
            _read_scenario(document, _Reading())
        )
    except ScenarioError as fault:
        raise _within("$", fault) from None
    return Scenario(
        name_hint if name is None else name, mode, enforcement, domains, links, traffic, capacity, *defense,
        table_capacity, max_ttl, costs,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError:
        raise ScenarioError("$", f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"not valid JSON: {exc}") from None
    return parse_scenario(document, name_hint=path.stem)


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (name without .json)."""
    root = resources.files("sdnsec") / "scenarios"
    candidate = root / f"{name}.json"
    if not candidate.is_file():
        known = ", ".join(sorted(p.stem for p in Path(str(root)).glob("*.json")))
        raise ScenarioError("$", f"no bundled scenario {name!r} (have: {known})")
    return Path(str(candidate))


def list_bundled_scenarios() -> list[str]:
    root = Path(str(resources.files("sdnsec") / "scenarios"))
    return sorted(p.stem for p in root.glob("*.json"))
