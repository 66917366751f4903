"""Scenario documents: the declarative world a simulation runs in.

A scenario is one JSON document naming the domain graph (per-domain labels,
types, subnets and keys), each domain's switch fabric and hosts, per-domain
policy repositories (inline, in either policy format), static MAC-to-user
bindings, a capacity model with a defense response, and a timed traffic
program.  ``docs/scenario-format.md`` documents the schema; bundled
scenarios live in ``sdnsec/scenarios/``.

Host and traffic addresses are parsed to plain ``int`` values; a subnet
stays an ``IPv4Network``, checked for overlap here.  Dotted text comes back
only in error messages.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from ipaddress import IPv4Network
from pathlib import Path

from .controller import CostModel
from .dataplane import DEFAULT_TABLE_CAPACITY
from .defense import CapacityModel, ResponseMode
from .formats import PolicyParseError, parse_compact_pe, parse_ipv4, parse_network, parse_record
from .labels import SecurityLabel, parse_label
from .policy import (
    DuplicatePolicyIdError,
    PolicyExpression,
    check_unique_ids,
    format_ipv4,
    normalize_mac,
    subnet_bits,
)
from .topology import gateway_name

__all__ = [
    "DomainSpec",
    "FloodSpec",
    "FlowSpec",
    "HostSpec",
    "MODES",
    "Scenario",
    "ScenarioError",
    "SwitchSpec",
    "bundled_scenario_path",
    "list_bundled_scenarios",
    "load_scenario",
    "parse_scenario",
]

TICKS_PER_SECOND = 1_000_000
MODES = ("reactive", "proactive")

_TOP_LEVEL_FIELDS = {
    "name", "mode", "enforcement", "max_ttl", "table_capacity", "costs",
    "capacity", "defense", "domains", "links", "traffic",
}
_CAPACITY_FIELDS = {"controller_rps", "switches_per_controller", "hosts_per_switch"}
_DEFENSE_FIELDS = {"response", "window_ticks"}
_COST_FIELDS = {field.name for field in fields(CostModel)}
_DOMAIN_FIELDS = {
    "id", "subnet", "type", "label", "handle_key", "switches", "links", "hosts", "users", "policies",
}
_SWITCH_FIELDS = {"id", "label"}
_HOST_FIELDS = {"id", "ip", "mac", "switch"}
_FLOW_FIELDS = {"at", "from", "to", "port", "type", "proto"}
_FLOOD_FIELDS = {"kind", "at", "from", "to", "rate", "seconds", "type", "port_base", "proto"}


class ScenarioError(ValueError):
    """Scenario document is malformed; the message carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class SwitchSpec:
    id: str
    label: SecurityLabel


@dataclass(frozen=True)
class HostSpec:
    id: str
    ip: int
    mac: str
    switch: str


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FlowSpec:
    """One flow attempt: a single first packet offered at a tick."""

    at: int
    src_host: str
    dst: int  # the declared host's address, or the literal
    port: int
    packet_type: str
    proto: str = "tcp"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        updated = replace(
            domain, policies=tuple(pe for pe in domain.policies if pe.id != pe_id)
        )
        return replace(
            self, domains=tuple(updated if d.id == as_id else d for d in self.domains)
        )

    def with_policies(self, as_id: str, policies: tuple[PolicyExpression, ...]) -> Scenario:
        domain = self.domain(as_id)
        updated = replace(domain, policies=domain.policies + tuple(policies))
        return replace(
            self, domains=tuple(updated if d.id == as_id else d for d in self.domains)
        )

    def with_flood_rate(self, rate: int) -> Scenario:
        if not any(isinstance(item, FloodSpec) for item in self.traffic):
            raise ValueError(f"scenario {self.name!r} has no flood to set a request rate on")
        traffic = tuple(
            replace(item, rate=rate) if isinstance(item, FloodSpec) else item
            for item in self.traffic
        )
        return replace(self, traffic=traffic)


def _object(value, path: str, known: set[str]) -> dict:
    """``value`` as an object whose every field is in ``known``."""
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in known:
            raise ScenarioError(f"{path}.{key}", "unknown field")
    return value


_REQUIRED = object()


def _want(obj: dict, key: str, path: str, kind=None, default=_REQUIRED):
    """``obj[key]`` (or ``default`` when absent), of type ``kind`` if given."""
    if key not in obj and default is _REQUIRED:
        raise ScenarioError(f"{path}.{key}", "missing required field")
    value = obj.get(key, default)
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _int(obj: dict, key: str, path: str, low: int, high: int | None = None, default=_REQUIRED) -> int:
    """``obj[key]`` as a JSON integer in ``low..high``; booleans, floats and
    strings are errors."""
    value = _want(obj, key, path, default=default)
    if type(value) is not int:  # a bool is an int to Python, not to JSON
        raise ScenarioError(f"{path}.{key}", f"expected an integer, got {type(value).__name__}")
    if value < low or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ScenarioError(f"{path}.{key}", f"must be {bounds}, got {value}")
    return value


def _convert(obj: dict, key: str, path: str, convert):
    """String field ``obj[key]`` passed through ``convert``, whose
    ``ValueError`` becomes an error at ``path.key``."""
    text = _want(obj, key, path, str)
    try:
        return convert(text)
    except ValueError as exc:  # a LabelParseError's reason omits the token, which the path locates
        raise ScenarioError(f"{path}.{key}", getattr(exc, "reason", str(exc))) from None


def _pairs(obj: dict, path: str, ends, what: str) -> tuple[tuple[str, str], ...]:
    """``obj["links"]``: ``[a, b]`` pairs of two different declared ``what``
    ids, no pair repeated in either order."""
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for index, pair in enumerate(_want(obj, "links", path, list, default=[])):
        link_path = f"{path}.links[{index}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioError(link_path, f"{what} link must be a [a, b] pair")
        for end in pair:
            if not isinstance(end, str) or end not in ends:
                raise ScenarioError(link_path, f"undefined {what} {end!r}")
        a, b = pair
        if a == b:
            raise ScenarioError(link_path, f"{what} {a!r} is linked to itself")
        if (a, b) in seen:
            raise ScenarioError(link_path, f"repeats the link between {a!r} and {b!r}")
        seen.update(((a, b), (b, a)))
        pairs.append((a, b))
    return tuple(pairs)


def _declare(declared: dict, value, path: str, key: str = "") -> None:
    """Map ``value`` to the element at ``path`` that declares it; a repeat is
    an error at ``path.key``, or at ``path`` when no key is given."""
    if value in declared:
        where = f"{path}.{key}" if key else path
        raise ScenarioError(where, f"duplicate {str(value)!r}, first declared at {declared[value]}")
    declared[value] = path


def _parse_policies(raw, path: str) -> tuple[PolicyExpression, ...]:
    """A domain's policies in document order, each a named compact string or
    a repository record; errors name the position in ``policies``."""
    policies: list[PolicyExpression] = []
    for index, item in enumerate(raw):
        if not isinstance(item, (str, dict)):
            raise ScenarioError(f"{path}[{index}]", "policy must be a compact string or a record object")
        try:
            pe = parse_compact_pe(item, pe_id="") if isinstance(item, str) else parse_record(item, "record")
        except PolicyParseError as exc:
            raise ScenarioError(f"{path}[{index}]", str(exc)) from None
        if not pe.id:
            raise ScenarioError(
                f"{path}[{index}]", "a compact policy needs a 'name =' prefix: its id names it in every decision"
            )
        policies.append(pe)
    try:
        check_unique_ids(policies)
    except DuplicatePolicyIdError as exc:
        raise ScenarioError(f"{path}[{exc.position}]", str(exc)) from None
    return tuple(policies)


def _parse_domain(obj, path: str, nodes: dict[str, str], ips: dict[str, str]) -> DomainSpec:
    """One domain; its switch and host ids join ``nodes``, its host addresses
    ``ips`` as dotted text."""
    _object(obj, path, _DOMAIN_FIELDS)
    as_id = _want(obj, "id", path, str)
    if not as_id.startswith("AS"):
        raise ScenarioError(f"{path}.id", f"domain ids start with 'AS', got {as_id!r}")
    subnet = _convert(obj, "subnet", path, parse_network)
    network, mask = subnet_bits(subnet)
    label = _convert(obj, "label", path, parse_label)
    switches = []
    for index, sw in enumerate(_want(obj, "switches", path, list)):
        sw_path = f"{path}.switches[{index}]"
        _object(sw, sw_path, _SWITCH_FIELDS)
        sw_id = _want(sw, "id", sw_path, str)
        if sw_id.startswith("AS"):
            raise ScenarioError(f"{sw_path}.id", "switch ids must not start with 'AS'")
        _declare(nodes, sw_id, sw_path, "id")
        switches.append(SwitchSpec(sw_id, _convert(sw, "label", sw_path, parse_label)))
    switch_ids = {s.id for s in switches}
    links = _pairs(obj, path, switch_ids, "switch")
    hosts = []
    for index, h in enumerate(_want(obj, "hosts", path, list, default=[])):
        host_path = f"{path}.hosts[{index}]"
        _object(h, host_path, _HOST_FIELDS)
        host_id = _want(h, "id", host_path, str)
        _declare(nodes, host_id, host_path, "id")
        ip = _convert(h, "ip", host_path, parse_ipv4)
        if (ip & mask) != network:
            raise ScenarioError(f"{host_path}.ip", f"{format_ipv4(ip)} lies outside the domain subnet {subnet}")
        _declare(ips, format_ipv4(ip), host_path, "ip")
        mac = _convert(h, "mac", host_path, normalize_mac)
        attach = _want(h, "switch", host_path, str)
        if attach not in switch_ids:
            raise ScenarioError(f"{host_path}.switch", f"undefined switch {attach!r}")
        hosts.append(HostSpec(host_id, ip, mac, attach))
    users = {}
    user_macs: dict[str, str] = {}
    for mac, user in _want(obj, "users", path, dict, default={}).items():
        user_path = f"{path}.users[{mac!r}]"
        if not isinstance(user, str):
            raise ScenarioError(user_path, f"expected str, got {type(user).__name__}")
        try:
            normalized = normalize_mac(mac)
        except ValueError as exc:
            raise ScenarioError(user_path, str(exc)) from None
        _declare(user_macs, normalized, user_path)
        users[normalized] = user
    handle_key = _want(obj, "handle_key", path, str)
    if not handle_key:
        raise ScenarioError(f"{path}.handle_key", "must be a non-empty string")
    return DomainSpec(
        id=as_id,
        subnet=subnet,
        as_type=_want(obj, "type", path, str),
        label=label,
        handle_key=handle_key,
        switches=tuple(switches),
        links=links,
        hosts=tuple(hosts),
        users=users,
        policies=_parse_policies(_want(obj, "policies", path, list, default=[]), f"{path}.policies"),
    )


def _parse_traffic(items: list, path: str, host_ips: dict[str, int]) -> tuple[FlowSpec | FloodSpec, ...]:
    """The traffic program, each ``to`` resolved to an address: a declared
    host's, or else the literal's."""
    out: list[FlowSpec | FloodSpec] = []
    for index, item in enumerate(items):
        item_path = f"{path}[{index}]"
        flood = isinstance(item, dict) and item.get("kind") == "flood"
        _object(item, item_path, _FLOOD_FIELDS if flood else _FLOW_FIELDS)
        src = _want(item, "from", item_path, str)
        if src not in host_ips:
            raise ScenarioError(f"{item_path}.from", f"undefined host {src!r}")
        to = _want(item, "to", item_path, str)
        dst = host_ips.get(to)
        if dst is None:
            try:
                dst = parse_ipv4(to)
            except ValueError:
                raise ScenarioError(
                    f"{item_path}.to", f"{to!r} is neither a declared host nor an IPv4 address"
                ) from None
        at = _int(item, "at", item_path, 0, default=0)
        if flood:
            fields = dict(
                rate=_int(item, "rate", item_path, 1),
                seconds=_int(item, "seconds", item_path, 1, default=1),
                port_base=_int(item, "port_base", item_path, 1, 65535, default=FloodSpec.port_base),
                packet_type=_want(item, "type", item_path, str, default=FloodSpec.packet_type),
                proto=_want(item, "proto", item_path, str, default=FloodSpec.proto),
            )
            try:
                out.append(FloodSpec(at=at, src_host=src, dst=dst, **fields))
            except ValueError as exc:  # the port bound
                raise ScenarioError(f"{item_path}.port_base", str(exc)) from None
        else:
            out.append(
                FlowSpec(
                    at=at,
                    src_host=src,
                    dst=dst,
                    port=_int(item, "port", item_path, 1, 65535),
                    packet_type=_want(item, "type", item_path, str),
                    proto=_want(item, "proto", item_path, str, default=FlowSpec.proto),
                )
            )
    return tuple(out)


def parse_scenario(document: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a loaded scenario document and resolve every reference."""
    _object(document, "$", _TOP_LEVEL_FIELDS)
    name = _want(document, "name", "$", str, default=name_hint)
    mode = _want(document, "mode", "$", str, default="reactive")
    if mode not in MODES:
        raise ScenarioError("$.mode", f"mode must be {' or '.join(MODES)}, got {mode!r}")
    domain_paths: dict[str, str] = {}
    nodes: dict[str, str] = {}  # switch and host ids: both are peers on switch ports
    ips: dict[str, str] = {}
    domains = []
    for index, obj in enumerate(_want(document, "domains", "$", list)):
        path = f"$.domains[{index}]"
        domain = _parse_domain(obj, path, nodes, ips)
        _declare(domain_paths, domain.id, path, "id")
        domains.append(domain)
    # CIDR blocks overlap only by nesting, so an overlap shows between neighbours in address order
    by_address = sorted((domain.subnet, index) for index, domain in enumerate(domains))
    for (low, i), (high, j) in zip(by_address, by_address[1:]):
        if high.network_address <= low.broadcast_address:
            message = f"{low} and {high} overlap; the other is at $.domains[{min(i, j)}]"
            raise ScenarioError(f"$.domains[{max(i, j)}].subnet", message)
    links = _pairs(document, "$", domain_paths, "domain")
    for index, (a, b) in enumerate(links):
        for owner, peer in ((a, b), (b, a)):
            gateway = gateway_name(owner, peer)
            if not nodes.get(gateway, "").startswith(f"{domain_paths[owner]}.switches["):
                raise ScenarioError(
                    f"$.links[{index}]", f"gateway switch {gateway!r} must be declared in domain {owner}"
                )
    host_ips = {host.id: host.ip for domain in domains for host in domain.hosts}
    capacity = None
    if "capacity" in document:
        cap = _object(document["capacity"], "$.capacity", _CAPACITY_FIELDS)
        cc = _want(cap, "controller_rps", "$.capacity")
        if type(cc) not in (int, float):  # a bool is an int to Python, not to JSON
            raise ScenarioError("$.capacity.controller_rps", f"expected a number, got {type(cc).__name__}")
        if not 0 < cc < math.inf:
            raise ScenarioError("$.capacity.controller_rps", f"must be a positive finite number, got {cc}")
        capacity = CapacityModel(
            cc=cc,
            x=_int(cap, "switches_per_controller", "$.capacity", 1),
            y=_int(cap, "hosts_per_switch", "$.capacity", 1),
        )
    response = Scenario.defense_response
    window_ticks = Scenario.window_ticks
    if "defense" in document:
        defense = _object(document["defense"], "$.defense", _DEFENSE_FIELDS)
        try:
            response = ResponseMode(defense.get("response", Scenario.defense_response.value))
        except ValueError:
            raise ScenarioError("$.defense.response", f"unknown response {defense.get('response')!r}") from None
        window_ticks = _int(defense, "window_ticks", "$.defense", 1, default=Scenario.window_ticks)
        if response is not ResponseMode.NONE and capacity is None:
            raise ScenarioError("$.defense", "a defense response requires a capacity model")
    costs = Scenario.costs
    if "costs" in document:
        raw = _object(document["costs"], "$.costs", _COST_FIELDS)
        costs = CostModel(**{key: _int(raw, key, "$.costs", 0) for key in raw})
    return Scenario(
        name=name,
        mode=mode,
        enforcement=_want(document, "enforcement", "$", bool, default=True),
        domains=tuple(domains),
        links=links,
        traffic=_parse_traffic(_want(document, "traffic", "$", list, default=[]), "$.traffic", host_ips),
        capacity=capacity,
        defense_response=response,
        window_ticks=window_ticks,
        table_capacity=_int(document, "table_capacity", "$", 1, default=Scenario.table_capacity),
        max_ttl=_int(document, "max_ttl", "$", 1, default=Scenario.max_ttl),
        costs=costs,
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
