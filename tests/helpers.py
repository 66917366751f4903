"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive expected behaviour from first
principles (plain conjunctions, brute-force enumeration, textbook BFS/DFS)
so they stay independent of the implementation paths they check.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import json
import math
import random
from collections import deque
from dataclasses import asdict, fields, replace
from functools import lru_cache
from fractions import Fraction
from ipaddress import IPv4Address, IPv4Network

from sdnsec.controller import Controller
from sdnsec.dataplane import FlowMatch, FlowRule, Packet
from sdnsec.defense import ResponseMode, compute_thresholds
from sdnsec.labels import LabelWindow, SecurityLabel, parse_label_constraint
from sdnsec.metrics import FlowRecord, InstallRecord, MetricsReport, emit
from sdnsec.policy import (
    Action,
    Constraint,
    ConstraintKind,
    DomainInfo,
    EndpointSelector,
    FlowContext,
    PolicyExpression,
    match_pe,
    specificity,
)
from sdnsec.simulation import Simulation, build_world

AS_IDS = ("AS1", "AS2", "AS3", "AS4")
AS_TYPES = ("EDU", "COM", "GOV")
PACKET_TYPES = ("HTTP", "HTTPS", "FTP", "SYN", "ARP")
PORTS = (22, 80, 443, 21, 8080)
MACS = tuple(f"00:00:00:00:00:{i:02x}" for i in range(1, 9))


def make_domain(as_id="AS1", subnet="10.0.0.0/24", as_type="EDU", rank=2) -> DomainInfo:
    return DomainInfo(as_id, IPv4Network(subnet), as_type, SecurityLabel(rank))


def make_ctx(**overrides) -> FlowContext:
    """A context whose packet and controller facts take ``overrides``; a
    :class:`Packet` field name sets that header field."""
    header = dict(
        src_ip=ip("10.0.0.2"),
        dst_ip=ip("192.168.52.72"),
        src_mac="00:00:00:00:00:01",
        dst_mac="00:00:00:00:01:01",
        ip_proto="tcp",
        service_port=443,
        packet_type="HTTPS",
    )
    header.update({name: overrides.pop(name) for name in list(header) if name in overrides})
    defaults = dict(
        src_as=make_domain("AS1", "10.0.0.0/24", "EDU", 2),
        dst_as=make_domain("AS4", "192.168.52.0/24", "EDU", 4),
        timestamp=0,
    )
    defaults.update(overrides)
    return FlowContext(Packet(**header), **defaults)


def random_ctx(rng: random.Random) -> FlowContext:
    src_as = DomainInfo(
        rng.choice(AS_IDS),
        IPv4Network(f"10.{rng.randrange(4)}.0.0/16"),
        rng.choice(AS_TYPES),
        SecurityLabel(rng.randrange(1, 6)),
    )
    dst_as = DomainInfo(
        rng.choice(AS_IDS),
        IPv4Network(f"192.168.{rng.randrange(4)}.0/24"),
        rng.choice(AS_TYPES),
        SecurityLabel(rng.randrange(1, 6)),
    )
    src_ip = ip(f"10.{rng.randrange(4)}.{rng.randrange(4)}.{rng.randrange(1, 9)}")
    dst_ip = ip(f"192.168.{rng.randrange(4)}.{rng.randrange(1, 9)}")
    port = rng.choice(PORTS)
    traversed = tuple(AS_IDS[: rng.randrange(0, 4)])
    packet = Packet(
        src_ip, dst_ip, rng.choice(MACS), rng.choice(MACS), "tcp", port, rng.choice(PACKET_TYPES)
    )
    return FlowContext(
        packet=packet,
        src_as=src_as,
        dst_as=dst_as,
        timestamp=rng.randrange(0, 1000),
        user=rng.choice((None, "alice", "bob")),
        traversed_path=traversed,
    )


def random_pe(rng: random.Random, pe_id: str, action: Action = Action.ALLOW) -> PolicyExpression:
    """Random expression in which every condition field is independently wild."""

    def maybe(value):
        return value if rng.random() < 0.4 else None

    def selector() -> EndpointSelector:
        label = None
        if rng.random() < 0.3:
            relation = rng.choice(("+=", "-=", ""))
            label = parse_label_constraint(f"SL{rng.randrange(1, 6)}{relation}")
        return EndpointSelector(
            as_id=maybe(rng.choice(AS_IDS)),
            subnet=maybe(IPv4Network(f"10.{rng.randrange(4)}.0.0/16")),
            as_type=maybe(rng.choice(AS_TYPES)),
            label_req=label,
            host_ip=maybe(ip(f"10.{rng.randrange(4)}.{rng.randrange(4)}.{rng.randrange(1, 9)}")),
            host_mac=maybe(rng.choice(MACS)),
        )

    constraints = []
    if rng.random() < 0.25:
        constraints.append(
            Constraint(ConstraintKind.PACKET_ATTR, attr="type", value=rng.choice(PACKET_TYPES))
        )
    if rng.random() < 0.15:
        constraints.append(Constraint(ConstraintKind.SIGNATURE, signature=rng.choice(PACKET_TYPES)))
    path = None
    if rng.random() < 0.3:
        path = tuple(AS_IDS[: rng.randrange(1, 4)])
    validity = None
    if rng.random() < 0.25:
        start = rng.randrange(0, 500)
        validity = (start, start + rng.randrange(1, 600))
    return PolicyExpression(
        id=pe_id,
        action=action,
        flow_id=None,
        source=selector(),
        dest=selector(),
        user=maybe(rng.choice(("alice", "bob"))),
        flow_cons=tuple(constraints),
        dom_cons=(),
        services=maybe(frozenset(rng.sample(PORTS, rng.randrange(1, 4)))),
        sec_profile=maybe(frozenset(rng.sample(("conf", "intg"), rng.randrange(1, 3)))),
        path=path,
        validity=validity,
    )


def matching_pe(rng: random.Random, ctx: FlowContext, pe_id: str) -> PolicyExpression:
    """Random expression that matches ``ctx`` by construction: each condition
    field is, with even odds, the wildcard or a value ``ctx`` satisfies.
    ``user`` stays wild for a context without a user, and ``path`` is a
    switch path (an obligation, not a condition) when nothing was traversed."""

    def pick(value):
        return value if rng.random() < 0.5 else None

    def label_for(label: SecurityLabel) -> LabelWindow:
        relation = rng.choice(("+=", "-=", ""))
        if relation == "+=":
            base = rng.randrange(1, label.rank + 1)
        elif relation == "-=":
            base = rng.randrange(label.rank, 6)
        else:
            base = label.rank
        return parse_label_constraint(f"SL{base}{relation}")

    def selector(domain: DomainInfo, address: int, mac: str) -> EndpointSelector:
        return EndpointSelector(
            as_id=pick(domain.as_id),
            subnet=pick(IPv4Network((address, rng.choice((8, 16, 24, 32))), strict=False)),
            as_type=pick(domain.as_type),
            label_req=pick(label_for(domain.label)),
            host_ip=pick(address),
            host_mac=pick(mac),
        )

    def constraints() -> tuple[Constraint, ...]:
        options = (
            Constraint(ConstraintKind.PACKET_ATTR, attr="type", value=ctx.packet.packet_type),
            Constraint(ConstraintKind.PACKET_ATTR, attr="port", value=str(ctx.packet.service_port)),
            Constraint(ConstraintKind.SIGNATURE, signature=ctx.packet.packet_type),
            Constraint(ConstraintKind.RATE_THRESHOLD, rate=Fraction(rng.randrange(1, 100))),
            Constraint(ConstraintKind.LABEL_PATH, label=parse_label_constraint("SL1+=")),
        )
        return tuple(rng.sample(options, rng.randrange(1, 3))) if rng.random() < 0.5 else ()

    others = [port for port in PORTS if port != ctx.packet.service_port]
    start = rng.randrange(0, ctx.timestamp + 1)
    path = ctx.traversed_path or ("SW1", "SW2")
    return PolicyExpression(
        id=pe_id,
        action=Action.ALLOW,
        flow_id=pick(ctx.packet.flow_id),
        source=selector(ctx.src_as, ctx.packet.src_ip, ctx.packet.src_mac),
        dest=selector(ctx.dst_as, ctx.packet.dst_ip, ctx.packet.dst_mac),
        user=pick(ctx.user),
        flow_cons=constraints(),
        dom_cons=constraints(),
        services=pick(frozenset({ctx.packet.service_port, *rng.sample(others, rng.randrange(0, 3))})),
        sec_profile=pick(frozenset(rng.sample(("conf", "intg"), rng.randrange(1, 3)))),
        path=pick(path),
        validity=pick((start, ctx.timestamp + rng.randrange(1, 500))),
    )


def non_wildcard_fields(pe: PolicyExpression) -> set[str]:
    """The ``CONDITION_FIELDS`` entries that ``pe`` does not leave wild."""
    return {name for name in CONDITION_FIELDS if wildcarded(pe, name) != pe}


def oracle_match(pe: PolicyExpression, ctx: FlowContext) -> bool:
    """Plain conjunction of per-field predicates, written independently."""
    checks = []
    checks.append(pe.flow_id is None or pe.flow_id == ctx.packet.flow_id)
    for sel, dom, address, mac in (
        (pe.source, ctx.src_as, ctx.packet.src_ip, ctx.packet.src_mac),
        (pe.dest, ctx.dst_as, ctx.packet.dst_ip, ctx.packet.dst_mac),
    ):
        checks.append(sel.as_id is None or sel.as_id == dom.as_id)
        checks.append(sel.subnet is None or IPv4Address(address) in sel.subnet)
        checks.append(sel.as_type is None or sel.as_type == dom.as_type)
        if sel.label_req is None:
            checks.append(True)
        else:
            # compare ranks from the selector's token text, not through the window
            token = str(sel.label_req)
            relation = token[-2:] if token.endswith(("+=", "-=")) else ""
            base = int(token[2 : len(token) - len(relation)])
            rank = dom.label.rank if dom.label else None
            if rank is None:
                checks.append(False)
            elif relation == "+=":
                checks.append(rank >= base)
            elif relation == "-=":
                checks.append(rank <= base)
            else:
                checks.append(rank == base)
        checks.append(sel.host_ip is None or sel.host_ip == address)
        checks.append(sel.host_mac is None or sel.host_mac == mac)
    checks.append(pe.user is None or pe.user == ctx.user)
    checks.append(pe.services is None or ctx.packet.service_port in pe.services)
    if pe.path is not None and pe.path[0].startswith("AS"):
        checks.append(tuple(ctx.traversed_path) == tuple(pe.path))
    if pe.validity is not None:
        checks.append(pe.validity[0] <= ctx.timestamp < pe.validity[1])
    for constraint in pe.flow_cons + pe.dom_cons:
        if constraint.kind is ConstraintKind.PACKET_ATTR:
            if constraint.attr == "type":
                checks.append(ctx.packet.packet_type == constraint.value)
            elif constraint.attr == "port":
                checks.append(str(ctx.packet.service_port) == constraint.value)
            else:
                checks.append(False)
        elif constraint.kind is ConstraintKind.SIGNATURE:
            checks.append(ctx.packet.packet_type == constraint.signature)
    return all(checks)


_SELECTOR_FIELDS = ("as_id", "subnet", "as_type", "label_req", "host_ip", "host_mac")


def wildcarded(pe: PolicyExpression, field_name: str) -> PolicyExpression:
    """Copy of ``pe`` with one condition field widened to the wildcard.

    Field names: ``flow_id``, ``user``, ``services``, ``sec_profile``,
    ``path``, ``validity``, ``flow_cons``, ``dom_cons``, or
    ``source.<attr>`` / ``dest.<attr>`` for selector components.
    """
    if "." in field_name:
        side, attr = field_name.split(".", 1)
        sel = getattr(pe, side)
        return replace(pe, **{side: replace(sel, **{attr: None})})
    if field_name in ("flow_cons", "dom_cons"):
        return replace(pe, **{field_name: ()})
    return replace(pe, **{field_name: None})


CONDITION_FIELDS = (
    "flow_id",
    *(f"source.{name}" for name in _SELECTOR_FIELDS),
    *(f"dest.{name}" for name in _SELECTOR_FIELDS),
    "user",
    "flow_cons",
    "dom_cons",
    "services",
    "sec_profile",
    "path",
    "validity",
)


def scan_select(pes: list[PolicyExpression], ctx: FlowContext) -> PolicyExpression | None:
    """Selection by a scan of the whole repository: every expression is
    matched, then default deny (None), deny-overrides with the smallest deny
    id, otherwise the most specific allow with the smallest id.  This was
    ``select_policy`` before the repository index."""
    matches = [pe for pe in pes if match_pe(pe, ctx)]
    if not matches:
        return None
    denies = [pe for pe in matches if pe.action is Action.DENY]
    if denies:
        return min(denies, key=lambda p: p.id)
    return min(matches, key=lambda p: (-specificity(p), p.id))


def walk_split_top(text: str, seps: str = ",") -> list[str]:
    """Split on ``seps`` at bracket depth zero by a walk over every
    character.  Brackets of any kind count toward the depth and are not
    matched by kind.  This was ``formats._split_top`` before it split with
    ``str.split``."""
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


def ip(text: str) -> int:
    """The integer address of canonical dotted text, parsed by ``IPv4Address``."""
    return int(IPv4Address(text))


def text_parse_ipv4(text: str) -> int:
    """A dotted quad with leading zeros dropped, parsed by ``IPv4Address``
    from text.  This was ``formats.parse_ipv4`` before its integer path."""
    parts = text.strip().split(".")
    if len(parts) == 4 and all(p.isascii() and p.isdigit() for p in parts):
        text = ".".join(str(int(p)) for p in parts)
    return int(IPv4Address(text))


def asdict_line(record: FlowRecord | InstallRecord) -> str:
    """A ``records`` line as ``emit`` wrote it before its direct encoder:
    ``dataclasses.asdict`` copies the record, and ``json.dumps`` sorts the
    keys."""
    return json.dumps(asdict(record), sort_keys=True)


def records_digest(report: MetricsReport) -> str:
    """SHA-256 of the report's ``records`` emission: comparing two is as
    strict as comparing the texts, and a failure prints two short lines."""
    return hashlib.sha256(emit(report, "records").encode()).hexdigest()


def delivered(report: MetricsReport) -> list[FlowRecord]:
    return [f for f in report.flows if f.outcome == "delivered"]


def decided_deliveries(scenario) -> list[FlowRecord]:
    """Every flow a run of ``scenario`` delivers through a domain that never
    admitted its own flow id, in report order.

    The run is the usual one, world build included, with
    ``Controller.handle_packet_in`` wrapped to record each admitting
    decision (a result with no drop reason) as ``(domain, flow_id, tick)``;
    a delivered flow needs one for each domain of its ``as_path``.
    """
    decisions: list[tuple[str, str, int]] = []
    original = Controller.handle_packet_in

    def recorded(self, packet, ingress, entry_peer, tick, *args, **kwargs):
        result = original(self, packet, ingress, entry_peer, tick, *args, **kwargs)
        if not result.reason:
            decisions.append((self.as_id, packet.flow_id, tick))
        return result

    Controller.handle_packet_in = recorded
    try:
        report = Simulation(build_world(scenario)).run()
    finally:
        Controller.handle_packet_in = original
    admitted = {(domain, flow_id) for domain, flow_id, _ in decisions}
    return [
        flow
        for flow in delivered(report)
        if any((domain, flow.flow_id) not in admitted for domain in flow.as_path)
    ]


def installs_per_window(report: MetricsReport, window_ticks: int, src_ip: str | None = None) -> dict[int, int]:
    """Non-defense installs per rate window of ``window_ticks``, optionally for one source."""
    out: dict[int, int] = {}
    for record in report.installs:
        if src_ip is not None and record.src_ip != src_ip:
            continue
        if record.provenance.startswith("defense:"):
            continue
        window = record.tick // window_ticks
        out[window] = out.get(window, 0) + 1
    return out


# drop reason -> report counter, written out apart from the simulation's table
REASON_COUNTERS = {
    "POLICY": "dropped_policy",
    "HANDLE_INVALID": "dropped_policy",
    "UNSATISFIABLE_CONSTRAINTS": "dropped_policy",
    "DEFENSE_THROTTLED": "dropped_defense",
    "DEFENSE_BLOCKED": "dropped_defense",
    "BLOCKED_AT_SWITCH": "dropped_defense",
    "RATE_LIMIT": "dropped_defense",
    "NO_SATISFYING_PATH": "dropped_nopath",
    "NO_ROUTE": "dropped_nopath",
    "TABLE_FULL": "dropped_other",
    "MISDELIVERED": "dropped_other",
    "STALLED": "dropped_other",
}


def tally_counters(report: MetricsReport) -> dict[str, int]:
    """The report counters that its records determine, counted one record
    at a time."""
    tally = dict.fromkeys(
        ["offered", "delivered", "dropped_policy", "dropped_defense", "dropped_nopath", "dropped_other"], 0
    )
    for flow in report.flows:
        tally["offered"] += 1
        tally["delivered" if flow.outcome == "delivered" else REASON_COUNTERS[flow.reason]] += 1
    tally["packet_ins"] = len(report.latencies)
    tally["flow_mods"] = tally["rules_installed"] = 0
    for record in report.installs:
        if not record.provenance.startswith("defense:"):
            tally["flow_mods"] += 1
        tally["rules_installed"] += record.rules
    return tally


def link_adjacency(links) -> dict[str, set[str]]:
    """Undirected adjacency sets of a domain link list."""
    adjacency: dict[str, set[str]] = {}
    for a, b in links:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    return adjacency


def bfs_distances(adjacency, start) -> dict[str, int]:
    """Textbook breadth-first hop counts from ``start`` over undirected
    adjacency sets, ``start`` itself at 0; unreachable nodes are absent."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency.get(node, ()):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist


def dfs_all_paths(adjacency, src, dst, allowed):
    """Every simple path src..dst whose transit nodes pass ``allowed``,
    ordered by (length, lexicographic): brute-force enumeration, exponential
    in graph density.  The domain route is the first of these."""
    out = []

    def walk(node, trail):
        for neighbor in sorted(adjacency.get(node, ())):
            if neighbor in trail:
                continue
            if neighbor == dst:
                out.append(tuple(trail + [neighbor]))
            elif allowed(neighbor):
                walk(neighbor, trail + [neighbor])

    walk(src, [src])
    return sorted(out, key=lambda p: (len(p), p))


def shortest_switch_paths(graph, ingress, egress, constraint) -> list[tuple[str, ...]]:
    """Every shortest path ingress..egress whose switches, ends included,
    satisfy ``constraint``: breadth-first enumeration of whole paths, one
    per queue entry, so its cost grows with the number of equal-length
    paths.  This was the switch-path search before the shared route search."""
    if not constraint.satisfies(graph.node(ingress)) or not constraint.satisfies(graph.node(egress)):
        return []
    if ingress == egress:
        return [(ingress,)]
    best = {ingress: 0}
    paths = []
    shortest = None
    queue = deque([(ingress, (ingress,))])
    while queue:
        node, trail = queue.popleft()
        if shortest is not None and len(trail) > shortest:
            break
        for neighbor in graph.neighbors(node):
            if neighbor in trail or not constraint.satisfies(graph.node(neighbor)):
                continue
            extended = trail + (neighbor,)
            if neighbor == egress:
                if shortest is None:
                    shortest = len(extended)
                if len(extended) == shortest:
                    paths.append(extended)
                continue
            if best.get(neighbor, len(extended)) >= len(extended):
                best[neighbor] = len(extended)
                queue.append((neighbor, extended))
    return paths


def handoff_bits(graph, path) -> tuple[int, ...]:
    """One bit per hop, 1 when it hands off to a less trusted switch."""
    return tuple(0 if graph.node(a).rank <= graph.node(b).rank else 1 for a, b in zip(path, path[1:]))


def least_switch_path(graph, ingress, egress, constraint) -> tuple[str, ...] | None:
    """The switch path the tie rule picks: the first of the shortest
    satisfying paths sorted by (hand-off bits, path), or None."""
    paths = shortest_switch_paths(graph, ingress, egress, constraint)
    paths.sort(key=lambda path: (handoff_bits(graph, path), path))
    return paths[0] if paths else None


def egress_hop(world, installs):
    """Where a flow admitted with ``installs`` goes next, read off its one
    rule that carries a handle: ``(gateway, peer gateway, rule)``."""
    [(switch, rule)] = [(switch, rule) for switch, rule in installs if rule.handle is not None]
    return switch, rule.next_hop, rule


HEADER_FIELDS = tuple(spec.name for spec in fields(Packet) if spec.init)


@lru_cache(maxsize=4096)
def fixed_items(match: FlowMatch):
    """The ``(field, value)`` items ``match`` fixes (:meth:`FlowMatch.fixed`),
    worked out once per match while it is among the last 4,096 asked for (a
    run builds fewer): a match is immutable and hashable."""
    return match.fixed().items()


def header_items(packet: Packet):
    """The packet's ``(field, value)`` items, one per header field."""
    return {name: getattr(packet, name) for name in HEADER_FIELDS}.items()


def match_hits(match: FlowMatch, packet: Packet) -> bool:
    """Field-by-field check: every field ``match`` fixes equals the packet's."""
    return fixed_items(match) <= header_items(packet)


def scan_lookup(rules: list[FlowRule], packet: Packet) -> FlowRule | None:
    """The first rule of a priority-ordered table that matches: a linear
    scan, so its cost grows with the table."""
    header = header_items(packet)
    for rule in rules:
        if fixed_items(rule.match) <= header:
            return rule
    return None


class ScanTable:
    """Reference flow table: one list kept in priority order by a bisect
    insort, equal priorities in install order, a rule's priority read off
    its match.  Install rules follow the switch's: a rule for an installed
    match replaces it in its place, and a new match beyond capacity is
    refused: ``install`` returns False and the table is unchanged."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.rules: list[FlowRule] = []

    def install(self, rule: FlowRule) -> bool:
        existing = next((old for old in self.rules if old.match == rule.match), None)
        if existing is not None:
            self.rules[self.rules.index(existing)] = rule
            return True
        if len(self.rules) >= self.capacity:
            return False
        # insertion point after equal priorities keeps install order stable
        index = bisect.bisect_right(self.rules, -rule.match.priority, key=lambda r: -r.match.priority)
        self.rules.insert(index, rule)
        return True


class _RollCounter:
    def __init__(self) -> None:
        self.current = 0
        self.admitted = 0


class RollingMonitor:
    """Reference flood monitor: one global window index, and every host and
    switch counter reset together when a request opens a later window.  A
    host marked DROP_RULE stays blocked; a THROTTLE mark is kept but never
    read.  This was the monitor before per-key windows; on non-decreasing
    ticks the two must agree."""

    def __init__(self, cap, response: ResponseMode, *, window_ticks: int):
        self.response = response
        self.window_ticks = window_ticks
        self.tsw, self.thost = compute_thresholds(cap)
        self._window_index = 0
        self._hosts: dict[str, _RollCounter] = {}
        self._switches: dict[str, _RollCounter] = {}
        self.active_responses: dict[str, ResponseMode] = {}

    def _roll(self, tick: int) -> None:
        index = tick // self.window_ticks
        if index > self._window_index:
            for counter in (*self._hosts.values(), *self._switches.values()):
                counter.current = 0
                counter.admitted = 0
            self._window_index = index

    def requests(self, host: str) -> int:
        """Requests from ``host`` in the current window."""
        counter = self._hosts.get(host)
        return 0 if counter is None else counter.current

    def blocked(self) -> set[str]:
        return {host for host, mark in self.active_responses.items() if mark is ResponseMode.DROP_RULE}

    def record_and_check(self, src_host: str, src_switch: str, tick: int) -> ResponseMode:
        self._roll(tick)
        host = self._hosts.setdefault(src_host, _RollCounter())
        switch = self._switches.setdefault(src_switch, _RollCounter())
        host.current += 1
        switch.current += 1
        if self.active_responses.get(src_host) is ResponseMode.DROP_RULE:
            return ResponseMode.DROP_RULE
        host_over = host.admitted + 1 > math.floor(self.thost)
        switch_over = switch.admitted + 1 > math.floor(self.tsw)
        if not host_over and not switch_over:
            host.admitted += 1
            switch.admitted += 1
            return ResponseMode.NONE
        if not host_over:
            return ResponseMode.THROTTLE
        self.active_responses[src_host] = self.response
        return self.response


def queue_event(sim: Simulation, tick: int, handler, *args) -> None:
    """Queue an event on ``sim``'s heap as an offer queues a flow's first
    event, with the next insertion number; the loop heapifies the queue
    when it starts."""
    sim._heap.append((tick, sim._seq, handler, args))
    sim._seq += 1


class HeapSimulation(Simulation):
    """Reference event loop: every step a handler returns is pushed on the
    heap with a fresh insertion number and popped from it, in (tick,
    insertion number) order, so every hop a packet takes is an event of
    its own.  This was the loop before a step could run with no push and
    no pop and before a packet crossed installed rules in one handler
    call."""

    def _runs_next(self, tick) -> bool:
        return False

    def _run_events(self) -> None:
        heap = self._heap
        heapq.heapify(heap)
        while heap:
            tick, _seq, handler, args = heapq.heappop(heap)
            step = handler(tick, *args)
            if step is not None:
                tick, handler, args = step
                heapq.heappush(heap, (tick, self._seq, handler, args))
                self._seq += 1
