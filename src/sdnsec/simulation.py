"""Deterministic event-driven execution of one scenario.

The world is rebuilt from the scenario for every run: switches wired port by
port in declaration order, one ``DomainInfo`` per domain, and one controller
per domain, built from the domain's spec, its switch graph, a fresh probe of
the domain graph and the scenario's own ``costs``.  The ARP rules written
then, like every flow-mod batch, go through
:func:`~sdnsec.dataplane.install_batch`, and the loop counts the batches it
refuses (``table_full_events``).  The event loop runs handler calls in
(tick, insertion) order, so equal scenarios produce byte-identical reports.
Events wait in one heap, which starts as the offers, heapified once.  A
handler returns its flow's next step, or ``None`` when the flow ends, and
the loop runs that step at once when no queued event has a tick at or before
it, and pushes it otherwise.  A packet's next step usually comes before
every other flow's, so it usually runs with no push and no pop.

A packet arriving at a switch executes the rule the switch's lookup
returns: a forward rule passes it to the rule's next hop, a drop rule ends
its flow, and a miss or a to-controller rule raises a packet-in.  A packet's
in-flight record holds the switch it is at and the node it came from, which
a packet-in names as its ingress and entry peer.  A packet crosses installed
forward rules in one handler call: while no queued event has a tick at or
before its next hop's, it takes that hop at once instead of returning it.
A step pushed now would be inserted last, so nothing else could run before
it, and the (tick, insertion) order holds.  Every hop is still one lookup
at its own tick.

Controllers are modeled as sequential servers: a packet-in waits until the
controller is free, is charged the pipeline's deterministic service ticks,
and the installs of its ``PipelineResult`` apply at the emission tick.  The
loop alone keeps each controller's clock, the tick it is next free, which
each packet-in's emission moves on.  A packet leaving a domain, retries
included, picks up its handle, which holds its transfer token, from the
egress gateway's forward rule, which is where augmentation happens on a
real edge.  Proactive pre-install runs each flow's packet-ins
before the event loop starts, in the order the loop would offer the flows
(by tick, equal ticks in document order), with the packet the flow is
offered with, built once.  It takes the hop the same way:
the next domain's ingress is that rule's next hop, and its packet-in
carries that rule's handle.

At the end of a run the report's counters are counted from its records,
except the two events no record carries; ``_DROP_COUNTERS`` files each
``DropReason`` under one ``dropped_*`` counter.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass
from itertools import groupby

from .controller import (
    BLOCK_PROVENANCE_PREFIX,
    Controller,
    CostModel,
    DropReason,
    PipelineResult,
    arp_discovery_rule,
)
from .dataplane import ActionKind, FlowRule, Packet, Switch, install_batch
from .defense import FloodMonitor, ResponseMode
from .interdomain import DomainKey, Handle
from .metrics import FlowRecord, InstallRecord, LatencyRecord, MetricsReport
from .policy import DomainInfo
from .scenario import FloodSpec, FlowSpec, HostSpec, Scenario
from .topology import Graph, gateway_name, probe_topology

__all__ = ["World", "build_world", "run"]

LINK_TICK = 1

# (tick, insertion number, handler, arguments): events run in this order
_Event = tuple[int, int, Callable, tuple]
# (tick, handler, arguments): the next step a handler returns for its flow
_Step = tuple[int, Callable, tuple]


@dataclass(slots=True)
class _InFlight:
    packet: Packet
    record: FlowRecord
    at: str  # the switch the packet is at
    came_from: str  # the node it reached that switch from
    handle: Handle | None  # the handle the packet carries, once it has one
    trace: list[str]  # the switches it has crossed


@dataclass
class World:
    scenario: Scenario
    as_graph: Graph
    switches: dict[str, Switch]
    switch_domain: dict[str, str]
    controllers: dict[str, Controller]
    hosts: dict[str, HostSpec]
    hosts_by_ip: dict[int, HostSpec]


def build_world(scenario: Scenario, costs: CostModel | None = None) -> World:
    """Wire the scenario's world; ``costs`` defaults to the scenario's own."""
    costs = costs or scenario.costs
    as_graph = Graph()
    for domain in scenario.domains:
        as_graph.add_node(domain.id, DomainInfo(domain.id, domain.subnet, domain.as_type, domain.label))
    for a, b in scenario.links:
        as_graph.add_link(a, b)

    # port wiring: intra links first (declaration order), then domain links,
    # then hosts, so port numbers are a pure function of the scenario
    switches: dict[str, Switch] = {}
    switch_domain: dict[str, str] = {}
    switch_graphs: dict[str, Graph] = {}
    for domain in scenario.domains:
        graph = Graph()
        for spec in domain.switches:
            switches[spec.id] = Switch(spec.id, capacity=scenario.table_capacity)
            switch_domain[spec.id] = domain.id
            graph.add_node(spec.id, spec.label)
        for a, b in domain.links:
            graph.add_link(a, b)
            switches[a].attach(b)
            switches[b].attach(a)
        switch_graphs[domain.id] = graph
    for a, b in scenario.links:
        ab, ba = gateway_name(a, b), gateway_name(b, a)
        switches[ab].attach(ba)
        switches[ba].attach(ab)
    hosts: dict[str, HostSpec] = {}
    hosts_by_ip: dict[int, HostSpec] = {}
    for domain in scenario.domains:
        for host in domain.hosts:
            switches[host.switch].attach(host.id)
            hosts[host.id] = host
            hosts_by_ip[host.ip] = host

    install_batch(switches, [(switch_id, arp_discovery_rule()) for switch_id in switches])

    # one prepared key per domain, shared by its controller and every key
    # ring that names it
    keys = {domain.id: DomainKey(domain.handle_key.encode()) for domain in scenario.domains}
    controllers: dict[str, Controller] = {}
    for domain in scenario.domains:
        monitor = None
        if scenario.capacity is not None and scenario.defense_response is not ResponseMode.NONE:
            monitor = FloodMonitor(
                scenario.capacity,
                response=scenario.defense_response,
                window_ticks=scenario.window_ticks,
            )
        controllers[domain.id] = Controller(
            domain,
            as_graph=as_graph,
            intra=switch_graphs[domain.id],
            known=probe_topology(as_graph, domain.id, scenario.max_ttl),
            monitor=monitor,
            key=keys[domain.id],
            key_ring={peer: keys[peer] for peer in as_graph.neighbors(domain.id)},
            enforcement_enabled=scenario.enforcement,
            costs=costs,
            window_ticks=scenario.window_ticks,
        )
    return World(
        scenario=scenario,
        as_graph=as_graph,
        switches=switches,
        switch_domain=switch_domain,
        controllers=controllers,
        hosts=hosts,
        hosts_by_ip=hosts_by_ip,
    )


# drop reason -> the report counter its flows are counted under
_DROP_COUNTERS = {
    DropReason.POLICY: "dropped_policy",
    DropReason.HANDLE_INVALID: "dropped_policy",
    DropReason.UNSATISFIABLE: "dropped_policy",
    DropReason.DEFENSE_THROTTLED: "dropped_defense",
    DropReason.DEFENSE_BLOCKED: "dropped_defense",
    DropReason.BLOCKED_AT_SWITCH: "dropped_defense",
    DropReason.RATE_LIMIT: "dropped_defense",
    DropReason.NO_SATISFYING_PATH: "dropped_nopath",
    DropReason.NO_ROUTE: "dropped_nopath",
    DropReason.TABLE_FULL: "dropped_other",
    DropReason.MISDELIVERED: "dropped_other",
    DropReason.STALLED: "dropped_other",
}


class Simulation:
    def __init__(self, world: World):
        self.world = world
        self.scenario = world.scenario
        self.report = MetricsReport(
            scenario=self.scenario.name,
            mode=self.scenario.mode,
            enforcement=self.scenario.enforcement,
        )
        self._heap: list[_Event] = []
        self._seq = 0
        # domain -> the tick its controller is next free
        self._free_at = dict.fromkeys(world.controllers, 0)
        # the two counts no record carries
        self._counters = {"proactive_installs": 0, "table_full_events": 0}

    # --- traffic expansion -----------------------------------------------------

    def _offer_flow(self, spec, port: int, tick: int, from_flood: bool) -> Packet:
        src = self.world.hosts[spec.src_host]
        dst_host = self.world.hosts_by_ip.get(spec.dst)
        # the per-flow records are built positionally, in field order: no
        # keyword matching and no default factory, once per offered flow
        dst_mac = dst_host.mac if dst_host else "ff:ff:ff:ff:ff:ff"
        packet = Packet(src.ip, spec.dst, src.mac, dst_mac, spec.proto, port, spec.packet_type)
        flows = self.report.flows
        record = FlowRecord(
            len(flows), packet.flow_id, spec.src_host, packet.dst_text, tick, "pending", "", "", -1, (), (), from_flood
        )
        flows.append(record)
        inflight = _InFlight(packet, record, src.switch, src.id, None, [])
        self._heap.append((tick + LINK_TICK, self._seq, self._on_switch_rx, (inflight,)))
        self._seq += 1
        return packet

    def _expand_traffic(self) -> list[tuple[FlowSpec, Packet]]:
        """Offer every flow; answer each single (not flood) flow with the
        packet it was offered with, in document order."""
        ticks_per_second = self.scenario.window_ticks
        singles = []
        for item in self.scenario.traffic:
            if isinstance(item, FloodSpec):
                total = item.rate * item.seconds
                for i in range(total):
                    tick = item.at + i * ticks_per_second // item.rate
                    self._offer_flow(item, item.port_base + i, tick, from_flood=True)
            else:
                singles.append((item, self._offer_flow(item, item.port, item.at, from_flood=False)))
        return singles

    # --- event handlers -----------------------------------------------------

    def _finish(self, record: FlowRecord, reason: str, domain: str) -> None:
        record.outcome = "dropped"
        record.reason = reason
        record.drop_domain = domain

    def _deliver(self, inflight: _InFlight, tick: int) -> None:
        record = inflight.record
        record.outcome = "delivered"
        record.delivered_tick = tick
        record.switch_path = tuple(inflight.trace)
        domains = (self.world.switch_domain[switch_id] for switch_id in inflight.trace)
        record.as_path = tuple(domain for domain, _ in groupby(domains))

    def _runs_next(self, tick: int) -> bool:
        """Whether a step pushed now at ``tick`` would run next: no queued
        event has a tick at or before it.  An event with an equal tick was
        inserted earlier, so it runs first."""
        heap = self._heap
        return not heap or heap[0][0] > tick

    def _on_switch_rx(self, tick: int, inflight: _InFlight) -> _Step | None:
        """The packet arrives at ``inflight.at``; it crosses forward rules
        in this one call while its next hop would be the next event run."""
        world, packet = self.world, inflight.packet
        switches, hosts = world.switches, world.hosts
        while True:
            switch_id = inflight.at
            rule = switches[switch_id].lookup(packet)
            if rule is None or rule.action == ActionKind.TO_CONTROLLER:
                return tick + LINK_TICK, self._on_ctrl_job, (inflight,)
            if rule.action == ActionKind.DROP:  # every drop rule is a defense block rule
                self._finish(inflight.record, DropReason.BLOCKED_AT_SWITCH, world.switch_domain[switch_id])
                return None
            if rule.handle is not None:
                inflight.handle = rule.handle
            inflight.trace.append(switch_id)
            peer = rule.next_hop
            tick += LINK_TICK
            if peer in hosts:
                if hosts[peer].ip == packet.dst_ip:
                    self._deliver(inflight, tick)
                else:
                    self._finish(inflight.record, DropReason.MISDELIVERED, world.switch_domain[switch_id])
                return None
            inflight.at, inflight.came_from = peer, switch_id
            if not self._runs_next(tick):
                return tick, self._on_switch_rx, (inflight,)

    def _on_ctrl_job(self, tick: int, inflight: _InFlight) -> _Step | None:
        domain = self.world.switch_domain[inflight.at]
        ctrl = self.world.controllers[domain]
        arrival = tick
        start = max(arrival, self._free_at[domain])
        result = ctrl.handle_packet_in(inflight.packet, inflight.at, inflight.came_from, start, inflight.handle)
        emission = self._free_at[domain] = start + result.service_ticks
        self.report.latencies.append(LatencyRecord(domain, arrival, start, emission))
        return emission, self._on_apply_result, (inflight, result)

    def _install_batch(self, installs: tuple[tuple[str, FlowRule], ...]) -> bool:
        if install_batch(self.world.switches, installs):
            return True
        self._counters["table_full_events"] += 1
        return False

    def _on_apply_result(self, tick: int, inflight: _InFlight, result: PipelineResult) -> _Step | None:
        domain = self.world.switch_domain[inflight.at]
        installs, packet = result.installs, inflight.packet
        written = bool(installs) and self._install_batch(installs)
        if written:
            self.report.installs.append(
                InstallRecord(tick, domain, packet.src_text, packet.flow_id, len(installs), result.provenance)
            )
        if result.reason or not written:
            self._finish(inflight.record, result.reason or DropReason.TABLE_FULL, domain)
            return None
        # the packet that missed is re-offered where it missed
        return tick + LINK_TICK, self._on_switch_rx, (inflight,)

    # --- proactive pre-install ---------------------------------------------------

    def _preinstall(self, singles: list[tuple[FlowSpec, Packet]]) -> None:
        # the single flows with the packets they are offered with, in tick
        # order, as the event loop would offer them; floods are reactive by
        # nature
        for item, packet in sorted(singles, key=lambda single: single[0].at):
            src = self.world.hosts[item.src_host]
            ingress, entry_peer = src.switch, src.id
            handle = None
            # each hop extends the handle by a domain it has not visited, so
            # the walk ends within one hop per domain
            while True:
                ctrl = self.world.controllers[self.world.switch_domain[ingress]]
                result = ctrl.handle_packet_in(packet, ingress, entry_peer, item.at, handle, defense=False)
                if result.reason or not self._install_batch(result.installs):
                    break
                self._counters["proactive_installs"] += len(result.installs)
                egress = next(((s, rule) for s, rule in result.installs if rule.handle is not None), None)
                if egress is None:
                    break  # the flow ends in this domain
                entry_peer, rule = egress
                ingress, handle = rule.next_hop, rule.handle

    # --- main loop -------------------------------------------------------------

    def _run_events(self) -> None:
        """Run every event, the least (tick, insertion number) first, and each
        step a handler returns: at once if it would run next, else pushed."""
        heap = self._heap
        heapq.heapify(heap)
        while heap:
            tick, _seq, handler, args = heapq.heappop(heap)
            step = handler(tick, *args)
            while step is not None:
                tick, handler, args = step
                if not self._runs_next(tick):
                    heapq.heappush(heap, (tick, self._seq, handler, args))
                    self._seq += 1
                    break
                step = handler(tick, *args)

    def run(self) -> MetricsReport:
        # an offer records its flow and queues its first event, neither of
        # which pre-install reads, so pre-install may follow the offers and
        # take their packets
        singles = self._expand_traffic()
        if self.scenario.mode == "proactive":
            self._preinstall(singles)
        self._run_events()
        report = self.report
        outcomes = {"delivered": 0, **dict.fromkeys(_DROP_COUNTERS.values(), 0)}
        for record in report.flows:
            if record.outcome == "pending":
                self._finish(record, DropReason.STALLED, "")
            outcomes["delivered" if record.outcome == "delivered" else _DROP_COUNTERS[record.reason]] += 1
        report.counters = {
            "offered": len(report.flows),
            **outcomes,
            # every packet-in is one controller job, and each job one latency record
            "packet_ins": len(report.latencies),
            "flow_mods": sum(1 for r in report.installs if not r.provenance.startswith(BLOCK_PROVENANCE_PREFIX)),
            "rules_installed": sum(r.rules for r in report.installs),
            **self._counters,
        }
        return report


def run(scenario: Scenario) -> MetricsReport:
    """Build the world and execute the scenario to quiescence."""
    return Simulation(build_world(scenario)).run()

