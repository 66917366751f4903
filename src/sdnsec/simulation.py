"""Deterministic event-driven execution of one scenario.

The world is rebuilt from the scenario for every run: switches wired port by
port in declaration order, and one controller per domain, built from the
domain's spec, its switch graph and a fresh probe of the domain graph.  The
event loop is a single tick-ordered heap of handler calls; ties resolve in
insertion order, so equal scenarios produce byte-identical reports.

A packet arriving at a switch executes the rule the switch's lookup
returns: a forward rule passes it to the rule's next hop, a drop rule ends
its flow, and a miss or a to-controller rule raises a packet-in.  A packet's
in-flight record holds the switch it is at and the node it came from, which
a packet-in names as its ingress and entry peer.

Controllers are modeled as sequential servers: a packet-in waits until the
controller is free, is charged the pipeline's deterministic service ticks,
and its flow-mod batch applies at the emission tick.  A packet leaving a
domain, retries included, picks up its handle, which holds its transfer
token, from the egress gateway's forward rule, which is where augmentation
happens on a real edge.  Proactive pre-install runs each flow's packet-ins
before the event loop starts, in the order the loop would offer the flows
(by tick, equal ticks in document order).  It takes the hop the same way:
the next domain's ingress is that rule's next hop, and its packet-in
carries that rule's handle.

At the end of a run the report's counters are counted from its records,
except the two events no record carries; ``_DROP_COUNTERS`` files each
``DropReason`` under one ``dropped_*`` counter.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import groupby

from .controller import (
    BLOCK_PROVENANCE_PREFIX,
    Controller,
    CostModel,
    DropReason,
    FlowModBatch,
    PipelineResult,
    arp_discovery_rule,
)
from .dataplane import ActionKind, Packet, Switch, install_batch
from .defense import FloodMonitor, ResponseMode
from .interdomain import Handle
from .metrics import FlowRecord, InstallRecord, LatencyRecord, MetricsReport
from .policy import DomainInfo
from .scenario import FloodSpec, HostSpec, Scenario
from .topology import Graph, gateway_name, probe_topology

__all__ = ["World", "build_world", "run"]

LINK_TICK = 1


@dataclass
class _InFlight:
    packet: Packet
    record: FlowRecord
    at: str  # the switch the packet is at
    came_from: str  # the node it reached that switch from
    handle: Handle | None = None
    trace: list[str] = field(default_factory=list)


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

    controllers: dict[str, Controller] = {}
    for domain in scenario.domains:
        monitor = None
        if scenario.capacity is not None and scenario.defense_response is not ResponseMode.NONE:
            monitor = FloodMonitor(
                scenario.capacity,
                response=scenario.defense_response,
                window_ticks=scenario.window_ticks,
            )
        neighbor_keys = {
            peer: scenario.domain(peer).handle_key.encode()
            for peer in as_graph.neighbors(domain.id)
        }
        controllers[domain.id] = Controller(
            domain,
            as_graph=as_graph,
            intra=switch_graphs[domain.id],
            known=probe_topology(as_graph, domain.id, scenario.max_ttl),
            monitor=monitor,
            key_ring=neighbor_keys,
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
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        # the two counts no record carries
        self._counters = {"proactive_installs": 0, "table_full_events": 0}

    def _schedule(self, tick: int, handler: Callable[..., None], *args) -> None:
        heapq.heappush(self._heap, (tick, self._seq, handler, args))
        self._seq += 1

    # --- traffic expansion -----------------------------------------------------

    def _make_packet(self, src: HostSpec, dst_ip: int, spec, port: int) -> Packet:
        dst_host = self.world.hosts_by_ip.get(dst_ip)
        return Packet(
            src_ip=src.ip,
            dst_ip=dst_ip,
            src_mac=src.mac,
            dst_mac=dst_host.mac if dst_host else "ff:ff:ff:ff:ff:ff",
            ip_proto=spec.proto,
            service_port=port,
            packet_type=spec.packet_type,
        )

    def _offer_flow(self, spec, port: int, tick: int, from_flood: bool) -> None:
        src = self.world.hosts[spec.src_host]
        packet = self._make_packet(src, spec.dst, spec, port)
        record = FlowRecord(
            index=len(self.report.flows),
            flow_id=packet.flow_id,
            src=spec.src_host,
            dst=packet.dst_text,
            request_tick=tick,
            from_flood=from_flood,
        )
        self.report.flows.append(record)
        inflight = _InFlight(packet=packet, record=record, at=src.switch, came_from=src.id)
        self._schedule(tick + LINK_TICK, self._on_switch_rx, inflight)

    def _expand_traffic(self) -> None:
        ticks_per_second = self.scenario.window_ticks
        for item in self.scenario.traffic:
            if isinstance(item, FloodSpec):
                total = item.rate * item.seconds
                for i in range(total):
                    tick = item.at + i * ticks_per_second // item.rate
                    self._offer_flow(item, item.port_base + i, tick, from_flood=True)
            else:
                self._offer_flow(item, item.port, item.at, from_flood=False)

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

    def _on_switch_rx(self, tick: int, inflight: _InFlight) -> None:
        switch_id = inflight.at
        rule = self.world.switches[switch_id].lookup(inflight.packet)
        if rule is None or rule.action == ActionKind.TO_CONTROLLER:
            self._schedule(tick + LINK_TICK, self._on_ctrl_job, inflight)
            return
        if rule.action == ActionKind.DROP:  # every drop rule is a defense block rule
            self._finish(inflight.record, DropReason.BLOCKED_AT_SWITCH, self.world.switch_domain[switch_id])
            return
        if rule.handle is not None:
            inflight.handle = rule.handle
        inflight.trace.append(switch_id)
        peer = rule.next_hop
        if peer in self.world.hosts:
            if self.world.hosts[peer].ip == inflight.packet.dst_ip:
                self._deliver(inflight, tick + LINK_TICK)
            else:
                self._finish(inflight.record, DropReason.MISDELIVERED, self.world.switch_domain[switch_id])
            return
        inflight.at, inflight.came_from = peer, switch_id
        self._schedule(tick + LINK_TICK, self._on_switch_rx, inflight)

    def _on_ctrl_job(self, tick: int, inflight: _InFlight) -> None:
        domain = self.world.switch_domain[inflight.at]
        ctrl = self.world.controllers[domain]
        arrival = tick
        start = max(arrival, ctrl.next_free_tick)
        result = ctrl.handle_packet_in(inflight.packet, inflight.at, inflight.came_from, start, inflight.handle)
        emission = start + result.service_ticks
        ctrl.next_free_tick = emission
        self.report.latencies.append(LatencyRecord(domain, arrival, start, emission))
        self._schedule(emission, self._on_apply_result, inflight, result)

    def _install_batch(self, batch: FlowModBatch) -> bool:
        if install_batch(self.world.switches, batch.installs):
            return True
        self._counters["table_full_events"] += 1
        return False

    def _on_apply_result(self, tick: int, inflight: _InFlight, result: PipelineResult) -> None:
        domain = self.world.switch_domain[inflight.at]
        batch, packet = result.batch, inflight.packet
        written = batch is not None and self._install_batch(batch)
        if written:
            self.report.installs.append(
                InstallRecord(tick, domain, packet.src_text, packet.flow_id, len(batch), batch.provenance)
            )
        if result.reason or not written:
            self._finish(inflight.record, result.reason or DropReason.TABLE_FULL, domain)
        else:
            # the packet that missed is re-offered where it missed
            self._schedule(tick + LINK_TICK, self._on_switch_rx, inflight)

    # --- proactive pre-install ---------------------------------------------------

    def _preinstall(self) -> None:
        # in tick order, as the event loop would offer them; floods are
        # reactive by nature
        flows = [item for item in self.scenario.traffic if not isinstance(item, FloodSpec)]
        for item in sorted(flows, key=lambda item: item.at):
            src = self.world.hosts[item.src_host]
            packet = self._make_packet(src, item.dst, item, item.port)
            ingress, entry_peer = src.switch, src.id
            handle = None
            # each hop extends the handle by a domain it has not visited, so
            # the walk ends within one hop per domain
            while True:
                ctrl = self.world.controllers[self.world.switch_domain[ingress]]
                result = ctrl.handle_packet_in(packet, ingress, entry_peer, item.at, handle, defense=False)
                if result.reason or not self._install_batch(result.batch):
                    break
                self._counters["proactive_installs"] += len(result.batch)
                egress = next(((s, rule) for s, rule in result.batch.installs if rule.handle is not None), None)
                if egress is None:
                    break  # the flow ends in this domain
                entry_peer, rule = egress
                ingress, handle = rule.next_hop, rule.handle

    # --- main loop -------------------------------------------------------------

    def run(self) -> MetricsReport:
        if self.scenario.mode == "proactive":
            self._preinstall()
        self._expand_traffic()
        while self._heap:
            tick, _seq, handler, args = heapq.heappop(self._heap)
            handler(tick, *args)
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

