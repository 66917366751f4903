"""Per-domain controller pipeline: admission, rule synthesis, credentials.

A packet-in runs through a fixed pipeline: flood accounting, credential
checks, context extraction, repository selection (or the fixed
``BASELINE`` allow with enforcement off), constraint merging, the rate
check, route resolution and finally rule synthesis.  Selection returns the
winning expression, and every later stage reads its obligations off it; no
winner, a deny, or an allow whose own label window is empty drops as
``POLICY``.  The answer is one ``PipelineResult``: the ticks charged, the
``(switch id, rule)`` installs to write, the provenance they are filed
under (the winner's id, or ``defense:<source>`` for a block rule) and, for
a drop, its reason (an empty reason means admitted).  A drop writes
nothing, except an offender's first defense block, which writes its one
block rule on the ingress switch.  Each rule forwards to a named next
hop: the following path switch, the host or peer gateway at the end of the
path, and the entry peer for the return rules.  For a flow leaving the
domain, the egress gateway's forward rule is the hop: its next hop is the
next domain's gateway, and it carries the extended handle, which holds the
re-tagged transfer token.  Every outcome appends one
``ControllerEvent`` naming the matched policy and the ticks charged so far.

A controller is built from its domain's ``DomainSpec`` (policies, handle
key, users, hosts) and the world's :class:`~sdnsec.topology.DomainTable`,
which every controller shares.  It asks the table which foreign domains
its probes reach (it knows those), reads its own and each known domain's
attributes from the table's domain graph, and takes each domain route from
the table, which searches it on that graph.  The caller names the node the
packet came from (``entry_peer``), which the return rules lead to.  A next domain that the flow's handle has already
visited is a ``NO_SATISFYING_PATH`` drop, with enforcement on or off, so no
flow loops back into a domain.

Deterministic service cost in ticks is charged per stage so latency and
throughput experiments are reproducible: policy selection costs per
expression in the repository, path search costs per switch in the fabric,
synthesis per rule.  A controller only counts these ticks and keeps no
clock: the simulation keeps when each domain's controller is next free.
These ticks model the paper's controller; on the host,
selection probes a :class:`~sdnsec.policy.PolicyIndex` and matches only
the expressions filed under the context's values and the wildcard list, and
a route is searched once, since neither graph changes once the world is
built: the world's table keeps each domain route per (source, destination,
label window), and each controller keeps its switch path per (ingress,
egress, required path, label window).  A memo keys the window by its two
bounds, which hash without running Python code, and a packet-in reads each
memo with one lookup.  A packet-in served from a memo is still charged the
search's ticks.  The other facts a packet-in reads that never change are
worked out once as well: a controller names, for each neighbour, its own
gateway toward it and the neighbour's gateway toward it when it is built
(the entry check reads the one, a flow leaving for that neighbour both),
and the text a defense drop's detail prints of its flood monitor's budgets.  Its own
handle key and its neighbours' are :class:`~sdnsec.interdomain.DomainKey`
values, prepared once per domain by the world's builder and shared by
every controller that holds them.
The rate check reads the winner's budgets as the expression keeps them
(``PolicyExpression.rates``) and scans only the token's constraints.

Addresses are plain ``int`` values throughout: the host table, the rate
windows and the flood monitor are keyed by them.  Only the event summaries
and a block rule's provenance print them, as dotted text, and they read
that text off the packet, which prints its addresses once.  A controller
finds an address's domain in the world's table, which files every domain's
subnet by mask, and answers only its own domain or a known one; the subnets
are disjoint, so that is the domain a table of its own and its known
domains' subnets would find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dataplane import (
    ARP_RULE_PRIORITY,
    BLOCK_RULE_PRIORITY,
    ActionKind,
    FlowMatch,
    FlowRule,
    Packet,
)
from .defense import FloodMonitor, ResponseMode, WindowCounts
from .frozen import frozen
from .interdomain import (
    DomainKey,
    Handle,
    PolicyTransferToken,
    extend_handle,
    forward_ptt,
    merge_constraints,
    validate_handle,
    verify_ptt,
)
from .policy import (
    BLOCK_PROVENANCE_PREFIX,
    Action,
    Constraint,
    ConstraintKind,
    DomainInfo,
    FlowContext,
    PolicyExpression,
    predicates_hold,
    select_policy,
)
from .topology import DomainTable, find_switch_path, gateway_name

if TYPE_CHECKING:
    from fractions import Fraction

    from .scenario import DomainSpec
    from .topology import Graph

__all__ = [
    "BASELINE",
    "BLOCK_PROVENANCE_PREFIX",
    "Controller",
    "ControllerEvent",
    "CostModel",
    "DropReason",
    "PipelineResult",
    "arp_discovery_rule",
    "synthesize_rules",
]


class DropReason:
    """Every reason a dropped flow's record can carry; the simulation, not
    the pipeline, sets the last four."""

    POLICY = "POLICY"
    NO_SATISFYING_PATH = "NO_SATISFYING_PATH"
    NO_ROUTE = "NO_ROUTE"
    HANDLE_INVALID = "HANDLE_INVALID"
    UNSATISFIABLE = "UNSATISFIABLE_CONSTRAINTS"
    DEFENSE_THROTTLED = "DEFENSE_THROTTLED"
    DEFENSE_BLOCKED = "DEFENSE_BLOCKED"
    RATE_LIMIT = "RATE_LIMIT"
    BLOCKED_AT_SWITCH = "BLOCKED_AT_SWITCH"
    MISDELIVERED = "MISDELIVERED"
    TABLE_FULL = "TABLE_FULL"
    STALLED = "STALLED"


@frozen
class CostModel:
    """Deterministic tick charges per pipeline stage."""

    base: int = 5
    defense: int = 5
    per_pe: int = 2
    per_switch: int = 2
    per_rule: int = 1


@frozen(slots=True)
class PipelineResult:
    """What one packet-in yields: the ticks it charged, the ``(switch id,
    rule)`` pairs to write (``installs``, empty when there is nothing to
    write), the decision they are filed under (``provenance``) and, for a
    drop, its ``reason``.  An empty ``reason`` means the flow was admitted,
    ``installs`` holds its rules and ``provenance`` is the winner's id;
    where the flow goes next, and with which credentials, is read off the
    egress rule.  An offender's first defense block is a drop that writes
    its block rule, under ``defense:<source>``."""

    service_ticks: int
    installs: tuple[tuple[str, FlowRule], ...] = ()
    provenance: str = ""
    reason: str = ""


@dataclass(slots=True)
class ControllerEvent:
    tick: int
    flow_id: str
    summary: str
    verdict: str  # install | drop
    reason: str
    matched_pe: str | None
    rules_installed: int
    service_ticks: int


# the winner of every packet-in when enforcement is off: allow, with no
# obligation and no constraint
BASELINE = PolicyExpression(id="baseline", action=Action.ALLOW)


# what the switch path memo answers for a path it has not searched yet
_UNSEARCHED = object()

# a match is immutable, so every switch's ARP rule shares this one
_ARP_MATCH = FlowMatch(ARP_RULE_PRIORITY, "ARP")

# the security profile of a rule whose policy sets none, shared by them all
_NO_PROFILE: frozenset[str] = frozenset()


def arp_discovery_rule() -> FlowRule:
    """Default controller-installed entry for network discovery traffic."""
    return FlowRule(_ARP_MATCH, ActionKind.TO_CONTROLLER)


def synthesize_rules(
    path: tuple[str, ...],
    packet: Packet,
    *,
    final_peer: str,
    entry_peer: str,
    sec_profile: frozenset[str] = _NO_PROFILE,
    handle_out: Handle | None = None,
) -> tuple[tuple[str, FlowRule], ...]:
    """One forward rule per path switch plus the symmetric return set.

    Rules match the flow's (addresses, protocol, port, type) tuple, the
    return rules with the addresses swapped (``packet.matches``).  Each
    rule names its next hop: the following switch on the path,
    ``final_peer`` for the last switch's forward rule (a host or the peer
    domain's gateway) and ``entry_peer`` for the first switch's return
    rule.  The last switch's forward rule carries ``handle_out``, the
    credential of a flow that leaves the domain there.  The installs, an
    admitted flow's ``PipelineResult.installs``, list the forward rules in
    path order, then the return rules in path order; the install order
    breaks lookup ties and orders a switch's flow dump.
    """
    if not path:
        raise ValueError("cannot synthesize rules for an empty path")
    forward_match, reverse_match = packet.matches
    size = len(path)
    action, last = ActionKind.FORWARD, size - 1
    # the forward rules fill the first half, the return rules the second
    installs: list[tuple[str, FlowRule] | None] = [None] * (2 * size)
    for i, switch in enumerate(path):
        ahead, handle = (path[i + 1], None) if i < last else (final_peer, handle_out)
        back = path[i - 1] if i else entry_peer
        installs[i] = (switch, FlowRule(forward_match, action, ahead, sec_profile, handle))
        installs[size + i] = (switch, FlowRule(reverse_match, action, back, sec_profile))
    return tuple(installs)


class Controller:
    """One domain's decision point; state is touched only by the event loop."""

    def __init__(
        self,
        spec: DomainSpec,
        *,
        domains: DomainTable,
        intra: Graph,
        monitor: FloodMonitor | None,
        key: DomainKey,
        key_ring: dict[str, DomainKey],
        enforcement_enabled: bool,
        costs: CostModel,
        window_ticks: int,
    ):
        """``domains`` is the world's domain table, shared by every
        controller, which also answers which foreign domains this domain's
        probes reach (see :meth:`~sdnsec.topology.DomainTable.knows`), and
        ``intra`` the domain's switch graph.  ``key`` is the domain's own
        prepared handle key and ``key_ring`` its neighbors'."""
        if not key.secret:
            raise ValueError("controller needs a nonempty handle key")
        self.as_id = spec.id
        self.policy_repo = spec.policy_index
        self.handle_key = key
        self.domains = domains
        self.intra = intra
        self.monitor = monitor
        # the monitor's budgets as a defense drop's detail prints them
        self._thresholds_text = f"thost={monitor.thost} tsw={monitor.tsw}" if monitor is not None else ""
        self.key_ring = key_ring
        # neighbor -> (this domain's gateway toward it, its gateway toward
        # this domain), and egress gateway -> the neighbor it leads to
        self._gateways = {
            neighbor: (gateway_name(self.as_id, neighbor), gateway_name(neighbor, self.as_id)) for neighbor in key_ring
        }
        self._gateway_peers = {egress: neighbor for neighbor, (egress, _) in self._gateways.items()}
        self.user_bindings = spec.users  # MACs normalized by the scenario parser
        self.hosts = {host.ip: host for host in spec.hosts}
        self.enforcement_enabled = enforcement_enabled
        self.costs = costs
        self.events: list[ControllerEvent] = []
        # admitted flows per source and window, for PE rate constraints
        self._rate_counts = WindowCounts(window_ticks)
        # each switch path searched once, as the switch graph is fixed once
        # built: (ingress, egress, required path, window bounds) -> switch
        # path, or None where there is none
        self._switch_paths: dict[tuple, tuple[str, ...] | None] = {}

    # --- context -------------------------------------------------------------

    def domain_for_ip(self, ip: int) -> str | None:
        """The one domain, this or a known one, whose subnet contains ``ip``,
        as the world's domain table finds it."""
        as_id = self.domains.domain_for_ip(ip)
        if as_id is None or as_id == self.as_id or self.domains.knows(self.as_id, as_id):
            return as_id
        return None

    def build_context(self, packet: Packet, handle: Handle | None, tick: int) -> FlowContext:
        """The flow's context.  A domain it names is the world graph's record
        if this domain knows it, else known by id only; the table is asked
        about each foreign domain once, and never about this one."""
        domain = self.domains.graph.node
        if handle is not None:
            origin = handle.visited[0]
            known = origin == self.as_id or self.domains.knows(self.as_id, origin)
            src_as = domain(origin) if known else DomainInfo(origin)
            traversed = handle.visited
        else:
            src_as = domain(self.domain_for_ip(packet.src_ip) or self.as_id)
            traversed = ()
        dst_domain = self.domain_for_ip(packet.dst_ip)
        return FlowContext(
            packet=packet,
            src_as=src_as,
            dst_as=domain(dst_domain) if dst_domain else DomainInfo(""),
            timestamp=tick,
            user=self.user_bindings.get(packet.src_mac),
            traversed_path=traversed,
        )

    # --- pipeline --------------------------------------------------------------

    def _rate_admits(
        self, src: int, delegated: tuple[Constraint, ...], rates: tuple[Fraction, ...], tick: int
    ) -> bool:
        """Per-source admission against the tightest budget among the
        token's RATE_THRESHOLD constraints (``delegated``) and the winner's
        own ``rates``: a window admits the budget's whole part of flows."""
        budget = min(rates) if rates else None
        for c in delegated:
            if c.kind is ConstraintKind.RATE_THRESHOLD and (budget is None or c.rate < budget):
                budget = c.rate
        if budget is None:
            return True
        if self._rate_counts.get(src, tick) + 1 > budget:
            return False
        self._rate_counts.add(src, tick)
        return True

    def handle_packet_in(
        self,
        packet: Packet,
        ingress: str,
        entry_peer: str,
        tick: int,
        handle: Handle | None = None,
        *,
        defense: bool = True,
    ) -> PipelineResult:
        """Admit or drop one table-miss packet; see the module docstring.

        ``entry_peer`` is the node the packet reached ``ingress`` from: a
        host, or the previous domain's gateway switch.  The return rule on
        ``ingress`` forwards to it.
        """
        ticks = self.costs.base
        flow_id = packet.flow_id
        summary = f"{packet.src_text}->{packet.dst_text}:{packet.service_port}/{packet.packet_type} via {ingress}"
        matched: str | None = None

        def drop(reason: str, detail: str = summary, block: tuple = (), provenance: str = "") -> PipelineResult:
            self.events.append(ControllerEvent(tick, flow_id, detail, "drop", reason, matched, 0, ticks))
            return PipelineResult(ticks, block, provenance, reason)

        if self.enforcement_enabled and defense and self.monitor is not None:
            ticks += self.costs.defense
            offender = packet.src_ip
            newly_blocked = offender not in self.monitor.blocked
            response = self.monitor.record_and_check(offender, ingress, tick)
            if response is not ResponseMode.NONE:
                detail = (
                    f"{summary} [defense offender={packet.src_text}"
                    f" window_count={self.monitor.requests.get(offender, tick)}"
                    f" {self._thresholds_text}]"
                )
                if response is ResponseMode.THROTTLE:
                    return drop(DropReason.DEFENSE_THROTTLED, detail)
                if not newly_blocked:
                    return drop(DropReason.DEFENSE_BLOCKED, detail)
                block = ((ingress, FlowRule(FlowMatch(BLOCK_RULE_PRIORITY, offender), ActionKind.DROP)),)
                return drop(DropReason.DEFENSE_BLOCKED, detail, block, f"{BLOCK_PROVENANCE_PREFIX}{packet.src_text}")

        # credentials: a handle comes through the gateway of the domain it
        # last visited, a neighbor, and it and its token verify
        verified_ptt: PolicyTransferToken | None = None
        if self.enforcement_enabled and handle is not None:
            ptt, last = handle.ptt, handle.visited[-1]
            failed = (
                "entry" if last not in self._gateways or entry_peer != self._gateways[last][1]
                else "handle-tag" if not validate_handle(handle, flow_id, self.key_ring)
                else "token-tag" if ptt is not None and not verify_ptt(ptt, flow_id, self.key_ring[last])
                else None
            )
            if failed is not None:
                return drop(DropReason.HANDLE_INVALID, f"{summary} [credentials check={failed}]")
            verified_ptt = ptt

        ctx = self.build_context(packet, handle, tick)
        winner: PolicyExpression | None = BASELINE
        if self.enforcement_enabled:
            ticks += self.costs.per_pe * len(self.policy_repo)
            winner = select_policy(self.policy_repo, ctx)
        if winner is None:  # default deny
            return drop(DropReason.POLICY)
        matched = winner.id
        # an allow whose own label constraints admit no label denies too
        if winner.action is Action.DENY or winner.label_window.empty:
            return drop(DropReason.POLICY)

        window, delegated = merge_constraints(winner.label_window, verified_ptt)
        if window.empty:
            return drop(DropReason.UNSATISFIABLE)
        if not predicates_hold(delegated, ctx):
            return drop(DropReason.POLICY)
        if not self._rate_admits(packet.src_ip, delegated, winner.rates, tick):
            return drop(DropReason.RATE_LIMIT)

        dst_domain = ctx.dst_as.as_id  # "" when no domain advertises the address
        if not dst_domain or (dst_domain == self.as_id and packet.dst_ip not in self.hosts):
            return drop(DropReason.NO_ROUTE)
        next_as: str | None = None
        if dst_domain == self.as_id:
            host = self.hosts[packet.dst_ip]
            final_switch, final_peer = host.switch, host.id
        else:
            if winner.action_exit is None:
                route = self.domains.route(self.as_id, dst_domain, window)
                next_as = route[1] if route else None
            else:
                # hard egress pin: the action's exit switch decides the next
                # domain; a pinned transit domain must still satisfy the
                # merged label window
                next_as = self._gateway_peers.get(winner.action_exit)
                if next_as not in (None, dst_domain) and not window.satisfies(self.domains.graph.node(next_as).label):
                    next_as = None
            if next_as is None or (handle is not None and next_as in handle.visited):
                return drop(DropReason.NO_SATISFYING_PATH)
            final_switch, final_peer = self._gateways[next_as]

        # the modelled search cost is charged whether or not the memo holds it
        ticks += self.costs.per_switch * len(self.intra)
        route = (ingress, final_switch, winner.switch_path, window.lo, window.hi)
        path = self._switch_paths.get(route, _UNSEARCHED)
        if path is _UNSEARCHED:
            path = self._switch_paths[route] = find_switch_path(
                self.intra, ingress, final_switch, required=winner.switch_path, constraint=window
            )
        if path is None:
            return drop(DropReason.NO_SATISFYING_PATH)

        # the credential for the next domain; tagging charges no ticks
        handle_out: Handle | None = None
        if next_as is not None:
            ptt_out = forward_ptt(verified_ptt, flow_id, winner.flow_cons, self.handle_key)
            handle_out = extend_handle(handle, flow_id, self.as_id, ptt_out, self.handle_key)

        installs = synthesize_rules(
            path,
            packet,
            final_peer=final_peer,
            entry_peer=entry_peer,
            sec_profile=winner.sec_profile or _NO_PROFILE,
            handle_out=handle_out,
        )
        ticks += self.costs.per_rule * len(installs)

        reason = f"allowed by {matched}" if self.enforcement_enabled else ""
        self.events.append(ControllerEvent(tick, flow_id, summary, "install", reason, matched, len(installs), ticks))
        return PipelineResult(ticks, installs, matched)
