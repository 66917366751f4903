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
``ControllerEvent`` naming the matched policy and the ticks charged so far;
every drop's event and result are written in one place,
``Controller._drop``, so a packet-in builds no function object of its own.

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
synthesis per rule.  The repository and the switch graph are fixed once
the world is built, so the selection and search charges are worked out
once, when the controller is built.  A controller only counts these ticks
and keeps no clock: the simulation keeps when each domain's controller is
next free.
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
domains' subnets would find.  The domain table, its horizons and the domain
graph are fixed once the world is built, so each controller keeps two
tables, each filled on the first ask: a domain's record, or None where it
is neither this domain nor a known one (``Controller.domain_record``), and
an address's domain record, read through the first.  A packet-in reads each
of its addresses, and a handle's origin, with one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dataplane import BLOCK_RULE_PRIORITY, FlowMatch, FlowRule, Packet
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

# the security profile of a rule whose policy sets none, shared by them all
_NO_PROFILE: frozenset[str] = frozenset()

# the destination domain of a flow to an address no domain advertises
_NO_DOMAIN = DomainInfo("")


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
    last = size - 1
    # the forward rules fill the first half, the return rules the second
    installs: list[tuple[str, FlowRule] | None] = [None] * (2 * size)
    for i, switch in enumerate(path):
        ahead, handle = (path[i + 1], None) if i < last else (final_peer, handle_out)
        back = path[i - 1] if i else entry_peer
        installs[i] = (switch, FlowRule(forward_match, ahead, sec_profile, handle))
        installs[size + i] = (switch, FlowRule(reverse_match, back, sec_profile))
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
        # the charges for selection and path search, fixed as the repository
        # and the switch graph are
        self._select_ticks = costs.per_pe * len(self.policy_repo)
        self._search_ticks = costs.per_switch * len(intra)
        self.events: list[ControllerEvent] = []
        # admitted flows per source and window, for PE rate constraints
        self._rate_counts = WindowCounts(window_ticks)
        # each switch path searched once, as the switch graph is fixed once
        # built: (ingress, egress, required path, window bounds) -> switch
        # path, or None where there is none
        self._switch_paths: dict[tuple, tuple[str, ...] | None] = {}
        # domain -> its record, address -> its domain's record, each None
        # where it is not this or a known domain; filled on the first ask
        self._records: dict[str, DomainInfo | None] = {}
        self._addresses: dict[int, DomainInfo | None] = {}

    # --- context -------------------------------------------------------------

    def domain_record(self, as_id: str) -> DomainInfo | None:
        """The domain graph's record of ``as_id`` if it is this domain or one
        it knows, else None; kept from the first ask, so the domain table is
        asked about each foreign domain once, and never about this one."""
        records = self._records
        if as_id not in records:
            known = as_id == self.as_id or self.domains.knows(self.as_id, as_id)
            records[as_id] = self.domains.graph.node(as_id) if known else None
        return records[as_id]

    def domain_for_ip(self, ip: int) -> DomainInfo | None:
        """The record of the one domain, this or a known one, whose subnet
        contains ``ip``, as the world's domain table finds it, or None; kept
        in the address table from the first ask."""
        as_id = self.domains.domain_for_ip(ip)
        info = self._addresses[ip] = None if as_id is None else self.domain_record(as_id)
        return info

    def build_context(self, packet: Packet, handle: Handle | None, tick: int) -> FlowContext:
        """The flow's context.  A domain it names is its record
        (:meth:`domain_record`), else known by id only; an address's domain
        is read off the address table."""
        addresses = self._addresses
        if handle is not None:
            origin = handle.visited[0]
            src_as = self.domain_record(origin) or DomainInfo(origin)
            traversed = handle.visited
        else:
            ip = packet.src_ip
            src_as = addresses[ip] if ip in addresses else self.domain_for_ip(ip)
            src_as = src_as or self.domain_record(self.as_id)
            traversed = ()
        ip = packet.dst_ip
        dst_as = addresses[ip] if ip in addresses else self.domain_for_ip(ip)
        return FlowContext(
            packet=packet,
            src_as=src_as,
            dst_as=dst_as or _NO_DOMAIN,
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

    def _drop(
        self,
        tick: int,
        flow_id: str,
        matched: str | None,
        ticks: int,
        reason: str,
        detail: str,
        block: tuple[tuple[str, FlowRule], ...] = (),
        provenance: str = "",
    ) -> PipelineResult:
        """Log a drop's event and answer its result; ``block`` is an
        offender's first defense block rule, filed under ``provenance``."""
        self.events.append(ControllerEvent(tick, flow_id, detail, "drop", reason, matched, 0, ticks))
        return PipelineResult(ticks, block, provenance, reason)

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
                    return self._drop(tick, flow_id, None, ticks, DropReason.DEFENSE_THROTTLED, detail)
                if not newly_blocked:
                    return self._drop(tick, flow_id, None, ticks, DropReason.DEFENSE_BLOCKED, detail)
                block = ((ingress, FlowRule(FlowMatch(BLOCK_RULE_PRIORITY, offender))),)
                provenance = f"{BLOCK_PROVENANCE_PREFIX}{packet.src_text}"
                return self._drop(tick, flow_id, None, ticks, DropReason.DEFENSE_BLOCKED, detail, block, provenance)

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
                detail = f"{summary} [credentials check={failed}]"
                return self._drop(tick, flow_id, None, ticks, DropReason.HANDLE_INVALID, detail)
            verified_ptt = ptt

        ctx = self.build_context(packet, handle, tick)
        winner: PolicyExpression | None = BASELINE
        if self.enforcement_enabled:
            ticks += self._select_ticks
            winner = select_policy(self.policy_repo, ctx)
        if winner is None:  # default deny
            return self._drop(tick, flow_id, None, ticks, DropReason.POLICY, summary)
        matched = winner.id
        # an allow whose own label constraints admit no label denies too
        if winner.action is Action.DENY or winner.label_window.empty:
            return self._drop(tick, flow_id, matched, ticks, DropReason.POLICY, summary)

        window, delegated = merge_constraints(winner.label_window, verified_ptt)
        if window.empty:
            return self._drop(tick, flow_id, matched, ticks, DropReason.UNSATISFIABLE, summary)
        if not predicates_hold(delegated, ctx):
            return self._drop(tick, flow_id, matched, ticks, DropReason.POLICY, summary)
        if not self._rate_admits(packet.src_ip, delegated, winner.rates, tick):
            return self._drop(tick, flow_id, matched, ticks, DropReason.RATE_LIMIT, summary)

        dst_domain = ctx.dst_as.as_id  # "" when no domain advertises the address
        if not dst_domain or (dst_domain == self.as_id and packet.dst_ip not in self.hosts):
            return self._drop(tick, flow_id, matched, ticks, DropReason.NO_ROUTE, summary)
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
                return self._drop(tick, flow_id, matched, ticks, DropReason.NO_SATISFYING_PATH, summary)
            final_switch, final_peer = self._gateways[next_as]

        # the modelled search cost is charged whether or not the memo holds it
        ticks += self._search_ticks
        route = (ingress, final_switch, winner.switch_path, window.lo, window.hi)
        path = self._switch_paths.get(route, _UNSEARCHED)
        if path is _UNSEARCHED:
            path = self._switch_paths[route] = find_switch_path(
                self.intra, ingress, final_switch, required=winner.switch_path, constraint=window
            )
        if path is None:
            return self._drop(tick, flow_id, matched, ticks, DropReason.NO_SATISFYING_PATH, summary)

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
