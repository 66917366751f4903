"""Seeded scenario documents for the host-time benchmark.

Each generator turns a seed into one scenario document (plain JSON data, no
``seed`` field) plus an :class:`Expectation` that states, per offered flow,
which outcomes are correct.  The expectations are derived here from the
generator's own knowledge of the world (which pairs it permitted, which
domains it labelled SL1, a textbook BFS over the domain graph), not from the
simulator, so they stay valid when the simulator's internals are replaced.

Flow records are numbered in traffic order, with a flood entry expanding in
place into ``rate * seconds`` records; the expectations follow that order.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

TICKS_PER_SECOND = 1_000_000


@dataclass
class Expectation:
    """Allowed outcomes per flow record, in offer order.

    ``outcomes[i]`` is a set of ``"delivered"`` or drop reasons (``"POLICY"``,
    ``"STALLED"``, ...).  ``switch_paths[i]``, when present, is a predicate
    over the switches a delivered flow traversed.
    """

    outcomes: list[frozenset[str]] = field(default_factory=list)
    switch_paths: dict[int, object] = field(default_factory=dict)

    def add(self, count: int, *allowed: str) -> None:
        self.outcomes.extend([frozenset(allowed)] * count)

    def violations(self, flows) -> list[str]:
        """Human-readable mismatches between a report's flows and this
        expectation; empty when every flow ended in an allowed outcome."""
        problems: list[str] = []
        if len(flows) != len(self.outcomes):
            return [f"expected {len(self.outcomes)} flow records, got {len(flows)}"]
        for index, (flow, allowed) in enumerate(zip(flows, self.outcomes)):
            got = "delivered" if flow.outcome == "delivered" else flow.reason
            if got not in allowed:
                problems.append(f"flow {index} {flow.flow_id}: {got} not in {sorted(allowed)}")
            check = self.switch_paths.get(index)
            if check is not None and flow.outcome == "delivered" and not check(tuple(flow.switch_path)):
                problems.append(f"flow {index} {flow.flow_id}: unexpected switch path {flow.switch_path}")
            if len(problems) >= 10:
                break
        return problems


def _mac(prefix: int, index: int) -> str:
    return f"02:00:00:{prefix:02x}:{index // 256:02x}:{index % 256:02x}"


def _host(host_id: str, ip: str, mac: str, switch: str) -> dict:
    return {"id": host_id, "ip": ip, "mac": mac, "switch": switch}


def _compact(pe_id: str, src_ip="*", dst_ip="*", flow_cons="*", services="*", action="Allow") -> str:
    return f"{pe_id} = <*, *, *, {src_ip}, {dst_ip}, *, *, *, {flow_cons}, *, {services}, *, *>:<{action}>"


# --- flood_table ---------------------------------------------------------------
#
# One domain, three switches in a row.  Two attackers behind S1 flood a server
# behind S3 with distinct-port SYNs; defense is off (the paper's baseline
# curve).  The controller's base cost is set above the flood's inter-arrival
# time, so packet-ins queue.  A legitimate client behind S1 opens a few
# connections during the flood and re-sends each SYN with exponential backoff
# while its first packet-in waits in that queue.  Every flood flow misses,
# installs six exact rules and then hits them on all three switches, so each
# switch's table grows by two rules per flow: the flow table is written and
# scanned far more than any other layer is used.
#
# A retry that misses overwrites the switch's one-per-flow buffer and raises a
# second packet-in whose result finds the buffer already drained, so the retry
# is never re-offered and ends STALLED.  That is a known defect of the
# simulator; the benchmark reports it as measured rather than avoiding it.

FLOOD_RATE_PER_ATTACKER = 400  # new flows per second, each
FLOOD_SECONDS = 1
FLOOD_BASE_COST = 2_000  # controller ticks per packet-in, 2.5x the inter-arrival time
LEGIT_CONNECTIONS = 24
RETRY_BACKOFF = (100_000, 200_000, 400_000, 800_000)  # ticks after the first SYN


def flood_table(seed: int) -> tuple[dict, Expectation]:
    rng = random.Random(f"flood_table:{seed}")
    third = rng.randrange(1, 200)
    subnet = f"10.{third}.0.0/24"

    def ip(last: int) -> str:
        return f"10.{third}.0.{last}"

    attacker_ips = rng.sample(range(100, 200), 2)
    legit_ip, server_ip = rng.sample(range(2, 100), 2)
    hosts = [
        _host("attacker1", ip(attacker_ips[0]), _mac(1, 1), "S1"),
        _host("attacker2", ip(attacker_ips[1]), _mac(1, 2), "S1"),
        _host("legit", ip(legit_ip), _mac(1, 3), "S1"),
        _host("server", ip(server_ip), _mac(1, 4), "S3"),
    ]
    policies = [
        _compact("m1", src_ip=ip(attacker_ips[0])),
        _compact("m2", src_ip=ip(attacker_ips[1])),
        _compact("g1", src_ip=ip(legit_ip), services="(8000-8999)"),
    ]
    expect = Expectation()
    traffic: list[dict] = []
    for index, name in enumerate(("attacker1", "attacker2")):
        traffic.append(
            {
                "kind": "flood",
                "at": rng.randrange(0, 1_000),
                "from": name,
                "to": ip(server_ip),
                "rate": FLOOD_RATE_PER_ATTACKER,
                "seconds": FLOOD_SECONDS,
                "type": "SYN",
                "port_base": 10_000 + 20_000 * index + rng.randrange(0, 5_000),
            }
        )
        expect.add(FLOOD_RATE_PER_ATTACKER * FLOOD_SECONDS, "delivered")
    # connections open at evenly spaced times (with jitter) so that every
    # seed meets the same backlog and stalls about as many retries
    spacing = FLOOD_SECONDS * TICKS_PER_SECOND // LEGIT_CONNECTIONS
    ports = rng.sample(range(8000, 9000), LEGIT_CONNECTIONS)
    for index, port in enumerate(ports):
        start = index * spacing + rng.randrange(spacing)
        # source ports are not modelled, so each connection gets its own
        # service port and every retry repeats its 5-tuple exactly
        syn = {"from": "legit", "to": "server", "port": port, "type": "SYN"}
        traffic.append({"at": start, **syn})
        expect.add(1, "delivered")
        for backoff in RETRY_BACKOFF:
            traffic.append({"at": start + backoff, **syn})
            expect.add(1, "delivered", "STALLED")
    document = {
        "name": "flood_table",
        "mode": "reactive",
        "enforcement": True,
        "table_capacity": 8192,
        "costs": {"base": FLOOD_BASE_COST, "defense": 5, "per_pe": 2, "per_switch": 2, "per_rule": 1},
        "capacity": {"controller_rps": 400, "switches_per_controller": 3, "hosts_per_switch": 3},
        "defense": {"response": "none"},
        "domains": [
            {
                "id": "AS1",
                "subnet": subnet,
                "type": "EDU",
                "label": "SL2",
                "handle_key": f"flood-key-{rng.getrandbits(32):08x}",
                "switches": [{"id": s, "label": "SL2"} for s in ("S1", "S2", "S3")],
                "links": [["S1", "S2"], ["S2", "S3"]],
                "hosts": hosts,
                "policies": policies,
            }
        ],
        "links": [],
        "traffic": traffic,
    }
    return document, expect


# --- acl_proactive -----------------------------------------------------------
#
# One domain with a 16-switch leaf-spine fabric (4 spines and 12 leaves, half
# of each SL3) and 64 hosts.  The repository is written in the compact
# format: one allow per permitted (host pair, service), some of them carrying
# an ``SL3+=`` path constraint, plus allow and deny filler that names
# addresses outside the domain and so never matches.  Proactive mode decides
# every host-pair flow up front through the full pipeline, which makes policy
# selection over the large repository the dominant cost; the event loop then
# reads the large pre-installed tables.  One host port-scans another at a
# high rate under the throttle defense, which exercises the flood monitor and
# table misses.  Some offered pairs are not permitted and are denied by the
# default-deny rule.

ACL_SPINES = 4
ACL_LEAVES = 12
ACL_HOSTS = 64
ACL_PERMITS = 250
ACL_FILLER = 1_450
ACL_FLOWS = 400
ACL_DENIED_SHARE = 0.1
ACL_SERVICES = (22, 80, 443, 3306, 5432, 8080)
ACL_SCAN_RATE = 1_000
ACL_SCAN_SECONDS = 1


def acl_proactive(seed: int) -> tuple[dict, Expectation]:
    rng = random.Random(f"acl_proactive:{seed}")
    second = rng.randrange(16, 32)
    subnet = f"172.{second}.0.0/16"

    def ip(index: int) -> str:
        return f"172.{second}.{index // 200}.{index % 200 + 10}"

    spines = [f"SP{i}" for i in range(ACL_SPINES)]
    leaves = [f"LF{i:02d}" for i in range(ACL_LEAVES)]
    # half of the spines and half of the leaves are SL3, placed by seed, so
    # an SL3 path exists between any two SL3 leaves and every seed has as
    # many label-constrained pairs
    labels: dict[str, str] = {}
    for group in (spines, leaves):
        marks = ["SL2", "SL3"] * (len(group) // 2)
        rng.shuffle(marks)
        labels.update(zip(group, marks))
    switches = [{"id": name, "label": labels[name]} for name in spines + leaves]
    links = [[leaf, spine] for leaf in leaves for spine in spines]
    host_leaf = [leaves[i % ACL_LEAVES] for i in range(ACL_HOSTS)]
    rng.shuffle(host_leaf)
    hosts = [_host(f"h{i:02d}", ip(i), _mac(2, i), host_leaf[i]) for i in range(ACL_HOSTS)]
    scanner, target = 0, 1

    permits: dict[tuple[int, int, int], bool] = {}  # (src, dst, port) -> constrained
    while len(permits) < ACL_PERMITS:
        src, dst = rng.sample(range(2, ACL_HOSTS), 2)
        port = rng.choice(ACL_SERVICES)
        both_sl3 = labels[host_leaf[src]] == labels[host_leaf[dst]] == "SL3"
        permits[(src, dst, port)] = both_sl3 and rng.random() < 0.5
    policies: list[str] = []
    for index, ((src, dst, port), constrained) in enumerate(permits.items()):
        policies.append(
            _compact(
                f"p{index:04d}",
                src_ip=ip(src),
                dst_ip=ip(dst),
                flow_cons="SL3+=" if constrained else "*",
                services=f"({port})",
            )
        )
    outside = f"172.{second + 100}"
    for index in range(ACL_FILLER):
        policies.append(
            _compact(
                f"f{index:04d}",
                src_ip=f"{outside}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                dst_ip=ip(rng.randrange(ACL_HOSTS)),
                services=f"({rng.choice(ACL_SERVICES)})",
                action=rng.choice(("Allow", "Deny")),
            )
        )
    rng.shuffle(policies)

    offered: list[tuple[int, int, int, int, frozenset[str]]] = []
    permitted = list(permits)
    denied = set(rng.sample(range(ACL_FLOWS), round(ACL_FLOWS * ACL_DENIED_SHARE)))
    for index in range(ACL_FLOWS):
        at = rng.randrange(0, 2 * TICKS_PER_SECOND)
        if index in denied:
            while True:
                src, dst = rng.sample(range(2, ACL_HOSTS), 2)
                port = rng.choice(ACL_SERVICES)
                if (src, dst, port) not in permits:
                    break
            # the symmetric return rules of a permitted reverse pair carry
            # this 5-tuple without a policy decision
            allowed = {"POLICY", "delivered"} if (dst, src, port) in permits else {"POLICY"}
        else:
            src, dst, port = rng.choice(permitted)  # repeats allowed
            allowed = {"delivered"}
        offered.append((at, src, dst, port, frozenset(allowed)))
    offered.sort(key=lambda flow: flow[0])
    expect = Expectation()
    traffic: list[dict] = []
    for at, src, dst, port, allowed in offered:
        traffic.append({"at": at, "from": f"h{src:02d}", "to": f"h{dst:02d}", "port": port, "type": "TCP"})
        expect.add(1, *allowed)
    traffic.append(
        {
            "kind": "flood",
            "at": rng.randrange(0, TICKS_PER_SECOND),
            "from": f"h{scanner:02d}",
            "to": ip(target),
            "rate": ACL_SCAN_RATE,
            "seconds": ACL_SCAN_SECONDS,
            "type": "SYN",
            "port_base": 1,
        }
    )
    expect.add(ACL_SCAN_RATE * ACL_SCAN_SECONDS, "DEFENSE_THROTTLED", "POLICY")
    document = {
        "name": "acl_proactive",
        "mode": "proactive",
        "enforcement": True,
        "table_capacity": 16384,
        "capacity": {"controller_rps": 960, "switches_per_controller": ACL_SPINES + ACL_LEAVES, "hosts_per_switch": 6},
        "defense": {"response": "throttle"},
        "domains": [
            {
                "id": "AS1",
                "subnet": subnet,
                "type": "COM",
                "label": "SL3",
                "handle_key": f"acl-key-{rng.getrandbits(32):08x}",
                "switches": switches,
                "links": links,
                "hosts": hosts,
                "policies": policies,
            }
        ],
        "links": [],
        "traffic": traffic,
    }
    return document, expect


# --- mesh_transit --------------------------------------------------------------
#
# Twelve domains on a circulant graph: each domain is linked to the two
# nearest domains on each side, so there are many simple paths between any
# two domains and enumerating them dominates.  With three neighbors on each
# side one path search takes about 0.1 s on a 2-vCPU VM, which would make a
# single repetition last tens of seconds.  Each domain's fabric is small: one
# core switch, one gateway per neighbor and two edge switches with a host each.
#
# Two opposite domains are labelled SL1.  Host ``b`` of every other domain
# originates flows under an ``SL2+=`` flow constraint, which is delegated
# downstream in the transfer token, so transit domains must route around the
# SL1 domains.  Every domain allows everything else, so every flow is
# delivered; an independent BFS gives the expected number of domains crossed.
#
# The traffic offers every ordered domain pair once from host ``a`` and every
# pair of non-SL1 domains once from host ``b``, in seeded order, so each seed
# asks for the same amount of path search.  Then a few flows are repeated
# (they ride the rules installed the first time) and a few are answered from
# the other end with the reverse 5-tuple (they ride the first flow's
# symmetric return rules and reach no controller).

MESH_DOMAINS = 12
MESH_OFFSETS = (1, 2)
MESH_REPEATS = 12
MESH_REPLIES = 12
MESH_GAP = 2_000  # ticks between flow starts


def _circulant(count: int) -> dict[int, set[int]]:
    adjacency: dict[int, set[int]] = {i: set() for i in range(1, count + 1)}
    for i in range(1, count + 1):
        for offset in MESH_OFFSETS:
            j = (i - 1 + offset) % count + 1
            adjacency[i].add(j)
            adjacency[j].add(i)
    return adjacency


def _bfs_hops(adjacency: dict[int, set[int]], src: int, dst: int, allowed_transit) -> int:
    seen = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for peer in adjacency[node]:
            if peer in seen:
                continue
            seen[peer] = seen[node] + 1
            if peer == dst:
                return seen[peer]
            if allowed_transit(peer):
                queue.append(peer)
    raise ValueError(f"no path AS{src}..AS{dst}")


def mesh_transit(seed: int) -> tuple[dict, Expectation]:
    rng = random.Random(f"mesh_transit:{seed}")
    adjacency = _circulant(MESH_DOMAINS)
    # the two SL1 domains sit opposite each other, so every seed poses the
    # same detour problem up to rotation
    first = rng.randrange(1, MESH_DOMAINS + 1)
    low = {first, (first - 1 + MESH_DOMAINS // 2) % MESH_DOMAINS + 1}
    rank = {i: 1 if i in low else rng.randrange(2, 5) for i in adjacency}
    domains = []
    for i in range(1, MESH_DOMAINS + 1):
        label = f"SL{rank[i]}"
        core = f"C{i}"
        gateways = [f"{i}SW{j}" for j in sorted(adjacency[i])]
        edges = [f"E{i}a", f"E{i}b"]
        names = [core] + gateways + edges
        hosts = [
            _host(f"H{i}a", f"10.{i}.0.10", _mac(3, 2 * i), edges[0]),
            _host(f"H{i}b", f"10.{i}.0.11", _mac(3, 2 * i + 1), edges[1]),
        ]
        policies = [_compact(f"all{i}")]
        if i not in low:
            policies.append(_compact(f"sec{i}", src_ip=f"10.{i}.0.11", flow_cons="SL2+="))
        domains.append(
            {
                "id": f"AS{i}",
                "subnet": f"10.{i}.0.0/24",
                "type": rng.choice(("EDU", "COM", "GOV")),
                "label": label,
                "handle_key": f"mesh-as{i}-{rng.getrandbits(32):08x}",
                "switches": [{"id": name, "label": label} for name in names],
                "links": [[core, name] for name in gateways + edges],
                "hosts": hosts,
                "policies": policies,
            }
        )
    links = [[f"AS{i}", f"AS{j}"] for i in adjacency for j in sorted(adjacency[i]) if i < j]

    # unconstrained flows go a -> b on ports 80/443 and constrained ones
    # b -> a on 8443/9443, so no flow of the first pass is another's reverse
    flows = [(f"H{i}a", f"H{j}b", rng.choice((80, 443))) for i in adjacency for j in adjacency if i != j]
    flows += [
        (f"H{i}b", f"H{j}a", rng.choice((8443, 9443)))
        for i in adjacency
        for j in adjacency
        if i != j and i not in low and j not in low
    ]
    rng.shuffle(flows)
    flows += rng.sample(flows, MESH_REPEATS)
    flows += [(dst, src, port) for src, dst, port in rng.sample(flows, MESH_REPLIES)]
    flows = [(index * MESH_GAP + rng.randrange(MESH_GAP), *flow) for index, flow in enumerate(flows)]
    tuples = {(host, dst, port) for _, host, dst, port in flows}
    expect = Expectation()
    traffic: list[dict] = []
    for index, (at, host, dst_host, port) in enumerate(flows):
        src, dst = int(host[1:-1]), int(dst_host[1:-1])
        constrained = host.endswith("b") and src not in low
        allowed = (lambda d: d not in low) if constrained else (lambda d: True)
        # a flow whose reverse 5-tuple is also offered may ride that flow's
        # symmetric return rules instead of being routed on its own
        routed = (dst_host, host, port) not in tuples
        hops = _bfs_hops(adjacency, src, dst, allowed) if routed else None
        expect.add(1, "delivered")
        expect.switch_paths[index] = _path_check(adjacency, src, dst, hops, allowed)
        traffic.append({"at": at, "from": host, "to": dst_host, "port": port, "type": "TCP"})
    document = {
        "name": "mesh_transit",
        "mode": "reactive",
        "enforcement": True,
        "max_ttl": MESH_DOMAINS,
        "domains": domains,
        "links": links,
        "traffic": traffic,
    }
    return document, expect


def _switch_domain(switch: str) -> int:
    # C<i>, E<i>a, E<i>b and the gateways <i>SW<j> all belong to domain i
    if "SW" in switch:
        return int(switch.split("SW")[0])
    return int(switch[1:].rstrip("ab"))


def _path_check(adjacency, src: int, dst: int, hops: int | None, allowed_transit):
    """Predicate over a delivered flow's switch path: the domains it crosses
    form a simple path src..dst in the domain graph and, for a routed flow,
    a shortest one whose transit domains satisfy the flow's constraint."""

    def check(switch_path: tuple[str, ...]) -> bool:
        nodes: list[int] = []
        for switch in switch_path:
            domain = _switch_domain(switch)
            if not nodes or nodes[-1] != domain:
                nodes.append(domain)
        simple = (
            nodes[:1] == [src]
            and nodes[-1:] == [dst]
            and len(set(nodes)) == len(nodes)
            and all(b in adjacency[a] for a, b in zip(nodes, nodes[1:]))
        )
        if hops is None:
            return simple
        return simple and len(nodes) == hops + 1 and all(allowed_transit(node) for node in nodes[1:-1])

    return check


WORKLOADS = {
    "flood_table": flood_table,
    "acl_proactive": acl_proactive,
    "mesh_transit": mesh_transit,
}
