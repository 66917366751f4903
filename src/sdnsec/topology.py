"""Topology discovery by TTL probing and label-constrained path search.

A domain's probes walk the domain graph with increasing TTL; a probe whose
TTL expires at a domain is answered by that domain, and the answers are the
foreign domains within the probe horizon, each with its hop count.  One
:class:`Graph` class models both levels: the world's domain graph, whose
nodes each carry the domain's :class:`~sdnsec.policy.DomainInfo`, and a
domain's own switch graph, whose nodes each carry the switch's security
label.  The world's :class:`DomainTable` holds the domain graph with what
every controller reads of it: each domain's subnet, filed once per world,
each domain route, and whether a controller's probes reach a domain, which
it answers from that domain's own probe, made once per world.  A controller
reads a known domain's identity, label and addressing from that graph, so a
domain's attributes live in one place.  Path search runs over the domain
graph, which is the union of every domain's hop-1 answers, or over a switch
graph, filtering every element through a label constraint.  Both levels
share one breadth-first search, linear in the size of the graph, that
checks each label at most once and never enumerates alternative paths.  It
runs from the destination and stops at the source's level, where it works
out the source's key alone.  The search can be kept
and resumed: the table keeps one per (destination, label window), which
every source toward that destination extends only as far as it needs, so
each domain's label is asked at most once per (destination, window) for all
controllers.  Of the shortest satisfying paths it returns the least by
(hand-off bits, names), where a hop to a less trusted switch sets a
hand-off bit; domain routes have no hand-off bits.  A search that finds no
satisfying path answers ``[]`` for a domain route and ``None`` for a switch
path, never an exception.
"""

from __future__ import annotations

from .labels import LabelWindow
from .policy import subnet_bits

__all__ = [
    "DomainTable",
    "Graph",
    "find_as_paths",
    "find_switch_path",
    "gateway_name",
    "probe_topology",
]


def _as_number(as_id: str) -> str:
    return as_id[2:] if as_id.startswith("AS") else as_id


def gateway_name(owner_as: str, peer_as: str) -> str:
    """Edge-switch naming convention: the gateway that connects domain a
    toward domain b is ``aSWb``."""
    return f"{_as_number(owner_as)}SW{_as_number(peer_as)}"


class Graph:
    """Undirected adjacency whose nodes each carry one record: a domain's
    :class:`~sdnsec.policy.DomainInfo` in the world graph, a switch's
    :class:`~sdnsec.labels.SecurityLabel` in a domain's switch graph."""

    def __init__(self) -> None:
        self._records: dict[str, object] = {}
        self._adjacency: dict[str, tuple[str, ...]] = {}  # sorted

    def add_node(self, name: str, record) -> None:
        if name in self._records:
            raise ValueError(f"duplicate node {name}")
        self._records[name] = record
        self._adjacency[name] = ()

    def add_link(self, a: str, b: str) -> None:
        for end in (a, b):
            if end not in self._records:
                raise KeyError(f"unknown node {end}")
        self._adjacency[a] = tuple(sorted({*self._adjacency[a], b}))
        self._adjacency[b] = tuple(sorted({*self._adjacency[b], a}))

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __len__(self) -> int:
        return len(self._records)

    def nodes(self) -> list[str]:
        return sorted(self._records)

    def node(self, name: str):
        return self._records[name]

    def neighbors(self, name: str) -> tuple[str, ...]:
        return self._adjacency[name]

    def adjacent(self, a: str, b: str) -> bool:
        return b in self._adjacency.get(a, ())


def probe_topology(world: Graph, owner_as: str, max_ttl: int) -> dict[str, int]:
    """What ``owner_as``'s probes find: each foreign domain within
    ``max_ttl`` hops of it, mapped to its hop count, in id order.

    Simulates probes at TTL 1..max_ttl, one breadth-first level each: a
    domain at shortest-path distance d answers the TTL-d probe, so hop
    counts come out as breadth-first distances, and domains beyond the
    horizon or unreachable are simply absent.  The answer is a
    new dict each time, so re-probing is idempotent.
    """
    if max_ttl < 1:
        raise ValueError("max_ttl must be >= 1")
    distances: dict[str, int] = {owner_as: 0}
    frontier = [owner_as]
    for ttl in range(1, max_ttl + 1):
        next_frontier: list[str] = []
        for node in frontier:
            for neighbor in world.neighbors(node):
                if neighbor not in distances:
                    distances[neighbor] = ttl
                    next_frontier.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    del distances[owner_as]
    return dict(sorted(distances.items()))


# the key under which a search state keeps its last settled level
_FRONTIER = None


def _least_shortest_path(
    neighbors, src: str, dst: str, accepts, handoff=None, state: dict | None = None
) -> tuple[str, ...] | None:
    """The least shortest path src..dst whose transit nodes pass ``accepts``
    (asked at most once per node, never of ``dst``, nor in a fresh search of
    ``src``), or None.

    Paths compare by the bits ``handoff(a, b)`` gives each hop a->b, then by
    names.  The search from ``dst`` keeps each node's least shortest suffix
    toward ``dst``; that is exact because two shortest paths through one
    node compare the way their suffixes from it do.  It settles one level
    at a time until a neighbour of the source is settled, and then works
    out the source's key alone, from those of its neighbours settled
    nearest to ``dst``: the other nodes of the source's level are never
    read, nor asked of ``accepts``.

    ``state`` keeps the search between calls for one ``dst``, ``accepts``
    and ``handoff``: pass the same dict, empty at first, and each call
    resumes where the last stopped, so a node is asked at most once for all
    sources.  A suffix does not depend on the source, so the answer is the
    one a fresh search gives.
    """
    # node -> (hand-off bits, names) of its least suffix to dst, or None for
    # a refused node; _FRONTIER -> the last level settled
    if state is None:
        state = {}
    if not state:
        state[dst] = ((), (dst,))
        state[_FRONTIER] = (dst,)

    def key(node: str, via: str) -> tuple[tuple, tuple[str, ...]]:
        bits, names = state[via]
        return ((handoff(node, via), *bits) if handoff else bits, (node, *names))

    while True:
        ends = [node for node in neighbors(src) if state.get(node)]
        if ends:
            return min((len(state[node][1]), key(src, node)) for node in ends)[1][1]
        frontier = state[_FRONTIER]
        if not frontier:
            return None
        level: dict[str, tuple[tuple, tuple[str, ...]]] = {}
        for node in frontier:
            for neighbor in neighbors(node):
                if neighbor in state:
                    continue
                if neighbor not in level and not accepts(neighbor):
                    state[neighbor] = None
                    continue
                offer = key(neighbor, node)
                if neighbor not in level or offer < level[neighbor]:
                    level[neighbor] = offer
        state.update(level)
        state[_FRONTIER] = tuple(level)


def find_as_paths(
    graph: Graph,
    src_as: str,
    dst_as: str,
    constraint: LabelWindow = LabelWindow(),
    state: dict | None = None,
) -> list[tuple[str, ...]]:
    """The domain route src..dst in ``graph`` whose transit domains satisfy
    the constraint: ``[route]``, or ``[]`` when there is none.

    The route is the shortest such path, ties broken by domain ids in string
    order, so it is the first of all satisfying simple paths ordered by
    (length, lexicographic).  It is the search ``find_switch_path`` runs,
    without hand-off bits: O(domains + links), each label checked once.

    ``graph`` is the world's domain graph, the union of what every
    controller's probes find at hop 1.  Endpoints are not filtered: the
    constraint governs the domains a flow passes through, not where it
    starts or ends.  ``state`` is a search toward ``dst_as`` under
    ``constraint`` kept between calls, as :class:`DomainTable` keeps one;
    without it the search starts afresh.
    """
    if src_as == dst_as:
        raise ValueError("source and destination domain must differ")
    if src_as not in graph or dst_as not in graph:
        return []
    route = _least_shortest_path(
        graph.neighbors, src_as, dst_as, lambda as_id: constraint.satisfies(graph.node(as_id).label), state=state
    )
    return [route] if route else []


class DomainTable:
    """The world's domain graph with what every controller reads of it:
    each domain's subnet, each domain route and which domains each
    controller's probes reach, worked out once per world.

    The subnets are filed by mask, so finding an address's domain costs one
    dict probe per distinct mask; the subnets are disjoint, so at most one
    probe hits.  A route is searched once per (source, destination, label
    window), and every source toward one (destination, window) resumes one
    search, so each label is asked at most once per (destination, window)
    and the destination's never.  A window is keyed by its two bounds,
    which hash without running Python code.  Hop distance is symmetric, so
    a domain is within a controller's horizon exactly when the controller's
    domain is within the domain's: the table probes a domain the first time
    anyone asks about it and keeps the answer, so a world probes each domain
    at most once, and only the domains its flows name.
    """

    def __init__(self, graph: Graph, max_ttl: int) -> None:
        if max_ttl < 1:
            raise ValueError("max_ttl must be >= 1")
        self.graph = graph
        self._max_ttl = max_ttl
        # domain -> the domains its probes reach, probed on the first ask
        self._horizons: dict[str, dict[str, int]] = {}
        # (mask, network -> domain) per distinct mask
        by_mask: dict[int, dict[int, str]] = {}
        for as_id in graph.nodes():
            network, mask = subnet_bits(graph.node(as_id).subnet)
            by_mask.setdefault(mask, {})[network] = as_id
        self._subnets = tuple(by_mask.items())
        # (source, destination, window bounds) -> route, or None where there
        # is none; (destination, window bounds) -> search state
        self._routes: dict[tuple, tuple[str, ...] | None] = {}
        self._searches: dict[tuple, dict] = {}

    def domain_for_ip(self, ip: int) -> str | None:
        """The one domain whose subnet contains ``ip``, or None."""
        for mask, networks in self._subnets:
            as_id = networks.get(ip & mask)
            if as_id is not None:
                return as_id
        return None

    def route(self, src_as: str, dst_as: str, window: LabelWindow) -> tuple[str, ...] | None:
        """The first route of ``find_as_paths(graph, src_as, dst_as,
        window)``, or None where there is none."""
        key = (src_as, dst_as, window.lo, window.hi)
        if key not in self._routes:
            paths = find_as_paths(self.graph, src_as, dst_as, window, self._searches.setdefault(key[1:], {}))
            self._routes[key] = paths[0] if paths else None
        return self._routes[key]

    def knows(self, owner: str, as_id: str) -> bool:
        """Whether ``as_id``, a domain of the world, is a foreign domain
        within ``owner``'s probe horizon: one ``probe_topology(graph, owner,
        max_ttl)`` lists."""
        horizon = self._horizons.get(as_id)
        if horizon is None:
            horizon = self._horizons[as_id] = probe_topology(self.graph, as_id, self._max_ttl)
        return owner in horizon


def find_switch_path(
    graph: Graph,
    ingress: str,
    egress: str,
    required: tuple[str, ...] | None = None,
    constraint: LabelWindow = LabelWindow(),
) -> tuple[str, ...] | None:
    """Resolve the switch path a flow must take inside one domain, or
    ``None`` when no path satisfies the constraint; callers map that to a
    deny.

    With ``required``, the explicit path is validated (it is not empty, its
    hops exist, are adjacent, span ingress to egress, and every switch
    satisfies the constraint) and returned verbatim.  Otherwise the shortest path whose
    switches, ends included, satisfy the constraint wins.  Among equals the
    least tuple of hand-off bits wins, one bit per hop, set when it hands off
    to a less trusted switch (the rule is nondecreasing labels; earlier hops
    dominate), then the lexicographically smallest.  It is the search
    ``find_as_paths`` runs, so each label is checked at most once.
    """
    if ingress not in graph or egress not in graph:
        return None
    satisfies = lambda switch: constraint.satisfies(graph.node(switch))
    if required is not None:
        valid = (
            required
            and all(switch in graph and satisfies(switch) for switch in required)
            and required[0] == ingress
            and required[-1] == egress
            and all(graph.adjacent(a, b) for a, b in zip(required, required[1:]))
        )
        return tuple(required) if valid else None
    if not (satisfies(ingress) and satisfies(egress)):
        return None
    if ingress == egress:
        return (ingress,)
    return _least_shortest_path(
        graph.neighbors, ingress, egress, satisfies, lambda a, b: graph.node(a).rank > graph.node(b).rank
    )
