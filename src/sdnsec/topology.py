"""Topology discovery by TTL probing and label-constrained path search.

Each controller walks the domain graph with probes of increasing TTL; a
probe whose TTL expires at a domain is answered by that domain, and the
answers become the controller's topology repository: the foreign domains
within the probe horizon, each with its hop count.  One :class:`Graph` class
models both levels: the world's domain graph, whose nodes each carry the
domain's :class:`~sdnsec.policy.DomainInfo`, and a domain's own switch
graph, whose nodes each carry the switch's security label.  A controller
reads a known domain's identity, label and addressing from the world graph,
so a domain's attributes live in one place.  Path search runs over the
domain graph, which is the union of every controller's hop-1 answers, or
over a switch graph, filtering every element through a label constraint.
Both levels share one breadth-first search, linear in the size of the
graph, that checks each label at most once and never enumerates alternative
paths.  It runs from the destination and stops at the source's level, where
it works out the source's key alone.  Of the shortest satisfying paths it
returns the least by (hand-off bits, names), where a hop to a less trusted
switch sets a hand-off bit; domain routes have no hand-off bits.  A search
that finds no satisfying path answers ``[]`` for a domain route and
``None`` for a switch path, never an exception.
"""

from __future__ import annotations

from .labels import LabelWindow

__all__ = [
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
    """A controller's topology repository: each foreign domain within
    ``max_ttl`` hops of ``owner_as``, mapped to its hop count, in id order.

    Simulates probes at TTL 1..max_ttl: a domain at shortest-path distance d
    answers the TTL-d probe, so hop counts come out as breadth-first
    distances and unreachable domains are simply absent.  The answer is a
    new dict each time, so re-probing is idempotent.
    """
    if max_ttl < 1:
        raise ValueError("max_ttl must be >= 1")
    distances: dict[str, int] = {owner_as: 0}
    frontier = [owner_as]
    while frontier:
        next_frontier: list[str] = []
        for node in frontier:
            for neighbor in world.neighbors(node):
                if neighbor in distances:
                    continue
                distances[neighbor] = distances[node] + 1
                next_frontier.append(neighbor)
        frontier = next_frontier
    return {
        as_id: distance
        for as_id, distance in sorted(distances.items())
        if as_id != owner_as and distance <= max_ttl
    }


def _least_shortest_path(neighbors, src: str, dst: str, accepts, handoff=None) -> tuple[str, ...] | None:
    """The least shortest path src..dst whose transit nodes pass ``accepts``
    (asked at most once per node, never of an endpoint), or None.

    Paths compare by the bits ``handoff(a, b)`` gives each hop a->b, then by
    names.  The search from ``dst`` keeps each node's least shortest suffix
    toward ``dst``; that is exact because two shortest paths through one
    node compare the way their suffixes from it do.  Once the source is
    next to the frontier, only the source's key is worked out: the other
    nodes of its level are never read, nor asked of ``accepts``.
    """
    # node -> (hand-off bits, names) of its least suffix to dst
    best: dict[str, tuple[tuple, tuple[str, ...]]] = {dst: ((), (dst,))}
    refused: set[str] = set()

    def key(node: str, via: str) -> tuple[tuple, tuple[str, ...]]:
        bits, names = best[via]
        return ((handoff(node, via), *bits) if handoff else bits, (node, *names))

    frontier = [dst]
    while frontier:
        # a neighbor of the source already settled lies on the last level,
        # or the search would have ended a level earlier
        ends = [node for node in neighbors(src) if node in best]
        if ends:
            return min(key(src, node) for node in ends)[1]
        level: dict[str, tuple[tuple, tuple[str, ...]]] = {}
        for node in frontier:
            for neighbor in neighbors(node):
                if neighbor in best or neighbor in refused:
                    continue
                if neighbor not in level and not accepts(neighbor):
                    refused.add(neighbor)
                    continue
                offer = key(neighbor, node)
                if neighbor not in level or offer < level[neighbor]:
                    level[neighbor] = offer
        best.update(level)
        frontier = list(level)
    return None


def find_as_paths(
    graph: Graph, src_as: str, dst_as: str, constraint: LabelWindow = LabelWindow()
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
    starts or ends.
    """
    if src_as == dst_as:
        raise ValueError("source and destination domain must differ")
    if src_as not in graph or dst_as not in graph:
        return []
    route = _least_shortest_path(
        graph.neighbors, src_as, dst_as, lambda as_id: constraint.satisfies(graph.node(as_id).label)
    )
    return [route] if route else []


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

    With ``required``, the explicit path is validated (hops exist, are
    adjacent, span ingress to egress, and every switch satisfies the
    constraint) and returned verbatim.  Otherwise the shortest path whose
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
            all(switch in graph and satisfies(switch) for switch in required)
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
