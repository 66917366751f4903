"""Topology discovery by TTL probing and label-constrained path search.

Each controller walks the domain graph with probes of increasing TTL; a
probe whose TTL expires at a domain is answered with that domain's identity,
security label and addressing, and the answers become the controller's
topology repository.  Path search then runs over the domain graph, which is
the union of every controller's hop-1 entries (domain level), or over a
domain's own switch graph (intra level), filtering every element through a
label constraint.  Both levels share one breadth-first search, linear in
the size of the graph, that checks each label at most once and never
enumerates alternative paths.  Of the shortest satisfying paths it returns
the least by (hand-off bits, names); domain routes have no hand-off bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv4Network

from .labels import ANY_LABEL, SecurityLabel

__all__ = [
    "ASDescriptor",
    "ASGraph",
    "NoPathError",
    "SwitchGraph",
    "TopologyEntry",
    "TopologyRepository",
    "find_as_paths",
    "find_switch_path",
    "gateway_name",
    "probe_topology",
]


class NoPathError(Exception):
    """No path satisfies the constraint; callers map this to a deny."""


def _as_number(as_id: str) -> str:
    return as_id[2:] if as_id.startswith("AS") else as_id


def gateway_name(owner_as: str, peer_as: str) -> str:
    """Edge-switch naming convention: the gateway that connects domain a
    toward domain b is ``aSWb``."""
    return f"{_as_number(owner_as)}SW{_as_number(peer_as)}"


@dataclass(frozen=True)
class ASDescriptor:
    as_id: str
    subnet: IPv4Network
    as_type: str
    sec_label: SecurityLabel


@dataclass(frozen=True)
class TopologyEntry:
    as_id: str
    sec_label: SecurityLabel
    hops: int
    subnet: IPv4Network | None = None
    as_type: str | None = None

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError("foreign domain is at least one hop away")


class ASGraph:
    """Undirected domain-level adjacency with per-domain descriptors."""

    def __init__(self) -> None:
        self._descriptors: dict[str, ASDescriptor] = {}
        self._adjacency: dict[str, tuple[str, ...]] = {}  # sorted

    def add_domain(self, descriptor: ASDescriptor) -> None:
        if descriptor.as_id in self._descriptors:
            raise ValueError(f"duplicate domain {descriptor.as_id}")
        self._descriptors[descriptor.as_id] = descriptor
        self._adjacency[descriptor.as_id] = ()

    def add_link(self, a: str, b: str) -> None:
        for end in (a, b):
            if end not in self._descriptors:
                raise KeyError(f"unknown domain {end}")
        self._adjacency[a] = tuple(sorted({*self._adjacency[a], b}))
        self._adjacency[b] = tuple(sorted({*self._adjacency[b], a}))

    def __contains__(self, as_id: str) -> bool:
        return as_id in self._descriptors

    def domains(self) -> list[str]:
        return sorted(self._descriptors)

    def descriptor(self, as_id: str) -> ASDescriptor:
        return self._descriptors[as_id]

    def neighbors(self, as_id: str) -> tuple[str, ...]:
        return self._adjacency[as_id]


class SwitchGraph:
    """One domain's switch adjacency with per-switch security labels."""

    def __init__(self) -> None:
        self._labels: dict[str, SecurityLabel] = {}
        self._adjacency: dict[str, tuple[str, ...]] = {}  # sorted

    def add_switch(self, switch_id: str, label: SecurityLabel) -> None:
        if switch_id in self._labels:
            raise ValueError(f"duplicate switch {switch_id}")
        self._labels[switch_id] = label
        self._adjacency[switch_id] = ()

    def add_link(self, a: str, b: str) -> None:
        for end in (a, b):
            if end not in self._labels:
                raise KeyError(f"unknown switch {end}")
        self._adjacency[a] = tuple(sorted({*self._adjacency[a], b}))
        self._adjacency[b] = tuple(sorted({*self._adjacency[b], a}))

    def __contains__(self, switch_id: str) -> bool:
        return switch_id in self._labels

    def switches(self) -> list[str]:
        return sorted(self._labels)

    def label(self, switch_id: str) -> SecurityLabel:
        return self._labels[switch_id]

    def neighbors(self, switch_id: str) -> tuple[str, ...]:
        return self._adjacency[switch_id]

    def adjacent(self, a: str, b: str) -> bool:
        return b in self._adjacency.get(a, ())


@dataclass
class TopologyRepository:
    """What one controller knows about the rest of the world, plus its own
    switch fabric.  Rebuilt atomically by :func:`probe_topology`."""

    entries: dict[str, TopologyEntry] = field(default_factory=dict)
    intra_graph: SwitchGraph = field(default_factory=SwitchGraph)

    def neighbors(self) -> list[str]:
        return sorted(as_id for as_id, entry in self.entries.items() if entry.hops == 1)

    def domain_for_ip(self, ip) -> str | None:
        """Domain whose advertised subnet contains ``ip``; the owner is not an entry."""
        for as_id in sorted(self.entries):
            entry = self.entries[as_id]
            if entry.subnet is not None and ip in entry.subnet:
                return as_id
        return None


def probe_topology(
    world: ASGraph, owner_as: str, max_ttl: int, intra_graph: SwitchGraph | None = None
) -> TopologyRepository:
    """Build (or rebuild) a controller's topology repository.

    Simulates probes at TTL 1..max_ttl: a domain at shortest-path distance d
    answers the TTL-d probe with its identity, security label, subnet and
    type, so hop counts come out as breadth-first distances and unreachable
    domains are simply absent.
    Re-running replaces the repository wholesale, so it is idempotent.
    """
    if max_ttl < 1:
        raise ValueError("max_ttl must be >= 1")
    repo = TopologyRepository(intra_graph=intra_graph if intra_graph is not None else SwitchGraph())
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
    for as_id, distance in sorted(distances.items()):
        if as_id == owner_as or distance > max_ttl:
            continue
        descriptor = world.descriptor(as_id)
        repo.entries[as_id] = TopologyEntry(
            as_id=as_id,
            sec_label=descriptor.sec_label,
            hops=distance,
            subnet=descriptor.subnet,
            as_type=descriptor.as_type,
        )
    return repo


def _least_shortest_path(neighbors, src: str, dst: str, accepts, handoff=None) -> tuple[str, ...] | None:
    """The least shortest path src..dst whose transit nodes pass ``accepts``
    (asked at most once per node, never of an endpoint), or None.

    Paths compare by the bits ``handoff(a, b)`` gives each hop a->b, then by
    names.  The search from ``dst`` keeps each node's least shortest suffix
    toward ``dst``; that is exact because two shortest paths through one
    node compare the way their suffixes from it do.
    """
    # node -> (hand-off bits, names) of its least suffix to dst
    best: dict[str, tuple[tuple, tuple[str, ...]]] = {dst: ((), (dst,))}
    refused: set[str] = set()
    frontier = [dst]
    # level by level; the search ends at the source's level, so the source
    # is never expanded as a transit node
    while frontier and src not in best:
        level: dict[str, tuple[tuple, tuple[str, ...]]] = {}
        for node in frontier:
            bits, names = best[node]
            for neighbor in neighbors(node):
                if neighbor in best or neighbor in refused:
                    continue
                if neighbor not in level and neighbor != src and not accepts(neighbor):
                    refused.add(neighbor)
                    continue
                key = ((handoff(neighbor, node), *bits) if handoff else bits, (neighbor, *names))
                if neighbor not in level or key < level[neighbor]:
                    level[neighbor] = key
        best.update(level)
        frontier = list(level)
    return best[src][1] if src in best else None


def find_as_paths(graph: ASGraph, src_as: str, dst_as: str, constraint=ANY_LABEL) -> list[tuple[str, ...]]:
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
        graph.neighbors, src_as, dst_as, lambda as_id: constraint.satisfies(graph.descriptor(as_id).sec_label)
    )
    return [route] if route else []


def find_switch_path(
    graph: SwitchGraph,
    ingress: str,
    egress: str,
    required: tuple[str, ...] | None = None,
    constraint=ANY_LABEL,
) -> tuple[str, ...]:
    """Resolve the switch path a flow must take inside one domain.

    With ``required``, the explicit path is validated (hops exist, are
    adjacent, span ingress to egress, and every switch satisfies the
    constraint) and returned verbatim.  Otherwise the shortest path whose
    switches, ends included, satisfy the constraint wins.  Among equals the
    least tuple of hand-off bits wins, one bit per hop, set when it hands off
    to a less trusted switch (the rule is nondecreasing labels; earlier hops
    dominate), then the lexicographically smallest.  It is the search
    ``find_as_paths`` runs, so each label is checked at most once.
    """
    for end in (ingress, egress):
        if end not in graph:
            raise NoPathError(f"switch {end} not in graph")
    if required is not None:
        for switch in required:
            if switch not in graph:
                raise NoPathError(f"required path names unknown switch {switch}")
            if not constraint.satisfies(graph.label(switch)):
                raise NoPathError(f"switch {switch} violates label constraint")
        if required[0] != ingress or required[-1] != egress:
            raise NoPathError(
                f"required path {required} does not span {ingress}..{egress}"
            )
        for a, b in zip(required, required[1:]):
            if not graph.adjacent(a, b):
                raise NoPathError(f"required path hop {a}-{b} is not a link")
        return tuple(required)
    satisfies = lambda switch: constraint.satisfies(graph.label(switch))
    path = None
    if satisfies(ingress) and satisfies(egress):
        path = (ingress,) if ingress == egress else _least_shortest_path(
            graph.neighbors, ingress, egress, satisfies, lambda a, b: graph.label(a).rank > graph.label(b).rank
        )
    if path is None:
        raise NoPathError(f"no path {ingress}..{egress} satisfies the constraint")
    return path
