import random
from collections import deque
from ipaddress import IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from sdnsec.labels import ANY_LABEL, LabelConstraint, LabelRelation, SecurityLabel
from sdnsec.topology import (
    ASDescriptor,
    ASGraph,
    NoPathError,
    SwitchGraph,
    find_as_paths,
    find_switch_path,
    gateway_name,
    probe_topology,
)


def make_world(links, labels=None):
    labels = labels or {}
    world = ASGraph()
    ids = sorted({a for link in links for a in link})
    for index, as_id in enumerate(ids):
        world.add_domain(
            ASDescriptor(
                as_id=as_id,
                subnet=IPv4Network(f"10.{index}.0.0/16"),
                as_type="EDU",
                sec_label=SecurityLabel(labels.get(as_id, 2)),
                controller_id=f"C-{as_id}",
            )
        )
    for a, b in links:
        world.add_link(a, b)
    return world


CHAIN = [("AS1", "AS2"), ("AS2", "AS3"), ("AS3", "AS4")]


def bfs_distances(adjacency, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency.get(node, ()):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist


def test_gateway_naming_convention():
    assert gateway_name("AS1", "AS2") == "1SW2"
    assert gateway_name("AS4", "AS3") == "4SW3"


def test_probe_four_domain_chain():
    world = make_world(CHAIN, labels={"AS1": 2, "AS2": 3, "AS3": 2, "AS4": 4})
    repo = probe_topology(world, "AS1", max_ttl=4)
    assert sorted(repo.entries) == ["AS2", "AS3", "AS4"]
    assert repo.entries["AS2"].hops == 1
    assert repo.entries["AS3"].hops == 2
    assert repo.entries["AS4"].hops == 3
    assert repo.entries["AS4"].next_hop_gateway == "1SW2"
    assert repo.entries["AS3"].sec_label == SecurityLabel(2)
    assert "AS1" not in repo.entries


def test_probe_respects_ttl_horizon():
    world = make_world(CHAIN)
    repo = probe_topology(world, "AS1", max_ttl=2)
    assert sorted(repo.entries) == ["AS2", "AS3"]


def test_probe_single_domain_world():
    world = ASGraph()
    world.add_domain(
        ASDescriptor("AS1", IPv4Network("10.0.0.0/16"), "EDU", SecurityLabel(2), "C-AS1")
    )
    repo = probe_topology(world, "AS1", max_ttl=4)
    assert repo.entries == {}


def test_probe_is_idempotent():
    world = make_world(CHAIN)
    first = probe_topology(world, "AS2", max_ttl=4)
    second = probe_topology(world, "AS2", max_ttl=4)
    assert first.entries == second.entries


def random_as_links(rng, count):
    ids = [f"AS{i}" for i in range(1, count + 1)]
    links = {(a, b) for a, b in zip(ids, ids[1:])}  # keep it connected
    for _ in range(count):
        a, b = rng.sample(ids, 2)
        links.add(tuple(sorted((a, b))))
    return sorted(links)


def test_probe_distances_match_bfs_oracle():
    rng = random.Random(2)
    for trial in range(30):
        links = random_as_links(rng, 8)
        world = make_world(links)
        adjacency = {}
        for a, b in links:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        origin = rng.choice(sorted(adjacency))
        repo = probe_topology(world, origin, max_ttl=10)
        oracle = bfs_distances(adjacency, origin)
        assert {as_id: e.hops for as_id, e in repo.entries.items()} == {
            k: v for k, v in oracle.items() if k != origin
        }


def test_transit_constrained_paths():
    labels = {"AS1": 2, "AS2": 3, "AS3": 2, "AS4": 4}
    graph = make_world(CHAIN, labels)
    geq2 = LabelConstraint(LabelRelation.GEQ, SecurityLabel(2))
    assert find_as_paths(graph, "AS1", "AS4", geq2) == [("AS1", "AS2", "AS3", "AS4")]
    # raising the bar above a transit label prunes the only route
    geq3 = LabelConstraint(LabelRelation.GEQ, SecurityLabel(3))
    assert find_as_paths(graph, "AS1", "AS4", geq3) == []


def test_unconstrained_returns_all_simple_paths():
    links = CHAIN + [("AS1", "AS3")]
    graph = make_world(links)
    paths = find_as_paths(graph, "AS1", "AS4", ANY_LABEL)
    assert paths == [
        ("AS1", "AS3", "AS4"),
        ("AS1", "AS2", "AS3", "AS4"),
    ]


def test_same_domain_rejected():
    graph = make_world(CHAIN)
    with pytest.raises(ValueError):
        find_as_paths(graph, "AS1", "AS1")


def dfs_all_paths(adjacency, src, dst, allowed):
    """Brute-force enumeration with a per-transit-node filter."""
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


def test_as_paths_match_dfs_oracle_on_random_graphs():
    rng = random.Random(13)
    for trial in range(40):
        links = random_as_links(rng, 6)
        labels = {f"AS{i}": rng.randrange(1, 5) for i in range(1, 7)}
        world = make_world(links, labels)
        adjacency = {}
        for a, b in links:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        base = rng.randrange(1, 5)
        constraint = LabelConstraint(LabelRelation.GEQ, SecurityLabel(base))
        got = find_as_paths(world, "AS1", "AS6", constraint)
        expected = dfs_all_paths(
            adjacency, "AS1", "AS6", lambda n: labels[n] >= base
        )
        assert got == expected


def test_constraint_strengthening_is_antitone():
    rng = random.Random(29)
    for trial in range(20):
        links = random_as_links(rng, 6)
        labels = {f"AS{i}": rng.randrange(1, 5) for i in range(1, 7)}
        graph = make_world(links, labels)
        previous = None
        for base in range(1, 6):
            constraint = LabelConstraint(LabelRelation.GEQ, SecurityLabel(base))
            paths = set(find_as_paths(graph, "AS1", "AS6", constraint))
            if previous is not None:
                assert paths <= previous
            previous = paths


# --- switch-level search ------------------------------------------------------


def switch_matrix(labels):
    graph = SwitchGraph()
    for switch, rank in labels.items():
        graph.add_switch(switch, SecurityLabel(rank))
    return graph


def five_switch_graph():
    graph = switch_matrix({"SW1": 2, "SW2": 2, "SW3": 2, "SW4": 2, "SW5": 2})
    for a, b in [("SW1", "SW5"), ("SW5", "SW4"), ("SW1", "SW3"), ("SW3", "SW4"), ("SW1", "SW2"), ("SW2", "SW4")]:
        graph.add_link(a, b)
    return graph


def test_required_path_returned_verbatim():
    graph = five_switch_graph()
    assert find_switch_path(graph, "SW1", "SW4", required=("SW1", "SW5", "SW4")) == (
        "SW1",
        "SW5",
        "SW4",
    )


def test_required_path_validation():
    graph = five_switch_graph()
    with pytest.raises(NoPathError):
        find_switch_path(graph, "SW1", "SW4", required=("SW1", "SW4"))  # not a link
    with pytest.raises(NoPathError):
        find_switch_path(graph, "SW1", "SW4", required=("SW5", "SW4"))  # wrong span
    with pytest.raises(NoPathError):
        find_switch_path(
            graph,
            "SW1",
            "SW4",
            required=("SW1", "SW5", "SW4"),
            constraint=LabelConstraint(LabelRelation.GEQ, SecurityLabel(3)),
        )


def test_single_node_path():
    graph = five_switch_graph()
    assert find_switch_path(graph, "SW3", "SW3") == ("SW3",)


def test_label_filter_reroutes():
    graph = switch_matrix({"SW1": 1, "SWLO": 1, "SWHI": 2, "SW4": 1})
    graph.add_link("SW1", "SWLO")
    graph.add_link("SW1", "SWHI")
    graph.add_link("SWLO", "SW4")
    graph.add_link("SWHI", "SW4")
    only_low = LabelConstraint(LabelRelation.EQ, SecurityLabel(1))
    assert find_switch_path(graph, "SW1", "SW4", constraint=only_low) == ("SW1", "SWLO", "SW4")
    with pytest.raises(NoPathError):
        find_switch_path(
            graph, "SW1", "SW4", constraint=LabelConstraint(LabelRelation.GEQ, SecurityLabel(3))
        )


def test_tie_break_prefers_nondecreasing_labels():
    graph = switch_matrix({"SWA": 2, "SWDOWN": 1, "SWUP": 3, "SWZ": 2})
    graph.add_link("SWA", "SWDOWN")
    graph.add_link("SWA", "SWUP")
    graph.add_link("SWDOWN", "SWZ")
    graph.add_link("SWUP", "SWZ")
    # both routes are two hops; the one that never hands off to a less
    # trusted switch wins even though it is lexicographically larger
    assert find_switch_path(graph, "SWA", "SWZ") == ("SWA", "SWUP", "SWZ")


def dijkstra_filtered_length(adjacency, labels, src, dst, allowed):
    import heapq

    if not allowed(src) or not allowed(dst):
        return None
    heap = [(0, src)]
    seen = set()
    while heap:
        cost, node = heapq.heappop(heap)
        if node == dst:
            return cost
        if node in seen:
            continue
        seen.add(node)
        for neighbor in adjacency.get(node, ()):
            if neighbor not in seen and allowed(neighbor):
                heapq.heappush(heap, (cost + 1, neighbor))
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_switch_path_matches_filtered_shortest_path_oracle(data):
    n = 5
    names = [f"SW{i}" for i in range(1, n + 1)]
    ranks = {name: data.draw(st.integers(1, 3), label=name) for name in names}
    possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    links = data.draw(
        st.lists(st.sampled_from(possible), min_size=n - 1, max_size=len(possible), unique=True)
    )
    graph = switch_matrix(ranks)
    adjacency = {}
    for a, b in links:
        graph.add_link(a, b)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    base = data.draw(st.integers(1, 3), label="base")
    constraint = LabelConstraint(LabelRelation.GEQ, SecurityLabel(base))
    allowed = lambda s: ranks[s] >= base
    oracle_len = dijkstra_filtered_length(adjacency, ranks, "SW1", f"SW{n}", allowed)
    try:
        path = find_switch_path(graph, "SW1", f"SW{n}", constraint=constraint)
    except NoPathError:
        assert oracle_len is None
        return
    assert oracle_len is not None
    assert len(path) - 1 == oracle_len
    assert len(set(path)) == len(path)
    assert all(allowed(s) for s in path)
