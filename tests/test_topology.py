import random
from collections import Counter, deque
from dataclasses import replace
from ipaddress import IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from sdnsec.labels import LabelWindow, SecurityLabel, parse_label_constraint
from sdnsec.policy import DomainInfo
from sdnsec.scenario import bundled_scenario_path, load_scenario
from sdnsec.simulation import build_world
from sdnsec.sweep import chain_scenario
from sdnsec.topology import (
    Graph,
    find_as_paths,
    find_switch_path,
    gateway_name,
    probe_topology,
)

from helpers import dfs_all_paths, least_switch_path, link_adjacency, shortest_switch_paths


def make_world(links, labels=None, domains=()):
    labels = labels or {}
    world = Graph()
    ids = sorted({*domains, *(a for link in links for a in link)})
    for index, as_id in enumerate(ids):
        world.add_node(
            as_id, DomainInfo(as_id, IPv4Network(f"10.{index}.0.0/16"), "EDU", SecurityLabel(labels.get(as_id, 2)))
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
    assert list(repo.items()) == [("AS2", 1), ("AS3", 2), ("AS4", 3)]


def test_probe_respects_ttl_horizon():
    world = make_world(CHAIN)
    repo = probe_topology(world, "AS1", max_ttl=2)
    assert repo == {"AS2": 1, "AS3": 2}


def test_probe_single_domain_world():
    world = Graph()
    world.add_node("AS1", DomainInfo("AS1", IPv4Network("10.0.0.0/16"), "EDU", SecurityLabel(2)))
    repo = probe_topology(world, "AS1", max_ttl=4)
    assert repo == {}


def test_controller_reads_known_domains_from_the_world_graph():
    # a domain within the probe horizon is the world graph's own record; one
    # beyond it is known by id only, and its addresses by no domain
    for scenario in (load_scenario(bundled_scenario_path("four_domain_transit")), chain_scenario(6)):
        adjacency = link_adjacency(scenario.links)
        for max_ttl in range(1, len(scenario.domains) + 1):
            world = build_world(replace(scenario, max_ttl=max_ttl))
            for owner, ctrl in world.controllers.items():
                hops = bfs_distances(adjacency, owner)
                for domain in scenario.domains:
                    if domain.id == owner:
                        continue
                    address = int(next(domain.subnet.hosts()))
                    if hops.get(domain.id, max_ttl + 1) <= max_ttl:
                        assert ctrl._domain_info(domain.id) is world.as_graph.node(domain.id)
                        assert ctrl.domain_for_ip(address) == domain.id
                    else:
                        assert ctrl._domain_info(domain.id) == DomainInfo(domain.id)
                        assert ctrl.domain_for_ip(address) is None


def test_graph_rejects_duplicate_node():
    graph = Graph()
    graph.add_node("SW1", SecurityLabel(2))
    with pytest.raises(ValueError, match="duplicate node SW1"):
        graph.add_node("SW1", SecurityLabel(3))
    assert graph.node("SW1") == SecurityLabel(2)


def test_graph_rejects_link_to_unknown_node():
    graph = Graph()
    graph.add_node("SW1", SecurityLabel(2))
    with pytest.raises(KeyError, match="unknown node SW2"):
        graph.add_link("SW1", "SW2")
    assert graph.neighbors("SW1") == ()


def test_probe_is_idempotent():
    world = make_world(CHAIN)
    first = probe_topology(world, "AS2", max_ttl=4)
    second = probe_topology(world, "AS2", max_ttl=4)
    assert first == second


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
        adjacency = link_adjacency(links)
        origin = rng.choice(sorted(adjacency))
        repo = probe_topology(world, origin, max_ttl=10)
        oracle = bfs_distances(adjacency, origin)
        assert repo == {
            k: v for k, v in oracle.items() if k != origin
        }


def test_transit_constrained_paths():
    labels = {"AS1": 2, "AS2": 3, "AS3": 2, "AS4": 4}
    graph = make_world(CHAIN, labels)
    geq2 = parse_label_constraint("SL2+=")
    assert find_as_paths(graph, "AS1", "AS4", geq2) == [("AS1", "AS2", "AS3", "AS4")]
    # raising the bar above a transit label prunes the only route
    geq3 = parse_label_constraint("SL3+=")
    assert find_as_paths(graph, "AS1", "AS4", geq3) == []


def test_unconstrained_returns_all_simple_paths():
    # the oracle enumerates every simple path; the route is the first of them
    links = CHAIN + [("AS1", "AS3")]
    graph = make_world(links)
    paths = dfs_all_paths(link_adjacency(links), "AS1", "AS4", lambda n: True)
    assert paths == [
        ("AS1", "AS3", "AS4"),
        ("AS1", "AS2", "AS3", "AS4"),
    ]
    assert find_as_paths(graph, "AS1", "AS4", parse_label_constraint("*")) == paths[:1]


def test_an_endpoint_outside_the_graph_has_no_route():
    graph = make_world(CHAIN)
    assert find_as_paths(graph, "AS1", "AS9") == []
    assert find_as_paths(graph, "AS9", "AS1") == []


def test_same_domain_rejected():
    graph = make_world(CHAIN)
    with pytest.raises(ValueError):
        find_as_paths(graph, "AS1", "AS1")


def test_as_paths_match_dfs_oracle_on_random_graphs():
    rng = random.Random(13)
    for trial in range(40):
        links = random_as_links(rng, 6)
        labels = {f"AS{i}": rng.randrange(1, 5) for i in range(1, 7)}
        world = make_world(links, labels)
        base = rng.randrange(1, 5)
        constraint = parse_label_constraint(f"SL{base}+=")
        got = find_as_paths(world, "AS1", "AS6", constraint)
        expected = dfs_all_paths(
            link_adjacency(links), "AS1", "AS6", lambda n: labels[n] >= base
        )
        assert got == expected[:1]


_LABEL_CONSTRAINTS = st.one_of(
    st.just(parse_label_constraint("*")),
    st.builds(
        lambda relation, rank: parse_label_constraint(f"SL{rank}{relation}"),
        st.sampled_from(["+=", "-=", ""]),
        st.integers(1, 5),
    ),
    # both bounds; lo > hi is the empty window, which admits no transit
    st.builds(LabelWindow, st.integers(1, 5), st.integers(1, 5)),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_route_is_first_of_all_satisfying_paths(data):
    # up to 12 domains, so "AS10" < "AS2" string order decides ties; sparse
    # enough for the enumerating oracle, and often disconnected
    n = data.draw(st.integers(2, 12), label="domains")
    ids = [f"AS{i}" for i in range(1, n + 1)]
    possible = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    links = data.draw(st.lists(st.sampled_from(possible), max_size=2 * n, unique=True), label="links")
    ranks = {as_id: data.draw(st.integers(1, 5), label=as_id) for as_id in ids}
    src, dst = data.draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True), label="ends")
    constraint = data.draw(_LABEL_CONSTRAINTS, label="constraint")
    graph = make_world(links, ranks, domains=ids)
    allowed = lambda as_id: constraint.satisfies(SecurityLabel(ranks[as_id]))
    expected = dfs_all_paths(link_adjacency(links), src, dst, allowed)
    assert find_as_paths(graph, src, dst, constraint) == expected[:1]


class CountingConstraint:
    """Accepts the ranks ``accepts`` passes (odd ones by default) and counts
    the labels it is asked about."""

    def __init__(self, accepts=lambda rank: rank % 2 == 1):
        self.accepts = accepts
        self.checked = Counter()

    def satisfies(self, label):
        self.checked[label.rank] += 1
        return self.accepts(label.rank)


def test_full_mesh_route_checks_each_label_at_most_once():
    # 16 domains, every pair linked but the endpoints: enumerating the
    # simple paths would never finish
    ids = [f"AS{i}" for i in range(1, 17)]
    links = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if {a, b} != {"AS1", "AS16"}]
    graph = make_world(links, {as_id: rank for rank, as_id in enumerate(ids, start=1)})
    constraint = CountingConstraint()
    # AS10 < AS11 < AS2 as strings, and AS10 has an even rank
    assert find_as_paths(graph, "AS1", "AS16", constraint) == [("AS1", "AS11", "AS16")]
    assert constraint.checked and max(constraint.checked.values()) == 1
    assert 1 not in constraint.checked and 16 not in constraint.checked  # endpoints are exempt


def test_constraint_strengthening_is_antitone():
    # a stronger window never gives a shorter route, and it keeps the weaker
    # window's route whenever that route still satisfies it
    rng = random.Random(29)
    for trial in range(20):
        links = random_as_links(rng, 6)
        labels = {f"AS{i}": rng.randrange(1, 5) for i in range(1, 7)}
        graph = make_world(links, labels)
        previous = None
        for base in range(1, 6):
            constraint = parse_label_constraint(f"SL{base}+=")
            routes = find_as_paths(graph, "AS1", "AS6", constraint)
            if previous is not None:
                if not previous:
                    assert routes == []
                elif all(labels[as_id] >= base for as_id in previous[0][1:-1]):
                    assert routes == previous
                elif routes:
                    assert len(routes[0]) >= len(previous[0])
            previous = routes


# --- switch-level search ------------------------------------------------------


def switch_matrix(labels):
    graph = Graph()
    for switch, rank in labels.items():
        graph.add_node(switch, SecurityLabel(rank))
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
    assert find_switch_path(graph, "SW1", "SW4", required=("SW1", "SW4")) is None  # not a link
    assert find_switch_path(graph, "SW1", "SW4", required=("SW5", "SW4")) is None  # wrong span
    assert (
        find_switch_path(
            graph,
            "SW1",
            "SW4",
            required=("SW1", "SW5", "SW4"),
            constraint=parse_label_constraint("SL3+="),
        )
        is None
    )


@pytest.mark.parametrize("ingress, egress", [("SW1", "SW9"), ("SW9", "SW4"), ("SW9", "SW9")])
@pytest.mark.parametrize("required", [None, ("SW1", "SW5", "SW4")])
def test_a_switch_outside_the_graph_has_no_path(ingress, egress, required):
    assert find_switch_path(five_switch_graph(), ingress, egress, required=required) is None


def test_single_node_path():
    graph = five_switch_graph()
    assert find_switch_path(graph, "SW3", "SW3") == ("SW3",)


def test_label_filter_reroutes():
    graph = switch_matrix({"SW1": 1, "SWLO": 1, "SWHI": 2, "SW4": 1})
    graph.add_link("SW1", "SWLO")
    graph.add_link("SW1", "SWHI")
    graph.add_link("SWLO", "SW4")
    graph.add_link("SWHI", "SW4")
    only_low = parse_label_constraint("SL1")
    assert find_switch_path(graph, "SW1", "SW4", constraint=only_low) == ("SW1", "SWLO", "SW4")
    assert find_switch_path(graph, "SW1", "SW4", constraint=parse_label_constraint("SL3+=")) is None


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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_switch_path_matches_filtered_shortest_path_oracle(data):
    # seven switches of three ranks and at least nine links, so that a run
    # draws many graphs with several shortest paths, equal hand-off bits
    # among them, and paths the bits decide; a direct link between the ends
    # leaves one shortest path, so only one graph in five has it
    n = 7
    names = [f"SW{i}" for i in range(1, n + 1)]
    ranks = {name: data.draw(st.integers(1, 3), label=name) for name in names}
    possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if (a, b) != ("SW1", f"SW{n}")]
    links = data.draw(
        st.lists(st.sampled_from(possible), min_size=n + 2, max_size=len(possible), unique=True)
    )
    if data.draw(st.integers(0, 4), label="direct") == 0:
        links.append(("SW1", f"SW{n}"))
    graph = switch_matrix(ranks)
    adjacency = {}
    for a, b in links:
        graph.add_link(a, b)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    base = data.draw(st.integers(1, 3), label="base")
    constraint = parse_label_constraint(f"SL{base}+=")
    allowed = lambda s: ranks[s] >= base
    oracle_len = dijkstra_filtered_length(adjacency, ranks, "SW1", f"SW{n}", allowed)
    expected = least_switch_path(graph, "SW1", f"SW{n}", constraint)
    path = find_switch_path(graph, "SW1", f"SW{n}", constraint=constraint)
    if path is None:
        assert oracle_len is None and expected is None
        return
    assert oracle_len is not None
    assert path == expected
    assert len(path) - 1 == oracle_len
    assert len(set(path)) == len(path)
    assert all(allowed(s) for s in path)


def test_grid_switch_path_checks_each_label_at_most_once():
    # an 8x8 grid has 3,432 shortest corner-to-corner paths; enumerating
    # them checks a label once per path prefix
    rng = random.Random(3)
    ranks = rng.sample(range(1, 65), 64)
    names = {(r, c): f"SW{r}{c}" for r in range(8) for c in range(8)}
    graph = switch_matrix({names[cell]: ranks[8 * cell[0] + cell[1]] for cell in names})
    for (r, c), name in names.items():
        if r < 7:
            graph.add_link(name, names[r + 1, c])
        if c < 7:
            graph.add_link(name, names[r, c + 1])
    constraint = CountingConstraint(accepts=lambda rank: rank > 6)
    path = find_switch_path(graph, "SW00", "SW77", constraint=constraint)
    window = parse_label_constraint("SL7+=")
    assert path == least_switch_path(graph, "SW00", "SW77", window) and len(path) == 15
    # the hand-off bits, not the names, chose among the shortest paths
    assert path != min(shortest_switch_paths(graph, "SW00", "SW77", window))
    assert max(constraint.checked.values()) == 1
    assert sum(1 for rank in constraint.checked if rank <= 6) > 1  # some switches were refused


def test_leaf_to_leaf_search_asks_only_the_spines():
    # 4 spines over 12 leaves, each leaf linked to every spine: the source
    # leaf is next to the spine level, so the other leaves beyond it are
    # never asked; each switch's rank names it
    leaves = [f"LEAF{i:02}" for i in range(12)]
    spines = [f"SPINE{i}" for i in range(4)]
    graph = switch_matrix({name: rank for rank, name in enumerate([*leaves, *spines], start=1)})
    for leaf in leaves:
        for spine in spines:
            graph.add_link(leaf, spine)
    constraint = CountingConstraint(accepts=lambda rank: True)
    path = find_switch_path(graph, "LEAF00", "LEAF11", constraint=constraint)
    assert path == least_switch_path(graph, "LEAF00", "LEAF11", LabelWindow())
    # the two ends, checked before the search, and the four spines
    assert constraint.checked == Counter({1: 1, 12: 1, 13: 1, 14: 1, 15: 1, 16: 1})
