"""Probe a multi-domain world and choose domain routes under label constraints.

Run:  python demos/02_topology_discovery.py
"""

from ipaddress import IPv4Network

from sdnsec import (
    DomainInfo,
    Graph,
    SecurityLabel,
    find_as_paths,
    parse_label_constraint,
    probe_topology,
)

# Four domains in a row plus a shortcut through a low-trust domain.
world = Graph()
labels = {"AS1": 2, "AS2": 3, "AS3": 2, "AS4": 4, "AS5": 1}
for index, (as_id, rank) in enumerate(sorted(labels.items())):
    world.add_node(as_id, DomainInfo(as_id, IPv4Network(f"10.{index}.0.0/16"), "EDU", SecurityLabel(rank)))
for a, b in [("AS1", "AS2"), ("AS2", "AS3"), ("AS3", "AS4"), ("AS1", "AS5"), ("AS5", "AS4")]:
    world.add_link(a, b)

# Each controller probes with rising TTL; the answers are the domains in
# reach and their hop counts.  A domain's label is read from the world graph.
repos = [probe_topology(world, as_id, max_ttl=4) for as_id in world.nodes()]
print("topology repository of AS1:")
for as_id, hops in repos[0].items():
    print(f"  {as_id}: label={world.node(as_id).label} hops={hops}")

# Route search runs on the domain graph the probes' hop-1 answers make up.
# Unconstrained, the shortest route wins: the shortcut through AS5.
(route,) = find_as_paths(world, "AS1", "AS4")
print("\nroute AS1 -> AS4:", " -> ".join(route))

# Requiring trusted transit rules out AS5 (label SL1), so the route takes
# the long way round.
constraint = parse_label_constraint("SL2+=")
(route,) = find_as_paths(world, "AS1", "AS4", constraint)
print(f"route whose transit domains satisfy {constraint}:", " -> ".join(route))
