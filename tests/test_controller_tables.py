"""A controller's standing tables against fresh derivations.

When it is built, a controller names its own gateway toward each neighbour
and the neighbour's gateway toward it.  It finds an address's domain in the
world's domain table, which lists every domain's subnet, and answers only
its own domain or one it knows.  For every controller of every bundled
scenario and of the benchmark workloads at seeds 1 to 3: the gateway table
equals ``gateway_name`` in both directions, over exactly the domain graph's
neighbours, and ``domain_for_ip`` answers the world graph's record of the
domain a fresh scan of the subnets of its own domain and the domains a
fresh probe from it finds, or None where the scan finds none; asked again,
its address table answers the same.  Some worlds are
built again with a probe horizon shorter than their diameter, so that some
controllers do not know every domain the world table lists.  The
addresses asked are the hosts', each subnet's network, gateway (first host)
and broadcast addresses and the two just outside it, and random ones, many
of them outside every subnet.
"""

import random
from dataclasses import replace
from ipaddress import IPv4Address

import pytest
from test_workloads import SEEDS, WORKLOADS, case_world

from sdnsec.scenario import list_bundled_scenarios
from sdnsec.simulation import build_world
from sdnsec.topology import gateway_name, probe_topology

# the tables do not depend on the mode, so each scenario is built reactive;
# a " max_ttl=N" suffix builds the world again with that probe horizon, each
# shorter than the world's diameter
WORLDS = [
    *(f"{name}/reactive" for name in list_bundled_scenarios()),
    *(f"workload:{name}@{seed}" for name in sorted(WORKLOADS) for seed in SEEDS),
    "four_domain_transit/reactive max_ttl=1",
    "four_domain_transit/reactive max_ttl=2",
    "unknown_transit/reactive max_ttl=1",
    "workload:mesh_transit@1 max_ttl=1",
]
LAST_ADDRESS = 2**32 - 1


def _world(name: str):
    case, _, max_ttl = name.partition(" max_ttl=")
    world = case_world(case)
    return build_world(replace(world.scenario, max_ttl=int(max_ttl)), world.scenario.costs) if max_ttl else world


@pytest.mark.parametrize("name", WORLDS)
def test_the_gateway_table_names_each_neighbours_gateways(name):
    world = _world(name)
    for owner, ctrl in world.controllers.items():
        neighbors = world.domains.graph.neighbors(owner)
        assert ctrl._gateways == {peer: (gateway_name(owner, peer), gateway_name(peer, owner)) for peer in neighbors}
        assert ctrl._gateway_peers == {gateway_name(owner, peer): peer for peer in neighbors}
        for egress, ingress in ctrl._gateways.values():
            # both ends are wired to each other
            assert ingress in world.switches[egress].ports and egress in world.switches[ingress].ports


def _addresses(world, rng: random.Random) -> list[int]:
    addresses = [host.ip for host in world.hosts.values()]
    for domain in world.scenario.domains:
        low, high = int(domain.subnet.network_address), int(domain.subnet.broadcast_address)
        addresses += [low - 1, low, low + 1, high, high + 1, rng.randint(low, high)]
    addresses += [rng.randint(0, LAST_ADDRESS) for _ in range(200)]
    return [address for address in addresses if 0 <= address <= LAST_ADDRESS]


def _probe(world, ctrl) -> dict[str, int]:
    """The foreign domains a fresh probe from the controller's domain finds."""
    return probe_topology(world.domains.graph, ctrl.as_id, world.scenario.max_ttl)


def _scan(world, known: tuple[str, ...], address: int) -> str | None:
    subnets = {domain.id: domain.subnet for domain in world.scenario.domains}
    found = [as_id for as_id in known if IPv4Address(address) in subnets[as_id]]
    assert len(found) <= 1, (address, found)
    return found[0] if found else None


@pytest.mark.parametrize("name", WORLDS)
def test_domain_for_ip_equals_a_fresh_scan_of_the_subnets(name):
    world = _world(name)
    addresses = _addresses(world, random.Random(name))
    for ctrl in world.controllers.values():
        known = (ctrl.as_id, *_probe(world, ctrl))
        scans = [_scan(world, known, address) for address in addresses]
        expected = [world.domains.graph.node(as_id) if as_id else None for as_id in scans]
        assert [ctrl.domain_for_ip(address) for address in addresses] == expected
        assert [ctrl._addresses[address] for address in addresses] == expected
        assert None in expected and any(expected), ctrl.as_id
    if " max_ttl=" in name:
        # the horizon hides some domain the world table lists from some controller
        assert any(len(_probe(world, ctrl)) < len(world.controllers) - 1 for ctrl in world.controllers.values())
