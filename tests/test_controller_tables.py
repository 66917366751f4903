"""A controller's standing tables against fresh derivations.

When it is built, a controller names its own gateway toward each neighbour
and the neighbour's gateway toward it, and it lists the subnets of its own
domain and the domains it knows.  For every controller of every bundled
scenario and of the benchmark workloads at seeds 1 to 3: the gateway table
equals ``gateway_name`` in both directions, over exactly the domain graph's
neighbours, and ``domain_for_ip`` equals a fresh scan of those domains'
subnets.  The addresses
asked are the hosts', each subnet's network, gateway (first host) and
broadcast addresses and the two just outside it, and random ones, many of
them outside every subnet.
"""

import random
from ipaddress import IPv4Address

import pytest
from test_workloads import SEEDS, WORKLOADS, case_world

from sdnsec.scenario import list_bundled_scenarios
from sdnsec.topology import gateway_name

# the tables do not depend on the mode, so each scenario is built reactive
WORLDS = [
    *(f"{name}/reactive" for name in list_bundled_scenarios()),
    *(f"workload:{name}@{seed}" for name in sorted(WORKLOADS) for seed in SEEDS),
]
LAST_ADDRESS = 2**32 - 1


@pytest.mark.parametrize("name", WORLDS)
def test_the_gateway_table_names_each_neighbours_gateways(name):
    world = case_world(name)
    for owner, ctrl in world.controllers.items():
        neighbors = world.as_graph.neighbors(owner)
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


def _scan(world, ctrl, address: int) -> str | None:
    subnets = {domain.id: domain.subnet for domain in world.scenario.domains}
    found = [as_id for as_id in (ctrl.as_id, *ctrl.known) if IPv4Address(address) in subnets[as_id]]
    assert len(found) <= 1, (address, found)
    return found[0] if found else None


@pytest.mark.parametrize("name", WORLDS)
def test_domain_for_ip_equals_a_fresh_scan_of_the_subnets(name):
    world = case_world(name)
    addresses = _addresses(world, random.Random(name))
    for ctrl in world.controllers.values():
        expected = [_scan(world, ctrl, address) for address in addresses]
        assert [ctrl.domain_for_ip(address) for address in addresses] == expected
        assert None in expected and any(expected), ctrl.as_id
