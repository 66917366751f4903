"""Unknown traffic confined to the lowest-label switches, away from trusted flows.

A guest flow without a specific permit is still granted passage, but only
over switches labeled SL1; a trusted flow constrained to SL2-or-better
silently takes a different route. The two never share a switch.

Run:  python demos/05_unknown_traffic_isolation.py
"""

from sdnsec import build_world, bundled_scenario_path, load_scenario
from sdnsec.simulation import Simulation

world = build_world(load_scenario(bundled_scenario_path("unknown_transit")))
report = Simulation(world).run()

guest = report.flow("guest", "192.168.52.80")
trusted = report.flow("trusted", "192.168.52.90")

def label(switch):
    return world.controllers[world.switch_domain[switch]].intra.node(switch)

def describe(name, flow):
    labels = [f"{s}({label(s)})" for s in flow.switch_path]
    print(f"{name}: {flow.outcome} over {' -> '.join(labels)}")
    print(f"        domains: {' -> '.join(flow.as_path)}")

describe("guest  ", guest)
describe("trusted", trusted)

shared = set(guest.switch_path) & set(trusted.switch_path)
print(f"\nswitches shared by the two flows: {shared or 'none'}")
guest_ranks = {label(s).rank for s in guest.switch_path}
print(f"labels on the guest route: {sorted(guest_ranks)} (lowest only)")
