"""Intra-domain run: per-service pinned switch paths and the flow dump.

Two clients behind the same ingress switch reach two servers; policy pins
web traffic through one spine switch and file transfer through another.

Run:  python demos/03_service_path_pinning.py
"""

from dataclasses import replace

from sdnsec import bundled_scenario_path, build_world, format_flow_dump, load_scenario
from sdnsec.simulation import Simulation

scenario = load_scenario(bundled_scenario_path("intra_service_paths"))
world = build_world(scenario)
report = Simulation(world).run()

for flow in report.flows:
    print(f"{flow.src:>12} -> {flow.dst}: {flow.outcome} via {' -> '.join(flow.switch_path)}")

print("\nflow table of the web-path spine switch (SW5):")
print(format_flow_dump(world.switches["SW5"]), end="")

print("\nper-packet-in controller latency (ticks):")
for record in report.latencies:
    print(f"  domain={record.domain} arrival={record.arrival_tick} latency={record.latency}")

# Pre-installing the same policy outcome removes every packet-in.
proactive = Simulation(build_world(replace(scenario, mode="proactive"))).run()
print(f"\nproactive mode: packet_ins={proactive.counters['packet_ins']}, "
      f"delivered={proactive.counters['delivered']} (same paths, zero misses)")
