"""A flow crossing four domains: handles, transfer tokens, per-domain permits.

Run:  python demos/04_interdomain_handles.py
"""

from sdnsec import build_world, bundled_scenario_path, load_scenario, run
from sdnsec.simulation import Simulation

scenario = load_scenario(bundled_scenario_path("four_domain_transit"))
world = build_world(scenario)
report = Simulation(world).run()
flow = report.flows[0]

print(f"flow {flow.flow_id}: {flow.outcome}")
print("  domains visited (from the delivered handle):", " -> ".join(flow.as_path))
print("  switch-level route:                          ", " -> ".join(flow.switch_path))

print("\ncontroller event log:")
for as_id, ctrl in world.controllers.items():
    for event in ctrl.events:
        print(
            f"  tick={event.tick} domain={as_id} verdict={event.verdict} reason={event.reason!r}"
            f" pe={event.matched_pe} rules={event.rules_installed}"
            f" service_ticks={event.service_ticks} [{event.summary}]"
        )

# Every domain holds its own permit; removing any single one strands the
# flow exactly there (default deny at that domain).
print("\nremoving one permit at a time:")
for as_id, pe_id in [("AS1", "1"), ("AS2", "4"), ("AS3", "2"), ("AS4", "2")]:
    variant = run(scenario.without_policy(as_id, pe_id))
    outcome = variant.flows[0]
    print(f"  without {as_id}/{pe_id}: {outcome.outcome} at {outcome.drop_domain} ({outcome.reason})")
