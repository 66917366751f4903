"""Performance trends: fabric size, repository size, domain count.

Latency and throughput are measured in deterministic event ticks, so these
curves are exactly reproducible; absolute wall-clock numbers depend on
hardware and are not the point.

Run:  python demos/07_performance_sweeps.py
"""

from dataclasses import replace

from sdnsec import bundled_scenario_path, load_scenario, run, sweep
from sdnsec.sweep import offer_horizon, pad_switches

# 1. Controller latency vs fabric size, with and without policy processing.
intra = load_scenario(bundled_scenario_path("intra_service_paths"))
print("mean packet-in latency (ticks) vs switch count:")
print("  switches  secured  baseline")
for total in (5, 8, 11, 14):
    secured = run(pad_switches(intra, total)).mean_latency()
    baseline = run(pad_switches(replace(intra, enforcement=False), total)).mean_latency()
    print(f"  {total:>8}  {secured:>7.1f}  {baseline:>8.1f}")

# 2. Flow establishment under a saturating request stream vs repository size.
saturation = load_scenario(bundled_scenario_path("pe_saturation"))
horizon = offer_horizon(saturation)
print("\nflows established within the offered window vs repository size:")
for point, report in sweep(saturation, "pe_count", [100, 200, 300, 400, 500]):
    print(f"  {point:>4} expressions: {report.established_within(horizon)}")

# 3. End-to-end establishment time vs number of domains crossed.
print("\nend-to-end establishment ticks vs domain count:")
for point, report in sweep(load_scenario(bundled_scenario_path("minimal")), "as_count", [1, 2, 3, 4]):
    flow = report.flows[0]
    print(f"  {point} domain(s): {flow.establishment_ticks} ticks over {' -> '.join(flow.as_path)}")
