"""Flooding defense: capacity thresholds, throttling and block rules.

One host floods the controller with new-flow requests. The capacity model
gives each switch and each host a request budget; above it, the controller
either throttles (flat admission at the threshold) or installs a one-time
block rule at the offender's switch (admissions collapse to zero).

Run:  python demos/06_flood_defense.py
"""

from dataclasses import replace

from sdnsec import (
    CapacityModel,
    DropReason,
    ResponseMode,
    bundled_scenario_path,
    compute_thresholds,
    emit_series,
    flood_response_series,
    load_scenario,
    run,
)

capacity = CapacityModel(cc=400, x=2, y=2)
tsw, thost = compute_thresholds(capacity)
print(f"capacity 400 req/s over 2 switches, 2 hosts each: per-switch {tsw}, per-host {thost}")

scenario = load_scenario(bundled_scenario_path("flood_single_domain"))
rates = [50, 100, 150, 200, 250]
series = flood_response_series(scenario, rates)
print("\nattacker flow installations per offered rate (two windows):")
print(emit_series(series, "table"), end="")

# Under the block-rule response the offender is cut off at its own switch;
# a legitimate host in the same domain is untouched.
report = run(replace(scenario, defense_response=ResponseMode.DROP_RULE))
legit = [f for f in report.flows if f.src == "legit"]
print(f"\nblock-rule run: legit host delivered {sum(f.outcome == 'delivered' for f in legit)}/5 flows")
blocked = [f for f in report.flows if f.reason == DropReason.BLOCKED_AT_SWITCH]
print(f"flood packets stopped at the switch without reaching the controller: {len(blocked)}")
