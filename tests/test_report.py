"""A report's counters and drop reasons, over every pinned run.

The runs are the golden cases (every bundled scenario in both modes, and the
flood scenario under each defense response) and the benchmark workloads at
seed 1.  Every dropped flow carries a reason that ``DropReason`` names, and
every counter but the two event counts is a tally of the records.  One more
run counts a dropped flow of every reason, which no pinned run covers.
"""

from dataclasses import replace

import pytest
from helpers import tally_counters
from test_golden import CASES, _run
from test_workloads import WORKLOADS, run_workload

from sdnsec.controller import DropReason
from sdnsec.metrics import FlowRecord
from sdnsec.scenario import bundled_scenario_path, load_scenario
from sdnsec.simulation import Simulation, build_world, run

REASONS = {value for name, value in vars(DropReason).items() if not name.startswith("_")}

# counted as the events happen; no record carries them
EVENT_COUNTERS = ("proactive_installs", "table_full_events")


def _report(case: str):
    if case.startswith("workload:"):
        return run_workload(case.removeprefix("workload:"))[0]
    return _run(case)[1]


@pytest.mark.parametrize("case", [*CASES, *(f"workload:{name}" for name in sorted(WORKLOADS))])
def test_reasons_are_named_and_counters_tally_the_records(case):
    report = _report(case)
    assert {flow.reason for flow in report.flows if flow.outcome == "dropped"} <= REASONS
    events = {name: report.counters[name] for name in EVENT_COUNTERS}
    assert report.counters == {**tally_counters(report), **events}


def test_every_reason_is_counted_under_its_class():
    # the pinned runs drop flows for only some reasons, so a run with no
    # traffic is handed one dropped flow per reason
    scenario = replace(load_scenario(bundled_scenario_path("minimal")), traffic=())
    simulation = Simulation(build_world(scenario))
    simulation.report.flows = [
        FlowRecord(index, f"f{index}", "a", "b", 0, outcome="dropped", reason=reason)
        for index, reason in enumerate(sorted(REASONS))
    ]
    report = simulation.run()
    assert report.counters == {**tally_counters(report), **dict.fromkeys(EVENT_COUNTERS, 0)}


def test_a_run_without_packet_ins_has_mean_latency_zero():
    report = run(replace(load_scenario(bundled_scenario_path("minimal")), traffic=()))
    assert report.latencies == []
    assert report.mean_latency() == 0.0
