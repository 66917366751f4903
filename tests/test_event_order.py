"""The event loop against a heap-only reference loop.

A handler returns its flow's next step.  ``Simulation`` runs that step at
once when it would run next and pushes it on the heap otherwise;
``helpers.HeapSimulation`` pushes every step on the heap and pops it.  Both
must run the same events in the same (tick, insertion) order: equal reports
(flow, latency and install records, and counters) and equal controller
event logs on every golden case, in both modes, and on the benchmark
workloads at seeds 1 to 3.  A property runs random chains of steps, with
tied start ticks and steps at the same or later ticks, through both loops
and compares the order the handlers ran in.
"""

import pytest
from helpers import HeapSimulation, queue_event
from hypothesis import given, settings, strategies as st
from test_golden import CASES
from test_workloads import SEEDS, WORKLOADS, case_world

from sdnsec.scenario import bundled_scenario_path, load_scenario
from sdnsec.simulation import Simulation, build_world

RUNS = [*CASES, *(f"workload:{name}@{seed}" for name in sorted(WORKLOADS) for seed in SEEDS)]


@pytest.mark.parametrize("case", RUNS)
def test_the_loop_runs_events_in_the_heap_only_order(case):
    runs = []
    for loop in (Simulation, HeapSimulation):
        world = case_world(case)
        report = loop(world).run()
        runs.append((report, {domain: ctrl.events for domain, ctrl in world.controllers.items()}))
    (report, events), (expected, expected_events) = runs
    assert report.flows == expected.flows
    assert report.latencies == expected.latencies
    assert report.installs == expected.installs
    assert report.counters == expected.counters
    assert events == expected_events


# one chain of steps, as one flow's: the tick of its first event and the
# delay before each further step; small ticks and delays make ties common
CHAIN = st.tuples(st.integers(0, 6), st.lists(st.integers(0, 3), max_size=5))
# the loop reads nothing of the world; a Simulation needs one to be built
WORLD = build_world(load_scenario(bundled_scenario_path("minimal")))


class _Schedule:
    """Runs chains of steps through one loop and logs each handler call as
    ``(tick, chain, steps left)``."""

    def __init__(self, loop: type[Simulation], chains) -> None:
        self.sim = loop(WORLD)
        self.ran: list[tuple[int, int, int]] = []
        for chain, (tick, delays) in enumerate(chains):
            queue_event(self.sim, tick, self.step, chain, delays)
        self.sim._run_events()

    def step(self, tick: int, chain: int, delays: list[int]):
        self.ran.append((tick, chain, len(delays)))
        if not delays:
            return None
        return tick + delays[0], self.step, (chain, delays[1:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(CHAIN, max_size=8))
def test_random_schedules_run_in_tick_then_insertion_order(chains):
    ran = _Schedule(Simulation, chains).ran
    assert ran == _Schedule(HeapSimulation, chains).ran
    assert len(ran) == sum(1 + len(delays) for _, delays in chains)
    assert [tick for tick, _, _ in ran] == sorted(tick for tick, _, _ in ran)
