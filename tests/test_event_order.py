"""The event loop against a heap-only reference loop.

``Simulation`` keeps one event aside when it is scheduled strictly earlier
than the heap's head, and runs the lesser of it and the heap's head;
``helpers.HeapSimulation`` pushes every event on the heap and pops it.  Both
must run the same events in the same (tick, insertion) order: equal reports
(flow, latency and install records, and counters) and equal controller
event logs on every golden case, in both modes, and on the benchmark
workloads at seeds 1 to 3.  A property runs random schedules, with tied
ticks and events that schedule follow-ups at the same or later ticks,
through both loops and compares the order the handlers ran in.
"""

import pytest
from helpers import HeapSimulation
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


# one event: its tick (a delay after its parent's tick, for a follow-up) and
# the follow-ups it schedules when it runs; small ticks make ties common
EVENT = st.recursive(
    st.tuples(st.integers(0, 3), st.just(())),
    lambda follow_ups: st.tuples(st.integers(0, 3), st.lists(follow_ups, max_size=3).map(tuple)),
    max_leaves=12,
)
# the loop reads nothing of the world; a Simulation needs one to be built
WORLD = build_world(load_scenario(bundled_scenario_path("minimal")))


class _Schedule:
    """Runs one schedule through one loop and logs each handler call as
    ``(tick, path)``, the path naming the event by its place in the
    schedule."""

    def __init__(self, loop: type[Simulation], schedule) -> None:
        self.sim = loop(WORLD)
        self.ran: list[tuple[int, tuple[int, ...]]] = []
        for index, (tick, follow_ups) in enumerate(schedule):
            self.sim._schedule(tick, self.handle, (index,), follow_ups)
        self.sim._run_events()

    def handle(self, tick: int, path: tuple[int, ...], follow_ups) -> None:
        self.ran.append((tick, path))
        for index, (delay, more) in enumerate(follow_ups):
            self.sim._schedule(tick + delay, self.handle, (*path, index), more)


def _count(event) -> int:
    return 1 + sum(_count(follow_up) for follow_up in event[1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(EVENT, max_size=8))
def test_random_schedules_run_in_tick_then_insertion_order(schedule):
    ran = _Schedule(Simulation, schedule).ran
    assert ran == _Schedule(HeapSimulation, schedule).ran
    assert len(ran) == sum(_count(event) for event in schedule)
    assert [tick for tick, _ in ran] == sorted(tick for tick, _ in ran)
