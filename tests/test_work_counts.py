"""No ``ipaddress`` object and no ``dataclasses.asdict`` on the per-flow path.

Addresses are plain integers from the parser on, and a ``records`` line is
encoded from its record's fields.  This test counts the calls that either
regression would bring back: building, hashing, comparing or formatting an
``IPv4Address`` or ``IPv4Network``, and ``dataclasses.asdict``.  It runs
every golden case and the benchmark workloads at seed 1, building each world
first, and asserts that ``Simulation.run()`` and ``emit`` in every format
make none of these calls.  The counts are deterministic, so a lost
optimisation fails here at once, whatever the machine's speed.
"""

import dataclasses
import json
import sys
from collections import Counter
from ipaddress import IPv4Address, IPv4Network

import pytest
from test_golden import CASES, build_case
from test_workloads import WORKLOADS

from sdnsec.metrics import emit
from sdnsec.scenario import parse_scenario
from sdnsec.simulation import Simulation, build_world

COUNTED = (
    *((IPv4Address, name) for name in ("__init__", "__hash__", "__eq__", "__str__", "__format__")),
    *((IPv4Network, name) for name in ("__init__", "__hash__", "__eq__", "__str__", "__contains__")),
)
FORMATS = ("records", "table", "delimited")


class CallCounter:
    """Wraps every :data:`COUNTED` method and ``dataclasses.asdict`` (where
    it is defined and wherever an ``sdnsec`` module imported it by name);
    calls count only inside :meth:`counting`."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.active = False
        self._undo: list = []

    def _wrap(self, label: str, original):
        def counted(*args, **kwargs):
            if self.active:
                self.calls[label] += 1
            return original(*args, **kwargs)

        return counted

    def __enter__(self) -> "CallCounter":
        for cls, name in COUNTED:
            own = cls.__dict__.get(name)
            setattr(cls, name, self._wrap(f"{cls.__name__}.{name}", getattr(cls, name)))
            self._undo.append((cls, name, own))
        original = dataclasses.asdict
        wrapper = self._wrap("dataclasses.asdict", original)
        for module in [dataclasses, *(m for n, m in sys.modules.items() if n.split(".")[0] == "sdnsec")]:
            if getattr(module, "asdict", None) is original:
                module.asdict = wrapper
                self._undo.append((module, "asdict", original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, own in reversed(self._undo):
            if own is None:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
        self._undo.clear()

    def counting(self, work) -> Counter:
        """The counted calls ``work()`` makes."""
        self.calls.clear()
        self.active = True
        try:
            work()
        finally:
            self.active = False
        return Counter(self.calls)


def _world(case: str):
    if case.startswith("workload:"):
        document, _ = WORKLOADS[case.removeprefix("workload:")](1)
        parsed = parse_scenario(json.loads(json.dumps(document, sort_keys=True)))
        return build_world(parsed, parsed.costs)
    return build_case(case)


def _run_and_emit(world) -> None:
    report = Simulation(world).run()
    for fmt in FORMATS:
        emit(report, fmt)


def test_the_counters_see_each_counted_call():
    before = [cls.__dict__.get(name) for cls, name in COUNTED]
    with CallCounter() as counter:
        calls = counter.counting(
            lambda: (
                hash(IPv4Address("10.0.0.1")),
                f"{IPv4Address(1)}",
                IPv4Address(1) in IPv4Network("0.0.0.0/8"),
                dataclasses.asdict(dataclasses.make_dataclass("D", ["x"])(1)),
            )
        )
    assert {"IPv4Address.__hash__", "IPv4Address.__format__", "IPv4Network.__contains__", "dataclasses.asdict"} <= set(
        calls
    )
    # every wrapper is gone again
    assert [cls.__dict__.get(name) for cls, name in COUNTED] == before
    assert dataclasses.asdict.__module__ == "dataclasses"


@pytest.mark.parametrize("case", [*CASES, *(f"workload:{name}" for name in sorted(WORKLOADS))])
def test_run_and_emit_build_no_address_object_and_call_no_asdict(case):
    world = _world(case)
    with CallCounter() as counter:
        calls = counter.counting(lambda: _run_and_emit(world))
    assert calls == Counter()
