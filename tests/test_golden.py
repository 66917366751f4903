"""Outputs of every bundled scenario, pinned by SHA-256.

No bundled scenario enables a defense response, so the flood scenario is
pinned once more under each response (``flood_single_domain+throttle`` and
``flood_single_domain+drop_rule``).

``records_sha256.json`` pins the ``records`` emission; ``events_sha256.json``
pins every controller's event log and the report's latency records, which
carry the drop ticks and matched policies that ``records`` does not.

A change that should not move behaviour must leave these digests alone.
After an intended behaviour change, regenerate a file with::

    PYTHONPATH=src python tests/test_golden.py records > tests/golden/records_sha256.json
    PYTHONPATH=src python tests/test_golden.py events > tests/golden/events_sha256.json
"""

import hashlib
import json
import sys
from dataclasses import astuple, replace
from pathlib import Path

import pytest

from sdnsec import bundled_scenario_path, emit, list_bundled_scenarios, load_scenario
from sdnsec.defense import ResponseMode
from sdnsec.simulation import Simulation, build_world

GOLDEN = Path(__file__).parent / "golden"
MODES = ("reactive", "proactive")
NAMES = [
    *list_bundled_scenarios(),
    *(f"flood_single_domain+{response.value}" for response in (ResponseMode.THROTTLE, ResponseMode.DROP_RULE)),
]
CASES = [f"{name}/{mode}" for name in NAMES for mode in MODES]


def build_case(case: str):
    """The world of one golden case, built and not yet run."""
    name, mode = case.split("/")
    name, _, response = name.partition("+")
    scenario = replace(load_scenario(bundled_scenario_path(name)), mode=mode)
    if response:
        scenario = replace(scenario, defense_response=ResponseMode(response))
    return build_world(scenario)


def _run(case: str):
    world = build_case(case)
    return world, Simulation(world).run()


def records_digest_of(report) -> str:
    return hashlib.sha256(emit(report, "records").encode()).hexdigest()


def events_trail_digest(world, report) -> str:
    trail = {
        "events": {domain: [astuple(e) for e in ctrl.events] for domain, ctrl in world.controllers.items()},
        "latencies": [astuple(record) for record in report.latencies],
    }
    return hashlib.sha256(json.dumps(trail, sort_keys=True).encode()).hexdigest()


def records_digest(case: str) -> str:
    return records_digest_of(_run(case)[1])


def events_digest(case: str) -> str:
    return events_trail_digest(*_run(case))


DIGESTS = {"records": records_digest, "events": events_digest}


@pytest.mark.parametrize("case", CASES)
def test_records_digest_unchanged(case):
    assert records_digest(case) == json.loads((GOLDEN / "records_sha256.json").read_text())[case]


@pytest.mark.parametrize("case", CASES)
def test_events_and_latencies_digest_unchanged(case):
    assert events_digest(case) == json.loads((GOLDEN / "events_sha256.json").read_text())[case]


if __name__ == "__main__":
    digest = DIGESTS[sys.argv[1] if len(sys.argv) > 1 else "records"]
    print(json.dumps({case: digest(case) for case in CASES}, indent=2, sort_keys=True))
