"""The benchmark workloads, pinned by the SHA-256 of their ``records`` output.

Each document of ``benchmarks/workloads.py`` is built at seeds 1 to 3 and run
the way one benchmark repetition runs it: parse, build, simulate, emit.  A change
that should not move behaviour must leave these digests alone, and every
flow must end in an outcome the workload's generator allows.  After an
intended behaviour change, regenerate the file with::

    PYTHONPATH=src python tests/test_workloads.py > tests/golden/workloads_sha256.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from test_golden import build_case

from sdnsec.metrics import emit
from sdnsec.scenario import parse_scenario
from sdnsec.simulation import Simulation, build_world

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)


def run_workload(name: str, seed: int = 1):
    """The workload's report and its generator's expectation."""
    document, expectation = WORKLOADS[name](seed)
    parsed = parse_scenario(json.loads(json.dumps(document, sort_keys=True)))
    return Simulation(build_world(parsed, parsed.costs)).run(), expectation


def workload_world(name: str, seed: int = 1):
    """The workload's world at ``seed``, read the way one benchmark
    repetition reads it, built and not yet run."""
    document, _ = WORKLOADS[name](seed)
    parsed = parse_scenario(json.loads(json.dumps(document, sort_keys=True)))
    return build_world(parsed, parsed.costs)


def case_world(case: str):
    """The world of ``case``, built and not yet run: a golden case
    (``scenario/mode``, see ``test_golden``) or a workload, at seed 1 as
    ``workload:name`` and at another seed as ``workload:name@seed``."""
    if case.startswith("workload:"):
        name, _, seed = case.removeprefix("workload:").partition("@")
        return workload_world(name, int(seed or 1))
    return build_case(case)


def _run(name: str, seed: int):
    report, expectation = run_workload(name, seed)
    return hashlib.sha256(emit(report, "records").encode()).hexdigest(), expectation.violations(report.flows)


def _digests(name: str) -> dict[str, str]:
    """``{seed: digest}`` for one workload, asserting its expectation at each seed."""
    digests = {}
    for seed in SEEDS:
        digest, violations = _run(name, seed)
        assert violations == [], f"seed {seed}"
        digests[str(seed)] = digest
    return digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_records_digest_unchanged(name):
    assert _digests(name) == json.loads((GOLDEN / "workloads_sha256.json").read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: _digests(name) for name in sorted(WORKLOADS)}, indent=2, sort_keys=True))
