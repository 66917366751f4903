"""Every policy repository the project ships or benchmarks, pinned by SHA-256.

A document is one bundled scenario or one benchmark workload at seeds 1-3.
Its digest covers ``serialize_repository`` of each domain's parsed policies,
which sorts ports and profiles, so the digest does not depend on the string
hash seed.  A change to the policy parsers that should not move what they
build must leave these digests alone.  Regenerate the file with::

    PYTHONPATH=src python tests/test_policies_golden.py > tests/golden/policies_sha256.json
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdnsec import bundled_scenario_path, list_bundled_scenarios, load_scenario
from sdnsec.formats import format_compact_pe, parse_compact_pe, parse_repository, serialize_repository
from sdnsec.scenario import Scenario, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "policies_sha256.json"
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)
NAMES = [*list_bundled_scenarios(), *(f"{name}@{seed}" for name in sorted(WORKLOADS) for seed in SEEDS)]


def load(name: str) -> Scenario:
    """A bundled scenario by name, or a workload as ``<workload>@<seed>``."""
    workload, _, seed = name.partition("@")
    if not seed:
        return load_scenario(bundled_scenario_path(name))
    document, _ = WORKLOADS[workload](int(seed))
    return parse_scenario(document)


def digest(scenario: Scenario) -> str:
    repositories = [[domain.id, serialize_repository(list(domain.policies))] for domain in scenario.domains]
    return hashlib.sha256(json.dumps(repositories).encode()).hexdigest()


def test_digests_match_under_two_hash_seeds():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(NAMES)
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, __file__], env=env, capture_output=True, text=True, check=True, timeout=300
        ).stdout
        assert json.loads(out) == golden, f"PYTHONHASHSEED={hash_seed}"


@pytest.mark.parametrize("name", NAMES)
def test_both_formats_round_trip_every_repository(name):
    for domain in load(name).domains:
        pes = list(domain.policies)
        assert parse_repository(serialize_repository(pes)) == pes
        assert [parse_compact_pe(format_compact_pe(pe)) for pe in pes] == pes


if __name__ == "__main__":
    print(json.dumps({name: digest(load(name)) for name in NAMES}, indent=2, sort_keys=True))
