"""Records emissions of every bundled scenario, pinned by SHA-256.

A change that should not move behaviour must leave these digests alone.
After an intended behaviour change, regenerate the file with::

    PYTHONPATH=src python tests/test_golden.py > tests/golden/records_sha256.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from sdnsec import bundled_scenario_path, emit, list_bundled_scenarios, load_scenario, run

GOLDEN = Path(__file__).parent / "golden" / "records_sha256.json"
MODES = ("reactive", "proactive")
CASES = [f"{name}/{mode}" for name in list_bundled_scenarios() for mode in MODES]


def records_digest(case: str) -> str:
    name, mode = case.split("/")
    scenario = load_scenario(bundled_scenario_path(name)).with_mode(mode)
    return hashlib.sha256(emit(run(scenario), "records").encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_records_digest_unchanged(case):
    assert records_digest(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    print(json.dumps({case: records_digest(case) for case in CASES}, indent=2, sort_keys=True))
