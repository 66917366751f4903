"""Every demo script runs to completion against the sources in ``src``, and
prints what ``golden/demos_sha256.json`` pins, by SHA-256 of its stdout.

A change that should not move behaviour must leave these digests alone.
After an intended change to a demo's output, regenerate them with::

    PYTHONPATH=src python tests/test_demos.py > tests/golden/demos_sha256.json
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos_sha256.json"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def stdout_digest(completed: subprocess.CompletedProcess) -> str:
    return hashlib.sha256(completed.stdout.encode()).hexdigest()


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_cleanly(demo):
    completed = run_demo(demo)
    assert completed.returncode == 0, completed.stderr
    assert stdout_digest(completed) == json.loads(GOLDEN.read_text())[demo.stem]


if __name__ == "__main__":
    print(json.dumps({demo.stem: stdout_digest(run_demo(demo)) for demo in DEMOS}, indent=2, sort_keys=True))
