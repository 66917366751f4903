"""Fast checks of the benchmark itself: ``python -m pytest benchmarks``.

Documents must be a pure function of the seed; two separate processes
(traced and untraced, so with different hash seeds) must agree on the
report digest and print every metric that ``BENCHMARK.json`` declares; and
a hook whose target has gone must turn into null metrics, not an error.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import HOOKS, Hook, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _text(name: str, seed: int) -> str:
    document, _ = WORKLOADS[name](seed)
    return json.dumps(document, sort_keys=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_documents_are_a_function_of_the_seed(name):
    assert _text(name, 7) == _text(name, 7)
    assert _text(name, 7) != _text(name, 8)
    assert "seed" not in json.loads(_text(name, 7))


def _run(trace: int) -> tuple[str, dict]:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "mesh_transit",
               "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    return done.stdout, json.loads(lines[-1])


def test_traced_and_untraced_runs_agree_and_print_every_metric():
    outputs = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        stdout, result = _run(trace)
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == declared
        assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())
        outputs[trace] = stdout
    digests = [re.search(r"records sha256 ([0-9a-f]{64})", out).group(1) for out in outputs.values()]
    documents = [re.search(r"document sha256 ([0-9a-f]{64})", out).group(1) for out in outputs.values()]
    assert digests[0] == digests[1]
    assert documents[0] == documents[1]


def test_missing_hook_target_reads_null_and_restores_the_rest():
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import sdnsec.controller
    import sdnsec.topology

    original = sdnsec.topology.find_switch_path
    hooks = tuple(hook for hook in HOOKS if hook.target != "find_as_paths")
    hooks += (Hook("sdnsec.topology", "find_as_paths_removed", "topology.find_as_paths"),)
    with Tracer(hooks) as tracer:
        assert sdnsec.topology.find_switch_path is not original
        assert sdnsec.controller.find_switch_path is sdnsec.topology.find_switch_path
    assert sdnsec.topology.find_switch_path is original
    assert sdnsec.controller.find_switch_path is original
    metrics = tracer.metrics()
    assert any("find_as_paths_removed" in warning for warning in tracer.warnings)
    assert metrics["topology.find_as_paths.calls"] is None
    assert metrics["topology.find_as_paths.useful_ratio"] is None
    assert metrics["topology.find_switch_path.calls"] == 0
