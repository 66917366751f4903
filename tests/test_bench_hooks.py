"""The benchmark's per-layer hooks name functions that exist.

``benchmarks/tracing.py`` patches each ``HOOKS`` target by module and
name, and a target that is gone only turns its metrics to null, so a
rename in ``sdnsec`` would otherwise pass every test here.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        pass
    assert tracer.warnings == []
    assert tracer.missing == set()
