"""The benchmark's per-layer hooks name functions that exist, and their
observers can read what they measure.

``benchmarks/tracing.py`` patches each ``HOOKS`` target by module and
name, and a target that is gone only turns its metrics to null, so a
rename in ``sdnsec`` would otherwise pass every test here.  An observer
that can no longer read its counter (a switch's ``table`` and its ``len``,
a repository's ``len``) files it under ``LayerStats.unknown``, which also
turns a metric to null.

``dataplane.install`` counts ``Switch.install`` calls, so it reads the
rules written only while every rule goes through that method; a batch
written some other way would turn it into a silent undercount.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sdnsec.scenario import bundled_scenario_path, list_bundled_scenarios, load_scenario
from sdnsec.simulation import run

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


def test_every_observer_reads_its_counters_in_a_run():
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        run(load_scenario(bundled_scenario_path("four_domain_transit")))
    assert {name: stats.unknown for name, stats in tracer.stats.items() if stats.unknown} == {}
    # the two observers that read the program's objects ran
    assert tracer.stats["dataplane.lookup"].calls > 0
    assert tracer.stats["policy.select_policy"].calls > 0
    metrics = tracer.metrics()
    assert metrics["dataplane.lookup.table_len_mean"] > 0
    assert metrics["policy.select_policy.repo_len_mean"] > 0


@pytest.mark.parametrize("name", list_bundled_scenarios())
def test_traced_installs_are_the_rules_written(name):
    scenario = load_scenario(bundled_scenario_path(name))
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        counters = run(scenario).counters
    # build_world gives every switch its ARP rule
    arp_rules = sum(len(domain.switches) for domain in scenario.domains)
    written = arp_rules + counters["rules_installed"] + counters["proactive_installs"]
    assert tracer.stats["dataplane.install"].calls == written, counters
