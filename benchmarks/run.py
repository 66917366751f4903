"""Host-time benchmark for sdnsec.

    python3 benchmarks/run.py --workload flood_table --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seconds 3      # every workload, one process each

One run generates the workload's scenario document from ``--seed``, then
repeats parse -> build -> simulate -> emit on it a fixed number of times
that fills about ``--seconds`` seconds (see REPETITION_S), after one warm-up
repetition that is checked but not timed, and reports medians over the
repetitions, scaled to reference speed (see REFERENCE_S).  The program sees only the generated document;
the document carries no ``seed`` field.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` one more repetition runs under the
per-layer hooks of ``tracing.py`` and the JSON carries the per-layer metrics
instead.  Every repetition is checked: flow conservation, the drop counters
adding up, each flow's outcome against the generator's expectation, and the
SHA-256 of ``emit(report, "records")`` identical across repetitions,
traced or not.  See ``benchmarks/README.md`` for the workloads and metrics.

Exit status is 0 when the run completed (the JSON says whether outputs were
correct) and 2 when the benchmark cannot start, for example when the sdnsec
sources are not next to it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from ipaddress import IPv4Address
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_REPETITIONS = 3

# On a shared virtual machine host speed drifts by tens of percent within
# minutes (other tenants, shared caches), which no median over one run
# removes.  So between
# repetitions the benchmark times a fixed pure-Python reference task that
# allocates, scans, hashes and sorts objects much as the simulator does, and
# scales each repetition's times by REFERENCE_S over the mean of the reference
# times taken just before and just after it.  The task does not touch sdnsec,
# so a change to the program cannot move it.  REFERENCE_S is the task's
# median time, when quiet, on the machine the baseline in README.md was
# taken on.
REFERENCE_S = 0.036

# Host seconds of one repetition, its reference task included, on the
# shared 2-vCPU machine the baseline was taken on, at its usual (not quiet)
# speed.  A run makes round(--seconds / REPETITION_S) repetitions, at least
# MIN_REPETITIONS.  The count is not taken from the clock, so that
# ``attempted`` and ``failed`` depend only on the arguments and two runs with
# the same arguments report the same counts.
REPETITION_S = {"flood_table": 1.6, "acl_proactive": 1.3, "mesh_transit": 1.3}

END_TO_END_UNITS = {
    "setup_s": "s",
    "flows_per_s": "1/s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
}


def _load_program():
    """Import the program from ``src/`` beside the benchmark, or exit 2."""
    if not (ROOT / "src" / "sdnsec" / "__init__.py").is_file():
        print(f"benchmark: no sdnsec sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from sdnsec import metrics, scenario, simulation

    return scenario, simulation, metrics


@dataclass(frozen=True)
class _Item:
    key: int
    name: str | None
    address: IPv4Address


def reference_seconds() -> float:
    """Time the fixed reference task (see REFERENCE_S): one pass that
    allocates, scans, hashes and sorts a large table, then repeated
    attribute-matching scans of a small one, like rule and policy lookups."""
    gc.collect()
    start = time.perf_counter()
    table = [_Item(i, None if i % 3 else f"k{i % 97}", IPv4Address(i)) for i in range(20_000)]
    for probe in range(0, 20_000, 1_000):
        for item in table:
            if item.key == probe and (item.name is None or item.name == "k0"):
                break
    totals: dict[str | None, int] = {}
    for item in table:
        totals[item.name] = totals.get(item.name, 0) + item.key
    sorted(table, key=lambda item: (item.key % 97, -item.key))
    small = table[:1_500]
    for probe in range(40):
        address = IPv4Address(probe * 37)
        for item in small:
            if item.address == address and item.key % 50 == probe % 50 and item.name is None:
                break
    return time.perf_counter() - start


class Repetition:
    """Timings, digest and fingerprint of one parse -> build -> run -> emit."""

    def __init__(self, program, text: str, expectation):
        scenario, simulation, metrics = program
        gc.collect()  # start every repetition from the same heap state
        t0 = time.perf_counter()
        parsed = scenario.parse_scenario(json.loads(text))
        world = simulation.build_world(parsed, parsed.costs)
        t1 = time.perf_counter()
        report = simulation.Simulation(world).run()
        t2 = time.perf_counter()
        records = metrics.emit(report, "records")
        t3 = time.perf_counter()
        self.setup_s, self.run_s, self.wall_s = t1 - t0, t2 - t1, t3 - t0
        self.digest = hashlib.sha256(records.encode()).hexdigest()
        self.offered = len(report.flows)
        self.stalled = sum(1 for flow in report.flows if flow.reason == "STALLED")
        self.problems = _check(report, expectation)
        self.stats = _fingerprint(report)


# end-to-end timings of one repetition, scaled by its speed factor
_TIMED = {
    "setup_s": lambda rep, factor: rep.setup_s * factor,
    "flows_per_s": lambda rep, factor: rep.offered / (rep.run_s * factor),
    "wall_s": lambda rep, factor: rep.wall_s * factor,
}


def _check(report, expectation) -> list[str]:
    problems = []
    if not report.conservation_holds():
        problems.append("conservation_holds() is false")
    counters = report.counters
    dropped = sum(value for key, value in counters.items() if key.startswith("dropped_"))
    if counters.get("offered") != len(report.flows) or counters.get("delivered", 0) + dropped != len(report.flows):
        problems.append(f"counters do not add up to the offered flows: {counters}")
    problems.extend(expectation.violations(report.flows))
    return problems


def _fingerprint(report) -> dict:
    """Simulated (tick-based) statistics, printed so a performance change
    can show that behaviour did not move."""
    from tracing import percentile

    delivered = [flow for flow in report.flows if flow.outcome == "delivered"]
    waits = sorted(record.start_tick - record.arrival_tick for record in report.latencies)
    drops: dict[str, int] = {}
    for flow in report.flows:
        if flow.outcome != "delivered":
            drops[flow.reason] = drops.get(flow.reason, 0) + 1
    return {
        "offered": len(report.flows),
        "delivered": len(delivered),
        "drops": dict(sorted(drops.items())),
        "mean_establishment_ticks": (
            round(sum(flow.establishment_ticks for flow in delivered) / len(delivered), 3) if delivered else 0
        ),
        "controller_wait_p50_ticks": percentile(waits, 0.50),
        "controller_wait_p99_ticks": percentile(waits, 0.99),
    }


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _attempt(program, text: str, expectation, log: list[str]) -> Repetition | None:
    """One repetition; an exception counts as a failed repetition."""
    try:
        return Repetition(program, text, expectation)
    except Exception:  # noqa: BLE001 - the benchmark reports and keeps measuring
        log.append(traceback.format_exc())
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    program = _load_program()
    from tracing import Tracer, unit_of
    from workloads import WORKLOADS

    document, expectation = WORKLOADS[name](seed)
    text = json.dumps(document, sort_keys=True)
    offered = len(expectation.outcomes)
    errors: list[str] = []

    warmup = _attempt(program, text, expectation, errors)
    reps: list[Repetition | None] = []
    references = [reference_seconds()]
    for _ in range(max(MIN_REPETITIONS, round(seconds / REPETITION_S[name]))):
        reps.append(_attempt(program, text, expectation, errors))
        references.append(reference_seconds())
    # per repetition: factor that scales its host seconds to reference speed
    scaled = [
        (rep, 2 * REFERENCE_S / (before + after))
        for rep, before, after in zip(reps, references, references[1:])
        if rep is not None
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = tracer = None
    if trace:
        with Tracer() as tracer:
            traced = _attempt(program, text, expectation, errors)

    done = [rep for rep in [warmup, *reps, traced] if rep is not None]
    attempted = offered * (len(reps) + 1 + (1 if trace else 0))
    failed = offered * (len(reps) + 1 + (1 if trace else 0) - len(done))
    problems = sorted({problem for rep in done for problem in rep.problems})
    digests = sorted({rep.digest for rep in done})
    failed += sum(rep.offered if rep.problems else rep.stalled for rep in done)
    if len(digests) > 1:
        problems.append(f"report digests differ between repetitions: {digests}")
    correct = not errors and not problems

    lines = [
        f"workload {name} seed {seed}: {len(reps)} timed repetitions of {offered} flows after one warm-up",
        f"document sha256 {hashlib.sha256(text.encode()).hexdigest()}",
        f"records sha256 {digests[0] if len(digests) == 1 else digests}",
    ]
    if done:
        lines.append("simulated " + json.dumps(done[0].stats, sort_keys=True))
    lines.append(f"failed_flow_ratio {failed / attempted:.6f} ratio ({failed} of {attempted} flows)")
    if trace:
        if traced is not None and scaled:
            overhead = traced.wall_s - _median(rep.wall_s for rep, _ in scaled)
        else:
            overhead = None
        metrics = dict(tracer.metrics(), **{"trace.overhead_s": overhead})
        units = {key: unit_of(key) for key in metrics}
        lines.extend(f"warning: {warning}" for warning in tracer.warnings)
        lines.append(f"  {'layer (traced repetition)':<34} {'total_s':>9} {'self_s':>9} {'share':>7}")
        lines.extend(
            f"  {layer:<34} {total:9.4f} {own:9.4f} {share:7.1%}" for layer, total, own, share in tracer.shares()
        )
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{name}-{seed}.jsonl"
        count = tracer.write_spans(span_file)
        lines.append(f"{count} spans written to {span_file.relative_to(ROOT)}")
    else:
        metrics = {key: _median(value(rep, factor) for rep, factor in scaled) for key, value in _TIMED.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
        unscaled = " ".join(f"{key} {_median(value(rep, 1.0) for rep, _ in scaled)}" for key, value in _TIMED.items())
        lines.append(f"unscaled medians: {unscaled} speed factor {_median(factor for _, factor in scaled)}")
        units = END_TO_END_UNITS
    for message in errors + problems:
        lines.append(f"error: {message.rstrip()}")
    lines.extend(
        f"  {key:<44} {'null' if value is None else format(value, '.6g'):>14} {units[key]}"
        for key, value in metrics.items()
    )
    print("\n".join(lines))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another, so that peak
    memory is per workload."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="about how long to repeat the workload; sets the repetition count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
