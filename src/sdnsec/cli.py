"""Command-line front end: run scenarios, sweep axes, dump flow tables.

``sdnsec run <scenario>`` executes one scenario and emits its report;
``sweep`` repeats a run across an axis; ``dump-flows`` prints one switch's
flow table after a run; ``validate`` checks a scenario document and exits
nonzero on the first schema violation.  A scenario argument is either a file
path or the name of a bundled scenario.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .dataplane import format_flow_dump
from .metrics import emit, emit_series
from .scenario import Scenario, ScenarioError, bundled_scenario_path, list_bundled_scenarios, load_scenario
from .simulation import Simulation, build_world
from .sweep import SWEEP_AXES, flood_response_series, sweep


def _load(ref: str) -> Scenario:
    path = Path(ref)
    if not path.exists() and not ref.endswith(".json"):
        path = bundled_scenario_path(ref)
    return load_scenario(path)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    enforcement = scenario.enforcement and not args.baseline
    return replace(scenario, mode=args.mode or scenario.mode, enforcement=enforcement)


def cmd_run(args) -> int:
    scenario = _apply_overrides(_load(args.scenario), args)
    report = Simulation(build_world(scenario)).run()
    _write(emit(report, args.emit), args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.compare_defenses and args.axis != "request_rate":
        print("error: --compare-defenses sweeps flood rates; it needs --axis request_rate", file=sys.stderr)
        return 2
    if args.emit is not None and not args.compare_defenses:
        print("error: --emit formats the --compare-defenses series only", file=sys.stderr)
        return 2
    scenario = _apply_overrides(_load(args.scenario), args)
    points = [int(p) for p in args.points.split(",")]
    if args.compare_defenses:
        series = flood_response_series(scenario, points)
        _write(emit_series(series, args.emit or "delimited"), args.out)
        return 0
    out_lines = []
    for point, report in sweep(scenario, args.axis, points):
        counters = " ".join(f"{k}={v}" for k, v in sorted(report.counters.items()))
        out_lines.append(f"{args.axis}={point} mean_latency={report.mean_latency()} {counters}")
    _write("\n".join(out_lines) + "\n", args.out)
    return 0


def cmd_dump_flows(args) -> int:
    scenario = _apply_overrides(_load(args.scenario), args)
    world = build_world(scenario)
    if args.switch not in world.switches:
        print(f"error: no switch {args.switch!r} in scenario", file=sys.stderr)
        return 2
    Simulation(world).run()
    _write(format_flow_dump(world.switches[args.switch]), args.out)
    return 0


def cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    print(
        f"ok: {scenario.name}: {len(scenario.domains)} domains,"
        f" {sum(len(d.switches) for d in scenario.domains)} switches,"
        f" {sum(len(d.hosts) for d in scenario.domains)} hosts,"
        f" {sum(len(d.policies) for d in scenario.domains)} policy expressions,"
        f" {len(scenario.traffic)} traffic entries"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdnsec",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="bundled scenarios: " + ", ".join(list_bundled_scenarios()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario file path or bundled scenario name")
        p.add_argument("--mode", choices=("reactive", "proactive"))
        p.add_argument("--baseline", action="store_true", help="disable policy processing")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p_run = sub.add_parser("run", help="execute one scenario and emit its report")
    common(p_run)
    p_run.add_argument("--emit", choices=("table", "delimited", "records"), default="table")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario once per axis point")
    common(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--points", required=True, help="comma-separated axis values")
    p_sweep.add_argument(
        "--compare-defenses",
        action="store_true",
        help="emit baseline/threshold/drop-rule series over a request_rate axis",
    )
    p_sweep.add_argument(
        "--emit",
        choices=("table", "delimited", "records"),
        help="format of the --compare-defenses series (default: delimited)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_dump = sub.add_parser("dump-flows", help="run a scenario, then dump one switch's flow table")
    common(p_dump)
    p_dump.add_argument("--switch", required=True)
    p_dump.set_defaults(func=cmd_dump_flows)

    p_val = sub.add_parser("validate", help="check a scenario document")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
