"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line so the suite is auditable when run headless:

    pytest -s tests/test_acceptance.py
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

from sdnsec.dataplane import format_flow_dump
from sdnsec.defense import CapacityModel, ResponseMode, compute_thresholds
from sdnsec.interdomain import DomainKey, extend_handle, validate_handle
from sdnsec.labels import parse_label_constraint
from sdnsec.policy import Action, PolicyExpression, match_pe, select_policy
from sdnsec.scenario import bundled_scenario_path, load_scenario
from sdnsec.simulation import Simulation, build_world, run
from sdnsec.sweep import flood_response_series, offer_horizon, pad_switches, sweep
from sdnsec.topology import find_as_paths

from helpers import (
    CONDITION_FIELDS,
    dfs_all_paths,
    installs_per_window,
    link_adjacency,
    matching_pe,
    non_wildcard_fields,
    oracle_match,
    random_ctx,
    random_pe,
    records_digest,
    wildcarded,
)
from test_topology import make_world, random_as_links


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] FAIL: {name}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] PASS: {name} ({elapsed:.2f}s)")


def load(name):
    return load_scenario(bundled_scenario_path(name))


def test_intra_service_paths_and_flow_dump(pytestconfig):
    with criterion("intra service paths + switch flow dump"):
        started = time.perf_counter()
        world = build_world(load("intra_service_paths"))
        report = Simulation(world).run()
        http = report.flow("client_http", "172.56.16.6")
        ftp = report.flow("client_ftp", "172.56.16.8")
        assert http.outcome == "delivered"
        assert http.switch_path == ("SW1", "SW5", "SW4")
        assert ftp.outcome == "delivered"
        assert ftp.switch_path == ("SW1", "SW3", "SW4")
        dump = format_flow_dump(world.switches["SW5"])
        golden = (
            pytestconfig.rootpath / "tests" / "golden" / "service_paths_sw5_dump.txt"
        ).read_text()
        assert dump == golden
        lines = dump.splitlines()
        assert len(lines) == 3
        assert "action=FORWARD:2" in lines[0]  # all HTTP via port 2
        assert lines[1].startswith("priority=100 src_ip=172.56.16.6")  # server response
        assert "packet_type=ARP" in lines[2]  # discovery entry
        assert time.perf_counter() - started < 1.0


def test_four_domain_transit_handle_and_policy_removal():
    with criterion("inter-domain transit: handle journey + per-domain permits"):
        started = time.perf_counter()
        scenario = load("four_domain_transit")
        report = run(scenario)
        flow = report.flows[0]
        assert flow.outcome == "delivered"
        assert flow.as_path == ("AS1", "AS2", "AS3", "AS4")
        geq2 = parse_label_constraint("SL2+=")
        for transit in ("AS2", "AS3"):
            assert geq2.satisfies(scenario.domain(transit).label)
        for as_id, pe_id in [("AS1", "1"), ("AS2", "4"), ("AS3", "2"), ("AS4", "2")]:
            dropped = run(scenario.without_policy(as_id, pe_id)).flows[0]
            assert dropped.outcome == "dropped"
            assert dropped.drop_domain == as_id
        assert time.perf_counter() - started < 1.0


def test_roaming_byod_edge_enforcement():
    with criterion("roaming device: dropped at edge without permit, delivered with it"):
        scenario = load("roaming_byod")
        granted = run(scenario)
        assert granted.flows[0].outcome == "delivered"
        refused = run(scenario.without_policy("AS2", "8"))
        assert refused.flows[0].outcome == "dropped"
        assert refused.flows[0].drop_domain == "AS2"
        assert sum(1 for r in refused.installs if r.domain == "AS2") == 0


def test_unknown_transit_isolation():
    with criterion("unknown traffic isolated on lowest-label switches"):
        world = build_world(load("unknown_transit"))
        report = Simulation(world).run()
        guest = report.flow("guest", "192.168.52.80")
        trusted = report.flow("trusted", "192.168.52.90")
        assert guest.outcome == "delivered"
        assert trusted.outcome == "delivered"
        assert {world.controllers[world.switch_domain[s]].intra.node(s).rank for s in guest.switch_path} == {1}
        assert set(guest.switch_path) & set(trusted.switch_path) == set()


def test_threshold_arithmetic():
    with criterion("capacity thresholds: worked example + rational oracle"):
        assert compute_thresholds(CapacityModel(cc=1000, x=10, y=10)) == (100, 10)
        rng = random.Random(20260808)
        for _ in range(1000):
            cc, x, y = rng.randrange(1, 100_000), rng.randrange(1, 64), rng.randrange(1, 64)
            tsw, thost = compute_thresholds(CapacityModel(cc=cc, x=x, y=y))
            assert tsw == Fraction(cc, x)
            assert thost == Fraction(cc, x * y)
            assert thost * y == tsw and tsw * x == cc


def test_flooding_defense_shapes():
    with criterion("flooding curves: rising baseline, flat throttle, near-zero after block"):
        scenario = load("flood_single_domain")
        rates = [50, 100, 150, 200, 250]
        threshold = 100  # Thost for the scenario's capacity model
        series = flood_response_series(scenario, rates)
        baseline = [y for _, y in series["baseline"]]
        assert all(a < b for a, b in zip(baseline, baseline[1:]))
        for rate in (150, 200, 250):
            report = run(replace(scenario, defense_response=ResponseMode.THROTTLE).with_flood_rate(rate))
            per_window = installs_per_window(report, scenario.window_ticks, "10.9.0.66")
            assert per_window == {0: threshold, 1: threshold}, (rate, per_window)
        for rate in (150, 200, 250):
            report = run(replace(scenario, defense_response=ResponseMode.DROP_RULE).with_flood_rate(rate))
            per_window = installs_per_window(report, scenario.window_ticks, "10.9.0.66")
            assert sum(per_window.values()) <= threshold + 1
            assert per_window.get(1, 0) == 0  # nothing after detection
            legit = [f for f in report.flows if f.src == "legit"]
            assert sum(f.outcome == "delivered" for f in legit) == 5
        # legitimate host delivery identical across all responses
        for variant in (
            replace(scenario, enforcement=False),
            replace(scenario, defense_response=ResponseMode.THROTTLE),
            replace(scenario, defense_response=ResponseMode.DROP_RULE),
        ):
            report = run(variant)
            legit = [f for f in report.flows if f.src == "legit"]
            assert sum(f.outcome == "delivered" for f in legit) == 5


def test_sweep_trends():
    with criterion("performance trends: latency, repository size, domain count"):
        intra = load("intra_service_paths")
        previous = None
        for total in (5, 8, 11, 14):
            secured = run(pad_switches(intra, total)).mean_latency()
            baseline = run(pad_switches(replace(intra, enforcement=False), total)).mean_latency()
            assert secured > baseline
            if previous is not None:
                assert secured >= previous
            previous = secured
        saturation = load("pe_saturation")
        horizon = offer_horizon(saturation)
        counts = [
            report.established_within(horizon)
            for _, report in sweep(saturation, "pe_count", [100, 200, 300, 400, 500])
        ]
        assert all(a > b for a, b in zip(counts, counts[1:])), counts
        previous = None
        for _, report in sweep(load("minimal"), "as_count", [1, 2, 3, 4]):
            ticks = report.flows[0].establishment_ticks
            assert report.flows[0].outcome == "delivered"
            if previous is not None:
                assert ticks >= previous
            previous = ticks


def test_property_suites():
    with criterion("property suites: default deny, overrides, oracles, tampering, determinism"):
        rng = random.Random(424242)
        # default deny: an empty repository denies every context
        for _ in range(10_000):
            assert select_policy([], random_ctx(rng)) is None
        # deny-overrides
        for _ in range(300):
            ctx = random_ctx(rng)
            repo = [random_pe(rng, f"pe{i}") for i in range(5)]
            assert select_policy(repo + [PolicyExpression(id="zz", action=Action.DENY)], ctx).action is Action.DENY
        # wildcard monotonicity on matching pairs built field by field;
        # every condition field is non-wild in at least a quarter of them
        fixed = Counter()
        for _ in range(200):
            ctx = random_ctx(rng)
            pe = matching_pe(rng, ctx, "pe")
            assert match_pe(pe, ctx)
            fixed.update(non_wildcard_fields(pe))
            for field_name in CONDITION_FIELDS:
                assert match_pe(wildcarded(pe, field_name), ctx)
        assert min(fixed[name] for name in CONDITION_FIELDS) >= 200 // 4, fixed
        # match vs independent conjunction oracle: 10^4 pairs, full agreement
        agree = sum(
            match_pe(pe, ctx) == oracle_match(pe, ctx)
            for pe, ctx in (
                (random_pe(rng, f"p{i}"), random_ctx(rng)) for i in range(10_000)
            )
        )
        assert agree == 10_000
        # handle tamper suite: every single-field mutation is rejected
        keys = {"AS1": DomainKey(b"k1"), "AS2": DomainKey(b"k2")}
        handle = extend_handle(extend_handle(None, "f", "AS1", None, keys["AS1"]), "f", "AS2", None, keys["AS2"])

        assert validate_handle(handle, "f", keys)
        from dataclasses import replace as _replace

        # the flow id is the packet's and the origin is visited[0], so
        # another flow and another origin are mutants of the handle's inputs
        mutants = [
            (handle, "g"),
            (_replace(handle, visited=("AS3", "AS2")), "f"),
            (_replace(handle, visited=("AS2", "AS1")), "f"),
            (_replace(handle, visited=("AS1",)), "f"),
            (_replace(handle, tag="0" * 64), "f"),
        ]
        assert all(not validate_handle(m, flow, keys) for m, flow in mutants)
        # the domain route is the first path of a brute-force DFS oracle on
        # random 6-domain graphs
        for trial in range(60):
            links = random_as_links(rng, 6)
            labels = {f"AS{i}": rng.randrange(1, 5) for i in range(1, 7)}
            graph = make_world(links, labels)
            base = rng.randrange(1, 5)
            constraint = parse_label_constraint(f"SL{base}+=")
            assert find_as_paths(graph, "AS1", "AS6", constraint) == dfs_all_paths(
                link_adjacency(links), "AS1", "AS6", lambda n: labels[n] >= base
            )[:1]
        # determinism: two identical runs emit byte-identical reports
        for name in ("four_domain_transit", "unknown_transit"):
            assert records_digest(run(load(name))) == records_digest(run(load(name))), name
