import csv
import io
import json
from dataclasses import replace

import pytest

from sdnsec.metrics import emit_series
from sdnsec.policy import Action, PolicyExpression
from sdnsec.scenario import FloodSpec, ScenarioError, bundled_scenario_path, load_scenario
from sdnsec.simulation import run
from sdnsec.sweep import (
    chain_scenario,
    flood_response_series,
    offer_horizon,
    pad_policies,
    pad_switches,
    sweep,
)

from helpers import records_digest


def load(name):
    return load_scenario(bundled_scenario_path(name))


def test_establishment_falls_as_repository_grows():
    scenario = load("pe_saturation")
    horizon = offer_horizon(scenario)
    counts = [
        report.established_within(horizon)
        for _, report in sweep(scenario, "pe_count", [100, 200, 300, 400, 500])
    ]
    assert all(a > b for a, b in zip(counts, counts[1:])), counts


def test_single_point_sweep_equals_run():
    scenario = load("pe_saturation")
    current = len(scenario.domains[0].policies)
    ((point, swept),) = sweep(scenario, "pe_count", [current])
    assert point == current
    direct = run(scenario)
    assert records_digest(swept) == records_digest(direct)


def test_offer_horizon_follows_the_defense_window():
    # one flood second lasts one defense window, in the simulation that
    # offers the flood and in the horizon that measures it
    bundled = load("flood_single_domain")
    flood = [item for item in bundled.traffic if isinstance(item, FloodSpec)]
    scenario = replace(bundled, traffic=tuple(flood), window_ticks=250_000)
    assert max(flow.request_tick for flow in run(scenario).flows) == 499_000
    assert offer_horizon(scenario) == 500_000


def test_offer_horizon_of_plain_flows_is_the_last_request():
    scenario = load("minimal")
    first = scenario.traffic[0]
    assert offer_horizon(replace(scenario, traffic=(replace(first, at=7), replace(first, at=3)))) == 7


def test_switch_count_sweep_runs_each_padded_fabric():
    scenario = load("intra_service_paths")
    results = sweep(scenario, "switch_count", [5, 8])
    assert [point for point, _ in results] == [5, 8]
    for total, report in results:
        assert records_digest(report) == records_digest(run(pad_switches(scenario, total)))


def test_latency_grows_with_fabric_and_exceeds_baseline():
    scenario = load("intra_service_paths")
    previous = None
    for total in (5, 8, 11, 14):
        secured = run(pad_switches(scenario, total)).mean_latency()
        baseline = run(pad_switches(replace(scenario, enforcement=False), total)).mean_latency()
        assert secured > baseline
        if previous is not None:
            assert secured >= previous
        previous = secured


def test_establishment_time_grows_with_domain_count():
    previous = None
    for count, report in sweep(load("minimal"), "as_count", [1, 2, 3, 4]):
        flow = report.flows[0]
        assert flow.outcome == "delivered"
        assert len(flow.as_path) == count
        if previous is not None:
            assert flow.establishment_ticks >= previous
        previous = flow.establishment_ticks


@pytest.mark.parametrize("mode", ["reactive", "proactive"])
def test_chains_longer_than_the_default_ttl_deliver(mode):
    # past 7 domains the default probe TTL of 6 would leave AS1 without a route
    ticks = []
    for count, report in sweep(replace(load("minimal"), mode=mode), "as_count", [8, 12]):
        flow = report.flows[0]
        assert flow.outcome == "delivered", (count, flow.reason)
        assert len(flow.as_path) == count
        ticks.append(flow.establishment_ticks)
    assert ticks[0] < ticks[1]


def test_chain_scenario_shape():
    scenario = chain_scenario(3)
    assert [d.id for d in scenario.domains] == ["AS1", "AS2", "AS3"]
    assert scenario.links == (("AS1", "AS2"), ("AS2", "AS3"))
    report = run(scenario)
    assert report.flows[0].as_path == ("AS1", "AS2", "AS3")


def test_a_chain_is_read_as_a_scenario_document():
    # the reader checks a chain's world as it does a file's: a misspelt
    # mode is an error, not a reactive run reported under that name
    with pytest.raises(ScenarioError) as caught:
        chain_scenario(3, mode="proactiv")
    assert caught.value.path == "$.mode"
    for index, domain in enumerate(chain_scenario(3).domains, 1):
        assert domain.policies == (PolicyExpression(id=f"chain-{index}", action=Action.ALLOW),)


def test_pad_policies_preserves_behavior():
    scenario = load("minimal")
    padded = pad_policies(scenario, 50)
    assert len(padded.domains[0].policies) == 50
    report = run(padded)
    assert report.flows[0].outcome == "delivered"
    with pytest.raises(ValueError):
        pad_policies(padded, 10)


def test_unknown_axis_rejected():
    with pytest.raises(ValueError, match="axis"):
        sweep(load("minimal"), "hosts", [1])


def test_flood_rate_keeps_the_flood_ports_in_range():
    # 50,000 rps for two seconds from port 20000 would reach port 119,999
    scenario = load("flood_single_domain")
    with pytest.raises(ValueError, match=r"flood ports 20000\.\.119999 leave 1\.\.65535"):
        scenario.with_flood_rate(50_000)


def test_flood_series_has_three_labels_and_shapes():
    series = flood_response_series(load("flood_single_domain"), [50, 150, 250])
    assert set(series) == {"baseline", "threshold", "drop_rule"}
    baseline = [y for _, y in series["baseline"]]
    assert baseline == sorted(baseline) and len(set(baseline)) == len(baseline)
    # above the budget the throttle plateau is flat
    throttle_above = [y for x, y in series["threshold"] if x > 100]
    assert len(set(throttle_above)) == 1
    drop_above = [y for x, y in series["drop_rule"] if x > 100]
    assert all(y <= 101 for y in drop_above)
    text = emit_series(series, "delimited")
    assert text.splitlines()[0] == "x,baseline,threshold,drop_rule"


@pytest.mark.parametrize("name", ["pe_saturation", "flood_single_domain"])
def test_flood_series_needs_a_capacity_model(name):
    # without one the world builds no monitor, so "threshold" and
    # "drop_rule" would run undefended and repeat the baseline
    scenario = replace(load(name), capacity=None)
    assert any(isinstance(item, FloodSpec) for item in scenario.traffic)
    with pytest.raises(ValueError) as raised:
        flood_response_series(scenario, [100, 400])
    assert str(raised.value) == f"scenario {name!r} has no capacity model to run a flood defense with"
    # a plain request-rate sweep needs no defense
    assert [point for point, _ in sweep(scenario, "request_rate", [100])] == [100]


def test_flood_series_needs_enforcement():
    # with enforcement off the controller runs no defense, so "threshold"
    # and "drop_rule" would repeat the baseline
    scenario = replace(load("flood_single_domain"), enforcement=False)
    with pytest.raises(ValueError) as raised:
        flood_response_series(scenario, [100, 400])
    assert str(raised.value) == (
        "scenario 'flood_single_domain' has enforcement off, and a flood defense runs only with it on"
    )


def test_emit_series_formats():
    series = {"a": [(1, 2.0)], "b": [(1, 3.0), (2, 4.0)]}
    delimited = emit_series(series, "delimited")
    assert delimited.startswith("x,a,b\n")
    table = emit_series(series, "table")
    assert table.splitlines()[0].split() == ["x", "a", "b"]
    records = emit_series(series, "records")
    assert '"x": 1' in records
    with pytest.raises(ValueError):
        emit_series(series, "csv")


@pytest.mark.parametrize("fmt", ["delimited", "table", "records"])
def test_emit_series_refuses_the_axis_name_as_a_label(fmt):
    # records would write {"x": 2.0}, losing the axis value, and delimited
    # the header x,x
    with pytest.raises(ValueError, match="series label 'x' is the axis column's name"):
        emit_series({"x": [(1, 2.0)]}, fmt)
    with pytest.raises(ValueError, match="'x'"):
        emit_series({"a": [(1, 2.0)], "x": [(1, 3.0)]}, fmt)


@pytest.mark.parametrize("label", ["a\rb", "a\nb", "tab\there", "\x1c", "\u2028"])
@pytest.mark.parametrize("fmt", ["delimited", "table", "records"])
def test_emit_series_refuses_a_label_that_does_not_print(label, fmt):
    with pytest.raises(ValueError) as raised:
        emit_series({"base": [(1, 2.0)], label: [(1, 3.0)]}, fmt)
    assert str(raised.value) == f"series label {label!r} holds a character that does not print"


@pytest.mark.parametrize("label", ['a,b', 'say "hi"', '"', ',', 'X', 'x ', ' x', 'xx'])
def test_emit_series_labels_with_commas_and_quotes_read_back_as_csv(label):
    series = {"base": [(1, 2.0), (2, 3.0)], label: [(2, 4.0)]}
    header, *rows = csv.reader(io.StringIO(emit_series(series, "delimited")))
    assert header == ["x", "base", label]
    assert rows == [["1", "2.0", ""], ["2", "3.0", "4.0"]]
    records = [json.loads(line) for line in emit_series(series, "records").splitlines()]
    assert records == [{"x": 1, "base": 2.0, label: None}, {"x": 2, "base": 3.0, label: 4.0}]
