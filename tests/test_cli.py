import json

import pytest

from sdnsec.cli import main
from sdnsec.scenario import ScenarioError, bundled_scenario_path, parse_scenario
from sdnsec.simulation import Simulation

from test_scenario import _set, minimal_doc


def test_validate_bundled_scenario(capsys):
    assert main(["validate", "four_domain_transit"]) == 0
    out = capsys.readouterr().out
    assert "4 domains" in out


def test_validate_missing_file_fails(capsys):
    assert main(["validate", "/no/such/file.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_schema_violation_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domains": [{"id": "X1"}]}))
    assert main(["validate", str(bad)]) == 2
    assert "AS" in capsys.readouterr().err


@pytest.mark.parametrize(
    "first",
    [{"id": "p", "action": "allow"}, "p = <*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>"],
    ids=["record-vs-record", "compact-vs-record"],
)
def test_validate_rejects_duplicate_policy_id_with_field_path(tmp_path, capsys, first):
    doc = minimal_doc()
    doc["domains"][0]["policies"] = [first, {"id": "q", "action": "deny"}, {"id": "p", "action": "deny"}]
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "$.domains[0].policies[2]: duplicate id 'p', first at position 0" in capsys.readouterr().err


def test_validate_rejects_repeated_path_element_with_field_path(tmp_path, capsys):
    doc = json.loads(bundled_scenario_path("intra_service_paths").read_text())
    policies = doc["domains"][0]["policies"]
    policies[0] = policies[0].replace("(SW1;SW5;SW4)", "(SW1;SW5;SW4;SW3;SW4)")
    bad = tmp_path / "repeat.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "$.domains[0].policies[0]: policy expression '3': path repeats an element" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda doc: doc["domains"][0].pop("subnet"), "$.domains[0].subnet"),
        (_set("links", value=[["AS1"]]), "$.links[0]"),
        (_set("domains", 0, "policies", value=[5]), "$.domains[0].policies[0]"),
        (_set("domains", 0, "switches", 0, "id", value="AS9"), "$.domains[0].switches[0].id"),
        (_set("domains", 0, "users", value={"zz": "alice"}), "$.domains[0].users['zz']"),
        (_set("defense", value={"response": "explode"}), "$.defense.response"),
    ],
    ids=["missing-subnet", "link-not-a-pair", "policy-int", "switch-id-as", "user-mac-malformed", "unknown-response"],
)
def test_validate_rejects_naming_the_field_path(tmp_path, capsys, mutate, path):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(doc)
    assert caught.value.path == path
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("token", ["pkt.port=080x", "pkt.proto=tcp", "pkt.Type=HTTP", "pkt.port=http", "pkt.port=0"])
def test_validate_rejects_a_packet_attribute_that_can_never_hold(tmp_path, capsys, token):
    doc = minimal_doc()
    doc["domains"][0]["policies"].append(f"q = <*,*,*,*,*,*,*,*,({token}),*,*,*,*>:<Allow>")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.domains[0].policies[1]: ")
    assert repr(token) in err


def test_run_emits_table(capsys):
    assert main(["run", "minimal"]) == 0
    out = capsys.readouterr().out
    assert "delivered" in out


def test_run_writes_delimited_file(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["run", "minimal", "--emit", "delimited", "--out", str(out)]) == 0
    assert out.read_text().startswith("index,")


def test_run_accepts_path_argument(capsys):
    path = bundled_scenario_path("minimal")
    assert main(["run", str(path)]) == 0


def test_run_proactive_override(capsys):
    assert main(["run", "intra_service_paths", "--mode", "proactive", "--emit", "records"]) == 0
    out = capsys.readouterr().out
    assert '"packet_ins": 0' in out


def test_dump_flows(capsys):
    assert main(["dump-flows", "intra_service_paths", "--switch", "SW5"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3
    assert "action=FORWARD:2" in out


def test_dump_flows_unknown_switch(capsys, monkeypatch):
    # the switch is checked before the scenario runs
    def fail(self):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(Simulation, "run", fail)
    assert main(["dump-flows", "intra_service_paths", "--switch", "SW99"]) == 2
    assert capsys.readouterr().err == "error: no switch 'SW99' in scenario\n"


def test_sweep_request_rate(capsys):
    assert (
        main(
            [
                "sweep",
                "flood_single_domain",
                "--axis",
                "request_rate",
                "--points",
                "50,100",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "request_rate=50" in out
    assert "request_rate=100" in out


def test_sweep_compare_defenses(capsys):
    assert (
        main(
            [
                "sweep",
                "flood_single_domain",
                "--axis",
                "request_rate",
                "--points",
                "50,150",
                "--compare-defenses",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x,baseline,threshold,drop_rule"


def test_sweep_compare_defenses_requires_the_request_rate_axis(capsys):
    # the defense series always sweeps flood rates, so any other axis would
    # be silently read as rates
    argv = ["sweep", "flood_single_domain", "--axis", "pe_count", "--points", "50,100", "--compare-defenses"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--axis request_rate" in captured.err


def test_sweep_emit_requires_compare_defenses(capsys):
    # a plain sweep prints key=value lines; --emit would be ignored
    argv = ["sweep", "minimal", "--axis", "switch_count", "--points", "4,6", "--emit", "records"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--compare-defenses" in captured.err


@pytest.mark.parametrize(
    "extra", [["--points", "50,5000"], ["--points", "50", "--compare-defenses"]], ids=["rates", "compare-defenses"]
)
def test_sweep_request_rate_needs_a_flood(capsys, extra):
    # a scenario without a flood has no request rate to sweep
    assert main(["sweep", "minimal", "--axis", "request_rate", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario 'minimal' has no flood to set a request rate on\n"


def test_sweep_compare_defenses_needs_a_capacity_model(capsys):
    # pe_saturation floods, but with no capacity model the three series
    # would all be the undefended baseline
    argv = ["sweep", "pe_saturation", "--axis", "request_rate", "--points", "100,400", "--compare-defenses"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario 'pe_saturation' has no capacity model to run a flood defense with\n"


def test_sweep_compare_defenses_needs_enforcement(capsys):
    # --baseline turns enforcement off, and with it the defense: the three
    # series would all be the undefended baseline
    argv = ["sweep", "flood_single_domain", "--axis", "request_rate", "--points", "100,400"]
    assert main([*argv, "--compare-defenses", "--baseline"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: scenario 'flood_single_domain' has enforcement off, and a flood defense runs only with it on\n"
    )


@pytest.mark.parametrize(
    "extra", [["--points", "0,-3,50"], ["--points", "0", "--compare-defenses"]], ids=["rates", "compare-defenses"]
)
def test_sweep_request_rate_must_be_positive(capsys, extra):
    assert main(["sweep", "flood_single_domain", "--axis", "request_rate", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: flood rate must be at least 1, got 0\n"


def test_sweep_as_count_stops_at_one_octet_of_domains(capsys):
    # the chain numbers its domains' subnets 10.i.0.0/24; past 255 the
    # error names that limit, not a field of a document the user never wrote
    assert main(["sweep", "minimal", "--axis", "as_count", "--points", "256"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a chain has at most 255 domains, one 10.i.0.0/24 subnet each, got 256\n"


@pytest.mark.parametrize("points", ["1,x", ""], ids=["letter", "empty"])
def test_sweep_points_must_be_integers(capsys, points):
    # a usage error, named after the option, like the sweep's other misuses
    with pytest.raises(SystemExit) as exited:
        main(["sweep", "flood_single_domain", "--axis", "request_rate", "--points", points])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --points: expected comma-separated integers, got {points!r}" in captured.err


def test_sweep_request_rate_keeps_the_flood_ports_in_range(capsys):
    assert main(["sweep", "flood_single_domain", "--axis", "request_rate", "--points", "50000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: flood ports 20000..119999 leave 1..65535\n"
