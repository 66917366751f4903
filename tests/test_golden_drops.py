"""Drops that the controller and the simulation decide, pinned by SHA-256.

``test_golden.py`` pins the bundled scenarios as written; these cases vary
them, or write a small document, so that each of these drop reasons is the
outcome of a flow:

* ``NO_ROUTE``: ``four_domain_transit`` at ``max_ttl`` 1.  ``AS1``'s probes
  stop at ``AS2``, so it knows no domain for the destination address.
* ``TABLE_FULL``: ``four_domain_transit`` at ``table_capacity`` 2.  The ARP
  rule takes one slot, and the flow's forward and return rules need two.
* ``NO_SATISFYING_PATH``: one domain whose policy asks ``SL2+=`` of a path
  through an ``SL1`` switch.
* ``UNSATISFIABLE_CONSTRAINTS``: two domains; the first delegates ``SL3+=``
  in its transfer token, and the second's policy allows at most ``SL2``.

``HANDLE_INVALID``, ``MISDELIVERED`` and ``STALLED`` cannot come from a
valid document: every handle is minted and checked with keys that one
scenario declares, every rule toward a host is synthesized for that host's
address, and every packet-in ends in an install or a drop.
``test_controller.py`` hands a controller a forged handle for the first.
The last two are reached here by altering a ``minimal`` run: a rule
installed before the run sends ``b``'s address to host ``a``, or the
controllers never answer a packet-in.  Neither has a digest.

Regenerate after an intended behaviour change with::

    PYTHONPATH=src python tests/test_golden_drops.py > tests/golden/drops_sha256.json
"""

import json
from dataclasses import replace

import pytest

from test_golden import GOLDEN, MODES, events_trail_digest, records_digest_of

from sdnsec import bundled_scenario_path, load_scenario
from sdnsec.dataplane import FLOW_RULE_PRIORITY, FlowMatch, FlowRule, install_batch
from sdnsec.scenario import parse_scenario
from sdnsec.simulation import Simulation, build_world


def _transit(**changes):
    return replace(load_scenario(bundled_scenario_path("four_domain_transit")), **changes)


def _domain(number: int, label: str, hosts: list[str], switches: list[str], policy_cons: str) -> dict:
    return {
        "id": f"AS{number}",
        "subnet": f"10.0.{number}.0/24",
        "type": "EDU",
        "label": label,
        "handle_key": f"key-{number}",
        "switches": [{"id": s, "label": label} for s in switches],
        "links": [[a, b] for a, b in zip(switches, switches[1:])],
        "hosts": [
            {"id": h, "ip": f"10.0.{number}.{i + 1}", "mac": f"00:00:00:00:0{number}:0{i + 1}", "switch": switches[0]}
            for i, h in enumerate(hosts)
        ],
        "policies": [f"p{number} = <*, *, *, *, *, *, *, *, {policy_cons}, *, *, *, *>:<Allow>"],
    }


def _no_satisfying_path():
    return parse_scenario(
        {
            "name": "no_satisfying_path",
            "domains": [_domain(1, "SL1", ["a", "b"], ["S1"], "(SL2+=)")],
            "traffic": [{"from": "a", "to": "b", "port": 80, "type": "HTTP"}],
        }
    )


def _unsatisfiable():
    return parse_scenario(
        {
            "name": "unsatisfiable",
            "domains": [
                _domain(1, "SL3", ["a"], ["S1", "1SW2"], "(SL3+=)"),
                _domain(2, "SL3", ["b"], ["S2", "2SW1"], "(SL2-=)"),
            ],
            "links": [["AS1", "AS2"]],
            "traffic": [{"from": "a", "to": "b", "port": 80, "type": "HTTP"}],
        }
    )


# reason -> (the scenario whose flow it drops, the domain that drops it)
SCENARIOS = {
    "NO_ROUTE": (lambda: _transit(max_ttl=1), "AS1"),
    "TABLE_FULL": (lambda: _transit(table_capacity=2), "AS1"),
    "NO_SATISFYING_PATH": (_no_satisfying_path, "AS1"),
    "UNSATISFIABLE_CONSTRAINTS": (_unsatisfiable, "AS2"),
}
CASES = [f"{reason}/{mode}" for reason in SCENARIOS for mode in MODES]


def _run(case: str):
    reason, mode = case.split("/")
    world = build_world(replace(SCENARIOS[reason][0](), mode=mode))
    return world, Simulation(world).run()


def digests(case: str) -> dict[str, str]:
    world, report = _run(case)
    return {"records": records_digest_of(report), "events": events_trail_digest(world, report)}


@pytest.mark.parametrize("case", CASES)
def test_the_case_drops_for_its_reason(case):
    reason = case.split("/")[0]
    _, report = _run(case)
    assert [(f.reason, f.drop_domain) for f in report.flows] == [(reason, SCENARIOS[reason][1])]


@pytest.mark.parametrize("case", CASES)
def test_drop_case_digests_unchanged(case):
    assert digests(case) == json.loads((GOLDEN / "drops_sha256.json").read_text())[case]


def _minimal_world():
    return build_world(load_scenario(bundled_scenario_path("minimal")))


def test_a_rule_toward_the_wrong_host_misdelivers():
    # the a->b:80/HTTP flow's own rule, planted before the flow starts,
    # sends its packets back to a
    world = _minimal_world()
    a, b = world.hosts["a"], world.hosts["b"]
    to_b = FlowMatch(FLOW_RULE_PRIORITY, (a.ip, b.ip, "tcp", 80, "HTTP"))
    assert install_batch(world.switches, [("S1", FlowRule(to_b, next_hop="a"))])
    report = Simulation(world).run()
    assert [(f.reason, f.drop_domain) for f in report.flows] == [("MISDELIVERED", "AS1")]
    assert report.counters["dropped_other"] == 1


def test_a_packet_in_never_answered_stalls(monkeypatch):
    monkeypatch.setattr(Simulation, "_on_ctrl_job", lambda self, *args: None)
    report = Simulation(_minimal_world()).run()
    assert [(f.reason, f.drop_domain) for f in report.flows] == [("STALLED", "")]
    assert report.counters["dropped_other"] == 1


if __name__ == "__main__":
    print(json.dumps({case: digests(case) for case in CASES}, indent=2, sort_keys=True))
