"""Each constructor and lookup guard refuses its bad input with its own message."""

import re
from fractions import Fraction

import pytest

from sdnsec.controller import Controller
from sdnsec.dataplane import ActionKind, FlowMatch, FlowRule, Switch
from sdnsec.interdomain import DomainKey, Handle, PolicyTransferToken
from sdnsec.labels import SecurityLabel
from sdnsec.metrics import MetricsReport
from sdnsec.policy import Action, Constraint, ConstraintKind, PolicyExpression
from sdnsec.scenario import bundled_scenario_path, load_scenario
from sdnsec.sweep import chain_scenario, pad_switches
from sdnsec.topology import Graph, probe_topology

MINIMAL = load_scenario(bundled_scenario_path("minimal"))


def attach_twice():
    switch = Switch("S1")
    switch.attach("h1")
    switch.attach("h1")


def controller_with_key(key):
    # the key is checked before any other argument is read
    return Controller(
        MINIMAL.domains[0],
        as_graph=None, intra=None, known={}, monitor=None, key=DomainKey(key.encode()), key_ring={},
        enforcement_enabled=True, costs=MINIMAL.costs, window_ticks=1,
    )


# guard -> (the call that trips it, the exception, its message)
GUARDS = {
    "forward-rule-without-next-hop": (
        lambda: FlowRule(FlowMatch(src_ip=1), ActionKind.FORWARD), ValueError, "forward rule needs a next hop"),
    "drop-rule-with-next-hop": (
        lambda: FlowRule(FlowMatch(src_ip=1), ActionKind.DROP, next_hop="S2"),
        ValueError, "only forward rules carry a next hop"),
    "switch-attach-twice": (attach_twice, ValueError, "h1 already attached to S1"),
    "handle-without-origin": (
        lambda: Handle((), "tag"), ValueError, "handle must record at least the origin domain"),
    "token-with-signature": (
        lambda: PolicyTransferToken((Constraint(ConstraintKind.SIGNATURE, signature="worm"),), "tag"),
        ValueError, "token carries non-flow-scoped constraints: "),
    "label-rank-bool": (lambda: SecurityLabel(True), TypeError, "label rank must be an int, got True"),
    "label-path-without-label": (
        lambda: Constraint(ConstraintKind.LABEL_PATH),
        ValueError, "LABEL_PATH constraint requires exactly one label constraint"),
    "rate-not-positive": (
        lambda: Constraint(ConstraintKind.RATE_THRESHOLD, rate=Fraction(0)),
        ValueError, "RATE_THRESHOLD constraint requires a positive rate"),
    "signature-empty": (
        lambda: Constraint(ConstraintKind.SIGNATURE, signature=""),
        ValueError, "SIGNATURE constraint requires a signature token"),
    "policy-empty-path": (
        lambda: PolicyExpression(id="p", action=Action.ALLOW, path=()),
        ValueError, "path must be nonempty or wildcard"),
    "report-flow-miss": (
        lambda: MetricsReport("s", "reactive", True).flow("a", "b"), KeyError, "no flow a -> b"),
    "scenario-domain-miss": (lambda: MINIMAL.domain("AS9"), KeyError, "AS9"),
    "pad-switches-shrinks": (
        lambda: pad_switches(MINIMAL, 0), ValueError,
        f"domain already has {len(MINIMAL.domains[0].switches)} switches > 0"),
    "chain-without-domains": (lambda: chain_scenario(0), ValueError, "need at least one domain"),
    "chain-past-one-octet": (
        lambda: chain_scenario(256), ValueError, "a chain has at most 255 domains, one 10.i.0.0/24 subnet each, got 256"),
    "probe-ttl-zero": (lambda: probe_topology(Graph(), "AS1", max_ttl=0), ValueError, "max_ttl must be >= 1"),
    "controller-empty-key": (
        lambda: controller_with_key(""), ValueError, "controller needs a nonempty handle key"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_refuses_with_its_message(guard):
    call, error, message = GUARDS[guard]
    with pytest.raises(error, match=re.escape(message)):
        call()
