"""Attacks on cross-domain credentials, each a differential against the
honest packet-in.

The honest packet-in is at AS2 of ``four_domain_transit``: an HTTPS packet
from AS1 enters at ``2SW1`` from AS1's gateway ``1SW2``, with the handle,
and the transfer token it holds, that AS1's controller put on its egress
rule for that packet.  Each attack changes the handle, its token or the
entry and offers the packet again to a fresh AS2.  The oracle is the one
rule an attack may not break: the outcome stays the honest one (the same
rule batch, credentials for the next domain included) or becomes a drop,
never a weaker admission.  Each test also asserts that the drop is
``HANDLE_INVALID`` and that its event names the check that failed:
``entry``, ``handle-tag`` or ``token-tag``.  A token without its handle
cannot be offered at all: it travels only inside the handle, whose tag
covers it.

Credentials are only ever taken from AS1's own pipeline and changed with
``dataclasses.replace``, so every attack here is built from what a domain
really issues.

Trust is hop by hop: a domain verifies credentials under the key of the
neighbour they came from, and only that key.  A transit domain that holds
its own key can therefore re-mint a handle.  The last two tests pin what
that does at AS3 today; they state a known limit, not a guarantee.
"""

import inspect
from dataclasses import fields, replace

from hypothesis import given, settings, strategies as st

from sdnsec.controller import Controller, DropReason, synthesize_rules
from sdnsec.dataplane import FlowRule, Packet
from sdnsec.formats import parse_compact_pe
from sdnsec.interdomain import Handle, handle_tag, validate_handle
from sdnsec.labels import parse_label_constraint
from sdnsec.policy import Constraint, ConstraintKind, PolicyIndex
from sdnsec.scenario import bundled_scenario_path, load_scenario
from sdnsec.simulation import _InFlight, build_world

from helpers import egress_hop, ip

SCENARIO = load_scenario(bundled_scenario_path("four_domain_transit"))
WORLD = build_world(SCENARIO)  # read only; each packet-in gets a fresh world
# AS1's allow with a looser delegated label bound (SL1+= for SL2+=)
LOOSER_AS1_POLICY = (
    "<*, (10.0.0.0/24, EDU, SL2), (192.168.52.0/24), 10.0.0.2, *, *, *, *,"
    " SL1+=, SL2+=, (80,443), conf, *>:<(1SW2, Allow)>"
)


def packet(port=443, ptype="HTTPS"):
    return Packet(
        src_ip=ip("10.0.0.2"),
        dst_ip=ip("192.168.52.72"),
        src_mac="00:00:00:00:00:01",
        dst_mac="00:00:00:00:01:01",
        ip_proto="tcp",
        service_port=port,
        packet_type=ptype,
    )


def issued(pkt, as1_policy=None):
    """The handle AS1 sends ``pkt`` on with, its token inside: the
    credential on its egress gateway's forward rule."""
    as1 = build_world(SCENARIO).controllers["AS1"]
    if as1_policy is not None:
        as1.policy_repo = PolicyIndex([parse_compact_pe(as1_policy, pe_id="1")])
    result = as1.handle_packet_in(pkt, "S1A", "X", 0)
    _, _, rule = egress_hop(WORLD, result.batch)
    return rule.handle


def offer(as_id, pkt, handle, ingress, entry_peer):
    """A fresh ``as_id``'s result for the packet-in, and the one event it logs."""
    controller = build_world(SCENARIO).controllers[as_id]
    result = controller.handle_packet_in(pkt, ingress, entry_peer, 0, handle=handle)
    [event] = controller.events
    return result, event


def at_as2(pkt, handle, ingress="2SW1", entry_peer="1SW2"):
    return offer("AS2", pkt, handle, ingress, entry_peer)


HANDLE = issued(packet())
TOKEN = HANDLE.ptt
HONEST, _ = at_as2(packet(), HANDLE)


def assert_no_weaker_admission(attacked):
    result, _ = attacked
    assert result.batch is None or result.batch == HONEST.batch, result


def assert_fails_closed(attacked, check):
    assert_no_weaker_admission(attacked)
    result, event = attacked
    assert result.reason == event.reason == DropReason.HANDLE_INVALID
    assert event.summary.endswith(f" [credentials check={check}]"), event.summary


def test_the_honest_packet_in_is_admitted_with_its_credentials_extended():
    assert HONEST.batch is not None
    gateway, peer, rule = egress_hop(WORLD, HONEST.batch)
    assert (gateway, peer) == ("2SW3", "3SW2")
    assert rule.handle.visited == ("AS1", "AS2")
    assert rule.handle.ptt.constraints == TOKEN.constraints


def _flip_digit(tag: str, index: int, mask: int = 1) -> str:
    return tag[:index] + f"{int(tag[index], 16) ^ mask:x}" + tag[index + 1 :]


def test_tampered_tags_fail_closed():
    assert_fails_closed(at_as2(packet(), replace(HANDLE, tag=_flip_digit(HANDLE.tag, 0))), "handle-tag")
    # the handle's tag covers the token's tag, so a changed token tag fails the handle
    retagged = replace(TOKEN, tag=_flip_digit(TOKEN.tag, 0))
    assert_fails_closed(at_as2(packet(), replace(HANDLE, ptt=retagged)), "handle-tag")
    # constraints changed under the tag AS1 gave them fail the token itself
    assert_fails_closed(at_as2(packet(), replace(HANDLE, ptt=replace(TOKEN, constraints=()))), "token-tag")


def test_credentials_replayed_on_another_flow_fail_closed():
    # a valid handle, token inside, that AS1 issued for the :80 flow of the same hosts
    assert_fails_closed(at_as2(packet(), issued(packet(80, "HTTP"))), "handle-tag")


def test_a_looser_token_of_the_same_flow_fails_closed():
    looser = issued(packet(), LOOSER_AS1_POLICY).ptt
    assert looser.constraints != TOKEN.constraints
    assert_fails_closed(at_as2(packet(), replace(HANDLE, ptt=looser)), "handle-tag")


def test_a_token_of_another_flow_fails_closed():
    foreign = issued(packet(80, "HTTP")).ptt
    assert_fails_closed(at_as2(packet(), replace(HANDLE, ptt=foreign)), "handle-tag")


def test_a_stripped_token_fails_closed():
    assert_fails_closed(at_as2(packet(), replace(HANDLE, ptt=None)), "handle-tag")


def test_a_token_travels_only_inside_its_handle():
    # no packet-in, rule, in-flight packet or check takes a token apart
    # from its handle, so a token without a handle cannot be offered
    for function in (Controller.handle_packet_in, synthesize_rules, validate_handle):
        assert not [name for name in inspect.signature(function).parameters if "ptt" in name], function
    for record in (FlowRule, _InFlight):
        assert not [f.name for f in fields(record) if "ptt" in f.name], record


def test_credentials_entering_from_another_neighbor_fail_closed():
    # AS1's valid handle, offered at AS2's gateway toward AS3
    assert_fails_closed(at_as2(packet(), HANDLE, ingress="2SW3", entry_peer="3SW2"), "entry")


# what AS2 honestly sends on to AS3: the handle ('AS1', 'AS2') with AS1's SL2+= token
_, _, AS2_EGRESS = egress_hop(WORLD, HONEST.batch)
AS2_KEY = WORLD.controllers["AS2"].handle_key


def at_as3(handle):
    return offer("AS3", packet(), handle, "3SW2", "2SW3")


def as2_reminted(visited, ptt):
    """A handle AS2 tags under its own key, as a misbehaving AS2 could."""
    return Handle(visited, handle_tag(packet().flow_id, visited, ptt, AS2_KEY), ptt)


def test_limit_a_transit_domain_can_strip_the_origins_token_undetected():
    honest, _ = at_as3(AS2_EGRESS.handle)
    _, _, honest_egress = egress_hop(WORLD, honest.batch)
    assert honest_egress.handle.ptt.constraints == TOKEN.constraints
    # AS2 re-mints the handle with no token: AS3 cannot tell and installs,
    # and the origin's SL2+= constraint is gone from the rest of the path
    stripped, event = at_as3(as2_reminted(("AS1", "AS2"), None))
    assert event.verdict == "install"
    _, _, stripped_egress = egress_hop(WORLD, stripped.batch)
    assert stripped_egress.handle.ptt is None


def test_limit_a_transit_domain_can_launder_the_origin_undetected():
    # AS2 re-mints the handle as if the flow began at AS2: the credentials
    # verify, and AS3 decides on the laundered origin, which here drops
    laundered, event = at_as3(as2_reminted(("AS2",), AS2_EGRESS.handle.ptt))
    assert laundered.batch is None
    assert laundered.reason == event.reason == DropReason.POLICY


def _label(text):
    return Constraint(ConstraintKind.LABEL_PATH, label=parse_label_constraint(text))


DOMAINS = ("AS1", "AS2", "AS3", "AS4", "AS9")
DELEGABLE = (
    *(_label(f"SL{rank}+=") for rank in range(1, 5)),
    Constraint(ConstraintKind.PACKET_ATTR, attr="type", value="HTTPS"),
    Constraint(ConstraintKind.RATE_THRESHOLD, rate=5),
)
TAG_DIGIT = st.tuples(st.integers(0, len(HANDLE.tag) - 1), st.integers(1, 15))
SINGLE_FLIPS = st.one_of(
    TAG_DIGIT.map(lambda d: replace(HANDLE, tag=_flip_digit(HANDLE.tag, *d))),
    TAG_DIGIT.map(lambda d: replace(HANDLE, ptt=replace(TOKEN, tag=_flip_digit(TOKEN.tag, *d)))),
    st.lists(st.sampled_from(DOMAINS), min_size=1, max_size=3, unique=True)
    .map(tuple)
    .filter(lambda visited: visited != HANDLE.visited)
    .map(lambda visited: replace(HANDLE, visited=visited)),
    st.lists(st.sampled_from(DELEGABLE), max_size=3, unique=True)
    .map(tuple)
    .filter(lambda constraints: constraints != TOKEN.constraints)
    .map(lambda constraints: replace(HANDLE, ptt=replace(TOKEN, constraints=constraints))),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(SINGLE_FLIPS)
def test_any_single_field_or_tag_digit_flip_is_no_weaker(handle):
    assert_no_weaker_admission(at_as2(packet(), handle))
