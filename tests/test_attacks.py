"""Attacks on cross-domain credentials, each a differential against the
honest packet-in.

The honest packet-in is at AS2 of ``four_domain_transit``: an HTTPS packet
from AS1 enters at ``2SW1`` from AS1's gateway ``1SW2``, with the handle and
transfer token that AS1's controller put on its egress rule for that
packet.  Each attack changes the credentials or the entry and offers the
packet again to a fresh AS2.  The oracle is the one rule an attack may not
break: the outcome stays the honest one (the same rule batch, credentials
for the next domain included) or becomes a drop, never a weaker admission.
Each test also asserts that the drop names the credential check,
``HANDLE_INVALID``.

Credentials are only ever taken from AS1's own pipeline and changed with
``dataclasses.replace``, so every attack here is built from what a domain
really issues.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from sdnsec.controller import DropReason
from sdnsec.dataplane import Packet
from sdnsec.formats import parse_compact_pe
from sdnsec.labels import parse_label_constraint
from sdnsec.policy import Constraint, ConstraintKind, PolicyIndex
from sdnsec.scenario import bundled_scenario_path, load_scenario
from sdnsec.simulation import build_world

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
    """The ``(handle, token)`` AS1 sends ``pkt`` on with: the credentials
    on its egress gateway's forward rule."""
    as1 = build_world(SCENARIO).controllers["AS1"]
    if as1_policy is not None:
        as1.policy_repo = PolicyIndex([parse_compact_pe(as1_policy, pe_id="1")])
    result = as1.handle_packet_in(pkt, "S1A", "X", 0)
    _, _, rule = egress_hop(WORLD, result.batch)
    return rule.handle, rule.ptt


def at_as2(pkt, handle, ptt, ingress="2SW1", entry_peer="1SW2"):
    return build_world(SCENARIO).controllers["AS2"].handle_packet_in(pkt, ingress, entry_peer, 0, handle=handle, ptt=ptt)


HANDLE, TOKEN = issued(packet())
HONEST = at_as2(packet(), HANDLE, TOKEN)


def assert_no_weaker_admission(attacked):
    assert attacked.batch is None or attacked.batch == HONEST.batch, attacked


def assert_fails_closed(attacked):
    assert_no_weaker_admission(attacked)
    assert attacked.reason == DropReason.HANDLE_INVALID


def test_the_honest_packet_in_is_admitted_with_its_credentials_extended():
    assert HONEST.batch is not None
    gateway, peer, rule = egress_hop(WORLD, HONEST.batch)
    assert (gateway, peer) == ("2SW3", "3SW2")
    assert rule.handle.visited == ("AS1", "AS2")
    assert rule.ptt.constraints == TOKEN.constraints


def _flip_digit(tag: str, index: int, mask: int = 1) -> str:
    return tag[:index] + f"{int(tag[index], 16) ^ mask:x}" + tag[index + 1 :]


def test_tampered_tags_fail_closed():
    assert_fails_closed(at_as2(packet(), replace(HANDLE, tag=_flip_digit(HANDLE.tag, 0)), TOKEN))
    assert_fails_closed(at_as2(packet(), HANDLE, replace(TOKEN, tag=_flip_digit(TOKEN.tag, 0))))


def test_credentials_replayed_on_another_flow_fail_closed():
    # a valid pair that AS1 issued for the :80 flow of the same hosts
    handle, token = issued(packet(80, "HTTP"))
    assert_fails_closed(at_as2(packet(), handle, token))


def test_a_looser_token_of_the_same_flow_fails_closed():
    _, looser = issued(packet(), LOOSER_AS1_POLICY)
    assert looser.constraints != TOKEN.constraints
    assert_fails_closed(at_as2(packet(), HANDLE, looser))


def test_a_token_of_another_flow_fails_closed():
    _, foreign = issued(packet(80, "HTTP"))
    assert_fails_closed(at_as2(packet(), HANDLE, foreign))


def test_a_stripped_token_fails_closed():
    assert_fails_closed(at_as2(packet(), HANDLE, None))


def test_a_token_without_a_handle_fails_closed():
    assert_fails_closed(at_as2(packet(), None, TOKEN))


def test_credentials_entering_from_another_neighbor_fail_closed():
    # AS1's valid pair, offered at AS2's gateway toward AS3
    assert_fails_closed(at_as2(packet(), HANDLE, TOKEN, ingress="2SW3", entry_peer="3SW2"))


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
    TAG_DIGIT.map(lambda d: (replace(HANDLE, tag=_flip_digit(HANDLE.tag, *d)), TOKEN)),
    TAG_DIGIT.map(lambda d: (HANDLE, replace(TOKEN, tag=_flip_digit(TOKEN.tag, *d)))),
    st.lists(st.sampled_from(DOMAINS), min_size=1, max_size=3, unique=True)
    .map(tuple)
    .filter(lambda visited: visited != HANDLE.visited)
    .map(lambda visited: (replace(HANDLE, visited=visited), TOKEN)),
    st.lists(st.sampled_from(DELEGABLE), max_size=3, unique=True)
    .map(tuple)
    .filter(lambda constraints: constraints != TOKEN.constraints)
    .map(lambda constraints: (HANDLE, replace(TOKEN, constraints=constraints))),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(SINGLE_FLIPS)
def test_any_single_field_or_tag_digit_flip_is_no_weaker(credentials):
    assert_no_weaker_admission(at_as2(packet(), *credentials))
