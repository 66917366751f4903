import hashlib
import hmac
import itertools
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from sdnsec.labels import LabelWindow, parse_label_constraint
from sdnsec.policy import Constraint, ConstraintKind
from sdnsec.interdomain import (
    DomainKey,
    Handle,
    extend_handle,
    forward_ptt,
    handle_tag,
    merge_constraints,
    ptt_tag,
    validate_handle,
    verify_ptt,
)

from helpers import egress_hop, ip

KEYS = {as_id: DomainKey(f"key-{as_id.lower()}".encode()) for as_id in ("AS1", "AS2", "AS3")}


def ring(*as_ids):
    """The key ring of a domain whose neighbors are ``as_ids``."""
    return {as_id: KEYS[as_id] for as_id in as_ids}


def label_geq(rank):
    return Constraint(
        ConstraintKind.LABEL_PATH, label=parse_label_constraint(f"SL{rank}+=")
    )


def test_mint_and_extend_visited_chain():
    handle = extend_handle(None, "f1", "AS1", None, KEYS["AS1"])
    assert handle.visited == ("AS1",)
    extended = extend_handle(handle, "f1", "AS2", None, KEYS["AS2"])
    extended = extend_handle(extended, "f1", "AS3", None, KEYS["AS3"])
    assert extended.visited == ("AS1", "AS2", "AS3")


def test_extended_handle_is_refused_on_another_flow_or_origin():
    handle = extend_handle(None, "f1", "AS1", None, KEYS["AS1"])
    assert handle.tag == handle_tag("f1", ("AS1",), None, KEYS["AS1"])
    extended = extend_handle(handle, "f1", "AS2", None, KEYS["AS2"])
    assert extended.visited[0] == "AS1"
    assert extended.tag == handle_tag("f1", ("AS1", "AS2"), None, KEYS["AS2"])
    # the flow id is the packet's and the origin is visited[0]: the tag
    # commits to both
    assert validate_handle(extended, "f1", ring("AS2"))
    assert not validate_handle(extended, "f2", ring("AS2"))
    assert not validate_handle(replace(extended, visited=("AS3", "AS2")), "f1", ring("AS2"))


def test_handle_tag_binds_its_token():
    token = forward_ptt(None, "f1", (label_geq(2),), KEYS["AS1"])
    other = forward_ptt(None, "f1", (label_geq(1),), KEYS["AS1"])
    handle = extend_handle(None, "f1", "AS1", token, KEYS["AS1"])
    assert handle.ptt == token
    assert validate_handle(handle, "f1", ring("AS1"))
    assert not validate_handle(replace(handle, ptt=None), "f1", ring("AS1"))
    assert not validate_handle(replace(handle, ptt=other), "f1", ring("AS1"))
    tokenless = extend_handle(None, "f1", "AS1", None, KEYS["AS1"])
    assert tokenless.ptt is None
    assert not validate_handle(replace(tokenless, ptt=token), "f1", ring("AS1"))


def test_validate_honest_handle_at_neighbor():
    handle = extend_handle(None, "f1", "AS1", None, KEYS["AS1"])
    assert validate_handle(handle, "f1", ring("AS1"))


def test_validate_requires_neighbor_adjacency():
    # a handle whose last visited domain is not adjacent, so missing from
    # the key ring, is refused although its tag is honest
    handle = extend_handle(None, "f1", "AS1", None, KEYS["AS1"])
    assert not validate_handle(handle, "f1", ring("AS3"))


def test_validate_three_hop_arrival():
    handle = extend_handle(None, "f1", "AS1", None, KEYS["AS1"])
    handle = extend_handle(handle, "f1", "AS2", None, KEYS["AS2"])
    handle = extend_handle(handle, "f1", "AS3", None, KEYS["AS3"])
    assert validate_handle(handle, "f1", ring("AS3"))


def test_reordered_visited_list_rejected():
    handle = extend_handle(None, "f1", "AS1", None, KEYS["AS1"])
    handle = extend_handle(handle, "f1", "AS2", None, KEYS["AS2"])
    forged = Handle(("AS2", "AS1"), handle.tag)
    assert not validate_handle(forged, "f1", ring("AS1", "AS2"))


def test_every_single_field_mutation_rejected():
    handle = extend_handle(extend_handle(None, "f1", "AS1", None, KEYS["AS1"]), "f1", "AS2", None, KEYS["AS2"])
    key_ring = ring("AS1", "AS2")
    assert validate_handle(handle, "f1", key_ring)
    # another flow id and another origin (visited[0]) are the mutants of
    # the inputs the handle does not store
    mutations = [
        (handle, "f2"),
        (replace(handle, visited=("AS9", "AS2")), "f1"),
        (replace(handle, visited=("AS1",)), "f1"),
        (replace(handle, visited=("AS1", "AS2", "AS3")), "f1"),
        (replace(handle, tag="0" * len(handle.tag)), "f1"),
    ]
    for mutant, flow_id in mutations:
        assert not validate_handle(mutant, flow_id, key_ring)


def test_single_bit_tag_flips_all_rejected():
    handle = extend_handle(None, "f1", "AS1", None, KEYS["AS1"])
    tag_bits = int(handle.tag, 16)
    width = len(handle.tag) * 4
    for bit in range(width):
        flipped = f"{tag_bits ^ (1 << bit):0{len(handle.tag)}x}"
        assert not validate_handle(replace(handle, tag=flipped), "f1", ring("AS1"))


def test_duplicate_visited_is_invalid_by_construction():
    with pytest.raises(ValueError):
        Handle(("AS1", "AS1"), "00")


def test_ptt_only_carries_flow_scoped_kinds():
    sig = Constraint(ConstraintKind.SIGNATURE, signature="SYN")
    token = forward_ptt(None, "f1", (label_geq(2), sig), KEYS["AS1"])
    assert token.constraints == (label_geq(2),)
    assert verify_ptt(token, "f1", KEYS["AS1"])


def test_empty_constraints_mint_no_token():
    assert forward_ptt(None, "f1", (), KEYS["AS1"]) is None
    sig_only = (Constraint(ConstraintKind.SIGNATURE, signature="SYN"),)
    assert forward_ptt(None, "f1", sig_only, KEYS["AS1"]) is None


def test_retagged_token_is_refused_on_another_flow():
    token = forward_ptt(None, "f1", (label_geq(2),), KEYS["AS1"])
    # a carried constraint is not appended twice
    retagged = forward_ptt(token, "f1", (label_geq(2), label_geq(3)), KEYS["AS2"])
    assert retagged.constraints == (label_geq(2), label_geq(3))
    assert retagged.tag == ptt_tag("f1", retagged.constraints, KEYS["AS2"])
    assert verify_ptt(retagged, "f1", KEYS["AS2"])
    assert not verify_ptt(retagged, "f1", KEYS["AS1"])
    # the flow id is the packet's; the origin is the binding handle's
    # visited[0] (see test_extended_handle_is_refused_on_another_flow_or_origin)
    assert not verify_ptt(retagged, "f2", KEYS["AS2"])


def test_merge_dominant_lower_bound():
    token = forward_ptt(None, "f1", (label_geq(2),), KEYS["AS1"])
    assert merge_constraints(LabelWindow(lo=1), token) == (LabelWindow(lo=2), ())


def test_merge_contradiction_is_unsatisfiable():
    token = forward_ptt(None, "f1", (label_geq(3),), KEYS["AS1"])
    window, _ = merge_constraints(LabelWindow(lo=1, hi=1), token)
    assert window.empty


def test_merge_satisfiability_over_small_ranks():
    # exhaustive satisfiability check: window [a, c] vs GEQ b over ranks 1..5
    for a, b, c in itertools.product(range(1, 6), repeat=3):
        token = forward_ptt(None, "f1", (label_geq(b),), KEYS["AS1"])
        window, _ = merge_constraints(LabelWindow(lo=a, hi=c), token)
        if max(a, b) <= c:
            assert window == LabelWindow(lo=max(a, b), hi=c)
        else:
            assert window.empty


def test_merge_unions_other_kinds():
    attr = Constraint(ConstraintKind.PACKET_ATTR, attr="type", value="HTTP")
    token = forward_ptt(None, "f1", (label_geq(2), attr), KEYS["AS1"])
    assert merge_constraints(LabelWindow(hi=4), token) == (LabelWindow(lo=2, hi=4), (attr,))


def test_merge_without_token_keeps_local():
    assert merge_constraints(LabelWindow(lo=2, hi=4), None) == (LabelWindow(lo=2, hi=4), ())


def test_transit_packet_in_classifies_transit_and_drop():

    from sdnsec.dataplane import Packet
    from sdnsec.scenario import bundled_scenario_path, load_scenario
    from sdnsec.simulation import build_world

    world = build_world(load_scenario(bundled_scenario_path("four_domain_transit")))
    as1, as2 = world.controllers["AS1"], world.controllers["AS2"]
    # a controller holds the keys of its neighbors and of no other domain
    assert sorted(as2.key_ring) == list(world.as_graph.neighbors("AS2")) == ["AS1", "AS3"]
    packet = Packet(
        src_ip=ip("10.0.0.2"),
        dst_ip=ip("192.168.52.72"),
        src_mac="00:00:00:00:00:01",
        dst_mac="00:00:00:00:01:01",
        ip_proto="tcp",
        service_port=443,
        packet_type="HTTPS",
    )
    ptt = forward_ptt(None, packet.flow_id, (label_geq(2),), as1.handle_key)
    handle = extend_handle(None, packet.flow_id, "AS1", ptt, as1.handle_key)
    result = as2.handle_packet_in(packet, "2SW1", "1SW2", 0, handle=handle)
    # transit: the egress rule leads on into AS3 with the extended handle
    gateway, peer, rule = egress_hop(world, result.installs)
    assert (gateway, peer) == ("2SW3", "3SW2")
    assert rule.handle.visited == ("AS1", "AS2")
    # a handle tagged under a key other than AS1's is refused
    foreign = extend_handle(None, packet.flow_id, "AS1", None, KEYS["AS1"])
    refused = as2.handle_packet_in(packet, "2SW1", "1SW2", 0, handle=foreign)
    assert refused.installs == ()
    assert refused.reason == "HANDLE_INVALID"


def test_wire_tampering_is_bit_precise():
    # flipping any single hex digit of either credential's tag breaks
    # verification
    token = forward_ptt(None, "f1", (label_geq(2),), KEYS["AS1"])
    handle = extend_handle(None, "f1", "AS1", token, KEYS["AS1"])
    assert validate_handle(handle, "f1", ring("AS1"))
    assert verify_ptt(token, "f1", KEYS["AS1"])
    for credential, verifies in (
        (handle, lambda h: validate_handle(h, "f1", ring("AS1"))),
        (token, lambda t: verify_ptt(t, "f1", KEYS["AS1"])),
    ):
        tag = credential.tag
        for index in range(len(tag)):
            flipped = tag[:index] + f"{int(tag[index], 16) ^ 1:x}" + tag[index + 1 :]
            assert not verifies(replace(credential, tag=flipped))


# secrets on both sides of SHA-256's 64-byte block: HMAC hashes a longer one
SECRETS = st.one_of(st.binary(max_size=64), st.binary(min_size=65, max_size=200))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(secret=SECRETS, other=SECRETS, payload=st.binary(max_size=300))
def test_a_prepared_key_tags_as_hmac_sha256_does(secret, other, payload):
    key = DomainKey(secret)
    expected = hmac.new(secret, payload, hashlib.sha256).hexdigest()
    # a second tag under the same key is the same: the prepared states
    # are copied, never consumed
    assert key.tag(payload) == expected
    assert key.tag(payload) == expected
    # HMAC pads a short secret with zero bytes, so secrets that differ only
    # there are one key
    assume(secret.rstrip(b"\0") != other.rstrip(b"\0"))
    foreign = DomainKey(other)
    handle = extend_handle(None, "f1", "AS1", forward_ptt(None, "f1", (label_geq(2),), key), key)
    assert validate_handle(handle, "f1", {"AS1": key}) and verify_ptt(handle.ptt, "f1", key)
    assert not validate_handle(handle, "f1", {"AS1": foreign})
    assert not verify_ptt(handle.ptt, "f1", foreign)


def test_each_world_prepares_one_key_per_domain_and_every_ring_shares_it():
    from sdnsec.scenario import bundled_scenario_path, load_scenario
    from sdnsec.simulation import build_world

    scenario = load_scenario(bundled_scenario_path("four_domain_transit"))
    world, again = build_world(scenario), build_world(scenario)
    for as_id, ctrl in world.controllers.items():
        assert ctrl.handle_key.secret == scenario.domain(as_id).handle_key.encode()
        for peer, key in ctrl.key_ring.items():
            assert key is world.controllers[peer].handle_key
        # no key outlives its world
        assert ctrl.handle_key is not again.controllers[as_id].handle_key
