import random
from fractions import Fraction
from ipaddress import IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

import sdnsec.policy
from sdnsec.controller import CostModel
from sdnsec.interdomain import DomainKey, forward_ptt
from sdnsec.labels import LabelWindow, parse_label_constraint
from sdnsec.policy import (
    Action,
    Constraint,
    ConstraintKind,
    DuplicatePolicyIdError,
    EndpointSelector,
    PolicyExpression,
    PolicyIndex,
    match_pe,
    select_policy,
    specificity,
)
from sdnsec.scenario import bundled_scenario_path, load_scenario
from sdnsec.simulation import build_world
from sdnsec.sweep import pad_policies

from helpers import PORTS, ip, make_ctx, matching_pe, oracle_match, random_ctx, random_pe, scan_select
from test_controller import make_packet


def allow(pe_id, **kwargs):
    return PolicyExpression(id=pe_id, action=Action.ALLOW, **kwargs)


def test_empty_repository_is_default_deny():
    assert select_policy([], make_ctx()) is None


def test_no_match_is_deny():
    pe = allow("1", services=frozenset({22}))
    assert select_policy([pe], make_ctx(service_port=443)) is None


def test_exit_obligation_emitted():
    pe = allow(
        "1",
        source=EndpointSelector(subnet=IPv4Network("10.0.0.0/24"), host_ip=ip("10.0.0.2")),
        services=frozenset({80, 443}),
        action_exit="1SW2",
    )
    winner = select_policy([pe], make_ctx(service_port=443))
    assert winner is pe
    assert winner.action_exit == "1SW2"


def test_deny_overrides_any_allow():
    rng = random.Random(5)
    for trial in range(200):
        ctx = random_ctx(rng)
        repo = [random_pe(rng, f"pe{i}") for i in range(6)]
        baseline = select_policy(repo, ctx)
        blanket_deny = PolicyExpression(id="zz-deny", action=Action.DENY)
        flipped = select_policy(repo + [blanket_deny], ctx)
        assert flipped.action is Action.DENY
        if baseline is None:
            assert flipped.id == "zz-deny"


def test_most_specific_allow_wins():
    broad = allow("b")
    narrow = allow(
        "n",
        source=EndpointSelector(
            subnet=IPv4Network("10.0.0.0/24"),
            as_type="EDU",
            host_ip=ip("10.0.0.2"),
            host_mac="00:00:00:00:00:01",
        ),
        services=frozenset({443}),
    )
    assert specificity(broad) == 0
    assert specificity(narrow) == 5
    assert select_policy([broad, narrow], make_ctx()).id == "n"


def test_specificity_tie_breaks_on_smallest_id():
    a = allow("20", services=frozenset({443}))
    b = allow("10", services=frozenset({443}))
    assert select_policy([a, b], make_ctx()).id == "10"


def test_selection_agrees_with_sort_oracle():
    rng = random.Random(17)
    for trial in range(500):
        ctx = random_ctx(rng)
        repo = [random_pe(rng, f"pe{i:02d}") for i in range(8)]
        winner = select_policy(repo, ctx)
        matching = [pe for pe in repo if oracle_match(pe, ctx)]
        if not matching:
            assert winner is None
            continue
        ranked = sorted(matching, key=lambda pe: (-specificity(pe), pe.id))
        assert winner is ranked[0]
        assert winner.action is Action.ALLOW


def test_label_window_from_path_constraints():
    def label(token):
        return Constraint(ConstraintKind.LABEL_PATH, label=parse_label_constraint(token))

    pe = allow("1", flow_cons=(label("SL4-="),), dom_cons=(label("SL2+="),))
    assert select_policy([pe], make_ctx()).label_window == LabelWindow(lo=2, hi=4)


def test_ptt_constraints_are_flow_scoped_only():
    label = Constraint(
        ConstraintKind.LABEL_PATH, label=parse_label_constraint("SL2+=")
    )
    sig = Constraint(ConstraintKind.SIGNATURE, signature="HTTPS")
    pe = allow("1", flow_cons=(label, sig))
    winner = select_policy([pe], make_ctx(packet_type="HTTPS"))
    assert forward_ptt(None, "flow", winner.flow_cons, DomainKey(b"k")).constraints == (label,)


def test_selection_is_deterministic():
    rng = random.Random(23)
    repo = [random_pe(rng, f"pe{i}") for i in range(10)]
    ctx = random_ctx(rng)
    assert select_policy(repo, ctx) == select_policy(list(repo), ctx)


def test_default_deny_over_many_random_contexts():
    rng = random.Random(41)
    for _ in range(2000):
        assert select_policy([], random_ctx(rng)) is None


# Small address pools shared by contexts and expressions, so every bucket
# family of the index is hit as well as missed.
SRC_POOL = tuple(ip(f"10.0.0.{i}") for i in range(1, 4))
DST_POOL = tuple(ip(f"192.168.52.{i}") for i in range(1, 4))
DST_SUBNETS = (IPv4Network("192.168.52.0/24"), IPv4Network("192.168.52.0/31"))
CONTEXTS = 2
FLOW_CHOICES = CONTEXTS + 1  # the flow id of either context, or one neither has
CONSTRAINT_POOL = (
    Constraint(ConstraintKind.PACKET_ATTR, attr="type", value="HTTP"),
    Constraint(ConstraintKind.RATE_THRESHOLD, rate=Fraction(5)),
    Constraint(ConstraintKind.LABEL_PATH, label=parse_label_constraint("SL3+=")),
    # with the GEQ 3 above, an empty window, which the controller denies
    Constraint(ConstraintKind.LABEL_PATH, label=parse_label_constraint("SL2-=")),
)
CONTEXT = st.builds(
    make_ctx,
    src_ip=st.sampled_from(SRC_POOL),
    dst_ip=st.sampled_from(DST_POOL),
    service_port=st.sampled_from(PORTS),
    packet_type=st.sampled_from(("HTTP", "HTTPS")),
    user=st.sampled_from((None, "alice")),
)


def _pick(options, choice):
    """The option that ``choice`` names from 1 up; 0 and every choice past
    the options are the wildcard, about half of all draws."""
    return options[choice - 1] if 0 < choice <= len(options) else None


def _ports(mask):
    """The nonempty port set that ``mask``'s bits name, multi-port ones too;
    0 and every mask past those bits are the wildcard."""
    if not 0 < mask < 2 ** len(PORTS):
        return None
    return frozenset(port for bit, port in enumerate(PORTS) if mask >> bit & 1)


def expression(pe_id, flow_ids, choices):
    """Expression from one tuple of small choices, one per field."""
    action, flow, src, as_type, dst, subnet, user, cons, services, path, exit_ = choices
    return PolicyExpression(
        id=pe_id,
        action=(Action.ALLOW, Action.DENY)[action],
        flow_id=_pick(flow_ids, flow),
        source=EndpointSelector(host_ip=_pick(SRC_POOL, src), as_type=_pick(("EDU", "COM"), as_type)),
        dest=EndpointSelector(host_ip=_pick(DST_POOL, dst), subnet=_pick(DST_SUBNETS, subnet)),
        user=_pick(("alice",), user),
        flow_cons=tuple(c for bit, c in enumerate(CONSTRAINT_POOL) if cons >> bit & 1),
        services=_ports(services),
        path=_pick((("SW1", "SW2"),), path),
        action_exit=_pick(("SW2",), exit_),
    )


# the largest choice per field: the four index keys and the optional fields
# are wild in about half of the draws, so all-wildcard expressions are common
CHOICES = st.tuples(
    *(
        st.integers(0, top)
        for top in (
            1,  # action
            2 * FLOW_CHOICES,
            2 * len(SRC_POOL),
            4,  # source.as_type
            2 * len(DST_POOL),
            4,  # dest.subnet
            2,  # user
            2 ** len(CONSTRAINT_POOL) - 1,
            2 ** (len(PORTS) + 1) - 1,  # services
            2,  # path
            2,  # action_exit
        )
    )
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(CONTEXT, min_size=CONTEXTS, max_size=CONTEXTS),
    st.lists(CHOICES, max_size=10),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_indexed_selection_agrees_with_the_scan(ctxs, rows, twins, rng):
    flow_ids = [ctx.packet.flow_id for ctx in ctxs] + ["10.9.9.9>192.168.9.9:1/tcp"]
    # twins repeat a row's conditions under another id, and ids are shuffled
    # against list order, so the id tie-break decides equal allows
    rows = rows + rows[:twins]
    ids = [f"pe{i:02d}" for i in range(len(rows))]
    rng.shuffle(ids)
    repo = [expression(pe_id, flow_ids, row) for pe_id, row in zip(ids, rows)]
    index = PolicyIndex(repo)
    assert len(index) == len(repo)
    for ctx in ctxs:  # one index, several contexts
        expected = scan_select(repo, ctx)
        assert select_policy(index, ctx) is expected
        assert select_policy(repo, ctx) is expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(1, 10), st.integers(0, 2))
def test_selection_by_kept_ranks_agrees_with_the_scan(seed, size, denies):
    # selection ranks allows by the key each expression keeps once worked
    # out; the scan works out specificity afresh on every call
    rng = random.Random(seed)
    ctxs = [random_ctx(rng) for _ in range(3)]
    ids = [f"pe{i:02d}" for i in range(size + denies)]
    rng.shuffle(ids)
    # about half match the first context by construction, so allows compete
    repo = [
        matching_pe(rng, ctxs[0], pe_id) if rng.random() < 0.5 else random_pe(rng, pe_id) for pe_id in ids[:size]
    ] + [random_pe(rng, pe_id, Action.DENY) for pe_id in ids[size:]]
    index = PolicyIndex(repo)
    for ctx in ctxs + ctxs:  # the second pass reads the kept keys
        assert select_policy(index, ctx) is scan_select(repo, ctx)
    for pe in repo:
        if "selection_key" in vars(pe):
            assert pe.selection_key == (-specificity(pe), pe.id)


def test_index_rejects_a_repeated_id():
    # ids break selection ties, so candidate order may not
    with pytest.raises(DuplicatePolicyIdError):
        select_policy([allow("p"), allow("p", services=frozenset({443}))], make_ctx())


def test_filler_does_not_grow_the_matching_work(monkeypatch):
    # 7,990 never-matching expressions more: the same candidates are
    # matched, while the modelled cost still charges each expression
    calls = []
    monkeypatch.setattr(sdnsec.policy, "match_pe", lambda pe, ctx: calls.append(pe.id) or match_pe(pe, ctx))
    scenario = load_scenario(bundled_scenario_path("four_domain_transit"))
    counts, ticks = {}, {}
    for total in (10, 8_000):
        world = build_world(pad_policies(scenario, total))
        ctrl = world.controllers[scenario.domains[0].id]
        assert len(ctrl.policy_repo) == total
        ctx = ctrl.build_context(make_packet(), None, 0)
        calls.clear()
        assert select_policy(ctrl.policy_repo, ctx).id == "1"
        counts[total] = len(calls)
        ctrl.handle_packet_in(make_packet(), "S1A", "X", 0)
        ticks[total] = ctrl.events[-1].service_ticks
    assert counts[10] == counts[8_000] == 1
    assert ticks[8_000] - ticks[10] == CostModel().per_pe * (8_000 - 10)
