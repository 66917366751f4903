import random
from ipaddress import IPv4Address, IPv4Network

from sdnsec.labels import LabelConstraint, LabelRelation, LabelWindow, SecurityLabel
from sdnsec.policy import (
    Action,
    Constraint,
    ConstraintKind,
    EndpointSelector,
    PolicyExpression,
    match_pe,
    select_policy,
    specificity,
)

from helpers import make_ctx, oracle_match, random_ctx, random_pe


def allow(pe_id, **kwargs):
    return PolicyExpression(id=pe_id, action=Action.ALLOW, **kwargs)


def test_empty_repository_is_default_deny():
    decision = select_policy([], make_ctx())
    assert decision.verdict is Action.DENY
    assert decision.matched_pe is None


def test_no_match_is_deny():
    pe = allow("1", services=frozenset({22}))
    decision = select_policy([pe], make_ctx(service_port=443))
    assert decision.verdict is Action.DENY


def test_exit_obligation_emitted():
    pe = allow(
        "1",
        source=EndpointSelector(subnet=IPv4Network("10.0.0.0/24"), host_ip=IPv4Address("10.0.0.2")),
        services=frozenset({80, 443}),
        action_exit="1SW2",
    )
    decision = select_policy([pe], make_ctx(service_port=443))
    assert decision.verdict is Action.ALLOW
    assert decision.matched_pe == "1"
    assert decision.exit_obligation == "1SW2"


def test_deny_overrides_any_allow():
    rng = random.Random(5)
    for trial in range(200):
        ctx = random_ctx(rng)
        repo = [random_pe(rng, f"pe{i}") for i in range(6)]
        baseline = select_policy(repo, ctx)
        blanket_deny = PolicyExpression(id="zz-deny", action=Action.DENY)
        flipped = select_policy(repo + [blanket_deny], ctx)
        assert flipped.verdict is Action.DENY
        if baseline.verdict is Action.DENY and baseline.matched_pe is None:
            assert flipped.matched_pe == "zz-deny"


def test_most_specific_allow_wins():
    broad = allow("b")
    narrow = allow(
        "n",
        source=EndpointSelector(
            subnet=IPv4Network("10.0.0.0/24"),
            as_type="EDU",
            host_ip=IPv4Address("10.0.0.2"),
            host_mac="00:00:00:00:00:01",
        ),
        services=frozenset({443}),
    )
    assert specificity(broad) == 0
    assert specificity(narrow) == 5
    decision = select_policy([broad, narrow], make_ctx())
    assert decision.matched_pe == "n"


def test_specificity_tie_breaks_on_smallest_id():
    a = allow("20", services=frozenset({443}))
    b = allow("10", services=frozenset({443}))
    decision = select_policy([a, b], make_ctx())
    assert decision.matched_pe == "10"


def test_selection_agrees_with_sort_oracle():
    rng = random.Random(17)
    for trial in range(500):
        ctx = random_ctx(rng)
        repo = [random_pe(rng, f"pe{i:02d}") for i in range(8)]
        decision = select_policy(repo, ctx)
        matching = [pe for pe in repo if oracle_match(pe, ctx)]
        if not matching:
            assert decision.verdict is Action.DENY
            continue
        ranked = sorted(matching, key=lambda pe: (-specificity(pe), pe.id))
        assert decision.verdict is Action.ALLOW
        assert decision.matched_pe == ranked[0].id


def test_label_window_from_path_constraints():
    def label(relation, rank):
        return Constraint(ConstraintKind.LABEL_PATH, label=LabelConstraint(relation, SecurityLabel(rank)))

    pe = allow("1", flow_cons=(label(LabelRelation.LEQ, 4),), dom_cons=(label(LabelRelation.GEQ, 2),))
    decision = select_policy([pe], make_ctx())
    assert decision.label_window == LabelWindow(lo=2, hi=4)


def test_ptt_constraints_are_flow_scoped_only():
    label = Constraint(
        ConstraintKind.LABEL_PATH, label=LabelConstraint(LabelRelation.GEQ, SecurityLabel(2))
    )
    sig = Constraint(ConstraintKind.SIGNATURE, signature="HTTPS")
    pe = allow("1", flow_cons=(label, sig))
    decision = select_policy([pe], make_ctx(packet_type="HTTPS"))
    assert decision.ptt_constraints == (label,)


def test_unsatisfiable_own_constraints_deny():
    pe = allow(
        "1",
        flow_cons=(
            Constraint(
                ConstraintKind.LABEL_PATH,
                label=LabelConstraint(LabelRelation.EQ, SecurityLabel(1)),
            ),
        ),
        dom_cons=(
            Constraint(
                ConstraintKind.LABEL_PATH,
                label=LabelConstraint(LabelRelation.GEQ, SecurityLabel(3)),
            ),
        ),
    )
    decision = select_policy([pe], make_ctx())
    assert decision.verdict is Action.DENY


def test_selection_is_deterministic():
    rng = random.Random(23)
    repo = [random_pe(rng, f"pe{i}") for i in range(10)]
    ctx = random_ctx(rng)
    assert select_policy(repo, ctx) == select_policy(list(repo), ctx)


def test_default_deny_over_many_random_contexts():
    rng = random.Random(41)
    for _ in range(2000):
        assert select_policy([], random_ctx(rng)).verdict is Action.DENY
