import random
from collections import Counter
from ipaddress import IPv4Network

import pytest

from sdnsec.formats import REPOSITORY_FIELDS, parse_repository
from sdnsec.labels import parse_label_constraint
from sdnsec.policy import (
    Action,
    Constraint,
    ConstraintKind,
    DomainInfo,
    EndpointSelector,
    FlowContext,
    PolicyExpression,
    match_pe,
    specificity,
)

from helpers import (
    CONDITION_FIELDS,
    ip,
    make_ctx,
    matching_pe,
    non_wildcard_fields,
    oracle_match,
    random_ctx,
    random_pe,
    wildcarded,
)

SAMPLE_PE = PolicyExpression(
    id="21",
    action=Action.ALLOW,
    source=EndpointSelector(
        subnet=IPv4Network("10.0.0.0/25"),
        as_type="EDU",
        label_req=parse_label_constraint("SL2"),
        host_ip=ip("10.0.0.2"),
        host_mac="00:00:00:00:00:01",
    ),
    dest=EndpointSelector(
        subnet=IPv4Network("192.168.52.0/24"),
        as_type="EDU",
        label_req=parse_label_constraint("SL4"),
        host_ip=ip("192.168.52.72"),
        host_mac="00:00:00:00:01:01",
    ),
    dom_cons=(
        Constraint(ConstraintKind.LABEL_PATH, label=parse_label_constraint("SL2+=")),
    ),
    sec_profile=frozenset({"conf"}),
    path=("AS1", "AS2"),
)


def sample_ctx(**overrides):
    overrides.setdefault("traversed_path", ("AS1", "AS2"))
    return make_ctx(**overrides)


def test_sample_record_matches_its_flow():
    assert match_pe(SAMPLE_PE, sample_ctx())


@pytest.mark.parametrize(
    "override",
    [
        {"src_ip": ip("10.0.0.3")},
        {"dst_ip": ip("192.168.52.73")},
        {"src_mac": "00:00:00:00:00:02"},
        {"traversed_path": ("AS1",)},
        {"traversed_path": ("AS2", "AS1")},
    ],
)
def test_single_field_mismatch_fails(override):
    assert not match_pe(SAMPLE_PE, sample_ctx(**override))


@pytest.mark.parametrize("unknown", [DomainInfo("AS9"), DomainInfo("")], ids=["beyond-ttl", "unadvertised"])
def test_full_label_window_is_a_requirement_not_the_wildcard(unknown):
    # SL1+= admits every rank, the same window as a "*" constraint token, yet
    # as a selector it still requires a known label: a domain beyond the
    # probe horizon, or no domain at all, fails it while the wildcard passes
    def parsed(label):
        record = dict.fromkeys(REPOSITORY_FIELDS, "*")
        record.update(id="p", action="allow", srcastrulabel=label, dstastrulabel=label)
        (pe,) = parse_repository([record])
        return pe

    required, wild = parsed("SL1+="), parsed("*")
    for ctx in (make_ctx(src_as=unknown), make_ctx(dst_as=unknown)):
        assert not match_pe(required, ctx)
        assert match_pe(wild, ctx)
    assert match_pe(required, make_ctx())
    assert specificity(required) == specificity(wild) + 2


def test_transit_path_and_port_condition():
    # provenance-checking expression at a transit domain: exact traversed
    # sequence plus service membership
    pe = PolicyExpression(
        id="2",
        action=Action.ALLOW,
        source=EndpointSelector(subnet=IPv4Network("10.0.0.0/25"), as_type="EDU"),
        dest=EndpointSelector(subnet=IPv4Network("192.168.52.0/24")),
        services=frozenset({80, 443}),
        path=("AS1", "AS2"),
    )
    assert match_pe(pe, sample_ctx(service_port=443))
    assert not match_pe(pe, sample_ctx(service_port=22))


def test_switch_typed_path_is_not_a_condition():
    pe = PolicyExpression(id="p", action=Action.ALLOW, path=("SW1", "SW5", "SW4"))
    assert match_pe(pe, make_ctx(traversed_path=()))


def test_mixed_path_rejected():
    with pytest.raises(ValueError):
        PolicyExpression(id="p", action=Action.ALLOW, path=("AS1", "SW2"))


def test_validity_window_is_half_open():
    pe = PolicyExpression(id="p", action=Action.ALLOW, validity=(10, 20))
    assert not match_pe(pe, make_ctx(timestamp=9))
    assert match_pe(pe, make_ctx(timestamp=10))
    assert match_pe(pe, make_ctx(timestamp=19))
    assert not match_pe(pe, make_ctx(timestamp=20))


def test_match_all_wildcards_matches_random_contexts():
    pe = PolicyExpression(id="any", action=Action.ALLOW)
    rng = random.Random(7)
    for _ in range(100):
        assert match_pe(pe, random_ctx(rng))


def test_match_agrees_with_conjunction_oracle():
    rng = random.Random(20260808)
    agreements = 0
    for i in range(10_000):
        pe = random_pe(rng, f"pe{i}")
        ctx = random_ctx(rng)
        if match_pe(pe, ctx) == oracle_match(pe, ctx):
            agreements += 1
    assert agreements == 10_000


def test_field_toggles_against_oracle():
    # brute-force every condition field: wildcard each one in turn and
    # compare the match outcome with the oracle on a context that matches
    # the fully-specified expression everywhere
    rng = random.Random(99)
    for _ in range(200):
        pe = random_pe(rng, "pe")
        ctx = random_ctx(rng)
        for field_name in CONDITION_FIELDS:
            widened = wildcarded(pe, field_name)
            assert match_pe(widened, ctx) == oracle_match(widened, ctx)


def test_wildcard_monotonicity():
    # matching pairs are built, not filtered out of random ones, so every
    # condition field is exercised non-wild in a stated share of the pairs
    rng = random.Random(31)
    pairs = 300
    fixed = Counter()
    for _ in range(pairs):
        ctx = random_ctx(rng)
        pe = matching_pe(rng, ctx, "pe")
        assert match_pe(pe, ctx) and oracle_match(pe, ctx)
        fixed.update(non_wildcard_fields(pe))
        for field_name in CONDITION_FIELDS:
            assert match_pe(wildcarded(pe, field_name), ctx), field_name
    assert min(fixed[name] for name in CONDITION_FIELDS) >= pairs // 4, fixed


def test_specificity_counts_non_wildcards():
    assert specificity(PolicyExpression(id="p", action=Action.ALLOW)) == 0
    assert specificity(SAMPLE_PE) == 13


def test_traversed_path_duplicates_rejected():
    with pytest.raises(ValueError):
        make_ctx(traversed_path=("AS1", "AS1"))
