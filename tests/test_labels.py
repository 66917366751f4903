import pytest
from hypothesis import given, strategies as st

from sdnsec.labels import (
    ANY_LABEL,
    LabelConstraint,
    LabelParseError,
    LabelRelation,
    LabelWindow,
    SecurityLabel,
    parse_label_constraint,
)


def test_rank_must_be_positive():
    with pytest.raises(ValueError):
        SecurityLabel(0)
    with pytest.raises(ValueError):
        SecurityLabel(-3)


def test_total_order():
    assert SecurityLabel(1) < SecurityLabel(2) < SecurityLabel(10)


def test_parse_geq_sample():
    constraint = parse_label_constraint("SL2+=")
    assert constraint == LabelConstraint(LabelRelation.GEQ, SecurityLabel(2))


def test_parse_wildcard():
    assert parse_label_constraint("*") is ANY_LABEL


def test_parse_bare_label_is_equality():
    constraint = parse_label_constraint("SL4")
    assert constraint.relation is LabelRelation.EQ
    # frozen against a hand table over SL1..SL5
    expected = {1: False, 2: False, 3: False, 4: True, 5: False}
    for rank, ok in expected.items():
        assert constraint.satisfies(SecurityLabel(rank)) is ok


def test_parse_leq():
    constraint = parse_label_constraint("SL3-=")
    assert constraint.relation is LabelRelation.LEQ
    assert constraint.satisfies(SecurityLabel(3))
    assert not constraint.satisfies(SecurityLabel(4))


@pytest.mark.parametrize("bad", ["", "   ", "SL", "SLx", "2+=", "SL2=+", "label2", "SL0"])
def test_parse_errors_name_offender(bad):
    with pytest.raises(LabelParseError) as info:
        parse_label_constraint(bad)
    assert info.value.text == bad
    assert info.value.position >= 0


def test_round_trip_canonical_text():
    for text in ["*", "SL1", "SL2+=", "SL7-="]:
        assert parse_label_constraint(text).text() == text


def test_any_rejects_base():
    with pytest.raises(ValueError):
        LabelConstraint(LabelRelation.ANY, SecurityLabel(1))
    with pytest.raises(ValueError):
        LabelConstraint(LabelRelation.GEQ, None)


def test_algebra_exhaustive_ranks_1_to_10():
    # GEQ/LEQ agree with integer comparison, EQ is reflexive.
    for base in range(1, 11):
        for rank in range(1, 11):
            label = SecurityLabel(rank)
            assert LabelConstraint(LabelRelation.GEQ, SecurityLabel(base)).satisfies(label) == (rank >= base)
            assert LabelConstraint(LabelRelation.LEQ, SecurityLabel(base)).satisfies(label) == (rank <= base)
            assert LabelConstraint(LabelRelation.EQ, SecurityLabel(base)).satisfies(label) == (rank == base)
        assert LabelConstraint(LabelRelation.EQ, SecurityLabel(base)).satisfies(SecurityLabel(base))


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
def test_window_intersection_matches_conjunction(base_a, base_b, rank):
    ca = LabelConstraint(LabelRelation.GEQ, SecurityLabel(base_a))
    cb = LabelConstraint(LabelRelation.LEQ, SecurityLabel(base_b))
    window = LabelWindow.conjoin([ca, cb])
    label = SecurityLabel(rank)
    assert window.satisfies(label) == (ca.satisfies(label) and cb.satisfies(label))


def test_window_empty_detection():
    window = LabelWindow.conjoin(
        [
            LabelConstraint(LabelRelation.EQ, SecurityLabel(1)),
            LabelConstraint(LabelRelation.GEQ, SecurityLabel(3)),
        ]
    )
    assert window.empty
