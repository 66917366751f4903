import pytest
from hypothesis import given, settings, strategies as st

from sdnsec.labels import (
    LabelParseError,
    LabelWindow,
    SecurityLabel,
    parse_label,
    parse_label_constraint,
)


def test_rank_must_be_positive():
    with pytest.raises(ValueError):
        SecurityLabel(0)
    with pytest.raises(ValueError):
        SecurityLabel(-3)


def test_bare_label_rank_must_be_positive():
    with pytest.raises(LabelParseError, match="rank must be >= 1"):
        parse_label("SL0")


def test_total_order():
    assert SecurityLabel(1) < SecurityLabel(2) < SecurityLabel(10)


def test_parse_geq_sample():
    constraint = parse_label_constraint("SL2+=")
    assert constraint == LabelWindow(lo=2)


def test_parse_wildcard():
    assert parse_label_constraint("*") == LabelWindow()


def test_parse_bare_label_is_equality():
    constraint = parse_label_constraint("SL4")
    assert constraint == LabelWindow(4, 4)
    # frozen against a hand table over SL1..SL5
    expected = {1: False, 2: False, 3: False, 4: True, 5: False}
    for rank, ok in expected.items():
        assert constraint.satisfies(SecurityLabel(rank)) is ok


def test_parse_leq():
    constraint = parse_label_constraint("SL3-=")
    assert constraint == LabelWindow(hi=3)
    assert constraint.satisfies(SecurityLabel(3))
    assert not constraint.satisfies(SecurityLabel(4))


@pytest.mark.parametrize("bad", ["", "   ", "SL", "SLx", "2+=", "SL2=+", "label2", "SL0"])
def test_parse_errors_name_offender(bad):
    with pytest.raises(LabelParseError) as info:
        parse_label_constraint(bad)
    assert info.value.text == bad
    assert info.value.position >= 0


def test_round_trip_canonical_text():
    for text in ["SL1", "SL2+=", "SL7-="]:
        assert str(parse_label_constraint(text)) == text
    # the wildcard and SL1+= admit every rank, so they are one window and
    # print alike; SL1-= admits only SL1 and prints as the equality
    assert parse_label_constraint("*") == parse_label_constraint("SL1+=")
    assert str(parse_label_constraint("*")) == "SL1+="
    assert str(parse_label_constraint("SL1-=")) == "SL1"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.none() | st.integers(0, 5))
def test_a_window_prints_as_a_token_that_reads_back_to_it_or_raises(lo, hi):
    window = LabelWindow(lo, hi)
    # the windows one token spells: equality, at-least and at-most
    spelt = lo == hi or hi is None or (lo == 1 and hi >= 1)
    if spelt:
        assert parse_label_constraint(str(window)) == window
    else:
        with pytest.raises(ValueError, match=f"no label token spells the window of ranks {lo}..{hi}"):
            str(window)


def test_any_rejects_base():
    # the wildcard carries no base label, and a relation needs one
    for bad in ("*SL1", "SL1*", "+=", "-="):
        with pytest.raises(LabelParseError):
            parse_label_constraint(bad)


# token -> the ranks 1..7 it admits, written out by hand
ADMITS = {
    "*": "1234567",
    "SL1": "1", "SL2": "2", "SL3": "3", "SL4": "4", "SL5": "5", "SL6": "6",
    "SL1+=": "1234567", "SL2+=": "234567", "SL3+=": "34567",
    "SL4+=": "4567", "SL5+=": "567", "SL6+=": "67",
    "SL1-=": "1", "SL2-=": "12", "SL3-=": "123",
    "SL4-=": "1234", "SL5-=": "12345", "SL6-=": "123456",
}


@pytest.mark.parametrize("token", sorted(ADMITS))
def test_every_token_admits_its_table_row_and_reparses(token):
    window = parse_label_constraint(token)
    admitted = "".join(str(rank) for rank in range(1, 8) if window.satisfies(SecurityLabel(rank)))
    assert admitted == ADMITS[token]
    assert parse_label_constraint(str(window)) == window


def test_algebra_exhaustive_ranks_1_to_10():
    # at-least/at-most agree with integer comparison, equality is reflexive.
    for base in range(1, 11):
        for rank in range(1, 11):
            label = SecurityLabel(rank)
            assert parse_label_constraint(f"SL{base}+=").satisfies(label) == (rank >= base)
            assert parse_label_constraint(f"SL{base}-=").satisfies(label) == (rank <= base)
            assert parse_label_constraint(f"SL{base}").satisfies(label) == (rank == base)
        assert parse_label_constraint(f"SL{base}").satisfies(SecurityLabel(base))


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
def test_window_intersection_matches_conjunction(base_a, base_b, rank):
    ca = parse_label_constraint(f"SL{base_a}+=")
    cb = parse_label_constraint(f"SL{base_b}-=")
    window = LabelWindow.conjoin([ca, cb])
    label = SecurityLabel(rank)
    assert window.satisfies(label) == (ca.satisfies(label) and cb.satisfies(label))
    assert window.satisfies(label) == (base_a <= rank <= base_b)


def test_window_empty_detection():
    window = LabelWindow.conjoin(
        [
            parse_label_constraint("SL1"),
            parse_label_constraint("SL3+="),
        ]
    )
    assert window.empty
