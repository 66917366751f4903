import random
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from sdnsec.defense import (
    CapacityModel,
    FloodMonitor,
    ResponseMode,
    WindowCounts,
    compute_thresholds,
)

from helpers import RollingMonitor

RESPONSES = (ResponseMode.THROTTLE, ResponseMode.DROP_RULE)


def test_worked_example():
    tsw, thost = compute_thresholds(CapacityModel(cc=1000, x=10, y=10))
    assert tsw == 100
    assert thost == 10


def test_degenerate_identity():
    tsw, thost = compute_thresholds(CapacityModel(cc=777, x=1, y=1))
    assert tsw == 777
    assert thost == 777


def test_zero_divisors_rejected():
    with pytest.raises(ValueError):
        CapacityModel(cc=1000, x=0, y=10)
    with pytest.raises(ValueError):
        CapacityModel(cc=1000, x=10, y=0)
    with pytest.raises(ValueError):
        CapacityModel(cc=0, x=1, y=1)


def test_random_models_match_rational_oracle():
    rng = random.Random(20260808)
    for _ in range(1000):
        cc = rng.randrange(1, 10_000)
        x = rng.randrange(1, 50)
        y = rng.randrange(1, 50)
        tsw, thost = compute_thresholds(CapacityModel(cc=cc, x=x, y=y))
        assert tsw == Fraction(cc, x)
        assert thost == Fraction(cc, x * y)
        # exact rational identities
        assert thost * y == tsw
        assert tsw * x == cc


def make_monitor(cc=400, x=2, y=2, response=ResponseMode.THROTTLE, window=1000):
    return FloodMonitor(CapacityModel(cc=cc, x=x, y=y), response=response, window_ticks=window)


def test_at_threshold_is_ok():
    monitor = make_monitor()  # Thost = 100
    responses = [monitor.record_and_check("h1", "s1", tick) for tick in range(100)]
    assert all(r is ResponseMode.NONE for r in responses)


def test_fires_exactly_on_threshold_plus_one():
    monitor = make_monitor()
    for tick in range(100):
        assert monitor.record_and_check("h1", "s1", tick) is ResponseMode.NONE
    assert monitor.record_and_check("h1", "s1", 100) is ResponseMode.THROTTLE
    assert monitor.blocked == set()  # throttling blocks nobody


def test_throttle_caps_admissions_per_window():
    # threshold policy under an offered rate above the budget: admitted
    # requests stay pinned at the threshold in every window
    monitor = make_monitor(cc=16000, x=2, y=2, window=1000)  # Thost = 4000
    admitted = 0
    for i in range(5000):
        if monitor.record_and_check("mal", "s1", i % 1000) is ResponseMode.NONE:
            admitted += 1
    assert admitted == 4000


def test_drop_rule_fires_once_then_remembers():
    monitor = make_monitor(response=ResponseMode.DROP_RULE)
    responses = [monitor.record_and_check("mal", "s1", tick) for tick in range(150)]
    assert responses[:100] == [ResponseMode.NONE] * 100
    assert responses[100:] == [ResponseMode.DROP_RULE] * 50
    assert monitor.blocked == {"mal"}


def test_legit_host_on_other_switch_untouched():
    monitor = make_monitor()
    for tick in range(0, 500):
        monitor.record_and_check("mal", "s1", tick)
    for tick in range(0, 50):
        assert monitor.record_and_check("good", "s2", tick) is ResponseMode.NONE


def test_switch_budget_throttles_without_marking_hosts():
    # more hosts behind one switch than the capacity model assumes: each
    # stays below its own budget yet together they blow the switch budget;
    # the excess is throttled at the switch but nobody is blocked, under
    # either response
    for response in RESPONSES:
        monitor = FloodMonitor(CapacityModel(cc=20, x=2, y=2), response=response, window_ticks=1000)
        # TSw = 10, Thost = 5; four hosts send three requests each
        responses = []
        for round_ in range(3):
            for host in ("a", "b", "c", "d"):
                responses.append(monitor.record_and_check(host, "s1", round_))
        throttled = [r for r in responses if r is ResponseMode.THROTTLE]
        assert len(throttled) == 2, response  # requests 11..12 cross TSw = 10
        assert responses.count(ResponseMode.NONE) == 10, response
        assert monitor.blocked == set(), response


def test_response_none_builds_no_monitor():
    with pytest.raises(ValueError):
        make_monitor(response=ResponseMode.NONE)


def test_window_rollover_resets_the_budget():
    monitor = make_monitor(cc=40, x=2, y=2, window=10)  # Thost = 10
    # steady traffic at exactly the budget, window after window
    for window in range(8):
        for i in range(10):
            assert monitor.record_and_check("h", "s", window * 10 + i) is ResponseMode.NONE, (window, i)
    assert monitor.requests.get("h", 79) == 10
    # one request more in a window is throttled ...
    for i in range(10):
        assert monitor.record_and_check("h", "s", 80 + i) is ResponseMode.NONE
    assert monitor.record_and_check("h", "s", 89) is ResponseMode.THROTTLE
    assert monitor.requests.get("h", 89) == 11
    # ... and the next window admits again, counting from zero
    assert monitor.record_and_check("h", "s", 90) is ResponseMode.NONE
    assert monitor.requests.get("h", 90) == 1


def test_window_counts_are_per_key_and_per_window():
    counts = WindowCounts(10)
    for tick in (0, 3, 9):
        counts.add("a", tick)
    counts.add("b", 5)
    assert (counts.get("a", 9), counts.get("b", 9), counts.get("c", 9)) == (3, 1, 0)
    # a later window starts every key from zero, whether or not it was seen
    counts.add("a", 10)
    assert (counts.get("a", 10), counts.get("b", 10)) == (1, 0)
    with pytest.raises(ValueError):
        WindowCounts(0)


@st.composite
def request_programs(draw):
    """Small budgets and a non-decreasing run of (host, switch, tick)
    requests, as the controller's sequential server issues them."""
    cc, x, y = draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    window = draw(st.integers(1, 6))
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from(("s1", "s2")), st.integers(0, 4)),
            max_size=80,
        )
    )
    requests, tick = [], 0
    for host, switch, gap in steps:
        tick += gap
        requests.append((host, switch, tick))
    return CapacityModel(cc=cc, x=x, y=y), window, requests


@settings(max_examples=300, deadline=None, derandomize=True)
@given(request_programs(), st.sampled_from(RESPONSES))
def test_monitor_matches_rolling_window_oracle(program, response):
    cap, window, requests = program
    monitor = FloodMonitor(cap, response=response, window_ticks=window)
    oracle = RollingMonitor(cap, response, window_ticks=window)
    for host, switch, tick in requests:
        assert monitor.record_and_check(host, switch, tick) is oracle.record_and_check(host, switch, tick)
        assert monitor.requests.get(host, tick) == oracle.requests(host)
        assert monitor.blocked == oracle.blocked()
