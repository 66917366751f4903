import random
from fractions import Fraction

import pytest

from sdnsec.defense import (
    CapacityModel,
    FloodMonitor,
    ResponseMode,
    Verdict,
    compute_thresholds,
)


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
    verdicts = [monitor.record_and_check("h1", "s1", tick) for tick in range(100)]
    assert all(v is Verdict.OK for v in verdicts)


def test_fires_exactly_on_threshold_plus_one():
    monitor = make_monitor()
    for tick in range(100):
        assert monitor.record_and_check("h1", "s1", tick) is Verdict.OK
    assert monitor.record_and_check("h1", "s1", 100) is Verdict.THROTTLE


def test_throttle_caps_admissions_per_window():
    # threshold policy under an offered rate above the budget: admitted
    # requests stay pinned at the threshold in every window
    monitor = make_monitor(cc=16000, x=2, y=2, window=1000)  # Thost = 4000
    admitted = 0
    for i in range(5000):
        if monitor.record_and_check("mal", "s1", i % 1000) is Verdict.OK:
            admitted += 1
    assert admitted == 4000


def test_drop_rule_fires_once_then_remembers():
    monitor = make_monitor(response=ResponseMode.DROP_RULE)
    verdicts = [monitor.record_and_check("mal", "s1", tick) for tick in range(150)]
    assert verdicts[:100] == [Verdict.OK] * 100
    assert verdicts[100:] == [Verdict.DROP_RULE] * 50
    assert monitor.active_responses["mal"] is Verdict.DROP_RULE


def test_legit_host_on_other_switch_untouched():
    monitor = make_monitor()
    for tick in range(0, 500):
        monitor.record_and_check("mal", "s1", tick)
    for tick in range(0, 50):
        assert monitor.record_and_check("good", "s2", tick) is Verdict.OK


def test_switch_budget_throttles_without_marking_hosts():
    # more hosts behind one switch than the capacity model assumes: each
    # stays below its own budget yet together they blow the switch budget;
    # the excess is throttled at the switch but nobody is marked
    monitor = FloodMonitor(CapacityModel(cc=20, x=2, y=2), window_ticks=1000)
    # TSw = 10, Thost = 5; four hosts send three requests each
    verdicts = []
    for round_ in range(3):
        for host in ("a", "b", "c", "d"):
            verdicts.append(monitor.record_and_check(host, "s1", round_))
    throttled = [v for v in verdicts if v is Verdict.THROTTLE]
    assert len(throttled) == 2  # requests 11..12 cross TSw = 10
    assert monitor.active_responses == {}


def test_response_none_admits_everything():
    monitor = make_monitor(response=ResponseMode.NONE)
    for tick in range(1000):
        assert monitor.record_and_check("mal", "s1", 0) is Verdict.OK


def test_window_rollover_resets_the_budget():
    monitor = make_monitor(cc=40, x=2, y=2, window=10)  # Thost = 10
    # steady traffic at exactly the budget, window after window
    for window in range(8):
        for i in range(10):
            assert monitor.record_and_check("h", "s", window * 10 + i) is Verdict.OK, (window, i)
    assert monitor.weighted_count("h") == 10
    # one request more in a window is throttled ...
    for i in range(10):
        assert monitor.record_and_check("h", "s", 80 + i) is Verdict.OK
    assert monitor.record_and_check("h", "s", 89) is Verdict.THROTTLE
    assert monitor.weighted_count("h") == 11
    # ... and the next window admits again, counting from zero
    assert monitor.record_and_check("h", "s", 90) is Verdict.OK
    assert monitor.weighted_count("h") == 1
