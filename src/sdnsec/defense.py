"""Flooding detection and mitigation at the controller.

Per-switch and per-host request budgets are derived from the controller's
processing capacity: a controller serving X switches gives each switch
``TSw = CC/X``, and a switch serving Y hosts gives each host
``Thost = TSw/Y``.  Arithmetic is exact (fractions), enforcement compares
window counts against the floor.  A monitor works out both floors once,
when it is built.

Requests and admissions are counted per host and per switch in fixed
windows of ticks (:class:`WindowCounts`); each key's count starts from zero
in every window, so a steady rate at exactly the budget is never flagged,
and a request counts in its own tick's window whatever was counted before.
A check answers with a :class:`ResponseMode`: NONE admits the request.  Two
responses are available once an offender crosses its budget: THROTTLE caps
the offender's admitted packet-ins at the threshold in every window (excess
is dropped, not queued), and DROP_RULE puts the offender in the monitor's
one blocked set, and the controller asks for a one-time block rule in the
offender's switch so nothing further reaches the controller.  Hosts below
their own budget are never blocked, whichever switch the attacker sits
behind.  A scenario without a response builds no monitor at all.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from enum import Enum
from fractions import Fraction

from .frozen import frozen

__all__ = [
    "CapacityModel",
    "FloodMonitor",
    "ResponseMode",
    "WindowCounts",
    "compute_thresholds",
]


@frozen
class CapacityModel:
    """controller capacity (requests/s), switches per controller, hosts per
    switch."""

    cc: Fraction
    x: int
    y: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cc", Fraction(self.cc))
        for name in ("cc", "x", "y"):
            if getattr(self, name) <= 0:
                raise ValueError(f"capacity model field {name} must be positive")


def compute_thresholds(cap: CapacityModel) -> tuple[Fraction, Fraction]:
    """Per-switch and per-host request budgets: TSw = CC/X, Thost = TSw/Y."""
    tsw = cap.cc / cap.x
    thost = tsw / cap.y
    return tsw, thost


class ResponseMode(Enum):
    """What happens to a request: ``NONE`` admits it, ``THROTTLE`` drops it,
    ``DROP_RULE`` drops it and blocks its source in its switch."""

    NONE = "none"
    THROTTLE = "throttle"
    DROP_RULE = "drop_rule"


class WindowCounts:
    """Per-key counts in fixed windows of ``window_ticks``: a key's count
    starts from zero in every window, and each window keeps its own count
    whatever order the ticks come in."""

    def __init__(self, window_ticks: int):
        if window_ticks < 1:
            raise ValueError("window must be at least one tick")
        self.window_ticks = window_ticks
        self._counts: dict[tuple[Hashable, int], int] = {}  # (key, window) -> count

    def get(self, key: Hashable, tick: int) -> int:
        return self._counts.get((key, tick // self.window_ticks), 0)

    def add(self, key: Hashable, tick: int) -> None:
        slot = (key, tick // self.window_ticks)
        self._counts[slot] = self._counts.get(slot, 0) + 1


class FloodMonitor:
    """Per-window request accounting against the capacity thresholds."""

    def __init__(
        self,
        cap: CapacityModel,
        response: ResponseMode = ResponseMode.THROTTLE,
        *,
        window_ticks: int,
    ):
        if response is ResponseMode.NONE:
            raise ValueError("a flood monitor needs a response; without one, build no monitor")
        self.response = response
        self.tsw, self.thost = compute_thresholds(cap)
        # the budgets as whole requests per window
        self._host_budget, self._switch_budget = math.floor(self.thost), math.floor(self.tsw)
        self.requests = WindowCounts(window_ticks)  # per host
        self._host_admits = WindowCounts(window_ticks)
        self._switch_admits = WindowCounts(window_ticks)
        self.blocked: set[Hashable] = set()

    def record_and_check(self, src_host: Hashable, src_switch: str, tick: int) -> ResponseMode:
        """Account one request from host ``src_host`` (any hashable key; the
        controller passes the integer address) and say how the pipeline
        should treat it.

        NONE admits; THROTTLE drops this request; DROP_RULE means the offender
        is blocked (it stays in ``blocked``, so the install-latency gap cannot
        readmit it).
        """
        self.requests.add(src_host, tick)
        if src_host in self.blocked:
            return ResponseMode.DROP_RULE
        host_over = self._host_admits.get(src_host, tick) + 1 > self._host_budget
        switch_over = self._switch_admits.get(src_switch, tick) + 1 > self._switch_budget
        if not host_over and not switch_over:
            self._host_admits.add(src_host, tick)
            self._switch_admits.add(src_switch, tick)
            return ResponseMode.NONE
        # a switch budget blown by someone else throttles the request, but
        # only an offender above its own host budget is blocked
        if host_over and self.response is ResponseMode.DROP_RULE:
            self.blocked.add(src_host)
            return ResponseMode.DROP_RULE
        return ResponseMode.THROTTLE
