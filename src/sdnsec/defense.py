"""Flooding detection and mitigation at the controller.

Per-switch and per-host request budgets are derived from the controller's
processing capacity: a controller serving X switches gives each switch
``TSw = CC/X``, and a switch serving Y hosts gives each host
``Thost = TSw/Y``.  Arithmetic is exact (fractions), enforcement compares
window counts against the floor.

Requests are counted per fixed window of ticks and counters start from zero
in each window, so a steady rate at exactly the budget is never flagged.
Two responses are available once an offender crosses its budget: THROTTLE
caps the offender's admitted packet-ins at the threshold in every window
(excess is dropped, not queued), and DROP_RULE asks for a one-time block
rule in the offender's switch so nothing further reaches the controller.
Hosts below their own budget are never acted on, whichever switch the
attacker sits behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

__all__ = [
    "CapacityModel",
    "FloodMonitor",
    "ResponseMode",
    "Verdict",
    "compute_thresholds",
]


@dataclass(frozen=True)
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


class Verdict(Enum):
    OK = "ok"
    THROTTLE = "throttle"
    DROP_RULE = "drop_rule"


class ResponseMode(Enum):
    NONE = "none"
    THROTTLE = "throttle"
    DROP_RULE = "drop_rule"


@dataclass
class _WindowCounter:
    current: int = 0
    admitted: int = 0


class FloodMonitor:
    """Per-window request accounting against the capacity thresholds."""

    def __init__(
        self,
        cap: CapacityModel,
        response: ResponseMode = ResponseMode.THROTTLE,
        *,
        window_ticks: int,
    ):
        if window_ticks < 1:
            raise ValueError("window must be at least one tick")
        self.response = response
        self.window_ticks = window_ticks
        self.tsw, self.thost = compute_thresholds(cap)
        self._window_index = 0
        self._hosts: dict[str, _WindowCounter] = {}
        self._switches: dict[str, _WindowCounter] = {}
        self.active_responses: dict[str, Verdict] = {}

    def _roll(self, tick: int) -> None:
        index = tick // self.window_ticks
        if index > self._window_index:
            for counter in (*self._hosts.values(), *self._switches.values()):
                counter.current = 0
                counter.admitted = 0
            self._window_index = index

    def _over_budget(self, counter: _WindowCounter, threshold: Fraction) -> bool:
        """Would admitting the current request overshoot the budget?"""
        return counter.admitted + 1 > math.floor(threshold)

    def weighted_count(self, host: str) -> int:
        """Requests from ``host`` in the current window."""
        counter = self._hosts.get(host)
        return 0 if counter is None else counter.current

    def record_and_check(self, src_host: str, src_switch: str, tick: int) -> Verdict:
        """Account one request and say how the pipeline should treat it.

        OK admits; THROTTLE drops this request; DROP_RULE means the offender
        must be blocked in its switch (emitted once, then remembered so the
        install-latency gap cannot readmit the offender).
        """
        self._roll(tick)
        host = self._hosts.setdefault(src_host, _WindowCounter())
        switch = self._switches.setdefault(src_switch, _WindowCounter())
        host.current += 1
        switch.current += 1
        if self.response is ResponseMode.NONE:
            host.admitted += 1
            switch.admitted += 1
            return Verdict.OK
        if self.active_responses.get(src_host) is Verdict.DROP_RULE:
            return Verdict.DROP_RULE
        host_over = self._over_budget(host, self.thost)
        switch_over = self._over_budget(switch, self.tsw)
        if not host_over and not switch_over:
            host.admitted += 1
            switch.admitted += 1
            return Verdict.OK
        if not host_over:
            # switch budget blown by someone else: only offenders above their
            # own host budget are acted on, so this request is throttled at
            # the switch level but the host is not marked
            return Verdict.THROTTLE
        if self.response is ResponseMode.DROP_RULE:
            self.active_responses[src_host] = Verdict.DROP_RULE
            return Verdict.DROP_RULE
        self.active_responses[src_host] = Verdict.THROTTLE
        return Verdict.THROTTLE
