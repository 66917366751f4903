"""Ordered security labels and the requirements placed on them.

Labels form a total order ``SL1 < SL2 < ...`` with SL1 the least trusted.
A :class:`LabelWindow` is the one label-requirement type: the closed rank
interval a token such as ``SL2+=`` admits, and also the conjunction of
several requirements, which is what the path search and the constraint
merger operate on.  An endpoint selector that places no requirement on a
domain's label holds ``None``, not a window: a requirement, even the full
window, fails a domain whose label is unknown, while ``None`` passes it.
A window prints as its canonical token through ``str()``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

__all__ = [
    "LabelParseError",
    "LabelWindow",
    "SecurityLabel",
    "parse_label",
    "parse_label_constraint",
]


class LabelParseError(ValueError):
    """A label or label-constraint token could not be parsed."""

    def __init__(self, text: str, position: int, reason: str):
        super().__init__(f"bad label token {text!r} at position {position}: {reason}")
        self.text = text
        self.position = position
        self.reason = reason


@dataclass(frozen=True, order=True)
class SecurityLabel:
    """Trust level ``SL<rank>``; a higher rank is more trusted, SL1 is the floor."""

    rank: int

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise TypeError(f"label rank must be an int, got {self.rank!r}")
        if self.rank < 1:
            raise ValueError(f"label rank must be >= 1, got {self.rank}")

    def __str__(self) -> str:
        return f"SL{self.rank}"


_LABEL_RE = re.compile(r"^SL([0-9]+)$")


def parse_label(text: str) -> SecurityLabel:
    """Parse a bare ``SL<n>`` token."""
    token = text.strip()
    m = _LABEL_RE.match(token)
    if not m:
        raise LabelParseError(text, 0, "expected SL<n>")
    rank = int(m.group(1))
    if rank < 1:
        raise LabelParseError(text, 2, "rank must be >= 1")
    return SecurityLabel(rank)


def parse_label_constraint(text: str) -> LabelWindow:
    """Parse a label-constraint token into the window of ranks it admits.

    Grammar: ``*`` is the wildcard, the full window; a bare ``SL<n>`` means
    equality; ``SL<n>+=`` means at-least; ``SL<n>-=`` means at-most.
    """
    if not text or not text.strip():
        raise LabelParseError(text, 0, "empty constraint")
    token = text.strip()
    if token == "*":
        return LabelWindow()
    body = token[:-2] if token.endswith(("+=", "-=")) else token
    m = _LABEL_RE.match(body)
    if not m:
        pos = next((i for i, (a, b) in enumerate(zip(body, "SL")) if a != b), min(len(body), 2))
        raise LabelParseError(text, pos, "expected SL<n> with optional += or -= suffix")
    rank = int(m.group(1))
    if rank < 1:
        raise LabelParseError(text, 2, "rank must be >= 1")
    # at-least leaves the window open above, at-most starts it at SL1
    suffix = token[len(body) :]
    return LabelWindow(1 if suffix == "-=" else rank, None if suffix == "+=" else rank)


@dataclass(frozen=True)
class LabelWindow:
    """The ranks a label requirement admits, as a closed interval.

    ``hi`` of ``None`` means unbounded above.  An empty window (lo > hi)
    represents an unsatisfiable conjunction.
    """

    lo: int = 1
    hi: int | None = None

    @classmethod
    def conjoin(cls, windows) -> LabelWindow:
        return reduce(cls.intersect, windows, cls())

    def intersect(self, other: LabelWindow) -> LabelWindow:
        lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        return LabelWindow(lo, hi)

    @property
    def empty(self) -> bool:
        return self.hi is not None and self.lo > self.hi

    def satisfies(self, label: SecurityLabel) -> bool:
        return self.lo <= label.rank and (self.hi is None or label.rank <= self.hi)

    def __str__(self) -> str:
        """Canonical token of a window parsed from one token: ``SL2``,
        ``SL2+=`` or ``SL2-=``; the full window prints as ``SL1+=``."""
        if self.lo == self.hi:
            return f"SL{self.lo}"
        if self.hi is None:
            return f"SL{self.lo}+="
        return f"SL{self.hi}-="
