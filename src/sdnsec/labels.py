"""Ordered security labels and the relational constraints placed on them.

Labels form a total order ``SL1 < SL2 < ...`` with SL1 the least trusted.
A :class:`LabelConstraint` is a single relational test against a base label;
a :class:`LabelWindow` is the conjunction of several such tests collapsed
into a (lower, upper) rank interval, which is what the path search and the
constraint merger actually operate on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ANY_LABEL",
    "LabelConstraint",
    "LabelParseError",
    "LabelRelation",
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


class LabelRelation(Enum):
    GEQ = ">="
    LEQ = "<="
    EQ = "=="
    ANY = "*"


@dataclass(frozen=True)
class LabelConstraint:
    """Relational test against a base label; ANY matches everything and has no base."""

    relation: LabelRelation
    base: SecurityLabel | None = None

    def __post_init__(self) -> None:
        if self.relation is LabelRelation.ANY:
            if self.base is not None:
                raise ValueError("ANY constraint carries no base label")
        elif self.base is None:
            raise ValueError(f"{self.relation.name} constraint requires a base label")

    def satisfies(self, label: SecurityLabel) -> bool:
        if self.relation is LabelRelation.ANY:
            return True
        assert self.base is not None
        if self.relation is LabelRelation.GEQ:
            return label.rank >= self.base.rank
        if self.relation is LabelRelation.LEQ:
            return label.rank <= self.base.rank
        return label.rank == self.base.rank

    @property
    def is_wildcard(self) -> bool:
        return self.relation is LabelRelation.ANY

    def text(self) -> str:
        """Canonical textual form: ``*``, ``SL2``, ``SL2+=`` or ``SL2-=``."""
        if self.relation is LabelRelation.ANY:
            return "*"
        assert self.base is not None
        suffix = {LabelRelation.GEQ: "+=", LabelRelation.LEQ: "-=", LabelRelation.EQ: ""}
        return f"{self.base}{suffix[self.relation]}"

    def __str__(self) -> str:
        return self.text()


ANY_LABEL = LabelConstraint(LabelRelation.ANY)

_LABEL_RE = re.compile(r"^SL(\d+)$")


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


def parse_label_constraint(text: str) -> LabelConstraint:
    """Parse a label-constraint token.

    Grammar: ``*`` is the wildcard; a bare ``SL<n>`` means equality;
    ``SL<n>+=`` means at-least; ``SL<n>-=`` means at-most.
    """
    if not text or not text.strip():
        raise LabelParseError(text, 0, "empty constraint")
    token = text.strip()
    if token == "*":
        return ANY_LABEL
    relation = LabelRelation.EQ
    if token.endswith("+="):
        relation, token = LabelRelation.GEQ, token[:-2]
    elif token.endswith("-="):
        relation, token = LabelRelation.LEQ, token[:-2]
    m = _LABEL_RE.match(token)
    if not m:
        pos = next((i for i, (a, b) in enumerate(zip(token, "SL")) if a != b), min(len(token), 2))
        raise LabelParseError(text, pos, "expected SL<n> with optional += or -= suffix")
    rank = int(m.group(1))
    if rank < 1:
        raise LabelParseError(text, 2, "rank must be >= 1")
    return LabelConstraint(relation, SecurityLabel(rank))


@dataclass(frozen=True)
class LabelWindow:
    """Conjunction of label constraints as a closed rank interval.

    ``hi`` of ``None`` means unbounded above.  An empty window (lo > hi)
    represents an unsatisfiable conjunction.
    """

    lo: int = 1
    hi: int | None = None

    @classmethod
    def from_constraint(cls, constraint: LabelConstraint) -> LabelWindow:
        rel, base = constraint.relation, constraint.base
        if rel is LabelRelation.ANY:
            return cls()
        assert base is not None
        if rel is LabelRelation.GEQ:
            return cls(lo=base.rank)
        if rel is LabelRelation.LEQ:
            return cls(hi=base.rank)
        return cls(lo=base.rank, hi=base.rank)

    @classmethod
    def conjoin(cls, constraints) -> LabelWindow:
        window = cls()
        for constraint in constraints:
            window = window.intersect(cls.from_constraint(constraint))
        return window

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
        if self.empty:
            return False
        if label.rank < self.lo:
            return False
        return self.hi is None or label.rank <= self.hi
