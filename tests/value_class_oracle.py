"""The five value classes as ``@dataclass`` made them.

``prebool.Proposition``, ``prebool.ConstraintSet``, ``ordered.Staircase``,
``ordered.IsomorphismReport`` and ``chebfusion.GeneralizedInterval`` were
dataclasses until the package stopped importing :mod:`dataclasses`, whose
import cost each process about 8 ms.  The classes below are those
dataclasses as they were, so the tests can hold the plain classes that
replaced them to the same construction, equality, hashing, ``repr``,
refusals, copying and pickling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from dsmfuse import prebool
from dsmfuse.ordered import _triangle
from dsmfuse.prebool import grow


@dataclass(frozen=True)
class Proposition:
    """The truth table of a proposition over a fixed atom universe of size n.

    Bit S of ``table`` is set iff the atom set S contains a clause; the table
    is therefore an up-set of atom sets.  Instances are built through
    :func:`make_prop`, :func:`varphi` or :func:`atom_prop`, or by the lattice
    operations; equality, hashing and ``repr`` look at ``n`` and ``table``
    only.  ``clauses`` and :func:`prop_key` are derived once and kept on the
    instance.
    """

    n: int
    table: int

    @property
    def is_bottom(self) -> bool:
        return self.table == 0

    @property
    def is_top(self) -> bool:
        return bool(self.table & 1)

    @cached_property
    def clauses(self) -> frozenset[int]:
        """The clause antichain: the inclusion-minimal set bits of ``table``."""
        minimal = self.table & ~grow(self.n, self.table)
        return frozenset(c for c in range(1 << self.n) if minimal >> c & 1)


@dataclass(frozen=True)
class ConstraintSet:
    """Pairs of propositions declared equal."""

    pairs: tuple[tuple[Proposition, Proposition], ...]


@dataclass(frozen=True)
class Staircase:
    """Non-empty increasing subset of {(i, j): i <= j} over n atoms.

    Bit {i..j} of ``table``, indexed as in ``Proposition.table``, is set iff
    (i, j) belongs to the staircase.  Increasing means up-closed: with (i, j)
    every (a, b) with a <= i and b >= j belongs too.
    """

    n: int
    table: int

    def __post_init__(self) -> None:
        t, triangle = self.table, _triangle(self.n)
        if not t:
            raise ValueError("staircase must be non-empty")
        if t & ~triangle:
            raise ValueError("staircase table has a bit outside the triangle")
        # The intervals one atom larger than a member are its one-step
        # extensions, through which every larger interval is reached.
        if prebool.grow(self.n, t) & triangle & ~t:
            raise ValueError("staircase must be up-closed")


@dataclass
class IsomorphismReport:
    n: int
    class_count: int
    staircase_count: int
    counterexamples: list[str]

    @property
    def ok(self) -> bool:
        return not self.counterexamples and self.class_count == self.staircase_count


@dataclass(frozen=True)
class GeneralizedInterval:
    """Interval description (lo, hi) with hi < lo allowed (contradiction)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (-1 <= self.lo <= 1 and -1 <= self.hi <= 1):
            raise ValueError("interval endpoints must lie in [-1, 1]")
