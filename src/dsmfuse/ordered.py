"""Order-driven model over a totally ordered atom set.

Atoms a0 <= a1 <= ... <= a{n-1} induce the discarding constraints
``ai & aj & ak = ai & ak`` for every i <= j <= k.  The resulting quotient
(minus BOTTOM and TOP) is concretely realized by the non-empty increasing
subsets of the triangle {(i, j): i <= j}, the staircases.  Pair (i, j) stands
for the contiguous atom set {i..j}, and the congruence mask of the order
constraints keeps exactly the truth-table bits of those sets, besides the
empty set's, which only TOP has.  A staircase is therefore the interval part
of a truth table: (i, j) lies in ``smile(p)`` iff bit {i..j} of ``p.table``
is set, and meet and join are ``&`` and ``|``.  :func:`verify_isomorphism`
checks that theorem as the one identity it comes down to: the order
constraints' kept mask is the interval bits plus bit ∅.  A passing check
lists no staircase: both counts are then the Catalan number C_{n+1} minus
one.

The continuous model of :mod:`dsmfuse.chebfusion` is this one on a
continuum.  :func:`interval` gives the generalized interval [lo, hi] as a
proposition; its staircase is {(i, j): i <= hi, j >= lo}, so the meet of
[l1, h1] and [l2, h2] is [max(l1, l2), min(h1, h2)], as in
``chebfusion.interval_meet``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

from . import prebool
from ._values import Frozen, Record
from .prebool import ConstraintSet, Proposition, varphi


def _interval(i: int, j: int) -> int:
    """Bitmask of the contiguous atom set {i..j}."""
    return (1 << (j + 1)) - (1 << i)


@lru_cache(maxsize=None)
def _triangle(n: int) -> int:
    """Truth-table bits of the contiguous atom sets {i..j}, 0 <= i <= j < n."""
    return sum(1 << _interval(i, j) for j in range(n) for i in range(j + 1))


class Staircase(Frozen):
    """Non-empty increasing subset of {(i, j): i <= j} over n atoms.

    Bit {i..j} of ``table``, indexed as in ``Proposition.table``, is set iff
    (i, j) belongs to the staircase.  Increasing means up-closed: with (i, j)
    every (a, b) with a <= i and b >= j belongs too.
    """

    _fields = ("n", "table")

    def __init__(self, n: int, table: int) -> None:
        triangle = _triangle(n)
        if not table:
            raise ValueError("staircase must be non-empty")
        if table & ~triangle:
            raise ValueError("staircase table has a bit outside the triangle")
        # The intervals one atom larger than a member are its one-step
        # extensions, through which every larger interval is reached.
        if prebool.grow(n, table) & triangle & ~table:
            raise ValueError("staircase must be up-closed")
        self.__dict__.update(n=n, table=table)


def order_constraints(n: int) -> ConstraintSet:
    """Discarding constraints ai & aj & ak = ai & ak for all i <= j <= k."""
    if n < 1:
        raise ValueError("need at least one atom")
    pairs = []
    for i, j, k in combinations_with_replacement(range(n), 3):
        pairs.append((varphi(n, [{i, j, k}]), varphi(n, [{i, k}])))
    return ConstraintSet(tuple(pairs))


def interval(n: int, lo: int, hi: int) -> Proposition:
    """The generalized interval [lo, hi] over n ordered atoms.

    ``a{lo} | ... | a{hi}`` when lo <= hi, and ``a{hi} & a{lo}`` otherwise.
    """
    return varphi(n, [{i} for i in range(lo, hi + 1)] if lo <= hi else [{hi, lo}])


def smile(p: Proposition) -> Staircase:
    """Map a proposition to its staircase: the interval bits of its table.

    Undefined on BOTTOM and TOP.
    """
    if p.is_bottom or p.is_top:
        raise ValueError("smile is undefined on BOTTOM and TOP")
    return Staircase(p.n, p.table & _triangle(p.n))


def enumerate_staircases(n: int) -> list[Staircase]:
    """All staircases over n atoms, in table order.

    Independent of :func:`smile` and of the quotient: the staircases are the
    non-empty :func:`prebool.upsets` kept to the interval bits, since every
    staircase is a union of the principal ones ``up[{i..j}] & triangle``.
    The count is the Catalan number C_{n+1} minus one: 1, 4, 13, 41, 131 for
    n = 1..5.  :func:`verify_isomorphism` takes that count in closed form;
    this list is its oracle in the tests.
    """
    return [Staircase(n, t) for t in prebool.upsets(n, _triangle(n)) if t]


class IsomorphismReport(Record):
    """What :func:`verify_isomorphism` found; ``ok`` when it found no problem."""

    _fields = ("n", "class_count", "staircase_count", "counterexamples")

    def __init__(
        self, n: int, class_count: int, staircase_count: int, counterexamples: list[str]
    ) -> None:
        self.n = n
        self.class_count = class_count
        self.staircase_count = staircase_count
        self.counterexamples = counterexamples

    @property
    def ok(self) -> bool:
        return not self.counterexamples and self.class_count == self.staircase_count


def verify_isomorphism(
    n: int, max_atoms: int = prebool.DEFAULT_ATOM_GUARD
) -> IsomorphismReport:
    """Check that the order quotient's classes are the staircases.

    The classes of a quotient of the free algebra are the up-sets of its
    kept atom sets, ``upsets(n, keep)`` with ``keep = T(TOP) & ~M`` for the
    congruence mask M (Birkhoff; Stanley, *EC1*, Thm 3.4.1).  The staircases
    are the up-sets of the intervals {i..j}, so classes and staircases are
    the same lattice, with ``smile`` as the isomorphism, exactly when the
    order constraints keep the interval bits and bit ∅, which only TOP has:
    ``keep == _triangle(n) | 1``.  Every atom set on which the two differ is
    a counterexample.  The staircase count is the Catalan number C_{n+1}
    minus one, in closed form.  When the identity holds, the classes are the
    staircases plus BOTTOM and TOP, so the class count, non-trivial classes
    only, is the same number; only a failing mask has its classes counted
    by ``upsets``.  Neither the free algebra nor a :class:`Quotient` nor any
    :class:`Staircase` is built.
    """
    if n > max_atoms:
        raise ValueError(f"n={n} exceeds the verification guard ({max_atoms})")
    # Before top(n): this rejects n < 1 as "need at least one atom".
    gamma = order_constraints(n)
    keep = prebool.top(n).table & ~prebool.congruence_mask(gamma)
    wrong = keep ^ (_triangle(n) | 1)
    problems = []
    for x in range(1 << n):
        if wrong >> x & 1:
            atoms = ", ".join(f"a{i}" for i in range(n) if x >> i & 1)
            fate = "kept" if keep >> x & 1 else "collapsed"
            problems.append(f"atom set {{{atoms}}} is {fate} by the order constraints")
    staircases = math.comb(2 * n + 2, n + 1) // (n + 2) - 1
    return IsomorphismReport(
        n=n,
        class_count=len(prebool.upsets(n, keep)) - 2 if wrong else staircases,
        staircase_count=staircases,
        counterexamples=problems[:20],
    )

