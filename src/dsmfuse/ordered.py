"""Order-driven model over a totally ordered atom set.

Atoms a0 <= a1 <= ... <= a{n-1} induce the discarding constraints
``ai & aj & ak = ai & ak`` for every i <= j <= k.  The resulting quotient
(minus BOTTOM and TOP) is concretely realized by the non-empty increasing
subsets of the triangle {(i, j): i <= j}, the staircases.  Pair (i, j) stands
for the contiguous atom set {i..j}, and the congruence mask of the order
constraints keeps exactly the truth-table bits of those sets, besides the
empty set's, which only TOP has.  A staircase is therefore the interval part
of a truth table: (i, j) lies in ``smile(p)`` iff bit {i..j} of ``p.table``
is set, and meet and join are ``&`` and ``|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

from . import prebool
from .prebool import ConstraintSet, Proposition, Quotient, varphi


def _interval(i: int, j: int) -> int:
    """Bitmask of the contiguous atom set {i..j}."""
    return (1 << (j + 1)) - (1 << i)


@lru_cache(maxsize=None)
def _triangle(n: int) -> int:
    """Truth-table bits of the contiguous atom sets {i..j}, 0 <= i <= j < n."""
    return sum(1 << _interval(i, j) for j in range(n) for i in range(j + 1))


@dataclass(frozen=True)
class Staircase:
    """Non-empty increasing subset of {(i, j): i <= j} over n atoms.

    Bit {i..j} of ``table``, indexed as in ``Proposition.table``, is set iff
    (i, j) belongs to the staircase.  Increasing means up-closed: with (i, j)
    every (a, b) with a <= i and b >= j belongs too.  Equality and hashing
    look at ``n`` and ``table`` only.
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

    def pairs(self) -> frozenset[tuple[int, int]]:
        """Explicit pair-set view {(i, j): bit {i..j} of the table is set}."""
        return frozenset(
            (i, j)
            for j in range(self.n)
            for i in range(j + 1)
            if self.table >> _interval(i, j) & 1
        )

    @cached_property
    def thresholds(self) -> tuple[int | None, ...]:
        """Per column j, the largest i with (i, j) present, or None if none is."""
        return tuple(
            max(
                (i for i in range(j + 1) if self.table >> _interval(i, j) & 1),
                default=None,
            )
            for j in range(self.n)
        )


def point(x: int, n: int) -> Staircase:
    """The staircase modelling the single atom a{x}: pairs (i, j), i <= x <= j."""
    return smile(prebool.atom_prop(n, x))


def stair_meet(s1: Staircase, s2: Staircase) -> Staircase | None:
    """Intersection: the tables' ``&``; None when empty."""
    if s1.n != s2.n:
        raise ValueError("mixed staircase sizes")
    t = s1.table & s2.table
    return Staircase(s1.n, t) if t else None


def stair_join(s1: Staircase, s2: Staircase) -> Staircase:
    """Union: the tables' ``|``."""
    if s1.n != s2.n:
        raise ValueError("mixed staircase sizes")
    return Staircase(s1.n, s1.table | s2.table)


def order_constraints(n: int) -> ConstraintSet:
    """Discarding constraints ai & aj & ak = ai & ak for all i <= j <= k."""
    if n < 1:
        raise ValueError("need at least one atom")
    pairs = []
    for i, j, k in combinations_with_replacement(range(n), 3):
        pairs.append((varphi(n, [{i, j, k}]), varphi(n, [{i, k}])))
    return ConstraintSet(tuple(pairs))


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
    n = 1..5.
    """
    return [Staircase(n, t) for t in prebool.upsets(n, _triangle(n)) if t]


@dataclass
class IsomorphismReport:
    n: int
    class_count: int
    staircase_count: int
    bijection_ok: bool
    morphism_ok: bool
    counterexamples: list[str]

    @property
    def ok(self) -> bool:
        return (
            self.bijection_ok
            and self.morphism_ok
            and self.class_count == self.staircase_count
        )


def verify_isomorphism(
    n: int, max_atoms: int = prebool.DEFAULT_ATOM_GUARD
) -> IsomorphismReport:
    """Brute-force check that classes and staircases are the same structure.

    Builds the quotient of the hyperpower set by the order constraints,
    maps every non-trivial element through :func:`smile`, and checks that
    equality of classes coincides with equality of staircase tables, that
    the meet and join of class keys, ``&`` and ``|``, transport to the
    staircases' ``&`` and ``|``, and that the class count matches an
    independent staircase enumeration.
    """
    if n > max_atoms:
        raise ValueError(f"n={n} exceeds the verification guard ({max_atoms})")
    universe = prebool.enumerate_hyperpower(n, max_atoms)
    q = Quotient(universe, order_constraints(n))
    problems: list[str] = []

    # Classes are held by key, whose meet and join are ``&`` and ``|``.
    # BOTTOM's interval part is empty, and a meet of two classes may land there.
    key_to_stair: dict[int, int] = {q.key(q.bottom): 0}
    stair_to_key: dict[int, int] = {}
    bijection_ok = True
    for p in universe:
        if p.is_bottom or p.is_top:
            continue
        k = q.key(p)
        s = smile(p).table
        if key_to_stair.setdefault(k, s) != s:
            bijection_ok = False
            problems.append(
                f"class of {prebool.format_proposition(p)} maps to two staircases"
            )
        if stair_to_key.setdefault(s, k) != k:
            bijection_ok = False
            problems.append(
                f"staircase of {prebool.format_proposition(p)} hits two classes"
            )

    morphism_ok = True
    reps = [r for r in q.representatives if r != q.bottom and r != q.top]
    keyed = [(r, q.key(r)) for r in reps]
    for p1, k1 in keyed:
        for p2, k2 in keyed:
            s1, s2 = key_to_stair[k1], key_to_stair[k2]
            if s1 & s2 != key_to_stair.get(k1 & k2):
                morphism_ok = False
                problems.append(
                    f"meet mismatch at {prebool.format_proposition(p1)}, "
                    f"{prebool.format_proposition(p2)}"
                )
            if s1 | s2 != key_to_stair.get(k1 | k2):
                morphism_ok = False
                problems.append(
                    f"join mismatch at {prebool.format_proposition(p1)}, "
                    f"{prebool.format_proposition(p2)}"
                )

    return IsomorphismReport(
        n=n,
        class_count=len(reps),
        staircase_count=len(enumerate_staircases(n)),
        bijection_ok=bijection_ok,
        morphism_ok=morphism_ok,
        counterexamples=problems[:20],
    )


def format_staircase(s: Staircase) -> str:
    """Dump format: ``j:t(j)`` per defined column, space separated."""
    return " ".join(
        f"{j}:{t}" for j, t in enumerate(s.thresholds) if t is not None
    )


def render_staircase(s: Staircase) -> str:
    """ASCII grid; row j (second coordinate) from top, '#' marks membership."""
    rows = []
    pairs = s.pairs()
    for j in reversed(range(s.n)):
        rows.append(
            "".join("#" if (i, j) in pairs else "." for i in range(s.n))
        )
    return "\n".join(rows)
