"""Quotients of closed sublattice universes: the oracle for ``prebool.Quotient``.

``prebool.Quotient`` once accepted any universe closed under meet and join,
and checked that closedness with a union sweep over least members.  It now
takes only the free algebra on n atoms, where every proposition of that n
is a member, so its ``key`` is a plain mask and its universe check one
generator test.  :class:`UniverseQuotient` is the old class, kept as it was:
the tests hold the new ``Quotient`` against it on free universes, and feed
``belief`` the sublattice algebras, whose class-lattice covers can clear
several key bits at once, through it.  It also keeps the products the
``Quotient`` dropped, ``classes``, ``meet``, ``join`` and ``leq``.

:func:`classes` reads the partition of any quotient's universe through
``class_of``, in representative order, as ``UniverseQuotient.classes`` holds it.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Sequence

from dsmfuse.prebool import (
    ConstraintSet,
    Proposition,
    bottom,
    congruence_mask,
    format_proposition,
    prop_key,
    top,
)


def classes(q) -> dict[Proposition, frozenset[Proposition]]:
    """Each representative of q and the members of its class."""
    members: dict[Proposition, set[Proposition]] = {}
    for p in q.universe:
        members.setdefault(q.class_of(p), set()).add(p)
    return {rep: frozenset(group) for rep, group in members.items()}


class UniverseQuotient:
    """A finite pre-Boolean algebra: a closed universe modulo a congruence.

    The congruence is the least equivalence containing the constraint pairs
    and compatible with meet and join.  Congruences of a finite distributive
    lattice are Boolean on its join-irreducibles (Birkhoff; Grätzer, *Lattice
    Theory: Foundation*, §II.3), so the least one holding the pairs is the
    single mask ``M = OR of T(p) ^ T(q)`` over them, T being the truth table.
    An element's class is its key ``T(p) & ~M`` (:meth:`key`), and the keys
    form a lattice of their own: meet, join and order are ``&``, ``|`` and
    ``k1 & ~k2 == 0``.  A proper subset is a smaller integer, so ascending
    key order is a linear extension of the order.  A closed universe smaller
    than the free algebra is a sublattice of it, and distributive lattices
    have the congruence extension property, so the mask still gives its least
    congruence.  Class representatives are the minimum members under
    :func:`prop_key`, so output is reproducible; ``rep_by_key`` maps each
    class key to its representative.

    The universe must hold BOTTOM and TOP and be closed under meet and join.
    With ``least[x]`` the meet of the members whose table holds atom set x
    (TOP's table if none does), that holds exactly when the :func:`unions`
    of ``least`` are the members' tables: a closed family is the unions of
    its least members, and such unions are closed.  Those unions, built
    from BOTTOM one generator at a time, stay among the members exactly when
    BOTTOM, every ``least[x]`` and every ``t | least[x]`` are members, so
    that is what is checked: O(|U|·2^n) work even for a universe far from
    closed, whose closure can hold nearly all D(n) up-sets.  A rejection
    names the smallest table of the closure missing from the universe; its
    last union step puts it among the tables checked.
    """

    def __init__(self, universe: Sequence[Proposition], gamma: ConstraintSet) -> None:
        self.universe = sorted(universe, key=prop_key)
        if not self.universe:
            raise ValueError("universe is empty")
        n = self.universe[0].n
        if any(p.n != n for p in self.universe):
            raise ValueError("universe mixes atom universes")
        # key() rejects foreign elements, whose tables may well collide with
        # members' keys.
        self._members = frozenset(self.universe)
        if len(self._members) != len(self.universe):
            raise ValueError("universe contains duplicate propositions")
        tables = {p.table for p in self._members}
        full = top(n).table
        least = {
            reduce(and_, (t for t in tables if t >> x & 1), full)
            for x in range(1 << n)
        }
        steps = tables | {0}
        outside = (steps | {t | g for t in steps for g in least}) - tables
        if outside:
            p = Proposition(n, min(outside))
            raise ValueError(
                f"proposition {format_proposition(p)} is outside the universe"
            )

        self._keep = ~congruence_mask(gamma)
        # key() rejects constraint elements from outside the universe.
        for pair in gamma.pairs:
            for p in pair:
                self.key(p)

        members: dict[int, list[Proposition]] = {}
        for p in self.universe:
            members.setdefault(self.key(p), []).append(p)
        # Member lists follow prop_key order, so the first member of each
        # class is its representative, and classes are inserted in
        # representative order.
        self.rep_by_key = {key: group[0] for key, group in members.items()}
        self.classes: dict[Proposition, frozenset[Proposition]] = {
            group[0]: frozenset(group) for group in members.values()
        }
        self.representatives = list(self.classes)
        self.bottom = self.class_of(bottom(n))
        self.top = self.class_of(top(n))

    def key(self, p: Proposition) -> int:
        """The class key ``T(p) & ~M``: equal exactly on congruent members."""
        if p not in self._members:
            raise ValueError(
                f"proposition {format_proposition(p)} is outside the universe"
            )
        return p.table & self._keep

    def class_of(self, p: Proposition) -> Proposition:
        """Representative of p's congruence class."""
        return self.rep_by_key[self.key(p)]

    def meet(self, p: Proposition, q: Proposition) -> Proposition:
        return self.rep_by_key[self.key(p) & self.key(q)]

    def join(self, p: Proposition, q: Proposition) -> Proposition:
        return self.rep_by_key[self.key(p) | self.key(q)]

    def leq(self, p: Proposition, q: Proposition) -> bool:
        return not self.key(p) & ~self.key(q)
