"""Congruence closure by union-find over full meet and join tables.

This is how :class:`dsmfuse.prebool.Quotient` computed its classes before it
moved to truth tables and a single congruence mask.  It re-derives the least
congruence by brute force: it seeds a union-find with the constraint pairs,
then sweeps the |U| x |U| meet and join tables, merging the images of every
column within one class, until nothing changes.  It knows nothing of Birkhoff
duality, so the tests hold the mask construction against it.

:class:`ClosureQuotient` mirrors the surface of the sublattice-universe
oracle ``universe_quotient_oracle.UniverseQuotient``: ``universe``,
``classes``, ``representatives``, ``bottom``, ``top``, ``class_of``,
``meet``, ``join`` and ``leq``.  ``Quotient`` keeps ``universe``,
``representatives``, ``bottom``, ``top`` and ``class_of`` of these, and the
tests read its classes and products through ``key`` and ``rep_by_key``.

:func:`is_closed` is how ``Quotient`` checked its universe before the union
closure of least members that ``UniverseQuotient`` keeps: every pair's meet
and join must be a member, and so must BOTTOM and TOP.
"""

from functools import lru_cache

from dsmfuse import prebool as pb

import antichain_oracle as ao


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _key(p):
    return ao.clause_key(p.n, p.clauses)


@lru_cache(maxsize=None)
def _tables(universe):
    # Meet and join tables over universe indices, computed on clause
    # antichains so that no truth-table operation enters the oracle; cached
    # because building them is most of the cost at n = 4 and the tests reuse
    # each universe.
    index = {p: i for i, p in enumerate(universe)}
    by_clauses = {p.clauses: i for i, p in enumerate(universe)}
    meet = [[by_clauses[ao.meet(p.clauses, q.clauses)] for q in universe] for p in universe]
    join = [[by_clauses[ao.join(p.clauses, q.clauses)] for q in universe] for p in universe]
    return index, meet, join


class ClosureQuotient:
    def __init__(self, universe, gamma):
        self.universe = sorted(universe, key=_key)
        self._index, self._meet_table, self._join_table = _tables(tuple(self.universe))
        size = len(self.universe)

        uf = _UnionFind(size)
        for p, q in gamma.pairs:
            uf.union(self._index[p], self._index[q])
        self._close_congruence(uf)

        members = {}
        for i in range(size):
            members.setdefault(uf.find(i), []).append(i)
        # Indices follow prop_key order, so the first member of each class is
        # its representative.
        self._rep_of = [0] * size
        self.classes = {}
        for group in members.values():
            rep = group[0]
            for i in group:
                self._rep_of[i] = rep
            self.classes[self.universe[rep]] = frozenset(self.universe[i] for i in group)
        self.representatives = sorted(self.classes, key=_key)
        self.bottom = self.class_of(pb.bottom(self.universe[0].n))
        self.top = self.class_of(pb.top(self.universe[0].n))

    def _close_congruence(self, uf):
        size = len(self.universe)
        changed = True
        while changed:
            changed = False
            for table in (self._meet_table, self._join_table):
                for r in range(size):
                    seen = {}
                    for i in range(size):
                        ci = uf.find(i)
                        v = uf.find(table[i][r])
                        prev = seen.get(ci)
                        if prev is None:
                            seen[ci] = v
                        elif prev != v:
                            uf.union(prev, v)
                            changed = True

    def class_of(self, p):
        return self.universe[self._rep_of[self._index[p]]]

    def meet(self, p, q):
        i, j = self._index[p], self._index[q]
        return self.universe[self._rep_of[self._meet_table[i][j]]]

    def join(self, p, q):
        i, j = self._index[p], self._index[q]
        return self.universe[self._rep_of[self._join_table[i][j]]]

    def leq(self, p, q):
        return self.meet(p, q) == self.class_of(p)


def is_closed(universe):
    """True iff the tables hold BOTTOM and TOP and every pair's ``&`` and ``|``."""
    tables = {p.table for p in universe}
    if not universe or {0, pb.top(universe[0].n).table} - tables:
        return False
    return all(a & b in tables and a | b in tables for a in tables for b in tables)
