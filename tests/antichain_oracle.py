"""The free distributive lattice as clause antichains.

This is how :mod:`dsmfuse.prebool` represented propositions before it moved
to Birkhoff truth tables.  A proposition is a frozenset of clause bitmasks
kept inclusion-minimal: meet takes the pairwise clause unions, join the union
of the clause sets, both re-canonicalized, and p <= q iff every clause of p
contains a clause of q.  The hyperpower set is enumerated by a recursion over
antichains.  None of it touches truth tables, so the tests hold the bitwise
operations against it.
"""

from itertools import product


def minimal_antichain(masks):
    # Keep only the inclusion-minimal clauses.  Sorting by popcount lets each
    # candidate be checked against the already-kept (smaller) clauses only.
    kept = []
    for c in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & c == k for k in kept):
            kept.append(c)
    return frozenset(kept)


def meet(p, q):
    """Conjunction: pairwise clause unions, re-canonicalized."""
    return minimal_antichain(s | g for s, g in product(p, q))


def join(p, q):
    """Disjunction: union of the clause sets, re-canonicalized."""
    return minimal_antichain(p | q)


def leq(p, q):
    """Every clause of p contains some clause of q."""
    return all(any(d & c == d for d in q) for c in p)


def clause_key(n, p):
    """Sorted tuple of sorted clause tuples, the order of ``prop_key``."""
    return tuple(sorted(tuple(i for i in range(n) if c >> i & 1) for c in p))


def enumerate_antichains(n):
    """Every antichain of clause bitmasks over n atoms, sorted by clause_key."""
    masks = list(range(1 << n))
    out = []

    def extend(start, chosen):
        out.append(frozenset(chosen))
        for i in range(start, len(masks)):
            m = masks[i]
            if any(c & m == c or c & m == m for c in chosen):
                continue
            chosen.append(m)
            extend(i + 1, chosen)
            chosen.pop()

    extend(0, [])
    return sorted(out, key=lambda p: clause_key(n, p))
