"""The class lattice's sweep pairs by a per-bit scan: the old ``belief._lattice``.

``belief._lattice`` finds each join-irreducible as the first key, in
ascending order, that holds a bit no smaller key holds.  This module keeps
the version it replaced, verbatim: for every bit x of the top key it scans
all keys and ``&``s together the ones that hold x.  That costs O(|L|·2^n)
set operations against the pass's O(|L|), and it finds the groups without
the first-appearance argument, so the tests hold ``belief._lattice`` to its
tuples.
"""

from functools import lru_cache, reduce
from operator import and_


@lru_cache(maxsize=32)
def _lattice(
    keys: tuple[int, ...],
) -> tuple[tuple[int, ...], dict[int, int], tuple[tuple[int, int], ...]]:
    """The class keys in ascending order, each key's index in that order,
    and the zeta sweep's index pairs (K, K ^ G), in sweep order.  Callers
    share the cached result and only read it.

    The keys are a family of sets closed under ``&`` and ``|``.  For each
    bit x of the top key, ``least[x]``, the ``&`` of the keys that hold x,
    is a join-irreducible J, and every key is the ``|`` of the J it holds.
    The bits G whose ``least`` is J are J less the join-irreducibles below
    it.  On a quotient of the free algebra, the only kind that
    :class:`Quotient` builds, G is one bit.  An algebra built elsewhere on a
    smaller closed universe may have covers that clear several bits at once,
    so the pairs step by G, not by bit.  A key K holds J iff it holds G, and
    removing J from the join-irreducibles below K leaves a down-set, whose
    key is K ^ G, iff K ^ G is a key.  The groups are taken in ascending
    order of J, a linear extension of the order; within one group no K ^ G
    holds G, so the pairs of a group are independent.
    """
    ordered = tuple(sorted(keys))
    index = {k: i for i, k in enumerate(ordered)}
    groups: dict[int, int] = {}
    for x in range(ordered[-1].bit_length()):
        holding = [k for k in ordered if k >> x & 1]
        if holding:
            least = reduce(and_, holding)
            groups[least] = groups.get(least, 0) | 1 << x
    pairs = tuple(
        (index[K], index[K ^ g])
        for _, g in sorted(groups.items())
        for K in ordered
        if K & g == g and K ^ g in index
    )
    return ordered, index, pairs
