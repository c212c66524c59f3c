"""The hyperpower listing by generate-then-sort: the old ``enumerate_hyperpower``.

``prebool.enumerate_hyperpower`` lists the clause antichains by a
depth-first walk, in ``prop_key`` order, and stores each element's key as
it goes.  This module keeps the version it replaced: every up-set table
from ``upsets``, each made a fresh ``Proposition`` whose key ``prop_key``
computes from its table, then sorted by that key.
"""

from dsmfuse.prebool import Proposition, _up_sets, prop_key, upsets


def enumerate_hyperpower(n: int) -> list[Proposition]:
    """All distinct propositions over n atoms, sorted by :func:`prop_key`."""
    full = _up_sets(n)[0]
    return sorted((Proposition(n, t) for t in upsets(n, full)), key=prop_key)
