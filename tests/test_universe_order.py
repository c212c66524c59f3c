"""``Quotient`` on a universe it must check: the closure check proves the
universe complete, and the walk of ``enumerate_hyperpower`` supplies its
order.

Any universe that holds every proposition over n exactly once, in any order
and as fresh objects with no stored keys, must give the quotient of the
walk's own listing.  A universe that passes the closure check but also holds
a table that is not an up-set of atom sets must be rejected.
"""

import random

import pytest

from dsmfuse import ordered as od
from dsmfuse import prebool as pb

from test_quotient_oracle import CASES

EMPTY = pb.ConstraintSet(())
CHECKED = {
    **{f"free-n{n}": (n, EMPTY) for n in range(1, 6)},
    **CASES,
    "order-n5": (5, od.order_constraints(5)),
}


def fields(q):
    return q.universe, list(q.rep_by_key.items()), q.representatives, q.bottom, q.top


@pytest.mark.parametrize("n, gamma", CHECKED.values(), ids=CHECKED.keys())
def test_shuffled_fresh_universe_gives_the_listing_quotient(n, gamma):
    listing = pb.enumerate_hyperpower(n, max_atoms=5)
    fresh = [pb.Proposition(p.n, p.table) for p in listing]
    random.Random(f"universe-order:{n}:{len(gamma.pairs)}").shuffle(fresh)
    assert not any("_prop_key" in vars(p) for p in fresh)
    assert fields(pb.quotient(fresh, gamma)) == fields(pb.quotient(listing, gamma))


# The first two extra tables pass the closure check: the join with every
# up-set of one atom set is a member.  Sorted in by its clauses, each would
# make a class of its own: a second top at n = 1 and a second a0 | a1 at
# n = 2.  The last two have a bit past the last atom set, which is rejected
# before the closure check would name their joins as missing members.
NOT_UP_SETS = {
    "n1-bit-empty-set": (1, 0b01),
    "n2-bits-a0-a1": (2, 0b0110),
    "n1-wide": (1, 0b0100),
    "n1-wide-with-empty-set": (1, 0b0101),
}


@pytest.mark.parametrize("n, table", NOT_UP_SETS.values(), ids=NOT_UP_SETS.keys())
def test_universe_with_a_table_that_is_not_an_up_set_is_rejected(n, table):
    extra = pb.Proposition(n, table)
    assert extra not in pb.enumerate_hyperpower(n)
    for universe in (
        list(pb.enumerate_hyperpower(n)) + [extra],
        [extra] + list(pb.enumerate_hyperpower(n)),
    ):
        with pytest.raises(
            ValueError, match="^universe holds a table that is not an up-set of atom sets$"
        ):
            pb.quotient(universe, EMPTY)


def test_atomless_universe_is_still_accepted():
    # The walk lists BOTTOM and TOP at n = 0, where enumerate_hyperpower
    # refuses to list.
    q = pb.quotient([pb.top(0), pb.bottom(0)], EMPTY)
    assert q.universe == [pb.bottom(0), pb.top(0)]
    assert (q.bottom, q.top) == (pb.bottom(0), pb.top(0))
