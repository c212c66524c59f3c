"""Differential test: ``prebool.enumerate_hyperpower``'s walk over clause
antichains against the generate-then-sort listing it replaced
(``hyperpower_oracle.enumerate_hyperpower``).

The walk must list the oracle's tables in the oracle's order, and the key it
stores on each element must be the one ``prop_key`` computes from the table
alone, so every class representative and every printed name is unchanged.
"""

import gc

import pytest

from dsmfuse import prebool as pb

import hyperpower_oracle


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_lists_the_oracle_order_and_keys(n):
    listed = pb.enumerate_hyperpower(n, max_atoms=5)
    expected = hyperpower_oracle.enumerate_hyperpower(n)
    assert [p.table for p in listed] == [p.table for p in expected]
    for p in listed:
        assert vars(p)["_prop_key"] == pb.prop_key(pb.Proposition(n, p.table))


def test_listing_leaves_no_cyclic_garbage():
    # A walk that holds itself in a reference cycle, as a closure that calls
    # itself does, keeps each listing alive until the cyclic collector runs.
    pb.enumerate_hyperpower(4)
    gc.collect()
    gc.disable()
    try:
        pb.enumerate_hyperpower(4)
        assert gc.collect() == 0
    finally:
        gc.enable()
