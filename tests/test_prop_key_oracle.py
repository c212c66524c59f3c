"""Differential test: ``prebool.prop_key``'s walk over the clause bits
against the clause scan it replaced (``prop_key_oracle.prop_key``).

The keys must be equal on every proposition over 1 to 5 atoms, and
``enumerate_hyperpower`` must list them in the oracle's order, so every
class representative, and the ``hyperpower`` listing, is unchanged.
"""

import pytest

from dsmfuse import prebool as pb

import prop_key_oracle


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_keys_and_listing_match_the_clause_scan(n):
    listed = pb.enumerate_hyperpower(n, max_atoms=5)
    assert listed == prop_key_oracle.enumerate_hyperpower(n)
    assert len(listed) == [3, 6, 20, 168, 7581][n - 1]
    for p in listed:
        key = pb.prop_key(p)
        assert key == prop_key_oracle.prop_key(p)
        assert len(key) == len(p.clauses)
