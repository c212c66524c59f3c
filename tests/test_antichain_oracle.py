"""Differential test: truth-table propositions against clause antichains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse import prebool as pb

import antichain_oracle as ao


@st.composite
def clause_lists(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    clause = st.integers(min_value=0, max_value=(1 << n) - 1)
    return n, draw(st.lists(clause, max_size=6)), draw(st.lists(clause, max_size=6))


@settings(max_examples=300)
@given(clause_lists())
def test_operations_match_antichain_oracle(case):
    n, masks_p, masks_q = case
    p, q = pb.make_prop(n, masks_p), pb.make_prop(n, masks_q)
    cp, cq = ao.minimal_antichain(masks_p), ao.minimal_antichain(masks_q)
    assert p.clauses == cp
    assert q.clauses == cq
    assert pb.meet(p, q).clauses == ao.meet(cp, cq)
    assert pb.join(p, q).clauses == ao.join(cp, cq)
    assert pb.leq(p, q) == ao.leq(cp, cq)
    assert pb.prop_key(p) == ao.clause_key(n, cp)


@pytest.mark.parametrize("n", range(1, 5))
def test_enumeration_matches_antichain_oracle(n):
    assert [p.clauses for p in pb.enumerate_hyperpower(n)] == ao.enumerate_antichains(n)
