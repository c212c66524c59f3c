"""Differential test: the belief of ``chebfusion.fuse``'s result against the
product of its inputs' commonalities, at hypothesis-drawn intervals."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse import chebfusion as cf

import interval_commonality_oracle as oracle


@lru_cache(maxsize=None)
def fusions(degree):
    """(input blocks, fused density) for seeded pairs and chained triples."""
    rng = np.random.default_rng(1990 + degree)
    cases = []
    for k in (2, 2, 2, 3, 3):
        ms = [cf.normalize(cf.fit(cf.gaussian(*rng.uniform(-1, 1, 2)), degree)) for _ in range(k)]
        fused = ms[0]
        for m in ms[1:]:
            fused = cf.fuse(fused, m)
        cases.append(([m._block.tolist() for m in ms], fused))
    return cases


endpoint = st.floats(-1.0, 1.0, allow_nan=False)


@pytest.mark.parametrize("degree", [128, 512])
@settings(max_examples=40, deadline=None)
@given(lo=endpoint, hi=endpoint)
def test_fused_belief_is_the_product_of_commonalities(degree, lo, hi):
    iv = cf.GeneralizedInterval(lo, hi)
    for blocks, fused in fusions(degree):
        want = oracle.fused_belief(blocks, lo, hi)
        assert abs(cf.belief(fused, iv) - want) <= 1e-14, (len(blocks), lo, hi)
