"""Differential test: pairwise-meet fusion against fusion through
commonalities, exactly, on the algebras of the lattice-sweep test."""

import random
from fractions import Fraction

import pytest

from dsmfuse import belief as bf

import commonality_oracle
from test_lattice_sweep import BUILDERS, algebra, inner


def by_key(alg, m):
    return {alg.key(p): v for p, v in m.mass.items()}


@pytest.mark.parametrize("name", BUILDERS)
def test_fuse_matches_commonality_oracle(name):
    alg = algebra(name)
    if alg.key(alg.top) == 0:
        pytest.skip("BOTTOM and TOP are one class, which can carry no mass")
    # TOP may carry mass, as in non-exhaustive use, so every algebra has inputs.
    pool = inner(alg) + [alg.top]
    keys = list(alg.rep_by_key)
    rng = random.Random(f"commonality:{name}")
    for size in (1, 5, 48, len(pool)):
        masses = []
        for _ in range(2):
            focal = rng.sample(pool, min(size, len(pool)))
            weights = [rng.randint(1, 64) for _ in focal]
            masses.append(bf.FiniteBba(
                alg, {p: Fraction(w, sum(weights)) for p, w in zip(focal, weights)},
                exhaustive=False,
            ))
        want = commonality_oracle.fuse(keys, *(by_key(alg, m) for m in masses))
        assert sum(want.values()) == 1
        if 0 in want:
            with pytest.raises(bf.BbaError, match="^mass on BOTTOM is forbidden$"):
                bf.fuse(*masses)
            continue
        fused = bf.fuse(*masses)
        assert by_key(alg, fused) == want
        assert all(type(v) is Fraction for v in fused.mass.values())
