"""Differential test: belief inversion against Möbius inversion."""

import random
from fractions import Fraction

import pytest

from dsmfuse import belief as bf
from dsmfuse import ordered as od
from dsmfuse import prebool as pb

from mobius_oracle import invert

ALGEBRAS = {
    "free-n3": lambda: pb.free_algebra(3),
    "free-n4": lambda: pb.free_algebra(4),
    "order-n4": lambda: pb.quotient(pb.enumerate_hyperpower(4), od.order_constraints(4)),
}


def random_bba(algebra, rng):
    # A few focal elements, TOP among the candidates, as in non-exhaustive use.
    pool = [r for r in algebra.representatives if r != algebra.bottom]
    focal = rng.sample(pool, rng.randint(1, 12))
    weights = [Fraction(rng.randint(1, 20)) for _ in focal]
    total = sum(weights)
    return bf.FiniteBba(
        algebra, {p: w / total for p, w in zip(focal, weights)}, exhaustive=False
    )


@pytest.mark.parametrize("name", ALGEBRAS)
def test_inversion_matches_mobius_oracle(name):
    algebra = ALGEBRAS[name]()
    rng = random.Random(f"mobius:{name}")
    for _ in range(5):
        m = random_bba(algebra, rng)
        table = bf.bel_table(m)
        assert bf.bba_from_bel(algebra, table, exhaustive=False).mass == m.mass
        assert invert(algebra, table) == m.mass


@pytest.mark.parametrize("name", ALGEBRAS)
def test_inconsistency_matches_mobius_oracle(name):
    # Perturbed tables: the sweep rejects one iff its Möbius masses go negative.
    algebra = ALGEBRAS[name]()
    rng = random.Random(f"mobius-perturbed:{name}")
    inner = [r for r in algebra.representatives if r not in (algebra.bottom, algebra.top)]
    outcomes = set()
    for _ in range(10):
        table = bf.bel_table(random_bba(algebra, rng))
        p = rng.choice(inner)
        table[p] = max(table[p] + Fraction(rng.randint(-5, 5), 50), Fraction(0))
        expected = invert(algebra, table)
        consistent = min(expected.values()) > 0
        outcomes.add(consistent)
        if consistent:
            assert bf.bba_from_bel(algebra, table, exhaustive=False).mass == expected
        else:
            with pytest.raises(bf.InconsistentBelief):
                bf.bba_from_bel(algebra, table, exhaustive=False)
    assert outcomes == {True, False}
