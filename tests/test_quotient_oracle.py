"""Differential test: the truth-table Quotient against the union-find closure."""

import random

import pytest

from dsmfuse import ordered as od
from dsmfuse import prebool as pb

from congruence_oracle import ClosureQuotient


def readme_pair(n):
    a, b, c = (pb.atom_prop(n, i) for i in range(3))
    return pb.ConstraintSet(
        ((pb.meet(a, b), pb.meet(a, c)), (pb.meet(a, c), pb.meet(b, c)))
    )


def random_constraints(n, seed):
    # Two of every three sets equate non-trivial elements only (insulated, as
    # in the benchmark); the rest may also collapse BOTTOM or TOP.
    rng = random.Random(f"oracle:{n}:{seed}")
    universe = pb.enumerate_hyperpower(n)
    pool = universe if seed % 3 == 0 else [
        p for p in universe if not (p.is_bottom or p.is_top)
    ]
    count = rng.randint(1, 3)
    return pb.ConstraintSet(
        tuple((rng.choice(pool), rng.choice(pool)) for _ in range(count))
    )


CASES = {
    **{f"order-n{n}": (n, od.order_constraints(n)) for n in range(1, 5)},
    **{f"readme-n{n}": (n, readme_pair(n)) for n in (3, 4)},
    **{
        f"random-n{n}-s{seed}": (n, random_constraints(n, seed))
        for n, seeds in ((2, 12), (3, 12), (4, 10))
        for seed in range(seeds)
    },
}


def assert_matches_oracle(universe, gamma):
    q = pb.quotient(universe, gamma)
    oracle = ClosureQuotient(universe, gamma)

    assert q.universe == oracle.universe
    assert q.representatives == oracle.representatives
    assert list(q.classes.items()) == list(oracle.classes.items())
    assert (q.bottom, q.top) == (oracle.bottom, oracle.top)
    for p in universe:
        assert q.class_of(p) == oracle.class_of(p)
        for r in universe:
            assert q.meet(p, r) == oracle.meet(p, r)
            assert q.join(p, r) == oracle.join(p, r)
            assert q.leq(p, r) == oracle.leq(p, r)


@pytest.mark.parametrize("n, gamma", CASES.values(), ids=CASES.keys())
def test_quotient_matches_closure_oracle(n, gamma):
    assert_matches_oracle(pb.enumerate_hyperpower(n), gamma)


def closed_sublattice(generators):
    universe = set(generators)
    while True:
        grown = universe | {
            op(p, r) for p in universe for r in universe for op in (pb.meet, pb.join)
        }
        if grown == universe:
            return list(universe)
        universe = grown


@pytest.mark.parametrize("seed", range(4))
def test_sublattice_quotient_matches_closure_oracle(seed):
    # A closed universe smaller than the free algebra: the sublattice of the
    # n=4 algebra generated by a0, a1 and a2 & a3, with both constants.
    n = 4
    a0, a1, a2, a3 = (pb.atom_prop(n, i) for i in range(n))
    universe = closed_sublattice([pb.bottom(n), pb.top(n), a0, a1, pb.meet(a2, a3)])
    assert len(universe) < 168
    rng = random.Random(f"sublattice:{seed}")
    gamma = pb.ConstraintSet(
        tuple((rng.choice(universe), rng.choice(universe)) for _ in range(rng.randint(1, 2)))
    )
    assert_matches_oracle(universe, gamma)
