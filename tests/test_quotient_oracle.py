"""Differential tests: the truth-table Quotient against the union-find
closure and against the sublattice-universe oracle it replaced."""

import random

import pytest

from dsmfuse import ordered as od
from dsmfuse import prebool as pb

from congruence_oracle import ClosureQuotient, is_closed
from universe_quotient_oracle import UniverseQuotient, classes


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


def assert_matches_oracle(q, universe, gamma):
    # Products are read through keys: meet, join and order of two classes
    # are &, | and inclusion of their keys.
    oracle = ClosureQuotient(universe, gamma)

    assert q.universe == oracle.universe
    assert q.representatives == oracle.representatives
    assert list(classes(q).items()) == list(oracle.classes.items())
    assert (q.bottom, q.top) == (oracle.bottom, oracle.top)
    for p in universe:
        assert q.class_of(p) == oracle.class_of(p)
        for r in universe:
            kp, kr = q.key(p), q.key(r)
            assert q.rep_by_key[kp & kr] == oracle.meet(p, r)
            assert q.rep_by_key[kp | kr] == oracle.join(p, r)
            assert (not kp & ~kr) == oracle.leq(p, r)


@pytest.mark.parametrize("n, gamma", CASES.values(), ids=CASES.keys())
def test_quotient_matches_closure_oracle(n, gamma):
    universe = pb.enumerate_hyperpower(n)
    assert_matches_oracle(pb.quotient(universe, gamma), universe, gamma)


def closed_sublattice(generators):
    universe = set(generators)
    while True:
        grown = universe | {
            op(p, r) for p in universe for r in universe for op in (pb.meet, pb.join)
        }
        if grown == universe:
            return list(universe)
        universe = grown


def sublattice_case(seed):
    # A closed universe smaller than the free algebra: the sublattice of the
    # n=4 algebra generated by a0, a1 and a2 & a3, with both constants.
    n = 4
    a0, a1, a2, a3 = (pb.atom_prop(n, i) for i in range(n))
    universe = closed_sublattice([pb.bottom(n), pb.top(n), a0, a1, pb.meet(a2, a3)])
    rng = random.Random(f"sublattice:{seed}")
    gamma = pb.ConstraintSet(
        tuple((rng.choice(universe), rng.choice(universe)) for _ in range(rng.randint(1, 2)))
    )
    return universe, gamma


@pytest.mark.parametrize("seed", range(4))
def test_sublattice_quotient_matches_closure_oracle(seed):
    universe, gamma = sublattice_case(seed)
    assert len(universe) < 168
    q = UniverseQuotient(universe, gamma)
    assert_matches_oracle(q, universe, gamma)
    assert list(q.classes.items()) == list(classes(q).items())
    for p in universe:
        for r in universe:
            assert q.meet(p, r) == q.rep_by_key[q.key(p) & q.key(r)]
            assert q.join(p, r) == q.rep_by_key[q.key(p) | q.key(r)]
            assert q.leq(p, r) == (not q.key(p) & ~q.key(r))


def random_universe(n, kind, rng):
    free = pb.enumerate_hyperpower(n)
    if kind == "subset":
        return [p for p in free if rng.random() < 0.5]
    if kind == "free-minus-one":
        free.remove(rng.choice(free))
        return free
    generators = rng.sample(free, rng.randint(1, 3))
    universe = sorted(
        closed_sublattice(generators + [pb.bottom(n), pb.top(n)]), key=pb.prop_key
    )
    if kind == "sublattice-minus-one":
        universe.remove(rng.choice(universe))
    return universe


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize(
    "kind", ("subset", "sublattice", "sublattice-minus-one", "free-minus-one")
)
def test_closure_check_matches_pairwise_rule(n, kind):
    # The union closure of least members accepts exactly the universes that
    # the pairwise rule finds closed and holding both constants.
    rng = random.Random(f"closure:{n}:{kind}")
    empty = pb.ConstraintSet(())
    for _ in range(12):
        universe = random_universe(n, kind, rng)
        if is_closed(universe):
            q = UniverseQuotient(universe, empty)
            assert len(q.classes) == len(ClosureQuotient(universe, empty).classes)
            continue
        with pytest.raises(ValueError) as err:
            UniverseQuotient(universe, empty)
        if universe:
            # The rejection names the smallest table of the generated
            # sublattice that the universe lacks.
            generated = closed_sublattice(universe + [pb.bottom(n), pb.top(n)])
            missing = min(set(generated) - set(universe), key=lambda p: p.table)
            assert str(err.value) == (
                f"proposition {pb.format_proposition(missing)} is outside the universe"
            )


FREE_N5 = pb.enumerate_hyperpower(5, 5)
SHUFFLED_N4 = pb.enumerate_hyperpower(4)
random.Random("shuffled").shuffle(SHUFFLED_N4)
FREE_UNIVERSES = {
    **{name: (pb.enumerate_hyperpower(n), gamma) for name, (n, gamma) in CASES.items()},
    "free-n4": (pb.enumerate_hyperpower(4), pb.ConstraintSet(())),
    "free-n5": (FREE_N5, pb.ConstraintSet(())),
    "order-n5": (FREE_N5, od.order_constraints(5)),
    "shuffled-order-n4": (SHUFFLED_N4, od.order_constraints(4)),
}


@pytest.mark.parametrize("universe, gamma", FREE_UNIVERSES.values(), ids=FREE_UNIVERSES.keys())
def test_quotient_matches_universe_oracle(universe, gamma):
    q = pb.quotient(universe, gamma)
    oracle = UniverseQuotient(universe, gamma)
    assert q.universe == oracle.universe
    assert q.representatives == oracle.representatives
    assert list(q.rep_by_key.items()) == list(oracle.rep_by_key.items())
    assert (q.bottom, q.top) == (oracle.bottom, oracle.top)
    for p in universe:
        assert q.key(p) == oracle.key(p)
        assert q.class_of(p) == oracle.class_of(p)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize(
    "kind", ("subset", "sublattice", "sublattice-minus-one", "free-minus-one")
)
def test_universe_check_accepts_exactly_the_free_algebra(n, kind):
    # The generator check accepts exactly the universes that hold every up-set,
    # and a rejection names the smallest up-set the universe lacks.
    rng = random.Random(f"free-check:{n}:{kind}")
    empty = pb.ConstraintSet(())
    free = pb.enumerate_hyperpower(n)
    for _ in range(12):
        universe = random_universe(n, kind, rng)
        missing = set(free) - set(universe)
        if not missing:
            assert pb.quotient(universe, empty).universe == free
            continue
        with pytest.raises(ValueError) as err:
            pb.quotient(universe, empty)
        if universe:
            smallest = min(missing, key=lambda p: p.table)
            assert str(err.value) == (
                f"proposition {pb.format_proposition(smallest)} is outside the universe"
            )


def test_free_algebra_minus_any_member_is_rejected():
    free = pb.enumerate_hyperpower(4)
    for p in free:
        with pytest.raises(ValueError) as err:
            pb.quotient([r for r in free if r != p], pb.ConstraintSet(()))
        assert str(err.value) == f"proposition {pb.format_proposition(p)} is outside the universe"

