"""Differential test: exact belief tables and their inversion, run as zeta
and Möbius sweeps over the class lattice, against the per-value oracle.

Exact ``bel_table`` and ``bba_from_bel`` must equal ``fraction_bba_oracle``
in values, types and key order on every closure-oracle Γ, on the seeded
quotients of a closed sublattice universe that the ``UniverseQuotient``
oracle builds (where one cover of the class lattice can clear several key
bits at once), and on the order quotient at n = 5.  Perturbed tables check the drop rule: a recovered mass in
[-MASS_TOL, 0) is dropped and no later class subtracts it, and one below
-MASS_TOL is rejected with the oracle's proposition and value.
"""

import random
from fractions import Fraction
from functools import cache, reduce
from operator import and_

import pytest

from dsmfuse import belief as bf
from dsmfuse import ordered as od
from dsmfuse import prebool as pb

import fraction_bba_oracle as oracle
from mobius_oracle import invert
from test_quotient_oracle import CASES, sublattice_case
from universe_quotient_oracle import UniverseQuotient

BUILDERS = {
    **{
        name: (lambda n=n, gamma=gamma: pb.quotient(pb.enumerate_hyperpower(n), gamma))
        for name, (n, gamma) in CASES.items()
    },
    **{
        f"sublattice-s{seed}": (lambda seed=seed: UniverseQuotient(*sublattice_case(seed)))
        for seed in range(4)
    },
    "sublattice-free": lambda: UniverseQuotient(sublattice_case(0)[0], pb.ConstraintSet(())),
    "free-n4": lambda: pb.free_algebra(4),
    "order-n5": lambda: pb.quotient(pb.enumerate_hyperpower(5, 5), od.order_constraints(5)),
}
TOL = Fraction(bf.MASS_TOL)


@cache
def algebra(name):
    return BUILDERS[name]()


def inner(alg):
    """Representatives that may carry mass in an exhaustive assignment."""
    top = alg.key(alg.top)
    return [r for k, r in alg.rep_by_key.items() if k not in (0, top)]


def random_masses(alg, rng, size):
    pool = inner(alg) or [alg.top]
    focal = rng.sample(pool, min(size, len(pool)))
    weights = [rng.randint(1, 64) for _ in focal]
    return {p: Fraction(w, sum(weights)) for p, w in zip(focal, weights)}


def assert_same(got, want):
    """Same keys in the same order, every value an equal ``Fraction``."""
    assert list(got) == list(want)
    assert all(type(g) is Fraction and g == w for g, w in zip(got.values(), want.values()))


def inversion_outcome(invert_table, alg, table):
    """The recovered masses, or the error's type and text, and for a
    rejection its proposition and value."""
    try:
        return invert_table(alg, table, exhaustive=False).mass
    except bf.BbaError as exc:
        return type(exc), str(exc), getattr(exc, "proposition", None), getattr(exc, "value", None)


def assert_same_inversion(alg, table):
    got = inversion_outcome(bf.bba_from_bel, alg, table)
    want = inversion_outcome(oracle.bba_from_bel, alg, table)
    if isinstance(want, tuple):
        assert got == want
        if got[0] is bf.InconsistentBelief:
            assert type(got[3]) is Fraction
    else:
        assert_same(got, want)
    return got


@pytest.mark.parametrize("name", BUILDERS)
def test_tables_and_inversion_match_oracle(name):
    alg = algebra(name)
    if alg.key(alg.top) == 0:
        pytest.skip("BOTTOM and TOP are one class, which can carry no mass")
    exhaustive = bool(inner(alg))  # otherwise only TOP can carry mass
    rng = random.Random(f"sweep:{name}")
    for size in (1, 8, 48):
        masses = [random_masses(alg, rng, size) for _ in range(2)]
        new = [bf.FiniteBba(alg, m, exhaustive) for m in masses]
        old = [oracle.FiniteBba(alg, m, exhaustive) for m in masses]
        try:
            pairs = [(bf.fuse(*new), oracle.fuse(*old))]
        except bf.BbaError:  # a meet fell on BOTTOM; the inputs still count
            pairs = []
        for m, o in [*zip(new, old), *pairs]:
            table = bf.bel_table(m)
            assert_same(table, oracle.bel_table(o))
            recovered = bf.bba_from_bel(alg, table, exhaustive)
            assert_same(recovered.mass, oracle.bba_from_bel(alg, table, exhaustive).mass)
            assert recovered == m


@pytest.mark.parametrize("name", ["sublattice-s0", "sublattice-s2", "sublattice-s3", "sublattice-free"])
def test_sublattice_covers_clear_several_bits(name):
    # The case a sweep of one bit per step gets wrong: two kept bits x whose
    # least key holding x is the same join-irreducible.
    keys = list(algebra(name).rep_by_key)
    bits = [x for x in range(max(keys).bit_length()) if any(k >> x & 1 for k in keys)]
    least = [reduce(and_, [k for k in keys if k >> x & 1]) for x in bits]
    assert len(set(least)) < len(least)


def dipped(alg, rng, count, dip):
    """A consistent table with ``count`` classes lowered by ``dip``, each
    class above the one before; none of them carries mass."""
    m = bf.FiniteBba(alg, random_masses(alg, rng, 1), exhaustive=False)
    top = alg.key(alg.top)
    free = [k for k in alg.rep_by_key if k not in (0, top) and not m[alg.rep_by_key[k]]]
    chain = []
    for k in sorted(free, key=lambda k: (k.bit_count(), rng.random())):
        if not chain or not chain[-1] & ~k:
            chain.append(k)
            if len(chain) == count:
                break
    table = bf.bel_table(m)
    for k in chain:
        table[alg.rep_by_key[k]] -= dip
    return m, table, chain


@pytest.mark.parametrize("name", ["free-n4", "order-n5", "sublattice-s0"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_tolerable_dips_are_dropped_and_not_subtracted_above(name, count):
    alg = algebra(name)
    rng = random.Random(f"dip:{name}:{count}")
    for dip in (Fraction(1, 10**13), TOL / 2, TOL):
        m, table, chain = dipped(alg, rng, count, dip)
        assert len(chain) == count
        got = assert_same_inversion(alg, table)
        # Every dip is dropped, so the masses are those of the undipped table.
        assert got == m.mass
        # The plain Möbius inverse keeps the dips, so it differs.
        assert invert(alg, table) != dict(m.mass)


@pytest.mark.parametrize("name", ["free-n4", "order-n5", "sublattice-s0"])
def test_a_dip_just_past_the_tolerance_is_rejected(name):
    alg = algebra(name)
    rng = random.Random(f"past:{name}")
    past = TOL + Fraction(1, 10**30)
    for count in (1, 2):
        m, table, chain = dipped(alg, rng, count, past)
        got = assert_same_inversion(alg, table)
        assert got[0] is bf.InconsistentBelief and got[2:] == (alg.rep_by_key[chain[0]], -past)
    # A tolerable dip first, then one past the tolerance above it: the first
    # is dropped, and the second is rejected at its own value.
    m, table, chain = dipped(alg, rng, 2, TOL)
    table[alg.rep_by_key[chain[1]]] -= Fraction(1, 10**30)
    got = assert_same_inversion(alg, table)
    assert got[0] is bf.InconsistentBelief and got[2:] == (alg.rep_by_key[chain[1]], -past)


@pytest.mark.parametrize("name", ["readme-n4", "order-n4", "random-n4-s3", "sublattice-s0", "order-n5"])
def test_perturbed_tables_match_oracle(name):
    # Up to three classes moved by a mix of tolerable, borderline and large
    # steps: the same masses or the same rejection as the oracle.
    alg = algebra(name)
    rng = random.Random(f"perturbed:{name}")
    steps = [Fraction(k, 10**13) for k in range(-10, 11)] + [
        TOL, -TOL, TOL + Fraction(1, 10**30), Fraction(1, 64), Fraction(-1, 64)
    ]
    reps = list(alg.rep_by_key.values())
    outcomes = set()
    for _ in range(60):
        table = bf.bel_table(bf.FiniteBba(alg, random_masses(alg, rng, 6), exhaustive=False))
        for p in rng.sample(reps, rng.randint(1, 3)):
            table[p] -= rng.choice(steps)
        outcomes.add(isinstance(assert_same_inversion(alg, table), tuple))
    assert outcomes == {True, False}
