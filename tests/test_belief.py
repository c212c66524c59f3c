import math
import random
from fractions import Fraction

import pytest

from dsmfuse import belief as bf
from dsmfuse import prebool as pb


@pytest.fixture(scope="module")
def free2():
    return pb.free_algebra(2)


@pytest.fixture(scope="module")
def example3_algebra():
    a, b, c = (pb.atom_prop(3, i) for i in range(3))
    gamma = pb.ConstraintSet(
        ((pb.meet(a, b), pb.meet(a, c)), (pb.meet(a, c), pb.meet(b, c)))
    )
    return pb.quotient(pb.enumerate_hyperpower(3), gamma)


def random_bba(algebra, rng, exhaustive=True):
    reps = [
        r for r in algebra.representatives
        if r != algebra.bottom and (not exhaustive or r != algebra.top)
    ]
    weights = [Fraction(rng.randint(0, 20)) for _ in reps]
    while sum(weights) == 0:
        weights = [Fraction(rng.randint(0, 20)) for _ in reps]
    total = sum(weights)
    return bf.FiniteBba(
        algebra, {r: w / total for r, w in zip(reps, weights)},
        exhaustive=exhaustive,
    )


def test_bba_validation(free2):
    a = pb.atom_prop(2, 0)
    with pytest.raises(bf.BbaError):
        bf.FiniteBba(free2, {a: 0.5})
    with pytest.raises(bf.BbaError):
        bf.FiniteBba(free2, {pb.bottom(2): 1})
    with pytest.raises(bf.BbaError):
        bf.FiniteBba(free2, {pb.top(2): 1})
    bf.FiniteBba(free2, {pb.top(2): 1}, exhaustive=False)  # allowed non-exhaustive


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bba_rejects_non_finite_mass(free2, value):
    a, b = pb.atom_prop(2, 0), pb.atom_prop(2, 1)
    with pytest.raises(bf.BbaError, match="non-finite"):
        bf.FiniteBba(free2, {a: value})
    with pytest.raises(bf.BbaError, match="non-finite"):
        bf.FiniteBba(free2, {a: Fraction(1, 2), b: value})


def test_bel_of_top_is_one(free2):
    rng = random.Random(1)
    for _ in range(10):
        m = random_bba(free2, rng)
        assert bf.bel(m, pb.top(2)) == 1


def test_bel_point_mass(free2):
    a, b = pb.atom_prop(2, 0), pb.atom_prop(2, 1)
    m = bf.FiniteBba(free2, {a: 1})
    assert bf.bel(m, a) == 1
    assert bf.bel(m, b) == 0
    assert bf.bel(m, pb.meet(a, b)) == 0
    assert bf.bel(m, pb.join(a, b)) == 1


def test_bel_brute_force_sum(free2):
    rng = random.Random(2)
    m = random_bba(free2, rng)
    a, b = pb.atom_prop(2, 0), pb.atom_prop(2, 1)
    target = pb.join(a, b)
    expected = sum(
        m[p] for p in free2.representatives if pb.leq(p, target)
    )
    assert bf.bel(m, target) == expected
    assert expected == m[a] + m[b] + m[pb.meet(a, b)] + m[target]


def test_bel_monotone(example3_algebra):
    rng = random.Random(3)
    m = random_bba(example3_algebra, rng)
    reps = example3_algebra.representatives
    for p in reps:
        for q in reps:
            if example3_algebra.leq(p, q):
                assert bf.bel(m, p) <= bf.bel(m, q)


def test_inversion_of_point_mass(free2):
    a = pb.atom_prop(2, 0)
    m = bf.FiniteBba(free2, {a: 1})
    recovered = bf.bba_from_bel(free2, bf.bel_table(m))
    assert recovered.mass == m.mass


def test_inversion_roundtrip_exact(example3_algebra):
    rng = random.Random(4)
    for _ in range(100):
        m = random_bba(example3_algebra, rng)
        recovered = bf.bba_from_bel(example3_algebra, bf.bel_table(m))
        assert recovered.mass == m.mass


def test_inversion_roundtrip_floats(example3_algebra):
    rng = random.Random(5)
    for _ in range(20):
        exact = random_bba(example3_algebra, rng)
        m = bf.FiniteBba(
            example3_algebra, {p: float(v) for p, v in exact.mass.items()}
        )
        recovered = bf.bba_from_bel(example3_algebra, bf.bel_table(m))
        for p in example3_algebra.representatives:
            assert abs(recovered[p] - m[p]) < 1e-10


def test_inversion_rejects_inconsistent_bel(free2):
    a, b = pb.atom_prop(2, 0), pb.atom_prop(2, 1)
    table = {p: 1 if pb.leq(pb.top(2), p) else 0 for p in free2.representatives}
    # belief 1 only at TOP forces mass onto TOP: fine non-exhaustively
    m = bf.bba_from_bel(free2, table, exhaustive=False)
    assert m[pb.top(2)] == 1
    # a decreasing table along the order is inconsistent
    bad = dict(table)
    bad[pb.meet(a, b)] = 1
    bad[a] = 0
    with pytest.raises(bf.InconsistentBelief):
        bf.bba_from_bel(free2, bad, exhaustive=False)


def test_fuse_point_masses(free2):
    a, b = pb.atom_prop(2, 0), pb.atom_prop(2, 1)
    m1 = bf.FiniteBba(free2, {a: 1})
    m2 = bf.FiniteBba(free2, {b: 1})
    fused = bf.fuse(m1, m2)
    assert fused.mass == {pb.meet(a, b): 1}


def test_fuse_with_vacuous_bba(example3_algebra):
    rng = random.Random(6)
    m = random_bba(example3_algebra, rng, exhaustive=False)
    vacuous = bf.FiniteBba(example3_algebra, {example3_algebra.top: 1}, exhaustive=False)
    assert bf.fuse(m, vacuous).mass == m.mass


def test_fuse_matches_double_loop_oracle(example3_algebra):
    rng = random.Random(7)
    m1 = random_bba(example3_algebra, rng)
    m2 = random_bba(example3_algebra, rng)
    fused = bf.fuse(m1, m2)
    expected = {}
    for p1 in example3_algebra.representatives:
        for p2 in example3_algebra.representatives:
            v = m1[p1] * m2[p2]
            if v:
                t = example3_algebra.meet(p1, p2)
                expected[t] = expected.get(t, 0) + v
    assert fused.mass == expected


def test_fuse_commutative_associative_conserving(example3_algebra):
    rng = random.Random(8)
    for _ in range(10):
        m1 = random_bba(example3_algebra, rng)
        m2 = random_bba(example3_algebra, rng)
        m3 = random_bba(example3_algebra, rng)
        assert bf.fuse(m1, m2).mass == bf.fuse(m2, m1).mass
        assert bf.fuse(bf.fuse(m1, m2), m3).mass == bf.fuse(m1, bf.fuse(m2, m3)).mass
        assert sum(bf.fuse(m1, m2).mass.values()) == 1


def test_fuse_rejects_mixed_algebras(free2, example3_algebra):
    rng = random.Random(9)
    m1 = random_bba(free2, rng)
    m2 = random_bba(example3_algebra, rng)
    with pytest.raises(bf.BbaError):
        bf.fuse(m1, m2)
