import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from dsmfuse import belief as bf
from dsmfuse import ordered as od
from dsmfuse import prebool as pb

import fusion_oracle
import staircase_oracle as so


# independent pair-set oracle: build everything from explicit pairs
def point_pairs(x, n):
    return frozenset((i, j) for j in range(x, n) for i in range(x + 1))


def smile_pairs(p, n):
    result = frozenset()
    for clause in p.clauses:
        idx = [i for i in range(n) if clause >> i & 1]
        result |= point_pairs(min(idx), n) & point_pairs(max(idx), n)
    return result


def test_order_constraints_n3():
    gamma = od.order_constraints(3)
    triple = (pb.varphi(3, [{0, 1, 2}]), pb.varphi(3, [{0, 2}]))
    assert triple in gamma.pairs
    assert pb.is_insulated(gamma)


def test_order_constraints_n1_all_identities():
    gamma = od.order_constraints(1)
    assert all(p == q for p, q in gamma.pairs)


def test_order_constraints_n2_quotient_is_free():
    q = pb.quotient(pb.enumerate_hyperpower(2), od.order_constraints(2))
    assert len(q.representatives) == 6


def point(x, n):
    """The staircase of the single atom a{x}, the interval [x, x]."""
    return od.smile(od.interval(n, x, x))


def test_point_examples():
    assert point(1, 3).table == so.table_of({(0, 1), (1, 1), (0, 2), (1, 2)})
    assert point(0, 3).table == so.table_of(so.pairs_of((0, 0, 0)))
    assert point(0, 3).table & point(2, 3).table == so.table_of({(0, 2)})


def test_point_out_of_range():
    for lo, hi in ((3, 3), (-1, 0), (2, 3), (3, 0), (0, -1)):
        with pytest.raises(ValueError):
            od.interval(3, lo, hi)


def test_stair_meet_join_basics():
    # three-point meet collapses to the extremes, the interval [2, 0]
    p0, p1, p2 = (point(i, 3).table for i in range(3))
    assert p0 & p1 & p2 == p0 & p2 == od.smile(od.interval(3, 2, 0)).table


def test_stair_meet_matches_pair_intersection():
    rng = random.Random(0)
    n = 4
    universe = [p for p in pb.enumerate_hyperpower(n) if not (p.is_bottom or p.is_top)]
    for _ in range(50):
        p, q = rng.choice(universe), rng.choice(universe)
        sp, sq = smile_pairs(p, n), smile_pairs(q, n)
        tp, tq = od.smile(p).table, od.smile(q).table
        assert tp & tq == so.table_of(sp & sq)
        assert tp | tq == so.table_of(sp | sq)


def test_smile_examples():
    assert od.smile(pb.varphi(3, [{0, 2}])).table == so.table_of({(0, 2)})
    s = od.smile(pb.varphi(3, [{0}, {1}]))
    assert s.table == so.table_of(so.pairs_of((0, 1, 1)))


def test_smile_rejects_constants():
    with pytest.raises(ValueError, match="smile is undefined on BOTTOM and TOP"):
        od.smile(pb.bottom(2))
    with pytest.raises(ValueError, match="smile is undefined on BOTTOM and TOP"):
        od.smile(pb.top(2))


def test_smile_matches_pair_oracle():
    for n in (2, 3, 4):
        for p in pb.enumerate_hyperpower(n):
            if p.is_bottom or p.is_top:
                continue
            assert od.smile(p).table == so.table_of(smile_pairs(p, n))


def test_smile_is_morphism():
    rng = random.Random(1)
    n = 4
    universe = [p for p in pb.enumerate_hyperpower(n) if not (p.is_bottom or p.is_top)]
    for _ in range(100):
        p, q = rng.choice(universe), rng.choice(universe)
        sp, sq = od.smile(p).table, od.smile(q).table
        assert od.smile(pb.meet(p, q)).table == sp & sq
        assert od.smile(pb.join(p, q)).table == sp | sq


def test_every_staircase_is_a_smile_image():
    # constructive: each increasing subset is the union of its pair rectangles
    for n in (2, 3):
        images = {
            od.smile(p)
            for p in pb.enumerate_hyperpower(n)
            if not (p.is_bottom or p.is_top)
        }
        for t in so.enumerate_staircases(n):
            s = od.Staircase(n, so.table_of(so.pairs_of(t)))
            assert s in images
            rebuilt = pb.varphi(n, [{a, b} for a, b in so.pairs_of(t)])
            assert od.smile(rebuilt) == s


def test_verify_isomorphism_small():
    for n in (1, 2, 3):
        report = od.verify_isomorphism(n)
        assert report.ok, report.counterexamples
    assert od.verify_isomorphism(1).class_count == 1
    assert od.verify_isomorphism(2).class_count == 4


def test_zero_atoms_are_rejected():
    for build in (pb.enumerate_hyperpower, od.order_constraints, od.verify_isomorphism):
        with pytest.raises(ValueError, match="need at least one atom"):
            build(0)


def test_verify_isomorphism_guard():
    with pytest.raises(ValueError):
        od.verify_isomorphism(5)


def test_verify_isomorphism_builds_no_algebra(monkeypatch):
    # The theorem is one identity on the order constraints' mask: no free
    # algebra, quotient or smile image is needed, so n = 5 is cheap.
    def refuse(*args, **kwargs):
        raise AssertionError("verify_isomorphism built an algebra")

    monkeypatch.setattr(pb, "enumerate_hyperpower", refuse)
    monkeypatch.setattr(pb, "Quotient", refuse)
    monkeypatch.setattr(od, "smile", refuse)
    report = od.verify_isomorphism(5, max_atoms=5)
    assert report.ok, report.counterexamples
    assert report.class_count == report.staircase_count == 131


@pytest.mark.parametrize("n", range(1, 9))
def test_report_counts_match_enumeration(n):
    # The closed-form counts against the enumerations they replaced.
    keep = pb.top(n).table & ~pb.congruence_mask(od.order_constraints(n))
    report = od.verify_isomorphism(n, max_atoms=n)
    assert report.ok, report.counterexamples
    assert report.class_count == len(pb.upsets(n, keep)) - 2
    assert report.staircase_count == len(od.enumerate_staircases(n))


def test_passing_check_lists_no_staircase(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_isomorphism enumerated up-sets or staircases")

    monkeypatch.setattr(pb, "upsets", refuse)
    monkeypatch.setattr(od, "enumerate_staircases", refuse)
    monkeypatch.setattr(od, "Staircase", refuse)
    report = od.verify_isomorphism(12, max_atoms=12)
    assert report.ok, report.counterexamples
    assert report.class_count == report.staircase_count == 742899


def test_staircase_validation():
    with pytest.raises(ValueError, match="non-empty"):
        od.Staircase(2, 0)
    # column 1 left undefined after column 0 is defined: (0, 1) missing
    with pytest.raises(ValueError, match="staircase must be up-closed"):
        od.Staircase(2, so.table_of([(0, 0)]))
    # decreasing thresholds (0, 1, 0): (1, 2) missing above (1, 1)
    with pytest.raises(ValueError, match="staircase must be up-closed"):
        od.Staircase(3, so.table_of([(0, 0), (0, 1), (1, 1), (0, 2)]))
    # out-of-range thresholds: bits of the empty set, of the non-interval
    # {a0, a2}, of an atom beyond n, and a negative table
    for n, table in ((2, 1), (3, 1 << 0b101), (2, 1 << 0b100), (2, -1)):
        with pytest.raises(ValueError, match="staircase table has a bit outside the triangle"):
            od.Staircase(n, table | so.table_of([(0, n - 1)]))
    # thresholds (None, 0, 1) construct
    pairs = {(0, 1), (0, 2), (1, 2)}
    assert so.pairs_of((None, 0, 1)) == pairs
    od.Staircase(3, so.table_of(pairs))


def test_belief_ops_run_on_ordered_quotient():
    q = pb.quotient(pb.enumerate_hyperpower(3), od.order_constraints(3))
    rng = random.Random(2)
    reps = [r for r in q.representatives if r not in (q.bottom, q.top)]
    weights = [Fraction(rng.randint(1, 9)) for _ in reps]
    total = sum(weights)
    m = bf.FiniteBba(q, {r: w / total for r, w in zip(reps, weights)})
    fused = bf.fuse(m, m)
    assert sum(fused.mass.values()) == 1
    recovered = bf.bba_from_bel(q, bf.bel_table(m))
    assert recovered.mass == m.mass


@pytest.mark.parametrize("n", range(1, 8))
def test_interval_staircase(n):
    # [lo, hi] is the staircase {(i, j): i <= hi, j >= lo}; [x, x] is a{x}.
    for lo, hi in product(range(n), repeat=2):
        pairs = {(i, j) for j in range(lo, n) for i in range(min(hi, j) + 1)}
        assert od.smile(od.interval(n, lo, hi)).table == so.table_of(pairs)
    for x in range(n):
        assert od.interval(n, x, x) == pb.atom_prop(n, x)


@pytest.mark.parametrize("n", range(1, 6))
def test_intervals_are_the_order_quotient(n):
    # The order quotient's intervals meet as generalized intervals do, and
    # exact fusion of interval masses is the cell-grid fusion, cell (lo, hi)
    # holding the mass of [lo, hi].
    q = pb.quotient(pb.enumerate_hyperpower(n, max_atoms=5), od.order_constraints(n))
    cells = list(product(range(n), repeat=2))
    P = {c: od.interval(n, *c) for c in cells}
    assert len({q.class_of(p) for p in P.values()}) == n * n
    for (l1, h1), (l2, h2) in product(cells, repeat=2):
        meet = q.rep_by_key[q.key(P[l1, h1]) & q.key(P[l2, h2])]
        assert meet == q.class_of(P[max(l1, l2), min(h1, h2)])

    rng = random.Random(n)
    arrays = []
    for _ in range(2):
        weights = np.array(
            [[Fraction(rng.randint(1, 9)) for _ in range(n)] for _ in range(n)],
            dtype=object,
        )
        arrays.append(weights / weights.sum())
    m1, m2 = (bf.FiniteBba(q, {P[c]: a[c] for c in cells}) for a in arrays)
    fused = fusion_oracle.cell_fusion(*arrays)
    assert all(isinstance(v, Fraction) for v in fused.flat)
    assert bf.fuse(m1, m2).mass == {q.class_of(P[c]): fused[c] for c in cells}
