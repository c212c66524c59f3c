"""Differential test: interval-bit staircases against threshold tuples."""

from math import comb

import pytest

from dsmfuse import ordered as od
from dsmfuse import prebool as pb

import staircase_oracle as so


def nontrivial(n):
    return [p for p in pb.enumerate_hyperpower(n) if not (p.is_bottom or p.is_top)]


@pytest.mark.parametrize("n", range(1, 5))
def test_smile_matches_threshold_oracle(n):
    for p in nontrivial(n):
        s = od.smile(p)
        assert s.thresholds == so.smile(p)
        assert s.pairs() == so.pairs_of(so.smile(p))


@pytest.mark.parametrize("n", range(1, 5))
def test_meet_join_match_threshold_oracle(n):
    stairs = [(od.smile(p), so.smile(p)) for p in nontrivial(n)]
    for s1, t1 in stairs:
        for s2, t2 in stairs:
            sm, tm = od.stair_meet(s1, s2), so.meet(t1, t2)
            assert (sm and sm.thresholds) == tm
            assert od.stair_join(s1, s2).thresholds == so.join(t1, t2)


@pytest.mark.parametrize("n", range(1, 5))
def test_point_matches_threshold_oracle(n):
    for x in range(n):
        assert od.point(x, n).thresholds == so.point(x, n)


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_matches_brute_force(n):
    brute = so.enumerate_staircases(n)
    brute.sort(key=lambda t: so.table_of(so.pairs_of(t)))
    assert [s.thresholds for s in od.enumerate_staircases(n)] == brute


@pytest.mark.parametrize("n", range(1, 5))
def test_validator_accepts_exactly_the_staircases(n):
    # Every subset of the triangle's bits: only the increasing ones construct.
    triangle = [(i, j) for j in range(n) for i in range(j + 1)]
    accepted = set()
    for bits in range(1 << len(triangle)):
        pairs = [triangle[k] for k in range(len(triangle)) if bits >> k & 1]
        try:
            od.Staircase(n, so.table_of(pairs))
        except ValueError:
            continue
        accepted.add(frozenset(pairs))
    assert accepted == {so.pairs_of(t) for t in so.enumerate_staircases(n)}


def test_count_is_catalan_minus_one():
    # C_m = comb(2m, m) / (m + 1); n atoms give C_{n+1} - 1 staircases.
    counts = [len(od.enumerate_staircases(n)) for n in range(1, 8)]
    assert counts == [comb(2 * n + 2, n + 1) // (n + 2) - 1 for n in range(1, 8)]
    assert counts == [1, 4, 13, 41, 131, 428, 1429]


@pytest.mark.parametrize("n", range(1, 5))
def test_render_matches_pair_grid(n):
    # render_staircase reads the thresholds; the brute-force pair grid is its oracle.
    for t in so.enumerate_staircases(n):
        pairs = so.pairs_of(t)
        grid = [
            "".join("#" if (i, j) in pairs else "." for i in range(n))
            for j in reversed(range(n))
        ]
        s = od.Staircase(n, so.table_of(pairs))
        assert od.render_staircase(s).splitlines() == grid
