"""Differential test: interval-bit staircases against threshold tuples.

Every comparison is on truth-table bits: the oracle's threshold tuples go
through ``so.table_of(so.pairs_of(t))``.
"""

from math import comb

import pytest

from dsmfuse import ordered as od
from dsmfuse import prebool as pb

import staircase_oracle as so


def table(t):
    """Truth-table bits of an oracle threshold tuple; 0 for the empty meet."""
    return 0 if t is None else so.table_of(so.pairs_of(t))


def nontrivial(n):
    return [p for p in pb.enumerate_hyperpower(n) if not (p.is_bottom or p.is_top)]


@pytest.mark.parametrize("n", range(1, 5))
def test_smile_matches_threshold_oracle(n):
    for p in nontrivial(n):
        assert od.smile(p).table == table(so.smile(p))


@pytest.mark.parametrize("n", range(1, 5))
def test_meet_join_match_threshold_oracle(n):
    stairs = [(od.smile(p), so.smile(p)) for p in nontrivial(n)]
    for s1, t1 in stairs:
        for s2, t2 in stairs:
            assert s1.table & s2.table == table(so.meet(t1, t2))
            assert s1.table | s2.table == table(so.join(t1, t2))


@pytest.mark.parametrize("n", range(1, 5))
def test_point_matches_threshold_oracle(n):
    for x in range(n):
        assert od.smile(od.interval(n, x, x)).table == table(so.point(x, n))


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_matches_brute_force(n):
    brute = sorted(table(t) for t in so.enumerate_staircases(n))
    assert [s.table for s in od.enumerate_staircases(n)] == brute


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

