"""Acceptance suite: ten end-to-end criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dsmfuse import belief as bf
from dsmfuse import chebfusion as cf
from dsmfuse import cli, ordered
from dsmfuse import prebool as pb

import demo_closed_form as dcf
from universe_quotient_oracle import classes

MM1 = cf.gaussian(-1.0, 0.0)
MM2 = cf.gaussian(0.0, 1.0)


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def antichain_count_oracle(n):
    """Count inclusion-minimal antichains over subsets of n atoms by brute force.

    Independent of the package's DFS enumeration: test every family of
    non-empty subsets for the antichain property, keyed by its minimal form.
    """
    subsets = [frozenset(s) for k in range(1, n + 1)
               for s in combinations(range(n), k)]
    count = 2  # bottom (empty family) and top (empty conjunction)
    for k in range(1, len(subsets) + 1):
        for family in combinations(subsets, k):
            if all(not (a < b or b < a) for a, b in combinations(family, 2)):
                count += 1
    return count


def test_criterion_1_hyperpower_cardinalities():
    start = time.perf_counter()
    small = [len(pb.enumerate_hyperpower(n)) for n in (1, 2, 3)]
    small_elapsed = time.perf_counter() - start
    a, b = (pb.atom_prop(2, i) for i in range(2))
    listing = set(pb.enumerate_hyperpower(2)) == {
        pb.bottom(2), pb.meet(a, b), a, b, pb.join(a, b), pb.top(2),
    }
    start = time.perf_counter()
    n4 = len(pb.enumerate_hyperpower(4))
    n4_elapsed = time.perf_counter() - start
    ok = (
        small == [3, 6, 20]
        and listing
        and n4 == 168
        and n4 == antichain_count_oracle(4)
        and small_elapsed < 1.0
        and n4_elapsed < 30.0
    )
    report("1 hyperpower cardinalities 3/6/20/168", ok)


def test_criterion_2_three_atom_quotient():
    a, b, c = (pb.atom_prop(3, i) for i in range(3))
    gamma = pb.ConstraintSet(
        ((pb.meet(a, b), pb.meet(a, c)), (pb.meet(a, c), pb.meet(b, c)))
    )
    q = pb.quotient(pb.enumerate_hyperpower(3), gamma)
    merged = frozenset({
        pb.meet(pb.meet(a, b), c),
        pb.meet(a, b), pb.meet(b, c), pb.meet(c, a),
        pb.meet(pb.join(a, b), c),
        pb.meet(pb.join(b, c), a),
        pb.meet(pb.join(c, a), b),
        pb.join(pb.join(pb.meet(a, b), pb.meet(b, c)), pb.meet(c, a)),
    })
    expected_classes = {
        merged,
        frozenset({a, pb.join(pb.meet(b, c), a)}),
        frozenset({b, pb.join(pb.meet(c, a), b)}),
        frozenset({c, pb.join(pb.meet(a, b), c)}),
        frozenset({pb.bottom(3)}), frozenset({pb.top(3)}),
        frozenset({pb.join(a, b)}), frozenset({pb.join(b, c)}),
        frozenset({pb.join(c, a)}), frozenset({pb.join(pb.join(a, b), c)}),
    }
    ok = (
        len(q.representatives) == 10
        and set(classes(q).values()) == expected_classes
        and len(merged) == 8
    )
    report("2 three-atom order quotient has the 10 expected classes", ok)


def test_criterion_3_staircase_isomorphism():
    start = time.perf_counter()
    reports = [ordered.verify_isomorphism(n) for n in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - start
    counts = [r.class_count for r in reports]
    ok = (
        all(r.ok for r in reports)
        and counts == [r.staircase_count for r in reports]
        and counts == [1, 4, 13, 41]
        and elapsed < 60.0
    )
    report("3 ordered quotient / staircase isomorphism for n=1..4", ok)


def test_criterion_4_finite_fusion_properties():
    a, b, c = (pb.atom_prop(3, i) for i in range(3))
    gamma = pb.ConstraintSet(
        ((pb.meet(a, b), pb.meet(a, c)), (pb.meet(a, c), pb.meet(b, c)))
    )
    algebra = pb.quotient(pb.enumerate_hyperpower(3), gamma)
    reps = [r for r in algebra.representatives
            if r not in (algebra.bottom, algebra.top)]
    rng = random.Random(42)

    def rand_bba():
        weights = [Fraction(rng.randint(1, 50)) for _ in reps]
        total = sum(weights)
        return bf.FiniteBba(
            algebra, {r: w / total for r, w in zip(reps, weights)}
        )

    ok = True
    for _ in range(100):
        m1, m2, m3 = rand_bba(), rand_bba(), rand_bba()
        ok &= bf.fuse(m1, m2).mass == bf.fuse(m2, m1).mass
        ok &= (bf.fuse(bf.fuse(m1, m2), m3).mass
               == bf.fuse(m1, bf.fuse(m2, m3)).mass)
        ok &= sum(bf.fuse(m1, m2).mass.values()) == 1
        ok &= bf.bba_from_bel(algebra, bf.bel_table(m1)).mass == m1.mass
    report("4 finite fusion: commutative/associative/conserving/invertible", ok)


def test_criterion_5_spectral_accuracy():
    d = cf.fit(MM1, 128)
    probe = np.linspace(-1, 1, 101)
    probe_err = np.abs(
        cf.evaluate(d, probe[:, None], probe[None, :])
        - MM1(probe[:, None], probe[None, :])
    ).max()
    nodes = cf.lobatto_nodes(128)
    node_err = np.abs(
        cf.evaluate(d, nodes[:, None], nodes[None, :])
        - MM1(nodes[:, None], nodes[None, :])
    ).max()
    ok = probe_err < 1e-12 and node_err < 1e-13
    report(f"5 spectral fit: probe err {probe_err:.1e}, node err {node_err:.1e}", ok)


def test_criterion_6_fusion_mass_conservation():
    rng = np.random.default_rng(7)
    pairs = [((-1.0, 0.0), (0.0, 1.0))]
    pairs += [
        (tuple(rng.uniform(-1, 1, 2)), tuple(rng.uniform(-1, 1, 2)))
        for _ in range(10)
    ]
    worst = 0.0
    for c1, c2 in pairs:
        m1 = cf.normalize(cf.fit(cf.gaussian(*c1), 128))
        m2 = cf.normalize(cf.fit(cf.gaussian(*c2), 128))
        worst = max(worst, abs(cf.integral_full(cf.fuse(m1, m2)) - 1.0))
    ok = worst < 1e-6
    report(f"6 continuous fusion conserves mass (worst drift {worst:.1e})", ok)


def test_criterion_7_grid_oracle_equivalence():
    g = 201
    h = 2.0 / g
    ax = -1 + (np.arange(g) + 0.5) * h
    m1 = cf.normalize(cf.fit(MM1, 32))
    m2 = cf.normalize(cf.fit(MM2, 32))
    a1 = cf.evaluate(m1, ax[:, None], ax[None, :]) * h * h
    a2 = cf.evaluate(m2, ax[:, None], ax[None, :]) * h * h

    def upper(a):
        return np.cumsum(a[:, ::-1], axis=1)[:, ::-1]

    upper_strict_1 = upper(a1) - a1
    oracle = (
        a1 * np.cumsum(upper(a2), axis=0)
        + upper_strict_1 * np.cumsum(a2, axis=0)
        + (np.cumsum(a1, axis=0) - a1) * upper(a2)
        + (np.cumsum(upper_strict_1, axis=0) - upper_strict_1) * a2
    ) / (h * h)
    spectral = cf.evaluate(cf.fuse(m1, m2), ax[:, None], ax[None, :])
    err = np.abs(spectral - oracle).max()
    ok = err < 1e-2
    report(f"7 spectral fusion matches cell-grid oracle (max err {err:.1e})", ok)


def test_criterion_8_demo_semantics():
    m1 = cf.normalize(cf.fit(MM1, 128))
    m2 = cf.normalize(cf.fit(MM2, 128))
    fused = cf.fuse(m1, m2)
    probe = np.linspace(-1, 1, 256)
    step = 2 / 255
    values = cf.evaluate(fused, probe[:, None], probe[None, :])
    i, j = np.unravel_index(np.argmax(values), values.shape)
    # the evidence concentrates where the sources agree: at the closed-form
    # peak (x*, -x*), whose nearest probe point the probe argmax must be
    x_star = dcf.X_STAR
    assert abs(x_star - 0.0600201) < 1e-6, f"closed-form x* = {x_star}"
    argmax_ok = (
        abs(probe[i] - x_star) <= step / 2 and abs(probe[j] + x_star) <= step / 2
    )
    closed_err = np.abs(values - dcf.fused_density_grid(probe, probe)).max()
    closed_ok = closed_err <= 1e-12

    surface = cf.belief_surface(fused)
    corner_ok = abs(cf.evaluate(surface, -1.0, 1.0) - 1.0) < 1e-9
    rng = np.random.default_rng(11)
    lo = rng.uniform(-1, 1, 10_000)
    hi = rng.uniform(-1, 1, 10_000)
    wide_lo = np.maximum(lo - rng.uniform(0, 0.5, 10_000), -1)
    wide_hi = np.minimum(hi + rng.uniform(0, 0.5, 10_000), 1)
    mono_ok = bool(np.all(
        cf.evaluate(surface, wide_lo, wide_hi)
        >= cf.evaluate(surface, lo, hi) - 1e-9
    ))
    checks = {
        f"argmax ({probe[i]:+.4f}, {probe[j]:+.4f}) vs closed form "
        f"({x_star:+.4f}, {-x_star:+.4f})": argmax_ok,
        f"closed-form err {closed_err:.1e}": closed_ok,
        "corner belief 1": corner_ok,
        "monotone at 1e4 pairs": mono_ok,
    }
    report(
        "8 demo semantics: "
        + ", ".join(f"{k} {'ok' if v else 'FAILED'}" for k, v in checks.items()),
        all(checks.values()),
    )


def test_criterion_9_demo_runtime(tmp_path, capsys):
    start = time.perf_counter()
    code = cli.main(["fuse-demo", "--degree", "128", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    ok = code == 0 and elapsed < 5.0
    report(f"9 fuse-demo at degree 128 in {elapsed:.2f}s", ok)


def test_criterion_10_interval_stability():
    rng = random.Random(99)
    ok = True
    for _ in range(100_000):
        a = cf.GeneralizedInterval(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = cf.GeneralizedInterval(rng.uniform(-1, 1), rng.uniform(-1, 1))
        m = cf.interval_meet(a, b)
        ok &= -1 <= m.lo <= 1 and -1 <= m.hi <= 1
        ok &= m.lo == max(a.lo, b.lo) and m.hi == min(a.hi, b.hi)
        ok &= cf.interval_meet(m, a) == m and cf.interval_meet(m, b) == m
    report("10 interval meet closure and min/max law at 1e5 pairs", ok)
