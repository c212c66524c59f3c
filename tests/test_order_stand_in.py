"""Exact belief on the order algebra past what a ``Quotient`` can hold, and
the two engines' agreement at cell edges.

``belief`` reads only ``key``, ``top`` and ``rep_by_key`` from its algebra,
and ``fuse`` and ``bel`` read ``rep_by_key`` only to name an error.  The
class keys of the order quotient are ``prebool.upsets(n, keep)``, with no
universe, so a stand-in with those three names reaches n = 8 and past it.
There, exact inversion runs both of its sweeps: the Möbius sweep on an
unchanged table, and the peeling sweep on a table with dips.

At cell edges the engines agree: cut [-1, 1] into n equal cells, put the
exact mass of each cell pair of a spectral density on the order algebra's
interval [i, j], and fuse two such assignments with ``belief.fuse``.  The
meet of two cells is the cell of the meet, so ``belief.bel`` of the interval
[i0, j1 - 1] is the spectrally fused density's belief at the edge interval
(e[i0], e[j1]), with no discretization error.
"""

import random
import types
from fractions import Fraction

import numpy as np
import pytest

from dsmfuse import belief as bf
from dsmfuse import chebfusion as cf
from dsmfuse import ordered as od
from dsmfuse import prebool as pb

DEGREE = 128
DEMO = ((-1.0, 0.0), (0.0, 1.0))


def order_stand_in(n, with_reps):
    """The order algebra over n atoms as the three names ``belief`` reads.

    With ``with_reps``, each class's representative is its least member, the
    up-set its key's atom sets generate; otherwise ``rep_by_key`` is empty.
    """
    keep = ~pb.congruence_mask(od.order_constraints(n))
    reps = {}
    if with_reps:
        reps = {
            k: pb.make_prop(n, [c for c in range(1 << n) if k >> c & 1])
            for k in pb.upsets(n, keep)
        }
    return types.SimpleNamespace(key=lambda p: p.table & keep, top=pb.top(n), rep_by_key=reps)


def test_exact_round_trip_on_the_order_algebra_at_n8():
    alg = order_stand_in(8, with_reps=True)
    assert len(alg.rep_by_key) == 4863
    assert all(alg.key(rep) == k for k, rep in alg.rep_by_key.items())
    rng = random.Random(26)
    top = alg.key(alg.top)
    inner = [rep for k, rep in alg.rep_by_key.items() if k not in (0, top)]
    focal = rng.sample(inner, 30)
    weights = [rng.randint(1, 64) for _ in focal]
    m = bf.FiniteBba(alg, {p: Fraction(w, sum(weights)) for p, w in zip(focal, weights)})
    fused = bf.fuse(m, m)
    table = bf.bel_table(fused)
    assert list(table) == list(alg.rep_by_key.values())
    assert all(type(v) is Fraction for v in table.values())
    recovered = bf.bba_from_bel(alg, table)
    assert recovered == fused
    assert all(type(v) is Fraction for v in recovered.mass.values())
    for p in rng.sample(list(alg.rep_by_key.values()), 60):
        assert bf.bel(fused, p) == table[p]


def spectral_pairs():
    rng = random.Random(2026)
    seeded = [
        tuple((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)) for _ in range(4)
    ]
    return [DEMO, *seeded]


def fused_pair(centers):
    m1, m2 = (cf.normalize(cf.fit(cf.gaussian(*c), DEGREE)) for c in centers)
    return m1, m2, cf.fuse(m1, m2)


def cell_masses(d, e):
    """Exact mass of d on cell i x cell j, by inclusion-exclusion on its
    belief surface: S[a, b] is the mass of u >= e[a], v <= e[b]."""
    S = cf.evaluate(cf.belief_surface(d), e[:, None], e[None, :])
    return S[:-1, 1:] - S[1:, 1:] - S[:-1, :-1] + S[1:, :-1]


@pytest.mark.parametrize("centers", spectral_pairs(), ids=["demo", "s0", "s1", "s2", "s3"])
def test_engines_agree_at_cell_edges(centers):
    m1, m2, fused = fused_pair(centers)
    for n in (4, 6, 8, 10, 12):
        alg = order_stand_in(n, with_reps=False)
        e = np.linspace(-1.0, 1.0, n + 1)
        cells = [(i, j) for i in range(n) for j in range(n)]
        interval = {c: od.interval(n, *c) for c in cells}
        bbas = []
        for m in (m1, m2):
            mass = cell_masses(m, e)
            # a cell of negative mass is an open question for the bridge
            assert mass.min() > 0
            bbas.append(bf.FiniteBba(alg, {interval[c]: float(mass[c]) for c in cells}))
        finite = bf.fuse(*bbas)
        for i0, j in cells:
            want = cf.belief(fused, cf.GeneralizedInterval(e[i0], e[j + 1]))
            assert abs(bf.bel(finite, interval[i0, j]) - want) <= 1e-14, (n, i0, j)


def test_peeling_fallback_on_the_order_algebra_at_n8():
    # Dips at classes of zero mass make the Möbius masses negative, so the
    # peeling sweep runs.  A dip within MASS_TOL is dropped, which leaves
    # every other class's mass as it was; a deeper one is rejected at the
    # first such class in ascending key order, with its exact value.
    alg = order_stand_in(8, with_reps=True)
    rng = random.Random(29)
    top = alg.key(alg.top)
    inner = [k for k in alg.rep_by_key if k not in (0, top)]
    focal = rng.sample(inner, 30)
    weights = [rng.randint(1, 64) for _ in focal]
    m = bf.FiniteBba(
        alg, {alg.rep_by_key[k]: Fraction(w, sum(weights)) for k, w in zip(focal, weights)}
    )
    table = dict(bf.bel_table(m))
    empty = sorted(rng.sample([k for k in inner if k not in focal], 8))
    tolerable = Fraction(1, 10**13)
    assert tolerable <= bf.MASS_TOL
    for k in empty:
        table[alg.rep_by_key[k]] -= tolerable
    recovered = bf.bba_from_bel(alg, table)
    assert recovered == m
    assert all(type(v) is Fraction for v in recovered.mass.values())
    deep = {k: Fraction(-(i + 1), 10**6) for i, k in enumerate(empty[3:])}
    for k, dip in deep.items():
        table[alg.rep_by_key[k]] += dip
    with pytest.raises(bf.InconsistentBelief) as info:
        bf.bba_from_bel(alg, table)
    first = empty[3]
    assert info.value.proposition is alg.rep_by_key[first]
    assert info.value.value == deep[first] - tolerable
    assert type(info.value.value) is Fraction
