"""Differential test: keyed numerators against the per-value oracle.

Exact inputs must give equal values, every one a ``Fraction``; float and
mixed float/``Fraction`` inputs must give the oracle's values bit for bit,
in the oracle's order and of its types.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse import belief as bf
from dsmfuse import ordered as od
from dsmfuse import prebool as pb

import fraction_bba_oracle as oracle


def example3():
    a, b, c = (pb.atom_prop(3, i) for i in range(3))
    gamma = pb.ConstraintSet(
        ((pb.meet(a, b), pb.meet(a, c)), (pb.meet(a, c), pb.meet(b, c)))
    )
    return pb.quotient(pb.enumerate_hyperpower(3), gamma)


BUILDERS = {
    "free-n3": lambda: pb.free_algebra(3),
    "free-n4": lambda: pb.free_algebra(4),
    "order-n4": lambda: pb.quotient(pb.enumerate_hyperpower(4), od.order_constraints(4)),
    "example3": example3,
}


@cache
def algebra(name):
    return BUILDERS[name]()


KINDS = ["fraction", "float", "mixed"]


def bits(v):
    return v.hex() if isinstance(v, float) else v


def assert_same(got, want, exact):
    """Same keys in the same order; equal Fractions, or the oracle's values."""
    assert list(got) == list(want)
    for g, w in zip(got.values(), want.values()):
        if exact:
            assert type(g) is Fraction and g == w
        else:
            assert type(g) is type(w) and bits(g) == bits(w)


@st.composite
def masses(draw, alg, kind, exhaustive):
    pool = [
        r for r in alg.representatives
        if r != alg.bottom and (not exhaustive or r != alg.top)
    ]
    focal = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24, unique=True))
    weights = [draw(st.integers(1, 64)) for _ in focal]
    total = sum(weights)
    if kind == "float":
        return {p: w / total for p, w in zip(focal, weights)}
    exact = [Fraction(w, total) for w in weights]
    if kind == "fraction":
        return dict(zip(focal, exact))
    as_float = draw(st.lists(st.booleans(), min_size=len(focal), max_size=len(focal)))
    return {p: float(v) if f else v for p, v, f in zip(focal, exact, as_float)}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_keyed_numerators_match_oracle(data):
    alg = algebra(data.draw(st.sampled_from(sorted(BUILDERS)), label="algebra"))
    exhaustive = data.draw(st.booleans(), label="exhaustive")
    kinds = [data.draw(st.sampled_from(KINDS), label=f"kind{i}") for i in (1, 2)]
    inputs = [data.draw(masses(alg, kind, exhaustive)) for kind in kinds]
    rational = [all(type(v) is Fraction for v in m.values()) for m in inputs]
    exact = all(rational)

    new = [bf.FiniteBba(alg, m, exhaustive) for m in inputs]
    old = [oracle.FiniteBba(alg, m, exhaustive) for m in inputs]
    for n, o, r in zip(new, old, rational):
        assert_same(n.mass, o.mass, r)

    fused = bf.fuse(*new)
    fused_oracle = oracle.fuse(*old)
    assert_same(fused.mass, fused_oracle.mass, exact)
    assert_same(bf.fuse(*new[::-1]).mass, oracle.fuse(*old[::-1]).mass, exact)

    props = data.draw(st.lists(st.sampled_from(alg.universe), max_size=6))
    assert_same(
        {p: bf.bel(fused, p) for p in props},
        {p: oracle.bel(fused_oracle, p) for p in props},
        exact,
    )
    table = bf.bel_table(fused)
    table_oracle = oracle.bel_table(fused_oracle)
    assert_same(table, table_oracle, exact)

    recovered = bf.bba_from_bel(alg, table, exhaustive)
    assert_same(recovered.mass, oracle.bba_from_bel(alg, table_oracle, exhaustive).mass, exact)
    if exact:
        assert recovered == fused

    # A perturbed table: both invert it to the same masses or both reject it.
    p = data.draw(st.sampled_from(alg.representatives), label="perturbed")
    step = Fraction(data.draw(st.integers(-8, 8)), 64)
    table[p] += float(step) if data.draw(st.booleans()) else step
    table_oracle[p] = table[p]
    try:
        want = oracle.bba_from_bel(alg, table_oracle, exhaustive=False)
    except bf.BbaError as exc:
        with pytest.raises(type(exc)) as raised:
            bf.bba_from_bel(alg, table, exhaustive=False)
        if isinstance(exc, bf.InconsistentBelief):
            assert raised.value.proposition == exc.proposition
            assert bits(raised.value.value) == bits(exc.value)
    else:
        got = bf.bba_from_bel(alg, table, exhaustive=False)
        assert_same(got.mass, want.mass, exact and type(table[p]) is Fraction)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validation_matches_oracle(data):
    # Near-normalized masses, possibly on BOTTOM or TOP: both accept or both
    # raise the same error.
    alg = algebra("example3")
    exhaustive = data.draw(st.booleans())
    focal = data.draw(st.lists(st.sampled_from(alg.universe), min_size=1, max_size=5))
    values = [
        data.draw(st.one_of(
            st.fractions(-1, 2, max_denominator=12),
            st.floats(-1, 2),
            st.integers(-1, 2),
        ))
        for _ in focal
    ]
    mass = dict(zip(focal, values))
    try:
        want = oracle.FiniteBba(alg, mass, exhaustive)
    except bf.BbaError as exc:
        with pytest.raises(bf.BbaError) as raised:
            bf.FiniteBba(alg, mass, exhaustive)
        assert str(raised.value) == str(exc)
    else:
        got = bf.FiniteBba(alg, mass, exhaustive)
        assert got.mass == want.mass
