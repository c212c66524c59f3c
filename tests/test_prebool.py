import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse import ordered as od
from dsmfuse import prebool as pb

from test_quotient_oracle import CASES


def props(n, max_clauses=4):
    clause = st.integers(min_value=0, max_value=(1 << n) - 1)
    return st.builds(
        lambda masks: pb.make_prop(n, masks),
        st.lists(clause, max_size=max_clauses),
    )


def test_varphi_constants():
    assert pb.varphi(3, []) == pb.bottom(3)
    assert pb.varphi(3, [[]]) == pb.top(3)


def test_varphi_reduces_absorbed_clause():
    # {a,c}, {b,c}, {a,b,c} -> the last clause is absorbed
    p = pb.varphi(3, [{0, 2}, {1, 2}, {0, 1, 2}])
    assert p == pb.varphi(3, [{0, 2}, {1, 2}])
    assert len(p.clauses) == 2


def test_varphi_empty_subset_absorbs_everything():
    # a family containing the empty conjunction collapses to TOP
    assert pb.varphi(2, [set(), {0}]) == pb.top(2)


def test_make_prop_accepts_a_generator():
    a, b = pb.atom_prop(2, 0), pb.atom_prop(2, 1)
    assert pb.make_prop(2, (m for m in [1, 2])) == pb.join(a, b)


def test_negative_atom_count_is_rejected():
    for build in (pb.bottom, pb.top, lambda n: pb.varphi(n, [[]]), lambda n: pb.make_prop(n, [])):
        with pytest.raises(ValueError, match="negative"):
            build(-1)
    with pytest.raises(ValueError):
        pb.atom_prop(-1, 0)
    assert pb.top(0) == pb.varphi(0, [[]]) and pb.bottom(0) == pb.make_prop(0, [])


def test_meet_examples():
    a, b, c = (pb.atom_prop(3, i) for i in range(3))
    ab = pb.meet(a, b)
    # (a & b) & ((b & c) | a) == a & b
    assert pb.meet(ab, pb.join(pb.meet(b, c), a)) == ab
    assert pb.meet(a, pb.top(3)) == a
    assert pb.meet(a, pb.bottom(3)) == pb.bottom(3)
    assert pb.meet(a, b) == pb.varphi(3, [{0, 1}])


def test_join_examples():
    a, b, c = (pb.atom_prop(3, i) for i in range(3))
    assert pb.join(a, pb.meet(a, b)) == a
    assert pb.join(pb.bottom(3), b) == b
    three = pb.join(pb.join(pb.meet(a, b), pb.meet(b, c)), pb.meet(c, a))
    assert three == pb.varphi(3, [{0, 1}, {1, 2}, {0, 2}])
    assert len(three.clauses) == 3


def test_leq_examples():
    a, b = (pb.atom_prop(2, i) for i in range(2))
    assert pb.leq(pb.meet(a, b), a)
    assert pb.leq(a, pb.join(a, b))
    assert not pb.leq(a, b)
    assert pb.leq(pb.bottom(2), a)
    assert not pb.leq(a, pb.bottom(2))


@settings(max_examples=200)
@given(props(3), props(3))
def test_leq_equals_meet_definition(p, q):
    assert pb.leq(p, q) == (pb.meet(p, q) == p)


def test_enumerate_counts():
    assert len(pb.enumerate_hyperpower(1)) == 3
    assert len(pb.enumerate_hyperpower(2)) == 6
    assert len(pb.enumerate_hyperpower(3)) == 20
    assert len(pb.enumerate_hyperpower(4)) == 168


def test_enumerate_two_atoms_listing():
    a, b = (pb.atom_prop(2, i) for i in range(2))
    expected = {pb.bottom(2), pb.meet(a, b), a, b, pb.join(a, b), pb.top(2)}
    assert set(pb.enumerate_hyperpower(2)) == expected


def test_enumerate_guard():
    with pytest.raises(ValueError):
        pb.enumerate_hyperpower(5)
    # the guard is configurable
    assert len(pb.enumerate_hyperpower(2, max_atoms=2)) == 6


@pytest.mark.parametrize("n", range(9))
def test_up_sets_match_definition(n):
    subsets = range(1 << n)
    assert pb._up_sets(n) == tuple(
        sum(1 << s for s in subsets if s & c == c) for c in subsets
    )


@settings(max_examples=100)
@given(props(4), props(4), props(4))
def test_lattice_axioms(p, q, r):
    assert pb.meet(p, q) == pb.meet(q, p)
    assert pb.join(p, q) == pb.join(q, p)
    assert pb.meet(pb.meet(p, q), r) == pb.meet(p, pb.meet(q, r))
    assert pb.join(pb.join(p, q), r) == pb.join(p, pb.join(q, r))
    assert pb.meet(p, pb.join(q, r)) == pb.join(pb.meet(p, q), pb.meet(p, r))
    assert pb.join(p, pb.meet(q, r)) == pb.meet(pb.join(p, q), pb.join(p, r))
    assert pb.meet(p, pb.top(4)) == p
    assert pb.join(p, pb.bottom(4)) == p
    assert pb.join(p, pb.meet(p, q)) == p
    assert pb.meet(p, pb.join(p, q)) == p


def test_universe_closed_under_operations():
    universe = set(pb.enumerate_hyperpower(3))
    for p in universe:
        for q in universe:
            assert pb.meet(p, q) in universe
            assert pb.join(p, q) in universe


@pytest.fixture(scope="module")
def example3():
    a, b, c = (pb.atom_prop(3, i) for i in range(3))
    gamma = pb.ConstraintSet(
        ((pb.meet(a, b), pb.meet(a, c)), (pb.meet(a, c), pb.meet(b, c)))
    )
    return pb.quotient(pb.enumerate_hyperpower(3), gamma), gamma


def test_example3_class_count(example3):
    q, _ = example3
    assert len(q.representatives) == 10


def test_example3_partition(example3):
    q, _ = example3
    a, b, c = (pb.atom_prop(3, i) for i in range(3))
    merged = {
        pb.meet(pb.meet(a, b), c),
        pb.meet(a, b), pb.meet(b, c), pb.meet(c, a),
        pb.meet(pb.join(a, b), c),
        pb.meet(pb.join(b, c), a),
        pb.meet(pb.join(c, a), b),
        pb.join(pb.join(pb.meet(a, b), pb.meet(b, c)), pb.meet(c, a)),
    }
    assert len(merged) == 8
    assert q.classes[q.class_of(pb.meet(a, b))] == frozenset(merged)
    # the remaining classes from the worked example
    assert q.classes[q.class_of(a)] == frozenset({a, pb.join(pb.meet(b, c), a)})
    assert q.classes[q.class_of(b)] == frozenset({b, pb.join(pb.meet(c, a), b)})
    assert q.classes[q.class_of(c)] == frozenset({c, pb.join(pb.meet(a, b), c)})
    for singleton in (
        pb.bottom(3), pb.top(3), pb.join(a, b), pb.join(b, c), pb.join(c, a),
        pb.join(pb.join(a, b), c),
    ):
        assert q.classes[q.class_of(singleton)] == frozenset({singleton})


def test_empty_constraints_identity_partition():
    q = pb.free_algebra(2)
    assert all(len(members) == 1 for members in q.classes.values())


def test_quotient_congruence_soundness(example3):
    q, _ = example3
    universe = q.universe
    for p in universe:
        for r in universe:
            assert q.class_of(pb.meet(p, r)) == q.meet(q.class_of(p), q.class_of(r))
            assert q.class_of(pb.join(p, r)) == q.join(q.class_of(p), q.class_of(r))


def test_quotient_rejects_foreign_proposition():
    q = pb.free_algebra(2)
    alien, home = pb.atom_prop(3, 0), pb.atom_prop(2, 0)
    with pytest.raises(ValueError):
        q.class_of(alien)
    for op in (q.meet, q.join, q.leq):
        for p, r in ((alien, home), (home, alien)):
            with pytest.raises(ValueError, match="outside the universe"):
                op(p, r)
    foreign = pb.ConstraintSet(((pb.atom_prop(3, 0), pb.atom_prop(3, 1)),))
    with pytest.raises(ValueError):
        pb.quotient(pb.enumerate_hyperpower(2), foreign)
    no_top = [p for p in pb.enumerate_hyperpower(2) if not p.is_top]
    with pytest.raises(ValueError, match="top"):
        pb.quotient(no_top, pb.ConstraintSet(()))


def test_quotient_rejects_malformed_universe():
    universe = pb.enumerate_hyperpower(2)
    a, b = pb.atom_prop(2, 0), pb.atom_prop(2, 1)
    with pytest.raises(ValueError, match="duplicate"):
        pb.quotient(universe + [a], pb.ConstraintSet(()))
    # dropping a & b leaves the meet of a and b outside
    open_universe = [p for p in universe if p != pb.meet(a, b)]
    with pytest.raises(ValueError, match="a0 & a1"):
        pb.quotient(open_universe, pb.ConstraintSet(()))
    with pytest.raises(ValueError, match="mixes"):
        pb.quotient(universe + [pb.atom_prop(3, 0)], pb.ConstraintSet(()))
    with pytest.raises(ValueError, match="empty"):
        pb.quotient([], pb.ConstraintSet(()))


def test_is_insulated(example3):
    _, gamma = example3
    assert pb.is_insulated(gamma)
    a = pb.atom_prop(2, 0)
    assert not pb.is_insulated(pb.ConstraintSet(((a, pb.bottom(2)),)))
    assert pb.is_insulated(pb.ConstraintSet(()))


def test_insulated_quotient_keeps_trivial_classes_singleton(example3):
    q, _ = example3
    assert q.classes[q.bottom] == frozenset({pb.bottom(3)})
    assert q.classes[q.top] == frozenset({pb.top(3)})
    # and no non-trivial meet collapses to BOTTOM
    for p in q.representatives:
        for r in q.representatives:
            if p != q.bottom and r != q.bottom:
                assert q.meet(p, r) != q.bottom


def test_parse_format_roundtrip():
    for n in (2, 3):
        for p in pb.enumerate_hyperpower(n):
            text = pb.format_proposition(p)
            assert pb.parse_proposition(text, n) == p


def test_parse_constraints_reports_line():
    with pytest.raises(pb.ParseError) as err:
        pb.parse_constraints("a0 = a1\na0 & = a1\n", 2)
    assert err.value.line == 2


def test_parse_rejects_unknown_atom():
    with pytest.raises(pb.ParseError):
        pb.parse_proposition("a5", 2)


@pytest.mark.parametrize("constrained", [False, True])
def test_key_is_a_linear_extension(constrained):
    universe = pb.enumerate_hyperpower(4)
    gamma = od.order_constraints(4) if constrained else pb.ConstraintSet(())
    q = pb.quotient(universe, gamma)
    for p in q.representatives:
        for r in q.representatives:
            if p != r and q.leq(p, r):
                assert q.key(p) < q.key(r)
    with pytest.raises(ValueError, match="outside the universe"):
        q.key(pb.atom_prop(3, 0))


@pytest.mark.parametrize("n, gamma", CASES.values(), ids=CASES.keys())
def test_upsets_are_the_class_keys(n, gamma):
    # The closure enumerator lists the quotient's classes without building it.
    q = pb.quotient(pb.enumerate_hyperpower(n), gamma)
    mask = 0
    for p, r in gamma.pairs:
        mask |= p.table ^ r.table
    keep = pb.top(n).table & ~mask
    assert sorted(q.key(r) for r in q.representatives) == pb.upsets(n, keep)


@pytest.mark.parametrize("n", range(6))
def test_grow_adds_one_atom(n):
    rng = random.Random(n)
    for _ in range(20):
        table = rng.getrandbits(1 << n)
        grown = {
            s | 1 << i
            for s in range(1 << n) if table >> s & 1
            for i in range(n) if not s >> i & 1
        }
        expected = sum(1 << s for s in grown)
        assert pb.grow(n, table) == expected


GRAMMAR_ALPHABET = st.sampled_from(
    list("a0123456789&|()=# \n") + ["bot", "top", "a0", "a1", "a2"]
)


@settings(max_examples=500)
@given(st.lists(GRAMMAR_ALPHABET, max_size=60).map("".join), st.integers(1, 4))
def test_parse_constraints_fuzz(text, n):
    try:
        gamma = pb.parse_constraints(text, n)
    except pb.ParseError:
        return
    assert all(p.n == q.n == n for p, q in gamma.pairs)


def test_parse_rejects_deep_nesting_and_long_atoms():
    depth = pb.MAX_NESTING
    assert pb.parse_proposition("(" * depth + "a0" + ")" * depth, 2) == pb.atom_prop(2, 0)
    with pytest.raises(pb.ParseError, match="nested"):
        pb.parse_proposition("(" * (depth + 1) + "a0" + ")" * (depth + 1), 2)
    with pytest.raises(pb.ParseError, match="out of range"):
        pb.parse_proposition("a" + "9" * 5000, 2)
    assert pb.parse_proposition("a" + "0" * 5000 + "1", 2) == pb.atom_prop(2, 1)
