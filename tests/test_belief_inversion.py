"""Belief inversion's inputs: a NaN or infinite belief is an error, and so
are unequal beliefs on two members of one class.

NaN fails every comparison, so the peeling sweep would drop it as if it
were a tolerable dip; +inf would reach ``FiniteBba`` as a mass and -inf
would read as an inconsistent table.  ``bba_from_bel`` rejects all three
before either sweep runs, on float tables and on tables that mix
``Fraction``s with one float.

A table may list several members of one class.  Read by key, one of their
values would stand for the class, and which one would depend on the
table's insertion order; so unequal values are rejected whatever the order,
and equal ones are read as one.
"""

import math
import re
from fractions import Fraction

import pytest

from dsmfuse import belief as bf
from dsmfuse import ordered as od
from dsmfuse import prebool as pb

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.fixture(scope="module")
def free2():
    return pb.free_algebra(2)


A0, A1 = (pb.atom_prop(2, i) for i in range(2))
PLACES = {"a0 & a1": pb.meet(A0, A1), "top": pb.top(2)}


def half_and_half(algebra, kind):
    """The belief table of {a0: 1/2, a1: 1/2}: all floats, or all
    ``Fraction``s but for one float, 1.0 at top."""
    half = 0.5 if kind == "float" else Fraction(1, 2)
    table = dict(bf.bel_table(bf.FiniteBba(algebra, {A0: half, A1: half})))
    table[algebra.top] = 1.0
    return table


@pytest.mark.parametrize("kind", ["float", "mixed"])
@pytest.mark.parametrize("where", ["a0 & a1", "top"])
@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_non_finite_belief_is_rejected(free2, kind, where, value):
    table = half_and_half(free2, kind)
    table[PLACES[where]] = value
    message = f"non-finite belief {value} at {where}"
    with pytest.raises(bf.BbaError, match=f"^{re.escape(message)}$") as info:
        bf.bba_from_bel(free2, table, exhaustive=False)
    assert type(info.value) is bf.BbaError


def test_first_non_finite_class_in_key_order_is_named(free2):
    # top's key (15) is larger than that of a0 & a1 (8), whichever comes first
    table = half_and_half(free2, "float")
    table[PLACES["top"]] = math.nan
    table[PLACES["a0 & a1"]] = math.inf
    with pytest.raises(bf.BbaError, match=r"^non-finite belief inf at a0 & a1$"):
        bf.bba_from_bel(free2, table)


def test_non_finite_belief_is_found_before_a_deep_dip(free2):
    # a0's key (10) comes before top's (15): the sweep would stop at a0
    table = half_and_half(free2, "float")
    table[A0] = -0.25
    table[free2.top] = math.nan
    with pytest.raises(bf.BbaError, match=r"^non-finite belief nan at top$"):
        bf.bba_from_bel(free2, table)
    table[free2.top] = 1.0
    with pytest.raises(bf.InconsistentBelief, match=r"^negative recovered mass -0.25 at a0$"):
        bf.bba_from_bel(free2, table)


@pytest.mark.parametrize("kind", ["float", "mixed"])
def test_finite_tables_still_invert(free2, kind):
    m = bf.bba_from_bel(free2, half_and_half(free2, kind))
    assert m.mass == {A0: 0.5, A1: 0.5}
    assert all(type(v) is (float if kind == "float" else Fraction) for v in m.mass.values())


@pytest.fixture(scope="module")
def order3():
    return pb.quotient(pb.enumerate_hyperpower(3), od.order_constraints(3))


B0, B1, B2 = (pb.atom_prop(3, i) for i in range(3))
# Congruent with a0 & a1 on the order quotient, and not its representative.
MEMBER = pb.join(pb.meet(B0, B1), pb.meet(B0, B2))


def with_member(table, value, first):
    return {MEMBER: value, **table} if first else {**table, MEMBER: value}


def two_focal(algebra):
    m = bf.FiniteBba(algebra, {B0: Fraction(1, 2), B1: Fraction(1, 2)})
    return m, dict(bf.bel_table(m))


@pytest.mark.parametrize("first", [True, False], ids=["member-first", "member-last"])
def test_unequal_beliefs_on_one_class_are_rejected(order3, first):
    assert order3.class_of(MEMBER) == pb.meet(B0, B1) != MEMBER
    _, table = two_focal(order3)
    values = ("1/3", "0") if first else ("0", "1/3")
    message = f"congruent members of a0 & a1 carry unequal beliefs {values[0]} and {values[1]}"
    with pytest.raises(bf.BbaError, match=f"^{re.escape(message)}$") as info:
        bf.bba_from_bel(order3, with_member(table, Fraction(1, 3), first))
    assert type(info.value) is bf.BbaError


@pytest.mark.parametrize("first", [True, False], ids=["member-first", "member-last"])
def test_equal_beliefs_on_one_class_are_read_as_one(order3, first):
    m, table = two_focal(order3)
    assert bf.bba_from_bel(order3, with_member(table, Fraction(0), first)) == m
    assert bf.bba_from_bel(order3, with_member(table, 0.0, first)).mass == m.mass


@pytest.mark.parametrize("first", [True, False], ids=["member-first", "member-last"])
@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_non_finite_belief_on_a_member_is_rejected(order3, first, value):
    _, table = two_focal(order3)
    message = f"non-finite belief {value} at a0 & a1"
    with pytest.raises(bf.BbaError, match=f"^{re.escape(message)}$"):
        bf.bba_from_bel(order3, with_member(table, value, first))


def test_table_over_the_whole_universe_inverts(order3):
    m, table = two_focal(order3)
    full = {p: table[order3.class_of(p)] for p in reversed(order3.universe)}
    assert len(full) == 20 > len(table)
    assert bf.bba_from_bel(order3, full) == m
