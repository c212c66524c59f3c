"""Differential test: ``belief._lattice``'s one ascending pass against the
per-bit scan it replaced (``lattice_oracle._lattice``).

Both must return equal tuples (keys, index map and sweep pairs) on every
algebra of ``test_lattice_sweep``, the closed-sublattice quotients with
several-bit covers included, and on key families past what a ``Quotient``
reaches: the free algebra at n = 5 and the order quotients at n = 6 and 8,
built as ``prebool.upsets`` with no universe.
"""

import pytest

from dsmfuse import belief as bf
from dsmfuse import ordered as od
from dsmfuse import prebool as pb

import lattice_oracle
from test_lattice_sweep import BUILDERS, algebra


def assert_same_lattice(keys):
    got = bf._lattice(keys)
    assert got == lattice_oracle._lattice(keys)
    ordered, index, _ = got
    assert list(ordered) == sorted(keys) and list(index) == list(ordered)


@pytest.mark.parametrize("name", BUILDERS)
def test_one_pass_matches_the_per_bit_scan(name):
    # the keys in representative order, as belief passes them
    assert_same_lattice(tuple(algebra(name).rep_by_key))


@pytest.mark.parametrize(
    "n, order, classes",
    [(5, False, 7581), (6, True, 430), (8, True, 4863)],
    ids=["free-n5", "order-n6", "order-n8"],
)
def test_one_pass_matches_the_per_bit_scan_past_a_quotient(n, order, classes):
    keep = ~pb.congruence_mask(od.order_constraints(n)) if order else ~0
    keys = pb.upsets(n, keep)
    assert len(keys) == classes
    assert_same_lattice(tuple(keys))
