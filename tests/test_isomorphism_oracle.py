"""Differential test: the kept-mask identity against the brute-force verifier."""

import pytest

from dsmfuse import ordered as od
from dsmfuse import prebool as pb

import isomorphism_oracle as io

TRUE_ORDER = od.order_constraints


def dropped(i, j, k):
    def constraints(n):
        lost = (pb.varphi(n, [{i, j, k}]), pb.varphi(n, [{i, k}]))
        return pb.ConstraintSet(tuple(p for p in TRUE_ORDER(n).pairs if p != lost))

    return constraints


def with_a0_equal_a1(n):
    spurious = (pb.atom_prop(n, 0), pb.atom_prop(n, 1))
    return pb.ConstraintSet(TRUE_ORDER(n).pairs + (spurious,))


CASES = {
    **{f"order-n{n}": (n, TRUE_ORDER) for n in range(1, 5)},
    **{
        f"drop-{i}{j}{k}-n{n}": (n, dropped(i, j, k))
        for n in (3, 4)
        for i in range(n) for j in range(i, n) for k in range(j, n)
    },
    **{f"a0=a1-n{n}": (n, with_a0_equal_a1) for n in (2, 3, 4)},
}


@pytest.mark.parametrize("n, constraints", CASES.values(), ids=CASES.keys())
def test_mask_identity_matches_brute_force(monkeypatch, n, constraints):
    monkeypatch.setattr(od, "order_constraints", constraints)
    report, oracle = od.verify_isomorphism(n), io.verify_isomorphism(n)
    assert (report.ok, report.class_count, report.staircase_count) == (
        oracle.ok, oracle.class_count, oracle.staircase_count,
    )
    assert bool(report.counterexamples) == (not report.ok)


def test_mutants_fail(monkeypatch):
    # The cases above would agree vacuously if every mutant passed.
    for constraints in (dropped(0, 1, 2), with_a0_equal_a1):
        monkeypatch.setattr(od, "order_constraints", constraints)
        assert not od.verify_isomorphism(3).ok
        assert not io.verify_isomorphism(3).ok
