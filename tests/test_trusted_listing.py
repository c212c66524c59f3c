"""``Quotient`` on ``enumerate_hyperpower``'s own listing.

The walk's listing is complete and in ``prop_key`` order by construction
(``test_hyperpower_oracle.py``), so ``Quotient`` takes it without checking
it while it still holds exactly the members listed, in that order.  The
quotient must then equal the one built on a plain copy of the listing.  Any
other universe, an edited listing, a copy or a pickle among them, must be
checked as a plain list is: the same result or the same error, after one
universe check.  The plain-list ``universe`` of the last quotient built is
taken unchecked in the same way while it is unchanged, and checked once
edited.
"""

import copy
import pickle

import pytest

from dsmfuse import ordered as od
from dsmfuse import prebool as pb

from test_quotient_oracle import CASES

EMPTY = pb.ConstraintSet(())
LISTED = {
    **{f"free-n{n}": (n, EMPTY) for n in range(1, 6)},
    **CASES,
    "order-n5": (5, od.order_constraints(5)),
}


def listing(n):
    return pb.enumerate_hyperpower(n, max_atoms=5)


def fields(q):
    return q.universe, list(q.rep_by_key.items()), q.representatives, q.bottom, q.top


@pytest.fixture
def check_calls(monkeypatch):
    calls = []
    check = pb._check_universe

    def counting(universe):
        calls.append(universe)
        return check(universe)

    monkeypatch.setattr(pb, "_check_universe", counting)
    return calls


@pytest.mark.parametrize("n, gamma", LISTED.values(), ids=LISTED.keys())
def test_listing_quotient_equals_plain_list_quotient(n, gamma):
    universe = listing(n)
    assert fields(pb.quotient(universe, gamma)) == fields(pb.quotient(list(universe), gamma))


@pytest.mark.parametrize("n", [1, 4, 5])
def test_unchanged_listing_is_neither_checked_nor_sorted(n, check_calls):
    universe = listing(n)
    q = pb.Quotient(universe, od.order_constraints(n))
    assert check_calls == []
    # The quotient owns a plain copy of the listing.
    assert type(q.universe) is list and q.universe is not universe
    assert q.universe == universe
    universe.pop()
    assert len(q.universe) == len(universe) + 1


def outcome(universe, gamma, calls):
    """The quotient's fields, or the error's text; and the universe checks."""
    del calls[:]
    try:
        result = fields(pb.quotient(universe, gamma))
    except ValueError as exc:
        result = str(exc)
    return result, len(calls)


def append_duplicate(u):
    u.append(u[3])


def delete_member(u):
    del u[3]


def replace_by_equal(u):
    u[3] = pb.Proposition(u[3].n, u[3].table)


def swap_two(u):
    u[3], u[4] = u[4], u[3]


EDITS = {
    "append-duplicate": (append_duplicate, "universe contains duplicate propositions"),
    "delete-member": (delete_member, "proposition {member} is outside the universe"),
    "replace-by-equal": (replace_by_equal, None),
    "swap-two": (swap_two, None),
}


@pytest.mark.parametrize("edit, error", EDITS.values(), ids=EDITS.keys())
def test_edited_listing_is_checked_as_a_plain_list(edit, error, check_calls):
    gamma = od.order_constraints(4)
    edited, plain = listing(4), list(listing(4))
    edit(edited)
    edit(plain)
    assert outcome(edited, gamma, check_calls) == outcome(plain, gamma, check_calls)
    result, calls = outcome(edited, gamma, check_calls)
    assert calls == 1
    if error is None:
        assert result == fields(pb.quotient(listing(4), gamma))
    else:
        assert result == error.format(member=pb.format_proposition(listing(4)[3]))


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda u: pickle.loads(pickle.dumps(u)),
    "slice": lambda u: u[:],
}


@pytest.mark.parametrize("make", COPIES.values(), ids=COPIES.keys())
def test_a_copy_is_a_plain_list(make, check_calls):
    gamma = od.order_constraints(4)
    copied = make(listing(4))
    assert type(copied) is list
    result, calls = outcome(copied, gamma, check_calls)
    assert calls == 1
    assert result == outcome(list(listing(4)), gamma, check_calls)[0]


def test_a_quotient_universe_is_not_checked_again(check_calls):
    gamma = od.order_constraints(4)
    q = pb.quotient(pb.free_algebra(4).universe, gamma)
    assert check_calls == []
    assert fields(q) == fields(pb.quotient(list(listing(4)), gamma))
    # a universe stays trusted while the quotients built on it are made
    free = pb.free_algebra(4)
    del check_calls[:]
    for constraints in (gamma, EMPTY, gamma):
        pb.quotient(free.universe, constraints)
    assert check_calls == []


@pytest.mark.parametrize("edit, error", EDITS.values(), ids=EDITS.keys())
def test_an_edited_quotient_universe_is_checked(edit, error, check_calls):
    gamma = od.order_constraints(4)
    universe = pb.free_algebra(4).universe
    copied = list(universe)
    edit(copied)
    edit(universe)
    for edited in (universe, copied):
        result, calls = outcome(edited, gamma, check_calls)
        assert calls == 1
        assert result == outcome(list(copied), gamma, check_calls)[0]
