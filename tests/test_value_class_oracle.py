"""Differential test: the plain value classes against the dataclasses they replaced.

Each case builds one value twice, with the package's class and with its
``@dataclass`` oracle from ``value_class_oracle``, from the same arguments.
The two must agree on everything a dataclass gives: construction by
position and by keyword, validation errors, equality, hashing, ``repr``,
refused or allowed assignment and deletion, copying and pickling, and the
caches a ``Proposition`` keeps in its ``__dict__``.
"""

import copy
import dataclasses
import math
import pickle

import pytest

from dsmfuse import chebfusion as cf
from dsmfuse import ordered as od
from dsmfuse import prebool as pb

import value_class_oracle as vo

P3 = pb.enumerate_hyperpower(3)
STAIRS3 = [s.table for s in od.enumerate_staircases(3)]

# (the package's class, its oracle, argument tuples for both)
CASES = [
    (pb.Proposition, vo.Proposition, [(3, p.table) for p in P3[::4]] + [(4, (1 << 16) - 2)]),
    (
        pb.ConstraintSet,
        vo.ConstraintSet,
        [((),), (((P3[2], P3[3]),),), (od.order_constraints(3).pairs,)],
    ),
    (od.Staircase, vo.Staircase, [(3, t) for t in STAIRS3[::3]] + [(1, 2)]),
    (
        od.IsomorphismReport,
        vo.IsomorphismReport,
        [(3, 13, 13, []), (2, 3, 4, ["atom set 0b11"]), (2, 3, 4, [])],
    ),
    (cf.GeneralizedInterval, vo.GeneralizedInterval, [(-0.5, 0.25), (0.3, -0.3), (1.0, -1.0), (0, 0)]),
]
FROZEN = [case for case in CASES if case[0] is not od.IsomorphismReport]
IDS = [case[0].__name__ for case in CASES]
FROZEN_IDS = [case[0].__name__ for case in FROZEN]


def field_names(oracle):
    return [f.name for f in dataclasses.fields(oracle)]


def refusal(call):
    """The AttributeError text ``call`` raises."""
    with pytest.raises(AttributeError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("new, old, arguments", CASES, ids=IDS)
def test_construction_by_position_and_keyword(new, old, arguments):
    names = field_names(old)
    for args in arguments:
        assert vars(new(*args)) == vars(old(*args))
        keywords = dict(zip(names, args))
        assert vars(new(**keywords)) == vars(old(**keywords))
        assert vars(new(*args[:1], **dict(list(keywords.items())[1:]))) == vars(old(*args))
    for wrong in ((), tuple(range(len(names) + 1))):
        with pytest.raises(TypeError):
            old(*wrong)
        with pytest.raises(TypeError):
            new(*wrong)


@pytest.mark.parametrize(
    "new, old, args",
    [
        (od.Staircase, vo.Staircase, (3, 0)),
        (od.Staircase, vo.Staircase, (3, 1)),
        (od.Staircase, vo.Staircase, (3, 1 << 0b010)),
        (cf.GeneralizedInterval, vo.GeneralizedInterval, (1.5, 0.0)),
        (cf.GeneralizedInterval, vo.GeneralizedInterval, (0.0, -2)),
        (cf.GeneralizedInterval, vo.GeneralizedInterval, (math.nan, 0.0)),
    ],
)
def test_validation_errors_match(new, old, args):
    with pytest.raises(ValueError) as expected:
        old(*args)
    with pytest.raises(ValueError) as got:
        new(*args)
    assert str(got.value) == str(expected.value)
    assert str(got.value) in {
        "staircase must be non-empty",
        "staircase table has a bit outside the triangle",
        "staircase must be up-closed",
        "interval endpoints must lie in [-1, 1]",
    }


@pytest.mark.parametrize("new, old, arguments", CASES, ids=IDS)
def test_equality_matches(new, old, arguments):
    for a in arguments:
        for b in arguments:
            assert (new(*a) == new(*b)) == (old(*a) == old(*b)) == (a == b)
            assert (new(*a) != new(*b)) == (old(*a) != old(*b))
        # neither a tuple of the same fields nor the oracle's instance is equal
        assert new(*a) != a and old(*a) != a
        assert new(*a).__eq__(a) is NotImplemented
        assert new(*a) != old(*a)


def test_equal_fields_of_another_class_are_not_equal():
    for t in STAIRS3:
        assert pb.Proposition(3, t) != od.Staircase(3, t)
        assert vo.Proposition(3, t) != vo.Staircase(3, t)


@pytest.mark.parametrize("new, old, arguments", FROZEN, ids=FROZEN_IDS)
def test_hash_is_the_field_tuples(new, old, arguments):
    for args in arguments:
        assert hash(new(*args)) == hash(old(*args)) == hash(args)


def test_report_is_unhashable():
    assert od.IsomorphismReport.__hash__ is None and vo.IsomorphismReport.__hash__ is None
    for cls in (od.IsomorphismReport, vo.IsomorphismReport):
        with pytest.raises(TypeError, match="unhashable type: 'IsomorphismReport'"):
            hash(cls(3, 13, 13, []))


@pytest.mark.parametrize("new, old, arguments", CASES, ids=IDS)
def test_repr_matches(new, old, arguments):
    for args in arguments:
        assert repr(new(*args)) == repr(old(*args))


@pytest.mark.parametrize("new, old, arguments", FROZEN, ids=FROZEN_IDS)
def test_frozen_classes_refuse_assignment_and_deletion(new, old, arguments):
    a, b = new(*arguments[0]), old(*arguments[0])
    for name in field_names(old) + ["extra"]:
        text = refusal(lambda: setattr(a, name, 0))
        assert text == refusal(lambda: setattr(b, name, 0))
        assert text == f"cannot assign to field {name!r}"
        text = refusal(lambda: delattr(a, name))
        assert text == refusal(lambda: delattr(b, name))
        assert text == f"cannot delete field {name!r}"
    assert vars(a) == vars(b) == dict(zip(field_names(old), arguments[0]))


def test_report_allows_assignment_and_deletion():
    a, b = od.IsomorphismReport(3, 13, 13, []), vo.IsomorphismReport(3, 13, 13, [])
    for report in (a, b):
        report.class_count = 12
        report.counterexamples.append("atom set 0b11")
        report.note = "extra"
        del report.note
        assert not report.ok
    assert a == od.IsomorphismReport(3, 12, 13, ["atom set 0b11"])
    assert vars(a) == vars(b)


def round_trips():
    yield copy.copy
    yield copy.deepcopy
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("new, old, arguments", CASES, ids=IDS)
def test_copy_and_pickle_round_trips(new, old, arguments):
    for args in arguments:
        a, b = new(*args), old(*args)
        if new is pb.Proposition:
            for p in (a, b):
                pb.prop_key(p)
                p.clauses
        for trip in round_trips():
            ca, cb = trip(a), trip(b)
            assert type(ca) is new and ca == a
            assert vars(ca) == vars(a) and vars(cb) == vars(b)
            assert vars(ca) == vars(cb)
            if new is od.IsomorphismReport:
                same = ca.counterexamples is a.counterexamples
                assert same == (cb.counterexamples is b.counterexamples)
            else:
                assert hash(ca) == hash(a)


def test_proposition_caches_stay_on_the_instance():
    for p in P3 + pb.enumerate_hyperpower(4)[::9]:
        fresh = pb.Proposition(p.n, p.table)
        assert "clauses" not in vars(fresh) and "_prop_key" not in vars(fresh)
        assert fresh.clauses == vo.Proposition(p.n, p.table).clauses
        assert vars(fresh)["clauses"] is fresh.clauses
        key = pb.prop_key(fresh)
        assert vars(fresh)["_prop_key"] is key is pb.prop_key(fresh)
        # the caches count in neither equality nor hashing
        assert fresh == pb.Proposition(p.n, p.table)
        assert hash(fresh) == hash((p.n, p.table))
