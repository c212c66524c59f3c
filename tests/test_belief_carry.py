"""Differential test: ``bba_from_bel`` on the numerators an exact belief
table carries against the same table as a plain ``dict``.

``bel_table`` returns a ``dict`` that also carries its zeta sweep's integer
sums and their denominator, and ``bba_from_bel`` inverts those directly
while the table is unchanged and is passed with the algebra it was built
over.  Either way the result must be the same: equal ``_num``, ``_den``,
masses and ``repr``, or the same error.  Every way of changing a table must
make ``bba_from_bel`` fall back to the general path, and a table passed
with another algebra object, even an equal one, must take that path too.
"""

import copy
import random
import types
from fractions import Fraction

import pytest

from dsmfuse import belief as bf
from dsmfuse import prebool as pb

from test_lattice_sweep import BUILDERS, TOL, algebra, inner, random_masses


def outcome(alg, table):
    """The inversion's numerators, denominator, masses and repr, or the
    error's type and text, and for a rejection its proposition and value."""
    try:
        m = bf.bba_from_bel(alg, table, exhaustive=False)
    except ValueError as exc:  # BbaError, or a proposition outside the universe
        return type(exc), str(exc), getattr(exc, "proposition", None), getattr(exc, "value", None)
    return m._num, m._den, dict(m.mass), repr(m)


def carries(alg, table):
    return isinstance(table, bf._BeliefTable) and table._carried(alg) is not None


def classes(alg):
    """The members of each class, by key, in universe order."""
    members = {}
    for p in alg.universe:
        members.setdefault(alg.key(p), []).append(p)
    return members


def split(alg, masses, rng):
    """The same assignment with each mass spread as 1/3 and 2/3 over two
    members of its class, where the class has two."""
    members = classes(alg)
    out = {}
    for p, v in masses.items():
        group = members[alg.key(p)]
        pair = rng.sample(group, 2) if len(group) > 1 else [p, p]
        for q, share in zip(pair, (v / 3, v * 2 / 3)):
            out[q] = out.get(q, 0) + share
    return out


@pytest.mark.parametrize("name", BUILDERS)
def test_carried_numerators_invert_as_the_plain_table(name):
    alg = algebra(name)
    if alg.key(alg.top) == 0:
        # BOTTOM and TOP are one class: no assignment exists, so no table.
        with pytest.raises(bf.BbaError, match="BOTTOM"):
            bf.FiniteBba(alg, {alg.top: Fraction(1)}, exhaustive=False)
        return
    exhaustive = bool(inner(alg))
    rng = random.Random(f"carry:{name}")
    bbas = []
    for size in (1, 8, 48):
        masses = [random_masses(alg, rng, size) for _ in range(2)]
        pair = [bf.FiniteBba(alg, m, exhaustive) for m in masses]
        bbas += [*pair, bf.FiniteBba(alg, split(alg, masses[0], rng), exhaustive)]
        try:
            bbas.append(bf.fuse(*pair))
        except bf.BbaError:  # a meet fell on BOTTOM
            pass
    # Two members of one class keep the input denominator at 6, while the
    # table's class masses are 1/2 each, over 2: the carried sums must be
    # reduced by their gcd with the denominator.
    shared = [g for k, g in classes(alg).items() if len(g) > 1 and k in map(alg.key, inner(alg))]
    others = [r for r in inner(alg) if shared and alg.key(r) != alg.key(shared[0][0])]
    if others:
        p, q = shared[0][:2]
        bbas.append(bf.FiniteBba(alg, {p: Fraction(1, 3), q: Fraction(1, 6), others[0]: Fraction(1, 2)}))
    dens = []
    for m in bbas:
        table = bf.bel_table(m)
        assert carries(alg, table) and not carries(alg, dict(table))
        got = outcome(alg, table)
        assert got == outcome(alg, dict(table))
        assert got[2] == dict(m.mass)
        dens.append((m._den, got[1]))
    if others:
        assert dens[-1] == (6, 2)


def _isub(t, p, d):
    t[p] -= d


def _ior(t, p, d):
    t |= {p: t[p] - d}


def _setdefault(t, p, d):
    v = t.pop(p)
    t.setdefault(p, v - d)


def _rekey(t, p, d):
    # the last value kept in place under a key from another atom universe
    k, v = t.popitem()
    t[pb.atom_prop(k.n + 1, 0)] = v


def _reinsert(t, p, d):
    t[p] = t.pop(p)


def _reinsert_lowered(t, p, d):
    t[p] = t.pop(p) - d


EDITS = {
    "setitem": lambda t, p, d: t.__setitem__(p, t[p] - d),
    "isub": _isub,
    "del": lambda t, p, d: t.__delitem__(p),
    "pop": lambda t, p, d: t.pop(p),
    "popitem": lambda t, p, d: t.popitem(),
    "setdefault": _setdefault,
    "update": lambda t, p, d: t.update({p: t[p] - d}),
    "ior": _ior,
    "clear": lambda t, p, d: t.clear(),
    "dict-setitem": lambda t, p, d: dict.__setitem__(t, p, t[p] - d),
    "rekey": _rekey,
    "reinsert": _reinsert,
    "reinsert-lowered": _reinsert_lowered,
    "deepcopy": lambda t, p, d: copy.deepcopy(t),
    "copy": lambda t, p, d: copy.copy(t),
}


@pytest.mark.parametrize("name", ["free-n4", "order-n4", "readme-n4", "sublattice-s0"])
@pytest.mark.parametrize("edit", EDITS)
def test_an_edited_table_inverts_as_a_plain_dict(name, edit):
    # Dips that are dropped, dips just past the tolerance, large steps both
    # ways and none at all: the same masses or the same error either way.
    alg = algebra(name)
    rng = random.Random(f"edit:{name}:{edit}")
    reps = list(alg.rep_by_key.values())
    outcomes = set()
    for d in (Fraction(0), TOL / 2, TOL, TOL + Fraction(1, 10**30), Fraction(1, 64), Fraction(-1, 64)):
        m = bf.FiniteBba(alg, random_masses(alg, rng, 4), exhaustive=False)
        # a class that carries no mass and is not the last one inserted
        free = [p for p in reps[:-1] if not m[p] and p not in (alg.bottom, alg.top)]
        p = rng.choice(free)
        table = bf.bel_table(m)
        edited = EDITS[edit](table, p, d)
        table = edited if isinstance(edited, dict) else table  # a copy, or edited in place
        assert not carries(alg, table)
        got = outcome(alg, table)
        assert got == outcome(alg, dict(table))
        outcomes.add(isinstance(got[0], type))
    if edit in ("del", "pop", "popitem", "clear", "rekey"):
        assert outcomes == {True}  # a missing class, or a stranger
    elif edit in ("reinsert", "deepcopy", "copy"):
        assert outcomes == {False}  # the same table
    else:
        assert outcomes == {True, False}


def test_a_copy_is_a_plain_dict():
    alg = pb.free_algebra(2)
    table = bf.bel_table(bf.FiniteBba(alg, {pb.atom_prop(2, 0): 1}))
    for other in (copy.copy(table), copy.deepcopy(table), table.copy()):
        assert type(other) is dict and other == table


@pytest.mark.parametrize("which", ["example3", "free3"])
def test_another_algebra_object_takes_the_general_path(which):
    if which == "free3":
        q = pb.free_algebra(3)
    else:
        a, b, c = (pb.atom_prop(3, i) for i in range(3))
        gamma = pb.ConstraintSet(((pb.meet(a, b), pb.meet(a, c)), (pb.meet(a, c), pb.meet(b, c))))
        q = pb.quotient(pb.enumerate_hyperpower(3), gamma)
    stand_in = types.SimpleNamespace(key=q.key, top=q.top, rep_by_key=q.rep_by_key)
    twin = pb.quotient(pb.enumerate_hyperpower(3), pb.ConstraintSet(()) if which == "free3" else gamma)
    rng = random.Random(f"other:{which}")
    masses = random_masses(q, rng, 6)
    for built, passed in ((q, stand_in), (stand_in, q), (q, twin)):
        table = bf.bel_table(bf.FiniteBba(built, masses))
        assert carries(built, table) and not carries(passed, table)
        got = bf.bba_from_bel(passed, table)
        want = bf.bba_from_bel(passed, dict(table))
        assert got.algebra is passed
        assert (got._num, got._den, repr(got)) == (want._num, want._den, repr(want))


def test_float_tables_carry_nothing():
    alg = algebra("order-n4")
    masses = {p: float(v) for p, v in random_masses(alg, random.Random(3), 8).items()}
    table = bf.bel_table(bf.FiniteBba(alg, masses))
    assert type(table) is dict
    assert not any(isinstance(v, Fraction) for v in table.values())


@pytest.mark.parametrize("name", ["free-n4", "order-n5", "sublattice-s1"])
def test_an_exact_table_is_a_dict_of_fractions_in_representative_order(name):
    alg = algebra(name)
    m = bf.FiniteBba(alg, random_masses(alg, random.Random(name), 12), exhaustive=False)
    table = bf.bel_table(m)
    assert isinstance(table, dict)
    assert all(type(v) is Fraction for v in table.values())
    assert list(table) == list(alg.rep_by_key.values())
    assert table == {p: bf.bel(m, p) for p in alg.rep_by_key.values()}
    assert repr(table) == repr(dict(table))
