"""Basic belief assignments over finite insulated pre-Boolean algebras.

A :class:`FiniteBba` keeps its masses sparsely by class key
(:meth:`Quotient.key`, the truth table with the congruence-mask bits
cleared), as numerators over one denominator D.  When every mass is an
``int`` or a :class:`fractions.Fraction`, the numerators are integers and D
is the lcm of the input denominators: fusion multiplies denominators, and
belief and its inversion add integers, so results are exact without a gcd
per addition.  ``Fraction``s are built only where values leave the module:
:attr:`FiniteBba.mass`, indexing, and the values of :func:`bel` and
:func:`bel_table`.  Once any mass is a float (or another non-rational
number), the same code runs with D = 1 and the values kept as given, so
float results and the ``MASS_TOL`` checks are those of plain per-value sums
in insertion order.

Both entry points, :class:`FiniteBba` and :func:`bba_from_bel`, take that
decision in one place, :func:`_numerators`, and every numerator leaves the
module through :func:`_as_value`, apart from an exact belief table's, which
are built as ``Fraction``s directly.

An exact :func:`bel_table` is a ``dict`` of ``Fraction``s that also carries
its integer numerators, their denominator and its algebra.  While the table
is unchanged and goes back to :func:`bba_from_bel` with that very algebra,
the inversion reads the numerators and skips turning the ``Fraction``s back
into integers; any other table takes the general path, with the same
result.  The table stays a mutable ``dict``, not a read-only view that
builds its ``Fraction``s on access, because callers edit tables in place to
perturb a belief, and an edit simply makes the table an ordinary one.

Belief and its inversion compare keys: phi lies below psi iff
``key(phi) & ~key(psi) == 0``.  On exact numerators, a whole belief table
and its inversion are the zeta and Möbius transforms of the class lattice,
run as sweeps over pairs of keys (:func:`_lattice`; Kennes, IEEE Trans. SMC
22(2), 1992): O(|L|·|J|) additions for |L| classes and |J|
join-irreducibles (Björklund et al., TALG 2016), where a sum per class
costs O(|L|·|F|) subset tests.  Float tables keep the per-class sums, whose
summation order their results are defined by.

Inversion follows one rule.  :func:`bba_from_bel` takes an exact table's
Möbius sweep when it recovers no negative mass.  Otherwise, and for every
float table, it runs the peeling sweep, which drops a dip in
``[-MASS_TOL, 0)`` and rejects a deeper one; on a table without dips the
two sweeps give the same masses.  The module reads three
names from its algebra: ``key`` (a proposition's class key), ``top`` and
``rep_by_key`` (class key to representative, in representative order).
A :class:`Quotient` is the free algebra modulo a congruence.  The sweeps
also hold on any other algebra with those names whose keys are closed under
``&`` and ``|``, such as a quotient of a closed sublattice built outside
this package (see :func:`_lattice`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import is_
from types import MappingProxyType
from typing import Iterable, Mapping

from .prebool import Proposition, Quotient, format_proposition

MASS_TOL = 1e-12


class BbaError(ValueError):
    pass


class InconsistentBelief(BbaError):
    """Belief inversion recovered a negative mass."""

    def __init__(self, proposition: Proposition, value) -> None:
        self.proposition = proposition
        self.value = value
        super().__init__(
            f"negative recovered mass {value} at {format_proposition(proposition)}"
        )


def _numerators(values: list) -> tuple[list, int, bool]:
    """The values as numerators over one denominator, and whether they are exact.

    When every value is an ``int`` or ``Fraction``: integer numerators over
    the lcm of the denominators.  Otherwise the values as given, over 1.
    """
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return values, 1, False
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den, True


def _as_value(v, den: int, exact: bool):
    """The value a numerator stands for: a ``Fraction`` when exact, else v."""
    return Fraction(v, den) if exact else v


def _below(num: Mapping[int, object], K: int):
    """Sum of the numerators whose keys lie inside K."""
    outside = ~K
    return sum([v for k, v in num.items() if not k & outside])


@lru_cache(maxsize=32)
def _lattice(
    keys: tuple[int, ...],
) -> tuple[tuple[int, ...], dict[int, int], tuple[tuple[int, int], ...]]:
    """The class keys in ascending order, each key's index in that order,
    and the zeta sweep's index pairs (K, K ^ G), in sweep order.  Callers
    share the cached result and only read it.

    The keys are a family of sets closed under ``&`` and ``|``, and each key
    is the ``|`` of the join-irreducibles J it holds.  The ``&`` of the keys
    that hold a bit x is a key and a subset of each of them, and a subset is
    a smaller integer, so the least key that holds x is the first key in
    ascending order that holds it.  One ascending walk, taking
    ``G = K & ~seen`` and then ``seen |= K``, thus yields every J = K with a
    nonempty G, in ascending order of J, a linear extension of the order.
    On a :class:`Quotient` G is one bit; an algebra on a smaller closed
    universe may have covers that clear several bits at once, so the pairs
    step by G, not by bit.  A key K holds J iff it holds G, and removing J
    from the join-irreducibles below K leaves a down-set, whose key is
    K ^ G, iff K ^ G is a key.  Within one group no K ^ G holds G, so the
    pairs of a group are independent.
    """
    ordered = tuple(sorted(keys))
    index = {k: i for i, k in enumerate(ordered)}
    groups, seen = [], 0
    for K in ordered:
        if K & ~seen:
            groups.append(K & ~seen)
            seen |= K
    pairs = tuple(
        (index[K], index[K ^ g])
        for g in groups
        for K in ordered
        if K & g == g and K ^ g in index
    )
    return ordered, index, pairs


class FiniteBba:
    """Normalized mass function over the classes of an algebra.

    ``mass`` maps propositions to masses; masses of congruent propositions
    add up.  With ``exhaustive=True`` (the default) all mass lives strictly
    between BOTTOM and TOP; otherwise TOP may carry mass, BOTTOM never does.

    The masses are stored as numerators keyed by class key over one
    denominator: integers over the lcm of the input denominators when every
    mass is an ``int`` or ``Fraction``, the values as given over 1 otherwise.
    :attr:`mass` and indexing turn exact numerators into ``Fraction``s (an
    ``int`` mass comes back as an equal ``Fraction``) and return other
    values unchanged.  Equality compares the algebra and the mass values, so
    equal masses over different denominators are equal assignments.
    """

    __slots__ = ("algebra", "exhaustive", "_num", "_den", "_exact", "_mass")

    def __init__(
        self,
        algebra: Quotient,
        mass: Mapping[Proposition, object],
        exhaustive: bool = True,
    ) -> None:
        keys = [algebra.key(p) for p in mass]
        values, den, exact = _numerators(list(mass.values()))
        self._fill(algebra, zip(keys, values), den, exact, exhaustive)

    @classmethod
    def _from_keys(cls, algebra, items, den, exact, exhaustive) -> FiniteBba:
        self = cls.__new__(cls)
        self._fill(algebra, items, den, exact, exhaustive)
        return self

    def _fill(
        self,
        algebra: Quotient,
        items: Iterable[tuple[int, object]],
        den: int,
        exact: bool,
        exhaustive: bool,
    ) -> None:
        top = algebra.key(algebra.top)
        num: dict[int, object] = {}
        total = 0
        for k, v in items:
            # NaN fails every comparison, so it would pass the checks below
            if v != v or abs(v) == math.inf:
                raise BbaError(f"non-finite mass {v} at {_name(algebra, k)}")
            if v < 0:
                raise BbaError(f"negative mass at {_name(algebra, k)}")
            if v == 0:
                continue
            if k == 0:
                raise BbaError("mass on BOTTOM is forbidden")
            if exhaustive and k == top:
                raise BbaError("mass on TOP violates the exhaustivity convention")
            num[k] = num.get(k, 0) + v
            total += v
        if abs(_as_value(total - den, den, exact)) > MASS_TOL:
            raise BbaError(f"total mass {_as_value(total, den, exact)} is not 1")
        self.algebra = algebra
        self.exhaustive = exhaustive
        self._num = num
        self._den = den
        self._exact = exact
        self._mass = None

    def _value(self, v):
        return _as_value(v, self._den, self._exact)

    @property
    def mass(self) -> Mapping[Proposition, object]:
        """Read-only map from class representatives to their masses."""
        if self._mass is None:
            rep = self.algebra.rep_by_key
            self._mass = MappingProxyType(
                {rep[k]: self._value(v) for k, v in self._num.items()}
            )
        return self._mass

    def __getitem__(self, p: Proposition):
        return self._value(self._num.get(self.algebra.key(p), 0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteBba):
            return NotImplemented
        return self.algebra is other.algebra and self.mass == other.mass

    def __repr__(self) -> str:
        return (
            f"FiniteBba({self.algebra!r}, {dict(self.mass)!r}, "
            f"exhaustive={self.exhaustive!r})"
        )


def _name(algebra: Quotient, k: int) -> str:
    return format_proposition(algebra.rep_by_key[k])


def _non_finite(v) -> bool:
    # NaN fails every comparison, so the peeling sweep would drop it
    return v != v or abs(v) == math.inf


def bel(m: FiniteBba, phi: Proposition):
    """Cumulative mass over every class below phi (phi included)."""
    return m._value(_below(m._num, m.algebra.key(phi)))


class _BeliefTable(dict):
    """An exact belief table that also carries its zeta sweep's numerators.

    The mapping is the table itself, an ordinary mutable ``dict``.  Next to
    it sit the algebra, the integer sums in ascending key order, their
    denominator, and the keys and values as inserted, which tell whether
    the mapping still is what :func:`bel_table` built.  A copy, deep copy or
    pickle is a plain ``dict``.
    """

    __slots__ = ("_algebra", "_sums", "_den", "_reps", "_values")

    def __reduce__(self):
        return dict, (dict(self),)

    def _carried(self, algebra) -> tuple[list[int], int] | None:
        """The sums and their denominator, if this is the unchanged table
        :func:`bel_table` built over ``algebra`` itself."""
        if (
            self._algebra is algebra
            and len(self) == len(self._reps)
            and all(map(is_, self, self._reps))
            and all(map(is_, self.values(), self._values))
        ):
            return self._sums, self._den
        return None


def bel_table(m: FiniteBba) -> dict[Proposition, object]:
    """Belief of every representative of the algebra.

    Exact numerators run the zeta sweep of :func:`_lattice`: each pair
    (K, K ^ G), group by group in ascending order of the join-irreducible,
    adds the value at K ^ G to the value at K, which leaves at each key the
    sum over the keys below it.  The table then maps each representative to
    its ``Fraction`` and also carries those integer sums and their
    denominator, which :func:`bba_from_bel` reads instead of the
    ``Fraction``s while the table is unchanged.  It stays a mutable
    ``dict``, since callers edit tables in place to perturb a belief.
    Float masses are summed per class, as :func:`bel` sums them, so their
    rounding is that of the per-value sums, and their table is a plain
    ``dict``.
    """
    num, rep_by_key = m._num, m.algebra.rep_by_key
    if not m._exact:
        return {rep: _below(num, k) for k, rep in rep_by_key.items()}
    _, index, pairs = _lattice(tuple(rep_by_key))
    sums = [0] * len(index)
    for k, v in num.items():
        sums[index[k]] = v
    for i, j in pairs:
        sums[i] += sums[j]
    den = m._den
    reps = tuple(rep_by_key.values())
    values = [Fraction(sums[index[k]], den) for k in rep_by_key]
    table = _BeliefTable(zip(reps, values))
    table._algebra, table._sums, table._den = m.algebra, sums, den
    table._reps, table._values = reps, values
    return table


def bba_from_bel(
    algebra: Quotient,
    bel_values: Mapping[Proposition, object],
    exhaustive: bool = True,
) -> FiniteBba:
    """Invert a belief table back into its mass function.

    The belief values are read once, in ascending :meth:`Quotient.key`
    order, as numerators over one denominator.  A NaN or infinite belief is
    an error, and so are unequal beliefs on two members of one class; equal
    ones are read as one.  Exact numerators run the Möbius sweep of
    :func:`_mobius`; if no recovered mass is negative, those are the
    masses.  Otherwise, and always for a float table, the peeling sweep
    runs: over the classes in ascending key order, a linear extension of
    the order, it peels off the mass already recovered strictly below each
    class.  A recovered mass below ``-MASS_TOL`` signals an inconsistent
    belief table; one in ``[-MASS_TOL, 0)`` is dropped, so no later class
    subtracts it.  With ``exhaustive=True``, a float mass in
    ``(0, MASS_TOL]`` left on TOP is rounding, not mass, and is dropped
    too.  On a table with no negative Möbius mass the two sweeps agree, so
    the data, not an option, picks the sweep.

    A table that :func:`bel_table` built over this very ``algebra`` object,
    unchanged since, hands over its integer sums directly, divided by their
    gcd with the denominator.  That puts them on the lcm of the table's
    reduced denominators, so the result, its numerators and its denominator
    are those of any other table with the same values.  An edited table
    reads its values as any other table does.
    """
    ordered, _, pairs = _lattice(tuple(algebra.rep_by_key))
    carried = bel_values._carried(algebra) if isinstance(bel_values, _BeliefTable) else None
    if carried is not None:
        nums, den = carried
        g = math.gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [s // g for s in nums]
        exact = True
    else:
        key = algebra.key
        values = {}
        for p, v in bel_values.items():
            k = key(p)
            w = values.get(k, v)
            if w is not v and w != v:
                if not (_non_finite(w) or _non_finite(v)):
                    raise BbaError(
                        f"congruent members of {_name(algebra, k)} carry unequal "
                        f"beliefs {w} and {v}"
                    )
                if _non_finite(w):
                    continue  # kept for the check below, which names it
            values[k] = v
        missing = [rep for k, rep in algebra.rep_by_key.items() if k not in values]
        if missing:
            more = f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""
            raise BbaError(f"belief table misses {format_proposition(missing[0])}{more}")
        nums, den, exact = _numerators([values[k] for k in ordered])
        if not exact:
            for K, v in zip(ordered, nums):
                if _non_finite(v):
                    raise BbaError(f"non-finite belief {v} at {_name(algebra, K)}")
    if exact:
        mass = _mobius(nums, pairs)
        if min(mass) >= 0:
            items = ((k, v) for k, v in zip(ordered, mass) if v)
            return FiniteBba._from_keys(algebra, items, den, True, exhaustive)
    # Masses recovered so far, by key.  Their classes were swept before K,
    # so each one that lies below K lies strictly below it.
    mass = {}
    for K, v in zip(ordered, nums):
        mv = v - _below(mass, K)
        if mv < 0 and (value := _as_value(mv, den, exact)) < -MASS_TOL:
            raise InconsistentBelief(algebra.rep_by_key[K], value)
        if mv > 0:
            mass[K] = mv
    top = algebra.key(algebra.top)
    if exhaustive and isinstance(mass.get(top), float) and mass[top] <= MASS_TOL:
        del mass[top]
    return FiniteBba._from_keys(algebra, mass.items(), den, exact, exhaustive)


def _mobius(table: list[int], pairs: tuple[tuple[int, int], ...]) -> list[int]:
    """The Möbius inverse of an exact belief table, in ascending key order.

    ``table`` holds the belief numerators in ascending key order and is
    read, not changed; ``pairs`` are :func:`_lattice`'s.  One sweep runs the
    pairs in reverse and subtracts, undoing :func:`bel_table`'s zeta sweep.
    The masses may be negative; :func:`bba_from_bel` then peels instead.
    """
    mass = table.copy()
    for i, j in reversed(pairs):
        mass[i] -= mass[j]
    return mass


def fuse(m1: FiniteBba, m2: FiniteBba) -> FiniteBba:
    """Conjunctive combination: product masses land on the pairwise meet.

    The meet of two classes is the ``&`` of their keys.  Exact masses are
    multiplied as numerators over the product of the denominators, and one
    gcd then reduces the result.  On an insulated algebra
    (:func:`prebool.is_insulated`) no cross product collapses to BOTTOM, so
    the output total is the product of the input totals and no
    renormalization is needed.
    """
    if m1.algebra is not m2.algebra:
        raise BbaError("cannot fuse assignments over different algebras")
    exact = m1._exact and m2._exact
    num1, num2 = (
        m._num if exact else {k: m._value(v) for k, v in m._num.items()}
        for m in (m1, m2)
    )
    out: dict[int, object] = {}
    for k1, v1 in num1.items():
        for k2, v2 in num2.items():
            k = k1 & k2
            out[k] = out.get(k, 0) + v1 * v2
    den = 1
    if exact:
        den = m1._den * m2._den
        g = math.gcd(den, *out.values())
        if g > 1:
            den //= g
            out = {k: v // g for k, v in out.items()}
    return FiniteBba._from_keys(
        m1.algebra, out.items(), den, exact, m1.exhaustive and m2.exhaustive
    )
