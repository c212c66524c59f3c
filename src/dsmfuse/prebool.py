"""Free hyperpower sets over finite atom sets, and their constrained quotients.

A proposition over n atoms is a negation-free combination of the atoms under
conjunction and disjunction.  By Birkhoff duality (Grätzer, *Lattice Theory:
Foundation*, §II.3) it is an up-set of atom sets, and it is stored as that
up-set's truth table: a 2^n-bit integer whose bit S is set iff the atom set S
(a bitmask) contains one of its clauses.  Meet, join and order are then ``&``,
``|`` and ``p & ~q == 0``.  BOTTOM is the empty table and TOP the full one.
The disjunctive form is a derived view: ``clauses``, the inclusion-minimal
set bits, so for instance ``a | (a & b)`` reads back as ``a``.

A :class:`Quotient` is the free algebra on n atoms modulo the least
congruence holding a set of equations.  A congruence clears one mask of
table bits, so each class is an integer key ``T & ~M`` and the quotient's
meet, join and order are again ``&``, ``|`` and ``k1 & ~k2 == 0``.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from operator import is_
from typing import Iterable, Iterator, Sequence

from ._values import Frozen


def _require_atom_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"atom count {n} is negative")


@lru_cache(maxsize=None)
def _up_sets(n: int) -> tuple[int, ...]:
    _require_atom_count(n)
    # up[c] has bit S set for every atom set S containing clause c.  Atom k
    # maps bit S to bit S + 2^k = S | {k}: a clause without k keeps its sets
    # and gains their copies, a clause with k has only the copies.
    up = [1]
    for k in range(n):
        h = 1 << k
        up = [u | u << h for u in up] + [u << h for u in up]
    return tuple(up)


def grow(n: int, table: int) -> int:
    """The atom sets one atom larger than a set in ``table``.

    Shifting the sets that lack atom i by 2^i adds i to each of them.
    """
    up = _up_sets(n)
    grown = 0
    for i in range(n):
        grown |= (table & ~up[1 << i]) << (1 << i)
    return grown


def unions(generators: Iterable[int]) -> set[int]:
    """Every union of some of the ``generators`` tables, the empty union 0 too.

    A family closed under union and intersection is the unions of its least
    members (Birkhoff; Stanley, *EC1*, Thm 3.4.1).
    """
    tables = {0}
    for u in generators:
        tables |= {t | u for t in tables}
    return tables


def upsets(n: int, keep: int) -> list[int]:
    """Every distinct ``T & keep`` over the up-set tables T, in integer order.

    T is the union of ``up[c]`` over its sets c, and a set outside ``keep``
    adds nothing that its kept supersets do not, so the :func:`unions` of
    ``up[c] & keep`` for each c in ``keep`` are all of them.  With ``keep``
    the kept bits of a congruence mask, these are the class keys of the
    quotient of the free algebra (Birkhoff; Stanley, *EC1*, Thm 3.4.1).
    """
    up = _up_sets(n)
    return sorted(unions(up[c] & keep for c in range(1 << n) if keep >> c & 1))


@lru_cache(maxsize=None)
def _atom_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    # The sorted atom indices of every clause bitmask, for prop_key.
    return tuple(tuple(i for i in range(n) if c >> i & 1) for c in range(1 << n))


@lru_cache(maxsize=None)
def _clause_walk(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    # For the clauses in atom-tuple order: their up-set tables, their atom
    # tuples, and for each position j the positions after j whose clause is
    # incomparable with clause j, as a bitmask over positions.
    atom_tuples = _atom_tuples(n)
    order = sorted(range(1 << n), key=atom_tuples.__getitem__)
    up = _up_sets(n)
    later = []
    for j, c in enumerate(order):
        mask = 0
        for k in range(j + 1, len(order)):
            d = order[k]
            if c & ~d and d & ~c:
                mask |= 1 << k
        later.append(mask)
    return (tuple(up[c] for c in order), tuple(atom_tuples[c] for c in order), tuple(later))


class Proposition(Frozen):
    """The truth table of a proposition over a fixed atom universe of size n.

    Bit S of ``table`` is set iff the atom set S contains a clause; the table
    is therefore an up-set of atom sets.  Instances are built through
    :func:`make_prop`, :func:`varphi` or :func:`atom_prop`, or by the lattice
    operations; equality, hashing and ``repr`` look at ``n`` and ``table``
    only.  ``clauses`` and :func:`prop_key` are derived once and kept on the
    instance.
    """

    _fields = ("n", "table")

    def __init__(self, n: int, table: int) -> None:
        self.__dict__.update(n=n, table=table)

    @property
    def is_bottom(self) -> bool:
        return self.table == 0

    @property
    def is_top(self) -> bool:
        return bool(self.table & 1)

    @cached_property
    def clauses(self) -> frozenset[int]:
        """The clause antichain: the inclusion-minimal set bits of ``table``."""
        return frozenset(_clause_bits(self.n, self.table))


def _clause_bits(n: int, table: int) -> Iterator[int]:
    # The set bits of table & ~grow(table), lowest first: only the clauses
    # are visited, not all 2^n atom sets.
    minimal = table & ~grow(n, table)
    while minimal:
        low = minimal & -minimal
        yield low.bit_length() - 1
        minimal ^= low


def make_prop(n: int, masks: Iterable[int]) -> Proposition:
    """The proposition whose clauses are the given bitmasks (absorbed ones drop)."""
    up = _up_sets(n)
    table = 0
    for m in masks:
        if m < 0 or m >> n:
            raise ValueError(f"clause {m:#x} references atoms outside [0, {n})")
        table |= up[m]
    return Proposition(n, table)


def bottom(n: int) -> Proposition:
    _require_atom_count(n)
    return Proposition(n, 0)


def top(n: int) -> Proposition:
    return Proposition(n, _up_sets(n)[0])


def atom_prop(n: int, i: int) -> Proposition:
    """The proposition consisting of the single atom ``a{i}``."""
    if not 0 <= i < n:
        raise ValueError(f"atom index {i} out of range [0, {n})")
    return Proposition(n, _up_sets(n)[1 << i])


def varphi(n: int, sigma_family: Iterable[Iterable[int]]) -> Proposition:
    """Disjunction of the conjunctions of a family of atom subsets.

    The empty family gives BOTTOM; a family containing the empty subset
    absorbs everything else and gives TOP.
    """

    def conjunction(sigma: Iterable[int]) -> int:
        mask = 0
        for i in sigma:
            if not 0 <= i < n:
                raise ValueError(f"atom index {i} out of range [0, {n})")
            mask |= 1 << i
        return mask

    return make_prop(n, map(conjunction, sigma_family))


def _check_same_universe(p: Proposition, q: Proposition) -> None:
    if p.n != q.n:
        raise ValueError(f"mixed atom universes: {p.n} vs {q.n}")


def meet(p: Proposition, q: Proposition) -> Proposition:
    """Conjunction: the intersection of the truth tables."""
    _check_same_universe(p, q)
    return Proposition(p.n, p.table & q.table)


def join(p: Proposition, q: Proposition) -> Proposition:
    """Disjunction: the union of the truth tables."""
    _check_same_universe(p, q)
    return Proposition(p.n, p.table | q.table)


def leq(p: Proposition, q: Proposition) -> bool:
    """Order test: p <= q iff every atom set satisfying p satisfies q."""
    _check_same_universe(p, q)
    return not p.table & ~q.table


def prop_key(p: Proposition) -> tuple[tuple[int, ...], ...]:
    """Deterministic total-order key: sorted tuple of sorted clause tuples.

    The key is kept in the instance's ``__dict__``, where ``cached_property``
    keeps ``clauses``.  :func:`enumerate_hyperpower` stores it on every
    element it lists, and :func:`format_proposition` reads it there.  Any
    other instance computes it on first use, from its clauses alone.  A
    ``cached_property`` here would also take a lock on each first read.
    """
    cache = p.__dict__
    key = cache.get("_prop_key")
    if key is None:
        atom_tuples = _atom_tuples(p.n)
        key = cache["_prop_key"] = tuple(sorted(atom_tuples[c] for c in _clause_bits(p.n, p.table)))
    return key


class _Listing(list):
    """The listing :func:`enumerate_hyperpower` returns, an ordinary ``list``.

    Next to it sit the members as listed, which tell whether the list still
    is what the walk built.  A copy, deep copy or pickle is a plain ``list``.
    """

    __slots__ = ("_members",)

    def __reduce__(self):
        return list, (list(self),)

    def _unchanged(self) -> bool:
        """True while this holds exactly the members listed, in that order."""
        return len(self) == len(self._members) and all(map(is_, self, self._members))


DEFAULT_ATOM_GUARD = 4


def enumerate_hyperpower(n: int, max_atoms: int = DEFAULT_ATOM_GUARD) -> list[Proposition]:
    """All distinct propositions over n atoms, sorted by :func:`prop_key`.

    Each proposition is its clause antichain, and its key is that antichain's
    atom tuples in ascending order.  A depth-first walk lists the antichains
    in preorder, adding to each only clauses that come later in atom-tuple
    order and are incomparable with every clause chosen so far.  Preorder
    over ascending sequences is their lexicographic order, a prefix first,
    which is :func:`prop_key` order; so nothing is sorted, and each
    element's key, its parent's key and one more tuple, is stored on it.
    The count is the n-th Dedekind number (3, 6, 20, 168 for n = 1..4),
    which grows too fast for n > 5; ``max_atoms`` guards against runaway
    sizes.

    The walk visits every antichain once, so the listing is complete and
    in :func:`prop_key` order by construction, which
    ``tests/test_hyperpower_oracle.py`` checks against an independent
    enumeration.  It is returned as a ``list`` that also holds the members
    it listed, and :class:`Quotient` takes it without checking it again
    while it still holds exactly those objects in that order.  A copy,
    slice or pickle is a plain ``list``, and an edited listing is checked
    as any other universe is.
    """
    if n < 1:
        raise ValueError("need at least one atom")
    if n > max_atoms:
        raise ValueError(f"n={n} exceeds the enumeration guard ({max_atoms})")
    return _walk(n)


def _walk(n: int) -> _Listing:
    # enumerate_hyperpower's listing with no guard on n: Quotient also walks
    # a checked universe over 0 atoms.
    up, atom_tuples, later = _clause_walk(n)
    listing = _Listing()
    # Each entry is a node's table, key and the positions it may still add.
    # A node's children are pushed last first, so they are popped in order.
    stack = [(0, (), (1 << len(up)) - 1)]
    while stack:
        table, key, free = stack.pop()
        p = Proposition(n, table)
        p.__dict__["_prop_key"] = key
        listing.append(p)
        rest = free
        while rest:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            stack.append((table | up[j], key + (atom_tuples[j],), free & later[j]))
    listing._members = tuple(listing)
    return listing


class ConstraintSet(Frozen):
    """Pairs of propositions declared equal."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[Proposition, Proposition], ...]) -> None:
        self.__dict__.update(pairs=pairs)


def congruence_mask(gamma: ConstraintSet) -> int:
    """``OR of T(p) ^ T(q)`` over gamma: the bits its least congruence collapses."""
    mask = 0
    for p, q in gamma.pairs:
        mask |= p.table ^ q.table
    return mask


def is_insulated(gamma: ConstraintSet) -> bool:
    """True iff no constraint mentions BOTTOM or TOP.

    Insulated constraint sets never collapse a non-trivial conjunction to
    BOTTOM (nor a disjunction to TOP) in the quotient.  That is the
    precondition of :func:`belief.fuse`, which does not renormalize: on a
    quotient that is not insulated, a product mass can land on BOTTOM and
    fusion raises.  ``belief`` does not check it, since it reads only class
    keys; this is the test a caller applies to its constraints first.
    """
    return not any(
        p.is_bottom or p.is_top or q.is_bottom or q.is_top for p, q in gamma.pairs
    )


class Quotient:
    """A finite pre-Boolean algebra: the free algebra modulo a congruence.

    The congruence is the least equivalence containing the constraint pairs
    and compatible with meet and join.  Congruences of a finite distributive
    lattice are Boolean on its join-irreducibles (Birkhoff; Grätzer, *Lattice
    Theory: Foundation*, §II.3), so the least one holding the pairs is the
    single mask ``M = OR of T(p) ^ T(q)`` over them, T being the truth table.
    An element's class is its key ``T(p) & ~M`` (:meth:`key`), and the keys
    form a lattice of their own: meet, join and order are ``&``, ``|`` and
    ``k1 & ~k2 == 0``.  A proper subset is a smaller integer, so ascending
    key order is a linear extension of the order.  Class representatives are
    the minimum members under :func:`prop_key`, so output is reproducible;
    ``rep_by_key`` maps each class key to its representative.

    The universe must hold every proposition over one n exactly once, in any
    order.  Every up-set is BOTTOM or ``t | up[c]`` for a smaller up-set t
    and an atom set c, so a family of up-sets is all of them exactly when it
    holds BOTTOM and every ``t | up[c]`` of its members: O(|U|·2^n) work,
    and a rejection names the smallest up-set the universe lacks.  Once that
    check has passed the universe is complete, and the walk of
    :func:`enumerate_hyperpower` supplies its members in :func:`prop_key`
    order.  A universe with a table wider than 2^n bits, checked first, or
    with more tables than the walk lists holds a table that is not an
    up-set, and is rejected.  A listing from
    :func:`enumerate_hyperpower` that still holds exactly the members it
    listed, in that order, is complete and ordered by construction, so it is
    only copied: O(|U|) identity tests instead of the check and the walk.
    """

    def __init__(self, universe: Sequence[Proposition], gamma: ConstraintSet) -> None:
        if not (isinstance(universe, _Listing) and universe._unchanged()):
            universe = _check_universe(list(universe))
        self.universe = list(universe)
        self._n = n = self.universe[0].n
        self._keep = ~congruence_mask(gamma)
        # key() rejects constraint elements over another atom count.
        for pair in gamma.pairs:
            for p in pair:
                self.key(p)

        # The universe follows prop_key order, so the first member of each
        # class is its representative, and classes are inserted in
        # representative order.
        self.rep_by_key: dict[int, Proposition] = {}
        for p in self.universe:
            self.rep_by_key.setdefault(p.table & self._keep, p)
        self.representatives = list(self.rep_by_key.values())
        self.bottom = self.class_of(bottom(n))
        self.top = self.class_of(top(n))

    def key(self, p: Proposition) -> int:
        """The class key ``T(p) & ~M``: equal exactly on congruent members."""
        if p.n != self._n:
            raise ValueError(
                f"proposition {format_proposition(p)} is outside the universe"
            )
        return p.table & self._keep

    def class_of(self, p: Proposition) -> Proposition:
        """Representative of p's congruence class."""
        return self.rep_by_key[self.key(p)]


def _check_universe(universe: list[Proposition]) -> _Listing:
    """The walk's listing of a universe that holds every proposition over
    its atom count exactly once; ValueError otherwise."""
    if not universe:
        raise ValueError("universe is empty")
    n = universe[0].n
    if any(p.n != n for p in universe):
        raise ValueError("universe mixes atom universes")
    tables = {p.table for p in universe}
    if len(tables) != len(universe):
        raise ValueError("universe contains duplicate propositions")
    up = _up_sets(n)
    if max(tables) >> (1 << n):  # a bit past the last atom set
        raise ValueError("universe holds a table that is not an up-set of atom sets")
    outside = ({0} | {t | u for t in tables for u in up}) - tables
    if outside:
        p = Proposition(n, min(outside))
        raise ValueError(f"proposition {format_proposition(p)} is outside the universe")
    # Every up-set is a member now, so only a table that is not one is unlisted.
    listing = _walk(n)
    if len(listing) < len(tables):
        raise ValueError("universe holds a table that is not an up-set of atom sets")
    return listing


def quotient(universe: Sequence[Proposition], gamma: ConstraintSet) -> Quotient:
    """Quotient the free algebra, listed as ``universe``, by the congruence
    generated by gamma."""
    return Quotient(universe, gamma)


def free_algebra(n: int, max_atoms: int = DEFAULT_ATOM_GUARD) -> Quotient:
    """The free hyperpower set over n atoms as a trivial quotient."""
    return Quotient(enumerate_hyperpower(n, max_atoms), ConstraintSet(()))


# --- text format -----------------------------------------------------------
#
# Expression grammar (whitespace-insensitive):
#     expr  := term ('|' term)*
#     term  := factor ('&' factor)*
#     factor:= atom | 'bot' | 'top' | '(' expr ')'
# Atoms are a0..a{n-1}.  'bot'/'top' extend the pure atom grammar so that the
# constants remain printable in universe dumps.


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# An operator, a run of letters and digits, or any other visible character,
# which parse_proposition rejects.
_TOKEN = re.compile(r"[&|()]|[^\W_]+|\S")

# Each level of parentheses costs the parser three stack frames.
MAX_NESTING = 100


def parse_proposition(text: str, n: int) -> Proposition:
    tokens = _TOKEN.findall(text)
    for tok in tokens:
        if not (tok.isalnum() or tok in "&|()"):
            raise ParseError(f"unexpected character {tok!r}")
    tokens.reverse()

    def expr(depth: int) -> Proposition:
        p = term(depth)
        while tokens and tokens[-1] == "|":
            tokens.pop()
            p = join(p, term(depth))
        return p

    def term(depth: int) -> Proposition:
        p = factor(depth)
        while tokens and tokens[-1] == "&":
            tokens.pop()
            p = meet(p, factor(depth))
        return p

    def factor(depth: int) -> Proposition:
        tok = tokens.pop()
        if tok == "(":
            if depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            p = expr(depth + 1)
            if tokens.pop() != ")":
                raise ParseError("expected ')'")
            return p
        if tok == "bot":
            return bottom(n)
        if tok == "top":
            return top(n)
        digits = tok[1:]
        if tok.startswith("a") and digits.isascii() and digits.isdigit():
            # Compare lengths first: int() refuses strings of over 4300 digits.
            digits = digits.lstrip("0") or "0"
            if len(digits) > len(str(n)) or int(digits) >= n:
                raise ParseError(f"atom {tok!r} out of range for {n} atoms")
            return atom_prop(n, int(digits))
        raise ParseError(f"unexpected token {tok!r}")

    try:
        p = expr(0)
    except IndexError:  # a pop from the exhausted token list
        raise ParseError("unexpected end of expression") from None
    if tokens:
        raise ParseError(f"trailing input at token {tokens[-1]!r}")
    return p


def format_proposition(p: Proposition) -> str:
    if p.is_bottom:
        return "bot"
    if p.is_top:
        return "top"
    parts = []
    clauses = prop_key(p)
    for clause in clauses:
        lits = [f"a{i}" for i in clause]
        parts.append(" & ".join(lits) if len(clauses) == 1 or len(lits) == 1
                     else "(" + " & ".join(lits) + ")")
    return " | ".join(parts)


def parse_constraints(text: str, n: int) -> ConstraintSet:
    """One constraint per line, ``<expr> = <expr>``; blank lines ignored."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.count("=") != 1:
            raise ParseError("expected exactly one '='", lineno)
        left, right = line.split("=")
        try:
            pairs.append((parse_proposition(left, n), parse_proposition(right, n)))
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
    return ConstraintSet(tuple(pairs))
