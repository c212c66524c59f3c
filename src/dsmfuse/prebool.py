"""Free hyperpower sets over finite atom sets, and their constrained quotients.

A proposition over n atoms is a negation-free combination of the atoms under
conjunction and disjunction.  By Birkhoff duality (Grätzer, *Lattice Theory:
Foundation*, §II.3) it is an up-set of atom sets, and it is stored as that
up-set's truth table: a 2^n-bit integer whose bit S is set iff the atom set S
(a bitmask) contains one of its clauses.  Meet, join and order are then ``&``,
``|`` and ``p & ~q == 0``.  BOTTOM is the empty table and TOP the full one.
The disjunctive form is a derived view: ``clauses``, the inclusion-minimal
set bits, so for instance ``a | (a & b)`` reads back as ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence


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


def upsets(n: int, keep: int) -> list[int]:
    """Every distinct ``T & keep`` over the up-set tables T, in integer order.

    T is the union of ``up[c]`` over its sets c, and a set outside ``keep``
    adds nothing that its kept supersets do not, so closing ``{0}`` under
    ``t | up[c] & keep`` for each c in ``keep`` reaches all of them.  With
    ``keep`` the kept bits of a congruence mask, these are the class keys of
    the quotient of the free algebra (Birkhoff; Stanley, *EC1*, Thm 3.4.1).
    """
    up = _up_sets(n)
    tables = {0}
    for c in range(1 << n):
        if keep >> c & 1:
            u = up[c] & keep
            tables |= {t | u for t in tables}
    return sorted(tables)


@lru_cache(maxsize=None)
def _atom_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    # The sorted atom indices of every clause bitmask, for prop_key.
    return tuple(tuple(i for i in range(n) if c >> i & 1) for c in range(1 << n))


@dataclass(frozen=True)
class Proposition:
    """The truth table of a proposition over a fixed atom universe of size n.

    Bit S of ``table`` is set iff the atom set S contains a clause; the table
    is therefore an up-set of atom sets.  Instances are built through
    :func:`make_prop`, :func:`varphi` or :func:`atom_prop`, or by the lattice
    operations; equality and hashing look at ``n`` and ``table`` only.
    """

    n: int
    table: int

    @property
    def is_bottom(self) -> bool:
        return self.table == 0

    @property
    def is_top(self) -> bool:
        return bool(self.table & 1)

    @cached_property
    def clauses(self) -> frozenset[int]:
        """The clause antichain: the inclusion-minimal set bits of ``table``."""
        minimal = self.table & ~grow(self.n, self.table)
        return frozenset(c for c in range(1 << self.n) if minimal >> c & 1)


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
    """Deterministic total-order key: sorted tuple of sorted clause tuples."""
    atom_tuples = _atom_tuples(p.n)
    return tuple(sorted(atom_tuples[c] for c in p.clauses))


DEFAULT_ATOM_GUARD = 4


def enumerate_hyperpower(n: int, max_atoms: int = DEFAULT_ATOM_GUARD) -> list[Proposition]:
    """All distinct propositions over n atoms, sorted by :func:`prop_key`.

    These are :func:`upsets` with every bit kept.  The count is the n-th
    Dedekind number (3, 6, 20, 168 for n = 1..4), which grows too fast for
    n > 5; ``max_atoms`` guards against runaway sizes.
    """
    if n < 1:
        raise ValueError("need at least one atom")
    if n > max_atoms:
        raise ValueError(f"n={n} exceeds the enumeration guard ({max_atoms})")
    tables = upsets(n, _up_sets(n)[0])
    return sorted((Proposition(n, t) for t in tables), key=prop_key)


@dataclass(frozen=True)
class ConstraintSet:
    """Pairs of propositions declared equal."""

    pairs: tuple[tuple[Proposition, Proposition], ...]


def is_insulated(gamma: ConstraintSet) -> bool:
    """True iff no constraint mentions BOTTOM or TOP.

    Insulated constraint sets never collapse a non-trivial conjunction to
    BOTTOM (nor a disjunction to TOP) in the quotient.
    """
    return not any(
        p.is_bottom or p.is_top or q.is_bottom or q.is_top for p, q in gamma.pairs
    )


class Quotient:
    """A finite pre-Boolean algebra: a closed universe modulo a congruence.

    The congruence is the least equivalence containing the constraint pairs
    and compatible with meet and join.  Congruences of a finite distributive
    lattice are Boolean on its join-irreducibles (Birkhoff; Grätzer, *Lattice
    Theory: Foundation*, §II.3), so the least one holding the pairs is the
    single mask ``M = OR of T(p) ^ T(q)`` over them, T being the truth table.
    An element's class is its key ``T(p) & ~M`` (:meth:`key`), and the keys
    form a lattice of their own: meet, join and order are ``&``, ``|`` and
    ``k1 & ~k2 == 0``.  A proper subset is a smaller integer, so ascending
    key order is a linear extension of the order.  A closed universe smaller
    than the free algebra is a sublattice of it, and distributive lattices
    have the congruence extension property, so the mask still gives its least
    congruence.  Class representatives are the minimum members under
    :func:`prop_key`, so output is reproducible.
    """

    def __init__(self, universe: Sequence[Proposition], gamma: ConstraintSet) -> None:
        self.universe = sorted(universe, key=prop_key)
        if not self.universe:
            raise ValueError("universe is empty")
        n = self.universe[0].n
        if any(p.n != n for p in self.universe):
            raise ValueError("universe mixes atom universes")
        # Maps each member to its table; the lookup in key() also rejects
        # foreign elements, whose tables may well collide with members' keys.
        self._table = {p: p.table for p in self.universe}
        if len(self._table) != len(self.universe):
            raise ValueError("universe contains duplicate propositions")
        tables = [p.table for p in self.universe]
        outside = (
            {a & b for a in tables for b in tables}
            | {a | b for a in tables for b in tables}
        ) - set(tables)
        if outside:
            p = Proposition(n, min(outside))
            raise ValueError(
                f"proposition {format_proposition(p)} is outside the universe"
            )

        # With nothing masked yet, key() is the bare truth table.
        self._keep = ~0
        mask = 0
        for p, q in gamma.pairs:
            mask |= self.key(p) ^ self.key(q)
        self._keep = ~mask

        members: dict[int, list[Proposition]] = {}
        for p in self.universe:
            members.setdefault(self.key(p), []).append(p)
        # Member lists follow prop_key order, so the first member of each
        # class is its representative, and classes are inserted in
        # representative order.
        self._rep = {key: group[0] for key, group in members.items()}
        self.classes: dict[Proposition, frozenset[Proposition]] = {
            group[0]: frozenset(group) for group in members.values()
        }
        self.representatives = list(self.classes)
        self.bottom = self.class_of(bottom(n))
        self.top = self.class_of(top(n))

    def key(self, p: Proposition) -> int:
        """The class key ``T(p) & ~M``: equal exactly on congruent members."""
        try:
            return self._table[p] & self._keep
        except KeyError:
            raise ValueError(
                f"proposition {format_proposition(p)} is outside the universe"
            ) from None

    def class_of(self, p: Proposition) -> Proposition:
        """Representative of p's congruence class."""
        return self._rep[self.key(p)]

    def meet(self, p: Proposition, q: Proposition) -> Proposition:
        return self._rep[self.key(p) & self.key(q)]

    def join(self, p: Proposition, q: Proposition) -> Proposition:
        return self._rep[self.key(p) | self.key(q)]

    def leq(self, p: Proposition, q: Proposition) -> bool:
        return not self.key(p) & ~self.key(q)


def quotient(universe: Sequence[Proposition], gamma: ConstraintSet) -> Quotient:
    """Quotient a closed universe by the congruence generated by gamma."""
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


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "&|()":
            tokens.append(ch)
            i += 1
        elif ch.isalnum():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}")
    return tokens


# Each level of parentheses costs the parser three stack frames.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[str], n: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expr(self) -> Proposition:
        p = self.term()
        while self.peek() == "|":
            self.take()
            p = join(p, self.term())
        return p

    def term(self) -> Proposition:
        p = self.factor()
        while self.peek() == "&":
            self.take()
            p = meet(p, self.factor())
        return p

    def factor(self) -> Proposition:
        tok = self.take()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            if self.take() != ")":
                raise ParseError("expected ')'")
            return p
        if tok == "bot":
            return bottom(self.n)
        if tok == "top":
            return top(self.n)
        digits = tok[1:]
        if tok.startswith("a") and digits.isascii() and digits.isdigit():
            # Compare lengths first: int() refuses strings of over 4300 digits.
            digits = digits.lstrip("0") or "0"
            if len(digits) > len(str(self.n)) or int(digits) >= self.n:
                raise ParseError(f"atom {tok!r} out of range for {self.n} atoms")
            return atom_prop(self.n, int(digits))
        raise ParseError(f"unexpected token {tok!r}")


def parse_proposition(text: str, n: int) -> Proposition:
    parser = _Parser(_tokenize(text), n)
    p = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input at token {parser.peek()!r}")
    return p


def format_proposition(p: Proposition) -> str:
    if p.is_bottom:
        return "bot"
    if p.is_top:
        return "top"
    parts = []
    for clause in sorted(prop_key(p)):
        lits = [f"a{i}" for i in clause]
        parts.append(" & ".join(lits) if len(p.clauses) == 1 or len(lits) == 1
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
