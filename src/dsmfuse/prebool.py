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


@dataclass(frozen=True)
class Atom:
    """One atomic proposition: a contiguous index and a display label."""

    index: int
    label: str


def atoms(n: int) -> list[Atom]:
    """The standard universe a0..a{n-1}."""
    return [Atom(i, f"a{i}") for i in range(n)]


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
        up, t = _up_sets(self.n), self.table
        # S is covered when S minus some atom i is already in the table:
        # shifting the sets that lack i by 2^i adds i to each of them.
        covered = 0
        for i in range(self.n):
            covered |= (t & ~up[1 << i]) << (1 << i)
        minimal = t & ~covered
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
    up = _up_sets(n)
    table = 0
    for sigma in sigma_family:
        mask = 0
        for i in sigma:
            if not 0 <= i < n:
                raise ValueError(f"atom index {i} out of range [0, {n})")
            mask |= 1 << i
        table |= up[mask]
    return Proposition(n, table)


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

    Every up-set is a union of principal up-sets, so closing ``{BOTTOM}``
    under ``t | up[c]`` for each clause c in turn reaches all of them.  The
    count is the n-th Dedekind number (3, 6, 20, 168 for n = 1..4), which
    grows too fast for n > 5; ``max_atoms`` guards against runaway sizes.
    """
    if n < 1:
        raise ValueError("need at least one atom")
    if n > max_atoms:
        raise ValueError(f"n={n} exceeds the enumeration guard ({max_atoms})")
    tables = {0}
    for u in _up_sets(n):
        tables |= {t | u for t in tables}
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
    and compatible with meet and join.  Each element is held as its truth
    table ``T = p.table``.  Congruences of a finite distributive lattice are
    Boolean on its join-irreducibles (Birkhoff; Grätzer, *Lattice Theory:
    Foundation*, §II.3), so the least one holding the pairs is the single mask
    ``M = OR of T(p) ^ T(q)`` over them: x and y are congruent iff
    ``T(x) & ~M == T(y) & ~M``.  A closed universe smaller than the free
    algebra is a sublattice of it, and distributive lattices have the
    congruence extension property, so the mask still gives its least
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
        # Maps each member to its table; the lookup also rejects foreign
        # elements, whose tables may well collide with members' keys.
        self._table = {p: p.table for p in self.universe}
        if len(self._table) != len(self.universe):
            raise ValueError("universe contains duplicate propositions")
        tables = list(self._table.values())
        outside = (
            {a & b for a in tables for b in tables}
            | {a | b for a in tables for b in tables}
        ) - set(tables)
        if outside:
            p = Proposition(n, min(outside))
            raise ValueError(
                f"proposition {format_proposition(p)} is outside the universe"
            )

        mask = 0
        for p, q in gamma.pairs:
            try:
                mask |= self._table[p] ^ self._table[q]
            except KeyError:
                raise self._outside(p, q) from None
        self._keep = keep = ~mask

        members: dict[int, list[Proposition]] = {}
        for p in self.universe:
            members.setdefault(self._table[p] & keep, []).append(p)
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

    # The operations index the tables inline: they are the hot path of belief
    # fusion, and a helper call per operand costs more than the work.

    def class_of(self, p: Proposition) -> Proposition:
        """Representative of p's congruence class."""
        try:
            return self._rep[self._table[p] & self._keep]
        except KeyError:
            raise self._outside(p) from None

    def meet(self, p: Proposition, q: Proposition) -> Proposition:
        t = self._table
        try:
            return self._rep[t[p] & t[q] & self._keep]
        except KeyError:
            raise self._outside(p, q) from None

    def join(self, p: Proposition, q: Proposition) -> Proposition:
        t = self._table
        try:
            return self._rep[(t[p] | t[q]) & self._keep]
        except KeyError:
            raise self._outside(p, q) from None

    def leq(self, p: Proposition, q: Proposition) -> bool:
        t = self._table
        try:
            return not t[p] & ~t[q] & self._keep
        except KeyError:
            raise self._outside(p, q) from None

    def rank(self, p: Proposition) -> int:
        """``popcount(T(p) & ~M)``.  p < q makes p's class key a proper subset
        of q's, so sorting by rank is a linear extension of the order."""
        try:
            return (self._table[p] & self._keep).bit_count()
        except KeyError:
            raise self._outside(p) from None

    def _outside(self, *props: Proposition) -> ValueError:
        foreign = next(p for p in props if p not in self._table)
        return ValueError(
            f"proposition {format_proposition(foreign)} is outside the universe"
        )


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
