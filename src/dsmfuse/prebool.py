"""Free hyperpower sets over finite atom sets, and their constrained quotients.

A proposition over n atoms is a negation-free combination of the atoms under
conjunction and disjunction.  It is kept here in a canonical disjunctive form:
an inclusion-minimal antichain of clauses, each clause being the bitmask of
the atom indices it conjoins.  Two distinguished constants exist:

* BOTTOM -- the empty antichain (the empty disjunction),
* TOP    -- the antichain whose single clause is the empty conjunction.

Canonicalization deletes every clause that strictly contains another member,
so for instance ``a | (a & b)`` reduces to ``a``.  A family of clause sets
that contains the empty set alongside other sets likewise absorbs to TOP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Atom:
    """One atomic proposition: a contiguous index and a display label."""

    index: int
    label: str


def atoms(n: int) -> list[Atom]:
    """The standard universe a0..a{n-1}."""
    return [Atom(i, f"a{i}") for i in range(n)]


@dataclass(frozen=True)
class Proposition:
    """Canonical antichain of clauses over a fixed atom universe of size n.

    ``clauses`` is a frozenset of bitmasks; bit i of a clause means atom i is
    conjoined in it.  Instances are built through :func:`make_prop` or
    :func:`varphi`, which canonicalize.
    """

    n: int
    clauses: frozenset[int]

    @property
    def is_bottom(self) -> bool:
        return not self.clauses

    @property
    def is_top(self) -> bool:
        return self.clauses == frozenset({0})


def _minimal_antichain(masks: Iterable[int]) -> frozenset[int]:
    # Keep only the inclusion-minimal clauses.  Sorting by popcount lets each
    # candidate be checked against the already-kept (smaller) clauses only.
    kept: list[int] = []
    for c in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & c == k for k in kept):
            kept.append(c)
    return frozenset(kept)


def make_prop(n: int, masks: Iterable[int]) -> Proposition:
    """Build the canonical proposition with the given clause bitmasks."""
    for m in set(masks) if not isinstance(masks, (set, frozenset)) else masks:
        if m < 0 or m >> n:
            raise ValueError(f"clause {m:#x} references atoms outside [0, {n})")
    return Proposition(n, _minimal_antichain(masks))


def bottom(n: int) -> Proposition:
    return Proposition(n, frozenset())


def top(n: int) -> Proposition:
    return Proposition(n, frozenset({0}))


def atom_prop(n: int, i: int) -> Proposition:
    """The proposition consisting of the single atom ``a{i}``."""
    if not 0 <= i < n:
        raise ValueError(f"atom index {i} out of range [0, {n})")
    return Proposition(n, frozenset({1 << i}))


def varphi(n: int, sigma_family: Iterable[Iterable[int]]) -> Proposition:
    """Canonical disjunction-of-conjunctions for a family of atom subsets.

    The empty family gives BOTTOM; a family containing the empty subset
    absorbs everything else and gives TOP.
    """
    masks = []
    for sigma in sigma_family:
        mask = 0
        for i in sigma:
            if not 0 <= i < n:
                raise ValueError(f"atom index {i} out of range [0, {n})")
            mask |= 1 << i
        masks.append(mask)
    return Proposition(n, _minimal_antichain(masks))


def _check_same_universe(p: Proposition, q: Proposition) -> None:
    if p.n != q.n:
        raise ValueError(f"mixed atom universes: {p.n} vs {q.n}")


def meet(p: Proposition, q: Proposition) -> Proposition:
    """Conjunction: pairwise clause unions, re-canonicalized."""
    _check_same_universe(p, q)
    return Proposition(
        p.n, _minimal_antichain(s | g for s in p.clauses for g in q.clauses)
    )


def join(p: Proposition, q: Proposition) -> Proposition:
    """Disjunction: union of the clause sets, re-canonicalized."""
    _check_same_universe(p, q)
    return Proposition(p.n, _minimal_antichain(p.clauses | q.clauses))


def leq(p: Proposition, q: Proposition) -> bool:
    """Order test: p <= q iff meet(p, q) == p.

    On canonical forms this is equivalent to: every clause of p contains some
    clause of q (each conjunction of p implies one of q's disjuncts).
    """
    _check_same_universe(p, q)
    return all(any(d & c == d for d in q.clauses) for c in p.clauses)


def prop_key(p: Proposition) -> tuple[tuple[int, ...], ...]:
    """Deterministic total-order key: sorted tuple of sorted clause tuples."""
    return tuple(
        sorted(tuple(i for i in range(p.n) if c >> i & 1) for c in p.clauses)
    )


DEFAULT_ATOM_GUARD = 4


def enumerate_hyperpower(n: int, max_atoms: int = DEFAULT_ATOM_GUARD) -> list[Proposition]:
    """All distinct canonical propositions over n atoms, sorted.

    The count is the n-th Dedekind number (3, 6, 20, 168 for n = 1..4), which
    grows too fast for n > 5; ``max_atoms`` guards against runaway sizes.
    """
    if n < 1:
        raise ValueError("need at least one atom")
    if n > max_atoms:
        raise ValueError(f"n={n} exceeds the enumeration guard ({max_atoms})")
    masks = list(range(1 << n))
    out: list[Proposition] = []

    def extend(start: int, chosen: list[int]) -> None:
        out.append(Proposition(n, frozenset(chosen)))
        for i in range(start, len(masks)):
            m = masks[i]
            if any(c & m == c or c & m == m for c in chosen):
                continue
            chosen.append(m)
            extend(i + 1, chosen)
            chosen.pop()

    extend(0, [])
    return sorted(out, key=prop_key)


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


def truth_table(p: Proposition) -> int:
    """The 2^n-bit up-set table of p: bit S is set iff atom set S contains a clause.

    These are the join-irreducibles below p in the free distributive lattice
    (Birkhoff duality), so meet is ``&``, join is ``|`` and p <= q iff
    ``T(p) & ~T(q) == 0``.
    """
    up = _up_sets(p.n)
    table = 0
    for c in p.clauses:
        table |= up[c]
    return table


@lru_cache(maxsize=None)
def _up_sets(n: int) -> tuple[int, ...]:
    # up[c] has bit S set for every atom set S containing clause c.
    subsets = range(1 << n)
    return tuple(sum(1 << s for s in subsets if s & c == c) for c in subsets)


class Quotient:
    """A finite pre-Boolean algebra: a closed universe modulo a congruence.

    The congruence is the least equivalence containing the constraint pairs
    and compatible with meet and join.  Each element is held as its
    :func:`truth_table`.  Congruences of a finite distributive lattice are
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
        self._table = {p: truth_table(p) for p in self.universe}
        if len(self._table) != len(self.universe):
            raise ValueError("universe contains duplicate propositions")
        tables = list(self._table.values())
        outside = (
            {a & b for a in tables for b in tables}
            | {a | b for a in tables for b in tables}
        ) - set(tables)
        if outside:
            t = min(outside)
            p = make_prop(n, [s for s in range(1 << n) if t >> s & 1])
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


class _Parser:
    def __init__(self, tokens: list[str], n: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.n = n

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
            p = self.expr()
            if self.take() != ")":
                raise ParseError("expected ')'")
            return p
        if tok == "bot":
            return bottom(self.n)
        if tok == "top":
            return top(self.n)
        if tok.startswith("a") and tok[1:].isdigit():
            i = int(tok[1:])
            if i >= self.n:
                raise ParseError(f"atom {tok!r} out of range for {self.n} atoms")
            return atom_prop(self.n, i)
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
