"""The hand-written proposition parser that ``prebool`` used before its
tokens came from one regular expression.

``_tokenize`` scans the text one character at a time, and ``_Parser`` is a
recursive-descent parser that keeps its position and nesting depth as state.
``prebool.parse_proposition`` must return the same table, or raise
``ParseError`` with the same text, on every input.
"""

from dsmfuse.prebool import (
    MAX_NESTING,
    ParseError,
    Proposition,
    atom_prop,
    bottom,
    join,
    meet,
    top,
)


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
