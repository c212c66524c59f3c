"""Differential test: the regex-token parser against the hand-written one."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsmfuse import prebool as pb

import parser_oracle

# Grammar pieces, multi-digit atoms, constants, characters the grammar
# rejects, and letters and digits that str.isalnum accepts outside ASCII.
GRAMMAR_TEXT = st.lists(
    st.sampled_from(
        list("a0123&|()_#= \t\n") + ["a10", "a11", "bot", "top", "é", "٣", "²"]
    ),
    max_size=40,
).map("".join)


def outcome(parse, text, n):
    try:
        return "table", parse(text, n).table
    except pb.ParseError as exc:
        return "error", str(exc)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(GRAMMAR_TEXT, st.text(max_size=40)), st.sampled_from([1, 2, 4, 12]))
@example("(a0 a1", 2)
def test_parse_matches_the_hand_written_parser(text, n):
    assert outcome(pb.parse_proposition, text, n) == outcome(
        parser_oracle.parse_proposition, text, n
    )


@pytest.mark.parametrize("depth", [99, 100, 101, 5000])
@pytest.mark.parametrize("atom", ["a1", "a" + "9" * 4301, "a" + "0" * 4301 + "1"])
def test_deep_nesting_and_long_atoms_match(depth, atom):
    for text in ("(" * depth + atom + ")" * depth, "(" * depth + atom + " & a0"):
        assert outcome(pb.parse_proposition, text, 2) == outcome(
            parser_oracle.parse_proposition, text, 2
        )
