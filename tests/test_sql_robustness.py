"""Robustness fuzzing for the SQL front end.

The designers feed arbitrary historical query text through the parser; it
must fail *predictably* (ValueError subclasses), never with unexpected
exception types, hangs, or crashes.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sql.lexer import LexError, tokenize
from repro.sql.parser import ParseError, parse


class TestFuzz:
    @given(st.text(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_crashes_unexpectedly(self, text):
        try:
            parse(text)
        except (ParseError, LexError, ValueError):
            pass  # the contract: malformed input raises ValueError family

    @given(
        st.lists(
            st.sampled_from(
                ["SELECT", "FROM", "WHERE", "a", "t", ",", "(", ")", "*",
                 "=", "5", "'x'", "AND", "GROUP", "BY", "ORDER", "LIMIT"]
            ),
            max_size=20,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_token_soup_never_crashes_unexpectedly(self, tokens):
        try:
            parse(" ".join(tokens))
        except (ParseError, LexError, ValueError):
            pass

    # Number, operator and character-class edges: signs and exponents,
    # ``!`` without ``=``, a tab and a no-break space, digits that are not
    # decimal (``²``, ``①``), a numeric non-digit (``½``), and letters
    # outside ASCII (``ſ`` upper-cases to S).
    @given(st.text(alphabet="abc_.0123456789'% ()=<>,*-!eE+\t\xa0²①½ſé一", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_lexer_total_on_charset(self, text):
        try:
            tokenize(text)
        except LexError:
            pass

    @given(
        st.sampled_from(
            ["SELECT a FROM t", "SELECT COUNT(*) FROM t WHERE x = 1 ORDER BY a DESC"]
        ),
        st.from_regex(r"[0-9]{1,4}[eE][+-]?[0-9]{1,4}", fullmatch=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_exponent_limit_parses_or_raises_parse_error(self, query, number):
        sql = f"{query} LIMIT {number}"
        try:
            stmt = parse(sql)
        except ParseError as error:
            # Only a LIMIT beyond float range is refused, at the number.
            assert float(number) == float("inf")
            assert error.token.position == sql.rindex(number)
        else:
            assert stmt.limit == int(float(number))
