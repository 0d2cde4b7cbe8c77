"""Unit tests for the SQL lexer."""

import pytest

from repro.sql.lexer import LexError, TokenType, tokenize


def kinds(sql: str) -> list[TokenType]:
    return [t.type for t in tokenize(sql)]


def values(sql: str) -> list[str]:
    return [t.value for t in tokenize(sql)[:-1]]  # drop EOF


class TestBasics:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_whitespace_only(self):
        assert kinds("   \t\n ") == [TokenType.EOF]

    def test_keywords_are_case_insensitive(self):
        for text in ("select", "SELECT", "SeLeCt"):
            token = tokenize(text)[0]
            assert token.type is TokenType.KEYWORD
            assert token.value == "SELECT"

    def test_identifier_vs_keyword(self):
        tokens = tokenize("select selection")
        assert tokens[0].type is TokenType.KEYWORD
        assert tokens[1].type is TokenType.IDENTIFIER
        assert tokens[1].value == "selection"

    def test_identifier_with_underscore_and_digits(self):
        token = tokenize("attr_07x")[0]
        assert token.type is TokenType.IDENTIFIER
        assert token.value == "attr_07x"


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == "42"

    def test_float(self):
        token = tokenize("3.14")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == "3.14"

    def test_negative_number(self):
        token = tokenize("-7")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == "-7"

    def test_qualified_column_is_not_a_float(self):
        # ``t.c`` must lex as identifier DOT identifier, not a number.
        assert kinds("t.c")[:3] == [
            TokenType.IDENTIFIER,
            TokenType.DOT,
            TokenType.IDENTIFIER,
        ]

    def test_number_followed_by_dot_identifier(self):
        # "1.x" → number 1, dot, identifier x (not float).
        tokens = tokenize("1.x")
        assert tokens[0].value == "1"
        assert tokens[1].type is TokenType.DOT

    @pytest.mark.parametrize("text", ["1e-05", "1.5E+19", "-2.5e-07", "3e5"])
    def test_exponent_form_is_one_number(self, text):
        # What ``str(float)`` emits below 1e-4 and from 1e16 up.
        assert values(f"{text} , x") == [text, ",", "x"]
        assert kinds(text) == [TokenType.NUMBER, TokenType.EOF]

    def test_exponent_needs_digits(self):
        # "1e" / "1e+" are a number and then something else, as before.
        assert values("1e") == ["1", "e"]
        assert values("1ex") == ["1", "ex"]
        with pytest.raises(LexError):
            tokenize("1e+")


class TestStrings:
    def test_simple_string(self):
        token = tokenize("'hello'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "hello"

    def test_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_empty_string(self):
        token = tokenize("''")[0]
        assert token.type is TokenType.STRING
        assert token.value == ""


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<", ">", "<=", ">=", "!="])
    def test_operator(self, op):
        token = tokenize(op)[0]
        assert token.type is TokenType.OPERATOR
        assert token.value == op

    def test_angle_brackets_normalize_to_not_equal(self):
        token = tokenize("<>")[0]
        assert token.value == "!="

    def test_star_and_punctuation(self):
        assert kinds("*,()")[:4] == [
            TokenType.STAR,
            TokenType.COMMA,
            TokenType.LPAREN,
            TokenType.RPAREN,
        ]

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("select @")


class TestPositions:
    def test_positions_point_into_source(self):
        sql = "SELECT a FROM t"
        tokens = tokenize(sql)
        for token in tokens[:-1]:
            assert sql[token.position :].upper().startswith(
                token.value.upper()
            ) or token.type is TokenType.STRING

    def test_full_statement_token_stream(self):
        sql = "SELECT a, SUM(b) FROM t WHERE c = 5 GROUP BY a ORDER BY a DESC LIMIT 10"
        stream = values(sql)
        assert stream[0] == "SELECT"
        assert "GROUP" in stream and "ORDER" in stream and "LIMIT" in stream
