"""Tokenizer for the SQL subset.

The lexer is intentionally small: the OLAP subset used by the workload
generator and the engines only needs identifiers, numeric and string
literals, comparison operators, punctuation, and a fixed keyword set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Keywords recognized by the parser.  Matched case-insensitively and
#: reported upper-case in :attr:`Token.value`.
KEYWORDS = frozenset(
    {
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "ORDER",
        "BY",
        "ASC",
        "DESC",
        "LIMIT",
        "AND",
        "OR",
        "NOT",
        "BETWEEN",
        "IN",
        "LIKE",
        "IS",
        "NULL",
        "JOIN",
        "INNER",
        "ON",
        "AS",
        "INSERT",
        "INTO",
        "VALUES",
        "UPDATE",
        "SET",
        "DELETE",
        "COUNT",
        "SUM",
        "AVG",
        "MIN",
        "MAX",
        "DISTINCT",
        "TRUE",
        "FALSE",
    }
)


class TokenType(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    COMMA = "comma"
    LPAREN = "lparen"
    RPAREN = "rparen"
    DOT = "dot"
    STAR = "star"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position (for error messages)."""

    type: TokenType
    value: str
    position: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r}, pos={self.position})"


class LexError(ValueError):
    """Raised when the input contains a character the lexer cannot handle."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_OPERATOR_STARTS = "<>=!"


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list of tokens terminated by an EOF token.

    Raises :class:`LexError` on unknown characters or unterminated strings.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ",":
            tokens.append(Token(TokenType.COMMA, ",", i))
            i += 1
        elif ch == "(":
            tokens.append(Token(TokenType.LPAREN, "(", i))
            i += 1
        elif ch == ")":
            tokens.append(Token(TokenType.RPAREN, ")", i))
            i += 1
        elif ch == "*":
            tokens.append(Token(TokenType.STAR, "*", i))
            i += 1
        elif ch == ".":
            tokens.append(Token(TokenType.DOT, ".", i))
            i += 1
        elif ch == "'":
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise LexError("unterminated string literal", i)
                if text[j] == "'":
                    # '' escapes a single quote inside a string literal.
                    if j + 1 < n and text[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(Token(TokenType.STRING, "".join(parts), i))
            i = j + 1
        elif ch in _OPERATOR_STARTS:
            if i + 1 < n and text[i : i + 2] in ("<=", ">=", "<>", "!="):
                op = text[i : i + 2]
                tokens.append(Token(TokenType.OPERATOR, "!=" if op == "<>" else op, i))
                i += 2
            elif ch in "<>=":
                tokens.append(Token(TokenType.OPERATOR, ch, i))
                i += 1
            else:
                raise LexError(f"unexpected character {ch!r}", i)
        elif ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                # A dot is part of the number only when followed by a digit;
                # otherwise it is a qualifier dot (``t.c``).
                if text[j] == ".":
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            # Exponent form (``1e-05``, ``1.5E+19``): what ``str(float)``
            # emits below 1e-4 and from 1e16 up, so the formatter's
            # output lexes back to the same number.
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(Token(TokenType.NUMBER, text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, i))
            i = j
        else:
            raise LexError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens
