"""Tokenizer for the SQL subset.

The lexer is intentionally small: the OLAP subset used by the workload
generator and the engines only needs identifiers, numeric and string
literals, comparison operators, punctuation, and a fixed keyword set.

One compiled pattern scans a query.  :func:`scan` writes the tokens into
three parallel columns — kinds, values, positions — which the parser
walks with an index; :func:`tokenize` zips them into :class:`Token`
objects for callers that want them.

The pattern's character classes are the ``str`` predicates, exactly and
for every code point: ``\\s`` is ``isspace``, ``\\w`` is ``isalnum`` or
``_``, and the digit class is ``\\d`` (``isdecimal``) plus the code
points that are ``isdigit`` but not decimal (superscripts, circled
digits, ...).  An identifier must start with ``isalpha`` or ``_``; a
``\\w`` run that starts otherwise is an unexpected character.
"""

from __future__ import annotations

import enum
import re
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


#: ``str.isdigit`` as a character class: ``\d`` plus the 128 digits
#: that are not decimal.
DIGIT = (
    r"[\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079"
    r"\u2080-\u2089\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea"
    r"\u24f5-\u24fd\u24ff\u2776-\u277e\u2780-\u2788\u278a-\u2792"
    r"\U00010a40-\U00010a43\U00010e60-\U00010e68\U00011052-\U0001105a"
    r"\U0001f100-\U0001f10a]"
)

# A number without its sign.  A dot is part of a number only when a
# digit follows (``t.c`` is a qualifier), and the exponent form
# (``1e-05``, ``1.5E+19``) is what ``str(float)`` emits, so the
# formatter's output lexes back to the same number.
_UNSIGNED = rf"{DIGIT}+(?:\.{DIGIT}+)?(?:[eE][+-]?{DIGIT}+)?"
# A string closes on a quote that no second quote follows (``''``
# escapes one).
_QUOTED = r"'[^']*(?:''[^']*)*'(?!')"

# Leading whitespace is folded into every match; ``scan`` stops the
# search before trailing whitespace, so every match is one token or one
# error.
_TOKEN = re.compile(
    rf"""\s*(?:
      (?P<NUMBER>-?{_UNSIGNED})
    | (?P<WORD>\w+)
    | (?P<DOT>\.) | (?P<COMMA>,) | (?P<LPAREN>\() | (?P<RPAREN>\))
    | (?P<OPERATOR>[<>!]=|<>|[<>=])
    | (?P<STRING>{_QUOTED})
    | (?P<STAR>\*)
    | (?P<ERROR>.)
    )""",
    re.VERBOSE | re.DOTALL,
)

#: The literal split: ``LITERALS.split(text)`` alternates the text
#: between literals with each literal's STRING and NUMBER groups —
#: ``[piece, string, number, piece, ..., piece]``, one of each pair
#: ``None``.  Searching instead of scanning, it never starts a number
#: inside a word (a digit after ``\w`` is the word's, as in ``attr_09``)
#: and steps over a string whole, so on any text :func:`scan` accepts,
#: the literals it finds are exactly the NUMBER and STRING tokens; and a
#: text that differs from such a text only inside those literals scans
#: to the same tokens around them.
LITERALS = re.compile(rf"({_QUOTED})|((?:-|(?<!\w)){_UNSIGNED})")

_KINDS = {kind.name: kind for kind in TokenType}
_KEYWORD, _IDENTIFIER, _STRING = TokenType.KEYWORD, TokenType.IDENTIFIER, TokenType.STRING


def scan(text: str) -> tuple[list[TokenType], list[str], list[int]]:
    """Scan ``text`` into ``(kinds, values, positions)`` columns, one entry
    per token, ending with an EOF entry at ``len(text)``.

    Raises :class:`LexError` on unknown characters or unterminated strings.
    """
    kinds: list[TokenType] = []
    values: list[str] = []
    positions: list[int] = []
    for match in _TOKEN.finditer(text, 0, len(text.rstrip())):
        group = match.lastgroup
        value = match[group]
        position = match.start(group)
        if group == "WORD":
            if not (value[0].isalpha() or value[0] == "_"):
                raise LexError(f"unexpected character {value[0]!r}", position)
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = _KEYWORD, upper
            else:
                kind = _IDENTIFIER
        elif group == "ERROR":
            if value == "'":
                raise LexError("unterminated string literal", position)
            raise LexError(f"unexpected character {value!r}", position)
        else:
            kind = _KINDS[group]
            if kind is _STRING:
                value = string_value(value)
            elif value == "<>":
                value = "!="
        kinds.append(kind)
        values.append(value)
        positions.append(position)
    kinds.append(TokenType.EOF)
    values.append("")
    positions.append(len(text))
    return kinds, values, positions


def string_value(token: str) -> str:
    """The value of a STRING token's source text: without its quotes,
    each ``''`` read as one quote."""
    return token[1:-1].replace("''", "'")


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list of tokens terminated by an EOF token.

    Raises :class:`LexError` on unknown characters or unterminated strings.
    """
    return list(map(Token, *scan(text)))
