"""The SQL front end's observable behaviour, frozen as two digests.

A seeded corpus of more than 50 000 strings — generated trace queries,
single-character mutations and truncations of them, keyword token soup
and random strings over the number / operator / Unicode edge alphabet —
goes through :func:`tokenize` and :func:`parse`.  Each string's outcome
is the token list as ``(type, value, position)`` tuples (or the AST
``repr``), or ``(exception type, message)``; the digests below were
recorded from the per-character lexer and the token-object parser that
the compiled scanner replaced, so any token, AST or error message that
moves fails here.

The scanner's character classes are also checked against the ``str``
predicates over every code point, so a Unicode table change between
Python versions cannot split the two.  (The corpus itself stays inside
characters whose properties no Unicode version has changed.)
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from functools import lru_cache

import pytest

from repro.harness.experiments import ExperimentContext, ExperimentScale
from repro.sql.lexer import DIGIT, LITERALS, LexError, TokenType, scan, string_value, tokenize
from repro.sql.parser import parse

TOKENIZE_DIGEST = "7ab15be515fe1dd2e45463ef51e1b45c"
PARSE_DIGEST = "30d110a51f1ef35d046a266f6a5725ef"
CORPUS_SIZE = 55_795

#: Random-string alphabet: number, operator and quoting edges plus a
#: tab, a no-break space, non-decimal digits (``²``, ``①``), a numeric
#: non-digit (``½``), and letters outside ASCII (``ſ`` upper-cases to S).
EDGE_ALPHABET = "abc_.0123456789'%()=<>,*-!eE+ \t\xa0²①½ſé一"

SOUP = (
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "GROUP", "ORDER", "BY",
    "LIMIT", "JOIN", "INNER", "ON", "AS", "IN", "LIKE", "IS", "NULL", "BETWEEN",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "COUNT", "SUM",
    "AVG", "MIN", "MAX", "DISTINCT", "TRUE", "FALSE", "ASC", "DESC",
    "select", "t", "a", "t.a", "u.b", ",", "(", ")", "*", ".", "=", "<", ">=",
    "<>", "!=", "5", "-3", "2.5", "1e-05", "'x'", "'it''s'", "''",
)


#: Hand-written statements that reach every production's error branch;
#: the corpus holds each of them and every prefix of it.
EDGE_STATEMENTS = (
    "SELECT a FROM t WHERE a = 1 OR b = 2",
    "SELECT SUM(*) FROM t",
    "SELECT COUNT(DISTINCT *), MIN(DISTINCT t.a) AS m FROM t",
    "SELECT a FROM t WHERE a LIKE 5 AND b IS NOT 5 AND c IN ()",
    "SELECT a AS FROM t ORDER BY a ASC DESC",
    "SELECT a FROM t INNER JOIN u ON t.k <= u.k JOIN v ON t.k = v.k",
    "SELECT a FROM t WHERE a BETWEEN 1 OR 2 AND b = NULL AND c != TRUE",
    "SELECT a FROM t GROUP BY a, t. ORDER BY b LIMIT 'x'",
    "SELECT a FROM t LIMIT 1.9",
    "SELECT a FROM t LIMIT -2.5e+3",
    "UPDATE t SET a < 1, b = 'x' WHERE c >= -1.5e-07",
    "UPDATE t SET a = FALSE, b = NULL WHERE c <> 1 AND d IS NULL",
    "INSERT INTO t (a, b) VALUES (1, 2), (3)",
    "INSERT INTO t (a, t.b) VALUES (1, 'it''s'), (NULL, TRUE) , ",
    "DELETE FROM t WHERE a = 1 AND",
    "DELETE t WHERE a = 1",
)


@lru_cache(maxsize=None)
def corpus() -> tuple[str, ...]:
    rng = random.Random(20150531)
    context = ExperimentContext(
        ExperimentScale(days=56, queries_per_day=30, seed=1, legacy_tables=8)
    )
    queries: list[str] = []
    for family in ("R1", "HTAP", "ECOMMERCE"):
        queries.extend(dict.fromkeys(q.sql for q in context.trace(family)))
    strings = list(queries)
    for sql in EDGE_STATEMENTS:
        strings.extend(sql[:end] for end in range(len(sql) + 1))
    mutation_alphabet = EDGE_ALPHABET + "ASTDLIMx;@"
    for sql in queries:
        for _ in range(7):
            at = rng.randrange(len(sql))
            how = rng.randrange(4)
            if how == 0:
                strings.append(sql[:at] + rng.choice(mutation_alphabet) + sql[at + 1 :])
            elif how == 1:
                strings.append(sql[:at] + rng.choice(mutation_alphabet) + sql[at:])
            elif how == 2:
                strings.append(sql[:at] + sql[at + 1 :])
            else:
                strings.append(sql[:at])
    for _ in range(6_000):
        # Half the soup opens like a statement, so it gets past the
        # first production and reaches the deeper error messages.
        words = [rng.choice(SOUP) for _ in range(rng.randrange(1, 16))]
        if rng.random() < 0.5:
            words.insert(0, rng.choice(("SELECT", "SELECT a FROM t", "UPDATE t SET",
                                        "DELETE FROM t WHERE", "INSERT INTO t (a)")))
        strings.append(" ".join(words))
    for _ in range(10_000):
        strings.append(
            "".join(rng.choice(EDGE_ALPHABET) for _ in range(rng.randrange(0, 40)))
        )
    return tuple(strings)


def _outcome(fn, text: str):
    try:
        return fn(text)
    except Exception as error:  # the exception type is part of the outcome
        return type(error).__name__, str(error)


def _tokens(text: str):
    return [(token.type.name, token.value, token.position) for token in tokenize(text)]


def _ast(text: str) -> str:
    return repr(parse(text))


def _digest(outcomes) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for outcome in outcomes:
        digest.update(repr(outcome).encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()


def test_corpus_size():
    assert len(corpus()) == CORPUS_SIZE >= 50_000


def test_tokenize_outcomes_unchanged():
    assert _digest(_outcome(_tokens, text) for text in corpus()) == TOKENIZE_DIGEST


def test_parse_outcomes_unchanged():
    assert _digest(_outcome(_ast, text) for text in corpus()) == PARSE_DIGEST


# -- the literal split the query profiler keys shapes by ------------------------------


def _scanned(text: str):
    """``scan``'s ``(kinds, values)``, or ``None`` for a text it rejects."""
    try:
        kinds, values, _ = scan(text)
    except LexError:
        return None
    return kinds, values


def _split_literals(parts: list) -> list[tuple[TokenType, str]]:
    return [
        (TokenType.STRING, string_value(string))
        if string is not None
        else (TokenType.NUMBER, number)
        for string, number in zip(parts[1::3], parts[2::3])
    ]


def _shape(parts: list) -> tuple:
    return tuple(parts[0::3]), tuple(map(bool, parts[1::3]))


def _with_literals(parts: list, number: str, string: str) -> str:
    """The split text with every number and every string replaced."""
    out = list(parts)
    for k in range(len(parts) // 3):
        is_string = parts[3 * k + 1] is not None
        out[3 * k + 1 : 3 * k + 3] = [string if is_string else number, None]
    return "".join(part for part in out if part is not None)


def test_literal_split_finds_the_scanned_literals():
    """On every text the scanner accepts, ``LITERALS`` finds exactly its
    NUMBER and STRING tokens, in order (the number in ``5-3``, none in
    ``attr_09``, a string's digits and quotes inside the string)."""
    checked = 0
    for text in corpus():
        scanned = _scanned(text)
        if scanned is None:
            continue
        literals = [
            (kind, value)
            for kind, value in zip(*scanned)
            if kind in (TokenType.NUMBER, TokenType.STRING)
        ]
        assert _split_literals(LITERALS.split(text)) == literals, text
        checked += 1
    assert checked > 40_000


@pytest.mark.parametrize("number,string", [("7", "'q'"), ("-1.5e3", "'1 ''2'''")])
def test_a_shape_scans_alike_whatever_its_literals(number, string):
    """A text with the shape of one the scanner accepts — the same text
    between the literals, the same literal kinds — scans to the same
    tokens around its literals."""
    literal = (TokenType.NUMBER, TokenType.STRING)
    for text in corpus():
        scanned = _scanned(text)
        if scanned is None:
            continue
        parts = LITERALS.split(text)
        other = _with_literals(parts, number, string)
        if _shape(LITERALS.split(other)) != _shape(parts):
            continue
        kinds, values = _scanned(other)
        assert kinds == scanned[0], text
        assert [v for k, v in zip(kinds, values) if k not in literal] == [
            v for k, v in zip(*scanned) if k not in literal
        ], text


# -- character classes, over every code point -----------------------------------------


@lru_cache(maxsize=None)
def code_points() -> str:
    return "".join(map(chr, range(sys.maxunicode + 1)))


def _members(pattern: str) -> set[str]:
    return set(re.findall(pattern, code_points()))


def _where(predicate) -> set[str]:
    return {c for c in code_points() if predicate(c)}


def _scan_kind(text: str) -> str:
    try:
        kinds, values, _ = scan(text)
    except LexError:
        return "error"
    if len(kinds) == 1:
        return "nothing"
    return kinds[0].name if len(kinds) == 2 and len(values[0]) == len(text) else "split"


@pytest.fixture(scope="module")
def word_characters() -> set[str]:
    return _where(lambda c: c.isalnum() or c == "_")


class TestCharacterClasses:
    """The pattern is built from ``\\s``, :data:`DIGIT` and ``\\w``; each is
    its ``str`` predicate exactly, and a scan of every member lands where
    the predicate says."""

    def test_space_is_isspace(self):
        spaces = _where(str.isspace)
        assert _members(r"\s") == spaces
        assert {_scan_kind(c) for c in spaces} == {"nothing"}
        assert {_scan_kind(f"x{c}y") for c in spaces} == {"split"}

    def test_digit_is_isdigit(self):
        digits = _where(str.isdigit)
        assert _members(DIGIT) == digits
        assert {_scan_kind(c) for c in digits} == {"NUMBER"}
        assert {_scan_kind(f"1{c}") for c in digits} == {"NUMBER"}

    def test_word_is_isalnum_or_underscore(self, word_characters):
        assert _members(r"\w") == word_characters
        # No keyword starts with X, so every ``x`` + word character is one
        # identifier.
        assert {_scan_kind(f"x{c}") for c in word_characters} == {"IDENTIFIER"}

    def test_identifier_start_is_isalpha_or_underscore(self, word_characters):
        starts = {c for c in word_characters if _scan_kind(c) == "IDENTIFIER"}
        assert starts == _where(lambda c: c.isalpha() or c == "_")
        others = {_scan_kind(c) for c in word_characters - starts}
        assert others == {"NUMBER", "error"}
