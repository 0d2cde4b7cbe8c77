"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    statement   := select | insert | update | delete
    select      := SELECT select_list FROM identifier join* where?
                   group_by? order_by? limit?
    insert      := INSERT INTO identifier '(' column (',' column)* ')'
                   VALUES values_row (',' values_row)*
    values_row  := '(' literal (',' literal)* ')'
    update      := UPDATE identifier SET assignment (',' assignment)* where?
    assignment  := column '=' literal
    delete      := DELETE FROM identifier where?
    select_list := '*' | select_item (',' select_item)*
    select_item := column | aggregate [AS identifier]
    aggregate   := FUNC '(' [DISTINCT] (column | '*') ')'
    join        := [INNER] JOIN identifier ON column '=' column
    where       := WHERE predicate (AND predicate)*
    predicate   := column (op literal | BETWEEN literal AND literal |
                   IN '(' literal (',' literal)* ')' | LIKE string |
                   IS [NOT] NULL)
    group_by    := GROUP BY column (',' column)*
    order_by    := ORDER BY column [ASC|DESC] (',' ...)*
    limit       := LIMIT number

Only conjunctions are supported in ``WHERE``; the workload generator never
emits ``OR`` and the optimizer cost model treats filters as independent
conjuncts, as is standard in what-if designers.
"""

from __future__ import annotations

from repro.sql.ast import (
    AGGREGATE_FUNCS,
    Aggregate,
    Assignment,
    BetweenPredicate,
    ColumnRef,
    ComparisonPredicate,
    DeleteStatement,
    InPredicate,
    InsertStatement,
    IsNullPredicate,
    Join,
    LikePredicate,
    Literal,
    OrderItem,
    PredicateType,
    SelectItem,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.sql.lexer import Token, TokenType, scan

_KEYWORD, _IDENTIFIER = TokenType.KEYWORD, TokenType.IDENTIFIER
_NUMBER, _STRING, _OPERATOR = TokenType.NUMBER, TokenType.STRING, TokenType.OPERATOR
_COMMA, _LPAREN, _RPAREN = TokenType.COMMA, TokenType.LPAREN, TokenType.RPAREN
_DOT, _STAR, _EOF = TokenType.DOT, TokenType.STAR, TokenType.EOF

_KEYWORD_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}


class ParseError(ValueError):
    """Raised when the token stream does not match the grammar."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} (at position {token.position}, near {token.value!r})")
        self.token = token


class _Parser:
    """Recursive descent over :func:`~repro.sql.lexer.scan`'s token columns.

    ``i`` is the cursor.  It never moves past the EOF entry: every step
    over a token first checks that token's kind.  A :class:`Token` is
    built only for a :class:`ParseError`.
    """

    __slots__ = ("kinds", "values", "positions", "i")

    def __init__(self, text: str):
        self.kinds, self.values, self.positions = scan(text)
        self.i = 0

    # -- cursor helpers --------------------------------------------------------

    def _error(self, message: str, at: int | None = None) -> ParseError:
        """A :class:`ParseError` near token ``at`` (default: the cursor)."""
        i = self.i if at is None else at
        return ParseError(message, Token(self.kinds[i], self.values[i], self.positions[i]))

    def _keyword(self) -> str | None:
        """The next token's keyword, or ``None`` if it is not a keyword."""
        i = self.i
        return self.values[i] if self.kinds[i] is _KEYWORD else None

    def _match(self, keyword: str) -> bool:
        """Step over ``keyword`` if it is next."""
        i = self.i
        if self.values[i] == keyword and self.kinds[i] is _KEYWORD:
            self.i = i + 1
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._match(keyword):
            raise self._error(f"expected {keyword}")

    def _accept(self, kind: TokenType) -> bool:
        """Step over the next token if it is of ``kind``."""
        if self.kinds[self.i] is kind:
            self.i += 1
            return True
        return False

    def _expect(self, kind: TokenType) -> str:
        """Step over the next token, which must be of ``kind``; its value."""
        i = self.i
        if self.kinds[i] is not kind:
            raise self._error(f"expected {kind.value}")
        self.i = i + 1
        return self.values[i]

    def _expect_eof(self) -> None:
        if self.kinds[self.i] is not _EOF:
            raise self._error("unexpected trailing input")

    def _list(self, item) -> list:
        """``item (',' item)*``."""
        items = [item()]
        while self._accept(_COMMA):
            items.append(item())
        return items

    # -- grammar productions ---------------------------------------------------

    def parse_statement(self) -> Statement:
        if self._match("INSERT"):
            return self._parse_insert()
        if self._match("UPDATE"):
            return self._parse_update()
        if self._match("DELETE"):
            return self._parse_delete()
        return self._parse_select()

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        select_star = self._accept(_STAR)
        items = [] if select_star else self._list(self._parse_select_item)
        self._expect_keyword("FROM")
        table = self._expect(_IDENTIFIER)

        joins: list[Join] = []
        while self._keyword() in ("JOIN", "INNER"):
            joins.append(self._parse_join())

        where = self._parse_where() if self._match("WHERE") else ()

        group_by: tuple[ColumnRef, ...] = ()
        if self._match("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._list(self._parse_column))

        order_by: tuple[OrderItem, ...] = ()
        if self._match("ORDER"):
            self._expect_keyword("BY")
            order_by = tuple(self._list(self._parse_order_item))

        limit: int | None = None
        if self._match("LIMIT"):
            at = self.i
            text = self._expect(_NUMBER)
            try:
                limit = limit_value(text)
            except OverflowError:  # ``1e400`` reads as infinity
                raise self._error("LIMIT out of range", at) from None

        self._expect_eof()

        return SelectStatement(
            select=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            select_star=select_star,
        )

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("INTO")
        table = self._expect(_IDENTIFIER)
        self._expect(_LPAREN)
        columns = self._list(self._parse_column)
        self._expect(_RPAREN)
        self._expect_keyword("VALUES")
        rows = self._list(lambda: self._parse_values_row(len(columns)))
        self._expect_eof()
        return InsertStatement(
            table=table, columns=tuple(columns), rows=tuple(rows)
        )

    def _parse_values_row(self, width: int) -> tuple[Literal, ...]:
        opener = self.i
        self._expect(_LPAREN)
        values = self._list(self._parse_literal)
        self._expect(_RPAREN)
        if len(values) != width:
            raise self._error(
                f"VALUES row has {len(values)} values for {width} columns", opener
            )
        return tuple(values)

    def _parse_update(self) -> UpdateStatement:
        table = self._expect(_IDENTIFIER)
        self._expect_keyword("SET")
        assignments = self._list(self._parse_assignment)
        where = self._parse_where() if self._match("WHERE") else ()
        self._expect_eof()
        return UpdateStatement(
            table=table, assignments=tuple(assignments), where=where
        )

    def _parse_assignment(self) -> Assignment:
        column = self._parse_column()
        if self._expect(_OPERATOR) != "=":
            raise self._error("expected = in SET assignment", self.i - 1)
        return Assignment(column=column, value=self._parse_literal())

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("FROM")
        table = self._expect(_IDENTIFIER)
        where = self._parse_where() if self._match("WHERE") else ()
        self._expect_eof()
        return DeleteStatement(table=table, where=where)

    def _parse_select_item(self) -> SelectItem:
        expr: ColumnRef | Aggregate
        if self._keyword() in AGGREGATE_FUNCS:
            expr = self._parse_aggregate()
        else:
            expr = self._parse_column()
        alias = self._expect(_IDENTIFIER) if self._match("AS") else None
        return SelectItem(expr=expr, alias=alias)

    def _parse_aggregate(self) -> Aggregate:
        func = self.values[self.i]
        self.i += 1
        self._expect(_LPAREN)
        distinct = self._match("DISTINCT")
        column: ColumnRef | None = None
        if self._accept(_STAR):
            if func != "COUNT":
                raise self._error(f"{func}(*) is not valid")
        else:
            column = self._parse_column()
        self._expect(_RPAREN)
        return Aggregate(func=func, column=column, distinct=distinct)

    def _parse_column(self) -> ColumnRef:
        first = self._expect(_IDENTIFIER)
        if self._accept(_DOT):
            return ColumnRef(self._expect(_IDENTIFIER), first)
        return ColumnRef(first)

    def _parse_order_item(self) -> OrderItem:
        column = self._parse_column()
        ascending = not self._match("DESC")
        if ascending:
            self._match("ASC")
        return OrderItem(column=column, ascending=ascending)

    def _parse_join(self) -> Join:
        self._match("INNER")
        self._expect_keyword("JOIN")
        table = self._expect(_IDENTIFIER)
        self._expect_keyword("ON")
        left = self._parse_column()
        if self._expect(_OPERATOR) != "=":
            raise self._error("only equi-joins are supported", self.i - 1)
        return Join(table=table, left=left, right=self._parse_column())

    def _parse_where(self) -> tuple[PredicateType, ...]:
        predicates = [self._parse_predicate()]
        while self._match("AND"):
            predicates.append(self._parse_predicate())
        if self._keyword() == "OR":
            raise self._error("OR is not supported in this subset")
        return tuple(predicates)

    def _parse_predicate(self) -> PredicateType:
        column = self._parse_column()
        i = self.i
        if self.kinds[i] is _OPERATOR:
            self.i = i + 1
            value = self._parse_literal()
            return ComparisonPredicate(column=column, op=self.values[i], value=value)
        if self._match("BETWEEN"):
            low = self._parse_literal()
            self._expect_keyword("AND")
            return BetweenPredicate(column=column, low=low, high=self._parse_literal())
        if self._match("IN"):
            self._expect(_LPAREN)
            values = self._list(self._parse_literal)
            self._expect(_RPAREN)
            return InPredicate(column=column, values=tuple(values))
        if self._match("LIKE"):
            return LikePredicate(column=column, pattern=self._expect(_STRING))
        if self._match("IS"):
            negated = self._match("NOT")
            self._expect_keyword("NULL")
            return IsNullPredicate(column=column, negated=negated)
        raise self._error("expected a predicate operator")

    def _parse_literal(self) -> Literal:
        i = self.i
        kind, text = self.kinds[i], self.values[i]
        if kind is _NUMBER:
            self.i = i + 1
            return Literal(number_value(text))
        if kind is _STRING:
            self.i = i + 1
            return Literal(text)
        if kind is _KEYWORD and text in _KEYWORD_LITERALS:
            self.i = i + 1
            return Literal(_KEYWORD_LITERALS[text])
        raise self._error("expected a literal")


# The two conversions of a NUMBER token's text, shared with the query
# profiler, which binds a text's literals to a plan of its shape and must
# read each literal as a parse of the text would.


def number_value(text: str) -> int | float:
    """A NUMBER literal's value: a float when the text has a dot or an
    exponent, else an int."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def limit_value(text: str) -> int:
    """A LIMIT's row count; ``OverflowError`` when the number reads as
    infinity (``1e400``)."""
    return int(float(text))


def parse(sql: str) -> Statement:
    """Parse ``sql`` into an AST statement (SELECT or INSERT/UPDATE/DELETE).

    Raises :class:`ParseError` (or :class:`~repro.sql.lexer.LexError`) on
    malformed input.
    """
    return _Parser(sql).parse_statement()
