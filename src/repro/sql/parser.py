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
from repro.sql.lexer import Token, TokenType, tokenize


class ParseError(ValueError):
    """Raised when the token stream does not match the grammar."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} (at position {token.position}, near {token.value!r})")
        self.token = token


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token-stream helpers -------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        return token.type is TokenType.KEYWORD and token.value in keywords

    def _match_keyword(self, *keywords: str) -> Token | None:
        if self._check_keyword(*keywords):
            return self._advance()
        return None

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._match_keyword(keyword)
        if token is None:
            raise ParseError(f"expected {keyword}", self._peek())
        return token

    def _expect(self, token_type: TokenType) -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise ParseError(f"expected {token_type.value}", token)
        return self._advance()

    # -- grammar productions ---------------------------------------------------

    def parse_statement(self) -> Statement:
        if self._check_keyword("INSERT"):
            return self._parse_insert()
        if self._check_keyword("UPDATE"):
            return self._parse_update()
        if self._check_keyword("DELETE"):
            return self._parse_delete()
        return self._parse_select()

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        select_star = False
        items: list[SelectItem] = []
        if self._peek().type is TokenType.STAR:
            self._advance()
            select_star = True
        else:
            items.append(self._parse_select_item())
            while self._peek().type is TokenType.COMMA:
                self._advance()
                items.append(self._parse_select_item())

        self._expect_keyword("FROM")
        table = self._expect(TokenType.IDENTIFIER).value

        joins: list[Join] = []
        while self._check_keyword("JOIN", "INNER"):
            joins.append(self._parse_join())

        where: tuple[PredicateType, ...] = ()
        if self._match_keyword("WHERE"):
            where = self._parse_where()

        group_by: tuple[ColumnRef, ...] = ()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._parse_column_list())

        order_by: tuple[OrderItem, ...] = ()
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = tuple(self._parse_order_list())

        limit: int | None = None
        if self._match_keyword("LIMIT"):
            limit_token = self._expect(TokenType.NUMBER)
            limit = int(float(limit_token.value))

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

    def _expect_eof(self) -> None:
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError("unexpected trailing input", token)

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect(TokenType.IDENTIFIER).value
        self._expect(TokenType.LPAREN)
        columns = [self._parse_column()]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            columns.append(self._parse_column())
        self._expect(TokenType.RPAREN)
        self._expect_keyword("VALUES")
        rows = [self._parse_values_row(len(columns))]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            rows.append(self._parse_values_row(len(columns)))
        self._expect_eof()
        return InsertStatement(
            table=table, columns=tuple(columns), rows=tuple(rows)
        )

    def _parse_values_row(self, width: int) -> tuple[Literal, ...]:
        opener = self._expect(TokenType.LPAREN)
        values = [self._parse_literal()]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            values.append(self._parse_literal())
        self._expect(TokenType.RPAREN)
        if len(values) != width:
            raise ParseError(
                f"VALUES row has {len(values)} values for {width} columns", opener
            )
        return tuple(values)

    def _parse_update(self) -> UpdateStatement:
        self._expect_keyword("UPDATE")
        table = self._expect(TokenType.IDENTIFIER).value
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            assignments.append(self._parse_assignment())
        where: tuple[PredicateType, ...] = ()
        if self._match_keyword("WHERE"):
            where = self._parse_where()
        self._expect_eof()
        return UpdateStatement(
            table=table, assignments=tuple(assignments), where=where
        )

    def _parse_assignment(self) -> Assignment:
        column = self._parse_column()
        op = self._expect(TokenType.OPERATOR)
        if op.value != "=":
            raise ParseError("expected = in SET assignment", op)
        value = self._parse_literal()
        return Assignment(column=column, value=value)

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect(TokenType.IDENTIFIER).value
        where: tuple[PredicateType, ...] = ()
        if self._match_keyword("WHERE"):
            where = self._parse_where()
        self._expect_eof()
        return DeleteStatement(table=table, where=where)

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        expr: ColumnRef | Aggregate
        if token.type is TokenType.KEYWORD and token.value in AGGREGATE_FUNCS:
            expr = self._parse_aggregate()
        else:
            expr = self._parse_column()
        alias: str | None = None
        if self._match_keyword("AS"):
            alias = self._expect(TokenType.IDENTIFIER).value
        return SelectItem(expr=expr, alias=alias)

    def _parse_aggregate(self) -> Aggregate:
        func = self._advance().value
        self._expect(TokenType.LPAREN)
        distinct = self._match_keyword("DISTINCT") is not None
        column: ColumnRef | None
        if self._peek().type is TokenType.STAR:
            self._advance()
            column = None
            if func != "COUNT":
                raise ParseError(f"{func}(*) is not valid", self._peek())
        else:
            column = self._parse_column()
        self._expect(TokenType.RPAREN)
        return Aggregate(func=func, column=column, distinct=distinct)

    def _parse_column(self) -> ColumnRef:
        first = self._expect(TokenType.IDENTIFIER).value
        if self._peek().type is TokenType.DOT:
            self._advance()
            second = self._expect(TokenType.IDENTIFIER).value
            return ColumnRef(second, first)
        return ColumnRef(first)

    def _parse_column_list(self) -> list[ColumnRef]:
        columns = [self._parse_column()]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            columns.append(self._parse_column())
        return columns

    def _parse_order_list(self) -> list[OrderItem]:
        items = [self._parse_order_item()]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self) -> OrderItem:
        column = self._parse_column()
        ascending = True
        if self._match_keyword("DESC"):
            ascending = False
        else:
            self._match_keyword("ASC")
        return OrderItem(column=column, ascending=ascending)

    def _parse_join(self) -> Join:
        self._match_keyword("INNER")
        self._expect_keyword("JOIN")
        table = self._expect(TokenType.IDENTIFIER).value
        self._expect_keyword("ON")
        left = self._parse_column()
        op = self._expect(TokenType.OPERATOR)
        if op.value != "=":
            raise ParseError("only equi-joins are supported", op)
        right = self._parse_column()
        return Join(table=table, left=left, right=right)

    def _parse_where(self) -> tuple[PredicateType, ...]:
        predicates = [self._parse_predicate()]
        while self._match_keyword("AND"):
            predicates.append(self._parse_predicate())
        if self._check_keyword("OR"):
            raise ParseError("OR is not supported in this subset", self._peek())
        return tuple(predicates)

    def _parse_predicate(self) -> PredicateType:
        column = self._parse_column()
        token = self._peek()
        if token.type is TokenType.OPERATOR:
            op = self._advance().value
            value = self._parse_literal()
            return ComparisonPredicate(column=column, op=op, value=value)
        if self._match_keyword("BETWEEN"):
            low = self._parse_literal()
            self._expect_keyword("AND")
            high = self._parse_literal()
            return BetweenPredicate(column=column, low=low, high=high)
        if self._match_keyword("IN"):
            self._expect(TokenType.LPAREN)
            values = [self._parse_literal()]
            while self._peek().type is TokenType.COMMA:
                self._advance()
                values.append(self._parse_literal())
            self._expect(TokenType.RPAREN)
            return InPredicate(column=column, values=tuple(values))
        if self._match_keyword("LIKE"):
            pattern = self._expect(TokenType.STRING)
            return LikePredicate(column=column, pattern=pattern.value)
        if self._match_keyword("IS"):
            negated = self._match_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return IsNullPredicate(column=column, negated=negated)
        raise ParseError("expected a predicate operator", token)

    def _parse_literal(self) -> Literal:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if self._match_keyword("NULL"):
            return Literal(None)
        if self._match_keyword("TRUE"):
            return Literal(True)
        if self._match_keyword("FALSE"):
            return Literal(False)
        raise ParseError("expected a literal", token)


def parse(sql: str) -> Statement:
    """Parse ``sql`` into an AST statement (SELECT or INSERT/UPDATE/DELETE).

    Raises :class:`ParseError` (or :class:`~repro.sql.lexer.LexError`) on
    malformed input.
    """
    return _Parser(tokenize(sql)).parse_statement()
