"""Recursive-descent parser for CaRL programs, rules and queries.

The concrete syntax follows the paper's notation as closely as plain text
allows::

    // schema
    ENTITY Person(person);
    ENTITY Submission(sub);
    RELATIONSHIP Author(person, sub);
    ATTRIBUTE Prestige OF Person;
    LATENT ATTRIBUTE Quality OF Submission;

    // relational causal rules
    Prestige[A] <= Qualification[A] WHERE Person(A);
    Quality[S] <= Qualification[A], Prestige[A] WHERE Author(A, S);
    Score[S] <= Quality[S], Prestige[A] WHERE Author(A, S);

    // aggregate rule
    AVG_Score[A] <= Score[S] WHERE Author(A, S);

and for queries::

    Score[S] <= Prestige[A] ?
    AVG_Score[A] <= Prestige[A] ?
    Score[S] <= Prestige[A] ? WHEN MORE THAN 1/3 PEERS TREATED
    Score[S] <= Prestige[A] ? WHERE Submitted(S, C), Blind[C] = "single"

``<=``, ``<-`` and the unicode arrow all spell the causal arrow.
"""

from __future__ import annotations

from repro.carl.ast import (
    AggregateRule,
    AttributeAtom,
    AttributeDeclaration,
    CausalQuery,
    CausalRule,
    Comparison,
    Condition,
    EntityDeclaration,
    PeerCondition,
    PredicateAtom,
    Program,
    RelationshipDeclaration,
    Term,
    Variable,
)
from repro.carl.errors import ParseError
from repro.carl.lexer import Token, iter_statements, tokenize
from repro.db.aggregates import AGGREGATES


class _Parser:
    """Statement parser over a bounded token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # -- token helpers --------------------------------------------------
    def _peek(self, offset: int = 0) -> Token | None:
        index = self._position + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of statement")
        self._position += 1
        return token

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"expected {value or kind}, found end of statement")
        if token.kind != kind or (value is not None and token.value != value):
            raise ParseError(
                f"expected {value or kind}, found {token.value!r}", token.line, token.column
            )
        return self._advance()

    def _match(self, kind: str, value: str | None = None) -> bool:
        token = self._peek()
        if token is None or token.kind != kind:
            return False
        if value is not None and token.value != value:
            return False
        self._advance()
        return True

    # -- statements -----------------------------------------------------
    def parse_statement(self) -> object:
        token = self._peek()
        if token is None:
            raise ParseError("empty statement")
        if token.kind == "KEYWORD" and token.value == "ENTITY":
            return self._parse_entity()
        if token.kind == "KEYWORD" and token.value == "RELATIONSHIP":
            return self._parse_relationship()
        if token.kind == "KEYWORD" and token.value in ("ATTRIBUTE", "LATENT"):
            return self._parse_attribute()
        return self._parse_rule_or_query()

    def _parse_entity(self) -> EntityDeclaration:
        self._expect("KEYWORD", "ENTITY")
        name = self._expect("IDENT").value
        self._expect("OP", "(")
        key = self._expect("IDENT").value
        self._expect("OP", ")")
        self._ensure_done()
        return EntityDeclaration(name=str(name), key=str(key))

    def _parse_relationship(self) -> RelationshipDeclaration:
        self._expect("KEYWORD", "RELATIONSHIP")
        name = self._expect("IDENT").value
        self._expect("OP", "(")
        keys: list[str] = []
        references: list[str | None] = []
        while True:
            keys.append(str(self._expect("IDENT").value))
            # Optional explicit entity reference: "RELATIONSHIP Collab(author Person, peer Person)".
            token = self._peek()
            if token is not None and token.kind == "IDENT":
                references.append(str(self._advance().value))
            else:
                references.append(None)
            if not self._match("OP", ","):
                break
        self._expect("OP", ")")
        self._ensure_done()
        return RelationshipDeclaration(
            name=str(name), keys=tuple(keys), references=tuple(references)
        )

    def _parse_attribute(self) -> AttributeDeclaration:
        latent = self._match("KEYWORD", "LATENT")
        self._expect("KEYWORD", "ATTRIBUTE")
        name = str(self._expect("IDENT").value)
        # Optional bracketed variable list (documentation only; the subject fixes the arity).
        if self._match("OP", "["):
            self._expect("IDENT")
            while self._match("OP", ","):
                self._expect("IDENT")
            self._expect("OP", "]")
        self._expect("KEYWORD", "OF")
        subject = str(self._expect("IDENT").value)
        column = None
        if self._match("KEYWORD", "COLUMN"):
            column = str(self._expect("IDENT").value)
        self._ensure_done()
        return AttributeDeclaration(name=name, subject=subject, column=column, latent=latent)

    # -- rules and queries ------------------------------------------------
    def _parse_rule_or_query(self) -> CausalRule | AggregateRule | CausalQuery:
        head = self._parse_attribute_atom()
        self._expect("OP", "<=")
        body = [self._parse_attribute_atom()]

        # Optional treatment threshold directly after the first body atom
        # (query form ``Y[S] <= Qualification[A] >= 30 ?``).
        threshold = None
        token = self._peek()
        if token is not None and token.kind == "OP" and token.value in (">", ">=", "<", "=", "!="):
            operator = str(self._advance().value)
            threshold_value = self._parse_constant()
            threshold = Comparison(left=body[0], operator=operator, right=threshold_value)

        while self._match("OP", ","):
            body.append(self._parse_attribute_atom())

        is_query = self._match("OP", "?")
        peer_condition = None
        if self._match("KEYWORD", "WHEN"):
            if not is_query:
                raise ParseError("WHEN ... PEERS TREATED is only allowed on queries")
            peer_condition = self._parse_peer_condition()

        condition = Condition()
        if self._match("KEYWORD", "WHERE"):
            condition = self._parse_condition()
        self._ensure_done()

        if is_query:
            if len(body) != 1:
                raise ParseError("a causal query has exactly one treatment attribute")
            return CausalQuery(
                response=head,
                treatment=body[0],
                peer_condition=peer_condition,
                condition=condition,
                treatment_threshold=threshold,
            )

        if threshold is not None:
            raise ParseError("treatment thresholds are only allowed on queries")

        aggregate = _aggregate_prefix(head.name)
        if aggregate is not None:
            if len(body) != 1:
                raise ParseError("an aggregate rule has exactly one body attribute")
            return AggregateRule(aggregate=aggregate, head=head, body=body[0], condition=condition)
        return CausalRule(head=head, body=tuple(body), condition=condition)

    def _parse_attribute_atom(self) -> AttributeAtom:
        name = str(self._expect("IDENT").value)
        self._expect("OP", "[")
        terms = [self._parse_term()]
        while self._match("OP", ","):
            terms.append(self._parse_term())
        self._expect("OP", "]")
        return AttributeAtom(name=name, terms=tuple(terms))

    def _parse_predicate_atom(self) -> PredicateAtom:
        name = str(self._expect("IDENT").value)
        self._expect("OP", "(")
        terms = [self._parse_term()]
        while self._match("OP", ","):
            terms.append(self._parse_term())
        self._expect("OP", ")")
        return PredicateAtom(predicate=name, terms=tuple(terms))

    def _parse_term(self) -> Term:
        token = self._peek()
        if token is None:
            raise ParseError("expected a term, found end of statement")
        if token.kind == "IDENT":
            self._advance()
            return Variable(str(token.value))
        return self._parse_constant()

    def _parse_constant(self) -> Term:
        token = self._advance()
        if token.kind in ("NUMBER", "STRING"):
            return token.value
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            return token.value == "TRUE"
        raise ParseError(f"expected a constant, found {token.value!r}", token.line, token.column)

    def _parse_condition(self) -> Condition:
        atoms: list[PredicateAtom] = []
        comparisons: list[Comparison] = []
        while True:
            token = self._peek()
            if token is None:
                break
            if token.kind != "IDENT":
                raise ParseError(
                    f"expected an atom in WHERE clause, found {token.value!r}",
                    token.line,
                    token.column,
                )
            following = self._peek(1)
            if following is not None and following.kind == "OP" and following.value == "(":
                atoms.append(self._parse_predicate_atom())
            elif following is not None and following.kind == "OP" and following.value == "[":
                left = self._parse_attribute_atom()
                operator = str(self._expect("OP").value)
                if operator not in ("=", "!=", "<", "<=", ">", ">="):
                    raise ParseError(f"unexpected operator {operator!r} in comparison")
                right = self._parse_constant()
                comparisons.append(Comparison(left=left, operator=operator, right=right))
            else:
                left_variable = Variable(str(self._expect("IDENT").value))
                operator = str(self._expect("OP").value)
                if operator not in ("=", "!=", "<", "<=", ">", ">="):
                    raise ParseError(f"unexpected operator {operator!r} in comparison")
                right = self._parse_constant()
                comparisons.append(Comparison(left=left_variable, operator=operator, right=right))
            if not self._match("OP", ","):
                break
        return Condition(atoms=tuple(atoms), comparisons=tuple(comparisons))

    def _parse_peer_condition(self) -> PeerCondition:
        token = self._peek()
        if token is None:
            raise ParseError("expected a peer condition after WHEN")
        if self._match("KEYWORD", "ALL"):
            condition = PeerCondition(kind="ALL")
        elif self._match("KEYWORD", "NONE"):
            condition = PeerCondition(kind="NONE")
        elif self._match("KEYWORD", "MORE"):
            self._expect("KEYWORD", "THAN")
            condition = PeerCondition(kind="MORE_THAN_PERCENT", value=self._parse_percentage())
        elif self._match("KEYWORD", "LESS"):
            self._expect("KEYWORD", "THAN")
            condition = PeerCondition(kind="LESS_THAN_PERCENT", value=self._parse_percentage())
        elif self._match("KEYWORD", "AT"):
            if self._match("KEYWORD", "LEAST"):
                kind = "AT_LEAST"
            elif self._match("KEYWORD", "MOST"):
                kind = "AT_MOST"
            else:
                raise ParseError("expected LEAST or MOST after AT")
            condition = PeerCondition(kind=kind, value=self._parse_number())
        elif self._match("KEYWORD", "EXACTLY"):
            condition = PeerCondition(kind="EXACTLY", value=self._parse_number())
        else:
            raise ParseError(
                f"unexpected peer condition {token.value!r}", token.line, token.column
            )
        self._expect("KEYWORD", "PEERS")
        self._expect("KEYWORD", "TREATED")
        return condition

    def _parse_number(self) -> float:
        token = self._expect("NUMBER")
        return float(token.value)

    def _parse_percentage(self) -> float:
        """Parse ``k%``, ``a/b`` or a bare number; result is in percent units."""
        value = self._parse_number()
        if self._match("OP", "/"):
            denominator = self._parse_number()
            if denominator == 0:
                raise ParseError("zero denominator in peer-condition fraction")
            return 100.0 * value / denominator
        if self._match("OP", "%"):
            return value
        # A bare value <= 1 is read as a fraction, anything larger as a percentage.
        return value * 100.0 if value <= 1.0 else value

    def _ensure_done(self) -> None:
        token = self._peek()
        if token is not None:
            raise ParseError(
                f"unexpected trailing input {token.value!r}", token.line, token.column
            )


def _aggregate_prefix(name: str) -> str | None:
    """Return the aggregate keyword when ``name`` looks like ``AVG_Score``."""
    prefix, separator, rest = name.partition("_")
    if separator and rest and prefix.upper() in AGGREGATES:
        return prefix.upper()
    return None


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def parse_program(text: str) -> Program:
    """Parse a full CaRL program (declarations, rules, aggregate rules, queries)."""
    program = Program()
    for statement_tokens in iter_statements(tokenize(text)):
        parsed = _Parser(statement_tokens).parse_statement()
        if isinstance(parsed, EntityDeclaration):
            program.entities.append(parsed)
        elif isinstance(parsed, RelationshipDeclaration):
            program.relationships.append(parsed)
        elif isinstance(parsed, AttributeDeclaration):
            program.attributes.append(parsed)
        elif isinstance(parsed, AggregateRule):
            program.aggregate_rules.append(parsed)
        elif isinstance(parsed, CausalRule):
            program.rules.append(parsed)
        elif isinstance(parsed, CausalQuery):
            program.queries.append(parsed)
        else:  # pragma: no cover - defensive
            raise ParseError(f"unsupported statement {parsed!r}")
    return program


def parse_rule(text: str) -> CausalRule | AggregateRule:
    """Parse a single relational causal rule or aggregate rule."""
    statements = list(iter_statements(tokenize(text)))
    if len(statements) != 1:
        raise ParseError(f"expected exactly one rule, found {len(statements)} statements")
    parsed = _Parser(statements[0]).parse_statement()
    if not isinstance(parsed, (CausalRule, AggregateRule)):
        raise ParseError(f"expected a rule, parsed {type(parsed).__name__}")
    return parsed


def parse_query(text: str) -> CausalQuery:
    """Parse a single causal query."""
    statements = list(iter_statements(tokenize(text)))
    if len(statements) != 1:
        raise ParseError(f"expected exactly one query, found {len(statements)} statements")
    parsed = _Parser(statements[0]).parse_statement()
    if not isinstance(parsed, CausalQuery):
        raise ParseError(f"expected a query (did you forget the trailing '?'), parsed {type(parsed).__name__}")
    return parsed
