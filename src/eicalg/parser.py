"""Surface syntax for functionals.

Grammar::

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" nonneg-integer)?
    atom   := number | ident | "E[" expr "]" | "inv(" expr ")"
            | "Var(" ident ")" | "Cov(" ident "," ident ")"
            | "exp(" expr ")" | "log(" expr ")" | "sqrt(" expr ")"
            | "(" expr ")"

Numbers are unsigned decimal literals of the ASCII digits ``0``-``9``,
parsed exactly to rationals.  Identifiers are ASCII only,
``[A-Za-z_][A-Za-z0-9_]*``, and bare ones are base random variables;
``E[...]`` takes the expectation of a random-variable expression, possibly
with scalar subexpressions embedded.  ``Var``/``Cov`` are sugar for their
moment expansions, ``inv`` is the reciprocal, and the three named smooth
functions build float-mode functionals.  Brackets (parentheses, ``E[`` and
function calls) nest at most ``MAX_NESTING`` deep.

The parser builds expression trees in one recursive pass.  Every rule
returns a node, whose type says its family: a functional when its text has
no bare variable outside any ``E[...]``, else a random-variable expression.
A sum, product or power takes its family from its parts before it is built.
A part is a scalar when it is a functional, a constant (``X^0`` is 1) or an
embedded functional.  Scalar parts build a functional, negated terms
included, embedded once as a constant function if any part was a
random-variable node; any other part makes a random variable, each
functional part embedded on its own (``X - E[Y]`` adds -1 times the embedded
``E[Y]``).  So the embeddings, which the text does not show, sit at maximal
scalar subtrees, and every printed form parses back to its own tree.

A whole input containing a bare variable outside any ``E[...]`` denotes a
random variable rather than a scalar; it is identified with the parameter it
represents (its expectation), so ``X*Y`` parses to the same functional as
``E[X*Y]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .expr import (
    MAX_EXPONENT,
    BaseVar,
    E,
    EmbedFunc,
    FuncConst,
    FuncExpr,
    Moment,
    RvConst,
    SMOOTH_TABLE,
    Smooth,
    f_pow,
    f_product,
    f_recip,
    f_sum,
    rv_embed,
    rv_pow,
    rv_product,
    rv_sum,
)
from .numerals import digit_limit

__all__ = ["parse_expression", "tokenize"]

_SMOOTH_NAMES = tuple(SMOOTH_TABLE)
_RESERVED = ("E", "Var", "Cov", "inv") + _SMOOTH_NAMES
# One token per match.  Spaces and tabs match nothing, so ``finditer`` skips
# them; any other character is matched by the unnamed last alternative.  A
# number may end in its point only to be rejected.
_TOKEN = re.compile(
    r"(?P<NUMBER>[0-9]+(?:\.[0-9]*)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<symbol>[-+*^()\[\],])"
    r"|[^ \t]"
)

# Deepest bracket nesting accepted.  The parser and the later passes over the
# tree recurse at every level; this keeps them inside the default stack.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER, IDENT, or a literal symbol
    text: str
    column: int  # 1-based


def tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, lexeme, col = m.lastgroup, m[0], m.start() + 1
        if kind == "symbol":
            kind = lexeme
        elif kind is None:
            raise ParseError(f"unexpected character {lexeme!r}", col)
        elif lexeme[-1] == ".":
            raise ParseError("digits required after decimal point", col)
        tokens.append(Token(kind, lexeme, col))
    tokens.append(Token("EOF", "", len(text) + 1))
    return tokens


def _numeral(tok: Token) -> Fraction:
    """The exact value of a NUMBER token, or a ParseError naming the digit limit."""
    try:
        return Fraction(tok.text)
    except ValueError:
        raise ParseError(digit_limit("numeral"), tok.column) from None


# ---------------------------------------------------------------------------
# sorts


def _as_func(node) -> FuncExpr:
    """The functional a node denotes: a random variable is its expectation."""
    return node if isinstance(node, FuncExpr) else Moment(node)


def _scalar(node) -> FuncExpr | None:
    """The functional a scalar node folds to, or None for a random part."""
    if isinstance(node, EmbedFunc):
        return node.func
    if isinstance(node, RvConst):
        return FuncConst(node.value)
    return node if isinstance(node, FuncExpr) else None


def _join(parts, build):
    """The node ``build(nodes, sum, product, power)`` makes of ``parts`` with
    the builders of the family the parts decide (see the module docstring)."""
    scalars = [_scalar(p) for p in parts]
    if any(s is None for s in scalars):
        return build(parts, rv_sum, rv_product, rv_pow)
    node = build(scalars, f_sum, f_product, f_pow)
    return node if all(isinstance(p, FuncExpr) for p in parts) else rv_embed(node)


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.column,
            )
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.column)
        return node

    def expr(self):
        signs, parts = [1], [self.term()]
        while self.peek().kind in ("+", "-"):
            signs.append(1 if self.advance().kind == "+" else -1)
            parts.append(self.term())
        if len(parts) == 1:
            return parts[0]

        def total(nodes, add, times, _):  # each term with its sign
            return add(*(x if s > 0 else times(-1, x) for s, x in zip(signs, nodes)))

        return _join(parts, total)

    def term(self):
        parts = [self.factor()]
        while self.peek().kind == "*":
            self.advance()
            parts.append(self.factor())
        if len(parts) == 1:
            return parts[0]
        return _join(parts, lambda nodes, add, times, _: times(*nodes))

    def factor(self):
        node = self.atom()
        if self.peek().kind != "^":
            return node
        self.advance()
        tok = self.expect("NUMBER")
        if "." in tok.text:
            raise ParseError("exponent must be a nonnegative integer", tok.column)
        n = _numeral(tok).numerator
        if n > MAX_EXPONENT and not isinstance(node, FuncConst):
            raise ParseError(f"exponent above {MAX_EXPONENT}", tok.column)
        return _join([node], lambda nodes, add, times, power: power(nodes[0], n))

    def nested(self, opener: Token, close: str):
        """Parse the expression after an opening bracket, up to ``close``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"brackets nested more than {MAX_NESTING} deep", opener.column
            )
        node = self.expr()
        self.expect(close)
        self.depth -= 1
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return FuncConst(_numeral(tok))
        if tok.kind == "(":
            return self.nested(self.advance(), ")")
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if name == "E":
                return E(self.nested(self.expect("["), "]"))
            if name == "Var":
                self.expect("(")
                ident = self.expect("IDENT")
                if ident.text in _RESERVED:
                    raise ParseError("Var takes a base variable", ident.column)
                self.expect(")")
                x = BaseVar(ident.text)
                return E(x**2) - E(x) ** 2
            if name == "Cov":
                self.expect("(")
                first = self.expect("IDENT")
                self.expect(",")
                second = self.expect("IDENT")
                reserved = [t for t in (first, second) if t.text in _RESERVED]
                if reserved:
                    raise ParseError("Cov takes base variables", reserved[0].column)
                self.expect(")")
                x, y = BaseVar(first.text), BaseVar(second.text)
                return E(x * y) - E(x) * E(y)
            if name in ("inv",) + _SMOOTH_NAMES:
                arg = _as_func(self.nested(self.expect("("), ")"))
                return f_recip(arg) if name == "inv" else Smooth(name, arg)
            if self.peek().kind == "(":
                raise ParseError(f"unknown function name {name!r}", tok.column)
            return BaseVar(name)
        raise ParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.column,
        )


def parse_expression(text: str) -> FuncExpr:
    """Parse surface text into a functional expression.

    An input denoting a random variable is identified with the parameter it
    represents, i.e. wrapped in one expectation.
    """
    return _as_func(_Parser(text).parse())
