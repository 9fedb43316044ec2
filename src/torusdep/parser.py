"""Recursive-descent parser for curve coordinate expressions.

Grammar (semicolon-separated coordinates):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' exponent)?
    atom   := integer | 't' | '(' expr ')'

Exponents are (possibly negative) integer literals, optionally
parenthesized. Whitespace is insignificant.

Budgets bound the work: literals have at most MAX_LITERAL_DIGITS digits;
a power whose degree would exceed MAX_DEGREE or whose coefficients could
exceed MAX_COEFF_BITS bits, and a sum, difference, product or quotient
whose degree could exceed MAX_DEGREE, are refused before they are
computed.
"""
from __future__ import annotations

import math
from typing import List, Tuple

from .errors import DomainError, ParseError
from .exactcore import Poly, RatFunc

MAX_LITERAL_DIGITS = 4300
MAX_DEGREE = 256
MAX_COEFF_BITS = 2048


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def next_char(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def expect(self, c: str):
        got = self.peek()
        if got != c:
            raise ParseError(f"expected '{c}', got {got!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self._skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        if self.pos - digits > MAX_LITERAL_DIGITS:
            raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", start)
        return int(self.text[start : self.pos])


class _Parser:
    def __init__(self, text: str):
        self.tk = _Tokenizer(text)

    def parse(self) -> RatFunc:
        value = self.expr()
        if self.tk.peek():
            raise ParseError(f"unexpected trailing input {self.tk.peek()!r}", self.tk.pos)
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        while self.tk.peek() and self.tk.peek() in "+-":
            op = self.tk.next_char()
            pos = self.tk.pos
            rhs = self.term()
            _check_degree(op, value, rhs, pos)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RatFunc:
        value = self.unary()
        while self.tk.peek() and self.tk.peek() in "*/":
            op = self.tk.next_char()
            pos = self.tk.pos
            rhs = self.unary()
            if op == "/" and rhs.is_zero():
                raise ParseError("division by zero", pos)
            _check_degree(op, value, rhs, pos)
            value = value / rhs if op == "/" else value * rhs
        return value

    def unary(self) -> RatFunc:
        c = self.tk.peek()
        if c and c in "+-":
            self.tk.next_char()
            value = self.unary()
            return -value if c == "-" else value
        return self.power()

    def power(self) -> RatFunc:
        base = self.atom()
        if self.tk.peek() == "^":
            self.tk.next_char()
            pos = self.tk.pos
            if self.tk.peek() == "(":
                self.tk.next_char()
                e = self.tk.integer()
                self.tk.expect(")")
            else:
                e = self.tk.integer()
            if e < 0 and base.is_zero():
                raise ParseError("zero raised to a negative power", pos)
            if abs(e) * max(base.num.degree, base.den.degree) > MAX_DEGREE:
                raise ParseError(f"power of degree above {MAX_DEGREE}", pos)
            if abs(e) * max(_power_bits(base.num), _power_bits(base.den)) > MAX_COEFF_BITS:
                raise ParseError(f"power with coefficients above {MAX_COEFF_BITS} bits", pos)
            return base ** e
        return base

    def atom(self) -> RatFunc:
        c = self.tk.peek()
        if c == "(":
            self.tk.next_char()
            value = self.expr()
            self.tk.expect(")")
            return value
        if c == "t":
            self.tk.next_char()
            return RatFunc(Poly.variable())
        if c.isdigit():
            return RatFunc(Poly.constant(self.tk.integer()))
        raise ParseError(f"unexpected character {c!r}" if c else "unexpected end of input", self.tk.pos)


def _check_degree(op: str, a: RatFunc, b: RatFunc, pos: int):
    """Refuse, before computing it, a sum, difference, product or quotient
    whose numerator or denominator degree could exceed MAX_DEGREE."""
    an, ad, bn, bd = a.num.degree, a.den.degree, b.num.degree, b.den.degree
    if op == "*":
        bound = max(an + bn, ad + bd)
    elif op == "/":
        bound = max(an + bd, ad + bn)
    else:
        bound = max(an + bd, bn + ad, ad + bd)
    if bound > MAX_DEGREE:
        raise ParseError(f"expression of degree above {MAX_DEGREE}", pos)


def _power_bits(p: Poly) -> int:
    """Bits per unit of exponent that bound the coefficients of p**e: with D
    the common denominator, their numerators are at most |D*p|_1**e and
    their denominators at most D**e."""
    d = math.lcm(*(c.denominator for c in p.coeffs))
    return max(d, sum(abs(c.numerator) * (d // c.denominator) for c in p.coeffs)).bit_length()


def parse_expression(text: str) -> RatFunc:
    """Parse a single coordinate expression into a reduced rational function."""
    return _Parser(text).parse()


def parse_coordinates(text: str) -> Tuple[RatFunc, ...]:
    """Parse a semicolon-separated list of coordinate expressions."""
    pieces = text.split(";")
    if len(pieces) < 2:
        raise ParseError("need at least two semicolon-separated coordinates", len(text))
    coords: List[RatFunc] = []
    offset = 0
    for piece in pieces:
        try:
            f = parse_expression(piece)
        except ParseError as exc:
            raise ParseError(exc.message, offset + exc.position) from None
        if f.is_zero():
            raise DomainError("coordinate functions must be nonzero")
        coords.append(f)
        offset += len(piece) + 1
    return tuple(coords)
