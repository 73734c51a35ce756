"""Exact parsing of polynomial strings and problem files.

Grammar: + - * ^ with parentheses and unary minus; implicit multiplication
is rejected; exponents are nonnegative integers. Atoms are integer or
rational (p/q) literals, the imaginary unit i, the parameter t (families
only), and variables z1..zr. Coefficients survive as exact Gaussian
rationals; positions are tracked for error messages. Parentheses nest at
most MAX_NESTING deep.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .errors import (
    AnomalyDetected,
    ConstantTermForbidden,
    EmptyInput,
    ParseError,
    UnknownVariable,
)
from .family import FamilyPolynomial
from .newton import ToricPolynomial
from .polynomials import Poly
from .rationals import GaussianRational
from .variety import ToricVariety, build_variety

# the parser recurses once per parenthesis level; this keeps every
# accepted string far from the interpreter's recursion limit
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = depth = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "+-*^()":
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than "
                                 f"{MAX_NESTING} levels", line, col)
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "/":
            tokens.append(_Token("/", "/", line, col))
            col += 1
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _TermValue:
    """A polynomial in z1..zr, t and i: map (exponent, t-degree) -> coeff."""

    __slots__ = ("r", "terms")

    def __init__(self, r, terms=None):
        self.r = r
        self.terms = dict(terms or {})

    @staticmethod
    def constant(r, c):
        if c.is_zero():
            return _TermValue(r)
        return _TermValue(r, {(tuple(0 for _ in range(r)), 0): c})

    @staticmethod
    def variable(r, index):
        exp = tuple(1 if k == index else 0 for k in range(r))
        return _TermValue(r, {(exp, 0): GaussianRational(1)})

    @staticmethod
    def parameter(r):
        return _TermValue(r, {(tuple(0 for _ in range(r)), 1): GaussianRational(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key, GaussianRational(0)) + c
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
        return _TermValue(self.r, out)

    def __neg__(self):
        return _TermValue(
            self.r, {k: GaussianRational(0) - c for k, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (e1, d1), c1 in self.terms.items():
            for (e2, d2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(e1, e2)), d1 + d2)
                acc = out.get(key, GaussianRational(0)) + c1 * c2
                if acc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = acc
        return _TermValue(self.r, out)

    def __pow__(self, e):
        if not e:
            return _TermValue.constant(self.r, GaussianRational(1))
        # square-and-multiply with no squaring after the top bit
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base


class _Parser:
    def __init__(self, text, r, allow_parameter):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.r = r
        self.allow_parameter = allow_parameter

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text!r}", tok.line, tok.column
            )
        return self.advance()

    def parse(self):
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected trailing {tok.text!r}", tok.line, tok.column
            )
        return value

    def expression(self):
        tok = self.peek()
        negate = False
        if tok.kind in "+-":
            self.advance()
            negate = tok.kind == "-"
        value = self.term()
        if negate:
            value = -value
        while self.peek().kind in "+-":
            op = self.advance()
            rhs = self.term()
            value = value - rhs if op.kind == "-" else value + rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("number")
            base = base ** int(tok.text)
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "(":
            value = self.expression()
            self.expect(")")
            return value
        if tok.kind == "number":
            num = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("number")
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line,
                                     den_tok.column)
                return _TermValue.constant(
                    self.r, GaussianRational(Fraction(num, den))
                )
            return _TermValue.constant(self.r, GaussianRational(num))
        if tok.kind == "name":
            return self.name_atom(tok)
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)

    def name_atom(self, tok):
        name = tok.text
        if name == "i":
            return _TermValue.constant(self.r, GaussianRational(0, 1))
        if name == "t":
            if not self.allow_parameter:
                raise UnknownVariable(
                    "the parameter t is only allowed in families",
                    tok.line, tok.column,
                )
            return _TermValue.parameter(self.r)
        if name.startswith("z") and name[1:].isdigit():
            index = int(name[1:])
            if not 1 <= index <= self.r:
                raise UnknownVariable(
                    f"variable {name} is out of range: this variety has "
                    f"coordinates z1..z{self.r}",
                    tok.line, tok.column,
                )
            return _TermValue.variable(self.r, index - 1)
        raise UnknownVariable(f"unknown name {name!r}", tok.line, tok.column)


def parse_polynomial(text: str, variety: ToricVariety) -> ToricPolynomial:
    """Parse a polynomial string (no parameter) into exponent terms."""
    parser = _Parser(text, variety.r, allow_parameter=False)
    value = parser.parse()
    terms = {}
    zero_exp = tuple(0 for _ in range(variety.r))
    for (exp, tdeg), coeff in value.terms.items():
        if tdeg != 0:
            raise AnomalyDetected("parameter term in a plain polynomial")
        if exp == zero_exp:
            raise ConstantTermForbidden(
                "the polynomial has a nonzero constant term"
            )
        terms[exp] = coeff
    if not terms:
        raise EmptyInput("the polynomial is identically zero")
    return ToricPolynomial(variety, terms)


def parse_family(text: str, variety: ToricVariety) -> FamilyPolynomial:
    """Parse a family string (t allowed) into t-polynomial coefficients."""
    parser = _Parser(text, variety.r, allow_parameter=True)
    value = parser.parse()
    zero_exp = tuple(0 for _ in range(variety.r))
    by_exp = {}
    for (exp, tdeg), coeff in value.terms.items():
        by_exp.setdefault(exp, {})[tdeg] = coeff
    if zero_exp in by_exp:
        raise ConstantTermForbidden(
            "families must vanish along the parameter axis: constant and "
            "pure-t terms are not allowed"
        )
    terms = {}
    for exp, degmap in by_exp.items():
        top = max(degmap)
        coeffs = [degmap.get(k, GaussianRational(0)) for k in range(top + 1)]
        terms[exp] = Poly(coeffs)
    if not terms:
        raise EmptyInput("the family is identically zero")
    return FamilyPolynomial(variety, terms)


class Problem:
    """A parsed problem file: variety plus optional polynomial or family."""

    def __init__(self, variety, polynomial, family, options, source):
        self.variety = variety
        self.polynomial = polynomial
        self.family = family
        self.options = options
        self.source = source


def parse_problem(path) -> Problem:
    """Load and validate a problem file (JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", exc.lineno, exc.colno)
    except RecursionError:
        raise ParseError("malformed JSON: nested too deeply")
    if not isinstance(data, dict):
        raise ParseError("the problem file must contain an object")
    variety_block = data.get("variety")
    if not isinstance(variety_block, dict):
        raise ParseError("missing or malformed 'variety' block")
    sigma = variety_block.get("sigma_rays")
    gens = variety_block.get("generators")
    if (sigma is None) == (gens is None):
        raise ParseError(
            "the variety block needs exactly one of sigma_rays/generators"
        )
    rays = sigma if sigma is not None else gens
    if (not isinstance(rays, list) or not rays
            or not all(isinstance(r, list) and r
                       and all(type(x) is int for x in r) for r in rays)):
        raise ParseError("rays/generators must be nonempty integer vectors")
    variety = build_variety(sigma_rays=sigma, generators=gens)

    poly_text = data.get("polynomial")
    family_text = data.get("family")
    if poly_text is not None and family_text is not None:
        raise ParseError("give either 'polynomial' or 'family', not both")
    polynomial = family = None
    if poly_text is not None:
        if not isinstance(poly_text, str):
            raise ParseError("'polynomial' must be a string")
        polynomial = parse_polynomial(poly_text, variety)
    if family_text is not None:
        if not isinstance(family_text, str):
            raise ParseError("'family' must be a string")
        family = parse_family(family_text, variety)

    options = data.get("options") or {}
    if not isinstance(options, dict):
        raise ParseError("'options' must be an object")
    for key in options:
        if key not in ("seed", "budget"):
            raise ParseError(f"unknown option {key!r}")
        if type(options[key]) is not int:  # JSON true/false load as bool
            raise ParseError(f"option {key!r} must be an integer")
    return Problem(variety, polynomial, family, options, data)
