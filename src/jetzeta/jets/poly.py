"""Sparse integer multivariate polynomials and the x1..xn input syntax."""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

from ..errors import ParseError

Coeff = Union[int, Fraction]


def _norm_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class MultiPoly:
    """Polynomial in n_vars variables, sparse map exponent tuple -> coefficient.

    Coefficients are integers for parsed input; intermediate translation by a
    rational base point may introduce Fractions, cleared before any counting.
    """

    __slots__ = ("n_vars", "_c")

    def __init__(self, n_vars: int,
                 coeffs: Mapping[tuple, Coeff] | Iterable[tuple] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        c: dict[tuple[int, ...], Coeff] = {}
        for e, v in items:
            e = tuple(int(x) for x in e)
            if len(e) != n_vars:
                raise ValueError("exponent vector length mismatch")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent")
            v = c.get(e, 0) + v
            if v == 0:
                c.pop(e, None)
            else:
                c[e] = _norm_coeff(v)
        self.n_vars = n_vars
        self._c = c

    @classmethod
    def zero(cls, n_vars: int) -> "MultiPoly":
        return cls(n_vars)

    @classmethod
    def const(cls, n_vars: int, c: Coeff) -> "MultiPoly":
        return cls(n_vars, {(0,) * n_vars: c} if c else {})

    @classmethod
    def var(cls, n_vars: int, i: int) -> "MultiPoly":
        # i is 0-based
        if not 0 <= i < n_vars:
            raise ValueError("variable index out of range")
        e = [0] * n_vars
        e[i] = 1
        return cls(n_vars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self._c

    def items(self) -> list[tuple[tuple[int, ...], Coeff]]:
        return sorted(self._c.items())

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.n_vars == other.n_vars and self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(self.n_vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.n_vars, frozenset(self._c.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w == 0:
                c.pop(e, None)
            else:
                c[e] = _norm_coeff(w)
        return self._raw(self.n_vars, c)

    def __neg__(self) -> "MultiPoly":
        return self._raw(self.n_vars, {e: -v for e, v in self._c.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(self.n_vars)
            return self._raw(self.n_vars,
                             {e: _norm_coeff(v * other)
                              for e, v in self._c.items()})
        self._check(other)
        c: dict[tuple[int, ...], Coeff] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                w = c.get(e, 0) + v1 * v2
                if w == 0:
                    c.pop(e, None)
                else:
                    c[e] = _norm_coeff(w)
        return self._raw(self.n_vars, c)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.const(self.n_vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def max_exponent(self) -> int:
        return max((x for e in self._c for x in e), default=0)

    def min_total_degree(self) -> int:
        return min((sum(e) for e in self._c), default=-1)

    def vars_used(self) -> set[int]:
        return {i for e in self._c for i, x in enumerate(e) if x}

    def coeff_lcm_den(self) -> int:
        return lcm(*(Fraction(v).denominator for v in self._c.values())) \
            if self._c else 1

    def is_integer(self) -> bool:
        return all(isinstance(v, int) for v in self._c.values())

    def evaluate(self, point: Sequence) -> Fraction:
        p = [Fraction(x) for x in point]
        if len(p) != self.n_vars:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for e, v in self._c.items():
            term = Fraction(v)
            for x, k in zip(p, e):
                if k:
                    term *= x ** k
            total += term
        return total

    def substitute(self, i: int, replacement: "MultiPoly") -> "MultiPoly":
        """Plug replacement in for variable i (same ambient variables)."""
        self._check(replacement)
        # group by the exponent of variable i, then Horner
        by_deg: dict[int, dict[tuple[int, ...], Coeff]] = {}
        for e, v in self._c.items():
            rest = e[:i] + (0,) + e[i + 1:]
            by_deg.setdefault(e[i], {})[rest] = v
        if not by_deg:
            return MultiPoly.zero(self.n_vars)
        top = max(by_deg)
        acc = MultiPoly.zero(self.n_vars)
        for d in range(top, -1, -1):
            if d != top:
                acc = acc * replacement
            if d in by_deg:
                acc = acc + self._raw(self.n_vars, by_deg[d])
        return acc

    def translate(self, point: Sequence) -> "MultiPoly":
        """f(x + point) as a polynomial in x."""
        p = [Fraction(x) for x in point]
        if len(p) != self.n_vars:
            raise ValueError("point dimension mismatch")
        out = self
        for i, c in enumerate(p):
            if c:
                shift = MultiPoly.var(self.n_vars, i) + \
                    MultiPoly.const(self.n_vars, c)
                out = out.substitute(i, shift)
        return out

    def clear_denominators(self) -> tuple["MultiPoly", int]:
        """(integer polynomial, multiplier): multiplier * self is integral."""
        d = self.coeff_lcm_den()
        if d == 1 and self.is_integer():
            return self, 1
        c = {e: int(v * d) for e, v in self._c.items()}
        return self._raw(self.n_vars, c), d

    def to_text(self) -> str:
        """Render in the input syntax (x1..xn with +, -, *, ^)."""
        if not self._c:
            return "0"
        parts = []
        for e, v in self.items():
            factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                       for i, k in enumerate(e) if k]
            mag = abs(v)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("- " if v < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MultiPoly({self.n_vars}, {self.to_text()!r})"

    def _check(self, other: "MultiPoly") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")

    @classmethod
    def _raw(cls, n_vars: int, c: dict) -> "MultiPoly":
        obj = object.__new__(cls)
        obj.n_vars = n_vars
        obj._c = c
        return obj


# ---------------------------------------------------------------------------
# parser: integer-coefficient expressions in x1..xn with +, -, *, ^, ()

Builder = Callable[[int], MultiPoly]


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        p = self.pos
        t = self.text
        while p < len(t) and t[p].isspace():
            p += 1
        if p >= len(t):
            return ("end", "", p)
        ch = t[p]
        if ch in "+-*^()":
            return ("op", ch, p)
        if ch.isdigit():
            j = p
            while j < len(t) and t[j].isdigit():
                j += 1
            return ("num", t[p:j], p)
        if ch == "x":
            j = p + 1
            while j < len(t) and t[j].isdigit():
                j += 1
            if j == p + 1:
                raise ParseError("variable needs an index (x1, x2, ...)", p)
            return ("var", t[p:j], p)
        raise ParseError(f"unexpected character {ch!r}", p)

    def next(self) -> tuple[str, str, int]:
        kind, text, p = self.peek()
        self.pos = p + len(text) if kind != "end" else p
        return (kind, text, p)


class _Parser:
    """One left-to-right pass over the text.  Each rule returns a builder, a
    function of the variable count n giving its polynomial, since n is known
    only once the whole text has been read."""

    def __init__(self, text: str):
        self.toks = _Tokenizer(text)
        self.max_var = 0

    def parse(self) -> Builder:
        build = self._expr()
        kind, text, p = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", p)
        return build

    def _at(self, ops: str) -> bool:
        kind, text, _ = self.toks.peek()
        return kind == "op" and text in ops

    def _signs(self) -> int:
        """Consume a run of + and - signs; their product."""
        sign = 1
        while self._at("+-"):
            if self.toks.next()[1] == "-":
                sign = -sign
        return sign

    def _expr(self) -> Builder:
        terms = [(self._signs(), self._term())]
        while self._at("+-"):
            terms.append((self._signs(), self._term()))
        return lambda n: sum((b(n) * s for s, b in terms), MultiPoly.zero(n))

    def _term(self) -> Builder:
        factors = [self._power()]
        while self._at("*"):
            self.toks.next()
            factors.append(self._power())
        return lambda n: reduce(operator.mul, (b(n) for b in factors))

    def _power(self) -> Builder:
        base = self._atom()
        if not self._at("^"):
            return base
        self.toks.next()
        kind, text, p = self.toks.next()
        if kind != "num":
            raise ParseError("exponent must be a nonnegative integer", p)
        k = int(text)
        return lambda n: base(n) ** k

    def _atom(self) -> Builder:
        kind, text, p = self.toks.next()
        if kind == "num":
            c = int(text)
            return lambda n: MultiPoly.const(n, c)
        if kind == "var":
            idx = int(text[1:])
            if idx < 1:
                raise ParseError("variable indices start at x1", p)
            self.max_var = max(self.max_var, idx)
            return lambda n: MultiPoly.var(n, idx - 1)
        if kind == "op" and text == "(":
            inner = self._expr()
            kind, text, p = self.toks.next()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", p)
            return inner
        if kind == "op" and text == "-":
            inner = self._atom()
            return lambda n: -inner(n)
        raise ParseError(
            f"expected a number, variable, or '(' (got {text or 'end of input'!r})", p)


def parse_poly(text: str, n_vars: int | None = None) -> MultiPoly:
    """Parse an integer-coefficient polynomial in variables x1..xn.

    n_vars defaults to the largest variable index appearing in the text.
    Raises ParseError with the offending position on malformed input.
    """
    parser = _Parser(text)
    build = parser.parse()
    n = parser.max_var if n_vars is None else n_vars
    if parser.max_var > n:
        raise ParseError(
            f"variable x{parser.max_var} exceeds declared count {n}", 0)
    return build(n)
