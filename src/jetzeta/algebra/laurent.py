"""Exact integer Laurent polynomials in the Lefschetz symbol L.

One type serves two readings: as the class of a variety (a polynomial in L)
and as a counting polynomial in a prime power q.  Specializing L -> 1 gives
the compactly supported Euler characteristic, L -> q the number of rational
points over F_q.

All arithmetic is arbitrary-precision and exact.  Multiplication is the
schoolbook loop over term pairs; the operands it sees are short.

The Kronecker codec is _pack and _unpack: a row of coefficients c_e,
|c_e| < 2^(width-1), is the integer sum of c_e * 2^(width*(e - low)), so
L -> 2^width.  Sums, shifts by powers of L and products of rows are then one
big-integer operation each, and a row reads back exactly while every
coefficient it holds stays inside that bound.  Both directions run in time
linear in the row's span, for any width; widths of a machine integer type
(_digit_width rounds up to one) go through the array module.  The codec
serves the Dagger layer, which keeps its T-prefixes packed this way and
multiplies their rows as packed integers.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import compress, count
from typing import Iterable, Iterator, Mapping, Union

# width in bits -> signed array type code of that item size, and the bytes of
# one such item that holds just its top bit
_ARRAY_CODES = {array(code).itemsize * 8: code for code in "bhiq"}
_TOP_BYTES = {w: (1 << (w - 1)).to_bytes(w // 8, sys.byteorder) for w in _ARRAY_CODES}
_ARRAY_WIDTHS = sorted(_ARRAY_CODES)


def _digit_width(bound: int) -> int:
    """Digit width that holds coefficients of absolute value <= bound with two
    bits to spare, rounded up to an array item size when one is wide enough."""
    width = bound.bit_length() + 2
    for w in _ARRAY_WIDTHS:
        if w >= width:
            return w
    return width


def _top_bits(n: int, width: int) -> int:
    """The integer whose n digits of the given width each hold just their top
    bit."""
    if width in _TOP_BYTES:
        return int.from_bytes(_TOP_BYTES[width] * n, sys.byteorder)
    return int(("1" + "0" * (width - 1)) * n, 2)


def _pack(coeffs: Mapping[int, int], low: int, width: int) -> int:
    """The integer sum of c * 2^(width*(e - low)) over the items of coeffs.

    coeffs is not empty, every exponent is >= low and every
    |c| < 2^(width-1).  The digits are laid out in two's complement,
    d mod 2^width; flipping each digit's top bit turns that into
    d + 2^(width-1), which is why the sum is (u ^ top) - top.
    """
    # a single term is a single shift
    if len(coeffs) == 1:
        (e, c), = coeffs.items()
        return c << width * (e - low)
    n = max(coeffs) - low + 1
    code = _ARRAY_CODES.get(width)
    if code:
        digits = array(code, bytes(n * width // 8))
        for e, c in coeffs.items():
            digits[e - low] = c
        u = int.from_bytes(digits, sys.byteorder)
    else:
        mask = (1 << width) - 1
        fmt = f"0{width}b"
        bits = ["0" * width] * n
        for e, c in coeffs.items():
            bits[n - 1 - (e - low)] = format(c & mask, fmt)
        u = int("".join(bits), 2)
    top = _top_bits(n, width)
    return (u ^ top) - top


def _unpack(x: int, low: int, width: int) -> dict[int, int]:
    """The nonzero balanced digits of x as {low + i: digit i}; the inverse of
    _pack while every coefficient packed into x has |c| < 2^(width-1)."""
    # a top digit at index k makes |x| >= 2^(width*k - 1)
    n = x.bit_length() // width + 1
    if n == 1:
        return {low: x} if x else {}
    top = _top_bits(n, width)
    y = (x + top) ^ top
    code = _ARRAY_CODES.get(width)
    if code:
        digits = array(code, y.to_bytes(n * width // 8, sys.byteorder))
    else:
        half = 1 << (width - 1)
        s = format(y, f"0{n * width}b")
        digits = [v - ((v & half) << 1)
                  for v in (int(s[i - width:i], 2) for i in range(n * width, 0, -width))]
    return dict(compress(zip(count(low), digits), digits))


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    Zero coefficients are never stored; the zero polynomial has an empty
    coefficient map.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Union[Mapping[int, int], Iterable[tuple[int, int]]] = ()):
        c: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e, v in items:
            if not isinstance(e, int) or not isinstance(v, int):
                raise TypeError("exponents and coefficients must be int")
            if v:
                w = c.get(e, 0) + v
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, c: dict[int, int]) -> "LaurentPoly":
        """Wrap c, which holds no zero coefficient, without copying it; the
        caller hands c over and never changes it again."""
        out = cls.__new__(cls)
        out._c = c
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    @classmethod
    def L(cls, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        """The monomial coeff * L**exp."""
        return cls({exp: coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def __len__(self) -> int:
        return len(self._c)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._c:
            return other
        if not other._c:
            return self
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return LaurentPoly._raw(c)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -v for e, v in self._c.items()})

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly._raw({e: v * other for e, v in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return LaurentPoly()
        c: dict[int, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                w = c.get(e, 0) + ca * cb
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        return LaurentPoly._raw(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by L**k."""
        if k == 0:
            return self
        return LaurentPoly._raw({e + k: v for e, v in self._c.items()})

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; raises ValueError when it does not
        divide.

        Long division in integers only: the quotient has integer
        coefficients exactly when the divisor's leading coefficient divides
        the running remainder at every step, so the first step that leaves
        a residue raises.
        """
        if not divisor._c:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._c:
            return LaurentPoly()
        sa, sb = min(self._c), min(divisor._c)
        rem = [self._c.get(sa + i, 0) for i in range(max(self._c) - sa + 1)]
        nb = max(divisor._c) - sb + 1
        if len(rem) < nb:
            raise ValueError("not exactly divisible")
        lead = divisor._c[sb + nb - 1]
        # the lower terms of the divisor, as (offset, coefficient)
        lower = [(e - sb, c) for e, c in divisor._c.items() if e - sb < nb - 1]
        c_out: dict[int, int] = {}
        for i in range(len(rem) - nb, -1, -1):
            c, r = divmod(rem[i + nb - 1], lead)
            if r:
                raise ValueError("not exactly divisible")
            if c:
                c_out[sa - sb + i] = c
                for j, bj in lower:
                    rem[i + j] -= c * bj
        if any(rem[:nb - 1]):
            raise ValueError("not exactly divisible")
        return LaurentPoly._raw(c_out)

    # -- evaluation --------------------------------------------------------

    def eval_at_one(self) -> int:
        """Sum of coefficients: the Euler-characteristic specialization."""
        return sum(self._c.values())

    def eval_at(self, q: Union[int, Fraction]) -> Fraction:
        """Exact value at L = q; negative exponents contribute 1/q**k."""
        qf = Fraction(q)
        total = Fraction(0)
        for e, v in self._c.items():
            total += v * qf ** e
        return total

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, v in sorted(self._c.items(), reverse=True):
            if e == 0:
                term = str(abs(v))
            else:
                mono = "L" if e == 1 else f"L^{e}"
                term = mono if abs(v) == 1 else f"{abs(v)}*{mono}"
            if not parts:
                parts.append(term if v > 0 else "-" + term)
            else:
                parts.append(("+ " if v > 0 else "- ") + term)
        return " ".join(parts)

    def to_json(self) -> list[list[int]]:
        return [[e, v] for e, v in sorted(self._c.items())]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "LaurentPoly":
        return cls([(int(e), int(v)) for e, v in data])

