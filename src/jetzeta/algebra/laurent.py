"""Exact integer Laurent polynomials in the Lefschetz symbol L.

One type serves two readings: as the class of a variety (a polynomial in L)
and as a counting polynomial in a prime power q.  Specializing L -> 1 gives
the compactly supported Euler characteristic, L -> q the number of rational
points over F_q.

All arithmetic is arbitrary-precision and exact.  Multiplication of large
operands goes through Kronecker substitution (pack into one big integer,
multiply, unpack balanced digits), which keeps products of long series
numerators cheap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

# above this many coefficient pairs, pack into big ints
_KRONECKER_CUTOFF = 1024


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    Zero coefficients are never stored; the zero polynomial has an empty
    coefficient map.
    """

    __slots__ = ("_c", "_hash")

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
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

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

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

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
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        out._hash = None
        return out

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {e: v * other for e, v in self._c.items()}
            out._hash = None
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return LaurentPoly()
        if len(a) * len(b) <= _KRONECKER_CUTOFF:
            c: dict[int, int] = {}
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = ea + eb
                    w = c.get(e, 0) + ca * cb
                    if w:
                        c[e] = w
                    elif e in c:
                        del c[e]
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = c
            out._hash = None
            return out
        return self._kronecker_mul(other)

    __rmul__ = __mul__

    def _kronecker_mul(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self._c, other._c
        sa, sb = min(a), min(b)
        ma = max(abs(v) for v in a.values())
        mb = max(abs(v) for v in b.values())
        # any product coefficient is a sum of at most min(len(a), len(b))
        # pair products, so this bounds its absolute value
        bound = ma * mb * min(len(a), len(b))
        width = bound.bit_length() + 2
        base = 1 << width
        half = base >> 1
        mask = base - 1
        pa = 0
        for e, v in a.items():
            pa += v << (width * (e - sa))
        pb = 0
        for e, v in b.items():
            pb += v << (width * (e - sb))
        prod = pa * pb
        c: dict[int, int] = {}
        i = sa + sb
        while prod:
            d = prod & mask
            if d >= half:
                d -= base
            if d:
                c[i] = d
            prod = (prod - d) >> width
            i += 1
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

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
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e + k: v for e, v in self._c.items()}
        out._hash = None
        return out

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
        return LaurentPoly(c_out)

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
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

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

