"""Rational series P(T) / prod (1 - L^a T^b) with exact limits at T -> infinity.

The ring is the localization of Laurent polynomials in T (with LaurentPoly
coefficients) at the multiplicative family generated by the factors
1 - L^a T^b, b >= 1.  Denominators are stored as factor multisets and never
expanded, so degree and the limit at infinity read off directly:

    deg  = deg_T(numerator) - sum of b over factors
    lim  = 0                       if deg < 0
         = p * (-1)^k * L^(-sum a) if deg = 0, p the leading T-coefficient
         undefined                 if deg > 0

where k is the number of denominator factors.  Hadamard products are computed
by the annihilator construction: termwise products of quasi-geometric
sequences on period b and b' are quasi-geometric on lcm(b, b') with ratio
exponent a*(lcm/b) + a'*(lcm/b'), so the product over factor pairs of
1 - L^(a*(B/b) + a'*(B/b')) T^B, B = lcm(b, b'), annihilates the product
sequence; the numerator is then solved from expanded terms and verified on a
generous margin.  (With equal periods b = b' the ratio exponent reduces to
a + a'.)

Numerators are dicts t-exponent -> LaurentPoly without zero entries, and
every sum of them goes through one merge, _merged.  Dense work on T-prefixes
runs through one recurrence pair for the factor 1 - L^a T^b: dividing is
c_m += L^a * c_(m-b) in ascending m, multiplying is c_m -= L^a * c_(m-b) in
descending m.  Expansion and exact division use the first; fitting and the
Hadamard numerator clear denominators with the second, through _cleared.
Both run on rows of plain {exponent: coefficient} maps changed in place,
and each row becomes a LaurentPoly once, at the end; so does the sparse
product by factors that brings sums to a common denominator.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from ..errors import FitFailure, LimitUndefined, ResourceLimitError
from .laurent import LaurentPoly

# denominator factor: a pair (a, b) meaning 1 - L^a T^b
Factor = tuple[int, int]
SeriesPrefix = list[LaurentPoly]

_FIT_SUBSET_BUDGET = 250_000
# trailing cleared coefficients that must vanish for a fit to be accepted;
# they double as its verification terms
_FIT_MARGIN = 4


def _check_factor(f) -> Factor:
    a, b = f
    a, b = int(a), int(b)
    if b < 1:
        raise ValueError("denominator factors need b >= 1")
    return (a, b)


def _coeff(c) -> LaurentPoly:
    if not isinstance(c, LaurentPoly):
        raise TypeError("numerator coefficients must be LaurentPoly")
    return c


def _merged(items: Iterable[tuple[int, LaurentPoly]]) -> dict[int, LaurentPoly]:
    """Sum (t-exp, coefficient) items by t-exp, dropping zero sums."""
    out: dict[int, LaurentPoly] = {}
    for t, c in items:
        prev = out.get(t)
        c = c if prev is None else prev + c
        if c.is_zero():
            out.pop(t, None)
        else:
            out[t] = c
    return out


def _num_mul_factors(num: dict[int, LaurentPoly],
                     factors: Iterable[Factor]) -> dict[int, LaurentPoly]:
    """Multiply a T-polynomial (dict t-exp -> LaurentPoly) by
    prod (1 - L^a T^b)."""
    factors = list(factors)
    if not factors:
        return num
    rows = {t: c.to_dict() for t, c in num.items()}
    for a, b in factors:
        # descending t: each row is read before it receives its own update
        for t in sorted(rows, reverse=True):
            if rows[t]:
                _add_shifted(rows.setdefault(t + b, {}), rows[t], a, -1)
    return {t: LaurentPoly._raw(r) for t, r in rows.items() if r}


def _add_shifted(row: dict[int, int], src: dict[int, int], a: int,
                 sign: int) -> None:
    """row += sign * L^a * src on coefficient maps, dropping zeros."""
    for e, v in src.items():
        e += a
        w = row.get(e, 0) + sign * v
        if w:
            row[e] = w
        else:
            del row[e]


def _divide_by_factor(rows: list[dict[int, int]], a: int, b: int) -> None:
    """rows <- rows / (1 - L^a T^b) on a T-prefix of coefficient maps, in
    place."""
    for m in range(b, len(rows)):
        if rows[m - b]:
            _add_shifted(rows[m], rows[m - b], a, 1)


def _multiply_by_factor(rows: list[dict[int, int]], a: int, b: int) -> None:
    """rows <- rows * (1 - L^a T^b) on a T-prefix of coefficient maps, in
    place."""
    for m in range(len(rows) - 1, b - 1, -1):
        if rows[m - b]:
            _add_shifted(rows[m], rows[m - b], a, -1)


class DaggerSeries:
    """Immutable rational series numerator / prod (1 - L^a_i T^b_i)."""

    __slots__ = ("_num", "_den")

    def __init__(self,
                 num: dict[int, LaurentPoly] | Iterable[tuple[int, LaurentPoly]] = (),
                 den: Iterable[Factor] = ()):
        items = num.items() if isinstance(num, dict) else num
        self._num = _merged((int(t), _coeff(c)) for t, c in items)
        self._den: tuple[Factor, ...] = tuple(sorted(_check_factor(f) for f in den))

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "DaggerSeries":
        return cls()

    @classmethod
    def one(cls) -> "DaggerSeries":
        return cls({0: LaurentPoly.one()})

    @classmethod
    def monomial(cls, t_exp: int, coeff: LaurentPoly | int = 1) -> "DaggerSeries":
        if isinstance(coeff, int):
            coeff = LaurentPoly.from_int(coeff)
        return cls({t_exp: coeff})

    @classmethod
    def geometric(cls, a: int, b: int, t_shift: int = 0,
                  coeff: LaurentPoly | int = 1) -> "DaggerSeries":
        """coeff * T^t_shift / (1 - L^a T^b)."""
        if isinstance(coeff, int):
            coeff = LaurentPoly.from_int(coeff)
        return cls({t_shift: coeff}, [(a, b)])

    # -- accessors -----------------------------------------------------

    @property
    def num(self) -> dict[int, LaurentPoly]:
        return dict(self._num)

    @property
    def den(self) -> tuple[Factor, ...]:
        return self._den

    def is_zero(self) -> bool:
        return not self._num

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "DaggerSeries") -> "DaggerSeries":
        if not isinstance(other, DaggerSeries):
            return NotImplemented
        d1, d2 = Counter(self._den), Counter(other._den)
        common = d1 | d2  # multiset max: least common denominator
        num1 = _num_mul_factors(self._num, (common - d1).elements())
        num2 = _num_mul_factors(other._num, (common - d2).elements())
        return DaggerSeries(itertools.chain(num1.items(), num2.items()),
                            common.elements())

    def __neg__(self) -> "DaggerSeries":
        return DaggerSeries({t: -c for t, c in self._num.items()}, self._den)

    def __sub__(self, other: "DaggerSeries") -> "DaggerSeries":
        if not isinstance(other, DaggerSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "DaggerSeries") -> "DaggerSeries":
        if not isinstance(other, DaggerSeries):
            return NotImplemented
        return DaggerSeries(((t1 + t2, c1 * c2)
                             for t1, c1 in self._num.items()
                             for t2, c2 in other._num.items()),
                            self._den + other._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DaggerSeries):
            return NotImplemented
        # cross-multiply: num1 * den2 == num2 * den1 as T-polynomials
        return (_num_mul_factors(self._num, other._den)
                == _num_mul_factors(other._num, self._den))

    # equality is up to common factors, so there is no cheap canonical hash
    __hash__ = None

    # -- series calculus -------------------------------------------------

    def expand(self, order: int) -> SeriesPrefix:
        """Coefficients of T^0 .. T^order of the formal power-series expansion."""
        if order < 0:
            raise ValueError("expansion order must be >= 0")
        lo = min(min(self._num, default=0), 0)
        rows: list[dict[int, int]] = [{} for _ in range(order - lo + 1)]
        for t, c in self._num.items():
            if t <= order:
                rows[t - lo] = c.to_dict()
        for a, b in self._den:
            _divide_by_factor(rows, a, b)
        if any(rows[:-lo]):
            raise ValueError("series has nonzero coefficients at negative T-powers")
        return [LaurentPoly._raw(r) for r in rows[-lo:]]

    def degree(self):
        """deg_T(numerator) - sum of denominator b's; -inf for the zero series."""
        if not self._num:
            return float("-inf")
        return max(self._num) - sum(b for _, b in self._den)

    def limit(self) -> LaurentPoly:
        """Exact limit as T -> infinity; LimitUndefined when degree > 0."""
        deg = self.degree()
        if deg < 0:
            return LaurentPoly.zero()
        if deg > 0:
            raise LimitUndefined(f"series degree {deg} > 0, no limit at infinity")
        p = self._num[max(self._num)]
        k = len(self._den)
        a_sum = sum(a for a, _ in self._den)
        sign = -1 if k % 2 else 1
        return (p * sign).shifted(-a_sum)

    def peeled(self) -> "DaggerSeries":
        """Equivalent series with every denominator factor that exactly
        divides the numerator cancelled.

        One pass in factor order suffices: a factor that does not divide the
        numerator cannot divide its quotient by another factor either.
        """
        num = self._num
        den: list[Factor] = []
        if num:
            for a, b in self._den:
                quo = _divide_num_by_factor(num, a, b)
                if quo is None:
                    den.append((a, b))
                else:
                    num = quo
        return DaggerSeries(num, den)

    def hadamard(self, other: "DaggerSeries") -> "DaggerSeries":
        return ds_hadamard(self, other)

    # -- presentation ----------------------------------------------------

    def __repr__(self) -> str:
        return f"DaggerSeries({dict(sorted(self._num.items()))!r}, {list(self._den)!r})"

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for t, c in sorted(self._num.items()):
            cs = str(c)
            if len(c) > 1:
                cs = f"({cs})"
            if t == 0:
                parts.append(cs)
            else:
                ts = "T" if t == 1 else f"T^{t}"
                parts.append(ts if cs == "1" else f"{cs}*{ts}")
        num = " + ".join(parts)
        if not self._den:
            return num
        den = "".join(f"(1 - {LaurentPoly.L(a)}*T^{b})" if a else f"(1 - T^{b})"
                      for a, b in self._den)
        return f"[{num}] / {den}"

    def to_json(self) -> dict:
        return {
            "num": [[t, c.to_json()] for t, c in sorted(self._num.items())],
            "den": [[a, b] for a, b in self._den],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DaggerSeries":
        num = {int(t): LaurentPoly.from_json(c) for t, c in data["num"]}
        den = [(int(a), int(b)) for a, b in data["den"]]
        return cls(num, den)


def _divide_num_by_factor(num: dict[int, LaurentPoly], a: int, b: int):
    """Exact quotient of a T-polynomial by (1 - L^a T^b), or None.

    The factor is a unit plus higher order, so the quotient is computed
    bottom-up: s_m = r_m + L^a s_(m-b); division is exact iff everything
    above deg - b cancels.
    """
    if not num:
        return {}
    lo, hi = min(num), max(num)
    if hi - lo < b:
        return None
    rows = [num[m].to_dict() if m in num else {} for m in range(lo, hi + 1)]
    _divide_by_factor(rows, a, b)
    if any(rows[hi - lo - b + 1:]):
        return None
    return {lo + i: LaurentPoly._raw(r) for i, r in enumerate(rows) if r}


def _cleared(prefix: Sequence[LaurentPoly], factors: Iterable[Factor],
             top: int) -> dict[int, LaurentPoly] | None:
    """Numerator of prefix * prod (1 - L^a T^b) when every cleared
    coefficient above T^top vanishes, else None."""
    rows = [c.to_dict() for c in prefix]
    for a, b in factors:
        _multiply_by_factor(rows, a, b)
    if any(rows[top + 1:]):
        return None
    return {m: LaurentPoly._raw(r) for m, r in enumerate(rows) if r}


# -- module-level operation names ------------------------------------------

def ds_limit(h: DaggerSeries) -> LaurentPoly:
    return h.limit()


def ds_hadamard(h: DaggerSeries, g: DaggerSeries) -> DaggerSeries:
    """Unique series whose expansion is the termwise product of the inputs."""
    if h.is_zero() or g.is_zero():
        return DaggerSeries.zero()
    dh, dg = Counter(h.den), Counter(g.den)
    factors: list[Factor] = []
    if dh and dg:
        # distinct factors sharing a slope a/b share roots, so their
        # multiplicities pool before the pairwise product rule applies
        def by_slope(d: Counter) -> dict[Fraction, tuple[int, int]]:
            out: dict[Fraction, tuple[int, int]] = {}
            for (a, b), k in d.items():
                s = Fraction(a, b)
                tot, per = out.get(s, (0, 1))
                out[s] = (tot + k, lcm(per, b))
            return out

        cand: dict[Factor, int] = {}
        for s1, (k1, p1) in by_slope(dh).items():
            for s2, (k2, p2) in by_slope(dg).items():
                big = lcm(p1, p2)
                f = (int((s1 + s2) * big), big)
                cand[f] = max(cand.get(f, 0), k1 + k2 - 1)
        for f, mult in sorted(cand.items()):
            factors.extend([f] * mult)
    # else: one operand is a T-polynomial, the termwise product terminates
    den_deg = sum(b for _, b in factors)
    # coefficient tails agree with exponential polynomials from
    # max(deg h, deg g) + 1 on, which bounds the numerator degree
    start = max(0, int(max(h.degree(), g.degree())) + 1)
    order = start + den_deg + 8
    eh = h.expand(order)
    eg = g.expand(order)
    termwise = [ch * cg for ch, cg in zip(eh, eg)]
    num = _cleared(termwise, factors, start + den_deg - 1)
    if num is None:
        raise FitFailure(
            "hadamard verification terms disagree (implementation bug)",
            prefix=termwise, candidates=factors)
    return DaggerSeries(num, factors).peeled()


def ds_fit(prefix: Sequence[LaurentPoly],
           candidate_factors: Iterable[Factor]) -> DaggerSeries:
    """Smallest-denominator rational form reproducing the whole prefix.

    Tries subsets of the candidate factor multiset in order of total
    T-degree, then factor count, then lexicographic on the sorted factor
    tuples.  A subset S fits when prefix * prod(S) truncates to a numerator
    of degree <= len(prefix) - 1 - _FIT_MARGIN, i.e. the last _FIT_MARGIN
    terms of the cleared series vanish; those coefficients double as the
    verification terms.  Raises FitFailure when no subset fits.
    """
    if not prefix:
        raise ValueError("empty prefix")
    top = len(prefix) - 1 - _FIT_MARGIN
    counts = sorted(Counter(_check_factor(f) for f in candidate_factors).items())
    total_subsets = 1
    for _, mult in counts:
        total_subsets *= mult + 1
        if total_subsets > _FIT_SUBSET_BUDGET:
            raise ResourceLimitError(
                "ds_fit candidate multiset has too many subsets")
    subsets = []
    for choice in itertools.product(*[range(m + 1) for _, m in counts]):
        combo: list[Factor] = []
        for (f, _), k in zip(counts, choice):
            combo.extend([f] * k)
        tot = sum(b for _, b in combo)
        if tot <= top:
            subsets.append((tot, len(combo), tuple(combo)))
    subsets.sort()
    for _, _, combo in subsets:
        num = _cleared(prefix, combo, top)
        if num is not None:
            return DaggerSeries(num, combo)
    raise FitFailure(
        "no candidate denominator subset reproduces the prefix "
        "(widen the candidate grid or compute more terms)",
        prefix=list(prefix), candidates=[f for f, _ in counts])
