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


def _check_factor(f) -> Factor:
    a, b = f
    a, b = int(a), int(b)
    if b < 1:
        raise ValueError("denominator factors need b >= 1")
    return (a, b)


def _num_mul_factor(num: dict[int, LaurentPoly], a: int, b: int) -> dict[int, LaurentPoly]:
    """Multiply a T-polynomial (dict t-exp -> LaurentPoly) by (1 - L^a T^b)."""
    out: dict[int, LaurentPoly] = {}
    for t, c in num.items():
        cur = out.get(t)
        cur = c if cur is None else cur + c
        if cur.is_zero():
            out.pop(t, None)
        else:
            out[t] = cur
        shifted = c.shifted(a)
        cur = out.get(t + b)
        cur = -shifted if cur is None else cur - shifted
        if cur.is_zero():
            out.pop(t + b, None)
        else:
            out[t + b] = cur
    return out


class DaggerSeries:
    """Immutable rational series numerator / prod (1 - L^a_i T^b_i)."""

    __slots__ = ("_num", "_den")

    def __init__(self,
                 num: dict[int, LaurentPoly] | Iterable[tuple[int, LaurentPoly]] = (),
                 den: Iterable[Factor] = ()):
        n: dict[int, LaurentPoly] = {}
        items = num.items() if isinstance(num, dict) else num
        for t, c in items:
            t = int(t)
            if not isinstance(c, LaurentPoly):
                raise TypeError("numerator coefficients must be LaurentPoly")
            if c.is_zero():
                continue
            prev = n.get(t)
            c = c if prev is None else prev + c
            if c.is_zero():
                n.pop(t, None)
            else:
                n[t] = c
        self._num = n
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
        num1 = dict(self._num)
        for f, mult in (common - d1).items():
            for _ in range(mult):
                num1 = _num_mul_factor(num1, *f)
        num2 = dict(other._num)
        for f, mult in (common - d2).items():
            for _ in range(mult):
                num2 = _num_mul_factor(num2, *f)
        total = dict(num1)
        for t, c in num2.items():
            cur = total.get(t)
            cur = c if cur is None else cur + c
            if cur.is_zero():
                total.pop(t, None)
            else:
                total[t] = cur
        return DaggerSeries(total, list(common.elements()))

    def __neg__(self) -> "DaggerSeries":
        return DaggerSeries({t: -c for t, c in self._num.items()}, self._den)

    def __sub__(self, other: "DaggerSeries") -> "DaggerSeries":
        if not isinstance(other, DaggerSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "DaggerSeries") -> "DaggerSeries":
        if not isinstance(other, DaggerSeries):
            return NotImplemented
        num: dict[int, LaurentPoly] = {}
        for t1, c1 in self._num.items():
            for t2, c2 in other._num.items():
                t = t1 + t2
                c = c1 * c2
                cur = num.get(t)
                cur = c if cur is None else cur + c
                if cur.is_zero():
                    num.pop(t, None)
                else:
                    num[t] = cur
        return DaggerSeries(num, self._den + other._den)

    def scale(self, c: LaurentPoly | int) -> "DaggerSeries":
        if isinstance(c, int):
            c = LaurentPoly.from_int(c)
        return DaggerSeries({t: v * c for t, v in self._num.items()}, self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DaggerSeries):
            return NotImplemented
        # cross-multiply: num1 * den2 == num2 * den1 as T-polynomials
        n1 = dict(self._num)
        for f in other._den:
            n1 = _num_mul_factor(n1, *f)
        n2 = dict(other._num)
        for f in self._den:
            n2 = _num_mul_factor(n2, *f)
        return n1 == n2

    # equality is up to common factors, so there is no cheap canonical hash
    __hash__ = None

    # -- series calculus -------------------------------------------------

    def expand(self, order: int) -> SeriesPrefix:
        """Coefficients of T^0 .. T^order of the formal power-series expansion."""
        if order < 0:
            raise ValueError("expansion order must be >= 0")
        lo = min(min(self._num, default=0), 0)
        width = order - lo + 1
        zero = LaurentPoly.zero()
        coeffs = [zero] * width
        for t, c in self._num.items():
            if t <= order:
                coeffs[t - lo] = coeffs[t - lo] + c
        # dividing by (1 - L^a T^b) is the recurrence c_m += L^a * c_(m-b)
        for a, b in self._den:
            for m in range(b, width):
                prev = coeffs[m - b]
                if not prev.is_zero():
                    coeffs[m] = coeffs[m] + prev.shifted(a)
        if lo < 0:
            if any(not coeffs[i].is_zero() for i in range(-lo)):
                raise ValueError("series has nonzero coefficients at negative T-powers")
            coeffs = coeffs[-lo:]
        return coeffs

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
        divides the numerator cancelled."""
        num = dict(self._num)
        den = list(self._den)
        changed = True
        while changed and den and num:
            changed = False
            for i, (a, b) in enumerate(den):
                quo = _divide_num_by_factor(num, a, b)
                if quo is not None:
                    num = quo
                    del den[i]
                    changed = True
                    break
        if not num:
            den = []
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
    zero = LaurentPoly.zero()
    s: dict[int, LaurentPoly] = {}
    for m in range(lo, hi + 1):
        c = num.get(m, zero)
        prev = s.get(m - b)
        if prev is not None:
            c = c + prev.shifted(a)
        if not c.is_zero():
            s[m] = c
    for m in s:
        if m > hi - b:
            return None
    return s


def _prefix_mul_factors(prefix: Sequence[LaurentPoly],
                        factors: Iterable[Factor]) -> list[LaurentPoly]:
    """Prefix of prefix * prod (1 - L^a T^b), truncated to the same length."""
    out = list(prefix)
    for a, b in factors:
        for m in range(len(out) - 1, b - 1, -1):
            prev = out[m - b]
            if not prev.is_zero():
                out[m] = out[m] - prev.shifted(a)
    return out


def _prefix_degree(prefix: Sequence[LaurentPoly]):
    deg = float("-inf")
    for m, c in enumerate(prefix):
        if not c.is_zero():
            deg = m
    return deg


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
    num_prefix = _prefix_mul_factors(termwise, factors)
    bound = start + den_deg - 1
    for m in range(bound + 1, order + 1):
        if not num_prefix[m].is_zero():
            raise FitFailure(
                "hadamard verification terms disagree (implementation bug)",
                prefix=termwise, candidates=factors)
    num = {m: c for m, c in enumerate(num_prefix[:bound + 1]) if not c.is_zero()}
    return DaggerSeries(num, factors).peeled()


def ds_fit(prefix: Sequence[LaurentPoly], candidate_factors: Iterable[Factor],
           margin: int = 4) -> DaggerSeries:
    """Smallest-denominator rational form reproducing the whole prefix.

    Tries subsets of the candidate factor multiset in order of total
    T-degree, then factor count, then lexicographic on the sorted factor
    tuples.  A subset S fits when prefix * prod(S) truncates to a numerator
    of degree <= len(prefix) - 1 - margin, i.e. the last margin terms of the
    cleared series vanish; those coefficients double as the verification
    terms.  Raises FitFailure when no subset fits.
    """
    if margin < 4:
        raise ValueError("verification margin must be >= 4")
    n = len(prefix) - 1
    if n < 0:
        raise ValueError("empty prefix")
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
        if tot <= n - margin:
            subsets.append((tot, len(combo), tuple(combo)))
    subsets.sort()
    for _, _, combo in subsets:
        cleared = _prefix_mul_factors(prefix, combo)
        if _prefix_degree(cleared) <= n - margin:
            num = {m: c for m, c in enumerate(cleared) if not c.is_zero()}
            return DaggerSeries(num, combo)
    raise FitFailure(
        "no candidate denominator subset reproduces the prefix "
        "(widen the candidate grid or compute more terms)",
        prefix=list(prefix), candidates=[f for f, _ in counts])
