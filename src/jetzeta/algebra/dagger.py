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
every sum of them goes through one merge, _merged.  Bringing a sum to a
common denominator (_num_mul_factors) shifts each row once per factor and
merges, on these sparse rows: polytope numerators are sparse in L, and
packing them bought nothing (0.8-1.2 s CPU either way over the 200 boxes of
acceptance criterion 6, 2-vCPU guest).

Dense work on T-prefixes runs through one recurrence for the factor
1 - L^a T^b, _by_factor: c_m += L^a * c_(m-b) in ascending m divides,
c_m -= L^a * c_(m-b) in descending m multiplies.  It runs on packed rows,
which pay where they are reused or multiplied: expansion and peeling divide
whole prefixes (a sparse peel took criterion 6 from 2.1-2.9 s to 3.4-4.0 s
CPU), ds_fit clears every candidate subset of one packed prefix, and
ds_hadamard multiplies packed rows termwise.  A packed T-prefix is a list of
Kronecker-packed ints (laurent._pack, L -> 2^width) with a list of per-row
L-exponent offsets, so each step is one big-integer shift-add.  Each call
packs once and unpacks once, with one digit width, found by running the same
recurrences on the rows' l1 norms (n_m += n_(m-b)) and adding 2 bits: that
bounds every coefficient met in either direction, so every zero test on a
packed row and every unpacked row is exact.  A row's offset moves down only
when a shifted source lands below it, and the row is then rebased by a left
shift, so every shift is a left shift and no row carries zero padding.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from ..errors import FitFailure, LimitUndefined, ResourceLimitError
from .laurent import LaurentPoly, _digit_width, _pack, _unpack

# denominator factor: a pair (a, b) meaning 1 - L^a T^b
Factor = tuple[int, int]
SeriesPrefix = list[LaurentPoly]

_ZERO = LaurentPoly()

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


# -- packed T-prefixes: rows xs[m] with L-exponent offsets offs[m] ----------

def _rows(num: dict[int, LaurentPoly], lo: int, hi: int) -> list[LaurentPoly]:
    """The numerator's coefficients of T^lo .. T^hi, zeros included."""
    return list(map(num.get, range(lo, hi + 1), itertools.repeat(_ZERO)))


def _norms(rows: Iterable[LaurentPoly]) -> list[int]:
    return [sum(map(abs, c._c.values())) if c._c else 0 for c in rows]


def _grown(norms: list[int], factors: Iterable[Factor], divide: bool) -> list[int]:
    """The norms after the factor recurrences, n_m += n_(m-b) in the order the
    division (ascending m) or multiplication (descending m) runs: a bound on
    every coefficient those recurrences meet."""
    n = list(norms)
    for _, b in factors:
        for m in (range(b, len(n)) if divide else range(len(n) - 1, b - 1, -1)):
            n[m] += n[m - b]
    return n


def _width(*norms: list[int]) -> int:
    return _digit_width(max(map(max, norms)))


def _packed(rows: Sequence[LaurentPoly], width: int) -> tuple[list[int], list[int]]:
    xs, offs = [0] * len(rows), [0] * len(rows)
    for m, c in enumerate(rows):
        if c._c:
            offs[m] = low = min(c._c)
            xs[m] = _pack(c._c, low, width)
    return xs, offs


def _unpacked(xs: Sequence[int], offs: Sequence[int], width: int,
              lo: int = 0) -> dict[int, LaurentPoly]:
    """The nonzero packed rows as {lo + row index: LaurentPoly}."""
    return {lo + m: LaurentPoly._raw(_unpack(x, off, width))
            for m, (x, off) in enumerate(zip(xs, offs)) if x}


def _unpacked_row(x: int, off: int, width: int) -> LaurentPoly:
    return LaurentPoly._raw(_unpack(x, off, width)) if x else LaurentPoly()


def _by_factor(xs: list[int], offs: list[int], width: int, a: int, b: int,
               divide: bool) -> None:
    """xs <- xs / (1 - L^a T^b) if divide, else xs * (1 - L^a T^b), on a
    packed T-prefix, in place."""
    op = operator.add if divide else operator.sub
    for m in (range(b, len(xs)) if divide else range(len(xs) - 1, b - 1, -1)):
        src = xs[m - b]
        if src:
            low = offs[m - b] + a
            x = xs[m]
            if not x:
                xs[m], offs[m] = op(0, src), low
            elif low >= offs[m]:
                xs[m] = op(x, src << width * (low - offs[m]))
            else:
                xs[m], offs[m] = op(x << width * (offs[m] - low), src), low


def _cleared(xs: Sequence[int], offs: Sequence[int], width: int,
             factors: Iterable[Factor], top: int) -> dict[int, LaurentPoly] | None:
    """Numerator of a packed prefix times prod (1 - L^a T^b) when every
    cleared coefficient above T^top vanishes, else None.  The prefix is left
    as it is."""
    xs, offs = list(xs), list(offs)
    for a, b in factors:
        _by_factor(xs, offs, width, a, b, False)
    if any(xs[top + 1:]):
        return None
    return _unpacked(xs[:top + 1], offs, width)


def _num_mul_factors(num: dict[int, LaurentPoly],
                     factors: Iterable[Factor]) -> dict[int, LaurentPoly]:
    """Multiply a T-polynomial (dict t-exp -> LaurentPoly) by
    prod (1 - L^a T^b), on sparse rows."""
    for a, b in factors:
        num = _merged(itertools.chain(
            num.items(), ((t + b, -c.shifted(a)) for t, c in num.items())))
    return num


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
        rows = self._rows_to(order)
        width = _width(_grown(_norms(rows), self._den, True))
        xs, offs = self._expanded(rows, width)
        return [_unpacked_row(x, off, width) for x, off in zip(xs, offs)]

    def _rows_to(self, order: int) -> list[LaurentPoly]:
        """Numerator rows T^lo .. T^order, lo = min(0, lowest T-power)."""
        if order < 0:
            raise ValueError("expansion order must be >= 0")
        return _rows(self._num, min(min(self._num, default=0), 0), order)

    def _expanded(self, rows: list[LaurentPoly],
                  width: int) -> tuple[list[int], list[int]]:
        """The packed expansion from the rows of _rows_to, T^0 on."""
        xs, offs = _packed(rows, width)
        for a, b in self._den:
            _by_factor(xs, offs, width, a, b, True)
        neg = -min(min(self._num, default=0), 0)
        if any(xs[:neg]):
            raise ValueError("series has nonzero coefficients at negative T-powers")
        return xs[neg:], offs[neg:]

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
        if not self._num or not self._den:
            return DaggerSeries(self._num)
        lo = min(self._num)
        rows = _rows(self._num, lo, max(self._num))
        width = _width(_grown(_norms(rows), self._den, True))
        xs, offs = _packed(rows, width)
        den: list[Factor] = []
        for a, b in self._den:
            # bottom-up quotient s_m = r_m + L^a s_(m-b): exact iff the top
            # b rows cancel (a nonzero prefix of at most b rows never does),
            # and the quotient is what lies below them
            qs, qo = list(xs), list(offs)
            _by_factor(qs, qo, width, a, b, True)
            if any(qs[-b:]):
                den.append((a, b))
            else:
                xs, offs = qs[:-b], qo[:-b]
        return DaggerSeries(_unpacked(xs, offs, width, lo), den)

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
    rh, rg = h._rows_to(order), g._rows_to(order)
    nh = _grown(_norms(rh), h.den, True)
    ng = _grown(_norms(rg), g.den, True)
    # the l1 norm of a product is at most the product of the norms
    nt = _grown([x * y for x, y in zip(nh[-order - 1:], ng[-order - 1:])],
                factors, False)
    width = _width(nh, ng, nt)
    xh, oh = h._expanded(rh, width)
    xg, og = g._expanded(rg, width)
    xs = [x * y for x, y in zip(xh, xg)]
    offs = [p + q for p, q in zip(oh, og)]
    num = _cleared(xs, offs, width, factors, start + den_deg - 1)
    if num is None:
        raise FitFailure(
            "hadamard verification terms disagree (implementation bug)")
    return DaggerSeries(num, factors).peeled()


def fit_candidates(candidate_factors: Iterable[Factor]) -> list[tuple[Factor, int]]:
    """The candidate multiset of a fit as sorted (factor, multiplicity)
    pairs; raises ResourceLimitError when it has more subsets than ds_fit
    tries, which depends on the candidates alone."""
    counts = sorted(Counter(_check_factor(f) for f in candidate_factors).items())
    total_subsets = 1
    for _, mult in counts:
        total_subsets *= mult + 1
        if total_subsets > _FIT_SUBSET_BUDGET:
            raise ResourceLimitError(
                "ds_fit candidate multiset has too many subsets")
    return counts


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
    counts = fit_candidates(candidate_factors)
    subsets = []
    for choice in itertools.product(*[range(m + 1) for _, m in counts]):
        combo: list[Factor] = []
        for (f, _), k in zip(counts, choice):
            combo.extend([f] * k)
        tot = sum(b for _, b in combo)
        if tot <= top:
            subsets.append((tot, len(combo), tuple(combo)))
    subsets.sort()
    # every subset's recurrences are bounded by those of the whole multiset
    width = _width(_grown(_norms(prefix),
                          [f for f, mult in counts for _ in range(mult)], False))
    xs, offs = _packed(prefix, width)
    for _, _, combo in subsets:
        num = _cleared(xs, offs, width, combo, top)
        if num is not None:
            return DaggerSeries(num, combo)
    raise FitFailure(
        "no candidate denominator subset reproduces the prefix "
        "(widen the candidate grid or compute more terms)")
