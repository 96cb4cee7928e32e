"""Exact Fourier-Motzkin elimination over the rationals.

Strict and weak inequalities are tracked through combinations (a combination
is strict iff either parent is), which is what makes feasibility of
relatively open cells and open-face bounds decidable without interior-point
tricks.  Ambient dimensions here are tiny (<= 4), so the classical
elimination with row normalization and dominance pruning is plenty.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from ..errors import ResourceLimitError

# inequality row: (coeffs, rhs, strict) meaning <coeffs, x> < rhs (strict)
# or <= rhs (weak)
Ineq = tuple[tuple[Fraction, ...], Fraction, bool]

_ROW_BUDGET = 20_000


def _normalize(coeffs: Sequence[Fraction], rhs: Fraction, strict: bool) -> Ineq:
    """Scale to primitive integer coefficients, keeping orientation."""
    den = lcm(*(c.denominator for c in coeffs), rhs.denominator)
    ints = [int(c * den) for c in coeffs]
    r = int(rhs * den)
    g = gcd(*(abs(v) for v in ints), abs(r))
    if g > 1:
        ints = [v // g for v in ints]
        r //= g
    return tuple(Fraction(v) for v in ints), Fraction(r), strict


def _prune(rows: Iterable[Ineq]) -> list[Ineq]:
    """Deduplicate; among rows with equal coefficients keep the tightest."""
    best: dict[tuple[Fraction, ...], tuple[Fraction, bool]] = {}
    for coeffs, rhs, strict in rows:
        cur = best.get(coeffs)
        if cur is None or rhs < cur[0] or (rhs == cur[0] and strict and not cur[1]):
            best[coeffs] = (rhs, strict)
    return [(c, r, s) for c, (r, s) in best.items()]


def _eliminate_var(rows: list[Ineq], j: int) -> list[Ineq]:
    keep, lower, upper = [], [], []
    for row in rows:
        cj = row[0][j]
        if cj == 0:
            keep.append(row)
        elif cj > 0:
            upper.append(row)
        else:
            lower.append(row)
    for cl, rl, sl in lower:
        for cu, ru, su in upper:
            # scale so the j-coefficients cancel; both scales positive
            a, b = cu[j], -cl[j]
            coeffs = tuple(a * x + b * y for x, y in zip(cl, cu))
            keep.append(_normalize(coeffs, a * rl + b * ru, sl or su))
    out = _prune(keep)
    if len(out) > _ROW_BUDGET:
        raise ResourceLimitError("Fourier-Motzkin row budget exceeded")
    return out


def _as_rows(n: int,
             eqs: Iterable[tuple[Sequence, object]],
             ineqs: Iterable[tuple[Sequence, object, bool]]) -> list[Ineq]:
    # an equality <c, x> = r is the two weak rows (c, r) and (-c, -r)
    weak = (row for c, r in eqs
            for row in ((c, r, False),
                        ([-Fraction(x) for x in c], -Fraction(r), False)))
    rows: list[Ineq] = []
    for coeffs, rhs, strict in chain(weak, ineqs):
        c = tuple(Fraction(x) for x in coeffs)
        r = Fraction(rhs)
        if len(c) != n:
            raise ValueError("row length does not match ambient dimension")
        if any(c):
            rows.append(_normalize(c, r, strict))
        elif r < 0 or (strict and r == 0):
            rows.append((tuple(Fraction(0) for _ in range(n)), Fraction(-1), False))
    return _prune(rows)


def _constants_consistent(rows: Iterable[Ineq]) -> bool:
    for coeffs, rhs, strict in rows:
        if not any(coeffs):
            if rhs < 0 or (strict and rhs == 0):
                return False
    return True


def feasible(n: int, eqs, ineqs) -> bool:
    """Whether the system of equalities and (possibly strict) inequalities
    has a rational solution."""
    rows = _as_rows(n, eqs, ineqs)
    for j in range(n):
        if not _constants_consistent(rows):
            return False
        rows = _eliminate_var(rows, j)
    return _constants_consistent(rows)


def coord_bounds(n: int, eqs, ineqs, coord: int
                 ) -> tuple[Optional[Fraction], bool, Optional[Fraction], bool]:
    """Exact (lower, lower_strict, upper, upper_strict) bounds of coordinate
    `coord` over a feasible system; None where unbounded."""
    rows = _as_rows(n, eqs, ineqs)
    for j in range(n):
        if j != coord:
            rows = _eliminate_var(rows, j)
    lo: Optional[Fraction] = None
    lo_strict = False
    hi: Optional[Fraction] = None
    hi_strict = False
    for coeffs, rhs, strict in rows:
        cj = coeffs[coord]
        if cj == 0:
            if rhs < 0 or (strict and rhs == 0):
                raise ValueError("system is infeasible")
            continue
        v = rhs / cj
        if cj > 0:
            if hi is None or v < hi or (v == hi and strict):
                hi, hi_strict = v, strict
        else:
            if lo is None or v > lo or (v == lo and strict):
                lo, lo_strict = v, strict
    return lo, lo_strict, hi, hi_strict
