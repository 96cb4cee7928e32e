"""The polytope zeta function Z(S, l)(T) = sum_(m>=1) s_m T^m as an exact
rational series, where s_m sums U^(-m*l(gamma)) over the (1/m)-lattice points
of a bounded cell set S.

For faces that are products of points and open intervals, s_m restricted to a
residue class m = sigma + R*t (R the lcm of endpoint denominators) is an
exact combination of terms P(t) * U^(g*t): lattice endpoints k0(m), k1(m) are
affine in t on the class, so per-coordinate geometric sums close up.  Summing
t^d * z^t with z = U^g T^R via the Eulerian numerators A_d(z)/(1-z)^(d+1)
turns each class into a DaggerSeries directly -- no truncation, no fitting.
Each term crosses every coordinate with a nonzero form coefficient a
(points aside) exactly once, through a geometric sum over 1 - U^(-a), so the
whole face shares the U-denominator prod (1 - U^(-a_i)): numerators are
summed over it and divided out once at the end, and no U-rational type is
needed.  That division runs on integers: each numerator row is packed once
(laurent._pack, U -> 2^w), each factor is one big-integer divmod by
2^(w*g) - 1, g = |a|, with a sign or a shift, and the row is unpacked once.
The width w bounds every quotient and remainder digit the division meets,
so a nonzero integer remainder is exactly a polynomial one (_divided).

Faces that mix coordinates are enumerated to finitely many s_m and fitted
with ds_fit against structural candidate factors read off the face's closure
vertices: a vertex v with form value s and denominator lcm b contributes the
factor (1 - U^(-s*b) T^b) at multiplicity dim+1.

Either way the result is checked against the limit identity
lim_(T->inf) Z = -chi(S).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, floor, lcm
from typing import Iterable, Sequence

from ..algebra.dagger import DaggerSeries, ds_fit
from ..algebra.laurent import LaurentPoly, _digit_width, _pack, _unpack
from ..errors import (
    LimitMismatchError, LimitUndefined, ResourceLimitError, UnboundedInputError,
)
from .cells import (
    Face, PolySet, RationalCell, _faces_of, _frac, _int, _lattice_sum,
    _row_reduce, face_pieces,
)

_ENUM_ORDER_CAP = 400


@dataclass(frozen=True)
class AffineFormPW:
    """Piecewise integer affine form: on each guard, l(x) = <a, x> + b."""

    n: int
    pieces: tuple[tuple[RationalCell, tuple[int, ...], int], ...]

    @classmethod
    def make(cls, n: int, pieces: Iterable[tuple]) -> "AffineFormPW":
        done = []
        for guard, a, b in pieces:
            a = tuple(_int(x) for x in a)
            if guard.n != n or len(a) != n:
                raise ValueError("form piece dimension mismatch")
            done.append((guard, a, _int(b)))
        return cls(n, tuple(done))

    @classmethod
    def linear(cls, coeffs: Sequence[int], b: int = 0) -> "AffineFormPW":
        n = len(coeffs)
        return cls.make(n, [(RationalCell(n), coeffs, b)])

    @classmethod
    def constant(cls, n: int, b: int = 0) -> "AffineFormPW":
        return cls.make(n, [(RationalCell(n), (0,) * n, b)])

    def value_at(self, point: Sequence) -> Fraction:
        p = tuple(_frac(x) for x in point)
        for guard, a, b in self.pieces:
            if guard.contains(p):
                return _form_value(a, b, p)
        raise ValueError("point not covered by any form piece")

    def to_json(self) -> dict:
        return {"pieces": [{"guard": g.to_json(), "a": list(a), "b": b}
                           for g, a, b in self.pieces]}

    @classmethod
    def from_json(cls, data: dict, n: int) -> "AffineFormPW":
        return cls.make(n, [(RationalCell.from_json(p["guard"], n), p["a"],
                             p.get("b", 0)) for p in data["pieces"]])


@cache
def _eulerian(d: int) -> tuple[int, ...]:
    """Coefficients of A_d(z) with sum_(t>=0) t^d z^t = A_d(z)/(1-z)^(d+1),
    by the explicit sum A_d[j] = sum_(i<=j) (-1)^i C(d+1, i) (j-i)^d,
    j = 0..d (Graham-Knuth-Patashnik, Concrete Mathematics, 6.2)."""
    return tuple(sum((-1) ** i * comb(d + 1, i) * (j - i) ** d
                     for i in range(j + 1))
                 for j in range(d + 1))


# ---------------------------------------------------------------------------
# closed-form engine for separable faces

def _divided(c: LaurentPoly, udiv: Sequence[int]) -> LaurentPoly:
    """c / prod (1 - U^(-a)) over a in udiv, every a nonzero; raises
    ValueError("not exactly divisible") when the product does not divide c.

    Each factor is -(U^g - 1) with g = -a for a < 0, and U^(-a) * (U^g - 1)
    with g = a for a > 0.  So the row is packed once (U -> 2^w), divided by
    each 2^(w*g) - 1 in one big-integer divmod, negated or shifted per
    factor, and unpacked once.

    Why w is wide enough: long division of N by U^g - 1 from the top gives
    suffix sums of N's coefficients along the residue classes mod g, both as
    quotient digits and as the digits of the low-end remainder (degree < g).
    Each has absolute value at most ||N||_1, so the quotient's l1 norm is at
    most span * ||N||_1, span the number of digits of c.  Over k factors
    every digit met is at most ||c||_1 * span^(k-1), which
    w = _digit_width(||c||_1 * span^(k-1)) holds with room to spare.  The
    remainder's value at U = 2^w is then smaller in absolute value than
    2^(w*g) - 1, and zero only when all its digits are, so the integer
    remainder is 0 exactly when the polynomial remainder is 0.
    """
    if not udiv or not c._c:
        return c
    low = min(c._c)
    span = max(c._c) - low + 1
    w = _digit_width(sum(map(abs, c._c.values())) * span ** (len(udiv) - 1))
    x = _pack(c._c, low, w)
    for a in udiv:
        x, r = divmod(x, (1 << w * abs(a)) - 1)
        if r:
            raise ValueError("not exactly divisible")
        if a < 0:
            x = -x
        else:
            low += a
    return LaurentPoly._raw(_unpack(x, low, w))


def _family_face_series(pieces: Sequence[tuple], a_coeffs: Sequence[int],
                        b_const: int) -> DaggerSeries:
    """Exact zeta of one open face that is a product of points and open
    intervals, all bounded."""
    R = 1
    for lo, hi, is_point in pieces:
        R = lcm(R, lo.denominator, hi.denominator)
    # every term crosses each geometric coordinate once, over 1 - U^(-a)
    udiv = [a for (_, _, is_point), a in zip(pieces, a_coeffs)
            if a and not is_point]
    # (t, coeff) numerator items keyed by (g, k): denominator (1 - U^g T^R)^k
    groups: dict[tuple[int, int], list[tuple[int, LaurentPoly]]] = {}
    for sigma in range(R):
        # each term: (U-monomial coefficient, exponent slope g, poly in t)
        terms: list[tuple[LaurentPoly, int, list[int]]] = [(LaurentPoly.one(), 0, [1])]
        # the constant b_const is a point coordinate at 1
        for (lo, hi, is_point), a in zip((*pieces, (1, 1, True)),
                                         (*a_coeffs, b_const)):
            if is_point:
                if sigma % lo.denominator:
                    terms = []
                    break
                # U^(-a*m*v) with m*v = sigma*v + (R*v)*t
                sv = int(sigma * lo)
                rv = int(R * lo)
                terms = [(c.shifted(-a * sv), g - a * rv, poly)
                         for c, g, poly in terms]
                continue
            a0, a1 = int(R * lo), int(R * hi)
            b0 = floor(sigma * lo) + 1
            b1 = ceil(sigma * hi) - 1
            if a == 0:
                # lattice count (a1-a0)*t + (b1-b0+1), linear in t
                c0, c1 = b1 - b0 + 1, a1 - a0
                terms = [(c, g, [c0 * x + c1 * y
                                 for x, y in zip(poly + [0], [0] + poly)])
                         for c, g, poly in terms]
                continue
            # geometric: (U^(-a*k0) - U^(-a*(k1+1))) / (1 - U^(-a))
            terms = [(piece_c, g + dg, poly)
                     for c, g, poly in terms
                     for piece_c, dg in ((c.shifted(-a * b0), -a * a0),
                                         (-c.shifted(-a * (b1 + 1)), -a * a1))]
        for c, g, poly in terms:
            for d, pc in enumerate(poly):
                if not pc:
                    continue
                coeff = c * pc
                groups.setdefault((g, d + 1), []).extend(
                    (sigma + R * j, coeff.shifted(g * j) * alpha)
                    for j, alpha in enumerate(_eulerian(d)) if alpha)
                # the sum over t >= 0 counts m = 0 on the class sigma = 0
                if sigma == 0 and d == 0:
                    groups.setdefault((0, 0), []).append((sigma, -coeff))
    total = sum((DaggerSeries(items, [(g, R)] * k)
                 for (g, k), items in groups.items()), DaggerSeries.zero())
    # udiv divides every coefficient exactly because each s_m is a Laurent
    # polynomial in U
    return DaggerSeries({t: _divided(c, udiv) for t, c in total.num.items()},
                        total.den)


# ---------------------------------------------------------------------------
# enumerate-and-fit path for non-separable faces

def _closure_vertices(cell: RationalCell) -> list[tuple[Fraction, ...]]:
    rows = list(cell.eq) + list(cell.lt) + list(cell.le)
    n = cell.n
    closure = RationalCell(n, cell.eq, (), (*cell.lt, *cell.le))
    seen = set()
    out = []
    for combo in combinations(rows, n):
        mat = [[Fraction(c) for c in coeffs] + [Fraction(rhs)]
               for coeffs, rhs in combo]
        if _row_reduce(mat, n) < n:
            continue
        v = tuple(row[n] / row[i] for i, row in enumerate(mat))
        if v in seen:
            continue
        if closure.contains(v):
            seen.add(v)
            out.append(v)
    return out


def _form_value(a: Sequence[int], b: int, point: Sequence[Fraction]) -> Fraction:
    return sum((ai * xi for ai, xi in zip(a, point)), Fraction(b))


def _enumerated_face_series(face: Face, a: Sequence[int], b: int,
                            M: int) -> DaggerSeries:
    cands: Counter = Counter()
    for v in _closure_vertices(face.cell):
        bv = lcm(*(x.denominator for x in v), 1)
        s = _form_value(a, b, v)
        fac = (int(-s * bv), bv)
        mult = face.dim + 1
        if cands[fac] < mult:
            cands[fac] = mult
    if not cands:
        raise UnboundedInputError("face has no closure vertices; set unbounded?")
    den_deg = sum(f[1] * k for f, k in cands.items())
    order = max(M, 2 * den_deg + 8)
    if order > _ENUM_ORDER_CAP:
        raise ResourceLimitError(
            "enumeration order for the fitting path exceeds the supported scale")
    prefix = zeta_terms(PolySet(face.cell.n, (face.cell,)),
                        AffineFormPW.linear(a, b), order)
    return ds_fit(prefix, list(cands.elements()))


# ---------------------------------------------------------------------------

def zeta_polytope(S: PolySet, form: AffineFormPW, M: int = 16) -> DaggerSeries:
    """Exact Z(S, form)(T); raises LimitMismatchError when the result fails
    the limit identity lim_(T->inf) Z = -chi(S) (a bug signal), and
    UnboundedInputError when S is unbounded.

    M is the enumeration depth offered to faces that need the explicit
    fitting path (at least the fitting margin of 4); faces handled in closed
    form do not consume it.
    """
    if form.n != S.n:
        raise ValueError("form dimension does not match the set")
    if M < 4:
        raise ValueError("M must be at least the fitting margin 4")
    guards = [g for g, _, _ in form.pieces]
    chi_val = 0
    parts: list[DaggerSeries] = []
    for face in _faces_of(S.cells, S.n, guards):
        owners = [i for i, (g, _, _) in enumerate(form.pieces) if face.inside(g)]
        if len(owners) != 1:
            raise ValueError(
                "form pieces must disjointly cover the set "
                f"(a face hit {len(owners)} guards)")
        _, a, b = form.pieces[owners[0]]
        chi_val += (-1) ** face.dim
        pieces = face_pieces(face)
        if pieces is not None:
            for lo, hi, _ in pieces:
                if lo is None or hi is None:
                    raise UnboundedInputError("zeta_polytope requires a bounded set")
            parts.append(_family_face_series(pieces, a, b))
        else:
            parts.append(_enumerated_face_series(face, a, b, M))
    if not parts:
        return DaggerSeries.zero()
    # balanced reduction keeps common-denominator growth shallow
    while len(parts) > 1:
        parts = [parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    total = parts[0].peeled()
    try:
        lim = total.limit()
    except LimitUndefined as exc:
        raise LimitMismatchError(f"zeta series has positive degree: {exc}") from exc
    if lim != LaurentPoly.from_int(-chi_val):
        raise LimitMismatchError(
            f"limit {lim} differs from -chi(S) = {-chi_val}")
    return total


def zeta_terms(S: PolySet, form: AffineFormPW, up_to: int) -> list[LaurentPoly]:
    """s_0..s_up_to by direct lattice enumeration (independent cross-check)."""
    return [LaurentPoly.zero()] + [_lattice_sum(S, m, form.value_at)
                                   for m in range(1, up_to + 1)]
