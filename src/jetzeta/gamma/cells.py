"""Rational polyhedral cells, open decompositions, and Euler characteristics.

A PolySet is a finite union of cells cut out by integer linear equalities and
(strict or weak) inequalities.  decompose_open refines the union into the
relatively open faces of the hyperplane arrangement spanned by all defining
rows; chi sums (-1)^dim over those faces, which is the o-minimal Euler
characteristic and independent of presentation.  Everything is exact.

Two decomposition paths: a fast one when every row constrains a single
coordinate (the union is then a union of interval products and faces are
products of points and open intervals), and a general incremental
hyperplane-splitting path with Fourier-Motzkin feasibility checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from ..algebra.dagger import DaggerSeries
from ..algebra.laurent import LaurentPoly
from ..errors import (
    DimensionLimitError, ResourceLimitError, UnboundedInputError,
    UnsupportedRecessionError, UnsupportedShapeError,
)
from . import elim

MAX_AMBIENT_DIM = 4
_LATTICE_BUDGET = 2_000_000
_FACE_BUDGET = 50_000

Row = tuple[tuple[int, ...], Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def _coerce_row(row, n: int) -> Row:
    coeffs, rhs = row
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != n:
        raise ValueError("row length does not match ambient dimension")
    return coeffs, _frac(rhs)


def _json_rat(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class RationalCell:
    """Solution set of <c,x> = d rows (eq), < d rows (lt), <= d rows (le)."""

    n: int
    eq: tuple[Row, ...] = ()
    lt: tuple[Row, ...] = ()
    le: tuple[Row, ...] = ()

    @classmethod
    def make(cls, n: int, eq=(), lt=(), le=()) -> "RationalCell":
        return cls(n,
                   tuple(_coerce_row(r, n) for r in eq),
                   tuple(_coerce_row(r, n) for r in lt),
                   tuple(_coerce_row(r, n) for r in le))

    def _ineq_rows(self):
        return ([(c, r, True) for c, r in self.lt]
                + [(c, r, False) for c, r in self.le])

    def is_empty(self) -> bool:
        return not elim.feasible(self.n, self.eq, self._ineq_rows())

    def contains(self, point: Sequence) -> bool:
        p = [_frac(x) for x in point]
        if len(p) != self.n:
            raise ValueError("point dimension mismatch")
        dot = lambda c: sum(ci * xi for ci, xi in zip(c, p))
        return (all(dot(c) == d for c, d in self.eq)
                and all(dot(c) < d for c, d in self.lt)
                and all(dot(c) <= d for c, d in self.le))

    def coord_bounds(self, coord: int):
        return elim.coord_bounds(self.n, self.eq, self._ineq_rows(), coord)

    def sample_point(self) -> tuple[Fraction, ...]:
        """Any rational point of a nonempty convex cell, found by fixing
        coordinates one at a time inside their exact bounds."""
        fixed: list[Fraction] = []
        unit = lambda j: tuple(1 if i == j else 0 for i in range(self.n))
        for i in range(self.n):
            eqs = list(self.eq) + [(unit(j), v) for j, v in enumerate(fixed)]
            lo, _, hi, _ = elim.coord_bounds(self.n, eqs, self._ineq_rows(), i)
            if lo is not None and hi is not None:
                v = lo if lo == hi else (lo + hi) / 2
            elif lo is not None:
                v = lo + 1
            elif hi is not None:
                v = hi - 1
            else:
                v = Fraction(0)
            fixed.append(v)
        return tuple(fixed)

    def to_json(self) -> dict:
        row = lambda r: [*r[0], _json_rat(r[1])]
        return {"eq": [row(r) for r in self.eq],
                "lt": [row(r) for r in self.lt],
                "le": [row(r) for r in self.le]}

    @classmethod
    def from_json(cls, data: dict, n: int) -> "RationalCell":
        def rows(key):
            out = []
            for entry in data.get(key, ()):
                if len(entry) != n + 1:
                    raise ValueError("cell row length does not match dim")
                out.append((tuple(int(c) for c in entry[:-1]), _frac(entry[-1])))
            return tuple(out)
        return cls(n, rows("eq"), rows("lt"), rows("le"))


@dataclass(frozen=True)
class PolySet:
    """Finite union of rational cells in a common ambient dimension."""

    n: int
    cells: tuple[RationalCell, ...] = ()

    def __post_init__(self):
        for c in self.cells:
            if c.n != self.n:
                raise ValueError("all cells must share the ambient dimension")

    @classmethod
    def empty(cls, n: int) -> "PolySet":
        return cls(n, ())

    @classmethod
    def box(cls, intervals: Sequence[tuple]) -> "PolySet":
        """Product of intervals (lo, hi, lo_closed, hi_closed); None = infinite.

        A degenerate interval with lo == hi and both ends closed is a point.
        """
        n = len(intervals)
        eq, lt, le = [], [], []
        unit = lambda j, s: tuple(s if i == j else 0 for i in range(n))
        for j, (lo, hi, lc, hc) in enumerate(intervals):
            lo = None if lo is None else _frac(lo)
            hi = None if hi is None else _frac(hi)
            if lo is not None and hi is not None and lo == hi and lc and hc:
                eq.append((unit(j, 1), lo))
                continue
            if lo is not None:
                (le if lc else lt).append((unit(j, -1), -lo))
            if hi is not None:
                (le if hc else lt).append((unit(j, 1), hi))
        return cls(n, (RationalCell(n, tuple(eq), tuple(lt), tuple(le)),))

    @classmethod
    def interval(cls, lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> "PolySet":
        return cls.box([(lo, hi, lo_closed, hi_closed)])

    @classmethod
    def point(cls, coords: Sequence) -> "PolySet":
        return cls.box([(c, c, True, True) for c in coords])

    def union(self, other: "PolySet") -> "PolySet":
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        return PolySet(self.n, self.cells + other.cells)

    def to_json(self) -> dict:
        return {"dim": self.n, "cells": [c.to_json() for c in self.cells]}

    @classmethod
    def from_json(cls, data: dict) -> "PolySet":
        n = int(data["dim"])
        return cls(n, tuple(RationalCell.from_json(c, n) for c in data.get("cells", ())))


# ---------------------------------------------------------------------------
# open decomposition


class Face:
    """Relatively open nonempty cell of a hyperplane arrangement."""

    __slots__ = ("cell", "dim", "_sample")

    def __init__(self, cell: RationalCell, dim: int,
                 sample: Optional[tuple[Fraction, ...]] = None):
        self.cell = cell
        self.dim = dim
        self._sample = sample

    @property
    def sample(self) -> tuple[Fraction, ...]:
        if self._sample is None:
            self._sample = self.cell.sample_point()
        return self._sample

    def inside(self, cell: RationalCell) -> bool:
        # faces refine every defining hyperplane, so one point decides
        return cell.contains(self.sample)


def _axis_rows_only(cells: Iterable[RationalCell]) -> bool:
    for cell in cells:
        for coeffs, _ in (*cell.eq, *cell.lt, *cell.le):
            if sum(1 for c in coeffs if c) > 1:
                return False
    return True


def _axis_faces(cells: Sequence[RationalCell], n: int) -> list[Face]:
    breaks: list[set[Fraction]] = [set() for _ in range(n)]
    for cell in cells:
        for coeffs, rhs in (*cell.eq, *cell.lt, *cell.le):
            for j, c in enumerate(coeffs):
                if c:
                    breaks[j].add(rhs / c)
    axis_pieces: list[list[tuple]] = []
    for j in range(n):
        pts = sorted(breaks[j])
        pieces: list[tuple] = []  # (lo, hi) with lo == hi meaning a point
        prev = None
        for v in pts:
            pieces.append((prev, v))
            pieces.append((v, v))
            prev = v
        pieces.append((prev, None))
        axis_pieces.append(pieces)
    faces = []
    unit = lambda j, s: tuple(s if i == j else 0 for i in range(n))
    for combo in itertools.product(*axis_pieces):
        eq, lt = [], []
        dim = 0
        sample = []
        for j, (lo, hi) in enumerate(combo):
            if lo is not None and lo == hi:
                eq.append((unit(j, 1), lo))
                sample.append(lo)
                continue
            dim += 1
            if lo is not None:
                lt.append((unit(j, -1), -lo))
            if hi is not None:
                lt.append((unit(j, 1), hi))
            if lo is not None and hi is not None:
                sample.append((lo + hi) / 2)
            elif lo is not None:
                sample.append(lo + 1)
            elif hi is not None:
                sample.append(hi - 1)
            else:
                sample.append(Fraction(0))
        faces.append(Face(RationalCell(n, tuple(eq), tuple(lt), ()),
                          dim, tuple(sample)))
    return faces


def _hyperplane_key(coeffs: Sequence[int], rhs: Fraction):
    """Canonical (coeffs, rhs, orientation): primitive integer data with the
    first nonzero coefficient positive."""
    den = rhs.denominator
    ints = [c * den for c in coeffs]
    r = rhs.numerator
    g = gcd(*(abs(v) for v in ints), abs(r))
    if g > 1:
        ints = [v // g for v in ints]
        r //= g
    orient = 1
    for v in ints:
        if v:
            if v < 0:
                orient = -1
                ints = [-w for w in ints]
                r = -r
            break
    return (tuple(ints), Fraction(r)), orient


def _rank(rows: Sequence[Row]) -> int:
    mat = [[Fraction(c) for c in coeffs] for coeffs, _ in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / pr[col]
                mat[i] = [a - f * b for a, b in zip(mat[i], pr)]
        rank += 1
    return rank


def _general_faces(cells: Sequence[RationalCell], n: int) -> list[Face]:
    keys = []
    seen = set()
    for cell in cells:
        for coeffs, rhs in (*cell.eq, *cell.lt, *cell.le):
            if not any(coeffs):
                continue
            key, _ = _hyperplane_key(coeffs, rhs)
            if key not in seen:
                seen.add(key)
                keys.append(key)
    # each face: (eq_rows, lt_rows); split incrementally by each hyperplane
    faces: list[tuple[list[Row], list[Row]]] = [([], [])]
    for coeffs, rhs in keys:
        neg = (tuple(-c for c in coeffs), -rhs)
        new_faces = []
        for eq_rows, lt_rows in faces:
            for sign in (-1, 0, 1):
                if sign == 0:
                    cand = (eq_rows + [(coeffs, rhs)], lt_rows)
                elif sign < 0:
                    cand = (eq_rows, lt_rows + [(coeffs, rhs)])
                else:
                    cand = (eq_rows, lt_rows + [neg])
                if elim.feasible(n, cand[0], [(c, r, True) for c, r in cand[1]]):
                    new_faces.append(cand)
        if len(new_faces) > _FACE_BUDGET:
            raise ResourceLimitError("hyperplane arrangement face budget exceeded")
        faces = new_faces
    out = []
    for eq_rows, lt_rows in faces:
        cell = RationalCell(n, tuple(eq_rows), tuple(lt_rows), ())
        out.append(Face(cell, n - _rank(eq_rows)))
    return out


def arrangement_faces(cells: Sequence[RationalCell], n: int) -> list[Face]:
    """All relatively open faces of the arrangement of the cells' hyperplanes
    (covering all of Q^n, not just the union)."""
    if n > MAX_AMBIENT_DIM:
        raise DimensionLimitError(
            f"ambient dimension {n} exceeds the supported bound {MAX_AMBIENT_DIM}")
    live = [c for c in cells if not c.is_empty()]
    if _axis_rows_only(live):
        return _axis_faces(live, n)
    return _general_faces(live, n)


def decompose_open(S: PolySet) -> PolySet:
    """Disjoint relatively open cells with the same underlying point set."""
    live = [c for c in S.cells if not c.is_empty()]
    if not live:
        return PolySet.empty(S.n)
    faces = arrangement_faces(live, S.n)
    kept = [f.cell for f in faces if any(f.inside(c) for c in live)]
    return PolySet(S.n, tuple(kept))


def _faces_of(S: PolySet) -> list[Face]:
    live = [c for c in S.cells if not c.is_empty()]
    if not live:
        return []
    faces = arrangement_faces(live, S.n)
    return [f for f in faces if any(f.inside(c) for c in live)]


def face_pieces(face: Face) -> Optional[list[tuple]]:
    """Per-coordinate (lo, hi, is_point) data when the open face is a product
    of points and open intervals (every row single-coordinate); None when the
    face mixes coordinates."""
    n = face.cell.n
    pieces: list[list] = [[None, None, False] for _ in range(n)]
    for coeffs, rhs in (*face.cell.eq, *face.cell.lt, *face.cell.le):
        if sum(1 for c in coeffs if c) > 1:
            return None
    for coeffs, rhs in face.cell.eq:
        j = next(i for i, c in enumerate(coeffs) if c)
        v = rhs / coeffs[j]
        pieces[j] = [v, v, True]
    for kind in (face.cell.lt, face.cell.le):
        for coeffs, rhs in kind:
            j = next((i for i, c in enumerate(coeffs) if c), None)
            if j is None or pieces[j][2]:
                continue
            v = rhs / coeffs[j]
            if coeffs[j] > 0:
                if pieces[j][1] is None or v < pieces[j][1]:
                    pieces[j][1] = v
            else:
                if pieces[j][0] is None or v > pieces[j][0]:
                    pieces[j][0] = v
    return [tuple(p) for p in pieces]


def _face_bounds(face: Face) -> list[tuple[Optional[Fraction], Optional[Fraction]]]:
    pieces = face_pieces(face)
    if pieces is not None:
        return [(lo, hi) for lo, hi, _ in pieces]
    out = []
    for j in range(face.cell.n):
        lo, _, hi, _ = face.cell.coord_bounds(j)
        out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# Euler characteristics


def chi(S: PolySet) -> int:
    """o-minimal Euler characteristic: sum of (-1)^dim over open faces."""
    total = 0
    for face in _faces_of(S):
        for lo, hi in _face_bounds(face):
            if lo is None or hi is None:
                raise UnboundedInputError("chi requires a bounded set")
        total += (-1) ** face.dim
    return total


def _clip(S: PolySet, r: int) -> PolySet:
    box = [(Fraction(-r), Fraction(r), True, True)] * S.n
    box_cell = PolySet.box(box).cells[0]
    clipped = [RationalCell(S.n, c.eq + box_cell.eq, c.lt + box_cell.lt,
                            c.le + box_cell.le) for c in S.cells]
    return PolySet(S.n, tuple(clipped))


def chi_bounded(S: PolySet) -> int:
    """Stabilized chi(S intersected with [-r, r]^n) for large r.

    Supported for sets bounded below whose recession directions are spanned
    by standard basis vectors; detected by computing at r and 2r and
    requiring agreement.
    """
    faces = _faces_of(S)
    if not faces:
        return 0
    biggest = Fraction(0)
    for face in faces:
        for lo, hi in _face_bounds(face):
            if lo is None:
                raise UnsupportedRecessionError(
                    "chi_bounded requires coordinates bounded below")
            biggest = max(biggest, abs(lo))
            if hi is not None:
                biggest = max(biggest, abs(hi))
    r = floor(biggest) + 1
    v1 = chi(_clip(S, r))
    v2 = chi(_clip(S, 2 * r))
    if v1 != v2:
        raise UnsupportedRecessionError(
            "chi at truncation radii r and 2r disagree; recession cone outside "
            "the supported class")
    return v1


def weight(gamma: Sequence) -> Fraction:
    """Coordinate sum."""
    return sum((_frac(x) for x in gamma), Fraction(0))


# ---------------------------------------------------------------------------
# lattice enumeration and generating functions


def lattice_points(S: PolySet, m: int) -> list[tuple[Fraction, ...]]:
    """All points of S with coordinates in (1/m)Z, sorted lexicographically."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    live = [c for c in S.cells if not c.is_empty()]
    if not live:
        return []
    n = S.n
    lo_k = [None] * n
    hi_k = [None] * n
    for cell in live:
        for j in range(n):
            lo, _, hi, _ = cell.coord_bounds(j)
            if lo is None or hi is None:
                raise UnboundedInputError("lattice enumeration requires a bounded set")
            k0, k1 = ceil(lo * m), floor(hi * m)
            lo_k[j] = k0 if lo_k[j] is None else min(lo_k[j], k0)
            hi_k[j] = k1 if hi_k[j] is None else max(hi_k[j], k1)
    total = 1
    for j in range(n):
        total *= max(0, hi_k[j] - lo_k[j] + 1)
        if total > _LATTICE_BUDGET:
            raise ResourceLimitError("lattice bounding-box scan budget exceeded")
    out = []
    ranges = [range(lo_k[j], hi_k[j] + 1) for j in range(n)]
    for ks in itertools.product(*ranges):
        p = tuple(Fraction(k, m) for k in ks)
        if any(cell.contains(p) for cell in live):
            out.append(p)
    return out


def alpha_m(S: PolySet, m: int) -> LaurentPoly:
    """(T - 1)^n * sum over S's (1/m)-lattice points of T^(-m * weight)."""
    pts = lattice_points(S, m)
    acc: dict[int, int] = {}
    for p in pts:
        mw = m * weight(p)
        if mw.denominator != 1:
            raise AssertionError("m * weight must be integral on (1/m)Z points")
        e = -int(mw)
        acc[e] = acc.get(e, 0) + 1
    tm1 = LaurentPoly({1: 1, 0: -1})
    return tm1 ** S.n * LaurentPoly(acc)


def tilde_alpha(S: PolySet, m: int) -> DaggerSeries:
    """Exact rational form of alpha_m for products of intervals that may
    extend to +infinity; rays contribute geometric tails 1/(1 - T^-1) in the
    rewritten in-ring form -T^(1-k0)/(1-T)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not _axis_rows_only(S.cells):
        raise UnsupportedShapeError(
            "tilde_alpha supports finite unions of interval products only")
    faces = _faces_of(S)
    one = LaurentPoly.one()
    total = DaggerSeries.zero()
    for face in faces:
        factors = []
        dead = False
        for lo, hi, is_point in face_pieces(face):
            if is_point:
                mv = m * lo
                if mv.denominator != 1:
                    dead = True
                    break
                factors.append(DaggerSeries.monomial(-int(mv)))
                continue
            if lo is None:
                raise UnsupportedShapeError(
                    "tilde_alpha requires intervals bounded below")
            k0 = floor(m * lo) + 1  # open lower end: least k with k/m > lo
            if hi is None:
                factors.append(DaggerSeries({1 - k0: -one}, [(0, 1)]))
                continue
            k1 = ceil(m * hi) - 1
            if k0 > k1:
                dead = True
                break
            factors.append(DaggerSeries({-k: one for k in range(k0, k1 + 1)}))
        if dead:
            continue
        term = DaggerSeries.one()
        for f in factors:
            term = term * f
        total = total + term
    tm1 = DaggerSeries({1: one, 0: -one})
    for _ in range(S.n):
        total = total * tm1
    return total.peeled()
