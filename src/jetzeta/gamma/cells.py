"""Rational polyhedral cells, open decompositions, and Euler characteristics.

A PolySet is a finite union of cells cut out by integer linear equalities and
(strict or weak) inequalities.  decompose_open refines the union into the
relatively open faces of the hyperplane arrangement spanned by all defining
rows; chi sums (-1)^dim over those faces, which is the o-minimal Euler
characteristic and independent of presentation.  Everything is exact.

Two decomposition paths: a fast one when every row constrains a single
coordinate (the union is then a union of interval products and faces are
products of points and open intervals), and a general incremental
hyperplane-splitting path with Fourier-Motzkin feasibility checks.  Faces of
the fast path carry their per-coordinate (lo, hi, is_point) pieces, the data
the lattice and zeta series are built from; faces of the general path carry
a row for every hyperplane, one of which mixes coordinates, and have none.
_faces_of is the one place that keeps the faces lying inside a live cell.
On axis-only sets it never builds the others: a live cell is then the
product of per-axis sets whose ends are breakpoints, so a face lies in it
exactly when each of its pieces lies in the cell's set on that axis.  That
is decided once per (cell, axis, piece) from the piece's sample coordinate,
and a Face is built only for the index tuples inside some live cell, in the
order arrangement_faces lists them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor
from typing import Iterable, Optional, Sequence

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
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def _int(x) -> int:
    """What operator.index takes but a bool, or a _frac of denominator 1."""
    if hasattr(x, "__index__") and not isinstance(x, bool):
        return operator.index(x)
    if (r := _frac(x)).denominator != 1:
        raise ValueError(f"expected an integer, got {x!r}")
    return r.numerator


def _coerce_row(row, n: int) -> Row:
    coeffs, rhs = row
    coeffs = tuple(_int(c) for c in coeffs)
    if len(coeffs) != n:
        raise ValueError("row length does not match ambient dimension")
    return coeffs, _frac(rhs)


def _inside(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    """A point of the interval between lo and hi, None for an open end:
    the midpoint, lo + 1, hi - 1 or 0."""
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    if hi is not None:
        return hi - 1
    return Fraction(0)


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

    @cached_property
    def _empty(self) -> bool:
        return not elim.feasible(self.n, self.eq, self._ineq_rows())

    def is_empty(self) -> bool:
        # one Fourier-Motzkin test per cell object: _faces_of, the
        # arrangement it builds and the next caller on the same set all ask
        return self._empty

    def contains(self, point: Sequence) -> bool:
        p = [_frac(x) for x in point]
        if len(p) != self.n:
            raise ValueError("point dimension mismatch")
        dot = lambda c: sum(ci * xi for ci, xi in zip(c, p) if ci)
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
            fixed.append(_inside(lo, hi))
        return tuple(fixed)

    def to_json(self) -> dict:
        row = lambda r: [*r[0], _json_rat(r[1])]
        return {"eq": [row(r) for r in self.eq],
                "lt": [row(r) for r in self.lt],
                "le": [row(r) for r in self.le]}

    @classmethod
    def from_json(cls, data: dict, n: int) -> "RationalCell":
        return cls.make(n, *([(row[:-1], row[-1]) for row in data.get(key, ())]
                             for key in ("eq", "lt", "le")))


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
        n = _int(data["dim"])
        return cls(n, tuple(RationalCell.from_json(c, n) for c in data.get("cells", ())))


# ---------------------------------------------------------------------------
# open decomposition


class Face:
    """Relatively open nonempty cell of a hyperplane arrangement."""

    __slots__ = ("cell", "dim", "_sample", "pieces")

    def __init__(self, cell: RationalCell, dim: int,
                 sample: Optional[tuple[Fraction, ...]] = None,
                 pieces: Optional[tuple[tuple, ...]] = None):
        self.cell = cell
        self.dim = dim
        self._sample = sample
        self.pieces = pieces

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


def _axis_parts(cells: Sequence[RationalCell], n: int) -> list[list[tuple]]:
    """Per axis, in ascending order, the points and open intervals that the
    cells' breakpoints cut it into, as (piece, sample coordinate, eq rows,
    lt rows) with piece = (lo, hi, is_point)."""
    breaks: list[set[Fraction]] = [set() for _ in range(n)]
    for cell in cells:
        for coeffs, rhs in (*cell.eq, *cell.lt, *cell.le):
            for j, c in enumerate(coeffs):
                if c:
                    breaks[j].add(rhs / c)
    unit = lambda j, s: tuple(s if i == j else 0 for i in range(n))
    axis_parts: list[list[tuple]] = []
    for j in range(n):
        ends = [None, *sorted(breaks[j]), None]
        parts: list[tuple] = []
        for lo, hi in zip(ends, ends[1:]):
            lt = tuple((unit(j, s), s * v) for s, v in ((-1, lo), (1, hi))
                       if v is not None)
            parts.append(((lo, hi, False), _inside(lo, hi), (), lt))
            if hi is not None:
                parts.append(((hi, hi, True), hi, ((unit(j, 1), hi),), ()))
        axis_parts.append(parts)
    return axis_parts


def _axis_face(parts: Sequence[tuple]) -> Face:
    """The open face that is the product of one part per axis."""
    pieces = tuple(part[0] for part in parts)
    cell = RationalCell(len(parts), tuple(r for part in parts for r in part[2]),
                        tuple(r for part in parts for r in part[3]), ())
    return Face(cell, sum(not is_point for _, _, is_point in pieces),
                tuple(part[1] for part in parts), pieces)


def _hyperplane_key(coeffs: Sequence[int], rhs: Fraction) -> Row:
    """Canonical (coeffs, rhs): primitive integer data with the first
    nonzero coefficient positive."""
    ints, r, _ = elim._normalize(coeffs, rhs, False)
    sign = -1 if next(v for v in ints if v) < 0 else 1
    return tuple(int(sign * v) for v in ints), sign * r


def _row_reduce(mat: list[list[Fraction]], cols: int) -> int:
    """Gauss-Jordan elimination of mat in place over its first cols columns;
    returns the rank.  A nonsingular square system [A | b] ends as
    [diag | b'], with solution b'_i / diag_i."""
    rank = 0
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
            key = _hyperplane_key(coeffs, rhs)
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
        mat = [[Fraction(c) for c in coeffs] for coeffs, _ in eq_rows]
        out.append(Face(cell, n - _row_reduce(mat, n)))
    return out


def arrangement_faces(cells: Sequence[RationalCell], n: int) -> list[Face]:
    """All relatively open faces of the arrangement of the cells' hyperplanes
    (covering all of Q^n, not just the union)."""
    if n > MAX_AMBIENT_DIM:
        raise DimensionLimitError(
            f"ambient dimension {n} exceeds the supported bound {MAX_AMBIENT_DIM}")
    live = [c for c in cells if not c.is_empty()]
    if _axis_rows_only(live):
        return list(map(_axis_face, itertools.product(*_axis_parts(live, n))))
    return _general_faces(live, n)


def _faces_of(cells: Sequence[RationalCell], n: int,
              guards: Sequence[RationalCell] = ()) -> list[Face]:
    """Faces of the arrangement of the cells' and guards' hyperplanes that lie
    inside a nonempty cell."""
    live = [c for c in cells if not c.is_empty()]
    if not live:
        return []
    walls = [*live, *(g for g in guards if not g.is_empty())]
    if n > MAX_AMBIENT_DIM or not _axis_rows_only(walls):
        faces = arrangement_faces(walls, n)
        return [f for f in faces if any(f.inside(c) for c in live)]
    # per axis, the pieces inside each live cell (see the module docstring)
    axis_parts = _axis_parts(walls, n)
    kept: set[tuple[int, ...]] = set()
    for cell in live:
        rows = [(c, d, op) for op, group in ((operator.eq, cell.eq),
                                             (operator.lt, cell.lt),
                                             (operator.le, cell.le))
                for c, d in group]
        kept.update(itertools.product(*(
            [i for i, (_, x, _, _) in enumerate(parts)
             if all(op(c[j] * x, d) for c, d, op in rows if c[j])]
            for j, parts in enumerate(axis_parts))))
    # itertools.product runs through index tuples in lexicographic order
    return [_axis_face([parts[i] for parts, i in zip(axis_parts, idx)])
            for idx in sorted(kept)]


def decompose_open(S: PolySet) -> PolySet:
    """Disjoint relatively open cells with the same underlying point set."""
    return PolySet(S.n, tuple(f.cell for f in _faces_of(S.cells, S.n)))


def face_pieces(face: Face) -> Optional[tuple[tuple, ...]]:
    """Per-coordinate (lo, hi, is_point) data when the open face is a product
    of points and open intervals (every row single-coordinate); None when the
    face mixes coordinates."""
    return face.pieces


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
    for face in _faces_of(S.cells, S.n):
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
    faces = _faces_of(S.cells, S.n)
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


def _lattice_sum(S: PolySet, m: int, value) -> LaurentPoly:
    """Sum over S's (1/m)-lattice points p of X^(-m * value(p))."""
    mvs = [m * value(p) for p in lattice_points(S, m)]
    if any(mv.denominator != 1 for mv in mvs):
        raise AssertionError("m * value must be integral on (1/m)Z points")
    return LaurentPoly((-int(mv), 1) for mv in mvs)


def alpha_m(S: PolySet, m: int) -> LaurentPoly:
    """(T - 1)^n * sum over S's (1/m)-lattice points of T^(-m * weight)."""
    tm1 = LaurentPoly({1: 1, 0: -1})
    return tm1 ** S.n * _lattice_sum(S, m, weight)


def tilde_alpha(S: PolySet, m: int) -> DaggerSeries:
    """Exact rational form of alpha_m for products of intervals that may
    extend to +infinity; rays contribute geometric tails 1/(1 - T^-1) in the
    rewritten in-ring form -T^(1-k0)/(1-T)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not _axis_rows_only(S.cells):
        raise UnsupportedShapeError(
            "tilde_alpha supports finite unions of interval products only")
    faces = _faces_of(S.cells, S.n)
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
