"""Cell decomposition, Euler characteristics, and lattice generating sums."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetzeta.algebra import LaurentPoly, DaggerSeries
from jetzeta.errors import (
    DimensionLimitError, UnboundedInputError, UnsupportedRecessionError,
    UnsupportedShapeError,
)
from jetzeta.gamma import (
    RationalCell, PolySet, decompose_open, chi, chi_bounded, weight,
    lattice_points, alpha_m, tilde_alpha,
)
from jetzeta.gamma import cells
from jetzeta.gamma.cells import _faces_of, arrangement_faces


def closed_interval(lo, hi):
    return PolySet.interval(lo, hi, True, True)


def triangle() -> PolySet:
    # x >= 0, y >= 0, x + y <= 1
    return PolySet(2, (RationalCell.make(
        2, le=[((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]),))


def test_decompose_interval():
    faces = decompose_open(closed_interval(0, 1)).cells
    dims = sorted(len(c.eq) for c in faces)
    assert len(faces) == 3
    assert dims == [0, 1, 1]  # one open interval, two points


def test_decompose_point_identity():
    faces = decompose_open(PolySet.point([0])).cells
    assert len(faces) == 1
    assert faces[0].contains([0])


def test_decompose_triangle():
    faces = decompose_open(triangle()).cells
    assert len(faces) == 7  # 3 vertices + 3 open edges + 1 open 2-cell


def test_decompose_dimension_limit():
    S = PolySet.box([(0, 1, True, True)] * 5)
    with pytest.raises(DimensionLimitError):
        decompose_open(S)


def test_chi_examples():
    assert chi(PolySet.point([0])) == 1
    assert chi(PolySet.interval(0, 1, False, False)) == -1
    assert chi(closed_interval(0, 1)) == 1
    assert chi(triangle()) == 1
    assert chi(PolySet.empty(2)) == 0


def test_chi_unbounded_rejected():
    with pytest.raises(UnboundedInputError):
        chi(PolySet.box([(0, None, True, False)]))


def test_chi_additive_and_presentation_invariant():
    rng = random.Random(7)
    quarters = [Fraction(k, 4) for k in range(-8, 9)]
    for _ in range(25):
        n = rng.choice([1, 2])
        boxes = []
        for _ in range(rng.randint(1, 3)):
            iv = []
            for _ in range(n):
                lo, hi = sorted(rng.sample(quarters, 2))
                iv.append((lo, hi, rng.random() < 0.5, rng.random() < 0.5))
            boxes.append(PolySet.box(iv))
        union = boxes[0]
        for b in boxes[1:]:
            union = union.union(b)
        # chi computed on the raw union equals chi on its decomposition
        assert chi(union) == chi(decompose_open(union))
    # additivity on genuinely disjoint pieces
    left = PolySet.interval(0, 1, True, False)
    right = PolySet.interval(1, 2, True, True)
    assert chi(left.union(right)) == chi(left) + chi(right)
    assert chi(left) == 0 and chi(right) == 1


def test_chi_closed_convex_is_one_open_cell_is_signed():
    assert chi(closed_interval(-2, 5)) == 1
    assert chi(PolySet.box([(0, 1, True, True), (0, 1, True, True)])) == 1
    assert chi(PolySet.box([(0, 1, False, False), (0, 1, False, False)])) == 1
    open_square = PolySet(2, (RationalCell.make(
        2, lt=[((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)]),))
    assert len(decompose_open(open_square).cells) == 1


def test_chi_bounded_examples():
    # the definition is the stabilized chi of S clipped to [-r, r]^n
    assert chi_bounded(PolySet.box([(0, None, True, False)])) == 1
    assert chi_bounded(PolySet.box([(0, None, False, False)])) == 0
    assert chi_bounded(PolySet.point([0])) == 1
    assert chi_bounded(PolySet.empty(1)) == 0


def test_chi_bounded_agrees_with_chi_on_bounded():
    for S in (closed_interval(0, 1), triangle(),
              PolySet.interval(Fraction(1, 2), 3, False, True)):
        assert chi_bounded(S) == chi(S)


def test_chi_bounded_rejects_unbounded_below():
    with pytest.raises(UnsupportedRecessionError):
        chi_bounded(PolySet.box([(None, 0, False, True)]))


def test_chi_bounded_diagonal_ray():
    # {(x, y): x >= 0, y = x} clips to a closed segment for every radius
    diag = PolySet(2, (RationalCell.make(
        2, eq=[((1, -1), 0)], le=[((-1, 0), 0)]),))
    assert chi_bounded(diag) == 1


def test_weight_examples():
    assert weight([Fraction(1, 2), Fraction(1, 2)]) == 1
    assert weight([0, 0, 0]) == 0
    assert weight([Fraction(2, 3), Fraction(-1, 3), 1]) == Fraction(4, 3)


def test_lattice_points_examples():
    pts = lattice_points(closed_interval(0, 1), 2)
    assert pts == [(0,), (Fraction(1, 2),), (1,)]
    assert lattice_points(PolySet.interval(0, 1, False, False), 1) == []
    tri = lattice_points(triangle(), 1)
    assert tri == [(0, 0), (0, 1), (1, 0)]
    with pytest.raises(UnboundedInputError):
        lattice_points(PolySet.box([(0, None, True, False)]), 1)


def test_lattice_points_sorted_lex():
    sq = PolySet.box([(0, 1, True, True), (0, 1, True, True)])
    pts = lattice_points(sq, 2)
    assert pts == sorted(pts)
    assert len(pts) == 9


def test_alpha_examples():
    assert alpha_m(PolySet.point([0]), 1) == LaurentPoly({1: 1, 0: -1})
    assert alpha_m(closed_interval(0, 1), 1) == LaurentPoly({1: 1, -1: -1})
    assert alpha_m(PolySet.interval(0, 1, False, False), 2) == LaurentPoly({0: 1, -1: -1})


def test_alpha_divisible_by_t_minus_one_power():
    rng = random.Random(3)
    halves = [Fraction(k, 2) for k in range(-4, 5)]
    for _ in range(10):
        n = rng.choice([1, 2])
        iv = []
        for _ in range(n):
            lo, hi = sorted(rng.sample(halves, 2))
            iv.append((lo, hi, True, rng.random() < 0.5))
        S = PolySet.box(iv)
        m = rng.randint(1, 4)
        a = alpha_m(S, m)
        q = a
        for _ in range(n):
            q = q.divide_exact(LaurentPoly({1: 1, 0: -1}))
        assert isinstance(q, LaurentPoly)


def test_tilde_alpha_examples():
    one = DaggerSeries.one()
    for m in (1, 2, 3, 5):
        assert tilde_alpha(PolySet.box([(0, None, False, False)]), m) == one
    assert tilde_alpha(PolySet.point([0]), 4) == DaggerSeries(
        {1: LaurentPoly.one(), 0: -LaurentPoly.one()})
    assert tilde_alpha(PolySet.box([(0, None, True, False)]), 1) == \
        DaggerSeries.monomial(1)


def test_tilde_alpha_matches_alpha_on_bounded():
    rng = random.Random(11)
    thirds = [Fraction(k, 3) for k in range(-6, 7)]
    for _ in range(20):
        n = rng.choice([1, 2])
        iv = []
        for _ in range(n):
            lo, hi = sorted(rng.sample(thirds, 2))
            iv.append((lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        S = PolySet.box(iv)
        m = rng.randint(1, 4)
        ta = tilde_alpha(S, m)
        assert ta.den == ()
        got = {t: c for t, c in ta.num.items()}
        expected = {e: LaurentPoly.from_int(c)
                    for e, c in alpha_m(S, m).items()}
        assert got == expected


def test_tilde_alpha_rejects_unsupported():
    diag = PolySet(2, (RationalCell.make(2, eq=[((1, -1), 0)]),))
    with pytest.raises(UnsupportedShapeError):
        tilde_alpha(diag, 1)
    with pytest.raises(UnsupportedShapeError):
        tilde_alpha(PolySet.box([(None, 0, False, True)]), 1)


def test_sample_point_lies_in_cell():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 3)
        rows_lt, rows_le, rows_eq = [], [], []
        for _ in range(rng.randint(1, 4)):
            coeffs = tuple(rng.randint(-2, 2) for _ in range(n))
            rhs = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            rng.choice([rows_lt, rows_le, rows_eq]).append((coeffs, rhs))
        cell = RationalCell.make(n, eq=rows_eq, lt=rows_lt, le=rows_le)
        if cell.is_empty():
            continue
        assert cell.contains(cell.sample_point())


def test_cell_json_roundtrip():
    cell = RationalCell.make(
        2, eq=[((1, -1), Fraction(1, 2))], lt=[((1, 0), 3)], le=[((0, 1), -2)])
    S = PolySet(2, (cell,))
    back = PolySet.from_json(S.to_json())
    assert back == S


def test_decompose_is_disjoint_and_exhaustive_on_lattice():
    S = triangle().union(PolySet.box([(0, 2, True, True), (0, 0, True, True)]))
    D = decompose_open(S)
    for m in (1, 2, 3):
        for p in lattice_points(PolySet.box([(-1, 3, True, True)] * 2), m):
            inside = sum(1 for c in D.cells if c.contains(p))
            assert inside == (1 if any(c.contains(p) for c in S.cells) else 0)


def decoded_pieces(face):
    """Per-coordinate (lo, hi, is_point) read back from the face's rows; None
    when a row mixes coordinates."""
    cell = face.cell
    pieces = [[None, None, False] for _ in range(cell.n)]
    for coeffs, _ in (*cell.eq, *cell.lt, *cell.le):
        if sum(1 for c in coeffs if c) > 1:
            return None
    for coeffs, rhs in cell.eq:
        j = next(i for i, c in enumerate(coeffs) if c)
        v = rhs / coeffs[j]
        pieces[j] = [v, v, True]
    for coeffs, rhs in (*cell.lt, *cell.le):
        j = next((i for i, c in enumerate(coeffs) if c), None)
        if j is None or pieces[j][2]:
            continue
        v = rhs / coeffs[j]
        if coeffs[j] > 0:
            if pieces[j][1] is None or v < pieces[j][1]:
                pieces[j][1] = v
        elif pieces[j][0] is None or v > pieces[j][0]:
            pieces[j][0] = v
    return tuple(tuple(p) for p in pieces)


def test_axis_faces_carry_their_row_pieces():
    rng = random.Random(0xCE11)
    for _ in range(40):
        n = rng.randint(1, 3)
        intervals = []
        for _ in range(n):
            k0, k1 = sorted((rng.randint(-6, 6), rng.randint(-6, 6)))
            intervals.append((Fraction(k0, 3), Fraction(k1, 3),
                              rng.random() < 0.5, rng.random() < 0.5))
        S = PolySet.box(intervals)
        j = rng.randrange(n)
        unit = tuple(1 if i == j else 0 for i in range(n))
        cut = Fraction(rng.randint(-6, 6), 2)
        guards = [RationalCell.make(n, lt=[(unit, cut)]),
                  RationalCell.make(n, le=[(tuple(-c for c in unit), -cut)])]
        for face in _faces_of(S.cells, n, guards):
            assert face.pieces == decoded_pieces(face)
    for face in arrangement_faces(triangle().cells, 2):
        assert face.pieces is None and decoded_pieces(face) is None


def test_each_cell_checked_for_emptiness_once(monkeypatch):
    # _faces_of filters the cells, the arrangement filters them again, and
    # chi after the zeta series asks a third time: one feasibility test each
    checked = []
    feasible = cells.elim.feasible

    def spy(n, eqs, ineqs):
        checked.append((n, tuple(eqs), tuple(ineqs)))
        return feasible(n, eqs, ineqs)

    monkeypatch.setattr(cells.elim, "feasible", spy)
    S = PolySet.box([(0, 1, True, False), (Fraction(-1, 2), 2, False, True)])
    empty = RationalCell.make(1, lt=[((1,), 0), ((-1,), 0)])
    assert chi(S) == chi(S) == 0
    assert empty.is_empty() and empty.is_empty()
    assert len(checked) == len(set(checked)) == 2
