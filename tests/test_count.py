"""Exact point counting: symbolic reduction against full enumeration."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import random
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from jetzeta.errors import ResourceLimitError
from jetzeta.jets import count, gf
from jetzeta.jets.classify import class_of_jets
from jetzeta.jets.count import (FP, GRID_CAP, _Budget, _fold_system,
                                _quad_private_grid, _quad_root_count, _solve,
                                _sweep_count, count_points, naive_count)
from jetzeta.jets.gf import make_field
from jetzeta.jets.poly import MultiPoly, parse_poly
from jetzeta.jets.system import JetConstraintSystem, build_jet_system


def _sys(text: str, x, m: int):
    return build_jet_system(parse_poly(text), x, m)


def test_square_examples():
    assert count_points(_sys("x1^2", [0], 2), 5) == 10
    assert count_points(_sys("x1^2", [0], 1), 5) == 0
    assert count_points(_sys("x1", [0], 1), 7) == 1


def test_square_even_orders():
    # a1 = ... = 0 down to the middle coefficient, which squares to 1
    for q in (3, 5, 7, 13):
        assert count_points(_sys("x1^2", [0], 2), q) == 2 * q
        assert count_points(_sys("x1^2", [0], 4), q) == 2 * q ** 2
        assert count_points(_sys("x1^2", [0], 6), q) == 2 * q ** 3
    for m in (1, 3, 5):
        assert count_points(_sys("x1^2", [0], m), 7) == 0


def test_node_counts():
    for q in (3, 5, 7, 11):
        assert count_points(_sys("x1*x2", [0, 0], 1), q) == 0
        assert count_points(_sys("x1*x2", [0, 0], 2), q) == (q - 1) * q ** 2
        assert count_points(_sys("x1*x2", [0, 0], 3), q) == 2 * (q - 1) * q ** 3
        assert count_points(_sys("x1*x2", [0, 0], 6), q) == 5 * (q - 1) * q ** 6


def test_cusp_small_orders():
    for q in (5, 7, 13):
        assert count_points(_sys("x1^2 + x2^3", [0, 0], 2), q) == 2 * q ** 3
        mu3 = 3 if q % 3 == 1 else 1
        assert count_points(_sys("x1^2 + x2^3", [0, 0], 3), q) == mu3 * q ** 4
        assert count_points(_sys("x1^2 + x2^3", [0, 0], 4), q) == 2 * q ** 5
        assert count_points(_sys("x1^2 + x2^3", [0, 0], 5), q) == 0


def test_cusp_order_six_elliptic_leaf():
    # reduction leaves (a3^2 + b2^3 = 1) x q^7; the plane curve is elliptic
    # with 11 affine points over F_7 and 47 over F_49
    sys = _sys("x1^2 + x2^3", [0, 0], 6)
    assert count_points(sys, 7) == 11 * 7 ** 7
    assert count_points(sys, 49) == 47 * 49 ** 7
    # 5 = 2 mod 3 is supersingular for this curve: exactly q affine points
    assert count_points(sys, 5) == 5 ** 8


def test_sum_of_squares_depends_on_residue():
    sys2 = _sys("x1^2 + x2^2", [0, 0], 2)
    for q in (5, 13, 9):
        assert count_points(sys2, q) == (q - 1) * q ** 2
    for q in (3, 7, 11):
        assert count_points(sys2, q) == (q + 1) * q ** 2
    assert count_points(_sys("x1^2 + x2^2", [0, 0], 3), 7) == 0
    assert count_points(_sys("x1^2 + x2^2", [0, 0], 3), 5) == 2 * 4 * 5 ** 3


def test_matches_naive_on_fixtures():
    cases = [("x1^2", [0]), ("x1*x2", [0, 0]),
             ("x1^2 + x2^2", [0, 0]), ("x1^2 + x2^3", [0, 0])]
    for text, x in cases:
        f = parse_poly(text)
        n = f.n_vars
        for m in range(1, 5):
            for q in (2, 3, 5):
                if q ** (n * m) > 10 ** 6:
                    continue
                sys = build_jet_system(f, x, m)
                assert count_points(sys, q) == naive_count(sys, q), \
                    (text, m, q)


def test_matches_naive_on_random_systems():
    rng = random.Random(20240817)
    mono = [(2, 0), (0, 2), (1, 1), (3, 0), (0, 3), (1, 0), (0, 1), (2, 1)]
    checked = 0
    while checked < 25:
        coeffs = {e: rng.randint(-2, 2) for e in rng.sample(mono, rng.randint(1, 4))}
        f = MultiPoly(2, coeffs)
        if f.is_zero() or f.evaluate([0, 0]) != 0:
            continue
        m = rng.randint(1, 3)
        q = rng.choice([2, 3, 5])
        if q ** (2 * m) > 10 ** 6:
            continue
        sys = build_jet_system(f, [0, 0], m)
        assert count_points(sys, q) == naive_count(sys, q), (coeffs, m, q)
        checked += 1


def test_matches_naive_over_extension_field():
    sys = _sys("x1^2 + x2^3", [0, 0], 2)
    for q in (4, 9, 25):
        assert count_points(sys, q) == naive_count(sys, q)


def test_rational_base_point_count():
    # f vanishing at 1/3 with multiplicity 1: both jet coefficients are
    # pinned at a smooth point, so exactly one jet survives
    from fractions import Fraction
    f = MultiPoly(1, {(2,): 1, (0,): Fraction(-1, 9)})
    sys = build_jet_system(f, [Fraction(1, 3)], 2)
    for q in (5, 7):
        assert count_points(sys, q) == naive_count(sys, q) == 1


def test_budget_error():
    sys = _sys("x1*x2", [0, 0], 6)
    with pytest.raises(ResourceLimitError):
        count_points(sys, 11, node_budget=5)


def test_naive_space_cap():
    sys = _sys("x1*x2", [0, 0], 6)
    with pytest.raises(ResourceLimitError):
        naive_count(sys, 11)


def test_unreducible_over_large_field():
    # three cubes in three fresh variables admit no symbolic rule and the
    # grid does not fit over a large field
    sys = build_jet_system(parse_poly("x1^3 + x2^3 + x3^3"), [0, 0, 0], 3)
    with pytest.raises(ResourceLimitError):
        count_points(sys, 5 ** 8)
    # over a small field the same system falls back to the grid
    assert count_points(sys, 5) == naive_count(sys, 5)


@pytest.mark.parametrize("q", [2, 3])
def test_polynomial_coefficient_split_on_a_real_germ(q, monkeypatch):
    # x1*x2*x3 is the germ whose level systems reach the linear variable
    # with a polynomial coefficient, the only caller of cleared_substitute
    calls = []
    cleared = FP.cleared_substitute

    def spy(self, *args):
        calls.append(args[0])
        return cleared(self, *args)

    monkeypatch.setattr(FP, "cleared_substitute", spy)
    sys = _sys("x1*x2*x3", [0, 0, 0], 4)
    assert count_points(sys, q) == naive_count(sys, q)
    assert calls


def test_large_prime_beyond_grid_cap():
    # A1 at m=6 takes neither line rule: the block-linear rule and the
    # two-variable private grid, a scan of q points, count it past the grid
    # cap; 2017 = 1 mod 24 lies in the residue pool whose fit (on primes up
    # to 1009) carries the class
    f = parse_poly("x1^2 + x2^2")
    q = 2017
    assert q % 24 == 1 and q * q > GRID_CAP
    jc = class_of_jets(f, [0, 0], 6)
    assert jc.route == "residue"
    assert max(jc.table.primes) <= 1009
    assert count_points(build_jet_system(f, [0, 0], 6), q) == jc.cls.poly.eval_at(q)


@pytest.mark.parametrize("q, count", [
    (5 ** 8, 540366362766775409909314475953578948974609375),
    (7 ** 7, 211718130979806089547798376418108587985691569957),
    (7 ** 8, 1218906943201756716108707262317520324975461191310251967),
])
def test_cusp_trace_towers_pinned(q, count):
    # the trace route reads chi of the cusp at m=6 off these two towers; its
    # counts build the quadratic character, but never the LOG table
    gf._FIELD_CACHE.pop(q, None)
    assert count_points(_sys("x1^2 + x2^3", [0, 0], 6), q) == count
    assert "LOG" not in make_field(q).__dict__


@pytest.mark.parametrize("q", [9, 25, 49])
def test_quadratic_helpers_constant_leading_no_linear_term(q):
    # 3 v^2 + w^3 - w - 1 = 0, and beside it w^2 = u + 2 in a third
    # variable: A is a constant and B is absent
    quad = MultiPoly(3, {(2, 0, 0): 3, (0, 3, 0): 1, (0, 1, 0): -1,
                         (0, 0, 0): -1})
    other = MultiPoly(3, {(0, 2, 0): 1, (0, 0, 1): -1, (0, 0, 0): -2})
    F = make_field(q)
    budget = _Budget(1 << 40)
    one = _system(3, [quad])
    (eq,) = _fold_system(one, F)
    assert _quad_private_grid([eq], 0, 0, [1], F, budget) * q == \
        naive_count(one, q)
    two = _system(3, [quad, other])
    eqs = _fold_system(two, F)
    assert _quad_private_grid(eqs, 0, 0, [1, 2], F, budget) == \
        naive_count(two, q) == count_points(two, q)


@pytest.mark.parametrize("text, m, q, count, spent, memo", [
    ("x1*x2", 12, 101, 1239507533145166692727321100, 620, 62),
    ("x1^2 + x2^2", 5, 73, 597044618784, 178, 15),
    ("x1^2 + x2^3", 5, 13, 0, 30, 3),
    ("x1^2 + x2^3", 6, 25, 213623046875, 51, 4),
])
def test_recursion_path_pinned(text, m, q, count, spent, memo):
    # the budget spent and the memo size fix which reductions fired, so a
    # faster kernel must reproduce them, not only the count
    sys = _sys(text, [0, 0], m)
    F = make_field(q)
    budget = _Budget(10 ** 12)
    got = _solve(_fold_system(sys, F), frozenset(range(sys.n_jet_vars)), F, budget)
    assert (got, 10 ** 12 - budget.left, len(budget.memo)) == (count, spent, memo)


# -- the chunked enumerator, with chunk edges inside the field ---------------

def test_small_chunks_match_naive_on_fixtures(monkeypatch):
    monkeypatch.setattr(count, "_CHUNK", 7)
    cases = [("x1^2", [0]), ("x1*x2", [0, 0]),
             ("x1^2 + x2^2", [0, 0]), ("x1^2 + x2^3", [0, 0])]
    for text, x in cases:
        f = parse_poly(text)
        for m in range(1, 5):
            for q in (3, 5, 7, 9):
                if q ** (f.n_vars * m) > 5000:
                    continue
                sys = build_jet_system(f, x, m)
                assert count_points(sys, q) == naive_count(sys, q), \
                    (text, m, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_small_chunks_visit_every_grid_point_once(q, monkeypatch):
    monkeypatch.setattr(count, "_CHUNK", 7)
    F = make_field(q)
    grid = list(itertools.product(range(q), repeat=3))
    # x0^2 = x1 x2 over a chunked grid of (x1, x2, x0), in that order
    eq = FP.from_int_poly(F, MultiPoly(3, {(2, 0, 0): 1, (0, 1, 1): -1}))
    for eqs, want in (([], grid),
                      ([eq], [x for x in grid
                              if F.mul(x[0], x[0]) == F.mul(x[1], x[2])])):
        seen = []
        for coords, n in count._grid_zeros(eqs, [1, 2, 0], F):
            assert all(len(c) == n for c in coords.values())
            seen += zip(*(coords[v].tolist() for v in range(3)))
        assert sorted(seen) == want
        assert count._enumerate(eqs, [1, 2, 0], F) == len(want)


def _private_quadratic(with_b: bool, with_grid: bool) -> JetConstraintSystem:
    # 2 v^2 [+ w1^2 v] + C = 0 with v = x0 in no other equation: alone in
    # two variables the private grid counts it over w1, beside a cubic in
    # (w1, w2) over both; exponents 0, 2, 3 keep the earlier rules off
    if with_grid:
        c = {(0, 2, 2): 1, (0, 0, 3): 1, (0, 0, 0): 1}
        other = [MultiPoly(3, {(0, 3, 0): 1, (0, 0, 3): 1, (0, 2, 2): 1,
                               (0, 0, 0): 2})]
    else:
        c = {(0, 3, 0): 1, (0, 2, 0): 3, (0, 0, 0): 1}
        other = []
    quad = {(2, 0, 0): 2, **c}
    if with_b:
        quad[(1, 2, 0)] = 1
    return _system(3, [MultiPoly(3, quad)] + other)


@pytest.mark.parametrize("with_grid", [False, True])
@pytest.mark.parametrize("with_b", [False, True])
@pytest.mark.parametrize("q", [3, 7, 11, 19])
def test_small_chunks_match_naive_on_private_quadratic(q, with_b, with_grid,
                                                       monkeypatch):
    # p = 3 mod 4, so chi2(-1) = -1 and chi2(-4A) = chi2(-8) is -1 at 7, 11
    # and 19: a sign slip in factoring chi2(-4A C) out shows; with B != 0
    # the count takes the discriminant path
    monkeypatch.setattr(count, "_CHUNK", 7)
    weights = []
    enumerate_ = count._enumerate

    def spy(eqs, vs, F, by=None):
        weights.append(by is not None)
        return enumerate_(eqs, vs, F, by)

    monkeypatch.setattr(count, "_enumerate", spy)
    sys = _private_quadratic(with_b, with_grid)
    assert count_points(sys, q) == naive_count(sys, q)
    assert any(weights)


@pytest.mark.parametrize("q, want", [(125, 125), (127, 107), (343, 323)])
def test_one_variable_private_grid_ignores_grid_cap(q, want, monkeypatch):
    # a grid over one variable is a chunked scan of q points, like the line
    # sweep, so GRID_CAP leaves it alone; grids over two variables stay
    # capped
    monkeypatch.setattr(count, "GRID_CAP", 100)
    sys = _system(2, [MultiPoly(2, {(2, 0): 2, (0, 3): -1, (0, 0): -1})])
    assert count_points(sys, q) == naive_count(sys, q) == want
    with pytest.raises(ResourceLimitError, match=(
            "no applicable reduction for 2 equations in 3 variables over a "
            "field of size 11")):
        count_points(_private_quadratic(False, True), 11)


# -- property tests of the line rules against full enumeration ----------------

FIELD_SIZES = [2, 3, 4, 5, 7, 8, 9, 11, 25]
coeff_st = st.integers(min_value=-3, max_value=3).filter(bool)


def _system(n_vars: int, polys: list[MultiPoly]) -> JetConstraintSystem:
    return JetConstraintSystem(n_vars, 1, tuple(polys), (0,) * len(polys))


def _monomial(n_vars: int, powers: dict[int, int]) -> tuple[int, ...]:
    return tuple(powers.get(j, 0) for j in range(n_vars))


@st.composite
def binary_form(draw, n_vars: int, v: int, w: int, degree: int) -> MultiPoly:
    # zero coefficients included: a form without w^d vanishes on v = 0
    return MultiPoly(n_vars, {_monomial(n_vars, {v: degree - a, w: a}):
                              draw(st.integers(-3, 3)) for a in range(degree + 1)})


@st.composite
def small_poly(draw, n_vars: int) -> MultiPoly:
    # no exponent 1, so that the linear eliminations leave the system to
    # the line rules more often
    vs = draw(st.lists(st.integers(0, n_vars - 1), min_size=2, max_size=3,
                       unique=True))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.sampled_from([0, 2, 3])] * len(vs)), coeff_st),
        min_size=1, max_size=4))
    return MultiPoly(n_vars, [(_monomial(n_vars, dict(zip(vs, e))), c)
                              for e, c in terms])


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_binary_form_split_matches_naive(data):
    q = data.draw(st.sampled_from(FIELD_SIZES))
    v, w = data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=2,
                              unique=True))
    form = data.draw(binary_form(3, v, w, data.draw(st.integers(2, 4))))
    others = data.draw(st.lists(small_poly(3), max_size=2))
    sys = _system(3, [form] + others)
    assert count_points(sys, q) == naive_count(sys, q)


@seed(20261019)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_two_degree_sweep_matches_naive(data):
    q = data.draw(st.sampled_from(FIELD_SIZES))
    degrees = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=2,
                                 unique=True))
    eq = MultiPoly(2)
    for d in degrees:
        eq = eq + data.draw(binary_form(2, 0, 1, d))
    sys = _system(2, [eq])
    want = naive_count(sys, q)
    assert count_points(sys, q) == want
    (folded,) = _fold_system(sys, make_field(q))
    if not folded.is_zero():
        assert _sweep_count(folded, 0, 1, _Budget(1 << 40)) == want


LONE_TWO_DEGREE = [
    {(3, 0): 1, (0, 3): 1, (0, 0): -1},
    {(4, 0): 1, (0, 4): 2, (0, 0): 3},
    {(3, 0): 1, (1, 2): 1, (0, 0): 1},
]


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("q", [7, 8, 9, 11, 25, 27])
def test_sweep_small_chunks_match_naive(q, chunk, monkeypatch):
    # chunk edges fall inside the directions (1, t), and (0, 1) comes last
    monkeypatch.setattr(count, "_CHUNK", chunk)
    for terms in LONE_TWO_DEGREE:
        sys = _system(2, [MultiPoly(2, terms)])
        (eq,) = _fold_system(sys, make_field(q))
        assert _sweep_count(eq, 0, 1, _Budget(1 << 40)) == \
            naive_count(sys, q), (terms, q)


def test_sweep_holds_one_chunk(monkeypatch):
    # q + 1 directions at once would hold several arrays of 8*q bytes
    monkeypatch.setattr(count, "_CHUNK", 1024)
    F = gf.PrimeField(100003)
    (eq,) = _fold_system(_system(2, [MultiPoly(2, LONE_TWO_DEGREE[0])]), F)
    tracemalloc.start()
    try:
        _sweep_count(eq, 0, 1, _Budget(1 << 40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 << 10


SHARED_EXPS = [0, 3, 4]


def _shared_terms(draw, n_vars: int, coeffs) -> dict:
    # monomials in the shared variables x0, x1 only; exponents 0, 3, 4 keep
    # the bare-linear rule off
    exp = st.sampled_from(SHARED_EXPS)
    pairs = draw(st.lists(st.tuples(exp, exp), max_size=3, unique=True))
    return {_monomial(n_vars, {0: a, 1: b}): draw(coeffs) for a, b in pairs}


@seed(20261025)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_linear_rule_matches_naive(data):
    # e = sum c_v*v + r with 2-3 private variables v, each c_v a common
    # factor g times its own h_v (so the c_v can vanish together), beside an
    # optional second equation in x0, x1 that is never constant
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
    k = data.draw(st.integers(2, 3))
    n = 2 + k
    block = list(range(2, n))
    unit = st.sampled_from([1, -1])
    one = (0,) * n
    g0, g1 = data.draw(st.tuples(st.sampled_from(SHARED_EXPS),
                                 st.sampled_from(SHARED_EXPS)))
    e: dict = {}
    for v in block:
        h = _shared_terms(data.draw, n, unit) or {one: 1}
        if (g0, g1) == (0, 0) and set(h) == {one}:
            h = {_monomial(n, {0: 3}): 1}
        gv = _monomial(n, {0: g0, 1: g1, v: 1})
        for m, c in h.items():
            e[tuple(a + b for a, b in zip(m, gv))] = c
    r = _shared_terms(data.draw, n, coeff_st)
    if data.draw(st.booleans()):
        r[one] = data.draw(coeff_st)
    else:
        r.pop(one, None)
    polys = [MultiPoly(n, {**e, **r})]
    if data.draw(st.booleans()):
        other = _shared_terms(data.draw, n, coeff_st)
        mixed = _monomial(n, {0: data.draw(st.sampled_from([3, 4])),
                              1: data.draw(st.sampled_from([3, 4]))})
        other[mixed] = data.draw(unit)
        polys.append(MultiPoly(n, other))
    sys = _system(n, polys)

    seen = []

    def spy(work, i):
        out = linear_block(work, i)
        seen.append(out and out[0])
        return out

    linear_block = count._linear_block
    count._linear_block = spy
    try:
        got = count_points(sys, q)
    finally:
        count._linear_block = linear_block
    # no earlier rule fits the top-level system, so the block is its first
    # reduction and takes every private variable at once
    assert seen and seen[0] == block
    assert got == naive_count(sys, q)


@seed(20261029)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_square_discriminant_quadratics_match_naive(data):
    # e1 = alpha*(v - h)^2 - d*M^2 in (v, x1, x2): a quadratic in v with a
    # constant leading coefficient whose discriminant 4*alpha*d*M^2 is zero,
    # a square or a nonsquare constant times a square monomial; mostly
    # beside a second equation in v, so that v is not private.  h = 0 in
    # half the draws: with v private that is the private grid's case of a
    # constant A and no B
    q = data.draw(st.sampled_from([3, 5, 7, 9, 25]))
    alpha = data.draw(st.sampled_from([1, 2, 3]))
    xs = [(a, b) for a in range(3) for b in range(3)]
    h = MultiPoly(3)
    if data.draw(st.booleans()):
        h = MultiPoly(3, {(0, a, b): data.draw(st.integers(-2, 2))
                          for a, b in xs if a + b <= 2})
    M = MultiPoly(3, {(0, *data.draw(st.sampled_from(xs))): 1})
    d = data.draw(st.integers(0, 6))
    polys = [(MultiPoly.var(3, 0) - h) ** 2 * alpha - M * M * d]
    if data.draw(st.integers(0, 3)):
        v_term = (data.draw(st.integers(1, 2)), *data.draw(st.sampled_from(xs)))
        polys.append(MultiPoly(3, {v_term: data.draw(coeff_st)})
                     + data.draw(small_poly(3)))
    sys = _system(3, polys)
    assert count_points(sys, q) == naive_count(sys, q)


# -- the memo: one entry per system up to renaming its variables --------------


@seed(20261028)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relabelled_copy_counts_the_same(data):
    # the copy moves variable i to cols[i] >= i, keeping their order, and
    # has `extra` more variables that no equation uses
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7]))
    n = data.draw(st.integers(1, 3))
    extra = data.draw(st.integers(1, 2))
    cols = sorted(data.draw(st.lists(st.integers(0, n + extra - 1),
                                     min_size=n, max_size=n, unique=True)))
    exp = st.tuples(*[st.integers(0, 3)] * n)
    polys = [MultiPoly(n, data.draw(st.lists(st.tuples(exp, coeff_st),
                                             min_size=1, max_size=4)))
             for _ in range(data.draw(st.integers(1, 2)))]
    moved = [MultiPoly(n + extra, [(_monomial(n + extra, dict(zip(cols, e))), c)
                                   for e, c in p.items()]) for p in polys]
    sys, copy = _system(n, polys), _system(n + extra, moved)
    want = naive_count(sys, q)
    assert count_points(sys, q) == want
    assert count_points(copy, q) == naive_count(copy, q) == want * q ** extra
    # solved after the original, the copy is one memo hit
    F = make_field(q)
    budget = _Budget(1 << 40)
    _solve(_fold_system(sys, F), frozenset(range(n)), F, budget)
    seen = (len(budget.memo), budget.left)
    got = _solve(_fold_system(copy, F), frozenset(range(n + extra)), F, budget)
    assert got == want * q ** extra
    assert (len(budget.memo), budget.left) == seen


def test_level_shifted_subsystem_hits_the_memo(monkeypatch):
    # in the node's level systems {a2*b2, b2*a3 + a2*b3} is
    # {a1*b1, b1*a2 + a1*b2} with every level raised by one
    q = 7
    a1, b1, a2, b2, a3, b3 = range(6)

    def subsystem(a, b, a_next, b_next) -> JetConstraintSystem:
        mono = [_monomial(6, {a: 1, b: 1}), _monomial(6, {b: 1, a_next: 1}),
                _monomial(6, {a: 1, b_next: 1})]
        return _system(6, [MultiPoly(6, {mono[0]: 1}),
                           MultiPoly(6, {mono[1]: 1, mono[2]: 1})])

    solved = []
    solve_uncached = count._solve_uncached

    def spy(work, used, F, budget):
        solved.append(sorted(used))
        return solve_uncached(work, used, F, budget)

    monkeypatch.setattr(count, "_solve_uncached", spy)
    F = make_field(q)
    budget = _Budget(1 << 40)
    low, high = subsystem(a1, b1, a2, b2), subsystem(a2, b2, a3, b3)
    n_low = _solve(_fold_system(low, F), frozenset(range(6)), F, budget)
    assert solved[0] == [a1, b1, a2, b2]
    before = (list(solved), len(budget.memo))
    n_high = _solve(_fold_system(high, F), frozenset(range(6)), F, budget)
    assert (solved, len(budget.memo)) == before
    assert n_low == n_high == naive_count(low, q) == naive_count(high, q)


def test_node_memo_grows_linearly():
    # level-shifted copies share one entry, so two more levels add the same
    # 13 subsystems; keyed on raw variable indices the memo held 145, 215,
    # 299 and 397 entries
    F = make_field(101)
    sizes = []
    for m in (10, 12, 14, 16):
        sys = _sys("x1*x2", [0, 0], m)
        budget = _Budget(10 ** 12)
        _solve(_fold_system(sys, F), frozenset(range(sys.n_jet_vars)), F, budget)
        sizes.append(len(budget.memo))
    assert sizes == [49, 62, 75, 88]


# -- FP: cached profiles against fresh recomputation -------------------------


def _fp(data, F, n_vars: int) -> FP:
    # bare variables drawn often enough to exercise the bare-linear cache
    units = [_monomial(n_vars, {v: 1}) for v in range(n_vars)]
    exps = data.draw(st.lists(st.one_of(st.sampled_from(units),
                                        st.tuples(*[st.integers(0, 3)] * n_vars)),
                              max_size=5, unique=True))
    return FP(F, n_vars, {e: data.draw(st.integers(1, F.q - 1)) for e in exps})


def _mul_ref(F, a: dict, b: dict) -> dict:
    c: dict = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c[e] = F.add(c.get(e, 0), F.mul(v1, v2))
    return {e: v for e, v in c.items() if v}


def _groups_ref(p: dict, v: int) -> dict:
    by: dict = {}
    for e, c in p.items():
        by.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
    return by


def _horner_ref(F, p: dict, v: int, rep: dict) -> dict:
    by = _groups_ref(p, v)
    acc: dict = {}
    for d in range(max(by, default=0), -1, -1):
        acc = _mul_ref(F, acc, rep)
        for e, c in by.get(d, {}).items():
            acc[e] = F.add(acc.get(e, 0), c)
        acc = {e: c for e, c in acc.items() if c}
    return acc


def _assert_profile_fresh(p: FP) -> None:
    deg: dict = {}
    for e in p.c:
        for i, k in enumerate(e):
            if k:
                deg[i] = max(deg.get(i, 0), k)
    assert p.vars_used() == frozenset(deg)
    assert all(p.deg_in(v) == deg.get(v, 0) for v in range(p.n))
    unit = [tuple(int(j == v) for j in range(p.n)) for v in range(p.n)]
    assert p.bare_linear_vars() == tuple(
        v for v in sorted(deg) if [e for e in p.c if e[v]] == [unit[v]])
    for v in range(p.n):
        by = {d: g.c for d, g in p.coeffs_by_power(v).items()}
        assert by == _groups_ref(p.c, v)


@seed(20261021)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fp_caches_match_fresh_recomputation(data):
    q = data.draw(st.sampled_from(FIELD_SIZES))
    F = make_field(q)
    n = 3
    a, b = _fp(data, F, n), _fp(data, F, n)
    snapshot = (dict(a.c), dict(b.c))
    _assert_profile_fresh(a)
    _assert_profile_fresh(b)
    v = data.draw(st.integers(0, n - 1))
    r = data.draw(st.integers(0, q - 1))
    const = FP.const(F, n, r)
    results = [a.add(b), a.mul(b), b.mul(a), a.substitute(v, b),
               a.substitute(v, const)]
    # using a and b leaves them, and so their caches, as they were
    assert (a.c, b.c) == snapshot
    _assert_profile_fresh(a)
    _assert_profile_fresh(b)
    for p in results:
        _assert_profile_fresh(p)
    assert results[1].c == results[2].c == _mul_ref(F, a.c, b.c)
    # the constant fast path of substitute against Horner on the grouping
    assert results[4].c == _horner_ref(F, a.c, v, const.c)
    assert results[3].c == _horner_ref(F, a.c, v, b.c)


# -- vector kernels: constants stay scalars ----------------------------------

KERNEL_FIELD_SIZES = FIELD_SIZES + [49, 125]


def _elements(data, F, size: int) -> np.ndarray:
    return np.array(data.draw(st.lists(st.integers(0, F.q - 1), min_size=size,
                                       max_size=size)), dtype=np.int64)


def _eval_ref(F, p: FP, point: list[int]) -> int:
    acc = 0
    for e, c in p.c.items():
        term = c
        for x, k in zip(point, e):
            term = F.mul(term, F.pow(x, k))
        acc = F.add(acc, term)
    return acc


@seed(20261022)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_addc_v_matches_broadcast_add(data):
    q = data.draw(st.sampled_from(KERNEL_FIELD_SIZES))
    F = make_field(q)
    a = np.concatenate([F.all_elements(), _elements(data, F, 20)])
    snapshot = a.copy()
    for c in range(q):
        got = F.addc_v(a, c)
        assert got is not a
        assert np.array_equal(got, F.add_v(a, np.full_like(a, c)))
    assert np.array_equal(a, snapshot)


@seed(20261023)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluate_vec_matches_scalar_evaluation(data):
    q = data.draw(st.sampled_from(KERNEL_FIELD_SIZES))
    F = make_field(q)
    n = 3
    p = _fp(data, F, n)
    shape = data.draw(st.sampled_from(["as drawn", "constant term",
                                       "no constant term", "constant only",
                                       "zero"]))
    c = dict(p.c)
    zero = (0,) * n
    if shape == "constant term":
        c[zero] = data.draw(st.integers(1, q - 1))
    elif shape == "no constant term":
        c.pop(zero, None)
    elif shape == "constant only":
        c = {zero: data.draw(st.integers(1, q - 1))}
    elif shape == "zero":
        c = {}
    p = FP(F, n, c)
    npoints = data.draw(st.integers(1, 12))
    coords = {v: _elements(data, F, npoints) for v in range(n)}
    snapshot = {v: x.copy() for v, x in coords.items()}
    got = p.evaluate_vec(coords, npoints)
    want = [_eval_ref(F, p, [int(coords[v][i]) for v in range(n)])
            for i in range(npoints)]
    assert got.tolist() == want
    assert not any(np.shares_memory(got, x) for x in coords.values())
    assert all(np.array_equal(coords[v], snapshot[v]) for v in range(n))


@seed(20261024)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quad_root_count_matches_pointwise_roots(data):
    q = data.draw(st.sampled_from([3, 5, 7, 9, 11, 25, 49, 125]))
    F = make_field(q)
    n = 2
    by = {d: p for d in (2, 1, 0)
          if not (p := _fp(data, F, n)).is_zero() and data.draw(st.booleans())}
    by.setdefault(2, FP.const(F, n, data.draw(st.integers(1, q - 1))))
    npoints = data.draw(st.integers(1, 12))
    coords = {v: _elements(data, F, npoints) for v in range(n)}
    want = 0
    for i in range(npoints):
        point = [int(coords[v][i]) for v in range(n)]
        a, b, c = (_eval_ref(F, by[d], point) if d in by else 0
                   for d in (2, 1, 0))
        want += sum(1 for x in range(q)
                    if F.add(F.add(F.mul(a, F.mul(x, x)), F.mul(b, x)), c) == 0)
    assert _quad_root_count(by, coords, npoints, F) == want


# -- the power-map rule: one-variable scans over the subgroup of d-th powers --

@contextlib.contextmanager
def _recorded_scans():
    """The values array of every _grid_zeros scan, None for all of F_q."""
    scans: list = []
    grid_zeros = count._grid_zeros

    def spy(eqs, vs, F, values=None):
        scans.append(None if values is None else sorted(values.tolist()))
        return grid_zeros(eqs, vs, F, values)

    count._grid_zeros = spy
    try:
        yield scans
    finally:
        count._grid_zeros = grid_zeros


def _assert_subgroup_scans(scans: list, F, d: int) -> None:
    # g = gcd(d, q - 1): w = 0 once, then the (q - 1)/g d-th powers, each
    # standing for g points
    g = gcd(d, F.q - 1)
    powers = sorted({F.pow(x, d) for x in range(1, F.q)})
    assert len(powers) == (F.q - 1) // g
    assert scans == [[0], powers], (F.q, d)


@pytest.mark.parametrize("q, g, want", [
    (25, 3, 213623046875),
    (49, 3, 31876484423903),
    (125, 1, 59604644775390625),
])
def test_cusp_leaf_scans_cubes(q, g, want):
    # the cusp at m=6 ends in one private grid over w, v^2 = w^3 + c; the
    # counts are those of the plain scan over F_q
    assert gcd(3, q - 1) == g
    with _recorded_scans() as scans:
        got = count_points(_sys("x1^2 + x2^3", [0, 0], 6), q)
    _assert_subgroup_scans(scans, make_field(q), 3)
    assert got == want


@pytest.mark.parametrize("q", [7 ** 4, 5 ** 3])
def test_power_map_scan_leaves_exp_unchanged(q):
    # the scan hands int32 views of EXP to the vector operations, with no
    # copy; the table's bytes are the same after the count
    F = make_field(q)
    before = hashlib.sha256(F.EXP.tobytes()).hexdigest()
    with _recorded_scans() as scans:
        count_points(_sys("x1^2 + x2^3", [0, 0], 6), q)
    _assert_subgroup_scans(scans, F, 3)
    assert make_field(q) is F
    assert hashlib.sha256(F.EXP.tobytes()).hexdigest() == before


@st.composite
def _in_power(draw, w: int, d: int, v_power: int = 0) -> dict:
    # integer coefficients on v^v_power * w^(d*j), j in 0..3, over (v, w)
    js = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    return {_monomial(2, {w: d * j, 0: v_power}): draw(coeff_st) for j in js}


@seed(20261027)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_power_map_rule_matches_naive(data):
    # w = x1 enters every equation only through w^d; v = x0 is free (weight
    # 1) or private and quadratic in the first equation (root-count weight)
    q = data.draw(st.sampled_from([4, 8, 9, 16, 25, 27, 49, 125]))
    d = data.draw(st.sampled_from([2, 3, 4, 6]))
    quadratic = q % 2 == 1 and data.draw(st.booleans())
    w = 1
    polys = []
    if quadratic:
        quad = data.draw(_in_power(w, d, 2))
        for k in data.draw(st.lists(st.sampled_from([1, 0]), unique=True)):
            quad.update(data.draw(_in_power(w, d, k)))
        polys.append(MultiPoly(2, quad))
    for _ in range(data.draw(st.integers(0 if quadratic else 1, 2))):
        polys.append(MultiPoly(2, data.draw(_in_power(w, d))))
    sys = _system(2, polys)
    F = make_field(q)
    eqs = _fold_system(sys, F)
    by = eqs.pop(0).coeffs_by_power(0) if quadratic else None
    # coefficients may vanish mod p, so the exponents' gcd can exceed d
    d_eff = 0
    for p in eqs + list((by or {}).values()):
        for e in p.c:
            d_eff = gcd(d_eff, e[w])
    with _recorded_scans() as scans:
        got = count._enumerate(eqs, [w], F, by)
    want = naive_count(sys, q)
    assert got * (1 if quadratic else q) == want
    if d_eff >= 2:
        _assert_subgroup_scans(scans, F, d_eff)
    else:
        assert scans == [None]
    assert count_points(sys, q) == want
