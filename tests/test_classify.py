"""Class recovery from point counts: interpolation, residues, traces."""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import jetzeta.jets.classify as classify
from jetzeta.algebra.laurent import LaurentPoly
from jetzeta.errors import ClassNotPolynomialError, ResourceLimitError
from jetzeta.jets.classify import (ClassPoly, CountTable, JetOrders,
                                   _berlekamp_massey, _fit_minimal,
                                   class_of_jets, collect_counts, good_primes,
                                   interpolate_class, lefschetz_via_jets,
                                   milnor_fiber_limit, zeta_via_jets)
from jetzeta.jets.count import count_points
from jetzeta.jets.poly import MultiPoly, parse_poly
from jetzeta.jets.system import build_jet_system

L = LaurentPoly.L
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_count_table_validation():
    CountTable(((5, 10), (7, 14)))
    with pytest.raises(ValueError):
        CountTable(((5, 10), (5, 11)))
    with pytest.raises(ValueError):
        CountTable(((5, -1),))


def test_class_poly_bounds():
    ClassPoly(L(2, 3), 2)
    with pytest.raises(ValueError):
        ClassPoly(L(3), 2)
    with pytest.raises(ValueError):
        ClassPoly(L(-1), 2)
    assert ClassPoly(L(1, 2), 2).evaluate(5) == 10
    assert ClassPoly(L(1, 2) + L(0, -2), 4).at_one() == 0


def test_interpolate_class_linear():
    table = CountTable(((5, 10), (7, 14), (11, 22), (13, 26)))
    cls = interpolate_class(table, 1)
    assert cls.poly == L(1, 2)
    assert cls.evaluate(17) == 34


def test_interpolate_class_bound_two_needs_five_points():
    table4 = CountTable(((5, 10), (7, 14), (11, 22), (13, 26)))
    with pytest.raises(ValueError):
        interpolate_class(table4, 2)
    table5 = CountTable(((5, 10), (7, 14), (11, 22), (13, 26), (17, 34)))
    assert interpolate_class(table5, 2).poly == L(1, 2)


def test_interpolate_class_trivial_cases():
    zeros = CountTable(tuple((q, 0) for q in (2, 3, 5, 7, 11)))
    assert interpolate_class(zeros, 2).poly.is_zero()
    ones = CountTable(((2, 1), (3, 1), (5, 1), (7, 1)))
    assert interpolate_class(ones, 1).poly == LaurentPoly.one()


def test_interpolate_class_rejects_nonpolynomial():
    table = CountTable(((2, 1), (3, 1), (5, 1), (7, 2)))
    with pytest.raises(ClassNotPolynomialError) as e:
        interpolate_class(table, 1)
    assert e.value.table is table


def test_good_primes_exponent_rule():
    xy = parse_poly("x1*x2")
    sq = parse_poly("x1^2")
    cusp = parse_poly("x1^2 + x2^3")
    assert good_primes(xy, None, 10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert good_primes(sq, None, 9) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert good_primes(cusp, None, 8) == [5, 7, 11, 13, 17, 19, 23, 29]


def test_good_primes_coefficient_and_clearing_rules():
    f = parse_poly("3*x1^2 + x2^3")
    assert good_primes(f, None, 3) == [5, 7, 11]
    g = MultiPoly(1, {(2,): 1, (0,): Fraction(-1, 9)})
    sys = build_jet_system(g, [Fraction(1, 3)], 2)
    assert 3 not in good_primes(g, sys, 5)


def test_good_primes_residue_filter():
    f = parse_poly("x1*x2")
    ps = good_primes(f, None, 4, residue=1, modulus=24)
    assert ps == [73, 97, 193, 241]
    assert all(p % 24 == 1 for p in ps)


def test_berlekamp_massey():
    fib = [1, 1, 2, 3, 5, 8, 13, 21]
    assert _berlekamp_massey(fib) == [Fraction(1), Fraction(1)]
    geo = [3 ** k for k in range(1, 9)]
    assert _berlekamp_massey(geo) == [Fraction(3)]
    assert _berlekamp_massey([0] * 8) == []
    mixed = [2 ** k + 3 ** k - 1 for k in range(1, 9)]
    assert _berlekamp_massey(mixed) == [Fraction(6), Fraction(-11),
                                        Fraction(6)]


def test_direct_route_fixtures():
    sq = parse_poly("x1^2")
    jc = class_of_jets(sq, [0], 2)
    assert jc.route == "interp"
    assert jc.cls.poly == L(1, 2)
    assert jc.chi == 2
    jc1 = class_of_jets(sq, [0], 1)
    assert jc1.chi == 0 and jc1.cls.poly.is_zero()
    xy = parse_poly("x1*x2")
    jc3 = class_of_jets(xy, [0, 0], 3)
    assert jc3.route == "interp"
    assert jc3.cls.poly == L(4, 2) + L(3, -2)
    assert jc3.chi == 0


def test_residue_route_fixtures():
    cusp = parse_poly("x1^2 + x2^3")
    jc = class_of_jets(cusp, [0, 0], 3)
    assert jc.route == "residue"
    assert jc.cls.poly == L(4, 3)
    assert jc.chi == 3
    a1 = parse_poly("x1^2 + x2^2")
    jc2 = class_of_jets(a1, [0, 0], 2)
    assert jc2.route == "residue"
    assert jc2.cls.poly == L(3) + L(2, -1)
    assert jc2.chi == 0
    cube = parse_poly("x1^3")
    jc3 = class_of_jets(cube, [0], 3)
    assert jc3.route == "residue"
    assert jc3.cls.poly == L(2, 3)
    assert jc3.chi == 3


def test_trace_route_cusp_order_six():
    cusp = parse_poly("x1^2 + x2^3")
    jc = class_of_jets(cusp, [0, 0], 6)
    assert jc.route == "trace"
    assert jc.chi == -1
    assert jc.cls is None


def test_lefschetz_examples():
    assert lefschetz_via_jets(parse_poly("x1^2"), [0], 2) == 2
    assert lefschetz_via_jets(parse_poly("x1^2"), [0], 1) == 0
    assert lefschetz_via_jets(parse_poly("x1*x2"), [0, 0], 3) == 0


def test_zeta_via_jets_square():
    terms = zeta_via_jets(parse_poly("x1^2"), [0], 1, 6)
    assert terms == [LaurentPoly.zero(), LaurentPoly.zero(), L(-1, 2),
                     LaurentPoly.zero(), L(-2, 2), LaurentPoly.zero(),
                     L(-3, 2)]


def test_zeta_via_jets_smooth():
    terms = zeta_via_jets(parse_poly("x1"), [0], 1, 2)
    assert terms == [LaurentPoly.zero(), L(-1), L(-2)]


def test_zeta_via_jets_node():
    terms = zeta_via_jets(parse_poly("x1*x2"), [0, 0], 2, 3)
    assert terms[0].is_zero() and terms[1].is_zero()
    assert terms[2] == L(-1) + L(-2, -1)
    assert terms[3] == (L(-2) + L(-3, -1)) * 2


def test_zeta_via_jets_reports_failing_term():
    cusp = parse_poly("x1^2 + x2^3")
    with pytest.raises(ClassNotPolynomialError) as e:
        zeta_via_jets(cusp, [0, 0], 2, 6)
    assert "m=6" in str(e.value)


def test_milnor_fiber_limit_square():
    prefix = zeta_via_jets(parse_poly("x1^2"), [0], 1, 6)
    S = milnor_fiber_limit(prefix, [(-1, 2)])
    assert S == LaurentPoly.from_int(2)
    assert S.eval_at_one() == 2


def test_milnor_fiber_limit_smooth():
    prefix = zeta_via_jets(parse_poly("x1"), [0], 1, 6)
    S = milnor_fiber_limit(prefix, [(-1, 1)])
    assert S == LaurentPoly.one()
    assert S.eval_at_one() == 1


def test_milnor_fiber_limit_node():
    prefix = zeta_via_jets(parse_poly("x1*x2"), [0, 0], 2, 8)
    S = milnor_fiber_limit(prefix, [(-1, 1), (-1, 1)])
    assert S == LaurentPoly.one() + L(1, -1)
    assert S.eval_at_one() == 0


def test_collect_counts_matches_direct():
    sys = build_jet_system(parse_poly("x1^2"), [0], 2)
    table = collect_counts(sys, [3, 5, 7])
    assert table.entries == ((3, 6), (5, 10), (7, 14))


# -- the minimal fit: one Newton table against a Lagrange fit per degree ----

def _lagrange_ref(points) -> list[Fraction]:
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k + 1] += c
                new[k] -= xj * c
            basis = new
            denom *= xi - xj
        w = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += w * c
    return coeffs


def _fit_minimal_ref(table: CountTable, degree_bound: int) -> ClassPoly:
    # the fit before the Newton table: every degree in turn, each through
    # its own Lagrange interpolation, the first verified one wins
    last_error = None
    for d in range(min(degree_bound, len(table) - 3) + 1):
        coeffs = _lagrange_ref(table.entries[:d + 1])
        if any(c.denominator != 1 for c in coeffs):
            last_error = "interpolated coefficients are not integers"
            continue
        poly = LaurentPoly({k: int(c) for k, c in enumerate(coeffs) if c})
        bad = [q for q, n in table.entries if poly.eval_at(q) != n]
        if not bad:
            return ClassPoly(poly, degree_bound)
        last_error = f"interpolation fails verification at q={bad[0]}"
    raise ClassNotPolynomialError(
        last_error or "too few counts for any verified fit", table=table)


@seed(20261026)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fit_minimal_matches_lagrange_per_degree(data):
    kind = data.draw(st.sampled_from(
        ["integer polynomial", "non-integral", "non-polynomial", "too short"]))
    size = data.draw(st.integers(0, 2) if kind == "too short"
                     else st.integers(3, 9))
    qs = data.draw(st.lists(st.integers(2, 60), min_size=size,
                            max_size=size, unique=True))
    if kind == "non-polynomial" or kind == "too short":
        values = data.draw(st.lists(st.integers(0, 10 ** 6), min_size=size,
                                    max_size=size))
    else:
        # integer-valued polynomials sum b_k*C(q, k); only integer b_k
        # times k! give integer coefficients
        degree = data.draw(st.integers(1, 5))
        ks = data.draw(st.lists(st.integers(-4, 4), min_size=degree,
                                max_size=degree))
        ks.append(data.draw(st.sampled_from([-2, -1, 1, 2])))
        scale = (lambda k: prod(range(1, k + 1))) \
            if kind == "integer polynomial" else (lambda k: 1)
        values = [sum(b * scale(k) * comb(q, k) for k, b in enumerate(ks))
                  for q in qs]
        shift = max([0] + [-v for v in values])
        values = [v + shift for v in values]
    table = CountTable(tuple(zip(qs, values)))
    bound = data.draw(st.integers(0, 7))
    try:
        want = _fit_minimal_ref(table, bound)
    except ClassNotPolynomialError as e:
        with pytest.raises(ClassNotPolynomialError) as got:
            _fit_minimal(table, bound)
        assert str(got.value) == str(e)
        assert got.value.table is table
        return
    assert _fit_minimal(table, bound) == want


# -- reach: three-variable germs and A1 past m = 6 ---------------------------

def _brieskorn_pham(exponents: list[int], m: int) -> int:
    # Lambda(M^m) = 1 + (-1)^(n-1) prod_i (a_i [a_i | m] - 1)
    n = len(exponents)
    return 1 + (-1) ** (n - 1) * prod(a * (m % a == 0) - 1 for a in exponents)


@pytest.mark.parametrize("text, exponents", [
    ("x1^2 + x2^2 + x3^2", [2, 2, 2]),
    ("x1^2 + x2^2 + x3^3", [2, 2, 3]),
])
def test_three_variable_brieskorn_pham(text, exponents):
    f = parse_poly(text)
    got = [lefschetz_via_jets(f, [0, 0, 0], m) for m in range(1, 6)]
    assert got == [_brieskorn_pham(exponents, m) for m in range(1, 6)]


def test_a1_past_order_six():
    expected = json.loads((FIXTURES / "a1" / "expected.json").read_text())
    f = parse_poly(expected["f"])
    for m in (7, 8):
        assert lefschetz_via_jets(f, expected["at"], m) == \
            expected["lefschetz"][m - 1]


# -- field-major counting: every order's interp table, one memo per field ----

def _fixture_germ(name: str):
    expected = json.loads((FIXTURES / name / "expected.json").read_text())
    return parse_poly(expected["f"]), expected["at"]


@pytest.mark.parametrize("name, top", [
    ("x2", 8), ("x3", 8), ("node", 12), ("a1", 8), ("cusp", 8)])
def test_field_major_tables_match_per_order_counts(name, top):
    f, at = _fixture_germ(name)
    orders = JetOrders(f, at, range(1, top + 1))
    for m in range(1, top + 1):
        sys, table = orders.interp(m)
        alone = build_jet_system(f, at, m)
        pool = good_primes(f, alone, alone.n_jet_vars + 3)
        assert sys == alone
        assert table == collect_counts(alone, pool)


def _spy_counts(monkeypatch, fail=None):
    """Record (m, q, memo) of every count classify makes; fail maps (m, q)
    to the error that count raises instead."""
    calls = []

    def spy(sys, q, node_budget, memo=None):
        calls.append((sys.m, q, memo))
        if fail and (sys.m, q) in fail:
            raise fail[sys.m, q]
        return count_points(sys, q, node_budget, memo)

    monkeypatch.setattr(classify, "count_points", spy)
    return calls


def test_field_major_order_and_one_memo_per_field(monkeypatch):
    f, at = _fixture_germ("node")
    calls = _spy_counts(monkeypatch)
    orders = JetOrders(f, at, range(1, 7))
    orders.interp(1)
    pools = {m: orders.interp(m)[1].primes for m in range(1, 7)}
    # q ascending, and within one q every order whose pool holds it, m ascending
    assert [(q, m) for m, q, _ in calls] == sorted(
        (q, m) for m, qs in pools.items() for q in qs)
    memos = {}
    for m, q, memo in calls:
        assert memo is not None
        assert memos.setdefault(q, memo) is memo
    # each field's memo is its own, used over one unbroken run of counts and
    # emptied when the field ends
    runs = [memo for i, (_, _, memo) in enumerate(calls)
            if i == 0 or memo is not calls[i - 1][2]]
    assert len({id(memo) for memo in runs}) == len(runs) == len(memos)
    assert all(not memo for memo in runs)


def test_single_order_counts_with_a_fresh_memo_per_field(monkeypatch):
    f, at = _fixture_germ("node")
    calls = _spy_counts(monkeypatch)
    jc = class_of_jets(f, at, 3)
    assert [q for _, q, _ in calls] == list(jc.table.primes)
    assert len({id(memo) for _, _, memo in calls}) == len(calls)


def test_build_error_stays_with_its_order(monkeypatch):
    f, at = _fixture_germ("node")
    real = classify.build_jet_system

    def build(f, x, m):
        if m == 3:
            raise ResourceLimitError("no system for m=3")
        return real(f, x, m)

    monkeypatch.setattr(classify, "build_jet_system", build)
    calls = _spy_counts(monkeypatch)
    orders = JetOrders(f, at, range(1, 5))
    with pytest.raises(ResourceLimitError, match="no system for m=3"):
        orders.interp(3)
    assert 3 not in {m for m, _, _ in calls}
    assert orders.interp(4)[1] == JetOrders(f, at, (4,)).interp(4)[1]


def test_count_error_stays_with_its_order(monkeypatch):
    f, at = _fixture_germ("node")
    pool = JetOrders(f, at, (3,)).interp(3)[1].primes
    bad = pool[2]
    calls = _spy_counts(monkeypatch,
                        {(3, bad): ResourceLimitError("count budget exhausted")})
    orders = JetOrders(f, at, range(1, 6))
    residue = []
    monkeypatch.setattr(classify, "_residue_route",
                        lambda *a: residue.append(a))
    with pytest.raises(ResourceLimitError, match="budget exhausted"):
        class_of_jets(f, at, 3, orders=orders)
    assert residue == []
    # order 3 stops at its failing field; every other order counts on
    assert [q for m, q, _ in calls if m == 3] == list(pool[:3])
    for m in (1, 2, 4, 5):
        table = orders.interp(m)[1]
        assert table.primes == tuple(q for k, q, _ in calls if k == m)
        assert class_of_jets(f, at, m, orders=orders).route == "interp"


def test_zeta_raises_the_smallest_failing_order(monkeypatch):
    f, at = _fixture_germ("node")
    first_pool = JetOrders(f, at, (2,)).interp(2)[1].primes
    # order 4 fails over the first field, before order 2 fails over its last
    _spy_counts(monkeypatch, {
        (4, first_pool[0]): ResourceLimitError("order 4 failed"),
        (2, first_pool[-1]): ResourceLimitError("order 2 failed")})
    with pytest.raises(ResourceLimitError, match="order 2 failed"):
        zeta_via_jets(f, at, 2, 5)


def _routes_fail(monkeypatch, residue_error, trace_error):
    def fail(error):
        def route(*args):
            raise error
        return route
    monkeypatch.setattr(classify, "_residue_route", fail(residue_error))
    monkeypatch.setattr(classify, "_trace_route", fail(trace_error))


def test_trace_budget_failure_is_a_resource_failure(monkeypatch):
    # the last route sets the kind, whatever the residue route raised
    trace_error = ResourceLimitError("count budget exhausted")
    _routes_fail(monkeypatch, ClassNotPolynomialError("no residue fit"),
                 trace_error)
    cusp = parse_poly("x1^2 + x2^3")
    with pytest.raises(ResourceLimitError) as e:
        class_of_jets(cusp, [0, 0], 6)
    assert str(e.value) == ("all classification routes failed for m=6: "
                            "count budget exhausted")
    assert e.value.__cause__ is trace_error


def test_trace_class_failure_stays_a_class_failure(monkeypatch):
    trace_error = ClassNotPolynomialError("trace recurrence order 9 exceeds the cap")
    _routes_fail(monkeypatch, ResourceLimitError("count budget exhausted"),
                 trace_error)
    cusp = parse_poly("x1^2 + x2^3")
    with pytest.raises(ClassNotPolynomialError) as e:
        class_of_jets(cusp, [0, 0], 6)
    assert str(e.value) == ("all classification routes failed for m=6: "
                            "trace recurrence order 9 exceeds the cap")
    assert e.value.__cause__ is trace_error
    # the interp table rides along
    assert e.value.table == JetOrders(cusp, [0, 0], (6,)).interp(6)[1]
