"""Rational-series calculus: expansion, degree, limits, Hadamard, fitting.

oracle_expand below expands prod (1 - L^a T^b)^(-1) by explicit geometric
convolution with plain dict arithmetic; the library uses a per-factor
recurrence, so agreement is a genuine cross-check.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings, strategies as st

from jetzeta.algebra import (
    LaurentPoly, DaggerSeries,
    ds_limit, ds_hadamard, ds_fit,
)
from jetzeta.algebra.dagger import _num_mul_factors
from jetzeta.errors import FitFailure, LimitUndefined

L = LaurentPoly.L
one = LaurentPoly.one()


# ---------------------------------------------------------------------------
# independent expansion oracle

def d_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def d_mul(x: dict, y: dict) -> dict:
    out: dict[int, int] = {}
    for ea, ca in x.items():
        for eb, cb in y.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def oracle_expand(num: dict[int, dict], den: list[tuple[int, int]], order: int):
    """Expand num / prod(1 - L^a T^b) by explicit geometric sums."""
    coeffs = [{} for _ in range(order + 1)]
    for t, c in num.items():
        if 0 <= t <= order:
            coeffs[t] = d_add(coeffs[t], c)
    for a, b in den:
        new = [{} for _ in range(order + 1)]
        for m in range(order + 1):
            k = 0
            while b * k <= m:
                new[m] = d_add(new[m], d_mul(coeffs[m - b * k], {a * k: 1}))
                k += 1
        coeffs = new
    return coeffs


def as_dicts(prefix):
    return [dict(c.items()) for c in prefix]


def divide_num_by_factor(num: dict[int, LaurentPoly], a: int, b: int):
    """Exact quotient of a T-polynomial by (1 - L^a T^b), or None, on dict
    rows: bottom-up, s_m = r_m + L^a s_(m-b), and the division is exact iff
    the top b rows of s vanish; the quotient is what lies below them."""
    if not num:
        return {}
    lo, hi = min(num), max(num)
    s: dict[int, LaurentPoly] = {}
    for m in range(lo, hi + 1):
        c = num.get(m, LaurentPoly.zero())
        if m - b in s:
            c = c + s[m - b].shifted(a)
        if not c.is_zero():
            s[m] = c
    if any(m > hi - b for m in s):
        return None
    return s


# ---------------------------------------------------------------------------
# frozen examples

def test_expand_examples():
    h = DaggerSeries({0: one}, [(0, 1)])  # 1/(1-T)
    assert h.expand(3) == [one, one, one, one]
    h = DaggerSeries({1: one}, [(1, 1)])  # T/(1-LT)
    assert h.expand(3) == [LaurentPoly.zero(), one, L(1), L(2)]
    h = DaggerSeries({0: one, 2: -one}, [(0, 1)])  # (1-T^2)/(1-T)
    assert h.expand(2) == [one, one, LaurentPoly.zero()]


def test_degree_examples():
    assert DaggerSeries({1: one}, [(0, 1)]).degree() == 0
    assert DaggerSeries({0: one}, [(0, 1)]).degree() == -1
    assert DaggerSeries({2: L(-1, 2)}, [(-1, 2)]).degree() == 0
    assert DaggerSeries.zero().degree() == float("-inf")


def test_limit_examples():
    assert ds_limit(DaggerSeries({1: one}, [(0, 1)])) == LaurentPoly({0: -1})
    assert ds_limit(DaggerSeries({0: one}, [(0, 1)])) == LaurentPoly.zero()
    # 2 L^-1 T^2 / (1 - L^-1 T^2): numerator lead 2L^-1, eps = -1, a = -1
    assert ds_limit(DaggerSeries({2: L(-1, 2)}, [(-1, 2)])) == LaurentPoly({0: -2})
    with pytest.raises(LimitUndefined):
        ds_limit(DaggerSeries({2: one}, [(0, 1)]))


def test_limit_zero_series():
    assert ds_limit(DaggerSeries.zero()) == LaurentPoly.zero()


def test_hadamard_examples():
    t_geo = DaggerSeries({1: one}, [(0, 1)])           # T/(1-T)
    assert ds_hadamard(t_geo, t_geo) == t_geo
    tl = DaggerSeries({1: one}, [(1, 1)])              # T/(1-LT)
    assert ds_hadamard(tl, tl) == DaggerSeries({1: one}, [(2, 1)])
    t2_geo = DaggerSeries({2: one}, [(0, 1)])          # T^2/(1-T)
    assert ds_hadamard(t_geo, t2_geo) == t2_geo


def test_hadamard_mixed_periods():
    # termwise products across periods 2 and 3 live on period 6 with the
    # combined ratio L^(1*3 + 1*2) = L^5, not L^2
    h = DaggerSeries({0: one}, [(1, 2)])   # 1/(1-LT^2)
    g = DaggerSeries({0: one}, [(1, 3)])   # 1/(1-LT^3)
    assert ds_hadamard(h, g) == DaggerSeries({0: one}, [(5, 6)])

    h = DaggerSeries({2: one}, [(1, 2)])   # T^2/(1-LT^2)
    g = DaggerSeries({3: one}, [(1, 3)])   # T^3/(1-LT^3)
    assert ds_hadamard(h, g) == DaggerSeries({6: L(3)}, [(5, 6)])


def test_hadamard_pooled_slope_multiplicity():
    # (1-L^-2 T^2) and (1-L^-1 T) share the root of slope -1, so that
    # eigenvalue carries multiplicity 2 inside g and the termwise product
    # against the parity indicator needs a squared factor: 1/(1-L^-2 T^2)^2
    h = DaggerSeries({0: one}, [(0, 2)])
    g = DaggerSeries({0: one}, [(-2, 2), (-1, 1)])
    got = ds_hadamard(h, g)
    assert got == DaggerSeries({0: one}, [(-2, 2), (-2, 2)])
    ref = [ch * cg for ch, cg in zip(h.expand(12), g.expand(12))]
    assert got.expand(12) == ref


def test_hadamard_with_polynomial():
    p = DaggerSeries({0: one, 3: L(2, 5)})
    h = DaggerSeries({0: one}, [(1, 1)])   # 1/(1-LT): coeff at m is L^m
    got = ds_hadamard(p, h)
    assert got == DaggerSeries({0: one, 3: L(5, 5)})


def test_fit_examples():
    # geometric with ratio L^-1 T^3 scaled by 2L^-1, 18 terms
    target = DaggerSeries({3: L(-1, 2)}, [(-1, 3)])
    prefix = target.expand(17)
    fitted = ds_fit(prefix, [(-1, 3)])
    assert fitted == target
    assert fitted.den == ((-1, 3),)

    assert ds_fit([one] * 6, [(0, 1)]) == DaggerSeries({0: one}, [(0, 1)])

    zero = LaurentPoly.zero()
    with pytest.raises(FitFailure):
        ds_fit([zero, one, zero, one, zero, one], [(0, 1)])


def test_fit_prefers_smallest_denominator():
    # all-ones fits both (0,1) and (0,1)+(0,2); minimal wins
    fitted = ds_fit([one] * 12, [(0, 1), (0, 2)])
    assert fitted.den == ((0, 1),)
    # constant zero needs no denominator at all
    fitted = ds_fit([LaurentPoly.zero()] * 8, [(0, 1)])
    assert fitted.is_zero() and fitted.den == ()


# ---------------------------------------------------------------------------
# randomized cross-checks

factor_st = st.tuples(st.integers(min_value=-2, max_value=2),
                      st.integers(min_value=1, max_value=3))
num_st = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.dictionaries(st.integers(min_value=-3, max_value=3),
                    st.integers(min_value=-5, max_value=5).filter(bool),
                    min_size=1, max_size=3),
    max_size=4,
)
series_st = st.builds(
    lambda num, den: DaggerSeries({t: LaurentPoly(c) for t, c in num.items()}, den),
    num_st, st.lists(factor_st, max_size=2),
)


@given(num_st, st.lists(factor_st, max_size=3), st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_expand_matches_oracle(num, den, order):
    h = DaggerSeries({t: LaurentPoly(c) for t, c in num.items()}, den)
    assert as_dicts(h.expand(order)) == oracle_expand(num, den, order)


@given(series_st, factor_st)
@settings(max_examples=40, deadline=None)
def test_degree_and_eq_invariant_under_common_factor(h, f):
    inflated = DaggerSeries(_num_mul_factors(h.num, [f]), list(h.den) + [f])
    assert inflated == h
    if not h.is_zero():
        assert inflated.degree() == h.degree()
    assert as_dicts(inflated.expand(8)) == as_dicts(h.expand(8))


@given(series_st, series_st, st.integers(min_value=0, max_value=10))
@settings(max_examples=50, deadline=None)
def test_hadamard_is_termwise_product(h, g, order):
    prod = ds_hadamard(h, g)
    eh, eg = h.expand(order), g.expand(order)
    expected = [a * b for a, b in zip(eh, eg)]
    assert prod.expand(order) == expected


@given(series_st, series_st)
@settings(max_examples=50, deadline=None)
def test_hadamard_limit_identity(h, g):
    # for zero constant term and degree <= 0:
    # lim (h * g) = -lim(h) * lim(g)
    if 0 in h.num or 0 in g.num:
        return
    if h.degree() > 0 or g.degree() > 0:
        return
    lim = ds_limit(ds_hadamard(h, g))
    assert lim == -(ds_limit(h) * ds_limit(g))


@given(series_st)
@settings(max_examples=40, deadline=None)
def test_fit_recovers_series(h):
    cands = sorted(h.den)
    order = sum(b for _, b in h.den) + (max(h.num) if h.num else 0) + 6
    prefix = h.expand(order)
    fitted = ds_fit(prefix, cands)
    assert fitted == h
    assert fitted.expand(order) == prefix


@given(series_st, series_st)
@settings(max_examples=30, deadline=None)
def test_add_mul_against_expansion(h, g):
    eh, eg = h.expand(10), g.expand(10)
    assert (h + g).expand(10) == [a + b for a, b in zip(eh, eg)]
    cauchy = [sum((eh[i] * eg[m - i] for i in range(m + 1)), LaurentPoly.zero())
              for m in range(11)]
    assert (h * g).expand(10) == cauchy


@given(series_st)
@settings(max_examples=40, deadline=None)
def test_peeled_preserves_class(h):
    p = h.peeled()
    assert p == h
    assert len(p.den) <= len(h.den)


def restart_peeled(h: DaggerSeries) -> DaggerSeries:
    """Reference peel: after each cancellation, retry every factor."""
    num, den = h.num, list(h.den)
    changed = True
    while changed and den and num:
        changed = False
        for i, (a, b) in enumerate(den):
            quo = divide_num_by_factor(num, a, b)
            if quo is not None:
                num = quo
                del den[i]
                changed = True
                break
    return DaggerSeries(num, den if num else [])


@seed(20261025)
@given(series_st, st.lists(factor_st, max_size=3))
@settings(max_examples=60, deadline=None)
def test_peeled_matches_restart_loop(h, extra):
    # inflate by common factors so that some of them cancel
    inflated = DaggerSeries(_num_mul_factors(h.num, extra), list(h.den) + extra)
    assert inflated.peeled().to_json() == restart_peeled(inflated).to_json()


@seed(20261026)
@given(num_st, factor_st, st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_divide_num_by_factor_inverts_multiplication(num, f, t):
    n = {e: LaurentPoly(c) for e, c in num.items()}
    multiple = _num_mul_factors(n, [f])
    assert divide_num_by_factor(multiple, *f) == n
    # a nonzero monomial has no root off T = 0, so no factor divides it
    perturbed = DaggerSeries([*multiple.items(), (t, one)]).num
    assert divide_num_by_factor(perturbed, *f) is None


@given(series_st)
def test_json_roundtrip(h):
    assert DaggerSeries.from_json(h.to_json()) == h


def test_negative_t_power_rejected():
    h = DaggerSeries({-1: one}, [(0, 1)])
    with pytest.raises(ValueError):
        h.expand(4)


def test_invalid_factor_rejected():
    with pytest.raises(ValueError):
        DaggerSeries({0: one}, [(1, 0)])


# ---------------------------------------------------------------------------
# wide ranges: coefficients past 2^64, L-exponents far from zero and factors
# with large slopes move the packed rows' digit widths and offsets

wide_factor_st = st.tuples(st.integers(min_value=-40, max_value=40),
                           st.integers(min_value=1, max_value=6))


def wide_num_st(bits: int):
    # the empty dict gives the zero series
    return st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.dictionaries(st.integers(min_value=-1000, max_value=1000),
                        st.integers(min_value=-2 ** bits, max_value=2 ** bits).filter(bool),
                        min_size=1, max_size=3),
        max_size=4,
    )


def wide_series_st(bits: int, max_factors: int):
    # an empty factor list gives a T-polynomial
    return st.builds(
        lambda num, den: DaggerSeries({t: LaurentPoly(c) for t, c in num.items()}, den),
        wide_num_st(bits), st.lists(wide_factor_st, max_size=max_factors))


def oracle_mul_factors(num: dict[int, dict], factors) -> dict[int, dict]:
    """num * prod (1 - L^a T^b) by sparse dict products."""
    for a, b in factors:
        out: dict[int, dict] = {}
        for t, c in num.items():
            out[t] = d_add(out.get(t, {}), c)
            out[t + b] = d_add(out.get(t + b, {}), d_mul(c, {a: -1}))
        num = {t: c for t, c in out.items() if c}
    return num


@seed(20261103)
@given(wide_num_st(80), st.lists(wide_factor_st, max_size=3),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_expand_matches_oracle_wide(num, den, order):
    h = DaggerSeries({t: LaurentPoly(c) for t, c in num.items()}, den)
    assert as_dicts(h.expand(order)) == oracle_expand(num, den, order)


@seed(20261104)
@given(wide_num_st(80), st.lists(wide_factor_st, min_size=1, max_size=3),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_mul_div_factors_roundtrip_wide(num, factors, t):
    n = {e: LaurentPoly(c) for e, c in num.items()}
    multiple = _num_mul_factors(n, factors)
    assert {e: dict(c.items()) for e, c in multiple.items()} == \
        oracle_mul_factors(num, factors)
    for a, b in reversed(factors):
        multiple = divide_num_by_factor(multiple, a, b)
    assert multiple == n
    perturbed = DaggerSeries([*_num_mul_factors(n, factors[:1]).items(),
                              (t, L(-999, 2 ** 70))]).num
    assert divide_num_by_factor(perturbed, *factors[0]) is None


@seed(20261105)
@given(wide_series_st(80, 2), st.lists(wide_factor_st, max_size=3))
@settings(max_examples=60, deadline=None)
def test_peeled_matches_restart_loop_wide(h, extra):
    inflated = DaggerSeries(_num_mul_factors(h.num, extra), list(h.den) + extra)
    assert inflated.peeled().to_json() == restart_peeled(inflated).to_json()


@seed(20261106)
@given(wide_series_st(40, 2), wide_series_st(40, 2),
       st.integers(min_value=0, max_value=10))
@settings(max_examples=40, deadline=None)
def test_hadamard_is_termwise_product_wide(h, g, order):
    eh, eg = h.expand(order), g.expand(order)
    assert ds_hadamard(h, g).expand(order) == [a * b for a, b in zip(eh, eg)]


def test_hadamard_past_two_to_the_64():
    h = DaggerSeries({1: L(-900, 2 ** 40), 2: L(7, -(2 ** 40) + 3)}, [(7, 2)])
    g = DaggerSeries({0: L(1000, 2 ** 40 + 1)}, [(-40, 3), (1, 1)])
    got = ds_hadamard(h, g)
    ref = [a * b for a, b in zip(h.expand(30), g.expand(30))]
    assert got.expand(30) == ref
    assert max(abs(v) for c in ref for _, v in c.items()) > 2 ** 80


@seed(20261107)
@given(wide_series_st(80, 3))
@settings(max_examples=40, deadline=None)
def test_fit_recovers_series_wide(h):
    order = sum(b for _, b in h.den) + (max(h.num) if h.num else 0) + 6
    prefix = h.expand(order)
    fitted = ds_fit(prefix, sorted(h.den))
    assert fitted == h
    assert fitted.expand(order) == prefix
