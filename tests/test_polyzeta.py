"""Generating series of polytope lattice sums and their limit identities."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from jetzeta.algebra import LaurentPoly, DaggerSeries, ds_limit
from jetzeta.errors import LimitMismatchError, UnboundedInputError
from jetzeta.gamma import (
    PolySet, RationalCell, AffineFormPW, alpha_m, chi, zeta_polytope,
    zeta_terms,
)
from jetzeta.gamma.zeta import _divided, _eulerian


def test_zeta_point_at_origin():
    S = PolySet.point([0])
    z = zeta_polytope(S, AffineFormPW.linear([1]))
    assert z == DaggerSeries.geometric(0, 1, t_shift=1)  # T / (1 - T)
    assert ds_limit(z) == LaurentPoly.from_int(-1)


def test_zeta_open_unit_interval():
    S = PolySet.interval(0, 1, False, False)
    # zero form: s_m counts the m-division points, so T^2 / (1 - T)^2
    z0 = zeta_polytope(S, AffineFormPW.constant(1))
    assert z0 == DaggerSeries({2: LaurentPoly.one()}, [(0, 1), (0, 1)])
    assert ds_limit(z0) == LaurentPoly.one()
    # form x: each point k/m carries L^-k, giving L^-1 T^2 / ((1-L^-1 T)(1-T))
    z1 = zeta_polytope(S, AffineFormPW.linear([1]))
    assert z1 == DaggerSeries({2: LaurentPoly.L(-1)}, [(-1, 1), (0, 1)])
    assert ds_limit(z1) == LaurentPoly.one()


def test_zeta_closed_interval_weighted():
    S = PolySet.interval(0, 1, True, True)
    z = zeta_polytope(S, AffineFormPW.linear([1]))
    # ((1 + L^-1) T - L^-1 T^2) / ((1 - L^-1 T)(1 - T))
    Li = LaurentPoly.L(-1)
    expected = DaggerSeries(
        {1: LaurentPoly.one() + Li, 2: -Li}, [(-1, 1), (0, 1)])
    assert z == expected
    assert ds_limit(z) == LaurentPoly.from_int(-1)
    assert ds_limit(z) == LaurentPoly.from_int(-chi(S))


def test_zeta_triangle_nonseparable_form():
    S = PolySet(2, (RationalCell.make(
        2, le=[((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]),))
    z = zeta_polytope(S, AffineFormPW.linear([1, 1]), M=14)
    assert ds_limit(z) == LaurentPoly.from_int(-1)
    assert z.expand(10) == zeta_terms(S, AffineFormPW.linear([1, 1]), 10)


def test_zeta_wedge():
    # 0 < y < x < 1 with the form 2x - y
    S = PolySet(2, (RationalCell.make(
        2, lt=[((0, -1), 0), ((-1, 1), 0), ((1, 0), 1)]),))
    f = AffineFormPW.linear([2, -1])
    z = zeta_polytope(S, f, M=16)
    assert ds_limit(z) == LaurentPoly.from_int(-chi(S))
    assert z.expand(12) == zeta_terms(S, f, 12)


def test_zeta_piecewise_guard():
    S = PolySet.interval(0, 1, True, True)
    left = RationalCell.make(1, lt=[((1,), Fraction(1, 2))])    # x < 1/2
    right = RationalCell.make(1, le=[((-1,), Fraction(-1, 2))])  # x >= 1/2
    f = AffineFormPW.make(1, [(left, (1,), 0), (right, (2,), 1)])
    z = zeta_polytope(S, f, M=16)
    assert ds_limit(z) == LaurentPoly.from_int(-chi(S))
    assert z.expand(12) == zeta_terms(S, f, 12)


def test_zeta_steep_slope_on_point():
    # {1/2} with form 3x: series is L^-3 T^2 / (1 - L^-3 T^2)
    S = PolySet.point([Fraction(1, 2)])
    z = zeta_polytope(S, AffineFormPW.linear([3]))
    expected = DaggerSeries.geometric(-3, 2, t_shift=2, coeff=LaurentPoly.L(-3))
    assert z == expected
    assert ds_limit(z) == LaurentPoly.from_int(-1)


def test_zeta_empty_set_is_zero():
    z = zeta_polytope(PolySet.empty(2), AffineFormPW.linear([1, 0]))
    assert z.is_zero()
    assert ds_limit(z) == LaurentPoly.zero()


def test_zeta_rejects_unbounded():
    with pytest.raises(UnboundedInputError):
        zeta_polytope(PolySet.box([(0, None, True, False)]),
                      AffineFormPW.linear([1]))


def test_zeta_rejects_small_order():
    with pytest.raises(ValueError):
        zeta_polytope(PolySet.point([0]), AffineFormPW.linear([1]), M=3)


def test_zeta_rejects_bad_guard_coverage():
    S = PolySet.interval(0, 1, True, True)
    # guards overlap on (1/4, 1/2)
    g1 = RationalCell.make(1, lt=[((1,), Fraction(1, 2))])
    g2 = RationalCell.make(1, lt=[((-1,), Fraction(-1, 4))])
    f = AffineFormPW.make(1, [(g1, (1,), 0), (g2, (2,), 0)])
    with pytest.raises(ValueError):
        zeta_polytope(S, f)
    # and a gap: no guard covers [1/2, 1]
    f2 = AffineFormPW.make(1, [(g1, (1,), 0)])
    with pytest.raises(ValueError):
        zeta_polytope(S, f2)


def test_zeta_dimension_mismatch():
    with pytest.raises(ValueError):
        zeta_polytope(PolySet.point([0, 0]), AffineFormPW.linear([1]))


def test_zeta_limit_matches_chi_randomized():
    rng = random.Random(2026)
    twelfths = [Fraction(k, 12) for k in range(-36, 37)]
    for trial in range(40):
        n = rng.choice([1, 1, 2, 3])
        iv = []
        for _ in range(n):
            lo, hi = sorted(rng.sample(twelfths, 2))
            iv.append((lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        S = PolySet.box(iv)
        f = AffineFormPW.linear(
            [rng.randint(-3, 3) for _ in range(n)], rng.randint(-3, 3))
        z = zeta_polytope(S, f)
        assert ds_limit(z) == LaurentPoly.from_int(-chi(S)), (trial, iv)


def test_zeta_expansion_matches_enumeration_randomized():
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    # (box, form coefficients, constant): a separable face sums its terms
    # over one U-denominator prod (1 - U^(-a)), so cover repeated factors,
    # negative a, points with denominator > 1 and a nonzero constant
    cases = [
        ([(0, 1, False, False), (-h, 3 * q, True, False), (q, 2, False, True)],
         [2, 2, 2], 0),
        ([(-3 * q, h, True, True), (0, 3 * h, False, True)], [-1, 2], 3),
        ([(3 * h, 3 * h, True, True), (-h, q, False, True)], [3, -2], -1),
        ([(q, q, True, True), (-1, h, False, True), (0, 5 * q, True, False)],
         [-2, -1, -1], 2),
    ]
    rng = random.Random(99)
    quarters = [Fraction(k, 4) for k in range(-8, 9)]
    for _ in range(12):
        n = rng.choice([1, 2])
        iv = []
        for _ in range(n):
            lo, hi = sorted(rng.sample(quarters, 2))
            iv.append((lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        cases.append((iv, [rng.randint(-2, 2) for _ in range(n)],
                      rng.randint(-2, 2)))
    k = 8
    for iv, a, b in cases:
        S = PolySet.box(iv)
        f = AffineFormPW.linear(a, b)
        z = zeta_polytope(S, f)
        assert z.expand(k) == zeta_terms(S, f, k), (iv, a, b)


def test_alpha_is_zeta_term_of_the_weight():
    # alpha_m and zeta_terms share one lattice sum: alpha_m(S, m) is
    # (T - 1)^n times s_m of the weight form
    rng = random.Random(28)
    sixths = [Fraction(k, 6) for k in range(-12, 13)]
    for _ in range(6):
        n = rng.randint(1, 3)
        iv = []
        for _ in range(n):
            lo, hi = sorted(rng.sample(sixths, 2))
            iv.append((lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        S = PolySet.box(iv)
        terms = zeta_terms(S, AffineFormPW.linear([1] * n), 4)
        for m in range(1, 5):
            assert alpha_m(S, m) == (LaurentPoly({1: 1, 0: -1}) ** n
                                     * terms[m]), (iv, m)


# first 16 hex digits of the SHA-256 of json.dumps(Z.to_json(),
# sort_keys=True) for every 16th of the 200 boxes of acceptance criterion 6
CRITERION_6_DIGESTS = {
    0: "d45d93e4e6547fc5", 16: "c606d7384915ad6b", 32: "89fa3aefbb44c065",
    48: "b63cee36585e6767", 64: "a55f6c212479a23a", 80: "8cd70a8b0798476f",
    96: "a15bf0ef88671c23", 112: "538a135f6a939c47", 128: "d2ffad6e17bec343",
    144: "e216c36956146867", 160: "468385006f779e34", 176: "46a3e55876655770",
    192: "5957cbc78eb3dfb8",
}


def test_zeta_presentation_pinned_on_criterion_6_sample():
    # == cross-multiplies, so it cannot see a numerator and denominator that
    # changed together; the digest pins the exact presentation
    rng = random.Random(0xC6_2026)
    for i in range(200):
        n = rng.randint(1, 3)
        intervals = []
        for _ in range(n):
            k0, k1 = sorted((rng.randint(-36, 36), rng.randint(-36, 36)))
            intervals.append((Fraction(k0, 12), Fraction(k1, 12),
                              rng.random() < 0.5, rng.random() < 0.5))
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        form = AffineFormPW.linear(coeffs, rng.randint(-3, 3))
        if i not in CRITERION_6_DIGESTS:
            continue
        text = json.dumps(zeta_polytope(PolySet.box(intervals), form).to_json(),
                          sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == CRITERION_6_DIGESTS[i], (i, intervals, coeffs)


def test_zeta_union_presentation_invariance():
    # same set presented as one box vs two half-open pieces
    whole = PolySet.interval(0, 2, True, True)
    split = PolySet.interval(0, 1, True, False).union(
        PolySet.interval(1, 2, True, True))
    f = AffineFormPW.linear([1])
    assert zeta_polytope(whole, f) == zeta_polytope(split, f)


def test_zeta_terms_values():
    S = PolySet.interval(0, 1, True, True)
    f = AffineFormPW.linear([1])
    terms = zeta_terms(S, f, 3)
    # s_0 = 0 by convention; s_m = sum over (1/m)Z points of L^{-f(p) m}
    assert terms[0] == LaurentPoly.zero()
    assert terms[1] == LaurentPoly.one() + LaurentPoly.L(-1)
    assert terms[2] == LaurentPoly.one() + LaurentPoly.L(-1) + LaurentPoly.L(-2)


def test_affine_form_json_roundtrip():
    left = RationalCell.make(1, lt=[((1,), Fraction(1, 2))])
    right = RationalCell.make(1, le=[((-1,), Fraction(-1, 2))])
    f = AffineFormPW.make(1, [(left, (1,), 0), (right, (2,), 1)])
    back = AffineFormPW.from_json(f.to_json(), 1)
    assert back == f


@pytest.mark.parametrize("d", range(9))
def test_eulerian_numerator_from_its_definition(d):
    # (1 - z)^(d+1) * sum_(t<=N) t^d z^t is A_d(z) up to z^N: the truncation
    # leaves every coefficient through z^N exact
    N = 2 * d + 4
    series = [t ** d for t in range(N + 1)]
    for _ in range(d + 1):
        series = series[:1] + [b - a for a, b in zip(series, series[1:])]
    assert list(_eulerian(d)) == series[:d + 1]
    assert not any(series[d + 1:])


def _udiv_product(udiv) -> LaurentPoly:
    out = LaurentPoly.one()
    for a in udiv:
        out = out * LaurentPoly({0: 1, -a: -1})
    return out


@seed(20261023)
@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(-8, 8), st.integers(-40, 40), max_size=8),
       st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=3),
       st.integers(-14, 14), st.sampled_from([-2, -1, 1, 3]))
def test_packed_division_matches_divide_exact(quotient, udiv, e, delta):
    q = LaurentPoly(quotient)
    den = _udiv_product(udiv)
    row = q * den
    assert _divided(row, udiv) == row.divide_exact(den) == q
    # one coefficient changed: a nonunit product no longer divides
    if udiv:
        bad = row + LaurentPoly.L(e, delta)
        for divide in (lambda: _divided(bad, udiv), lambda: bad.divide_exact(den)):
            with pytest.raises(ValueError, match="not exactly divisible"):
                divide()


def test_packed_division_past_machine_widths():
    # quotient coefficients past 2^63 pack at a width no array type has
    q = LaurentPoly({-2: 2 ** 70 + 1, 0: -(2 ** 64), 5: 3 * 2 ** 63 - 7})
    for udiv in ([-3, 2], [1, 1, -2], [3]):
        den = _udiv_product(udiv)
        row = q * den
        assert _divided(row, udiv) == row.divide_exact(den) == q
        with pytest.raises(ValueError, match="not exactly divisible"):
            _divided(row + LaurentPoly.L(1, 2 ** 66), udiv)
    # digits that outgrow the row's norm: M * (1 - U^32)^2 over (1 - U)^2 is
    # M * (1 + U + ... + U^31)^2, whose middle digit is 32 * M = 2^64
    M = 2 ** 59
    row = LaurentPoly({0: M, 32: -2 * M, 64: M})
    q = LaurentPoly({i: M * min(i + 1, 63 - i) for i in range(63)})
    assert _divided(row, [-1, -1]) == row.divide_exact(_udiv_product([-1, -1])) == q


def test_packed_division_of_empty_rows_and_empty_products():
    assert _divided(LaurentPoly(), [2, -1]) == LaurentPoly()
    row = LaurentPoly({-3: 4, 2: -1})
    assert _divided(row, []) == row
    # a face with no geometric coordinate: a point times an interval on
    # which the form is constant, so its U-denominator is 1
    S = PolySet.box([(Fraction(1, 2), Fraction(1, 2), True, True),
                     (0, 1, False, False)])
    f = AffineFormPW.linear([2, 0], 1)
    assert zeta_polytope(S, f).expand(8) == zeta_terms(S, f, 8)
