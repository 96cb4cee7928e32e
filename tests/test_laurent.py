"""Exactness and ring-structure tests for LaurentPoly.

The naive dict-of-dicts arithmetic defined here is the oracle for the
library's schoolbook multiplication and for the Kronecker codec product
that the Dagger layer applies to its packed rows.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from jetzeta.algebra import LaurentPoly
from jetzeta.algebra.laurent import _digit_width, _pack, _unpack


def oracle_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def codec_mul(a: dict, b: dict) -> dict:
    """Product through the Kronecker codec, as ds_hadamard multiplies rows:
    any product coefficient is a sum of at most min(len(a), len(b)) pair
    products, which bounds the digit width."""
    sa, sb = min(a), min(b)
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    width = _digit_width(bound)
    return _unpack(_pack(a, sa, width) * _pack(b, sb, width), sa + sb, width)


coeff_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9).filter(bool),
    max_size=8,
)


def test_eval_at_one_examples():
    p = LaurentPoly({2: 1, 1: -2, 0: 1})  # (L - 1)^2
    assert p.eval_at_one() == 0
    assert LaurentPoly.zero().eval_at_one() == 0
    assert LaurentPoly({-1: 2, 0: 3}).eval_at_one() == 5


def test_eval_at_int_examples():
    assert LaurentPoly.L().eval_at(5) == 5
    assert LaurentPoly.L(-1).eval_at(2) == Fraction(1, 2)
    assert LaurentPoly({1: 2, 0: 3}).eval_at(7) == 17


def test_no_zero_coefficients_stored():
    p = LaurentPoly({0: 1, 1: 2}) - LaurentPoly({1: 2})
    assert p == LaurentPoly.one()
    assert len(p) == 1
    assert (p - p).is_zero()


def test_constructor_accumulates_pairs():
    p = LaurentPoly([(0, 1), (0, 2), (1, 3), (1, -3)])
    assert p == LaurentPoly({0: 3})


@given(coeff_dicts, coeff_dicts)
def test_mul_matches_oracle(a, b):
    assert (LaurentPoly(a) * LaurentPoly(b))._c == oracle_mul(a, b)


@given(coeff_dicts, coeff_dicts)
def test_kronecker_path_matches_naive(a, b):
    if not a or not b:
        return
    assert codec_mul(a, b) == oracle_mul(a, b)


def test_kronecker_large_coefficients():
    big = 10 ** 40
    a = {-3: big, 0: -big + 7, 5: 1}
    b = {-2: -big, 4: big}
    assert codec_mul(a, b) == oracle_mul(a, b)


@given(coeff_dicts, coeff_dicts, coeff_dicts)
@settings(max_examples=50)
def test_ring_axioms(a, b, c):
    pa, pb, pc = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa - pa == LaurentPoly.zero()


@given(coeff_dicts, st.integers(min_value=0, max_value=5))
@settings(max_examples=40)
def test_pow(a, n):
    p = LaurentPoly(a)
    expected = LaurentPoly.one()
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected


@given(coeff_dicts, coeff_dicts)
@settings(max_examples=60)
def test_divide_exact_roundtrip(a, b):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    if pb.is_zero():
        return
    assert (pa * pb).divide_exact(pb) == pa


def fraction_divide(a: dict, b: dict) -> dict | None:
    """a / b by long division over Fractions, from the lowest exponents on;
    None when the remainder is nonzero or a quotient coefficient is not an
    integer."""
    if not a:
        return {}
    sa, sb = min(a), min(b)
    la = [Fraction(a.get(sa + i, 0)) for i in range(max(a) - sa + 1)]
    lb = [Fraction(b.get(sb + i, 0)) for i in range(max(b) - sb + 1)]
    if len(la) < len(lb):
        return None
    quo = {}
    for i in range(len(la) - len(lb), -1, -1):
        c = la[i + len(lb) - 1] / lb[-1]
        for j, bj in enumerate(lb):
            la[i + j] -= c * bj
        if c:
            quo[sa - sb + i] = c
    if any(la) or any(c.denominator != 1 for c in quo.values()):
        return None
    return {e: int(c) for e, c in quo.items()}


@st.composite
def divisors(draw) -> dict:
    # lower terms below a leading coefficient of +-1, +-2 or 3
    top = draw(st.integers(min_value=-3, max_value=4))
    lower = draw(st.dictionaries(st.integers(min_value=top - 5, max_value=top - 1),
                                 st.integers(min_value=-4, max_value=4).filter(bool),
                                 max_size=4))
    return {**lower, top: draw(st.sampled_from([1, -1, 2, -2, 3]))}


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(coeff_dicts, divisors(), coeff_dicts)
def test_divide_exact_matches_fraction_division(a, b, r):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    assert (pa * pb).divide_exact(pb) == pa
    # a multiple plus a small perturbation is mostly not a multiple
    for n in (pa * pb + LaurentPoly(r), LaurentPoly(r)):
        want = fraction_divide(n._c, b)
        if want is None:
            with pytest.raises(ValueError):
                n.divide_exact(pb)
        else:
            assert n.divide_exact(pb) == LaurentPoly(want)


def test_divide_exact_rejects_nondivisor():
    with pytest.raises(ValueError):
        LaurentPoly({0: 1, 1: 1}).divide_exact(LaurentPoly({0: 1, 1: -1}))
    with pytest.raises(ValueError):
        LaurentPoly({0: 3}).divide_exact(LaurentPoly({0: 2}))
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.one().divide_exact(LaurentPoly.zero())


@given(coeff_dicts, coeff_dicts, st.integers(min_value=2, max_value=11))
@settings(max_examples=40)
def test_eval_is_ring_homomorphism(a, b, q):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    assert (pa * pb).eval_at(q) == pa.eval_at(q) * pb.eval_at(q)
    assert (pa + pb).eval_at(q) == pa.eval_at(q) + pb.eval_at(q)
    assert (pa * pb).eval_at_one() == pa.eval_at_one() * pb.eval_at_one()


@given(coeff_dicts)
def test_json_roundtrip(a):
    p = LaurentPoly(a)
    assert LaurentPoly.from_json(p.to_json()) == p


def test_shifted():
    p = LaurentPoly({0: 1, 2: -3})
    assert p.shifted(-2) == LaurentPoly({-2: 1, 0: -3})
    assert p.shifted(0) is p


def test_str_rendering():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({2: 1, 0: -1})) == "L^2 - 1"
    assert str(LaurentPoly({-1: 2})) == "2*L^-1"


@given(coeff_dicts)
def test_hash_consistent_with_eq(a):
    p = LaurentPoly(a)
    q = LaurentPoly(dict(a))
    assert p == q and hash(p) == hash(q)


# ---------------------------------------------------------------------------
# the Kronecker codec over wide ranges: coefficients past 2^64, exponents far
# from zero, array widths and widths that are not

wide_dicts = st.dictionaries(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80).filter(bool),
    max_size=12,
)


@seed(20261101)
@settings(max_examples=200, deadline=None)
@given(wide_dicts, st.integers(min_value=0, max_value=70), st.booleans())
def test_pack_unpack_roundtrip(a, spare, array_width):
    if not a:
        return
    bound = max(abs(v) for v in a.values())
    width = _digit_width(bound) if array_width else bound.bit_length() + 2 + spare
    low = min(a) - spare
    x = _pack(a, low, width)
    assert x == sum(v << (width * (e - low)) for e, v in a.items())
    assert _unpack(x, low, width) == a
    assert _unpack(-x, low, width) == {e: -v for e, v in a.items()}


def test_digit_width_keeps_two_spare_bits():
    for bound in (0, 1, 31, 32, 2 ** 62 - 1, 2 ** 62, 2 ** 80):
        width = _digit_width(bound)
        assert bound < 2 ** (width - 2)
        assert _unpack(_pack({0: -bound, 3: bound}, 0, width), 0, width) == (
            {0: -bound, 3: bound} if bound else {})


@seed(20261102)
@settings(max_examples=60, deadline=None)
@given(wide_dicts, wide_dicts)
def test_kronecker_path_matches_naive_wide(a, b):
    if not a or not b:
        return
    assert codec_mul(a, b) == oracle_mul(a, b)


def test_product_past_two_to_the_64_through_kronecker():
    a = {e: (2 ** 70 + e) * (1 if e % 2 else -1) for e in range(-20, 20)}
    b = {3 * e: 2 ** 66 - e for e in range(40)}
    got = LaurentPoly(a) * LaurentPoly(b)
    assert got._c == oracle_mul(a, b)
    assert max(abs(v) for v in got._c.values()) > 2 ** 128
