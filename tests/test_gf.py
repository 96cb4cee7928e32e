"""Finite field tables checked against direct modular polynomial arithmetic."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from jetzeta.jets import gf
from jetzeta.jets.gf import ExtField, PrimeField, factorize, is_prime, make_field


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(7) == {7: 1}
    assert factorize(5 ** 8) == {5: 8}


def test_prime_field_scalar_ops():
    F = PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.pow(3, 6) == 1
    assert F.neg(2) == 5
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_prime_field_chi2_and_sqrt():
    F = PrimeField(7)
    squares = {F.mul(x, x) for x in range(1, 7)}
    for a in range(7):
        want = 0 if a == 0 else (1 if a in squares else -1)
        assert F.chi2(a) == want
        r = F.sqrt(a)
        if want >= 0:
            assert r is not None and F.mul(r, r) == a
        else:
            assert r is None


def test_prime_field_vector_ops():
    F = PrimeField(11)
    a = F.all_elements()
    b = (a * 3 + 1) % 11
    assert np.array_equal(F.add_v(a, b), (a + b) % 11)
    assert np.array_equal(F.mul_v(a, b), (a * b) % 11)
    assert np.array_equal(F.pow_v(a, 5), np.array([pow(int(x), 5, 11) for x in a]))
    assert np.array_equal(F.chi2_v(a), np.array([F.chi2(int(x)) for x in a]))
    assert np.array_equal(F.scale_v(a, 4), (a * 4) % 11)


def _digits(v: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(v % p)
        v //= p
    return out


def _naive_mul(a: int, b: int, F: ExtField) -> int:
    p, k = F.p, F.k
    da, db = _digits(a, p, k), _digits(b, p, k)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * F.modulus[j]) % p
    v = 0
    for d in reversed(prod[:k]):
        v = v * p + d
    return v


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (3, 3)])
def test_ext_field_tables_match_naive(p, k):
    F = ExtField(p, k)
    q = p ** k
    for a in range(q):
        for b in range(q):
            assert F.mul(a, b) == _naive_mul(a, b, F)
            da, db = _digits(a, p, k), _digits(b, p, k)
            s = 0
            for x, y in zip(reversed(da), reversed(db)):
                s = s * p + (x + y) % p
            assert F.add(a, b) == s


def _ext_fields(q_max: int) -> list[tuple[int, int]]:
    return [(p, k) for p in range(2, q_max) if is_prime(p)
            for k in range(2, q_max.bit_length()) if p ** k <= q_max]


# every extension field up to 20 000 elements: the p = 2 towers, and from
# 131^2 on (2 * 130^2 >= 2^15) fields whose digit planes are int64; a base
# block of 61 columns makes most of them span several blocks
@pytest.mark.parametrize("block", [gf._BASE_BLOCK, 61])
@pytest.mark.parametrize("p,k", _ext_fields(20_000))
def test_ext_tables_match_repeated_multiplication(p, k, block, monkeypatch):
    monkeypatch.setattr(gf, "_BASE_BLOCK", block)
    F = ExtField(p, k)
    g = _digits(F.generator, p, k)
    one = [1] + [0] * (k - 1)
    exp = []
    cur = one
    for _ in range(F.q - 1):
        exp.append(sum(d * p ** i for i, d in enumerate(cur)))
        cur = gf._poly_mul_mod(cur, g, F.modulus, p)
    assert cur == one
    log = [-1] * F.q
    for t, x in enumerate(exp):
        log[x] = t
    assert F.EXP.dtype == F.LOG.dtype == np.int32
    assert F.EXP.tolist() == exp
    assert F.LOG.tolist() == log
    assert np.array_equal(F.LOG[F.EXP], np.arange(F.q - 1))
    assert F.LOG[0] == -1


@pytest.mark.parametrize("p,k", [(3, 11), (257, 2)])
def test_ext_tables_step_by_generator_across_blocks(p, k):
    # q - 1 > 2^16, so EXP spans several full-size blocks; EXP[0] = 1 and
    # EXP[t + 1] = g * EXP[t], multiplied out on the digits, give EXP[t] = g^t
    F = ExtField(p, k)
    assert F.q - 1 > gf._BASE_BLOCK
    g = _digits(F.generator, p, k)
    mat = np.array([gf._poly_mul_mod([int(i == j) for i in range(k)], g,
                                     F.modulus, p) for j in range(k)]).T
    exp = F.EXP.astype(np.int64)
    digits = np.array([exp // p ** i % p for i in range(k)])
    step = (mat @ digits) % p
    powers = np.array([p ** i for i in range(k)])
    assert F.EXP[0] == 1
    assert np.array_equal(powers @ step, np.roll(exp, -1))
    assert np.array_equal(F.LOG[F.EXP], np.arange(F.q - 1))
    assert F.LOG[0] == -1


def test_ext_field_generator_order():
    F = ExtField(3, 3)
    seen = set()
    v = 1
    for _ in range(F.q - 1):
        seen.add(v)
        v = F.mul(v, F.generator)
    assert v == 1 and len(seen) == F.q - 1


def test_ext_field_inverse_and_pow():
    F = ExtField(5, 2)
    for a in range(1, F.q):
        assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, F.q - 1) == 1
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_ext_field_chi2_counts():
    # in odd characteristic exactly half the units are squares
    F = ExtField(5, 2)
    vals = [F.chi2(a) for a in range(F.q)]
    assert vals[0] == 0
    assert sum(1 for v in vals if v == 1) == (F.q - 1) // 2
    for a in range(F.q):
        r = F.sqrt(a)
        if F.chi2(a) >= 0:
            assert r is not None and F.mul(r, r) == a
        else:
            assert r is None


def test_ext_field_char2_sqrt_bijection():
    F = ExtField(2, 3)
    roots = {F.sqrt(a) for a in range(F.q)}
    assert roots == set(range(F.q))
    for a in range(F.q):
        r = F.sqrt(a)
        assert F.mul(r, r) == a


def test_ext_field_vector_ops():
    F = ExtField(3, 2)
    a = F.all_elements()
    b = np.roll(a, 3)
    assert np.array_equal(F.mul_v(a, b),
                          np.array([F.mul(int(x), int(y)) for x, y in zip(a, b)]))
    assert np.array_equal(F.add_v(a, b),
                          np.array([F.add(int(x), int(y)) for x, y in zip(a, b)]))
    assert np.array_equal(F.pow_v(a, 4),
                          np.array([F.pow(int(x), 4) for x in a]))
    assert np.array_equal(F.chi2_v(a),
                          np.array([F.chi2(int(x)) for x in a]))
    assert np.array_equal(F.scale_v(a, 2),
                          np.array([F.mul(int(x), F.from_int(2)) for x in a]))


def test_ext_field_embeds_prime_subfield():
    F = ExtField(7, 2)
    for a in range(7):
        for b in range(7):
            assert F.mul(a, b) == (a * b) % 7
            assert F.add(a, b) == (a + b) % 7


def test_frobenius_counts_subfield():
    # a^q = a exactly on the prime subfield when k is prime
    F = ExtField(5, 3)
    fixed = [a for a in range(F.q) if F.pow(a, 5) == a]
    assert fixed == list(range(5))


def test_make_field():
    assert isinstance(make_field(13), PrimeField)
    F = make_field(9)
    assert isinstance(F, ExtField) and F.q == 9
    assert make_field(9) is F  # cached
    with pytest.raises(ValueError):
        make_field(12)


def test_make_field_from_threads():
    # large fields evict each other from the cache, so unguarded threads
    # race on the eviction loop and can leave more than one behind
    sizes = [100_003, 100_019, 100_043, 100_049, 100_057, 100_069]
    errors: list[Exception] = []

    def worker(shift: int) -> None:
        try:
            for r in range(3000):
                q = sizes[(r + shift) % len(sizes)]
                assert make_field(q).q == q
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len([q for q in gf._FIELD_CACHE if q > 100_000]) == 1


def test_field_size_budget():
    from jetzeta.errors import ResourceLimitError
    with pytest.raises(ResourceLimitError):
        ExtField(5, 12)


def test_medium_field_build():
    # table build for a mid-sized field stays fast and self-consistent
    F = make_field(5 ** 6)
    assert F.q == 15625
    a, b = 12345, 9876
    assert F.mul(a, b) == _naive_mul(a, b, F)
    assert F.mul(F.inv(a), a) == 1
