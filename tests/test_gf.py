"""Finite field tables checked against direct modular polynomial arithmetic."""

from __future__ import annotations

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

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


def test_prime_field_chi2():
    F = PrimeField(7)
    squares = {F.mul(x, x) for x in range(1, 7)}
    for a in range(7):
        want = 0 if a == 0 else (1 if a in squares else -1)
        assert F.chi2(a) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1009, 2017])
def test_prime_field_chi2_v_matches_chi2(p):
    # the vector table is scattered from squares; chi2 stays the scalar
    # oracle
    F = PrimeField(p)
    assert F.chi2_v(np.arange(p)).tolist() == [F.chi2(x) for x in range(p)]


def test_prime_field_vector_ops():
    F = PrimeField(11)
    a = F.all_elements()
    b = (a * 3 + 1) % 11
    assert np.array_equal(F.add_v(a, b), (a + b) % 11)
    assert np.array_equal(F.mul_v(a, b), (a * b) % 11)
    assert np.array_equal(F.pow_v(a, 5), np.array([pow(int(x), 5, 11) for x in a]))
    assert np.array_equal(F.chi2_v(a), np.array([F.chi2(int(x)) for x in a]))
    assert np.array_equal(F.scale_v(a, 4), (a * 4) % 11)


@pytest.mark.parametrize("p", [2, 3, 11, 2017])
def test_prime_field_pow_v_matches_pow(p):
    F = PrimeField(p)
    a = np.unique(np.concatenate([F.all_elements()[:50], [p - 2, p - 1]]))
    snapshot = a.copy()
    for e in range(21):
        got = F.pow_v(a, e)
        assert got is not a
        assert got.tolist() == [pow(int(x), e, p) for x in a], e
    assert np.array_equal(a, snapshot)


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
# block of 61 columns makes most of them span several blocks, and makes the
# F_p^*-scaled rows of EXP fill in column chunks or several rows at once
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
    assert F.CHI.dtype == np.int8
    assert F.CHI.tolist() == [0] + [1 if p == 2 or t % 2 == 0 else -1
                                    for t in log[1:]]


# SHA-256 of EXP.tobytes() and LOG.tobytes(), the modulus and the generator
# of the fields past the per-element checks above, recorded from the tables
# built by a whole-table LOG scatter, log[EXP] = arange(q - 1)
PINNED_TABLES = {
    (5, 8): ("80bf9390da5b13d791d01ebd1f0fc4b0d5d4fc3b726a655c307bef12b8c96238",
             "961c0efc1d8014b53a85782ca7171c9429b6679e1b7f80c407be21362dab4615",
             [2, 0, 0, 0, 0, 0, 0, 0, 1], 6),
    (7, 7): ("1d07bc5f4556865e59413353f6043f8545a5ebc5b817cbda835697c3c6a2adb8",
             "9d9f52266c9200b45657eaec0270066ff063fe5873a9eb87c8e8be68c0bd15f7",
             [1, 6, 0, 0, 0, 0, 0, 1], 14),
    (7, 8): ("9fbbc3fa844370945092191b62612fdf150a513da9e9009092924c64a79589f5",
             "4d472bd6069d1f512b21f6dfc5517d3b52d70be83a1434ebc3e89a571bc4eb17",
             [3, 1, 0, 0, 0, 0, 0, 0, 1], 7),
}


@pytest.mark.parametrize("p,k", sorted(PINNED_TABLES))
def test_large_tables_pinned(p, k):
    F = ExtField(p, k)
    exp_sha, log_sha, modulus, generator = PINNED_TABLES[p, k]
    assert hashlib.sha256(F.EXP.tobytes()).hexdigest() == exp_sha
    assert hashlib.sha256(F.LOG.tobytes()).hexdigest() == log_sha
    assert F.modulus == modulus
    assert F.generator == generator
    assert F.CHI[0] == 0
    assert np.array_equal(F.CHI[1:], 1 - 2 * (F.LOG[1:] & 1))


@pytest.mark.parametrize("p,k", [(3, 11), (257, 2), (1009, 2)])
def test_ext_tables_step_by_generator_across_blocks(p, k):
    # q - 1 > 2^16, so EXP spans several full-size blocks (1009^2 has rows
    # of N = 1010 < 2^16, and 1007 of them are scaled from the first);
    # EXP[0] = 1 and EXP[t + 1] = g * EXP[t], multiplied out on the digits,
    # give EXP[t] = g^t
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


def _plain_modulus(p: int, k: int) -> list[int]:
    """The smallest monic modulus in packed order that passes the full
    irreducibility test, tried on every candidate."""
    for packed in range(p ** k):
        cand = _digits(packed, p, k) + [1]
        if gf._is_irreducible(cand, p, k):
            return cand
    raise AssertionError("no irreducible modulus")


def _plain_generator(modulus: list[int], p: int, k: int) -> int:
    """The smallest packed nonconstant element whose powers g^((q - 1)/l)
    differ from 1 for every prime l of q - 1, each taken as a polynomial
    power."""
    q = p ** k
    one = [1] + [0] * (k - 1)
    for packed in range(p, q):
        g = _digits(packed, p, k)
        if all(gf._poly_pow(g, (q - 1) // ell, modulus, p) != one
               for ell in factorize(q - 1)):
            return packed
    raise AssertionError("no generator")


SEARCH_FIELDS = sorted(set(_ext_fields(20_000))
                       | {(p, k) for p in (5, 7) for k in range(2, 9)}
                       | {(3, 11), (257, 2), (1009, 2)})


@pytest.mark.parametrize("p,k", SEARCH_FIELDS)
def test_searches_match_plain_searches(p, k):
    # the root sieve before the irreducibility test, and the norm in place
    # of the powers for the primes of p - 1, pick what the plain searches
    # pick
    F = ExtField(p, k)
    assert F.modulus == _plain_modulus(p, k)
    assert F.generator == _plain_generator(F.modulus, p, k)


@seed(20261028)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_norm_is_the_determinant(data):
    # the determinant of multiplication by a is a^N, N = (q - 1)/(p - 1),
    # a constant
    q = data.draw(st.sampled_from([4, 8, 2 ** 10, 9, 27, 3 ** 7, 25, 125,
                                   49, 343, 11 ** 3, 257 ** 2]))
    F = make_field(q)
    p, k = F.p, F.k
    a = _digits(data.draw(st.integers(0, q - 1)), p, k)
    norm = gf._det_mod(F._matrix(a), p)
    assert gf._poly_pow(a, (q - 1) // (p - 1), F.modulus, p) == \
        [norm] + [0] * (k - 1)


@pytest.mark.parametrize("p,k", [(2, 5), (3, 4), (5, 3), (7, 3), (3, 7),
                                 (13, 2)])
def test_matrix_columns_are_products(p, k):
    # built by shifts, column j of the matrix is x^j * elt, one product each
    F = ExtField(p, k)
    for packed in range(0, F.q, max(1, F.q // 500)):
        elt = _digits(packed, p, k)
        assert F._matrix(elt) == [
            gf._poly_mul_mod([int(i == j) for i in range(k)], elt,
                             F.modulus, p) for j in range(k)]


def test_tables_are_read_only():
    # the power-map scan reads views of EXP, so a stray in-place write must
    # raise instead of changing a cached field
    F, P = ExtField(5, 3), PrimeField(7)
    P.chi2_v(np.arange(7))
    with pytest.raises(ValueError):
        F.EXP[0] = 2
    for table in (F.EXP, F.LOG, F.CHI, P._chi):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0


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


@seed(20261026)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ext_kernels_match_scalar_ops(data):
    # pow_v and chi2_v gather LOG at zeros too (LOG[0] = -1) and zero those
    # entries after; addc_v reads the low digit by floor division
    q = data.draw(st.sampled_from([4, 8, 9, 25, 27, 49, 3 ** 7]))
    F = make_field(q)
    assert F.LOG[0] == -1
    size = data.draw(st.integers(1, 40))
    a = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=size,
                                    max_size=size)) + [0], dtype=np.int64)
    snapshot = a.copy()
    e = data.draw(st.one_of(st.integers(0, 12), st.integers(0, 3 * q)))
    c = data.draw(st.integers(0, q - 1))
    points = a.tolist()
    assert F.pow_v(a, e).tolist() == [F.pow(x, e) for x in points]
    assert F.chi2_v(a).tolist() == [F.chi2(x) for x in points]
    assert F.addc_v(a, c).tolist() == [F.add(x, c) for x in points]
    assert np.array_equal(a, snapshot)


def test_ext_scalar_ops_match_log_formulas():
    # mul, pow and inv take residue arithmetic on operands below p, and read
    # LOG on the others; chi2 reads CHI.  Over F_(5^3) all of them agree with
    # the LOG formulas, and the prime subfield alone never builds LOG.
    F = ExtField(5, 3)
    n, es = F.q - 1, range(-2, 2 * F.q)
    sub = [(F.mul(a, b), [F.pow(a, e) for e in es], F.inv(a or 1))
           for a in range(F.p) for b in range(F.p)]
    assert "LOG" not in F.__dict__
    exp, log = F.EXP.tolist(), F.LOG.tolist()

    def mul(a: int, b: int) -> int:
        return exp[(log[a] + log[b]) % n] if a and b else 0

    def pow_(a: int, e: int) -> int:
        return exp[log[a] * e % n] if a else int(e == 0)

    assert sub == [(mul(a, b), [pow_(a, e) for e in es], exp[-log[a or 1] % n])
                   for a in range(F.p) for b in range(F.p)]
    for a in range(F.q):
        assert F.chi2(a) == (1 - 2 * (log[a] % 2) if a else 0)
        assert F.inv(a or 1) == exp[-log[a or 1] % n]
        assert [F.pow(a, e) for e in es] == [pow_(a, e) for e in es]
        assert [F.mul(a, b) for b in range(F.q)] == [mul(a, b) for b in range(F.q)]


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


def _traced_peak(build):
    """build() and the peak of traced memory above what was held before."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base


def test_ext_table_build_memory():
    # each table's build holds that table and temporaries of O(_BASE_BLOCK +
    # p^ceil(k/2)): EXP at construction, LOG and CHI, scattered from EXP block
    # by block, when first read; a whole-table LOG scatter held 24 MB more.
    # tracemalloc sees numpy buffers.
    F, peak = _traced_peak(lambda: ExtField(7, 8))
    assert "LOG" not in F.__dict__ and "CHI" not in F.__dict__
    assert peak - F.EXP.nbytes < 6 << 20
    log, peak = _traced_peak(lambda: F.LOG)
    assert peak - log.nbytes < 6 << 20
    chi, peak = _traced_peak(lambda: F.CHI)
    assert peak - chi.nbytes < 6 << 20


def test_ext_table_build_memory_near_the_budget():
    # 5477^2 < _MAX_TABLE_FIELD: 5475 rows of N = 5478 elements scaled from
    # the first, r = 11 at a time; construction only, LOG would be 120 MB
    F, peak = _traced_peak(lambda: ExtField(5477, 2))
    assert peak - F.EXP.nbytes < 6 << 20


def test_make_field_frees_the_old_large_field_first():
    # the 7^7 tables, all three of them read, are evicted before the 7^8
    # build starts, so the two fields never coexist
    gf._FIELD_CACHE.clear()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        old = make_field(7 ** 7)
        assert old.LOG.nbytes + old.CHI.nbytes + old.EXP.nbytes > 6 << 20
        del old
        tracemalloc.reset_peak()
        F = make_field(7 ** 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gf._FIELD_CACHE.clear()
    assert peak - base - F.EXP.nbytes < 6 << 20


def test_first_read_builds_one_table_across_threads():
    # LOG and CHI are built under _FIELD_LOCK: threads that read them from a
    # fresh field at once share one array
    F = ExtField(7, 7)
    barrier = threading.Barrier(4)
    got: dict[str, list] = {"LOG": [], "CHI": []}

    def read(name: str) -> None:
        barrier.wait()
        got[name].append(getattr(F, name))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name in got:
            threads = [threading.Thread(target=read, args=(name,))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    for name, tables in got.items():
        assert len(tables) == 4
        assert all(table is getattr(F, name) for table in tables), name


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
