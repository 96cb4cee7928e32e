"""Prime and prime-power finite fields with table-backed vector arithmetic.

Elements are plain ints: residues for a prime field, base-p digit packings
of F_p[x]/(modulus) for an extension field.  Extension multiplication runs
through discrete EXP/LOG tables built once per field, so bulk operations
vectorize with numpy.

EXP lists g^0, g^1, ... for the generator g, built in blocks of digit
planes (one small-int array per base-p digit).  A base block of
_BASE_BLOCK columns is filled by doubling: columns s..2s-1 are columns
0..s-1 times g^s.  The block at t0 is the base block times g^t0, that is
k^2 scalar-times-plane multiply-adds with the matrix of multiplication by
g^t0, reduced mod p and packed into the int32 EXP.  The planes are int16
when no sum of k products of digits can reach 2^15, else int64.  A float64
matmul would take fewer numpy calls, but BLAS runs it on a second thread:
in a trial that raised CPU time and peak memory of the extension-field
benchmark, while the integer planes stay on one thread.

LOG is filled from EXP block by block over the same blocks, LOG[EXP[t]] = t,
with LOG[0] = -1.  A field of q elements holds 8q bytes of int32 tables,
plus O(k * _BASE_BLOCK) bytes of temporaries while it builds.

addc_v adds one field element to a vector without broadcasting it first.
The prime subfield of an extension field is its elements below p, the
constant polynomials, so adding one of them touches only digit 0 of each
element; other constants fall back to add_v.  The low digit is taken as
a - a // p * p: numpy divides by a scalar fast and takes a remainder slowly.

ExtField.pow_v and chi2_v are mask-free: one LOG gather over the whole
vector, zeros included (LOG[0] = -1, which pow_v reduces to an exponent in
range like any other), then the entries where a == 0 are multiplied to
zero, with no boolean gather and scatter.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import ResourceLimitError

_MAX_TABLE_FIELD = 30_000_000
# columns of the base block of digit planes the EXP table is built from
_BASE_BLOCK = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class PrimeField:
    """F_p with residue representatives 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.q = p
        self.k = 1
        self._chi: np.ndarray | None = None
        self._sqrt: dict[int, int] | None = None

    def from_int(self, c: int) -> int:
        return c % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return pow(a, self.p - 2, self.p)

    def chi2(self, a: int) -> int:
        """Quadratic character: 0 at 0, +1 on squares, -1 otherwise."""
        if a == 0:
            return 0
        if self.p == 2:
            return 1
        return 1 if pow(a, (self.p - 1) // 2, self.p) == 1 else -1

    def sqrt(self, a: int) -> int | None:
        if self._sqrt is None:
            table: dict[int, int] = {}
            for x in range(self.p):
                table.setdefault((x * x) % self.p, x)
            self._sqrt = table
        return self._sqrt.get(a)

    # vector interface: int64 arrays of residues
    def add_v(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def addc_v(self, a: np.ndarray, c: int) -> np.ndarray:
        """Add the field element c to every entry of a."""
        return (a + c) % self.p

    def mul_v(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a * b) % self.p

    def scale_v(self, a: np.ndarray, c: int) -> np.ndarray:
        return (a * (c % self.p)) % self.p

    def mulc_v(self, a: np.ndarray, c: int) -> np.ndarray:
        """Multiply a vector by an arbitrary field element."""
        return (a * c) % self.p

    def pow_v(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e by squaring, started at the lowest set bit of e and with no
        squaring past the highest, so e = 2 is one a * a % p."""
        if e == 0:
            return np.ones_like(a)
        p = self.p
        base = a
        while not e & 1:
            base = base * base % p
            e >>= 1
        out = a % p if base is a else base
        e >>= 1
        while e:
            base = base * base % p
            if e & 1:
                out = out * base % p
            e >>= 1
        return out

    def chi2_v(self, a: np.ndarray) -> np.ndarray:
        if self._chi is None:
            chi = np.zeros(self.p, dtype=np.int64)
            for x in range(1, self.p):
                chi[x] = self.chi2(x)
            self._chi = chi
        return self._chi[a]

    def all_elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """Product in F_p[x] reduced mod a monic modulus (coefficient lists, low first)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    k = len(modulus) - 1
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    out = prod[:k]
    while len(out) < k:
        out.append(0)
    return out


def _poly_pow(a: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    """a^e mod modulus (degree of modulus must be >= 2)."""
    result = [1] + [0] * (len(modulus) - 2)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, a, modulus, p)
        a = _poly_mul_mod(a, a, modulus, p)
        e >>= 1
    return result


def _digits(v: int, p: int, k: int) -> list[int]:
    """The k base-p digits of v, lowest first."""
    return [v // p ** i % p for i in range(k)]


def _strip(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    return v


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    r = _strip(list(a))
    inv = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        c = (r[-1] * inv) % p
        shift = len(r) - len(b)
        for j, bj in enumerate(b):
            r[shift + j] = (r[shift + j] - c * bj) % p
        _strip(r)
    return r


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(modulus: list[int], p: int, k: int) -> bool:
    x = [0, 1] + [0] * (k - 2)
    xq = _poly_pow(x, p ** k, modulus, p)
    xq[1] = (xq[1] - 1) % p
    if any(xq):
        return False
    for ell in factorize(k):
        d = k // ell
        xd = _poly_pow(x, p ** d, modulus, p)
        xd[1] = (xd[1] - 1) % p
        if len(_poly_gcd(modulus, xd, p)) > 1:
            return False
    return True


class ExtField:
    """F_(p^k) as F_p[x]/(modulus) with packed-digit int elements."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 2:
            raise ValueError("extension degree must be >= 2")
        q = p ** k
        if q > _MAX_TABLE_FIELD:
            raise ResourceLimitError(
                f"field of size {q} exceeds the table budget")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = self._find_modulus()
        self._build_tables()

    def _find_modulus(self) -> list[int]:
        p, k = self.p, self.k
        # smallest monic modulus in packed-constant order
        for packed in range(p ** k):
            cand = _digits(packed, p, k) + [1]
            if _is_irreducible(cand, p, k):
                return cand
        raise AssertionError("no irreducible modulus found")

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        # generator: smallest packed element of full multiplicative order
        fac = list(factorize(q - 1))
        one = [1] + [0] * (k - 1)
        for packed in range(2, q):
            gen_digits = _digits(packed, p, k)
            if all(_poly_pow(gen_digits, (q - 1) // ell, self.modulus, p) != one
                   for ell in fac):
                break
        else:
            raise AssertionError("no generator found")
        self.generator = packed

        # EXP: a base block of digit planes, then each later block as the
        # base times g^t0, k^2 scalar-times-plane products per block
        dtype = np.int16 if k * (p - 1) ** 2 < 1 << 15 else np.int64
        B = min(_BASE_BLOCK, q - 1)
        base = np.zeros((k, B), dtype=dtype)
        base[0, 0] = 1
        step, g_step = 1, gen_digits
        while step < B:
            width = min(step, B - step)
            self._times(g_step, base, width, base[:, step:step + width])
            step *= 2
            g_step = _poly_mul_mod(g_step, g_step, self.modulus, p)
        # g^B, one step past the base block's last column
        g_block = _poly_mul_mod([int(d) for d in base[:, B - 1]], gen_digits,
                                self.modulus, p)
        exp = np.empty(q - 1, dtype=np.int32)
        log = np.empty(q, dtype=np.int32)
        log[0] = -1
        planes = np.empty_like(base)
        g_t0 = one
        for t0 in range(0, q - 1, B):
            width = min(B, q - 1 - t0)
            block = base if t0 == 0 else self._times(g_t0, base, width, planes)
            # pack the digits low first: exp = sum of digit_i * p^i
            seg = exp[t0:t0 + width]
            seg[:] = block[k - 1, :width]
            for i in range(k - 2, -1, -1):
                seg *= p
                seg += block[i, :width]
            g_t0 = _poly_mul_mod(g_t0, g_block, self.modulus, p)
        # LOG block by block from EXP: the blocks together write every slot
        # but LOG[0], and no temporary grows with q.  A scatter inside the
        # loop above, while each block is hot, built 7^8 more slowly.
        for t0 in range(0, q - 1, B):
            log[exp[t0:t0 + B]] = np.arange(t0, min(t0 + B, q - 1), dtype=np.int32)
        self.EXP = exp
        self.LOG = log
        assert log[1] == 0

    def _times(self, elt: list[int], planes: np.ndarray, width: int,
               out: np.ndarray) -> np.ndarray:
        """Digit planes of elt times the first width columns of planes,
        written into out: digit i is sum_j M[i][j] * planes[j] mod p, with
        M the matrix of multiplication by elt."""
        p, k = self.p, self.k
        cols = [_poly_mul_mod([int(i == j) for i in range(k)], elt,
                              self.modulus, p) for j in range(k)]
        for i in range(k):
            acc = out[i, :width]
            acc[:] = 0
            for j in range(k):
                if cols[j][i]:
                    acc += cols[j][i] * planes[j, :width]
            # numpy divides by a scalar fast, and takes a remainder slowly
            acc -= acc // p * p
        return out

    def from_int(self, c: int) -> int:
        return c % self.p

    def add(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        mul = 1
        for _ in range(self.k):
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        out = 0
        mul = 1
        for _ in range(self.k):
            out += ((-a) % p) * mul
            a //= p
            mul *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.EXP[(int(self.LOG[a]) + int(self.LOG[b])) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            return 0
        return int(self.EXP[(int(self.LOG[a]) * (e % (self.q - 1))) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return int(self.EXP[(self.q - 1 - int(self.LOG[a])) % (self.q - 1)])

    def chi2(self, a: int) -> int:
        if a == 0:
            return 0
        if self.p == 2:
            return 1
        return 1 if int(self.LOG[a]) % 2 == 0 else -1

    def sqrt(self, a: int) -> int | None:
        if a == 0:
            return 0
        lg = int(self.LOG[a])
        if self.p == 2:
            # squaring is a bijection in characteristic 2
            return int(self.EXP[(lg * (self.q // 2)) % (self.q - 1)])
        if lg % 2:
            return None
        return int(self.EXP[lg // 2])

    # vector interface
    def add_v(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p = self.p
        out = np.zeros_like(a)
        mul = 1
        aa, bb = a, b
        for _ in range(self.k):
            out += ((aa + bb) % p) * mul
            aa = aa // p
            bb = bb // p
            mul *= p
        return out

    def addc_v(self, a: np.ndarray, c: int) -> np.ndarray:
        """Add the field element c to every entry of a."""
        p = self.p
        if c >= p:
            return self.add_v(a, np.full_like(a, c))
        low = a - a // p * p
        low_c = low + c
        return a - low + (low_c - low_c // p * p)

    def mul_v(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros_like(a)
        mask = (a != 0) & (b != 0)
        if mask.any():
            la = self.LOG[a[mask]].astype(np.int64)
            lb = self.LOG[b[mask]].astype(np.int64)
            out[mask] = self.EXP[(la + lb) % (self.q - 1)]
        return out

    def scale_v(self, a: np.ndarray, c: int) -> np.ndarray:
        return self.mulc_v(a, c % self.p)

    def mulc_v(self, a: np.ndarray, c: int) -> np.ndarray:
        """Multiply a vector by an arbitrary field element."""
        if c == 0:
            return np.zeros_like(a)
        if c == 1:
            return a.copy()
        out = np.zeros_like(a)
        mask = a != 0
        lc = int(self.LOG[c])
        out[mask] = self.EXP[(self.LOG[a[mask]].astype(np.int64) + lc) % (self.q - 1)]
        return out

    def pow_v(self, a: np.ndarray, e: int) -> np.ndarray:
        if e == 0:
            return np.ones_like(a)
        n = self.q - 1
        # a zero reads LOG[0] = -1, reduced into range here and zeroed below
        la = self.LOG[a].astype(np.int64)
        la *= e % n
        la -= la // n * n
        out = self.EXP[la].astype(a.dtype)
        out *= a != 0
        return out

    def chi2_v(self, a: np.ndarray) -> np.ndarray:
        nonzero = a != 0
        if self.p == 2:
            return nonzero.astype(np.int64)
        out = (self.LOG[a] & 1).astype(np.int64)
        out *= -2
        out += 1
        out *= nonzero
        return out

    def all_elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def __repr__(self) -> str:
        return f"ExtField({self.p}^{self.k})"


_FIELD_CACHE: dict[int, object] = {}
# callers may run count_points from several threads, and the eviction below
# iterates the cache
_FIELD_LOCK = threading.Lock()


def make_field(q: int):
    """Field with q elements; q must be a prime power."""
    with _FIELD_LOCK:
        field = _FIELD_CACHE.get(q)
        if field is not None:
            return field
        fac = factorize(q)
        if len(fac) != 1:
            raise ValueError(f"{q} is not a prime power")
        (p, k), = fac.items()
        if q > 100_000:
            # large table fields are heavy; keep at most one around, and
            # evict the old one before building, so that the two tables
            # never coexist
            for key in [key for key in _FIELD_CACHE if key > 100_000]:
                del _FIELD_CACHE[key]
        field = PrimeField(p) if k == 1 else ExtField(p, k)
        _FIELD_CACHE[q] = field
        return field
