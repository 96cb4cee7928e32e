"""Prime and prime-power finite fields with table-backed vector arithmetic.

Elements are plain ints: residues for a prime field, base-p digit packings
of F_p[x]/(modulus) for an extension field.  Extension multiplication runs
through discrete EXP/LOG tables built once per field, so bulk operations
vectorize with numpy.

addc_v adds one field element to a vector without broadcasting it first.
The prime subfield of an extension field is its elements below p, the
constant polynomials, so adding one of them touches only digit 0 of each
element; other constants fall back to add_v.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import ResourceLimitError

_MAX_TABLE_FIELD = 30_000_000


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
        if e == 0:
            return np.ones_like(a)
        out = np.ones_like(a)
        base = a % self.p
        while e:
            if e & 1:
                out = (out * base) % self.p
            base = (base * base) % self.p
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


def _poly_pow_x(e: int, modulus: list[int], p: int) -> list[int]:
    """x^e mod modulus (degree of modulus must be >= 2)."""
    k = len(modulus) - 1
    result = [1] + [0] * (k - 1)
    base = [0, 1] + [0] * (k - 2)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        base = _poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


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
    xq = _poly_pow_x(p ** k, modulus, p)
    xq[1] = (xq[1] - 1) % p
    if any(xq):
        return False
    for ell in factorize(k):
        d = k // ell
        xd = _poly_pow_x(p ** d, modulus, p)
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
            digits = []
            v = packed
            for _ in range(k):
                digits.append(v % p)
                v //= p
            cand = digits + [1]
            if _is_irreducible(cand, p, k):
                return cand
        raise AssertionError("no irreducible modulus found")

    def _encode(self, digits: list[int]) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        # generator: smallest packed element of full multiplicative order
        fac = list(factorize(q - 1))
        gen_digits = None
        for packed in range(2, q):
            digits = []
            v = packed
            for _ in range(k):
                digits.append(v % p)
                v //= p
            ok = True
            for ell in fac:
                e = (q - 1) // ell
                acc = [1] + [0] * (k - 1)
                base = digits
                ee = e
                while ee:
                    if ee & 1:
                        acc = _poly_mul_mod(acc, base, self.modulus, p)
                    base = _poly_mul_mod(base, base, self.modulus, p)
                    ee >>= 1
                if acc == [1] + [0] * (k - 1):
                    ok = False
                    break
            if ok:
                gen_digits = digits
                break
        assert gen_digits is not None
        self.generator = self._encode(gen_digits)

        # EXP by blocks: a digit block advances by the matrix of mul-by-g^B
        M = np.zeros((k, k), dtype=np.int64)
        for j in range(k):
            col = [0] * k
            col[j] = 1
            col = _poly_mul_mod(col, gen_digits, self.modulus, p)
            M[:, j] = col
        B = min(4096, q - 1)
        block = np.zeros((k, B), dtype=np.int64)
        cur = np.zeros(k, dtype=np.int64)
        cur[0] = 1
        for t in range(B):
            block[:, t] = cur
            cur = (M @ cur) % p
        MB = np.eye(k, dtype=np.int64)
        e = B
        Mp = M.copy()
        while e:
            if e & 1:
                MB = (MB @ Mp) % p
            Mp = (Mp @ Mp) % p
            e >>= 1

        powers = np.array([p ** i for i in range(k)], dtype=np.int64)
        exp = np.empty(q - 1, dtype=np.int32)
        t0 = 0
        while t0 < q - 1:
            width = min(B, q - 1 - t0)
            exp[t0:t0 + width] = (powers @ block[:, :width]).astype(np.int32)
            t0 += width
            if t0 < q - 1:
                block = (MB @ block) % p
        self.EXP = exp
        log = np.full(q, -1, dtype=np.int32)
        log[exp] = np.arange(q - 1, dtype=np.int32)
        self.LOG = log
        assert log[1] == 0

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
        low = a % p
        return a - low + (low + c) % p

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
        out = np.zeros_like(a)
        mask = a != 0
        la = self.LOG[a[mask]].astype(np.int64)
        out[mask] = self.EXP[(la * (e % (self.q - 1))) % (self.q - 1)]
        return out

    def chi2_v(self, a: np.ndarray) -> np.ndarray:
        out = np.zeros(a.shape, dtype=np.int64)
        mask = a != 0
        if self.p == 2:
            out[mask] = 1
            return out
        parity = self.LOG[a[mask]] % 2
        out[mask] = 1 - 2 * parity.astype(np.int64)
        return out

    def all_elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def __repr__(self) -> str:
        return f"ExtField({self.p}^{self.k})"


_FIELD_CACHE: dict[int, object] = {}
# count_points runs in worker threads; the eviction below iterates the cache
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
        field = PrimeField(p) if k == 1 else ExtField(p, k)
        if q > 100_000:
            # large table fields are heavy; keep at most one around
            for key in [key for key in _FIELD_CACHE if key > 100_000]:
                del _FIELD_CACHE[key]
        _FIELD_CACHE[q] = field
        return field
