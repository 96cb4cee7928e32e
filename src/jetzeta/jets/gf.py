"""Prime and prime-power finite fields with table-backed vector arithmetic.

Elements are plain ints: residues for a prime field, base-p digit packings
of F_p[x]/(modulus) for an extension field.  Extension multiplication runs
through discrete EXP/LOG tables built once per field, so bulk operations
vectorize with numpy.

The modulus is the smallest irreducible monic polynomial in packed order;
Horner's rule at 0..p-1 rejects the candidates with a root, most of them,
before the full test powers x.  The generator g is the smallest packed
element of order q - 1.  For a prime l of p - 1, g^((q - 1)/l) is the
integer pow norm^((p - 1)/l), with the norm g^N, N = (q - 1) / (p - 1), the
determinant of multiplication by g; only the other primes of q - 1 power g.
Multiplication matrices are built by shifts, each column x times the last.

EXP lists g^0, g^1, ... for the generator g.  With N = (q - 1) / (p - 1),
c = g^N is a constant polynomial that generates F_p^*, so EXP[t + iN] =
c^i * EXP[t]: only EXP[:N] is multiplied out, and the other p - 2 cosets of
F_p^* are F_p-scalar multiples of it (for p = 2, N = q - 1).

EXP[:N] is built in blocks of digit planes (one small-int array per base-p
digit).  A base block of _BASE_BLOCK columns is filled by doubling: columns
s..2s-1 are columns 0..s-1 times g^s.  The block at t0 is the base block
times g^t0, that is k^2 scalar-times-plane multiply-adds with the matrix of
multiplication by g^t0, one output digit at a time, each reduced mod p and
packed straight into the int32 EXP.  The planes are int16 when no sum of k
products of digits can reach 2^15, else int64.  A float64 matmul would take
fewer numpy calls, but BLAS runs it on a second thread: in a trial that
raised CPU time and peak memory of the extension-field benchmark, while the
integer planes stay on one thread.

A scalar acts on a packed element digit by digit, with no carries, so each
scaled coset is two gathers per element from a table of p^ceil(k/2)
entries (ExtField._scale_rows).

LOG (LOG[EXP[t]] = t, LOG[0] = -1, int32) and CHI (the quadratic character,
int8) are built on first read, scattered from EXP block by block.  A field
of q elements holds 4q bytes of EXP from construction, 4q more once LOG is
read and q more once CHI is, and each build holds O(_BASE_BLOCK +
p^ceil(k/2)) bytes of temporaries.  mul, pow and inv take residue
arithmetic on the prime subfield, the elements below p, and chi2 and
chi2_v read CHI, so counts whose scalars lie in F_p never build LOG.  The
three tables are read-only, so a stray write raises.

addc_v adds one field element to a vector without broadcasting it first.
The prime subfield of an extension field is its elements below p, the
constant polynomials, so adding one of them touches only digit 0 of each
element; other constants fall back to add_v.  The low digit is taken as
a - a // p * p: numpy divides by a scalar fast and takes a remainder slowly.

ExtField.pow_v is mask-free: one LOG gather over the whole vector, zeros
included (LOG[0] = -1, which it reduces to an exponent in range like any
other), then the entries where a == 0 are multiplied to zero, with no
boolean gather and scatter.
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
            # the nonzero squares: x^2 for x = 1..(p + 1) // 2
            x = np.arange(1, (self.p + 1) // 2 + 1, dtype=np.int64)
            chi = np.full(self.p, -1, dtype=np.int64)
            chi[x * x % self.p] = 1
            chi[0] = 0
            chi.flags.writeable = False
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


def _has_root(poly: list[int], p: int) -> bool:
    """Whether poly (coefficients low first) vanishes somewhere on F_p."""
    for x in range(p):
        v = 0
        for c in reversed(poly):
            v = v * x + c
        if v % p == 0:
            return True
    return False


def _det_mod(cols: list[list[int]], p: int) -> int:
    """Determinant mod p of the columns cols, by elimination with row swaps."""
    m, det = [list(col) for col in cols], 1
    for i in range(len(m)):
        j = next((j for j in range(i, len(m)) if m[j][i]), None)
        if j is None:
            return 0
        m[i], m[j] = m[j], m[i]
        det = det * (m[i][i] if j == i else -m[i][i]) % p
        inv = pow(m[i][i], -1, p)
        for row in m[i + 1:]:
            f = row[i] * inv % p
            row[:] = [(a - f * b) % p for a, b in zip(row, m[i])]
    return det


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


class _BuiltOnFirstRead:
    """A table that the decorated method builds when it is first read.

    The build runs under _FIELD_LOCK, so threads that read a fresh table at
    once share one array.  The table is stored on the instance, where later
    reads find it before this descriptor."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, field, owner=None):
        if field is None:
            return self
        with _FIELD_LOCK:
            table = field.__dict__.get(self.name)
            if table is None:
                table = field.__dict__[self.name] = self.build(field)
        return table


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
            if not _has_root(cand, p) and _is_irreducible(cand, p, k):
                return cand
        raise AssertionError("no irreducible modulus found")

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        # generator: smallest packed element of full multiplicative order;
        # the constants below p have orders dividing p - 1 < q - 1
        fac = list(factorize(q - 1))
        one = [1] + [0] * (k - 1)
        for packed in range(p, q):
            gen_digits = _digits(packed, p, k)
            norm = _det_mod(self._matrix(gen_digits), p) if p > 2 else 1
            if all(pow(norm, (p - 1) // ell, p) != 1 if (p - 1) % ell == 0
                   else _poly_pow(gen_digits, (q - 1) // ell,
                                  self.modulus, p) != one for ell in fac):
                break
        else:
            raise AssertionError("no generator found")
        self.generator = packed

        # g^N = norm generates F_p^*: EXP, as p - 1 rows of N, is row 0 times
        # 1, norm, norm^2, ..., and g^(N - 1) * g = norm checks row 0
        n = (q - 1) // (p - 1)
        exp = np.empty(q - 1, dtype=np.int32)
        self._powers(gen_digits, exp[:n])
        assert _poly_mul_mod(_digits(int(exp[n - 1]), p, k), gen_digits,
                             self.modulus, p) == [norm] + one[1:], "g^N"
        self._scale_rows(norm, exp.reshape(p - 1, n))
        exp.flags.writeable = False
        self.EXP = exp

    def _powers(self, gen: list[int], out: np.ndarray) -> None:
        """out[t] = gen^t, packed, block by block as the module docstring
        describes."""
        p, k, n = self.p, self.k, len(out)
        dtype = np.int16 if k * (p - 1) ** 2 < 1 << 15 else np.int64
        B = min(_BASE_BLOCK, n)
        base = np.zeros((k, B), dtype=dtype)
        base[0, 0] = 1
        acc, tmp = np.empty(B, dtype=dtype), np.empty(B, dtype=dtype)
        step, g_step = 1, gen
        while step < B:
            width = min(step, B - step)
            cols = self._matrix(g_step)
            for i in range(k):
                self._digit(cols, i, base, width, base[i, step:step + width], tmp)
            step *= 2
            g_step = _poly_mul_mod(g_step, g_step, self.modulus, p)
        # g^B, one step past the base block's last column
        g_block = _poly_mul_mod([int(d) for d in base[:, B - 1]], gen,
                                self.modulus, p)
        g_t0 = [1] + [0] * (k - 1)
        for t0 in range(0, n, B):
            width = min(B, n - t0)
            cols = self._matrix(g_t0)
            # pack the digits high first: seg = sum of digit_i * p^i
            seg = out[t0:t0 + width]
            for i in range(k - 1, -1, -1):
                digit = (base[i, :width] if t0 == 0
                         else self._digit(cols, i, base, width, acc, tmp))
                if i == k - 1:
                    seg[:] = digit
                else:
                    seg *= p
                    seg += digit
            g_t0 = _poly_mul_mod(g_t0, g_block, self.modulus, p)

    def _matrix(self, elt: list[int]) -> list[list[int]]:
        """The columns x^j * elt of multiplication by elt, built by shifts."""
        cols = [list(elt)]
        for _ in range(self.k - 1):
            top = cols[-1][-1]
            cols.append([(a - top * m) % self.p for a, m in
                         zip([0] + cols[-1][:-1], self.modulus)])
        return cols

    def _digit(self, cols: list[list[int]], i: int, planes: np.ndarray,
               width: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Digit i of the product of the first width columns of planes by
        the matrix cols: sum_j cols[j][i] * planes[j] mod p, into out."""
        acc, t = out[:width], tmp[:width]
        acc[:] = 0
        for j, col in enumerate(cols):
            if col[i] == 1:
                acc += planes[j, :width]
            elif col[i]:
                np.multiply(planes[j, :width], col[i], out=t)
                acc += t
        # numpy divides by a scalar fast, and takes a remainder slowly
        np.floor_divide(acc, self.p, out=t)
        t *= self.p
        acc -= t
        return acc

    def _scale_rows(self, c: int, rows: np.ndarray) -> None:
        """rows[i] = c^i * rows[0] for i >= 1, with c in F_p^*.

        Scaling acts digit by digit, with no carries, so with v = hi * P +
        lo, P = p^h and h = ceil(k / 2), c^i v = S_i[hi] * P + S_i[lo] for
        the P-entry table S_i of c^i on h-digit numbers.  S_1 is built on
        the digits, and S_(i+r) = S_r[S_i] by one gather.  Rows are filled
        r at a time, with r * N <= _BASE_BLOCK when a row of N is short,
        in column chunks of _BASE_BLOCK when it is long, so the tables and
        temporaries are O(_BASE_BLOCK + P)."""
        p, k = self.p, self.k
        m, n = rows.shape
        if m == 1:
            return
        h = (k + 1) // 2
        P = p ** h
        x = np.arange(P, dtype=np.int32)
        s_c = np.zeros(P, dtype=np.int32)
        for d in range(h):
            s_c += x // p ** d % p * c % p * p ** d
        r = min(m - 1, max(1, _BASE_BLOCK // n))
        first = np.empty((r, P), dtype=np.int32)
        first[0] = s_c
        for j in range(1, r):
            np.take(s_c, first[j - 1], out=first[j])
        w = min(n, _BASE_BLOCK)
        buf = np.empty(r * w, dtype=np.int32)
        n_hi = p ** (k - h)
        for t0 in range(0, n, w):
            width = min(w, n - t0)
            hi = (rows[0, t0:t0 + width] // P).astype(np.intp)
            lo = rows[0, t0:t0 + width] - hi * P
            tables = first
            for i0 in range(1, m, r):
                rr = min(r, m - i0)
                block = rows[i0:i0 + rr, t0:t0 + width]
                low = buf[:rr * width].reshape(rr, width)
                # mode "clip" gathers straight into out; "raise" buffers it
                np.take(tables[:rr, :n_hi] * P, hi, axis=1, out=block,
                        mode="clip")
                np.take(tables[:rr], lo, axis=1, out=low, mode="clip")
                block += low
                if i0 + r < m:
                    tables = np.take(first[-1], tables)

    @_BuiltOnFirstRead
    def LOG(self) -> np.ndarray:
        """LOG[EXP[t]] = t and LOG[0] = -1, scattered from EXP block by
        block, so that no temporary grows with q."""
        q, exp, B = self.q, self.EXP, _BASE_BLOCK
        log = np.empty(q, dtype=np.int32)
        log[0] = -1
        for t0 in range(0, q - 1, B):
            np.put(log, exp[t0:t0 + B],
                   np.arange(t0, min(t0 + B, q - 1), dtype=np.int32))
        log.flags.writeable = False
        return log

    @_BuiltOnFirstRead
    def CHI(self) -> np.ndarray:
        """The quadratic character as int8: 0 at 0, +1 on the even powers
        EXP[::2] and -1 on the odd ones, or +1 on every unit when p = 2."""
        q, exp, B = self.q, self.EXP, 2 * _BASE_BLOCK
        chi = np.full(q, 1 if self.p == 2 else -1, dtype=np.int8)
        chi[0] = 0
        if self.p > 2:
            for t0 in range(0, q - 1, B):
                np.put(chi, exp[t0:t0 + B:2], 1)
        chi.flags.writeable = False
        return chi

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
        if a < self.p and b < self.p:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return int(self.EXP[(int(self.LOG[a]) + int(self.LOG[b])) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            return 0
        if a < self.p:
            return pow(a, e % (self.p - 1), self.p)
        return int(self.EXP[(int(self.LOG[a]) * (e % (self.q - 1))) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        if a < self.p:
            return pow(a, self.p - 2, self.p)
        return int(self.EXP[(self.q - 1 - int(self.LOG[a])) % (self.q - 1)])

    def chi2(self, a: int) -> int:
        return int(self.CHI[a])

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
        return self.CHI[a].astype(np.int64)

    def all_elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def __repr__(self) -> str:
        return f"ExtField({self.p}^{self.k})"


_FIELD_CACHE: dict[int, object] = {}
# callers may run count_points from several threads: the lock guards the
# cache, whose eviction below iterates it, and the tables that a field
# builds on first read
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
