"""Counting polynomials in L recovered from finite-field point counts.

Three routes, tried in order of directness:

* direct interpolation over the smallest good primes (n_jet_vars + 3 of
  them unless a prime budget says otherwise), for counts that are one
  polynomial in q;
* residue stratification: counts that are polynomial on each class of
  q modulo D (D = lcm of 24 and the exponents of f) get a per-class fit,
  and the q = 1 (mod D) class, where all the relevant roots of unity are
  rational, carries the class;
* trace recurrence: counts over an extension tower p, p^2, ... satisfy a
  linear recurrence whose generating function evaluates the Euler number
  at infinity; this route yields the Euler number only, no class.

Each fit verifies on held-out primes and failures are never coerced.
When every route fails, the last one, the trace route, sets the kind of
failure: a count out of node budget is a ResourceLimitError, any other
failure a ClassNotPolynomialError.

The interp tables of a range of orders are counted together (JetOrders),
field by field: q ascending, and within one q every order whose prime pool
holds q, m ascending.  The level systems of successive orders share most
of their subsystems, so all the counts over one field share one
count_points memo, dropped before the next field; each count keeps its own
node budget.  An error raised while building or counting one order stays
that order's error, and the other orders count on.  class_of_jets
classifies one order at a time, from such a range or from its own order
alone, and the count command prints the interp table of its one order;
collect_counts is the one-system case of the same loop.  The
residue and trace routes count their own pools, one order at a time.

A fit builds one exact Newton divided-difference table over the counts.
The interpolant through the first d + 1 counts fits them all exactly when
every divided difference past index d vanishes, so the least degree is
the index of the last nonzero one; the fit then expands that prefix into
coefficients in L, demands integers and checks every count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from ..algebra.dagger import DaggerSeries, SeriesPrefix, ds_fit, ds_limit
from ..algebra.laurent import LaurentPoly
from ..errors import ClassNotPolynomialError, ResourceLimitError
from .count import count_points
from .gf import factorize, is_prime
from .poly import MultiPoly
from .system import JetConstraintSystem, build_jet_system

_PRIME_SEARCH_CAP = 200_000
_TRACE_ORDER_CAP = 4


@dataclass(frozen=True)
class CountTable:
    """Exact solution counts indexed by field size."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        qs = [q for q, _ in self.entries]
        if len(set(qs)) != len(qs):
            raise ValueError("duplicate field size in count table")
        if any(c < 0 for _, c in self.entries):
            raise ValueError("negative count")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> list[list[int]]:
        return [[q, c] for q, c in self.entries]


@dataclass(frozen=True)
class ClassPoly:
    """Counting polynomial P with P(q) = #points over F_q, housed in L."""

    poly: LaurentPoly
    degree_bound: int

    def __post_init__(self):
        for e, _ in self.poly.items():
            if not 0 <= e <= self.degree_bound:
                raise ValueError(
                    f"class exponent {e} outside [0, {self.degree_bound}]")

    def evaluate(self, q: int) -> int:
        v = self.poly.eval_at(q)
        return int(v)

    def at_one(self) -> int:
        return self.poly.eval_at_one()

    def __str__(self) -> str:
        return str(self.poly)


@dataclass(frozen=True)
class JetClass:
    """Outcome of classifying one jet order."""

    m: int
    chi: int
    cls: ClassPoly | None
    route: str
    table: CountTable


def good_primes(f: MultiPoly, sys: JetConstraintSystem | None, count: int,
                *, residue: int | None = None,
                modulus: int | None = None) -> list[int]:
    """Smallest primes safe for counting this germ, ascending.

    Excluded: primes not exceeding the largest exponent of f, primes
    dividing a coefficient (or a coefficient denominator), and primes
    dividing a denominator cleared by the base-point translation.
    """
    banned: set[int] = set(sys.bad_primes()) if sys is not None else set()
    for _, v in f.items():
        fr = Fraction(v)
        for part in (abs(fr.numerator), fr.denominator):
            if part > 1:
                banned |= set(factorize(part))
    min_exp = f.max_exponent()
    out: list[int] = []
    p = 2
    while len(out) < count:
        if p > _PRIME_SEARCH_CAP:
            raise ResourceLimitError("prime pool search cap exceeded")
        if is_prime(p) and p > min_exp and p not in banned and \
                (modulus is None or p % modulus == residue):
            out.append(p)
        p += 1
    return out


def _count_by_field(jobs: Sequence[tuple[JetConstraintSystem, Sequence[int]]],
                    node_budget: int) -> list[CountTable | Exception]:
    """Count every system of jobs over every field of its pool.

    The fields go in ascending order, and within one field the systems in
    the order of jobs.  All the counts over one field share one count_points
    memo, dropped before the next field; each count keeps its own budget.
    A system whose count raises keeps that error in place of its table and
    is skipped over the later fields.
    """
    counts: list[dict[int, int]] = [{} for _ in jobs]
    errors: list[Exception | None] = [None] * len(jobs)
    for q in sorted({q for _, qs in jobs for q in qs}):
        memo: dict = {}
        for i, (sys, qs) in enumerate(jobs):
            if errors[i] is None and q in qs:
                try:
                    counts[i][q] = count_points(sys, q, node_budget, memo)
                except Exception as exc:
                    errors[i] = exc
        # a kept error's traceback still reaches the memo through its frames
        memo.clear()
    return [err if err is not None
            else CountTable(tuple((q, got[q]) for q in qs))
            for err, got, (_, qs) in zip(errors, counts, jobs)]


def collect_counts(sys: JetConstraintSystem, qs: Sequence[int],
                   node_budget: int = 1_000_000_000) -> CountTable:
    """Count table of one system over the fields qs, in the order of qs."""
    (table,) = _count_by_field([(sys, qs)], node_budget)
    if isinstance(table, Exception):
        raise table
    return table


class JetOrders:
    """Systems and interp-route count tables of a range of jet orders.

    The first call of interp builds every order's level system and prime
    pool and counts all the tables field by field (see _count_by_field), so
    the work runs inside the first class_of_jets call, as it did when each
    order counted its own table.  An error raised while building or counting
    an order is kept, and interp re-raises it for that order alone.
    """

    def __init__(self, f: MultiPoly, x: Sequence, ms: Sequence[int],
                 prime_budget: int | None = None, *,
                 node_budget: int = 1_000_000_000):
        self._f = f
        self._x = x
        self._ms = tuple(ms)
        self._prime_budget = prime_budget
        self._node_budget = node_budget
        self._done: dict[int, tuple[JetConstraintSystem, CountTable]
                         | Exception] | None = None

    def _pool(self, m: int) -> tuple[JetConstraintSystem, list[int]]:
        sys = build_jet_system(self._f, self._x, m)
        budget = (self._prime_budget if self._prime_budget is not None
                  else sys.n_jet_vars + 3)
        return sys, good_primes(self._f, sys, budget)

    def _count(self) -> dict:
        done: dict = {}
        jobs: dict[int, tuple[JetConstraintSystem, list[int]]] = {}
        for m in self._ms:
            try:
                jobs[m] = self._pool(m)
            except Exception as exc:
                done[m] = exc
        tables = _count_by_field(list(jobs.values()), self._node_budget)
        for (m, (sys, _)), table in zip(jobs.items(), tables):
            done[m] = table if isinstance(table, Exception) else (sys, table)
        return done

    def interp(self, m: int) -> tuple[JetConstraintSystem, CountTable]:
        """Order m's level system and its count table over its prime pool."""
        if self._done is None:
            self._done = self._count()
        got = self._done[m]
        if isinstance(got, Exception):
            raise got
        return got


def _divided_differences(points: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Newton coefficients f[x0], f[x0, x1], ... of the points, exactly."""
    xs = [x for x, _ in points]
    col = [Fraction(y) for _, y in points]
    out = col[:1]
    for k in range(1, len(points)):
        col = [(col[i + 1] - col[i]) / (xs[i + k] - xs[i])
               for i in range(len(col) - 1)]
        out.append(col[0])
    return out


def _class_from_newton(newton: Sequence[Fraction], table: CountTable,
                       degree_bound: int) -> ClassPoly:
    """Expand the Newton form on the table's leading field sizes, demand
    integer coefficients, verify on every entry of the table."""
    coeffs: list[Fraction] = []
    for a, x in zip(reversed(newton), reversed(table.primes[:len(newton)])):
        # coeffs <- coeffs * (L - x) + a
        coeffs = [Fraction(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= x * coeffs[k + 1]
        coeffs[0] += a
    if any(c.denominator != 1 for c in coeffs):
        raise ClassNotPolynomialError(
            "interpolated coefficients are not integers", table=table)
    poly = LaurentPoly({k: int(c) for k, c in enumerate(coeffs) if c})
    for q, n in table.entries:
        if poly.eval_at(q) != n:
            raise ClassNotPolynomialError(
                f"interpolation fails verification at q={q}", table=table)
    return ClassPoly(poly, degree_bound)


def interpolate_class(table: CountTable, degree_bound: int) -> ClassPoly:
    """Degree-bound fit through the leading points of the table.

    Uses the first degree_bound+1 entries and verifies against the rest;
    at least two verification entries are required.
    """
    if len(table) < degree_bound + 3:
        raise ValueError(
            f"need at least {degree_bound + 3} counts for bound "
            f"{degree_bound}, got {len(table)}")
    return _class_from_newton(
        _divided_differences(table.entries[:degree_bound + 1]), table,
        degree_bound)


def _fit_minimal(table: CountTable, degree_bound: int) -> ClassPoly:
    """Least-degree polynomial through the table with >= 2 spare points.

    The interpolant through the first d + 1 entries fits the whole table
    exactly when every divided difference past index d vanishes, so one
    table gives the least degree; past the allowed degree, the largest
    allowed prefix fails the checks with the error a fit of that degree
    gives.
    """
    top = min(degree_bound, len(table) - 3)
    if top < 0:
        raise ClassNotPolynomialError(
            "too few counts for any verified fit", table=table)
    newton = _divided_differences(table.entries)
    degree = max((k for k, a in enumerate(newton) if a), default=0)
    return _class_from_newton(newton[:min(degree, top) + 1], table,
                              degree_bound)


def _residue_modulus(f: MultiPoly) -> int:
    exps = {k for e, _ in f.items() for k in e if k}
    return lcm(24, *exps) if exps else 24


def _residue_route(f: MultiPoly, sys: JetConstraintSystem, m: int,
                   bound: int, node_budget: int) -> JetClass:
    D = _residue_modulus(f)
    per_class = bound + 3
    split_table: CountTable | None = None
    split_cls: ClassPoly | None = None
    for sigma in range(1, D):
        if gcd(sigma, D) != 1:
            continue
        pool = good_primes(f, sys, per_class, residue=sigma, modulus=D)
        table = collect_counts(sys, pool, node_budget)
        cls = _fit_minimal(table, bound)
        if sigma == 1:
            split_table, split_cls = table, cls
    assert split_cls is not None and split_table is not None
    return JetClass(m, split_cls.at_one(), split_cls, "residue", split_table)


def _berlekamp_massey(seq: Sequence[int]) -> list[Fraction]:
    """Connection coefficients c with s_n = sum c_i s_(n-i), minimal order."""
    C = [Fraction(1)]
    B = [Fraction(1)]
    L = 0
    shift = 1
    b = Fraction(1)
    for n, s in enumerate(seq):
        d = Fraction(s)
        for i in range(1, L + 1):
            d += C[i] * seq[n - i]
        if d == 0:
            shift += 1
            continue
        coef = d / b
        T = list(C)
        need = len(B) + shift
        if need > len(C):
            C = C + [Fraction(0)] * (need - len(C))
        for i, bv in enumerate(B):
            C[i + shift] -= coef * bv
        if 2 * L <= n:
            L = n + 1 - L
            B = T
            b = d
            shift = 1
        else:
            shift += 1
    return [-c for c in C[1:L + 1]]


def _chi_from_recurrence(seq: Sequence[int], rec: Sequence[Fraction],
                         table: CountTable) -> int:
    """Euler number as minus the t = infinity value of sum N_k t^k."""
    r = len(rec)
    if r == 0:
        if any(seq):
            raise ClassNotPolynomialError(
                "empty recurrence for a nonzero count sequence", table=table)
        return 0
    A = []
    for k in range(1, r + 1):
        a = Fraction(seq[k - 1])
        for i in range(1, k):
            a -= rec[i - 1] * seq[k - 1 - i]
        A.append(a)
    if all(a == 0 for a in A):
        return 0
    deg_a = max(k for k, a in enumerate(A, start=1) if a != 0)
    if deg_a < r:
        return 0
    chi = A[r - 1] / rec[r - 1]
    if chi.denominator != 1:
        raise ClassNotPolynomialError(
            f"trace route produced non-integer Euler number {chi}",
            table=table)
    return int(chi)


def _trace_route(f: MultiPoly, sys: JetConstraintSystem, m: int,
                 node_budget: int) -> JetClass:
    bases = good_primes(f, sys, 2)
    results: list[int] = []
    first_table: CountTable | None = None
    for p in bases:
        seq: list[int] = []
        K = 4
        while True:
            while len(seq) < K:
                q = p ** (len(seq) + 1)
                seq.append(count_points(sys, q, node_budget))
            rec = _berlekamp_massey(seq)
            r = len(rec)
            table = CountTable(tuple((p ** (k + 1), n)
                                     for k, n in enumerate(seq)))
            if r > _TRACE_ORDER_CAP:
                raise ClassNotPolynomialError(
                    f"trace recurrence order {r} exceeds the cap",
                    table=table)
            if K >= 2 * r + 2:
                break
            K = 2 * r + 2
        if first_table is None:
            first_table = table
        results.append(_chi_from_recurrence(seq, rec, table))
    if len(set(results)) != 1:
        raise ClassNotPolynomialError(
            f"trace route disagrees between towers: {results}",
            table=first_table)
    return JetClass(m, results[0], None, "trace", first_table)


def class_of_jets(f: MultiPoly, x: Sequence, m: int,
                  prime_budget: int | None = None, *,
                  node_budget: int = 1_000_000_000,
                  orders: JetOrders | None = None) -> JetClass:
    """Classify one jet order, falling through the three routes.

    orders, when given, must hold m and come from the same f, x and
    budgets; it supplies m's system and interp table, counted together with
    its other orders.  Without it m is counted alone.
    """
    if orders is None:
        orders = JetOrders(f, x, (m,), prime_budget, node_budget=node_budget)
    sys, table = orders.interp(m)
    bound = sys.n_jet_vars
    if len(table) >= 3:
        try:
            cls = _fit_minimal(table, bound)
            return JetClass(m, cls.at_one(), cls, "interp", table)
        except ClassNotPolynomialError:
            pass
    try:
        return _residue_route(f, sys, m, bound, node_budget)
    except (ClassNotPolynomialError, ResourceLimitError):
        pass
    try:
        return _trace_route(f, sys, m, node_budget)
    except ClassNotPolynomialError as e:
        raise ClassNotPolynomialError(
            f"all classification routes failed for m={m}: {e}",
            table=table) from e
    except ResourceLimitError as e:
        # the last route ran out of budget: a resource failure, not a class
        raise ResourceLimitError(
            f"all classification routes failed for m={m}: {e}") from e


def lefschetz_via_jets(f: MultiPoly, x: Sequence, m: int,
                       prime_budget: int | None = None, *,
                       node_budget: int = 1_000_000_000) -> int:
    """Euler number of the order-m jet locus, equal to the Lefschetz
    number of the m-th monodromy power."""
    return class_of_jets(f, x, m, prime_budget, node_budget=node_budget).chi


def zeta_via_jets(f: MultiPoly, x: Sequence, d: int, M: int,
                  prime_budget: int | None = None, *,
                  node_budget: int = 1_000_000_000) -> SeriesPrefix:
    """Prefix [0, c_1, ..., c_M] of the motivic zeta series, c_m the class
    of the order-m jet locus normalized by L^(-m*d)."""
    terms: SeriesPrefix = [LaurentPoly.zero()]
    orders = JetOrders(f, x, range(1, M + 1), prime_budget,
                       node_budget=node_budget)
    for m in range(1, M + 1):
        try:
            jc = class_of_jets(f, x, m, prime_budget,
                               node_budget=node_budget, orders=orders)
        except ClassNotPolynomialError as e:
            raise ClassNotPolynomialError(
                f"zeta term m={m}: {e}", table=e.table) from e
        if jc.cls is None:
            raise ClassNotPolynomialError(
                f"zeta term m={m}: only the Euler number is available "
                "(no polynomial class)", table=jc.table)
        terms.append(jc.cls.poly.shifted(-m * d))
    return terms


def milnor_fiber_limit(prefix: SeriesPrefix, candidates) -> LaurentPoly:
    """Negative of the fitted series value at T = infinity.

    The result is the class of the motivic nearby fiber; its value at
    L = 1 is the Euler number of the local fiber.
    """
    fitted: DaggerSeries = ds_fit(prefix, candidates)
    return -ds_limit(fitted)
