"""Exact solution counts for jet constraint systems over finite fields.

count_points reduces the level system symbolically: forced values and
linear eliminations propagate exactly, branches that split on whether a
coefficient vanishes recombine by inclusion-exclusion, and the final one-
or two-variable residue is counted with vectorized field arithmetic.
Variables no solved equation touches contribute plain powers of q.

The rules are tried in order: univariate roots, a linear variable with a
constant coefficient, a quadratic variable with a square discriminant,
the block-linear rule, a linear variable with a polynomial coefficient,
then the two-variable rules and the grids below.  The block-linear rule
takes, greedily in sorted order, the variables V of one equation e that
no other equation has, that e is linear in and that share no monomial
with another member.  Then e = sum c_v*v + r with no c_v or r involving
V; where some c_v is nonzero e has q^(|V|-1) solutions in V, and where
all vanish q^|V| or none, as r vanishes or not.  So the count is
q^(|V|-1)*(N(rest) - N(rest, all c_v = 0)) + q^|V|*N(rest, all c_v = 0,
r = 0), three subsystems without V instead of one split per variable.

Two rules count two-variable residues along lines through the origin in
O(q) field operations:

* a binary form (one total degree, exactly two variables) vanishes on
  finitely many such lines, so the system splits into one subsystem per
  line, less the origin each pair of lines shares;
* a lone equation in two variables with at most two total degrees is swept
  over the q + 1 directions, each giving a closed-form count.

Only systems that neither these nor the earlier reductions fit reach the
O(q^k) grid fallbacks, which give up once q^k exceeds GRID_CAP.
naive_count enumerates the full grid and is the reference oracle.

The grid rules and _uni_roots scan field points through one chunked
enumerator: _grid_zeros walks the grid F_q^k in index ranges of _CHUNK
points and yields the zeros of the given equations in each range.
_enumerate sums a per-point weight over them: 1 for the grid fallback and
naive_count, or the number of roots of an equation quadratic in a variable
no other equation has (the private grid).  A lone equation in two
variables, quadratic in one, is the private grid's case of one grid
variable and no other equation, tried just before the binary-form split.
_uni_roots reads its roots off the same loop.  So these rules hold at most
_CHUNK points at a time at any field size; the line sweep still evaluates
its q + 1 directions at once.

_enumerate has one power-map rule.  When the grid is one variable w, the
field keeps discrete-log tables (ExtField), and d, the gcd of w's
exponents over the equations and the weight's coefficients, is at least 2,
the weight W depends on w only through w^d.  F_q^* is cyclic, so w -> w^d
maps it g-to-1 onto its subgroup H of index g = gcd(d, q - 1), and

    sum over w in F_q of W(w) = W(0) + g * sum over u in H of W'(u),

with W' the weight with every w^k read as u^(k/d) (FP.deflate).  H is
every g-th entry of the EXP table, which _grid_zeros scans in chunks in
place of F_q: (q - 1)/g points, with lower powers.  The trace route's
v^2 = w^3 + c leaves take it through the private grid over w.  Prime fields
keep the plain scan (they have no EXP table), and so does _uni_roots,
which needs the roots themselves, not a weighted sum.

The recursion asks each polynomial the same questions many times, so FP
keeps per-object caches, each filled on first use: the degree in every
variable (hence vars_used and deg_in) is one column-wise max over the
exponent tuples, tuple(map(max, *monomials)), which runs in C; the
bare-linear variables (whose only monomial is v itself, what the
constant-coefficient linear rule looks for) are read off the monomials of
total degree 1 when first asked for; and coeffs_by_power is memoised per
variable.  A polynomial is never changed after construction,
which keeps these caches valid.  Substituting a constant, the common case
when roots are pinned, works monomial by monomial instead of by Horner's
rule.

The recursion also meets the same subsystem many times, often under other
variable names: the level systems of a quasi-homogeneous f hold copies of
one subsystem with every level raised by one.  So _solve normalises first
(zero equations dropped, 0 returned on a nonzero constant), factors out
q^(|live| - |used|) for the live variables no equation uses, and memoises
the count over exactly the used ones under a key that forgets their names:
the set of equations with every exponent tuple cut down to the sorted used
columns.  A count does not change when variables are renamed, and every
rule walks variables in sorted order, so a copy under an order-preserving
relabelling hits the entry of the first one, which would have taken the
same path through the rules.

The keys hold field elements, so one memo serves one field.  A count
starts from an empty memo unless its caller passes one that earlier counts
over the same field filled: the level systems of successive jet orders
share most of their subsystems, so classify counts every order of a run
field by field and hands all the counts over one field a single memo,
dropped before the next field.  An entry found in the memo costs the node
budget nothing, whichever count made it; the budget caps the work one
count does itself.

Vector evaluation never materialises a constant: evaluate_vec starts from
its first non-constant term and adds the constant term last with addc_v.
The private grid's quadratic root count A v^2 + B v + C keeps a constant
A as a field scalar when B = 0, the trace route's v^2 = g(w) leaves: the
quadratic character factors, chi2(-4A*C) = chi2(-4A)*chi2(C), so C is not
scaled and no vector addition runs.  Every other case broadcasts its
constant coefficients to vectors and counts with the vector operations.
A first power v^1 reads v's coordinates as they are, with no pow_v.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import compress
from math import gcd
from typing import Iterable, Mapping

import numpy as np

from ..errors import ResourceLimitError
from .gf import ExtField, make_field
from .system import JetConstraintSystem

GRID_CAP = 2_000_000
# default work cap of one count_points call, shared by every caller
NODE_BUDGET = 10 ** 9
_CHUNK = 1 << 17


class _Budget:
    __slots__ = ("left", "memo")

    def __init__(self, n: int, memo: dict | None = None):
        self.left = n
        # count over exactly the used variables, keyed on the system up to
        # an order-preserving renaming of them (see _solve); shared by the
        # counts over one field when the caller passes it in, and an entry
        # another count made costs this budget nothing
        self.memo: dict = {} if memo is None else memo

    def spend(self, n: int) -> None:
        self.left -= n
        if self.left < 0:
            raise ResourceLimitError("count budget exhausted")


class FP:
    """Polynomial over a finite field: {exponent tuple: nonzero element}.

    Never changed after construction, so its lazily filled caches (see the
    module docstring) stay valid.
    """

    __slots__ = ("F", "n", "c", "_deg", "_vars", "_bare", "_by")

    def __init__(self, F, n: int, c: dict):
        self.F = F
        self.n = n
        self.c = c
        self._deg: tuple[int, ...] | None = None
        self._vars: frozenset | None = None
        self._bare: tuple[int, ...] | None = None
        self._by: dict[int, dict[int, FP]] | None = None

    @classmethod
    def from_int_poly(cls, F, poly) -> "FP":
        c = {}
        for e, v in poly.items():
            fv = F.from_int(v)
            if fv:
                c[tuple(e)] = fv
        return cls(F, poly.n_vars, c)

    @classmethod
    def const(cls, F, n: int, value: int) -> "FP":
        return cls(F, n, {(0,) * n: value} if value else {})

    def is_zero(self) -> bool:
        return not self.c

    def const_value(self) -> int | None:
        """The field element if the polynomial is constant, else None."""
        if not self.c:
            return 0
        if len(self.c) == 1:
            (e, v), = self.c.items()
            if not any(e):
                return v
        return None

    def _profile(self) -> None:
        """The degree in each variable, as a column-wise max over the
        monomials that runs in C; one monomial is its own degree tuple."""
        c = self.c
        self._deg = tuple(map(max, *c)) if len(c) > 1 else next(iter(c), (0,) * self.n)
        self._vars = frozenset(compress(range(self.n), self._deg))

    def vars_used(self) -> frozenset:
        if self._vars is None:
            self._profile()
        return self._vars

    def deg_in(self, v: int) -> int:
        if self._deg is None:
            self._profile()
        return self._deg[v]

    def bare_linear_vars(self) -> tuple[int, ...]:
        """Sorted variables v whose only monomial is v itself, i.e. those
        the polynomial is linear in with a constant coefficient."""
        if self._bare is None:
            c = self.c
            units = [e.index(1) for e, d in zip(c, map(sum, c)) if d == 1]
            self._bare = tuple(sorted(
                v for v in units if sum(map(bool, map(operator.itemgetter(v), c))) == 1))
        return self._bare

    def coeffs_by_power(self, v: int) -> dict[int, "FP"]:
        """{d: coefficient of v^d}; shared between callers, not to be
        changed."""
        if self._by is None:
            self._by = {}
        by = self._by.get(v)
        if by is None:
            out: dict[int, dict] = {}
            for e, c in self.c.items():
                rest = e[:v] + (0,) + e[v + 1:]
                out.setdefault(e[v], {})[rest] = c
            by = self._by[v] = {d: FP(self.F, self.n, m)
                                for d, m in out.items()}
        return by

    def by_total_degree(self) -> dict[int, "FP"]:
        out: dict[int, dict] = {}
        for e, c in self.c.items():
            out.setdefault(sum(e), {})[e] = c
        return {d: FP(self.F, self.n, m) for d, m in out.items()}

    def single_term(self):
        if len(self.c) == 1:
            (e, v), = self.c.items()
            return e, v
        return None

    def add(self, other: "FP") -> "FP":
        F = self.F
        c = dict(self.c)
        for e, v in other.c.items():
            w = F.add(c.get(e, 0), v)
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        return FP(F, self.n, c)

    def neg(self) -> "FP":
        F = self.F
        return FP(F, self.n, {e: F.neg(v) for e, v in self.c.items()})

    def scale(self, elt: int) -> "FP":
        if elt == 0:
            return FP(self.F, self.n, {})
        if elt == 1:
            return self
        F = self.F
        return FP(F, self.n, {e: F.mul(v, elt) for e, v in self.c.items()})

    def mul(self, other: "FP") -> "FP":
        if not self.c or not other.c:
            return FP(self.F, self.n, {})
        k = other.const_value()
        if k is not None:
            return self.scale(k)
        k = self.const_value()
        if k is not None:
            return other.scale(k)
        F = self.F
        c: dict = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = tuple(map(operator.add, e1, e2))
                w = F.add(c.get(e, 0), F.mul(v1, v2))
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        return FP(F, self.n, c)

    def substitute(self, v: int, rep: "FP") -> "FP":
        """Plug rep in for variable v (Horner on the power grouping)."""
        r = rep.const_value()
        if r is not None:
            return self._substitute_const(v, r)
        by = self.coeffs_by_power(v)
        top = max(by, default=0)
        acc = FP(self.F, self.n, {})
        for d in range(top, -1, -1):
            if d != top:
                acc = acc.mul(rep)
            if d in by:
                acc = acc.add(by[d])
        return acc

    def _substitute_const(self, v: int, r: int) -> "FP":
        """Plug the field element r in for variable v, monomial by monomial."""
        F = self.F
        powers: dict[int, int] = {}
        c: dict = {}
        for e, x in self.c.items():
            k = e[v]
            if k:
                if not r:
                    continue
                rk = powers.get(k)
                if rk is None:
                    rk = powers[k] = F.pow(r, k)
                x = F.mul(x, rk)
                e = e[:v] + (0,) + e[v + 1:]
            if e in c:
                w = F.add(c[e], x)
                if w:
                    c[e] = w
                else:
                    del c[e]
            else:
                c[e] = x
        return FP(F, self.n, c)

    def deflate(self, v: int, d: int) -> "FP":
        """The polynomial with each v^k read as v^(k/d); d must divide every
        exponent of v."""
        return FP(self.F, self.n, {e[:v] + (e[v] // d,) + e[v + 1:]: x
                                   for e, x in self.c.items()})

    def cleared_substitute(self, v: int, r: "FP", cpoly: "FP") -> "FP":
        """c^D * self with v replaced by -r/c, D = deg_v(self); polynomial."""
        F, n = self.F, self.n
        by = self.coeffs_by_power(v)
        D = max(by)
        neg_r = r.neg()
        # (-r)^d and c^(D - d) for every d, one multiplication each
        r_pows = [FP.const(F, n, 1)]
        c_pows = [FP.const(F, n, 1)]
        for _ in range(D):
            r_pows.append(r_pows[-1].mul(neg_r))
            c_pows.append(c_pows[-1].mul(cpoly))
        return reduce(FP.add, [hd.mul(r_pows[d]).mul(c_pows[D - d])
                               for d, hd in by.items()])

    def evaluate_vec(self, coords: Mapping[int, np.ndarray],
                     npoints: int) -> np.ndarray:
        """Values at the points given by coords; a new array, never one
        of coords.  The constant term is added last with addc_v and is
        never broadcast to a vector, except for a constant polynomial."""
        F = self.F
        acc: np.ndarray | None = None
        const = 0
        for e, c in self.c.items():
            term: np.ndarray | None = None
            for v, k in enumerate(e):
                if k:
                    f = coords[v] if k == 1 else F.pow_v(coords[v], k)
                    term = f if term is None else F.mul_v(term, f)
            if term is None:
                const = c
                continue
            if c != 1:
                term = F.mulc_v(term, c)
            acc = term if acc is None else F.add_v(acc, term)
        if acc is None:
            return np.full(npoints, const, dtype=np.int64)
        if const:
            return F.addc_v(acc, const)
        # a lone bare variable would hand back its own coordinate array
        return acc.copy() if any(acc is x for x in coords.values()) else acc


def _fold_system(sys: JetConstraintSystem, F) -> list[FP]:
    """Level equations as field polynomials equal to zero."""
    eqs = []
    for g, t in zip(sys.level_polys, sys.targets):
        e = FP.from_int_poly(F, g).add(FP.const(F, sys.n_jet_vars, F.from_int(-t)))
        eqs.append(e)
    return eqs


def _uni_roots(eq: FP, v: int, budget: _Budget) -> list[int]:
    """All roots of a univariate equation by a chunked scan."""
    F = eq.F
    st = eq.single_term()
    if st is not None:
        # c * v^d = 0 forces v = 0
        return [0]
    budget.spend(F.q * len(eq.c) // 16 + 1)
    return [int(x) for coords, _ in _grid_zeros([eq], [v], F)
            for x in coords[v]]


def _values(p: FP | None, coords: Mapping[int, np.ndarray], npoints: int):
    """p at the points, or the field scalar when p is constant; 0 for an
    absent p.  Only the constant-A, B = 0 quadratic count keeps scalars."""
    if p is None:
        return 0
    k = p.const_value()
    return p.evaluate_vec(coords, npoints) if k is None else k


def _quad_root_count(by: Mapping[int, FP], coords: Mapping[int, np.ndarray],
                     npoints: int, F) -> int:
    """Roots v of A v^2 + B v + C summed over the points (q odd), where
    A, B, C = by[2], by[1], by[0] are evaluated there.

    A point has 1 + chi2(B^2 - 4AC) roots where A != 0; else one root
    where B != 0; else q roots where C = 0 and none elsewhere.  With B = 0
    and a constant A the character splits, chi2(-4A) * chi2(C), so C is
    never scaled.
    """
    A, B, C = (_values(by.get(d), coords, npoints) for d in (2, 1, 0))
    if (isinstance(C, np.ndarray) and not isinstance(A, np.ndarray) and A
            and not isinstance(B, np.ndarray) and not B):
        chi_a = F.chi2(F.mul(A, F.neg(F.from_int(4))))
        return npoints + chi_a * int(F.chi2_v(C).sum())
    A, B, C = (x if isinstance(x, np.ndarray)
               else np.full(npoints, x, dtype=np.int64) for x in (A, B, C))
    disc = F.add_v(F.mul_v(B, B),
                   F.mul_v(F.mulc_v(A, F.neg(F.from_int(4))), C))
    counts = np.where(A != 0, 1 + F.chi2_v(disc),
                      np.where(B != 0, 1, np.where(C == 0, F.q, 0)))
    return int(counts.sum())


def _sweep_count(eq: FP, v: int, w: int, budget: _Budget) -> int:
    """Points of one equation in v, w with at most two total degrees.

    Off the origin each point is s*(1, t) or s*(0, 1) with s != 0, where
    the equation reads s^d1 (a + s^e b) = 0 for the direction's values a
    and b of the two homogeneous parts and e = d2 - d1.  A direction then
    holds q - 1 points if a = b = 0, and gcd(e, q - 1) points if a, b != 0
    and -a/b is an e-th power, else none.
    """
    F = eq.F
    q = F.q
    budget.spend(q * (len(eq.c) + 4) // 16 + 1)
    parts = eq.by_total_degree()
    d1, d2 = min(parts), max(parts)
    coords = {v: np.append(np.ones(q, dtype=np.int64), 0),
              w: np.append(F.all_elements(), 1)}
    a = parts[d1].evaluate_vec(coords, q + 1)
    b = parts[d2].evaluate_vec(coords, q + 1) if d2 > d1 else np.zeros_like(a)
    g = gcd(d2 - d1, q - 1)
    both = (a != 0) & (b != 0)
    minus_a = F.mulc_v(a[both], F.neg(1))
    solvable = F.pow_v(minus_a, (q - 1) // g) == F.pow_v(b[both], (q - 1) // g)
    count = ((q - 1) * int(np.count_nonzero((a == 0) & (b == 0)))
             + g * int(np.count_nonzero(solvable)))
    # the origin solves the equation unless it has a constant term
    return count + (d1 > 0)


def _grid_zeros(eqs: list[FP], vs: list[int], F,
                values: np.ndarray | None = None):
    """The points of the grid F_q^vs where every equation vanishes, one
    chunk of at most _CHUNK grid points at a time, as (coords, n): the n
    points' values of each variable in vs.  Given values, vs is a single
    variable and the grid is those field elements instead of F_q."""
    q = F.q
    total = q ** len(vs) if values is None else len(values)
    for start in range(0, total, _CHUNK):
        width = min(_CHUNK, total - start)
        if values is None:
            rem = np.arange(start, start + width, dtype=np.int64)
        else:
            rem = values[start:start + width].astype(np.int64)
        coords: dict[int, np.ndarray] = {}
        for v in vs[:-1]:
            coords[v] = rem % q
            rem = rem // q
        if vs:
            coords[vs[-1]] = rem
        mask = None
        for e in eqs:
            zero = e.evaluate_vec(coords, width) == 0
            mask = zero if mask is None else mask & zero
            if not mask.any():
                break
        n = width if mask is None else int(np.count_nonzero(mask))
        if n == width:
            yield coords, n
        elif n:
            yield {v: x[mask] for v, x in coords.items()}, n


def _enumerate(eqs: list[FP], vs: list[int], F,
               by: Mapping[int, FP] | None = None) -> int:
    """Sum of a per-point weight over the zeros of eqs in F_q^vs: 1, or,
    given by = {d: coefficient of v^d} of an equation quadratic in a
    variable v outside vs and eqs, its number of v-roots at the point.

    Over a table field with one grid variable w that enters only through
    w^d, d >= 2, the power-map rule of the module docstring scans w = 0
    and the d-th powers instead, each power standing for g = gcd(d, q - 1)
    points.  Both scans read the deflated polynomials: at 0 they agree
    with the originals."""
    scans: list[tuple[int, np.ndarray | None]] = [(1, None)]
    if len(vs) == 1 and isinstance(F, ExtField):
        (w,) = vs
        polys = eqs + list(by.values()) if by else eqs
        d = gcd(*(e[w] for p in polys for e in p.c))
        if d >= 2:
            g = gcd(d, F.q - 1)
            eqs = [p.deflate(w, d) for p in eqs]
            if by:
                by = {k: p.deflate(w, d) for k, p in by.items()}
            scans = [(1, np.zeros(1, dtype=np.int64)), (g, F.EXP[::g])]
    total = 0
    for mult, values in scans:
        zeros = _grid_zeros(eqs, vs, F, values)
        if by is None:
            total += mult * sum(n for _, n in zeros)
        else:
            total += mult * sum(_quad_root_count(by, coords, n, F)
                                for coords, n in zeros)
    return total


def _quad_private_grid(eqs: list[FP], i: int, v: int, vs: list[int],
                       F, budget: _Budget) -> int:
    """Grid over vs, counting roots of eqs[i] (quadratic in v) pointwise.

    v must appear in no other equation, so each grid point satisfying the
    other equations contributes its quadratic v-root count 1 + chi2(disc).
    """
    nterms = sum(len(e.c) for e in eqs) + 4
    budget.spend(F.q ** len(vs) * nterms // 16 + 1)
    return _enumerate(eqs[:i] + eqs[i + 1:], vs, F, eqs[i].coeffs_by_power(v))


def _linear_block(work: list[FP], i: int
                  ) -> tuple[list[int], list[FP], FP] | None:
    """(V, [c_v for v in V], r) with work[i] = sum c_v*v + r, where V holds
    the variables of work[i], taken greedily in sorted order, that no other
    equation has, that are linear in work[i] and that share no monomial
    with an earlier member; None when V would be empty."""
    e = work[i]
    others: set = set()
    for j, o in enumerate(work):
        if j != i:
            others |= o.vars_used()
    block: list[int] = []
    coeffs: list[FP] = []
    for v in sorted(e.vars_used() - others):
        if e.deg_in(v) != 1:
            continue
        c = e.coeffs_by_power(v)[1]
        # v shares a monomial with u exactly when its coefficient has u
        if any(u in c.vars_used() for u in block):
            continue
        block.append(v)
        coeffs.append(c)
    if not block:
        return None
    r = FP(e.F, e.n, {m: x for m, x in e.c.items()
                      if not any(m[v] for v in block)})
    return block, coeffs, r


def _pin(eqs: list[FP], v: int, rep: FP) -> list[FP]:
    """eqs with rep plugged in for v."""
    return [e.substitute(v, rep) if v in e.vars_used() else e for e in eqs]


def _solve(eqs: Iterable[FP], live: frozenset, F, budget: _Budget) -> int:
    """Number of points of eqs = 0 in the variables live, which hold every
    variable the equations use."""
    work: list[FP] = []
    used: set = set()
    for e in eqs:
        if not e.c:
            continue
        if e.const_value() is not None:
            return 0
        work.append(e)
        used |= e.vars_used()
    factor = F.q ** (len(live) - len(used))
    if not work:
        return factor
    # the count over used does not change when the variables are renamed, so
    # the key reads each exponent tuple on the sorted used columns only
    pick = operator.itemgetter(*sorted(used))
    key = frozenset(frozenset(zip(map(pick, e.c), e.c.values())) for e in work)
    hit = budget.memo.get(key)
    if hit is None:
        hit = budget.memo[key] = _solve_uncached(work, used, F, budget)
    return factor * hit


def _solve_uncached(work: list[FP], used: set, F, budget: _Budget) -> int:
    """Points of the nonconstant equations work in exactly the variables
    used."""
    budget.spend(10)
    q = F.q
    live = frozenset(used)

    def recurse(new_eqs: list[FP], drop: int) -> int:
        return _solve(new_eqs, live - {drop}, F, budget)

    # univariate equations: substitute roots, or just count if the
    # variable appears nowhere else
    for i, e in enumerate(work):
        vs = e.vars_used()
        if len(vs) != 1:
            continue
        (v,) = vs
        used_elsewhere = any(v in o.vars_used()
                             for j, o in enumerate(work) if j != i)
        rest = work[:i] + work[i + 1:]
        roots = _uni_roots(e, v, budget)
        if not roots:
            return 0
        if not used_elsewhere:
            return len(roots) * recurse(rest, v)
        total = 0
        for r in roots:
            total += recurse(_pin(rest, v, FP.const(F, e.n, r)), v)
        return total

    # linear variable with a constant coefficient: exact elimination
    for i, e in enumerate(work):
        bare = e.bare_linear_vars()
        if not bare:
            continue
        v = bare[0]
        by = e.coeffs_by_power(v)
        r = by.get(0, FP(F, e.n, {}))
        rep = r.scale(F.neg(F.inv(by[1].const_value())))
        return recurse(_pin(work[:i] + work[i + 1:], v, rep), v)

    # quadratic variable with constant leading coefficient and a
    # discriminant of the shape (constant) * (monomial)^2
    if q % 2:
        for i, e in enumerate(work):
            for v in sorted(e.vars_used()):
                if e.deg_in(v) != 2:
                    continue
                by = e.coeffs_by_power(v)
                alpha = by[2].const_value()
                if alpha is None:
                    continue
                beta = by.get(1, FP(F, e.n, {}))
                gamma = by.get(0, FP(F, e.n, {}))
                disc = beta.mul(beta).add(
                    gamma.scale(F.neg(F.mul(F.from_int(4), alpha))))
                inv2a = F.inv(F.add(alpha, alpha))
                center = beta.scale(F.neg(inv2a))
                rest = [o for j, o in enumerate(work) if j != i]
                if disc.is_zero():
                    return recurse(_pin(rest, v, center), v)
                st = disc.single_term()
                if st is None:
                    continue
                ed, d = st
                if any(k % 2 for k in ed):
                    continue
                half = tuple(k // 2 for k in ed)
                M = FP(F, e.n, {half: 1})
                chi = F.chi2(d)
                if chi == 1:
                    s0 = F.sqrt(d)
                    total = 0
                    for sgn_root in (s0, F.neg(s0)):
                        root = center.add(M.scale(F.mul(sgn_root, inv2a)))
                        total += recurse(_pin(rest, v, root), v)
                    root = center.add(M.scale(F.mul(s0, inv2a)))
                    total -= recurse(_pin(rest, v, root) + [M], v)
                    return total
                # non-square constant: roots exist only where M vanishes
                return recurse(_pin(rest, v, center) + [M], v)

    # block of private linear variables: e = sum c_v*v + r has q^(|V|-1)
    # solutions in V where some c_v is nonzero, and q^|V| or none where all
    # vanish, as r does or not
    for i in range(len(work)):
        block = _linear_block(work, i)
        if block is None:
            continue
        vs, cs, r = block
        rest = work[:i] + work[i + 1:]
        sub_live = live - set(vs)
        k = len(vs)
        free = _solve(rest, sub_live, F, budget)
        pinned = _solve(rest + cs, sub_live, F, budget)
        total = q ** (k - 1) * (free - pinned)
        if pinned:
            total += q ** k * _solve(rest + cs + [r], sub_live, F, budget)
        return total

    # linear variable with polynomial coefficient: split on the
    # coefficient vanishing and recombine with signs
    for i, e in enumerate(work):
        for v in sorted(e.vars_used()):
            if e.deg_in(v) != 1:
                continue
            by = e.coeffs_by_power(v)
            c = by[1]
            r = by.get(0, FP(F, e.n, {}))
            rest = [o for j, o in enumerate(work) if j != i]
            sub = [o.cleared_substitute(v, r, c) if v in o.vars_used() else o
                   for o in rest]
            total = recurse(sub, v)
            total -= recurse(sub + [c], v)
            total += _solve(rest + [c, r], live, F, budget)
            return total

    # two-variable single equation, quadratic in one of them: the private
    # grid over the other
    if len(used) == 2 and len(work) == 1 and q % 2:
        v1, v2 = sorted(used)
        e = work[0]
        for v, w in ((v1, v2), (v2, v1)):
            if e.deg_in(v) <= 2:
                return _quad_private_grid(work, 0, v, [w], F, budget)

    # binary form: its zeros are the lines w = t*v for the roots t of
    # e(1, t), and v = 0 when the w^d coefficient vanishes; any two lines
    # meet only in the origin
    for i, e in enumerate(work):
        vs = e.vars_used()
        if len(vs) != 2:
            continue
        parts = e.by_total_degree()
        if len(parts) != 1:
            continue
        (d,) = parts
        v, w = sorted(vs)
        rest = work[:i] + work[i + 1:]
        zero = FP(F, e.n, {})
        # e(1, t) is constant only for e = c*v^d, whose one line is v = 0
        dehom = e.substitute(v, FP.const(F, e.n, 1))
        slopes = [] if dehom.const_value() is not None \
            else _uni_roots(dehom, w, budget)
        v_mono = tuple(int(j == v) for j in range(e.n))
        total = 0
        for t in slopes:
            on_line = FP(F, e.n, {v_mono: t} if t else {})
            total += recurse(_pin(rest, w, on_line), w)
        lines = len(slopes)
        if e.deg_in(w) < d:
            total += recurse(_pin(rest, v, zero), v)
            lines += 1
        if lines != 1:
            origin = _pin(_pin(rest, v, zero), w, zero)
            total -= (lines - 1) * _solve(origin, live - {v, w}, F, budget)
        return total

    # one equation in two variables with one or two total degrees: sweep
    # the q + 1 lines through the origin
    if len(used) == 2 and len(work) == 1 and len(work[0].by_total_degree()) <= 2:
        return _sweep_count(work[0], *sorted(used), budget)

    # variable quadratic in one equation and absent from the rest:
    # eliminate it by pointwise root counts over a grid of the others
    if q % 2:
        for i, e in enumerate(work):
            for v in sorted(e.vars_used()):
                if e.deg_in(v) != 2:
                    continue
                if any(v in o.vars_used()
                       for j, o in enumerate(work) if j != i):
                    continue
                rest_vars = sorted(used - {v})
                if q ** len(rest_vars) <= GRID_CAP:
                    return _quad_private_grid(
                        work, i, v, rest_vars, F, budget)

    if q ** len(used) <= GRID_CAP:
        nterms = sum(len(e.c) for e in work) + 1
        budget.spend(q ** len(used) * nterms // 16 + 1)
        return _enumerate(work, sorted(used), F)

    raise ResourceLimitError(
        f"no applicable reduction for {len(work)} equations in "
        f"{len(used)} variables over a field of size {q}")


def count_points(sys: JetConstraintSystem, q: int,
                 node_budget: int = NODE_BUDGET,
                 memo: dict | None = None) -> int:
    """Number of F_q points of the level system; exact.

    memo, when given, is the subsystem memo of earlier counts over the same
    field F_q, which this count reads and extends; by default the count
    starts from an empty one.
    """
    F = make_field(q)
    budget = _Budget(node_budget, memo)
    eqs = _fold_system(sys, F)
    live = frozenset(range(sys.n_jet_vars))
    return _solve(eqs, live, F, budget)


def naive_count(sys: JetConstraintSystem, q: int,
                space_cap: int = 10_000_000) -> int:
    """Reference count by full enumeration of the jet space."""
    if sys.search_space(q) > space_cap:
        raise ResourceLimitError(
            f"search space {sys.search_space(q)} exceeds the cap {space_cap}")
    F = make_field(q)
    eqs = [e for e in _fold_system(sys, F) if not e.is_zero()]
    for e in eqs:
        cv = e.const_value()
        if cv is not None and cv != 0:
            return 0
    eqs = [e for e in eqs if e.const_value() is None]
    return _enumerate(eqs, list(range(sys.n_jet_vars)), F)
