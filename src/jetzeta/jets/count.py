"""Exact solution counts for jet constraint systems over finite fields.

count_points reduces the level system symbolically: forced values and
linear eliminations propagate exactly, branches that split on whether a
coefficient vanishes recombine by inclusion-exclusion, and the final one-
or two-variable residue is counted with vectorized field arithmetic.
Variables no solved equation touches contribute plain powers of q.

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

The grid rules, the chi2-pair rule and _uni_roots scan field points
through one chunked enumerator: _grid_zeros walks the grid F_q^k in index
ranges of _CHUNK points and yields the zeros of the given equations in
each range.  _enumerate sums a per-point weight over them: 1 for the grid
fallback and naive_count, or the number of roots of an equation quadratic
in a variable no other equation has (the private grid; the chi2-pair rule
is its case of one grid variable and no other equation).  _uni_roots reads
its roots off the same loop.  So these rules hold at most _CHUNK points at
a time at any field size; the line sweep still evaluates its q + 1
directions at once.

The recursion asks each polynomial the same questions many times, so FP
keeps per-object caches, each filled on first use: one pass over the
monomials gives the degree in every variable (hence vars_used and deg_in)
and the bare-linear variables (whose only monomial is v itself, what the
constant-coefficient linear rule looks for); coeffs_by_power is memoised
per variable; and the memo key of _solve is built once.  A polynomial is
never changed after construction, which keeps these caches valid.
Substituting a constant, the common case when roots are pinned, works
monomial by monomial instead of by Horner's rule.

Vector evaluation never materialises a constant: evaluate_vec starts from
its first non-constant term and adds the constant term last with addc_v,
and the quadratic root count shared by the chi2-pair rule and the private
grid keeps constant coefficients as field scalars, so the trace route's
v^2 = g(w) leaves need no vector addition at all.  With a constant A and
no linear term the quadratic character factors, chi2(-4A*C) =
chi2(-4A)*chi2(C), so C is not scaled either.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Iterable, Mapping

import numpy as np

from ..errors import ResourceLimitError
from .gf import make_field
from .system import JetConstraintSystem

GRID_CAP = 2_000_000
_CHUNK = 1 << 17


class _Budget:
    __slots__ = ("left", "memo")

    def __init__(self, n: int):
        self.left = n
        # inclusion-exclusion branches revisit identical subsystems
        self.memo: dict = {}

    def spend(self, n: int) -> None:
        self.left -= n
        if self.left < 0:
            raise ResourceLimitError("count budget exhausted")


class FP:
    """Polynomial over a finite field: {exponent tuple: nonzero element}.

    Never changed after construction, so its lazily filled caches (see the
    module docstring) stay valid.
    """

    __slots__ = ("F", "n", "c", "_deg", "_vars", "_bare", "_by", "_key")

    def __init__(self, F, n: int, c: dict):
        self.F = F
        self.n = n
        self.c = c
        self._deg: dict[int, int] | None = None
        self._vars: frozenset | None = None
        self._bare: tuple[int, ...] | None = None
        self._by: dict[int, dict[int, FP]] | None = None
        self._key: frozenset | None = None

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
        """One pass over the monomials: the degree in each variable, and
        the variables whose only monomial is the bare variable."""
        deg: dict[int, int] = {}
        terms: dict[int, int] = {}
        units = []
        for e in self.c:
            support = [(i, k) for i, k in enumerate(e) if k]
            for i, k in support:
                if k > deg.get(i, 0):
                    deg[i] = k
                terms[i] = terms.get(i, 0) + 1
            if len(support) == 1 and support[0][1] == 1:
                units.append(support[0][0])
        self._deg = deg
        self._vars = frozenset(deg)
        self._bare = tuple(sorted(v for v in units if terms[v] == 1))

    def vars_used(self) -> frozenset:
        if self._vars is None:
            self._profile()
        return self._vars

    def deg_in(self, v: int) -> int:
        if self._deg is None:
            self._profile()
        return self._deg.get(v, 0)

    def bare_linear_vars(self) -> tuple[int, ...]:
        """Sorted variables v whose only monomial is v itself, i.e. those
        the polynomial is linear in with a constant coefficient."""
        if self._bare is None:
            self._profile()
        return self._bare

    def memo_key(self) -> frozenset:
        if self._key is None:
            self._key = frozenset(self.c.items())
        return self._key

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

    def pow(self, k: int) -> "FP":
        out = FP.const(self.F, self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return out

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
        c: dict = {}
        for d, hd in by.items():
            for e, x in hd.mul(r_pows[d]).mul(c_pows[D - d]).c.items():
                w = F.add(c.get(e, 0), x)
                if w:
                    c[e] = w
                else:
                    del c[e]
        return FP(F, n, c)

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
                    f = F.pow_v(coords[v], k)
                    term = f if term is None else F.mul_v(term, f)
            if term is None:
                const = c
                continue
            if c != 1:
                term = F.mulc_v(term, c)
            acc = term if acc is None else F.add_v(acc, term)
        if acc is None:
            return np.full(npoints, const, dtype=np.int64)
        return F.addc_v(acc, const) if const else acc


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


def _chi2_pair_count(eq: FP, v: int, w: int, budget: _Budget) -> int:
    """Points of one equation in two variables, quadratic in v.

    For each value of w the v-count is the usual quadratic root count
    through the quadratic character of the discriminant.
    """
    F = eq.F
    budget.spend(F.q * (len(eq.c) + 4) // 16 + 1)
    return _enumerate([], [w], F, eq.coeffs_by_power(v))


# A value at the points is a vector, or a field scalar when it is the same
# at every point; scalars never become vectors.

def _values(p: FP | None, coords: Mapping[int, np.ndarray], npoints: int):
    """p at the points; 0 for an absent p."""
    if p is None:
        return 0
    k = p.const_value()
    return p.evaluate_vec(coords, npoints) if k is None else k


def _mul(F, x, y):
    if not isinstance(x, np.ndarray):
        x, y = y, x
    if not isinstance(x, np.ndarray):
        return F.mul(x, y)
    if isinstance(y, np.ndarray):
        return F.mul_v(x, y)
    return F.mulc_v(x, y) if y else 0


def _add(F, x, y):
    if not isinstance(x, np.ndarray):
        x, y = y, x
    if not isinstance(x, np.ndarray):
        return F.add(x, y)
    if isinstance(y, np.ndarray):
        return F.add_v(x, y)
    return F.addc_v(x, y) if y else x


def _quad_root_count(by: Mapping[int, FP], coords: Mapping[int, np.ndarray],
                     npoints: int, F) -> int:
    """Roots v of A v^2 + B v + C summed over the points (q odd), where
    A, B, C = by[2], by[1], by[0] are evaluated there.

    A point has 1 + chi2(B^2 - 4AC) roots where A != 0; else one root
    where B != 0; else q roots where C = 0 and none elsewhere.  With B = 0
    and a constant A the character splits, chi2(-4A) * chi2(C), so C is
    never scaled.
    """
    q = F.q
    A, B, C = (_values(by.get(d), coords, npoints) for d in (2, 1, 0))
    if (isinstance(C, np.ndarray) and not isinstance(A, np.ndarray) and A
            and not isinstance(B, np.ndarray) and not B):
        chi_a = F.chi2(F.mul(A, F.neg(F.from_int(4))))
        return npoints + chi_a * int(F.chi2_v(C).sum())
    disc = _add(F, _mul(F, B, B),
                _mul(F, _mul(F, A, F.neg(F.from_int(4))), C))
    chi = F.chi2_v(disc) if isinstance(disc, np.ndarray) else F.chi2(disc)
    if isinstance(A, np.ndarray) or not A:
        counts = np.where(A != 0, 1 + chi,
                          np.where(B != 0, 1, np.where(C == 0, q, 0)))
        return int(np.broadcast_to(counts, (npoints,)).sum())
    # a nonzero constant A makes every point quadratic
    return npoints + int(np.broadcast_to(chi, (npoints,)).sum())


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


def _grid_zeros(eqs: list[FP], vs: list[int], F):
    """The points of the grid F_q^vs where every equation vanishes, one
    chunk of at most _CHUNK grid points at a time, as (coords, n): the n
    points' values of each variable in vs."""
    q = F.q
    total = q ** len(vs)
    for start in range(0, total, _CHUNK):
        width = min(_CHUNK, total - start)
        rem = np.arange(start, start + width, dtype=np.int64)
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
    variable v outside vs and eqs, its number of v-roots at the point."""
    if by is None:
        return sum(n for _, n in _grid_zeros(eqs, vs, F))
    return sum(_quad_root_count(by, coords, n, F)
               for coords, n in _grid_zeros(eqs, vs, F))


def _quad_private_grid(eqs: list[FP], i: int, v: int, vs: list[int],
                       F, budget: _Budget) -> int:
    """Grid over vs, counting roots of eqs[i] (quadratic in v) pointwise.

    v must appear in no other equation, so each grid point satisfying the
    other equations contributes its quadratic v-root count 1 + chi2(disc).
    """
    nterms = sum(len(e.c) for e in eqs) + 6
    budget.spend(F.q ** len(vs) * nterms // 16 + 1)
    return _enumerate(eqs[:i] + eqs[i + 1:], vs, F, eqs[i].coeffs_by_power(v))


def _pin(eqs: list[FP], v: int, rep: FP) -> list[FP]:
    """eqs with rep plugged in for v."""
    return [e.substitute(v, rep) if v in e.vars_used() else e for e in eqs]


def _solve(eqs: Iterable[FP], live: frozenset, F, budget: _Budget) -> int:
    eqs = list(eqs)
    key = (frozenset(e.memo_key() for e in eqs), live)
    hit = budget.memo.get(key)
    if hit is not None:
        return hit
    out = _solve_uncached(eqs, live, F, budget)
    budget.memo[key] = out
    return out


def _solve_uncached(eqs: list[FP], live: frozenset, F, budget: _Budget) -> int:
    budget.spend(10)
    q = F.q
    work: list[FP] = []
    for e in eqs:
        cv = e.const_value()
        if cv is None:
            work.append(e)
        elif cv != 0:
            return 0
    used: set = set()
    for e in work:
        used |= e.vars_used()
    factor = q ** (len(live) - len(used))
    if not work:
        return factor
    live = frozenset(used)

    def recurse(new_eqs: list[FP], drop: int | None) -> int:
        sub_live = live - {drop} if drop is not None else live
        return _solve(new_eqs, sub_live, F, budget)

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
            return factor * len(roots) * recurse(rest, v)
        total = 0
        for r in roots:
            total += recurse(_pin(rest, v, FP.const(F, e.n, r)), v)
        return factor * total

    # linear variable with a constant coefficient: exact elimination
    for i, e in enumerate(work):
        bare = e.bare_linear_vars()
        if not bare:
            continue
        v = bare[0]
        by = e.coeffs_by_power(v)
        r = by.get(0, FP(F, e.n, {}))
        rep = r.scale(F.neg(F.inv(by[1].const_value())))
        return factor * recurse(_pin(work[:i] + work[i + 1:], v, rep), v)

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
                    return factor * recurse(_pin(rest, v, center), v)
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
                    return factor * total
                # non-square constant: roots exist only where M vanishes
                return factor * recurse(_pin(rest, v, center) + [M], v)

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
            return factor * total

    # two-variable single equation, quadratic in one of them
    if len(used) == 2 and len(work) == 1 and q % 2:
        v1, v2 = sorted(used)
        e = work[0]
        for v, w in ((v1, v2), (v2, v1)):
            if e.deg_in(v) <= 2:
                return factor * _chi2_pair_count(e, v, w, budget)

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
        return factor * total

    # one equation in two variables with one or two total degrees: sweep
    # the q + 1 lines through the origin
    if len(used) == 2 and len(work) == 1 and len(work[0].by_total_degree()) <= 2:
        return factor * _sweep_count(work[0], *sorted(used), budget)

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
                    return factor * _quad_private_grid(
                        work, i, v, rest_vars, F, budget)

    if q ** len(used) <= GRID_CAP:
        nterms = sum(len(e.c) for e in work) + 1
        budget.spend(q ** len(used) * nterms // 16 + 1)
        return factor * _enumerate(work, sorted(used), F)

    raise ResourceLimitError(
        f"no applicable reduction for {len(work)} equations in "
        f"{len(used)} variables over a field of size {q}")


def count_points(sys: JetConstraintSystem, q: int,
                 node_budget: int = 1_000_000_000) -> int:
    """Number of F_q points of the level system; exact."""
    F = make_field(q)
    budget = _Budget(node_budget)
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
