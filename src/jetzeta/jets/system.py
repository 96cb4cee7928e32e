"""Truncated-arc constraint systems: f(phi(t)) = t^m mod t^(m+1), phi(0) = x."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

from ..errors import NonvanishingError, ResourceLimitError
from .gf import factorize
from .poly import MultiPoly


def jet_var_index(i: int, j: int, n: int) -> int:
    """0-based index of the level-j coefficient of coordinate i (both 1-based)."""
    return (j - 1) * n + (i - 1)


@dataclass(frozen=True)
class JetConstraintSystem:
    """Level constraints on the nm truncation coefficients.

    level_polys[k-1] is an integer polynomial in the jet variables whose
    value must equal targets[k-1]; it only involves coefficients of levels
    <= k.  targets is all zeros except the last level, whose value is the
    denominator multiplier picked up while clearing the base point.
    """

    n: int
    m: int
    level_polys: tuple[MultiPoly, ...]
    targets: tuple[int, ...]

    @property
    def n_jet_vars(self) -> int:
        return self.n * self.m

    def bad_primes(self) -> set[int]:
        """Primes that must be avoided: they divide a cleared denominator."""
        return set().union(*(factorize(abs(t)) for t in self.targets))

    def search_space(self, q: int) -> int:
        return q ** self.n_jet_vars


def build_jet_system(f: MultiPoly, x: Sequence, m: int) -> JetConstraintSystem:
    """Constraint system for arcs with f(x + a.1 t + ... + a.m t^m) = t^m.

    The base point is translated to the origin first; f must vanish there.
    Each level-k constraint is the t^k coefficient of the expansion, an
    integer polynomial after clearing the denominators the translation
    introduced (the nonzero target absorbs the level-m multiplier).
    """
    if m < 1:
        raise ValueError("jet order must be positive")
    n = f.n_vars
    if n < 1:
        raise ValueError("polynomial must have at least one variable")
    if n * m > sys.maxsize:
        raise ResourceLimitError(
            f"order m = {m} needs {n * m} jet variables, over sys.maxsize")
    value = f.evaluate(x)
    if value != 0:
        raise NonvanishingError(
            f"base point is not on the hypersurface: f(x) = {value}")
    shifted = f.translate(x)

    nv = n * m
    # truncated power series in t with MultiPoly(nv) coefficients
    def series_mul(a: list[MultiPoly], b: list[MultiPoly]) -> list[MultiPoly]:
        out = [MultiPoly.zero(nv) for _ in range(m + 1)]
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if i + j > m:
                    break
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return out

    coord_series = []
    for i in range(1, n + 1):
        s = [MultiPoly.zero(nv)]
        for j in range(1, m + 1):
            s.append(MultiPoly.var(nv, jet_var_index(i, j, n)))
        coord_series.append(s)

    total = [MultiPoly.zero(nv) for _ in range(m + 1)]
    one = [MultiPoly.const(nv, 1)] + [MultiPoly.zero(nv)] * m
    for e, c in shifted.items():
        if sum(e) > m:
            continue  # every contributing t-power exceeds the cutoff
        term = one
        for i, k in enumerate(e):
            for _ in range(k):
                term = series_mul(term, coord_series[i])
        for k in range(m + 1):
            if not term[k].is_zero():
                total[k] = total[k] + term[k] * c

    # t^0 coefficient is f at the translated origin, already checked zero
    assert total[0].is_zero()

    polys: list[MultiPoly] = []
    targets: list[int] = []
    for k in range(1, m + 1):
        g, mult = total[k].clear_denominators()
        polys.append(g)
        targets.append(mult if k == m else 0)
        bad = g.vars_used() - {jet_var_index(i, j, n)
                               for j in range(1, k + 1)
                               for i in range(1, n + 1)}
        assert not bad, "level constraint uses a later-level variable"
    return JetConstraintSystem(n, m, tuple(polys), tuple(targets))


def multiplicity(f: MultiPoly, x: Sequence) -> int:
    """Order of vanishing of f at x (degree of the lowest nonzero part)."""
    shifted = f.translate(x)
    d = shifted.min_total_degree()
    if d < 0:
        raise ValueError("zero polynomial has no multiplicity")
    if d == 0:
        raise NonvanishingError("f does not vanish at the base point")
    return d
