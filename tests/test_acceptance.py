"""Acceptance gate: one test per shipped guarantee, one PASS line each.

Every test here is an end-to-end check of a documented contract.  Runtime
budgets are asserted where the contract states one.  Randomized suites use
fixed seeds so a failure is reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from jetzeta.algebra.dagger import DaggerSeries, ds_fit, ds_hadamard, ds_limit
from jetzeta.algebra.laurent import LaurentPoly
from jetzeta.cli import main
from jetzeta.gamma.cells import PolySet, chi, tilde_alpha
from jetzeta.gamma.zeta import AffineFormPW, zeta_polytope
from jetzeta.jets.classify import (
    lefschetz_via_jets,
    milnor_fiber_limit,
    zeta_via_jets,
)
from jetzeta.jets.count import count_points, naive_count
from jetzeta.jets.poly import MultiPoly, parse_poly
from jetzeta.jets.system import build_jet_system, multiplicity
from jetzeta.resolution import (
    acampo_lefschetz,
    acampo_sequence,
    denef_loeser_zeta,
    load_resolution,
    quasi_unipotent_period,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# singular model curves paired with their resolution fixtures
SINGULAR = [
    ("x1^2", "x2"),
    ("x1^3", "x3"),
    ("x1*x2", "node"),
    ("x1^2 + x2^2", "a1"),
    ("x1^2 + x2^3", "cusp"),
]

THEOREM_SET = ["x1^2", "x1*x2", "x1^2 + x2^2", "x1^2 + x2^3"]


def _res(name: str):
    return load_resolution(FIXTURES / name / "resolution.json")


def _origin(f) -> list[Fraction]:
    return [Fraction(0)] * f.n_vars


@lru_cache(maxsize=None)
def _jets_chi(f_text: str, m: int) -> int:
    """chi_c of the m-th jet locus."""
    f = parse_poly(f_text)
    return lefschetz_via_jets(f, _origin(f), m)


def _report(k: int, msg: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {msg}")


# -- 1: jet Euler characteristics match A'Campo on the model curves --------


def test_criterion_01_jet_chi_equals_lefschetz():
    t0 = time.monotonic()
    cusp_seq = []
    for f_text in THEOREM_SET:
        name = dict(SINGULAR)[f_text]
        res = _res(name)
        for m in range(1, 7):
            got = _jets_chi(f_text, m)
            want = acampo_lefschetz(res, m)
            assert got == want, (f_text, m, got, want)
            if name == "cusp":
                cusp_seq.append(got)
    assert cusp_seq == [0, 2, 3, 2, 0, -1]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(1, f"chi_c(X_m) == Lambda(M^m), 4 curves x m=1..6 ({elapsed:.1f}s)")


# -- 2: vanishing below the multiplicity -----------------------------------


def test_criterion_02_vanishing_below_multiplicity():
    for f_text, name in SINGULAR:
        f = parse_poly(f_text)
        mult = multiplicity(f, _origin(f))
        assert mult >= 2
        res = _res(name)
        for m in range(1, mult):
            assert acampo_lefschetz(res, m) == 0, (name, m)
            assert _jets_chi(f_text, m) == 0, (f_text, m)
    _report(2, "Lambda(M^m) == 0 for 0 < m < multiplicity, all singular fixtures")


# -- 3: the first Lefschetz number vanishes --------------------------------


def test_criterion_03_first_lefschetz_vanishes():
    for f_text, name in SINGULAR:
        assert acampo_lefschetz(_res(name), 1) == 0, name
    _report(3, "Lambda(M^1) == 0 on every singular fixture")


# -- 4: closed-form zeta for x^a -------------------------------------------


def test_criterion_04_monomial_zeta_closed_form():
    t0 = time.monotonic()
    for a, name in ((2, "x2"), (3, "x3")):
        f = parse_poly(f"x1^{a}")
        prefix = zeta_via_jets(f, [Fraction(0)], 1, 2 * a + 2)
        fitted = ds_fit(prefix, [(-1, a)])
        closed = DaggerSeries.geometric(-1, a, t_shift=a,
                                        coeff=LaurentPoly({-1: a}))
        assert fitted == closed
        assert fitted == denef_loeser_zeta(_res(name), 1)
        fiber = milnor_fiber_limit(prefix, [(-1, a)])
        assert fiber == LaurentPoly.from_int(a)
        assert fiber.eval_at_one() == a
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(4, f"Z == a L^-1 T^a / (1 - L^-1 T^a), S == a, chi == a ({elapsed:.1f}s)")


# -- 5: cusp invariants by two independent routes --------------------------


def test_criterion_05_cusp_two_routes():
    res = _res("cusp")
    seq = acampo_sequence(res, 12)
    m0_period, chi_period = quasi_unipotent_period(seq)

    # zeta-limit route: fit the Euler-specialized zeta and take -lim
    prefix = [LaurentPoly.zero()]
    prefix += [LaurentPoly.from_int(v) for v in seq.values]
    h = ds_fit(prefix, [(0, 1), (0, 2), (0, 3), (0, 6)])
    assert h.den == ((0, 6),)
    m0_zeta = h.den[0][1]
    chi_zeta = (-ds_limit(h)).eval_at_one()

    assert (m0_zeta, chi_zeta) == (6, -1)
    assert (m0_period, chi_period) == (6, -1)
    assert chi_zeta == _jets_chi("x1^2 + x2^3", 6)
    _report(5, "cusp: zeta-limit and periodicity routes both give chi=-1, m0=6")


# -- 6: polytope zeta limits over random boxes ------------------------------


def test_criterion_06_random_polytope_limits():
    rng = random.Random(0xC6_2026)
    t0 = time.monotonic()
    for _ in range(200):
        n = rng.randint(1, 3)
        intervals = []
        for _ in range(n):
            k0, k1 = sorted((rng.randint(-36, 36), rng.randint(-36, 36)))
            intervals.append((Fraction(k0, 12), Fraction(k1, 12),
                              rng.random() < 0.5, rng.random() < 0.5))
        S = PolySet.box(intervals)
        form = AffineFormPW.linear([rng.randint(-3, 3) for _ in range(n)],
                                   rng.randint(-3, 3))
        Z = zeta_polytope(S, form)
        assert ds_limit(Z) == LaurentPoly.from_int(-chi(S))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(6, f"lim Z == -chi on 200 random interval products ({elapsed:.1f}s)")


# -- 7: Hadamard limit multiplicativity -------------------------------------


def _random_limited_series(rng: random.Random) -> DaggerSeries:
    # zero constant term, degree <= 0, up to 3 factors with a in [-3,3], b in [1,4]
    k = rng.randint(0, 3)
    den = [(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
    den_deg = sum(b for _, b in den)
    num = {}
    for t in range(1, den_deg + 1):
        if rng.random() < 0.6:
            num[t] = LaurentPoly({rng.randint(-2, 2): rng.choice([-2, -1, 1, 2])})
    return DaggerSeries(num, den)


def test_criterion_07_hadamard_limits_multiply():
    rng = random.Random(0xAD_2026)
    for _ in range(200):
        h = _random_limited_series(rng)
        g = _random_limited_series(rng)
        had = ds_hadamard(h, g)
        assert ds_limit(had) == -(ds_limit(h) * ds_limit(g))
    _report(7, "lim(h (.) g) == -lim(h) lim(g) on 200 random pairs")


# SHA-256 of json.dumps([ds_hadamard(h, g).to_json(), ...], sort_keys=True)
# over criterion 7's 200 pairs: the limit identity cannot see a numerator and
# denominator that changed together, the digest pins the peeled presentation
CRITERION_7_DIGEST = (
    "4ec8e2ff03146a0e198eaa54175f67a96712fad5fe1e3a4c8dfd573769e0b0e3")


def test_criterion_07_hadamard_presentation_pinned():
    rng = random.Random(0xAD_2026)
    pairs = [(_random_limited_series(rng), _random_limited_series(rng))
             for _ in range(200)]
    text = json.dumps([ds_hadamard(h, g).to_json() for h, g in pairs],
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CRITERION_7_DIGEST


# -- 8: the open ray has trivial weighted volume ----------------------------


def test_criterion_08_open_ray_alpha_trivial():
    ray = PolySet.box([(0, None, False, False)])
    for m in range(1, 7):
        assert tilde_alpha(ray, m) == DaggerSeries.one(), m
    _report(8, "tilde_alpha((0, inf), m) == 1 for m = 1..6")


# -- 9: pruned counting agrees with exhaustive enumeration ------------------


def _random_vanishing_poly(rng: random.Random, n: int) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 3) for _ in range(n))
        if not any(e):
            continue
        terms[e] = terms.get(e, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return MultiPoly(n, terms)


def test_criterion_09_pruned_equals_naive():
    rng = random.Random(0x90_2026)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 2)
        f = _random_vanishing_poly(rng, n)
        if f.is_zero():
            continue
        m = rng.randint(1, 3)
        sys_ = build_jet_system(f, [Fraction(0)] * n, m)
        q = rng.choice([2, 3, 5, 7, 11])
        if sys_.search_space(q) > 10**6:
            continue
        assert count_points(sys_, q) == naive_count(sys_, q), (f, m, q)
        checked += 1
    _report(9, "pruned count == naive enumeration on 50 random jet systems")


# -- 10: thread count never changes the JSON output --------------------------


def _run_json(argv: list[str], capsys) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, (argv, code, out)
    json.loads(out)  # must be well-formed
    return out


def test_criterion_10_thread_determinism(capsys):
    jobs = []
    for f_text, name in SINGULAR:
        if f_text == "x1^3":
            continue
        jobs.append(["lefschetz", "-f", f_text, "-m", "1..6",
                     "--resolution", str(FIXTURES / name / "resolution.json"),
                     "--json"])
    for a in (2, 3):
        jobs.append(["zeta", "-f", f"x1^{a}", "-M", str(2 * a + 2), "--json"])
    for argv in jobs:
        single = _run_json(argv + ["--threads", "1"], capsys)
        pooled = _run_json(argv + ["--threads", "8"], capsys)
        assert single == pooled, argv
    _report(10, "threads 1 and 8 give byte-identical JSON on all rerun jobs")
