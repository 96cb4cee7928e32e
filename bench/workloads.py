"""The benchmark's workloads: one pass of jobs made from a seed, each job with
its oracle.

A job runs one CLI command in-process (through `jetzeta.cli.main`) or one
public-API computation, then checks the result against an oracle that does
not come from the code path under test: the fixtures' expected numbers, the
Denef-Loeser assembly from resolution data, closed forms, or the Euler
characteristic of a box computed here.  A job that raises, exits nonzero or
disagrees with its oracle fails.  The checks are semantic, so a report may
gain fields without failing them.

Jobs call the library through module attributes, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import jetzeta.algebra.dagger as dagger
import jetzeta.cli as cli
import jetzeta.gamma.cells as cells
import jetzeta.gamma.zeta as gzeta
import jetzeta.jets.gf as gf
import jetzeta.resolution as resolution
from jetzeta.algebra.dagger import DaggerSeries
from jetzeta.algebra.laurent import LaurentPoly

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# fixture name -> polynomial, as in the acceptance gate
POLYS = {"x2": "x1^2", "x3": "x1^3", "node": "x1*x2",
         "a1": "x1^2 + x2^2", "cusp": "x1^2 + x2^3"}

# criterion 6 of the acceptance gate draws its boxes from this seed
POLYTOPE_POOL_SEED = 0xC6_2026


class OracleMismatch(Exception):
    """A job's output disagrees with its oracle."""


@dataclass
class Job:
    """One closed-loop request: `run()` computes and checks against `expected`."""

    name: str
    run_fn: Callable[[object], None]
    expected: object
    threads: int = 1

    def run(self) -> None:
        self.run_fn(self.expected)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cold_start() -> None:
    """Forget the field tables and collect the garbage of earlier jobs, as a
    fresh CLI process would have neither.

    The field cache is the library's only state that outlives a call; the
    `count_points` memo lives in each call's budget.
    """
    gf._FIELD_CACHE.clear()
    gc.collect()


def _fixture(name: str, kind: str) -> Path:
    return FIXTURES / name / f"{kind}.json"


def _expected(name: str) -> dict:
    with open(_fixture(name, "expected"), encoding="utf-8") as fh:
        return json.load(fh)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMismatch(what)


def run_cli(argv: list[str]) -> dict:
    """Run one CLI command in-process; its JSON report, or OracleMismatch."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _check(code == 0, f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


# -- jets: lefschetz ------------------------------------------------------------

def _lefschetz_job(name: str, lo: int, hi: int, threads: int, resolution: bool) -> Job:
    """`lefschetz -m lo..hi` on a fixture.  Every row's chi must equal the
    fixture's expected Lefschetz number, with verdict AGREE when the
    resolution is given."""
    argv = ["lefschetz", "-f", POLYS[name], "-m", f"{lo}..{hi}", "--json",
            "--threads", str(threads)]
    if resolution:
        argv += ["--resolution", str(_fixture(name, "resolution"))]
    orders = list(range(lo, hi + 1))

    def run(expected: list[int]) -> None:
        rows = run_cli(argv)["rows"]
        _check([r.get("m") for r in rows] == orders, f"{name}: rows {rows}")
        for row in rows:
            m, chi = row["m"], row.get("chi")
            _check(chi == expected[m - 1], f"{name} m={m}: chi {chi} != {expected[m - 1]}")
            if resolution:
                _check(row.get("verdict") == "AGREE", f"{name} m={m}: {row.get('verdict')}")

    return Job(f"lefschetz {name} m={lo}..{hi}", run, _expected(name)["lefschetz"], threads)


def jets_prime(rng: random.Random) -> list[Job]:
    """Node m=1..6, A1 and cusp m=1..5, each one call at min(2, nproc)
    threads: every order is counted over prime fields (interp and residue
    routes).  A1 at m=6 is left out: it alone takes about 90 s today."""
    threads = min(2, nproc())
    jobs = [_lefschetz_job(name, 1, hi, threads, True)
            for name, hi in (("node", 6), ("a1", 5), ("cusp", 5))]
    rng.shuffle(jobs)
    return jobs


def jets_ext(rng: random.Random) -> list[Job]:
    """The cusp at m=6 on one thread: its trace route counts over the
    extension-field towers of 5 and 7, up to 7^8.  A single job, so the seed
    has nothing to vary."""
    return [_lefschetz_job("cusp", 6, 6, 1, False)]


# -- zeta series ----------------------------------------------------------------

# The node fixture lists only the exceptional curve of the blow-up, without
# the strict-transform strata, so its Denef-Loeser sum is not the zeta of
# x1*x2 (it has no odd T-powers).  x1*x2 = 0 is already a normal-crossing
# divisor: two components with N = nu = 1 meeting at the origin.
ZETA_ORACLE_RESOLUTION = {
    "node": {"d": 2,
             "components": [{"id": "X1", "N": 1, "nu": 1}, {"id": "X2", "N": 1, "nu": 1}],
             "strata": [{"ids": ["X1", "X2"], "chi": 1, "class_L": [[0, 1]]}]},
}


def _zeta_fixture_job(name: str, terms: int | None) -> Job:
    """`zeta` on a fixture: the fit must equal the Denef-Loeser zeta and its
    chi the fixture's chi_milnor."""
    argv = ["zeta", "-f", POLYS[name], "--resolution",
            str(_fixture(name, "resolution")), "--json"]
    if terms is not None:
        argv += ["-M", str(terms)]
    if name in ZETA_ORACLE_RESOLUTION:
        res = resolution.ResolutionData.from_json(ZETA_ORACLE_RESOLUTION[name])
    else:
        res = resolution.load_resolution(_fixture(name, "resolution"))
    expected = (resolution.denef_loeser_zeta(res, res.d),
                _expected(name)["chi_milnor"])

    def run(expected: tuple[DaggerSeries, int]) -> None:
        zeta, chi = expected
        report = run_cli(argv)
        _check(DaggerSeries.from_json(report["fitted"]) == zeta,
               f"{name}: fit {report['fitted']} != Denef-Loeser {zeta.to_json()}")
        _check(report["chi"] == chi, f"{name}: chi {report['chi']} != {chi}")
        _check(report["period_check"]["verdict"] == "OK",
               f"{name}: period check {report['period_check']}")

    return Job(f"zeta {name}", run, expected)


def _zeta_monomial_job(a: int) -> Job:
    """`zeta -f x1^a` without a fixture: a L^-1 T^a / (1 - L^-1 T^a), chi = a."""
    argv = ["zeta", "-f", f"x1^{a}", "-M", str(2 * a + 2), "--json"]
    closed = DaggerSeries.geometric(-1, a, t_shift=a, coeff=LaurentPoly({-1: a}))

    def run(expected: tuple[DaggerSeries, int]) -> None:
        zeta, chi = expected
        report = run_cli(argv)
        _check(DaggerSeries.from_json(report["fitted"]) == zeta,
               f"x1^{a}: fit {report['fitted']} != {zeta.to_json()}")
        _check(report["chi"] == chi, f"x1^{a}: chi {report['chi']} != {chi}")

    return Job(f"zeta x1^{a}", run, (closed, a))


def _acampo_job() -> Job:
    """`acampo` on every fixture: the Lefschetz numbers, the period m0 and
    chi_milnor must equal the fixture's expected values."""
    names = sorted(POLYS)

    def run(expected: dict[str, dict]) -> None:
        for name in names:
            report = run_cli(["acampo", "--resolution",
                              str(_fixture(name, "resolution")), "--json"])
            want = expected[name]
            lams = [r["lambda"] for r in report["rows"]]
            _check(lams == want["lefschetz"],
                   f"acampo {name}: {lams} != {want['lefschetz']}")
            _check((report.get("m0"), report.get("chi_milnor"))
                   == (want["m0"], want["chi_milnor"]),
                   f"acampo {name}: period ({report.get('m0')}, "
                   f"{report.get('chi_milnor')}) != ({want['m0']}, {want['chi_milnor']})")

    return Job("acampo periods", run, {name: _expected(name) for name in names})


def _random_limited_series(rng: random.Random) -> DaggerSeries:
    # criterion 7: zero constant term, degree <= 0, up to three factors
    den = [(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
    num = {}
    for t in range(1, sum(b for _, b in den) + 1):
        if rng.random() < 0.6:
            num[t] = LaurentPoly({rng.randint(-2, 2): rng.choice([-2, -1, 1, 2])})
    return DaggerSeries(num, den)


def _hadamard_job(pairs: list[tuple[DaggerSeries, DaggerSeries]]) -> Job:
    """Criterion 7: lim(h (.) g) = -lim(h) lim(g) for every pair."""
    def run(expected: list[LaurentPoly]) -> None:
        for i, ((h, g), want) in enumerate(zip(pairs, expected)):
            got = dagger.ds_limit(dagger.ds_hadamard(h, g))
            _check(got == want, f"hadamard pair {i}: limit {got} != {want}")

    expected = [-(h.limit() * g.limit()) for h, g in pairs]
    return Job(f"hadamard x{len(pairs)}", run, expected)


HADAMARD_PAIRS = 200


def _zeta_series(rng: random.Random) -> list[Job]:
    """Zeta fits on x2, x3 and node (-M 12), zeta of x1^2 and x1^3, A'Campo
    periods of every fixture and one seeded set of criterion-7 pairs.  The
    pairs are one job, whose cost hardly depends on the seed."""
    return [_zeta_fixture_job("x2", None), _zeta_fixture_job("x3", None),
            _zeta_fixture_job("node", 12),
            _zeta_monomial_job(2), _zeta_monomial_job(3), _acampo_job(),
            _hadamard_job([(_random_limited_series(rng), _random_limited_series(rng))
                           for _ in range(HADAMARD_PAIRS)])]


# -- polytope -------------------------------------------------------------------

Box = list[tuple[Fraction, Fraction, bool, bool]]


def _criterion6_cases(count: int) -> list[tuple[Box, list[int], int]]:
    """The first `count` random interval products of acceptance criterion 6."""
    rng = random.Random(POLYTOPE_POOL_SEED)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 3)
        box = []
        for _ in range(n):
            k0, k1 = sorted((rng.randint(-36, 36), rng.randint(-36, 36)))
            box.append((Fraction(k0, 12), Fraction(k1, 12),
                        rng.random() < 0.5, rng.random() < 0.5))
        a = [rng.randint(-3, 3) for _ in range(n)]
        cases.append((box, a, rng.randint(-3, 3)))
    return cases


def _lattice_symmetry(case, rng: random.Random):
    """The case moved by a random lattice symmetry that keeps its zeta series.

    Coordinates are permuted, reflected (x -> -x with the form's sign flipped)
    and translated by integers (with the constant term absorbing the shift),
    so the lattice points and their form values are the same.
    """
    box, a, b = case
    perm = list(range(len(box)))
    rng.shuffle(perm)
    out_box, out_a = [], []
    for i in perm:
        lo, hi, lc, hc = box[i]
        ai = a[i]
        if rng.random() < 0.5:
            lo, hi, lc, hc, ai = -hi, -lo, hc, lc, -ai
        t = rng.randint(-2, 2)
        out_box.append((lo + t, hi + t, lc, hc))
        out_a.append(ai)
        b -= ai * t
    return out_box, out_a, b


def box_chi(box: Box) -> int:
    """Compactly supported Euler characteristic of a product of intervals."""
    out = 1
    for lo, hi, lc, hc in box:
        if lo == hi:
            out *= 1 if lc and hc else 0
        else:
            out *= (1 if lc else 0) + (1 if hc else 0) - 1
    return out


def _polytope_job(index: int, box: Box, a: list[int], b: int) -> Job:
    """Criterion 6: lim Z = -chi(S), with chi(S) computed here from the box."""
    def run(chi: int) -> None:
        S = cells.PolySet.box(box)
        Z = gzeta.zeta_polytope(S, gzeta.AffineFormPW.linear(a, b))
        lim = dagger.ds_limit(Z)
        reported = cells.chi(S)
        _check(reported == chi, f"case {index}: chi {reported} != {chi}")
        _check(lim == LaurentPoly.from_int(-chi),
               f"case {index}: limit {lim} != -chi = {-chi}")

    return Job(f"polytope case {index} (dim {len(box)})", run, box_chi(box))


# every sixteenth of the 200 cases of criterion 6, a sample of the gate's mix
# of dimensions and costs (one 3-D box takes nearly half the time of all 13)
POLYTOPE_CASES = range(0, 200, 16)


def _polytope(rng: random.Random) -> list[Job]:
    """Criterion-6 cases, each moved by a seeded lattice symmetry.  The
    symmetries keep every case's zeta series, so the seed varies the inputs
    but hardly the work."""
    pool = _criterion6_cases(POLYTOPE_CASES.stop)
    return [_polytope_job(i, *_lattice_symmetry(pool[i], rng)) for i in POLYTOPE_CASES]


def zeta_and_polytope(rng: random.Random) -> list[Job]:
    """The zeta-series jobs and the polytope cases, in seeded order.

    Both run pure-Python arithmetic (dict polynomials over F_p, Laurent
    polynomials over Fractions), whose speed on a shared host swings by up
    to 1.7x for minutes at a time.  As one workload they leave the benchmark
    fewer runs, so each run can be longer and each job repeats over a longer
    span to find its fastest.
    """
    jobs = _zeta_series(rng) + _polytope(rng)
    rng.shuffle(jobs)
    return jobs


# name -> builder of one pass of jobs from a seeded generator
WORKLOADS: dict[str, Callable[[random.Random], list[Job]]] = {
    "jets-prime": jets_prime,
    "jets-ext": jets_ext,
    "zeta-polytope": zeta_and_polytope,
}


def build(name: str, seed: int) -> list[Job]:
    """The jobs of one pass of workload `name`, made from `seed`."""
    return WORKLOADS[name](random.Random(seed))
