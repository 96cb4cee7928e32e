"""Command-line surface: jet counts against resolution oracles.

Subcommands: lefschetz (jet Euler numbers vs A'Campo), zeta (fitted motivic
zeta, Milnor-fiber limit, period cross-check), acampo (resolution side
alone), count (raw point-count table), polytope (chi / alpha / series).

Exit codes are a stable contract: 0 success, 2 parse or config error,
3 oracle disagreement, 4 resource limit (out of memory included).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd

from .algebra.dagger import ds_fit, ds_limit, fit_candidates
from .algebra.laurent import LaurentPoly
from .errors import (FitFailure, JetzetaError, LimitMismatchError,
                     MalformedDataError, ParseError, ResourceLimitError)
from .gamma.cells import PolySet, alpha_m, chi_bounded
from .gamma.zeta import AffineFormPW, zeta_polytope
from .jets.classify import JetOrders, class_of_jets, zeta_via_jets
from .jets.count import NODE_BUDGET
from .jets.poly import MultiPoly, parse_poly
from .resolution import (ResolutionData, acampo_lefschetz, acampo_sequence,
                         load_resolution, quasi_unipotent_period)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DISAGREE = 3
EXIT_RESOURCE = 4

# a command returns its JSON report, the human-readable lines, and an exit code
Outcome = tuple[dict, list[str], int]


@dataclass(frozen=True)
class RunConfig:
    """One fully parsed invocation."""

    command: str
    poly: str | None = None
    at: tuple[Fraction, ...] | None = None
    m_lo: int = 1
    m_hi: int = 1
    terms: int | None = None
    primes: int | None = None
    node_budget: int = NODE_BUDGET
    resolution: str | None = None
    action: str | None = None
    data: str | None = None
    output_json: bool = False

    def __post_init__(self) -> None:
        if self.m_lo < 1 or self.m_hi < self.m_lo:
            raise MalformedDataError(f"empty m-range {self.m_lo}..{self.m_hi}")
        if self.terms is not None and self.terms < 1:
            raise MalformedDataError("term count must be positive")
        if self.primes is not None and self.primes < 1:
            raise MalformedDataError("prime budget must be positive")
        if self.node_budget < 1:
            raise MalformedDataError("node budget must be positive")


def _parse_m_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return (int(lo), int(hi)) if sep else (int(lo), int(lo))
    except ValueError:
        raise MalformedDataError(f"bad m-range {text!r}; use M or LO..HI") from None


def _parse_point(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise MalformedDataError(f"bad base point {text!r}; use e.g. 0,1/3") from None


def _poly_and_point(cfg: RunConfig) -> tuple[MultiPoly, tuple[Fraction, ...]]:
    f = parse_poly(cfg.poly)
    at = cfg.at if cfg.at is not None else (Fraction(0),) * f.n_vars
    if len(at) != f.n_vars:
        raise MalformedDataError(
            f"base point has {len(at)} coordinates, polynomial has {f.n_vars} variables")
    return f, at


def _point_str(at: tuple[Fraction, ...]) -> str:
    return ", ".join(str(c) for c in at)


def _fixture_for(f: MultiPoly, cfg: RunConfig) -> ResolutionData | None:
    """The --resolution fixture, if any; it must resolve a germ in f's dimension."""
    if not cfg.resolution:
        return None
    res = load_resolution(cfg.resolution)
    if res.d != f.n_vars:
        raise MalformedDataError(
            f"resolution fixture has dimension d = {res.d}, "
            f"polynomial has {f.n_vars} variables")
    return res


# -- lefschetz ---------------------------------------------------------------

def _jet_row(f: MultiPoly, at: tuple[Fraction, ...], m: int, cfg: RunConfig,
             orders: JetOrders) -> dict:
    try:
        jc = class_of_jets(f, at, m, prime_budget=cfg.primes,
                           node_budget=cfg.node_budget, orders=orders)
    except ResourceLimitError as exc:
        return {"m": m, "error": str(exc), "error_kind": "resource"}
    except JetzetaError as exc:
        return {"m": m, "error": str(exc), "error_kind": "class"}
    row = {"m": m, "chi": jc.chi, "route": jc.route}
    if jc.cls is not None:
        row["class"] = jc.cls.poly.to_json()
    return row


def cmd_lefschetz(cfg: RunConfig) -> Outcome:
    f, at = _poly_and_point(cfg)
    res = _fixture_for(f, cfg)
    ms = range(cfg.m_lo, cfg.m_hi + 1)
    orders = JetOrders(f, at, ms, cfg.primes, node_budget=cfg.node_budget)
    rows = [_jet_row(f, at, m, cfg, orders) for m in ms]
    disagree = failed = resource = 0
    for row in rows:
        if "error" in row:
            failed += 1
            resource += row["error_kind"] == "resource"
            continue
        if res is not None:
            row["lambda"] = acampo_lefschetz(res, row["m"])
            row["verdict"] = "AGREE" if row["lambda"] == row["chi"] else "DISAGREE"
            disagree += row["verdict"] == "DISAGREE"
    report = {"command": "lefschetz", "f": cfg.poly,
              "at": [str(c) for c in at], "rows": rows,
              "disagreements": disagree}
    table = [f"lefschetz of {cfg.poly} at ({_point_str(at)})"]
    header = f"{'m':>3}  {'chi_jets':>8}  {'route':<8}"
    if res is not None:
        header += f"  {'lambda':>6}  verdict"
    table.append(header)
    for row in rows:
        if "error" in row:
            table.append(f"{row['m']:>3}  [{row['error_kind']}: {row['error']}]")
            continue
        line = f"{row['m']:>3}  {row['chi']:>8}  {row['route']:<8}"
        if res is not None:
            line += f"  {row['lambda']:>6}  {row['verdict']}"
        table.append(line)
    if disagree:
        code = EXIT_DISAGREE
    elif resource:
        code = EXIT_RESOURCE
    elif failed:
        code = EXIT_CONFIG
    else:
        code = EXIT_OK
    return report, table, code


# -- zeta --------------------------------------------------------------------

def _zeta_candidates(res: ResolutionData | None, d: int) -> list[tuple[int, int]]:
    """Denominator factor multiset for the fit.

    With a fixture: each component contributes its primitive slope pair at
    multiplicity d plus the full pair (-nu, N).  Without one: every pair
    with -d <= a <= -1, 1 <= b <= 4, at multiplicity d (covers ambient
    dimension <= 2; larger inputs need a fixture to stay inside the subset
    budget).
    """
    mult: dict[tuple[int, int], int] = {}
    if res is not None:
        for c in res.components:
            g = gcd(c.N, c.nu)
            mult[(-c.nu // g, c.N // g)] = max(mult.get((-c.nu // g, c.N // g), 0), d)
            mult[(-c.nu, c.N)] = max(mult.get((-c.nu, c.N), 0), 1)
    else:
        for a in range(-d, 0):
            for b in range(1, 5):
                mult[(a, b)] = d
    out: list[tuple[int, int]] = []
    for fac, k in sorted(mult.items()):
        out.extend([fac] * k)
    return out


def cmd_zeta(cfg: RunConfig) -> Outcome:
    f, at = _poly_and_point(cfg)
    res = _fixture_for(f, cfg)
    if cfg.terms is not None:
        M = cfg.terms
    elif res is not None:
        M = 2 * max(c.N for c in res.components) + 2
    else:
        M = 8
    d = f.n_vars
    candidates = _zeta_candidates(res, d)
    # a candidate set past the fit's subset budget fails before any count
    fit_candidates(candidates)
    prefix = zeta_via_jets(f, at, d, M, prime_budget=cfg.primes,
                           node_budget=cfg.node_budget)
    report: dict = {"command": "zeta", "f": cfg.poly,
                    "at": [str(c) for c in at], "d": d, "M": M,
                    "prefix": [p.to_json() for p in prefix]}
    table = [f"zeta of {cfg.poly} at ({_point_str(at)}), {M} terms",
             "prefix: [" + ", ".join(str(p) for p in prefix) + "]"]
    try:
        Z = ds_fit(prefix, candidates)
    except FitFailure:
        report["fit_failed"] = True
        report["candidates"] = [list(c) for c in candidates]
        table.append("no candidate denominator reproduces the prefix; "
                     "extend -M or supply --resolution")
        table.append("candidates tried: " + ", ".join(map(str, candidates)))
        return report, table, EXIT_CONFIG
    S = -ds_limit(Z)
    chi_S = S.eval_at_one()
    report["fitted"] = Z.to_json()
    report["milnor_fiber"] = S.to_json()
    report["chi"] = chi_S
    table.append(f"Z = {Z}")
    table.append(f"S = {S}")
    table.append(f"chi_c(S) = {chi_S}")
    code = EXIT_OK
    if res is not None:
        m0, chi_m = quasi_unipotent_period(
            acampo_sequence(res, 2 * res.full_period()))
        verdict = "OK" if chi_S == chi_m else "MISMATCH"
        report["period_check"] = {"m0": m0, "chi_milnor": chi_m,
                                  "verdict": verdict}
        table.append(f"period check: m0 = {m0}, Lambda(M^m0) = {chi_m}, "
                     f"verdict {verdict}")
        if verdict == "MISMATCH":
            code = EXIT_DISAGREE
    return report, table, code


# -- acampo ------------------------------------------------------------------

def cmd_acampo(cfg: RunConfig) -> Outcome:
    res = load_resolution(cfg.resolution)
    ms = range(cfg.m_lo, cfg.m_hi + 1)
    rows = [{"m": m, "lambda": acampo_lefschetz(res, m)} for m in ms]
    report = {"command": "acampo", "resolution": cfg.resolution, "rows": rows}
    table = [f"A'Campo numbers from {cfg.resolution}", f"{'m':>3}  lambda"]
    table += [f"{row['m']:>3}  {row['lambda']:>6}" for row in rows]
    if cfg.m_lo == 1:
        try:
            m0, chi_m = quasi_unipotent_period(acampo_sequence(res, cfg.m_hi))
        except JetzetaError:
            pass
        else:
            report["m0"] = m0
            report["chi_milnor"] = chi_m
            table.append(f"period m0 = {m0}, chi_milnor = {chi_m}")
    return report, table, EXIT_OK


# -- count -------------------------------------------------------------------

def cmd_count(cfg: RunConfig) -> Outcome:
    if cfg.m_lo != cfg.m_hi:
        raise MalformedDataError("count takes a single m, not a range")
    f, at = _poly_and_point(cfg)
    orders = JetOrders(f, at, (cfg.m_lo,), cfg.primes,
                       node_budget=cfg.node_budget)
    entries = orders.interp(cfg.m_lo)[1].to_json()
    report = {"command": "count", "f": cfg.poly,
              "at": [str(c) for c in at], "m": cfg.m_lo, "entries": entries}
    table = [f"jet counts for {cfg.poly} at m = {cfg.m_lo}", f"{'q':>8}  N"]
    table += [f"{q:>8}  {c}" for q, c in entries]
    return report, table, EXIT_OK


# -- polytope ----------------------------------------------------------------

def _load_polytope(path: str) -> tuple[PolySet, AffineFormPW]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MalformedDataError(f"cannot read polytope file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedDataError(f"polytope file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "set" not in data:
        raise MalformedDataError('polytope file needs a "set" entry')
    try:
        S = PolySet.from_json(data["set"])
        form = (AffineFormPW.from_json(data["form"], S.n)
                if "form" in data else AffineFormPW.constant(S.n, 0))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise MalformedDataError(f"bad polytope data: {exc}") from exc
    return S, form


def _tpoly_str(p: LaurentPoly) -> str:
    # alpha values live in T, not L; reuse the printer with the letter swapped
    return str(p).replace("L", "T")


def cmd_polytope(cfg: RunConfig) -> Outcome:
    S, form = _load_polytope(cfg.data)
    report: dict = {"command": "polytope", "action": cfg.action,
                    "data": cfg.data}
    table = [f"polytope {cfg.action} of {cfg.data}"]
    if cfg.action == "chi":
        report["chi"] = chi_bounded(S)
        table.append(f"chi = {report['chi']}")
        return report, table, EXIT_OK
    if cfg.action == "alpha":
        a = alpha_m(S, cfg.m_lo)
        report["m"] = cfg.m_lo
        report["alpha"] = a.to_json()
        table.append(f"alpha_{cfg.m_lo} = {_tpoly_str(a)}")
        return report, table, EXIT_OK
    M = cfg.terms if cfg.terms is not None else 16
    try:
        Z = zeta_polytope(S, form, M)
    except LimitMismatchError as exc:
        report["verdict"] = "MISMATCH"
        report["detail"] = str(exc)
        table.append(f"limit identity failed: {exc}")
        return report, table, EXIT_DISAGREE
    lim = ds_limit(Z)
    report["series"] = Z.to_json()
    report["limit"] = lim.to_json()
    report["minus_chi"] = lim.eval_at_one()
    report["verdict"] = "OK"
    table.append(f"Z = {Z}")
    table.append(f"limit = {lim}, -chi = {report['minus_chi']}, verdict OK")
    return report, table, EXIT_OK


# -- entry point -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetzeta",
        description="Euler characteristics of jet loci, monodromy Lefschetz "
                    "numbers, motivic zeta functions, polytope calculus.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-f", "--poly", required=True,
                       help="polynomial in x1..xn, e.g. 'x1^2 + x2^3'")
        p.add_argument("--at", default=None,
                       help="base point, comma-separated rationals (default: origin)")
        p.add_argument("--primes", type=int, default=None,
                       help="prime budget per interpolation")
        p.add_argument("--node-budget", type=int, default=NODE_BUDGET,
                       help="recursion work cap per point count (a "
                            "subsystem an earlier order solved over the same "
                            "field is free); exhausting it exits with code 4")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; every count runs "
                            "on the calling thread")
        p.add_argument("--json", action="store_true", dest="output_json")

    p_lef = sub.add_parser("lefschetz",
                           help="jet-route chi_c, cross-checked against A'Campo")
    common(p_lef)
    p_lef.add_argument("-m", "--m-range", default="1..6", help="single m or LO..HI")
    p_lef.add_argument("--resolution", default=None,
                       help="resolution fixture JSON for the oracle column")

    p_zeta = sub.add_parser("zeta", help="fitted motivic zeta and Milnor fiber")
    common(p_zeta)
    p_zeta.add_argument("-M", "--terms", type=int, default=None,
                        help="series terms to compute (default 8, or 2*maxN+2 "
                             "with a fixture)")
    p_zeta.add_argument("--resolution", default=None)

    p_ac = sub.add_parser("acampo", help="A'Campo numbers from a fixture")
    p_ac.add_argument("--resolution", required=True)
    p_ac.add_argument("-m", "--m-range", default="1..12")
    p_ac.add_argument("--json", action="store_true", dest="output_json")

    p_count = sub.add_parser("count", help="raw point-count table at one m")
    common(p_count)
    p_count.add_argument("-m", "--m-range", default="1", help="single m or LO..HI")

    p_poly = sub.add_parser("polytope", help="chi / alpha / series of a cell set")
    p_poly.add_argument("action", choices=["chi", "alpha", "series"])
    p_poly.add_argument("data", help="polytope JSON file")
    p_poly.add_argument("-m", "--m-range", default="1")
    p_poly.add_argument("-M", "--terms", type=int, default=None)
    p_poly.add_argument("--json", action="store_true", dest="output_json")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    kw = {f.name: given[f.name] for f in fields(RunConfig) if f.name in given}
    if "m_range" in given:
        kw["m_lo"], kw["m_hi"] = _parse_m_range(args.m_range)
    kw["at"] = _parse_point(kw["at"]) if kw.get("at") else None
    cfg = RunConfig(**kw)
    # --threads is checked, and otherwise ignored: counts run on this thread
    if given.get("threads", 1) < 1:
        raise MalformedDataError("thread count must be positive")
    return cfg


_COMMANDS = {
    "lefschetz": cmd_lefschetz,
    "zeta": cmd_zeta,
    "acampo": cmd_acampo,
    "count": cmd_count,
    "polytope": cmd_polytope,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        report, table, code = _COMMANDS[cfg.command](cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except LimitMismatchError as exc:
        print(f"oracle disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREE
    except (JetzetaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.output_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in table:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
