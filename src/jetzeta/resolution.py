"""Monodromy data read off an embedded resolution.

Resolution data is input, never computed: a fixture lists the exceptional
components with their multiplicities N_i (of the pulled-back function) and
nu_i (one plus the discrepancy), and the strata lying over the base point
with their Euler numbers.  A'Campo's formula turns the singleton strata into
Lefschetz numbers of monodromy powers; strata that also carry a class in L
(the class of the associated cyclic-cover stratum) assemble into the
Denef-Loeser form of the motivic zeta function.

Strict-transform components (N = 1) contribute only when listed, so fixtures
for singular points omit them and Lambda(M^1) = 0 comes out automatically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm
from pathlib import Path

from .algebra.dagger import DaggerSeries
from .algebra.laurent import LaurentPoly
from .errors import MalformedDataError, MissingClassError, NoPeriodError

__all__ = [
    "Component", "Stratum", "ResolutionData", "LefschetzSequence",
    "acampo_lefschetz", "acampo_sequence", "denef_loeser_zeta",
    "quasi_unipotent_period", "load_resolution",
]


def _expect_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedDataError(f"{what} must be an integer, got {value!r}")
    return value


def _expect_field(entry: dict, key: str, what: str) -> object:
    if key not in entry:
        raise MalformedDataError(f"{what} is missing the field {key!r}")
    return entry[key]


@dataclass(frozen=True)
class Component:
    """One divisor of the resolution: multiplicity N, log-discrepancy nu."""

    id: str
    N: int
    nu: int

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise MalformedDataError("component id must be a nonempty string")
        if _expect_int(self.N, f"component {self.id}: N") < 1:
            raise MalformedDataError(f"component {self.id}: N must be >= 1")
        if _expect_int(self.nu, f"component {self.id}: nu") < 1:
            raise MalformedDataError(f"component {self.id}: nu must be >= 1")


@dataclass(frozen=True)
class Stratum:
    """Open stratum over the base point: on exactly the components `ids`.

    chi is the Euler number of the stratum itself; class_L, when present, is
    the class of the cyclic-cover stratum sitting over it (for a point
    stratum on a single component of multiplicity N that cover is N points,
    so class_L = N while chi = 1).
    """

    ids: tuple[str, ...]
    chi: int
    class_L: LaurentPoly | None = None

    def __post_init__(self) -> None:
        if not self.ids:
            raise MalformedDataError("stratum must lie on at least one component")
        if len(set(self.ids)) != len(self.ids):
            raise MalformedDataError(f"stratum {self.ids}: repeated component id")
        _expect_int(self.chi, f"stratum {self.ids}: chi")
        if self.class_L is not None and not isinstance(self.class_L, LaurentPoly):
            raise MalformedDataError(f"stratum {self.ids}: class_L must be a LaurentPoly")


@dataclass(frozen=True)
class ResolutionData:
    """Embedded-resolution fixture: ambient dimension, components, strata."""

    d: int
    components: tuple[Component, ...]
    strata: tuple[Stratum, ...]

    def __post_init__(self) -> None:
        if _expect_int(self.d, "ambient dimension d") < 1:
            raise MalformedDataError("ambient dimension d must be >= 1")
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise MalformedDataError("component ids must be unique")
        known = set(ids)
        for st in self.strata:
            for cid in st.ids:
                if cid not in known:
                    raise MalformedDataError(f"stratum references unknown component {cid!r}")

    def component(self, cid: str) -> Component:
        for c in self.components:
            if c.id == cid:
                return c
        raise MalformedDataError(f"unknown component {cid!r}")

    def singleton_strata(self) -> list[tuple[Component, Stratum]]:
        return [(self.component(st.ids[0]), st)
                for st in self.strata if len(st.ids) == 1]

    def full_period(self) -> int:
        """An m divisible by every multiplicity, so every stratum is active."""
        return lcm(*(c.N for c in self.components)) if self.components else 1

    @classmethod
    def from_json(cls, data: object) -> "ResolutionData":
        if not isinstance(data, dict):
            raise MalformedDataError("resolution data must be a JSON object")
        for key in ("d", "components", "strata"):
            if key not in data:
                raise MalformedDataError(f"resolution data is missing {key!r}")
        if not isinstance(data["components"], list) or not isinstance(data["strata"], list):
            raise MalformedDataError("components and strata must be lists")
        comps = []
        for entry in data["components"]:
            if not isinstance(entry, dict):
                raise MalformedDataError("each component must be a JSON object")
            cid = _expect_field(entry, "id", "a component")
            if not isinstance(cid, str):
                raise MalformedDataError(f"component id must be a string, got {cid!r}")
            comps.append(Component(cid,
                                   _expect_field(entry, "N", f"component {cid}"),
                                   _expect_field(entry, "nu", f"component {cid}")))
        strata = []
        for entry in data["strata"]:
            if not isinstance(entry, dict):
                raise MalformedDataError("each stratum must be a JSON object")
            raw_ids = _expect_field(entry, "ids", "a stratum")
            if not isinstance(raw_ids, list) or not all(isinstance(i, str) for i in raw_ids):
                raise MalformedDataError(f"stratum ids must be a list of strings, got {raw_ids!r}")
            cls_L = None
            if entry.get("class_L") is not None:
                cls_L = _parse_class(entry["class_L"], tuple(raw_ids))
            strata.append(Stratum(tuple(raw_ids),
                                  _expect_field(entry, "chi", f"stratum {raw_ids}"),
                                  cls_L))
        return cls(data["d"], tuple(comps), tuple(strata))


def _parse_class(raw: object, ids: tuple[str, ...]) -> LaurentPoly:
    what = f"stratum {ids}: class_L"
    if not isinstance(raw, list):
        raise MalformedDataError(f"{what} must be a list of [exp, coeff] pairs")
    coeffs: dict[int, int] = {}
    for pair in raw:
        if not isinstance(pair, list) or len(pair) != 2:
            raise MalformedDataError(f"{what} entries must be [exp, coeff] pairs")
        e = _expect_int(pair[0], f"{what} exponent")
        if e in coeffs:
            raise MalformedDataError(f"{what} repeats exponent {e}")
        coeffs[e] = _expect_int(pair[1], f"{what} coefficient")
    return LaurentPoly(coeffs)


def load_resolution(path: str | Path) -> ResolutionData:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MalformedDataError(f"cannot read resolution file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedDataError(f"resolution file {path} is not valid JSON: {exc}") from exc
    return ResolutionData.from_json(data)


@dataclass(frozen=True)
class LefschetzSequence:
    """Lambda(M^m) for m = 1..M."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise MalformedDataError("sequence must cover m = 1..M with M >= 1")
        for v in self.values:
            _expect_int(v, "Lefschetz number")


def acampo_lefschetz(res: ResolutionData, m: int) -> int:
    """Lefschetz number of the m-th monodromy power.

    Sums N_i * chi(E_i) over the singleton strata whose multiplicity
    divides m; only the divisibility pattern of m matters.
    """
    if m < 1:
        raise ValueError("monodromy power m must be >= 1")
    return sum(c.N * st.chi for c, st in res.singleton_strata() if m % c.N == 0)


def acampo_sequence(res: ResolutionData, m_max: int) -> LefschetzSequence:
    return LefschetzSequence(tuple(acampo_lefschetz(res, m)
                                   for m in range(1, m_max + 1)))


def denef_loeser_zeta(res: ResolutionData, d: int) -> DaggerSeries:
    """Motivic zeta function assembled from the resolution.

    Sum over strata of (L-1)^(|I|-1) * class_L * prod over i in I of
    L^(-nu_i) T^(N_i) / (1 - L^(-nu_i) T^(N_i)).  Every stratum needs its
    class_L for this route.
    """
    if d != res.d:
        raise MalformedDataError(f"ambient dimension {d} != fixture dimension {res.d}")
    l_minus_1 = LaurentPoly({1: 1, 0: -1})
    total = DaggerSeries.zero()
    for st in res.strata:
        if st.class_L is None:
            raise MissingClassError(
                f"stratum {st.ids} has no class_L; the zeta assembly needs one per stratum")
        term = DaggerSeries.monomial(0, st.class_L * l_minus_1 ** (len(st.ids) - 1))
        for cid in st.ids:
            c = res.component(cid)
            term = term * DaggerSeries.geometric(-c.nu, c.N, t_shift=c.N,
                                                 coeff=LaurentPoly.L(-c.nu))
        total = total + term
    return total


def quasi_unipotent_period(seq: LefschetzSequence) -> tuple[int, int]:
    """Smallest m0 with Sum_m Lambda(M^m) T^m = Sum_{i<=m0} Lambda(M^i) T^i / (1 - T^m0).

    The identity holds on the covered range exactly when Lambda(M^m) =
    Lambda(M^(m - m0)) for every covered m > m0, and at least two full
    periods must be visible (m0 <= M/2).  Returns (m0, Lambda(M^m0)); the
    second entry is the Euler number of the Milnor fiber.
    """
    vals = seq.values
    m_max = len(vals)
    for m0 in range(1, m_max // 2 + 1):
        if vals[m0:] == vals[:-m0]:
            return m0, vals[m0 - 1]
    raise NoPeriodError(
        f"no period m0 <= {m_max // 2} reproduces the sequence; extend past m = {m_max}")
