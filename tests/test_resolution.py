"""Resolution-driven oracle: A'Campo numbers, zeta assembly, periods."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from jetzeta.algebra.dagger import DaggerSeries
from jetzeta.algebra.laurent import LaurentPoly
from jetzeta.errors import (MalformedDataError, MissingClassError,
                            NoPeriodError)
from jetzeta.jets.classify import zeta_via_jets
from jetzeta.jets.poly import parse_poly
from jetzeta.resolution import (Component, LefschetzSequence, ResolutionData,
                                Stratum, acampo_lefschetz, acampo_sequence,
                                denef_loeser_zeta, load_resolution,
                                quasi_unipotent_period)

L = LaurentPoly.L
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def cusp_data() -> ResolutionData:
    return ResolutionData(2, (Component("E1", 2, 2), Component("E2", 3, 3),
                              Component("E3", 6, 5)),
                          (Stratum(("E1",), 1), Stratum(("E2",), 1),
                           Stratum(("E3",), -1)))


def test_from_json_example():
    data = json.loads('{"d": 2, "components": [{"id": "E1", "N": 2, "nu": 2}],'
                      ' "strata": [{"ids": ["E1"], "chi": 1,'
                      ' "class_L": [[1, 1], [0, -1]]}]}')
    res = ResolutionData.from_json(data)
    assert res.d == 2
    assert res.components == (Component("E1", 2, 2),)
    st = res.strata[0]
    assert st.ids == ("E1",) and st.chi == 1
    assert st.class_L == L(1) + LaurentPoly.from_int(-1)


def test_from_json_malformed():
    good = {"d": 1, "components": [{"id": "E1", "N": 2, "nu": 1}],
            "strata": [{"ids": ["E1"], "chi": 1}]}
    with pytest.raises(MalformedDataError):
        ResolutionData.from_json([good])
    for broken in [
        {**good, "components": [{"id": "E1", "N": 0, "nu": 1}]},
        {**good, "components": [{"id": "E1", "N": 2, "nu": -1}]},
        {**good, "components": [{"id": "E1", "N": "2", "nu": 1}]},
        {**good, "components": [{"id": 7, "N": 2, "nu": 1}]},
        {**good, "components": good["components"] * 2},
        {**good, "strata": [{"ids": [], "chi": 1}]},
        {**good, "strata": [{"ids": ["E9"], "chi": 1}]},
        {**good, "strata": [{"ids": ["E1", "E1"], "chi": 1}]},
        {**good, "strata": [{"ids": ["E1"]}]},
        {**good, "strata": [{"ids": ["E1"], "chi": 1, "class_L": [[0]]}]},
        {**good, "strata": [{"ids": ["E1"], "chi": 1, "class_L": [[0, 1], [0, 2]]}]},
        {**good, "d": 0},
        {"components": good["components"], "strata": good["strata"]},
    ]:
        with pytest.raises(MalformedDataError):
            ResolutionData.from_json(broken)


def test_acampo_cusp_values():
    res = cusp_data()
    assert acampo_lefschetz(res, 6) == -1
    assert acampo_lefschetz(res, 1) == 0
    assert acampo_lefschetz(res, 2) == 2
    assert acampo_lefschetz(res, 3) == 3
    assert acampo_lefschetz(res, 4) == 2
    assert acampo_lefschetz(res, 5) == 0
    with pytest.raises(ValueError):
        acampo_lefschetz(res, 0)


def test_acampo_divisibility_only():
    res = cusp_data()
    for same in [(2, 8, 26), (3, 9, 33), (6, 12, 600), (1, 5, 7, 35)]:
        vals = {acampo_lefschetz(res, m) for m in same}
        assert len(vals) == 1


def test_acampo_sequence_and_fiber_euler():
    res = cusp_data()
    seq = acampo_sequence(res, 12)
    assert seq.values == (0, 2, 3, 2, 0, -1, 0, 2, 3, 2, 0, -1)
    assert res.full_period() == 6
    assert acampo_lefschetz(res, res.full_period()) == -1


def test_lefschetz_sequence_validation():
    with pytest.raises(MalformedDataError):
        LefschetzSequence(())
    for bad in (1.0, True, "2"):
        with pytest.raises(MalformedDataError):
            LefschetzSequence((0, bad))


def test_zeta_monomial_fixtures():
    for a in (2, 3):
        res = ResolutionData(1, (Component("E1", a, 1),),
                             (Stratum(("E1",), 1, LaurentPoly.from_int(a)),))
        Z = denef_loeser_zeta(res, 1)
        assert Z == DaggerSeries.geometric(-1, a, t_shift=a, coeff=L(-1, a))
        f = parse_poly(f"x1^{a}")
        assert Z.expand(6) == zeta_via_jets(f, [0], 1, 6)


def test_zeta_empty_strata_and_missing_class():
    res = ResolutionData(1, (Component("E1", 2, 1),), ())
    assert denef_loeser_zeta(res, 1).is_zero()
    with pytest.raises(MissingClassError):
        denef_loeser_zeta(cusp_data(), 2)
    with pytest.raises(MalformedDataError):
        denef_loeser_zeta(res, 3)


def test_zeta_node_euler_specialization():
    res = load_resolution(FIXTURES / "node" / "resolution.json")
    Z = denef_loeser_zeta(res, 2)
    res_terms = Z.expand(5)
    jet_terms = zeta_via_jets(parse_poly("x1*x2"), [0, 0], 2, 5)
    for m in range(6):
        assert res_terms[m].eval_at_one() == jet_terms[m].eval_at_one()
        assert res_terms[m].eval_at_one() == 0


def test_zeta_stratum_assembly():
    # two singletons plus their pair stratum, coefficients expanded by hand
    res = ResolutionData(2,
                         (Component("E1", 2, 1), Component("E2", 3, 2)),
                         (Stratum(("E1",), 1, LaurentPoly.one()),
                          Stratum(("E2",), 1, L(1)),
                          Stratum(("E1", "E2"), 1, LaurentPoly.one())))
    terms = denef_loeser_zeta(res, 2).expand(6)
    zero = LaurentPoly.zero()
    assert terms == [zero, zero, L(-1), L(-1), L(-2),
                     (L(1) + LaurentPoly.from_int(-1)) * L(-3), L(-3, 2)]


def test_quasi_unipotent_period_examples():
    cusp = LefschetzSequence((0, 2, 3, 2, 0, -1) * 2)
    assert quasi_unipotent_period(cusp) == (6, -1)
    sq = LefschetzSequence((0, 2) * 3)
    assert quasi_unipotent_period(sq) == (2, 2)
    zeros = LefschetzSequence((0,) * 6)
    assert quasi_unipotent_period(zeros) == (1, 0)


def test_quasi_unipotent_period_needs_two_periods():
    short = LefschetzSequence((0, 2, 3, 2))
    with pytest.raises(NoPeriodError):
        quasi_unipotent_period(short)
    aperiodic = LefschetzSequence((0, 1, 2, 3, 4, 5))
    with pytest.raises(NoPeriodError):
        quasi_unipotent_period(aperiodic)


def _period_by_series(vals: tuple[int, ...]) -> tuple[int, int] | None:
    """The least m0 <= M/2 whose rational series
    Sum_{i<=m0} vals_i T^i / (1 - T^m0) expands to the whole sequence."""
    target = [LaurentPoly.zero()] + [LaurentPoly.from_int(v) for v in vals]
    for m0 in range(1, len(vals) // 2 + 1):
        num = {i: LaurentPoly.from_int(vals[i - 1]) for i in range(1, m0 + 1)}
        if DaggerSeries(num, [(0, m0)]).expand(len(vals)) == target:
            return m0, vals[m0 - 1]
    return None


def test_quasi_unipotent_period_matches_series_expansion():
    rng = random.Random(20261019)
    found = []
    for _ in range(300):
        M = rng.randint(1, 14)
        base = [rng.randint(-2, 2) for _ in range(rng.randint(1, 8))]
        vals = [base[i % len(base)] for i in range(M)]
        if rng.random() < 0.3:
            vals[rng.randrange(M)] += rng.choice([-1, 1])
        seq = LefschetzSequence(tuple(vals))
        want = _period_by_series(seq.values)
        if want is None:
            with pytest.raises(NoPeriodError):
                quasi_unipotent_period(seq)
        else:
            assert quasi_unipotent_period(seq) == want, vals
        found.append(want is None)
    # both outcomes occur often
    assert 50 < sum(found) < 250


def test_fixture_files_consistent():
    for name in ("x2", "x3", "node", "a1", "cusp"):
        res = load_resolution(FIXTURES / name / "resolution.json")
        with open(FIXTURES / name / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)
        m_max = len(expected["lefschetz"])
        seq = acampo_sequence(res, m_max)
        assert list(seq.values) == expected["lefschetz"], name
        m0, chi = quasi_unipotent_period(seq)
        assert m0 == expected["m0"], name
        assert chi == expected["chi_milnor"], name
        assert acampo_lefschetz(res, 1) == 0, name


def test_load_resolution_errors(tmp_path):
    with pytest.raises(MalformedDataError):
        load_resolution(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedDataError):
        load_resolution(bad)
