"""End-to-end command-line checks: outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

import pytest

import jetzeta.jets.classify as classify
from jetzeta.cli import main
from jetzeta.errors import ResourceLimitError
from jetzeta.gamma.cells import PolySet
from jetzeta.jets.count import count_points

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_lefschetz_square(capsys):
    code, rep = run_json(capsys, ["lefschetz", "-f", "x1^2", "-m", "1..2"])
    assert code == 0
    assert [r["chi"] for r in rep["rows"]] == [0, 2]
    assert rep["disagreements"] == 0


def test_lefschetz_smooth_point(capsys):
    code, rep = run_json(capsys, ["lefschetz", "-f", "x1", "-m", "1"])
    assert code == 0
    assert [r["chi"] for r in rep["rows"]] == [1]


def test_lefschetz_cusp_agrees(capsys):
    code, rep = run_json(capsys, [
        "lefschetz", "-f", "x1^2 + x2^3", "-m", "1..5",
        "--resolution", str(FIXTURES / "cusp" / "resolution.json")])
    assert code == 0
    assert [r["chi"] for r in rep["rows"]] == [0, 2, 3, 2, 0]
    assert [r["lambda"] for r in rep["rows"]] == [0, 2, 3, 2, 0]
    assert all(r["verdict"] == "AGREE" for r in rep["rows"])


def test_lefschetz_disagree_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "d": 2,
        "components": [{"id": "E1", "N": 2, "nu": 2}],
        "strata": [{"ids": ["E1"], "chi": 5}],
    }), encoding="utf-8")
    code, rep = run_json(capsys, ["lefschetz", "-f", "x1^2 + x2^3",
                                  "-m", "2", "--resolution", str(bad)])
    assert code == 3
    assert rep["rows"][0]["verdict"] == "DISAGREE"
    assert rep["rows"][0]["lambda"] == 10


def test_lefschetz_failed_rows_marked_run_continues(capsys):
    code, rep = run_json(capsys, ["lefschetz", "-f", "x1^2 + x2^3",
                                  "-m", "1..3", "--node-budget", "40"])
    # m=3 runs out of budget on every route: a resource row, exit 4
    assert code == 4
    assert [r["m"] for r in rep["rows"]] == [1, 2, 3]
    assert rep["rows"][2]["error_kind"] == "resource"


def test_lefschetz_table_output(capsys):
    code = main(["lefschetz", "-f", "x1^2", "-m", "2..2",
                 "--resolution", str(FIXTURES / "x2" / "resolution.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "AGREE" in out and "lambda" in out


def test_zeta_square(capsys):
    code, rep = run_json(capsys, ["zeta", "-f", "x1^2", "-M", "8"])
    assert code == 0
    assert rep["fitted"] == {"num": [[2, [[-1, 2]]]], "den": [[-1, 2]]}
    assert rep["milnor_fiber"] == [[0, 2]]
    assert rep["chi"] == 2


def test_zeta_smooth(capsys):
    code, rep = run_json(capsys, ["zeta", "-f", "x1", "-M", "6"])
    assert code == 0
    assert rep["chi"] == 1
    assert rep["milnor_fiber"] == [[0, 1]]


def test_zeta_node(capsys):
    code, rep = run_json(capsys, ["zeta", "-f", "x1*x2", "-M", "6"])
    assert code == 0
    assert rep["chi"] == 0
    assert rep["fitted"]["den"] == [[-1, 1], [-1, 1]]


def test_zeta_fit_failure_reports_candidates(capsys):
    code, rep = run_json(capsys, ["zeta", "-f", "x1", "-M", "4"])
    assert code == 2
    assert rep["fit_failed"] is True
    assert [-1, 1] in rep["candidates"]
    assert len(rep["prefix"]) == 5


def test_zeta_with_fixture_period_check(capsys):
    code, rep = run_json(capsys, [
        "zeta", "-f", "x1^2",
        "--resolution", str(FIXTURES / "x2" / "resolution.json")])
    assert code == 0
    assert rep["M"] == 6
    assert rep["period_check"] == {"m0": 2, "chi_milnor": 2, "verdict": "OK"}


def test_acampo_cusp(capsys):
    code, rep = run_json(capsys, [
        "acampo", "--resolution", str(FIXTURES / "cusp" / "resolution.json"),
        "-m", "1..12"])
    assert code == 0
    assert [r["lambda"] for r in rep["rows"]] == \
        [0, 2, 3, 2, 0, -1, 0, 2, 3, 2, 0, -1]
    assert rep["m0"] == 6 and rep["chi_milnor"] == -1


def test_count_square(capsys):
    code, rep = run_json(capsys, ["count", "-f", "x1^2", "-m", "2",
                                  "--primes", "4"])
    assert code == 0
    assert rep["entries"] == [[3, 6], [5, 10], [7, 14], [11, 22]]


def test_count_rejects_range(capsys):
    assert main(["count", "-f", "x1^2", "-m", "1..3"]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_position(capsys):
    assert main(["lefschetz", "-f", "x1 + x^2", "-m", "1"]) == 2
    assert capsys.readouterr().err == (
        "parse error: variable needs an index (x1, x2, ...) (at position 5)\n")


@pytest.mark.parametrize("argv, d, n", [
    (["lefschetz", "-f", "x1^2", "-m", "1..4",
      "--resolution", str(FIXTURES / "a1" / "resolution.json")], 2, 1),
    (["zeta", "-f", "x1^2 + x2^2",
      "--resolution", str(FIXTURES / "x2" / "resolution.json")], 1, 2),
])
def test_fixture_of_another_dimension_exits_2(capsys, argv, d, n):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: resolution fixture has dimension d = {d}, "
                   f"polynomial has {n} variables\n")


def test_bad_inputs_exit_2(capsys):
    assert main(["lefschetz", "-f", "x1^2", "-m", "3..1"]) == 2
    capsys.readouterr()
    assert main(["lefschetz", "-f", "x1^2", "--at", "0,0", "-m", "1"]) == 2
    capsys.readouterr()
    assert main(["zeta", "-f", "x1^2", "-M", "0"]) == 2
    capsys.readouterr()
    assert main(["acampo", "--resolution", "/nonexistent.json"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_resource_limit_exit_4(capsys):
    code = main(["count", "-f", "x1^3 + x2^3 + x3^3", "-m", "3",
                 "--node-budget", "5"])
    assert code == 4
    assert "resource limit" in capsys.readouterr().err


def test_polytope_chi_alpha_series(capsys, tmp_path):
    closed = tmp_path / "closed.json"
    closed.write_text(json.dumps({"set": PolySet.interval(0, 1).to_json()}),
                      encoding="utf-8")
    code, rep = run_json(capsys, ["polytope", "chi", str(closed)])
    assert code == 0 and rep["chi"] == 1

    origin = tmp_path / "origin.json"
    origin.write_text(json.dumps({"set": PolySet.point([0]).to_json()}),
                      encoding="utf-8")
    code, rep = run_json(capsys, ["polytope", "alpha", str(origin), "-m", "1"])
    assert code == 0 and rep["alpha"] == [[0, -1], [1, 1]]
    code = main(["polytope", "alpha", str(origin), "-m", "1"])
    assert "alpha_1 = T - 1" in capsys.readouterr().out
    assert code == 0

    opened = tmp_path / "open.json"
    opened.write_text(
        json.dumps({"set": PolySet.interval(0, 1, False, False).to_json()}),
        encoding="utf-8")
    code, rep = run_json(capsys, ["polytope", "series", str(opened)])
    assert code == 0
    assert rep["verdict"] == "OK"
    assert rep["minus_chi"] == 1
    assert rep["limit"] == [[0, 1]]


def test_json_round_trip(capsys):
    code, rep = run_json(capsys, ["zeta", "-f", "x1^2", "-M", "6"])
    assert code == 0
    assert json.loads(json.dumps(rep, sort_keys=True)) == rep


def test_thread_count_does_not_change_output(capsys):
    argv = ["lefschetz", "-f", "x1*x2", "-m", "1..4", "--json"]
    assert main(argv + ["--threads", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main(argv + ["--threads", "4"]) == 0
    out4 = capsys.readouterr().out
    assert out1 == out4


def test_counts_start_no_thread(capsys, monkeypatch):
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    for argv in (["lefschetz", "-f", "x1^2 + x2^3", "-m", "1..3"],
                 ["count", "-f", "x1*x2", "-m", "3"],
                 ["zeta", "-f", "x1^2", "-M", "6"]):
        assert main(argv + ["--threads", "8", "--json"]) == 0
    capsys.readouterr()
    assert started == []


# SHA-256 of the --json report, recorded when every order was counted on its
# own; counting the orders field by field must not change a byte
REPORT_DIGESTS = [
    (["zeta", "-f", "x1*x2", "-M", "12"],
     "6963528b3d6f592c7f4e997f107ed3a381a9c208cf3ac8bd0a740603897a224a"),
    # recorded when count built its own prime pool and table
    (["count", "-f", "x1^2 + x2^3", "-m", "6"],
     "a3f1de6d165c58afb64b63e84dc9236f3a810720441560b66cb5726226d9c6a2"),
    (["count", "-f", "x1*x2", "-m", "3"],
     "54753ffd1bdbff0fd149b3697be9a46132d7a9b36226d2bb0ec5036ab46adb37"),
] + [
    (["lefschetz", "-f", poly, "-m", "1..6",
      "--resolution", str(FIXTURES / name / "resolution.json")], digest)
    for name, poly, digest in [
        ("x2", "x1^2",
         "d5e36e47cad14aab2ea6f813beb03448de5c7d48eec5a54dc9a67242ec670666"),
        ("x3", "x1^3",
         "d18d3e3549ed3757ec52e991dde82563b744ce98b7c658ae90bd18c3c10766a1"),
        ("node", "x1*x2",
         "46404f2a20b777ee1ce892f2817887465c8d85778a45cc0590ee41c5b5966998"),
        ("a1", "x1^2 + x2^2",
         "89e3aee350ec00aee62a1846573c06aba93666fb4dc47d270a63d3a3861a9338"),
        ("cusp", "x1^2 + x2^3",
         "2044a0b50910e272aa4b160a22bc33e12da5b418164f13ec97e849d2aa5944b3"),
    ]
]


@pytest.mark.parametrize("argv, digest", REPORT_DIGESTS,
                         ids=[" ".join(argv[:3]) for argv, _ in REPORT_DIGESTS])
def test_report_pinned(capsys, argv, digest):
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lefschetz_count_error_in_its_row_only(capsys, monkeypatch):
    def count(sys, q, node_budget, memo=None):
        if sys.m == 3:
            raise ResourceLimitError("count budget exhausted")
        return count_points(sys, q, node_budget, memo)

    monkeypatch.setattr(classify, "count_points", count)
    code, rep = run_json(capsys, ["lefschetz", "-f", "x1*x2", "-m", "1..5"])
    assert code == 4
    assert [("error" in r, r["m"]) for r in rep["rows"]] == [
        (False, 1), (False, 2), (True, 3), (False, 4), (False, 5)]
    assert rep["rows"][2]["error_kind"] == "resource"
