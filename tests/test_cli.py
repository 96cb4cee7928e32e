"""End-to-end command-line checks: outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import jetzeta
import jetzeta.cli as cli
import jetzeta.jets.classify as classify
from jetzeta.cli import main
from jetzeta.errors import (ClassNotPolynomialError, LimitMismatchError,
                            ResourceLimitError)
from jetzeta.gamma.cells import PolySet
from jetzeta.gamma.zeta import AffineFormPW
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


def test_bad_inputs_exit_2(capsys, tmp_path):
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
    # each of these prints one error line, not a traceback
    not_json = tmp_path / "not.json"
    not_json.write_text("{not json")
    short_row = tmp_path / "short.json"
    short_row.write_text(json.dumps(
        {"set": {"dim": 2, "cells": [{"le": [[1, 0]]}]}}))
    zero_den_cell = tmp_path / "zero_den_cell.json"
    zero_den_cell.write_text(json.dumps(
        {"set": {"dim": 1, "cells": [{"le": [[1, "1/0"]]}]}}))
    zero_den_guard = tmp_path / "zero_den_guard.json"
    zero_den_guard.write_text(json.dumps(
        {"set": {"dim": 1, "cells": [{"le": [[1, 1], [-1, 0]]}]},
         "form": {"pieces": [{"guard": {"le": [[1, "1/0"]]}, "a": [1]}]}}))
    for argv in (["lefschetz", "-f", "x1^2", "-m", "x"],
                 ["lefschetz", "-f", "x1^2", "--at", "1/0", "-m", "1"],
                 ["polytope", "chi", str(tmp_path / "missing.json")],
                 ["polytope", "chi", str(not_json)],
                 ["polytope", "chi", str(short_row)],
                 ["polytope", "chi", str(zero_den_cell)],
                 ["polytope", "alpha", str(zero_den_cell)],
                 ["polytope", "series", str(zero_den_cell)],
                 ["polytope", "series", str(zero_den_guard)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


# stderr of bad options, recorded before --threads left RunConfig; with
# several faults the first check in RunConfig's order still wins
BAD_OPTIONS = [
    (["lefschetz", "-f", "x1^2", "--primes", "0"],
     "error: prime budget must be positive"),
    (["lefschetz", "-f", "x1^2", "--node-budget", "0"],
     "error: node budget must be positive"),
    (["lefschetz", "-f", "x1^2", "--threads", "0"],
     "error: thread count must be positive"),
    (["count", "-f", "x1^2", "--threads", "0"],
     "error: thread count must be positive"),
    (["zeta", "-f", "x1^2", "-M", "0"], "error: term count must be positive"),
    (["polytope", "series", "unread.json", "-M", "0"],
     "error: term count must be positive"),
    (["lefschetz", "-f", "x1^2", "-m", "0"], "error: empty m-range 0..0"),
    (["polytope", "alpha", "unread.json", "-m", "0"],
     "error: empty m-range 0..0"),
    (["acampo", "--resolution", str(FIXTURES / "cusp" / "resolution.json"),
      "-m", "0"], "error: empty m-range 0..0"),
    (["count", "-f", "x1^2", "-m", "1..2"],
     "error: count takes a single m, not a range"),
    (["lefschetz", "-f", "x1^2", "-m", "3..1", "--at", "1/0"],
     "error: bad base point '1/0'; use e.g. 0,1/3"),
    (["lefschetz", "-f", "x1^2", "-m", "3..1", "--primes", "0"],
     "error: empty m-range 3..1"),
    (["lefschetz", "-f", "x1^2", "--primes", "-3", "--node-budget", "0"],
     "error: prime budget must be positive"),
    (["lefschetz", "-f", "x1^2", "-m", "3..1", "--threads", "0"],
     "error: empty m-range 3..1"),
    (["lefschetz", "-f", "x1^2", "--node-budget", "0", "--threads", "0"],
     "error: node budget must be positive"),
]


@pytest.mark.parametrize("argv, line", BAD_OPTIONS)
def test_bad_option_prints_one_error_line(capsys, argv, line):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", line + "\n")


def test_zeta_rejects_an_m_range(capsys):
    # zeta reads -M; an -m it would ignore is an unknown option
    assert main(["zeta", "-f", "x1^2", "-m", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: -m 3" in err
    assert "Traceback" not in err


def test_order_past_the_platform_limit_is_a_resource_failure(capsys):
    m = str(2 ** 70)
    code, rep = run_json(capsys, ["lefschetz", "-f", "x1^2", "-m", m])
    assert code == 4
    (row,) = rep["rows"]
    assert row["error_kind"] == "resource"
    assert main(["count", "-f", "x1^2", "-m", m]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and "Traceback" not in err


def test_class_error_row_exits_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ClassNotPolynomialError("no fit")

    monkeypatch.setattr(classify, "_residue_route", fail)
    monkeypatch.setattr(classify, "_trace_route", fail)
    code, rep = run_json(capsys, ["lefschetz", "-f", "x1^2 + x2^3", "-m", "6"])
    assert code == 2
    (row,) = rep["rows"]
    assert row["error_kind"] == "class" and "chi" not in row


def test_acampo_too_short_for_a_period(capsys):
    code, rep = run_json(capsys, [
        "acampo", "--resolution", str(FIXTURES / "cusp" / "resolution.json"),
        "-m", "1..2"])
    assert code == 0
    assert [r["lambda"] for r in rep["rows"]] == [0, 2]
    assert "m0" not in rep


def test_resource_limit_exit_4(capsys):
    code = main(["count", "-f", "x1^3 + x2^3 + x3^3", "-m", "3",
                 "--node-budget", "5"])
    assert code == 4
    assert "resource limit" in capsys.readouterr().err


def test_hopeless_zeta_fit_fails_before_counting(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(classify, "count_points",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["zeta", "-f", "x1*x2*x3", "-M", "7"]) == 4
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", "resource limit: ds_fit candidate multiset has too many subsets\n")
    assert calls == []


def _limit_address_space():
    import resource
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("argv", [
    ["lefschetz", "-f", "x1^2", "-m", "1000000000"],
    ["count", "-f", "x1^2", "-m", "1000000000"],
    ["zeta", "-f", "x1^2", "-M", "100000000"],
])
def test_out_of_memory_exits_4(argv):
    # only ever under the 2 GiB address-space limit: unbounded, these runs
    # would take what memory the machine has
    src = str(Path(jetzeta.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "jetzeta.cli", *argv],
                         capture_output=True, text=True, env=env,
                         preexec_fn=_limit_address_space, timeout=300)
    assert run.returncode == 4
    assert run.stderr == "resource limit: out of memory\n"
    assert run.stdout == ""


def test_polytope_series_mismatch_exits_3(capsys, tmp_path, monkeypatch):
    def mismatch(*args):
        raise LimitMismatchError("limit 2 is not -chi = 1")

    monkeypatch.setattr(cli, "zeta_polytope", mismatch)
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"set": PolySet.interval(0, 1).to_json()}),
                   encoding="utf-8")
    code, rep = run_json(capsys, ["polytope", "series", str(box)])
    assert code == 3
    assert rep["verdict"] == "MISMATCH"
    assert rep["detail"] == "limit 2 is not -chi = 1"


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


UNIT_CELL = {"le": [[1, 1], [-1, 0]]}


def _unit_form(**piece):
    return {"set": {"dim": 1, "cells": [UNIT_CELL]},
            "form": {"pieces": [{"guard": {}, "a": [1], **piece}]}}


# malformed shapes and inexact numbers: each is one error line, exit 2
BAD_POLYTOPE_FILES = [
    {"set": {"dim": 1, "cells": "abc"}},
    {"set": {"dim": 1, "cells": ["abc"]}},
    {"set": {"dim": 1, "cells": [123]}},
    {"set": {"dim": 1, "cells": {"a": 1}}},
    _unit_form(guard="x"),
    {"set": {"dim": 1, "cells": [{"le": [[]]}]}},
    _unit_form(a=[1.5]),
    _unit_form(a=[True]),
    _unit_form(b=0.9),
    {"set": {"dim": 1, "cells": [{"le": [[1.9, 1]]}]}},
    {"set": {"dim": 1.7, "cells": [UNIT_CELL]}},
    {"set": {"dim": 1, "cells": [{"le": [[1, True]]}]}},
]


@pytest.mark.parametrize("data", BAD_POLYTOPE_FILES)
def test_bad_polytope_file_prints_one_error_line(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["polytope", "series", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad polytope data: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_polytope_integer_strings_read_exactly(capsys, tmp_path):
    # "2" is the integer 2 and "3/2" the rational 3/2, as before
    outputs = []
    for a in (["2"], [2]):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(_unit_form(a=a, b="-1")), encoding="utf-8")
        assert main(["polytope", "series", str(path), "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    half = tmp_path / "half.json"
    half.write_text(json.dumps(
        {"set": {"dim": 1, "cells": [{"le": [[1, "3/2"], [-1, 0]]}]}}),
        encoding="utf-8")
    code, rep = run_json(capsys, ["polytope", "alpha", str(half), "-m", "2"])
    assert code == 0 and rep["alpha"] == [[-3, -1], [1, 1]]


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
    # recorded when the residue route counted every class of q mod D
    (["lefschetz", "-f", "x1^2 + x2^2 + x3^3", "-m", "1..6"],
     "dd78122046833a0682dddb9934e0d13d2eab302802bababdd33c786c808b9782"),
    (["zeta", "-f", "x1^2 + x2^2", "-M", "8"],
     "fcf06bc2e521aeaa1eb892e9bd48169bfd478c9384cbb6010b37c8b08f783977"),
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


# A1 past the orders above, recorded while count_points still pinned the
# roots of a quadratic variable whose discriminant is a constant times a
# square monomial, the rule these orders took most; ids name the orders,
# since the germ alone is already the id of an entry above
A1_HIGH_ORDER_DIGESTS = [
    (["lefschetz", "-f", "x1^2 + x2^2", "-m", "7..12"],
     "ffd4b2b9a9662a3ea34118c44e2447410bf6380959116618bfa55bc94e2396f0"),
    (["zeta", "-f", "x1^2 + x2^2", "-M", "12"],
     "e427acec8eb8e276e5b4d75d40534787ae74f45ff8944bfbf98d85556c5787b2"),
]


@pytest.mark.parametrize("argv, digest", REPORT_DIGESTS + A1_HIGH_ORDER_DIGESTS,
                         ids=[" ".join(argv[:3]) for argv, _ in REPORT_DIGESTS]
                         + [" ".join(argv) for argv, _ in A1_HIGH_ORDER_DIGESTS])
def test_report_pinned(capsys, argv, digest):
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# reports with class rows, whose counts take the line sweep over fields up
# to 5^10; recorded while the sweep evaluated all q + 1 directions at once
@pytest.mark.parametrize("argv, code, digest", [
    (["lefschetz", "-f", "x1^4 + x2^4", "-m", "4..5"], 2,
     "6726d668d699df3f56506796160be061a6cbd7e301d15eb28c3590f366010f25"),
    (["lefschetz", "-f", "x1^3 + x2^3", "-m", "3"], 2,
     "bd69851cdbb5f0a18c73e36b73912eb2f342826307e51ef028a7b198908fce26"),
], ids=["x1^4 + x2^4 -m 4..5", "x1^3 + x2^3 -m 3"])
def test_failing_report_pinned(capsys, argv, code, digest):
    assert main(argv + ["--json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of reports that run the Dagger layer (zeta fits and polytope
# series), recorded while its rows were {exponent: coefficient} dicts;
# packing them into ints must not change a byte
@pytest.mark.parametrize("argv, digest", [
    (["zeta", "-f", "x1^3", "--resolution", str(FIXTURES / "x3" / "resolution.json")],
     "2049100a6dc17c180208a44d9dad82bcd0e5489c2d5a2fd31dc011171caf664b"),
    (["zeta", "-f", "x1*x2", "-M", "16"],
     "3b0b1154005b79ea7ef2eb0ce1b2972b5b098c22db03f64f23f1f0ed123d7597"),
], ids=["zeta x1^3 --resolution x3", "zeta x1*x2 -M 16"])
def test_dagger_report_pinned(capsys, argv, digest):
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def criterion6_case(index: int) -> tuple[PolySet, AffineFormPW]:
    """Random interval product number `index` of acceptance criterion 6."""
    rng = random.Random(0xC6_2026)
    for _ in range(index + 1):
        n = rng.randint(1, 3)
        box = []
        for _ in range(n):
            k0, k1 = sorted((rng.randint(-36, 36), rng.randint(-36, 36)))
            box.append((Fraction(k0, 12), Fraction(k1, 12),
                        rng.random() < 0.5, rng.random() < 0.5))
        form = AffineFormPW.linear([rng.randint(-3, 3) for _ in range(n)],
                                   rng.randint(-3, 3))
    return PolySet.box(box), form


# the report echoes the file path in "data", so the file goes under one
# relative name in a fresh working directory
@pytest.mark.parametrize("index, dim, digest", [
    (0, 3, "b8448ee52282112985f6ab9deee6df721e7c72bc0e80d716bf83f0292d13b578"),
    (192, 2, "b886208364f649093bfd328307b1cc27d0ad3dd7867ee14b491edba13bdf32c6"),
])
def test_polytope_series_report_pinned(capsys, tmp_path, monkeypatch, index, dim,
                                       digest):
    S, form = criterion6_case(index)
    assert S.n == dim
    monkeypatch.chdir(tmp_path)
    Path("box.json").write_text(
        json.dumps({"set": S.to_json(), "form": form.to_json()}), encoding="utf-8")
    assert main(["polytope", "series", "box.json", "--json"]) == 0
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
