"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import jetzeta.jets.classify  # noqa: E402
import jetzeta.jets.count  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small(rng: random.Random) -> list[workloads.Job]:
    """A few cheap jobs that reach the CLI, jets, algebra, gamma and resolution."""
    pairs = [(workloads._random_limited_series(rng), workloads._random_limited_series(rng))
             for _ in range(3)]
    case = workloads._criterion6_cases(1)[0]
    return [workloads._lefschetz_job("cusp", 1, 2, 2, True),
            workloads._zeta_fixture_job("x2", None),
            workloads._zeta_monomial_job(2),
            workloads._acampo_job(),
            workloads._hadamard_job(pairs),
            workloads._polytope_job(0, *workloads._lattice_symmetry(case, rng))]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, trace, kind):
    monkeypatch.setitem(workloads.WORKLOADS, "zeta-polytope", _small)
    assert run.main(["--workload", "zeta-polytope", "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    text = capsys.readouterr().out
    out = json.loads(text.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] == 6 * (1 + trace)
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    printed_only = {"fail_ratio": "ratio",
                    **({"job_s_p50": "s", "job_s_tail": "s"} if trace == 0 else {})}
    for name, unit in {**declared, **printed_only}.items():
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in text.splitlines()), name


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END_UNITS)


def test_wrong_oracle_value_counts_as_failure(capsys):
    jobs = _small(random.Random(1))
    assert run.run_pass(jobs).failed == 0
    lefschetz, zeta_x2, monomial, acampo, hadamard, box = jobs
    lefschetz.expected = [0, 5, 3, 2, 0, -1]
    zeta_x2.expected = (zeta_x2.expected[0], 3)
    hadamard.expected = hadamard.expected[:-1] + [
        hadamard.expected[-1] + workloads.LaurentPoly.one()]
    box.expected += 1
    measured = run.run_pass(jobs)
    assert measured.failed == 4
    assert len(measured.wall) == 6
    assert "disagrees with its oracle" in capsys.readouterr().err


def _originals() -> dict[str, object]:
    """The functions currently bound at each traced name."""
    return {t: tracing._resolve(t)[2] for t in tracing.all_targets()}


def test_traced_run_restores_the_library():
    before = _originals()
    classify_count = jetzeta.jets.classify.count_points
    untraced, traced = run.run_passes(_small(random.Random(2)), 0.0, trace=True)
    assert (len(untraced), len(traced)) == (1, 1)
    after = _originals()
    assert all(after[name] is fn for name, fn in before.items())
    assert jetzeta.jets.classify.count_points is classify_count
    assert jetzeta.jets.count.count_points is classify_count

    [one] = traced
    assert one.failed == 0
    metrics = tracing.layer_metrics(one.spans, sum(one.wall))
    assert metrics["count.calls"] > 0 and metrics["zeta.calls"] == 1
    # cusp m=1..2, then six zeta terms each for x2 and x1^2
    assert metrics["classify.calls"] == 14
    assert metrics["trace.self_sum_ratio"] == pytest.approx(1.0, abs=0.05)
    # the lefschetz job classifies on pool threads, under its cli.main span
    by_id = {s.sid: s for s in one.spans}
    classes = [s for s in one.spans if s.name.endswith(":class_of_jets") and s.job == 0]
    assert len(classes) == 2
    assert all(by_id[s.parent].name == "jetzeta.cli:main" for s in classes)
    assert all(s.thread != by_id[s.parent].thread for s in classes)


def test_fastest_takes_each_jobs_least_time():
    passes = [run.Pass([3.0, 1.0], [2.0, 1.0], 0), run.Pass([2.0, 4.0], [2.5, 0.5], 0)]
    assert run.fastest(passes) == ([2.0, 1.0], [2.0, 0.5])


def _span(sid, parent, t0, t1, thread=1):
    return tracing.Span(sid, parent, f"test:{sid}", t0, t1, 0, thread)


def test_self_time_subtracts_children_and_shares_concurrent_time():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0),
             _span(2, 0, 2.0, 6.0, thread=2), _span(3, 2, 4.0, 5.0, thread=2)]
    own = tracing.self_times(spans)
    # 0..1 and 6..10 belong to the root; 2..3 is shared by spans 1 and 2
    assert own == pytest.approx({0: 5.0, 1: 1.5, 2: 2.5, 3: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50)
    assert run.tail([float(i) for i in range(1, 19)]) == (18.0, 100)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_polytope_oracle_matches_library_chi():
    rng = random.Random(5)
    for case in workloads._criterion6_cases(40):
        box, _, _ = workloads._lattice_symmetry(case, rng)
        S = workloads.cells.PolySet.box(box)
        assert workloads.box_chi(box) == workloads.cells.chi(S)
