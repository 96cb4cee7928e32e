"""Summarise benchmark runs: median, quartiles and spread per workload and metric.

    python3 bench/summarize.py RUN_OUTPUT... [--out FILE]

Each RUN_OUTPUT holds the standard output of one `bench/run.py` run; its
`record` line carries the environment and every metric.  The spread is the
distance between the first and third quartile as a share of the median, as
`statistics.quantiles(values, n=4)` gives them.  With --out the summary is
also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict


def load_records(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh if line.startswith("record ")]
        if len(lines) != 1:
            raise SystemExit(f"{path}: expected one record line, found {len(lines)}")
        records.append(json.loads(lines[0][len("record "):]))
    return records


def describe(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def summarize(records: list[dict]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for rec in records:
        groups[(rec["env"]["workload"], rec["env"]["trace"])].append(rec)
    out: dict = {}
    for (workload, trace), recs in sorted(groups.items()):
        units = recs[0]["units"]
        entry = out.setdefault(workload, {})
        entry["per_layer" if trace else "end_to_end"] = {
            "runs": len(recs),
            "seeds": [r["env"]["seed"] for r in recs],
            "jobs": recs[0]["env"]["jobs"],
            "threads": recs[0]["env"]["threads"],
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "notes": sorted({f"{k}: {v}" for r in recs for k, v in r["notes"].items()}),
            "metrics": {name: {"unit": unit,
                               **describe([r["metrics"][name] for r in recs])}
                        for name, unit in units.items()},
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outputs", nargs="+")
    parser.add_argument("--out")
    args = parser.parse_args()
    records = load_records(args.outputs)
    summary = summarize(records)
    for workload, kinds in summary.items():
        for kind, data in kinds.items():
            print(f"{workload} {kind}: {data['runs']} runs, "
                  f"{data['failed']} of {data['attempted']} jobs failed")
            for name, m in data["metrics"].items():
                spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
                print(f"  {name:<28} median {m['median']:>12.6g} {m['unit']:<10} "
                      f"q1 {m['q1']:>12.6g}  q3 {m['q3']:>12.6g}  spread {spread}")
    if args.out:
        env = {k: records[0]["env"][k]
               for k in ("commit", "src_sha256", "nproc", "python", "numpy", "machine")}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "workloads": summary}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
