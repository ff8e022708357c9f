"""Repeat benchmark runs over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME [--seeds 1-10] [--trace 0|1]
                                [--seconds S] [--out PATH]

Each run is a fresh process of run.py.  For every metric the summary gives
the values, their median and quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median; for end-to-end metrics also the bound from
BENCHMARK.json and whether the spread stays under a third of it.  The
summary, with every run's result line and environment block, is printed and
written as JSON (default perfbench/out/).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(HERE, "out", f"{args.workload}-seed{seed}-trace{args.trace}.json")) as fh:
            full = json.load(fh)
        res.update(seed=seed, environment=full["environment"], inputs=full["inputs"])
        runs.append(res)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
            if k in bounds or args.trace == 0), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        row = {"unit": runs[0]["metrics"][name]["unit"], "values": values,
               "median": statistics.median(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3,
                       spread=(q3 - q1) / row["median"] if row["median"] else None)
        if name in bounds:
            row["bound"] = bounds[name]
            row["steady"] = row.get("spread") is not None and row["spread"] < bounds[name] / 3
        summary[name] = row
    doc = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
           "seeds": args.seeds, "failed": sum(r["failed"] for r in runs),
           "attempted": sum(r["attempted"] for r in runs),
           "all_correct": all(r["correct"] for r in runs), "metrics": summary,
           "runs": runs}
    out = args.out or os.path.join(HERE, "out", f"repeat-{args.workload}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    if args.trace == 0:
        for name, row in summary.items():
            print(f"{name:<12} median={row['median']:.5g} spread={row.get('spread', 0):.4f} "
                  f"bound={row.get('bound')} steady={row.get('steady')}")
    print(f"failed {doc['failed']} of {doc['attempted']} ops -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
