#!/usr/bin/env python3
"""Run the benchmark in pairs against a parent checkout and summarize.

    python scripts/paired_bench.py --parent ../parent --pairs 10 \\
        --workload train_ctc --workload eval_decode --out BENCH.json

Each pair runs the unchanged ``perfbench/run.py --trace 0`` once in the
parent checkout and once in this tree, on the same seed; which side runs
first alternates from pair to pair, and every pair gets its own seed. The
output holds every run's metrics and, per workload and metric, each side's
median and quartiles, the ratio of the medians (change over parent) and the
share of pairs the change won (a tie counts for neither side). Which way is
better comes from BENCHMARK.json. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: int, size: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--size", size]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr[-2000:], "metrics": {}}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        complete = [p for p in pairs.values() if p.get("parent") and p.get("change")]
        rows = {}
        for name, way in better.items():
            parent = [p["parent"][name] for p in complete if name in p["parent"]]
            change = [p["change"][name] for p in complete if name in p["change"]]
            if not parent or len(parent) != len(change):
                continue
            sign = 1 if way == "higher" else -1
            wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
            ps, cs = quartiles(parent), quartiles(change)
            rows[name] = {
                "better": way,
                "parent": ps,
                "change": cs,
                "ratio_of_medians": cs["median"] / ps["median"] if ps["median"] else None,
                "change_win_share": wins / len(parent),
                "pairs": len(parent),
            }
        out[workload] = rows
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="checkout of the parent commit (for example a git worktree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0:
        ap.error("--pairs must be >= 1 and --seconds >= 0")
    if not (args.parent / "perfbench" / "run.py").is_file():
        ap.error(f"no perfbench/run.py under {args.parent}")

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs = []
    for workload in args.workload:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for position, side in enumerate(order):
                result = run_once(trees[side], workload, seed, args.seconds, args.size)
                runs.append({"workload": workload, "pair": pair, "seed": seed,
                             "side": side, "position": position, **result})
                print(f"{workload} pair {pair} seed {seed} {side}: "
                      f"correct={result['correct']}", file=sys.stderr, flush=True)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "command": spec["command"],
        "seconds": args.seconds,
        "size": args.size,
        "pairs": args.pairs,
        "summary": summarize(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
