"""Record the benchmark's end-to-end metrics as BENCH_<n>.json.

Runs `python3 scanbench/run.py --workload W --seed S --seconds T --trace 0`
in a checkout, once per workload and seed, and writes the median and the
interquartile range of every end-to-end metric, with the machine, the library
versions, the BLAS thread setting, the checkout's git sha and the line count of
its `src/`.  Given a second checkout (`--parent`), it runs the two in pairs,
alternating which goes first, writes the parent's file too, and quotes in the
first file each metric's median ratio against the parent and the number of
pairs in which it is better.

    python3 tools/bench_record.py --out BENCH_21.json \
        --parent ../parent --parent-out BENCH_0.json --pr 21 --parent-pr 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(9401, 9411))
SCHEMA = 1


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of a workload in a checkout: its JSON result line."""
    out = subprocess.run(
        [sys.executable, "scanbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed nothing:\n{out.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def git_sha(tree: Path, given: str | None) -> str:
    if given:
        return given
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src").rglob("*.py")))


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def record(tree: Path, pr: int, sha: str, runs: dict, seeds, seconds, units) -> dict:
    workloads = {}
    for workload, results in runs.items():
        names = results[0]["metrics"]
        workloads[workload] = {
            "runs": len(results),
            "correct": sum(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {name: {"unit": units[name],
                               **quartiles([r["metrics"][name]["value"] for r in results])}
                        for name in names},
        }
    return {
        "schema": SCHEMA,
        "pr": pr,
        "git_sha": sha,
        "src_lines": src_lines(tree),
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "blas_threads": "1 (OMP/OPENBLAS/MKL_NUM_THREADS, set by scanbench/run.py)"},
        "versions": versions(),
        "command": "python3 scanbench/run.py --workload W --seed S --seconds T --trace 0",
        "seeds": list(seeds),
        "seconds": seconds,
        "workloads": workloads,
    }


def delta(change: dict, parent: dict, better: dict, pairs: dict) -> dict:
    """Per workload and metric: the median ratio change/parent and the pairs won."""
    out = {}
    for workload, data in change["workloads"].items():
        out[workload] = {}
        for name, m in data["metrics"].items():
            p = parent["workloads"][workload]["metrics"][name]
            sign = 1 if better[name] == "lower" else -1
            won = sum(sign * (c - q) < 0 for c, q in pairs[workload][name])
            out[workload][name] = {
                "parent_median": p["median"], "median": m["median"],
                "ratio": m["median"] / p["median"] if p["median"] else None,
                "better_pairs": won, "pairs": len(pairs[workload][name]),
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--tree", type=Path, default=ROOT, help="the checkout to run (default: this one)")
    ap.add_argument("--pr", type=int, required=True, help="the n of BENCH_<n>.json")
    ap.add_argument("--sha", help="git sha to record where the checkout has no .git")
    ap.add_argument("--parent", type=Path, help="a second checkout, run in pairs with the first")
    ap.add_argument("--parent-out", type=Path)
    ap.add_argument("--parent-pr", type=int, default=0)
    ap.add_argument("--parent-sha")
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.parent is not None and args.parent_out is None:
        ap.error("--parent needs --parent-out")
    bench = json.loads((args.tree / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    trees = [args.tree] + ([args.parent] if args.parent is not None else [])
    runs = [{w: [] for w in workloads} for _ in trees]
    for workload in workloads:
        for k, seed in enumerate(args.seeds):
            order = range(len(trees)) if k % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                result = run_once(trees[i], workload, seed, args.seconds)
                runs[i][workload].append(result)
                print(f"{trees[i]} {workload} seed {seed}: " + ", ".join(
                    f"{n} {v['value']:.4g}" for n, v in result["metrics"].items()), file=sys.stderr)
    change = record(args.tree, args.pr, git_sha(args.tree, args.sha), runs[0], args.seeds,
                    args.seconds, units)
    if args.parent is not None:
        parent = record(args.parent, args.parent_pr, git_sha(args.parent, args.parent_sha),
                        runs[1], args.seeds, args.seconds, units)
        pairs = {w: {n: [(c["metrics"][n]["value"], p["metrics"][n]["value"])
                         for c, p in zip(runs[0][w], runs[1][w])]
                     for n in runs[0][w][0]["metrics"]} for w in workloads}
        change["against"] = {"file": args.parent_out.name,
                             "delta": delta(change, parent, better, pairs)}
        args.parent_out.write_text(json.dumps(parent, indent=1) + "\n")
    args.out.write_text(json.dumps(change, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
