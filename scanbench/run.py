"""scanbench: time one scanlab workload and check its outputs.

    python3 scanbench/run.py --workload oracle-risk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; scanlab is imported from its `src/`.  The
workload repeats whole rounds (see workloads.py) until `--seconds` have
passed, then prints one JSON line: `correct`, `attempted`, `failed` and the
metrics, end-to-end ones with `--trace 0` and per-layer ones with
`--trace 1`.  Exit code 0 when every check held, 1 when one failed, 2 when
the arguments or the checkout are unusable.

With `--trace 1` rounds alternate untraced and traced; the per-layer numbers
come from the traced rounds and `trace.overhead_s` is the difference of the
two kinds' median `total_s`.  Spans are written to
`scanbench/runs/trace-<workload>-<seed>.npz`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "fields_per_s": "1/s",
    "decide_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout() -> None:
    """Import scanlab from this checkout's src/ and the benchmark's modules."""
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Rounds of one workload for `seconds`; the result object to print."""
    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS

    workdir = RUNS / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = WORKLOADS[workload](seed, size, workdir)
        tracer = Tracer(workload) if trace else None
        rounds, failures = [], []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            try:
                r = bench.round(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            print(f"{workload} round {len(rounds)}{' traced' if traced else ''}: "
                  f"total {r.total_s:.4f} s, setup {r.setup_s:.4g} s, "
                  f"{r.fields} fields in {r.mc_s:.4f} s, decide median "
                  f"{statistics.median(r.decide_s):.4g} s", file=sys.stderr)
            failures += bench.check(r.outputs, first=not rounds)
            r.outputs = None
            rounds.append((traced, r))
            done = time.perf_counter() - start >= seconds
            if done and (tracer is None or len(rounds) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in dict.fromkeys(failures):
        print(f"{workload}: CHECK FAILED: {message}", file=sys.stderr)
    plain = [r for traced, r in rounds if not traced]
    if tracer is None:
        metrics = {
            "total_s": statistics.median(r.total_s for r in plain),
            "setup_s": statistics.median(r.setup_s for r in plain),
            "fields_per_s": statistics.median(r.fields / r.mc_s for r in plain),
            "decide_s": statistics.median(t for r in plain for t in r.decide_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        traced_rounds = [r for traced, r in rounds if traced]
        overhead = statistics.median(r.total_s for r in traced_rounds) - statistics.median(
            r.total_s for r in plain
        )
        metrics = tracer.layer_metrics(
            held_mb=statistics.median(r.held_mb for r in traced_rounds), overhead_s=overhead
        )
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        tracer.write(RUNS / f"trace-{workload}-{seed}.npz")
    return {
        "correct": not failures,
        "attempted": len(rounds) * bench.ops_per_round,
        "failed": sum(r.failed for _, r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread everywhere: BLAS pools size themselves when numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "scanlab" / "__init__.py").is_file():
        print(f"scanbench: no scanlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    use_checkout()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"scanbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
