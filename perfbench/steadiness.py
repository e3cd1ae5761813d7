"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Runs are sequential, one process at a time, from the checkout root. For each
workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the inter-quartile
distance as a share of the median, plus the share of failed commands.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    for name in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
        report(name, results)
    return 0


def report(name: str, results: list[dict]) -> None:
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{name}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"failed share {sorted(shares)}")
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        if len(values) < 2:
            q1 = med = q3 = values[0]
        else:
            q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {metric:30s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {spread:.3f}")


if __name__ == "__main__":
    sys.exit(main())
