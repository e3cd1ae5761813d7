"""Benchmark of the tqrabi command line, checked against an independent reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. One process runs one workload as a closed loop: it calls
`tqrabi.cli.main(argv)` in-process for one command after another, times
each call, and after the last timed command checks every CSV the commands
wrote against `reference.py`. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
`--trace 1` the program's functions are wrapped (see `tracing.py`) and the
metrics are the per-layer ones.
"""

import os
import sys
import time

_START = time.perf_counter()

# Pinned before numpy loads: sweeps run in-process and BLAS uses one thread.
PINNED = {"TQRABI_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
          "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up is measured in this process and in this many fresh ones; setup_s is
# the median, because a single import time swings by tens of per cent.
SETUP_PROBES = 2


def _import_program():
    src = ROOT / "src"
    if not (src / "tqrabi" / "cli.py").is_file():
        raise SystemExit(f"error: no tqrabi sources under {src}")
    sys.path.insert(0, str(src))
    import tqrabi.cli
    if Path(tqrabi.cli.__file__).resolve().parent != (src / "tqrabi").resolve():
        raise SystemExit(f"error: imported tqrabi from {tqrabi.cli.__file__}, "
                         f"not from {src}")
    return tqrabi.cli


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _write_inputs(cmds, workdir: Path) -> list[tuple[object, list[str], Path]]:
    jobs = []
    for i, cmd in enumerate(cmds):
        cfg, out = workdir / f"{i:03d}.cfg", workdir / f"{i:03d}.csv"
        cfg.write_text(cmd.model.config_text())
        jobs.append((cmd, cmd.argv(str(cfg), str(out)), out))
    return jobs


def _setup(cli, args, workdir: Path):
    """Input generation and one warm-up command; returns the jobs."""
    jobs = _write_inputs(workloads.generate(args.workload, args.seed, args.seconds),
                         workdir)
    warm = workloads.warmup(args.workload, np.random.default_rng(args.seed))
    (_, warm_argv, _), = _write_inputs([warm], workdir / "warmup")
    if cli.main(warm_argv) != 0:
        raise SystemExit(f"error: warm-up command {warm_argv} failed")
    return jobs


def _probe_setup(args) -> float:
    """Set-up seconds of a fresh process that stops before the timed commands."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-probe"], cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _run_one(cli, argv):
    """Call the CLI once; returns (seconds, exit code or None, error text)."""
    t0 = time.perf_counter()
    try:
        code, err = cli.main(argv), ""
    except Exception:  # a crash is a failed command, not a failed benchmark
        code, err = None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, code, err


def main(argv=None) -> int:
    args = _parse(argv)
    cli = _import_program()

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (workdir / "warmup").mkdir(parents=True, exist_ok=True)
    try:
        jobs = _setup(cli, args, workdir)
        setup_times = [time.perf_counter() - _START]
        if args.setup_probe:
            print(setup_times[0])
            return 0
        if not args.trace:
            setup_times += [_probe_setup(args) for _ in range(SETUP_PROBES)]
        tracer.reset()
        timed = []
        for cmd, cmd_argv, out in jobs:
            seconds, code, err = _run_one(cli, cmd_argv)
            timed.append((seconds, code, err))
            print(f"# {cmd.label}: {seconds:.3f} s", flush=True)
        # Read before the checks, whose reference solves would otherwise
        # count towards the program's peak.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        wall = sum(seconds for seconds, _, _ in timed)
        t_check = time.perf_counter()
        failed = 0
        correct = True
        for (cmd, _, out), (_, code, err) in zip(jobs, timed):
            if code == 0:
                problems = checks.CHECKS[cmd.kind](cmd, str(out))
                tracer.csv_bytes += out.stat().st_size
            else:
                problems = [checks.Problem("exit", math.nan, 0,
                                           f"exit code {code} {err}")]
            if not problems:
                status = "ok"
            elif checks.known_fault(cmd, problems):
                status = f"failed (known fault: {cmd.fault})"
            else:
                status = "WRONG"
                correct = False
            failed += bool(problems)
            print(f"# {cmd.label}: {status}", flush=True)
            for p in problems[:5] if status == "WRONG" else ():
                print(f"#   {p.text} (parity {p.parity:+d}, g={p.g})", file=sys.stderr)
        check_s = time.perf_counter() - t_check
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        tracer.command_s = wall
        values, absent = tracer.metrics()
        values["traced.wall_s"] = wall
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                   for k, v in values.items()}
        print("# absent per-layer metrics: " + (", ".join(absent) or "none"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    print(f"# untimed: set-up {' '.join(f'{t:.3f}' for t in setup_times)} s, "
          f"checks {check_s:.3f} s")
    print("# pinned: " + " ".join(f"{k}={v}" for k, v in PINNED.items())
          + f" (nproc {os.cpu_count()})")
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
