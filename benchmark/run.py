"""alphabezier benchmark: one command for every end-to-end or per-layer metric.

    python3 benchmark/run.py --workload render|geometry|pointwise \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nothing is installed.  Each measurement runs
in a fresh single-threaded process (BLAS and OpenMP pinned to one thread).
``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a traced run.  Human-readable lines come
first; the last stdout line is the JSON result.  A record of each run, with
the python/numpy versions, core count and seed, is written to
``benchmark/out/``.  Metric names and units are those declared in
``BENCHMARK.json``; ``benchmark/README.md`` defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes whose set-up time gives the setup_s median.
SETUP_RUNS = 5

#: Whole run, set-up processes included, must end within this (seconds).
BUDGET_S = 170.0

PIN_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PIN_THREADS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("ALPHABEZIER_SEED", None)
    return env


def run_child(role: str, args, deadline: float, workdir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--deadline", repr(deadline),
           "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    timeout = max(deadline - time.time(), 1.0) + 5.0
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{role} process exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("render", "geometry", "pointwise"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for benchmark/smoke.py")
    args = ap.parse_args()
    start = time.time()
    deadline = start + BUDGET_S
    if not (SRC / "alphabezier" / "__init__.py").is_file():
        fail(f"no alphabezier sources under {SRC}; run from a source checkout")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            res = run_child("trace", args, deadline, workdir)
            values = res["metrics"]
        else:
            setups = [run_child("setup", args, min(deadline, time.time() + 60.0), workdir)
                      ["setup_s"] for _ in range(1 if args.smoke else SETUP_RUNS - 1)]
            res = run_child("measure", args, deadline, workdir)
            setups.append(res["setup_s"])
            values = dict(res["metrics"], setup_s=statistics.median(setups))
            res["setup_samples_s"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = dict(res, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  wall_s=time.time() - start, result=result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    env = res["env"]
    print(f"# {args.workload} seed={env['seed']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} blas_threads={env['blas_threads']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    if args.trace:
        print("# layer shares of traced op time: "
              + " ".join(f"{k}={v:.3f}" for k, v in res["shares"].items()))
        print(f"# share check ({res['share_rule']}): "
              f"{'pass' if res['metrics']['trace.share_check'] else 'FAIL'}")
        for key, ref in res["roadmap_ms"].items():
            print(f"# {key} = {res['metrics'][key]:.1f} ms (ROADMAP: {ref:.0f} ms)")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
