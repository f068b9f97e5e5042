"""Tiny-size smoke test of the benchmark; exits nonzero on the first problem.

    python3 benchmark/smoke.py

1. Copies the checkout's sources (src/, benchmark/, BENCHMARK.json) into a
   fresh directory, runs every workload there at tiny sizes, untraced and
   traced, and checks the result line: the keys, ``correct``, and metric
   names and units equal to those declared in BENCHMARK.json.
2. Feeds each oracle a deliberately corrupted output and checks that it
   rejects it, so a silent oracle cannot pass for a correct program.
3. Copies only BENCHMARK.json and benchmark/ into a scratch directory and
   checks that the command fails there without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def fail(message: str) -> None:
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def copy_sources(dest: Path, with_src: bool) -> None:
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "benchmark", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def check_results(spec: dict, fresh: Path) -> None:
    copy_sources(fresh, with_src=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(workload, trace, cwd=fresh)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-400:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload} result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                fail(f"{workload} trace={trace} metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got) ^ set(want))}")
            print(f"smoke: {workload} trace={trace} ok ({result['attempted']} ops)")


def expect_rejected(label: str, check) -> None:
    try:
        check()
    except oracles.OracleError:
        print(f"smoke: oracle rejects {label}")
        return
    fail(f"oracle accepted {label}")


def check_oracles(workdir: Path) -> None:
    sizes = workloads.TINY
    rng = np.random.default_rng(0)
    render = workloads.Render(5, sizes, workdir)
    ops = render.round(0)
    by_kind = {(op.kind, op.params["fmt"]): op for op in ops}
    for key in (("curve", "csv"), ("basis", "json"), ("subdivide", "csv"), ("fit", "csv")):
        op = by_kind.get(key)
        if op is None:
            continue
        if render.run(op) != 0:
            fail(f"render job {key} failed")
        render.check(op, 0, np.random.default_rng(1))
        path = op.params["out"]
        text = path.read_text()
        # perturb every value column by about 1e-9, far above the oracle tolerances
        lines = text.splitlines()
        if key[1] == "csv":
            out = [lines[0]] + [",".join(c if i < (2 if key[0] == "subdivide" else 1)
                                         else repr(float(c) * (1 + 1e-9) + 1e-9)
                                         for i, c in enumerate(row.split(",")))
                                for row in lines[1:]]
            path.write_text("\n".join(out) + "\n")
        else:
            payload = json.loads(text)
            for entry in payload["samples"]:
                entry["values"] = [v * (1 + 1e-9) + 1e-9 for v in entry["values"]]
            path.write_text(json.dumps(payload))
        expect_rejected(f"perturbed {key[0]} {key[1]}", lambda: render.check(op, 0, rng))
    svg_op = by_kind[("curve", "svg")]
    render.run(svg_op)
    path = svg_op.params["out"]
    path.write_text(path.read_text().replace('points="', 'points="1.0,1.0 ', 1))
    expect_rejected("an svg with an extra point", lambda: render.check(svg_op, 0, rng))
    expect_rejected("a nonzero exit code", lambda: render.check(svg_op, 1, rng))

    geo = workloads.Geometry(5, sizes, workdir)
    op = geo.round(0)[0]
    dist, chain, dense = geo.run(op)
    geo.check(op, (dist, chain, dense), rng)
    expect_rejected("an inflated Hausdorff distance",
                    lambda: geo.check(op, (dist * 1e3 + 1.0, chain, dense), rng))
    expect_rejected("a zero Hausdorff distance", lambda: geo.check(op, (0.0, chain, dense), rng))
    moved = chain.copy()
    moved[len(moved) // 2] += 1e-6
    expect_rejected("a chain whose subpolygons do not join",
                    lambda: geo.check(op, (dist, moved, dense), rng))

    pw = workloads.Pointwise(5, sizes, workdir)
    op = pw.round(0)[0]
    rows, extras = pw.run(op)
    pw.check(op, (rows, extras), rng)
    bad = list(rows[0])
    bad[5] = np.asarray(bad[5]) * (1 + 1e-9)
    expect_rejected("basis values off partition of unity",
                    lambda: pw.check(op, ([tuple(bad)] + rows[1:], extras), rng))


def check_bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    copy_sources(bare, with_src=False)
    proc = run("render", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"smoke: bare directory exits {proc.returncode} without a result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = HERE / "out" / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "bare").mkdir(parents=True)
    (scratch / "fresh").mkdir()
    try:
        check_results(spec, scratch / "fresh")
        check_oracles(scratch / "work")
        check_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
