"""One fresh benchmark process: set up, then measure or trace one workload.

Started by ``run.py``; prints one JSON object as its last stdout line.

  --role setup    import alphabezier, make inputs, warm up; report the time
  --role measure  setup, then the untraced timed phase (end-to-end metrics)
  --role trace    setup, the ROADMAP probes, an untraced pass and a traced
                  pass over the same rounds (per-layer metrics)
"""

from time import perf_counter

_T0 = perf_counter()  # before numpy and alphabezier are imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import alphabezier as ab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Percentile timings need at least this many ops (10 samples beyond p90).
MIN_OPS = 100

#: The traced pass stops after the round in which it stores this many spans.
SPAN_BUDGET = 600_000

#: Round index reserved for warm-up inputs, disjoint from the timed rounds.
WARMUP_ROUND = 1_000_000

#: ROADMAP's ad-hoc figures (ms) that the probes reproduce.
ROADMAP_MS = {"probe.samples_g4096_ms": 44.0, "probe.subdivide_d10_ms": 46.0,
              "probe.subdivide_d14_ms": 767.0, "probe.hausdorff_16k_1k_ms": 3700.0}

#: Layer-share targets checked on the traced pass.
SHARE_RULES = {
    "render": "basis + homography + svg + cli self time >= 50% of op time",
    "geometry": "curve self time >= 80% of op time",
    "pointwise": "no single callable holds >= 50% of op time",
}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Loop:
    """Closed loop over whole rounds: one caller, each op waits for the last."""

    def __init__(self, wl, seed: int, deadline: float):
        self.wl = wl
        self.seed = seed
        self.deadline = deadline
        self.times: list[float] = []
        self.rounds: list[int] = []  # round of each op
        self.bad: list[bool] = []  # whether each op failed
        self.samples = 0

    @property
    def failed(self) -> int:
        return sum(self.bad)

    def one(self, op, r: int, k: int, rec=None, root=None) -> None:
        wl = self.wl
        wl.prepare(op)
        error = None
        t0 = perf_counter()
        if rec is not None:
            rec.current_op = len(self.times)
            span = rec.open(root)
        try:
            result = wl.run(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = exc
        finally:
            if rec is not None:
                rec.close(span)
        t1 = perf_counter()
        self.times.append(t1 - t0)
        self.rounds.append(r)
        self.samples += op.output_samples
        if rec is not None and hasattr(wl, "output_bytes") and error is None:
            rec.counts["cli.bytes_out"] += wl.output_bytes(op)
        if error is None:
            try:
                wl.check(op, result, np.random.default_rng([self.seed, r, k, 7]))
            except Exception as exc:  # oracle disagreement, or output it cannot parse
                error = exc
        self.bad.append(error is not None)
        if error is not None and self.failed <= 5:
            _log(f"op failed: {op.kind} {_describe(op)}: {type(error).__name__}: {error}")

    def run(self, stop, rec=None, root=None) -> int:
        """Run rounds 0, 1, ... until ``stop(rounds, elapsed)``; return rounds run."""
        start = perf_counter()
        r = 0
        while True:
            for k, op in enumerate(self.wl.round(r)):
                if time.time() >= self.deadline:
                    _log("deadline reached inside a round")
                    return r
                self.one(op, r, k, rec, root)
            r += 1
            if stop(r, perf_counter() - start):
                return r


def _describe(op) -> str:
    return " ".join(f"{k}={v}" for k, v in op.params.items()
                    if k not in ("argv", "out", "points", "xs"))


def cp_upper(failed: int, attempted: int, conf: float = 0.95) -> float:
    """One-sided Clopper-Pearson upper bound on the per-op failure probability.

    Never 0: with no failure in N ops it is 1 - (1 - conf)**(1/N), about 3/N.
    """
    if failed >= attempted:
        return 1.0

    def cdf(p):  # P(X <= failed) for X ~ Binomial(attempted, p)
        lp, lq = math.log(p), math.log1p(-p)
        return sum(math.exp(math.lgamma(attempted + 1) - math.lgamma(i + 1)
                            - math.lgamma(attempted - i + 1) + i * lp + (attempted - i) * lq)
                   for i in range(failed + 1))

    lo, hi = failed / attempted, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid > 0.0 and cdf(mid) <= 1.0 - conf:
            hi = mid
        else:
            lo = mid
    return hi


def env_record(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def setup(args):
    """Inputs and warm-up; returns the workload and the setup time."""
    sizes = workloads.TINY if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, Path(args.workdir))
    warm = wl.round(WARMUP_ROUND)
    if args.workload == "geometry":
        warm = warm[:1] if args.smoke else [min(warm, key=lambda op: op.params["depth"])]
    loop = Loop(wl, args.seed, float("inf"))
    for k, op in enumerate(warm):
        loop.one(op, WARMUP_ROUND, k)
    if loop.failed:
        raise SystemExit(f"warm-up failed on {loop.failed} of {len(warm)} ops")
    wl.round(0)
    return wl, perf_counter() - _T0


def end_to_end(loop: Loop) -> dict:
    times = np.array(loop.times)
    attempted = len(times)
    p50, p90 = np.percentile(times, [50, 90]) * 1e3
    rounds = np.array(loop.rounds)
    good = ~np.array(loop.bad)
    # per-round throughput, every round holding the same mix; the median
    # over rounds shrugs off transient slow periods of a shared machine
    per_round = [good[rounds == r].sum() / times[rounds == r].sum() for r in np.unique(rounds)]
    return {
        "ops_per_s": float(np.median(per_round)),
        "op_p50_ms": float(p50),
        "op_p90_ms": float(p90),
        "fail_frac": cp_upper(loop.failed, attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def probes(smoke: bool) -> dict:
    curve = ab.make_curve(ab.preset_polygon("g"), 2.0)
    n_samp, d1, d2, na, nb = (256, 4, 6, 512, 64) if smoke else (4096, 10, 14, 16384, 1024)
    out = {}
    t0 = perf_counter()
    curve.samples(np.linspace(0.0, 1.0, n_samp))
    out["probe.samples_g4096_ms"] = 1e3 * (perf_counter() - t0)
    for depth, key in ((d1, "probe.subdivide_d10_ms"), (d2, "probe.subdivide_d14_ms")):
        t0 = perf_counter()
        curve.subdivide_recursive(depth)
        out[key] = 1e3 * (perf_counter() - t0)
    path_a = curve.samples(np.linspace(0.0, 1.0, na))
    path_b = curve.samples(np.linspace(0.0, 1.0, nb))
    t0 = perf_counter()
    ab.hausdorff_distance(path_a, path_b)
    out["probe.hausdorff_16k_1k_ms"] = 1e3 * (perf_counter() - t0)
    return out


def share_check(workload: str, summary: dict) -> bool:
    shares = summary["shares"]
    if workload == "render":
        return sum(shares[k] for k in ("basis", "homography", "svg", "cli")) >= 0.5
    if workload == "geometry":
        return shares["curve"] >= 0.8
    return max(summary["top_calls"].values(), default=0.0) < 0.5


def trace(args, wl) -> dict:
    probe = probes(args.smoke)
    plain = Loop(wl, args.seed, args.deadline - 10.0)
    half = args.seconds / 2.0
    rounds = plain.run(lambda r, el: el >= half)

    rec = tracing.Recorder()
    root = rec.name_id(tracing.OP_SPAN, "bench")
    traced = Loop(wl, args.seed, args.deadline - 5.0)
    with tracing.Tracer(ab, rec):
        done = traced.run(lambda r, el: r >= rounds or len(rec) >= SPAN_BUDGET or el >= half * 4,
                          rec, root)
    n = len(traced.times)
    base = float(np.sum(plain.times[:n]))  # both passes run the same ops in the same order
    op_s = float(np.sum(traced.times))
    summary = tracing.summarize(rec, n, op_s, traced.samples)
    metrics = dict(summary["metrics"])
    metrics["trace.overhead_frac"] = op_s / base - 1.0
    metrics["trace.share_check"] = 1.0 if share_check(args.workload, summary) else 0.0
    metrics.update(probe)
    out_dir = Path(args.workdir).parent
    rec.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    return {
        "metrics": metrics,
        "attempted": len(plain.times) + n,
        "failed": plain.failed + traced.failed,
        "shares": summary["shares"],
        "top_calls": summary["top_calls"],
        "share_rule": SHARE_RULES[args.workload],
        "roadmap_ms": ROADMAP_MS,
        "rounds": {"untraced": rounds, "traced": done},
        "spans": len(rec),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--deadline", type=float, default=float("inf"),
                    help="epoch time by which the process must finish")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    wl, setup_s = setup(args)
    result = {"setup_s": setup_s, "env": env_record(args.seed)}
    if args.role == "measure":
        loop = Loop(wl, args.seed, args.deadline - 5.0)
        min_ops = 1 if args.smoke else MIN_OPS
        loop.run(lambda r, el: el >= args.seconds and len(loop.times) >= min_ops)
        result.update(metrics=end_to_end(loop), attempted=len(loop.times), failed=loop.failed)
    elif args.role == "trace":
        result.update(trace(args, wl))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
