"""Seeded inputs and the timed operation of each workload.

Every workload is a sequence of rounds.  A round holds one op of every
class the workload mixes (commands x formats, depths, degrees), shuffled by
the seed, so that a run made of whole rounds has the same mix on every
seed; only the drawn parameters (presets, indices, intervals, points)
change.  Round ``r`` is generated from ``(seed, r)`` alone, so an untraced
and a traced pass over the same rounds see identical inputs.

The library is looked up through module attributes at call time, so the
span wrappers installed for a traced pass are the ones that run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import alphabezier as ab
import alphabezier.cli  # noqa: F401  (binds ab.cli, ab.svg, ab.presets)

import oracles

INDEX_TOKENS = ("-1", "2", "5", "inf")
FIT_TARGETS = ("rational1", "rational2", "sine", "constant")
FORMATS = ("csv", "json", "svg")
PRESETS = tuple("abcdefghi")


def _alpha(token: str) -> float:
    return ab.INFINITY if token == "inf" else float(token)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the smoke run."""

    samples: int = 512
    basis_degree: int = 8
    fit_degree: int = 12
    sub_depths: tuple = (4, 5, 6)
    geo_depths: tuple = (6, 6, 7, 8, 9)
    pw_degrees: tuple = tuple(range(1, 13))
    pw_points: int = 8


FULL = Sizes()
TINY = Sizes(samples=24, basis_degree=4, fit_degree=5, sub_depths=(1, 2, 3),
             geo_depths=(3, 4), pw_degrees=(1, 3, 6), pw_points=3)


@dataclass
class Op:
    kind: str
    params: dict = field(default_factory=dict)
    output_samples: int = 0


class Render:
    """CLI jobs through ``alphabezier.cli.main(argv)``, every command x format."""

    name = "render"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def _interval(self, rng) -> tuple[float, float]:
        a = float(rng.choice((-1.0, 0.0, 0.5)))
        return a, a + float(rng.choice((1.0, 2.5)))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r, 1])
        s = self.sizes
        jobs = []
        for fmt in FORMATS:
            jobs.append(Op("basis", {"fmt": fmt, "degree": s.basis_degree,
                                     "alphas": INDEX_TOKENS, "interval": (0.0, 1.0)},
                           s.samples * len(INDEX_TOKENS)))
        # two presets per curve-family job: these cheap jobs are then about 70%
        # of a round, so p50 falls inside a dense group of job classes
        for cmd in ("curve", "subdivide", "elevate"):
            for k, fmt in enumerate(FORMATS):
                for preset in rng.choice(PRESETS, size=2, replace=False):
                    p = {"fmt": fmt, "preset": str(preset),
                         "alphas": (str(rng.choice(INDEX_TOKENS)),),
                         "interval": self._interval(rng)}
                    if cmd == "subdivide":
                        # a fixed depth per format keeps each job class's cost seed-independent
                        p["depth"] = s.sub_depths[k]
                    jobs.append(Op(cmd, p, s.samples))
        fit_fmts = list(rng.permutation(FORMATS)) + [str(rng.choice(FORMATS))]
        for target, fmt in zip(rng.permutation(FIT_TARGETS), fit_fmts):
            jobs.append(Op("fit", {"fmt": str(fmt), "target": str(target),
                                   "degree": s.fit_degree,
                                   "alphas": (str(rng.choice(INDEX_TOKENS)),),
                                   "interval": self._interval(rng)}, s.samples))
        jobs.append(Op("selftest", {"fmt": "json", "seed": int(rng.integers(0, 2**31))}))
        order = rng.permutation(len(jobs))
        ops = [jobs[k] for k in order]
        for k, op in enumerate(ops):
            op.params["out"] = self.workdir / f"job{k}.{op.params['fmt']}"
            op.params["argv"] = self._argv(op)
        return ops

    def _argv(self, op: Op) -> list[str]:
        p = op.params
        argv = ["--command", op.kind, "--samples", str(self.sizes.samples),
                "--format", p["fmt"], "--out", str(p["out"])]
        if op.kind == "selftest":
            return argv
        argv += [f"--alpha={','.join(p['alphas'])}",
                 f"--interval={p['interval'][0]!r},{p['interval'][1]!r}"]
        if "preset" in p:
            argv += ["--polygon", p["preset"]]
        if "depth" in p:
            argv += ["--depth", str(p["depth"])]
        if "degree" in p:
            argv += ["--degree", str(p["degree"])]
        if "target" in p:
            argv += ["--target", p["target"]]
        return argv

    def prepare(self, op: Op) -> None:
        if op.kind == "selftest":
            os.environ["ALPHABEZIER_SEED"] = str(op.params["seed"])

    def run(self, op: Op):
        return ab.cli.main(op.params["argv"])

    def check(self, op: Op, rc, rng) -> None:
        if rc != 0:
            raise oracles.OracleError(f"exit code {rc}")
        oracles.check_render(op, Path(op.params["out"]), rng)

    def output_bytes(self, op: Op) -> int:
        return Path(op.params["out"]).stat().st_size


class Geometry:
    """Recursive subdivision plus the chain-to-curve Hausdorff distance."""

    name = "geometry"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r, 2])
        ops = [Op("geometry", {"preset": str(rng.choice(PRESETS)),
                               "alpha": str(rng.choice(INDEX_TOKENS)),
                               "depth": int(d)}, self.sizes.samples)
               for d in self.sizes.geo_depths]
        return [ops[k] for k in rng.permutation(len(ops))]

    def prepare(self, op: Op) -> None:
        pass

    def run(self, op: Op):
        p = op.params
        curve = ab.make_curve(ab.preset_polygon(p["preset"]), _alpha(p["alpha"]))
        chain = np.vstack([poly.points for poly in curve.subdivide_recursive(p["depth"])])
        dense = curve.samples(np.linspace(curve.a, curve.b, self.sizes.samples))
        dist = ab.hausdorff_distance(ab.densify_polyline(chain, 2), dense)
        return dist, chain, dense

    def check(self, op: Op, result, rng) -> None:
        oracles.check_geometry(op, *result, rng)


class Pointwise:
    """Many tiny scalar calls on one random spec per op."""

    name = "pointwise"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r, 3])
        ops = []
        for degree in rng.permutation(self.sizes.pw_degrees):
            degree = int(degree)
            a = float(rng.uniform(-5.0, 5.0))
            b = a + float(rng.uniform(0.5, 10.0))
            kind = int(rng.integers(0, 5))
            alpha = (float(rng.uniform(-6.0, -1.0)), float(rng.uniform(2.0, 7.0)),
                     ab.INFINITY, -0.01, 1.01)[kind]
            other = (float(rng.uniform(-6.0, -1.0)), float(rng.uniform(1.5, 7.0)),
                     ab.INFINITY)[int(rng.integers(0, 3))]
            ops.append(Op("pointwise", {
                "degree": degree, "a": a, "b": b, "alpha": alpha, "other": other,
                "points": rng.uniform(-5.0, 5.0, size=(degree + 1, 2)),
                "xs": [float(x) for x in rng.uniform(a, b, self.sizes.pw_points)],
            }, self.sizes.pw_points))
        return ops

    def prepare(self, op: Op) -> None:
        pass

    def run(self, op: Op):
        p = op.params
        h = ab.HomographyMap(p["a"], p["b"], p["alpha"])
        spec = ab.BasisSpec(p["degree"], h)
        curve = ab.BezierCurve(ab.ControlPolygon(p["points"]), spec)
        rows = []
        for x in p["xs"]:
            w = h.value(x)
            rows.append((x, w, h.inverse(w), h.deriv1(x), h.deriv2(x),
                         spec.values(x), spec.values_recursive(x),
                         spec.derivatives(x, 1), spec.derivatives(x, 2),
                         curve.point(x), curve.decasteljau(x)[0], curve.curvature(x)))
        xs = p["xs"]
        extras = {
            "maxima": spec.maxima(),
            "elevated": curve.elevated(),
            "halves": curve.subdivide(xs[0]),
            "elevation_residual": ab.elevation_residual(spec, xs[-1]),
            "invariance": ab.index_invariance(curve, ab.reindexed(curve, p["other"]),
                                              samples=16),
            "fit": ab.fit_collocation(_fit_target, ab.BasisSpec(min(p["degree"], 10), h),
                                      error_grid=32),
            "diameter": curve.polygon.diameter(),
        }
        return rows, extras

    def check(self, op: Op, result, rng) -> None:
        oracles.check_pointwise(op, *result)


def _fit_target(t: float) -> float:
    return 1.0 / (1.0 + t * t)


WORKLOADS = {cls.name: cls for cls in (Render, Geometry, Pointwise)}
