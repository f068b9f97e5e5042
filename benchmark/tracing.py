"""Out-of-tree span tracing of the six alphabezier layers.

``install`` replaces each layer's public callables with span recorders at
the place callers look them up (class attributes, module globals, names
other modules imported directly, and ``cli.DISPATCH``); ``Tracer.restore``
puts every original back.  Nothing under ``src/`` is edited.

Spans live in compact in-memory arrays (name, start, end, parent, op id)
and are written out once, after the traced phase.  A span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("homography", "basis", "curve", "approx", "svg", "cli")

#: Name of the root span that wraps each op; its self time is the benchmark's own.
OP_SPAN = "bench.op"

#: (layer, class name or None, attribute names) wrapped with a span each.
_TARGETS = (
    ("homography", "HomographyMap",
     ("value", "__call__", "inverse", "deriv1", "deriv2", "split_left", "split_right")),
    ("homography", "SegmentReparam", ("value", "__call__")),
    ("basis", "BasisSpec", ("values", "values_recursive", "derivatives", "maxima", "raised")),
    ("basis", None, ("binomial_row", "peak_value", "elevation_residual",
                     "collocation_matrix", "is_nonsingular")),
    ("curve", "ControlPolygon", ("diameter",)),
    ("curve", "DeCasteljauTableau", ("left_points", "right_points")),
    ("curve", "BezierCurve", ("point", "samples", "derivative", "tableau", "decasteljau",
                              "elevated", "subdivide", "subdivide_recursive",
                              "endpoint_tangents", "curvature", "transformed")),
    ("curve", None, ("make_curve", "reindexed", "index_invariance", "densify_polyline",
                     "hausdorff_distance")),
    ("approx", None, ("fit_collocation", "fit_least_squares")),
    ("svg", None, ("transformer", "data_bbox", "polyline", "circle", "text", "rect",
                   "group", "document")),
    ("cli", None, ("main", "parse_config", "build_parser", "cmd_basis", "cmd_curve",
                   "cmd_subdivide", "cmd_elevate", "cmd_fit", "cmd_selftest")),
)

#: Coordinate pairs each svg element writer formats, besides polyline points.
_SVG_PAIRS = {"circle": 1, "text": 1, "rect": 2, "group": 1, "document": 2}


class Recorder:
    """Span store plus counters for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.t0)
        self.nid.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.t1.append(0.0)
        self.stack.append(i)
        self.t0.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = perf_counter()
        self.stack.pop()

    def error(self, layer: str, exc: BaseException) -> None:
        # count an exception once, in the innermost layer it passed through
        if getattr(exc, "_bench_counted", False):
            return
        self.errors[layer] += 1
        try:
            exc._bench_counted = True
        except AttributeError:
            pass

    def __len__(self) -> int:
        return len(self.t0)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.nid, dtype=np.int_).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
            "op": np.frombuffer(self.op, dtype=np.int_).copy(),
            "start": np.frombuffer(self.t0, dtype=float).copy(),
            "end": np.frombuffer(self.t1, dtype=float).copy(),
        }

    def save(self, path) -> None:
        """Write every span, with the name and layer tables, as one .npz file."""
        np.savez(path, names=np.array(self.names), layers=np.array(self.layer_of),
                 **self.arrays())


def _span(rec: Recorder, fn, name: str, layer: str, count=None):
    nid = rec.name_id(name, layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if count is not None:
            count(args, kwargs)
        i = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec.error(layer, exc)
            raise
        finally:
            rec.close(i)

    return traced


def _bound_arg(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


class Tracer:
    """Installs span wrappers on the package and restores the originals."""

    def __init__(self, package, recorder: Recorder):
        self.pkg = package
        self.rec = recorder
        self._saved: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------ patching

    def _modules(self):
        pkg = self.pkg
        return [pkg, pkg.homography, pkg.basis, pkg.curve, pkg.approx, pkg.svg,
                pkg.presets, pkg.cli]

    def _set(self, holder, key, value, is_item=False):
        old = holder[key] if is_item else holder.__dict__[key]
        self._saved.append((holder, key, old, is_item))
        if is_item:
            holder[key] = value
        else:
            setattr(holder, key, value)

    def _replace_everywhere(self, original, wrapper):
        # module globals and names imported into other modules
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapper)
        dispatch = self.pkg.cli.DISPATCH
        for key, val in list(dispatch.items()):
            if val is original:
                self._set(dispatch, key, wrapper, is_item=True)

    def _counter(self, layer, attr, fn):
        c = self.rec.counts
        if (layer, attr) == ("curve", "hausdorff_distance"):
            path_a = _bound_arg(fn, "path_a")
            path_b = _bound_arg(fn, "path_b")

            def count(args, kwargs):
                na = len(np.atleast_2d(path_a(args, kwargs)))
                nb = len(np.atleast_2d(path_b(args, kwargs)))
                c["curve.hausdorff_pairs"] += na * max(nb - 1, 1) + nb * max(na - 1, 1)
            return count
        if (layer, attr) == ("approx", "fit_collocation"):
            grid = _bound_arg(fn, "error_grid")
            spec = _bound_arg(fn, "spec")

            def count(args, kwargs):
                c["approx.grid_points"] += spec(args, kwargs).degree + 1 + grid(args, kwargs)
            return count
        if (layer, attr) == ("approx", "fit_least_squares"):
            grid = _bound_arg(fn, "error_grid")
            samples = _bound_arg(fn, "samples")

            def count(args, kwargs):
                c["approx.grid_points"] += samples(args, kwargs) + grid(args, kwargs)
            return count
        if layer == "svg" and attr == "polyline":
            pixels = _bound_arg(fn, "pixels")

            def count(args, kwargs):
                c["svg.coords"] += len(pixels(args, kwargs))
            return count
        if layer == "svg" and attr in _SVG_PAIRS:
            pairs = _SVG_PAIRS[attr]

            def count(args, kwargs):
                c["svg.coords"] += pairs
            return count
        return None

    def _pixel_wrapper(self, transformer):
        # the closure returned by svg.transformer is svg code called per point
        rec = self.rec

        @functools.wraps(transformer)
        def traced_transformer(*args, **kwargs):
            return _span(rec, transformer(*args, **kwargs), "svg.to_pixel", "svg")

        return traced_transformer

    def install(self) -> None:
        pkg = self.pkg
        rec = self.rec
        for layer, cls_name, attrs in _TARGETS:
            mod = getattr(pkg, layer)
            for attr in attrs:
                if cls_name is not None:
                    owner = getattr(mod, cls_name)
                    fn = owner.__dict__[attr]
                    name = f"{layer}.{cls_name}.{attr}"
                    self._set(owner, attr, _span(rec, fn, name, layer,
                                                 self._counter(layer, attr, fn)))
                    continue
                fn = vars(mod)[attr]
                target = self._pixel_wrapper(fn) if (layer, attr) == ("svg", "transformer") else fn
                wrapper = _span(rec, target, f"{layer}.{attr}", layer,
                                self._counter(layer, attr, fn))
                self._replace_everywhere(fn, wrapper)
        # constructions are counted, not spanned: they run inside curve spans
        polygon = pkg.curve.ControlPolygon
        init = polygon.__dict__["__init__"]
        counts = rec.counts

        @functools.wraps(init)
        def counted_init(self_, *args, **kwargs):
            counts["curve.polygons_built"] += 1
            init(self_, *args, **kwargs)

        self._set(polygon, "__init__", counted_init)

    def restore(self) -> None:
        for holder, key, old, is_item in reversed(self._saved):
            if is_item:
                holder[key] = old
            else:
                setattr(holder, key, old)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ------------------------------------------------------------ aggregation


def summarize(rec: Recorder, n_ops: int, op_seconds: float, output_samples: int) -> dict:
    """Per-op layer metrics from the stored spans and counters.

    ``op_seconds`` is the loop-timed total of the traced ops and
    ``output_samples`` the number of output samples they produced.
    """
    arr = rec.arrays()
    names = rec.names
    layer_of = np.array(rec.layer_of)
    dur = arr["end"] - arr["start"]
    parent = arr["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    nid = arr["name_id"]
    span_layer = layer_of[nid] if len(nid) else np.array([], dtype=str)
    per_op = 1.0 / max(n_ops, 1)

    def by_name(name):
        return nid == names.index(name) if name in names else np.zeros(len(nid), bool)

    out: dict[str, float] = {}
    for layer in LAYERS:
        mask = span_layer == layer
        out[f"{layer}.calls"] = float(mask.sum()) * per_op
        out[f"{layer}.self_ms"] = 1e3 * float(self_t[mask].sum()) * per_op
        out[f"{layer}.errors"] = float(rec.errors.get(layer, 0))
    rows = sum(int(by_name(f"basis.BasisSpec.{m}").sum())
               for m in ("values", "values_recursive", "derivatives"))
    out["basis.rows_per_sample"] = rows / max(output_samples, 1)

    sub = by_name("curve.BezierCurve.subdivide_recursive")
    outer = sub & ~np.isin(parent, np.flatnonzero(sub))
    out["curve.subdivide_ms"] = 1e3 * float(dur[outer].sum()) * per_op
    out["curve.hausdorff_ms"] = 1e3 * float(dur[by_name("curve.hausdorff_distance")].sum()) * per_op
    out["curve.polygons_built"] = rec.counts["curve.polygons_built"] * per_op
    out["curve.hausdorff_pairs"] = rec.counts["curve.hausdorff_pairs"] * per_op
    out["approx.grid_points"] = rec.counts["approx.grid_points"] * per_op
    out["svg.coords"] = rec.counts["svg.coords"] * per_op
    out["cli.parse_ms"] = 1e3 * float(dur[by_name("cli.parse_config")].sum()) * per_op
    out["cli.bytes_out"] = rec.counts["cli.bytes_out"] * per_op

    bench = by_name(OP_SPAN)
    out["bench.self_ms"] = 1e3 * float(self_t[bench].sum()) * per_op
    total_self = float(self_t.sum())
    out["trace.op_ms"] = 1e3 * op_seconds * per_op
    out["trace.accounted_frac"] = total_self / op_seconds if op_seconds > 0 else 0.0

    shares = {layer: float(self_t[span_layer == layer].sum()) / op_seconds
              for layer in LAYERS + ("bench",)} if op_seconds > 0 else {}
    top = {}
    if len(nid):
        per_name = np.bincount(nid, weights=self_t, minlength=len(names))
        for k in np.argsort(per_name)[::-1][:5]:
            top[names[k]] = float(per_name[k]) / op_seconds
    return {"metrics": out, "shares": shares, "top_calls": top}
