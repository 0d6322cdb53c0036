"""Spans around favardlab's public functions, patched in from outside.

Each traced function is replaced, for the length of a traced pass, by a
wrapper that records a span (name, start, end, parent span, operation id)
and accumulates per-layer counts.  Module-level functions are patched under
every name that binds them in every ``favardlab`` module, so calls made
through a consuming module's own import (``favardlab.projection`` calling
``merge_int64_arrays``) are seen; methods and classmethods are patched on
their class.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


def _merge_float(stat, args, kwargs, result, inner):
    stat["elems_in"] += args[0].size


def _merge_int64(stat, args, kwargs, result, inner):
    lo, hi = args[0], args[1]
    stat["elems_in"] += lo.size
    stat["elems_out"] += result[0].size
    stat["bytes_computed"] += lo.nbytes + hi.nbytes + result[0].nbytes + result[1].nbytes


def _sheared_measures(stat, args, kwargs, result, inner):
    stat["steps"] += len(result) - 1


def _favard(stat, args, kwargs, result, inner):
    import favardlab

    quad = args[2] if len(args) > 2 else kwargs.get("quad")
    quad = quad or favardlab.QuadratureConfig()
    stat["node_evals"] += inner["projection.sheared_measures"]
    stat["refinements"] += round(math.log2(result.panels / quad.initial_panels))


def _needle(stat, args, kwargs, result, inner):
    stat["trials"] += result.trials
    stat["hits"] += result.hits


def _file_bytes(stat, args, kwargs, result, inner):
    stat["bytes"] += Path(args[0]).stat().st_size


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str                           # "func" or "Class.method"
    name: str                           # metric prefix
    count: Optional[Callable] = None    # (stat, args, kwargs, result, inner)
    inner: tuple = ()                   # span names counted inside this one
    generator: bool = False


LAYERS = (
    Layer("favardlab.intervals", "merge_float_arrays",
          "intervals.merge_float_arrays", _merge_float),
    Layer("favardlab.intervals", "merge_int64_arrays",
          "intervals.merge_int64_arrays", _merge_int64),
    Layer("favardlab.intervals", "_merge_scaled", "intervals._merge_scaled"),
    Layer("favardlab.intervals", "IntervalSet.from_scaled",
          "intervals.IntervalSet.from_scaled"),
    Layer("favardlab.intervals", "IntervalSet.expand", "intervals.expand"),
    Layer("favardlab.intervals", "FloatIntervalSet.expand", "intervals.expand"),
    Layer("favardlab.projection", "Direction.from_angle",
          "projection.Direction.from_angle"),
    Layer("favardlab.projection", "project_ifs", "projection.project_ifs"),
    Layer("favardlab.projection", "sheared_measures",
          "projection.sheared_measures", _sheared_measures),
    Layer("favardlab.projection", "generation", "projection.generation"),
    Layer("favardlab.projection", "iter_generations",
          "projection.iter_generations", generator=True),
    Layer("favardlab.favard", "favard", "favard.favard", _favard,
          inner=("projection.sheared_measures",)),
    Layer("favardlab.favard", "alpha_sequence", "favard.alpha_sequence"),
    Layer("favardlab.favard", "check_convexity", "favard.check_convexity"),
    Layer("favardlab.favard", "lower_bound_certificate",
          "favard.lower_bound_certificate"),
    Layer("favardlab.ifs", "validate", "ifs.validate"),
    Layer("favardlab.ifs", "preset", "ifs.preset"),
    Layer("favardlab.dimension", "decay_series", "dimension.decay_series"),
    Layer("favardlab.dimension", "cover_stats", "dimension.cover_stats"),
    Layer("favardlab.dimension", "neighborhood_sequence",
          "dimension.neighborhood_sequence"),
    Layer("favardlab.dimension", "seesaw_builder", "dimension.seesaw_builder"),
    Layer("favardlab.needle", "estimate_favard_mc", "needle.estimate_favard_mc",
          _needle),
    Layer("favardlab.serialize", "write_csv", "serialize.write_csv", _file_bytes),
    Layer("favardlab.serialize", "write_json", "serialize.write_json",
          _file_bytes),
    Layer("favardlab.cli", "main", "cli.main"),
)

OPERATION_SPAN = "bench.operation"

# Counters that must repeat exactly between passes and runs of one seed.
# Serialized bytes are left out: manifests carry a wall time.
EXACT_COUNTERS = ("calls", "elems_in", "elems_out", "bytes_computed", "steps",
                  "node_evals", "refinements", "trials", "hits")


class Tracer:
    """Records spans while installed; accumulates per-layer statistics."""

    def __init__(self):
        self.spans: list = []           # (id, parent id, op id, name, start, end)
        self.stats: dict = {}
        self.op_id = 0
        self._stack: list = []          # open frames: [span id, child time]
        self._next_id = 1
        self._patches: list = []        # (owner, attribute, original)
        self._t0 = perf_counter()
        for name in [layer.name for layer in LAYERS] + [OPERATION_SPAN]:
            self.stats[name] = dict.fromkeys(EXACT_COUNTERS + ("bytes",), 0)
            self.stats[name]["self_s"] = 0.0

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, count=None, inner=(), calls=1):
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        before = {n: self.stats[n]["calls"] for n in inner}
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.spans.append((frame[0], parent[0] if parent else 0, self.op_id,
                               name, start - self._t0, end - self._t0))
            stat = self.stats[name]
            stat["calls"] += calls
            stat["self_s"] += duration - frame[1]
        if count is not None:
            done = {n: self.stats[n]["calls"] - before[n] for n in inner}
            count(stat, args, kwargs, result, done)
        return result

    def operation(self, fn):
        """Run one benchmark operation under a root span with a fresh id."""
        self.op_id += 1
        return self.call(OPERATION_SPAN, fn)

    def _wrapper(self, layer: Layer, fn):
        tracer = self

        if layer.generator:
            def wrapper(*args, **kwargs):
                it = tracer.call(layer.name, fn, args, kwargs)
                while True:
                    try:
                        item = tracer.call(layer.name, next, (it,), calls=0)
                    except StopIteration:
                        return
                    yield item
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(layer.name, fn, args, kwargs, layer.count,
                                   layer.inner)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer.name)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "favardlab" or n.startswith("favardlab."))]
        for layer in LAYERS:
            owner_name, _, method = layer.attr.rpartition(".")
            home = sys.modules[layer.module]
            if owner_name:
                cls = getattr(home, owner_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrapper(layer, raw.__func__))
                else:
                    patched = self._wrapper(layer, raw)
                self._patches.append((cls, method, raw))
                setattr(cls, method, patched)
                continue
            original = getattr(home, method)
            wrapper = self._wrapper(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def counts(self) -> dict:
        """Snapshot of the exact counters, for per-pass comparison."""
        return {f"{name}.{key}": stat[key] for name, stat in self.stats.items()
                for key in EXACT_COUNTERS if stat[key]}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,op_id,name,start_s,end_s\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{op},{name},{start:.9f},{end:.9f}\n")


def layer_metrics(stats: dict, passes: int) -> dict:
    """Per-pass layer metrics in the names BENCHMARK.json lists."""
    out = {}

    def put(name, key, unit):
        out[f"{name}.{key}"] = (stats[name][key] / passes, unit)

    put("intervals.merge_float_arrays", "calls", "count")
    put("intervals.merge_float_arrays", "self_s", "s")
    put("intervals.merge_float_arrays", "elems_in", "count")
    for key, unit in (("calls", "count"), ("self_s", "s"), ("elems_in", "count"),
                      ("elems_out", "count"), ("bytes_computed", "B")):
        put("intervals.merge_int64_arrays", key, unit)
    for name in ("intervals._merge_scaled", "intervals.IntervalSet.from_scaled",
                 "projection.Direction.from_angle", "projection.project_ifs",
                 "projection.sheared_measures"):
        put(name, "calls", "count")
        put(name, "self_s", "s")
    put("projection.sheared_measures", "steps", "count")
    put("favard.favard", "node_evals", "count")
    put("favard.favard", "refinements", "count")
    for name in ("intervals.expand", "projection.generation",
                 "projection.iter_generations", "favard.favard",
                 "favard.alpha_sequence", "favard.check_convexity",
                 "favard.lower_bound_certificate", "ifs.validate", "ifs.preset",
                 "dimension.decay_series", "dimension.cover_stats",
                 "dimension.neighborhood_sequence", "dimension.seesaw_builder",
                 "needle.estimate_favard_mc", "cli.main"):
        put(name, "self_s", "s")
    needle = stats["needle.estimate_favard_mc"]
    out["needle.trials_per_s"] = (
        needle["trials"] / needle["self_s"] if needle["self_s"] else 0.0, "1/s")
    out["needle.hit_rate"] = (
        needle["hits"] / needle["trials"] if needle["trials"] else 0.0, "ratio")
    for name in ("serialize.write_csv", "serialize.write_json"):
        put(name, "calls", "count")
        put(name, "self_s", "s")
        put(name, "bytes", "B")
    return out
