"""Span tracing of eislab's layers from outside the package.

A traced pass rebinds each layer's function at every call site: the defining
module and every ``eislab`` module that imported the name directly (for
example ``eislab.eisenstein.bessel_k_scaled`` and
``eislab.weights.bessel_k_scaled``), so calls made through either name are
seen.  Methods are rebound on their class.  Nothing in ``src/`` changes and
the original functions are put back when the pass ends.

Each call records one span ``[name, start, end, parent, op_id]`` in memory;
``parent`` is the index of the enclosing span (-1 for none) and ``op_id`` the
operation of the pass that caused it.  A layer's self time is its span's
duration minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _tally_x_points(tracer, args, kwargs, result):
    xs = args[2] if len(args) > 2 else kwargs["xs"]
    tracer.counters["eisenstein.eval_row.x_points"] += np.size(xs)


def _tally_grid(tracer, args, kwargs, result):
    tracer.counters["moments.grid_y_nodes"] += sum(p.order for p in result.panels)


def _tally_kernel(tracer, args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    ts = args[1] if len(args) > 1 else kwargs["ts"]
    tracer.counters["specfun.kuznetsov_kernel.t_nodes"] += np.size(ts)
    tracer.kernel_x.add(float(x))


@dataclass(frozen=True)
class Layer:
    name: str                 # span name
    target: str               # "module:qualname" of the defining function
    tally: Callable | None = None


LAYERS = (
    Layer("specfun.bessel_k_scaled", "eislab.specfun.bessel:bessel_k_scaled"),
    Layer("specfun.kuznetsov_kernel", "eislab.specfun.bessel:kuznetsov_kernel_even_many",
          _tally_kernel),
    Layer("specfun.zeta", "eislab.specfun.zeta:zeta"),
    Layer("specfun.log_gamma", "eislab.specfun.gamma:log_gamma"),
    Layer("quadrature.panel_nodes", "eislab.quadrature:panel_nodes"),
    Layer("quadrature.gl_nodes", "eislab.quadrature:gl_nodes"),
    Layer("eisenstein.eval_row", "eislab.eisenstein:EisensteinEvaluator.eval_row",
          _tally_x_points),
    Layer("moments.integrate_rows", "eislab.moments:integrate_rows"),
    Layer("moments.build_grid", "eislab.moments:build_grid", _tally_grid),
    Layer("arith.kloosterman", "eislab.arith:kloosterman"),
    Layer("arith.tau_gen", "eislab.arith:tau_gen"),
    Layer("spectral.afe_pair", "eislab.spectral:afe_pair"),
    Layer("weights.mellin_barnes_kk_numeric", "eislab.weights:mellin_barnes_kk_numeric"),
    Layer("weights.g_lower_incomplete", "eislab.weights:g_lower_incomplete"),
)
LAYER_NAMES = frozenset(layer.name for layer in LAYERS)
OP_PREFIX = "op."

_MOMENT = "wall_s on moment-sweep"
_KUZ = "wall_s on kuznetsov-sweep"
_AFE = "wall_s on afe-mellin"
_BESSEL = ("wall_s and slowest_op_s on moment-sweep, less on afe-mellin, "
           "none on kuznetsov-sweep")
_KERNEL = "wall_s and slowest_op_s on kuznetsov-sweep only"

# (metric, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("specfun.bessel_k_scaled.calls", "count", "lower", _BESSEL),
    ("specfun.bessel_k_scaled.self_s", "s", "lower", _BESSEL),
    ("specfun.bessel_k_scaled.us_per_call", "us", "lower", _BESSEL),
    ("quadrature.panel_nodes.calls", "count", "lower", _MOMENT),
    ("quadrature.panel_nodes.self_s", "s", "lower", _MOMENT),
    ("quadrature.gl_nodes.calls", "count", "lower", _MOMENT),
    ("quadrature.gl_nodes.self_s", "s", "lower", _MOMENT),
    ("eisenstein.eval_row.calls", "count", "lower", _MOMENT),
    ("eisenstein.eval_row.self_s", "s", "lower", _MOMENT),
    ("eisenstein.eval_row.x_points", "count", "lower", _MOMENT),
    ("eisenstein.bessel_per_row", "ratio", "lower", _MOMENT),
    ("moments.integrate_rows.calls", "count", "lower", _MOMENT),
    ("moments.integrate_rows.self_s", "s", "lower", _MOMENT),
    ("moments.grid_y_nodes", "count", "lower", _MOMENT),
    ("specfun.kuznetsov_kernel.calls", "count", "lower", _KERNEL),
    ("specfun.kuznetsov_kernel.self_s", "s", "lower", _KERNEL),
    ("specfun.kuznetsov_kernel.t_nodes", "count", "lower", _KERNEL),
    ("specfun.kuznetsov_kernel.distinct_x_ratio", "ratio", "higher", _KERNEL),
    ("specfun.zeta.calls", "count", "lower", _KUZ),
    ("specfun.zeta.self_s", "s", "lower", _KUZ),
    ("arith.kloosterman.calls", "count", "lower", _KUZ),
    ("arith.kloosterman.self_s", "s", "lower", _KUZ),
    ("arith.tau_gen.calls", "count", "lower", _KUZ),
    ("arith.tau_gen.self_s", "s", "lower", _KUZ),
    ("spectral.afe_pair.self_s", "s", "lower", _AFE),
    ("specfun.log_gamma.calls", "count", "lower", _AFE),
    ("specfun.log_gamma.self_s", "s", "lower", _AFE),
    ("weights.mellin_barnes_kk_numeric.self_s", "s", "lower", _AFE),
    ("weights.g_lower_incomplete.self_s", "s", "lower", _AFE),
    ("trace.coverage", "ratio", "higher",
     "share of the traced wall time inside named layer spans; moves nothing"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall time; moves nothing"),
)
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def call_sites(target: str):
    """Every (owner, attribute) through which eislab code reaches ``target``."""
    owner, attr, original = _resolve(target)
    if isinstance(owner, type):
        return [(owner, attr)], original
    sites = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "eislab" and not mod_name.startswith("eislab."):
            continue
        for key, value in vars(module).items():
            if value is original:
                sites.append((module, key))
    return sites, original


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.kernel_x: set = set()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._restore: list = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, layer: Layer, fn, site: str):
        site_key = f"{layer.name}@{site}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counters[site_key] += 1
            span = self._open(layer.name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if layer.tally is not None:
                layer.tally(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every layer at its call sites for the duration of the block."""
        try:
            for layer in LAYERS:
                sites, original = call_sites(layer.target)
                for owner, attr in sites:
                    site = owner.__module__ if isinstance(owner, type) else owner.__name__
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(layer, original, site))
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one operation of the pass."""
        self.op_id = op_id
        span = self._open(OP_PREFIX + kind)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self.op_id = None

    def write(self, path, pass_index: int):
        """Append the spans as JSON lines to a gzip file."""
        with gzip.open(path, "at", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"pass": pass_index, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op_id}) + "\n")


def layer_stats(tracer: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass whose wall time was ``wall``."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    covered = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        if name in LAYER_NAMES and parent >= 0 and spans[parent][0].startswith(OP_PREFIX):
            covered += end - start

    c = tracer.counters
    bessel = "specfun.bessel_k_scaled"
    rows = calls["eisenstein.eval_row"]
    kernel_calls = calls["specfun.kuznetsov_kernel"]
    out = dict(c)
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    # inclusive time: what one evaluation costs its caller
    out[f"{bessel}.us_per_call"] = 1e6 * total[bessel] / calls[bessel] if calls[bessel] else 0.0
    out["eisenstein.bessel_per_row"] = (c[f"{bessel}@eislab.eisenstein"] / rows) if rows else 0.0
    out["specfun.kuznetsov_kernel.distinct_x_ratio"] = (
        len(tracer.kernel_x) / kernel_calls if kernel_calls else 0.0)
    out["trace.coverage"] = covered / wall
    return {name: out.get(name, 0) for name, *_ in PER_LAYER if name != "trace.overhead_s"}

