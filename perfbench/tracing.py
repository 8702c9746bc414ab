"""Spans and counters of the traced run.

Spans are taken in the benchmark's own code around calls into the
``khss`` modules; nothing inside ``src/`` is instrumented.  A span keeps
its name, the case it belongs to, its parent span (same thread), wall
start and end, and the calling thread's CPU seconds.  Layer times are
CPU self times: a span's CPU minus that of its child spans.  CPU rather
than wall is what adds up across the two threads of ``kh probe``, whose
wall spans overlap while they wait for the interpreter lock.  The host
speed bursts of speed.py run on the main thread in both passes and add
about 1% to the CPU of whatever span is open at the time.

Counters are computed from returned structures after the timed call.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

from khss import cli, cube, tqft
from khss.diagram import parse_pd

# per-layer metric -> span name whose self time it sums
LAYER_SPANS = {
    "diagram.parse_s": "diagram.parse",
    "cube.resolve_s": "cube.resolve",
    "cube.classify_s": "cube.classify",
    "tqft.edge_s": "tqft.edge",
    "filtered.build_s": "filtered.build",
    "filtered.d2_s": "filtered.d2",
    "spectral.compute_s": "spectral.compute",
    "spectral.oracle_s": "spectral.oracle",
    "cli.record_s": "cli.record",
    "cli.cache_store_s": "cli.cache_store",
    "cli.cache_load_s": "cli.cache_load",
}
COUNTERS = ["cube.vertices", "cube.circles", "tqft.edges",
            "filtered.generators", "filtered.nnz", "filtered.nnz_diag",
            "filtered.diff_bytes", "spectral.qblocks", "spectral.max_qblock",
            "spectral.pages", "cli.record_bytes"]

# kh functions the CLI calls through its own module namespace
_CLI_WRAPPED = {
    "build": "filtered.build",
    "verify_d_squared": "filtered.d2",
    "compute": "spectral.compute",
    "run_record": "cli.record",
    "cache_store": "cli.cache_store",
    "cache_load": "cli.cache_load",
}


class NullTracer:
    """The untraced run: spans cost one no-op context manager."""

    on = False

    def __init__(self):
        self.counters: Counter = Counter()
        self.phase = "cold"

    def span(self, name, case=None):
        return contextlib.nullcontext()

    def wrap_cli(self):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder, written out once at exit."""

    on = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.lookups = Counter()  # warm-pass cache_load calls and hits
        self.phase = "cold"       # "warm" once the warm passes start
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, case: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        w0, c0 = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            c1, w1 = time.thread_time(), time.perf_counter()
            stack.pop()
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "case": case, "phase": self.phase,
                               "start": w0, "end": w1, "cpu": c1 - c0})

    @contextlib.contextmanager
    def wrap_cli(self):
        """Time the kh functions ``cli`` calls during ``kh probe``."""
        saved = {attr: getattr(cli, attr) for attr in _CLI_WRAPPED}

        def timed(fn, span_name):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                with self.span(span_name):
                    out = fn(*args, **kwargs)
                if span_name == "cli.cache_load" and self.phase == "warm":
                    self.lookups["calls"] += 1
                    self.lookups["hits"] += out is not None
                return out
            return inner

        for attr, span_name in _CLI_WRAPPED.items():
            setattr(cli, attr, timed(saved[attr], span_name))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)

    def self_times(self, phase: str) -> dict[str, float]:
        """CPU self seconds per span name over one phase."""
        child_cpu: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_cpu[s["parent"]] += s["cpu"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["phase"] == phase:
                out[s["name"]] += s["cpu"] - child_cpu[s["id"]]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def probe_layers(tr: Tracer, name: str, pd: str, reduced: bool) -> None:
    """Time the diagram, cube and tqft layers on their own: parse the
    PD text, resolve every vertex, classify every edge and evaluate its
    edge map."""
    with tr.span("diagram.parse", name):
        d = parse_pd(pd)
    n = len(d.crossings)
    with tr.span("cube.resolve", name):
        res = [cube.resolve(d, u) for u in range(1 << n)]
    tr.counters["cube.vertices"] += len(res)
    tr.counters["cube.circles"] += sum(r.circle_count for r in res)
    del res
    edge_fn = (tqft.edge_columns_reduced if reduced
               else tqft.edge_columns_unreduced)
    for u in range(1 << n):
        with tr.span("cube.classify", name):
            edges = [cube.classify_edge(d, u, i)
                     for i in range(n) if not (u >> i) & 1]
        with tr.span("tqft.edge", name):
            for e in edges:
                edge_fn(e)
        tr.counters["tqft.edges"] += len(edges)


def count_complex(counters: Counter, c) -> None:
    """Add the size counters of a built complex."""
    masks = [m for block in c.components.values() for m in block.values()]
    blocks = Counter(g.q for g in c.generators)
    merge_counters(counters, {
        "filtered.generators": c.n_generators,
        "filtered.nnz": sum(m.bit_count() for m in masks),
        "filtered.nnz_diag": sum(
            m.bit_count() for k, block in c.components.items() if k >= 2
            for m in block.values()),
        "filtered.diff_bytes": sum(sys.getsizeof(m) for m in masks),
        "spectral.qblocks": len(blocks),
        "spectral.max_qblock": max(blocks.values()),
    })


def merge_counters(dst: Counter, src) -> None:
    for key, value in src.items():
        if key == "spectral.max_qblock":
            dst[key] = max(dst[key], value)
        else:
            dst[key] += value


def layer_metrics(tr: Tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    cold = tr.self_times("cold")
    out = {metric: cold.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
    # loads are timed on the warm passes, per pass
    reps = traced.get("warm_reps", 0)
    out["cli.cache_load_s"] = (tr.self_times("warm").get("cli.cache_load", 0.0)
                               / reps if reps else 0.0)
    # the warm pass itself is timed without the wrappers
    warm = untraced.get("warm")
    out["warm_s"] = statistics.median(warm) if warm else 0.0
    out.update({name: tr.counters[name] for name in COUNTERS})
    nnz = tr.counters["filtered.nnz"]
    out["filtered.bytes_per_nnz"] = (tr.counters["filtered.diff_bytes"] / nnz
                                     if nnz else 0.0)
    out["cli.probe_cpu_per_wall"] = traced.get("cpu_per_wall", 0.0)
    calls = tr.lookups["calls"]
    out["cli.cache_hit_frac"] = tr.lookups["hits"] / calls if calls else 0.0
    out["wall_s"] = untraced["cold"]
    out["trace.pass_s"] = traced["cold"]
    # host speed drifts between the two passes; compare them rescaled
    out["trace.overhead_frac"] = traced["ref"] / untraced["ref"] - 1
    return out
