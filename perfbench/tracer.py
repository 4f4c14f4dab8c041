"""Outside-in span tracer for bglb and the per-layer metrics derived from it.

`Tracer.install()` wraps public functions of every layer under `src/bglb`
from the benchmark's side: each wrapped call records one span (id, parent
id, name, start, end, thread, extra) in memory, and `dump()` writes them
when the sample ends.  Every `bglb.*` module that imported a wrapped name
is rebound, so calls between modules are seen as well as calls within one.
Span stacks are kept per thread; spans started inside `parallel_map`
workers get the `parallel_map` span as parent.

`layer_metrics()` turns a dumped span file into the per-layer metrics the
benchmark reports under --trace 1.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from statistics import median

# layer -> functions wrapped in it; the layer names are the modules
TRACED = {
    "generators": ("build",),
    "complexes": ("rank_select", "link", "colored_link", "h_vector", "flag_vectors",
                  "from_dict", "to_dict"),
    "homology": ("is_gorenstein_star", "is_cohen_macaulay", "reduced_betti", "boundary_matrix"),
    "util": ("parallel_map",),
    "inequalities": ("verify_nonnegativity", "verify_rank_selected", "verify_selection_sum",
                     "verify_link_sum", "flag_symmetry", "equality_analysis"),
    "sr_algebra": ("monomial_basis", "ideal_piece", "quotient_hilbert", "verify_lsop",
                   "draw_verified_lsop", "random_forms", "colored_lsop", "graded_dimension",
                   "multiplication_injective", "multigraded_series_check"),
    "linalg": ("rank_mod_p", "rank_and_extension_mod_p", "sketch_columns"),
    "report": ("run_battery", "run_instance"),
    "cli": ("main", "cmd_verify"),
}

# `cli` serializes the report with json.dumps; that call is traced under this name
SERIALIZE = "report.serialize"


def _shape(mat) -> tuple[int, int]:
    import numpy as np

    shape = np.shape(mat)
    return (shape[0], shape[1]) if len(shape) == 2 else (1, shape[0] if shape else 1)


def _extension_shape(args, out):
    (rows, cols_a), (_, cols_b) = _shape(args[0]), _shape(args[1])
    return [rows, cols_a + cols_b]


# per-call numbers kept in the span's extra slot
_EXTRA = {
    "linalg.rank_mod_p": lambda args, out: list(_shape(args[0])),
    "linalg.rank_and_extension_mod_p": _extension_shape,
    "linalg.sketch_columns": lambda args, out: _shape(args[0])[1],
    "sr_algebra.ideal_piece": lambda args, out: list(_shape(out)),
    "util.parallel_map": lambda args, out: len(out),
}


class _JsonWithTracedDumps:
    """Stands in for the json module inside bglb.cli, with dumps traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bases: dict[int, object] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        code = len(self.names)
        self.names.append(name)
        extra_of = _EXTRA.get(name)
        if name == "sr_algebra.monomial_basis":
            extra_of = self._basis_hit
        spans, ids, stack_of = self.spans, self._ids, self._stack
        adopt = name == "util.parallel_map"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            if adopt:
                args = (self._adopting(args[0], sid),) + args[1:]
            stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = extra_of(args, out) if extra_of is not None and out is not None else None
                spans.append((sid, parent, code, t0, t1, threading.get_ident(), extra))

        return traced

    def _adopting(self, fn, sid: int):
        """fn run with `sid` as the enclosing span in whichever thread runs it."""
        stack_of = self._stack

        def adopted(x):
            stack = stack_of()
            stack.append(sid)
            try:
                return fn(x)
            finally:
                stack.pop()

        return adopted

    def _basis_hit(self, args, out) -> int:
        """1 when monomial_basis returned an object already seen in this run."""
        hit = id(out) in self._bases
        self._bases[id(out)] = out
        return int(hit)

    def install(self) -> None:
        import bglb  # noqa: F401  loads every layer but cli
        import bglb.cli

        modules = [m for n, m in sys.modules.items() if n == "bglb" or n.startswith("bglb.")]
        for layer, fnames in TRACED.items():
            owner = sys.modules["bglb." + layer]
            for fname in fnames:
                orig = getattr(owner, fname)
                traced = self.wrap(orig, layer + "." + fname)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)
        bglb.cli.json = _JsonWithTracedDumps(self.wrap(json.dumps, SERIALIZE))

    def dump(self, path: str) -> None:
        threads: dict[int, int] = {}
        rows = [[sid, parent, code, t0, t1, threads.setdefault(tid, len(threads)), extra]
                for sid, parent, code, t0, t1, tid, extra in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": rows}, fh)


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "thread", "extra", "self_s")

    def __init__(self, sid, parent, name, t0, t1, thread, extra):
        self.sid, self.parent, self.name = sid, parent, name
        self.t0, self.t1, self.thread, self.extra = t0, t1, thread, extra
        self.self_s = t1 - t0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def load_spans(path: str) -> list[Span]:
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    spans = [Span(sid, parent, names[code], t0, t1, th, extra)
             for sid, parent, code, t0, t1, th, extra in data["spans"]]
    compute_self_times(spans)
    return spans


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def compute_self_times(spans: list[Span]) -> None:
    """self_s = duration minus the part of it that child spans cover.

    Children running in parallel threads can overlap; their union is
    subtracted, not their sum."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append((s.t0, s.t1))
    for s in spans:
        s.self_s = s.dur - covered(kids.get(s.sid, []))


def percentile_tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it: the 11th
    largest value.  0 when there are fewer than eleven samples."""
    if len(values) < 11:
        return 0.0
    return sorted(values)[-11]


def _metrics(unit: str, better: str, *names: str) -> dict[str, tuple[str, str]]:
    return {n: (unit, better) for n in names}


# name -> (unit, better), in the order of BENCHMARK.json's per_layer
PER_LAYER = {
    **_metrics("count", "lower", "complexes.rank_select.calls", "complexes.link.calls",
               "complexes.colored_link.calls", "homology.reduced_betti.calls",
               "util.parallel_map.items", "linalg.rank_mod_p.calls",
               "linalg.rank_and_extension_mod_p.calls", "linalg.sketch_columns.calls",
               "linalg.sketch_columns.cols_in", "sr_algebra.monomial_basis.calls",
               "sr_algebra.ideal_piece.calls", "sr_algebra.draw_verified_lsop.redraws",
               "sr_algebra.multiplication_injective.calls"),
    **_metrics("s", "lower", "complexes.rank_select.s", "complexes.link.s",
               "complexes.colored_link.s", "inequalities.verify_selection_sum.s",
               "inequalities.verify_rank_selected.s", "homology.is_gorenstein_star.s",
               "homology.is_cohen_macaulay.s", "homology.reduced_betti.s",
               "homology.boundary_matrix.s", "util.parallel_map.s", "linalg.rank_mod_p.s",
               "linalg.rank_and_extension_mod_p.s", "linalg.sketch_columns.s",
               "sr_algebra.monomial_basis.s", "sr_algebra.ideal_piece.s",
               "sr_algebra.quotient_hilbert.s", "sr_algebra.draw_verified_lsop.s",
               "sr_algebra.multiplication_injective.s", "sr_algebra.multigraded_series_check.s",
               "generators.build.s"),
    **_metrics("ratio", "higher", "homology.betti_reuse_ratio",
               "sr_algebra.monomial_basis.hit_ratio"),
    **_metrics("cells", "lower", "linalg.rank_mod_p.max_cells",
               "linalg.rank_and_extension_mod_p.max_cells", "sr_algebra.ideal_piece.max_cells"),
    **_metrics("ops", "lower", "linalg.rank_mod_p.ops", "linalg.rank_and_extension_mod_p.ops"),
    **_metrics("B", "lower", "linalg.bytes"),
    **_metrics("ms", "lower", "sr_algebra.multiplication_injective.p50_ms",
               "sr_algebra.multiplication_injective.ptail_ms"),
    # self time per layer; report.serialize_s is json.dumps of the report
    **_metrics("s", "lower", "report.serialize_s",
               *("%s.self_s" % layer for layer in TRACED)),
    # process.cpu_s comes from the untraced sample; trace.overhead_s is the
    # traced sample's wall_s minus the untraced one's
    **_metrics("s", "lower", "process.cpu_s", "trace.wall_s", "trace.overhead_s"),
    # inclusive time of the workload's predicted dominant function / trace.wall_s
    **_metrics("ratio", "lower", "trace.dominant_share"),
}


def _has_ancestor(s: Span, by_id: dict[int, Span], names) -> bool:
    p = by_id.get(s.parent)
    while p is not None and p.name not in names:
        p = by_id.get(p.parent)
    return p is not None


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The traced part of PER_LAYER: everything but process.cpu_s and the
    trace.* numbers, which need the untraced sample."""
    by_id = {s.sid: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, under=None):
        return [s for s in by_name.get(name, ()) if under is None or _has_ancestor(s, by_id, under)]

    def extras(name):
        return [s.extra for s in named(name) if s.extra is not None]

    m: dict[str, float] = {}
    for key in PER_LAYER:
        fn, _, stat = key.rpartition(".")
        if stat == "calls":
            m[key] = len(named(fn))
        elif stat == "s":
            # a recursive call is counted once, by its outermost span
            m[key] = sum(s.dur for s in named(fn) if not _has_ancestor(s, by_id, {fn}))

    certs = {"homology.is_gorenstein_star", "homology.is_cohen_macaulay"}
    links = len(named("complexes.link", certs))
    bettis = len(named("homology.reduced_betti", certs))
    m["homology.betti_reuse_ratio"] = 1 - bettis / links if links else 0.0
    m["util.parallel_map.items"] = sum(extras("util.parallel_map"))

    # computed, not measured: Σ rows·cols·min(rows, cols) and the int64
    # bytes of every matrix entering elimination
    total_bytes = 0
    for name in ("linalg.rank_mod_p", "linalg.rank_and_extension_mod_p"):
        shapes = extras(name)
        m[name + ".max_cells"] = max((r * c for r, c in shapes), default=0)
        m[name + ".ops"] = sum(r * c * min(r, c) for r, c in shapes)
        total_bytes += sum(8 * r * c for r, c in shapes)
    m["linalg.bytes"] = total_bytes
    m["linalg.sketch_columns.cols_in"] = sum(extras("linalg.sketch_columns"))

    hits = extras("sr_algebra.monomial_basis")
    m["sr_algebra.monomial_basis.hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
    m["sr_algebra.ideal_piece.max_cells"] = max(
        (r * c for r, c in extras("sr_algebra.ideal_piece")), default=0)
    lsop_checks = len(named("sr_algebra.verify_lsop", {"sr_algebra.draw_verified_lsop"}))
    m["sr_algebra.draw_verified_lsop.redraws"] = (
        lsop_checks - len(named("sr_algebra.draw_verified_lsop")))
    inj_ms = [1000 * s.dur for s in named("sr_algebra.multiplication_injective")]
    m["sr_algebra.multiplication_injective.p50_ms"] = median(inj_ms) if inj_ms else 0.0
    m["sr_algebra.multiplication_injective.ptail_ms"] = percentile_tail(inj_ms)

    layer_self: dict[str, float] = {}
    for s in spans:
        key = "report.serialize" if s.name == SERIALIZE else s.name.split(".", 1)[0]
        layer_self[key] = layer_self.get(key, 0.0) + s.self_s
    m["report.serialize_s"] = layer_self.get("report.serialize", 0.0)
    for layer in TRACED:
        m[layer + ".self_s"] = layer_self.get(layer, 0.0)
    return m
