"""Span tracer that wraps graphonlab's public functions from outside.

The package is never edited: `Tracer.install` replaces each listed
function wherever any graphonlab module binds its name, so cross-module
calls (cutmetric calling equalize, density calling hom_count) get spans
too.  Names that no longer exist are skipped and listed, so the trace
keeps working after functions are merged or renamed.

Each span records its name, wall start and end, the calling thread's CPU
clock at both ends, its parent span and its thread.  Every thread keeps
its own span stack.  A span that opens on an empty stack of a worker
thread takes the main thread's innermost open span as its parent, so
work fanned out to a thread pool still counts as a child of the CLI call
that started it.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "graphonlab"

# cut_distance searches all m! permutations up to this many blocks (the
# bound documented in the README) and hill-climbs above it.
EXHAUSTIVE_MAX = 10

# Functions to wrap, as module.attribute paths under the package.
TARGETS = (
    "cli.main",
    "sampling.erdos_renyi",
    "sampling.uniform_attachment",
    "sampling.w_random_graph",
    "graphs.Graph.from_edges",
    "graphs.parse_edge_list",
    "graphs.serialize_edge_list",
    "graphs.hom_count",
    "graphons.pixel_graphon",
    "graphons.uniform_attachment_limit",
    "graphons.equalize",
    "graphons.subtract",
    "graphons.render_pgm",
    "density.density_graph",
    "density.density_step",
    "density.density_mc",
    "cutmetric.cut_distance",
    "cutmetric.distance_to_constant",
    "cutmetric.cut_norm_exact",
    "cutmetric.cut_norm_heuristic",
    "streams.substream",
)

# Span names; cut_distance is split by search regime.
SPANS = tuple(
    name
    for target in TARGETS
    for name in (
        (target + ".exhaustive", target + ".hillclimb")
        if target == "cutmetric.cut_distance"
        else (target,)
    )
)

SAMPLERS = ("sampling.erdos_renyi", "sampling.uniform_attachment", "sampling.w_random_graph")


class Span(NamedTuple):
    id: int
    name: str
    t0: float
    t1: float
    c0: float
    c1: float
    parent: int | None
    thread: int
    work: int | None  # computed count of work units, from arguments or result
    exact: bool | None  # CutResult.exact of the returned value


def _exact(result):
    exact = getattr(result, "exact", None)
    return exact if isinstance(exact, bool) else None


def _edges(result):
    return getattr(result, "edge_count", None)


def _cut_distance(a, result):
    if a["resolution"] <= EXHAUSTIVE_MAX:
        return ".exhaustive", math.factorial(a["resolution"]), _exact(result)
    return ".hillclimb", None, _exact(result)


# Probes turn a call's bound arguments and result into
# (name suffix, work count, exact flag).  The result is None when the
# call raised.
PROBES = {
    "cutmetric.cut_distance": _cut_distance,
    "cutmetric.cut_norm_exact": lambda a, r: ("", 2 ** a["kernel"].k, _exact(r)),
    "cutmetric.cut_norm_heuristic": lambda a, r: ("", None, _exact(r)),
    "cutmetric.distance_to_constant": lambda a, r: ("", None, _exact(r)),
    "density.density_step": lambda a, r: ("", a["w"].k ** a["pattern"].n, None),
    "density.density_mc": lambda a, r: ("", a["samples"], None),
    **{name: (lambda a, r: ("", _edges(r), None)) for name in SAMPLERS},
}


class Tracer:
    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def wrap(self, name: str, fn, probe=None):
        """Return fn wrapped in a span; values and exceptions pass through unchanged."""
        sig = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                top = self._stacks.get(self._main, [])[-1:]
                parent = top[0] if top and thread != self._main else None
            sid = next(self._ids)
            stack.append(sid)
            result = None
            c0 = self.cpu_clock()
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = self.clock()
                c1 = self.cpu_clock()
                stack.pop()
                suffix, work, exact = "", None, None
                if probe is not None:
                    try:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        suffix, work, exact = probe(bound.arguments, result)
                    except (AttributeError, KeyError, TypeError, ValueError):
                        pass
                self.spans.append(
                    Span(sid, name + suffix, t0, t1, c0, c1, parent, thread, work, exact)
                )

        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target wherever the package binds it; return the skipped names."""
        skipped = []
        resolved = []
        for target in targets:
            mod_name, *path = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                skipped.append(target)
                continue
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(path[-1]) if owner is not None else None
            if raw is None or not callable(getattr(raw, "__func__", raw)):
                skipped.append(target)
                continue
            resolved.append((target, owner, path[-1], raw))
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for target, owner, attr, raw in resolved:
            probe = PROBES.get(target)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.wrap(target, raw.__func__, probe)))
                continue
            wrapped = self.wrap(target, raw, probe)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)
        return skipped

    def dump(self, skipped=()) -> dict:
        return {"skipped": list(skipped), "spans": [list(s) for s in self.spans]}


# ───────────────────────── aggregation ─────────────────────────


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class LayerStats:
    """Per-span-name sums over any number of traced processes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.wait_s = defaultdict(float)
        self.work = defaultdict(int)
        self.exact = [0, 0]  # [exact results, all results] of outermost cutmetric spans

    def add(self, spans) -> None:
        """Add the spans of one process (Span tuples or dumped lists)."""
        spans = [Span(*s) for s in spans]
        by_id = {s.id: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append(s)
        for s in spans:
            kids = children.get(s.id, ())
            self_wall = (s.t1 - s.t0) - _covered(
                (max(k.t0, s.t0), min(k.t1, s.t1)) for k in kids if k.t1 > s.t0 and k.t0 < s.t1
            )
            self_cpu = (s.c1 - s.c0) - sum(k.c1 - k.c0 for k in kids if k.thread == s.thread)
            self.calls[s.name] += 1
            self.total_s[s.name] += s.t1 - s.t0
            self.self_s[s.name] += self_wall
            self.wait_s[s.name] += self_wall - self_cpu
            if s.work is not None:
                self.work[s.name] += s.work
            if s.exact is not None and not _inside_cutmetric(s, by_id):
                self.exact[0] += s.exact
                self.exact[1] += 1


def _inside_cutmetric(span: Span, by_id) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name.startswith("cutmetric."):
            return True
        parent = by_id.get(parent.parent)
    return False


def _per_unit(seconds: float, units: int, scale: float) -> float:
    return seconds / units * scale if units else 0.0


# Counts computed at span boundaries: (metric, unit, better, value function).
COUNTS = (
    ("cutmetric.cut_distance.exhaustive.perms", "count", "lower",
     lambda st: st.work["cutmetric.cut_distance.exhaustive"]),
    ("cutmetric.cut_distance.exhaustive.us_per_perm", "us", "lower",
     lambda st: _per_unit(st.self_s["cutmetric.cut_distance.exhaustive"],
                          st.work["cutmetric.cut_distance.exhaustive"], 1e6)),
    ("cutmetric.cut_norm_exact.subsets", "count", "lower",
     lambda st: st.work["cutmetric.cut_norm_exact"]),
    ("cutmetric.cut_norm_exact.ns_per_subset", "ns", "lower",
     lambda st: _per_unit(st.self_s["cutmetric.cut_norm_exact"],
                          st.work["cutmetric.cut_norm_exact"], 1e9)),
    ("density.density_step.block_maps", "count", "lower",
     lambda st: st.work["density.density_step"]),
    ("density.density_step.ns_per_map", "ns", "lower",
     lambda st: _per_unit(st.self_s["density.density_step"],
                          st.work["density.density_step"], 1e9)),
    ("density.density_mc.samples", "count", "lower",
     lambda st: st.work["density.density_mc"]),
    ("density.density_mc.ns_per_sample", "ns", "lower",
     lambda st: _per_unit(st.self_s["density.density_mc"],
                          st.work["density.density_mc"], 1e9)),
    ("sampling.edges", "count", "lower",
     lambda st: sum(st.work[name] for name in SAMPLERS)),
    ("cutmetric.exact_frac", "ratio", "higher",
     lambda st: st.exact[0] / st.exact[1] if st.exact[1] else 0.0),
)

OVERHEAD = ("trace.overhead_s", "s", "lower")

_FIELDS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("wait_s", "s"))


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{span}.{field}", unit, "lower") for span in SPANS for field, unit in _FIELDS]
    specs.extend((name, unit, better) for name, unit, better, _ in COUNTS)
    specs.append(OVERHEAD)
    return specs


def layer_metrics(stats: LayerStats, overhead_s: float) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}; absent spans read 0."""
    out = {}
    for span in SPANS:
        for field, unit in _FIELDS:
            out[f"{span}.{field}"] = {"value": getattr(stats, field)[span], "unit": unit}
    for name, unit, _, value in COUNTS:
        out[name] = {"value": value(stats), "unit": unit}
    out[OVERHEAD[0]] = {"value": overhead_s, "unit": OVERHEAD[1]}
    return out
