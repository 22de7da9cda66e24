"""Span tracing around calls into the treepcg layers, plus the statistics the
benchmark reports.

A boundary is a function looked up by name in some module (or class) at call
time.  ``Tracer.recording`` replaces each boundary with a wrapper for the
duration of one operation and restores the original afterwards, so untraced
operations run the unmodified program.  Every call through a wrapper records a
span ``{id, name, start, end, parent, run_id}``; spans stay in memory and are
written out once the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
from time import perf_counter

# (owner, attribute, span name).  The owner is the module or class in which
# the caller looks the name up: pcg binds laplacian_apply and pseudo_solve at
# import, cli binds the tree builders, generalized_spectrum and pcg_solve, and
# the benchmark's own flows call through the package namespace.
BOUNDARIES = (
    ("treepcg", "read_edge_list", "graphs.read_edge_list"),
    ("treepcg", "generate", "graphs.generate"),
    ("treepcg.cli", "generate", "graphs.generate"),
    ("treepcg.pcg", "laplacian_apply", "graphs.laplacian_apply"),
    ("treepcg.cli", "dense_laplacian", "graphs.dense_laplacian"),
    ("treepcg.spectral", "dense_laplacian", "graphs.dense_laplacian"),
    ("treepcg", "write_vector", "graphs.write"),
    ("treepcg", "max_weight_spanning_tree", "trees.build"),
    ("treepcg", "low_stretch_heuristic_tree", "trees.build"),
    ("treepcg.cli", "max_weight_spanning_tree", "trees.build"),
    ("treepcg.cli", "low_stretch_heuristic_tree", "trees.build"),
    ("treepcg", "stretch_report", "trees.stretch_report"),
    ("treepcg.cli", "stretch_report", "trees.stretch_report"),
    ("treepcg.trees.StretchReport", "write_csv", "trees.report_write"),
    ("treepcg.trees.StretchReport", "write_json_summary", "trees.report_write"),
    ("treepcg", "factor", "treesolver.factor"),
    ("treepcg.cli", "factor", "treesolver.factor"),
    ("treepcg.pcg", "pseudo_solve", "treesolver.pseudo_solve"),
    ("treepcg", "pcg_solve", "pcg.pcg_solve"),
    ("treepcg.cli", "pcg_solve", "pcg.pcg_solve"),
    ("treepcg.cli", "generalized_spectrum", "spectral.generalized_spectrum"),
    ("treepcg.cli", "run_verify", "cli.run_verify"),
)


def _annotate(name, result):
    """Facts about a call's result that the per-layer report needs."""
    if name == "trees.build":
        return {"depth": int(result.depth.max())}
    if name == "trees.stretch_report":
        return {"max_stretch": float(result.values.max())}
    if name == "pcg.pcg_solve":
        return {"iterations": int(result.iterations), "a_norm_error": result.a_norm_error}
    return None


def resolve_owner(path: str):
    """Import ``a.b`` or ``a.b.Class`` and return the module or class."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans = []
        self._stack = []
        self._run_id = None

    def _wrap(self, original, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": stack[-1]["id"] if stack else None,
                "run_id": self._run_id,
            }
            spans.append(span)
            stack.append(span)
            span["start"] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                stack.pop()
            meta = _annotate(name, result)
            if meta:
                span["meta"] = meta
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, run_id):
        """Trace every boundary for the duration of the block."""
        saved = []
        try:
            for owner_path, attr, name in self.boundaries:
                owner = resolve_owner(owner_path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            self._run_id = run_id
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._run_id = None
            self._stack.clear()


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children.

    Calls are synchronous, so children never overlap each other and lie
    inside their parent's interval.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def by_name(spans) -> dict:
    """Span name -> {calls, total_s, self_s, durations, meta}."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        entry = out.setdefault(
            s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "meta": []}
        )
        duration = s["end"] - s["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += selfs[s["id"]]
        entry["durations"].append(duration)
        if "meta" in s:
            entry["meta"].append(s["meta"])
    return out


def by_layer(spans) -> dict:
    """Layer (the span name up to its first dot) -> summed self time."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + selfs[s["id"]]
    return out


def child_time(spans, parent_name: str, child_name: str) -> float:
    """Total duration of ``child_name`` spans whose direct parent is a
    ``parent_name`` span."""
    parents = {s["id"] for s in spans if s["name"] == parent_name}
    return sum(s["end"] - s["start"] for s in spans if s["name"] == child_name and s["parent"] in parents)


# ---------------------------------------------------------------------------
# statistics


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def tail_percentile(n: int):
    """The highest of p90, p99 and p99.9 with at least ten samples above it,
    or None when the sample is too small for any of them."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def describe(values) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    out = {"median": median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out
