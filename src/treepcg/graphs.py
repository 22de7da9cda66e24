"""Weighted undirected graphs: Laplacian action, generators, text I/O.

A graph is stored as a canonical sorted edge list (u < v) in three arrays;
:func:`components`, hook and compress on whole arrays, serves connectivity,
the giant component of a gnp graph, the regular generator's connectivity
test and the merges of the max-weight spanning tree.  The Laplacian
L = sum_e w(e) (psi_u - psi_v)(psi_u - psi_v)^T is never materialized except
through :func:`dense_laplacian`, which is capped to desk scale and exists to
back brute-force verification.
"""
from __future__ import annotations

import contextlib
import json
import random
import re
import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

import numpy as np

DEFAULT_DENSE_CAP = 500


class GraphError(ValueError):
    """Invalid graph construction or use."""


class WeightedGraph:
    """Immutable undirected graph with strictly positive edge weights.

    Vertex ids are 0..n-1; ``edges`` holds (u, v, w) triples, as a sequence
    or an (m, 3) array.  Edges are canonicalized to u < v and sorted, so
    iteration order is reproducible.  An invalid edge raises GraphError for
    the first offender in input order (duplicates: in sorted order).
    Connectivity is read off :func:`components` at build time.
    """

    __slots__ = ("n", "edge_u", "edge_v", "edge_w", "_connected")

    def __init__(self, n: int, edges):
        if n <= 0:
            raise GraphError(f"vertex count must be positive, got {n}")
        e = np.asarray(edges, dtype=np.float64)
        if e.size == 0:
            e = e.reshape(0, 3)
        if e.ndim != 2 or e.shape[1] != 3:
            raise GraphError(f"edges must be (u, v, w) triples, got an array of shape {e.shape}")
        u, v, w = np.trunc(e[:, 0]), np.trunc(e[:, 1]), e[:, 2]
        fraction = (u != e[:, 0]) | (v != e[:, 1])      # NaN too
        out_of_range = ~((0 <= u) & (u < n) & (0 <= v) & (v < n))
        bad = fraction | out_of_range | (u == v) | ~(w > 0.0) | ~np.isfinite(w)
        if bad.any():
            i = int(bad.argmax())
            ui, vi = _id_text(e[i, 0]), _id_text(e[i, 1])
            if fraction[i]:
                raise GraphError(f"non-integer vertex id in edge ({ui}, {vi})")
            if out_of_range[i]:
                raise GraphError(f"vertex id out of range in edge ({ui}, {vi})")
            if ui == vi:
                raise GraphError(f"self-loop at vertex {ui}")
            raise GraphError(f"edge ({ui}, {vi}) has nonpositive weight {float(w[i])}")
        a = np.minimum(u, v).astype(np.int64)
        b = np.maximum(u, v).astype(np.int64)
        del u, v        # so that the sort's key and index do not raise the build's peak
        idx = pair_order(n, a, b)
        a, b = a[idx], b[idx]
        dup = np.flatnonzero((a[1:] == a[:-1]) & (b[1:] == b[:-1]))
        if len(dup):
            raise GraphError(f"duplicate edge ({a[dup[0]]}, {b[dup[0]]})")
        self.n = n
        self.edge_u = a
        self.edge_v = b
        self.edge_w = w[idx]
        self._connected = not components(n, a, b).any()

    @property
    def m(self) -> int:
        return len(self.edge_w)

    @property
    def edges(self):
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist()))

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


def _id_text(x) -> str:
    """A vertex id, int or float, as given: an integral value as an int, any
    other as a float."""
    return str(int(x)) if np.isfinite(x) and x == np.trunc(x) else repr(float(x))


def is_connected(g: WeightedGraph) -> bool:
    return g._connected


# Sorts by one int64 key: on keys in no particular order, numpy's default
# argsort of an int64 array is several times faster than its stable sort
# (timsort) or a multi-key lexsort.


def pair_order(n: int, a, b) -> np.ndarray:
    """Indices that sort the pairs (a[i], b[i]) of ids in 0..n-1 by (a, b);
    equal pairs come out in no fixed order.  One argsort of the key
    a * n + b, which is below n * n and so exact in int64 while
    n * n < 2**63; past that, a two-key lexsort."""
    n = int(n)
    if n * n >= 2**63:
        return np.lexsort((b, a))
    return np.argsort(a * n + b)


def components(n: int, u, v) -> np.ndarray:
    """Each vertex's component label, the smallest vertex id in its component,
    for the graph on 0..n-1 with edges (u[i], v[i]).

    Shiloach-Vishkin hook and compress on whole arrays.  Each round, every
    root hooks to the smallest root across its crossing edges, then
    ``f = f[f]`` runs until every label is a root; labels only fall, so a
    root is its component's smallest vertex.  A root that does not hook is
    smaller than its neighbours, which hook to roots no larger than it, so
    it merges in this round or the next: O(log n) rounds.  Edges are carried
    as edges between roots, those inside one component dropped."""
    f = np.arange(n)
    while True:
        u, v = f[u], f[v]
        cross = u != v
        if not cross.any():
            return f
        u, v = np.minimum(u[cross], v[cross]), np.maximum(u[cross], v[cross])
        np.minimum.at(f, v, u)
        f = _jump(f)


def _jump(f: np.ndarray) -> np.ndarray:
    """Pointers followed to their fixed points by pointer jumping: rounds of
    ``f = f[f]`` until stable, O(log d) of them for chains of length d."""
    g = f[f]
    while not np.array_equal(g, f):
        f, g = g, g[g]
    return f


def laplacian_apply(g: WeightedGraph, x) -> np.ndarray:
    """Return L x using the edge list directly; O(n + m), no dense matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise GraphError(f"vector length {x.shape} does not match n={g.n}")
    d = g.edge_w * (x[g.edge_u] - x[g.edge_v])
    y = np.zeros(g.n)
    np.add.at(y, g.edge_u, d)
    np.add.at(y, g.edge_v, -d)
    return y


def dense_laplacian(g: WeightedGraph, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense Laplacian for verification at desk scale only."""
    if g.n > cap:
        raise GraphError(f"n={g.n} exceeds dense cap {cap}")
    L = np.zeros((g.n, g.n))
    L[g.edge_u, g.edge_v] = L[g.edge_v, g.edge_u] = -g.edge_w
    # bincount adds the interleaved ends in edge order, as a per-edge loop would
    ends = np.stack([g.edge_u, g.edge_v], axis=1).ravel()
    L[np.diag_indices(g.n)] = np.bincount(ends, np.repeat(g.edge_w, 2), minlength=g.n)
    return L


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str                 # "grid" | "gnp" | "regular"
    params: dict
    weighting: str            # "unit" | "logw"

    def __str__(self):
        if self.kind == "grid":
            p = f"{self.params['rows']}x{self.params['cols']}"
        else:
            p = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.kind}:{p}:{self.weighting}"


_GRID_RE = re.compile(r"^(\d+)x(\d+)$")


def parse_generator_spec(text: str) -> GeneratorSpec:
    """Parse strings like "grid:30x30:unit" or "gnp:n=1000,p=0.01:logw"."""
    parts = text.strip().split(":")
    if len(parts) == 2:
        parts.append("unit")
    if len(parts) != 3:
        raise GraphError(f"malformed generator spec {text!r}: expected kind:params[:weights]")
    kind, params_str, weighting = parts
    if weighting not in ("unit", "logw"):
        raise GraphError(f"malformed generator spec {text!r}: unknown weighting {weighting!r}")
    if kind == "grid":
        m = _GRID_RE.match(params_str)
        if not m:
            raise GraphError(f"malformed generator spec {text!r}: grid wants ROWSxCOLS")
        params = {"rows": int(m.group(1)), "cols": int(m.group(2))}
    elif kind in ("gnp", "regular"):
        params = {}
        for item in params_str.split(","):
            if "=" not in item:
                raise GraphError(f"malformed generator spec {text!r}: bad parameter {item!r}")
            k, v = item.split("=", 1)
            params[k.strip()] = v.strip()
        key, cast = ("p", float) if kind == "gnp" else ("d", int)
        try:
            params = {"n": int(params["n"]), key: cast(params[key])}
        except (KeyError, ValueError) as exc:
            want = f"n=INT,{key}={cast.__name__.upper()}"
            raise GraphError(f"malformed generator spec {text!r}: {kind} wants {want}") from exc
    else:
        raise GraphError(f"malformed generator spec {text!r}: unknown kind {kind!r}")
    return GeneratorSpec(kind, params, weighting)


def _grid_edges(rows: int, cols: int):
    """Each vertex's right, then lower neighbour; vertices in row-major order."""
    n = rows * cols
    u = np.repeat(np.arange(n), 2)
    right = np.tile([True, False], n)
    v = np.where(right, u + 1, u + cols)
    keep = np.where(right, u % cols + 1 < cols, v < n)
    return n, u[keep], v[keep]


_GNP_BLOCK = 1 << 20    # uniforms drawn at a time: 8 MB, whatever n is


def _gnp_edges(n: int, p: float, rng: np.random.Generator):
    """Pair k of the row-major upper triangle is an edge iff the k-th uniform
    is below p.  Drawn in blocks, the uniforms are the same stream as in one
    call, so memory is O(n + m + block) instead of O(n^2)."""
    if n < 1:
        return 0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    rows = np.arange(n)
    row_start = rows * (2 * n - rows - 1) // 2     # index of pair (i, i + 1)
    total = n * (n - 1) // 2
    hits = [np.zeros(0, dtype=np.int64)]
    for start in range(0, total, _GNP_BLOCK):
        hits.append(start + np.flatnonzero(rng.random(min(_GNP_BLOCK, total - start)) < p))
    k = np.concatenate(hits)
    u = np.searchsorted(row_start, k, side="right") - 1
    return _giant_component(n, u, k - row_start[u] + u + 1)


def _giant_component(n: int, u, v):
    """The largest component, ties to the one holding the smallest vertex,
    relabelled in increasing vertex id; its edges keep their input order."""
    comp = components(n, u, v)
    sizes = np.bincount(comp, minlength=n)
    c = int(sizes.argmax())         # the first maximum: the smallest label
    keep = comp == c
    label = np.cumsum(keep) - 1
    mask = keep[u]
    return int(sizes[c]), label[u[mask]], label[v[mask]]


def _regular_edges(n: int, d: int, seed: int):
    """A connected d-regular graph: the first of ``_random_regular`` with
    seeds seed * 1000 + attempt, attempt = 0, 1, ..., that is connected."""
    if (n * d) % 2 != 0 or d >= n or d < 1:
        raise GraphError(f"impossible regular graph parameters n={n}, d={d}")
    for attempt in range(100):
        u, v = _random_regular(n, d, seed * 1000 + attempt)
        if not components(n, u, v).any():
            return n, u, v
    raise GraphError(f"could not generate a connected {d}-regular graph on {n} vertices")


def _random_regular(n: int, d: int, seed: int):
    """The edges of networkx's ``random_regular_graph(d, n, seed)``, in the
    order of its ``G.edges()``: the set that the stub pairing built, in
    iteration order, stably sorted by the smaller endpoint.  The order
    decides which weight each edge gets."""
    rng = random.Random(seed)
    edges = None
    while edges is None:
        edges = _pair_stubs(n, d, rng)
    uv = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges)).reshape(-1, 2)
    return uv[np.argsort(uv[:, 0], kind="stable")].T


def _pair_stubs(n: int, d: int, rng: random.Random):
    """One try of Steger and Wormald's stub pairing (1999), line for line as
    networkx's ``_try_creation``, so that a seed gives the same set built in
    the same order: the set of (min, max) edges, or None when the leftover
    stubs can no longer be paired."""
    edges = set()
    stubs = list(range(n)) * d
    while stubs:
        potential_edges = defaultdict(int)
        rng.shuffle(stubs)
        stubiter = iter(stubs)
        for s1, s2 in zip(stubiter, stubiter):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential_edges[s1] += 1
                potential_edges[s2] += 1
        if not _suitable(edges, potential_edges):
            return None
        stubs = [node for node, potential in potential_edges.items() for _ in range(potential)]
    return edges


def _suitable(edges, potential_edges) -> bool:
    """Whether two leftover stubs could still form a new edge; networkx's
    test, kept as it is (the swap also changes ``s1`` for the rest of the
    inner loop) so that it fails exactly when networkx's does."""
    if not potential_edges:
        return True
    for s1 in potential_edges:
        for s2 in potential_edges:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def generate(spec, seed: int) -> WeightedGraph:
    """Deterministic graph generation; output is always connected."""
    if isinstance(spec, str):
        spec = parse_generator_spec(spec)
    if seed < 0:
        raise GraphError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng([int(seed), 0x5EED])
    if spec.kind == "grid":
        n, u, v = _grid_edges(spec.params["rows"], spec.params["cols"])
    elif spec.kind == "gnp":
        n, u, v = _gnp_edges(spec.params["n"], spec.params["p"], rng)
    elif spec.kind == "regular":
        n, u, v = _regular_edges(spec.params["n"], spec.params["d"], int(seed))
    else:
        raise GraphError(f"unknown generator kind {spec.kind!r}")
    if n < 2:
        raise GraphError(f"{spec} gives {n} vertices, fewer than 2")
    wrng = np.random.default_rng([int(seed), 0x17])
    if spec.weighting == "unit":
        weights = np.ones(len(u))
    else:
        weights = 10.0 ** wrng.uniform(-1.0, 1.0, size=len(u))
    return WeightedGraph(n, np.column_stack((u, v, weights)))


# ---------------------------------------------------------------------------
# text I/O: edge lists ("u v w" a line), vectors (one value a line), JSON


def _loadtxt(fh, dtype, ndmin):
    """``np.loadtxt`` of the open file ``fh``, or None where it fails, so
    that the line reader can name the line; a ``#`` fails here, for the line
    reader to skip or reject.  No data gives no rows, without a warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(fh, dtype=dtype, ndmin=ndmin, comments=None)
        except ValueError:
            return None


def read_edge_list(path) -> WeightedGraph:
    """The graph on 0..max id.  A file ``np.loadtxt`` parses whole with no
    self-loop or nonpositive weight is read once; any other file's text goes
    to the line reader, which names the first bad line."""
    with open(path) as fh:
        rec = _loadtxt(fh, [("u", "i8"), ("v", "i8"), ("w", "f8")], 1)
        if rec is not None and not (rec["u"] == rec["v"]).any() and (rec["w"] > 0.0).all():
            edges = np.column_stack((rec["u"], rec["v"], rec["w"]))
        else:
            fh.seek(0)
            edges = _parse_edge_lines(path, fh.read())
    del rec     # the records need not outlive the graph build
    max_id = int(edges[:, :2].max()) if len(edges) else -1
    if max_id < 0:
        raise GraphError(f"{path}: no edges")
    return WeightedGraph(max_id + 1, edges)


def _data_lines(text):
    """(line number, stripped line) for each line that is not blank or a comment."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _parse_edge_lines(path, text) -> np.ndarray:
    """Line by line, raising a line-numbered GraphError for the first bad line."""
    values = []
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise GraphError(f"{path}:{lineno}: expected 'u v w', got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise GraphError(f"{path}:{lineno}: could not parse {line!r}") from exc
        if u == v:
            raise GraphError(f"{path}:{lineno}: self-loop at vertex {u}")
        if not (w > 0.0):
            raise GraphError(f"{path}:{lineno}: nonpositive weight {w}")
        values += (u, v, w)
    return np.array(values, dtype=np.float64).reshape(-1, 3)


def write_edge_list(g: WeightedGraph, path) -> None:
    with open(path, "w") as fh:
        for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()):
            fh.write(f"{u} {v} {w!r}\n")


def read_vector(path) -> np.ndarray:
    with open(path) as fh:
        x = _loadtxt(fh, np.float64, 2)
        if x is not None and x.shape[1] == 1:
            return x.ravel()
        fh.seek(0)
        text = fh.read()
    values = []
    for lineno, line in _data_lines(text):
        try:
            values.append(float(line))
        except ValueError as exc:
            raise GraphError(f"{path}:{lineno}: could not parse {line!r}") from exc
    return np.array(values)


def write_vector(x, path) -> None:
    with open(path, "w") as fh:
        for v in np.asarray(x, dtype=np.float64).tolist():
            fh.write(f"{v!r}\n")


def open_output(path):
    """The file at ``path`` opened for writing, or ``sys.stdout``, left open."""
    return open(path, "w") if path is not None else contextlib.nullcontext(sys.stdout)


def write_json(obj, path) -> None:
    """``obj`` as JSON, keys sorted and indented by 2, with a final newline."""
    with open_output(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
