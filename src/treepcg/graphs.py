"""Weighted undirected graphs: Laplacian action, generators, edge-list I/O.

A graph is stored as a canonical sorted edge list (u < v).  The Laplacian
L = sum_e w(e) (psi_u - psi_v)(psi_u - psi_v)^T is never materialized except
through :func:`dense_laplacian`, which is capped to desk scale and exists to
back brute-force verification.
"""
from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass

import numpy as np

DEFAULT_DENSE_CAP = 500


class GraphError(ValueError):
    """Invalid graph construction or use."""


class WeightedGraph:
    """Immutable undirected graph with strictly positive edge weights.

    Vertex ids are 0..n-1.  Edges are canonicalized to u < v and sorted, so
    iteration order is reproducible.  Connectivity is computed once at build
    time by BFS.
    """

    __slots__ = ("n", "edge_u", "edge_v", "edge_w", "_connected")

    def __init__(self, n: int, edges):
        if n <= 0:
            raise GraphError(f"vertex count must be positive, got {n}")
        canon = []
        for u, v, w in edges:
            u = int(u)
            v = int(v)
            w = float(w)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (w > 0.0) or not math.isfinite(w):
                raise GraphError(f"edge ({u}, {v}) has nonpositive weight {w}")
            if u > v:
                u, v = v, u
            canon.append((u, v, w))
        canon.sort(key=lambda e: (e[0], e[1]))
        for a, b in zip(canon, canon[1:]):
            if a[0] == b[0] and a[1] == b[1]:
                raise GraphError(f"duplicate edge ({a[0]}, {a[1]})")
        self.n = n
        self.edge_u = np.array([e[0] for e in canon], dtype=np.int64)
        self.edge_v = np.array([e[1] for e in canon], dtype=np.int64)
        self.edge_w = np.array([e[2] for e in canon], dtype=np.float64)
        self._connected = self._traverse_all(canon)

    def _traverse_all(self, edges) -> bool:
        if self.n == 1:
            return True
        adj = [[] for _ in range(self.n)]
        for u, v, _ in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = bytearray(self.n)
        seen[0] = 1
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    queue.append(v)
        return count == self.n

    @property
    def m(self) -> int:
        return len(self.edge_w)

    @property
    def edges(self):
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist()))

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


def is_connected(g: WeightedGraph) -> bool:
    return g._connected


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
    for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
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
        if kind == "gnp":
            try:
                params = {"n": int(params["n"]), "p": float(params["p"])}
            except (KeyError, ValueError) as exc:
                raise GraphError(f"malformed generator spec {text!r}: gnp wants n=INT,p=FLOAT") from exc
        else:
            try:
                params = {"n": int(params["n"]), "d": int(params["d"])}
            except (KeyError, ValueError) as exc:
                raise GraphError(f"malformed generator spec {text!r}: regular wants n=INT,d=INT") from exc
    else:
        raise GraphError(f"malformed generator spec {text!r}: unknown kind {kind!r}")
    return GeneratorSpec(kind, params, weighting)


def _grid_edges(rows: int, cols: int):
    edges = []
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            if j + 1 < cols:
                edges.append((u, u + 1))
            if i + 1 < rows:
                edges.append((u, u + cols))
    return rows * cols, edges


def _gnp_edges(n: int, p: float, rng: np.random.Generator):
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    pairs = list(zip(iu[mask].tolist(), iv[mask].tolist()))
    return _giant_component(n, pairs)


def _giant_component(n: int, pairs):
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    best, best_size = 0, -1
    ncomp = 0
    for s in range(n):
        if comp[s] != -1:
            continue
        queue = deque([s])
        comp[s] = ncomp
        size = 1
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if comp[v] == -1:
                    comp[v] = ncomp
                    size += 1
                    queue.append(v)
        if size > best_size:
            best, best_size = ncomp, size
        ncomp += 1
    keep = [u for u in range(n) if comp[u] == best]
    relabel = {u: i for i, u in enumerate(keep)}
    out = [(relabel[u], relabel[v]) for u, v in pairs if comp[u] == best]
    return len(keep), out


def _regular_edges(n: int, d: int, seed: int):
    import networkx as nx

    if (n * d) % 2 != 0 or d >= n or d < 1:
        raise GraphError(f"impossible regular graph parameters n={n}, d={d}")
    for attempt in range(100):
        G = nx.random_regular_graph(d, n, seed=seed * 1000 + attempt)
        if nx.is_connected(G):
            return n, list(G.edges())
    raise GraphError(f"could not generate a connected {d}-regular graph on {n} vertices")


def generate(spec, seed: int) -> WeightedGraph:
    """Deterministic graph generation; output is always connected."""
    if isinstance(spec, str):
        spec = parse_generator_spec(spec)
    rng = np.random.default_rng([int(seed), 0x5EED])
    if spec.kind == "grid":
        n, pairs = _grid_edges(spec.params["rows"], spec.params["cols"])
    elif spec.kind == "gnp":
        n, pairs = _gnp_edges(spec.params["n"], spec.params["p"], rng)
        if n < 2:
            raise GraphError(f"giant component of {spec} collapsed to {n} vertices")
    elif spec.kind == "regular":
        n, pairs = _regular_edges(spec.params["n"], spec.params["d"], int(seed))
    else:
        raise GraphError(f"unknown generator kind {spec.kind!r}")
    wrng = np.random.default_rng([int(seed), 0x17])
    if spec.weighting == "unit":
        weights = np.ones(len(pairs))
    else:
        weights = 10.0 ** wrng.uniform(-1.0, 1.0, size=len(pairs))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])


# ---------------------------------------------------------------------------
# edge-list I/O: one edge per line, "u v w"


def read_edge_list(path) -> WeightedGraph:
    edges = []
    max_id = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
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
            edges.append((u, v, w))
            max_id = max(max_id, u, v)
    if max_id < 0:
        raise GraphError(f"{path}: no edges")
    return WeightedGraph(max_id + 1, edges)


def write_edge_list(g: WeightedGraph, path) -> None:
    with open(path, "w") as fh:
        for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()):
            fh.write(f"{u} {v} {w!r}\n")


def read_vector(path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: could not parse {line!r}") from exc
    return np.array(values)


def write_vector(x, path) -> None:
    with open(path, "w") as fh:
        for v in np.asarray(x, dtype=np.float64).tolist():
            fh.write(f"{v!r}\n")
