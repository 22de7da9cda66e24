"""Spanning trees, exact stretch, and tree path resistances.

The stretch of a non-tree edge e = (u, v) with weight w is
w * (sum of 1/w(f) over the tree edges f on the unique u-v tree path).
Tree path resistances come from root prefix sums and an LCA read off a
sparse table over the tree's DFS preorder.  A stretch report answers all m
LCA queries in one batch of whole-array calls, so it costs O(m + n log n)
with no per-edge Python code.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph, _id_text, _jump, components, is_connected, pair_order, write_json, write_rows


class TreeError(ValueError):
    """Invalid tree construction or graph/tree mismatch."""


def _check_root(root, n) -> None:
    if not 0 <= root < n:
        raise TreeError(f"root {root} is not a vertex: want 0 <= root < {n}")


def _check_links(parent, parent_weight, root) -> None:
    """Raise TreeError on the first vertex, by id, whose parent link or
    parent-edge weight is bad; a parent that is not an integer is bad."""
    n = len(parent)
    if parent[root] != -1:
        raise TreeError(f"parent of root {root} must be -1")
    nonroot = np.arange(n) != root
    bad_parent = nonroot & ~((0 <= parent) & (parent < n) & (parent == np.trunc(parent)))
    bad = bad_parent | (nonroot & ~((parent_weight > 0.0) & np.isfinite(parent_weight)))
    if bad.any():
        u = int(bad.argmax())       # the first bad vertex; a bad parent wins
        if bad_parent[u]:
            raise TreeError(f"vertex {u} has invalid parent {_id_text(parent[u])}")
        raise TreeError(f"edge ({u}, {_id_text(parent[u])}) has nonpositive weight")


def _preorder(n, tail, head, root) -> tuple:
    """The vertices reachable from the root over the arcs tail[i] -> head[i]
    in DFS preorder, neighbours in ascending id, and each reached vertex's
    slot in it, by one stack; a vertex already reached is skipped when popped.
    The arcs are grouped by tail, heads descending (``pair_order``), so that
    the stack pops them ascending.  The lists are int64 arrays, not lists: a
    lookup by vertex id lands at a random place, and an entry is then 8 bytes
    in one place, not a pointer to an int."""
    count = np.bincount(tail, minlength=n)
    nbr = head[pair_order(n, tail, n - 1 - head)]
    ptr = array("q", np.concatenate(([0], np.cumsum(count))).tobytes())
    nbr = array("q", nbr.tobytes())
    seen = bytearray(n)
    order = array("q")
    stack = array("q", [root])
    pop, visit = stack.pop, order.append
    while stack:
        x = pop()
        if not seen[x]:
            seen[x] = 1
            visit(x)
            stack += nbr[ptr[x]:ptr[x + 1]]
    order = np.frombuffer(order, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)
    slot[order] = np.arange(len(order))
    return order, slot


class SpanningTree:
    """Rooted spanning tree with parent links and cached path-resistance data.

    Immutable after construction.  Either constructor lays the vertices out in
    DFS preorder, children in ascending id: ``order`` lists them, ``slot`` maps a
    vertex to its place in it, the subtree at slot p is ``order[p : last[p] + 1]``,
    and ``up[p]`` is the slot of the parent of slot p (-1 at the root).  That
    layout and ``parent_weight`` are all that a tree solve and PCG read: the tree
    is its own factorization (``pcg``).  Only the DFS and the resistance
    prefix sum are per-vertex Python loops.  The LCA table is built lazily on
    first use, so that solve-only workloads at large n never pay its
    O(n log n) cost.
    """

    __slots__ = ("n", "root", "parent", "parent_weight", "depth", "order", "slot", "last", "up",
                 "resistance_prefix", "_table")

    def __init__(self, parent, parent_weight, root: int = 0):
        parent = np.asarray(parent)
        parent_weight = np.asarray(parent_weight, dtype=np.float64)
        n = len(parent)
        _check_root(root, n)
        _check_links(parent, parent_weight, root)
        parent = parent.astype(np.int64, copy=False)
        child = np.flatnonzero(parent >= 0)
        order, slot = _preorder(n, parent[child], child, root)
        if len(order) != n:
            raise TreeError("parent links do not reach every vertex from the root")
        self._lay_out(parent, parent_weight, root, order, slot)

    def _lay_out(self, parent, parent_weight, root, order, slot) -> None:
        """Set every field from checked parent links, their DFS preorder and its inverse."""
        n = len(parent)
        up = slot[parent[order]]
        up[0] = -1
        # parents first, so each prefix is its parent's plus one term (arrays: see _preorder)
        ups = array("q", up.tobytes())
        inv = array("d", (1.0 / np.where(parent >= 0, parent_weight, 1.0))[order].tobytes())
        prefix = array("d", bytes(8 * n))
        for i in range(1, n):
            prefix[i] = prefix[ups[i]] + inv[i]
        del ups, inv
        prefix = np.frombuffer(prefix)
        # a subtree ends where its last child's subtree ends: point each slot at
        # its largest child slot, a leaf at itself, and follow the pointers.  A
        # fancy assignment would not do: numpy leaves open which repeated write wins
        last = np.arange(n)
        np.maximum.at(last, up[1:], np.arange(1, n))

        self.n = n
        self.root = root
        self.parent = parent
        self.parent_weight = parent_weight
        self.order = order
        self.slot = slot
        self.last = last = _jump(last)
        self.up = up
        # a slot's depth is the number of non-root ranges [p, last[p]] holding
        # it; each opens at p and closes after last[p], so it is one prefix sum
        self.depth = np.cumsum(np.r_[0, 1 - np.bincount(last[1:], minlength=n)[:-1]])[slot]
        self.resistance_prefix = prefix[slot]
        self._table = None

    @classmethod
    def from_edges(cls, n: int, edges, root: int = 0) -> "SpanningTree":
        """Build from n-1 undirected (u, v, w) edges, triples or an array.
        They form a tree iff they connect all n vertices, and its orientation
        is unique: each edge's parent end is the one nearer the root.

        One DFS from the root over both directions of every edge gives the
        preorder ``__init__`` would find from the parent links, and is laid
        out as it stands; of each edge, the end with the smaller slot is the
        parent."""
        _check_root(root, n)
        if len(edges) != n - 1:
            raise TreeError(f"a spanning tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
        e = np.asarray(edges, dtype=np.float64).reshape(n - 1, 3)
        ids = e[:, :2]
        fraction = (ids != np.trunc(ids)).any(axis=1)     # NaN too
        bad = fraction | ((ids < 0) | (ids >= n)).any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            fault = "a non-integer end" if fraction[i] else f"an end outside 0..{n - 1}"
            raise TreeError(f"edge ({_id_text(ids[i, 0])}, {_id_text(ids[i, 1])}) has {fault}")
        ends = ids.astype(np.int64)
        # both directions of each edge
        order, slot = _preorder(n, ends.ravel(), ends[:, ::-1].ravel(), root)
        # n - 1 edges reach every vertex iff they form a tree
        if len(order) != n:
            raise TreeError("edge list is not connected")
        ends = np.where((slot[ends[:, 0]] < slot[ends[:, 1]])[:, None], ends, ends[:, ::-1])
        parent = np.full(n, -1, dtype=np.int64)
        parent[ends[:, 1]] = ends[:, 0]         # each row is now (parent, child)
        parent_weight = np.zeros(n)
        parent_weight[ends[:, 1]] = e[:, 2]
        _check_links(parent, parent_weight, root)
        t = cls.__new__(cls)
        t._lay_out(parent, parent_weight, root, order, slot)
        return t

    @property
    def edges(self):
        """Tree edges as canonical (min, max, w) tuples, sorted."""
        child = np.flatnonzero(self.parent >= 0)
        a = np.minimum(child, self.parent[child])
        b = np.maximum(child, self.parent[child])
        idx = pair_order(self.n, a, b)
        return list(zip(a[idx].tolist(), b[idx].tolist(), self.parent_weight[child[idx]].tolist()))

    # -- DFS preorder and LCA ---------------------------------------------

    def _lca_table(self) -> np.ndarray:
        """Sparse table of parent slots: row k, column i holds the smallest
        parent slot over the slots [i, min(i + 2^k, n)).  The root's entry is
        0; slot 0 never lies in a query range."""
        if self._table is None:
            n = self.n
            table = np.empty((max(1, (n - 1).bit_length()), n), dtype=np.int64)
            table[0] = self.up
            table[0, 0] = 0
            for k in range(1, len(table)):
                half = 1 << (k - 1)
                np.minimum(table[k - 1, :n - half], table[k - 1, half:], out=table[k, :n - half])
                table[k, n - half:] = table[k - 1, n - half:]
            self._table = table
        return self._table

    def lca(self, u, v):
        """Lowest common ancestor of vertices u and v, elementwise for arrays.

        For slot[u] < slot[v], the slots (slot[u], slot[v]] lie inside the
        subtree of the LCA and contain the LCA's child on the path to v, so
        the shallowest vertex there is a child of the LCA, and the smallest
        parent slot there is the LCA's slot.
        """
        table = self._lca_table()
        su, sv = self.slot[u], self.slot[v]
        lo = np.minimum(su, sv)
        hi = np.maximum(su, sv)
        first = np.minimum(lo + 1, hi)      # query slots [first, hi]
        k = np.frexp(hi - first + 1)[1] - 1     # floor(log2(range length))
        best = np.minimum(table[k, first], table[k, hi + 1 - (1 << k)])
        out = self.order[np.where(lo == hi, lo, best)]
        return int(out) if out.ndim == 0 else out


def path_resistance(t: SpanningTree, u, v):
    """Series resistance sum(1/w) along the unique u-v tree path, elementwise
    for arrays; O(1) per pair after an O(n log n) table."""
    P = t.resistance_prefix
    r = P[u] + P[v] - 2.0 * P[t.lca(u, v)]
    return float(r) if np.ndim(r) == 0 else r


def tree_edge_mask(g: WeightedGraph, t: SpanningTree) -> np.ndarray:
    """For each edge of g (with g.n == t.n), whether it is a parent link of t
    with the identical weight."""
    u, v, w = g.edge_u, g.edge_v, g.edge_w
    return (((t.parent[u] == v) & (t.parent_weight[u] == w))
            | ((t.parent[v] == u) & (t.parent_weight[v] == w)))


def tree_spans(g: WeightedGraph, t: SpanningTree) -> bool:
    """True iff every tree edge exists in g with the identical weight.  g has
    no parallel edges, so that is iff n - 1 of g's edges are tree edges."""
    return t.n == g.n and int(np.count_nonzero(tree_edge_mask(g, t))) == t.n - 1


# ---------------------------------------------------------------------------
# stretch

@dataclass
class StretchReport:
    """Per-edge stretch values in canonical edge order, and their sum."""

    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    values: np.ndarray
    total: float

    @property
    def per_edge(self) -> list:
        """(u, v, w, stretch) tuples of Python numbers."""
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist(),
                        self.edge_w.tolist(), self.values.tolist()))

    def summary(self) -> dict:
        vals = self.values
        hi = float(vals.max()) if len(vals) else 0.0
        bins = np.logspace(0.0, np.log10(max(hi, 1.0)) + 1e-12, 11)
        if len(vals):
            bins[0] = min(bins[0], float(vals.min()))
        counts, edges = np.histogram(vals, bins=bins)
        return {
            "total": float(self.total),
            "max": hi,
            "mean": float(vals.mean()) if len(vals) else 0.0,
            "histogram": {
                "bin_edges": [float(b) for b in edges],
                "counts": [int(c) for c in counts],
            },
        }

    def write_csv(self, path) -> None:
        """The rows ``csv.writer`` would write: u, v, repr(w), repr(stretch),
        built on whole arrays (``graphs.write_rows``)."""
        with open(path, "wb") as fh:
            fh.write(b"u,v,w,stretch\r\n")
            write_rows(fh, (self.edge_u, self.edge_v, self.edge_w, self.values))

    def write_json_summary(self, path) -> None:
        write_json(self.summary(), path)


def stretch_report(g: WeightedGraph, t: SpanningTree) -> StretchReport:
    if not tree_spans(g, t):
        raise TreeError("tree does not span the graph with matching weights")
    s = g.edge_w * path_resistance(t, g.edge_u, g.edge_v)
    # a sequential sum, in edge order (np.sum would sum pairwise)
    total = float(np.cumsum(s)[-1]) if g.m else 0.0
    return StretchReport(g.edge_u, g.edge_v, g.edge_w, values=s, total=total)


# ---------------------------------------------------------------------------
# constructions


def _stable_argsort(x) -> np.ndarray:
    """``np.argsort(x, kind="stable")``, by the default sort when x has no
    ties, so that the order is unique: about 6x faster on 60,000 random floats."""
    order = np.argsort(x)
    if (x[order[1:]] == x[order[:-1]]).any():
        return np.argsort(x, kind="stable")
    return order


def _tree_by_rounds(g: WeightedGraph, by_rank, clusters) -> SpanningTree:
    """The tree of the edges that ``clusters`` picks, round by round, until
    one cluster is left.  ``by_rank`` lists g's edge ids by (-w, id); an
    edge's rank is its place there.  Each round, ``clusters(n, u, v, rank)``
    clusters the vertices 0..n-1 over the edges (u[i], v[i]) of rank
    rank[i], listed in rank order, and returns each vertex's root (a vertex
    of its cluster that is its own root) and the ranks of the edges it
    picked.  Each cluster then becomes one vertex, numbered in root order,
    and the edges inside a cluster are dropped; parallel edges stay, still
    in rank order, so that an edge's place orders it as its rank does."""
    if not is_connected(g):
        raise TreeError("graph must be connected")
    u, v, rank = g.edge_u[by_rank], g.edge_v[by_rank], np.arange(g.m)
    n, chosen = g.n, [rank[:0]]
    while n > 1:
        root, picked = clusters(n, u, v, rank)
        chosen.append(picked)
        label = np.cumsum(root == np.arange(n)) - 1
        n = int(label[-1]) + 1
        label = label[root]
        u, v = label[u], label[v]
        keep = u != v
        u, v, rank = u[keep], v[keep], rank[keep]
    chosen = by_rank[np.concatenate(chosen)]
    return SpanningTree.from_edges(g.n, np.column_stack((g.edge_u[chosen], g.edge_v[chosen], g.edge_w[chosen])))


def _boruvka_round(n, u, v, rank):
    """Borůvka's round: each vertex picks its edge of least rank, its first
    in the list, and the picked edges join their ends (``components``)."""
    first = np.full(n, len(u))
    place = np.arange(len(u))
    np.minimum.at(first, u, place)
    np.minimum.at(first, v, place)
    return components(n, u[first], v[first]), rank[np.unique(first)]


def max_weight_spanning_tree(g: WeightedGraph) -> SpanningTree:
    """Kruskal's tree on descending weight, ties broken by canonical edge
    order, built by Borůvka rounds (``_tree_by_rounds``): each round, every
    cluster picks its crossing edge of least rank by (-w, edge id), and the
    clusters joined by the picked edges merge.  No two edges share a rank,
    so the maximum spanning tree under it is unique and holds the least-rank
    edge out of any vertex set (cut property): Borůvka picks exactly
    Kruskal's edges.

    Maximizing tree weight minimizes each 1/w term available to tree paths,
    making this a cheap baseline preconditioner tree.
    """
    return _tree_by_rounds(g, _stable_argsort(-g.edge_w), _boruvka_round)


# AKPW's weight classes are factors of z = 2**_LOG2_Z = 2 apart and the shifts
# are drawn at rate _BETA, chosen by measured stretch, iterations and build time
_LOG2_Z = 1
_BETA = 0.35


def _weight_classes(w) -> np.ndarray:
    """AKPW's class floor(log_z(w[0] / w[i])) of each weight of w, heaviest
    first.  Taken from mantissas and exponents, as the quotient itself
    overflows when the weights span more than 2**1024."""
    frac, exp = np.frexp(w)
    return np.floor((np.log2(frac[:1] / frac) + (exp[:1] - exp)) / _LOG2_Z)


def _shifted_clusters(n, u, v, rank, bits, rng):
    """Miller-Peng-Xu clusters of 0..n-1 over the edges (u[i], v[i]) of rank
    rank[i] < 2**bits.  Each vertex v draws delta ~ Exp(_BETA), wakes at
    wake = max(delta) - delta and joins the centre c of least wake[c] +
    hops(c, v), ties to the smaller fraction of wake[c], over its edge of
    least rank from a vertex one hop nearer c.  Each key, an int64 (whole
    layers, the centre's rank by fraction, the edge's rank), falls by
    Bellman-Ford passes over the edges of the vertices whose key fell last
    pass: one pass per hop of the widest cluster.  Returns each vertex's
    centre, a centre its own, and the ranks of the edges that reached the
    other vertices."""
    delta = rng.exponential(1.0 / _BETA, n)
    wake = delta.max() - delta
    layer = np.floor(wake)
    by_fraction = _stable_argsort(wake - layer)
    fraction_rank = np.empty(n, dtype=np.int64)
    fraction_rank[by_fraction] = np.arange(n)
    # every key is below (max layer + 2) * n * 2**bits; max layer ~ ln(n) / _BETA
    if (int(layer.max()) + 2) * n << bits >= 2**63:
        raise TreeError(f"akpw's keys overflow int64 at {n} vertices and 2**{bits} edge ranks")
    key = (layer.astype(np.int64) * n + fraction_rank) << bits
    tail, head = np.concatenate((u, v)), np.concatenate((v, u))
    hop = np.concatenate((rank, rank)) + (n << bits)    # one layer on, over that edge
    whole = ~((1 << bits) - 1)                          # clears the edge's rank
    live = np.arange(len(tail))                         # the edges out of keys that fell
    while len(live):
        old = key.copy()
        np.minimum.at(key, head[live], (key[tail[live]] & whole) + hop[live])
        live = (key < old)[tail].nonzero()[0]
    centre = by_fraction[(key >> bits) % n]
    return centre, (key & ~whole)[centre != np.arange(n)]


def low_stretch_heuristic_tree(g: WeightedGraph, seed: int) -> SpanningTree:
    """AKPW tree (Alon, Karp, Peleg & West) of weight classes, clustered by
    Miller-Peng-Xu random shifts.  Edge e has class floor(log_z(w_max / w_e));
    round j clusters the graph of the clusters so far (``_tree_by_rounds``)
    over its edges of class <= j (or the next class that has one), and the
    edges that reached the vertices join the tree.  Between two clusters the
    edge of least rank by (-w, edge id) is the one that counts.  No stretch
    guarantee is claimed; stretch is always measured exactly afterwards.
    """
    rng = np.random.default_rng([int(seed), 0xA5])
    by_rank = _stable_argsort(-g.edge_w)
    weight_class = _weight_classes(g.edge_w[by_rank])
    bits = max(g.m - 1, 1).bit_length()               # rank < 2**bits
    j = 0.0

    def clusters(n, u, v, rank):
        nonlocal j
        cls = weight_class[rank]
        j = max(j, cls.min())
        act = cls <= j
        j += 1
        return _shifted_clusters(n, u[act], v[act], rank[act], bits, rng)

    return _tree_by_rounds(g, by_rank, clusters)
