import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from treepcg import (
    PcgConfig,
    SpanningTree,
    TreeError,
    WeightedGraph,
    dense_laplacian,
    dense_tree_laplacian,
    factor,
    generate,
    low_stretch_heuristic_tree,
    max_weight_spanning_tree,
    path_resistance,
    pcg_solve,
    stretch_report,
    tree_spans,
)
from treepcg import graphs, trees
from treepcg.graphs import _grid_edges
from treepcg.trees import StretchReport

from conftest import deep_tree, lca_naive, random_tree, root_path, search


def triangle(weights=(1.0, 1.0, 1.0)):
    w01, w12, w02 = weights
    return WeightedGraph(3, [(0, 1, w01), (1, 2, w12), (0, 2, w02)])


class TestMaxWeightTree:
    def test_triangle_drops_lightest(self):
        g = triangle((3.0, 2.0, 1.0))
        t = max_weight_spanning_tree(g)
        assert sorted(w for _, _, w in t.edges) == [2.0, 3.0]

    def test_tree_input_identity(self):
        edges = [(0, 1, 2.0), (1, 2, 0.5), (1, 3, 1.0)]
        g = WeightedGraph(4, edges)
        t = max_weight_spanning_tree(g)
        assert t.edges == sorted(edges)

    def test_unit_weight_gives_valid_tree(self):
        g = generate("grid:5x5:unit", seed=0)
        t = max_weight_spanning_tree(g)
        assert tree_spans(g, t)
        assert len(t.edges) == g.n - 1

    def test_disconnected_rejected(self):
        for g in (WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]), WeightedGraph(2, [])):
            with pytest.raises(TreeError, match="^graph must be connected$"):
                max_weight_spanning_tree(g)

    @pytest.mark.parametrize("spec", ["grid:15x20", "gnp:n=300,p=0.02", "regular:n=300,d=4"])
    @pytest.mark.parametrize("weights", ["unit", "logw"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_union_find_kruskal(self, spec, weights, seed):
        g = generate(f"{spec}:{weights}", seed)
        t = max_weight_spanning_tree(g)
        parent, weight = reference_kruskal(g)
        assert np.array_equal(t.parent, parent)
        assert np.array_equal(t.parent_weight, weight)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_ties_decided_by_edge_order(self, rng, levels):
        for n, p in ((2, 0.0), (3, 1.0), (40, 0.2), (250, 0.03)):
            for _ in range(4):
                g = few_weight_graph(rng, n, p, levels)
                t = max_weight_spanning_tree(g)
                parent, weight = reference_kruskal(g)
                assert np.array_equal(t.parent, parent)
                assert np.array_equal(t.parent_weight, weight)

    def test_single_vertex_and_edge(self):
        assert max_weight_spanning_tree(WeightedGraph(1, [])).parent.tolist() == [-1]
        t = max_weight_spanning_tree(WeightedGraph(2, [(1, 0, 2.5)]))
        assert t.parent.tolist() == [-1, 0] and t.parent_weight.tolist() == [0.0, 2.5]

    def test_ties_follow_documented_key(self):
        # Kruskal in the documented order (-w, u, v): the tree it picks
        # changes if tied edges are taken in any other order
        logw = generate("gnp:n=80,p=0.1:logw", seed=3)
        rounded = WeightedGraph(logw.n, [(u, v, float(1 + int(w))) for u, v, w in logw.edges])
        for g in (generate("grid:7x7:unit", seed=0), rounded):
            edges = g.edges
            order = sorted(range(g.m), key=lambda i: (-g.edge_w[i], g.edge_u[i], g.edge_v[i]))
            comp = list(range(g.n))
            chosen = []
            for i in order:
                u, v, _ = edges[i]
                while comp[u] != u:
                    u = comp[u]
                while comp[v] != v:
                    v = comp[v]
                if u != v:
                    comp[u] = v
                    chosen.append(edges[i])
            assert max_weight_spanning_tree(g).edges == sorted(chosen)


class _UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def reference_kruskal(g):
    """The Kruskal loop over a union-find that max_weight_spanning_tree ran
    before it was built by Borůvka rounds: its parents and parent weights."""
    idx = np.lexsort((g.edge_v, g.edge_u, -g.edge_w))   # key (-w, u, v)
    uf = _UnionFind(g.n)
    chosen = []
    for u, v, w in zip(g.edge_u[idx].tolist(), g.edge_v[idx].tolist(), g.edge_w[idx].tolist()):
        if uf.union(u, v):
            chosen.append((u, v, w))
            if len(chosen) == g.n - 1:
                break
    return reference_orientation(g.n, chosen, 0)


def few_weight_graph(rng, n, p, levels):
    """A random connected graph whose weights take at most ``levels`` distinct
    values, so that the (u, v) tie-break decides most of the tree."""
    attach = [(int(rng.integers(0, x)), x) for x in range(1, n)]
    iu, iv = np.triu_indices(n, k=1)
    extra = rng.random(len(iu)) < p
    pairs = set(attach) | set(zip(iu[extra].tolist(), iv[extra].tolist()))
    values = rng.choice([0.5, 1.0, 3.0][:levels], size=len(pairs))
    return WeightedGraph(n, [(u, v, float(w)) for (u, v), w in zip(sorted(pairs), values)])


class TestHeuristicTree:
    def test_tree_input_identity(self):
        edges = [(0, 1, 2.0), (1, 2, 0.5), (1, 3, 1.0), (3, 4, 1.0)]
        g = WeightedGraph(5, edges)
        t = low_stretch_heuristic_tree(g, seed=3)
        assert t.edges == sorted(edges)
        assert stretch_report(g, t).total == pytest.approx(g.n - 1)

    def test_deterministic(self):
        g = generate("gnp:n=60,p=0.1:unit", seed=2)
        t1 = low_stretch_heuristic_tree(g, seed=7)
        t2 = low_stretch_heuristic_tree(g, seed=7)
        assert t1.edges == t2.edges

    def test_valid_spanning_tree(self):
        for spec in ("grid:8x8:logw", "gnp:n=70,p=0.1:logw", "regular:n=40,d=4:unit"):
            g = generate(spec, seed=1)
            t = low_stretch_heuristic_tree(g, seed=1)
            assert tree_spans(g, t)

    def test_k5_total_matches_trace_oracle(self):
        g = WeightedGraph(5, [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)])
        t = low_stretch_heuristic_tree(g, seed=0)
        total = stretch_report(g, t).total
        oracle = np.trace(dense_laplacian(g) @ np.linalg.pinv(dense_tree_laplacian(t)))
        assert total == pytest.approx(oracle, rel=1e-10)

    def test_beats_max_weight_baseline_on_grid(self):
        # regression fixture: canonical Kruskal on the unit 30x30 grid has
        # total stretch 26970; akpw has beaten it on 50/50 seeds (seed 0
        # lands at 11814, range observed 10552..14340)
        g = generate("grid:30x30:unit", seed=0)
        base = stretch_report(g, max_weight_spanning_tree(g)).total
        assert base == 26970.0
        wins = 0
        for seed in range(50):
            tot = stretch_report(g, low_stretch_heuristic_tree(g, seed)).total
            if seed == 0:
                assert tot == 11814.0
            if tot < base:
                wins += 1
        assert wins >= 40

    # median total stretch and plain-PCG iterations over seeds 0-5 of the
    # akpw tree of ball growing by hops, before the weight classes
    BALL_GROWING_MEDIANS = {
        "grid:20x20:logw": (13487.1, 166.5),
        "gnp:n=450,p=0.02:logw": (29101.4, 258.5),
        "regular:n=400,d=4:unit": (4603.0, 109.0),
        "grid:20x20:unit": (4399.0, 102.5),
        "grid:30x30:unit": (12583.0, 161.5),
    }

    @pytest.mark.parametrize("spec", list(BALL_GROWING_MEDIANS))
    def test_no_worse_than_ball_growing(self, spec):
        # measured medians 1184 / 51.5, 4914 / 104, 4455 / 106, 4232 / 102
        # and 11976 / 155.5, in the order above
        stretch, iterations = [], []
        for seed in range(6):
            g = generate(spec, seed)
            t = low_stretch_heuristic_tree(g, seed)
            stretch.append(stretch_report(g, t).total)
            b = np.random.default_rng([seed, 0xB0]).standard_normal(g.n)
            cfg = PcgConfig(epsilon=1e-8, max_iterations=4 * g.n)
            iterations.append(pcg_solve(g, factor(t), b - b.mean(), cfg).iterations)
        want_stretch, want_iterations = self.BALL_GROWING_MEDIANS[spec]
        assert np.median(stretch) <= want_stretch
        assert np.median(iterations) <= want_iterations


def reference_akpw_edges(g, seed):
    """akpw one vertex at a time: each round, one BFS per vertex c over the
    edges of class <= j; each vertex v joins the c of least hops(c, v) - delta_c,
    ties to the smaller fraction of max(delta) - delta_c, over its edge of
    largest weight, then smallest id, from a vertex of c one hop nearer c;
    clusters numbered by their centres contract by a dict.  Returns the tree
    edges it chose, for SpanningTree.from_edges."""
    rng = np.random.default_rng([int(seed), 0xA5])
    edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()))
    w_max = max((w for _, _, w in edges), default=0.0)
    weight_class = [math.floor(math.log2(w_max / w) / trees._LOG2_Z) for _, _, w in edges]
    order = {e: (-edges[e][2], e) for e in range(len(edges))}     # heavier, then smaller id
    cur_edges = [(u, v, w, e) for e, (u, v, w) in enumerate(edges)]
    n_cur, j, chosen = g.n, 0, []
    while n_cur > 1:
        j = max(j, min(weight_class[e] for *_, e in cur_edges))
        adj = [[] for _ in range(n_cur)]
        for u, v, _, e in cur_edges:
            if weight_class[e] <= j:
                adj[u].append((v, e))
                adj[v].append((u, e))
        delta = rng.exponential(1.0 / trees._BETA, n_cur)
        wake = [float(delta.max() - d) for d in delta.tolist()]
        hops = []
        for c in range(n_cur):
            dist = {c: 0}
            queue = [c]
            for x in queue:
                for y, _ in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            hops.append(dist)
        # hops - delta_c + max(delta), in whole layers and a fraction
        shifted = [[(math.floor(wake[c]) + hops[c][v], wake[c] - math.floor(wake[c]), c)
                    for c in range(n_cur) if v in hops[c]] for v in range(n_cur)]
        centre = [min(keys)[2] for keys in shifted]
        for v, c in enumerate(centre):
            if c != v:
                chosen.append(min((e for x, e in adj[v]
                                   if centre[x] == c and hops[c][x] == hops[c][v] - 1), key=order.get))
        label = {c: i for i, c in enumerate(sorted(set(centre)))}
        next_edges = {}
        for u, v, w, e in cur_edges:
            cu, cv = label[centre[u]], label[centre[v]]
            if cu == cv:
                continue
            key = (cu, cv) if cu < cv else (cv, cu)
            best = next_edges.get(key)
            if best is None or w > best[0]:
                next_edges[key] = (w, e)
        cur_edges = [(u, v, w, e) for (u, v), (w, e) in sorted(next_edges.items())]
        n_cur = len(label)
        j += 1
    return [edges[e] for e in chosen]


def spread_graph(spec, seed, decades):
    """The graph of ``spec`` with weights 10^U(-decades, decades)."""
    g = generate(f"{spec}:unit", seed)
    w = 10.0 ** np.random.default_rng(seed).uniform(-decades, decades, g.m)
    return WeightedGraph(g.n, np.column_stack((g.edge_u, g.edge_v, w)))


class TestHeuristicTreeArrays:
    # unit weights tie on every edge, so edge ids decide which edge reaches a vertex
    @pytest.mark.parametrize("spec", [
        "grid:14x11:unit", "grid:14x11:logw", "gnp:n=300,p=0.015:unit", "gnp:n=300,p=0.015:logw",
        "regular:n=300,d=4:unit", "regular:n=300,d=3:logw",
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_tuple_list_rounds(self, spec, seed):
        g = generate(spec, seed)
        t = low_stretch_heuristic_tree(g, seed)
        ref = SpanningTree.from_edges(g.n, reference_akpw_edges(g, seed))
        assert np.array_equal(t.parent, ref.parent)
        assert np.array_equal(t.parent_weight, ref.parent_weight)

    @pytest.mark.parametrize("graph", [
        lambda: spread_graph("gnp:n=200,p=0.03", 0, 4.0),
        lambda: spread_graph("grid:12x9", 1, 4.0),
        lambda: WeightedGraph(40, [(i, i + 1, 1.0 + i % 3) for i in range(39)]),
        lambda: WeightedGraph(40, [(0, i, float(i)) for i in range(1, 40)]),
        lambda: WeightedGraph(2, [(0, 1, 2.5)]),
        lambda: WeightedGraph(1, []),
    ], ids=["gnp-1e4", "grid-1e4", "path", "star", "two", "one"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_per_vertex_rounds(self, graph, seed):
        g = graph()
        t = low_stretch_heuristic_tree(g, seed)
        assert t.edges == SpanningTree.from_edges(g.n, reference_akpw_edges(g, seed)).edges

    def test_single_vertex(self):
        t = low_stretch_heuristic_tree(WeightedGraph(1, []), 0)
        assert t.parent.tolist() == [-1] and t.edges == []

    def test_key_overflow_rejected(self):
        u, v = np.array([0, 1, 2]), np.array([1, 2, 3])
        with pytest.raises(TreeError, match="overflow int64"):
            trees._shifted_clusters(4, u, v, np.arange(3), 61, np.random.default_rng(0))


def lexsort_contract(u, v, w, eid, cluster, k):
    """The contraction as a three-key lexsort did it before the pair key and
    the segmented maximum: key (pair, -w, edge order), first of each pair."""
    cu, cv = cluster[u], cluster[v]
    keep = cu != cv
    lo = np.minimum(cu, cv)[keep]
    hi = np.maximum(cu, cv)[keep]
    w, eid = w[keep], eid[keep]
    idx = np.lexsort((-w, hi, lo))
    lo, hi = lo[idx], hi[idx]
    first = np.ones(len(idx), dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    idx = idx[first]
    return lo[first], hi[first], w[idx], eid[idx]


def format_csv(rep):
    """The stretch CSV as ``str.format`` over the rows built it, header and
    body in one string."""
    rows = map("{},{},{!r},{!r}\r\n".format,
               rep.edge_u.tolist(), rep.edge_v.tolist(), rep.edge_w.tolist(), rep.values.tolist())
    return ("u,v,w,stretch\r\n" + "".join(rows)).encode()


class TestSortKeys:
    # unit weights tie on every edge, so edge order decides every tie
    SPECS = ["grid:14x11:unit", "gnp:n=300,p=0.015:unit", "regular:n=300,d=4:unit",
             "grid:14x11:logw", "regular:n=300,d=3:logw"]

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_akpw_rounds_equal_lexsort_rounds(self, monkeypatch, spec, seed):
        calls = {"order": 0, "contract": 0}

        def order(key, bound):
            got = graphs.stable_order(key, bound)
            assert np.array_equal(got, np.argsort(key, kind="stable"))
            calls["order"] += 1
            return got

        def contract(*args):
            got = real_contract(*args)
            for a, b in zip(got, lexsort_contract(*args), strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            calls["contract"] += 1
            return got

        real_contract = trees._contract
        monkeypatch.setattr(trees, "stable_order", order)
        monkeypatch.setattr(trees, "_contract", contract)
        g = generate(spec, seed)
        low_stretch_heuristic_tree(g, seed)
        # one contraction per round, and its one sort the only one
        assert calls["contract"] >= 2 and calls["order"] == calls["contract"]

    @pytest.mark.parametrize("spec", ["grid:15x20", "gnp:n=300,p=0.02", "regular:n=300,d=4"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_maxw_order_equals_lexsort(self, spec, seed):
        # the trees themselves: TestMaxWeightTree::test_equal_to_union_find_kruskal
        g = generate(f"{spec}:unit", seed)
        assert np.array_equal(np.argsort(-g.edge_w, kind="stable"),
                              np.lexsort((g.edge_v, g.edge_u, -g.edge_w)))

    def test_csv_bytes_equal_format_rows(self, tmp_path):
        # values where repr switches between fixed and exponent form
        values = np.array([1e16, 1e-05, 5e-324, 2.0, 0.1, 1e15, 0.0001, 123456789.0])
        k = len(values)
        rep = StretchReport(np.arange(k), np.arange(1, k + 1), values[::-1].copy(), values, float(values.sum()))
        rep.write_csv(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == format_csv(rep)
        g = generate("gnp:n=200,p=0.05:logw", seed=0)
        rep = stretch_report(g, low_stretch_heuristic_tree(g, seed=0))
        rep.write_csv(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == format_csv(rep)


class TestPathResistance:
    def test_same_vertex(self, rng):
        t = random_tree(20, rng)
        assert path_resistance(t, 7, 7) == 0.0

    def test_two_edge_path(self):
        t = SpanningTree.from_edges(3, [(0, 1, 2.0), (1, 2, 4.0)])
        assert path_resistance(t, 0, 2) == pytest.approx(0.75)

    def test_matches_dense_pseudo_inverse(self, rng):
        for _ in range(5):
            n = int(rng.integers(10, 120))
            t = random_tree(n, rng)
            Lp = np.linalg.pinv(dense_tree_laplacian(t))
            for _ in range(10):
                u, v = rng.integers(0, n, 2)
                x = np.zeros(n)
                x[u] += 1.0
                x[v] -= 1.0
                assert path_resistance(t, int(u), int(v)) == pytest.approx(
                    x @ Lp @ x, abs=1e-10
                )

    def test_metric_properties(self, rng):
        t = random_tree(60, rng)
        for _ in range(30):
            a, b, c = rng.integers(0, 60, 3)
            dab = path_resistance(t, int(a), int(b))
            dba = path_resistance(t, int(b), int(a))
            assert dab == pytest.approx(dba, abs=1e-14)
            dac = path_resistance(t, int(a), int(c))
            dcb = path_resistance(t, int(c), int(b))
            assert dab <= dac + dcb + 1e-12


class TestLca:
    def test_against_naive_walk(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 200))
            t = random_tree(n, rng)
            for _ in range(50):
                u, v = (int(x) for x in rng.integers(0, n, 2))
                assert t.lca(u, v) == lca_naive(t, u, v)

    @pytest.mark.parametrize("kind", ["path", "star", "random", "broom"])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
    def test_batched_against_naive_walk(self, kind, n, rng):
        t = deep_tree(kind, n, rng, 1)
        if n <= 64:
            us, vs = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
        else:
            # random pairs, every vertex with itself, and with each ancestor
            us, vs = rng.integers(0, n, (2, 2000))
            anc = [(u, a) for u in range(n) for a in root_path(t, u)]
            us = np.concatenate([us, np.arange(n), [u for u, _ in anc]])
            vs = np.concatenate([vs, np.arange(n), [a for _, a in anc]])
        got = t.lca(us, vs)
        assert got.shape == us.shape
        assert got.tolist() == [lca_naive(t, int(u), int(v)) for u, v in zip(us, vs)]
        assert np.array_equal(t.lca(vs, us), got)

    def test_scalar_result_is_int(self, rng):
        t = random_tree(30, rng)
        assert type(t.lca(3, 17)) is int and type(t.lca(5, 5)) is int


def reference_report(g, t):
    """Per-edge stretch by upward walks and a sequential sum, one edge at a
    time, in the report's operation order."""
    P = t.resistance_prefix.tolist()
    values, total = [], 0.0
    for u, v, w in g.edges:
        a = lca_naive(t, u, v)
        s = w * (P[u] + P[v] - 2.0 * P[a])
        assert path_resistance(t, u, v) == P[u] + P[v] - 2.0 * P[a]
        values.append(s)
        total += s
    return values, total


class TestStretchReport:
    @pytest.mark.parametrize("spec", ["grid:15x15:logw", "regular:n=200,d=4:logw", "gnp:n=150,p=0.05:logw"])
    @pytest.mark.parametrize("method", ["maxw", "akpw"])
    def test_bit_equal_to_scalar_reference(self, spec, method):
        g = generate(spec, seed=2)
        t = max_weight_spanning_tree(g) if method == "maxw" else low_stretch_heuristic_tree(g, seed=2)
        rep = stretch_report(g, t)
        values, total = reference_report(g, t)
        assert rep.values.tolist() == values
        assert rep.total == total
        assert rep.per_edge == [(u, v, w, s) for (u, v, w), s in zip(g.edges, values)]

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        g = generate("gnp:n=120,p=0.06:logw", seed=1)
        rep = stretch_report(g, low_stretch_heuristic_tree(g, seed=1))
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["u", "v", "w", "stretch"])
        for u, v, w, s in rep.per_edge:
            writer.writerow([u, v, repr(w), repr(s)])
        rep.write_csv(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == ref.getvalue().encode()

    def test_csv_writer_memory_is_one_block(self, tmp_path):
        # all rows at once peaked at 15 MB for 60,000 edges; one block of
        # 4096 rows peaks near 1 MB
        m = 60_000
        rng = np.random.default_rng(0)
        u = np.sort(rng.integers(0, 30_000, m))
        rep = StretchReport(u, u + 1, 10.0 ** rng.uniform(-1.0, 1.0, m), rng.uniform(1.0, 300.0, m), 0.0)
        tracemalloc.start()
        try:
            rep.write_csv(tmp_path / "s.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000, peak
        assert len((tmp_path / "s.csv").read_bytes().split(b"\r\n")) == m + 2

    def test_single_vertex(self, tmp_path):
        g = WeightedGraph(1, [])
        rep = stretch_report(g, SpanningTree([-1], [0.0]))
        assert rep.total == 0.0 and rep.per_edge == []
        rep.write_csv(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == b"u,v,w,stretch\r\n"
        summary = {"total": 0.0, "max": 0.0, "mean": 0.0, "histogram": {
            "bin_edges": np.logspace(0.0, 1e-12, 11).tolist(), "counts": [0] * 10}}
        assert rep.summary() == summary
        rep.write_json_summary(tmp_path / "s.json")
        assert json.loads((tmp_path / "s.json").read_text()) == summary

    def test_unit_triangle_path_tree(self):
        g = triangle()
        t = SpanningTree.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        rep = stretch_report(g, t)
        values = {(u, v): s for u, v, _, s in rep.per_edge}
        assert values[(0, 1)] == pytest.approx(1.0)
        assert values[(1, 2)] == pytest.approx(1.0)
        assert values[(0, 2)] == pytest.approx(2.0)
        assert rep.total == pytest.approx(4.0)

    def test_tree_edges_have_stretch_one(self):
        g = generate("gnp:n=50,p=0.12:logw", seed=6)
        t = max_weight_spanning_tree(g)
        tree_edges = {(u, v) for u, v, _ in t.edges}
        rep = stretch_report(g, t)
        for u, v, _, s in rep.per_edge:
            if (u, v) in tree_edges:
                assert s == pytest.approx(1.0, abs=1e-12)
            assert s > 0.0

    def test_total_matches_trace_oracle(self, rng):
        g = generate("gnp:n=40,p=0.2:unit", seed=13)
        t = low_stretch_heuristic_tree(g, seed=13)
        rep = stretch_report(g, t)
        oracle = np.trace(dense_laplacian(g) @ np.linalg.pinv(dense_tree_laplacian(t)))
        assert abs(rep.total - oracle) <= 1e-9 * rep.total

    def test_total_is_sum_of_per_edge(self):
        g = generate("grid:6x6:logw", seed=4)
        rep = stretch_report(g, max_weight_spanning_tree(g))
        assert rep.total == pytest.approx(sum(s for _, _, _, s in rep.per_edge))

    def test_tree_spans_rejections(self):
        g = generate("grid:5x5:logw", seed=0)
        t = max_weight_spanning_tree(g)
        assert tree_spans(g, t)
        child = int(np.flatnonzero(t.parent >= 0)[7])
        nudged = t.parent_weight.copy()
        nudged[child] = np.nextafter(nudged[child], np.inf)
        assert not tree_spans(g, SpanningTree(t.parent, nudged))
        parent = t.parent.copy()
        parent[24] = 0     # corner to corner: not a grid edge
        assert not tree_spans(g, SpanningTree(parent, t.parent_weight))
        assert not tree_spans(generate("grid:5x6:logw", seed=0), t)
        path = SpanningTree.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert not tree_spans(WeightedGraph(3, [(0, 1, 1.0)]), path)

    def test_tree_spans_equals_key_search(self):
        g = generate("grid:5x5:logw", seed=0)
        t = max_weight_spanning_tree(g)
        nudged = t.parent_weight.copy()
        nudged[7] = np.nextafter(nudged[7], np.inf)
        parent = t.parent.copy()
        parent[24] = 0
        path = SpanningTree.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        for graph, tree in ((g, t), (g, SpanningTree(t.parent, nudged)),
                            (g, SpanningTree(parent, t.parent_weight)),
                            (generate("grid:5x6:logw", seed=0), t),
                            (WeightedGraph(3, [(0, 1, 1.0)]), path), (triangle(), path),
                            *((g2, t2) for g2, t2, _ in tree_edge_cases())):
            assert tree_spans(graph, tree) == spans_by_key_search(graph, tree)

    def test_mismatch_rejected(self):
        g = triangle()
        t = SpanningTree.from_edges(3, [(0, 1, 2.0), (1, 2, 1.0)])  # wrong weight
        with pytest.raises(TreeError, match="span"):
            stretch_report(g, t)

    def test_root_invariance(self):
        g = generate("gnp:n=40,p=0.15:logw", seed=5)
        t0 = max_weight_spanning_tree(g)
        totals = [stretch_report(g, t0).total]
        for root in (5, 17, 39):
            tr = SpanningTree.from_edges(g.n, t0.edges, root=root)
            totals.append(stretch_report(g, tr).total)
        assert max(totals) - min(totals) <= 1e-9 * totals[0]

    def test_serialization(self, tmp_path):
        g = generate("grid:4x4:unit", seed=0)
        rep = stretch_report(g, max_weight_spanning_tree(g))
        rep.write_csv(tmp_path / "s.csv")
        rep.write_json_summary(tmp_path / "s.json")
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u", "v", "w", "stretch"]
        assert len(rows) == g.m + 1
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["total"] == pytest.approx(rep.total)
        assert sum(summary["histogram"]["counts"]) == g.m


def spans_by_key_search(g, t):
    """Reference for tree_spans: each tree edge's u * n + v key looked up by
    binary search among g's sorted keys, and the weights compared."""
    if t.n != g.n or g.m < t.n - 1:
        return False
    n = g.n
    child = np.flatnonzero(t.parent >= 0)
    a = np.minimum(child, t.parent[child])
    b = np.maximum(child, t.parent[child])
    keys = g.edge_u * n + g.edge_v
    want = a * n + b
    pos = np.minimum(np.searchsorted(keys, want), g.m - 1)
    return bool(np.array_equal(keys[pos], want)
                and np.array_equal(g.edge_w[pos], t.parent_weight[child]))


def tree_edge_cases():
    """(g, t, held) for a maxw tree, which holds every tree edge; a maxw tree
    of g with other weights, which holds none; and a tree with an edge that
    is not in g, which holds all but that one."""
    rng = np.random.default_rng(5)
    g = generate("grid:20x20:logw", 0)
    t = max_weight_spanning_tree(g)
    yield g, t, g.n - 1
    reweighted = WeightedGraph(g.n, [(u, v, w * rng.uniform(0.5, 2.0)) for u, v, w in g.edges])
    yield g, max_weight_spanning_tree(reweighted), 0
    edges = t.edges
    edges.remove(next(e for e in edges if e[:2] == (0, 1)))
    yield g, SpanningTree.from_edges(g.n, edges + [(0, 21, 1.0)]), g.n - 2


class TestTreeEdgeMask:
    @pytest.mark.parametrize("case", range(3))
    def test_equal_to_scalar_parent_links(self, case):
        g, t, held = list(tree_edge_cases())[case]
        links = {}
        for u in range(t.n):
            p = int(t.parent[u])
            if p >= 0:
                links[min(u, p), max(u, p)] = float(t.parent_weight[u])
        want = [links.get((u, v)) == w for u, v, w in g.edges]
        mask = trees.tree_edge_mask(g, t)
        assert mask.tolist() == want
        assert np.count_nonzero(mask) == held
        assert tree_spans(g, t) == (held == t.n - 1)


class TestSpanningTreeStructure:
    def test_resistance_prefix_recurrence(self, rng):
        t = random_tree(80, rng)
        assert t.resistance_prefix[t.root] == 0.0
        for u in range(1, 80):
            p = int(t.parent[u])
            assert t.resistance_prefix[u] == pytest.approx(
                t.resistance_prefix[p] + 1.0 / t.parent_weight[u]
            )

    def test_from_edges_wrong_count(self):
        with pytest.raises(TreeError, match="^a spanning tree on 3 vertices needs 2 edges, got 1$"):
            SpanningTree.from_edges(3, [(0, 1, 1.0)])

    def test_from_edges_disconnected(self):
        with pytest.raises(TreeError, match="^edge list is not connected$"):
            SpanningTree.from_edges(4, [(0, 1, 1.0), (0, 1, 2.0), (2, 3, 1.0)])

    def test_from_edges_rejects_cycle_leaving_a_vertex_out(self):
        # n - 1 edges: a triangle on 0, 1, 2 and a path 3-4, vertex 5 alone
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 4, 1.0), (4, 2, 1.0)]
        with pytest.raises(TreeError, match="^edge list is not connected$"):
            SpanningTree.from_edges(6, edges)

    @pytest.mark.parametrize("n, edges, root", [
        (4, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)], 0),    # the root has no edge
        (3, [(1, 2, 1.0), (2, 1, 1.0)], 0),                 # the root has no edge, a duplicate
        (2, [(1, 1, 1.0)], 0),                              # a self-loop
        (4, [(0, 1, 1.0), (1, 0, 2.0), (0, 1, 3.0)], 0),    # every dart in the root's tour,
        (4, [(0, 1, 1.0), (1, 0, 2.0), (0, 1, 3.0)], 1),    # but 2 and 3 never reached
    ])
    def test_from_edges_rejects_unreached_vertices(self, n, edges, root):
        with pytest.raises(TreeError, match="^edge list is not connected$"):
            SpanningTree.from_edges(n, edges, root=root)

    @pytest.mark.parametrize("kind", ["path", "star", "random", "broom"])
    def test_from_edges_matches_reference_parents(self, rng, kind):
        for n in (1, 2, 3, 64, 2000):
            t = deep_tree(kind, n, rng, 2) if n > 1 else random_tree(1, rng)
            edges = [(u, v, w) if rng.random() < 0.5 else (v, u, w) for u, v, w in t.edges]
            edges = [edges[i] for i in rng.permutation(len(edges))]
            for root in {0, n - 1, int(rng.integers(0, n))}:
                tr = SpanningTree.from_edges(n, edges, root=root)
                parent, weight = reference_orientation(n, edges, root)
                assert tr.root == root
                assert tr.parent.tolist() == parent and tr.parent_weight.tolist() == weight
                assert tr.edges == t.edges
            assert SpanningTree.from_edges(n, np.array(edges).reshape(-1, 3)).edges == t.edges

    def test_edges_sorted_canonical(self, rng):
        for n in (1, 2, 40):
            t = random_tree(n, rng, weights="logw")
            want = sorted((min(u, int(t.parent[u])), max(u, int(t.parent[u])), float(t.parent_weight[u]))
                          for u in range(n) if u != t.root)
            assert t.edges == want

    def test_dense_tree_laplacian_matches_loop(self, rng):
        for n in (1, 2, 60):
            t = random_tree(n, rng, weights="logw")
            L = np.zeros((n, n))
            for u, v, w in t.edges:
                L[u, u] += w
                L[v, v] += w
                L[u, v] -= w
                L[v, u] -= w
            assert np.array_equal(dense_tree_laplacian(t), L)


def reference_tree_arrays(parent, parent_weight, root):
    """The per-vertex checks and a stack DFS, children ascending, on numpy
    scalars: the TreeError message, or (order, slot, last, up, depth, prefix)."""
    parent = np.asarray(parent, dtype=np.int64)
    parent_weight = np.asarray(parent_weight, dtype=np.float64)
    n = len(parent)
    if parent[root] != -1:
        return f"parent of root {root} must be -1"
    children = [[] for _ in range(n)]
    for u in range(n):
        p = parent[u]
        if u == root:
            continue
        if not (0 <= p < n):
            return f"vertex {u} has invalid parent {p}"
        if not (parent_weight[u] > 0.0):
            return f"edge ({u}, {p}) has nonpositive weight"
        children[p].append(u)
    order = np.empty(n, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)
    last = np.empty(n, dtype=np.int64)
    up = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    prefix = np.zeros(n)
    stack = [root]
    k = 0
    while stack:
        u = stack.pop()
        order[k] = u
        slot[u] = k
        k += 1
        for c in reversed(children[u]):
            depth[c] = depth[u] + 1
            prefix[c] = prefix[u] + 1.0 / parent_weight[c]
            stack.append(c)
    if k != n:
        return "parent links do not reach every vertex from the root"
    for k in range(n - 1, -1, -1):  # a subtree ends where its last child's ends
        u = order[k]
        kids = children[u]
        last[k] = last[slot[kids[-1]]] if kids else k
        if u != root:
            up[k] = slot[parent[u]]
    return order, slot, last, up, depth, prefix


def relabelled(t, rng):
    """t's parent links and weights under a random relabelling of its vertices,
    and the new id of its root."""
    perm = rng.permutation(t.n)             # new id i is old vertex perm[i]
    new = np.empty(t.n, dtype=np.int64)
    new[perm] = np.arange(t.n)
    old_parent = t.parent[perm]
    parent = np.where(old_parent >= 0, new[np.maximum(old_parent, 0)], -1)
    return parent, t.parent_weight[perm], int(new[t.root])


class TestSpanningTreeInit:
    @pytest.mark.parametrize("kind", ["path", "star", "random", "broom"])
    def test_arrays_equal_to_scalar_dfs(self, kind, rng):
        for n in (1, 2, 3, 257, 1 << 17):
            t = deep_tree(kind, n, rng, 2) if n > 1 else random_tree(1, rng)
            for parent, weight, root in ((t.parent, t.parent_weight, 0), relabelled(t, rng)):
                got = SpanningTree(parent, weight, root=root)
                order, slot, last, up, depth, prefix = reference_tree_arrays(parent, weight, root)
                assert np.array_equal(got.order, order)
                assert np.array_equal(got.slot, slot)
                assert np.array_equal(got.last, last)
                assert np.array_equal(got.up, up)
                assert np.array_equal(got.depth, depth)
                assert np.array_equal(got.resistance_prefix, prefix)

    def test_infinite_weight_rejected(self):
        # WeightedGraph rejects it too; as a tree edge it would be a short circuit
        with pytest.raises(TreeError, match=r"^edge \(1, 0\) has nonpositive weight$"):
            SpanningTree([-1, 0, 1], [1.0, np.inf, 2.0])
        with pytest.raises(TreeError, match=r"^edge \(1, 0\) has nonpositive weight$"):
            SpanningTree.from_edges(3, [(0, 1, np.inf), (1, 2, 2.0)])

    @pytest.mark.parametrize("parent, message", [
        ([-1, 0.5, 1.7], "vertex 1 has invalid parent 0.5"),
        ([-1, 0, np.nan], "vertex 2 has invalid parent nan"),
        ([-1, 2.5, 9], "vertex 1 has invalid parent 2.5"),
    ])
    def test_non_integer_parent_rejected(self, parent, message):
        # a fractional parent is an error, not the vertex it truncates to
        with pytest.raises(TreeError) as err:
            SpanningTree(parent, [1.0, 1.0, 1.0])
        assert str(err.value) == message

    def test_integral_float_parents_accepted(self):
        t = SpanningTree([-1.0, 0.0, 1.0], [1.0, 2.0, 4.0])
        assert t.parent.dtype == np.int64 and t.parent.tolist() == [-1, 0, 1]
        with pytest.raises(TreeError, match=r"^edge \(2, 1\) has nonpositive weight$"):
            SpanningTree([-1.0, 0.0, 1.0], [1.0, 2.0, 0.0])

    @pytest.mark.parametrize("case", [
        ([0, 0, 1, 2], [0.0, 1.0, 1.0, 1.0], 1),            # root's parent is not -1
        ([-1, 0, 7, 2, -3], [0.0, 1.0, 1.0, 1.0, 1.0], 0),  # invalid parents at 2 and 4
        ([-1, 0, 1, 1], [5.0, 1.0, 0.0, -1.0], 0),          # nonpositive weights at 2 and 3
        ([-1, 0, 1, 1], [1.0, 1.0, np.nan, 1.0], 0),        # a NaN weight
        ([-1, 0, 0, 9], [1.0, 0.0, 1.0, -2.0], 0),          # a bad weight before a bad parent
        ([9, 0, 1, -1], [0.0, 1.0, 1.0, 0.0], 3),           # both faults at vertex 0
        ([3, 2, -1, 0], [1.0, 1.0, 0.0, 1.0], 2),           # cycle 0-3 not reached from root 2
        ([1, 0, -1, 2, 3], [1.0, 1.0, 1.0, 1.0, 1.0], 2),   # cycle 0-1 beside a path 2-3-4
        ([-1, 1, 1], [1.0, 1.0, 1.0], 0),                   # a vertex that is its own parent
    ])
    def test_messages_equal_to_scalar_checks(self, case):
        parent, weight, root = case
        want = reference_tree_arrays(parent, weight, root)
        assert isinstance(want, str)
        with pytest.raises(TreeError) as err:
            SpanningTree(parent, weight, root=root)
        assert str(err.value) == want


_TREE_ARRAYS = ("parent", "parent_weight", "order", "slot", "last", "up", "depth", "resistance_prefix")


def assert_same_tree(a, b):
    assert (a.n, a.root) == (b.n, b.root)
    for name in _TREE_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestFromEdgesLayout:
    """from_edges lays out the preorder its own DFS found; every array must
    equal the one __init__ builds from the parent links it returns."""

    @pytest.mark.parametrize("kind", ["path", "star", "random", "broom"])
    def test_relabelled_shuffled_trees(self, kind, rng):
        for n in (1, 2, 3, 257, 1 << 17):
            t = deep_tree(kind, n, rng, 2) if n > 1 else random_tree(1, rng)
            parent, weight, root = relabelled(t, rng)
            child = np.flatnonzero(parent >= 0)
            flip = rng.random(len(child)) < 0.5
            edges = np.column_stack((np.where(flip, parent[child], child),
                                     np.where(flip, child, parent[child]), weight[child]))
            tr = SpanningTree.from_edges(n, edges[rng.permutation(len(child))], root=root)
            assert np.array_equal(tr.parent, parent)
            assert_same_tree(tr, SpanningTree(tr.parent, tr.parent_weight, root=root))

    @pytest.mark.parametrize("spec", [
        "grid:120x120:logw", "regular:n=30000,d=4:logw",
        "grid:20x20:logw", "gnp:n=450,p=0.02:logw", "regular:n=400,d=4:unit",
    ])
    def test_benchmark_and_desk_trees(self, spec):
        for seed in range(3):
            g = generate(spec, seed=seed)
            for t in (max_weight_spanning_tree(g), low_stretch_heuristic_tree(g, seed)):
                assert_same_tree(t, SpanningTree(t.parent, t.parent_weight, root=t.root))

    @pytest.mark.parametrize("root", [3, 5, -1])
    def test_root_out_of_range(self, root):
        with pytest.raises(TreeError, match=rf"^root {root} is not a vertex: want 0 <= root < 3$"):
            SpanningTree([-1, 0, 0], [1.0, 1.0, 1.0], root=root)
        with pytest.raises(TreeError, match=rf"^root {root} is not a vertex: want 0 <= root < 3$"):
            SpanningTree.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)], root=root)

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1, 1.0), (1, 3, 1.0)], "edge (1, 3) has an end outside 0..2"),
        ([(0, 1, 1.0), (-1, 2, 1.0)], "edge (-1, 2) has an end outside 0..2"),
        # a fractional end is an error, not the vertex it truncates to
        ([(0, 1.5, 1.0), (1, 2, 1.0)], "edge (0, 1.5) has a non-integer end"),
        ([(0, 1, 1.0), (np.nan, 2, 1.0)], "edge (nan, 2) has a non-integer end"),
        ([(0, 1, 1.0), (1, np.inf, 1.0)], "edge (1, inf) has an end outside 0..2"),
        ([(0.5, 7, 1.0), (1, 2, 1.0)], "edge (0.5, 7) has a non-integer end"),
    ])
    def test_end_out_of_range(self, edges, message):
        with pytest.raises(TreeError) as err:
            SpanningTree.from_edges(3, edges)
        assert str(err.value) == message

    def test_nonpositive_weight_message(self):
        # the message __init__ gives for the same parent links
        with pytest.raises(TreeError, match=r"^edge \(2, 1\) has nonpositive weight$"):
            SpanningTree.from_edges(4, [(0, 1, 1.0), (2, 1, 0.0), (3, 0, -1.0)])


def reference_orientation(n, edges, root):
    """Parent links and parent-edge weights of the tree on n vertices with
    the given (u, v, w) edges: of each edge, the end that the breadth-first
    reference search from the root reaches first is the parent."""
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    order, starts = search(n, u, v, root)
    assert len(starts) == 1
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    parent, weight = [-1] * n, [0.0] * n
    for a, b, w in zip(u.tolist(), v.tolist(), [float(e[2]) for e in edges]):
        if pos[a] > pos[b]:
            a, b = b, a
        parent[b], weight[b] = a, w
    return parent, weight


class TestSetupMemory:
    # bytes per vertex plus edge; the peaks measured were 46-58 for the
    # graph, 68-90 for maxw and 36-54 for from_edges.  from_edges peaks while
    # it orients its edges, before the layout, whose one Python pass runs
    # over flat arrays of 24 bytes per vertex
    PER_ITEM = 400

    @pytest.mark.parametrize("shape", ["path", "grid"])
    def test_peak_is_linear(self, shape):
        if shape == "path":
            n = 1 << 18
            u, v = np.arange(n - 1), np.arange(1, n)
        else:
            n, u, v = _grid_edges(512, 512)
        edges = np.column_stack((u, v, 10.0 ** np.random.default_rng(0).uniform(-1.0, 1.0, len(u))))

        def peak(build):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = build()
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / (n + len(u)))
            return out

        peaks = []
        tracemalloc.start()
        try:
            g = peak(lambda: WeightedGraph(n, edges))
            t = peak(lambda: max_weight_spanning_tree(g))
            child = np.flatnonzero(t.parent >= 0)
            tree_edges = np.column_stack((child, t.parent[child], t.parent_weight[child]))
            peak(lambda: SpanningTree.from_edges(n, tree_edges))
        finally:
            tracemalloc.stop()
        assert max(peaks) < self.PER_ITEM, peaks
