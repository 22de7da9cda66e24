import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from treepcg import (
    GraphError,
    WeightedGraph,
    dense_laplacian,
    generate,
    is_connected,
    laplacian_apply,
    parse_generator_spec,
    read_edge_list,
    read_vector,
    write_edge_list,
    write_vector,
)
from treepcg import graphs
from treepcg.graphs import _giant_component, components, pair_order

from conftest import search


def triangle():
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


class TestConstruction:
    def test_canonical_order(self):
        g = WeightedGraph(3, [(2, 1, 1.0), (1, 0, 2.0)])
        assert g.edges == [(0, 1, 2.0), (1, 2, 1.0)]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            WeightedGraph(2, [(0, 0, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError, match="weight"):
            WeightedGraph(2, [(0, 1, 0.0)])
        with pytest.raises(GraphError, match="weight"):
            WeightedGraph(2, [(0, 1, -1.0)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            WeightedGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            WeightedGraph(2, [(0, 2, 1.0)])

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1.5, 1.0), (1, 2, 1.0)], "non-integer vertex id in edge (0, 1.5)"),
        ([(0, 1, 1.0), (-0.5, 2, 1.0)], "non-integer vertex id in edge (-0.5, 2)"),
        ([(0, 1, 1.0), (2, float("nan"), 1.0)], "non-integer vertex id in edge (2, nan)"),
        ([(0, 1, 1.0), (1, float("inf"), 1.0)], "vertex id out of range in edge (1, inf)"),
    ])
    def test_non_integer_id_rejected(self, edges, message):
        # a fractional id is an error, not the vertex it truncates to
        for given in (edges, np.array(edges)):
            with pytest.raises(GraphError) as exc:
                WeightedGraph(3, given)
            assert str(exc.value) == message


def reference_validate(n, edges):
    """The per-edge validation loop the array code replaced: the message of
    the error WeightedGraph(n, edges) must raise, or None."""
    canon = []
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            return f"vertex id out of range in edge ({u}, {v})"
        if u == v:
            return f"self-loop at vertex {u}"
        if not (w > 0.0) or not math.isfinite(w):
            return f"edge ({u}, {v}) has nonpositive weight {w}"
        canon.append((min(u, v), max(u, v)))
    canon.sort()
    for a, b in zip(canon, canon[1:]):
        if a == b:
            return f"duplicate edge ({a[0]}, {a[1]})"
    return None


class TestValidation:
    FAULTS = {
        "out of range": lambda u, v, w, n: (u, n + 3, w),
        "negative id": lambda u, v, w, n: (-1, v, w),
        "self-loop": lambda u, v, w, n: (u, u, w),
        "zero weight": lambda u, v, w, n: (u, v, 0.0),
        "negative weight": lambda u, v, w, n: (u, v, -2.5),
        "nan weight": lambda u, v, w, n: (u, v, float("nan")),
        "inf weight": lambda u, v, w, n: (u, v, float("inf")),
    }

    def random_edges(self, rng, n=30, m=60):
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, (3 * m, 2)) if a != b}
        pairs = {(min(p), max(p)) for p in pairs}
        edges = [(u, v, float(w)) if rng.random() < 0.5 else (v, u, float(w))
                 for (u, v), w in zip(sorted(pairs)[:m], rng.uniform(0.1, 10.0, m))]
        return [edges[i] for i in rng.permutation(len(edges))]

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_first_offending_edge_in_input_order(self, rng, fault):
        for _ in range(20):
            edges = self.random_edges(rng)
            # two faults of this kind and one other later fault: the first wins
            i, j = sorted(rng.choice(len(edges) - 1, 2, replace=False))
            edges[i] = self.FAULTS[fault](*edges[i], 30)
            edges[j] = self.FAULTS[fault](*edges[j], 30)
            edges[-1] = (edges[-1][0], edges[-1][0], 1.0)
            want = reference_validate(30, edges)
            assert want is not None
            with pytest.raises(GraphError) as exc:
                WeightedGraph(30, edges)
            assert str(exc.value) == want
            with pytest.raises(GraphError) as exc:
                WeightedGraph(30, np.array(edges))
            assert str(exc.value) == want

    def test_duplicate_reports_first_in_sorted_order(self, rng):
        for _ in range(20):
            edges = self.random_edges(rng)
            for k in rng.choice(len(edges), 3, replace=False):
                u, v, w = edges[k]
                edges.insert(int(rng.integers(0, len(edges) + 1)), (v, u, w + 1.0))
            want = reference_validate(30, edges)
            assert want.startswith("duplicate edge")
            with pytest.raises(GraphError) as exc:
                WeightedGraph(30, edges)
            assert str(exc.value) == want

    def test_accepts_lists_arrays_and_empty(self, rng):
        edges = self.random_edges(rng)
        assert reference_validate(30, edges) is None
        g = WeightedGraph(30, edges)
        h = WeightedGraph(30, np.array(edges))
        assert g.edges == h.edges == sorted((min(u, v), max(u, v), w) for u, v, w in edges)
        for empty in ([], np.zeros((0, 3))):
            e = WeightedGraph(4, empty)
            assert e.m == 0 and e.edge_u.dtype == np.int64 and not is_connected(e)
        assert is_connected(WeightedGraph(1, []))

    def test_rejects_wrong_shape(self):
        with pytest.raises(GraphError, match="triples"):
            WeightedGraph(3, [(0, 1), (1, 2)])


def lexsort_canonical(n, edges):
    """WeightedGraph's sort as a two-key lexsort did it before the one-key
    argsort: the canonical (u, v, w) arrays, or the duplicate-edge message."""
    e = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
    a = np.minimum(e[:, 0], e[:, 1]).astype(np.int64)
    b = np.maximum(e[:, 0], e[:, 1]).astype(np.int64)
    idx = np.lexsort((b, a))
    a, b = a[idx], b[idx]
    dup = np.flatnonzero((a[1:] == a[:-1]) & (b[1:] == b[:-1]))
    if len(dup):
        return f"duplicate edge ({a[dup[0]]}, {b[dup[0]]})"
    return a, b, e[idx, 2]


class TestSortKey:
    def shuffled_edges(self, rng, n, m):
        """m distinct random pairs on 0..n-1 in random order and orientation."""
        k = rng.choice(n * (n - 1) // 2, m, replace=False)
        iu, iv = np.triu_indices(n, k=1)
        u, v = iu[k], iv[k]
        flip = rng.random(m) < 0.5
        return np.column_stack((np.where(flip, v, u), np.where(flip, u, v), rng.uniform(0.1, 10.0, m)))

    @pytest.mark.parametrize("n, m", [(2, 1), (30, 60), (400, 3000), (3000, 20000)])
    def test_equal_to_lexsort_on_shuffled_inputs(self, rng, n, m):
        for _ in range(3):
            edges = self.shuffled_edges(rng, n, m)
            g = WeightedGraph(n, edges)
            a, b, w = lexsort_canonical(n, edges)
            assert g.edge_u.tolist() == a.tolist() and g.edge_v.tolist() == b.tolist()
            assert g.edge_w.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n, m", [(30, 60), (400, 3000)])
    def test_duplicate_message_equal_to_lexsort(self, rng, n, m):
        for copies in (1, 2, 5):
            edges = self.shuffled_edges(rng, n, m)
            extra = edges[rng.choice(m, copies)]
            extra[:, :2] = extra[:, 1::-1]          # the other orientation
            extra[:, 2] += 1.0
            edges = np.concatenate((edges, extra))[rng.permutation(m + copies)]
            want = lexsort_canonical(n, edges)
            assert want.startswith("duplicate edge")
            with pytest.raises(GraphError) as exc:
                WeightedGraph(n, edges)
            assert str(exc.value) == want

    def test_orders_past_the_int64_key(self, rng):
        # keys that would not fit in int64 take the two-key lexsort, which
        # orders distinct pairs alike
        pairs = np.unique(rng.integers(0, 50, (300, 2)), axis=0)
        a, b = pairs[rng.permutation(len(pairs))].T
        for n in (50, 2**31, 2**32):
            assert np.array_equal(pair_order(n, a, b), np.lexsort((b, a)))


def reference_giant(n, u, v):
    """Largest component by networkx, ties to the smallest vertex, relabelled
    in increasing id, edges in input order."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(zip(u.tolist(), v.tolist()))
    best = max(nx.connected_components(G), key=lambda c: (len(c), -min(c)))
    label = {x: i for i, x in enumerate(sorted(best))}
    kept = [(label[a], label[b]) for a, b in zip(u.tolist(), v.tolist()) if a in best]
    return len(best), kept


def union_of_components(rng, sizes):
    """A random graph that is the disjoint union of connected pieces of the
    given sizes (random trees plus a few extra edges), vertex ids shuffled."""
    pairs, base = set(), 0
    for k in sizes:
        pairs.update((base + int(rng.integers(0, x)), base + x) for x in range(1, k))
        for _ in range(k // 3):
            a, b = sorted(rng.integers(0, k, 2).tolist())
            if a != b:
                pairs.add((base + a, base + b))
        base += k
    perm = rng.permutation(base)
    uv = perm[np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)]
    uv = uv[rng.permutation(len(uv))]
    return base, uv[:, 0], uv[:, 1]


def nx_labels(n, u, v):
    """Each vertex's smallest component-mate, by networkx."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(zip(u.tolist(), v.tolist()))
    label = np.empty(n, dtype=np.int64)
    for c in nx.connected_components(G):
        label[list(c)] = min(c)
    return G, label


class TestSearch:
    """``components`` and ``_giant_component`` against networkx, and the
    breadth-first ``search`` that the tests keep as a reference."""

    @pytest.mark.parametrize("sizes", [[1], [5], [3, 3], [4, 1, 4, 2], [1, 1, 1], [7, 7, 7, 2],
                                       [30, 12, 30, 1, 1, 5], [200]])
    def test_components_match_networkx(self, rng, sizes):
        nx = pytest.importorskip("networkx")
        for _ in range(5):
            n, u, v = union_of_components(rng, sizes)
            G, want = nx_labels(n, u, v)
            for a, b in ((u, v), (v, u), (np.concatenate((u, v)), np.concatenate((v, u)))):
                got = components(n, a, b)
                assert got.dtype == np.int64 and np.array_equal(got, want)
            for root in (0, n - 1, int(rng.integers(0, n))):
                order, starts = search(n, u, v, root)
                assert np.array_equal(np.sort(order), np.arange(n))
                comps = np.split(order, starts[1:])
                assert all((want[c] == c.min()).all() for c in comps)
                assert len(comps) == len(np.unique(want))
                assert order[0] == root
                smallest = [int(c.min()) for c in comps[1:]]
                assert smallest == sorted(smallest) and order[starts[1:]].tolist() == smallest
                pos = np.empty(n, dtype=np.int64)
                pos[order] = np.arange(n)
                for i, x in enumerate(order.tolist()):
                    if i not in starts:
                        assert any(pos[y] < i for y in G[x])
            g = WeightedGraph(n, np.column_stack((u, v, np.ones(len(u)))))
            assert is_connected(g) == nx.is_connected(G)
            size, gu, gv = _giant_component(n, u, v)
            want_size, want_edges = reference_giant(n, u, v)
            assert size == want_size
            assert list(zip(gu.tolist(), gv.tolist())) == want_edges

    @pytest.mark.parametrize("kind", ["path", "star", "random"])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 5000])
    def test_components_of_shuffled_trees(self, rng, kind, n):
        # a path in shuffled ids makes long label chains for compression
        parent = np.arange(-1, n - 1) if kind == "path" else np.zeros(n, dtype=np.int64)
        if kind == "random":
            parent[1:] = rng.integers(0, np.arange(1, n))
        perm = rng.permutation(n)
        u, v = perm[1:], perm[parent[1:]]
        flip = rng.random(n - 1) < 0.5
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        assert np.array_equal(components(n, u, v), np.zeros(n, dtype=np.int64))
        # without its middle edge, the tree falls into two
        keep = np.arange(n - 1) != (n - 1) // 2
        assert np.array_equal(components(n, u[keep], v[keep]), nx_labels(n, u[keep], v[keep])[1])

    def test_components_small_inputs(self):
        empty = np.zeros(0, dtype=np.int64)
        assert np.array_equal(components(4, empty, empty), np.arange(4))
        assert np.array_equal(components(4, [2, 3, 3], [3, 2, 2]), [0, 1, 2, 2])

    # n = 1600 has 1,279,200 pairs, more than one block of uniforms
    @pytest.mark.parametrize("n, p, seed", [(1600, 0.0008, 0), (300, 0.006, 4)])
    def test_gnp_is_giant_component_of_all_pairs(self, n, p, seed):
        rng = np.random.default_rng([seed, 0x5EED])
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < p
        size, kept = reference_giant(n, iu[mask], iv[mask])
        assert 2 < size < n
        weights = 10.0 ** np.random.default_rng([seed, 0x17]).uniform(-1.0, 1.0, len(kept))
        g = generate(f"gnp:n={n},p={p}:logw", seed)
        assert g.n == size
        assert g.edges == sorted((a, b, w) for (a, b), w in zip(kept, weights.tolist()))

    def test_gnp_memory_is_not_quadratic(self):
        # all 12.5M candidate pairs at once took a 299 MB peak
        tracemalloc.start()
        try:
            generate("gnp:n=5000,p=0.001:unit", seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestLaplacianApply:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        assert np.allclose(laplacian_apply(g, [1.0, 0.0]), [1.0, -1.0])

    def test_all_ones_in_nullspace(self, rng):
        g = generate("gnp:n=50,p=0.15:logw", seed=1)
        y = laplacian_apply(g, np.ones(g.n))
        assert np.abs(y).max() <= 1e-12

    def test_triangle(self):
        y = laplacian_apply(triangle(), [1.0, 0.0, -1.0])
        # frozen from the dense-matrix multiply oracle
        assert np.allclose(y, [3.0, 0.0, -3.0], atol=1e-14)
        oracle = dense_laplacian(triangle()) @ np.array([1.0, 0.0, -1.0])
        assert np.allclose(y, oracle, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(GraphError, match="length"):
            laplacian_apply(triangle(), [1.0, 2.0])

    @pytest.mark.parametrize(
        "spec",
        ["grid:9x7:unit", "grid:5x5:logw", "gnp:n=80,p=0.08:unit",
         "gnp:n=120,p=0.05:logw", "regular:n=100,d=4:logw"],
    )
    def test_matches_dense_oracle(self, spec, rng):
        g = generate(spec, seed=5)
        L = dense_laplacian(g)
        for _ in range(5):
            x = rng.standard_normal(g.n)
            y = laplacian_apply(g, x)
            ref = L @ x
            assert np.linalg.norm(y - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)

    def test_quadratic_form_nonnegative(self, rng):
        g = generate("gnp:n=60,p=0.1:logw", seed=2)
        for _ in range(10):
            x = rng.standard_normal(g.n)
            q = x @ laplacian_apply(g, x)
            direct = float(np.sum(g.edge_w * (x[g.edge_u] - x[g.edge_v]) ** 2))
            assert q >= 0.0
            assert abs(q - direct) <= 1e-10 * max(direct, 1.0)


class TestDenseLaplacian:
    def test_single_edge_weight_two(self):
        g = WeightedGraph(2, [(0, 1, 2.0)])
        assert np.array_equal(dense_laplacian(g), [[2.0, -2.0], [-2.0, 2.0]])

    def test_edgeless(self):
        g = WeightedGraph(3, [])
        assert np.array_equal(dense_laplacian(g), np.zeros((3, 3)))

    def test_triangle_is_k3(self):
        L = dense_laplacian(triangle())
        assert np.array_equal(L, 2.0 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))

    def test_symmetric_zero_row_sums(self):
        g = generate("gnp:n=40,p=0.2:logw", seed=9)
        L = dense_laplacian(g)
        assert np.array_equal(L, L.T)
        assert np.abs(L.sum(axis=1)).max() <= 1e-12

    def test_cap(self):
        g = generate("grid:4x4:unit", seed=0)
        with pytest.raises(GraphError, match="cap"):
            dense_laplacian(g, cap=10)

    @pytest.mark.parametrize("spec", [
        "grid:12x9:unit", "grid:12x9:logw", "gnp:n=150,p=0.05:unit", "gnp:n=150,p=0.05:logw",
        "regular:n=120,d=5:unit", "regular:n=120,d=5:logw",
    ])
    def test_matches_per_edge_loop(self, spec):
        # the per-edge loop this function used to be: each diagonal entry adds
        # its edges' weights in edge order, which the whole-array form keeps
        g = generate(spec, seed=3)
        L = np.zeros((g.n, g.n))
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
            L[u, u] += w
            L[v, v] += w
            L[u, v] -= w
            L[v, u] -= w
        assert np.array_equal(dense_laplacian(g), L)


class TestConnectivity:
    def test_isolated_vertices(self):
        assert not is_connected(WeightedGraph(2, []))

    def test_too_few_edges_for_a_huge_vertex_count(self):
        # decided without a per-vertex array, which would take 8 TiB here
        assert not is_connected(WeightedGraph(2**40, [(0, 1, 1.0)]))

    def test_grid(self):
        assert is_connected(generate("grid:10x10:unit", seed=0))

    def test_tree_graph(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert is_connected(g)


class TestGenerate:
    def test_grid_2x2(self):
        g = generate("grid:2x2:unit", seed=0)
        assert g.n == 4 and g.m == 4

    @pytest.mark.parametrize("a,b", [(3, 5), (7, 2), (10, 10)])
    def test_grid_edge_count(self, a, b):
        g = generate(f"grid:{a}x{b}:unit", seed=0)
        assert g.n == a * b
        assert g.m == a * (b - 1) + b * (a - 1)

    def test_gnp_deterministic(self):
        g1 = generate("gnp:n=50,p=0.1:logw", seed=11)
        g2 = generate("gnp:n=50,p=0.1:logw", seed=11)
        assert g1.edges == g2.edges

    def test_gnp_connected(self):
        for seed in range(5):
            assert is_connected(generate("gnp:n=60,p=0.08:unit", seed=seed))

    def test_regular_connected_and_degree(self):
        g = generate("regular:n=30,d=3:unit", seed=4)
        assert is_connected(g)
        deg = np.zeros(g.n, dtype=int)
        for u, v, _ in g.edges:
            deg[u] += 1
            deg[v] += 1
        assert np.all(deg == 3)

    def test_regular_impossible(self):
        with pytest.raises(GraphError, match="impossible"):
            generate("regular:n=5,d=3:unit", seed=0)

    @pytest.mark.parametrize("spec", ["grid:3x3:unit", "gnp:n=20,p=0.3:unit", "regular:n=10,d=3:logw"])
    def test_negative_seed_rejected(self, spec):
        with pytest.raises(GraphError, match="seed must be nonnegative"):
            generate(spec, seed=-1)

    def test_logw_weight_range(self):
        g = generate("grid:6x6:logw", seed=3)
        assert g.edge_w.min() >= 0.1 and g.edge_w.max() <= 10.0

    def test_spec_parse_errors(self):
        with pytest.raises(GraphError, match="grid"):
            parse_generator_spec("grid:30:unit")
        with pytest.raises(GraphError, match="weighting"):
            parse_generator_spec("grid:3x3:heavy")
        with pytest.raises(GraphError, match="kind"):
            parse_generator_spec("torus:3x3:unit")
        with pytest.raises(GraphError, match="gnp"):
            parse_generator_spec("gnp:n=10:unit")
        for spec in ("gnp:n=100,p=0.1,w=3:logw", "regular:n=100,d=4,d=6", "gnp:n=100,p=0.1,n=200",
                     "gnp:n=50,p=1.5", "gnp:n=50,p=0", "gnp:n=50,p=-0.5", "gnp:n=50,p=nan",
                     "grid", "gnp:n=10,p:unit", "gnp:n=ten,p=0.1"):
            with pytest.raises(GraphError, match="malformed generator spec"):
                parse_generator_spec(spec)


def regular_cases():
    """(n, d, seed) for d in 1..4 and n - 1 where n * d is even; d = n - 1
    only while the complete graph is small."""
    for n in (5, 6, 7, 8, 11, 16, 40, 101, 400, 3600):
        for d in sorted({1, 2, 3, 4} | ({n - 1} if n <= 101 else set())):
            if (n * d) % 2 == 0 and d < n:
                for seed in range(12 if n <= 40 else 3):
                    yield n, d, seed


class TestRegularPort:
    """The stub pairing against networkx's ``random_regular_graph``, which
    drew every regular graph before the port and stays the reference."""

    def test_edges_equal_to_networkx(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        failed_tries = []
        pair_stubs = graphs._pair_stubs

        def counted(n, d, rng):
            edges = pair_stubs(n, d, rng)
            failed_tries.append(edges is None)
            return edges

        monkeypatch.setattr(graphs, "_pair_stubs", counted)
        for n, d, seed in regular_cases():
            u, v = graphs._random_regular(n, d, seed)
            want = list(nx.random_regular_graph(d, n, seed=seed).edges())
            assert list(zip(u.tolist(), v.tolist())) == want, (n, d, seed)
        assert sum(failed_tries) >= 20      # the grid takes the retry path

    # 2-regular draws are often cycles that miss vertices: the first three
    # cases are connected only at attempts 5, 7 and 11
    @pytest.mark.parametrize("n, d, seed", [(16, 2, 0), (40, 2, 4), (30, 2, 5), (101, 4, 2), (400, 4, 1), (3600, 3, 0)])
    def test_connected_draw_equal_to_networkx(self, n, d, seed):
        nx = pytest.importorskip("networkx")
        for attempt in range(100):
            G = nx.random_regular_graph(d, n, seed=seed * 1000 + attempt)
            if nx.is_connected(G):
                break
        _, u, v = graphs._regular_edges(n, d, seed)
        assert list(zip(u.tolist(), v.tolist())) == list(G.edges())


class TestEdgeListIO:
    def test_parse_single_edge(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 1.5\n")
        g = read_edge_list(p)
        assert g.edges == [(0, 1, 1.5)]

    def test_round_trip(self, tmp_path):
        g = generate("gnp:n=40,p=0.15:logw", seed=8)
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        h = read_edge_list(p)
        assert h.n == g.n and h.edges == g.edges

    def test_self_loop_with_line_number(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 1.0\n0 0 1\n")
        with pytest.raises(GraphError, match=r":2.*self-loop"):
            read_edge_list(p)

    def test_nonpositive_weight(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 -2.0\n")
        with pytest.raises(GraphError, match=r":1.*nonpositive"):
            read_edge_list(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n")
        with pytest.raises(GraphError, match=r":1"):
            read_edge_list(p)

    @pytest.mark.parametrize("text, error", [
        ("-1 -2 1.0\n", "vertex id out of range in edge (-1, -2)"),
        ("# a comment\n-1 -2 1.0\n", "vertex id out of range in edge (-1, -2)"),
        ("", "{}: no edges"),
        ("# a comment\n\n", "{}: no edges"),
    ])
    def test_no_edges_only_without_edge_rows(self, tmp_path, text, error):
        p = tmp_path / "g.txt"
        p.write_text(text)
        with pytest.raises(GraphError) as exc:
            read_edge_list(p)
        assert str(exc.value) == error.format(p)

    def test_edge_list_writer_memory_is_one_block(self, tmp_path):
        # the columns of the stretch CSV's memory test, as a graph's edge
        # arrays (all write_edge_list reads); a line per edge from Python
        # lists peaked at 6.7 MB, one block of 8192 rows near 1.4 MB
        m = 60_000
        rng = np.random.default_rng(0)
        u = np.sort(rng.integers(0, 30_000, m))
        g = SimpleNamespace(edge_u=u, edge_v=u + 1, edge_w=10.0 ** rng.uniform(-1.0, 1.0, m))
        tracemalloc.start()
        try:
            write_edge_list(g, tmp_path / "g.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000, peak
        want = "".join(f"{a} {b} {c!r}\n" for a, b, c in zip(u.tolist(), (u + 1).tolist(), g.edge_w.tolist()))
        assert (tmp_path / "g.txt").read_text() == want


def reference_read_edge_list(path):
    """The per-line reader that read_edge_list falls back to, as it was
    before the loadtxt path: a WeightedGraph or the GraphError it raises."""
    values = []
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
            values += (u, v, w)
    edges = np.array(values, dtype=np.float64).reshape(-1, 3)
    if not len(edges):
        raise GraphError(f"{path}: no edges")
    return WeightedGraph(max(int(edges[:, :2].max()) + 1, 1), edges)


def reference_read_vector(path):
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


def outcome(read, path):
    """What read(path) returns or raises, comparable with ==, warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = read(path)
        except Exception as exc:
            return type(exc), str(exc)
    if isinstance(r, WeightedGraph):
        return r.n, r.edge_u.tolist(), r.edge_v.tolist(), r.edge_w.tobytes()
    return r.dtype, r.shape, r.tobytes()


EDGE_LIST_TEXTS = {
    "plain": "0 1 1.5\n1 2 0.25\n0 2 3\n",
    "comment line": "# a comment\n0 1 1.5\n1 2 2\n",
    "comment mid-line": "0 1 1.5 # heavy\n1 2 2\n",
    "float id": "0 1.0 1.5\n1 2 2\n",
    "underscore id": "0 1_0 1.5\n1 2 2\n",
    "underscore weight": "0 1 1_5\n1 2 2\n",
    "plus sign": "+0 +1 +1.5\n1 2 2\n",
    "negative id": "0 -1 1.5\n1 2 2\n",
    "all ids negative": "-2 -1 1.5\n",
    "19-digit id": "0 9223372036854775807 1.5\n",
    "20-digit id": "0 12345678901234567890 1.5\n",
    "leading zeros": "000 001 1.5\n1 2 2\n",
    "tabs": "0\t1\t1.5\n1\t2\t2\n",
    "crlf": "0 1 1.5\r\n1 2 2\r\n",
    "lone cr": "0 1 1.5\r1 2 2\r",
    "form feed": "0\x0c1 1.5\n1 2 2\x0c\n",
    "vertical tab": "0\x0b1 1.5\n1 2 2\n",
    "no-break space": "0\xa01 1.5\n1 2 2\n",
    "whitespace-only lines": "0 1 1.5\n   \n\t\n1 2 2\n \n",
    "no final newline": "0 1 1.5\n1 2 2",
    "two tokens": "0 1 1.5\n1 2\n",
    "four tokens": "0 1 1.5\n1 2 2 3\n",
    "four tokens everywhere": "0 1 1.5 9\n1 2 2 9\n",
    "comma separated": "0,1,1.5\n",
    "nan weight": "0 1 nan\n1 2 2\n",
    "nan id": "0 nan 1.5\n",
    "inf weight": "0 1 inf\n1 2 2\n",
    "negative zero id": "-0 1 1.5\n1 2 2\n",
    "negative zero weight": "0 1 -0\n1 2 2\n",
    "1e400 weight": "0 1 1e400\n1 2 2\n",
    "1e400 id": "0 1e400 1.5\n",
    "hex id": "0 0x1 1.5\n",
    "unicode digit": "0 \u0663 1.5\n",
    "self-loop": "0 1 1.5\n2 2 1\n",
    "zero weight": "0 1 0\n1 2 2\n",
    "negative weight": "0 1 1.5\n1 2 -2\n",
    "duplicate": "0 1 1.5\n1 0 2\n",
    "disconnected": "0 1 1.5\n2 3 2\n",
    "empty": "",
    "whitespace only": " \n\t\n",
    "comments only": "# nothing\n",
    # n = 4e9 + 1: n * n overflows int64, so the graph build sorts by a
    # lexsort and fails in components, which cannot allocate 32 GB
    "4e9 id": "0 4000000000 1.0\n",
}


class TestEdgeListDifferential:
    @pytest.mark.parametrize("name", sorted(EDGE_LIST_TEXTS))
    def test_matches_line_reader(self, tmp_path, name):
        p = tmp_path / "g.txt"
        p.write_bytes(EDGE_LIST_TEXTS[name].encode())
        assert outcome(read_edge_list, p) == outcome(reference_read_edge_list, p)

    def test_generated_graphs_round_trip(self, tmp_path):
        for spec in ("grid:9x7:logw", "gnp:n=120,p=0.05:logw", "regular:n=100,d=3:unit"):
            g = generate(spec, seed=2)
            p = tmp_path / "g.txt"
            write_edge_list(g, p)
            assert outcome(read_edge_list, p) == outcome(reference_read_edge_list, p)
            assert outcome(read_edge_list, p)[1:3] == (g.edge_u.tolist(), g.edge_v.tolist())

    def test_clean_file_skips_line_reader(self, tmp_path, monkeypatch):
        def fail(path, text):
            raise AssertionError("line reader called")

        p = tmp_path / "g.txt"
        p.write_text(EDGE_LIST_TEXTS["plain"])
        monkeypatch.setattr(graphs, "_parse_edge_lines", fail)
        assert read_edge_list(p).edges == [(0, 1, 1.5), (0, 2, 3.0), (1, 2, 0.25)]


VECTOR_TEXTS = {
    "plain": "1.5\n-2\n0.1\n",
    "one value": "3.25\n",
    "comment": "# b\n1.5\n",
    "comment mid-line": "1.5 # one\n2\n",
    "two per line": "1.5 2\n",
    "two on one line of two": "1.5\n2 3\n",
    "underscore": "1_5\n2\n",
    "special values": "nan\n-inf\n+inf\n-0\n1e400\n",
    "crlf and blanks": "1\r\n\r\n  2\t\r\n",
    "form feed": "1\x0c\n2\n",
    "comma": "1,5\n",
    "empty": "",
    "whitespace only": "\n \n",
}


class TestVectorIO:
    @pytest.mark.parametrize("name", sorted(VECTOR_TEXTS))
    def test_matches_line_reader(self, tmp_path, name):
        p = tmp_path / "b.txt"
        p.write_bytes(VECTOR_TEXTS[name].encode())
        assert outcome(read_vector, p) == outcome(reference_read_vector, p)

    def test_round_trip_keeps_bits(self, tmp_path, rng):
        x = np.concatenate((rng.standard_normal(50), [0.0, -0.0, 1e300, 5e-324, np.inf]))
        p = tmp_path / "x.txt"
        write_vector(x, p)
        assert outcome(read_vector, p) == (np.dtype(np.float64), x.shape, x.tobytes())


def repr_lines(x) -> bytes:
    """repr of each value, one a CRLF-ended line."""
    return "".join(f"{v!r}\r\n" for v in np.asarray(x, dtype=np.float64).tolist()).encode()


def array_lines(x, block=8192) -> bytes:
    """The same lines by ``_text_rows``, a block at a time."""
    return b"".join(graphs._text_rows([x[i:i + block]]) for i in range(0, len(x), block))


def sweep(rng, size):
    """Seeded doubles of the classes where repr's digits are hardest to get
    right, about ``size`` of each."""
    k = np.repeat(np.arange(-4, 15), size // 19)
    digits = rng.integers(1, 18, size)
    return {
        "bit patterns": rng.integers(-2**63, 2**63, size, dtype=np.int64).view(np.float64),
        "log-uniform": 10.0 ** rng.uniform(-5.0, 16.0, size),
        "next to one": 1.0 + rng.integers(-size, size, size) * 2.0**-52,
        "next to powers of ten": 10.0 ** k * (1.0 + rng.integers(-50, 51, len(k)) * 2.0**-52),
        "decimals": np.array([float(f"{a:.{p}g}") for a, p in
                              zip((10.0 ** rng.uniform(-4.0, 15.0, size)).tolist(), digits.tolist())]),
        "integers": rng.integers(1, 10**15, size).astype(np.float64),
    }


# values repr alone formats: its exponent form, zero, the non-finite, and
# powers of two, whose rounding interval is asymmetric
FALLBACK = [0.0, -0.0, -1.0, -0.1, -3e300, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e-5,
            9.9e-5, 1e15, 1e16, 1e300, 0.5, 1.0, 2.0, 1024.0, 2.0**-13, 2.0**49]


class TestReprText:
    def test_floats_equal_repr_on_a_sweep(self):
        rng = np.random.default_rng(20240601)
        for name, x in sweep(rng, 170_000).items():
            assert array_lines(x) == repr_lines(x), name

    def test_vector_file_equals_repr_lines(self, tmp_path):
        # write_vector's blocks: the sweep and the fallback classes, and
        # their negations, which repr formats
        x = np.concatenate([*sweep(np.random.default_rng(11), 20_000).values(), FALLBACK])
        x = np.concatenate((x, -x))
        write_vector(x, tmp_path / "x.txt")
        assert (tmp_path / "x.txt").read_bytes() == "".join(f"{v!r}\n" for v in x.tolist()).encode()

    def test_fallback_equals_repr(self):
        x = np.array(FALLBACK)
        assert graphs._text_rows([x]) == repr_lines(x)
        assert not graphs._repr_digits(x)[3].any()

    def test_whole_arrays_take_most_values(self):
        # an implementation that always left the digits to repr would pass
        # every byte comparison; the benchmark's weights must not need it
        x = 10.0 ** np.random.default_rng(0).uniform(-1.0, 1.0, 60_000)
        assert graphs._repr_digits(x)[3].mean() >= 0.95
        assert array_lines(x) == repr_lines(x)

    def test_fixed_notation_edges(self):
        # repr's point before, inside and after the digits, and a carry that
        # rounds to a power of ten
        x = np.array([1e-4, 0.000123, 0.1, 0.5000000000000001, 1.5, 3.0, 12.5, 1230.0, 123456789.0,
                      0.30000000000000004, 999999999999999.9, 99999999999999.98, 0.0009999999999999998,
                      np.nextafter(1e15, 0.0), np.nextafter(1e-4, 1.0), np.nextafter(0.001, 0.0)])
        assert graphs._text_rows([x]) == repr_lines(x)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
    def test_integers_equal_str(self, dtype):
        ids = np.array([0, 1, 9, 10, 99, 100, 12345, 2**31 - 1], dtype=dtype)
        if dtype != np.int32:
            ids = np.concatenate((ids, np.array([10**15, 10**16 - 1, 10**16, 2**62], dtype=dtype)))
        if dtype != np.uint64:
            ids = np.concatenate((ids, np.array([-1, -10**9, np.iinfo(dtype).min], dtype=dtype)))
        want = "".join(f"{i},{i}\r\n" for i in ids.tolist()).encode()
        assert graphs._text_rows([ids, ids]) == want

    def test_rows_mix_both_paths(self):
        rng = np.random.default_rng(7)
        m = 5000
        u = np.sort(rng.integers(0, 10**6, m))
        w = rng.choice(np.array(FALLBACK + [0.1, 7.25, 333.0]), m)
        s = 10.0 ** rng.uniform(-6.0, 18.0, m)
        want = "".join(f"{a},{b},{c!r},{d!r}\r\n" for a, b, c, d in
                       zip(u.tolist(), (u + 1).tolist(), w.tolist(), s.tolist())).encode()
        assert graphs._text_rows([u, u + 1, w, s]) == want
