import json
import tracemalloc

import numpy as np
import pytest

from treepcg import (
    GraphError,
    SpanningTree,
    WeightedGraph,
    dense_laplacian,
    dense_tree_laplacian,
    exact_qul,
    generalized_spectrum,
    generate,
    low_stretch_heuristic_tree,
    max_weight_spanning_tree,
    stretch_report,
    tail_count,
)
from treepcg import spectral
from treepcg.pcg import SplitSystem
from treepcg.spectral import _ancestor_rows
from treepcg.trees import path_resistance

from conftest import deep_tree, random_tree, root_path


def row_copy_ancestors(t):
    """R[u, c] = 1 iff the non-root vertex c is u or an ancestor of u, in
    vertex order, as a per-row loop built it: each row copies its parent's
    row, parents first, and sets its own column."""
    R = np.zeros((t.n, t.n))
    for u in t.order[1:].tolist():
        R[u] = R[t.parent[u]]
        R[u, u] = 1.0
    return np.delete(R, t.root, axis=1)


def slot_ancestors_by_vertex(t):
    """_ancestor_rows(t), slot-order R, with rows and columns mapped to vertex
    ids: slot p > 0 holds vertex order[p], column order[p] - 1 of R by vertex."""
    cols = t.order[1:] - (t.order[1:] > t.root)
    R = np.zeros((t.n, t.n - 1))
    R[:, cols] = _ancestor_rows(t)[t.slot]
    return R


def triangle_setup():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    t = SpanningTree.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    return g, t


class TestGeneralizedSpectrum:
    def test_identity_preconditioning(self, rng):
        t = random_tree(40, rng, weights="logw")
        g = WeightedGraph(40, t.edges)
        s = generalized_spectrum(g, t)
        assert np.allclose(s.eigenvalues, 1.0, atol=1e-9)
        assert s.trace == pytest.approx(39.0, abs=1e-8)
        # a tree's stretch with respect to itself is n - 1
        assert stretch_report(g, t).total == pytest.approx(39.0)

    def test_triangle_spectrum(self):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        # rank-one update of the tree: nonidentity eigenvalue 1 + R(0, 2) = 3
        assert np.allclose(s.eigenvalues, [1.0, 3.0], atol=1e-12)
        assert s.trace == pytest.approx(4.0, abs=1e-12)

    def test_trace_matches_stretch(self, rng):
        g = generate("gnp:n=30,p=0.3:unit", seed=21)
        t = max_weight_spanning_tree(g)
        s = generalized_spectrum(g, t)
        total = stretch_report(g, t).total
        assert abs(s.trace - total) <= 1e-9 * total

    def test_eigenvalue_count_and_bounds(self, rng):
        for spec, seed in [("grid:7x7:logw", 0), ("gnp:n=60,p=0.1:logw", 4)]:
            g = generate(spec, seed)
            t = low_stretch_heuristic_tree(g, seed)
            s = generalized_spectrum(g, t)
            total = stretch_report(g, t).total
            assert len(s.eigenvalues) == g.n - 1
            assert s.lambda_min >= 1.0 - 1e-9
            assert s.lambda_max <= total * (1.0 + 1e-9)
            assert s.trace == pytest.approx(float(s.eigenvalues.sum()))

    def test_cap_enforced(self):
        g = generate("grid:5x5:unit", seed=0)
        t = max_weight_spanning_tree(g)
        with pytest.raises(GraphError, match="cap"):
            generalized_spectrum(g, t, cap=10)

    def test_matches_pinv_trace_oracle(self, rng):
        g = generate("regular:n=40,d=4:logw", seed=2)
        t = max_weight_spanning_tree(g)
        s = generalized_spectrum(g, t)
        oracle = np.trace(dense_laplacian(g) @ np.linalg.pinv(dense_tree_laplacian(t)))
        assert s.trace == pytest.approx(oracle, rel=1e-9)

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphError, match="at least 2 vertices"):
            generalized_spectrum(WeightedGraph(1, []), SpanningTree([-1], [1.0]))

    def test_json_and_csv(self, tmp_path):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        s.write_json(tmp_path / "s.json")
        s.write_csv(tmp_path / "s.csv")
        d = json.loads((tmp_path / "s.json").read_text())
        assert d["trace"] == pytest.approx(4.0)
        lines = (tmp_path / "s.csv").read_text().strip().splitlines()
        assert lines[0] == "eigenvalue" and len(lines) == 3


def pinv_route_spectrum(g, t):
    """The oracle before the tree-path factor: L_T^{+/2} L_G L_T^{+/2} from
    eigh(L_T) with a 1e-12 threshold, deflated onto a QR basis of the
    mean-zero subspace.  Its accuracy is about eps * cond(L_T)."""
    n = g.n
    w, V = np.linalg.eigh(dense_tree_laplacian(t))
    thresh = 1e-12 * w[-1]
    inv_sqrt = np.where(w > thresh, 1.0 / np.sqrt(np.maximum(w, thresh)), 0.0)
    Ltph = (V * inv_sqrt) @ V.T
    M = Ltph @ dense_laplacian(g) @ Ltph
    M = 0.5 * (M + M.T)
    Q, _ = np.linalg.qr((np.eye(n) - np.full((n, n), 1.0 / n))[:, : n - 1])
    return np.sort(np.linalg.eigvalsh(Q.T @ M @ Q))


def path_walk_spectrum(g, t):
    """Squared singular values of the m x (n-1) matrix whose row for the edge
    (u, v, w) holds +-sqrt(w / w_c) on each tree edge c of the u-v path, found
    by walking parent links.  Its entries are exact to rounding, so this is
    accurate to about eps * lambda_max whatever the tree's weights."""
    col = {c: i for i, c in enumerate(c for c in range(t.n) if c != t.root)}
    D = np.zeros((g.m, t.n - 1))
    for e, (u, v, w) in enumerate(g.edges):
        up = root_path(t, u)
        while v not in up:
            D[e, col[v]] = -np.sqrt(w / t.parent_weight[v])
            v = int(t.parent[v])
        while u != v:
            D[e, col[u]] = np.sqrt(w / t.parent_weight[u])
            u = int(t.parent[u])
    return np.sort(np.linalg.svd(D, compute_uv=False) ** 2)


def graph_over(t, rng, draws=2):
    """t plus up to draws * n random non-tree edges, each weighted to a
    stretch log-uniform in [0.1, 10], so that lambda_max stays moderate."""
    n = t.n
    u, v = rng.integers(0, n, draws * n), rng.integers(0, n, draws * n)
    pairs = set(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
    pairs -= {(a, b) for a, b, _ in t.edges}
    pu, pv = (np.array(sorted(p for p in pairs if p[0] != p[1])).T)
    w = 10.0 ** rng.uniform(-1.0, 1.0, len(pu)) / path_resistance(t, pu, pv)
    return WeightedGraph(n, list(t.edges) + list(zip(pu.tolist(), pv.tolist(), w.tolist())))


class TestTreePathFactor:
    @pytest.mark.parametrize("kind", ["path", "star", "random", "broom"])
    @pytest.mark.parametrize("decades", [1, 4])
    def test_matches_reference_spectra(self, rng, kind, decades):
        # at most 2n off-tree edges: one block of C
        n = 120
        t = SpanningTree.from_edges(n, deep_tree(kind, n, rng, decades).edges, root=n // 3 + 1)
        g = graph_over(t, rng)
        assert g.m - (n - 1) <= 4 * (n - 1)
        self.assert_matches_reference_spectra(g, t, decades)

    @pytest.mark.parametrize("kind", ["path", "star", "random", "broom"])
    @pytest.mark.parametrize("decades", [1, 4])
    def test_dense_graphs_match_reference_spectra(self, rng, kind, decades):
        # about 7.5n off-tree edges: two blocks of C
        n = 120
        t = SpanningTree.from_edges(n, deep_tree(kind, n, rng, decades).edges, root=n // 3 + 1)
        g = graph_over(t, rng, draws=8)
        assert g.m - (n - 1) > 4 * (n - 1)
        self.assert_matches_reference_spectra(g, t, decades)

    @staticmethod
    def assert_matches_reference_spectra(g, t, decades):
        ev = generalized_spectrum(g, t).eigenvalues
        walk = path_walk_spectrum(g, t)
        pinv = pinv_route_spectrum(g, t)
        err = np.max(np.abs(ev - walk) / walk)
        if decades == 1:
            assert np.max(np.abs(ev - pinv) / pinv) <= 1e-10
            assert err <= 1e-10
        else:
            # with weights 10^+-4 the pinv route is off by up to ~1e-7 per
            # eigenvalue, F^T L_G F by up to ~5e-9; C^T C sums exact terms
            assert err <= 1e-12
            assert err <= np.max(np.abs(pinv - walk) / walk)

    @pytest.mark.parametrize("n, blocks", [(10, 1), (11, 2)])
    def test_blocks_of_four_off_tree_edges_per_tree_edge(self, monkeypatch, n, blocks):
        # K_n over a path tree has (n-1)(n-2)/2 off-tree edges: 4(n-1), one
        # block, at n = 10, one tree edge's worth more than a block at n = 11
        calls, grams = [], []
        dense = spectral.dense_laplacian
        monkeypatch.setattr(spectral, "dense_laplacian",
                            lambda *a, **k: calls.append(1) or dense(*a, **k))
        real = spectral._block_gram
        monkeypatch.setattr(spectral, "_block_gram",
                            lambda split, e: grams.append(len(split.edge_w[e])) or real(split, e))
        g = WeightedGraph(n, [(u, v, 1.0 + u + v) for u in range(n) for v in range(u + 1, n)])
        t = SpanningTree.from_edges(n, [(u, u + 1, 2.0 + 2 * u) for u in range(n - 1)])
        s = generalized_spectrum(g, t)
        assert not calls
        assert len(grams) == blocks and grams[0] == 4 * (n - 1)
        assert sum(grams) == (n - 1) * (n - 2) // 2
        assert s.trace == pytest.approx(stretch_report(g, t).total, rel=1e-13)
        assert np.allclose(s.eigenvalues, path_walk_spectrum(g, t), rtol=1e-13)

    def test_memory_bounded_by_the_block(self):
        # K_200 over a path tree: 19701 off-tree edges, 25 blocks.  C whole
        # would be about 100 (n-1)^2 doubles; one block of it is 4
        n = 200
        g = WeightedGraph(n, [(u, v, 1.0 + u + v) for u in range(n) for v in range(u + 1, n)])
        t = SpanningTree.from_edges(n, [(u, u + 1, 2.0 + 2 * u) for u in range(n - 1)])
        tracemalloc.start()
        try:
            generalized_spectrum(g, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (n - 1) ** 2 * 8

    @pytest.mark.parametrize("spec", ["grid:20x20:logw", "gnp:n=450,p=0.02:logw",
                                      "regular:n=400,d=4:unit"])
    def test_factor_equal_to_row_copy_loop(self, rng, spec):
        for seed in (0, 1, 2):
            g = generate(spec, seed)
            for t in (max_weight_spanning_tree(g), low_stretch_heuristic_tree(g, seed)):
                assert np.array_equal(slot_ancestors_by_vertex(t), row_copy_ancestors(t))
        for kind in ("path", "star", "random", "broom"):
            t = deep_tree(kind, 60, rng, 4)
            perm = rng.permutation(t.n)       # relabelled, rooted elsewhere than 0
            parent = np.full(t.n, -1)
            parent[perm[1:]] = perm[t.parent[1:]]
            weight = np.empty(t.n)
            weight[perm] = t.parent_weight
            r = SpanningTree(parent, weight, root=int(perm[0]))
            assert np.array_equal(slot_ancestors_by_vertex(r), row_copy_ancestors(r))

    def test_factor_inverts_grounded_tree_laplacian(self, rng):
        for kind in ("path", "star", "random", "broom"):
            t = SpanningTree.from_edges(50, deep_tree(kind, 50, rng, 1).edges, root=7)
            # F in slot order: row p > 0 is vertex order[p], and slot 0 the root
            F = _ancestor_rows(t) * SplitSystem(WeightedGraph(t.n, t.edges), t).scale
            inner = t.order[1:]
            assert np.allclose(F[1:] @ F[1:].T @ dense_tree_laplacian(t)[np.ix_(inner, inner)],
                               np.eye(t.n - 1), atol=1e-9)
            assert not F[0].any()

    @pytest.mark.parametrize("spec", ["grid:20x20:logw", "gnp:n=450,p=0.02:logw",
                                      "regular:n=400,d=4:unit"])
    @pytest.mark.parametrize("method", ["maxw", "akpw"])
    def test_trace_equals_stretch_to_rounding(self, spec, method):
        g = generate(spec, seed=0)
        t = max_weight_spanning_tree(g) if method == "maxw" else low_stretch_heuristic_tree(g, 0)
        st = stretch_report(g, t).total
        assert abs(generalized_spectrum(g, t).trace - st) <= 1e-13 * st


class TestTailCount:
    def test_triangle(self):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        assert tail_count(s, 2.0) == 1
        assert s.trace / 2.0 >= 1

    def test_above_lambda_max(self):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        assert tail_count(s, s.lambda_max * 1.001) == 0

    def test_tiny_threshold(self):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        assert tail_count(s, 1e-12) == 2  # n - 1, bound st/t is vacuous

    def test_nonpositive_threshold(self):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        with pytest.raises(ValueError, match="positive"):
            tail_count(s, 0.0)


class TestExactQul:
    def test_triangle_outlier_split(self):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        q, u, l = exact_qul(s, 4.0 ** (2.0 / 3.0))
        assert q == 1 and l == 1.0
        assert 4.0 ** (1.0 / 3.0) >= q  # the stretch-based q bound holds

    def test_u_at_or_above_lambda_max(self):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        q, _, _ = exact_qul(s, s.lambda_max + 1e-9)
        assert q == 0

    def test_identity_case(self, rng):
        t = random_tree(25, rng)
        g = WeightedGraph(25, t.edges)
        s = generalized_spectrum(g, t)
        q, _, _ = exact_qul(s, 1.0 + 1e-6)
        assert q == 0

    def test_lambda_min_mode(self):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        _, _, l = exact_qul(s, 2.0, use_lambda_min=True)
        assert l == pytest.approx(s.lambda_min)
