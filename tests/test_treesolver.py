import numpy as np
import pytest

from treepcg import (
    SpanningTree,
    TreeSolveError,
    WeightedGraph,
    dense_tree_laplacian,
    factor,
    laplacian_apply,
    path_resistance,
    pseudo_solve,
)

from treepcg.cli import build_tree
from treepcg.graphs import generate

from conftest import deep_tree, random_tree, root_path


class TestFactor:
    def test_factor_is_the_tree(self, rng):
        t = random_tree(50, rng)
        assert factor(t) is t

    def test_single_edge(self):
        t = SpanningTree.from_edges(2, [(0, 1, 1.0)])
        assert t.order[:0:-1].tolist() == [1]
        assert pivots(t) == [1.0]

    def test_star_pivots(self):
        t = SpanningTree.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        assert pivots(t) == [1.0, 1.0, 1.0]

    def test_children_before_parents(self, rng):
        t = random_tree(100, rng)
        seen = set()
        for u in f_order(t):
            for p in np.flatnonzero(t.parent == u):
                assert int(p) in seen
            seen.add(u)

    def test_pivots_strictly_positive(self, rng):
        for _ in range(5):
            t = random_tree(int(rng.integers(2, 200)), rng, weights="logw")
            assert min(pivots(t)) > 0.0

    @pytest.mark.parametrize("kind", ["random", "broom", "star"])
    def test_preorder_ranges_are_subtrees(self, kind, rng):
        n = 200
        t = deep_tree(kind, n, rng, 1)
        assert sorted(t.order.tolist()) == list(range(n))
        assert np.array_equal(t.order[t.slot], np.arange(n))
        assert t.order[0] == t.root and t.last[0] == n - 1
        paths = [root_path(t, u) for u in range(n)]
        for v in range(n):
            subtree = {u for u in range(n) if v in paths[u]}
            s = int(t.slot[v])
            assert set(t.order[s:t.last[s] + 1].tolist()) == subtree


def tree_laplacian_apply(t, x):
    v = np.flatnonzero(t.parent >= 0)
    flow = t.parent_weight[v] * (x[v] - x[t.parent[v]])
    return np.bincount(v, flow, t.n) - np.bincount(t.parent[v], flow, t.n)


def f_order(t):
    """Non-root vertices, children before parents (reverse preorder)."""
    return t.order[:0:-1].tolist()


def pivots(t):
    """Leaf-elimination pivots of slots 1..n-1: the parent-edge weights."""
    return t.parent_weight[t.order[1:]].tolist()


class TestPseudoSolve:
    def test_symmetric_path_antisymmetric_load(self):
        t = SpanningTree.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        b = np.array([1.0, 0.0, -1.0])
        x = pseudo_solve(factor(t), b)
        assert np.allclose(x, [1.0, 0.0, -1.0], atol=1e-14)
        assert np.allclose(dense_tree_laplacian(t) @ x, b, atol=1e-14)

    def test_all_ones_maps_to_zero(self, rng):
        t = random_tree(30, rng)
        x = pseudo_solve(factor(t), np.ones(30))
        assert np.abs(x).max() <= 1e-14

    def test_residual_on_random_trees(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 300))
            t = random_tree(n, rng, weights="logw")
            f = factor(t)
            b = rng.standard_normal(n)
            b -= b.mean()
            x = pseudo_solve(f, b)
            L = dense_tree_laplacian(t)
            assert np.linalg.norm(L @ x - b) <= 1e-11 * np.linalg.norm(b)
            assert abs(x.sum()) <= 1e-9 * np.abs(x).max() * n

    def test_matches_dense_pseudo_inverse(self, rng):
        t = random_tree(200, rng)
        f = factor(t)
        Lp = np.linalg.pinv(dense_tree_laplacian(t))
        for _ in range(5):
            b = rng.standard_normal(200)
            x = pseudo_solve(f, b)
            ref = Lp @ (b - b.mean())
            assert np.linalg.norm(x - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)

    def test_round_trip_with_laplacian(self, rng):
        n = 80
        t = random_tree(n, rng)
        g = WeightedGraph(n, t.edges)
        f = factor(t)
        x = rng.standard_normal(n)
        x -= x.mean()
        back = pseudo_solve(f, laplacian_apply(g, x))
        assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)
        forth = laplacian_apply(g, pseudo_solve(f, x))
        assert np.linalg.norm(forth - x) <= 1e-10 * np.linalg.norm(x)

    def test_quadform_equals_path_resistance(self, rng):
        n = 120
        t = random_tree(n, rng, weights="logw")
        f = factor(t)
        for _ in range(20):
            u, v = (int(a) for a in rng.integers(0, n, 2))
            e = np.zeros(n)
            e[u] += 1.0
            e[v] -= 1.0
            quad = e @ pseudo_solve(f, e)
            assert quad == pytest.approx(path_resistance(t, u, v), abs=1e-10)

    def test_matches_loop_reference(self, rng):
        # reference: flows summed leaves first, potentials parents first
        n = 3000
        t = random_tree(n, rng)
        b = rng.standard_normal(n)
        flow = b - b.mean()
        for v in t.order[:0:-1]:
            flow[t.parent[v]] += flow[v]
        ref = np.zeros(n)
        for v in t.order[1:]:
            ref[v] = ref[t.parent[v]] + flow[v] / t.parent_weight[v]
        ref -= ref.mean()
        x = pseudo_solve(factor(t), b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_dimension_mismatch(self, rng):
        t = random_tree(10, rng)
        with pytest.raises(TreeSolveError, match="length"):
            pseudo_solve(factor(t), np.zeros(11))


class TestDeepTreeAccuracy:
    @pytest.mark.parametrize("decades", [1, 4])
    @pytest.mark.parametrize("n", [2000, 100_000])
    @pytest.mark.parametrize("kind", ["path", "random", "broom"])
    def test_backward_error(self, kind, n, decades, rng):
        t = deep_tree(kind, n, rng, decades)
        b = rng.standard_normal(n)
        b -= b.mean()
        x = pseudo_solve(factor(t), b)
        v = np.flatnonzero(t.parent >= 0)
        degree = np.bincount(v, t.parent_weight[v], n) + np.bincount(t.parent[v], t.parent_weight[v], n)
        lap_norm = 2.0 * degree.max()       # infinity norm of L_T
        residual = np.abs(tree_laplacian_apply(t, x) - b).max()
        scale = lap_norm * np.abs(x).max() + np.abs(b).max()
        assert residual <= 1e-13 * scale


def pseudo_solve_in_one_body(f, b):
    """Reference: pseudo_solve as one function body, before it was split into
    the two tree halves that PCG calls on their own."""
    b = np.asarray(b, dtype=np.float64)
    prefix = np.cumsum(b[f.order] - b.sum() / f.n)
    drop = np.zeros(f.n)
    np.subtract(prefix[f.last[1:]], prefix[:-1], out=drop[1:])
    drop[1:] /= f.parent_weight[f.order[1:]]
    exits = np.bincount(f.last[1:], weights=drop[1:], minlength=f.n)
    drop[1:] -= exits[:-1]
    x = np.cumsum(drop)[f.slot]
    x -= x.sum() / f.n
    return x


class TestTreeHalves:
    """pseudo_solve is the subtree-sum half, a division by the edge weights
    and the root-path half, bit for bit the one-body solve."""

    @pytest.mark.parametrize("n", [1, 2, 3, 257, 1 << 17])
    @pytest.mark.parametrize("kind", ["path", "star", "random", "broom"])
    def test_bit_identical_to_one_body(self, kind, n, rng):
        for decades in (1, 4):
            f = factor(deep_tree(kind, n, rng, decades))
            b = rng.standard_normal(n)
            assert np.array_equal(pseudo_solve(f, b), pseudo_solve_in_one_body(f, b))

    @pytest.mark.parametrize("spec", ["grid:20x20:logw", "gnp:n=450,p=0.02:logw",
                                      "regular:n=400,d=4:unit"])
    @pytest.mark.parametrize("tree", ["maxw", "akpw"])
    def test_bit_identical_on_desk_specs(self, spec, tree, rng):
        g = generate(spec, 0)
        f = factor(build_tree(g, tree, 0))
        for _ in range(3):
            b = rng.standard_normal(g.n)
            assert np.array_equal(pseudo_solve(f, b), pseudo_solve_in_one_body(f, b))
