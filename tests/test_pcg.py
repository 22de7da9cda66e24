import math

import numpy as np
import pytest

import treepcg.pcg
from treepcg import (
    PcgConfig,
    PcgError,
    SpanningTree,
    WeightedGraph,
    dense_laplacian,
    exact_spectrum_bound,
    factor,
    generate,
    iteration_bound,
    max_weight_spanning_tree,
    pcg_solve,
    stretch_report,
    stretch_only_bound,
)
from treepcg.spectral import exact_qul, generalized_spectrum, tail_count


def triangle_setup():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    t = SpanningTree.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    return g, t


class TestIterationBound:
    def test_unit_condition_number(self):
        # eps = 2/e^2 makes ln(2/eps) = 2, so the tail term is ceil(1) = 1
        b = iteration_bound(0, 1.0, 1.0, 2.0 / math.e**2)
        assert b.k_bound == 1

    def test_q_additivity_degenerate_epsilon(self):
        b = iteration_bound(5, 1.0, 1.0, 2.0)
        assert b.k_bound == 5

    def test_stretch_1000_fixture(self):
        # q = ceil(1000^(1/3)) = 10, u = 1000^(2/3) = 100:
        # ln(2e6)/2 * 10 = 72.543..., so k = 10 + 73 = 83
        b = iteration_bound(10, 100.0, 1.0, 1e-6)
        assert b.k_bound == 83

    def test_parameter_validation(self):
        with pytest.raises(PcgError):
            iteration_bound(-1, 1.0, 1.0, 0.5)
        with pytest.raises(PcgError):
            iteration_bound(0, 1.0, 2.0, 0.5)
        with pytest.raises(PcgError):
            iteration_bound(0, 1.0, 1.0, 0.0)


class TestStretchOnlyBound:
    def test_stretch_one(self):
        b = stretch_only_bound(1.0, 0.5)
        assert (b.q, b.u, b.l) == (1, 1.0, 1.0)
        assert b.k_bound == 2  # 1 + ceil(ln(4)/2)

    def test_exact_cube(self):
        b = stretch_only_bound(8.0, 1e-8)
        assert b.q == 2 and b.u == 4.0

    def test_cube_root_snapping(self):
        assert stretch_only_bound(27.0, 0.5).q == 3
        assert stretch_only_bound(1000.0, 1e-6).k_bound == 83

    def test_below_one_rejected(self):
        with pytest.raises(PcgError, match="stretch"):
            stretch_only_bound(0.5, 0.5)


class TestPcgSolve:
    def test_tree_graph_one_iteration(self, rng):
        g = generate("grid:9x1:logw", seed=2)  # a path: its own spanning tree
        t = max_weight_spanning_tree(g)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        out = pcg_solve(g, factor(t), b, PcgConfig(epsilon=1e-10))
        assert out.converged and out.iterations == 1

    def test_triangle_two_distinct_eigenvalues(self, rng):
        # preconditioned spectrum is {1, 3}: CG terminates in <= 2 iterations
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        assert np.allclose(s.eigenvalues, [1.0, 3.0], atol=1e-12)
        out = pcg_solve(g, factor(t), np.array([1.0, 0.0, -1.0]),
                        PcgConfig(epsilon=1e-10))
        assert out.converged and out.iterations <= 2
        b = rng.standard_normal(3)
        b -= b.mean()
        out = pcg_solve(g, factor(t), b, PcgConfig(epsilon=1e-10))
        assert out.converged and out.iterations <= 2

    def test_grid_within_exact_spectrum_bound(self, rng):
        g = generate("grid:20x20:unit", seed=0)
        t = max_weight_spanning_tree(g)
        rep = stretch_report(g, t)
        s = generalized_spectrum(g, t)
        bound = exact_spectrum_bound(s, rep.total, 1e-8)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        x_true = np.linalg.pinv(dense_laplacian(g)) @ b
        out = pcg_solve(g, factor(t), b,
                        PcgConfig(epsilon=1e-8, max_iterations=4 * g.n,
                                  record_history=True, reorthogonalize=True),
                        x_true=x_true)
        first_ok = next(k for k, e in enumerate(out.a_norm_history) if e <= 1e-8)
        assert first_ok <= bound.k_bound

    def test_a_norm_error_monotone(self, rng):
        g = generate("gnp:n=50,p=0.12:logw", seed=3)
        t = max_weight_spanning_tree(g)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        x_true = np.linalg.pinv(dense_laplacian(g)) @ b
        out = pcg_solve(g, factor(t), b,
                        PcgConfig(epsilon=1e-10, max_iterations=200, record_history=True),
                        x_true=x_true)
        hist = out.a_norm_history
        for a, bb in zip(hist, hist[1:]):
            assert bb <= a * (1.0 + 1e-9) + 1e-13

    def test_scaling_invariance(self, rng):
        g = generate("gnp:n=40,p=0.15:logw", seed=9)
        t = max_weight_spanning_tree(g)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        baseline = pcg_solve(g, factor(t), b, PcgConfig(epsilon=1e-8)).iterations
        for c in (2.0, 0.25, 3.0):
            gs = WeightedGraph(g.n, [(u, v, c * w) for u, v, w in g.edges])
            ts = SpanningTree.from_edges(g.n, [(u, v, c * w) for u, v, w in t.edges])
            out = pcg_solve(gs, factor(ts), b, PcgConfig(epsilon=1e-8))
            assert out.iterations == baseline

    def test_noncentered_b_flagged(self):
        g, t = triangle_setup()
        out = pcg_solve(g, factor(t), np.array([1.0, 1.0, 0.0]), PcgConfig(epsilon=1e-8))
        assert out.centered_input
        out = pcg_solve(g, factor(t), np.array([1.0, 0.0, -1.0]), PcgConfig(epsilon=1e-8))
        assert not out.centered_input

    def test_non_convergence_reported(self, rng):
        g = generate("grid:15x15:unit", seed=1)
        t = max_weight_spanning_tree(g)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        out = pcg_solve(g, factor(t), b, PcgConfig(epsilon=1e-8, max_iterations=2))
        assert not out.converged and out.iterations == 2

    def test_history_length(self, rng):
        g = generate("grid:6x6:unit", seed=0)
        t = max_weight_spanning_tree(g)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        out = pcg_solve(g, factor(t), b,
                        PcgConfig(epsilon=1e-8, max_iterations=100, record_history=True))
        assert len(out.residual_history) == out.iterations + 1
        assert out.residual_history[0] == 1.0

    def test_config_validation(self):
        g, t = triangle_setup()
        with pytest.raises(PcgError, match="epsilon"):
            pcg_solve(g, factor(t), np.zeros(3), PcgConfig(epsilon=2.0))
        with pytest.raises(PcgError, match="max_iterations"):
            pcg_solve(g, factor(t), np.zeros(3), PcgConfig(max_iterations=0))
        with pytest.raises(PcgError, match="length"):
            pcg_solve(g, factor(t), np.zeros(4), PcgConfig())

    def test_outcome_json_keys(self):
        g, t = triangle_setup()
        out = pcg_solve(g, factor(t), np.array([1.0, 0.0, -1.0]), PcgConfig(epsilon=1e-8))
        d = out.to_json_dict(bound_exact_spectrum=5, bound_stretch_only=9)
        assert set(d) == {
            "iterations", "converged", "final_residual",
            "bound_exact_spectrum", "bound_stretch_only", "a_norm_error",
        }
        assert d["bound_exact_spectrum"] == 5 and d["bound_stretch_only"] == 9


class TestTraceBoundaries:
    """pcg_solve looks up pseudo_solve and laplacian_apply in the treepcg.pcg
    module at call time, so a wrapper installed there sees every call."""

    def counted_solve(self, monkeypatch, rng, cfg, with_x_true):
        calls = {"pseudo_solve": 0, "laplacian_apply": 0}

        def counting(name):
            original = getattr(treepcg.pcg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(treepcg.pcg, name, counting(name))
        g = generate("grid:12x12:logw", seed=0)
        t = max_weight_spanning_tree(g)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        x_true = np.linalg.pinv(dense_laplacian(g)) @ b if with_x_true else None
        out = pcg_solve(g, factor(t), b, cfg, x_true=x_true)
        assert out.converged and out.iterations > 1
        return out.iterations, calls

    def test_one_solve_and_one_multiply_per_iteration(self, monkeypatch, rng):
        k, calls = self.counted_solve(monkeypatch, rng, PcgConfig(epsilon=1e-8), False)
        assert calls == {"pseudo_solve": k + 1, "laplacian_apply": k}

    def test_a_norm_tracking_multiplies_once_per_recorded_iterate(self, monkeypatch, rng):
        cfg = PcgConfig(epsilon=1e-8, record_history=True)
        k, calls = self.counted_solve(monkeypatch, rng, cfg, True)
        # k for CG, k + 1 recorded errors, the final error and x_true's norm
        assert calls == {"pseudo_solve": k + 1, "laplacian_apply": 2 * k + 3}


class TestTailCountIntegration:
    def test_triangle_qul(self):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        # total stretch 4: u = 4^(2/3) = 2.52, one eigenvalue above it
        u = 4.0 ** (2.0 / 3.0)
        q, _, l = exact_qul(s, u)
        assert q == 1 and l == 1.0
        assert tail_count(s, 2.0) == 1
