import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest

import treepcg.pcg
from treepcg import (
    PcgConfig,
    PcgError,
    PcgDivergenceError,
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
from treepcg.cli import build_tree
from treepcg.graphs import laplacian_apply
from treepcg.pcg import SplitSystem, pseudo_solve
from treepcg.spectral import _split_matrix, exact_qul, generalized_spectrum, tail_count


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

    @pytest.mark.parametrize("reorthogonalize", [False, True])
    def test_zero_right_hand_side_after_centring(self, reorthogonalize):
        g = generate("grid:6x6:unit", seed=0)
        t = max_weight_spanning_tree(g)
        cfg = PcgConfig(epsilon=1e-8, record_history=True, reorthogonalize=reorthogonalize)
        with np.errstate(all="raise"):      # nothing is divided by the zero residual
            out = pcg_solve(g, factor(t), np.ones(g.n), cfg, x_true=np.zeros(g.n))
        assert np.array_equal(out.x, np.zeros(g.n))
        assert out.iterations == 0 and out.converged and out.centered_input
        assert out.final_residual == 0.0
        assert out.residual_history == [1.0]
        assert out.a_norm_history == [0.0] and out.a_norm_error == 0.0

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
        with pytest.raises(PcgError, match="^tree size does not match graph$"):
            pcg_solve(g, factor(SpanningTree([-1, 0], [1.0, 1.0])), np.zeros(3), PcgConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_right_hand_side_rejected(self, bad):
        g, t = triangle_setup()
        with pytest.raises(PcgError, match="^right-hand side has nonfinite entries$"):
            pcg_solve(g, factor(t), np.array([1.0, bad, -1.0]), PcgConfig())

    @pytest.mark.parametrize("x_true, message", [
        (np.zeros((3, 1)), r"^x_true length \(3, 1\) does not match n=3$"),
        (np.zeros(4), r"^x_true length \(4,\) does not match n=3$"),
        (np.array([1.0, np.nan, -1.0]), "^x_true has nonfinite entries$"),
        (np.array([1.0, 0.0, np.inf]), "^x_true has nonfinite entries$"),
    ])
    def test_bad_x_true_rejected(self, x_true, message):
        g, t = triangle_setup()
        with pytest.raises(PcgError, match=message):
            pcg_solve(g, factor(t), np.array([1.0, 0.0, -1.0]), PcgConfig(), x_true=x_true)

    @pytest.mark.parametrize("k", [-600, -520, 520, 600])
    def test_right_hand_side_far_from_unit_scale(self, k):
        # s @ s under- or overflows at these scales unless s is rescaled
        g = generate("grid:20x20:logw", seed=0)
        t = build_tree(g, "akpw", 0)
        b = np.random.default_rng(3).standard_normal(g.n)
        b -= b.mean()
        x_true = np.linalg.pinv(dense_laplacian(g)) @ b
        ref = pcg_solve(g, factor(t), b, PcgConfig(), x_true=x_true)
        out = pcg_solve(g, factor(t), np.ldexp(b, k), PcgConfig(), x_true=np.ldexp(x_true, k))
        assert ref.converged and ref.iterations > 0
        assert out.iterations == ref.iterations and out.converged
        assert np.array_equal(out.x, np.ldexp(ref.x, k))
        assert out.a_norm_error == ref.a_norm_error


class TestTraceBoundaries:
    """pcg_solve looks up laplacian_apply and the two tree halves in the
    treepcg.pcg module at call time, so a wrapper installed there sees every
    call."""

    NAMES = ("pseudo_solve", "subtree_sums", "root_path_sums", "laplacian_apply")

    def counted_solve(self, monkeypatch, rng, cfg, with_x_true):
        g = generate("grid:12x12:logw", seed=0)
        calls = dict.fromkeys(self.NAMES, 0)
        calls["laplacian_apply_off_tree"] = 0

        def counting(name):
            original = getattr(treepcg.pcg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "laplacian_apply" and isinstance(args[0], SplitSystem):
                    calls["laplacian_apply_off_tree"] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in self.NAMES:
            monkeypatch.setattr(treepcg.pcg, name, counting(name))
        t = max_weight_spanning_tree(g)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        x_true = np.linalg.pinv(dense_laplacian(g)) @ b if with_x_true else None
        out = pcg_solve(g, factor(t), b, cfg, x_true=x_true)
        assert out.converged and out.iterations > 1
        return out.iterations, calls

    def test_one_solve_and_one_multiply_per_iteration(self, monkeypatch, rng):
        k, calls = self.counted_solve(monkeypatch, rng, PcgConfig(epsilon=1e-8), False)
        # the extra subtree sum transforms the right-hand side
        assert calls == {"pseudo_solve": 0, "subtree_sums": k + 1, "root_path_sums": k,
                         "laplacian_apply": k, "laplacian_apply_off_tree": k}

    @pytest.mark.parametrize("record_history", [True, False])
    def test_a_norm_tracking_adds_no_graph_multiply(self, monkeypatch, rng, record_history):
        cfg = PcgConfig(epsilon=1e-8, record_history=record_history)
        k, calls = self.counted_solve(monkeypatch, rng, cfg, True)
        # the A-norms are edge energies, so CG's k off-tree multiplies are all
        assert calls == {"pseudo_solve": 0, "subtree_sums": k + 1, "root_path_sums": k,
                         "laplacian_apply": k, "laplacian_apply_off_tree": k}


class TestSplitSystem:
    """pcg_solve runs CG on F^T L_G F y = F^T b with F = R W^{-1/2}, the tree
    factor of the spectral oracle, multiplying by the off-tree edges only."""

    @staticmethod
    def operator(split):
        """The dense matrix of the per-iteration multiply, in slot order."""
        return np.array([split.multiply(e)[1] for e in np.eye(split.n - 1)]).T

    @pytest.mark.parametrize("spec", ["grid:20x20:logw", "gnp:n=450,p=0.02:logw",
                                      "regular:n=400,d=4:unit"])
    @pytest.mark.parametrize("tree", ["maxw", "akpw"])
    def test_iterates_on_the_oracles_matrix(self, spec, tree):
        # measured on these six: entries within 6.6e-16 of the largest, and
        # traces within 1.2e-15 of the total stretch, relative
        g = generate(spec, 0)
        t = build_tree(g, tree, 0)
        split = SplitSystem(g, factor(t))
        want = _split_matrix(split)
        got = self.operator(split)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        st = stretch_report(g, t).total
        assert abs(np.trace(got) - st) <= 1e-13 * st

    def off_tree_solve(self, g, t, rng):
        f = factor(t)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        x_true = np.zeros(g.n)
        x_true[1:] = np.linalg.solve(dense_laplacian(g)[1:, 1:], b[1:])
        x_true -= x_true.mean()
        out = pcg_solve(g, f, b, PcgConfig(epsilon=1e-8, max_iterations=4 * g.n), x_true=x_true)
        assert out.converged and out.a_norm_error <= 1e-8
        return len(SplitSystem(g, f).edge_w)

    def test_tree_with_other_weights(self, rng):
        # every tree edge lies in g with another weight, so none cancels
        g = generate("grid:20x20:logw", 0)
        reweighted = WeightedGraph(g.n, [(u, v, w * rng.uniform(0.5, 2.0)) for u, v, w in g.edges])
        assert self.off_tree_solve(g, max_weight_spanning_tree(reweighted), rng) == g.m + g.n - 1

    def test_tree_with_an_edge_not_in_g(self, rng):
        g = generate("grid:20x20:logw", 0)
        edges = max_weight_spanning_tree(g).edges
        # drop the tree edge (0, 1) and reconnect vertex 0 by the diagonal
        # (0, 21), which the grid does not have
        edges.remove(next(e for e in edges if e[:2] == (0, 1)))
        assert (0, 21) not in {(u, v) for u, v, _ in g.edges}
        t = SpanningTree.from_edges(g.n, edges + [(0, 21, 1.0)])
        assert self.off_tree_solve(g, t, rng) == g.m - (g.n - 2) + 1


class TestTailCountIntegration:
    def test_triangle_qul(self):
        g, t = triangle_setup()
        s = generalized_spectrum(g, t)
        # total stretch 4: u = 4^(2/3) = 2.52, one eigenvalue above it
        u = 4.0 ** (2.0 / 3.0)
        q, _, l = exact_qul(s, u)
        assert q == 1 and l == 1.0
        assert tail_count(s, 2.0) == 1


# ---------------------------------------------------------------------------
# reorthogonalization: the block projection against the per-vector loop


def loop_reorthogonalized_pcg(g, f, b, cfg, x_true):
    """Reference: pcg_solve's reorthogonalized path as it ran before the block
    projection, one modified Gram-Schmidt round per kept residual.  Returns
    (x, iterations, converged, a_norm_history) and the kept residuals,
    preconditioned residuals and their r^T z."""
    true_norm = math.sqrt(float(x_true @ laplacian_apply(g, x_true)))

    def a_norm_rel_err(x):
        d = x - x_true
        return math.sqrt(max(float(d @ laplacian_apply(g, d)), 0.0)) / true_norm

    x = np.zeros(g.n)
    r = b - b.mean()
    z = pseudo_solve(f, r)
    rz = float(r @ z)
    denom = math.sqrt(rz)
    a_hist = [a_norm_rel_err(x)]
    p = z.copy()
    k = 0
    converged = False
    r_hist, z_hist, rz_hist = [r.copy()], [z.copy()], [rz]
    while k < cfg.max_iterations:
        Ap = laplacian_apply(g, p)
        pAp = float(p @ Ap)
        if not math.isfinite(pAp) or pAp <= 0.0:
            raise PcgDivergenceError(f"curvature {pAp} at iteration {k}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = pseudo_solve(f, r)
        for rj, zj, rzj in zip(r_hist, z_hist, rz_hist):
            c = float(r @ zj) / rzj
            r -= c * rj
            z -= c * zj
        rz_new = float(r @ z)
        if rz_new > 0.0:
            r_hist.append(r.copy())
            z_hist.append(z.copy())
            rz_hist.append(rz_new)
        if not math.isfinite(rz_new):
            raise PcgDivergenceError(f"nonfinite residual at iteration {k + 1}")
        k += 1
        a_hist.append(a_norm_rel_err(x))
        if rz_new <= 0.0 or math.sqrt(max(rz_new, 0.0)) / denom <= cfg.effective_residual_tolerance():
            converged = True
            break
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    kept = (np.array(r_hist), np.array(z_hist), np.array(rz_hist))
    return (x, k, converged, a_hist), kept


def loop_split_pcg(g, f, b, cfg, x_true):
    """Reference: pcg_solve's reorthogonalized path with one modified
    Gram-Schmidt round per kept transformed residual s = F^T r in place of
    the block projection, on the same split multiply.  Returns (x,
    iterations, converged, a_norm_history) and the kept rows, normalised."""
    true_norm = math.sqrt(float(x_true @ laplacian_apply(g, x_true)))

    split = SplitSystem(g, f)

    def a_norm_rel_err(x_slots):
        d = split.solution(x_slots) - x_true
        return math.sqrt(max(float(d @ laplacian_apply(g, d)), 0.0)) / true_norm

    x = np.zeros(g.n)
    s = split.rhs(b - b.mean())
    ss = float(s @ s)
    denom = math.sqrt(ss)
    a_hist = [a_norm_rel_err(x)]
    p = s.copy()
    k = 0
    converged = False
    kept = [s / denom]
    while k < cfg.max_iterations:
        phi, mp = split.multiply(p)
        pmp = float(p @ mp)
        if not math.isfinite(pmp) or pmp <= 0.0:
            raise PcgDivergenceError(f"curvature {pmp} at iteration {k}")
        alpha = ss / pmp
        x += alpha * phi
        s -= alpha * mp
        for q in kept:
            s -= float(q @ s) * q
        ss_new = float(s @ s)
        if ss_new > 0.0:
            kept.append(s / math.sqrt(ss_new))
        if not math.isfinite(ss_new):
            raise PcgDivergenceError(f"nonfinite residual at iteration {k + 1}")
        k += 1
        a_hist.append(a_norm_rel_err(x))
        if ss_new <= 0.0 or math.sqrt(ss_new) / denom <= cfg.effective_residual_tolerance():
            converged = True
            break
        beta = ss_new / ss
        ss = ss_new
        p = s + beta * p
    return (split.solution(x), k, converged, a_hist), np.array(kept)


def solve_keeping_rows(g, f, b, cfg, x_true=None):
    """pcg_solve, plus the rows its reorthogonalization buffer holds when it
    returns, read from its locals by a profile hook."""
    kept = []

    def hook(frame, event, arg):
        if event == "return" and frame.f_code is pcg_solve.__code__:
            kept.append(frame.f_locals["kept"][:frame.f_locals["h"]].copy())

    sys.setprofile(hook)
    try:
        out = pcg_solve(g, f, b, cfg, x_true=x_true)
    finally:
        sys.setprofile(None)
    return out, kept[0]


def first_accurate(a_hist, eps=1e-8):
    return next((k for k, e in enumerate(a_hist) if e <= eps), None)


def max_off_orthonormality(kept):
    """Largest off-diagonal of the normalised Gram matrix
    |s_i^T s_j| / sqrt(s_i^T s_i * s_j^T s_j) of the kept rows (for
    transformed residuals s = F^T r, s_i^T s_j = r_i^T z_j)."""
    gram = kept @ kept.T
    d = np.sqrt(np.diag(gram))
    gram = np.abs(gram) / np.outer(d, d)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


DESK_SPECS = ["grid:20x20:logw", "gnp:n=450,p=0.02:logw", "regular:n=400,d=4:unit"]


@functools.lru_cache(maxsize=None)
def desk_instance(spec, tree, seed):
    """The graph, factorization, right-hand side and x_true that
    ``treepcg verify`` builds for one seed."""
    g = generate(spec, seed)
    f = factor(build_tree(g, tree, seed))
    b = np.random.default_rng([seed, 0xB0]).standard_normal(g.n)
    b -= b.mean()
    x_true = np.zeros(g.n)
    x_true[1:] = np.linalg.solve(dense_laplacian(g)[1:, 1:], b[1:])
    x_true -= x_true.mean()
    return g, f, b, x_true


def verify_config(n):
    return PcgConfig(epsilon=1e-8, max_iterations=max(4 * n, 100), record_history=True,
                     reorthogonalize=True)


def assert_x_close(out, ref_x):
    assert np.abs(out.x - ref_x).max() <= 1e-13 * np.abs(ref_x).max()


def assert_close(out, ref_x, ref_a_hist):
    """x within 1e-13 of max |x|, and each relative A-norm error within 1e-14
    (at least twice the largest gaps measured, see below)."""
    assert_x_close(out, ref_x)
    for got, want in zip(out.a_norm_history, ref_a_hist):
        assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("spec", DESK_SPECS)
@pytest.mark.parametrize("tree", ["maxw", "akpw"])
def test_a_norm_error_matches_a_dense_reference(spec, tree):
    """The reported error and the history's last entry, both edge energies of
    the slot-order iterate, against (x - x_true)^T L (x - x_true) formed
    densely from the returned x.  The errors are relative to ||x_true||_A, so
    the tolerance is too.  Measured over seeds 0-3: gaps up to 5.8e-17, or
    4.8e-8 of the error itself, the rounding of the final centring of x."""
    g, f, b, x_true = desk_instance(spec, tree, 0)
    out = pcg_solve(g, f, b, verify_config(g.n), x_true=x_true)
    L = dense_laplacian(g)
    d = out.x - x_true
    want = math.sqrt(d @ L @ d / (x_true @ L @ x_true))
    assert out.converged and want < 1e-8
    assert abs(out.a_norm_error - want) <= 1e-12
    assert abs(out.a_norm_history[-1] - want) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plain_pcg_converges_with_weights_over_eight_decades(seed):
    """Plain CG (no reorthogonalization) with akpw's tree on weights
    10^U(-4, 4), against a grounded dense LU solve.  Here the akpw tree of
    ball growing by hops had stretch 1.3e9-2.4e9, and CG used up the 4n
    budget unconverged with A-norm errors 0.04-0.31; the weight-class tree
    measured 38-42 iterations and errors 3.8e-10 to 6.8e-10."""
    rng = np.random.default_rng(seed)
    g = generate("gnp:n=450,p=0.02:unit", seed)
    g = WeightedGraph(g.n, np.column_stack((g.edge_u, g.edge_v, 10.0 ** rng.uniform(-4.0, 4.0, g.m))))
    b = rng.standard_normal(g.n)
    b -= b.mean()
    x_true = np.zeros(g.n)
    x_true[1:] = np.linalg.solve(dense_laplacian(g)[1:, 1:], b[1:])
    x_true -= x_true.mean()
    cfg = PcgConfig(epsilon=1e-8, max_iterations=4 * g.n)
    out = pcg_solve(g, factor(build_tree(g, "akpw", seed)), b, cfg, x_true=x_true)
    assert out.converged and out.a_norm_error <= cfg.epsilon


class TestBlockReorthogonalization:
    """The block projection (classical Gram-Schmidt, two passes) against a
    per-vector loop on the same split system, and against the x-space loop
    that ran before the split, on the inputs ``treepcg verify`` builds."""

    @pytest.mark.parametrize("spec", DESK_SPECS)
    @pytest.mark.parametrize("tree", ["maxw", "akpw"])
    def test_matches_the_loop_on_verify_runs(self, spec, tree):
        # measured over these 24 runs against the split-system loop: max
        # |dx| / max |x| 1.4e-14 and max |d a_k| 2.1e-15 (the errors are
        # relative, starting at 1); against the x-space loop 2.4e-14 and
        # 2.0e-14, rounding of two different iterations
        for seed in range(4):
            g, f, b, x_true = desk_instance(spec, tree, seed)
            cfg = verify_config(g.n)
            (x, k, converged, a_hist), _ = loop_reorthogonalized_pcg(g, f, b, cfg, x_true)
            (xs, ks, cs, as_hist), _ = loop_split_pcg(g, f, b, cfg, x_true)
            out = pcg_solve(g, f, b, cfg, x_true=x_true)
            assert (out.iterations, out.converged) == (k, converged) == (ks, cs)
            assert first_accurate(out.a_norm_history) == first_accurate(a_hist)
            assert len(out.a_norm_history) == len(a_hist)
            assert_x_close(out, x)
            assert_close(out, xs, as_hist)

    @pytest.mark.parametrize("spec", DESK_SPECS)
    @pytest.mark.parametrize("tree", ["maxw", "akpw"])
    def test_runs_past_the_rounding_floor(self, spec, tree):
        # criterion-4 style: no residual stop and a budget past n, so each
        # run ends only when its residual measure is no longer positive,
        # after its A-norm error has sat at the rounding floor (1e-15 to
        # 1e-13) for dozens of iterations.  Where that happens is decided by
        # rounding, so the iteration counts differ: the x-space loop stops
        # when r^T z <= 0, after 88-246 iterations on seeds 0-1; the split
        # system keeps s^T s, a sum of squares, which reaches 0 only when it
        # underflows, after 238-449 iterations.
        for seed in range(2):
            g, f, b, x_true = desk_instance(spec, tree, seed)
            cfg = PcgConfig(epsilon=1e-8, max_iterations=2 * g.n, residual_tolerance=0.0,
                            record_history=True, reorthogonalize=True)
            (x, k, converged, a_hist), ref_kept = loop_reorthogonalized_pcg(g, f, b, cfg, x_true)
            (xs, ks, cs, as_hist), split_kept = loop_split_pcg(g, f, b, cfg, x_true)
            out, kept = solve_keeping_rows(g, f, b, cfg, x_true)
            assert converged and cs and out.converged
            # the last residual had r^T z <= 0, or s^T s = 0, and was not kept
            assert len(ref_kept[2]) == k and len(split_kept) == ks
            assert len(kept) == out.iterations
            assert out.iterations > 128  # the buffer doubled twice (64, 128, 256)
            first = first_accurate(a_hist)
            assert first_accurate(out.a_norm_history) == first_accurate(as_hist) == first
            assert_x_close(out, x)
            assert_close(out, xs, as_hist[: first + 1])
            assert max(out.a_norm_error, a_hist[-1], as_hist[-1]) <= 1e-12

    @pytest.mark.parametrize("spec", DESK_SPECS)
    @pytest.mark.parametrize("tree", ["maxw", "akpw"])
    def test_kept_rows_stay_orthonormal(self, spec, tree):
        # largest normalised off-diagonal over seeds 0-3: at most 4.4e-16
        # here (4.9e-15 for the x-space block path before the split)
        for seed in range(4):
            g, f, b, x_true = desk_instance(spec, tree, seed)
            _, kept = solve_keeping_rows(g, f, b, verify_config(g.n))
            assert max_off_orthonormality(kept) <= 2e-14

    def test_kept_rows_stay_orthonormal_with_weights_over_eight_decades(self):
        # graph and tree weights spread over eight decades.  The lightest
        # spanning tree keeps CG going for 448 iterations (akpw's tree stops
        # at 33); measured 5.3e-16
        rng = np.random.default_rng(1)
        g = generate("gnp:n=450,p=0.02:unit", 1)
        edges = np.array(g.edges)
        edges[:, 2] = 10.0 ** rng.uniform(-4.0, 4.0, g.m)
        g = WeightedGraph(g.n, edges)
        weight = {(u, v): w for u, v, w in g.edges}
        lightest = max_weight_spanning_tree(WeightedGraph(g.n, [(u, v, 1.0 / w) for u, v, w in g.edges]))
        f = factor(SpanningTree.from_edges(g.n, [(u, v, weight[u, v]) for u, v, _ in lightest.edges]))
        b = rng.standard_normal(g.n)
        b -= b.mean()
        out, kept = solve_keeping_rows(g, f, b, verify_config(g.n))
        assert out.converged and len(kept) > 128
        assert max_off_orthonormality(kept) <= 2e-12

    def test_memory_follows_kept_rows_not_the_budget(self):
        g, f, b, x_true = desk_instance("gnp:n=450,p=0.02:logw", "akpw", 0)
        peaks = []
        for budget in (4 * g.n, 40 * g.n):
            cfg = PcgConfig(epsilon=1e-8, max_iterations=budget, record_history=True,
                            reorthogonalize=True)
            tracemalloc.start()
            try:
                out = pcg_solve(g, f, b, cfg, x_true=x_true)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        kept_rows = out.iterations + 1
        row = 8 * g.n
        # one buffer of fewer than 2 * kept_rows rows (doubling), its old
        # copy while it grows (fewer than kept_rows rows), and a few dozen
        # vectors of length n
        assert max(peaks) <= (5 * kept_rows + 64) * row
        assert max(peaks) <= 2 * (4 * g.n + 1) * row / 5
        assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0]
