"""The spanning-tree preconditioner and the conjugate gradient that uses it.

For a mean-zero load b on a tree, x = L_T^+ b is the potential of the tree
flow that b drives: the flow on v's parent edge is the sum of b over v's
subtree, the drop across that edge is the flow divided by the edge weight,
and the potential of v is the sum of the drops on its root path (0 at the
root, centred at the end).  This is leaf elimination, every pivot being a
parent-edge weight.  Grounded at the root, L_T^{-1} = R W^{-1} R^T = F F^T
with F = R W^{-1/2}: in the tree's DFS-preorder slots, where every subtree is
a contiguous range, R[s, c-1] = 1 iff c <= s <= last[c], c = 1..n-1 (slot s
lies in the subtree at slot c), and W holds the parent-edge weights of slots
1..n-1.  That layout is all that a solve reads, so the tree is its own
factorization (``factor``).  ``subtree_sums`` (R^T, the flows) is one prefix
sum and its differences; ``root_path_sums`` (R, the potentials) is one more,
of the drops, each taken out again right after its subtree ends.
``pseudo_solve`` is R W^{-1} R^T between gathers into and out of slot order.

PCG with L_T^+ is plain CG on the split system M y = F^T b, x = F y, whose
matrix M = F^T L_G F = I + F^T (L_G - L_T) F is, in slot order, the dense
oracle's; ``SplitSystem`` is its one construction.  The tree's own n-1 edges
leave the multiply: each iteration is one root-path prefix sum (F p), one
Laplacian multiply over the off-tree edges only, and one subtree prefix sum
(F^T), each O(n) or O(m - n) with no per-vertex Python code, on vectors kept
in slots 1..n-1.  x is accumulated in slot order from the F p that each
multiply computes, and mapped back to vertices and centred once at the end.
M is grounded, so nothing is re-centred per iteration.

The stopping rule is the residual measure ||s_k|| = sqrt(r_k^T L_T^+ r_k),
s_k = F^T r_k, relative to its value at the start; the target A-norm accuracy
is unobservable online.  Against a reference x_true (dense ground truth at
desk scale), gathered into slot order once, each A-norm is the edge energy
sqrt(sum_e w_e (d_u - d_v)^2) over g's edges in slot labels, so the off-tree
multiply stays the only graph multiply.  Iteration-bound predictors cover
both the general eigenvalue-split bound and its total-stretch specialization
(q = ceil(st^(1/3)), u = st^(2/3), l = 1).

With ``reorthogonalize`` set, each new transformed residual s is projected
against every kept one by block classical Gram-Schmidt in the Euclidean
inner product, applied twice (CGS2): a pass is s -= (Q s) Q over the kept
rows Q, normalised, two matrix-vector products.  The kept rows live in one
doubling row buffer, so memory is O(kept rows * n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import WeightedGraph, laplacian_apply
from .trees import SpanningTree, tree_edge_mask


class TreeSolveError(ValueError):
    """Dimension mismatch in a tree solve."""


def factor(t: SpanningTree) -> SpanningTree:
    """The tree itself: its DFS-preorder layout is all that a solve reads."""
    return t


def subtree_sums(t: SpanningTree, load) -> np.ndarray:
    """R^T: for each slot 1..n-1, the sum of ``load`` (given in slot order)
    over the subtree at that slot, by one prefix sum.  For a mean-zero load
    these are the tree flows on the parent edges."""
    prefix = np.cumsum(load)
    return prefix[t.last[1:]] - prefix[:-1]


def root_path_sums(t: SpanningTree, drop) -> np.ndarray:
    """R: the potential at every slot, in slot order, given the drop across
    the parent edge of each slot 1..n-1; the potential at a slot is the sum
    of the drops on its root path, and the root sits at 0.  Each drop enters
    at its own slot and leaves right after its range ends, so this is one
    prefix sum."""
    exits = np.bincount(t.last[1:], weights=drop, minlength=t.n)
    steps = np.empty(t.n)
    steps[0] = 0.0
    np.subtract(drop, exits[:-1], out=steps[1:])
    return np.cumsum(steps, out=steps)


def pseudo_solve(t: SpanningTree, b) -> np.ndarray:
    """Apply the tree Laplacian pseudo-inverse: x = L^+ (b - mean(b))."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (t.n,):
        raise TreeSolveError(f"vector length {b.shape} does not match n={t.n}")
    # sum()/n is mean() without its per-call overhead, and bit-identical
    flow = subtree_sums(t, b[t.order] - b.sum() / t.n)
    x = root_path_sums(t, flow / t.parent_weight[t.order[1:]])[t.slot]
    x -= x.sum() / t.n
    return x


class PcgError(ValueError):
    """Invalid solver configuration or input."""


class PcgDivergenceError(RuntimeError):
    """Nonfinite values or an indefinite curvature step; distinct from plain
    non-convergence within the iteration budget."""


@dataclass
class PcgConfig:
    epsilon: float = 1e-8            # target relative A-norm accuracy
    max_iterations: int = 1000
    residual_tolerance: Optional[float] = None  # defaults to epsilon / 10
    record_history: bool = False
    # Full reorthogonalization of the residual sequence by block CGS2, in
    # one row buffer that doubles when full (O(kept rows * n) memory).
    # Off for production solves; verification against exact-spectrum
    # iteration bounds turns it on, because those bounds describe exact
    # arithmetic and rounding-induced orthogonality loss delays plain CG.
    reorthogonalize: bool = False

    def effective_residual_tolerance(self) -> float:
        if self.residual_tolerance is None:
            return self.epsilon / 10.0
        return self.residual_tolerance


@dataclass
class PcgOutcome:
    x: np.ndarray
    iterations: int
    converged: bool
    centered_input: bool
    final_residual: float
    residual_history: Optional[list] = None
    a_norm_error: Optional[float] = None
    a_norm_history: Optional[list] = None


@dataclass(frozen=True)
class IterationBound:
    q: int
    u: float
    l: float
    k_bound: int


def iteration_bound(q: int, u: float, l: float, epsilon: float) -> IterationBound:
    """k = q + ceil((ln(2/eps)/2) * sqrt(u/l)); the ceiling applies to the
    square-root term only."""
    if not (0.0 < epsilon):
        raise PcgError(f"epsilon must be positive, got {epsilon}")
    if q < 0:
        raise PcgError(f"q must be nonnegative, got {q}")
    if not (0.0 < l <= u):
        raise PcgError(f"need 0 < l <= u, got l={l}, u={u}")
    tail = max(math.ceil(math.log(2.0 / epsilon) / 2.0 * math.sqrt(u / l)), 0)
    return IterationBound(q=int(q), u=float(u), l=float(l), k_bound=int(q) + tail)


def snapped_root(x: float, power: float) -> float:
    """``x ** power``, snapped to the nearest integer within 1e-9 relative:
    the cube root of st = 64 is 4, not 3.9999999999999996."""
    r = x ** power
    nearest = round(r)
    if nearest > 0 and abs(r - nearest) < 1e-9 * max(1.0, nearest):
        return float(nearest)
    return r


def stretch_only_bound(total_stretch: float, epsilon: float) -> IterationBound:
    """Iteration bound from total stretch alone: all but ceil(st^(1/3))
    eigenvalues are assumed in [1, st^(2/3)]."""
    if total_stretch < 1.0:
        raise PcgError(f"total stretch must be >= 1, got {total_stretch}")
    q = math.ceil(snapped_root(total_stretch, 1.0 / 3.0))
    u = snapped_root(total_stretch, 2.0 / 3.0)
    return iteration_bound(q, max(u, 1.0), 1.0, epsilon)


_KEPT_ROWS = 64  # initial rows of the reorthogonalization buffer


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    out = np.empty((rows,) + a.shape[1:])
    out[: len(a)] = a
    return out


class SplitSystem:
    """The split system F^T L_G F = I + F^T (L_G - L_T) F of (g, t), built
    once: L_G - L_T as a signed edge list in slot labels (``n``, ``edge_u``,
    ``edge_v``, ``edge_w``, read by ``laplacian_apply`` as a WeightedGraph's),
    and ``scale`` = W^{-1/2} on slots 1..n-1.  A tree edge that g holds with
    the identical weight cancels and is left out; every other tree edge
    enters with weight -w_T, so a tree that is not a subgraph of g, or that
    carries other weights, still gives the right difference."""

    def __init__(self, g: WeightedGraph, t: SpanningTree):
        su, sv = t.slot[g.edge_u], t.slot[g.edge_v]
        held = tree_edge_mask(g, t)
        cancelled = np.zeros(t.n, dtype=bool)
        cancelled[np.maximum(su, sv)[held]] = True      # a parent's slot precedes its child's
        extra = np.flatnonzero(~cancelled[1:]) + 1
        keep = ~held
        self.n, self.t = t.n, t
        self.edge_u = np.concatenate((su[keep], t.up[extra]))
        self.edge_v = np.concatenate((sv[keep], extra))
        self.edge_w = np.concatenate((g.edge_w[keep], -t.parent_weight[t.order[extra]]))
        self.scale = 1.0 / np.sqrt(t.parent_weight[t.order[1:]])

    def multiply(self, p: np.ndarray):
        """(F p, M p) for p on slots 1..n-1; F p comes back in slot order."""
        phi = root_path_sums(self.t, p * self.scale)
        mp = subtree_sums(self.t, laplacian_apply(self, phi))
        mp *= self.scale
        mp += p
        return phi, mp

    def rhs(self, b: np.ndarray) -> np.ndarray:
        """F^T b for b in vertex order."""
        return subtree_sums(self.t, b[self.t.order]) * self.scale

    def solution(self, x_slots: np.ndarray) -> np.ndarray:
        """x_slots mapped to vertices and centred."""
        x = x_slots[self.t.slot]
        x -= x.sum() / self.n
        return x


def _checked_vector(v, n: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise PcgError(f"{what} length {v.shape} does not match n={n}")
    if not np.isfinite(v).all():
        raise PcgError(f"{what} has nonfinite entries")
    return v


def pcg_solve(
    g: WeightedGraph,
    t: SpanningTree,
    b,
    cfg: PcgConfig,
    x_true: Optional[np.ndarray] = None,
) -> PcgOutcome:
    """Solve L_G x = b with the tree preconditioner.

    b is centered automatically when its mean is nonzero (flagged in the
    outcome).  When x_true is given, the relative A-norm error is reported,
    and tracked per iteration, ending in it, if record_history is set.
    """
    if not (0.0 < cfg.epsilon < 1.0):
        raise PcgError(f"epsilon must lie in (0, 1), got {cfg.epsilon}")
    if cfg.max_iterations < 1:
        raise PcgError(f"max_iterations must be >= 1, got {cfg.max_iterations}")
    b = _checked_vector(b, g.n, "right-hand side")
    x_true = None if x_true is None else _checked_vector(x_true, g.n, "x_true")
    if t.n != g.n:
        raise PcgError("tree size does not match graph")

    mean = b.mean()
    centered = bool(abs(mean) > 1e-14 * float(np.abs(b).max()))     # relative: any scale
    bbar = b - mean

    rtol = cfg.effective_residual_tolerance()

    split = SplitSystem(g, t)
    # s = F^T r is the transformed residual.  s @ s under- or overflows far
    # from unit scale, so there the system is solved divided by 2^e, exactly.
    s = split.rhs(bbar)
    e = math.frexp(np.abs(s).max(initial=0.0))[1]
    e = e if abs(e) > 100 else 0
    s = np.ldexp(s, -e)

    if x_true is not None:
        su, sv = t.slot[g.edge_u], t.slot[g.edge_v]
        xt = np.ldexp(x_true[t.order], -e)

        def a_norm(d):      # edge energy in slot labels (see the module docstring)
            return math.sqrt(float(g.edge_w @ np.square(d[su] - d[sv])))

        true_norm = a_norm(xt) or 1.0       # a constant x_true: the absolute error

        def a_norm_rel_err(x):
            return a_norm(x - xt) / true_norm

    x = np.zeros(g.n)       # x = F y, accumulated in slot order
    ss = float(s @ s)
    denom = math.sqrt(ss)
    history = [1.0] if cfg.record_history else None
    a_hist = [a_norm_rel_err(x)] if (cfg.record_history and x_true is not None) else None
    p = s.copy()
    k = 0
    converged = denom == 0.0        # a zero residual is solved by x = 0
    rel = 0.0 if converged else 1.0
    if cfg.reorthogonalize and not converged:
        # the kept transformed residuals, normalised
        kept = np.empty((min(cfg.max_iterations + 1, _KEPT_ROWS), g.n - 1))
        kept[0] = s / denom
        h = 1
    while not converged and k < cfg.max_iterations:
        phi, mp = split.multiply(p)
        pmp = float(p @ mp)
        if not math.isfinite(pmp):
            raise PcgDivergenceError(f"nonfinite curvature at iteration {k}")
        if pmp <= 0.0:
            raise PcgDivergenceError(f"nonpositive curvature {pmp} at iteration {k}")
        alpha = ss / pmp
        x += alpha * phi
        s -= alpha * mp
        if cfg.reorthogonalize:
            for _ in range(2):
                s -= (kept[:h] @ s) @ kept[:h]
        ss_new = float(s @ s)
        if cfg.reorthogonalize and ss_new > 0.0:
            if h == len(kept):
                kept = _grown(kept, min(2 * h, cfg.max_iterations + 1))
            kept[h] = s / math.sqrt(ss_new)
            h += 1
        if not math.isfinite(ss_new):
            raise PcgDivergenceError(f"nonfinite residual at iteration {k + 1}")
        k += 1
        rel = math.sqrt(ss_new) / denom
        if history is not None:
            history.append(rel)
        if a_hist is not None:
            a_hist.append(a_norm_rel_err(x))
        if ss_new <= 0.0 or rel <= rtol:
            converged = True
            break
        beta = ss_new / ss
        ss = ss_new
        p *= beta
        p += s
    return PcgOutcome(
        x=np.ldexp(split.solution(x), e),
        iterations=k,
        converged=converged,
        centered_input=centered,
        final_residual=rel,
        residual_history=history,
        a_norm_error=None if x_true is None else a_norm_rel_err(x),
        a_norm_history=a_hist,
    )
