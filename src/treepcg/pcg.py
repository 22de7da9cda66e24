"""Preconditioned conjugate gradient with a spanning-tree preconditioner.

Grounded at the tree's root, L_T^{-1} = F F^T with F = R W^{-1/2} (see
``spectral``), so PCG with L_T^+ is plain CG on the split system
F^T L_G F y = F^T b, with x = F y.  Since F^T L_T F = I, its matrix is
I + F^T (L_G - L_T) F: the tree's own n-1 edges leave the multiply, and each
iteration is one root-path prefix sum (F p), one Laplacian multiply over the
off-tree edges only, and one subtree prefix sum (F^T), each O(n) or O(m - n).
The vectors live in the tree's DFS-preorder slots 1..n-1, where both prefix
sums are contiguous, so no vector is gathered into or out of that order
while CG runs; x is accumulated in slot order from the F p that each
multiply computes, and mapped back to vertices and centred once at the end.
The split system has no null space (it is grounded), so nothing is
re-centred per iteration.

The stopping rule is the residual measure ||s_k|| = sqrt(r_k^T L_T^+ r_k),
s_k = F^T r_k, relative to its value at the start; the target A-norm accuracy
is unobservable online and is verified offline against dense ground truth at
desk scale.  Iteration-bound predictors cover both the general
eigenvalue-split bound and its total-stretch specialization
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
from typing import NamedTuple, Optional

import numpy as np

from .graphs import WeightedGraph, laplacian_apply
from .treesolver import TreeFactorization, root_path_sums, subtree_sums
# pcg_solve calls the two halves; pseudo_solve stays importable from here
# because perfbench's tracer wraps it under this module's name.
from .treesolver import pseudo_solve  # noqa: F401


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

    def to_json_dict(self, bound_exact_spectrum=None, bound_stretch_only=None) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "final_residual": self.final_residual,
            "bound_exact_spectrum": bound_exact_spectrum,
            "bound_stretch_only": bound_stretch_only,
            "a_norm_error": self.a_norm_error,
        }


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


def _snapped_root(x: float, power: float) -> float:
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
    q = math.ceil(_snapped_root(total_stretch, 1.0 / 3.0))
    u = _snapped_root(total_stretch, 2.0 / 3.0)
    return iteration_bound(q, max(u, 1.0), 1.0, epsilon)


def exact_spectrum_bound(summary, total_stretch: float, epsilon: float) -> IterationBound:
    """Iteration bound evaluated on the exact spectrum: the top
    ceil(st^(1/3)) eigenvalues are treated as outliers, u sits just below the
    smallest of them, and l is the observed smallest eigenvalue."""
    from .spectral import tail_count

    ev = summary.eigenvalues
    n1 = len(ev)
    q_target = min(math.ceil(_snapped_root(max(total_stretch, 1.0), 1.0 / 3.0)), n1 - 1)
    if q_target >= 1:
        hi = float(ev[-q_target])
        lo = float(ev[-(q_target + 1)]) if q_target < n1 else float(ev[0])
        u = hi * (1.0 - 1e-9) if hi > lo else lo
    else:
        u = summary.lambda_max
    q = tail_count(summary, u)
    l = summary.lambda_min
    return iteration_bound(q, max(u, l), l, epsilon)


_KEPT_ROWS = 64  # initial rows of the reorthogonalization buffer


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    out = np.empty((rows,) + a.shape[1:])
    out[: len(a)] = a
    return out


class _SignedEdges(NamedTuple):
    """An edge list with weights of either sign, read by ``laplacian_apply``
    exactly as it reads a WeightedGraph's."""

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray


def _off_tree(g: WeightedGraph, f: TreeFactorization) -> _SignedEdges:
    """L_G - L_T as a signed edge list in slot labels.  A tree edge that g
    holds with the identical weight cancels and is left out; every other
    tree edge enters with weight -w_T, so a tree that is not a subgraph of g,
    or that carries other weights, still gives the right difference."""
    su, sv = f.slot[g.edge_u], f.slot[g.edge_v]
    hi = np.maximum(su, sv)             # a parent's slot precedes its child's
    cancels = (f.up[hi] == np.minimum(su, sv)) & (g.edge_w == f.weight[hi])
    cancelled = np.zeros(f.n, dtype=bool)
    cancelled[hi[cancels]] = True
    extra = np.flatnonzero(~cancelled[1:]) + 1
    keep = ~cancels
    return _SignedEdges(
        f.n,
        np.concatenate((su[keep], f.up[extra])),
        np.concatenate((sv[keep], extra)),
        np.concatenate((g.edge_w[keep], -f.weight[extra])),
    )


def _split_multiply(off: _SignedEdges, f: TreeFactorization, scale: np.ndarray, p: np.ndarray):
    """(F p, F^T L_G F p) for p on slots 1..n-1, with F = R W^{-1/2} and
    F^T L_G F = I + F^T (L_G - L_T) F; F p comes back in slot order."""
    phi = root_path_sums(f, p * scale)
    mp = subtree_sums(f, laplacian_apply(off, phi))
    mp *= scale
    mp += p
    return phi, mp


def pcg_solve(
    g: WeightedGraph,
    f: TreeFactorization,
    b,
    cfg: PcgConfig,
    x_true: Optional[np.ndarray] = None,
) -> PcgOutcome:
    """Solve L_G x = b with the tree preconditioner.

    b is centered automatically when its mean is nonzero (flagged in the
    outcome).  When x_true is given, the relative A-norm error is reported,
    and tracked per iteration if record_history is set.
    """
    if not (0.0 < cfg.epsilon < 1.0):
        raise PcgError(f"epsilon must lie in (0, 1), got {cfg.epsilon}")
    if cfg.max_iterations < 1:
        raise PcgError(f"max_iterations must be >= 1, got {cfg.max_iterations}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (g.n,):
        raise PcgError(f"right-hand side length {b.shape} does not match n={g.n}")
    if f.n != g.n:
        raise PcgError("factorization size does not match graph")

    mean = b.mean()
    centered = bool(abs(mean) > 1e-14 * max(1.0, float(np.abs(b).max())))
    bbar = b - mean

    rtol = cfg.effective_residual_tolerance()

    if x_true is not None:
        true_norm = math.sqrt(max(float(x_true @ laplacian_apply(g, x_true)), 0.0))

    def a_norm_rel_err(x):
        d = x - x_true
        num = math.sqrt(max(float(d @ laplacian_apply(g, d)), 0.0))
        return num / true_norm if true_norm > 0 else num

    def by_vertex(x):
        x = x[f.slot]
        x -= x.sum() / g.n
        return x

    off = _off_tree(g, f)
    scale = 1.0 / np.sqrt(f.weight[1:])
    # x = F y accumulates in slot order; s = F^T r is the transformed residual
    x = np.zeros(g.n)
    s = subtree_sums(f, bbar[f.preorder])
    s *= scale
    ss = float(s @ s)
    denom = math.sqrt(ss)
    history = [1.0] if cfg.record_history else None
    a_hist = [a_norm_rel_err(x)] if (cfg.record_history and x_true is not None) else None
    if denom == 0.0:
        return PcgOutcome(
            x=x, iterations=0, converged=True, centered_input=centered,
            final_residual=0.0, residual_history=history,
            a_norm_error=(a_norm_rel_err(x) if x_true is not None else None),
            a_norm_history=a_hist,
        )
    p = s.copy()
    k = 0
    converged = False
    rel = 1.0
    if cfg.reorthogonalize:
        # the kept transformed residuals, normalised
        kept = np.empty((min(cfg.max_iterations + 1, _KEPT_ROWS), g.n - 1))
        kept[0] = s / denom
        h = 1
    while k < cfg.max_iterations:
        phi, mp = _split_multiply(off, f, scale, p)
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
            a_hist.append(a_norm_rel_err(by_vertex(x)))
        if ss_new <= 0.0 or rel <= rtol:
            converged = True
            break
        beta = ss_new / ss
        ss = ss_new
        p *= beta
        p += s
    x = by_vertex(x)
    return PcgOutcome(
        x=x,
        iterations=k,
        converged=converged,
        centered_input=centered,
        final_residual=rel,
        residual_history=history,
        a_norm_error=(a_norm_rel_err(x) if x_true is not None else None),
        a_norm_history=a_hist,
    )
