"""Preconditioned conjugate gradient with a tree-factorization preconditioner.

Each iteration costs one Laplacian multiply (O(m)) and one tree pseudo-solve
(O(n)).  The stopping rule is the preconditioned residual measure
sqrt(r^T z) relative to sqrt(b^T L_T^+ b); the target A-norm accuracy is
unobservable online and is verified offline against dense ground truth at
desk scale.  Iteration-bound predictors cover both the general
eigenvalue-split bound and its total-stretch specialization
(q = ceil(st^(1/3)), u = st^(2/3), l = 1).

With ``reorthogonalize`` set, each new residual r and its preconditioned
residual z are projected against every kept pair by block classical
Gram-Schmidt in the L_T^+ inner product, applied twice (CGS2): a pass is
c = (Z r) / diag(R Z^T), r -= c R, z -= c Z, three matrix-vector products.
Then r is re-centred, because the L_T^+ inner product cannot see the constant
vector, which the projection would otherwise amplify once the residual sits
at the rounding floor.  The kept pairs live in two doubling row buffers, so
memory is O(kept rows * n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import WeightedGraph, laplacian_apply
from .treesolver import TreeFactorization, pseudo_solve


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
    # two row buffers that double when full (O(kept rows * n) memory).
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


_KEPT_ROWS = 64  # initial rows of the reorthogonalization buffers


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    out = np.empty((rows,) + a.shape[1:])
    out[: len(a)] = a
    return out


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

    x = np.zeros(g.n)
    r = bbar.copy()
    z = pseudo_solve(f, r)
    rz = float(r @ z)
    denom = math.sqrt(max(rz, 0.0))
    history = [1.0] if cfg.record_history else None
    a_hist = [a_norm_rel_err(x)] if (cfg.record_history and x_true is not None) else None
    if denom == 0.0:
        return PcgOutcome(
            x=x, iterations=0, converged=True, centered_input=centered,
            final_residual=0.0, residual_history=history,
            a_norm_error=(a_norm_rel_err(x) if x_true is not None else None),
            a_norm_history=a_hist,
        )
    p = z.copy()
    k = 0
    converged = False
    rel = 1.0
    if cfg.reorthogonalize:
        # kept residuals R, preconditioned residuals Z and their r^T z
        kept_r = np.empty((min(cfg.max_iterations + 1, _KEPT_ROWS), g.n))
        kept_z = np.empty_like(kept_r)
        kept_rz = np.empty(len(kept_r))
        kept_r[0], kept_z[0], kept_rz[0] = r, z, rz
        h = 1
    while k < cfg.max_iterations:
        Ap = laplacian_apply(g, p)
        pAp = float(p @ Ap)
        if not math.isfinite(pAp):
            raise PcgDivergenceError(f"nonfinite curvature at iteration {k}")
        if pAp <= 0.0:
            raise PcgDivergenceError(f"nonpositive curvature {pAp} at iteration {k}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = pseudo_solve(f, r)
        if cfg.reorthogonalize:
            for _ in range(2):
                c = (kept_z[:h] @ r) / kept_rz[:h]
                r -= c @ kept_r[:h]
                z -= c @ kept_z[:h]
            r -= r.sum() / g.n  # the true residual has mean zero
        rz_new = float(r @ z)
        if cfg.reorthogonalize and rz_new > 0.0:
            if h == len(kept_rz):
                rows = min(2 * h, cfg.max_iterations + 1)
                kept_r = _grown(kept_r, rows)
                kept_z = _grown(kept_z, rows)
                kept_rz = _grown(kept_rz, rows)
            kept_r[h], kept_z[h], kept_rz[h] = r, z, rz_new
            h += 1
        if not math.isfinite(rz_new):
            raise PcgDivergenceError(f"nonfinite residual at iteration {k + 1}")
        k += 1
        rel = math.sqrt(max(rz_new, 0.0)) / denom
        if history is not None:
            history.append(rel)
        if a_hist is not None:
            a_hist.append(a_norm_rel_err(x))
        if rz_new <= 0.0 or rel <= rtol:
            converged = True
            break
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
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
