"""Dense brute-force oracle for the preconditioned spectrum at desk scale.

With L_T^{-1} = F F^T, F = R W^{-1/2}, grounded at the tree's root (see
``pcg``), the nonzero generalized eigenvalues of (L_G, L_T) are those of
M = F^T L_G F, one eigensolve with no pseudo-inverse.  M is the matrix of
``pcg.SplitSystem``, the one construction, whose edges and W^{-1/2} the
oracle reads; R comes from broadcast comparisons over the layout, not the
solver's prefix sums, and is independent of the LCA sparse table and root
prefix sums behind the stretch report.

Since F^T L_T F = I exactly, M = I + C^T C, where C has one row
sqrt(w) (F[u] - F[v]) per off-tree edge (u, v, w).  That sum of positive
semidefinite rank-one terms with entries exact to rounding is the one
route: nothing cancels as in L_G F, where 1/sqrt(w) terms of very different
sizes meet.  C is formed 4(n-1) rows at a time (every desk spec is one
block), so it never takes more than 4(n-1)^2 doubles.  Its k n^2 / 2
multiply-adds cost more than F^T L_G F did on dense graphs: at n = 500 with
11n, 24n and 74n off-tree edges one spectrum takes 0.05, 0.09 and 0.25 s on
2 vCPUs, against 0.02 s.  All of it is dense and capped; it certifies
claims, it does not scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DEFAULT_DENSE_CAP, GraphError, WeightedGraph, dense_laplacian, is_connected
from .pcg import IterationBound, SplitSystem, iteration_bound, stretch_only_bound
from .trees import SpanningTree, TreeError, tree_spans


@dataclass
class SpectralSummary:
    """Sorted nonzero generalized eigenvalues of (L_G, L_T) and aggregates."""

    eigenvalues: np.ndarray  # ascending, length n-1
    trace: float
    lambda_min: float
    lambda_max: float


def dense_tree_laplacian(t: SpanningTree) -> np.ndarray:
    return dense_laplacian(WeightedGraph(t.n, t.edges), cap=t.n)


def _ancestor_rows(t: SpanningTree, slots=None) -> np.ndarray:
    """Rows ``slots`` (default: all) of R as int8: R[s, c-1] = 1 iff
    c <= s <= last[c], two broadcast comparisons (of int32, which numpy
    compares twice as fast as int64)."""
    c = np.arange(1, t.n, dtype=np.int32)
    s = (np.arange(t.n) if slots is None else slots).astype(np.int32)[:, None]
    R = c <= s
    R &= s <= t.last[1:].astype(np.int32)
    return R.view(np.int8)


_BLOCK_RATIO = 4  # rows of C per block, per tree edge


def _block_gram(split: SplitSystem, e: slice) -> np.ndarray:
    """C^T C over the rows of C for the edges ``e``: R[u] - R[v] is +-1 on the u-v tree path."""
    t = split.t
    C = np.multiply(_ancestor_rows(t, split.edge_u[e]) - _ancestor_rows(t, split.edge_v[e]),
                    np.sqrt(split.edge_w[e])[:, None])
    C *= split.scale
    return C.T @ C


def _split_matrix(split: SplitSystem) -> np.ndarray:
    """M = I + C^T C (module docstring) in slot order, C^T C summed over
    blocks of C's rows into the first block's product.  C's rows are the
    split system's edges, which are g's off-tree edges when the tree spans g
    with matching weights (with none, M is I).  Unsymmetrised: ``eigvalsh``
    reads only the lower triangle."""
    rows = _BLOCK_RATIO * (split.n - 1)
    blocks = (slice(lo, lo + rows) for lo in range(0, len(split.edge_w) or 1, rows))
    M = _block_gram(split, next(blocks))
    for e in blocks:
        M += _block_gram(split, e)
    M[np.diag_indices_from(M)] += 1.0
    return M


def generalized_spectrum(
    g: WeightedGraph, t: SpanningTree, cap: int = DEFAULT_DENSE_CAP
) -> SpectralSummary:
    """All n-1 nonzero generalized eigenvalues of (L_G, L_T), dense: those of
    I + C^T C (see the module docstring)."""
    if g.n < 2:
        raise GraphError(f"spectrum needs at least 2 vertices, got {g.n}")
    if g.n > cap:
        raise GraphError(f"n={g.n} exceeds dense cap {cap}")
    if not is_connected(g):
        raise GraphError("graph must be connected")
    if not tree_spans(g, t):
        raise TreeError("tree does not span the graph with matching weights")
    ev = np.linalg.eigvalsh(_split_matrix(SplitSystem(g, t)))
    return SpectralSummary(
        eigenvalues=ev,
        trace=float(ev.sum()),
        lambda_min=float(ev[0]),
        lambda_max=float(ev[-1]),
    )


def tail_count(s: SpectralSummary, t_threshold: float) -> int:
    """Number of eigenvalues strictly greater than the threshold."""
    if not (t_threshold > 0.0):
        raise ValueError(f"threshold must be positive, got {t_threshold}")
    return int(np.count_nonzero(s.eigenvalues > t_threshold))


def exact_qul(s: SpectralSummary, u: float, use_lambda_min: bool = False):
    """(q, u, l) split of the exact spectrum: q eigenvalues above u, the rest
    assumed in [l, u] with l = 1 (or the observed lambda_min)."""
    q = tail_count(s, u)
    l = s.lambda_min if use_lambda_min else 1.0
    return q, float(u), float(l)


def exact_spectrum_bound(summary: SpectralSummary, total_stretch: float, epsilon: float) -> IterationBound:
    """Iteration bound evaluated on the exact spectrum: the top
    ceil(st^(1/3)) eigenvalues (as ``stretch_only_bound`` counts them) are
    treated as outliers, u sits just below the smallest of them, and the
    split is ``exact_qul``'s with l the observed smallest eigenvalue."""
    ev = summary.eigenvalues
    outliers = min(stretch_only_bound(max(total_stretch, 1.0), epsilon).q, len(ev) - 1)
    if outliers >= 1:
        hi, lo = float(ev[-outliers]), float(ev[-(outliers + 1)])
        u = hi * (1.0 - 1e-9) if hi > lo else lo
    else:
        u = summary.lambda_max
    q, u, l = exact_qul(summary, u, use_lambda_min=True)
    return iteration_bound(q, max(u, l), l, epsilon)
