"""Dense brute-force oracle for the preconditioned spectrum at desk scale.

Grounded at the tree's root, L_T^{-1} = R W^{-1} R^T: R[u, c] = 1 iff the
non-root vertex c is u or an ancestor of u, and W holds the parent-edge
weights.  The nonzero generalized eigenvalues of (L_G, L_T) are then those of
F^T L_G F with F = R W^{-1/2}, one eigensolve with no pseudo-inverse.  F comes
from the tree's DFS-preorder layout (each subtree a range of slots) and its
parent-edge weights, independent of the LCA sparse table and root prefix sums
behind the stretch report.  Everything here is O(n^3) and capped; it
certifies claims, it does not scale.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import DEFAULT_DENSE_CAP, GraphError, WeightedGraph, dense_laplacian, is_connected
from .trees import SpanningTree, TreeError, tree_spans


@dataclass
class SpectralSummary:
    """Sorted nonzero generalized eigenvalues of (L_G, L_T) and aggregates."""

    eigenvalues: np.ndarray  # ascending, length n-1
    trace: float
    lambda_min: float
    lambda_max: float

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "trace": self.trace,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("eigenvalue\n")
            for v in self.eigenvalues:
                fh.write(f"{float(v)!r}\n")


def dense_tree_laplacian(t: SpanningTree) -> np.ndarray:
    return dense_laplacian(WeightedGraph(t.n, t.edges), cap=t.n)


def _tree_path_factor(t: SpanningTree) -> np.ndarray:
    """F = R[:, non-root] / sqrt(parent weights), so F F^T is L_T^{-1} grounded
    at the root.  u lies in the subtree of c iff slot[c] <= slot[u] <=
    last[slot[c]], so R is two broadcast comparisons, made in F's own
    buffer."""
    c = np.flatnonzero(np.arange(t.n) != t.root)
    s = t.slot[:, None]
    F = np.less_equal(t.slot[c], s, out=np.empty((t.n, len(c))))
    F *= s <= t.last[t.slot[c]]
    F /= np.sqrt(t.parent_weight[c])
    return F


def generalized_spectrum(
    g: WeightedGraph, t: SpanningTree, cap: int = DEFAULT_DENSE_CAP
) -> SpectralSummary:
    """All n-1 nonzero generalized eigenvalues of (L_G, L_T), dense."""
    if g.n > cap:
        raise GraphError(f"n={g.n} exceeds dense cap {cap}")
    if not is_connected(g):
        raise GraphError("graph must be connected")
    if not tree_spans(g, t):
        raise TreeError("tree does not span the graph with matching weights")
    LG = dense_laplacian(g, cap=cap)
    F = _tree_path_factor(t)
    M = F.T @ LG @ F
    ev = np.linalg.eigvalsh(0.5 * (M + M.T))
    if len(ev) != g.n - 1:
        raise RuntimeError("eigensolver returned an unexpected number of eigenvalues")
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
