"""Dense brute-force oracle for the preconditioned spectrum at desk scale.

Computes the nonzero generalized eigenvalues of (L_G, L_T) as the spectrum of
L_T^{+/2} L_G L_T^{+/2} restricted to the mean-zero subspace.  The all-ones
direction is the shared nullspace of both Laplacians, so it is deflated
explicitly by projection onto an orthonormal basis of its complement instead
of discarding a numerically indeterminate eigenvalue.  Everything here is
O(n^3) and capped; it certifies claims, it does not scale.
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


def _mean_zero_basis(n: int) -> np.ndarray:
    """Orthonormal n x (n-1) basis of the complement of the all-ones vector."""
    A = np.eye(n) - np.full((n, n), 1.0 / n)
    Q, _ = np.linalg.qr(A[:, : n - 1])
    return Q


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
    LT = dense_tree_laplacian(t)
    w, V = np.linalg.eigh(LT)
    thresh = 1e-12 * w[-1]
    inv_sqrt = np.where(w > thresh, 1.0 / np.sqrt(np.maximum(w, thresh)), 0.0)
    Ltph = (V * inv_sqrt) @ V.T
    M = Ltph @ LG @ Ltph
    M = 0.5 * (M + M.T)
    Q = _mean_zero_basis(g.n)
    ev = np.linalg.eigvalsh(Q.T @ M @ Q)
    ev = np.sort(ev)
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
