"""Tree Laplacian pseudo-inverse solves as flows and potentials.

For a mean-zero load b on a tree, x = L_T^+ b is the potential of the tree
flow that b drives.  The flow on the edge from v to its parent is the sum of
b over the subtree of v; the potential drop across that edge is the flow
divided by the edge weight; and the potential of v is the sum of the drops on
its root path (the root sits at 0, and the result is centred at the end).
This is leaf elimination read off directly: eliminating leaves first makes
every pivot equal to its parent-edge weight.

A solve reads only the DFS-preorder layout that ``SpanningTree`` builds
once, in which every subtree is a contiguous range of slots, so the tree is
its own factorization and ``factor`` returns it.  A solve is two halves of a
few whole-array calls each, both O(n) with no per-vertex Python code:
``subtree_sums`` (R^T) takes subtree sums as differences of one prefix sum,
and ``root_path_sums`` (R) takes root-path sums as one more prefix sum of the
drops, from which each drop is taken out again right after its subtree ends.
``pseudo_solve`` is R W^{-1} R^T between a gather into slot order and a gather
back, with W the parent-edge weights gathered into slot order; PCG calls the
two halves on their own, in slot order, with W^{-1/2} on each side (see
``pcg``).
"""
from __future__ import annotations

import numpy as np

from .trees import SpanningTree


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
