"""Tree Laplacian pseudo-inverse solves as flows and potentials.

For a mean-zero load b on a tree, x = L_T^+ b is the potential of the tree
flow that b drives.  The flow on the edge from v to its parent is the sum of
b over the subtree of v; the potential drop across that edge is the flow
divided by the edge weight; and the potential of v is the sum of the drops on
its root path (the root sits at 0, and the result is centred at the end).
This is leaf elimination read off directly: eliminating leaves first makes
every pivot equal to its parent-edge weight.

``factor`` takes the DFS-preorder layout that ``SpanningTree`` builds
once, in which every subtree is a contiguous range of slots.  A solve is
then two halves of a few whole-array calls each, both O(n) with no
per-vertex Python code: ``subtree_sums`` (R^T) takes subtree sums as
differences of one prefix sum, and ``root_path_sums`` (R) takes root-path sums
as one more prefix sum of the drops, from which each drop is taken out again
right after its subtree ends.  ``pseudo_solve`` is R W^{-1} R^T between a
gather into slot order and a gather back; PCG calls the two halves on their
own, in slot order, with W^{-1/2} on each side (see ``pcg``).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:       # trees imports root_path_sums, for tree depths, from here
    from .trees import SpanningTree


class TreeSolveError(ValueError):
    """Dimension mismatch in a tree solve."""


class TreeFactorization:
    """DFS-preorder layout of a tree Laplacian (rank n-1).

    ``preorder`` lists the vertices in DFS preorder and ``slot`` maps a vertex
    to its place in it; the subtree at slot p is ``preorder[p : last[p] + 1]``,
    ``up[p]`` is the slot of the parent of slot p (-1 at the root), and
    ``weight[p]`` is the weight of the edge between them.
    """

    __slots__ = ("n", "root", "preorder", "slot", "last", "up", "weight")

    def __init__(self, n, root, preorder, slot, last, up, weight):
        self.n = n
        self.root = root
        self.preorder = preorder
        self.slot = slot
        self.last = last
        self.up = up
        self.weight = weight

    @property
    def elimination_order(self) -> list:
        """Non-root vertices, children before parents (reverse preorder)."""
        return self.preorder[:0:-1].tolist()

    @property
    def pivot(self) -> list:
        """Leaf-elimination pivots by slot: the parent-edge weights, with 0
        at the root."""
        pivot = self.weight.copy()
        pivot[0] = 0.0
        return pivot.tolist()


def factor(t: SpanningTree) -> TreeFactorization:
    """The tree's DFS-preorder layout, set up for flow-and-potential solves:
    it shares the tree's arrays and adds the parent-edge weights in slot
    order; O(n)."""
    return TreeFactorization(
        n=t.n,
        root=t.root,
        preorder=t.order,
        slot=t.slot,
        last=t.last,
        up=t.up,
        weight=t.parent_weight[t.order],
    )


def subtree_sums(f: TreeFactorization, load) -> np.ndarray:
    """R^T: for each slot 1..n-1, the sum of ``load`` (given in slot order)
    over the subtree at that slot, by one prefix sum.  For a mean-zero load
    these are the tree flows on the parent edges."""
    prefix = np.cumsum(load)
    return prefix[f.last[1:]] - prefix[:-1]


def root_path_sums(f: TreeFactorization, drop) -> np.ndarray:
    """R: the potential at every slot, in slot order, given the drop across
    the parent edge of each slot 1..n-1; the potential at a slot is the sum
    of the drops on its root path, and the root sits at 0.  Each drop enters
    at its own slot and leaves right after its range ends, so this is one
    prefix sum."""
    exits = np.bincount(f.last[1:], weights=drop, minlength=f.n)
    steps = np.empty(f.n)
    steps[0] = 0.0
    np.subtract(drop, exits[:-1], out=steps[1:])
    return np.cumsum(steps, out=steps)


def pseudo_solve(f: TreeFactorization, b) -> np.ndarray:
    """Apply the tree Laplacian pseudo-inverse: x = L^+ (b - mean(b))."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (f.n,):
        raise TreeSolveError(f"vector length {b.shape} does not match n={f.n}")
    # sum()/n is mean() without its per-call overhead, and bit-identical
    flow = subtree_sums(f, b[f.preorder] - b.sum() / f.n)
    x = root_path_sums(f, flow / f.weight[1:])[f.slot]
    x -= x.sum() / f.n
    return x
