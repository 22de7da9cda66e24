"""Tree Laplacian pseudo-inverse solves as flows and potentials.

For a mean-zero load b on a tree, x = L_T^+ b is the potential of the tree
flow that b drives.  The flow on the edge from v to its parent is the sum of
b over the subtree of v; the potential drop across that edge is the flow
divided by the edge weight; and the potential of v is the sum of the drops on
its root path (the root sits at 0, and the result is centred at the end).
This is leaf elimination read off directly: eliminating leaves first makes
every pivot equal to its parent-edge weight.

``factor`` takes the DFS-preorder layout that ``SpanningTree.preorder_layout``
builds and caches, in which every subtree is a contiguous range of slots.  A
solve is then a handful of whole-array calls: subtree sums are differences of
one prefix sum of b, and root-path sums are one more prefix sum of the drops,
from which each drop is taken out again right after its subtree ends.  Both
cost O(n), with no per-vertex Python code.
"""
from __future__ import annotations

import numpy as np

from .trees import SpanningTree


class TreeSolveError(ValueError):
    """Dimension mismatch in a tree solve."""


class TreeFactorization:
    """DFS-preorder layout of a tree Laplacian (rank n-1).

    ``preorder`` lists the vertices in DFS preorder and ``slot`` maps a vertex
    to its place in it; the subtree at slot p is ``preorder[p : last[p] + 1]``,
    and ``weight[p]`` is the weight of the edge from slot p to its parent.
    ``perm`` is the tree's BFS order (root first).
    """

    __slots__ = ("n", "root", "perm", "preorder", "slot", "last", "weight")

    def __init__(self, n, root, perm, preorder, slot, last, weight):
        self.n = n
        self.root = root
        self.perm = perm
        self.preorder = preorder
        self.slot = slot
        self.last = last
        self.weight = weight

    @property
    def elimination_order(self) -> list:
        """Non-root vertices, children before parents (reverse BFS order)."""
        return self.perm[:0:-1].tolist()

    @property
    def pivot(self) -> list:
        """Leaf-elimination pivots by BFS position: the parent-edge weights,
        with 0 at the root."""
        pivot = self.weight[self.slot[self.perm]]
        pivot[0] = 0.0
        return pivot.tolist()


def factor(t: SpanningTree) -> TreeFactorization:
    """The tree's DFS-preorder layout, set up for flow-and-potential solves;
    O(n)."""
    preorder, slot, last = t.preorder_layout()
    return TreeFactorization(
        n=t.n,
        root=t.root,
        perm=t.order,
        preorder=preorder,
        slot=slot,
        last=last,
        weight=t.parent_weight[preorder],
    )


def pseudo_solve(f: TreeFactorization, b) -> np.ndarray:
    """Apply the tree Laplacian pseudo-inverse: x = L^+ (b - mean(b))."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (f.n,):
        raise TreeSolveError(f"vector length {b.shape} does not match n={f.n}")
    # sum()/n is mean() without its per-call overhead, and bit-identical
    prefix = np.cumsum(b[f.preorder] - b.sum() / f.n)
    # slots 1..n-1: the flow on the parent edge is the load on the subtree
    # range [p, last[p]], and the potential drop across the edge is flow/weight
    drop = np.zeros(f.n)
    np.subtract(prefix[f.last[1:]], prefix[:-1], out=drop[1:])
    drop[1:] /= f.weight[1:]
    # the potential at a slot sums the drops of the ranges that contain it:
    # each drop enters at its own slot and leaves right after its range ends
    exits = np.bincount(f.last[1:], weights=drop[1:], minlength=f.n)
    drop[1:] -= exits[:-1]
    x = np.cumsum(drop)[f.slot]
    x -= x.sum() / f.n
    return x
