"""Max-weight Kruskal trees versus the clustering heuristic.

On a unit-weight grid every spanning tree has the same weight, so the
max-weight baseline degenerates to canonical tie-breaking and pays a large
total stretch.  The akpw tree (weight classes, clustered by random shifts
and contracted) does much better, and the gap is what drives PCG iteration
counts.
"""
import numpy as np

from treepcg import (
    generate,
    low_stretch_heuristic_tree,
    max_weight_spanning_tree,
    stretch_report,
)

g = generate("grid:30x30:unit", seed=0)
baseline = stretch_report(g, max_weight_spanning_tree(g))
print(f"30x30 unit grid, m = {g.m}")
print(f"max-weight baseline: total stretch {baseline.total:.0f}, "
      f"max {baseline.values.max():.0f}")

totals = []
for seed in range(20):
    rep = stretch_report(g, low_stretch_heuristic_tree(g, seed))
    totals.append(rep.total)
totals = np.array(totals)
print(f"clustering heuristic over 20 seeds: "
      f"min {totals.min():.0f}, median {np.median(totals):.0f}, max {totals.max():.0f}")
print(f"improvement factor at the median: {baseline.total / np.median(totals):.2f}x")
