"""Iterations grow much more slowly than the problem size.

A sweep over square grids shows observed PCG iterations staying within the
stretch-only bound while the iterations-per-edge ratio falls steadily,
which is the practical content of tree preconditioning: per-iteration cost
is O(m) + O(n), and the iteration count grows far more slowly than m.
The exponents fitted under the table are plain CG's: about 0.41 on the
stretch and 0.51 on m here, so the count is within the bound without
following the paper's st^(1/3) rate.
"""
import numpy as np

from treepcg.cli import run_scaling

rows = run_scaling(
    [f"grid:{s}x{s}:unit" for s in range(10, 71, 10)],
    tree_method="akpw",
    epsilon=1e-8,
    seeds=[0],
)
print(f"{'m':>7} {'stretch':>11} {'st^(1/3)':>9} {'iters':>6} {'bound':>6} {'iters/m':>8}")
for r in rows:
    print(f"{r['m']:>7} {r['stretch_total']:>11.0f} {r['stretch_cbrt']:>9.2f} "
          f"{r['iterations']:>6} {r['k_bound']:>6} {r['iterations'] / r['m']:>8.4f}")


def slope(key):
    """The least-squares slope of log(iterations) on log(row[key])."""
    return np.polyfit(np.log([r[key] for r in rows]), np.log([r["iterations"] for r in rows]), 1)[0]


print(f"fitted exponent of iterations: {slope('stretch_total'):.2f} on stretch, {slope('m'):.2f} on m")
