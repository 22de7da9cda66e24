"""Correctness checks on the measured flows' outputs.

Each check uses the benchmark's own code, not the package's, for the quantity
it checks: the reference solution comes from a sparse direct solve on a
Laplacian assembled here from the edge arrays, and tree path resistances come
from walking parent links.  Every check returns a list of failure messages;
an empty list means the output passed.
"""
from __future__ import annotations

import json
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve


def laplacian_csr(n, u, v, w) -> sp.csr_matrix:
    u = np.asarray(u)
    v = np.asarray(v)
    w = np.asarray(w, dtype=np.float64)
    off = sp.coo_matrix((np.concatenate([-w, -w]), (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n))
    deg = np.bincount(u, weights=w, minlength=n) + np.bincount(v, weights=w, minlength=n)
    return (off + sp.diags(deg)).tocsr()


def reference_solution(L: sp.csr_matrix, b) -> np.ndarray:
    """Mean-zero solution of L x = b - mean(b), grounding vertex 0."""
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(L.shape[0])
    x[1:] = spsolve(L[1:, 1:].tocsc(), (b - b.mean())[1:])
    return x - x.mean()


def a_norm_rel_error(L: sp.csr_matrix, x, x_ref) -> float:
    d = np.asarray(x, dtype=np.float64) - x_ref
    d -= d.mean()  # L 1 = 0 exactly, but not in rounded arithmetic
    return math.sqrt(max(float(d @ (L @ d)), 0.0)) / math.sqrt(float(x_ref @ (L @ x_ref)))


def check_solution(L, x_ref, x_path, sidecar_path, epsilon):
    """The written solution is within ``epsilon`` of the reference in the
    A-norm, and its sidecar reports convergence.  Returns (failures, error)."""
    failures = []
    x = np.loadtxt(x_path, dtype=np.float64, ndmin=1)
    if x.shape != x_ref.shape:
        return [f"{x_path}: {x.shape[0]} entries, expected {x_ref.shape[0]}"], math.inf
    err = a_norm_rel_error(L, x, x_ref)
    if not err <= epsilon:
        failures.append(f"{x_path}: relative A-norm error {err:.3e} exceeds {epsilon:g}")
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    if sidecar.get("converged") is not True:
        failures.append(f"{sidecar_path}: solve did not converge")
    return failures, err


def tree_path_resistance(parent, parent_weight, depth, u: int, v: int) -> float:
    """Sum of 1/w along the u-v path, by walking both ends up to their meeting
    point."""
    r = 0.0
    while u != v:
        if depth[u] >= depth[v]:
            r += 1.0 / parent_weight[u]
            u = parent[u]
        else:
            r += 1.0 / parent_weight[v]
            v = parent[v]
    return r


def tree_depths(parent) -> np.ndarray:
    """Depth of every vertex; raises ValueError unless parent links form one
    tree rooted at the single vertex whose parent is -1."""
    parent = np.asarray(parent, dtype=np.int64)
    n = len(parent)
    roots = np.flatnonzero(parent == -1)
    if len(roots) != 1:
        raise ValueError(f"expected one root, found {len(roots)}")
    if np.any((parent < -1) | (parent >= n)):
        raise ValueError("parent id out of range")
    depth = [-1] * n
    depth[int(roots[0])] = 0
    parent = parent.tolist()
    for start in range(n):
        path = []
        u = start
        while depth[u] < 0:
            path.append(u)
            u = parent[u]
            if len(path) > n:
                raise ValueError("parent links contain a cycle")
        for k, x in enumerate(reversed(path), start=1):
            depth[x] = depth[u] + k
    return np.array(depth, dtype=np.int64)


def check_stretch(edges, parent, parent_weight, csv_path, json_path, sample: int, rng):
    """The CSV lists every input edge once, in canonical order, with
    per-edge stretches that sum to the JSON total; the tree spans the graph
    with matching weights; and a sample of per-edge stretches equals
    w * (tree path resistance).  ``edges`` is (u, v, w) in canonical order."""
    u, v, w = edges
    failures = []
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    with open(json_path) as fh:
        summary = json.load(fh)
    total = float(summary["total"])
    if rows.shape != (len(w), 4):
        return [f"{csv_path}: {rows.shape[0]} rows, expected {len(w)}"]
    if not (np.array_equal(rows[:, 0], u) and np.array_equal(rows[:, 1], v) and np.array_equal(rows[:, 2], w)):
        failures.append(f"{csv_path}: edges differ from the input graph")
    stretch = rows[:, 3]
    if abs(math.fsum(stretch) - total) > 1e-9 * max(1.0, abs(total)):
        failures.append(f"{json_path}: total {total!r} != sum of per-edge stretches {math.fsum(stretch)!r}")
    if abs(float(summary["max"]) - float(stretch.max())) > 1e-12 * float(stretch.max()):
        failures.append(f"{json_path}: max {summary['max']!r} != largest per-edge stretch")

    n = len(parent)
    try:
        depth = tree_depths(parent)
    except ValueError as exc:
        return failures + [f"tree: {exc}"]
    child = np.flatnonzero(parent >= 0)
    a = np.minimum(child, parent[child])
    b = np.maximum(child, parent[child])
    keys = u.astype(np.int64) * n + v.astype(np.int64)
    pos = np.searchsorted(keys, a * n + b)
    pos = np.minimum(pos, len(keys) - 1)
    if not (np.array_equal(keys[pos], a * n + b) and np.array_equal(w[pos], parent_weight[child])):
        failures.append("tree: some tree edge is not a graph edge with the same weight")
        return failures

    par = parent.tolist()
    pw = parent_weight.tolist()
    dep = depth.tolist()
    for i in rng.choice(len(w), size=min(sample, len(w)), replace=False).tolist():
        expect = w[i] * tree_path_resistance(par, pw, dep, int(u[i]), int(v[i]))
        if abs(stretch[i] - expect) > 1e-9 * max(1.0, expect):
            failures.append(f"{csv_path}: edge {i} stretch {stretch[i]!r} != w * path resistance {expect!r}")
    return failures


def check_verify_report(report: dict, seeds) -> list:
    """The oracle report covers every seed and records no failure."""
    failures = []
    records = report.get("records", [])
    if [r.get("seed") for r in records] != list(seeds):
        failures.append(f"{report['spec']['generator']}: records cover seeds {[r.get('seed') for r in records]}, expected {list(seeds)}")
    bad = [r["seed"] for r in records if not r.get("ok")]
    if report.get("failures") != 0 or bad:
        failures.append(
            f"{report['spec']['generator']} {report['spec']['tree_method']}: "
            f"{report.get('failures')} failed seeds {bad}"
        )
    return failures
