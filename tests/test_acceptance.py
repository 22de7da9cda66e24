"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line (visible with ``pytest -s`` or in the captured output).
The instance pool is shared across the spectral criteria; everything is
seeded and deterministic.
"""
import gc
import math
import time

import numpy as np
import pytest

from treepcg import (
    PcgConfig,
    SpanningTree,
    dense_laplacian,
    dense_tree_laplacian,
    exact_spectrum_bound,
    factor,
    generalized_spectrum,
    generate,
    low_stretch_heuristic_tree,
    max_weight_spanning_tree,
    path_resistance,
    pcg_solve,
    pseudo_solve,
    stretch_report,
    tail_count,
    stretch_only_bound,
)
from treepcg.cli import run_scaling

from conftest import random_tree


def _report(num, name, failures, context=""):
    ok = not failures
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {context}")
    assert ok, f"criterion {num} ({name}) failures: {failures[:5]}"


_GRAPH_SPECS = [
    "grid:5x5", "grid:8x7", "grid:10x10", "grid:13x11", "grid:14x14", "grid:6x9",
    "gnp:n=30,p=0.15", "gnp:n=60,p=0.08", "gnp:n=80,p=0.06",
    "gnp:n=100,p=0.05", "gnp:n=150,p=0.035", "gnp:n=200,p=0.025",
    "regular:n=20,d=3", "regular:n=50,d=4", "regular:n=100,d=3",
    "regular:n=150,d=4", "regular:n=200,d=3",
]


@pytest.fixture(scope="module")
def pool():
    """>= 200 (graph, tree) pairs with stretch reports and exact spectra."""
    t0 = time.perf_counter()
    instances = []
    for spec in _GRAPH_SPECS:
        for weighting in ("unit", "logw"):
            for seed in (0, 1, 2):
                g = generate(f"{spec}:{weighting}", seed)
                assert g.n <= 200
                for method in ("maxw", "akpw"):
                    t = (
                        max_weight_spanning_tree(g)
                        if method == "maxw"
                        else low_stretch_heuristic_tree(g, seed)
                    )
                    rep = stretch_report(g, t)
                    s = generalized_spectrum(g, t)
                    instances.append(
                        {
                            "name": f"{spec}:{weighting}/s{seed}/{method}",
                            "g": g,
                            "t": t,
                            "total": rep.total,
                            "s": s,
                        }
                    )
    build_time = time.perf_counter() - t0
    assert len(instances) >= 200
    return {"instances": instances, "build_time": build_time}


def test_criterion_1_trace_identity(pool):
    t0 = time.perf_counter()
    failures = []
    for inst in pool["instances"]:
        diff = abs(inst["s"].trace - inst["total"])
        if diff > 1e-9 * max(1.0, inst["total"]):
            failures.append((inst["name"], diff))
    elapsed = pool["build_time"] + (time.perf_counter() - t0)
    if elapsed >= 120.0:
        failures.append(("runtime", elapsed))
    _report(
        1,
        "trace identity trace(L_G L_T^+) = total stretch",
        failures,
        f"({len(pool['instances'])} instances, {elapsed:.1f}s)",
    )


def test_criterion_2_tail_counts(pool):
    failures = []
    for inst in pool["instances"]:
        s = inst["s"]
        grid = np.logspace(0.0, math.log10(2.0 * s.lambda_max), 20)
        for thr in grid:
            if tail_count(s, float(thr)) > inst["total"] / float(thr):
                failures.append((inst["name"], float(thr)))
    _report(2, "eigenvalue tail count <= stretch / t", failures)


def test_criterion_3_spectral_bounds(pool):
    failures = []
    for inst in pool["instances"]:
        s = inst["s"]
        if s.lambda_min < 1.0 - 1e-9:
            failures.append((inst["name"], "lambda_min", s.lambda_min))
        if s.lambda_max > inst["total"] * (1.0 + 1e-9):
            failures.append((inst["name"], "lambda_max", s.lambda_max))
    _report(3, "lambda_min >= 1 and lambda_max <= total stretch", failures)


@pytest.fixture(scope="module")
def pcg_instances(pool):
    """>= 50 pool instances at n <= 150 with dense ground-truth solves."""
    chosen = []
    for idx, inst in enumerate(pool["instances"]):
        if inst["g"].n > 150:
            continue
        if idx % 3 == 0 and len(chosen) < 55:
            g = inst["g"]
            rng = np.random.default_rng([len(chosen), 0xACC])
            b = rng.standard_normal(g.n)
            b -= b.mean()
            x_true = np.linalg.pinv(dense_laplacian(g)) @ b
            chosen.append({**inst, "b": b, "x_true": x_true, "f": factor(inst["t"])})
    assert len(chosen) >= 50
    return chosen


def test_criterion_4_exact_spectrum_iteration_bound(pcg_instances):
    failures = []
    for inst in pcg_instances:
        for eps in (1e-4, 1e-8):
            bound = exact_spectrum_bound(inst["s"], inst["total"], eps)
            cfg = PcgConfig(
                epsilon=eps,
                max_iterations=bound.k_bound,
                residual_tolerance=0.0,
                reorthogonalize=True,
            )
            out = pcg_solve(inst["g"], inst["f"], inst["b"], cfg, x_true=inst["x_true"])
            if out.a_norm_error > eps:
                failures.append((inst["name"], eps, bound.k_bound, out.a_norm_error))
    _report(
        4,
        "A-norm error <= eps after k iterations from the exact spectrum",
        failures,
        f"({len(pcg_instances)} instances x 2 epsilons)",
    )


def test_criterion_5_stretch_bound_compliance(pcg_instances):
    failures = []
    for inst in pcg_instances:
        for eps in (1e-4, 1e-8):
            bound = stretch_only_bound(inst["total"], eps)
            cfg = PcgConfig(
                epsilon=eps,
                max_iterations=4 * inst["g"].n,
                record_history=True,
            )
            out = pcg_solve(inst["g"], inst["f"], inst["b"], cfg, x_true=inst["x_true"])
            observed = next(
                (k for k, e in enumerate(out.a_norm_history) if e <= eps), None
            )
            if observed is None or observed > bound.k_bound:
                failures.append((inst["name"], eps, observed, bound.k_bound))
    _report(5, "observed PCG iterations <= stretch-based bound", failures)


def test_criterion_6_tree_path_resistance_identity():
    rng = np.random.default_rng(202)
    failures = []
    triples = 0
    while triples < 1000:
        n = int(rng.integers(20, 201))
        weights = ["unit", "uniform", "logw"][triples % 3]
        t = random_tree(n, rng, weights=weights)
        Lp = np.linalg.pinv(dense_tree_laplacian(t))
        for _ in range(50):
            u, v = (int(a) for a in rng.integers(0, n, 2))
            x = np.zeros(n)
            x[u] += 1.0
            x[v] -= 1.0
            diff = abs(path_resistance(t, u, v) - float(x @ Lp @ x))
            if diff > 1e-10:
                failures.append((n, u, v, diff))
            triples += 1
    _report(6, "tree path resistance matches the pseudo-inverse quadratic form",
            failures, f"({triples} triples)")


def _bench_tree(kind, n, rng):
    if kind == "path":
        parent = np.arange(-1, n - 1)
    elif kind == "star":
        parent = np.zeros(n, dtype=np.int64)
        parent[0] = -1
    else:
        parent = np.empty(n, dtype=np.int64)
        parent[0] = -1
        parent[1:] = rng.integers(0, np.arange(1, n))
    return SpanningTree(parent, rng.uniform(0.5, 2.0, n))


def _timed_factor_solve(t, b):
    # the tree builds its DFS-preorder layout in __init__; build the tree
    # afresh, so that every timing includes the O(n) traversal and passes
    # that factor stands on
    t0 = time.perf_counter()
    f = factor(SpanningTree(t.parent, t.parent_weight, root=t.root))
    pseudo_solve(f, b)
    dt = time.perf_counter() - t0
    del f  # keep deallocation of the big work arrays outside every timing
    return dt


def test_criterion_7_tree_solver_linearity():
    rng = np.random.default_rng(77)
    failures = []
    for kind in ("path", "star", "random"):
        trees, vecs = {}, {}
        for p in range(14, 21):
            n = 1 << p
            trees[p] = _bench_tree(kind, n, rng)
            vecs[p] = rng.standard_normal(n)
            vecs[p] -= vecs[p].mean()
        gc.disable()
        try:
            for p in range(14, 21):  # warm-up round
                _timed_factor_solve(trees[p], vecs[p])
            rounds = [
                {p: _timed_factor_solve(trees[p], vecs[p]) for p in range(14, 21)}
                for _ in range(7)
            ]
        finally:
            gc.enable()
        # each round times n and 2n back to back, so a slow spell of the
        # machine that spans both cancels out of their ratio; the median over
        # rounds drops the rounds that a spell splits
        for p in range(14, 20):
            ratio = float(np.median([r[p + 1] / r[p] for r in rounds]))
            if not (1.6 <= ratio <= 2.6):
                failures.append((kind, f"2^{p}->2^{p + 1}", round(ratio, 2)))
    _report(7, "factor+solve wall time doubles when n doubles", failures)


def test_criterion_8_iterations_sublinear_in_m():
    rows = run_scaling(
        [f"grid:{s}x{s}:unit" for s in range(10, 101, 10)], "akpw", 1e-8, [0]
    )
    failures = []
    prev_ratio = None
    for r in rows:
        if r["iterations"] > r["k_bound"]:
            failures.append((r["m"], "iterations", r["iterations"], r["k_bound"]))
        ratio = r["iterations"] / r["m"]
        if prev_ratio is not None and ratio >= prev_ratio:
            failures.append((r["m"], "ratio", ratio, prev_ratio))
        prev_ratio = ratio
    _report(8, "iterations within bound and sublinear in m on grid sweep",
            failures, f"({len(rows)} sizes)")
