"""The measured flows.  Runs as a process of its own, so that its peak memory
is the program's and not the benchmark's:

    python3 perfbench/flows.py JOB.json

The job file names the workload, its input files, the measurement window and
whether to trace.  The process imports the package, runs one warm-up
operation on tiny inputs, then runs operations back to back (a closed loop
with one client) until the window is used up.  With tracing on, every second
operation is traced and the others are not, so the difference between the two
is the tracing overhead.  Each operation writes its outputs under its own
prefix; the parent process checks them.  Timings go to ``result.json`` and
spans to ``trace.jsonl`` in the job's directory.
"""
from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter


def solve_flow(tp, inputs, prefix):
    """``treepcg solve``: read -> maxw tree -> stretch -> factor -> PCG -> write."""
    eps = inputs["epsilon"]
    t0 = perf_counter()
    g = tp.read_edge_list(inputs["graph"])
    if not tp.is_connected(g):
        raise RuntimeError("graph must be connected")
    b = tp.read_vector(inputs["rhs"])
    t = tp.max_weight_spanning_tree(g)
    rep = tp.stretch_report(g, t)
    f = tp.factor(t)
    t1 = perf_counter()
    out = tp.pcg_solve(g, f, b, tp.PcgConfig(epsilon=eps, max_iterations=max(4 * g.n, 100)))
    t2 = perf_counter()
    tp.write_vector(out.x, prefix + ".x")
    sidecar = {
        "iterations": out.iterations,
        "converged": out.converged,
        "final_residual": out.final_residual,
        "stretch_total": rep.total,
        "centered_input": out.centered_input,
        "epsilon": eps,
        "tree_method": "maxw",
    }
    with open(prefix + ".x.json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
    t3 = perf_counter()
    return {
        "setup_s": t1 - t0,
        "solve_s": t2 - t1,
        "total_s": t3 - t0,
        "stretch_total": rep.total,
        "iterations": out.iterations,
        "bound_stretch_only": tp.stretch_only_bound(rep.total, eps).k_bound,
    }, None


def stretch_flow(tp, inputs, prefix):
    """``treepcg stretch --graph FILE --tree akpw --out``: read -> akpw tree
    -> stretch report -> write the CSV and the JSON summary."""
    t0 = perf_counter()
    g = tp.read_edge_list(inputs["graph"])
    if not tp.is_connected(g):
        raise RuntimeError("graph must be connected")
    t = tp.low_stretch_heuristic_tree(g, inputs["tree_seed"])
    rep = tp.stretch_report(g, t)
    t1 = perf_counter()
    rep.write_csv(prefix + ".csv")
    rep.write_json_summary(prefix + ".json")
    t2 = perf_counter()
    return {"setup_s": t1 - t0, "total_s": t2 - t0, "stretch_total": rep.total}, t


def verify_flow(tp, inputs, prefix):
    """``treepcg verify`` over every (spec, tree) group.  The set-up pass
    builds what each oracle run builds before its checks (graph, tree,
    stretch, factor); then ``run_verify`` certifies each group and its report
    is written."""
    from treepcg import cli

    seeds = inputs["seeds"]
    t0 = perf_counter()
    for spec, method in inputs["groups"]:
        for seed in seeds:
            g = tp.generate(spec, seed)
            if method == "maxw":
                t = tp.max_weight_spanning_tree(g)
            else:
                t = tp.low_stretch_heuristic_tree(g, seed)
            tp.stretch_report(g, t)
            tp.factor(t)
    t1 = perf_counter()
    group_s = []
    reports = []
    for k, (spec, method) in enumerate(inputs["groups"]):
        tg = perf_counter()
        report = cli.run_verify(
            cli.ExperimentSpec(generator=spec, tree_method=method, epsilon=inputs["epsilon"], seeds=seeds)
        )
        with open(f"{prefix}.{k}.json", "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        group_s.append(perf_counter() - tg)
        reports.append(report)
    t2 = perf_counter()
    records = [r for rep in reports for r in rep["records"]]
    return {
        "setup_s": t1 - t0,
        "certify_s": t2 - t1,
        "total_s": t2 - t0,
        "group_s": group_s,
        "stretch_total": sum(r["stretch_total"] for r in records),
        "bound_stretch_only": sum(r["bound_stretch_only"] for r in records),
    }, None


FLOWS = {"solve": solve_flow, "stretch": stretch_flow, "verify": verify_flow}


def calibration_s(np) -> float:
    """Duration of a fixed reference kernel that does not touch treepcg:
    an interpreter loop over a dict, numpy scatter-adds and small dense
    eigensolves, the three kinds of work the flows do.  The minimum of two
    passes, so a single interrupt does not count."""
    n = 100_000
    x = np.arange(n, dtype=np.float64)
    idx = (np.arange(n) * 7919) % n
    a = np.cos(np.arange(160 * 160, dtype=np.float64)).reshape(160, 160)
    a = a + a.T
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        s = 0.0
        d = {}
        for i in range(n):
            s += i * 0.5
            d[i & 1023] = s
        for _ in range(10):
            y = np.zeros(n)
            np.add.at(y, idx, x)
        for _ in range(5):
            np.linalg.eigvalsh(a)
        best = min(best, perf_counter() - t0)
    return best


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    t_import = perf_counter()
    import numpy as np
    import treepcg as tp
    import treepcg.cli  # noqa: F401

    import spans

    import_s = perf_counter() - t_import
    flow = FLOWS[job["flow"]]
    outdir = job["outdir"]

    t_warm = perf_counter()
    flow(tp, job["warmup"], os.path.join(outdir, "warmup"))
    warmup_s = perf_counter() - t_warm

    tracer = spans.Tracer()
    ops = []
    min_ops = 2 if job["trace"] else 1
    probes = [calibration_s(np)]
    loop_start = perf_counter()
    while True:
        i = len(ops)
        traced = bool(job["trace"]) and i % 2 == 1
        prefix = os.path.join(outdir, f"op{i}")
        t_op = perf_counter()
        if traced:
            with tracer.recording(i):
                rec, tree = flow(tp, job["inputs"], prefix)
        else:
            rec, tree = flow(tp, job["inputs"], prefix)
        rec["wall_s"] = perf_counter() - t_op
        rec["traced"] = traced
        if tree is not None:
            np.savez(prefix + ".tree.npz", parent=tree.parent, parent_weight=tree.parent_weight)
        probes.append(calibration_s(np))
        rec["calibration_s"] = 0.5 * (probes[-2] + probes[-1])
        ops.append(rec)
        elapsed = perf_counter() - loop_start
        if len(ops) >= min_ops and elapsed + rec["wall_s"] > job["seconds"]:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(outdir, "trace.jsonl"), "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump({"import_s": import_s, "warmup_s": warmup_s, "peak_rss_mb": peak_rss_mb, "ops": ops}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
