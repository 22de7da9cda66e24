"""treepcg benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The script generates the workload's inputs from the seed, runs the
measured flow in a child process (``flows.py``) for S seconds, checks every
output with the benchmark's own code, and prints one JSON object as its last
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Earlier lines repeat each metric with its unit and sample
count and record the environment.  Work files go to ``.perfbench_out/``.

Load model: batch compute as a closed loop, one client in one process; BLAS
runs on one thread.  See README.md for the workloads and the layer map.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150
EPSILON = 1e-8
# Timings are reported in seconds at a reference machine speed: each
# operation's wall time is scaled by CAL_REFERENCE_S over the duration of the
# fixed calibration kernel (flows.calibration_s) measured right before and
# after it.  On shared virtual CPUs the speed of the whole machine drifts by
# up to ~50% over seconds to minutes; the kernel drifts with it, so the
# ratio stays put while a program change still moves it.  20 ms is the
# kernel's duration on an unloaded 2-vCPU Intel Xeon VM, so scaled and wall
# seconds agree there.  Raw wall times are printed alongside.
CAL_REFERENCE_S = 0.02

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "solve-grid-logw": {
        "flow": "solve",
        "spec": "grid:120x120:logw",
        "warmup_spec": "grid:6x6:logw",
        "boundaries": [
            "graphs.read_edge_list", "graphs.laplacian_apply", "graphs.write", "trees.build",
            "trees.stretch_report", "treesolver.factor", "treesolver.pseudo_solve", "pcg.pcg_solve",
        ],
    },
    "stretch-regular-logw": {
        "flow": "stretch",
        "spec": "regular:n=30000,d=4:logw",
        "warmup_spec": "regular:n=40,d=4:logw",
        "boundaries": ["graphs.read_edge_list", "trees.build", "trees.stretch_report", "trees.report_write"],
    },
    "verify-desk": {
        "flow": "verify",
        "groups": [
            [spec, tree]
            for spec in ("grid:20x20:logw", "gnp:n=450,p=0.02:logw", "regular:n=400,d=4:unit")
            for tree in ("maxw", "akpw")
        ],
        "warmup_groups": [
            [spec, tree]
            for spec in ("grid:4x4:logw", "gnp:n=30,p=0.3:logw", "regular:n=20,d=4:unit")
            for tree in ("maxw", "akpw")
        ],
        "boundaries": [
            "graphs.generate", "graphs.laplacian_apply", "graphs.dense_laplacian", "trees.build",
            "trees.stretch_report", "treesolver.factor", "treesolver.pseudo_solve", "pcg.pcg_solve",
            "spectral.generalized_spectrum", "cli.run_verify",
        ],
    },
}

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphs.read_edge_list_s": "s",
    "graphs.generate_s": "s",
    "graphs.laplacian_apply_calls": "count",
    "graphs.laplacian_apply_s": "s",
    "graphs.laplacian_apply_us_per_call": "us",
    "graphs.dense_laplacian_s": "s",
    "graphs.write_s": "s",
    "trees.build_s": "s",
    "trees.stretch_report_s": "s",
    "trees.report_write_s": "s",
    "trees.stretch_total": "1",
    "trees.max_stretch": "1",
    "trees.depth": "count",
    "treesolver.factor_s": "s",
    "treesolver.pseudo_solve_calls": "count",
    "treesolver.pseudo_solve_s": "s",
    "treesolver.pseudo_solve_us_per_call": "us",
    "pcg.solve_s": "s",
    "pcg.iterations": "count",
    "pcg.self_s": "s",
    "pcg.matvec_share": "1",
    "pcg.precond_share": "1",
    "pcg.bound_stretch_only": "count",
    "pcg.iterations_over_bound": "1",
    "pcg.a_norm_error": "1",
    "spectral.generalized_spectrum_calls": "count",
    "spectral.generalized_spectrum_s": "s",
    "cli.verify_self_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_boundaries": "count",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# inputs


def prepare(tp, np, wl: dict, seed: int, workdir: str) -> tuple:
    """Write the workload's inputs and warm-up inputs; return (inputs,
    warmup inputs, seconds spent generating the measured inputs, context for
    the checks)."""
    if wl["flow"] == "verify":
        seeds = [2 * seed, 2 * seed + 1]
        inputs = {"groups": wl["groups"], "seeds": seeds, "epsilon": EPSILON}
        warmup = {"groups": wl["warmup_groups"], "seeds": [0], "epsilon": EPSILON}
        return inputs, warmup, None, {"seeds": seeds}

    def write_graph(spec, name):
        t0 = perf_counter()
        g = tp.generate(spec, seed)
        generate_s = perf_counter() - t0
        path = os.path.join(workdir, name + ".edges")
        tp.write_edge_list(g, path)
        inputs = {"graph": path, "epsilon": EPSILON, "tree_seed": seed}
        if wl["flow"] == "solve":
            b = np.random.default_rng([seed, 0xB0]).standard_normal(g.n)
            b -= b.mean()
            inputs["rhs"] = path + ".rhs"
            tp.write_vector(b, inputs["rhs"])
            return inputs, generate_s, (g, b)
        return inputs, generate_s, (g, None)

    warmup, _, _ = write_graph(wl["warmup_spec"], "warmup")
    inputs, generate_s, (g, b) = write_graph(wl["spec"], "input")
    return inputs, warmup, generate_s, {"graph": g, "rhs": b}


# ---------------------------------------------------------------------------
# checks


def output_files(wl: dict, prefix: str) -> list:
    if wl["flow"] == "solve":
        return [prefix + ".x", prefix + ".x.json"]
    if wl["flow"] == "stretch":
        return [prefix + ".csv", prefix + ".json", prefix + ".tree.npz"]
    return [f"{prefix}.{k}.json" for k in range(len(wl["groups"]))]


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def make_checker(np, checks, wl: dict, ctx: dict):
    """Return check(prefix) -> (failures, facts) for one operation's outputs."""
    if wl["flow"] == "solve":
        g = ctx["graph"]
        L = checks.laplacian_csr(g.n, g.edge_u, g.edge_v, g.edge_w)
        x_ref = checks.reference_solution(L, ctx["rhs"])

        def check(prefix):
            failures, err = checks.check_solution(L, x_ref, prefix + ".x", prefix + ".x.json", EPSILON)
            return failures, {"a_norm_error": err}

        return check

    if wl["flow"] == "stretch":
        g = ctx["graph"]
        edges = (g.edge_u, g.edge_v, g.edge_w)

        def check(prefix):
            tree = np.load(prefix + ".tree.npz")
            rng = np.random.default_rng(0x57)
            failures = checks.check_stretch(
                edges, tree["parent"], tree["parent_weight"], prefix + ".csv", prefix + ".json", 500, rng
            )
            return failures, {}

        return check

    def check(prefix):
        failures = []
        for k in range(len(wl["groups"])):
            with open(f"{prefix}.{k}.json") as fh:
                failures += checks.check_verify_report(json.load(fh), ctx["seeds"])
        return failures, {}

    return check


def check_ops(np, checks, wl, ctx, outdir, ops) -> tuple:
    """Check every operation's outputs; outputs byte-identical to ones
    already checked share that verdict.  Returns (failed count, messages,
    facts per op)."""
    check = make_checker(np, checks, wl, ctx)
    verdicts = {}
    failed = 0
    messages = []
    facts = []
    for i in range(len(ops)):
        key = digest(output_files(wl, os.path.join(outdir, f"op{i}")))
        if key in verdicts:
            first, op_failures, op_facts = verdicts[key]
            op_failures = [f"outputs identical to op {first}, which failed"] if op_failures else []
        else:
            op_failures, op_facts = check(os.path.join(outdir, f"op{i}"))
            verdicts[key] = (i, op_failures, op_facts)
        if op_failures:
            failed += 1
            messages += [f"op {i}: {m}" for m in op_failures]
        facts.append(op_facts)
    return failed, messages, facts


# ---------------------------------------------------------------------------
# metrics


def scaled(op: dict, key: str) -> float:
    """An operation's timing in seconds at the reference speed."""
    return op[key] * CAL_REFERENCE_S / op["calibration_s"]


def end_to_end(spans, ops, result) -> dict:
    return {
        "setup_s": spans.median([scaled(o, "setup_s") for o in ops]),
        "total_s": spans.median([scaled(o, "total_s") for o in ops]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_metrics_for_op(spans, trace, op, facts) -> dict:
    """Per-layer metrics of one traced operation, timings unscaled."""
    named = spans.by_name(trace)

    def total(name):
        return named[name]["total_s"] if name in named else 0.0

    def calls(name):
        return named[name]["calls"] if name in named else 0

    def us_per_call(name):
        return spans.median(named[name]["durations"]) * 1e6 if name in named else 0.0

    def meta(name, key):
        return [m[key] for m in named[name]["meta"] if m.get(key) is not None] if name in named else []

    pcg_s = total("pcg.pcg_solve")
    iterations = sum(meta("pcg.pcg_solve", "iterations"))
    bound = op.get("bound_stretch_only", 0)
    a_norm = meta("pcg.pcg_solve", "a_norm_error") + (
        [facts["a_norm_error"]] if "a_norm_error" in facts else []
    )
    return {
        "graphs.read_edge_list_s": total("graphs.read_edge_list"),
        "graphs.generate_s": total("graphs.generate"),
        "graphs.laplacian_apply_calls": calls("graphs.laplacian_apply"),
        "graphs.laplacian_apply_s": total("graphs.laplacian_apply"),
        "graphs.laplacian_apply_us_per_call": us_per_call("graphs.laplacian_apply"),
        "graphs.dense_laplacian_s": total("graphs.dense_laplacian"),
        "graphs.write_s": total("graphs.write"),
        "trees.build_s": total("trees.build"),
        "trees.stretch_report_s": total("trees.stretch_report"),
        "trees.report_write_s": total("trees.report_write"),
        "trees.stretch_total": op["stretch_total"],
        "trees.max_stretch": max(meta("trees.stretch_report", "max_stretch"), default=0.0),
        "trees.depth": max(meta("trees.build", "depth"), default=0),
        "treesolver.factor_s": total("treesolver.factor"),
        "treesolver.pseudo_solve_calls": calls("treesolver.pseudo_solve"),
        "treesolver.pseudo_solve_s": total("treesolver.pseudo_solve"),
        "treesolver.pseudo_solve_us_per_call": us_per_call("treesolver.pseudo_solve"),
        "pcg.solve_s": pcg_s,
        "pcg.iterations": iterations,
        "pcg.self_s": named["pcg.pcg_solve"]["self_s"] if "pcg.pcg_solve" in named else 0.0,
        "pcg.matvec_share": spans.child_time(trace, "pcg.pcg_solve", "graphs.laplacian_apply") / pcg_s if pcg_s else 0.0,
        "pcg.precond_share": spans.child_time(trace, "pcg.pcg_solve", "treesolver.pseudo_solve") / pcg_s if pcg_s else 0.0,
        "pcg.bound_stretch_only": bound,
        "pcg.iterations_over_bound": iterations / bound if bound else 0.0,
        "pcg.a_norm_error": max(a_norm, default=0.0),
        "spectral.generalized_spectrum_calls": calls("spectral.generalized_spectrum"),
        "spectral.generalized_spectrum_s": total("spectral.generalized_spectrum"),
        "cli.verify_self_s": named["cli.run_verify"]["self_s"] if "cli.run_verify" in named else 0.0,
    }


def per_layer(spans, wl, trace_spans, ops, facts, generate_s) -> tuple:
    """Median over traced operations of each per-layer metric, plus the
    tracing overhead and the named boundaries that recorded no call."""
    per_op = []
    seen = set()
    for i, op in enumerate(ops):
        if not op["traced"]:
            continue
        trace = [s for s in trace_spans if s["run_id"] == i]
        seen.update(s["name"] for s in trace)
        raw = layer_metrics_for_op(spans, trace, op, facts[i])
        scale = CAL_REFERENCE_S / op["calibration_s"]
        per_op.append({k: v * scale if PER_LAYER[k] in ("s", "us") else v for k, v in raw.items()})
    metrics = {k: spans.median([m[k] for m in per_op]) for k in per_op[0]}
    if generate_s is not None:
        # solve and stretch inputs are generated by this process, unscaled
        metrics["graphs.generate_s"] = generate_s
    traced = [scaled(o, "total_s") for o in ops if o["traced"]]
    untraced = [scaled(o, "total_s") for o in ops if not o["traced"]]
    metrics["trace.overhead_s"] = spans.median(traced) - spans.median(untraced)
    missing = [b for b in wl["boundaries"] if b not in seen]
    metrics["trace.missing_boundaries"] = len(missing)
    layers = spans.by_layer(trace_spans)
    return metrics, missing, {k: v / len(per_op) for k, v in layers.items()}


# ---------------------------------------------------------------------------
# environment


def git_commit():
    """The checkout's commit, when it is a git work tree; None otherwise."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(np, scipy, seed) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        return fail("--seconds must be positive")
    if args.seed < 0:
        return fail("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "treepcg", "__init__.py")):
        return fail(f"no package source at {SRC}/treepcg; run from a treepcg checkout")

    os.environ.update(BLAS_ENV)
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy
    import treepcg as tp

    import checks
    import spans

    if not os.path.abspath(tp.__file__).startswith(SRC + os.sep):
        return fail(f"imported treepcg from {tp.__file__}, not from {SRC}")

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs, warmup, generate_s, ctx = prepare(tp, np, wl, args.seed, workdir)

    job = {
        "flow": wl["flow"],
        "inputs": inputs,
        "warmup": warmup,
        "seconds": args.seconds,
        "trace": args.trace,
        "outdir": workdir,
    }
    job_path = os.path.join(workdir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "flows.py"), job_path],
            env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return fail(f"measured flow did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        return fail(f"measured flow exited with code {proc.returncode}")
    with open(os.path.join(workdir, "result.json")) as fh:
        result = json.load(fh)
    ops = result["ops"]

    failed, messages, facts = check_ops(np, checks, wl, ctx, workdir, ops)
    for m in messages:
        print(f"check failed: {m}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {failed} failed, failed_ratio {failed / len(ops)!r}")
    print(f"  import_s {result['import_s']!r} s, warmup_s {result['warmup_s']!r} s (excluded from timings)")
    if args.trace:
        with open(os.path.join(workdir, "trace.jsonl")) as fh:
            trace_spans = [json.loads(line) for line in fh]
        metrics, missing, layer_self = per_layer(spans, wl, trace_spans, ops, facts, generate_s)
        units = PER_LAYER
        for layer, s in sorted(layer_self.items()):
            print(f"  self time per traced operation (wall): {layer} {s!r} s")
        if missing:
            print(f"  missing boundaries (zero calls): {', '.join(missing)}")
    else:
        metrics = end_to_end(spans, ops, result)
        units = END_TO_END
        for name in ("setup_s", "total_s", "solve_s", "certify_s"):
            if name in ops[0]:
                print(f"  {name} wall {spans.describe([o[name] for o in ops])}")
                print(f"  {name} scaled {spans.describe([scaled(o, name) for o in ops])}")
        print(f"  stretch_total {spans.describe([o['stretch_total'] for o in ops])}")
        if "iterations" in ops[0]:
            print(f"  pcg_iterations {spans.describe([o['iterations'] for o in ops])}")
        print(f"  calibration_s {spans.describe([o['calibration_s'] for o in ops])}")
        if generate_s is not None:
            print(f"  input generation {generate_s!r} s (not in setup_s)")
    for name, unit in units.items():
        print(f"  {name} {metrics[name]!r} {unit}")
    print(f"env {json.dumps(environment(np, scipy, args.seed), sort_keys=True)}")

    for name in os.listdir(workdir):
        if name not in ("job.json", "result.json", "trace.jsonl"):
            os.remove(os.path.join(workdir, name))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
