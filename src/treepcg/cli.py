"""Command-line driver: generation, stretch reports, solving, verification
sweeps, and iteration-scaling studies.

Reports are deterministic: identical spec + seed produce byte-identical
CSV/JSON output.  The exit code of ``verify`` is the single source of truth
for automated acceptance runs.  Config precedence is CLI flags > config file
> defaults; the config file is flat ``key = value`` text.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .graphs import (
    DEFAULT_DENSE_CAP,
    GraphError,
    _data_lines,
    across_cpus,
    dense_laplacian,
    generate,
    is_connected,
    open_output,
    parse_generator_spec,
    read_edge_list,
    read_vector,
    write_edge_list,
    write_json,
    write_vector,
)
from .pcg import PcgConfig, PcgError, factor, pcg_solve, snapped_root, stretch_only_bound
from .spectral import exact_spectrum_bound, generalized_spectrum, tail_count
from .trees import TreeError, low_stretch_heuristic_tree, max_weight_spanning_tree, stretch_report

TREE_METHODS = ("maxw", "akpw")
CHECKS = ("trace", "tails", "pcg-bound", "all")


class CliError(ValueError):
    """Bad command-line or config input."""


def _parse_seeds(text) -> list:
    try:
        seeds = [int(s) for s in str(text).split(",") if s != ""]
    except ValueError as exc:
        raise CliError(f"bad seeds list {text!r}") from exc
    _check_seeds(seeds, text)
    return seeds


def _check_seeds(seeds, shown) -> None:
    """Raise ``CliError``, naming the list as ``shown``, unless it holds at
    least one seed and every seed is a nonnegative ``int``."""
    if not seeds:
        raise CliError(f"bad seeds list {shown!r}: at least one seed is required")
    if any(not isinstance(s, int) or isinstance(s, bool) for s in seeds):
        raise CliError(f"bad seeds list {shown!r}")
    if any(s < 0 for s in seeds):
        raise CliError(f"bad seeds list {shown!r}: seeds must be nonnegative")


def _one_of(choices):
    """A parser that passes a value in ``choices`` and raises ValueError on any other."""
    return lambda text: choices[choices.index(text)]


def _epsilon(text) -> float:
    eps = float(text)
    if not (0.0 < eps < 1.0):
        raise CliError(f"epsilon must lie in (0, 1), got {eps}")
    return eps


# each option's (parser, default); a ValueError (CliError is one) is a bad value
_OPTIONS = {
    "tree": (_one_of(TREE_METHODS), "maxw"),
    "eps": (_epsilon, 1e-8),
    "seeds": (_parse_seeds, [0]),
    "dense_cap": (int, DEFAULT_DENSE_CAP),
    "checks": (_one_of(CHECKS), "all"),
}


@dataclass
class ExperimentSpec:
    generator: str
    tree_method: str = _OPTIONS["tree"][1]
    epsilon: float = _OPTIONS["eps"][1]
    seeds: list = field(default_factory=lambda: list(_OPTIONS["seeds"][1]))
    checks: str = _OPTIONS["checks"][1]
    dense_cap: int = _OPTIONS["dense_cap"][1]

    def __post_init__(self):
        if self.tree_method not in TREE_METHODS:
            raise CliError(f"unknown tree method {self.tree_method!r} (want maxw|akpw)")
        if self.checks not in CHECKS:
            raise CliError(f"unknown checks selector {self.checks!r}")
        _check_seeds(self.seeds, self.seeds)
        self.epsilon = _epsilon(self.epsilon)


def build_tree(g, method: str, seed: int):
    if method == "maxw":
        return max_weight_spanning_tree(g)
    if method == "akpw":
        return low_stretch_heuristic_tree(g, seed)
    raise CliError(f"unknown tree method {method!r}")


def _pcg_config(g, epsilon: float, **flags) -> PcgConfig:
    """The settings of every solve the CLI runs, with its iteration budget max(4n, 100)."""
    return PcgConfig(epsilon=epsilon, max_iterations=max(4 * g.n, 100), **flags)


def _seeded_rhs(n: int, seed: int) -> np.ndarray:
    """The seeded, centred standard-normal right-hand side of verify and scaling."""
    b = np.random.default_rng([seed, 0xB0]).standard_normal(n)
    return b - b.mean()


# ---------------------------------------------------------------------------
# verify


def run_verify(spec: ExperimentSpec) -> dict:
    """Run the full oracle check suite over every seed; returns the report.

    The seeds are certified across the CPUs this process may use
    (``across_cpus``); the report is the same as from one process.
    """
    gen = parse_generator_spec(spec.generator)
    records = list(across_cpus(_verify_seed, (spec, gen), spec.seeds))
    return {
        "spec": {**asdict(spec), "generator": str(gen)},
        "records": records,
        "failures": sum(not r["ok"] for r in records),
    }


def _verify_seed(spec: ExperimentSpec, gen, seed: int) -> dict:
    """One seed's record: the checks ``spec.checks`` selects, and ``ok``."""
    g = generate(gen, seed)
    t = build_tree(g, spec.tree_method, seed)
    rep = stretch_report(g, t)
    record = {"seed": seed, "n": g.n, "m": g.m, "stretch_total": rep.total}
    ok = True
    s = generalized_spectrum(g, t, cap=spec.dense_cap)
    if spec.checks in ("trace", "all"):
        diff = abs(s.trace - rep.total)
        tol = 1e-9 * max(1.0, rep.total)
        record["trace"] = s.trace
        record["trace_abs_diff"] = diff
        record["trace_ok"] = diff <= tol
        ok = ok and record["trace_ok"]
    if spec.checks in ("tails", "all"):
        grid = np.logspace(0.0, math.log10(2.0 * s.lambda_max), 20)
        violations = sum(
            1 for thr in grid if tail_count(s, float(thr)) > rep.total / float(thr)
        )
        record["tail_violations"] = violations
        record["lambda_min"] = s.lambda_min
        record["lambda_max"] = s.lambda_max
        record["tails_ok"] = violations == 0
        ok = ok and record["tails_ok"]
    if spec.checks in ("pcg-bound", "all"):
        b = _seeded_rhs(g.n, seed)
        # grounded at vertex 0, then shifted to the mean-zero (pinv) solution
        x_true = np.zeros(g.n)
        x_true[1:] = np.linalg.solve(dense_laplacian(g, cap=spec.dense_cap)[1:, 1:], b[1:])
        x_true -= x_true.mean()
        cfg = _pcg_config(g, spec.epsilon, record_history=True, reorthogonalize=True)
        out = pcg_solve(g, factor(t), b, cfg, x_true=x_true)
        observed = _first_accurate_iteration(out, spec.epsilon)
        exact = exact_spectrum_bound(s, rep.total, spec.epsilon)
        st_only = stretch_only_bound(rep.total, spec.epsilon)
        record["iterations_observed"] = observed
        record["bound_exact_spectrum"] = exact.k_bound
        record["bound_stretch_only"] = st_only.k_bound
        record["pcg_ok"] = (
            observed is not None
            and observed <= exact.k_bound
            and observed <= st_only.k_bound
        )
        ok = ok and record["pcg_ok"]
    record["ok"] = ok
    return record


def _first_accurate_iteration(outcome, epsilon):
    for k, err in enumerate(outcome.a_norm_history):
        if err <= epsilon:
            return k
    return None


# ---------------------------------------------------------------------------
# scaling


def run_scaling(generators, tree_method: str, epsilon: float, seeds) -> list:
    """Iterations-vs-stretch sweep; returns CSV rows sorted by m then seed."""
    rows = []
    for gen_text in generators:
        gen = parse_generator_spec(gen_text)
        for seed in seeds:
            g = generate(gen, seed)
            t = build_tree(g, tree_method, seed)
            rep = stretch_report(g, t)
            out = pcg_solve(g, factor(t), _seeded_rhs(g.n, seed), _pcg_config(g, epsilon))
            st_only = stretch_only_bound(rep.total, epsilon)
            rows.append(
                {
                    "m": g.m,
                    "seed": seed,
                    "stretch_total": rep.total,
                    "stretch_cbrt": snapped_root(rep.total, 1.0 / 3.0),
                    "iterations": out.iterations,
                    "k_bound": st_only.k_bound,
                }
            )
    rows.sort(key=lambda r: (r["m"], r["seed"]))
    return rows


def write_scaling_csv(rows, path) -> None:
    with open_output(path) as fh:
        fh.write("m,seed,stretch_total,stretch_cbrt,iterations,k_bound\n")
        for r in rows:
            fh.write(
                f"{r['m']},{r['seed']},{r['stretch_total']!r},"
                f"{r['stretch_cbrt']!r},{r['iterations']},{r['k_bound']}\n"
            )


# ---------------------------------------------------------------------------
# solve


def run_solve(graph_path, b_path, tree_method: str, epsilon: float, seed: int = 0) -> tuple:
    g = read_edge_list(graph_path)
    if not is_connected(g):
        raise CliError("graph must be connected")
    b = read_vector(b_path)
    if len(b) != g.n:
        raise CliError(f"right-hand side has {len(b)} entries but graph has {g.n} vertices")
    t = build_tree(g, tree_method, seed)
    rep = stretch_report(g, t)
    out = pcg_solve(g, factor(t), b, _pcg_config(g, epsilon))
    sidecar = {
        "iterations": out.iterations,
        "converged": out.converged,
        "final_residual": out.final_residual,
        "stretch_total": rep.total,
        "centered_input": out.centered_input,
        "epsilon": epsilon,
        "tree_method": tree_method,
    }
    return out.x, sidecar


# ---------------------------------------------------------------------------
# argument plumbing


def _read_config(path) -> dict:
    """The file's ``key = value`` lines, keys with ``-`` read as ``_`` and
    values parsed as their flags' are; blank lines and comments as in edge
    lists.  A key that no option reads, or a value that does not parse or is
    outside its flag's choices, is an error, not a setting ignored, even
    where a flag overrides it."""
    cfg = {}
    with open(path) as fh:
        text = fh.read()
    for lineno, line in _data_lines(text):
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        k, v = line.split("=", 1)
        key = k.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise CliError(f"{path}:{lineno}: unknown key {k.strip()!r}")
        try:
            cfg[key] = _OPTIONS[key][0](v.strip())
        except ValueError as exc:
            raise CliError(f"{path}: bad value for {key}: {v.strip()!r}") from exc
    return cfg


def _resolve(args, cfg, key):
    """The flag's value if given, else the config file's, else the default;
    a flag's value takes the parser a config value takes."""
    parse, default = _OPTIONS[key]
    value = getattr(args, key, None)
    return parse(value) if value is not None else cfg.get(key, default)


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--tree", choices=TREE_METHODS, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.add_argument("--out", default=None)
    p.add_argument("--dense-cap", type=int, default=None)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="treepcg",
        description="Spanning-tree preconditioned Laplacian solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write its edge list")
    p.add_argument("--gen", required=True, help='e.g. "grid:30x30:unit"')
    _add_common(p)

    p = sub.add_parser("stretch", help="build a tree and report its stretch")
    p.add_argument("--gen", default=None)
    p.add_argument("--graph", default=None)
    _add_common(p)

    p = sub.add_parser("solve", help="solve L_G x = b from files")
    p.add_argument("--graph", required=True)
    p.add_argument("--b", required=True, dest="b_path")
    _add_common(p)

    p = sub.add_parser("verify", help="run oracle checks over seeds (exit 1 on any failure)")
    p.add_argument("--gen", required=True)
    p.add_argument("--checks", choices=CHECKS, default=None)
    _add_common(p)

    p = sub.add_parser("scaling", help="iterations-vs-stretch sweep, CSV output")
    p.add_argument("--gen", required=True, action="append",
                   help="repeatable; one generator spec per size")
    _add_common(p)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _read_config(args.config) if args.config else {}
        tree_method = _resolve(args, cfg, "tree")
        epsilon = _resolve(args, cfg, "eps")
        seeds = _resolve(args, cfg, "seeds")
        dense_cap = _resolve(args, cfg, "dense_cap")
        out = args.out
        if out is None and args.command in ("gen", "solve"):
            raise CliError(f"{args.command} requires --out")

        if args.command == "gen":
            write_edge_list(generate(args.gen, seeds[0]), out)
            return 0

        if args.command == "stretch":
            if (args.graph is None) == (args.gen is None):
                raise CliError("stretch wants exactly one of --graph or --gen")
            g = read_edge_list(args.graph) if args.graph else generate(args.gen, seeds[0])
            t = build_tree(g, tree_method, seeds[0])
            rep = stretch_report(g, t)
            if out:
                rep.write_csv(out + ".csv")
            rep.write_json_summary(out + ".json" if out else None)
            return 0

        if args.command == "solve":
            x, sidecar = run_solve(args.graph, args.b_path, tree_method, epsilon, seeds[0])
            write_vector(x, out)
            write_json(sidecar, out + ".json")
            return 0

        if args.command == "verify":
            spec = ExperimentSpec(
                generator=args.gen,
                tree_method=tree_method,
                epsilon=epsilon,
                seeds=seeds,
                checks=_resolve(args, cfg, "checks"),
                dense_cap=dense_cap,
            )
            report = run_verify(spec)
            write_json(report, out)
            return 1 if report["failures"] else 0

        if args.command == "scaling":
            write_scaling_csv(run_scaling(args.gen, tree_method, epsilon, seeds), out)
            return 0
    # PcgError is bad input; PcgDivergenceError, a solver failure, is not caught
    except (CliError, GraphError, TreeError, PcgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # BrokenProcessPool: one of across_cpus's workers died
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, BrokenExecutor):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
