import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treepcg
from treepcg import cli, read_edge_list, read_vector
from treepcg.pcg import PcgDivergenceError
from treepcg.cli import (
    CliError,
    ExperimentSpec,
    main,
    run_scaling,
    run_solve,
    run_verify,
    write_scaling_csv,
)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def grounded_a_norm_error(g, b, x):
    """Relative A-norm error of x against the mean-zero solution of
    L x = b - mean(b), by a dense solve grounded at vertex 0."""
    L = treepcg.dense_laplacian(g, cap=g.n)
    b = b - b.mean()
    x_true = np.zeros(g.n)
    x_true[1:] = np.linalg.solve(L[1:, 1:], b[1:])
    x_true -= x_true.mean()
    d = x - x_true
    d -= d.mean()  # L 1 = 0 exactly, but not in rounded arithmetic
    return math.sqrt(d @ L @ d) / math.sqrt(x_true @ L @ x_true)


def capture_pcg_solves(monkeypatch):
    """Record (g, b, outcome) of every pcg_solve the CLI runs."""
    seen = []
    real = treepcg.cli.pcg_solve

    def capture(g, f, b, cfg, x_true=None):
        out = real(g, f, b, cfg, x_true=x_true)
        seen.append((g, b, out))
        return out

    monkeypatch.setattr(treepcg.cli, "pcg_solve", capture)
    return seen


class TestExperimentSpec:
    def test_requires_seeds(self):
        with pytest.raises(CliError, match="seed"):
            ExperimentSpec(generator="grid:3x3:unit", seeds=[])

    def test_rejects_unknown_tree_method(self):
        with pytest.raises(CliError, match="tree method"):
            ExperimentSpec(generator="grid:3x3:unit", tree_method="random")

    def test_rejects_bad_epsilon(self):
        with pytest.raises(CliError, match="epsilon"):
            ExperimentSpec(generator="grid:3x3:unit", epsilon=2.0)


class TestVerify:
    def test_grid_five_seeds_clean(self):
        spec = ExperimentSpec(generator="grid:10x10:unit", tree_method="maxw",
                              seeds=[0, 1, 2, 3, 4])
        report = run_verify(spec)
        assert len(report["records"]) == 5
        assert report["failures"] == 0
        for rec in report["records"]:
            assert rec["tail_violations"] == 0
            assert rec["trace_ok"] and rec["tails_ok"] and rec["pcg_ok"]

    def test_tree_only_graph_single_iteration(self):
        spec = ExperimentSpec(generator="grid:12x1:unit", seeds=[0])
        report = run_verify(spec)
        rec = report["records"][0]
        assert rec["iterations_observed"] <= 1
        assert report["failures"] == 0

    def test_exit_codes_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["verify", "--gen", "grid:6x6:logw", "--tree", "akpw", "--seeds", "0,1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # (iterations_observed, bound_exact_spectrum, bound_stretch_only,
    # tail_violations) for seeds 0-3; seeds 0 and 1 recorded at the commit
    # before the oracle used the tree-path factor and a grounded solve for
    # x_true, seeds 2 and 3 at the commit before it formed I + C^T C
    @pytest.mark.parametrize("spec, tree, want", [
        ("grid:20x20:logw", "maxw",
         [(37, 46, 109, 0), (37, 46, 110, 0), (37, 46, 109, 0), (36, 46, 110, 0)]),
        ("grid:20x20:logw", "akpw",
         [(84, 114, 256, 0), (77, 97, 250, 0), (81, 107, 256, 0), (81, 111, 233, 0)]),
        ("gnp:n=450,p=0.02:logw", "maxw",
         [(57, 72, 184, 0), (60, 75, 186, 0), (59, 72, 189, 0), (59, 74, 189, 0)]),
        ("gnp:n=450,p=0.02:logw", "akpw",
         [(124, 161, 348, 0), (126, 170, 306, 0), (120, 173, 311, 0), (131, 173, 361, 0)]),
        ("regular:n=400,d=4:unit", "maxw",
         [(69, 88, 213, 0), (68, 83, 216, 0), (68, 85, 208, 0), (67, 87, 208, 0)]),
        ("regular:n=400,d=4:unit", "akpw",
         [(69, 85, 176, 0), (69, 92, 175, 0), (70, 91, 177, 0), (70, 85, 175, 0)]),
    ])
    def test_desk_verdicts_pinned(self, spec, tree, want):
        report = run_verify(ExperimentSpec(generator=spec, tree_method=tree, seeds=[0, 1, 2, 3]))
        assert report["failures"] == 0
        got = [(r["iterations_observed"], r["bound_exact_spectrum"], r["bound_stretch_only"],
                r["tail_violations"]) for r in report["records"]]
        assert got == want
        for r in report["records"]:
            assert r["trace_ok"] and r["tails_ok"] and r["pcg_ok"] and r["ok"]

    # sha256 of the reports for seeds 0-3.  They cover every field, the
    # floats trace, trace_abs_diff, lambda_min and lambda_max included, so
    # the verdicts above are pinned separately: a digest can move with the
    # last bits of the oracle's arithmetic, a verdict may not.  All six were
    # re-recorded when the oracle began to read the solver's SplitSystem and
    # form I + C^T C in slot order (their floats moved by <= 1.7e-13
    # relative, lambda_min the most; every verdict unchanged).
    @pytest.mark.parametrize("spec, tree, digest", [
        ("grid:20x20:logw", "maxw", "551125fc09caca592f8e624fde4498e8c8db951fc3ec62a29c34c0b455fc4497"),
        ("grid:20x20:logw", "akpw", "c85241de047bec11558a312cd40db0fd9837ed0e38f7e9744b82a10379facf1a"),
        ("gnp:n=450,p=0.02:logw", "maxw", "2defc184ebf76643e9883785c09706dfa009efa85d17ffa170794e58b504b3e1"),
        ("gnp:n=450,p=0.02:logw", "akpw", "24312c470a496283ef7348db35fa40954bd036ca8efd283c949a29e5dad2f1c5"),
        ("regular:n=400,d=4:unit", "maxw", "2279fb9ce1689108aebdce02c11b29ca6592a13a272d335935e7f9761090a8b9"),
        ("regular:n=400,d=4:unit", "akpw", "27817a2f7e34091df62ca24a0616642f678cd429ca0b4e61d2dc7b87a5b57bbb"),
    ])
    def test_desk_report_bytes_pinned(self, tmp_path, spec, tree, digest):
        out = tmp_path / "r.json"
        assert main(["verify", "--gen", spec, "--tree", tree, "--seeds", "0,1,2,3",
                     "--out", str(out)]) == 0
        assert _sha256(out) == digest

    @pytest.mark.parametrize("spec", ["grid:20x20:logw", "gnp:n=450,p=0.02:logw",
                                      "regular:n=400,d=4:unit"])
    def test_x_true_is_the_pinv_solution(self, monkeypatch, spec):
        seen = []

        def capture(g, f, b, cfg, x_true=None):
            seen.append((g, b, x_true))
            return real(g, f, b, cfg, x_true=x_true)

        real = treepcg.cli.pcg_solve
        monkeypatch.setattr(treepcg.cli, "pcg_solve", capture)
        run_verify(ExperimentSpec(generator=spec, tree_method="akpw", seeds=[0]))
        (g, b, x), = seen
        L = treepcg.dense_laplacian(g)
        ref = np.linalg.pinv(L) @ b
        assert abs(x.mean()) <= 1e-15 * np.abs(x).max()
        d = x - ref
        assert math.sqrt(d @ L @ d) <= 1e-12 * math.sqrt(ref @ L @ ref)

    def test_malformed_spec_names_field(self, capsys):
        assert main(["verify", "--gen", "grid:banana:unit"]) == 2
        err = capsys.readouterr().err
        assert "grid" in err and "banana" in err


class TestScaling:
    def test_rows_sorted_and_bounded(self):
        rows = run_scaling(
            [f"grid:{s}x{s}:unit" for s in (10, 20, 30, 40)], "akpw", 1e-8, [0]
        )
        ms = [r["m"] for r in rows]
        assert ms == sorted(ms)
        for r in rows:
            assert r["iterations"] <= r["k_bound"]
        # regression fixture from one frozen run (seed 0, akpw trees)
        assert rows[0] == {
            "m": 180, "seed": 0, "stretch_total": 690.0,
            "stretch_cbrt": 8.836555922403612, "iterations": 47, "k_bound": 94,
        }
        assert rows[1]["m"] == 760 and rows[1]["stretch_total"] == 4562.0
        assert rows[1]["iterations"] == 105 and rows[1]["k_bound"] == 176

    def test_single_size_many_seeds(self):
        rows = run_scaling(["grid:8x8:unit"], "maxw", 1e-8, list(range(10)))
        assert len(rows) == 10
        assert [r["seed"] for r in rows] == list(range(10))

    def test_epsilon_halving_bound_growth(self):
        eps = 1e-6
        rows_a = run_scaling(["grid:12x12:unit"], "maxw", eps, [0])
        rows_b = run_scaling(["grid:12x12:unit"], "maxw", eps / 2.0, [0])
        for a, b in zip(rows_a, rows_b):
            u = a["stretch_total"] ** (2.0 / 3.0)
            max_growth = math.ceil(math.log(2.0) / 2.0 * math.sqrt(u)) + 1
            assert 0 <= b["k_bound"] - a["k_bound"] <= max_growth

    def test_csv_determinism(self, tmp_path):
        rows = run_scaling(["grid:6x6:logw"], "akpw", 1e-8, [0, 1])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scaling_csv(rows, p1)
        write_scaling_csv(run_scaling(["grid:6x6:logw"], "akpw", 1e-8, [0, 1]), p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "m,seed,stretch_total,stretch_cbrt,iterations,k_bound"

    def test_csv_bytes_pinned(self, tmp_path, monkeypatch):
        # sha256 recorded at the commit that moved PCG onto the tree-split
        # system; the last bits of x, and so a few iteration counts, moved
        out = tmp_path / "s.csv"
        solves = capture_pcg_solves(monkeypatch)
        assert main(["scaling", "--gen", "grid:10x10:logw", "--gen", "gnp:n=150,p=0.02:unit",
                     "--tree", "akpw", "--seeds", "0,1", "--out", str(out)]) == 0
        assert _sha256(out) == "0594f925e3ce2ce082151e58ceeb1e1d1521e3f257e1f7e6e2e30f251c4b73cf"
        # (iterations, stretch_total) per row, recorded before the split.
        # Per row the iterations moved 63, 62, 51, 54 -> 62, 61, 48, 55:
        # plain CG at ~50 iterations moves by a few under any reordering of
        # its rounding, so the +-2% bound holds for the sweep's total
        want = [(63, 1785.261135199207), (62, 2168.522336821035), (51, 795.0), (54, 908.0)]
        lines = out.read_text().splitlines()[1:]
        rows = [(int(line.split(",")[4]), float(line.split(",")[2])) for line in lines]
        assert [st for _, st in rows] == [st for _, st in want]
        total, want_total = sum(k for k, _ in rows), sum(k for k, _ in want)
        assert abs(total - want_total) <= 0.02 * want_total
        assert len(solves) == len(want)
        for g, b, outcome in solves:
            assert outcome.converged
            assert grounded_a_norm_error(g, b, outcome.x) <= 1e-8


class TestSolve:
    def _write_path_graph(self, tmp_path, n=5):
        p = tmp_path / "g.txt"
        p.write_text("".join(f"{i} {i + 1} 1.0\n" for i in range(n - 1)))
        return p

    def test_path_antisymmetric_closed_form(self, tmp_path):
        gp = self._write_path_graph(tmp_path, n=3)
        bp = tmp_path / "b.txt"
        bp.write_text("1.0\n0.0\n-1.0\n")
        x, sidecar = run_solve(gp, bp, "maxw", 1e-10)
        assert np.allclose(x, [1.0, 0.0, -1.0], atol=1e-9)
        assert sidecar["converged"] and not sidecar["centered_input"]
        assert sidecar["stretch_total"] == pytest.approx(2.0)

    def test_nonzero_mean_flagged(self, tmp_path):
        gp = self._write_path_graph(tmp_path, n=4)
        bp = tmp_path / "b.txt"
        bp.write_text("1.0\n1.0\n0.0\n0.0\n")
        _, sidecar = run_solve(gp, bp, "maxw", 1e-8)
        assert sidecar["centered_input"]

    def test_disconnected_graph_message(self, tmp_path):
        gp = tmp_path / "g.txt"
        gp.write_text("0 1 1.0\n2 3 1.0\n")
        bp = tmp_path / "b.txt"
        bp.write_text("1.0\n-1.0\n0.0\n0.0\n")
        with pytest.raises(CliError, match="must be connected"):
            run_solve(gp, bp, "maxw", 1e-8)

    def test_cli_writes_solution_and_sidecar(self, tmp_path):
        gp = self._write_path_graph(tmp_path)
        bp = tmp_path / "b.txt"
        bp.write_text("2.0\n0.0\n0.0\n0.0\n-2.0\n")
        out = tmp_path / "x.txt"
        assert main(["solve", "--graph", str(gp), "--b", str(bp),
                     "--out", str(out), "--eps", "1e-10"]) == 0
        x = read_vector(out)
        sidecar = json.loads((tmp_path / "x.txt.json").read_text())
        assert len(x) == 5 and sidecar["converged"]

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["solve", "--graph", str(tmp_path / "no.txt"),
                     "--b", str(tmp_path / "no.txt"), "--out", "x"]) == 2

    def test_nonfinite_right_hand_side_exits_2(self, tmp_path, capsys):
        # bad input, not a solver failure: no traceback, and no output files
        gp = self._write_path_graph(tmp_path)
        bp = tmp_path / "b.txt"
        bp.write_text("1.0\nnan\n0.0\n0.0\n-1.0\n")
        out = tmp_path / "x.txt"
        assert main(["solve", "--graph", str(gp), "--b", str(bp), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: right-hand side has nonfinite entries\n"
        assert not out.exists()

    def test_divergence_is_not_reported_as_bad_input(self, tmp_path, monkeypatch):
        # a solver failure is not exit 2: it propagates with its traceback
        def diverge(*args, **kwargs):
            raise PcgDivergenceError("nonfinite curvature at iteration 0")
        monkeypatch.setattr(cli, "pcg_solve", diverge)
        gp = self._write_path_graph(tmp_path)
        bp = tmp_path / "b.txt"
        bp.write_text("1.0\n0.0\n0.0\n0.0\n-1.0\n")
        with pytest.raises(PcgDivergenceError):
            main(["solve", "--graph", str(gp), "--b", str(bp), "--out", str(tmp_path / "x.txt")])

    @pytest.mark.parametrize("command", ["solve", "scaling"])
    @pytest.mark.parametrize("eps", ["2", "0", "-1", "nan"])
    def test_epsilon_out_of_range_exits_2(self, command, eps, tmp_path, capsys):
        gp = self._write_path_graph(tmp_path)
        bp = tmp_path / "b.txt"
        bp.write_text("1.0\n0.0\n0.0\n0.0\n-1.0\n")
        source = (["--graph", str(gp), "--b", str(bp)] if command == "solve"
                  else ["--gen", "grid:4x4:unit"])
        out = tmp_path / "out"
        assert main([command, *source, "--eps", eps, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: epsilon must lie in (0, 1)")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "scaling"])
    def test_epsilon_checked_before_input_is_read(self, command, tmp_path, monkeypatch, capsys):
        def untouched(*args, **kwargs):
            raise AssertionError("input read before --eps was checked")
        monkeypatch.setattr(cli, "read_edge_list", untouched)
        monkeypatch.setattr(cli, "generate", untouched)
        source = (["--graph", str(tmp_path / "g.txt"), "--b", str(tmp_path / "b.txt")]
                  if command == "solve" else ["--gen", "grid:300x300:logw"])
        assert main([command, *source, "--eps", "1.5", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: epsilon must lie in (0, 1), got 1.5\n"

    @pytest.mark.parametrize("tree, x_digest, sidecar_digest", [
        ("maxw", "e94e4a97f69bc56df765edf922a919d39872abbec375dd234fabcc22d2b6e19c",
         "f427a72aa62b3c29ff579db72a58c683954e6d89ad4c57284560aaca88552298"),
        ("akpw", "b74afb51598780c041979d57d1c4ac911a028517caf5ad71785d00d168c69262",
         "35c60af141cd4cc84149c1db3e326adc530f2edacb1c2d6e47e1c6561daea8c0"),
    ])
    def test_solution_bytes_pinned(self, tmp_path, tree, x_digest, sidecar_digest):
        # sha256 recorded at the commit that moved PCG onto the tree-split
        # system; the last bits of x and final_residual moved by design
        gp, bp, out = tmp_path / "g.txt", tmp_path / "b.txt", tmp_path / "x.txt"
        assert main(["gen", "--gen", "grid:30x30:logw", "--seeds", "0", "--out", str(gp)]) == 0
        bp.write_text("".join(f"{(i * 7919) % 13 - 6.0!r}\n" for i in range(900)))
        assert main(["solve", "--graph", str(gp), "--b", str(bp), "--tree", tree,
                     "--out", str(out)]) == 0
        assert _sha256(out) == x_digest
        assert _sha256(tmp_path / "x.txt.json") == sidecar_digest
        # (iterations, stretch_total) recorded before the split
        iterations, stretch_total = {"maxw": (70, 2702.800203139761),
                                     "akpw": (282, 35624.76990465975)}[tree]
        sidecar = json.loads((tmp_path / "x.txt.json").read_text())
        assert sidecar["converged"]
        assert abs(sidecar["iterations"] - iterations) <= 0.02 * iterations
        assert sidecar["stretch_total"] == stretch_total
        g = read_edge_list(gp)
        assert grounded_a_norm_error(g, read_vector(bp), read_vector(out)) <= 1e-8


class TestGenAndStretch:
    def test_gen_round_trip(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["gen", "--gen", "gnp:n=40,p=0.15:logw", "--seeds", "3",
                     "--out", str(out)]) == 0
        g = read_edge_list(out)
        assert g.n >= 2 and g.m >= g.n - 1

    @pytest.mark.parametrize("spec, digest", [
        ("grid:13x9:logw", "e2b288027170a8d095bd36e604bd7dd9eb718574d93ad320972da2b10173d231"),
        # a giant component of 206 of 300 vertices: pins the relabelling
        ("gnp:n=300,p=0.006:logw", "7e468e24dd6bda06c8dcb8949d69f4a13bd89ec5eb7c0fab6701990b5b6bdb02"),
        ("regular:n=200,d=3:unit", "03b1d5245ed48d1b36c13914cc94ac8c45c9d9f1144ada53b9184d515c7d5591"),
        # logw: pins which weight each regular edge gets, so the edge order
        # of the stub pairing; recorded when networkx drew regular graphs
        ("regular:n=200,d=3:logw", "26d976fdeb1b9bcdaf94903408cccb92bf63f553450694121d942ea4d1666d59"),
    ])
    def test_gen_bytes_pinned(self, tmp_path, spec, digest):
        # sha256 recorded at the commit before graphs were built from arrays
        out = tmp_path / "g.txt"
        assert main(["gen", "--gen", spec, "--seeds", "1", "--out", str(out)]) == 0
        assert _sha256(out) == digest

    def test_stretch_outputs(self, tmp_path):
        prefix = tmp_path / "rep"
        assert main(["stretch", "--gen", "grid:6x6:unit", "--tree", "akpw",
                     "--out", str(prefix)]) == 0
        summary = json.loads((tmp_path / "rep.json").read_text())
        assert summary["total"] > 0
        lines = (tmp_path / "rep.csv").read_text().splitlines()
        assert lines[0] == "u,v,w,stretch" and len(lines) == 61

    @pytest.mark.parametrize("spec, tree, digests", [
        ("grid:12x12:logw", "akpw", {
            "csv": "fb9b57aafa5ff0779b507d5cfdb405a99501950cef71ccb93ad80843bb9eaefe",
            "json": "3299f7e87b52bfaefef126eb0675d66e03e5c068f72cb3e5b2ba93d4fb9dec92",
        }),
        ("gnp:n=200,p=0.05:logw", "maxw", {
            "csv": "c238e1a3f3452df6d206b0eb024cd01f76bf128c8fe0bd907dc86c28bc2ef15b",
            "json": "5b9be3c32390607b6286137dee8969e2c587eb4914d508fbc8f948bb8aeead22",
        }),
        # unit weights tie everywhere, so akpw's adjacency order picks the
        # tree; recorded at the commit before akpw's rounds ran on arrays
        ("regular:n=2000,d=4:unit", "akpw", {
            "csv": "0e038110577ee9205f543a73bb383cd7ef34a96c10045d8aa99a04cd51c5de19",
            "json": "32eaeb635d122b2760bab83402d5f6238aef8b78ae8b0465ffbe61e2ba0183b6",
        }),
    ])
    def test_stretch_report_bytes_pinned(self, tmp_path, spec, tree, digests):
        # sha256 of reports written by the per-edge scalar implementation
        # (seed 0); any change to a last bit of a stretch value fails here
        prefix = tmp_path / "rep"
        assert main(["stretch", "--gen", spec, "--tree", tree, "--out", str(prefix)]) == 0
        for ext, digest in digests.items():
            assert hashlib.sha256((tmp_path / f"rep.{ext}").read_bytes()).hexdigest() == digest

    def test_stretch_requires_one_source(self):
        assert main(["stretch"]) == 2

    @pytest.mark.parametrize("command", ["gen", "stretch", "verify", "scaling"])
    @pytest.mark.parametrize("seeds", ["-1", "0,-3"])
    def test_negative_seed_rejected(self, command, seeds, tmp_path, capsys):
        # "verify" exits 1 only when a check fails; bad input is exit 2
        assert main([command, "--gen", "grid:4x4:unit", "--seeds", seeds,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: bad seeds list")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["gen", "stretch", "solve", "scaling"])
    @pytest.mark.parametrize("seeds", [",", ""])
    def test_empty_seed_list_rejected(self, command, seeds, tmp_path, capsys):
        gp = tmp_path / "g.txt"
        gp.write_text("0 1 1.0\n1 2 1.0\n")
        bp = tmp_path / "b.txt"
        bp.write_text("1.0\n0.0\n-1.0\n")
        source = (["--graph", str(gp), "--b", str(bp)] if command == "solve"
                  else ["--gen", "grid:4x4:unit"])
        out = tmp_path / "out"
        assert main([command, *source, "--seeds", seeds, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bad seeds list {seeds!r}: at least one seed is required\n"
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", ["stretch", "verify", "scaling"])
    def test_single_vertex_spec_rejected(self, command, tmp_path, capsys):
        assert main([command, "--gen", "grid:1x1:unit", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestConfigPrecedence:
    def test_config_then_cli_override(self, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("tree = akpw\neps = 1e-4\nseeds = 5\n")
        out1 = tmp_path / "r1.json"
        assert main(["verify", "--gen", "grid:5x5:unit", "--config", str(cfg),
                     "--out", str(out1)]) == 0
        r1 = json.loads(out1.read_text())
        assert r1["spec"]["tree_method"] == "akpw"
        assert r1["spec"]["epsilon"] == 1e-4
        assert r1["spec"]["seeds"] == [5]
        out2 = tmp_path / "r2.json"
        assert main(["verify", "--gen", "grid:5x5:unit", "--config", str(cfg),
                     "--tree", "maxw", "--out", str(out2)]) == 0
        r2 = json.loads(out2.read_text())
        assert r2["spec"]["tree_method"] == "maxw"
        assert r2["spec"]["epsilon"] == 1e-4

    @pytest.mark.parametrize("key, value", [("eps", "abc"), ("dense_cap", "x")])
    def test_config_value_that_does_not_parse_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"tree = akpw\n{key} = {value}\n")
        out = tmp_path / "r.json"
        assert main(["verify", "--gen", "grid:5x5:unit", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: bad value for {key}: {value!r}\n"
        assert not out.exists()

    def test_config_file_read_once(self, tmp_path, monkeypatch):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("tree = akpw\neps = 1e-4\nseeds = 5\nchecks = trace\n")
        calls = []
        real = cli._read_config
        monkeypatch.setattr(cli, "_read_config", lambda path: calls.append(path) or real(path))
        out = tmp_path / "r.json"
        assert main(["verify", "--gen", "grid:5x5:unit", "--config", str(cfg), "--out", str(out)]) == 0
        assert calls == [str(cfg)]
        spec = json.loads(out.read_text())["spec"]
        assert (spec["tree_method"], spec["epsilon"], spec["seeds"], spec["checks"]) == ("akpw", 1e-4, [5], "trace")


class TestImports:
    def test_package_loads_no_scipy(self):
        src = str(Path(treepcg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, treepcg, treepcg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_verify_loads_no_scipy(self, tmp_path):
        # the dense oracle and x_true stay on numpy: importing scipy.linalg
        # would add more resident memory than the benchmark's bound allows
        src = str(Path(treepcg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys; from treepcg.cli import main; "
                f"rc = main(['verify', '--gen', 'regular:n=40,d=4:logw', '--tree', 'akpw', "
                f"'--out', {str(tmp_path / 'r.json')!r}]); "
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0 []"

    def test_generators_load_no_networkx(self, tmp_path):
        # regular graphs come from the package's own stub pairing:
        # importing networkx would add 16 MB of resident memory
        src = str(Path(treepcg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys; from treepcg import generate; from treepcg.cli import ExperimentSpec, run_verify; "
                "[generate(s, 1) for s in ('grid:5x4:logw', 'gnp:n=60,p=0.1:logw', 'regular:n=60,d=3:logw')]; "
                "r = run_verify(ExperimentSpec(generator='regular:n=40,d=4:unit', tree_method='akpw')); "
                "print(r['failures'], 'networkx' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0 False"
