"""Tests for the benchmark's own helpers: span arithmetic, statistics and the
correctness checkers."""
import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import treepcg as tp  # noqa: E402
from treepcg import cli  # noqa: E402


def span(id, name, start, end, parent=None):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "run_id": 0}


NESTED = [
    span(0, "cli.run_verify", 0.0, 10.0),
    span(1, "graphs.generate", 1.0, 4.0, 0),
    span(2, "pcg.pcg_solve", 5.0, 9.0, 0),
    span(3, "treesolver.pseudo_solve", 6.0, 7.5, 2),
    span(4, "graphs.laplacian_apply", 7.5, 8.0, 2),
    span(5, "treesolver.pseudo_solve", 8.0, 8.5, 2),
]


class TestSpanArithmetic:
    def test_self_times_subtract_direct_children_only(self):
        selfs = spans.self_times(NESTED)
        assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 1.5, 3: 1.5, 4: 0.5, 5: 0.5})
        # self times partition the root's interval
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_by_name_and_by_layer(self):
        named = spans.by_name(NESTED)
        assert named["treesolver.pseudo_solve"]["calls"] == 2
        assert named["treesolver.pseudo_solve"]["total_s"] == pytest.approx(2.0)
        assert named["pcg.pcg_solve"]["self_s"] == pytest.approx(1.5)
        layers = spans.by_layer(NESTED)
        assert layers == pytest.approx({"cli": 3.0, "graphs": 3.5, "pcg": 1.5, "treesolver": 2.0})

    def test_child_time(self):
        assert spans.child_time(NESTED, "pcg.pcg_solve", "treesolver.pseudo_solve") == pytest.approx(2.0)
        assert spans.child_time(NESTED, "cli.run_verify", "treesolver.pseudo_solve") == 0.0

    def test_self_time_of_a_subset_ignores_parents_outside_it(self):
        subset = NESTED[2:]
        assert spans.self_times(subset)[2] == pytest.approx(1.5)


class TestTracer:
    @pytest.fixture
    def fake_module(self, monkeypatch):
        mod = types.ModuleType("perfbench_fake_layer")

        def inner(x):
            return x + 1

        def outer(x):
            return mod.inner(x) * 2

        mod.inner = inner
        mod.outer = outer
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
        return mod

    def test_records_nesting_and_restores(self, fake_module):
        original_inner = fake_module.inner
        tracer = spans.Tracer(
            boundaries=(
                (fake_module.__name__, "outer", "a.outer"),
                (fake_module.__name__, "inner", "b.inner"),
            )
        )
        with tracer.recording(run_id=7):
            assert fake_module.outer(1) == 4
        assert fake_module.inner is original_inner
        outer_span, inner_span = tracer.spans
        assert outer_span["name"] == "a.outer" and outer_span["parent"] is None
        assert inner_span["parent"] == outer_span["id"]
        assert {s["run_id"] for s in tracer.spans} == {7}
        assert outer_span["start"] <= inner_span["start"] <= inner_span["end"] <= outer_span["end"]
        # untraced calls record nothing
        fake_module.outer(1)
        assert len(tracer.spans) == 2

    def test_restores_after_an_exception(self, fake_module):
        original_outer = fake_module.outer
        tracer = spans.Tracer(boundaries=((fake_module.__name__, "outer", "a.outer"),))
        with pytest.raises(TypeError):
            with tracer.recording(run_id=0):
                fake_module.outer(None)
        assert fake_module.outer is original_outer
        assert tracer.spans[0]["end"] >= tracer.spans[0]["start"]

    def test_every_package_boundary_resolves(self):
        for owner, attr, name in spans.BOUNDARIES:
            assert callable(getattr(spans.resolve_owner(owner), attr)), (owner, attr)
            assert name.split(".", 1)[0] in {"graphs", "trees", "treesolver", "pcg", "spectral", "cli"}


class TestStatistics:
    def test_median_even_and_odd(self):
        assert spans.median([3.0, 1.0, 2.0]) == 2.0
        assert spans.median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_percentile_matches_numpy(self):
        xs = [5.0, 1.0, 9.0, 2.0, 7.0, 3.0]
        for p in (0, 10, 25, 50, 90, 99, 100):
            assert spans.percentile(xs, p) == pytest.approx(np.percentile(xs, p))

    def test_tail_percentile_needs_ten_samples_beyond(self):
        assert spans.tail_percentile(99) is None
        assert spans.tail_percentile(100) == 90.0
        assert spans.tail_percentile(999) == 90.0
        assert spans.tail_percentile(1000) == 99.0
        assert spans.tail_percentile(10000) == 99.9

    def test_describe(self):
        d = spans.describe(list(range(1, 101)))
        assert d["n"] == 100 and d["median"] == 50.5
        assert d["p90"] == pytest.approx(np.percentile(range(1, 101), 90))
        assert spans.describe([2.0]) == {"median": 2.0, "n": 1}


# ---------------------------------------------------------------------------
# correctness checkers


def small_graph():
    return tp.generate("grid:6x7:logw", 3)


class TestSolutionCheck:
    def solve(self, g, b, tmp_path):
        t = tp.max_weight_spanning_tree(g)
        out = tp.pcg_solve(g, tp.factor(t), b, tp.PcgConfig(epsilon=1e-10, max_iterations=500))
        x_path = str(tmp_path / "x.txt")
        tp.write_vector(out.x, x_path)
        with open(x_path + ".json", "w") as fh:
            json.dump({"converged": out.converged}, fh)
        return out.x, x_path

    def test_accepts_solution_and_rejects_perturbed_one(self, tmp_path):
        g = small_graph()
        b = np.random.default_rng(0).standard_normal(g.n)
        L = checks.laplacian_csr(g.n, g.edge_u, g.edge_v, g.edge_w)
        np.testing.assert_allclose(L @ np.ones(g.n), 0.0, atol=1e-12)
        x_ref = checks.reference_solution(L, b)
        x, x_path = self.solve(g, b, tmp_path)
        failures, err = checks.check_solution(L, x_ref, x_path, x_path + ".json", 1e-8)
        assert failures == [] and err < 1e-8

        tp.write_vector(x + 1e-3 * np.random.default_rng(1).standard_normal(g.n), x_path)
        failures, err = checks.check_solution(L, x_ref, x_path, x_path + ".json", 1e-8)
        assert err > 1e-8 and "A-norm" in failures[0]

    def test_a_norm_error_ignores_constant_shift(self):
        g = small_graph()
        L = checks.laplacian_csr(g.n, g.edge_u, g.edge_v, g.edge_w)
        x_ref = checks.reference_solution(L, np.random.default_rng(2).standard_normal(g.n))
        assert checks.a_norm_rel_error(L, x_ref + 5.0, x_ref) < 1e-12


class TestStretchCheck:
    def outputs(self, tmp_path):
        g = small_graph()
        t = tp.low_stretch_heuristic_tree(g, 0)
        rep = tp.stretch_report(g, t)
        csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
        rep.write_csv(csv_path)
        rep.write_json_summary(json_path)
        return g, t, csv_path, json_path

    def run(self, g, parent, weight, csv_path, json_path):
        rng = np.random.default_rng(0)
        edges = (g.edge_u, g.edge_v, g.edge_w)
        return checks.check_stretch(edges, parent, weight, csv_path, json_path, g.m, rng)

    def test_accepts_report(self, tmp_path):
        g, t, csv_path, json_path = self.outputs(tmp_path)
        assert self.run(g, t.parent, t.parent_weight, csv_path, json_path) == []

    def test_rejects_tampered_stretch(self, tmp_path):
        g, t, csv_path, json_path = self.outputs(tmp_path)
        lines = open(csv_path).read().splitlines()
        u, v, w, s = lines[5].split(",")
        lines[5] = ",".join([u, v, w, repr(float(s) * 1.5)])
        with open(csv_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        failures = self.run(g, t.parent, t.parent_weight, csv_path, json_path)
        assert any("sum of per-edge" in f for f in failures)
        assert any("path resistance" in f for f in failures)

    def test_rejects_tree_with_foreign_weight(self, tmp_path):
        g, t, csv_path, json_path = self.outputs(tmp_path)
        weight = t.parent_weight.copy()
        weight[np.flatnonzero(t.parent >= 0)[0]] *= 2.0
        failures = self.run(g, t.parent, weight, csv_path, json_path)
        assert any("not a graph edge" in f for f in failures)

    def test_path_resistance_walk(self):
        # path 0 - 1 - 2 with a leaf 3 under 1
        parent = np.array([-1, 0, 1, 1])
        weight = np.array([0.0, 2.0, 4.0, 0.5])
        depth = checks.tree_depths(parent)
        assert depth.tolist() == [0, 1, 2, 2]
        r = checks.tree_path_resistance(parent.tolist(), weight.tolist(), depth.tolist(), 2, 3)
        assert r == pytest.approx(1 / 4 + 1 / 0.5)

    def test_tree_depths_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            checks.tree_depths(np.array([-1, 2, 1]))


class TestVerifyReportCheck:
    def test_clean_and_failing_reports(self):
        report = cli.run_verify(cli.ExperimentSpec(generator="grid:5x5:logw", seeds=[0, 1]))
        assert checks.check_verify_report(report, [0, 1]) == []
        assert checks.check_verify_report(report, [0, 1, 2])  # a seed is missing
        report["records"][1]["ok"] = False
        report["failures"] = 1
        failures = checks.check_verify_report(report, [0, 1])
        assert len(failures) == 1 and "[1]" in failures[0]
