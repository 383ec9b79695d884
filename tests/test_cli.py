import json
import os
import subprocess
import sys

import numpy as np
import pytest

from maxfilt.cli import main, parse_group_spec
import maxfilt as mf
from maxfilt.groups import KINDS
from maxfilt.pipeline import (LabeledDataset, TrainConfig, group_from_jsonable, group_to_jsonable,
                              save_model, train_svm_templates, write_pgm)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestGroupSpecGrammar:
    def test_round_trips(self):
        assert parse_group_spec("cyclic:64") == mf.CyclicShift(64)
        assert parse_group_spec("perm:10") == mf.FullPermutation(10)
        assert parse_group_spec("signedperm:8") == mf.SignedPermutation(8)
        assert parse_group_spec("leftorth:2x50") == mf.LeftOrthogonal(2, 50)
        assert parse_group_spec("colperm:3x7") == mf.ColumnPermutation(3, 7)
        assert parse_group_spec("phase:4") == mf.PhaseCircle(4)
        assert parse_group_spec("shiftconj:50") == mf.ShiftAndConjugate(50)
        assert parse_group_spec("window:30x971", channels=15) == \
            mf.SlidingWindowShift(15, 30, 971)
        assert parse_group_spec("window:15x30x971") == mf.SlidingWindowShift(15, 30, 971)
        patch = parse_group_spec("patchperm:4@16x16")
        assert len(patch.patches) == 16 and len(patch.patches[0]) == 16

    def test_bad_specs_rejected(self):
        for bad in ("cyclic", "unknown:4", "window:30", "cyclic:x", "leftorth:2", "cyclic:64x2",
                    "patchperm:4", "cyclic:4.5", "window:1x2x3x4", "cyclic:", "patchperm:0@4x4",
                    # sizes are ASCII digits only, though int() takes these
                    "orth:1_0", "shiftconj: 7", "phase:+4", "cyclic:\u0663", "window:2x 3x4",
                    "patchperm:+2@4x4", "patchperm:2@4x\uff14"):
            with pytest.raises(mf.ValidationError):
                parse_group_spec(bad)

    def test_window_spec_without_channels_exits_3(self, capsys):
        with pytest.raises(mf.ValidationError, match="needs channel count"):
            parse_group_spec("window:3x10")
        code, out, err = run_cli(capsys, "separation", "--group", "window:3x10", "--n", "2",
                                 "--seed", "0")
        assert (code, out) == (3, "")
        assert err.startswith("validation error: ") and "needs channel count" in err

    def test_every_kind_parses_from_its_grammar(self, tmp_path):
        mats = write_json(tmp_path / "s2.json", [np.eye(2).tolist(), [[0.0, 1.0], [1.0, 0.0]]])
        samples = {"enumerated": "enumerated:" + mats, "cyclic": "cyclic:6", "perm": "perm:5",
                   "signedperm": "signedperm:4", "signflips": "signflips:3", "orth": "orth:2",
                   "leftorth": "leftorth:2x7", "colperm": "colperm:3x4", "phase": "phase:4",
                   "shiftconj": "shiftconj:9", "patchperm": "patchperm:2@4x6",
                   "window": "window:2x3x8"}
        assert set(samples) == set(KINDS)
        for kind, spec in samples.items():
            assert KINDS[kind].spec.startswith(kind + ":")
            group = parse_group_spec(spec)
            assert group.kind == kind
            doc = group_to_jsonable(group)
            assert group_to_jsonable(group_from_jsonable(json.loads(json.dumps(doc)))) == doc

    def test_help_lists_every_kind(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["filter", "--help"])
        assert exit_info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert all(kind.spec in out for kind in KINDS.values()) and len(KINDS) == 12


class TestFilterCommand:
    def test_basic_filter(self, tmp_path, capsys):
        t = write_json(tmp_path / "t.json", [1.0, 0.0, 0.0, 0.0])
        x = write_json(tmp_path / "x.json", [0.0, 0.0, 5.0, 0.0])
        code, out, _ = run_cli(capsys, "filter", "--group", "cyclic:4",
                               "--template", t, "--input", x)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(5.0)
        assert doc["witnesses"] == [2]

    def test_oracle_flag_agrees(self, tmp_path, capsys):
        t = write_json(tmp_path / "t.json", [0.3, -1.0, 0.4])
        x = write_json(tmp_path / "x.json", [1.0, 2.0, -0.5])
        code, out, _ = run_cli(capsys, "filter", "--group", "perm:3",
                               "--template", t, "--input", x, "--oracle")
        assert code == 0

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        t = write_json(tmp_path / "t.json", [1.0, 0.0])
        x = write_json(tmp_path / "x.json", [1.0, 0.0, 0.0])
        code, _, err = run_cli(capsys, "filter", "--group", "cyclic:3",
                               "--template", t, "--input", x)
        assert code == 3
        assert "validation" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        x = write_json(tmp_path / "x.json", [1.0, 0.0, 0.0])
        code, _, err = run_cli(capsys, "filter", "--group", "cyclic:3",
                               "--template", str(tmp_path / "nope.json"), "--input", x)
        assert code == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        x = write_json(tmp_path / "x.json", [1.0, 0.0, 0.0])
        code, _, _ = run_cli(capsys, "filter", "--group", "cyclic:3",
                             "--template", str(bad), "--input", x)
        assert code == 2

    def test_oracle_mismatch_exits_4(self, tmp_path, capsys, monkeypatch):
        import maxfilt.cli as cli_mod
        from maxfilt.core import FilterResult

        monkeypatch.setattr(cli_mod, "brute_force_max_filter",
                            lambda g, z, x: FilterResult(value=123.0, witnesses=[0]))
        t = write_json(tmp_path / "t.json", [1.0, 0.0])
        x = write_json(tmp_path / "x.json", [0.0, 1.0])
        code, _, err = run_cli(capsys, "filter", "--group", "cyclic:2",
                               "--template", t, "--input", x, "--oracle")
        assert code == 4
        assert "oracle" in err

    @staticmethod
    def _large_operands(tmp_path, group, seed):
        """Template and input of norm 1e6 each, so values are near 1e12."""
        rng = np.random.default_rng(seed)
        z, x = (v * 1e6 / np.linalg.norm(v) for v in rng.standard_normal((2,) + group.shape))
        return z, x, write_json(tmp_path / "t.json", z.tolist()), write_json(tmp_path / "x.json",
                                                                             x.tolist())

    @pytest.mark.parametrize("spec", ["perm:8", "cyclic:64"])
    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_agrees_at_large_norms(self, tmp_path, capsys, spec, seed):
        # The two values may differ in their last bits, which at this scale
        # is far more than an absolute 1e-9.
        _, _, t, x = self._large_operands(tmp_path, parse_group_spec(spec), seed)
        code, _, err = run_cli(capsys, "filter", "--group", spec, "--template", t,
                               "--input", x, "--oracle")
        assert code == 0, err

    @pytest.mark.parametrize("approximate", [False, True])
    @pytest.mark.parametrize("excess, expected", [(1.01, 4), (0.99, 0)])
    def test_oracle_bound_scales_with_the_norms(self, tmp_path, capsys, monkeypatch,
                                                approximate, excess, expected):
        import maxfilt.cli as cli_mod
        from maxfilt.core import FilterResult

        group = mf.FullPermutation(8)
        z, v, t, x = self._large_operands(tmp_path, group, 0)
        value = mf.max_filter(group, z, v).value
        bound = 1e-9 * np.linalg.norm(z) * np.linalg.norm(v)
        monkeypatch.setattr(cli_mod, "brute_force_max_filter", lambda g, z, x: FilterResult(
            value=value + excess * bound, witnesses=[], approximate=approximate))
        code, _, err = run_cli(capsys, "filter", "--group", "perm:8", "--template", t,
                               "--input", x, "--oracle")
        assert code == expected, err

    def test_enumerated_group_from_file(self, tmp_path, capsys):
        mats = write_json(tmp_path / "group.json",
                          [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]])
        t = write_json(tmp_path / "t.json", [1.0, 0.0])
        x = write_json(tmp_path / "x.json", [-2.0, 5.0])
        code, out, _ = run_cli(capsys, "filter", "--group", f"enumerated:{mats}",
                               "--template", t, "--input", x)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.0)

    @pytest.mark.parametrize("doc, in_group", [({}, False), ("a", False), ([None, 1, 2, 3], True)],
                             ids=["template-object", "template-string", "enumerated-null-matrix"])
    def test_malformed_operand_file_exits_3_naming_the_file(self, tmp_path, capsys, doc,
                                                           in_group):
        bad = write_json(tmp_path / "bad.json", doc)
        x = write_json(tmp_path / "x.json", [1.0, 0.0, 0.0, 2.0])
        group, template = (f"enumerated:{bad}", x) if in_group else ("perm:4", bad)
        code, out, err = run_cli(capsys, "filter", "--group", group, "--template", template,
                                 "--input", x)
        assert (code, out) == (3, "")
        assert err.startswith("validation error: ") and bad in err

    @pytest.mark.parametrize("spec, z", [
        ("colperm:2x3", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        ("colperm:3x2", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),   # not a complex 3-vector
    ])
    @pytest.mark.parametrize("with_shape", [False, True])
    def test_matrix_template_documents(self, tmp_path, capsys, spec, z, with_shape):
        group = parse_group_spec(spec)
        x = np.arange(6.0).reshape(group.shape)[::-1] - 2.0
        doc = {"vector": z, "shape": list(group.shape)} if with_shape else {"vector": z}
        code, out, err = run_cli(capsys, "filter", "--group", spec,
                                 "--template", write_json(tmp_path / "t.json", doc),
                                 "--input", write_json(tmp_path / "x.json", x.tolist()))
        assert code == 0 and err == ""
        assert json.loads(out)["value"] == mf.max_filter(group, np.array(z), x).value

    def test_window_template_from_a_model_file(self, tmp_path, capsys):
        group = mf.SlidingWindowShift(2, 3, 7)
        rng = np.random.default_rng(8)
        samples = [(rng.standard_normal(group.shape), "ab"[i % 2]) for i in range(6)]
        model = train_svm_templates(LabeledDataset(samples, "window"), group, 2,
                                    TrainConfig(epochs=2))
        save_model(model, str(tmp_path / "model.json"))
        doc = json.loads((tmp_path / "model.json").read_text())["templates"][1]
        x = rng.standard_normal(group.shape)
        code, out, err = run_cli(capsys, "filter", "--group", "window:2x3x7",
                                 "--template", write_json(tmp_path / "t.json", doc),
                                 "--input", write_json(tmp_path / "x.json", x.tolist()))
        assert code == 0 and err == ""
        assert json.loads(out)["value"] == mf.max_filter(group, model.templates[1].vector, x).value

    def test_complex_group_operands(self, tmp_path, capsys):
        t = write_json(tmp_path / "t.json", [[1.0, 0.0], [0.0, 0.0]])
        x = write_json(tmp_path / "x.json", [[0.0, 1.0], [0.0, 0.0]])
        code, out, _ = run_cli(capsys, "filter", "--group", "phase:2",
                               "--template", t, "--input", x)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0)


class TestTemplatesCommand:
    def test_hermite_template(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "templates", "--hermite", "3", "--dim", "16")
        assert code == 0
        vec = np.array(json.loads(out)["template"]["vector"])
        # odd degree: antisymmetric across the quantile grid
        np.testing.assert_allclose(vec, -vec[::-1], atol=1e-12)
        # separate --degree spelling produces the identical template
        code, out2, _ = run_cli(capsys, "templates", "--hermite", "--degree", "3",
                                "--dim", "16")
        assert code == 0
        np.testing.assert_array_equal(
            np.array(json.loads(out2)["template"]["vector"]), vec)

    def test_sphere_templates_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "templates", "--sphere", "3", "--dim", "5",
                                 "--seed", "9")
        code2, out2, _ = run_cli(capsys, "templates", "--sphere", "3", "--dim", "5",
                                 "--seed", "9")
        assert code1 == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timestamp"), d2.pop("timestamp")
        assert d1 == d2


class TestGraphFilterCommand:
    def test_path_template_separates(self, tmp_path, capsys):
        from maxfilt.graphs import TreeTemplate, WeightedGraph
        tree = write_json(tmp_path / "p4.json", TreeTemplate.path(4).to_dict())
        hexagon = write_json(tmp_path / "c6.json", WeightedGraph.cycle(6).to_dict())
        double = write_json(tmp_path / "cc.json", WeightedGraph.disjoint_union(
            WeightedGraph.cycle(3), WeightedGraph.cycle(3)).to_dict())
        code, out, _ = run_cli(capsys, "graph-filter", "--tree", tree,
                               "--graph", hexagon, "--seed", "7", "--oracle")
        assert code == 0
        v_hex = json.loads(out)["value"]
        code, out, _ = run_cli(capsys, "graph-filter", "--tree", tree,
                               "--graph", double, "--seed", "7", "--oracle")
        assert code == 0
        v_two = json.loads(out)["value"]
        assert v_hex == pytest.approx(6.0)
        assert v_two == pytest.approx(4.0)
        assert v_hex != v_two

    @pytest.mark.parametrize("graph", [
        {"n": 0, "edges": []},
        {"n": 6, "edges": [[0, 6, 1.0]]},          # endpoint out of range
        {"n": 6, "edges": [[-1, 2, 1.0]]},         # would index vertex 5
        {"n": 6, "edges": [[0.7, 2, 1.0]]},        # would truncate to vertex 0
        {"n": 6, "edges": [[0, 2, "heavy"]]},      # non-numeric weight
        [1, 2],                                     # not an object
        {"n": 3},                                   # no edges
    ], ids=["no-vertices", "endpoint-out-of-range", "negative-endpoint",
            "fractional-endpoint", "non-numeric-weight", "not-an-object", "no-edges"])
    def test_malformed_graph_json_exits_3(self, tmp_path, capsys, graph):
        from maxfilt.graphs import TreeTemplate
        tree = write_json(tmp_path / "p4.json", TreeTemplate.path(4).to_dict())
        bad = write_json(tmp_path / "bad.json", graph)
        code, out, err = run_cli(capsys, "graph-filter", "--tree", tree,
                                 "--graph", bad, "--seed", "7")
        assert code == 3 and out == ""
        assert err.startswith("validation error: graph ")

    def test_malformed_tree_json_exits_3(self, tmp_path, capsys):
        from maxfilt.graphs import WeightedGraph
        tree = write_json(tmp_path / "tree.json", {"n": 3, "edges": [[0, 1, 1.0], [1, 3, 1.0]]})
        graph = write_json(tmp_path / "c6.json", WeightedGraph.cycle(6).to_dict())
        code, _, err = run_cli(capsys, "graph-filter", "--tree", tree, "--graph", graph,
                               "--seed", "7")
        assert code == 3
        assert err.startswith("validation error: graph edge [1, 3, 1.0]")


    @pytest.mark.parametrize("multiplier", ["nan", "inf", "0", "-1"])
    def test_bad_coding_multiplier_exits_3(self, tmp_path, capsys, multiplier):
        from maxfilt.graphs import TreeTemplate, WeightedGraph
        tree = write_json(tmp_path / "p4.json", TreeTemplate.path(4).to_dict())
        graph = write_json(tmp_path / "c6.json", WeightedGraph.cycle(6).to_dict())
        code, out, err = run_cli(capsys, "graph-filter", "--tree", tree, "--graph", graph,
                                 "--seed", "7", f"--coding-multiplier={multiplier}")
        assert code == 3 and out == ""
        assert err.startswith("validation error: coding multiplier must be positive and finite")

    def test_family_missing_a_subset_is_approximate(self, tmp_path, capsys):
        # 23 colorings (multiplier 0.05) for the 70 4-subsets of 8 vertices:
        # the one family drawn misses some, and the value is a lower bound.
        star = write_json(tmp_path / "star.json",
                          {"n": 4, "edges": [[0, 3, 1], [1, 3, 2], [2, 3, -1]]})
        graph = write_json(tmp_path / "g8.json", {"n": 8, "edges": [
            [0, 1, 2], [0, 2, 1], [1, 2, 3], [1, 3, -1], [2, 4, 2], [3, 4, 1], [4, 5, 3],
            [4, 6, -2], [5, 6, 1], [6, 7, 2], [2, 7, 1]]})
        code, out, err = run_cli(capsys, "graph-filter", "--tree", star, "--graph", graph,
                                 "--seed", "7", "--coding-multiplier", "0.05")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["approximate"] is True and doc["coding_size"] == 23

    @pytest.mark.parametrize("multiplier, approximate", [("1", False), ("0.05", True)])
    def test_report_says_whether_exact(self, tmp_path, capsys, multiplier, approximate):
        # 103 colorings (multiplier 0.05) leave some of the 4,368 5-subsets
        # of 16 vertices without a rainbow coloring; 2,058 cover them all.
        from maxfilt.graphs import TreeTemplate, WeightedGraph
        rng = np.random.default_rng(15)
        adj = np.triu(rng.uniform(size=(16, 16)) * (rng.random((16, 16)) < 0.3), 1)
        tree = write_json(tmp_path / "p5.json", TreeTemplate.path(5).to_dict())
        graph = write_json(tmp_path / "g16.json", WeightedGraph(adj + adj.T).to_dict())
        code, out, _ = run_cli(capsys, "graph-filter", "--tree", tree, "--graph", graph,
                               "--seed", "3", "--coding-multiplier", multiplier)
        assert code == 0
        doc = json.loads(out)
        assert doc["approximate"] is approximate
        assert doc["dp_stats"]["colorings"] == doc["coding_size"]


class TestAnalysisCommands:
    def test_separation_zero_violations(self, capsys):
        code, out, _ = run_cli(capsys, "separation", "--group", "cyclic:4",
                               "--n", "8", "--trials", "300", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert doc["seed"] == 1
        assert "config_hash" in doc and "version" in doc

    def test_lipschitz_report(self, capsys):
        code, out, _ = run_cli(capsys, "lipschitz", "--group", "signflips:3",
                               "--n", "10", "--samples", "100", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        assert 0 < doc["lower_est"] <= doc["upper_est"] <= doc["theory_upper"] + 1e-6

    def test_lipschitz_on_factorial_order_group(self, capsys):
        # |perm:64| = 64! overflows a float; the theory delta is still reported
        code, out, _ = run_cli(capsys, "lipschitz", "--group", "perm:64",
                               "--n", "4", "--samples", "2", "--seed", "0")
        assert code == 0
        delta = json.loads(out)["theory_delta"]
        assert np.isfinite(delta) and delta > 0

    def test_lipschitz_log_delta_past_float_range(self, capsys):
        # delta for |perm:102| = 102! underflows to 0.0; its log stays exact
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run_cli(capsys, "lipschitz", "--group", "perm:102",
                               "--n", "2", "--samples", "2", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["theory_delta"] == 0.0
        with mpmath.workdps(60):
            m = mpmath.factorial(102)
            want = 0.5 * (mpmath.log(mpmath.pi / 128) - 4 * mpmath.log(m)
                          - mpmath.log(2 * 102 + 3 * (mpmath.log(4) + 2 * mpmath.log(m))))
            assert doc["theory_log_delta"] == pytest.approx(float(want), rel=1e-12)

    def test_window_separation_and_lipschitz_run(self, capsys):
        # The quotient distance passes a full (c, w, T) tensor as template.
        code, out, _ = run_cli(capsys, "separation", "--group", "window:2x3x6",
                               "--n", "4", "--trials", "100", "--seed", "6")
        assert code == 0
        assert json.loads(out)["checked"] == 100
        code, out, _ = run_cli(capsys, "lipschitz", "--group", "window:2x3x6",
                               "--n", "4", "--samples", "20", "--seed", "6")
        assert code == 0
        doc = json.loads(out)
        assert 0 < doc["lower_est"] <= doc["upper_est"] <= doc["theory_upper"] + 1e-6

    @pytest.mark.parametrize("argv", [("separation", "--trials", "-5"),
                                      ("lipschitz", "--samples", "0"),
                                      ("lipschitz", "--samples", "-1")])
    def test_counts_below_range_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, argv[0], "--group", "perm:4", "--n", "4",
                                 "--seed", "0", *argv[1:])
        assert code == 3
        assert out == ""
        assert argv[1].lstrip("-") in err

    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_empty_bank_exits_3_at_any_trials(self, capsys, trials):
        code, out, err = run_cli(capsys, "separation", "--group", "perm:4", "--n", "0",
                                 "--trials", trials, "--seed", "0")
        assert (code, out) == (3, "")
        assert "filter bank is empty" in err

    def test_config_hash_does_not_depend_on_the_machine(self, capsys, monkeypatch):
        hashes = []
        for cpus in (1, 8):
            monkeypatch.setattr("os.cpu_count", lambda: cpus)
            code, out, _ = run_cli(capsys, "separation", "--group", "cyclic:4",
                                   "--n", "4", "--trials", "20", "--seed", "5")
            assert code == 0
            hashes.append(json.loads(out)["config_hash"])
        assert hashes[0] == hashes[1]

    def test_stability_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--grid", "64", "--warps", "5",
                               "--modes", "2", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 5

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "separation", "--group", "cyclic:4",
                               "--n", "4", "--trials", "50", "--seed", "4",
                               "--format", "table")
        assert code == 0
        assert "violations" in out and "{" not in out.splitlines()[0]


class TestDeterminism:
    def test_byte_identical_reports_modulo_timestamp(self, tmp_path, capsys):
        args = ["separation", "--group", "perm:4", "--n", "8", "--trials", "200",
                "--seed", "11"]
        blobs = []
        for rep in ("a.json", "b.json"):
            path = tmp_path / rep
            code, _, _ = run_cli(capsys, *args, "--output", str(path))
            assert code == 0
            doc = json.loads(path.read_text())
            assert doc.pop("timestamp")
            blobs.append(json.dumps(doc, sort_keys=True))
        assert blobs[0] == blobs[1]


class TestTrainPredict:
    def _write_ecg(self, tmp_path, rng, label, name, motif, t=24, c=2, w=6):
        mat = 0.1 * rng.standard_normal((c, t))
        pos = int(rng.integers(t - w))
        mat[:, pos:pos + w] += motif
        np.savetxt(str(tmp_path / name), mat, delimiter=",")
        return {"path": name, "label": label}

    def test_train_then_predict(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        motif_a = rng.standard_normal((2, 6))
        motif_b = rng.standard_normal((2, 6))
        entries = []
        for i in range(10):
            entries.append(self._write_ecg(tmp_path, rng, "mi", f"a{i}.csv", motif_a))
            entries.append(self._write_ecg(tmp_path, rng, "ok", f"b{i}.csv", motif_b))
        manifest = write_json(tmp_path / "manifest.json", {"samples": entries})
        model_path = str(tmp_path / "model.json")
        code, out, err = run_cli(capsys, "train", "--data", manifest,
                                 "--data-format", "ecg_csv",
                                 "--group", "window:6x19",
                                 "--templates", "2", "--epochs", "30",
                                 "--seed", "6", "--output", model_path)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["final_loss"] <= doc["initial_loss"]
        code, out, err = run_cli(capsys, "predict", "--model", model_path,
                                 "--input", str(tmp_path / "a0.csv"))
        assert code == 0, err
        assert json.loads(out)["label"] in ("mi", "ok")

    def test_train_rejects_non_finite_samples(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        motif = rng.standard_normal((2, 6))
        entries = [self._write_ecg(tmp_path, rng, ("mi", "ok")[i % 2], f"s{i}.csv", motif)
                   for i in range(4)]
        mat = np.loadtxt(str(tmp_path / "s2.csv"), delimiter=",", ndmin=2)
        mat[1, 5] = np.nan
        np.savetxt(str(tmp_path / "s2.csv"), mat, delimiter=",")
        manifest = write_json(tmp_path / "manifest.json", {"samples": entries})
        code, out, err = run_cli(capsys, "train", "--data", manifest,
                                 "--group", "window:6x19", "--templates", "2",
                                 "--epochs", "3", "--seed", "0",
                                 "--output", str(tmp_path / "model.json"))
        assert code == 3
        assert "NaN" in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("setting, value, name", [
        ("--epochs", "0", "epochs"), ("--epochs", "-1", "epochs"),
        ("--templates", "0", "n_templates"), ("--lr", "nan", "learning_rate"),
        ("--ridge", "inf", "ridge"), ("--lr", "-0.5", "learning_rate"),
        ("--lr", "0", "learning_rate"), ("--ridge", "-1", "ridge")])
    def test_bad_training_settings_exit_3(self, tmp_path, capsys, setting, value, name):
        rng = np.random.default_rng(8)
        motif = rng.standard_normal((2, 6))
        entries = [self._write_ecg(tmp_path, rng, ("mi", "ok")[i % 2], f"s{i}.csv", motif)
                   for i in range(4)]
        manifest = write_json(tmp_path / "manifest.json", {"samples": entries})
        # The bad setting comes last, so it overrides the good one before it.
        code, _, err = run_cli(capsys, "train", "--data", manifest, "--group", "window:6x19",
                               "--templates", "2", "--epochs", "3", "--seed", "0",
                               setting, value, "--output", str(tmp_path / "model.json"))
        assert code == 3, err
        assert f"validation error: {name} must be" in err
        assert not (tmp_path / "model.json").exists()

    MALFORMED = {"bad-cell": "4,x,6\n", "ragged": "1,2\n3,4,5\n", "empty": ""}

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_ecg_file_exits_3_on_train(self, tmp_path, capsys, text):
        rng = np.random.default_rng(8)
        motif = rng.standard_normal((2, 6))
        entries = [self._write_ecg(tmp_path, rng, ("mi", "ok")[i % 2], f"s{i}.csv", motif)
                   for i in range(4)]
        (tmp_path / "s2.csv").write_text(text)
        manifest = write_json(tmp_path / "manifest.json", {"samples": entries})
        code, out, err = run_cli(capsys, "train", "--data", manifest, "--group", "window:6x19",
                                 "--templates", "2", "--epochs", "3", "--seed", "0",
                                 "--output", str(tmp_path / "model.json"))
        assert (code, out) == (3, "")
        assert err.startswith("validation error: ") and "s2.csv" in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("manifest", [{"samples": []}, []], ids=["dict", "list"])
    @pytest.mark.parametrize("command", [
        ("train", "--data-format", "ecg_csv", "--group", "window:6x19", "--data"),
        ("texture", "--manifest")], ids=["train-ecg", "texture-pgm"])
    def test_empty_manifest_exits_3(self, tmp_path, capsys, manifest, command):
        path = write_json(tmp_path / "manifest.json", manifest)
        code, out, err = run_cli(capsys, *command, path, "--seed", "0",
                                 "--output", str(tmp_path / "model.json"))
        assert (code, out) == (3, "")
        assert err == f"validation error: dataset {path} holds no samples\n"
        assert not (tmp_path / "model.json").exists()

    MALFORMED_MANIFESTS = {
        "null-entry": ({"samples": [None]}, ": entry 0 is not"),
        "null-after-entry": ([{"path": "s0", "label": "a"}, None], ": entry 1 is not"),
        "number-entry": ([{"path": "s0", "label": "a"}, 5], ": entry 1 is not"),
        "null-path": ({"samples": [{"path": None, "label": "a"}]}, ": entry 0 is not"),
        "number-path": ([{"path": "s0", "label": "a"}, {"path": 3, "label": "b"}],
                        ": entry 1 is not"),
        "samples-not-a-list": ({"samples": 5}, " must list its samples"),
    }

    @pytest.mark.parametrize("manifest, message", MALFORMED_MANIFESTS.values(),
                             ids=list(MALFORMED_MANIFESTS))
    @pytest.mark.parametrize("command", [
        ("train", "--data-format", "ecg_csv", "--group", "window:6x19", "--data"),
        ("texture", "--manifest")], ids=["train-ecg", "texture-pgm"])
    def test_malformed_manifest_exits_3_naming_the_file_and_entry(self, tmp_path, capsys,
                                                                  manifest, message, command):
        path = write_json(tmp_path / "manifest.json", manifest)
        code, out, err = run_cli(capsys, *command, path, "--seed", "0",
                                 "--output", str(tmp_path / "model.json"))
        assert (code, out) == (3, "")
        assert err.startswith(f"validation error: manifest {path}{message}")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command", [
        ("train", "--data-format", "ecg_csv", "--group", "window:6x19", "--data"),
        ("texture", "--manifest")], ids=["train-ecg", "texture-pgm"])
    def test_manifest_entry_without_a_path_exits_2(self, tmp_path, capsys, command):
        path = write_json(tmp_path / "manifest.json", [{"label": "a"}])
        code, out, err = run_cli(capsys, *command, path, "--seed", "0",
                                 "--output", str(tmp_path / "model.json"))
        assert (code, out, err) == (2, "", "i/o error: 'path'\n")

    # One rule in pipeline.ingest for every format: the file names no sample.
    @pytest.mark.parametrize("name, text, command", [
        ("polys.json", "[]", ("district", "--templates", "4", "--polygons")),
        ("data.csv", "x0,x1,label\n", ("train", "--data-format", "csv", "--group", "perm:2",
                                        "--data")),
        ("data.csv", "", ("train", "--data-format", "csv", "--group", "perm:2", "--data"))],
        ids=["polygons", "csv-header-only", "csv-empty"])
    def test_empty_dataset_exits_3_naming_the_file(self, tmp_path, capsys, name, text, command):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, *command, str(path), "--seed", "0",
                                 "--output", str(tmp_path / "out"))
        assert (code, out) == (3, "")
        assert err == f"validation error: dataset {path} holds no samples\n"
        assert not (tmp_path / "out").exists()

    def test_ecg_files_of_two_shapes_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        entries = [self._write_ecg(tmp_path, rng, "ab"[i], f"s{i}.csv", 1.0, t=24 + i)
                   for i in range(2)]
        manifest = write_json(tmp_path / "manifest.json", {"samples": entries})
        code, out, err = run_cli(capsys, "train", "--data", manifest, "--group", "window:6x19",
                                 "--templates", "2", "--seed", "0",
                                 "--output", str(tmp_path / "model.json"))
        assert (code, out) == (3, "")
        assert err == "validation error: ecg sample files must share a common shape\n"

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_ecg_file_exits_3_on_predict(self, tmp_path, capsys, text):
        path, _ = self._model(tmp_path, capsys)
        (tmp_path / "x.csv").write_text(text)
        code, out, err = run_cli(capsys, "predict", "--model", str(path),
                                 "--input", str(tmp_path / "x.csv"))
        assert (code, out) == (3, "")
        assert err.startswith("validation error: ") and "x.csv" in err

    # A model is checked when it is loaded: exit 3, never a numpy error.
    def _model(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        motif = rng.standard_normal((2, 6))
        entries = [self._write_ecg(tmp_path, rng, ("mi", "ok")[i % 2], f"s{i}.csv",
                                   motif * (i % 2)) for i in range(6)]
        manifest = write_json(tmp_path / "manifest.json", {"samples": entries})
        path = tmp_path / "model.json"
        code, _, err = run_cli(capsys, "train", "--data", manifest, "--group", "window:6x19",
                               "--templates", "3", "--epochs", "3", "--seed", "0",
                               "--output", str(path))
        assert code == 0, err
        return path, json.loads(path.read_text())

    def _predict(self, tmp_path, capsys, path, doc):
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "predict", "--model", str(path),
                       "--input", str(tmp_path / "s0.csv"))

    def test_weights_that_do_not_match_the_templates_exit_3(self, tmp_path, capsys):
        path, doc = self._model(tmp_path, capsys)
        doc["classifier"]["weights"] = doc["classifier"]["weights"][:2]
        code, _, err = self._predict(tmp_path, capsys, path, doc)
        assert code == 3
        assert "weights" in err

    @pytest.mark.parametrize("group", [
        {"kind": "cyclic", "n": "8"}, {"kind": "cyclic", "n": 8.0}, {"kind": "cyclic", "n": True},
        {"kind": "cyclic"}, {"n": 8}, {"kind": ["cyclic"], "n": 8}, [8],
    ], ids=["string-size", "float-size", "bool-size", "no-size", "no-kind", "list-kind",
            "not-an-object"])
    def test_malformed_model_group_exits_3(self, tmp_path, capsys, group):
        rng = np.random.default_rng(3)
        samples = [(rng.standard_normal(8), ("a", "b")[i % 2]) for i in range(6)]
        model = train_svm_templates(LabeledDataset(samples, "csv"), mf.CyclicShift(8), 2,
                                    TrainConfig(epochs=2))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["group"] = group
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "predict", "--model", str(path),
                                 "--input", write_json(tmp_path / "x.json", [0.0] * 8))
        assert code == 3 and out == ""
        assert err.startswith("validation error: ")

    @pytest.mark.parametrize("doc", [None, [1, 2], "model"], ids=["null", "list", "string"])
    def test_model_file_that_is_not_an_object_exits_3_naming_it(self, tmp_path, capsys, doc):
        path = write_json(tmp_path / "model.json", doc)
        code, out, err = run_cli(capsys, "predict", "--model", path,
                                 "--input", write_json(tmp_path / "x.json", [0.0] * 8))
        assert (code, out) == (3, "")
        assert err.startswith("validation error: ") and path in err

    def test_non_finite_template_exits_3(self, tmp_path, capsys):
        path, doc = self._model(tmp_path, capsys)
        doc["templates"][1]["vector"][0][0][0] = float("nan")
        code, _, err = self._predict(tmp_path, capsys, path, doc)
        assert code == 3
        assert "NaN" in err


class TestDistrictCommand:
    def test_csv_emission(self, tmp_path, capsys):
        polys = [
            {"label": "square", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            {"label": "flag", "vertices": [[0, 0], [4, 0], [4, 0.5], [0, 0.5]]},
            {"label": "tri", "vertices": [[0, 0], [2, 0], [1, 1.5]]},
        ]
        src = write_json(tmp_path / "polys.json", polys)
        out_csv = tmp_path / "coords.csv"
        code, _, err = run_cli(capsys, "district", "--polygons", src,
                               "--samples", "16", "--templates", "20",
                               "--pca", "2", "--seed", "8",
                               "--output", str(out_csv))
        assert code == 0, err
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == "label,pc1,pc2"
        assert len(rows) == 4

    def test_zero_samples_exit_3(self, tmp_path):
        # Checked before any resampling: no numpy warning on the way.
        src = write_json(tmp_path / "polys.json",
                         [{"label": "square", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}])
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(mf.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "maxfilt.cli", "district", "--polygons",
                               src, "--samples", "0", "--templates", "4", "--seed", "0"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 3 and proc.stdout == ""
        assert "n_samples must be a positive integer, got 0" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_one_sample_exits_3_naming_the_count(self, tmp_path, capsys):
        src = write_json(tmp_path / "polys.json",
                         [{"label": "square", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}])
        code, out, err = run_cli(capsys, "district", "--polygons", src, "--samples", "1",
                                 "--templates", "4", "--seed", "0")
        assert (code, out) == (3, "")
        assert "n_samples must be at least 2, got 1" in err


    @pytest.mark.parametrize("text", [
        "null", "[null]", '{"samples": null}', "[5]",
        '[{"label": "a", "vertices": [["x", 0], [1, 0], [0, 1]]}]'],
        ids=["null", "null-entry", "null-samples", "number-entry", "text-vertex"])
    def test_malformed_polygon_file_exits_3_naming_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "polys.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "district", "--polygons", str(path), "--seed", "0")
        assert (code, out) == (3, "")
        assert err.startswith(f"validation error: polygon file {path}")

    def test_one_polygon_exits_3_naming_the_file_and_count(self, tmp_path, capsys):
        src = write_json(tmp_path / "polys.json",
                         [{"label": "square", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}])
        code, out, err = run_cli(capsys, "district", "--polygons", src, "--templates", "4",
                                 "--seed", "0")
        assert (code, out) == (3, "")
        assert err == f"validation error: district needs at least 2 polygons, {src} holds 1\n"


class TestTextureCommand:
    def test_extract_and_train(self, tmp_path, capsys):
        sys.path.insert(0, "tests")
        from test_pipeline import make_texture_field
        rng = np.random.default_rng(9)
        entries = []
        for smooth, lab in ((0.0, "rough"), (1.5, "smooth")):
            for i in range(4):
                name = f"{lab}{i}.pgm"
                write_pgm(str(tmp_path / name), make_texture_field(16, smooth, rng))
                entries.append({"path": name, "label": lab})
        manifest = write_json(tmp_path / "m.json", {"samples": entries})
        model_path = str(tmp_path / "texture-model.json")
        code, out, err = run_cli(capsys, "texture", "--manifest", manifest,
                                 "--levels", "2:3", "--degrees", "0:3",
                                 "--pca", "25", "--seed", "10",
                                 "--output", model_path)
        assert code == 0, err
        assert json.loads(out)["train_accuracy"] >= 0.75
        code, out, _ = run_cli(capsys, "texture", "--extract",
                               "--image", str(tmp_path / "rough0.pgm"),
                               "--levels", "2:3", "--degrees", "0:2", "--seed", "0")
        assert code == 0
        assert len(json.loads(out)["features"]) == 6
        code, out, _ = run_cli(capsys, "predict", "--model", model_path,
                               "--input", str(tmp_path / "smooth1.pgm"))
        assert code == 0
        assert json.loads(out)["label"] in ("rough", "smooth")


    def test_training_featurizes_each_image_once(self, tmp_path, capsys, monkeypatch):
        sys.path.insert(0, "tests")
        from test_pipeline import make_texture_field
        rng = np.random.default_rng(12)
        entries = []
        for i in range(6):
            name = f"t{i}.pgm"
            write_pgm(str(tmp_path / name), make_texture_field(16, 1.5 * (i % 2), rng))
            entries.append({"path": name, "label": "rs"[i % 2]})
        manifest = write_json(tmp_path / "m.json", {"samples": entries})
        calls = []
        featurize = mf.pipeline.texture_features
        monkeypatch.setattr(mf.pipeline, "texture_features",
                            lambda *a, **k: calls.append(1) or featurize(*a, **k))
        code, _, err = run_cli(capsys, "texture", "--manifest", manifest, "--levels", "1:3",
                               "--degrees", "0:2", "--pca", "3", "--seed", "1",
                               "--output", str(tmp_path / "model.json"))
        assert code == 0, err
        assert len(calls) == 6

    @pytest.mark.parametrize("extra, hermite, seed", [((), True, 0),
                                                      (("--random-templates",), False, 3)])
    def test_extract_report_equals_reference_features(self, tmp_path, capsys, extra, hermite,
                                                       seed):
        sys.path.insert(0, "tests")
        from test_pipeline import make_texture_field, reference_texture_features
        image = str(tmp_path / "x.pgm")
        write_pgm(image, make_texture_field(64, 1.0, np.random.default_rng(13)))
        argv = ["texture", "--extract", "--image", image, "--levels", "0:6", "--degrees", "0:5",
                "--seed", str(seed), *extra]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        feats = reference_texture_features(mf.pipeline.parse_pgm(image), range(7), range(6),
                                           hermite=hermite, rng_seed=seed)
        args = mf.cli.build_parser().parse_args(argv)
        mf.cli.emit(args, mf.cli.make_report(args, {"features": feats.tolist()}))
        expected = capsys.readouterr().out

        def timestamp_aside(text):
            return [line for line in text.splitlines() if '"timestamp"' not in line]
        assert timestamp_aside(out) == timestamp_aside(expected)

    @pytest.mark.parametrize("option, value", [("--levels", "-1:2"), ("--levels", "1,-1"),
                                               ("--levels", "a:2"), ("--levels", "1:2:3"),
                                               ("--levels", ""), ("--degrees", "1,x")])
    def test_bad_ranges_exit_3(self, tmp_path, capsys, option, value):
        # "--levels=-1:2" joins option and value; the separate form
        # "--levels -1:2" exits 3 too (test_negative_ranges_exit_3_in_either_spelling).
        image = str(tmp_path / "x.pgm")
        write_pgm(image, np.random.default_rng(14).uniform(size=(8, 8)))
        code, out, err = run_cli(capsys, "texture", "--extract", "--image", image, "--levels",
                                 "1:2", "--seed", "0", f"{option}={value}")
        assert code == 3 and out == ""
        assert err.startswith("validation error:")

    @pytest.mark.parametrize("joined", [True, False])
    @pytest.mark.parametrize("option, value", [("--levels", "-1:2"), ("--levels", "-1"),
                                               ("--degrees", "-1"), ("--degrees", "-1,2")])
    def test_negative_ranges_exit_3_in_either_spelling(self, tmp_path, capsys, option, value,
                                                       joined):
        # As a separate argument, "-1:2" and "-1,2" reach validation as "-1" does.
        image = str(tmp_path / "x.pgm")
        write_pgm(image, np.random.default_rng(14).uniform(size=(8, 8)))
        given = [f"{option}={value}"] if joined else [option, value]
        code, out, err = run_cli(capsys, "texture", "--extract", "--image", image, "--seed", "0",
                                 *given)
        assert code == 3 and out == ""
        assert err.startswith("validation error:") and repr(value) in err

    @pytest.mark.parametrize("option, value", [("--levels", " 2:+3"), ("--degrees", "1_0"),
                                               ("--degrees", "1,\u0663")])
    def test_ranges_take_ascii_digits_only(self, tmp_path, capsys, option, value):
        # int() reads all three (as 2:3, 10 and 1,3); a size in a group spec reads none.
        image = str(tmp_path / "x.pgm")
        write_pgm(image, np.random.default_rng(14).uniform(size=(8, 8)))
        code, out, err = run_cli(capsys, "texture", "--extract", "--image", image, "--levels",
                                 "1:2", "--seed", "0", f"{option}={value}")
        assert code == 3 and out == ""
        assert err.startswith("validation error:")

    def test_ranges_parse(self):
        assert mf.cli._parse_range("2:8") == [2, 3, 4, 5, 6, 7, 8]
        assert mf.cli._parse_range("0,1,2") == [0, 1, 2]


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        t = tmp_path / "t.json"
        t.write_text("[1.0, 0.0]")
        x = tmp_path / "x.json"
        x.write_text("[0.0, 3.0]")
        proc = subprocess.run(
            [sys.executable, "-m", "maxfilt.cli", "filter", "--group", "cyclic:2",
             "--template", str(t), "--input", str(x)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(3.0)


class TestNumpyOnlyRuntime:
    SCRIPT = r"""
import sys
sys.modules["scipy"] = None        # any import of scipy now raises ImportError
import numpy as np
import maxfilt
from maxfilt import cli, pipeline
image = sys.argv[1]
pipeline.write_pgm(image, np.random.default_rng(0).uniform(size=(16, 16)))
codes = [cli.main(["templates", "--hermite", "3", "--dim", "16"]),
         cli.main(["texture", "--extract", "--image", image, "--levels", "1:4",
                   "--seed", "0"])]
assert not [m for m in sys.modules if m.startswith("scipy.")]
sys.exit(max(codes))
"""

    def test_cli_runs_without_scipy(self, tmp_path):
        # The child imports the same maxfilt as this process, from any directory.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(mf.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path / "x.pgm")],
                              capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        decoder = json.JSONDecoder()
        template, end = decoder.raw_decode(proc.stdout)
        features, _ = decoder.raw_decode(proc.stdout[end:].lstrip())
        assert len(template["template"]["vector"]) == 16
        assert len(features["features"]) == 4 * 6
