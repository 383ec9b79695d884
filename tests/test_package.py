"""The package's import graph: ``import maxfilt`` and the pipeline load only
what they use, and every exported name still resolves to its home module."""

import os
import subprocess
import sys

import pytest

import maxfilt as mf

# sorted(maxfilt.__all__) when every name was imported eagerly.
EXPORTED = [
    "ColorCoding", "ColumnPermutation", "CyclicShift", "DimensionMismatch", "Enumerated",
    "EnumerationCapExceeded", "FilterBank", "FilterResult", "FullOrthogonal", "FullPermutation",
    "GMMClassifier", "GroupAction", "HermiteSpec", "LeftOrthogonal", "NumericFailure",
    "PatchPermutation", "PhaseCircle", "ShiftAndConjugate", "SignFlips", "SignedPermutation",
    "SlidingWindowShift", "SubgradientSet", "Template", "TreeTemplate", "ValidationError",
    "WeightedGraph", "apply_witness", "banded_circulant", "bank_argmax", "bank_subgradient",
    "bank_values", "brute_force_max_filter", "brute_force_tree_filter", "calculus", "core",
    "directional_derivative", "filter_bank_apply", "gmm_classifier",
    "graph_isomorphism_certificate", "graphs", "group_order", "groups", "hermite_template",
    "hermite_value", "indicator_signal", "indicator_templates", "make_color_coding",
    "max_filter", "mf_tree_dp", "normal_quantile", "projective_uniformity_estimate",
    "quotient_distance", "quotient_distances", "random_bank_log_delta",
    "random_bank_parameters", "random_element", "random_sphere_templates", "subdifferential",
    "subgradient", "templates", "thompson_distance", "validate_post_order", "witness_set",
]

# The names that load with their home module on first access.
LAZY = {
    "graphs": ("ColorCoding", "TreeTemplate", "WeightedGraph", "brute_force_tree_filter",
               "graph_isomorphism_certificate", "make_color_coding", "mf_tree_dp",
               "validate_post_order"),
    "calculus": ("SubgradientSet", "directional_derivative", "subdifferential",
                 "subgradient", "witness_set"),
}

COLD = r"""
import sys
import maxfilt, maxfilt.pipeline
loaded = [m for m in ("maxfilt.graphs", "maxfilt.calculus", "maxfilt.analysis", "fractions")
          if m in sys.modules]
assert not loaded, f"loaded on import: {loaded}"
"""


def run_child(script, *argv):
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(mf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env)


def test_cold_import_loads_no_unused_module():
    proc = run_child(COLD)
    assert proc.returncode == 0, proc.stderr


# The CLI reaches analysis and graphs through the package: commands that use
# neither never load them, and those that do still run.
CLI_COLD = r"""
import contextlib, io, json, sys
import maxfilt.cli
def loaded():
    return [m for m in ("maxfilt.graphs", "maxfilt.analysis") if m in sys.modules]
assert not loaded(), f"loaded on import: {loaded()}"
with contextlib.redirect_stdout(io.StringIO()):
    assert maxfilt.cli.main(["templates", "--hermite", "2", "--dim", "8"]) == 0
    assert not loaded(), f"loaded by templates: {loaded()}"
    assert maxfilt.cli.main(["separation", "--group", "cyclic:4", "--n", "2",
                             "--trials", "10", "--seed", "0"]) == 0
    json.dump({"n": 2, "edges": [[0, 1, 1.0]]}, open(sys.argv[1], "w"))
    json.dump({"n": 3, "edges": [[0, 1, 2.0], [1, 2, 1.0]]}, open(sys.argv[2], "w"))
    assert maxfilt.cli.main(["graph-filter", "--tree", sys.argv[1], "--graph", sys.argv[2],
                             "--seed", "0", "--oracle"]) == 0
"""


def test_cli_loads_analysis_and_graphs_on_first_use(tmp_path):
    proc = run_child(CLI_COLD, str(tmp_path / "tree.json"), str(tmp_path / "graph.json"))
    assert proc.returncode == 0, proc.stderr


# Texture training imports its thread pool where it starts one, so no
# import pays for it.
POOL_COLD = r"""
import sys
import numpy as np
import maxfilt.cli, maxfilt.pipeline as pipeline
assert "concurrent.futures" not in sys.modules, "loaded on import"
pipeline._texture_workers = lambda count: 2
pipeline.texture_feature_rows([np.zeros((4, 4))] * 2, [1], [0])
assert "concurrent.futures" in sys.modules, "the pool was not used"
"""


def test_texture_thread_pool_loads_on_first_use():
    proc = run_child(POOL_COLD)
    assert proc.returncode == 0, proc.stderr


def test_exported_names_are_unchanged():
    assert sorted(mf.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(mf))
    namespace = {}
    exec("from maxfilt import *", namespace)
    assert set(EXPORTED) <= set(namespace)


def test_each_name_is_its_home_modules_object():
    for name in EXPORTED:
        obj = getattr(mf, name)
        if name in ("calculus", "core", "graphs", "groups", "templates"):
            assert obj is sys.modules[f"maxfilt.{name}"]
            continue
        home = next((m for m, names in LAZY.items() if name in names),
                    "core" if hasattr(mf.core, name) else "templates")
        assert obj is getattr(sys.modules[f"maxfilt.{home}"], name), name


def test_submodules_resolve_by_attribute():
    proc = run_child("import maxfilt as mf\n"
                     "assert mf.graphs.mf_tree_dp is mf.mf_tree_dp\n"
                     "assert mf.calculus.subgradient is mf.subgradient\n"
                     "assert mf.analysis.sample_point is mf.groups.sample_point\n"
                     "assert callable(mf.pipeline.read_ecg_csv) and mf.cli.main\n")
    assert proc.returncode == 0, proc.stderr


def test_lazy_names_are_not_cached(monkeypatch):
    # A name rebound in its home module (as a tracer does) is what the
    # package gives, and the package's own namespace never holds it.
    marker = object()
    monkeypatch.setattr(mf.graphs, "mf_tree_dp", marker)
    assert mf.mf_tree_dp is marker
    assert "mf_tree_dp" not in vars(mf)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mf.no_such_name
