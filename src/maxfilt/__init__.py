"""Group-invariant feature maps via max filtering.

The names of :mod:`maxfilt.graphs` and :mod:`maxfilt.calculus`, and the
submodules not imported here (``maxfilt.analysis``, ``maxfilt.pipeline``,
``maxfilt.cli``), load on first access (PEP 562).  A name is read from its
home module at every access and never cached here, so rebinding it there
rebinds it here too."""

__version__ = "0.1.0"

from .core import (ColumnPermutation, CyclicShift, DimensionMismatch, Enumerated,
                   EnumerationCapExceeded, FilterBank, FilterResult, FullOrthogonal,
                   FullPermutation, GroupAction, LeftOrthogonal, NumericFailure,
                   PatchPermutation, PhaseCircle, ShiftAndConjugate, SignFlips,
                   SignedPermutation, SlidingWindowShift, ValidationError,
                   apply_witness, bank_argmax, bank_subgradient, bank_values,
                   brute_force_max_filter, filter_bank_apply,
                   group_order, max_filter, quotient_distance, quotient_distances,
                   random_element)
from .templates import (GMMClassifier, HermiteSpec, Template, banded_circulant,
                        gmm_classifier, hermite_template,
                        hermite_value, indicator_signal, indicator_templates,
                        normal_quantile, projective_uniformity_estimate,
                        random_bank_log_delta, random_bank_parameters,
                        random_sphere_templates,
                        thompson_distance)

# Exported names by the submodule that defines them, loaded on first access.
_LAZY = {
    "graphs": ("ColorCoding", "TreeTemplate", "WeightedGraph", "brute_force_tree_filter",
               "graph_isomorphism_certificate", "make_color_coding", "mf_tree_dp",
               "validate_post_order"),
    "calculus": ("SubgradientSet", "directional_derivative", "subdifferential",
                 "subgradient", "witness_set"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("analysis", "calculus", "cli", "graphs", "pipeline")

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_LAZY) | set(_HOME))


def __getattr__(name):
    from importlib import import_module

    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
