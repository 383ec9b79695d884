"""Group-invariant feature maps via max filtering."""

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
from .graphs import (ColorCoding, TreeTemplate, WeightedGraph,
                     brute_force_tree_filter, graph_isomorphism_certificate,
                     make_color_coding, mf_tree_dp, validate_post_order)
from .calculus import (SubgradientSet, directional_derivative, subdifferential,
                       subgradient, witness_set)

__all__ = [name for name in dir() if not name.startswith("_")]
