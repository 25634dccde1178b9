"""Exact finite-stage Bourgain-Delbaen constructions.

Rational-arithmetic building blocks for index-set constructions in the style
of the classical l1-predual spaces: regular families and Tsirelson norms,
greedy c-decompositions and net-rounded norming sets, the coding of an index
set around a seed space with its embedding, and augmentations grafting lower
estimates against a target space.  Every asserted identity or inequality is
checked with zero tolerance; estimates over every coefficient vector or
cut sequence are decided by exact finite forms, and a search that stops at
a cap says so.

Layers load on first use: ``import bdspace`` imports none of them, and
reading a public name (``bdspace.SeedSpace``, ``from bdspace import
tsirelson_norm``) imports the one layer that defines it, with whatever that
layer imports.
"""

import importlib

__version__ = "0.1.0"

# layer -> the public names it defines
_LAYERS = {
    "exact": ("FinVec", "TriangularBasisChange", "UniverseMismatch"),
    "families": ("RegularFamily", "explicit", "is_admissible", "is_member",
                 "is_spread", "max_union", "schreier", "singleton_plus_pair"),
    "tsirelson": ("DominationCertificate", "DualNormingSet", "TsirelsonSpec",
                  "build_dual_norming_set", "certify_domination",
                  "norming_functional", "tsirelson_norm", "vstar_norm"),
    "decomp": ("CDecomposition", "NormingSetD", "SeedSpace",
               "build_norming_set_D", "check_subsequential_upper",
               "norming_certificate", "optimal_c_decomposition",
               "tsirelson_seed"),
    "bdcore": ("AnalysisRecord", "BDBuild", "BuildError", "Report", "Verdict",
               "compute_constants", "condition_weight_split",
               "decomposition_constant", "validate_schema", "verify_analysis",
               "verify_dual_norms", "verify_extension_compatibility",
               "verify_extension_isometry"),
    "construction": ("EmbeddingBuild", "build_embedding", "embed_phi",
                     "interval_from_rank", "interval_rank", "m_seq",
                     "phi_functional_identity", "verify_coding",
                     "verify_embedding"),
    "augmentation": ("AugmentedBuild", "LowerEstimateCertificate", "VCode",
                     "Window", "certify_lower_estimate",
                     "lift_dual_functional", "verify_augmentation",
                     "verify_lift_identities"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
