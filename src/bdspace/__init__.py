"""Exact finite-stage Bourgain-Delbaen constructions.

Rational-arithmetic building blocks for index-set constructions in the style
of the classical l1-predual spaces: regular families and Tsirelson norms,
greedy c-decompositions and net-rounded norming sets, the coding of an index
set around a seed space with its embedding, and augmentations grafting lower
estimates against a target space.  Every asserted identity or inequality is
checked with zero tolerance; estimates over every coefficient vector or
cut sequence are decided by exact finite forms, and a search that stops at
a cap says so.
"""

from .exact import (FinVec, TriangularBasisChange, UniverseMismatch, l1_norm,
                    linf_norm, pair, unit)
from .families import (RegularFamily, explicit, is_admissible, is_member,
                       is_spread, max_union, schreier, singleton_plus_pair)
from .tsirelson import (DominationCertificate, DualNormingSet, TsirelsonSpec,
                        build_dual_norming_set, certify_domination,
                        norming_functional, tsirelson_norm, vstar_norm)
from .decomp import (CDecomposition, NormingSetD, SeedSpace,
                     build_norming_set_D, check_subsequential_upper,
                     norming_certificate, optimal_c_decomposition,
                     tsirelson_seed)
from .bdcore import (AnalysisRecord, BDBuild, BuildError, Report, Verdict,
                     compute_constants, condition_weight_split,
                     decomposition_constant, validate_schema, verify_analysis,
                     verify_dual_norms, verify_extension_compatibility,
                     verify_extension_isometry)
from .construction import (EmbeddingBuild, build_embedding, embed_phi,
                           interval_from_rank, interval_rank, m_seq,
                           phi_functional_identity, verify_coding,
                           verify_embedding)
from .augmentation import (AugmentedBuild, LowerEstimateCertificate, VCode,
                           Window, certify_lower_estimate,
                           lift_dual_functional, verify_augmentation,
                           verify_lift_identities)

__version__ = "0.1.0"
