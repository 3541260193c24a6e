"""Accuracy of refinable functions over crystallographic groups.

Exact certificates for the maximal order of polynomial reproduction by
the translates of a refinable function, with a floating-point cascade
oracle for cross-checking.
"""

from .accuracy import (AccuracyCertificate, EquivalenceReport, Fhat0Result,
                       SufficientReport, condition_d_residuals, fhat0,
                       max_accuracy, sufficient_check, verify_equivalence)
from .cascade import (CascadeError, CascadeResult, GridField,
                      ReproductionReport, cascade_iterate, empirical_accuracy,
                      empirical_level, refinement_residual, reproduce,
                      sample_points, support_box)
from .crystal import (AdmissibilityError, CrystalElement, CrystalTriple,
                      Dilation, GroupValidationError, catalog_names,
                      catalog_triple, check_admissible, compose,
                      elements_in_ball, generate_group, inverse,
                      validate_triple)
from .linalg import Mat, QC, kernel_basis, kron, rank
from .mask import (Mask, MaskShapeError, check_gamma_A_symmetry,
                   extract_scalar, lattice_triple, lift_scalar_to_matrix)
from .multiidx import (VCollection, build_A_s, build_Q_st, build_Q_tilde,
                       dim_degree, enumerate_degree, eval_X, eval_y)

__version__ = "0.1.0"

__all__ = [
    "AccuracyCertificate", "AdmissibilityError", "CascadeError",
    "CascadeResult", "CrystalElement", "CrystalTriple", "Dilation",
    "EquivalenceReport", "Fhat0Result", "GridField", "GroupValidationError",
    "Mask", "MaskShapeError", "Mat", "QC", "ReproductionReport",
    "SufficientReport", "VCollection", "build_A_s", "build_Q_st",
    "build_Q_tilde", "cascade_iterate", "catalog_names",
    "catalog_triple", "check_admissible", "check_gamma_A_symmetry",
    "compose", "condition_d_residuals", "dim_degree",
    "elements_in_ball", "empirical_accuracy", "empirical_level",
    "enumerate_degree", "eval_X", "eval_y", "extract_scalar", "fhat0",
    "generate_group", "inverse", "kernel_basis", "kron",
    "lattice_triple", "lift_scalar_to_matrix", "max_accuracy", "rank",
    "refinement_residual", "reproduce", "sample_points",
    "sufficient_check", "support_box", "validate_triple",
    "verify_equivalence",
]
