"""Exact solver for polynomial systems on unirational projective varieties.

Given a parameterization whose (homogenized) components form a Khovanskii
basis, systems of homogeneous forms on the variety are solved by building
Khovanskii-Macaulay matrices, computing exact nullspaces, and extracting
solutions as joint eigenvalues of commuting multiplication matrices.
"""

from .fields import GF, QQ
from .hilbert import (
    HilbertData,
    grassmannian_closed_forms,
    hilbert_function,
    hilbert_numerator,
    hilbert_regularity,
    regularity_bound,
    variety_degree,
)
from .khov import (
    GradedBasis,
    GradedSupport,
    KhovanskiiReport,
    Parameterization,
    SubductionResult,
    build_parameterization,
    check_khovanskii_truncated,
    graded_basis,
    graded_support,
    subduct,
    witness_monomial,
)
from .km import Equation, KMMatrix, StructuredSystem, km_matrix, km_shape
from .poly import MultiPoly, PolySyntaxError, WeightOrder, parse_polynomial
from .solver import (
    KernelBasis,
    MultiplicationSystem,
    SolutionSet,
    SolverError,
    UnsupportedFieldError,
    brute_force_affine,
    extract_solutions,
    kernel_basis,
    multiplication_matrices,
    multiplication_system,
    normalize_solutions,
    residuals,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "QQ",
    "MultiPoly",
    "WeightOrder",
    "parse_polynomial",
    "PolySyntaxError",
    "Parameterization",
    "build_parameterization",
    "GradedSupport",
    "graded_support",
    "GradedBasis",
    "graded_basis",
    "SubductionResult",
    "subduct",
    "witness_monomial",
    "KhovanskiiReport",
    "check_khovanskii_truncated",
    "HilbertData",
    "hilbert_function",
    "hilbert_numerator",
    "hilbert_regularity",
    "variety_degree",
    "regularity_bound",
    "grassmannian_closed_forms",
    "Equation",
    "StructuredSystem",
    "KMMatrix",
    "km_matrix",
    "km_shape",
    "KernelBasis",
    "kernel_basis",
    "MultiplicationSystem",
    "multiplication_matrices",
    "multiplication_system",
    "SolutionSet",
    "extract_solutions",
    "solve",
    "residuals",
    "brute_force_affine",
    "normalize_solutions",
    "SolverError",
    "UnsupportedFieldError",
]
