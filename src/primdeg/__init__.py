"""Primitivity and primitive degrees of nonnegative tensors.

The library decides whether a nonnegative tensor (given by its zero pattern)
is primitive, computes its primitive degree and per-column degrees from
reachability traces, and constructs witness families realizing every degree
from 1 up to the extremal value (n-1)^2 + 1. The explicit dense-tensor oracles
that cross-check the traces live in ``primdeg.dense`` and need numpy (the
``oracle`` extra); nothing imported here loads it.
"""

from .bitsets import MAX_DIM, IndexSet, SupportFamily
from .digraphs import (
    PatternMatrix,
    exact_length_frontier,
    frobenius_representable,
    majorization_pattern,
    matrix_gamma,
    monomial_lift,
    wielandt_matrix,
)
from .errors import CapExceededError, ParseError, VerificationError
from .families import (
    DegreeWitness,
    ExponentSetResult,
    FamilySpec,
    brute_force_matrix_exponent_set,
    degree_witness,
    exponent_set,
    small_exponent_matrix,
    wielandt_frontier_tensor,
    wielandt_tensor,
)
from .formats import (
    TensorDocument,
    load_document,
    parse_document,
    render_document,
    save_document,
)
from .patterns import (
    ColumnTrace,
    Cycled,
    Exhausted,
    PatternTensor,
    PrimitivityReport,
    Reached,
    Violation,
    analyze,
    check_necessary_conditions,
    column_states,
    column_trace,
    default_bound,
    gamma_j,
    make_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DIM",
    "IndexSet",
    "SupportFamily",
    "PatternTensor",
    "PatternMatrix",
    "TensorDocument",
    "ColumnTrace",
    "Reached",
    "Cycled",
    "Exhausted",
    "PrimitivityReport",
    "Violation",
    "FamilySpec",
    "DegreeWitness",
    "ExponentSetResult",
    "CapExceededError",
    "ParseError",
    "VerificationError",
    "make_pattern",
    "column_states",
    "column_trace",
    "gamma_j",
    "analyze",
    "check_necessary_conditions",
    "majorization_pattern",
    "default_bound",
    "exact_length_frontier",
    "matrix_gamma",
    "wielandt_matrix",
    "frobenius_representable",
    "monomial_lift",
    "wielandt_tensor",
    "wielandt_frontier_tensor",
    "small_exponent_matrix",
    "degree_witness",
    "exponent_set",
    "brute_force_matrix_exponent_set",
    "parse_document",
    "load_document",
    "render_document",
    "save_document",
    "__version__",
]
