"""Magic-state distillation with permutation-invariant gnu codes.

Layers, bottom up: `qmath` (exact binomials, single-qubit algebra, the
2-Renyi magic monotone), `codes` (gnu logical states), `engine` (the O(N^3)
analytic projection pipeline), `closed_forms` (u = 2, 3, 4 specialisations),
`oracle` (dense-matrix and gate-level brute-force validation), `protocols`
(reference curves, thresholds, crossovers, composition), `solver` (parameter
inversion and magic curves), `figures` (figure-ready datasets) and `cli`.
"""

from .codes import GnuParams, dicke_vector, logical_state_coeffs, logical_vector
from .engine import (
    CodespaceProjection,
    InputEnsemble,
    codespace_projection,
    dicke_overlap,
    distilled_state,
    final_state,
    max_error,
    max_errors,
    success_probability,
)
from .errors import (
    DimensionMismatchError,
    NoCrossoverError,
    NoSolutionError,
    OutOfRangeError,
    ZeroSuccessProbabilityError,
)
from .qmath import (
    DensityMatrix1Q,
    PureQubit,
    binomial,
    h_state,
    m2_density,
    m2_pure,
    pauli_expectations,
    t_state,
    trace_distance,
)
from .solver import SolvedInput, TargetSpec, solve_for_magic, solve_input_params

__version__ = "0.1.0"

__all__ = [
    "CodespaceProjection",
    "DensityMatrix1Q",
    "DimensionMismatchError",
    "GnuParams",
    "InputEnsemble",
    "NoCrossoverError",
    "NoSolutionError",
    "OutOfRangeError",
    "PureQubit",
    "SolvedInput",
    "TargetSpec",
    "ZeroSuccessProbabilityError",
    "binomial",
    "codespace_projection",
    "dicke_overlap",
    "dicke_vector",
    "distilled_state",
    "final_state",
    "h_state",
    "logical_state_coeffs",
    "logical_vector",
    "m2_density",
    "m2_pure",
    "max_error",
    "max_errors",
    "pauli_expectations",
    "solve_for_magic",
    "solve_input_params",
    "success_probability",
    "t_state",
    "trace_distance",
    "__version__",
]
