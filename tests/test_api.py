"""The package's public names: `gnumsd.__all__` is pinned, and each name resolves."""
import gnumsd

PUBLIC_NAMES = [
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


def test_all_is_pinned():
    assert gnumsd.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 32


def test_every_public_name_resolves():
    namespace = {}
    exec("from gnumsd import *", namespace)
    for name in PUBLIC_NAMES:
        assert getattr(gnumsd, name) is namespace[name]
    assert isinstance(gnumsd.__version__, str)
