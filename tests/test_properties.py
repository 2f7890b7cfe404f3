"""Property tests of the projection weights and error curves over random codes and inputs."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import strategies as st  # noqa: E402

from gnumsd import engine  # noqa: E402
from gnumsd.codes import GnuParams  # noqa: E402
from gnumsd.engine import max_error, max_errors, projection_weights  # noqa: E402
from gnumsd.errors import ZeroSuccessProbabilityError  # noqa: E402
from gnumsd.qmath import MAX_QUBITS, STATE_TOLERANCE, squared_modulus, t_state  # noqa: E402


@st.composite
def codes(draw):
    """Any accepted code: g*n <= N = g*n*u <= MAX_QUBITS, fractional u included."""
    g = draw(st.integers(1, MAX_QUBITS))
    n = draw(st.integers(1, MAX_QUBITS // g))
    n_qubits = draw(st.integers(g * n, MAX_QUBITS))
    return GnuParams(g, n, n_qubits / (g * n))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    code=codes(),
    v=st.floats(0.0, math.pi / 2),
    thetas=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4),
    eps=st.floats(0.0, 1.0),
)
def test_weights_form_a_subnormalised_state(code, v, thetas, eps):
    # Born weights of a projection: nonnegative, at most 1 in total, and a
    # positive semidefinite logical block.
    w00, w11, w01 = projection_weights(code, v, np.array(thetas), eps)
    assert (w00 >= -STATE_TOLERANCE).all()
    assert (w11 >= -STATE_TOLERANCE).all()
    assert (w00 + w11 <= 1.0 + STATE_TOLERANCE).all()
    assert (squared_modulus(w01) <= w00 * w11 + STATE_TOLERANCE).all()


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    code=codes(),
    v=st.floats(0.0, math.pi / 2),
    theta=st.floats(-math.pi, math.pi),
    eps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_error_curve_table_is_invisible(code, v, theta, eps):
    # A cold call builds the (code, v, theta) table, a warm one reads it;
    # both, and every one-point call, give the same errors.
    target = t_state().density()

    def outcome(call, grid):
        try:
            return np.asarray(call(code, v, theta, grid, target)).tobytes()
        except ZeroSuccessProbabilityError as error:
            return str(error)

    engine._curve_table.cache_clear()
    cold = outcome(max_errors, np.array(eps))
    assert outcome(max_errors, np.array(eps)) == cold
    if isinstance(cold, bytes):
        errors = np.frombuffer(cold)
        for k, e in enumerate(eps):
            assert max_error(code, v, theta, e, target) == errors[k]
