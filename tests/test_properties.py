"""Property tests of the projection weights over random codes and inputs."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import strategies as st  # noqa: E402

from gnumsd.codes import GnuParams  # noqa: E402
from gnumsd.engine import projection_weights  # noqa: E402
from gnumsd.qmath import MAX_QUBITS, STATE_TOLERANCE, squared_modulus  # noqa: E402


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
