"""Property tests of the projection weights, state checks, error curves and solver."""
import cmath
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import strategies as st  # noqa: E402

from gnumsd import engine  # noqa: E402
from gnumsd.codes import GnuParams  # noqa: E402
from gnumsd.engine import (  # noqa: E402
    MIN_SUCCESS_PROBABILITY,
    CodespaceProjection,
    InputEnsemble,
    codespace_projection,
    distilled_state,
    final_state,
    final_states,
    max_error,
    max_errors,
    wrap_angle,
)
from gnumsd.errors import OutOfRangeError, ZeroSuccessProbabilityError  # noqa: E402
from gnumsd.qmath import MAX_QUBITS, STATE_TOLERANCE, squared_modulus, t_state  # noqa: E402
from gnumsd.solver import solve_to_density  # noqa: E402


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
    # positive semidefinite logical block.  The one-point weights are read
    # as codespace_projection hands them to the dataclass, refused or not.
    weights = []
    with mock.patch.multiple(
        engine,
        MIN_SUCCESS_PROBABILITY=-math.inf,
        CodespaceProjection=lambda *point: weights.append(point),
    ):
        for theta in thetas:
            codespace_projection(code, InputEnsemble(v, theta, eps))
    w00, w11, w01 = (np.array(part) for part in zip(*weights))
    assert w00.size == len(thetas)
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


@hypothesis.settings(max_examples=100, deadline=10_000, derandomize=True, database=None)
@hypothesis.given(
    g=st.integers(1, 2),
    u=st.integers(2, 30),
    v0=st.floats(0.25, 1.32),
    theta0=st.floats(-math.pi, math.pi, exclude_max=True),
)
def test_solver_round_trips_a_noiseless_output(g, u, v0, theta0):
    # The noiseless output of (v0, theta0) as target: solve_to_density, in
    # at most 10 s, returns (v0, theta0) and each of its g-fold images
    # theta0 + 2 pi k / g, matched to solutions one to one as sets.
    code = GnuParams(g, 1, u)
    target = distilled_state(code, InputEnsemble(v0, theta0, 0.0))
    solutions = solve_to_density.__wrapped__(code, target)
    matches = [
        [
            i for i, s in enumerate(solutions)
            if abs(s.v - v0) <= 1e-9 and abs(wrap_angle(s.theta - theta)) <= 1e-9
        ]
        for theta in (theta0 + 2.0 * math.pi * k / g for k in range(g))
    ]
    assert all(len(match) == 1 for match in matches)
    assert len({match[0] for match in matches}) == g


@st.composite
def weight_triples(draw):
    """(w00, w11, w01) at the edges of the weight checks and of the normalised coherence.

    Totals run from 1e-300 to 1 + 2 * tol, spread over their exponents too.
    |w01| sits within 4 ulps of the weight edge sqrt(w00 * w11 + tol) or of
    the normalised edge total * sqrt(m00 * m11 + tol), the tighter one below
    a total of 1.  Up to two parts are then replaced by a signed zero, a
    weight at -tol +- d, nan or +-inf.
    """
    tol = STATE_TOLERANCE
    total = draw(
        st.one_of(
            st.floats(-300.0, 0.0).map(lambda exponent: 10.0**exponent),
            st.floats(1e-300, 1.0 + 2.0 * tol),
            st.sampled_from([1e-300, 1.0, 1.0 + tol, 1.0 + 2.0 * tol]),
        )
    )
    w00 = total * draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])))
    w11 = total - w00
    weight_edge = math.sqrt(w00 * w11 + tol)
    state_edge = total * math.sqrt((w00 / total) * (w11 / total) + tol)
    edge = draw(st.sampled_from([weight_edge, state_edge]))
    modulus = edge + draw(st.integers(-4, 4)) * math.ulp(edge)
    w01 = cmath.rect(modulus, draw(st.floats(-math.pi, math.pi)))
    parts = [w00, w11, w01.real, w01.imag]
    odd = [0.0, -0.0, -tol - 1e-16, -tol + 1e-16, math.nan, math.inf, -math.inf]
    for k in draw(st.sets(st.integers(0, 3), max_size=2)):
        parts[k] = draw(st.sampled_from(odd))
    return parts[0], parts[1], complex(parts[2], parts[3])


def _pair_run(*triples):
    """The dataclass pair run on the triples in order: each state's parts, or the first error.

    Every accepted triple is checked before a zero-weight one is refused.
    """
    states, refused = [], False
    for w00, w11, w01 in triples:
        if w00 + w11 <= MIN_SUCCESS_PROBABILITY:
            refused = True
            continue
        rho = final_state(CodespaceProjection(w00, w11, w01))
        states.append((rho.m00, rho.m11, rho.m01))
    if refused:
        raise ZeroSuccessProbabilityError("zero weight")
    return states


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(triple=weight_triples())
def test_final_states_gives_the_scalar_verdicts(triple):
    # The triple as entry 1 of three, between two valid points.
    def array(triple):
        fills = (0.4, 0.6, 0.2 + 0.1j)
        weights = (np.array([fill, x, fill]) for fill, x in zip(fills, triple))
        accepted, m00, m11, m01 = final_states(*weights)
        if not accepted[1]:
            raise ZeroSuccessProbabilityError("zero weight")
        return m00[1], m11[1], m01[1]

    def outcome(check):
        try:
            return np.array(check(triple), dtype=complex).tobytes()
        except (OutOfRangeError, ZeroSuccessProbabilityError) as exc:
            return type(exc), str(exc)

    assert outcome(array) == outcome(_pair_run)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(first=weight_triples(), second=weight_triples())
def test_final_states_gives_the_scalar_verdicts_in_point_order(first, second):
    # Two triples as entries 1 and 2 of four, between two valid points: the
    # first triple the pair rejects names the error, whichever check it fails.
    def array(*triples):
        fills = (0.4, 0.6, 0.2 + 0.1j)
        weights = [np.array([fill, *parts, fill]) for fill, *parts in zip(fills, *triples)]
        accepted, m00, m11, m01 = final_states(*weights)
        if not accepted[1:3].all():
            raise ZeroSuccessProbabilityError("zero weight")
        return list(zip(m00[1:3], m11[1:3], m01[1:3]))

    def outcome(check):
        try:
            return np.array(check(first, second), dtype=complex).tobytes()
        except (OutOfRangeError, ZeroSuccessProbabilityError) as exc:
            return type(exc), str(exc)

    assert outcome(array) == outcome(_pair_run)
