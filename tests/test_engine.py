import cmath
import functools
import itertools
import math
import random
import re
import struct
from dataclasses import astuple

import numpy as np
import pytest

from gnumsd import engine, protocols
from gnumsd.codes import GnuParams
from gnumsd.engine import (
    MIN_SUCCESS_PROBABILITY,
    CodespaceProjection,
    InputEnsemble,
    codespace_projection,
    dicke_overlap,
    distilled_state,
    final_state,
    final_states,
    max_error,
    max_errors,
    noiseless_states,
    success_probability,
    wrap_angle,
)
from gnumsd.errors import OutOfRangeError, ZeroSuccessProbabilityError
from gnumsd.oracle import build_rho_n, product_state_vector, project_and_decode
from gnumsd.qmath import (
    MAX_QUBITS,
    STATE_TOLERANCE,
    DensityMatrix1Q,
    t_state,
    trace_distance,
    trace_distances,
)
from gnumsd.solver import TargetSpec

HAND_POINT = InputEnsemble(math.pi / 4, 0.0, 0.0)
U2 = GnuParams(1, 1, 2)

GRID_V = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
GRID_THETA = [0.0, math.pi / 4, 7 * math.pi / 8]
GRID_EPS = [0.0, 0.1, 0.3]


class TestInputEnsemble:
    def test_rejects_v_outside_range(self):
        with pytest.raises(OutOfRangeError):
            InputEnsemble(-0.1, 0.0, 0.0)
        with pytest.raises(OutOfRangeError):
            InputEnsemble(math.pi / 2 + 0.1, 0.0, 0.0)

    def test_rejects_eps_outside_range(self):
        with pytest.raises(OutOfRangeError):
            InputEnsemble(0.1, 0.0, 1.5)
        with pytest.raises(OutOfRangeError):
            InputEnsemble(0.1, 0.0, -0.01)

    def test_theta_wraps(self):
        assert InputEnsemble(0.1, 3 * math.pi, 0.0).theta == pytest.approx(-math.pi)
        assert wrap_angle(math.pi) == -math.pi

    @pytest.mark.parametrize("v", [-0.0, -1e-13, 0.0])
    def test_zeros_are_positive(self, v):
        # A -0.0 passes the range checks; it is stored as +0.0.
        ens = InputEnsemble(v, -0.0, -0.0)
        assert (ens.v, ens.theta, ens.eps) == (0.0, 0.0, 0.0)
        for field in (ens.v, ens.theta, ens.eps):
            assert math.copysign(1.0, field) == 1.0

    def test_states_are_orthonormal(self):
        ens = InputEnsemble(0.37, 1.2, 0.1)
        clean, error = ens.clean_state(), ens.error_state()
        overlap = clean.c0.conjugate() * error.c0 + clean.c1.conjugate() * error.c1
        assert abs(overlap) <= 1e-12


def dicke_overlap_term(
    s: int, t: int, omega: int, v: float, theta: float, n_qubits: int
) -> complex:
    """Single term of the Dicke-overlap sum.

    Equals (-1)^t e^{i s theta} cos(v)^(N-k) sin(v)^k with k = s + omega - 2t.
    The split cos/sin power form stays finite at v = pi/2, where the
    equivalent cos(v)^N tan(v)^k expression would pit a zero against a pole.
    """
    if not (0 <= s <= n_qubits and 0 <= omega <= n_qubits):
        raise OutOfRangeError(f"need 0 <= s, omega <= {n_qubits}, got s={s}, omega={omega}")
    if not 0 <= t <= min(s, omega):
        raise OutOfRangeError(f"need 0 <= t <= min(s, omega), got t={t}")
    k = s + omega - 2 * t
    sign = -1.0 if t % 2 else 1.0
    return sign * cmath.exp(1j * s * theta) * math.cos(v) ** (n_qubits - k) * math.sin(v) ** k


def reference_overlap(s: int, omega: int, v: float, theta: float, n_qubits: int) -> complex:
    """<D^N_s | phi_x> summed term by term: the reference for the plan path."""
    if not (0 <= s <= n_qubits and 0 <= omega <= n_qubits):
        raise OutOfRangeError(f"need 0 <= s, omega <= {n_qubits}, got s={s}, omega={omega}")
    total = 0j
    for t in range(max(0, s + omega - n_qubits), min(s, omega) + 1):
        total += (
            dicke_overlap_term(s, t, omega, v, theta, n_qubits)
            * math.comb(omega, t)
            * math.comb(n_qubits - omega, s - t)
        )
    return total / math.sqrt(math.comb(n_qubits, s))


def logical_component_overlap(
    j: int, omega: int, code: GnuParams, v: float, theta: float
) -> complex:
    """Contribution of the j-th Dicke component of a logical state.

    This is sqrt(C(n, j)) times the overlap of the weight-g*j Dicke state
    with a weight-omega input product state; summing it over even (odd) j and
    scaling by sqrt(2^-(n-1)) gives <0_L|phi_x> (<1_L|phi_x>).
    """
    if not 0 <= j <= code.n:
        raise OutOfRangeError(f"j must lie in [0, {code.n}], got {j}")
    n_qubits = code.num_qubits
    if not 0 <= omega <= n_qubits:
        raise OutOfRangeError(f"omega must lie in [0, {n_qubits}], got {omega}")
    return math.sqrt(math.comb(code.n, j)) * reference_overlap(
        code.g * j, omega, v, theta, n_qubits
    )


class TestDickeOverlapTerm:
    def test_all_zero_input(self):
        assert dicke_overlap_term(0, 0, 0, 0.0, 1.23, 2) == pytest.approx(1.0)

    def test_hand_value(self):
        value = dicke_overlap_term(1, 0, 0, math.pi / 4, 0.0, 2)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_sign_and_phase(self):
        value = dicke_overlap_term(1, 1, 1, math.pi / 4, math.pi, 2)
        # (-1) * e^{i pi} * cos^2(pi/4) = +1/2
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_index_validation(self):
        with pytest.raises(OutOfRangeError):
            dicke_overlap_term(3, 0, 0, 0.1, 0.0, 2)
        with pytest.raises(OutOfRangeError):
            dicke_overlap_term(1, 2, 1, 0.1, 0.0, 2)


class TestDickeOverlap:
    def test_vacuum_full_overlap(self):
        assert dicke_overlap(0, 0, 0.0, 0.0, 3) == pytest.approx(1.0)

    def test_hand_value(self):
        value = dicke_overlap(1, 0, math.pi / 4, 0.0, 2)
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_no_weight_two_component_at_v0(self):
        assert dicke_overlap(2, 0, 0.0, 0.7, 2) == 0.0

    def test_depends_on_weight_only_via_dense_inner_products(self):
        # brute-force <D_s|phi_x> for every string x of every weight, N <= 4,
        # against the plan path and the term-by-term reference
        from gnumsd.codes import dicke_vector

        for n in (2, 3, 4):
            ens = InputEnsemble(0.53, 1.1, 0.0)
            for s in range(n + 1):
                dicke = dicke_vector(n, s)
                for bits in itertools.product((0, 1), repeat=n):
                    omega = sum(bits)
                    dense = np.vdot(dicke, product_state_vector(ens, bits))
                    for overlap in (dicke_overlap, reference_overlap):
                        analytic = overlap(s, omega, ens.v, ens.theta, n)
                        assert abs(dense - analytic) <= 1e-12

    def test_plan_path_matches_reference_for_every_n(self):
        # Seeded (s, omega, v, theta) on every N = 1..MAX_QUBITS, v past
        # [0, pi/2] too: the plan path of the (1, N, 1) code against the loop.
        rng = random.Random(1213)
        for n_qubits in range(1, MAX_QUBITS + 1):
            for _ in range(20):
                s, omega = rng.randint(0, n_qubits), rng.randint(0, n_qubits)
                v, theta = rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0)
                value = dicke_overlap(s, omega, v, theta, n_qubits)
                assert type(value) is complex
                assert abs(value - reference_overlap(s, omega, v, theta, n_qubits)) <= 1e-14

    @pytest.mark.parametrize(
        "s, omega, n_qubits, message",
        [
            # N = 0 is no code's size (the loop returned 1.0 there).
            (0, 0, 0, "n_qubits must lie in [1, 60], got 0"),
            (0, 0, -1, "n_qubits must lie in [1, 60], got -1"),
            (0, 0, 61, "n_qubits must lie in [1, 60], got 61"),
            (3, 0, 2, "need 0 <= s, omega <= 2, got s=3, omega=0"),
            (0, -1, 2, "need 0 <= s, omega <= 2, got s=0, omega=-1"),
        ],
    )
    def test_index_validation(self, s, omega, n_qubits, message):
        with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
            dicke_overlap(s, omega, 0.3, 0.0, n_qubits)

    @pytest.mark.parametrize(
        "v, theta",
        [(math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (0.3, math.nan), (0.3, math.inf)],
        ids=["v-inf", "v-minus-inf", "v-nan", "theta-nan", "theta-inf"],
    )
    def test_rejects_non_finite_angles(self, v, theta):
        with pytest.raises(OutOfRangeError, match="^v and theta must be finite"):
            dicke_overlap(1, 0, v, theta, 3)

    @pytest.mark.parametrize(
        "s, omega, n_qubits",
        [(1.5, 0, 3), (1.0, 0, 3), (1, 0.0, 3), (1, 0, 3.0), (1, np.float64(0.0), 3)],
        ids=["s-fraction", "s-float", "omega-float", "n_qubits-float", "omega-numpy-float"],
    )
    def test_rejects_non_integer_indices(self, s, omega, n_qubits):
        with pytest.raises(OutOfRangeError, match="^s, omega and n_qubits must be integers"):
            dicke_overlap(s, omega, 0.3, 0.0, n_qubits)

    def test_takes_numpy_integers_and_any_finite_v(self):
        want = dicke_overlap(1, 2, 5.0, 0.2, 3)
        assert abs(want - reference_overlap(1, 2, 5.0, 0.2, 3)) <= 1e-14
        assert dicke_overlap(np.int64(1), np.int32(2), 5.0, 0.2, np.int64(3)) == want


class TestLogicalComponentOverlap:
    def test_vacuum_term(self):
        assert logical_component_overlap(0, 0, U2, 0.0, 0.4) == pytest.approx(1.0)

    def test_two_qubit_j1_value(self):
        # sqrt(C(1,1)) * <D^2_1 | phi0 phi0> = sqrt(2) sin(v) cos(v) at theta=0;
        # brute-force inner product confirms 1/sqrt(2) at v = pi/4
        value = logical_component_overlap(1, 0, U2, math.pi / 4, 0.0)
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_vanishes_at_v0_for_mismatched_weight(self):
        assert logical_component_overlap(1, 2, U2, 0.0, 0.0) == 0.0

    def test_index_validation(self):
        with pytest.raises(OutOfRangeError):
            logical_component_overlap(2, 0, U2, 0.1, 0.0)
        with pytest.raises(OutOfRangeError):
            logical_component_overlap(1, 3, U2, 0.1, 0.0)


class TestCodespaceProjection:
    def test_hand_projection(self):
        proj = codespace_projection(U2, HAND_POINT)
        assert proj.w00 == pytest.approx(0.25, abs=1e-12)
        assert proj.w11 == pytest.approx(0.5, abs=1e-12)
        assert proj.w01 == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-12)

    def test_codeword_input(self):
        proj = codespace_projection(U2, InputEnsemble(0.0, 0.9, 0.0))
        assert (proj.w00, proj.w11, proj.w01) == (1.0, 0.0, 0.0)

    def test_matches_oracle_at_generic_point(self):
        code = GnuParams(1, 1, 3)
        ens = InputEnsemble(0.2, math.pi / 4, 0.1)
        analytic = codespace_projection(code, ens)
        dense = project_and_decode(build_rho_n(ens, 3), code)
        assert analytic.w00 == pytest.approx(dense.w00, abs=1e-10)
        assert analytic.w11 == pytest.approx(dense.w11, abs=1e-10)
        assert abs(analytic.w01 - dense.w01) <= 1e-10

    def test_zero_success_raises(self):
        with pytest.raises(ZeroSuccessProbabilityError):
            codespace_projection(U2, InputEnsemble(0.0, 0.0, 1.0))

    def test_purity_at_zero_noise(self):
        for code in (U2, GnuParams(1, 1, 3), GnuParams(1, 1, 4), GnuParams(2, 1, 1)):
            for v in GRID_V[:-1]:  # skip the singular endpoint
                for theta in GRID_THETA:
                    proj = codespace_projection(code, InputEnsemble(v, theta, 0.0))
                    assert abs(proj.w01) ** 2 == pytest.approx(
                        proj.w00 * proj.w11, abs=1e-10
                    )

    def test_theta_covariance_for_n1_codes(self):
        # populations are theta-independent; the coherence phase shifts by -g*delta
        shapes = (
            (1, 1, 3), (2, 1, 1), (1, 1, 2), (1, 1, 12), (3, 1, 4),
            (1, 1, 30), (5, 1, 12), (1, 1, 60), (60, 1, 1),
        )
        for shape in shapes:
            code = GnuParams(*shape)
            rng = random.Random(code.num_qubits * 53 + code.g)
            points = [(0.6, 0.0, 0.15)] + [
                (rng.uniform(0.2, 1.3), rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 0.5))
                for _ in range(3)
            ]
            for v, theta, eps in points:
                for delta in (0.3, 1.1, -2.0, rng.uniform(-math.pi, math.pi)):
                    assert theta_covariance_gap(code, v, theta, eps, delta) <= 1e-12, code

    def test_theta_covariance_fails_for_an_n2_code(self):
        # The negative control: with n = 2 the logical components D_0, D_g and
        # D_2g put theta into the populations too, so the relation breaks.
        assert theta_covariance_gap(GnuParams(1, 2, 3), 0.6, 0.0, 0.15, 1.1) > 1e-3

    def test_success_probability_within_unit_interval(self):
        for v in GRID_V:
            for theta in GRID_THETA:
                for eps in GRID_EPS:
                    proj = codespace_projection(U2, InputEnsemble(v, theta, eps))
                    assert 0.0 < success_probability(proj) <= 1.0 + 1e-12

    def test_projection_type_validation(self):
        with pytest.raises(OutOfRangeError):
            CodespaceProjection(-1e-3, 0.5, 0.0)
        with pytest.raises(OutOfRangeError):
            CodespaceProjection(0.9, 0.9, 0.0)
        with pytest.raises(OutOfRangeError):
            CodespaceProjection(0.1, 0.1, 0.5)


def theta_covariance_gap(code: GnuParams, v: float, theta: float, eps: float, delta: float):
    """Largest miss of the z-rotation covariance of n = 1 codes between theta and theta + delta.

    There w00 and w11 do not depend on theta and w01 turns by e^{-i g delta}.
    The miss is relative to the success probability at theta, which on the
    large codes is far below 1e-12.
    """
    base = codespace_projection(code, InputEnsemble(v, theta, eps))
    shifted = codespace_projection(code, InputEnsemble(v, theta + delta, eps))
    expected = base.w01 * cmath.exp(-1j * code.g * delta)
    return max(
        abs(shifted.w00 - base.w00),
        abs(shifted.w11 - base.w11),
        abs(abs(shifted.w01) - abs(base.w01)),
        abs(shifted.w01 - expected),
    ) / success_probability(base)


class TestFinalState:
    def test_pure_codeword(self):
        state = final_state(CodespaceProjection(1.0, 0.0, 0.0))
        assert (state.m00, state.m11, state.m01) == (1.0, 0.0, 0.0)

    def test_hand_projection_normalises_to_pure_state(self):
        state = final_state(CodespaceProjection(0.25, 0.5, 1 / (2 * math.sqrt(2))))
        assert state.m00 == pytest.approx(1 / 3, abs=1e-12)
        assert state.m11 == pytest.approx(2 / 3, abs=1e-12)
        assert state.m01 == pytest.approx(math.sqrt(2) / 3, abs=1e-12)
        determinant = state.m00 * state.m11 - abs(state.m01) ** 2
        assert abs(determinant) <= 1e-12

    def test_balanced_incoherent_projection(self):
        state = final_state(CodespaceProjection(0.5, 0.5, 0.0))
        assert (state.m00, state.m11, state.m01) == (0.5, 0.5, 0.0)

    def test_zero_weight_raises(self):
        with pytest.raises(ZeroSuccessProbabilityError):
            final_state(CodespaceProjection(0.0, 0.0, 0.0))


class TestSuccessProbability:
    def test_hand_point(self):
        proj = codespace_projection(U2, HAND_POINT)
        assert success_probability(proj) == pytest.approx(0.75, abs=1e-12)

    def test_codeword_input_always_accepted(self):
        for code in (U2, GnuParams(2, 1, 1)):
            proj = codespace_projection(code, InputEnsemble(0.0, 1.0, 0.0))
            assert success_probability(proj) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_input_never_accepted(self):
        # |11> has no overlap with span{|00>, |D^2_1>}: the weight collapses
        # to the floating-point residue of cos(pi/2)
        proj = codespace_projection(U2, InputEnsemble(math.pi / 2, 0.0, 0.0))
        assert success_probability(proj) <= 1e-30


class TestMaxError:
    def test_solved_parameters_give_zero_at_no_noise(self):
        target = TargetSpec("XT").density()
        v = math.atan((1 + math.sqrt(3)) / 2)
        assert max_error(U2, v, -math.pi / 4, 0.0, target) <= 1e-12

    def test_two_qubit_code_suppresses(self):
        target = TargetSpec("XT").density()
        v = math.atan((1 + math.sqrt(3)) / 2)
        assert max_error(U2, v, -math.pi / 4, 0.2, target) < 0.2

    def test_repetition_code_does_not_suppress(self):
        code = GnuParams(2, 1, 1)
        v = math.asin(math.sqrt((1 + math.sqrt(2) - math.sqrt(3)) / 2))
        value = max_error(code, v, -7 * math.pi / 8, 0.1, t_state().density())
        assert value >= 0.1

    def test_takes_worst_of_exactly_both_settings(self):
        # at the solved parameters the e=0 branch is exact, so the maximum
        # must equal the noisy branch alone
        target = TargetSpec("XT").density()
        v = math.atan((1 + math.sqrt(3)) / 2)
        noisy = trace_distance(
            distilled_state(U2, InputEnsemble(v, -math.pi / 4, 0.3)), target
        )
        assert max_error(U2, v, -math.pi / 4, 0.3, target) == pytest.approx(
            noisy, abs=1e-12
        )


def reference_weights(code: GnuParams, v: float, theta: float, eps: float):
    """(w00, w11, w01) at one point, summed term by term from logical_component_overlap."""
    n_qubits = code.num_qubits
    w00 = w11 = 0.0
    w01 = 0j
    for omega in range(n_qubits + 1):
        weight = math.comb(n_qubits, omega) * eps**omega * (1.0 - eps) ** (n_qubits - omega)
        if weight == 0.0:
            continue
        parts = [0j, 0j]
        for j in range(code.n + 1):
            parts[j % 2] += logical_component_overlap(j, omega, code, v, theta)
        even, odd = parts
        w00 += weight * abs(even) ** 2
        w11 += weight * abs(odd) ** 2
        w01 += weight * even * odd.conjugate()
    prefactor = 2.0 ** (1 - code.n)
    return prefactor * w00, prefactor * w11, prefactor * w01


def _code_id(code: GnuParams) -> str:
    return f"{code.g}-{code.n}-{code.u:g}"


BATCH_CODES = [
    GnuParams(*shape)
    for shape in ((1, 2, 6), (1, 12, 1), (3, 10, 1), (1, 15, 4), (4, 15, 1), (1, 1, 60))
]
# Dense N = 12 states are 4096 x 4096, so those codes get two points each.
N_GT_1_ORACLE_CODES = [
    GnuParams(*shape)
    for shape in ((1, 2, 1), (2, 2, 1), (1, 3, 2), (3, 2, 2), (2, 3, 2), (1, 4, 2.5))
]
V_AXIS_CODES = [
    GnuParams(*shape)
    for shape in ((1, 1, 2), (2, 1, 1), (1, 1, 60), (1, 2, 3), (3, 2, 2), (1, 4, 2.5))
]


def random_codes(count: int, seed: int) -> list[GnuParams]:
    """Seeded codes with N <= MAX_QUBITS, fractional u included."""
    rng = random.Random(seed)
    codes = []
    while len(codes) < count:
        g, n = rng.randint(1, 8), rng.randint(1, 30)
        if g * n <= MAX_QUBITS:
            codes.append(GnuParams(g, n, rng.randint(g * n, MAX_QUBITS) / (g * n)))
    return codes


METAMORPHIC_CODES = [
    GnuParams(*shape)
    for shape in (
        (1, 1, 2), (2, 1, 1), (1, 2, 3), (1, 1, 12), (1, 2, 6),
        (3, 10, 1), (1, 4, 7.5), (1, 15, 4), (4, 15, 1), (1, 1, 60),
    )
]


def dyadic_angle(theta: float) -> float:
    """theta rounded to a multiple of 2^-48, as pi is one.

    InputEnsemble wraps such an angle and its negation to themselves
    exactly, since theta + pi needs no rounding, so a one-point call can
    take both.
    """
    return math.ldexp(round(math.ldexp(theta, 48)), -48)


def full_states(accepted, *states):
    """noiseless_states' states at every point, +0 where a point is not accepted."""
    full = []
    for state in states:
        full.append(np.zeros(accepted.shape, state.dtype))
        full[-1][accepted] = state
    return (accepted, *full)


def one_point_noiseless_state(code: GnuParams, v: float, theta: float) -> DensityMatrix1Q:
    """The one-point kernel's eps = 0 state at a clamped, wrapped (v, theta).

    Its table's row omega = 0 weighed at noise weight 1.0 and checked by the
    dataclass pair, as the curve table's eps = 0 leg is: the reference the
    omega = 0 kernel is checked against.
    """
    plan = engine._plan(code)
    rows = engine._sum_rows(plan, v, theta)[:1]
    w00, w11, re, im = engine._weigh(plan, rows, np.ones(1)).tolist()
    return final_state(CodespaceProjection(w00, w11, complex(re, im)))


class TestProjectionWeights:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.37])
    @pytest.mark.parametrize("code", BATCH_CODES, ids=_code_id)
    def test_matches_reference_sum(self, code, eps):
        for v in (0.2, 0.8, 1.45):
            for theta in (-2.9, -0.4, 1.3, 3.0):
                ens = InputEnsemble(v, theta, eps)
                proj = codespace_projection(code, ens)
                want = reference_weights(code, ens.v, ens.theta, ens.eps)
                for got, value in zip((proj.w00, proj.w11, proj.w01), want):
                    assert abs(got - value) <= 1e-13

    def test_noiseless_states_are_the_one_point_states(self):
        code = GnuParams(1, 4, 3)
        for theta in (-1.0, 0.25, 2.0):
            accepted, m00, m11, m01 = noiseless_states(code, 0.6, theta)
            assert accepted
            state = one_point_noiseless_state(code, 0.6, theta)
            assert _bits(state.m00, state.m11, state.m01) == _bits(m00[0], m11[0], m01[0])

    @pytest.mark.parametrize("code", V_AXIS_CODES, ids=_code_id)
    def test_vector_of_v_matches_one_v_calls(self, code):
        rng = random.Random(code.num_qubits * 10 + code.n)
        vs = np.array([0.0, *(rng.uniform(0.0, math.pi / 2) for _ in range(6)), math.pi / 2])
        for _ in range(2):
            theta = rng.uniform(-math.pi, math.pi)
            batch = full_states(*noiseless_states(code, vs, theta))
            square = full_states(*noiseless_states(code, vs.reshape(2, 4), theta))
            assert batch[0].shape == vs.shape
            assert_same_bits([a.reshape(vs.shape) for a in square], batch)
            for i, v in enumerate(vs.tolist()):
                one_v = full_states(*noiseless_states(code, v, theta))
                assert_same_bits([a.reshape(()) for a in one_v], [a[i] for a in batch])

    def test_complementary_input_relation(self):
        # The error state is the clean state at (pi/2 - v, theta + pi), so
        # swapping eps <-> 1 - eps there reproduces the weights exactly.
        rng = random.Random(20240607)
        points = 0
        for code in METAMORPHIC_CODES:
            for _ in range(4):
                v, eps = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 1.0)
                for _ in range(5):
                    theta = rng.uniform(-math.pi, math.pi)
                    lhs = codespace_projection(code, InputEnsemble(v, theta, 1.0 - eps))
                    rhs = codespace_projection(
                        code, InputEnsemble(math.pi / 2 - v, theta + math.pi, eps)
                    )
                    for a, b in zip(astuple(lhs), astuple(rhs)):
                        assert abs(a - b) <= 1e-14
                    points += 1
        assert points == 200

    def test_theta_reflection_conjugates_the_coherence(self):
        # theta enters only through e^{i g j theta}: theta -> -theta keeps
        # w00 and w11 and conjugates w01, exactly.
        rng = random.Random(20261018)
        for code in METAMORPHIC_CODES + random_codes(10, 1018):
            for _ in range(2):
                v, eps = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 1.0)
                for _ in range(5):
                    theta = dyadic_angle(rng.uniform(-math.pi, math.pi))
                    ens, mirror = InputEnsemble(v, theta, eps), InputEnsemble(v, -theta, eps)
                    assert (ens.theta, mirror.theta) == (theta, -theta)
                    proj, reflected = (codespace_projection(code, e) for e in (ens, mirror))
                    assert _bits(reflected.w00, reflected.w11, reflected.w01) == _bits(
                        proj.w00, proj.w11, proj.w01.conjugate()
                    )

    def test_theta_period_is_two_pi_over_g(self):
        # e^{i g j theta} has period 2 pi / g in theta.
        rng = random.Random(20261019)
        points = 0
        for code in METAMORPHIC_CODES + random_codes(20, 1019):
            v, eps = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 1.0)
            for _ in range(10):
                theta = rng.uniform(-math.pi, math.pi)
                proj = codespace_projection(code, InputEnsemble(v, theta, eps))
                shifted = InputEnsemble(v, theta + 2.0 * math.pi / code.g, eps)
                for a, b in zip(astuple(proj), astuple(codespace_projection(code, shifted))):
                    assert abs(a - b) <= 4e-15
                points += 1
        assert points == 300

    @pytest.mark.parametrize("code", N_GT_1_ORACLE_CODES, ids=_code_id)
    def test_n_gt_1_codes_match_dense_oracle(self, code):
        for v, theta, eps in ((0.7, 0.4, 0.0), (1.2, -2.1, 0.3)):
            ens = InputEnsemble(v, theta, eps)
            dense = project_and_decode(build_rho_n(ens, code.num_qubits), code)
            analytic = codespace_projection(code, ens)
            assert abs(analytic.w00 - dense.w00) <= 1e-14
            assert abs(analytic.w11 - dense.w11) <= 1e-14
            assert abs(analytic.w01 - dense.w01) <= 1e-14


# Float C(m, k), zero for k > m, as the engine tabulates them.
_LOOP_BINOMIAL = np.array([[math.comb(m, k) for k in range(61)] for m in range(61)], dtype=float)


def loop_noise_weights(n_qubits: int, eps):
    omegas = np.arange(n_qubits + 1)
    return _LOOP_BINOMIAL[n_qubits, omegas] * eps**omegas * (1.0 - eps) ** omegas[::-1]


def loop_projection(code: GnuParams, v, thetas, flips, noise):
    """The engine's projection as a loop over t: the bitwise reference of its gathered t-sum.

    Each factor's (omega, r) coefficients take one power per entry, and each
    t adds flipped[t] * clean[g*j - t] into the amplitudes of the j with
    g*j >= t.  The weighted omega rows are added one by one in ascending
    omega from +0, the engine's one omega-sum order.
    """
    n_qubits, n, g = code.num_qubits, code.n, code.g
    v = np.asarray(v, dtype=float)
    shape, flat = v.shape + (1, 1), v.ravel().tolist()
    cos_v = np.array(list(map(math.cos, flat))).reshape(shape)
    sin_v = np.array(list(map(math.sin, flat))).reshape(shape)

    def coefficient_rows(degrees, a, b, width):
        r = np.arange(width)
        excess = np.maximum(np.subtract.outer(degrees, r), 0)
        return _LOOP_BINOMIAL[degrees, :width] * a**excess * b**r

    excitations = g * np.arange(n + 1)
    depth = min(int(flips[-1]), g * n) + 1
    flipped = coefficient_rows(flips, sin_v, -cos_v, depth)
    clean = coefficient_rows(n_qubits - flips, cos_v, sin_v, g * n + 1)
    amplitude = np.zeros(flipped.shape[:-1] + (n + 1,))
    for t in range(depth):
        first = -(-t // g)  # components with g*j >= t
        amplitude[..., first:] += flipped[..., t, None] * clean[..., excitations[first:] - t]
    amplitude *= np.sqrt(_LOOP_BINOMIAL[n, : n + 1] / _LOOP_BINOMIAL[n_qubits, excitations])
    phases = np.exp(1j * np.multiply.outer(excitations, thetas))
    terms = amplitude[..., None] * phases
    even = terms[..., 0::2, :].sum(axis=-2)
    odd = terms[..., 1::2, :].sum(axis=-2)
    weight = 2.0 ** (-(n - 1)) * noise
    parts = (even.real**2 + even.imag**2, odd.real**2 + odd.imag**2, even * odd.conj())
    return tuple(
        functools.reduce(np.add, np.moveaxis(weight * part, -2, 0), 0.0) for part in parts
    )


def loop_projection_weights(code: GnuParams, v, thetas, eps: float):
    noise = loop_noise_weights(code.num_qubits, eps)
    flips = np.flatnonzero(noise)
    return loop_projection(code, v, thetas, flips, noise[flips, None])


def assert_same_bits(got, want):
    """Equal arrays down to the sign of zero (np.array_equal ignores it)."""
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def spy_on_screen(monkeypatch):
    """A list that records (weights, result) of each engine call of final_states."""
    screened = []

    def spy(*weights, screen=engine.final_states):
        screened.append((weights, screen(*weights)))
        return screened[-1][1]

    monkeypatch.setattr(engine, "final_states", spy)
    return screened


def spy_on_checks(monkeypatch):
    """A list that records (weights, result) of each engine call of _checked_point."""
    checked = []

    def spy(*weights, check=engine._checked_point):
        checked.append((weights, check(*weights)))
        return checked[-1][1]

    monkeypatch.setattr(engine, "_checked_point", spy)
    return checked


CONTRACTION_CODES = [
    GnuParams(*shape)
    for shape in (
        (1, 1, 2), (2, 1, 1), (1, 4, 3), (3, 10, 1), (4, 15, 1),
        (1, 15, 4), (1, 60, 1), (60, 1, 1), (1, 30, 2),
    )
]
# The point codes of perfbench's scan workload.
SCAN_CODES = [
    GnuParams(*shape)
    for shape in (
        (1, 1, 12), (1, 2, 6), (2, 2, 3), (1, 4, 3), (1, 6, 2), (2, 6, 1),
        (1, 12, 1), (1, 2, 15), (3, 2, 5), (1, 4, 7.5), (1, 8, 3.75), (3, 10, 1),
        (5, 2, 6), (1, 4, 15), (3, 4, 5), (1, 15, 4), (4, 15, 1),
    )
]
BITWISE_CODES = list(dict.fromkeys(CONTRACTION_CODES + SCAN_CODES + random_codes(20, 2029)))


class TestGatheredContraction:
    @pytest.mark.parametrize("code", BITWISE_CODES, ids=_code_id)
    def test_points_match_the_t_loop_bitwise(self, code, monkeypatch):
        screened = spy_on_screen(monkeypatch)
        rng = random.Random(code.num_qubits * 31 + code.n)
        for v in (0.0, math.pi / 2, rng.uniform(0.0, math.pi / 2)):
            for eps in (0.0, 1.0, 1e-3, 1e-300, 1.0 - 1e-15, rng.uniform(0.0, 1.0)):
                thetas = np.array([0.0, -0.0, math.pi, rng.uniform(-math.pi, math.pi)])
                if eps == 0.0:
                    # The noiseless call at each angle screens the loop's weights.
                    for theta in thetas:
                        noiseless_states(code, v, theta)
                        want = loop_projection_weights(code, v, np.array([theta]), eps)
                        assert_same_bits(screened[-1][0], [w[0] for w in want])
                # The one-point call, against the loop at each (wrapped) angle.
                for theta in thetas.tolist():
                    ens = InputEnsemble(v, theta, eps)
                    want = loop_projection_weights(code, ens.v, np.array([ens.theta]), ens.eps)
                    try:
                        proj = codespace_projection(code, ens)
                    except ZeroSuccessProbabilityError:
                        assert want[0][0] + want[1][0] <= MIN_SUCCESS_PROBABILITY
                        continue
                    assert _bits(proj.w00, proj.w11, proj.w01) == _bits(
                        max(want[0][0], 0.0), max(want[1][0], 0.0), want[2][0]
                    )

    @pytest.mark.parametrize("code", BITWISE_CODES, ids=_code_id)
    def test_solver_points_match_the_t_loop_bitwise(self, code, monkeypatch):
        # The solver's confirmation of a root: one noiseless call at one (v, theta).
        screened = spy_on_screen(monkeypatch)
        rng = np.random.default_rng(code.num_qubits * 7 + code.n)
        vs = np.concatenate(([0.0, math.pi / 2], rng.uniform(0.0, math.pi / 2, 14)))
        thetas = rng.uniform(-math.pi, math.pi, vs.size)
        for v, theta in zip(vs.tolist(), thetas.tolist()):
            noiseless_states(code, v, theta)
            got = screened[-1][0]
            assert got[0].shape == ()
            want = loop_projection_weights(code, v, np.array([theta]), 0.0)
            assert_same_bits(got, [w[0] for w in want])

    @pytest.mark.parametrize("code", CONTRACTION_CODES, ids=_code_id)
    def test_v_block_matches_the_t_loop_bitwise(self, code, monkeypatch):
        screened = spy_on_screen(monkeypatch)
        rng = np.random.default_rng(code.num_qubits * 17 + code.g)
        vs = rng.uniform(0.0, math.pi / 2, (3, 7))
        theta = rng.uniform(-math.pi, math.pi)
        noiseless_states(code, vs, theta)
        (got, _), = screened
        assert got[0].shape == (3, 7)
        want = loop_projection_weights(code, vs, np.array([theta]), 0.0)
        assert_same_bits(got, [w[..., 0] for w in want])

    @pytest.mark.parametrize("code", CONTRACTION_CODES, ids=_code_id)
    def test_max_errors_with_gapped_flips_matches_the_t_loop_bitwise(self, code, monkeypatch):
        # With eps = 0 beside eps at or near 1 the flipped counts are {0}
        # and {k..N}, not one run: at eps = 1 only omega = N has weight, and
        # at 1 - 1e-15 every omega < N - 20 underflows.  max_errors weighs
        # its whole (v, theta) table; the weights it checks are the loop's
        # over exactly those rows, added in ascending omega from +0.
        screened, gapped = spy_on_screen(monkeypatch), []
        rng = random.Random(code.num_qubits * 13 + code.n)
        grids = (
            [0.0, 1.0],
            [0.0, 1.0 - 1e-15, 1.0 - 1e-12, 1.0],
            [0.0, 0.999, rng.uniform(0.9, 1.0), 1.0],
        )
        target = t_state().density()
        for v in (0.3, 1.1, rng.uniform(0.2, 1.3)):
            for eps in grids:
                theta = rng.uniform(-math.pi, math.pi)
                try:
                    max_errors(code, v, theta, np.array(eps), target)
                except ZeroSuccessProbabilityError:
                    pass
                noise = loop_noise_weights(code.num_qubits, np.array(eps)[:, None])
                flips = np.flatnonzero(noise.any(axis=0))
                gapped.append(bool(np.any(np.diff(flips) > 1)))
                ens = InputEnsemble(v, theta, 0.0)
                want = loop_projection(code, ens.v, np.array([ens.theta]), flips, noise[:, flips].T)
                # The last screen of a call is max_errors' own.
                assert_same_bits(screened[-1][0], want)
        assert len(gapped) == 9
        assert all(gapped[0::3])
        if code.num_qubits >= 30:
            assert all(gapped[1::3])

    @pytest.mark.parametrize("code", BITWISE_CODES, ids=_code_id)
    def test_one_point_kernel_fills_the_whole_table(self, code):
        # One (N + 1, 4) table per (v, theta), whatever eps will weigh it;
        # its row omega = 0 at noise weight 1.0 gives the omega = 0 kernel's
        # weights, zero signs included.
        plan = engine._plan(code)
        rng = random.Random(code.num_qubits * 43 + code.n)
        for v in (0.0, math.pi / 2, rng.uniform(0.0, math.pi / 2)):
            theta = rng.uniform(-math.pi, math.pi)
            sums = engine._sum_rows(plan, v, theta)
            assert sums.shape == (code.num_qubits + 1, 4)
            w00, w11, re, im = engine._weigh(plan, sums[:1], np.ones(1))
            want = engine._noiseless_weights(plan, v, theta)
            assert_same_bits([w00, w11, np.array(complex(re, im))], want)

    @pytest.mark.parametrize("code", BITWISE_CODES, ids=_code_id)
    def test_tables_keep_their_layout(self, code):
        # The plan is t-major, so the kernel adds contiguous (j, omega)
        # slabs; its amplitudes come back C-contiguous, because a j-sum
        # along a row of an F-ordered table is added in sequence, not
        # pairwise, and changes bits.
        plan = engine._plan(code)
        rows, columns = code.g * code.n + 2, code.num_qubits + 1
        assert plan.index.shape == (4, rows, columns)
        assert plan.binomial.shape == (2, rows, columns)
        amplitude = engine._point_amplitudes(plan, 0.7)
        assert amplitude.shape == (code.num_qubits + 1, code.n + 1)
        assert amplitude.dtype == np.float64
        assert amplitude.flags.c_contiguous

    @pytest.mark.parametrize("shape", [(4, 15, 1), (1, 60, 1)])
    def test_plan_stays_small(self, shape):
        # Plans stay cached for the life of the process, one per code a run
        # touches, so their tables count toward its resident memory.
        plan = engine._plan(GnuParams(*shape))
        assert sum(t.nbytes for t in plan if isinstance(t, np.ndarray)) <= 256 * 1024

    def test_plan_cache_holds_one_entry_per_code(self):
        # The omega with nonzero noise weight change with eps near 0 and 1;
        # the plan is keyed on the code alone, so a sweep adds no entries.
        codes = [GnuParams(1, 1, 2), GnuParams(1, 4, 3), GnuParams(1, 60, 1)]
        sweep = np.concatenate(
            (
                [1e-300, 1e-200, 1e-100, 1e-30, 1e-12],
                np.linspace(0.0, 1.0, 190),
                [1 - 1e-12, 1 - 1e-9, 1 - 1e-6, 1 - 1e-15, 1 - 1e-3],
            )
        )
        assert sweep.size == 200
        engine._plan.cache_clear()
        flip_sets = set()
        for code in codes:
            for eps in sweep.tolist():
                codespace_projection(code, InputEnsemble(0.7, 0.2, eps))
                noise = loop_noise_weights(code.num_qubits, eps)
                flip_sets.add((code, tuple(np.flatnonzero(noise))))
        assert len(flip_sets) > 10
        assert engine._plan.cache_info().currsize == 3


class TestPowerTable:
    @pytest.mark.parametrize("code", BITWISE_CODES, ids=_code_id)
    def test_entries_are_their_own_pows_bitwise(self, code):
        # The one-point kernel's bits rest on a pow's per-element bits not
        # depending on the other elements of the call: its (-cos v) block
        # stops at g*n and shares one pow with the cos and sin blocks.
        n_qubits, width = code.num_qubits, code.g * code.n + 1
        powers = np.arange(n_qubits + 1)
        rng = random.Random(code.num_qubits * 23 + code.g)
        for v in (0.0, math.pi / 2, *(rng.uniform(0.0, math.pi / 2) for _ in range(8))):
            table = engine._power_table(engine._plan(code), v)
            cos_v, sin_v = math.cos(v), math.sin(v)
            cos_block, sin_block, negative = np.split(table, [n_qubits + 1, 2 * n_qubits + 2])
            assert negative.size == width
            assert negative.tobytes() == ((-cos_v) ** powers)[:width].tobytes()
            assert cos_block.tobytes() == (cos_v**powers).tobytes()
            assert sin_block.tobytes() == (sin_v**powers).tobytes()


class TestFinalStates:
    def test_matches_final_state(self):
        code = GnuParams(1, 2, 3)
        thetas = np.linspace(-math.pi, math.pi, 9)
        points = [codespace_projection(code, InputEnsemble(0.5, t, 0.1)) for t in thetas]
        w00, w11, w01 = (np.array(part) for part in zip(*map(astuple, points)))
        accepted, m00, m11, m01 = final_states(w00, w11, w01)
        assert accepted.all()
        for k in range(thetas.size):
            state = final_state(CodespaceProjection(w00[k], w11[k], w01[k]))
            assert (state.m00, state.m11, state.m01) == (m00[k], m11[k], m01[k])

    def test_zero_weight_points_are_not_accepted(self):
        accepted, m00, _, _ = final_states(
            np.array([0.0, 0.25]), np.array([1e-301, 0.5]), np.array([0j, 0.1 + 0j])
        )
        assert accepted.tolist() == [False, True]
        assert m00.shape == (1,)

    @pytest.mark.parametrize(
        "bad", [(-1e-3, 0.5, 0.0), (0.9, 0.9, 0.0), (0.1, 0.1, 0.5), (math.nan, 0.5, 0.0)]
    )
    def test_rejects_what_the_scalar_path_rejects(self, bad):
        with pytest.raises(OutOfRangeError):
            final_state(CodespaceProjection(*bad))
        w00, w11, w01 = (np.array([0.5, x]) for x in bad)
        with pytest.raises(OutOfRangeError):
            final_states(w00, w11, w01.astype(complex))

    def test_valid_weights_build_no_dataclass(self, monkeypatch):
        # On valid weights the screen passes every point, so neither a
        # noiseless array nor a warm max_errors grid reaches the per-point
        # checks; a cold table checks its one eps = 0 leg with the pair.
        built = []

        def build(*args, projection=engine.CodespaceProjection):
            built.append(args)
            return projection(*args)

        monkeypatch.setattr(engine, "CodespaceProjection", build)
        code, target = GnuParams(1, 2, 3), t_state().density()
        vs = np.minimum(np.arange(101) * (math.pi / 200), math.pi / 2)
        accepted, m00, _, _ = noiseless_states(code, vs, -math.pi / 4)
        assert accepted.all() and m00.size == vs.size
        assert noiseless_states(code, 0.7, 0.3)[0]
        assert built == []
        engine._curve_table.cache_clear()
        cold = max_errors(code, 0.7, 0.3, FIGURE_EPS, target)
        assert cold.shape == FIGURE_EPS.shape
        assert len(built) == 1
        assert max_errors(code, 0.7, 0.3, FIGURE_EPS, target).tobytes() == cold.tobytes()
        assert len(built) == 1


def tolerance_edges():
    """(kind, (a, b, c)) triples straddling each state check's tolerance.

    Read as (m00, m11, m01) or (w00, w11, w01): a population at -tol + d
    beside a population of 1, a trace or total weight at 1 +- (tol + d),
    |c|^2 within a few ulps of a * b + tol at many phases (also at a tenth of
    the weight, where only the normalised state breaks it), and nan or +-inf
    in each real component.
    """
    tol = STATE_TOLERANCE
    for d in (-1e-14, -1e-15, -1e-16, 0.0, 1e-16, 1e-15, 1e-14):
        p = -tol + d
        yield "population", (p, 1.0, 0j)
        yield "population", (1.0, p, 0j)
        for sign in (1.0, -1.0):
            yield "trace", (0.5, 0.5 + sign * (tol + d), 0j)
    yield "population", (-0.0, 1.0, 0j)
    phases = np.linspace(-math.pi, math.pi, 24, endpoint=False).tolist()
    for scale in (1.0, 0.1):
        a, b = 0.3 * scale, 0.7 * scale
        edge = math.sqrt(a * b + tol)
        for k in range(-4, 5):
            for phase in phases:
                yield "coherence", (a, b, cmath.rect(edge + k * math.ulp(edge), phase))
    for bad in (math.nan, math.inf, -math.inf):
        yield "non-finite", (bad, 0.5, 0j)
        yield "non-finite", (0.5, bad, 0j)
        yield "non-finite", (0.5, 0.5, complex(bad, 0.0))
        yield "non-finite", (0.5, 0.5, complex(0.0, bad))


def _bits(*values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


def _embedded(triple):
    """The triple as entry 1 of three-entry arrays between two valid states."""
    return tuple(np.array([fill, x, fill]) for fill, x in zip((0.4, 0.6, 0.2 + 0.1j), triple))


class TestCheckPairsAtTolerance:
    """The scalar checks and final_states accept, reject and clamp alike."""

    @staticmethod
    def _outcome(check, *args):
        """The clamped state's bits, or the class of the error raised."""
        try:
            return _bits(*check(*args))
        except (OutOfRangeError, ZeroSuccessProbabilityError) as exc:
            return type(exc)

    def _verdicts(self, scalar, array):
        """Each edge kind's set of outcomes (True: rejected), after comparing both paths."""
        verdicts = {}
        for kind, triple in tolerance_edges():
            want = self._outcome(scalar, *triple)
            assert self._outcome(array, *_embedded(triple)) == want, (kind, triple)
            verdicts.setdefault(kind, set()).add(not isinstance(want, bytes))
        return verdicts

    def test_density_checks(self):
        # The array path has no density check of its own to compare with:
        # DensityMatrix1Q alone, seen from both sides of each edge.
        verdicts = {}
        for kind, triple in tolerance_edges():
            rho = self._outcome(lambda *t: astuple(DensityMatrix1Q(*t)), *triple)
            verdicts.setdefault(kind, set()).add(not isinstance(rho, bytes))
        assert verdicts == {
            "population": {True, False},
            "trace": {True, False},
            "coherence": {True, False},
            "non-finite": {True},
        }

    def test_projection_checks(self):
        # codespace_projection's zero-weight check, then the pair.
        def scalar(a, b, c):
            if a + b <= MIN_SUCCESS_PROBABILITY:
                raise ZeroSuccessProbabilityError("zero weight")
            rho = final_state(CodespaceProjection(a, b, c))
            return rho.m00, rho.m11, rho.m01

        def array(w00, w11, w01):
            accepted, m00, m11, m01 = final_states(w00, w11, w01)
            if not accepted[1]:
                raise ZeroSuccessProbabilityError("zero weight")
            return m00[1], m11[1], m01[1]

        verdicts = self._verdicts(scalar, array)
        assert verdicts == {
            "population": {True, False},
            "trace": {True, False},
            "coherence": {True, False},
            "non-finite": {True},
        }


    def test_projection_rejects_non_finite_weights(self):
        # CodespaceProjection on its own, not masked by final_state's density check.
        def outcome(check, *args):
            try:
                check(*args)
            except (OutOfRangeError, ZeroSuccessProbabilityError) as exc:
                return type(exc), str(exc)
            return None

        def scalar(a, b, c):
            if a + b <= MIN_SUCCESS_PROBABILITY:
                raise ZeroSuccessProbabilityError("zero weight")
            CodespaceProjection(a, b, c)

        def array(w00, w11, w01):
            if not final_states(w00, w11, w01)[0][1]:
                raise ZeroSuccessProbabilityError("zero weight")

        outcomes = set()
        for kind, triple in tolerance_edges():
            if kind == "non-finite":
                want = outcome(scalar, *triple)
                assert outcome(array, *_embedded(triple)) == want, triple
                outcomes.add(want)
        # A -inf weight takes the total below the zero-weight floor first.
        assert outcomes == {
            (OutOfRangeError, "projection weights must be finite"),
            (ZeroSuccessProbabilityError, "zero weight"),
        }


def _confirmation_residual(code, target, v, theta):
    """The solver's check of one input, one eps = 0 point; None where the code accepts nothing."""
    try:
        return trace_distance(distilled_state(code, InputEnsemble(v, theta, 0.0)), target)
    except ZeroSuccessProbabilityError:
        return None


class TestSolverConfirmation:
    THETAS = [-math.pi + j * (math.pi / 200) for j in range(0, 400, 37)]

    @pytest.mark.parametrize(
        "code, kind",
        [(U2, "XT"), (GnuParams(2, 1, 1), "T"), (GnuParams(1, 2, 3), "XH")],
        ids=["1-1-2-XT", "2-1-1-T", "1-2-3-XH"],
    )
    def test_residual_is_the_point_residual(self, code, kind):
        # The residual a solution reports, read from the omega = 0 kernel, is
        # the one-point kernel's and the noiseless array path's, bit for bit.
        target = TargetSpec(kind).density()
        for v in (0.0, 0.1, 0.7, 1.3, math.pi / 2):
            for theta in self.THETAS:
                ens = InputEnsemble(v, theta, 0.0)
                state = one_point_noiseless_state(code, ens.v, ens.theta)
                value = _confirmation_residual(code, target, v, theta)
                assert value == trace_distance(state, target)
                accepted, *states = noiseless_states(code, ens.v, ens.theta)
                assert accepted and value == trace_distances(*states, target).item()

    def test_point_without_weight_is_not_accepted(self):
        target = TargetSpec("XT").density()
        # At v = pi/2 only cos(pi/2) ~ 6e-17 overlaps the codespace.  For
        # (1, 1, 12) the weight ~ cos^22 underflows below
        # MIN_SUCCESS_PROBABILITY; for (1, 1, 2) it is ~7.5e-33 and the
        # state is still defined.
        for theta in self.THETAS:
            assert _confirmation_residual(GnuParams(1, 1, 12), target, math.pi / 2, theta) is None
            assert math.isfinite(_confirmation_residual(U2, target, math.pi / 2, theta))
        with pytest.raises(ZeroSuccessProbabilityError):
            distilled_state(GnuParams(1, 1, 12), InputEnsemble(math.pi / 2, 0.3, 0.0))


# The figure sweeps' eps grid plus the far end of the channel.
FIGURE_EPS = np.append(np.arange(501) * 1e-3, 1.0)
MAX_ERRORS_CODES = [
    GnuParams(*shape)
    for shape in ((1, 1, 2), (2, 1, 1), (1, 2, 6), (2, 2, 3), (3, 4, 5), (1, 4, 15), (1, 1, 60))
]

# max_error's one-point grid and codes: every bitwise code and every curve code.
ONE_POINT_EPS = (0.0, 1e-300, 1e-3, 1.0 - 1e-15, 1.0)
ONE_POINT_CODES = list(dict.fromkeys(MAX_ERRORS_CODES + BITWISE_CODES + [GnuParams(3, 5, 4)]))
ZERO_WEIGHT_POINTS = {(GnuParams(3, 5, 4), 1.5707), (GnuParams(1, 1, 12), math.pi / 2)}


def _one_point_outcome(call, code, v, theta, eps, target):
    """The value's type and bits at one eps, or the error's class and message."""
    try:
        if call is max_errors:
            value = max_errors(code, v, theta, np.array([eps]), target)[0].item()
        else:
            value = call(code, v, theta, eps, target)
    except (OutOfRangeError, ZeroSuccessProbabilityError) as error:
        return type(error), str(error)
    return type(value), struct.pack("<d", value)


def _state_outcome(code, ens):
    """distilled_state at ens, or the error's class and message."""
    try:
        return distilled_state(code, ens)
    except (OutOfRangeError, ZeroSuccessProbabilityError) as error:
        return type(error), str(error)


class TestMaxErrors:
    @pytest.mark.parametrize("code", SCAN_CODES + [GnuParams(1, 60, 1)], ids=_code_id)
    def test_max_error_is_distilled_state_bitwise(self, code, monkeypatch):
        # One omega sum: the noisy state max_error checks is distilled_state's
        # at the same (v, theta, eps), zero signs included, and max_error is
        # the larger trace distance of distilled_state at 0 and at eps, or
        # the first of their refusals, by class and message.
        checked = spy_on_checks(monkeypatch)
        rng = random.Random(code.num_qubits * 67 + code.g)
        target = t_state().density()
        for v in (0.0, 1.5707, math.pi / 2, rng.uniform(0.3, 1.27)):
            theta = rng.uniform(-math.pi, math.pi)
            for eps in (1e-300, 1e-3, 1.0 - 1e-15, rng.uniform(0.0, 1.0)):
                states = [_state_outcome(code, InputEnsemble(v, theta, e)) for e in (0.0, eps)]
                got = _one_point_outcome(max_error, code, v, theta, eps, target)
                noisy = checked[-1][1]
                if noisy is not None:
                    assert _bits(*astuple(noisy)) == _bits(*astuple(states[1]))
                else:
                    assert states[1][0] is ZeroSuccessProbabilityError
                refusals = [state for state in states if isinstance(state, tuple)]
                if refusals:
                    assert got == refusals[0]
                else:
                    want = max(trace_distance(state, target) for state in states)
                    assert got == (float, struct.pack("<d", want))

    @pytest.mark.parametrize("code", MAX_ERRORS_CODES, ids=_code_id)
    def test_matches_distilled_states_per_point(self, code):
        rng = random.Random(code.num_qubits * 100 + code.n)
        v, theta = rng.uniform(0.3, 1.27), rng.uniform(-math.pi, math.pi)
        target = t_state().density()
        batch = max_errors(code, v, theta, FIGURE_EPS, target)
        assert batch.shape == FIGURE_EPS.shape
        for got, eps in zip(batch, FIGURE_EPS.tolist()):
            want = max(
                trace_distance(distilled_state(code, InputEnsemble(v, theta, e)), target)
                for e in (0.0, eps)
            )
            assert abs(got - want) <= 1e-14

    @pytest.mark.parametrize("code", ONE_POINT_CODES, ids=_code_id)
    def test_max_error_is_one_point_of_max_errors(self, code):
        # max_error checks and measures its two settings on the dataclass
        # path, max_errors on the array path: the same bits (zero signs
        # included), error class and message, from a cold table and a warm one.
        rng = random.Random(code.num_qubits * 7 + code.g)
        target = t_state().density()
        for v in (0.0, 1.5707, math.pi / 2, rng.uniform(0.3, 1.27)):
            theta = rng.uniform(-math.pi, math.pi)
            grid = ONE_POINT_EPS + (rng.uniform(0.0, 1.0),)
            for warm in (False, True):
                engine._curve_table.cache_clear()
                for eps in grid:
                    if not warm:
                        engine._curve_table.cache_clear()
                    one_point = _one_point_outcome(max_error, code, v, theta, eps, target)
                    if not warm:
                        engine._curve_table.cache_clear()
                    batch = _one_point_outcome(max_errors, code, v, theta, eps, target)
                    assert one_point == batch
                    if (code, v) in ZERO_WEIGHT_POINTS:
                        # The noiseless weight underflows: every eps is refused at eps = 0.
                        assert one_point[0] is ZeroSuccessProbabilityError
                        assert ", eps=0.0) on " in one_point[1]

    @pytest.mark.parametrize("shape", [(1, 2, 6), (2, 2, 3), (1, 1, 12), (1, 1, 60)])
    def test_max_error_keeps_numpy_pow_bits_at_seeded_eps(self, shape, monkeypatch):
        # max_error's noise row must be numpy's pow at its one eps, as
        # max_errors' is: float ** int rounds otherwise at ~1.5% of (eps, k)
        # pairs on some platforms, enough to move a value by 1 ulp.
        screened, checked = spy_on_screen(monkeypatch), spy_on_checks(monkeypatch)
        code = GnuParams(*shape)
        plan = engine._plan(code)
        rng = random.Random(code.num_qubits * 41 + code.g)
        v, theta = rng.uniform(0.3, 1.27), rng.uniform(-math.pi, math.pi)
        ens = InputEnsemble(v, theta, 0.0)
        target = t_state().density()
        grid = (
            [rng.uniform(0.0, 1.0) for _ in range(200)]
            + [10.0 ** rng.uniform(-300, -1) for _ in range(25)]
            + [1.0 - 10.0 ** rng.uniform(-15, -1) for _ in range(25)]
        )
        for eps in grid:
            row = engine._noise_weights(plan, eps)
            curve = engine._noise_weights(plan, np.array([eps])[:, None])
            assert row.tobytes() == curve[0].tobytes()
            one_point = _one_point_outcome(max_error, code, v, theta, eps, target)
            assert one_point == _one_point_outcome(max_errors, code, v, theta, eps, target)
            assert one_point[0] is float
            # The weights too, zero signs included.
            for got, want in zip(checked[-1][0], screened[-1][0], strict=True):
                assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("code", ONE_POINT_CODES, ids=_code_id)
    def test_point_weights_are_the_array_sums_bitwise(self, code, monkeypatch):
        # max_error weighs the whole table at one eps and max_errors at an
        # array of them, yet both give the same weights, zero signs
        # included: both add in ascending omega from +0, so an all -0
        # coherence part comes out +0 on both paths.  The table's eps = 0 leg is what both paths
        # check at eps = 0: the same state's bits, or the same weight.
        screened, checked = spy_on_screen(monkeypatch), spy_on_checks(monkeypatch)
        rng = random.Random(code.num_qubits * 59 + code.n)
        target = t_state().density()
        for v in (0.0, 1.5707, math.pi / 2, rng.uniform(0.3, 1.27)):
            ens = InputEnsemble(v, rng.uniform(-math.pi, math.pi), 0.0)
            for eps in ONE_POINT_EPS + (rng.uniform(0.0, 1.0),):
                for call, setting in ((max_error, eps), (max_errors, np.array([eps]))):
                    try:
                        call(code, ens.v, ens.theta, setting, target)
                    except ZeroSuccessProbabilityError:
                        pass
                table = engine._curve_table(code, ens.v, ens.theta)
                point = checked[-1][0]
                weights, (accepted, *state) = screened[-1]
                for got, want in zip(point, weights, strict=True):
                    assert np.array(got).tobytes() == want.tobytes()
                if eps == 0.0:
                    w00, w11, w01 = point
                    if accepted[0]:
                        pair = final_state(CodespaceProjection(w00, w11, w01))
                        assert _bits(*astuple(table.noiseless)) == _bits(*state)
                        assert _bits(*astuple(pair)) == _bits(*state)
                    else:
                        assert _bits(table.noiseless) == _bits(w00 + w11)

    @pytest.mark.parametrize(
        "code, v, eps",
        [(code, v, 0.0) for code, v in sorted(ZERO_WEIGHT_POINTS, key=str)]
        # At v = 0 every error state is |1>, whose all-ones string misses the codespace.
        + [(GnuParams(1, 1, 12), 0.0, 1.0), (U2, 0.0, 1.0)],
        ids=lambda value: _code_id(value) if isinstance(value, GnuParams) else repr(value),
    )
    def test_zero_weight_refusal_is_worded_once(self, code, v, eps):
        # codespace_projection, max_error and max_errors refuse one setting
        # with one message, which names its weight and its eps.
        target = t_state().density()
        messages = []
        for call in (
            lambda: codespace_projection(code, InputEnsemble(v, 0.3, eps)),
            lambda: max_error(code, v, 0.3, eps, target),
            lambda: max_errors(code, v, 0.3, np.array([0.5, eps]), target),
        ):
            with pytest.raises(ZeroSuccessProbabilityError) as refusal:
                call()
            messages.append(str(refusal.value))
        assert messages == [messages[0]] * 3
        assert messages[0].startswith("codespace weight 0.0 at (v=")
        assert f", eps={eps}) on (g={code.g}, " in messages[0]

    @pytest.mark.parametrize(
        "points, error",
        [
            (((0.0, 0.0, 0j), (-1e-6, 0.5, 0j)), OutOfRangeError),
            (((-1e-6, 0.5, 0j), (0.0, 0.0, 0j)), OutOfRangeError),
            # Passes CodespaceProjection, fails the normalised coherence check.
            (((0.0, 0.0, 0j), (1e-13, 1e-13, 1e-13 * (1 + 1e-10) + 0j)), OutOfRangeError),
            (((0.0, 0.0, 0j), (0.5, 0.5, 0.1j)), ZeroSuccessProbabilityError),
            (((0.5, 0.5, 0.1j), (0.0, 0.0, 0j)), ZeroSuccessProbabilityError),
            # Both settings fail, each a different check: the first one names the error.
            (((0.9, 0.9, 0j), (-1e-6, 0.5, 0j)), OutOfRangeError),
            (((-1e-6, 0.5, 0j), (math.nan, 0.5, 0j)), OutOfRangeError),
            (((0.1, 0.1, 0.5 + 0j), (-1e-6, 0.5, 0j)), OutOfRangeError),
        ],
        ids=[
            "zero-negative",
            "negative-zero",
            "zero-incoherent",
            "zero-valid",
            "valid-zero",
            "over-negative",
            "negative-nan",
            "incoherent-negative",
        ],
    )
    def test_checks_come_before_the_zero_weight_refusal(self, points, error, monkeypatch):
        # Every accepted setting is checked, in order, by the dataclass pair
        # before the first zero-weight one is refused, on both paths.  The
        # crafted (omega, 4) sum rows of U2 (logical_norm 1.0) hold the eps = 0
        # weights in row omega = 0 and the eps = 1 weights in row omega = N,
        # the only row with noise weight at eps = 1, so both paths weight
        # exactly the crafted settings (eps = 0, eps = 1).
        def crafted_sums(*args):
            rows = (points[0], (0.0, 0.0, 0j), points[1])
            return np.array([(w00, w11, w01.real, w01.imag) for w00, w11, w01 in rows])

        monkeypatch.setattr(engine, "_sum_rows", crafted_sums)
        target = t_state().density()
        engine._curve_table.cache_clear()
        try:
            one_point = _one_point_outcome(max_error, U2, 0.8, 0.1, 1.0, target)
            assert one_point == _one_point_outcome(max_errors, U2, 0.8, 0.1, 1.0, target)
        finally:
            engine._curve_table.cache_clear()  # drop the crafted tables
        assert one_point[0] is error
        pair = None
        for point in points:
            if not point[0] + point[1] <= MIN_SUCCESS_PROBABILITY:
                try:
                    final_state(CodespaceProjection(*point))
                except OutOfRangeError as exc:
                    pair = type(exc), str(exc)
                    break
        if error is OutOfRangeError:
            assert one_point == pair
        else:
            assert pair is None

    def test_one_point_calls_run_no_array_check(self, monkeypatch):
        # The one-point call never reaches the array path, and a warm call
        # reads the table the first call built.
        target = t_state().density()
        engine._curve_table.cache_clear()
        want = max_errors(U2, 0.8, 0.1, np.array([0.2]), target)[0]
        for name in ("final_states", "trace_distances", "_sum_rows"):
            monkeypatch.setattr(engine, name, lambda *args, name=name: pytest.fail(f"called {name}"))
        misses = engine._curve_table.cache_info().misses
        assert max_error(U2, 0.8, 0.1, 0.2, target) == want
        assert engine._curve_table.cache_info().misses == misses

    def test_zero_weight_raises_like_max_error(self):
        # At v = pi/2 the (1, 1, 12) noiseless weight underflows, and every
        # max_error point includes the noiseless setting.
        code, target = GnuParams(1, 1, 12), TargetSpec("XT").density()
        with pytest.raises(ZeroSuccessProbabilityError):
            max_error(code, math.pi / 2, 0.3, 0.0, target)
        for eps in ([0.0], [0.2, 0.0, 0.4]):
            with pytest.raises(ZeroSuccessProbabilityError):
                max_errors(code, math.pi / 2, 0.3, np.array(eps), target)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, math.inf, -math.inf])
    def test_rejects_eps_outside_unit_interval_before_any_point(self, bad, monkeypatch):
        target = TargetSpec("XT").density()
        with pytest.raises(OutOfRangeError):
            max_error(U2, 0.8, 0.1, bad, target)
        # The range check runs once on the whole array, before any projection.
        monkeypatch.setattr(
            "gnumsd.engine._curve_table", lambda *args: pytest.fail("projected a bad eps")
        )
        with pytest.raises(OutOfRangeError):
            max_errors(U2, 0.8, 0.1, np.array([0.1, bad, 0.2]), target)

    @pytest.mark.parametrize("bad", [-0.01, 1.5, math.nan, math.inf])
    def test_reports_the_first_bad_eps_as_input_ensemble_does(self, bad):
        with pytest.raises(OutOfRangeError) as scalar:
            InputEnsemble(0.8, 0.1, bad)
        target = TargetSpec("XT").density()
        with pytest.raises(OutOfRangeError) as one_point:
            max_error(U2, 0.8, 0.1, bad, target)
        with pytest.raises(OutOfRangeError) as batch:
            max_errors(U2, 0.8, 0.1, np.array([0.1, bad, 2.0, -1.0]), target)
        assert str(one_point.value) == str(batch.value) == str(scalar.value)

    def test_empty_grid(self):
        target = TargetSpec("XT").density()
        assert max_errors(U2, 0.8, 0.1, np.array([]), target).shape == (0,)


class TestCurveTable:
    @pytest.mark.parametrize("code", BITWISE_CODES, ids=_code_id)
    def test_warm_calls_match_cold_calls_bitwise(self, code):
        # Cold: each eps builds its own table.  Warm: every eps reads the
        # table the first one built.
        rng = random.Random(code.num_qubits * 37 + code.n)
        target = t_state().density()
        grid = (0.0, 1.0, 1e-3, 1e-300, 1.0 - 1e-15, rng.uniform(0.0, 1.0))

        def outcome(call, *args):
            try:
                return np.asarray(call(code, v, theta, *args, target)).tobytes()
            except ZeroSuccessProbabilityError as error:
                return str(error)

        for v in (0.0, math.pi / 2, rng.uniform(0.0, math.pi / 2)):
            theta = rng.uniform(-math.pi, math.pi)
            cold = []
            for eps in grid:
                engine._curve_table.cache_clear()
                cold.append((outcome(max_errors, np.array([eps])), outcome(max_error, eps)))
            engine._curve_table.cache_clear()
            warm = [
                (outcome(max_errors, np.array([eps])), outcome(max_error, eps)) for eps in grid
            ]
            assert warm == cold
            info = engine._curve_table.cache_info()
            assert (info.misses, info.hits) == (1, 2 * len(grid) - 1)

    @pytest.mark.parametrize(
        "shape, v, theta, kind",
        [((1, 1, 2), 0.4, 0.3, "certified_half"), ((1, 2, 6), 0.9, -1.0, "fixed_point")],
    )
    def test_threshold_search_builds_one_table(self, shape, v, theta, kind):
        # A curve with fn alone, aimed at the code's own noiseless output:
        # the grid and every bisection step read one table.
        code = GnuParams(*shape)
        target = distilled_state(code, InputEnsemble(v, theta, 0.0))
        curve = protocols.ErrorCurve("fn only", lambda e: max_error(code, v, theta, e, target))
        engine._curve_table.cache_clear()
        result = protocols.find_threshold(curve)
        info = engine._curve_table.cache_info()
        assert result.kind == kind
        assert result.evaluations >= 500
        assert info.misses == 1
        assert info.hits == result.evaluations - 1

    @pytest.mark.parametrize(
        "v, theta", [(-0.0, 1.0), (-1e-13, 1.0), (0.2, 1.0 + 2 * math.pi), (0.2, -7.0)]
    )
    def test_key_is_the_clamped_and_wrapped_point(self, v, theta):
        # Inputs that InputEnsemble maps to one (v, theta) share one table,
        # built at the clamped v and the wrapped theta.
        code, target, eps = GnuParams(1, 4, 3), t_state().density(), np.array([0.1, 0.3])
        ens = InputEnsemble(v, theta, 0.0)
        engine._curve_table.cache_clear()
        got = max_errors(code, v, theta, eps, target)
        assert engine._curve_table.cache_info().currsize == 1
        assert max_errors(code, ens.v, ens.theta, eps, target).tobytes() == got.tobytes()
        assert engine._curve_table.cache_info().currsize == 1

    def test_cache_is_bounded_and_read_only(self):
        code, target = GnuParams(1, 4, 3), t_state().density()
        for k in range(500):
            max_error(code, 0.3 + 1e-3 * k, -1.0 + 1e-3 * k, 0.1, target)
        info = engine._curve_table.cache_info()
        assert info.maxsize == engine.CURVE_TABLES
        assert info.currsize <= info.maxsize
        table = engine._curve_table(code, 0.3, -1.0)
        # One read-only array of sums, one row per omega, and the eps = 0 leg.
        assert table._fields == ("sums", "noiseless")
        assert table.sums.shape == (code.num_qubits + 1, 4)
        assert not table.sums.flags.writeable

    def test_noiseless_leg_is_checked_once_per_table(self, monkeypatch):
        # The table holds the checked eps = 0 state, so warm calls check only
        # their own eps: N max_error calls build N states, not 2N, and a
        # max_errors call screens its eps columns and no eps = 0 column.
        code, target = GnuParams(1, 2, 6), t_state().density()
        grid = [0.0, 1e-3, 0.1, 0.25, 0.5, 0.9, 1.0]
        engine._curve_table.cache_clear()
        max_error(code, 0.9, -1.0, 0.3, target)
        built, screened = [], spy_on_screen(monkeypatch)

        def build(*args, state=engine.DensityMatrix1Q):
            built.append(args)
            return state(*args)

        monkeypatch.setattr(engine, "DensityMatrix1Q", build)
        for eps in grid:
            max_error(code, 0.9, -1.0, eps, target)
        assert len(built) == len(grid)
        max_errors(code, 0.9, -1.0, np.array(grid), target)
        assert [weights[0].size for weights, _ in screened] == [len(grid)]
        assert engine._curve_table.cache_info().misses == 1

    def test_zero_weight_point_raises_the_same_on_miss_and_hit(self):
        code, target = GnuParams(3, 5, 4), t_state().density()
        engine._curve_table.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(ZeroSuccessProbabilityError) as error:
                max_error(code, math.pi / 2, 0.0, 0.0, target)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        info = engine._curve_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
