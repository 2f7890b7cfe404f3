import cmath
import itertools
import math
import random

import numpy as np
import pytest

from gnumsd.codes import GnuParams
from gnumsd.engine import (
    MIN_SUCCESS_PROBABILITY,
    CodespaceProjection,
    InputEnsemble,
    codespace_projection,
    dicke_overlap,
    dicke_overlap_term,
    distilled_state,
    final_state,
    final_states,
    logical_component_overlap,
    max_error,
    max_errors,
    projection_weights,
    success_probability,
    wrap_angle,
)
from gnumsd.errors import OutOfRangeError, ZeroSuccessProbabilityError
from gnumsd.oracle import build_rho_n, product_state_vector, project_and_decode
from gnumsd.qmath import (
    STATE_TOLERANCE,
    DensityMatrix1Q,
    checked_density_arrays,
    t_state,
    trace_distance,
)
from gnumsd.solver import GRID_STEP, TargetSpec, _residual_row

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

    def test_states_are_orthonormal(self):
        ens = InputEnsemble(0.37, 1.2, 0.1)
        clean, error = ens.clean_state(), ens.error_state()
        overlap = clean.c0.conjugate() * error.c0 + clean.c1.conjugate() * error.c1
        assert abs(overlap) <= 1e-12


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
        # brute-force <D_s|phi_x> for every string x of every weight, N <= 4
        from gnumsd.codes import dicke_vector

        for n in (2, 3, 4):
            ens = InputEnsemble(0.53, 1.1, 0.0)
            for s in range(n + 1):
                dicke = dicke_vector(n, s)
                for bits in itertools.product((0, 1), repeat=n):
                    omega = sum(bits)
                    dense = np.vdot(dicke, product_state_vector(ens, bits))
                    analytic = dicke_overlap(s, omega, ens.v, ens.theta, n)
                    assert abs(dense - analytic) <= 1e-12


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
        for code in (GnuParams(1, 1, 3), GnuParams(2, 1, 1)):
            base = codespace_projection(code, InputEnsemble(0.6, 0.0, 0.15))
            for delta in (0.3, 1.1, -2.0):
                shifted = codespace_projection(code, InputEnsemble(0.6, delta, 0.15))
                assert shifted.w00 == pytest.approx(base.w00, abs=1e-12)
                assert shifted.w11 == pytest.approx(base.w11, abs=1e-12)
                assert abs(shifted.w01) == pytest.approx(abs(base.w01), abs=1e-12)
                expected = base.w01 * cmath.exp(-1j * code.g * delta)
                assert abs(shifted.w01 - expected) <= 1e-12

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
    """(w00, w11, w01) at one point, summed term by term from dicke_overlap."""
    n_qubits = code.num_qubits
    w00 = w11 = 0.0
    w01 = 0j
    for omega in range(n_qubits + 1):
        weight = math.comb(n_qubits, omega) * eps**omega * (1.0 - eps) ** (n_qubits - omega)
        if weight == 0.0:
            continue
        parts = [0j, 0j]
        for j in range(code.n + 1):
            overlap = dicke_overlap(code.g * j, omega, v, theta, n_qubits)
            parts[j % 2] += math.sqrt(math.comb(code.n, j)) * overlap
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
METAMORPHIC_CODES = [
    GnuParams(*shape)
    for shape in (
        (1, 1, 2), (2, 1, 1), (1, 2, 3), (1, 1, 12), (1, 2, 6),
        (3, 10, 1), (1, 4, 7.5), (1, 15, 4), (4, 15, 1), (1, 1, 60),
    )
]


class TestProjectionWeights:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.37])
    @pytest.mark.parametrize("code", BATCH_CODES, ids=_code_id)
    def test_matches_reference_sum(self, code, eps):
        thetas = np.array([-2.9, -0.4, 1.3, 3.0])
        for v in (0.2, 0.8, 1.45):
            batch = projection_weights(code, v, thetas, eps)
            for k, theta in enumerate(thetas):
                for got, want in zip(batch, reference_weights(code, v, theta, eps)):
                    assert abs(got[k] - want) <= 1e-13

    def test_one_point_wrapper_is_the_batch_path(self):
        code = GnuParams(1, 4, 3)
        thetas = np.array([-1.0, 0.25, 2.0])
        w00, w11, w01 = projection_weights(code, 0.6, thetas, 0.2)
        for k, theta in enumerate(thetas):
            proj = codespace_projection(code, InputEnsemble(0.6, theta, 0.2))
            assert abs(proj.w00 - w00[k]) <= 1e-15
            assert abs(proj.w11 - w11[k]) <= 1e-15
            assert abs(proj.w01 - w01[k]) <= 1e-15

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.37])
    @pytest.mark.parametrize("code", V_AXIS_CODES, ids=_code_id)
    def test_vector_of_v_matches_one_v_calls(self, code, eps):
        rng = random.Random(code.num_qubits * 10 + code.n)
        vs = np.array([0.0, *(rng.uniform(0.0, math.pi / 2) for _ in range(6)), math.pi / 2])
        for n_theta in (1, 5):
            thetas = np.array([rng.uniform(-math.pi, math.pi) for _ in range(n_theta)])
            batch = projection_weights(code, vs, thetas, eps)
            square = projection_weights(code, vs.reshape(2, 4), thetas, eps)
            for got, grid in zip(batch, square):
                assert got.shape == (vs.size, n_theta)
                assert np.array_equal(grid.reshape(got.shape), got)
            for i, v in enumerate(vs.tolist()):
                for got, want in zip(batch, projection_weights(code, v, thetas, eps)):
                    if eps == 0.0:
                        assert np.array_equal(got[i], want)
                    else:
                        # The omega sum may run in another order: not bitwise.
                        assert np.max(np.abs(got[i] - want)) <= 1e-15

    def test_complementary_input_relation(self):
        # The error state is the clean state at (pi/2 - v, theta + pi), so
        # swapping eps <-> 1 - eps there reproduces the weights exactly.
        rng = random.Random(20240607)
        points = 0
        for code in METAMORPHIC_CODES:
            for _ in range(4):
                v, eps = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 1.0)
                thetas = np.array([rng.uniform(-math.pi, math.pi) for _ in range(5)])
                lhs = projection_weights(code, v, thetas, 1.0 - eps)
                rhs = projection_weights(code, math.pi / 2 - v, thetas + math.pi, eps)
                for a, b in zip(lhs, rhs):
                    assert np.max(np.abs(a - b)) <= 1e-14
                points += thetas.size
        assert points == 200

    @pytest.mark.parametrize("code", N_GT_1_ORACLE_CODES, ids=_code_id)
    def test_n_gt_1_codes_match_dense_oracle(self, code):
        for v, theta, eps in ((0.7, 0.4, 0.0), (1.2, -2.1, 0.3)):
            ens = InputEnsemble(v, theta, eps)
            dense = project_and_decode(build_rho_n(ens, code.num_qubits), code)
            analytic = codespace_projection(code, ens)
            assert abs(analytic.w00 - dense.w00) <= 1e-14
            assert abs(analytic.w11 - dense.w11) <= 1e-14
            assert abs(analytic.w01 - dense.w01) <= 1e-14


class TestFinalStates:
    def test_matches_final_state(self):
        code = GnuParams(1, 2, 3)
        thetas = np.linspace(-math.pi, math.pi, 9)
        w00, w11, w01 = projection_weights(code, 0.5, thetas, 0.1)
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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "bad", [(-1e-3, 0.5, 0.0), (0.9, 0.9, 0.0), (0.1, 0.1, 0.5), (math.nan, 0.5, 0.0)]
    )
    def test_rejects_what_the_scalar_path_rejects(self, bad):
        with pytest.raises(OutOfRangeError):
            final_state(CodespaceProjection(*bad))
        w00, w11, w01 = (np.array([0.5, x]) for x in bad)
        with pytest.raises(OutOfRangeError):
            final_states(w00, w11, w01.astype(complex))


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
    """The scalar checks and their array forms accept, reject and clamp alike."""

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
        def scalar(a, b, c):
            rho = DensityMatrix1Q(a, b, c)
            return rho.m00, rho.m11, rho.m01

        def array(m00, m11, m01):
            return (x[1] for x in checked_density_arrays(m00, m11, m01))

        verdicts = self._verdicts(scalar, array)
        # Every edge but the non-finite one is seen from both sides.
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


class TestSolverGridRow:
    THETAS = np.array([-math.pi + j * GRID_STEP for j in range(0, 400, 37)])

    @pytest.mark.parametrize(
        "code, kind",
        [(U2, "XT"), (GnuParams(2, 1, 1), "T"), (GnuParams(1, 2, 3), "XH")],
        ids=["1-1-2-XT", "2-1-1-T", "1-2-3-XH"],
    )
    def test_row_matches_point_residuals(self, code, kind):
        target = TargetSpec(kind).density()
        for v in (0.0, 0.1, 0.7, 1.3, math.pi / 2):
            row = _residual_row(code, target, v, self.THETAS)
            for value, theta in zip(row, self.THETAS):
                state = distilled_state(code, InputEnsemble(v, theta, 0.0))
                assert abs(value - trace_distance(state, target)) <= 1e-13

    def test_row_without_weight_is_inf(self):
        target = TargetSpec("XT").density()
        # At v = pi/2 only cos(pi/2) ~ 6e-17 overlaps the codespace.  For
        # (1, 1, 12) the weight ~ cos^22 underflows below
        # MIN_SUCCESS_PROBABILITY; for (1, 1, 2) it is ~7.5e-33 and the
        # state is still defined.
        row = _residual_row(GnuParams(1, 1, 12), target, math.pi / 2, self.THETAS)
        assert np.all(row == math.inf)
        with pytest.raises(ZeroSuccessProbabilityError):
            distilled_state(GnuParams(1, 1, 12), InputEnsemble(math.pi / 2, 0.3, 0.0))
        assert np.all(np.isfinite(_residual_row(U2, target, math.pi / 2, self.THETAS)))


# The figure sweeps' eps grid plus the far end of the channel.
FIGURE_EPS = np.append(np.arange(501) * 1e-3, 1.0)
MAX_ERRORS_CODES = [
    GnuParams(*shape)
    for shape in ((1, 1, 2), (2, 1, 1), (1, 2, 6), (2, 2, 3), (3, 4, 5), (1, 4, 15), (1, 1, 60))
]


class TestMaxErrors:
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

    @pytest.mark.parametrize("code", MAX_ERRORS_CODES, ids=_code_id)
    def test_max_error_is_one_point_of_max_errors(self, code):
        rng = random.Random(code.num_qubits * 7 + code.g)
        target = t_state().density()
        for _ in range(3):
            v, theta = rng.uniform(0.3, 1.27), rng.uniform(-math.pi, math.pi)
            for eps in (0.0, 0.1, 1.0):
                (want,) = max_errors(code, v, theta, np.array([eps]), target).tolist()
                assert max_error(code, v, theta, eps, target) == want

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
            "gnumsd.engine._projection", lambda *args: pytest.fail("projected a bad eps")
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
