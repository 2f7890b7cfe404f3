import cmath
import logging
import math
import random

import pytest

from gnumsd import solver
from gnumsd.codes import GnuParams
from gnumsd.engine import InputEnsemble, distilled_state, final_state, wrap_angle
from gnumsd.errors import NoSolutionError, OutOfRangeError, ZeroSuccessProbabilityError
from gnumsd.oracle import build_rho_n, project_and_decode
from gnumsd.qmath import (
    DensityMatrix1Q,
    PureQubit,
    h_state,
    m2_density,
    m2_pure,
    t_state,
    trace_distance,
)
from gnumsd.roots import bisect_sign_change, first_root, step_grid
from gnumsd.solver import (
    GRID_STEP,
    TargetSpec,
    _neighbour_residuals,
    _pattern_search,
    default_magic_grid,
    magic_curve,
    solve_for_magic,
    solve_input_params,
    solve_to_density,
)

U2 = GnuParams(1, 1, 2)
REPETITION = GnuParams(2, 1, 1)


class TestTargetSpec:
    def test_t_state_amplitudes(self):
        t = TargetSpec("T").state()
        assert abs(t.c0 - math.cos(0.5 * math.acos(1 / math.sqrt(3)))) <= 1e-15
        assert cmath.phase(t.c1) == pytest.approx(math.pi / 4)

    def test_x_conjugation_swaps_amplitudes(self):
        t = TargetSpec("T").state()
        xt = TargetSpec("XT").state()
        assert xt.c0 == t.c1 and xt.c1 == t.c0

    def test_custom_needs_state(self):
        with pytest.raises(OutOfRangeError):
            TargetSpec("custom")
        with pytest.raises(OutOfRangeError):
            TargetSpec("T", custom=PureQubit(1, 0))

    def test_unknown_kind(self):
        with pytest.raises(OutOfRangeError):
            TargetSpec("S")


class TestSolveInputParams:
    def test_repetition_t_row(self):
        solutions = solve_input_params(REPETITION, TargetSpec("T"))
        v_exact = math.asin(math.sqrt((1 + math.sqrt(2) - math.sqrt(3)) / 2))
        match = [
            s
            for s in solutions
            if abs(s.v - v_exact) < 1e-6 and abs(s.theta + 7 * math.pi / 8) < 1e-6
        ]
        assert match and match[0].residual < 1e-9

    def test_repetition_h_row(self):
        solutions = solve_input_params(REPETITION, TargetSpec("H"))
        v_exact = math.atan(1 / math.sqrt(1 + math.sqrt(2)))
        match = [
            s for s in solutions if abs(s.v - v_exact) < 1e-6 and abs(s.theta) < 1e-6
        ]
        assert match and match[0].residual < 1e-9

    def test_codeword_fixed_point_family(self):
        solutions = solve_to_density(U2, DensityMatrix1Q(1.0, 0.0, 0.0), 1e-9)
        # an entire theta family solves v=0; the canonical head has v = 0
        assert solutions[0].v == pytest.approx(0.0, abs=1e-9)
        assert solutions[0].input_magic == pytest.approx(0.0, abs=1e-12)
        assert len(solutions) > 10

    def test_round_trip_property(self):
        for code in (U2, GnuParams(1, 1, 3)):
            for kind in ("XT", "XH"):
                target = TargetSpec(kind).density()
                for sol in solve_input_params(code, TargetSpec(kind)):
                    state = distilled_state(code, InputEnsemble(sol.v, sol.theta, 0.0))
                    assert trace_distance(state, target) <= 1e-9

    def test_sorted_by_input_magic(self):
        solutions = solve_input_params(REPETITION, TargetSpec("T"))
        magics = [s.input_magic for s in solutions]
        assert magics == sorted(magics)

    def test_input_magic_below_target_magic(self):
        for u in (2, 3, 4):
            code = GnuParams(1, 1, u)
            for kind, reference in (("XT", t_state()), ("XH", h_state())):
                head = solve_input_params(code, TargetSpec(kind))[0]
                assert head.input_magic < m2_pure(reference)

    def test_unreachable_mixed_target(self):
        with pytest.raises(NoSolutionError):
            solve_to_density(U2, DensityMatrix1Q(0.5, 0.5, 0.0), 1e-9)

    @pytest.mark.parametrize("tol", [1e-12, 0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_tol_validation(self, tol):
        with pytest.raises(OutOfRangeError, match="tol must be a finite number of at least 1e-10"):
            solve_input_params(U2, TargetSpec("T"), tol=tol)


def _residual(code, target, v, theta):
    """Noiseless trace distance to target at one point, one scalar call; inf where no weight."""
    try:
        return trace_distance(distilled_state(code, InputEnsemble(v, theta, 0.0)), target)
    except ZeroSuccessProbabilityError:
        return math.inf


def _reference_pattern_search(code, target, v, theta, stop):
    """_pattern_search probing one neighbour at a time through _residual."""
    best = _residual(code, target, v, theta)
    step = GRID_STEP
    while step > 1e-12 and best > stop:
        move = None
        for cand_v, cand_theta in (
            (v + step, theta),
            (v - step, theta),
            (v, theta + step),
            (v, theta - step),
        ):
            cand_v = min(max(cand_v, 0.0), math.pi / 2)
            cand_theta = wrap_angle(cand_theta)
            value = _residual(code, target, cand_v, cand_theta)
            if value < (move[2] if move else best):
                move = (cand_v, cand_theta, value)
        if move:
            v, theta, best = move
        else:
            step *= 0.5
    return v, theta, best


NEIGHBOUR_CODES = [
    GnuParams(*shape)
    for shape in ((1, 1, 2), (2, 1, 1), (1, 1, 12), (1, 2, 3), (3, 2, 2), (1, 4, 2.5))
]


class TestNeighbourResiduals:
    XT = TargetSpec("XT").density()

    def _check(self, code, v, theta, step):
        """The four neighbours, each checked bitwise against the scalar residual."""
        neighbours = _neighbour_residuals(code, self.XT, v, theta, step)
        axis = ((v + step, theta), (v - step, theta), (v, theta + step), (v, theta - step))
        assert len(neighbours) == 4
        for (cand_v, cand_theta, value), (raw_v, raw_theta) in zip(neighbours, axis):
            assert cand_v == min(max(raw_v, 0.0), math.pi / 2)
            assert cand_theta == wrap_angle(raw_theta)
            assert value == _residual(code, self.XT, cand_v, cand_theta)
        return neighbours

    @pytest.mark.parametrize("code", NEIGHBOUR_CODES, ids=lambda c: f"{c.g}-{c.n}-{c.u:g}")
    def test_seeded_points_match_scalar_residual(self, code):
        rng = random.Random(code.num_qubits * 10 + code.g)
        for _ in range(50):
            step = GRID_STEP * 0.5 ** rng.randrange(40)
            self._check(code, rng.uniform(0.0, math.pi / 2), rng.uniform(-math.pi, math.pi), step)

    def test_v_clamps_and_theta_wraps(self):
        low = self._check(U2, 0.001, -math.pi + 0.001, GRID_STEP)
        assert low[1][0] == 0.0 and low[3][1] > 3.1
        high = self._check(U2, math.pi / 2 - 0.001, math.pi - 0.002, GRID_STEP)
        assert high[0][0] == math.pi / 2 and high[2][1] < -3.1

    def test_zero_weight_neighbour_is_inf(self):
        # The (1, 1, 12) weight underflows at v = pi/2 only.
        code = GnuParams(1, 1, 12)
        neighbours = self._check(code, math.pi / 2 - GRID_STEP / 2, 0.3, GRID_STEP)
        assert neighbours[0][0] == math.pi / 2 and neighbours[0][2] == math.inf
        assert all(math.isfinite(value) for _, _, value in neighbours[1:])

    @pytest.mark.parametrize("code", NEIGHBOUR_CODES[:4], ids=lambda c: f"{c.g}-{c.n}-{c.u:g}")
    def test_pattern_search_matches_one_probe_at_a_time(self, code):
        rng = random.Random(code.num_qubits)
        for kind in ("XT", "XH"):
            target = TargetSpec(kind).density()
            for _ in range(2):
                start = (rng.uniform(0.0, math.pi / 2), rng.uniform(-math.pi, math.pi))
                best = _residual(code, target, *start)
                assert _pattern_search(
                    code, target, *start, best, 1e-12
                ) == _reference_pattern_search(code, target, *start, 1e-12)

    @pytest.mark.parametrize("code", NEIGHBOUR_CODES[:4], ids=lambda c: f"{c.g}-{c.n}-{c.u:g}")
    def test_search_starts_from_the_grid_residual(self, code, monkeypatch):
        # solve_to_density seeds each descent with its grid point's residual,
        # which must be the scalar residual there, bit for bit.
        starts = []
        search = solver._pattern_search

        def recorded(*args, **kwargs):
            starts.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(solver, "_pattern_search", recorded)
        for kind in ("XT", "XH"):
            target = TargetSpec(kind).density()
            solve_to_density.__wrapped__(code, target, 1e-9)
        assert starts
        for _, target, v, theta, best in starts:
            assert best == _residual(code, target, v, theta)


class TestMagicCurve:
    def test_empty_grid(self):
        assert magic_curve(U2, math.pi / 4, []) == []

    def test_singular_point_is_skipped_and_logged(self, caplog):
        code = GnuParams(1, 1, 12)
        with caplog.at_level(logging.WARNING, logger="gnumsd.solver"):
            points = magic_curve(code, math.pi / 4, [0.7, math.pi / 2, 0.0])
        assert [v for v, _ in points] == [0.7, 0.0]
        state = distilled_state(code, InputEnsemble(0.7, math.pi / 4, 0.0))
        assert points[0][1] == m2_density(state)
        assert caplog.messages == [f"magic_curve: skipped singular grid point v={math.pi / 2!r}"]

    @pytest.mark.parametrize("code", NEIGHBOUR_CODES, ids=lambda c: f"{c.g}-{c.n}-{c.u:g}")
    def test_seeded_grid_matches_scalar_magic_bitwise(self, code):
        # solve_for_magic samples this curve and bisects with m2_density on
        # distilled_state, so the two paths must agree to the bit.
        rng = random.Random(code.num_qubits * 3 + code.n)
        theta = rng.uniform(-math.pi, math.pi)
        grid = sorted(rng.uniform(0.0, math.pi / 2) for _ in range(40))
        for v, value in magic_curve(code, theta, grid):
            assert value == m2_density(distilled_state(code, InputEnsemble(v, theta, 0.0)))

    def test_zero_angle_gives_zero_magic(self):
        points = magic_curve(U2, math.pi / 4, [0.0])
        assert points == [(0.0, 0.0)]

    def test_peak_reaches_t_state_magic(self):
        points = magic_curve(U2, math.pi / 4, default_magic_grid())
        assert max(m for _, m in points) >= 0.584

    def test_matches_oracle_path(self):
        code = GnuParams(1, 1, 3)
        v = math.pi / 2  # float pi/2: the dense and analytic paths share cos(v)
        (_, analytic), = magic_curve(code, math.pi / 4, [v])
        ens = InputEnsemble(v, math.pi / 4, 0.0)
        dense = final_state(project_and_decode(build_rho_n(ens, 3), code))
        assert analytic == pytest.approx(m2_density(dense), abs=1e-9)

    def test_total_on_noiseless_grid(self):
        # zero-weight projections exist (e.g. eps=1 at v=0) but not on the
        # noiseless magic-curve domain, so no grid point is skipped
        with pytest.raises(ZeroSuccessProbabilityError):
            distilled_state(U2, InputEnsemble(0.0, 0.0, 1.0))
        points = magic_curve(U2, math.pi / 4, default_magic_grid(math.pi / 100))
        assert len(points) == 51


class TestSolveForMagic:
    def test_zero_magic_maps_to_zero_angle(self):
        assert solve_for_magic(U2, math.pi / 4, 0.0) == 0.0

    def test_round_trip_at_intermediate_magic(self):
        v = solve_for_magic(U2, math.pi / 4, 0.3)
        state = distilled_state(U2, InputEnsemble(v, math.pi / 4, 0.0))
        assert m2_density(state) == pytest.approx(0.3, abs=1e-6)

    def test_ties_break_toward_smaller_v(self):
        # 0.3 is attained on both flanks of the peak; the returned v must be
        # on the rising flank
        v = solve_for_magic(U2, math.pi / 4, 0.3)
        peak_zone = math.atan(math.tan(0.5 * math.acos(1 / math.sqrt(3))) / math.sqrt(2))
        assert v < peak_zone

    def test_excessive_magic_rejected(self):
        with pytest.raises(OutOfRangeError):
            solve_for_magic(U2, math.pi / 4, 0.9)

    def test_negative_magic_rejected(self):
        with pytest.raises(OutOfRangeError):
            solve_for_magic(U2, math.pi / 4, -0.1)


class TestBisectSignChange:
    def test_halves_down_to_the_width(self):
        root, width, evaluations = bisect_sign_change(
            lambda x: x * x - 2.0, 1.0, 2.0, -1.0, 1e-10
        )
        assert width <= 1e-10
        assert evaluations == 34  # 2^-34 is the first halving of 1 below 1e-10
        assert abs(root - math.sqrt(2.0)) <= 1e-10

    def test_exact_zero_at_a_midpoint_stops_early(self):
        calls = []

        def fn(x):
            calls.append(x)
            return x - 0.75

        assert bisect_sign_change(fn, 0.0, 1.0, -0.75, 1e-8) == (0.75, 0.0, 2)
        assert calls == [0.5, 0.75]


def _never_called(x):
    raise AssertionError(f"fn evaluated at {x!r}")


class TestFirstRoot:
    def test_exact_zero_sample_needs_no_evaluation(self):
        found = first_root([0.0, 1.0, 2.0, 3.0], [-1.0, -0.5, 0.0, 1.0], _never_called, 0.0, 1e-8)
        assert found == (2.0, 0.0, 0)

    def test_sample_within_atol_is_the_root(self):
        found = first_root([0.0, 1.0, 2.0], [-1.0, 1e-13, 1.0], _never_called, 1e-12, 1e-8)
        assert found == (1.0, 0.0, 0)

    def test_earlier_sign_change_wins_over_later_exact_zero(self):
        found = first_root([0.0, 1.0, 2.0, 3.0], [-0.5, 0.5, 0.0, 1.0], lambda x: x - 0.5, 0.0, 1e-8)
        assert found == (0.5, 0.0, 1)

    def test_sign_change_is_bisected_through_fn(self):
        root, width, evaluations = first_root(
            [0.0, 1.0, 2.0], [-2.0, -1.0, 2.0], lambda x: x * x - 2.0, 0.0, 1e-10
        )
        assert (width, evaluations) == bisect_sign_change(
            lambda x: x * x - 2.0, 1.0, 2.0, -1.0, 1e-10
        )[1:]
        assert abs(root - math.sqrt(2.0)) <= 1e-10

    @pytest.mark.parametrize("diffs", [[1.0, 2.0, 0.5], [-1.0, -2.0, -0.5], []])
    def test_no_touch_and_no_sign_change_is_none(self, diffs):
        xs = [float(i) for i in range(len(diffs))]
        assert first_root(xs, diffs, _never_called, 1e-12, 1e-8) is None

    def test_matches_a_sample_by_sample_scan(self):
        rng = random.Random(4)
        values = [-1.0, -1e-13, 0.0, 1e-13, 1.0, math.nan]
        for _ in range(300):
            diffs = [rng.choice(values) for _ in range(rng.randrange(8))]
            xs = [0.25 * i for i in range(len(diffs))]
            expected = None
            for i, d in enumerate(diffs):
                if abs(d) <= 1e-12:
                    expected = (xs[i], 0.0, 0)
                    break
                if i and (d < 0.0) != (diffs[i - 1] < 0.0):
                    expected = bisect_sign_change(abs, xs[i - 1], xs[i], diffs[i - 1], 0.1)
                    break
            assert first_root(xs, diffs, abs, 1e-12, 0.1) == expected, diffs

    def test_solve_for_magic_returns_a_sampled_v_exactly(self):
        points = magic_curve(U2, math.pi / 4, default_magic_grid())
        for v, magic in (points[3], points[100]):
            assert solve_for_magic(U2, math.pi / 4, magic) == v


class TestStepGrid:
    def test_points_are_k_times_step(self):
        grid = step_grid(0.5, 1e-3)
        assert len(grid) == 501
        assert grid.tolist() == [k * 1e-3 for k in range(501)]
        assert default_magic_grid() == [k * (math.pi / 1000) for k in range(501)]

    @pytest.mark.parametrize(
        "stop, step, count",
        [
            (0.5, 1e-3, 501),
            (math.pi / 2, math.pi / 1000, 501),
            (math.pi / 2, math.pi / 100, 51),
            (0.5, 0.0007, 715),
            (0.5, 0.013, 39),
            (0.5, 0.3, 2),
            (math.pi / 2, 1.0, 2),
        ],
    )
    def test_stops_at_the_range_end_up_to_rounding(self, stop, step, count):
        grid = step_grid(stop, step)
        assert grid.tolist() == [k * step for k in range(count)]
        # Rounding may carry a divisor step's last point an ulp past stop.
        assert grid[-1] <= stop + 4 * math.ulp(stop)

    def test_pi_over_100_grid_ends_an_ulp_above_half_pi(self):
        assert step_grid(math.pi / 2, math.pi / 100)[-1] == math.nextafter(math.pi / 2, 2.0)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(OutOfRangeError):
            step_grid(0.5, step)
        with pytest.raises(OutOfRangeError):
            default_magic_grid(step)
