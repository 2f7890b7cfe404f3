import cmath
import logging
import math
import random
import re
import struct
import time
from functools import cmp_to_key

import numpy as np
import pytest

from gnumsd import engine, roots, solver
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
    SolvedInput,
    TargetSpec,
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
        # every theta solves at v = 0, but all of them are the one input
        # state |0>, so the family is one solution
        assert solutions[0].v == pytest.approx(0.0, abs=1e-9)
        assert solutions[0].input_magic == pytest.approx(0.0, abs=1e-12)
        assert len(solutions) == 1

    def test_round_trip_property(self):
        for code in (U2, GnuParams(1, 1, 3)):
            for kind in ("XT", "XH"):
                target = TargetSpec(kind).density()
                for sol in solve_input_params(code, TargetSpec(kind)):
                    state = distilled_state(code, InputEnsemble(sol.v, sol.theta, 0.0))
                    assert trace_distance(state, target) <= 1e-9

    def test_sorted_by_input_magic(self):
        # g-fold images differ in magic by rounding only, so magic is
        # ordered up to _canonical_order's 1e-12 tie.
        for code in (REPETITION, GnuParams(4, 15, 1), GnuParams(1, 30, 2)):
            solutions = solve_input_params(code, TargetSpec("T"))
            for first, second in zip(solutions, solutions[1:]):
                assert first.input_magic <= second.input_magic + 1e-12

    def test_input_magic_below_target_magic(self):
        for u in (2, 3, 4):
            code = GnuParams(1, 1, u)
            for kind, reference in (("XT", t_state()), ("XH", h_state())):
                head = solve_input_params(code, TargetSpec(kind))[0]
                assert head.input_magic < m2_pure(reference)

    def test_images_order_by_theta_whatever_the_rounding(self):
        # The g-fold images differ in magic and v by rounding only, so theta
        # alone orders them, whichever way the rounding falls.
        a = SolvedInput(0.6, 0.39, 1e-16, 0.3)
        b = SolvedInput(math.nextafter(0.6, 0.0), -2.75, 1e-16, math.nextafter(0.3, 1.0))
        for pair in ([a, b], [b, a]):
            assert sorted(pair, key=cmp_to_key(solver._canonical_order)) == [b, a]
        rng = random.Random(7)
        for shape in ((2, 2, 2), (2, 3, 2), (3, 2, 2)):
            code = GnuParams(*shape)
            for _ in range(3):
                state = InputEnsemble(rng.uniform(0.25, 1.32), rng.uniform(-math.pi, math.pi), 0.0)
                solutions = solve_to_density(code, distilled_state(code, state), 1e-9)
                for first, second in zip(solutions, solutions[1:]):
                    gap = max(abs(first.input_magic - second.input_magic), abs(first.v - second.v))
                    if gap <= 1e-12:
                        assert first.theta < second.theta

    @pytest.mark.parametrize(
        "shape, kind",
        [((1, 1, 2), "XT"), ((2, 1, 1), "T"), ((4, 15, 1), "T")],
        ids=["1-1-2-XT", "2-1-1-T", "4-15-1-T"],
    )
    def test_input_magic_is_m2_pure_of_the_clean_state(self, shape, kind):
        # Bit for bit: the audit's magic is m2_pure of the solution's clean
        # state cos(v)|0> + e^{i theta} sin(v)|1>, as InputEnsemble builds it.
        solutions = solve_input_params(GnuParams(*shape), TargetSpec(kind))
        assert solutions
        for s in solutions:
            clean = PureQubit(math.cos(s.v), cmath.exp(1j * s.theta) * math.sin(s.v))
            assert struct.pack("<d", s.input_magic) == struct.pack("<d", m2_pure(clean))

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


SEEDED_CODES = [
    GnuParams(*shape)
    for shape in ((1, 1, 2), (2, 1, 1), (1, 1, 12), (1, 2, 3), (3, 2, 2), (1, 4, 2.5))
]
ZERO = DensityMatrix1Q(1.0, 0.0, 0.0)
ONE = DensityMatrix1Q(0.0, 1.0, 0.0)
# p's degree in z, and so its root count, is n.
VIETA_CODES = [
    GnuParams(*shape)
    for shape in (
        (1, 2, 3), (1, 2, 6), (2, 2, 3), (1, 3, 2), (2, 3, 2), (1, 4, 2.5),
        (3, 4, 5), (1, 5, 1), (3, 5, 4), (5, 2, 6), (1, 6, 2), (2, 6, 1),
    )
]


def _z(code, solution):
    """The root z = (e^{i theta} tan v)^g that a solution's input comes from."""
    return (cmath.exp(1j * solution.theta) * math.tan(solution.v)) ** code.g


class TestRoots:
    @pytest.mark.parametrize("code", VIETA_CODES, ids=lambda c: f"{c.g}-{c.n}-{c.u:g}")
    def test_vieta_rebuilds_the_polynomial(self, code):
        # The polynomial rebuilt from the roots of the returned inputs is p:
        # no root is missing and none is spurious.
        for kind in ("T", "H", "XT", "XH"):
            target = TargetSpec(kind).density()
            roots = []
            for sol in solve_to_density(code, target, 1e-9):
                z = _z(code, sol)
                if all(abs(z - other) > 1e-6 * abs(other) for other in roots):
                    roots.append(z)
            assert len(roots) == code.n
            p = solver._target_polynomial(code, target)
            # p_n times the product of (z - root), lowest power first.
            rebuilt = p[-1] * np.poly(roots)[::-1]
            for got, want in zip(rebuilt.tolist(), p, strict=True):
                assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("shape", [(2, 1, 6), (1, 1, 12)], ids=lambda s: "-".join(map(str, s)))
    def test_limit_at_the_v_edge_is_refused(self, shape):
        # |1> is p's root at z = inf alone: the limit v -> pi/2, where these
        # u > 1 codes accept nothing.
        with pytest.raises(NoSolutionError, match=r"only in the limit v -> pi/2, where the code"):
            solve_to_density(GnuParams(*shape), ONE, 1e-9)

    def test_zero_and_infinity_on_3_2_3(self):
        # |0> is p's root at z = 0, the input (0, -pi), and its root at
        # z = inf, a limit the code refuses: one row.
        assert solve_to_density(GnuParams(3, 2, 3), ZERO, 1e-9) == (
            SolvedInput(0.0, -math.pi, 0.0, 0.0),
        )

    @pytest.mark.parametrize("u", [2, 4])
    def test_infinity_is_a_point_on_a_short_code(self, u):
        # (1, 1, u) accepts v = pi/2 for small u, and every theta there is |1>.
        (sol,) = solve_to_density(GnuParams(1, 1, u), ONE, 1e-9)
        assert (sol.v, sol.theta, sol.input_magic) == (math.pi / 2, -math.pi, 0.0)
        assert sol.residual <= 1e-16

    def test_pole_family_is_one_input(self):
        # Every theta at v = 0 is the target |0>: one solution, at residual 0.
        for code in (U2, REPETITION):
            (sol,) = solve_to_density(code, ZERO, 1e-9)
            assert (sol.v, sol.residual) == (0.0, 0.0)

    def test_one_up_to_rounding_on_1_1_4(self):
        # This target is |1> up to 6e-17: a finite root just inside v = pi/2.
        target = PureQubit(math.cos(math.pi / 2), cmath.exp(-0.64j)).density()
        assert len(solve_to_density(GnuParams(1, 1, 4), target, 1e-9)) == 1

    def test_double_root_is_one_row(self):
        # On (1, 2, 1), p of |+> is (z - 1)^2 up to a factor: its float roots
        # may split, but they are one input state.
        target = PureQubit(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)).density()
        (sol,) = solve_to_density(GnuParams(1, 2, 1), target, 1e-9)
        assert sol.v == pytest.approx(math.pi / 4, abs=1e-6)
        assert sol.theta == pytest.approx(0.0, abs=1e-6)

    def test_every_root_on_4_15_1(self):
        # 15 roots of p, each with g = 4 inputs, among them this family of
        # ps 9.5e-3.
        solutions = solve_input_params(GnuParams(4, 15, 1), TargetSpec("T"))
        assert len(solutions) == 60
        v, theta = 0.6844508977804356, 0.35792491653990144
        assert any(abs(s.v - v) <= 1e-9 and abs(s.theta - theta) <= 1e-9 for s in solutions)

    def test_head_on_1_30_2_is_the_minimum_magic_root(self):
        # The minimum-magic root lies near v = 0, where ps is 2.3e-9; a
        # root at v = 0.727 has magic 0.0203.
        head = solve_input_params(GnuParams(1, 30, 2), TargetSpec("T"))[0]
        assert head.v == pytest.approx(0.01207822634008219, abs=1e-9)
        assert head.theta == pytest.approx(0.8730236089788388, abs=1e-9)
        assert head.input_magic < 1e-3

    def test_roots_across_the_edges(self):
        # A root just past theta = -pi, and a root just below v = pi/2.
        for v0, theta0 in ((0.7, -math.pi + 1e-3), (math.pi / 2 - 1e-7, 0.4)):
            target = distilled_state(U2, InputEnsemble(v0, theta0, 0.0))
            (sol,) = solve_to_density(U2, target, 1e-9)
            assert sol.v == pytest.approx(v0, abs=1e-12)
            assert sol.theta == pytest.approx(theta0, abs=1e-12)
            assert sol.residual <= 1e-15

    @pytest.mark.parametrize("shape", [(3, 1, 3), (3, 2, 3)], ids=lambda s: "-".join(map(str, s)))
    def test_round_trip_near_the_v_0_pole(self, shape):
        # A target from an input within 1e-3 of v = 0: every g-fold image of
        # the generating input is among the solutions.
        code = GnuParams(*shape)
        rng = random.Random(sum(shape))
        v0, theta0 = rng.uniform(1e-5, 1e-3), rng.uniform(-math.pi, math.pi)
        target = distilled_state(code, InputEnsemble(v0, theta0, 0.0))
        solutions = solve_to_density.__wrapped__(code, target, 1e-9)
        for k in range(code.g):
            image = theta0 + 2.0 * math.pi * k / code.g
            assert any(
                abs(s.v - v0) <= 1e-6 and abs(wrap_angle(s.theta - image)) <= 1e-6
                for s in solutions
            )

    def test_mixed_target_stays_refused(self):
        # A mixed target is not its nearest pure state, which every root hits.
        t = t_state().density()
        mixed = DensityMatrix1Q(0.98 * t.m00 + 0.01, 0.98 * t.m11 + 0.01, 0.98 * t.m01)
        for code in (U2, REPETITION):
            with pytest.raises(NoSolutionError, match="no input reaches the target within the tolerance"):
                solve_to_density(code, mixed, 1e-9)

    @pytest.mark.parametrize("code", SEEDED_CODES[:4], ids=lambda c: f"{c.g}-{c.n}-{c.u:g}")
    def test_residual_is_the_scalar_residual(self, code):
        # solve_to_density reports the residual of its confirmation call,
        # which must be the scalar residual there, bit for bit.
        for kind in ("XT", "XH"):
            target = TargetSpec(kind).density()
            for sol in solve_to_density.__wrapped__(code, target, 1e-9):
                assert sol.residual == _residual(code, target, sol.v, sol.theta)
                assert type(sol.v) is type(sol.theta) is type(sol.residual) is float

    @pytest.mark.parametrize(
        "shape", [(1, 2, 3), (3, 2, 2), (2, 3, 2)], ids=lambda s: "-".join(map(str, s))
    )
    def test_generated_targets_solve_to_float_precision(self, shape):
        code = GnuParams(*shape)
        rng = random.Random(sum(shape))
        for _ in range(3):
            v0, theta0 = rng.uniform(0.25, 1.32), rng.uniform(-math.pi, math.pi)
            target = distilled_state(code, InputEnsemble(v0, theta0, 0.0))
            solutions = solve_to_density.__wrapped__(code, target, 1e-9)
            assert max(s.residual for s in solutions) <= 1e-12
            assert any(
                abs(s.v - v0) <= 1e-9 and abs(wrap_angle(s.theta - theta0)) <= 1e-9
                for s in solutions
            )


def _n1_reference(code, target):
    """Every (v, theta) with noiseless output target on an n = 1 code, sorted.

    For n = 1, m00 does not depend on theta and m01 turns as e^{-i g theta},
    so a solution is a root in v of m00(v) = t00, bisected here from a
    sampled sign change, with theta = (arg m01(v, 0) - arg t01 + 2 pi k) / g.
    """
    def offset(v):
        return distilled_state(code, InputEnsemble(v, 0.0, 0.0)).m00 - target.m00

    samples = []
    for k in range(2001):
        v = k * (math.pi / 4000)
        try:
            samples.append((v, offset(v)))
        except ZeroSuccessProbabilityError:
            continue
    roots = []
    for (lo, f_lo), (hi, f_hi) in zip(samples, samples[1:]):
        if f_lo == 0.0:
            roots.append(lo)
        elif (f_lo < 0.0) != (f_hi < 0.0) and f_hi != 0.0:
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                if (offset(mid) < 0.0) == (f_lo < 0.0):
                    lo = mid
                else:
                    hi = mid
            roots.append(lo)
    solutions = []
    for v in roots:
        phase = cmath.phase(distilled_state(code, InputEnsemble(v, 0.0, 0.0)).m01)
        for k in range(code.g):
            theta = (phase - cmath.phase(target.m01) + 2.0 * math.pi * k) / code.g
            solutions.append((v, wrap_angle(theta)))
    return sorted(solutions)


class TestOneComponentReference:
    @pytest.mark.parametrize("kind", ["T", "XT", "H", "XH"])
    @pytest.mark.parametrize("code", [U2, REPETITION], ids=["1-1-2", "2-1-1"])
    def test_paper_targets(self, code, kind):
        self._check(code, TargetSpec(kind).density())

    @pytest.mark.parametrize("u", [12, 30, 60])
    def test_generated_targets(self, u):
        code = GnuParams(1, 1, u)
        rng = random.Random(u)
        for _ in range(2):
            v0, theta0 = rng.uniform(0.25, 1.32), rng.uniform(-math.pi, math.pi)
            self._check(code, distilled_state(code, InputEnsemble(v0, theta0, 0.0)))

    @staticmethod
    def _check(code, target):
        solutions = solve_to_density.__wrapped__(code, target, 1e-9)
        reference = _n1_reference(code, target)
        # Matched as sets, one to one: g-fold images whose v differ in the
        # last bits would pair crosswise if both sides were sorted on (v, theta).
        matches = [
            [
                i for i, s in enumerate(solutions)
                if abs(s.v - v) <= 1e-11 and abs(wrap_angle(s.theta - theta)) <= 1e-11
            ]
            for v, theta in reference
        ]
        assert sorted(matches) == [[i] for i in range(len(solutions))]


class TestMagicCurve:
    def test_empty_grid(self):
        assert magic_curve(U2, math.pi / 4, []) == []
        assert magic_curve(U2, math.nan, []) == []  # no point, so no angle is checked

    @pytest.mark.parametrize(
        "grid, theta, message",
        [
            ([0.1, math.nan], 0.2, "ensemble parameters must be finite"),
            ([0.1, -1e-9, math.nan], 0.2, "v must lie in [0, pi/2], got -1e-09"),
            ([0.1, math.pi / 2 + 1e-9], 0.2, "v must lie in [0, pi/2], got 1.5707963277948966"),
            ([np.float64(0.1), np.float64(-1.0)], 0.2, "v must lie in [0, pi/2], got -1.0"),
            ([0.1, 0.2], math.nan, "ensemble parameters must be finite"),
            ([0.1, -1e-9], math.nan, "ensemble parameters must be finite"),
        ],
    )
    def test_rejects_what_input_ensemble_rejects(self, grid, theta, message):
        # The first rejected grid point raises InputEnsemble's own message.
        with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
            magic_curve(U2, theta, grid)

    def test_edges_are_clamped_and_echoed_as_given(self):
        grid = [-0.0, -1e-13, math.pi / 2 + 1e-13]
        points = magic_curve(U2, 0.3, grid)
        assert [v for v, _ in points] == grid
        assert math.copysign(1.0, points[0][0]) == -1.0
        assert [m for _, m in points] == [
            m for _, m in magic_curve(U2, 0.3, [0.0, 0.0, math.pi / 2])
        ]

    def test_singular_point_is_skipped_and_logged(self, caplog):
        code = GnuParams(1, 1, 12)
        with caplog.at_level(logging.WARNING, logger="gnumsd.solver"):
            points = magic_curve(code, math.pi / 4, [0.7, math.pi / 2, 0.0])
        assert [v for v, _ in points] == [0.7, 0.0]
        state = distilled_state(code, InputEnsemble(0.7, math.pi / 4, 0.0))
        assert points[0][1] == m2_density(state)
        assert caplog.messages == [f"magic_curve: skipped singular grid point v={math.pi / 2!r}"]

    @pytest.mark.parametrize("code", SEEDED_CODES, ids=lambda c: f"{c.g}-{c.n}-{c.u:g}")
    def test_seeded_grid_matches_scalar_magic_bitwise(self, code):
        # solve_for_magic samples this curve and bisects with m2_density on
        # distilled_state, so the two paths must agree to the bit; both read
        # the omega = 0 kernel, so the one-point kernel's eps = 0 state (its
        # table's row omega = 0, the curve table's leg) is checked too.
        rng = random.Random(code.num_qubits * 3 + code.n)
        theta = rng.uniform(-math.pi, math.pi)
        grid = sorted(rng.uniform(0.0, math.pi / 2) for _ in range(40))
        for v, value in magic_curve(code, theta, grid):
            ens = InputEnsemble(v, theta, 0.0)
            assert value == m2_density(distilled_state(code, ens))
            assert value == m2_density(engine._curve_table(code, ens.v, ens.theta).noiseless)

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

    @pytest.mark.parametrize("shape", [(1, 1, 2), (1, 2, 6), (3, 2, 3), (2, 1, 4)])
    def test_round_trips_from_seeded_inputs(self, shape):
        # The noiseless output magic at a seeded v0, one v0 from each of
        # (0.02, 0.25), (0.25, 1.32) and (1.32, 1.55), comes back within the
        # documented 1e-6 in bounded time.  The v returned may be another v
        # of the same magic, since ties go toward smaller v.
        code = GnuParams(*shape)
        rng = random.Random(code.num_qubits * 97 + code.g)
        theta = rng.uniform(-math.pi, math.pi)
        for lo, hi in ((0.02, 0.25), (0.25, 1.32), (1.32, 1.55)):
            v0 = rng.uniform(lo, hi)
            magic = m2_density(distilled_state(code, InputEnsemble(v0, theta, 0.0)))
            start = time.perf_counter()
            v = solve_for_magic(code, theta, magic)
            assert time.perf_counter() - start <= 10.0
            state = distilled_state(code, InputEnsemble(v, theta, 0.0))
            assert abs(m2_density(state) - magic) <= 1e-6

    def test_nan_magic_rejected_before_the_curve(self, monkeypatch):
        monkeypatch.setattr(solver, "magic_curve", lambda *args: pytest.fail("sampled the curve"))
        with pytest.raises(OutOfRangeError, match="^magic must be nonnegative, got nan$"):
            solve_for_magic(U2, math.pi / 4, math.nan)


def test_noiseless_paths_compute_no_noise_weights(monkeypatch):
    # The solver's confirmations, the magic curve, its inversion and every
    # eps = 0 point read the omega = 0 kernel alone: no noise weight of any
    # omega is computed and no one-point table is filled.
    monkeypatch.setattr(engine, "_noise_weights", lambda *args: pytest.fail("noise weights"))
    monkeypatch.setattr(engine, "_sum_rows", lambda *args: pytest.fail("one-point table"))
    target = TargetSpec("XT").density()
    for code in (U2, GnuParams(1, 2, 6)):
        assert solve_to_density.__wrapped__(code, target)[0].residual <= 1e-9
    # v = pi/2 alone is singular on (1, 2, 6).
    assert len(magic_curve(GnuParams(1, 2, 6), 0.3, default_magic_grid(math.pi / 100))) == 50
    state = distilled_state(GnuParams(1, 60, 1), InputEnsemble(0.7, 0.3, 0.0))
    assert abs(state.m00 + state.m11 - 1.0) <= 1e-12
    v = solve_for_magic(U2, math.pi / 4, 0.3)
    assert abs(m2_density(distilled_state(U2, InputEnsemble(v, math.pi / 4, 0.0))) - 0.3) <= 1e-6


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

    @pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan, 5e-324, 1e-310, 1e-300])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(OutOfRangeError):
            step_grid(0.5, step)
        with pytest.raises(OutOfRangeError):
            default_magic_grid(step)

    def test_grid_has_at_most_the_cap_of_intervals(self):
        cap = roots.MAX_GRID_INTERVALS
        assert step_grid(0.5, 0.5 / cap).size == cap + 1
        with pytest.raises(OutOfRangeError, match="^grid step .* is too small"):
            step_grid(0.5, 0.5 / (cap + 1))
