import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gnumsd.codes import GnuParams
from gnumsd.engine import InputEnsemble, distilled_state
from gnumsd.errors import NoCrossoverError, OutOfRangeError
from gnumsd.protocols import (
    BRACKET_WIDTH,
    ErrorCurve,
    bk_h_curve,
    bk_h_error,
    bk_h_error_ps_consistent,
    bk_h_ps,
    bk_t_curve,
    bk_t_error,
    bk_t_ps,
    canonical_params,
    combined_curve,
    compose_errors,
    find_crossover,
    find_threshold,
    gnu_error_curve,
    pairing,
    repetition_error_curve,
    repetition_reference_params,
)
from gnumsd.qmath import h_state, t_state, trace_distance

U2 = GnuParams(1, 1, 2)


class TestReferenceFormulas:
    def test_t_at_zero(self):
        assert bk_t_error(0.0) == 0.0
        assert bk_t_ps(0.0) == pytest.approx(1 / 6, abs=1e-15)

    def test_t_fixed_point_region(self):
        assert bk_t_error(0.173) == pytest.approx(0.173, abs=1e-3)

    def test_t_small_noise_expansion(self):
        # leading order is 5 eps^2
        assert bk_t_error(0.01) == pytest.approx(5e-4, abs=5e-5)

    def test_t_domain(self):
        with pytest.raises(OutOfRangeError):
            bk_t_error(1.0)
        with pytest.raises(OutOfRangeError):
            bk_t_ps(1.0)

    def test_h_at_zero(self):
        assert bk_h_error(0.0) == 0.0
        assert bk_h_ps(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_h_at_half(self):
        assert bk_h_error(0.5) == pytest.approx(0.5, abs=1e-15)
        assert bk_h_ps(0.5) == pytest.approx(1 / 16, abs=1e-15)

    def test_h_variants_fixed_points(self):
        # the as-given error map and the ps-matched variant bracket the
        # quoted 0.141: only the matched denominator reproduces it
        printed = find_threshold(bk_h_curve())
        assert printed.threshold == pytest.approx(0.13334, abs=5e-4)
        matched = find_threshold(
            ErrorCurve("bk-H-ps-matched", bk_h_error_ps_consistent)
        )
        assert matched.threshold == pytest.approx(0.141, abs=1e-3)

    def test_curves_vanish_at_zero_and_stay_finite(self):
        for fn in (bk_t_error, bk_h_error, bk_h_error_ps_consistent):
            assert fn(0.0) == 0.0
            for k in range(1, 5001):
                value = fn(k * 1e-4)
                assert math.isfinite(value)
                assert 0.0 <= value <= 1.0


def exact_reference_maps(eps: Fraction):
    """The five reference maps in exact arithmetic, as their defining polynomials."""
    t, x = eps / (1 - eps), 1 - 2 * eps
    numerator = 1 - 15 * x**7 + 15 * x**8 - x**15
    return {
        bk_t_error: (t**5 + 5 * t**2) / (1 + 5 * t**2 + 5 * t**3 + t**5),
        bk_t_ps: (
            eps**5 + 5 * eps**2 * (1 - eps) ** 3 + 5 * eps**3 * (1 - eps) ** 2 + (1 - eps) ** 5
        )
        / 6,
        bk_h_error: numerator / (2 * (1 + 12 * x**8)),
        bk_h_error_ps_consistent: numerator / (2 * (1 + 15 * x**8)),
        bk_h_ps: (1 + 15 * x**8) / 16,
    }


class TestReferenceMapsExactly:
    def test_maps_match_exact_arithmetic(self):
        # Near eps = 0 the H numerator is ~1120 eps^3, far below its O(1)
        # terms: the maps must keep their relative accuracy there too.
        rng = random.Random(2718)
        grid = (
            [0.0, 5.55e-17, 3.6e-13, 1e-10, 1e-6, 0.5]
            + [10.0 ** rng.uniform(-90, 0) for _ in range(100)]
            + [rng.uniform(0.0, 1.0) for _ in range(100)]
            + [1.0 - 10.0 ** rng.uniform(-15, -1) for _ in range(50)]
        )
        for eps in grid:
            for fn, exact in exact_reference_maps(Fraction(eps)).items():
                got = Fraction(fn(eps))
                assert abs(got - exact) <= Fraction(1, 10**14) * abs(exact), (fn.__name__, eps)


def _exact_bracket(fn, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """A bracket of a root of fn, which changes sign on [lo, hi], bisected exactly below 2^-80."""
    f_lo = fn(lo)
    assert f_lo * fn(hi) < 0
    while hi - lo > Fraction(1, 2**80):
        mid = (lo + hi) / 2
        f_mid = fn(mid)
        if f_mid == 0:
            return mid, mid
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo, hi


def _holds(root: float, width: float, exact: tuple[Fraction, Fraction]) -> bool:
    """Whether the reported bracket, root +- width / 2, holds the exact bracket.

    The reported root is the midpoint 0.5 * (lo + hi) of the final float
    bracket, which the sum may round by half an ulp of the root.
    """
    half = Fraction(width) / 2 + Fraction(math.ulp(root)) / 2
    return Fraction(root) - half <= exact[0] and exact[1] <= Fraction(root) + half


def _rational_roots(rng: random.Random, count: int) -> list[Fraction]:
    """count roots p/q in (0.002, 0.498), at least 0.01 apart, in ascending order.

    Each q is coprime to 10, so no root lies on the 1e-3 search grid, where
    a grid point within FIXED_POINT_ATOL is reported as the root itself.
    """
    while True:
        roots = []
        for _ in range(count):
            q = rng.choice([q for q in range(3, 200) if math.gcd(q, 10) == 1])
            roots.append(Fraction(rng.randrange(1, q), q))
        roots.sort()
        inside = all(Fraction(2, 1000) < r < Fraction(498, 1000) for r in roots)
        if inside and all(b - a >= Fraction(1, 100) for a, b in zip(roots, roots[1:])):
            return roots


def _polynomial(roots: list[Fraction], sign: int):
    """e -> sign * e * prod(q * e - p), with integer coefficients and the rational roots p/q."""

    def fn(e):
        value = sign * e
        for root in roots:
            value *= root.denominator * e - root.numerator
        return value

    return fn


class TestSearchRoundTrips:
    """Searches whose exact roots are known: the reported bracket must hold them."""

    def test_bk_t_threshold_brackets_the_exact_fixed_point(self):
        result = find_threshold(bk_t_curve())
        assert result.kind == "fixed_point"
        exact = _exact_bracket(
            lambda e: exact_reference_maps(e)[bk_t_error] - e, Fraction(17, 100), Fraction(18, 100)
        )
        assert _holds(result.threshold, result.bracket_width, exact)

    @pytest.mark.parametrize("seed", range(8))
    def test_polynomial_threshold_brackets_its_first_root(self, seed):
        rng = random.Random(7100 + seed)
        roots = _rational_roots(rng, 1 + seed % 3)
        diff = _polynomial(roots, rng.choice([-1, 1]))
        result = find_threshold(ErrorCurve(f"poly-{seed}", lambda e: e + diff(e)))
        assert result.kind == "fixed_point"
        assert 0.0 < result.bracket_width <= 1e-8
        assert _holds(result.threshold, result.bracket_width, (roots[0], roots[0]))

    @pytest.mark.parametrize("seed", range(8))
    def test_polynomial_crossover_brackets_its_first_root(self, seed):
        # find_crossover reports the midpoint of a final bracket at most
        # BRACKET_WIDTH wide.
        rng = random.Random(7200 + seed)
        roots = _rational_roots(rng, 1 + seed % 3)
        diff = _polynomial(roots, rng.choice([-1, 1]))
        base = ErrorCurve("base", lambda e: e * e * (3.0 - 2.0 * e))
        shifted = ErrorCurve(f"poly-{seed}", lambda e: base(e) - diff(e))
        crossing = find_crossover(base, shifted)
        assert _holds(crossing, BRACKET_WIDTH, (roots[0], roots[0]))


class TestFindThreshold:
    def test_bk_t_fixed_point(self):
        result = find_threshold(bk_t_curve())
        assert result.kind == "fixed_point"
        assert result.threshold == pytest.approx(0.173, abs=1e-3)
        assert abs(bk_t_error(result.threshold) - result.threshold) < 1e-8
        assert result.bracket_width <= 1e-8

    def test_bk_h_fixed_point_is_refined(self):
        result = find_threshold(bk_h_curve())
        assert abs(bk_h_error(result.threshold) - result.threshold) < 1e-8

    def test_identity_curve_is_degenerate(self):
        result = find_threshold(ErrorCurve("identity", lambda e: e))
        assert result.kind == "degenerate_grid"
        assert result.threshold == pytest.approx(1e-3)

    def test_two_qubit_curve_certified_at_half(self):
        result = find_threshold(gnu_error_curve(U2, "XT"))
        assert result.kind == "certified_half"
        assert result.certified_at_half
        assert result.threshold == 0.5

    def test_no_suppression_curve(self):
        result = find_threshold(ErrorCurve("amp", lambda e: min(1.0, 2 * e + 1e-3)))
        assert result.kind == "no_suppression"

    @pytest.mark.parametrize(
        "shape, kind",
        [(None, "T"), (None, "H"), ((2, 1, 1), "XT"), ((1, 2, 6), "XT")],
        ids=["repetition-T", "repetition-H", "gnu(2,1,1)-XT", "gnu(1,2,6)-XT"],
    )
    def test_code_that_never_suppresses_has_no_threshold(self, shape, kind):
        # Above the diagonal on the whole interior, touching it only at the
        # 0.5 endpoint where every pure-target curve ends.
        if shape is None:
            curve = repetition_error_curve(kind)
        else:
            curve = gnu_error_curve(GnuParams(*shape), kind)
        result = find_threshold(curve)
        assert (result.threshold, result.kind, result.evaluations) == (0.0, "no_suppression", 500)
        assert not result.certified_at_half

    def test_touch_at_the_endpoint_from_above_is_no_suppression(self):
        result = find_threshold(ErrorCurve("above", lambda e: e + e * (0.5 - e)))
        assert (result.threshold, result.kind) == (0.0, "no_suppression")

    def test_crossing_in_the_last_cell_is_bisected(self):
        result = find_threshold(ErrorCurve("late", lambda e: e + 0.1 * (e - 0.4995)))
        assert result.kind == "fixed_point"
        assert 0.499 <= result.threshold <= 0.5
        assert result.threshold == pytest.approx(0.4995, abs=1e-8)
        assert result.evaluations > 500


class TestFindCrossover:
    def test_t_crossover(self):
        value = find_crossover(gnu_error_curve(U2, "XT"), bk_t_curve())
        assert value == pytest.approx(0.114, abs=2e-3)

    def test_h_crossover(self):
        value = find_crossover(gnu_error_curve(U2, "XH"), bk_h_curve())
        assert value == pytest.approx(0.112, abs=2e-3)

    def test_identical_curves_raise(self):
        with pytest.raises(NoCrossoverError):
            find_crossover(bk_t_curve(), bk_t_curve())

    def test_disjoint_curves_raise(self):
        low = ErrorCurve("low", lambda e: 0.25 * e)
        high = ErrorCurve("high", lambda e: 0.5 * e + 1e-4)
        with pytest.raises(NoCrossoverError):
            find_crossover(low, high)


class TestComposition:
    def test_vanishes_at_zero_noise(self):
        for kind in ("T", "H"):
            assert compose_errors(1e-6, kind)[1] < 1e-6

    def test_combined_t_threshold(self):
        result = find_threshold(combined_curve("T"))
        assert result.threshold == pytest.approx(0.279, abs=3e-3)

    def test_combined_h_threshold(self):
        result = find_threshold(combined_curve("H"))
        assert result.threshold == pytest.approx(0.198, abs=3e-3)

    def test_composition_beats_standalone(self):
        for kind, standalone in (("T", bk_t_curve()), ("H", bk_h_curve())):
            combined = find_threshold(combined_curve(kind)).threshold
            single = find_threshold(standalone).threshold
            assert combined > single

    def test_rejects_unknown_kind(self):
        with pytest.raises(OutOfRangeError):
            compose_errors(0.1, "XT")[1]


class TestRepetitionCode:
    def test_reference_parameters_distil_exactly(self):
        code = GnuParams(2, 1, 1)
        targets = {"T": t_state().density(), "H": h_state().density()}
        for kind, target in targets.items():
            v, theta = repetition_reference_params(kind)
            state = distilled_state(code, InputEnsemble(v, theta, 0.0))
            assert trace_distance(state, target) <= 1e-10

    def test_no_error_suppression_on_grid(self):
        for kind in ("T", "H"):
            curve = repetition_error_curve(kind)
            for k in range(1, 501):
                eps = k * 1e-3
                assert curve(eps) >= eps - 1e-10

    def test_unknown_kind(self):
        with pytest.raises(OutOfRangeError):
            repetition_reference_params("XT")


class TestPairings:
    def test_plain_targets(self):
        for kind, stage_a_kind, label in (("T", "XT", "bk-T"), ("H", "XH", "bk-H")):
            paired_kind, reference = pairing(kind)
            assert paired_kind == stage_a_kind
            assert reference.label == label

    @pytest.mark.parametrize("kind", ["XT", "XH", "custom", "t"])
    def test_lookup_rejects_other_kinds(self, kind):
        message = f"reference rounds exist for targets T and H, got {kind!r}"
        for call in (pairing, combined_curve, lambda k: compose_errors(0.1, k)):
            with pytest.raises(OutOfRangeError) as excinfo:
                call(kind)
            assert str(excinfo.value) == message


class TestCanonicalParams:
    def test_known_two_qubit_solutions(self):
        v, theta = canonical_params(U2, "XT")
        assert v == pytest.approx(math.atan((1 + math.sqrt(3)) / 2), abs=1e-8)
        assert theta == pytest.approx(-math.pi / 4, abs=1e-8)
        v, theta = canonical_params(U2, "XH")
        assert v == pytest.approx(math.atan((1 + math.sqrt(2)) / math.sqrt(2)), abs=1e-8)
        assert theta == pytest.approx(0.0, abs=1e-8)

    def test_curve_labels(self):
        assert gnu_error_curve(U2, "XT").label == "gnu(1,1,2)-XT"
        assert combined_curve("H").label == "combined-H"


# Every library curve with grid, and the target of the reference round it
# is compared with.
LIBRARY_CURVES = [
    *(
        (gnu_error_curve(GnuParams(1, 1, u), kind), kind[1])
        for u in (2, 3, 4)
        for kind in ("XT", "XH")
    ),
    *((repetition_error_curve(kind), kind) for kind in ("T", "H")),
    *((combined_curve(kind), kind) for kind in ("T", "H")),
]
REFERENCE_ROUND = {"T": bk_t_curve(), "H": bk_h_curve()}


def _point_by_point(curve: ErrorCurve) -> ErrorCurve:
    return ErrorCurve(curve.label, curve.fn)


def _crossover_outcome(f: ErrorCurve, g: ErrorCurve):
    try:
        return find_crossover(f, g)
    except NoCrossoverError:
        return NoCrossoverError


@pytest.mark.parametrize(
    "curve, kind", LIBRARY_CURVES, ids=[curve.label for curve, _ in LIBRARY_CURVES]
)
class TestBatchedLibraryCurves:
    def test_grid_matches_pointwise(self, curve, kind):
        eps = np.arange(501) * 1e-3
        assert curve.grid is not None
        batch = curve.grid(eps)
        for got, e in zip(batch, eps.tolist()):
            assert abs(got - curve(e)) <= 1e-14

    def test_threshold_matches_point_by_point_search(self, curve, kind):
        batched = find_threshold(curve)
        scalar = find_threshold(_point_by_point(curve))
        assert batched.kind == scalar.kind
        assert batched.evaluations == scalar.evaluations
        assert batched.bracket_width == scalar.bracket_width
        assert abs(batched.threshold - scalar.threshold) <= 1e-12

    def test_crossover_matches_point_by_point_search(self, curve, kind):
        reference = REFERENCE_ROUND[kind]
        batched = _crossover_outcome(curve, reference)
        scalar = _crossover_outcome(_point_by_point(curve), reference)
        if scalar is NoCrossoverError:
            assert batched is NoCrossoverError
        else:
            assert abs(batched - scalar) <= 1e-12
