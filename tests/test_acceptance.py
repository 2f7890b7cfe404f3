"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 7's H-side band is jointly unattainable with criteria 6
and 8 (see test_criterion_07b); it is implemented exactly as stated and
marked as a strict expected failure, with the analysis asserted separately.
"""
import math
import time

import pytest

from gnumsd.closed_forms import SIGN_CONVENTIONS
from gnumsd.codes import GnuParams
from gnumsd.engine import InputEnsemble, distilled_state, max_error
from gnumsd.protocols import (
    ErrorCurve,
    bk_h_curve,
    bk_h_error_ps_consistent,
    bk_t_curve,
    canonical_params,
    combined_curve,
    find_crossover,
    find_threshold,
    gnu_error_curve,
    pairing,
    repetition_reference_params,
)
from gnumsd.qmath import PureQubit, h_state, m2_pure, t_state, trace_distance
from gnumsd.solver import TargetSpec, default_magic_grid, magic_curve, solve_input_params
from gnumsd.verify import (
    check_circuit_equivalence,
    check_closed_forms,
    check_oracle_equivalence,
)

U2 = GnuParams(1, 1, 2)
REPETITION = GnuParams(2, 1, 1)

# Exact reference angles: with g = n = 1 the noiseless output satisfies
# tan(w) = sqrt(u) tan(v) at coherence phase theta, so the X-conjugated
# targets invert to closed forms.  These anchor the regression lock.
T_BETA = 0.5 * math.acos(1 / math.sqrt(3))
EXPECTED_CANONICAL = {
    (2, "XT"): (math.atan(1 / (math.tan(T_BETA) * math.sqrt(2))), -math.pi / 4),
    (3, "XT"): (math.atan(1 / (math.tan(T_BETA) * math.sqrt(3))), -math.pi / 4),
    (4, "XT"): (math.atan(1 / (math.tan(T_BETA) * 2)), -math.pi / 4),
    (2, "XH"): (math.atan((1 + math.sqrt(2)) / math.sqrt(2)), 0.0),
    (3, "XH"): (math.atan((1 + math.sqrt(2)) / math.sqrt(3)), 0.0),
    (4, "XH"): (math.atan((1 + math.sqrt(2)) / 2), 0.0),
}


def test_criterion_01_oracle_equivalence():
    started = time.monotonic()
    report = check_oracle_equivalence()
    elapsed = time.monotonic() - started
    assert report.ok, report.summary()
    assert report.max_deviation < 1e-10
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1: PASS - oracle equivalence, max dev "
        f"{report.max_deviation:.2e} in {elapsed:.2f}s"
    )


def test_criterion_02_circuit_equivalence():
    report = check_circuit_equivalence()
    assert report.ok, report.summary()
    assert report.max_deviation < 1e-10
    assert any("7" in line for line in report.lines)
    print(
        f"ACCEPTANCE 2: PASS - circuit equivalence, max dev "
        f"{report.max_deviation:.2e}, 7 CNOTs after expansion"
    )


def test_criterion_03_closed_form_reconciliation():
    report = check_closed_forms()
    assert report.ok, report.summary()
    assert report.max_deviation < 1e-12
    documented = [line for line in report.lines if line.startswith("sign convention")]
    assert len(documented) == len(SIGN_CONVENTIONS) >= 3
    print(
        f"ACCEPTANCE 3: PASS - closed forms match general formula, max dev "
        f"{report.max_deviation:.2e}; {len(documented)} documented sign conventions"
    )


def test_criterion_04_magic_constants():
    t_magic = m2_pure(t_state())
    assert t_magic == pytest.approx(0.585, abs=1e-3)
    stabilisers = [
        PureQubit(1, 0),
        PureQubit(0, 1),
        PureQubit(1 / math.sqrt(2), 1 / math.sqrt(2)),
        PureQubit(1 / math.sqrt(2), -1 / math.sqrt(2)),
        PureQubit(1 / math.sqrt(2), 1j / math.sqrt(2)),
        PureQubit(1 / math.sqrt(2), -1j / math.sqrt(2)),
    ]
    for psi in stabilisers:
        assert abs(m2_pure(psi)) <= 1e-10
    print(f"ACCEPTANCE 4: PASS - M2(T) = {t_magic:.6f}, stabiliser states at 0")


def test_criterion_05_two_qubit_thresholds_certified():
    worst_margin = math.inf
    for kind in ("XT", "XH"):
        curve = gnu_error_curve(U2, kind)
        for k in range(1, 100):
            eps = 0.005 * k
            if eps > 0.4951:
                break
            margin = eps - curve(eps)
            worst_margin = min(worst_margin, margin)
            assert margin > 1e-6, f"{kind} at eps={eps}: margin {margin}"
        result = find_threshold(curve)
        assert result.threshold == 0.5 and result.certified_at_half
    print(
        f"ACCEPTANCE 5: PASS - E(eps) < eps with min margin {worst_margin:.2e}; "
        f"thresholds certified at 0.5"
    )


def test_criterion_06_crossovers_vs_reference():
    t_cross = find_crossover(gnu_error_curve(U2, "XT"), bk_t_curve())
    h_cross = find_crossover(gnu_error_curve(U2, "XH"), bk_h_curve())
    assert t_cross == pytest.approx(0.114, abs=2e-3)
    assert h_cross == pytest.approx(0.112, abs=2e-3)
    print(f"ACCEPTANCE 6: PASS - crossovers at {t_cross:.4f} (T), {h_cross:.4f} (H)")


def test_criterion_07_reference_t_threshold():
    result = find_threshold(bk_t_curve())
    assert result.threshold == pytest.approx(0.173, abs=1e-3)
    print(f"ACCEPTANCE 7 (T): PASS - reference T threshold {result.threshold:.5f}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "jointly unattainable with criteria 6 and 8: the H reference error "
        "map with denominator 1+12(1-2e)^8 has fixed point 0.13334 (not "
        "0.141+-0.001) but reproduces the 0.112 crossover and 0.198 combined "
        "threshold; matching the denominator to the success probability "
        "(1+15(1-2e)^8) gives fixed point 0.14148 but moves those to 0.1207 "
        "and 0.2066.  The canonical curve keeps the former; see "
        "test_criterion_07b_reference_h_threshold_analysis."
    ),
)
def test_criterion_07_reference_h_threshold_as_stated():
    result = find_threshold(bk_h_curve())
    assert result.threshold == pytest.approx(0.141, abs=1e-3)


def test_criterion_07b_reference_h_threshold_analysis():
    printed = find_threshold(bk_h_curve()).threshold
    matched = find_threshold(
        ErrorCurve("bk-H-ps-matched", bk_h_error_ps_consistent)
    ).threshold
    assert printed == pytest.approx(0.13334, abs=5e-4)
    assert matched == pytest.approx(0.141, abs=1e-3)
    print(
        f"ACCEPTANCE 7 (H): FAIL as stated (documented) - canonical H curve "
        f"fixed point {printed:.5f}; ps-matched variant {matched:.5f} is within "
        f"0.141+-0.001"
    )


def test_criterion_08_combined_thresholds():
    t_combined = find_threshold(combined_curve("T")).threshold
    h_combined = find_threshold(combined_curve("H")).threshold
    assert t_combined == pytest.approx(0.279, abs=3e-3)
    assert h_combined == pytest.approx(0.198, abs=3e-3)
    t_single = find_threshold(bk_t_curve()).threshold
    h_single = find_threshold(bk_h_curve()).threshold
    assert t_combined > t_single
    assert h_combined > h_single
    print(
        f"ACCEPTANCE 8: PASS - combined thresholds {t_combined:.4f} (T), "
        f"{h_combined:.4f} (H), both above standalone"
    )


def _twirled_stage_a(kind: str) -> ErrorCurve:
    """Stage A read as a twirled reference round reads its input.

    Twirling maps a state rho to the form (1 - e)|psi><psi| + e|psi_perp><psi_perp|
    with e = 1 - <psi|rho|psi>, so this curve is that infidelity to stage
    A's pure target, worst case over the settings {0, eps}, at the
    canonical (1,1,2) inputs.
    """
    aimed = pairing(kind)[0]
    v, theta = canonical_params(U2, aimed)
    target = TargetSpec(aimed).density()

    def infidelity(eps):
        rho = distilled_state(U2, InputEnsemble(v, theta, eps))
        overlap = (
            rho.m00 * target.m00
            + rho.m11 * target.m11
            + 2.0 * (rho.m01 * target.m01.conjugate()).real
        )
        return 1.0 - overlap

    return ErrorCurve(f"twirled-{aimed}", lambda eps: max(infidelity(0.0), infidelity(eps)))


def test_criterion_08b_twirled_composition_analysis():
    # Criteria 6 and 8 feed stage A's trace distance to the reference round
    # (the canonical scalar composition).  Read through the free twirl, the
    # round's input error is the infidelity instead, which is smaller at
    # every eps, so the combined thresholds rise and the crossovers fall.
    readings = {"T": (0.00381, 0.0513, 0.2945, 0.0862), "H": (0.00347, 0.0510, 0.2246, 0.0952)}
    for kind, (at_001, at_01, combined, crossover) in readings.items():
        stage_a, stage_b = _twirled_stage_a(kind), pairing(kind)[1]
        assert stage_a(0.01) == pytest.approx(at_001, abs=3e-3)
        assert stage_a(0.1) == pytest.approx(at_01, abs=3e-3)
        twirled = ErrorCurve(f"twirled-combined-{kind}", lambda eps: stage_b(stage_a(eps)))
        result = find_threshold(twirled)
        assert result.kind == "fixed_point"
        assert result.threshold == pytest.approx(combined, abs=3e-3)
        crossing = find_crossover(stage_a, stage_b)
        assert crossing == pytest.approx(crossover, abs=3e-3)
        print(
            f"ACCEPTANCE 8b ({kind}): PASS - twirled combined threshold "
            f"{result.threshold:.4f}, stage A vs reference crossover {crossing:.4f}"
        )


def test_criterion_09_repetition_code_negative_result():
    targets = {"T": t_state().density(), "H": h_state().density()}
    for kind, target in targets.items():
        v, theta = repetition_reference_params(kind)
        noiseless = distilled_state(REPETITION, InputEnsemble(v, theta, 0.0))
        assert trace_distance(noiseless, target) <= 1e-10
        for k in range(1, 501):
            eps = k * 1e-3
            assert max_error(REPETITION, v, theta, eps, target) >= eps - 1e-10
    print(
        "ACCEPTANCE 9: PASS - repetition code distils T/H exactly at eps=0 "
        "and never suppresses errors"
    )


def test_criterion_10_magic_curve_range():
    points = magic_curve(U2, math.pi / 4, default_magic_grid())
    values = [m for _, m in points]
    assert len(points) == 501  # no skipped points on this grid
    assert min(values) == 0.0
    assert max(values) >= 0.584
    max_jump = max(abs(b - a) for a, b in zip(values, values[1:]))
    assert max_jump < 0.02
    print(
        f"ACCEPTANCE 10: PASS - magic curve spans [0, {max(values):.4f}] with "
        f"max adjacent jump {max_jump:.4f}"
    )


def test_criterion_11_solver_soundness():
    for u in (2, 3, 4):
        code = GnuParams(1, 1, u)
        for kind, reference in (("XT", t_state()), ("XH", h_state())):
            target = TargetSpec(kind).density()
            solutions = solve_input_params(code, TargetSpec(kind), tol=1e-9)
            for sol in solutions:
                state = distilled_state(code, InputEnsemble(sol.v, sol.theta, 0.0))
                assert trace_distance(state, target) <= 1e-9
            head = solutions[0]
            assert head.input_magic < m2_pure(reference)
    print(
        "ACCEPTANCE 11: PASS - every solution round-trips to its target; "
        "canonical inputs carry strictly less magic than the target"
    )


def test_criterion_12_regression_locked_solver_outputs():
    # The table values are not reproducible from any printed source; they are
    # locked against the closed-form inversions derived independently above.
    for (u, kind), (v_expected, theta_expected) in EXPECTED_CANONICAL.items():
        head = solve_input_params(GnuParams(1, 1, u), TargetSpec(kind), tol=1e-9)[0]
        assert head.v == pytest.approx(v_expected, abs=1e-12), (u, kind)
        assert head.theta == pytest.approx(theta_expected, abs=1e-12), (u, kind)
    # repetition-code rows: the exact reference parameters appear among the
    # solutions
    for kind in ("T", "H"):
        v_expected, theta_expected = repetition_reference_params(kind)
        solutions = solve_input_params(REPETITION, TargetSpec(kind), tol=1e-9)
        assert any(
            abs(s.v - v_expected) < 1e-6 and abs(s.theta - theta_expected) < 1e-6
            for s in solutions
        ), kind
    print(
        "ACCEPTANCE 12: PASS - solver outputs regression-locked against "
        "closed-form inversions"
    )
