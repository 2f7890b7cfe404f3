"""Self-verification suites: analytic engine against its independent oracles.

Three checks, mirroring the package's trust chain: the O(N^3) weight sums
against dense-matrix projection, the gate-level two-qubit circuit against the
analytic pipeline, and the closed forms against the general formula.  Each
suite is a deviation function over its (code, ensemble) grid points, scored
by one loop, `_score`; each returns a CheckReport with the worst observed
deviation so the CLI `verify` command can print one line per suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from .closed_forms import CLOSED_FORMS, SIGN_CONVENTIONS
from .codes import GnuParams
from .engine import (
    InputEnsemble,
    codespace_projection,
    final_state,
    success_probability,
)
from .errors import ZeroSuccessProbabilityError
from .oracle import (
    build_rho_n,
    count_cnots,
    distillation_circuit_u2,
    project_and_decode,
    simulate_circuit_u2,
)

ORACLE_TOLERANCE = 1e-10
CIRCUIT_TOLERANCE = 1e-10
CLOSED_FORM_TOLERANCE = 1e-12

ORACLE_CODES = (GnuParams(1, 1, 2), GnuParams(1, 1, 3), GnuParams(1, 1, 4), GnuParams(2, 1, 1))
V_GRID = tuple(k * math.pi / 8.0 for k in range(5))  # every suite's v grid
ORACLE_THETA_GRID = (0.0, math.pi / 4.0, 7.0 * math.pi / 8.0)
ORACLE_EPS_GRID = (0.0, 0.1, 0.3)
CIRCUIT_THETA_GRID = tuple(-math.pi + k * math.pi / 2.0 for k in range(5))
CIRCUIT_EPS_GRID = tuple(0.125 * k for k in range(5))


@dataclass
class CheckReport:
    name: str
    ok: bool
    max_deviation: float
    lines: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.name}: {status} (max deviation {self.max_deviation:.3e})"


def _score(deviation, points) -> tuple[float, int]:
    """(worst deviation, points scored) over (code, ens) points.

    deviation(code, ens, analytic) compares the analytic projection at a
    point with an independent path; analytic is None where the analytic path
    refuses the point (zero success probability).  A point whose deviation
    is None is skipped.
    """
    worst, scored = 0.0, 0
    for code, ens in points:
        try:
            analytic = codespace_projection(code, ens)
        except ZeroSuccessProbabilityError:
            analytic = None
        deviation_at = deviation(code, ens, analytic)
        if deviation_at is not None:
            worst = max(worst, deviation_at)
            scored += 1
    return worst, scored


def _grid(codes, theta_grid=ORACLE_THETA_GRID, eps_grid=ORACLE_EPS_GRID):
    """(code, ensemble) at every point of V_GRID x a theta, eps grid, code by code."""
    for code, v, theta, eps in product(codes, V_GRID, theta_grid, eps_grid):
        yield code, InputEnsemble(v, theta, eps)


def _projection_deviation(p, q) -> float:
    return max(abs(p.w00 - q.w00), abs(p.w11 - q.w11), abs(p.w01 - q.w01))


def _oracle_deviation(code: GnuParams, ens: InputEnsemble, analytic) -> float:
    dense = project_and_decode(build_rho_n(ens, code.num_qubits), code)
    if analytic is None:
        # The analytic path refuses to normalise; the oracle must agree
        # that the point carries no weight.
        return dense.w00 + dense.w11
    return _projection_deviation(analytic, dense)


def _circuit_deviation(code: GnuParams, ens: InputEnsemble, analytic) -> float | None:
    if analytic is None:
        return None
    state = final_state(analytic)
    circuit_state, acceptance = simulate_circuit_u2(ens)
    return max(
        abs(state.m00 - circuit_state.m00),
        abs(state.m11 - circuit_state.m11),
        abs(state.m01 - circuit_state.m01),
        abs(success_probability(analytic) - acceptance),
    )


def _closed_form_deviation(code: GnuParams, ens: InputEnsemble, analytic) -> float | None:
    if analytic is None:
        return None
    return _projection_deviation(CLOSED_FORMS[code.u](ens), analytic)


def check_oracle_equivalence() -> CheckReport:
    """Analytic weight sums vs dense projection for four codes on the standard grid."""
    worst, points = _score(_oracle_deviation, _grid(ORACLE_CODES))
    ok = worst < ORACLE_TOLERANCE
    lines = [f"{points} grid points over {len(ORACLE_CODES)} codes"]
    return CheckReport("oracle-equivalence", ok, worst, lines)


def check_circuit_equivalence() -> CheckReport:
    """Gate-level two-qubit run vs the analytic pipeline on a 5x5x5 grid."""
    grid = _grid([GnuParams(1, 1, 2)], CIRCUIT_THETA_GRID, CIRCUIT_EPS_GRID)
    worst, points = _score(_circuit_deviation, grid)
    cnots = count_cnots(distillation_circuit_u2())
    ok = worst < CIRCUIT_TOLERANCE and cnots == 7
    lines = [f"{points} grid points", f"expanded CNOT count: {cnots} (expected 7)"]
    return CheckReport("circuit-equivalence", ok, worst, lines)


def check_closed_forms() -> CheckReport:
    """Closed forms for u = 2, 3, 4 vs the general formula on the standard grid."""
    codes = [GnuParams(1, 1, u) for u in CLOSED_FORMS]
    worst, points = _score(_closed_form_deviation, _grid(codes))
    ok = worst < CLOSED_FORM_TOLERANCE
    lines = [f"{points} grid points"]
    lines.extend(f"sign convention: {note}" for note in SIGN_CONVENTIONS)
    return CheckReport("closed-form-reconciliation", ok, worst, lines)


def run_verification() -> tuple[bool, str]:
    """Run all suites; returns (all passed, printable report)."""
    reports = [check_oracle_equivalence(), check_circuit_equivalence(), check_closed_forms()]
    chunks = []
    for report in reports:
        chunks.append(report.summary())
        chunks.extend(f"  {line}" for line in report.lines)
    ok = all(report.ok for report in reports)
    chunks.append("verification: " + ("all suites passed" if ok else "FAILURES detected"))
    return ok, "\n".join(chunks)
