"""Threshold and crossover analysis, reference protocols, and composition.

The error threshold of a protocol is the smallest input error where the
output error stops being smaller than the input error: the first fixed point
of its error curve on (0, 0.5].  Threshold and crossover searches sample a
1e-3 grid and hand the samples to `roots.first_root` (first sample within a
tolerance of zero, else bisect the first sign change); the curves are cheap,
so robustness wins over cleverness.

An `ErrorCurve` needs only its scalar map `fn`.  The library's gnu,
repetition and combined curves also carry an array form, `grid`, so a search
grid or a figure's eps column is one engine call (`engine.max_errors`)
rather than one call per point; a curve without it, such as a reference
round, is evaluated point by point by `on_grid`.  Bisection always steps
through `fn`.

`PAIRINGS` is the one place where a plain target T or H meets its partners:
the X-conjugated kind (XT or XH) the two-qubit code is aimed at, and the
reference round of the same type it is compared with and composed with.
The composition, the figures and the CLI all read it through `pairing`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .codes import GnuParams
from .engine import max_error, max_errors
from .errors import NoCrossoverError, OutOfRangeError
from .roots import first_root, step_grid
from .solver import TargetSpec, solve_input_params

GRID_STEP = 1e-3
BRACKET_WIDTH = 1e-8
# |curve(eps) - eps| below this counts as an exact grid fixed point.
FIXED_POINT_ATOL = 1e-12


@dataclass(frozen=True)
class ErrorCurve:
    """An error map eps -> output error.

    fn maps one eps to the output error and is all a curve needs.  grid,
    when given, maps a 1-D array of eps to the array of fn's values in one
    call; searches and figure sweeps then evaluate whole grids through it.
    """

    label: str
    fn: Callable[[float], float]
    grid: Callable[[np.ndarray], np.ndarray] | None = field(default=None, kw_only=True)

    def __call__(self, eps: float) -> float:
        return self.fn(eps)

    def on_grid(self, eps: np.ndarray) -> np.ndarray:
        """The curve at every eps of a 1-D array: one grid call, else fn per point."""
        if self.grid is not None:
            return self.grid(eps)
        return np.array([self(e) for e in eps.tolist()], dtype=float)


# --- reference protocols (Bravyi-Kitaev five- and 15-qubit rounds) --------


def bk_t_error(eps: float) -> float:
    """Output error of one five-qubit T-type reference distillation round."""
    if not 0.0 <= eps < 1.0:
        raise OutOfRangeError(f"eps must lie in [0, 1), got {eps!r}")
    t = eps / (1.0 - eps)
    return (t**5 + 5.0 * t**2) / (1.0 + 5.0 * t**2 + 5.0 * t**3 + t**5)


def bk_t_ps(eps: float) -> float:
    """Acceptance probability of the five-qubit T-type reference round."""
    if not 0.0 <= eps < 1.0:
        raise OutOfRangeError(f"eps must lie in [0, 1), got {eps!r}")
    return (
        eps**5
        + 5.0 * eps**2 * (1.0 - eps) ** 3
        + 5.0 * eps**3 * (1.0 - eps) ** 2
        + (1.0 - eps) ** 5
    ) / 6.0


def _bk_h_numerator(eps: float) -> float:
    """1 - 15x^7 + 15x^8 - x^15 at x = 1 - 2 eps, the H rounds' shared numerator.

    Written as (2 eps)^3 sum_{m=1..7} x^(7-m) (1 + x + ... + x^(m-1))^2, whose
    sum is about 140 near eps = 0, so the value keeps its relative accuracy
    there; the expanded polynomial cancels to rounding noise of either sign.
    Both sums run by Horner's rule.
    """
    x = 1.0 - 2.0 * eps
    geometric = total = 0.0
    for _ in range(7):
        geometric = geometric * x + 1.0  # 1 + x + ... + x^(m-1)
        total = total * x + geometric * geometric
    return (2.0 * eps) ** 3 * total


def bk_h_error(eps: float) -> float:
    """Output error of one 15-qubit H-type reference distillation round.

    The denominator carries 1 + 12(1-2e)^8 while the acceptance probability
    bk_h_ps carries 1 + 15(1-2e)^8; a strict conditional-probability reading
    of a post-selected round would match the two (see
    bk_h_error_ps_consistent).  Both variants are kept: this one defines the
    reference comparison and composition curves, the matched one has the
    widely quoted fixed point near 0.1415.
    """
    if not 0.0 <= eps <= 1.0:
        raise OutOfRangeError(f"eps must lie in [0, 1], got {eps!r}")
    return _bk_h_numerator(eps) / (2.0 * (1.0 + 12.0 * (1.0 - 2.0 * eps) ** 8))


def bk_h_error_ps_consistent(eps: float) -> float:
    """bk_h_error with the denominator matched to bk_h_ps (12 -> 15)."""
    if not 0.0 <= eps <= 1.0:
        raise OutOfRangeError(f"eps must lie in [0, 1], got {eps!r}")
    return _bk_h_numerator(eps) / (2.0 * (1.0 + 15.0 * (1.0 - 2.0 * eps) ** 8))


def bk_h_ps(eps: float) -> float:
    """Acceptance probability of the 15-qubit H-type reference round."""
    if not 0.0 <= eps <= 1.0:
        raise OutOfRangeError(f"eps must lie in [0, 1], got {eps!r}")
    return (1.0 + 15.0 * (1.0 - 2.0 * eps) ** 8) / 16.0


def bk_t_curve() -> ErrorCurve:
    return ErrorCurve("bk-T", bk_t_error)


def bk_h_curve() -> ErrorCurve:
    return ErrorCurve("bk-H", bk_h_error)


PAIRINGS = {"T": ("XT", bk_t_curve()), "H": ("XH", bk_h_curve())}


def pairing(kind: str) -> tuple[str, ErrorCurve]:
    """(kind the two-qubit code is aimed at, reference round) of a plain target T or H."""
    if kind not in PAIRINGS:
        raise OutOfRangeError(f"reference rounds exist for targets T and H, got {kind!r}")
    return PAIRINGS[kind]


# --- this protocol's curves ------------------------------------------------


@lru_cache(maxsize=None)
def canonical_params(code: GnuParams, kind: str) -> tuple[float, float]:
    """Minimum-input-magic solved (v, theta) for a named target on a code."""
    head = solve_input_params(code, TargetSpec(kind), tol=1e-9)[0]
    return head.v, head.theta


def _engine_curve(label: str, code: GnuParams, v: float, theta: float, kind: str) -> ErrorCurve:
    """The worst-case error curve of a code at fixed (v, theta), through the engine."""
    target = TargetSpec(kind).density()
    return ErrorCurve(
        label,
        lambda eps: max_error(code, v, theta, eps, target),
        grid=lambda eps: max_errors(code, v, theta, eps, target),
    )


def gnu_error_curve(code: GnuParams, kind: str) -> ErrorCurve:
    """Worst-case output-error curve of a gnu code aimed at a named target."""
    v, theta = canonical_params(code, kind)
    return _engine_curve(f"gnu({code.g},{code.n},{code.u:g})-{kind}", code, v, theta, kind)


def repetition_reference_params(kind: str) -> tuple[float, float]:
    """Exact (v, theta) with which the two-qubit repetition code distils T or H.

    For T the coherence of the g=2 code rotates with 2*theta, so theta is
    -7pi/8; the +7pi/8 mirror distils the complex conjugate state instead.
    """
    if kind == "T":
        v = math.asin(math.sqrt((1.0 + math.sqrt(2.0) - math.sqrt(3.0)) / 2.0))
        return v, -7.0 * math.pi / 8.0
    if kind == "H":
        return math.atan(1.0 / math.sqrt(1.0 + math.sqrt(2.0))), 0.0
    raise OutOfRangeError(f"repetition reference targets are T or H, got {kind!r}")


def repetition_error_curve(kind: str) -> ErrorCurve:
    """Error curve of the two-qubit repetition code at its reference parameters."""
    v, theta = repetition_reference_params(kind)
    return _engine_curve(f"repetition-{kind}", GnuParams(2, 1, 1), v, theta, kind)


# --- composition: this protocol (A) feeding a reference round (B) ----------


@lru_cache(maxsize=None)
def stage_a_curve(kind: str) -> ErrorCurve:
    """Error curve of the first stage: the two-qubit code aimed at X-kind."""
    return gnu_error_curve(GnuParams(1, 1, 2), pairing(kind)[0])


def compose_errors(eps: float, kind: str) -> tuple[float, float]:
    """(stage A error, total error) of the two-stage protocol at one eps.

    Stage A (the two-qubit code) distils the X-conjugated target for stage B
    (a reference round); relabelling to the plain target is a free Clifford
    step that leaves the trace-distance error unchanged, so stage A's
    worst-case output error is fed directly as the input error of stage B.
    The two noise models differ (stage B assumes noise along its magic axis,
    stage A reports a trace distance); the scalar composition is used as-is.
    """
    stage_b = pairing(kind)[1]
    stage_a = stage_a_curve(kind)(eps)
    return stage_a, stage_b(stage_a)


def combined_curve(kind: str) -> ErrorCurve:
    """The two-stage curve; its grid form runs stage A in one grid call."""
    stage_b = pairing(kind)[1]  # reject an unknown kind here, not at the first evaluation
    return ErrorCurve(
        f"combined-{kind}",
        lambda eps: compose_errors(eps, kind)[1],
        grid=lambda eps: stage_b.on_grid(stage_a_curve(kind).on_grid(eps)),
    )


# --- threshold and crossover searches --------------------------------------


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search.

    kind is one of:
      "fixed_point"    - bracketed and bisected; threshold is the fixed point
      "certified_half" - curve(eps) < eps strictly on the grid interior,
                         threshold = 0.5.  The curve may touch the diagonal
                         exactly at the 0.5 endpoint: an ensemble with
                         eps = 1/2 is mixed along its axis, so every
                         pure-target curve ends at exactly (0.5, 0.5).
      "degenerate_grid"- every grid point is a fixed point; the smallest is
                         reported (identity-curve edge case)
      "no_suppression" - curve(eps) > eps on the whole grid; no threshold
    """

    threshold: float
    kind: str
    bracket_width: float
    evaluations: int

    @property
    def certified_at_half(self) -> bool:
        return self.kind == "certified_half"


def find_threshold(curve: ErrorCurve) -> ThresholdResult:
    """Smallest fixed point of an error curve on (0, 0.5]."""
    grid = step_grid(0.5, GRID_STEP)[1:]
    diffs = curve.on_grid(grid) - grid
    evaluations = len(grid)

    if np.all(np.abs(diffs) <= FIXED_POINT_ATOL):
        return ThresholdResult(float(grid[0]), "degenerate_grid", 0.0, evaluations)
    if np.all(diffs[:-1] < -FIXED_POINT_ATOL) and diffs[-1] <= FIXED_POINT_ATOL:
        # Strict suppression everywhere below the endpoint, which may touch.
        return ThresholdResult(0.5, "certified_half", 0.0, evaluations)
    found = first_root(grid, diffs, lambda e: curve(e) - e, FIXED_POINT_ATOL, BRACKET_WIDTH)
    if found is None:
        return ThresholdResult(0.0, "no_suppression", 0.0, evaluations)
    root, width, steps = found
    return ThresholdResult(root, "fixed_point", width, evaluations + steps)


def find_crossover(f: ErrorCurve, g: ErrorCurve) -> float:
    """Smallest eps in (0, 0.5) where two error curves cross."""
    grid = step_grid(0.5, GRID_STEP)[1:-1]
    diffs = f.on_grid(grid) - g.on_grid(grid)

    if np.all(np.abs(diffs) <= 1e-14):
        raise NoCrossoverError("curves coincide on the whole grid")
    found = first_root(grid, diffs, lambda e: f(e) - g(e), 1e-14, BRACKET_WIDTH)
    if found is None:
        raise NoCrossoverError(f"no sign change between {f.label} and {g.label}")
    return found[0]
