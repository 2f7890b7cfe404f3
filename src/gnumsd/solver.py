"""Parameter inversion: which inputs distil a wanted state.

Two related jobs live here.  `solve_input_params` finds every (v, theta) whose
noiseless distilled output hits a target state, by a coarse grid scan followed
by derivative-free coordinate descent.  `magic_curve` / `solve_for_magic` map
and invert the relationship between the input angle v and the magic of the
distilled state at fixed theta.

Both scans run on the engine's array path.  At eps = 0 only the unflipped
input string carries weight, and theta enters the output only through the
phases e^{i g j theta}, so each v-row of the 101 x 400 solver grid is one
`projection_weights` call over all 400 angles, and the magic curve is one
single-angle call per v; `final_states` applies the scalar path's checks to
whole rows.  Coordinate descent refines single points through
`distilled_state`.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import GnuParams
from .engine import (
    InputEnsemble,
    distilled_state,
    final_states,
    projection_weights,
    wrap_angle,
)
from .errors import NoSolutionError, OutOfRangeError, ZeroSuccessProbabilityError
from .qmath import (
    DensityMatrix1Q,
    PureQubit,
    h_state,
    m2_density,
    m2_pure,
    t_state,
    trace_distance,
    trace_distances,
)

logger = logging.getLogger(__name__)

TARGET_KINDS = ("T", "H", "XT", "XH", "custom")

GRID_STEP = math.pi / 200
MAGIC_GRID_STEP = math.pi / 1000
# Grid residuals above this mean the target is unreachable for the code.
UNREACHABLE_RESIDUAL = 0.1
_HALF_PI = math.pi / 2.0


def _x_conjugate(psi: PureQubit) -> PureQubit:
    return PureQubit(psi.c1, psi.c0)


@dataclass(frozen=True)
class TargetSpec:
    """A named distillation target; `custom` carries an explicit pure state."""

    kind: str
    custom: PureQubit | None = None

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise OutOfRangeError(f"unknown target kind {self.kind!r}")
        if (self.kind == "custom") != (self.custom is not None):
            raise OutOfRangeError("custom targets (and only those) carry a state")

    def state(self) -> PureQubit:
        if self.kind == "T":
            return t_state()
        if self.kind == "H":
            return h_state()
        if self.kind == "XT":
            return _x_conjugate(t_state())
        if self.kind == "XH":
            return _x_conjugate(h_state())
        assert self.custom is not None
        return self.custom

    def density(self) -> DensityMatrix1Q:
        return self.state().density()


@dataclass(frozen=True)
class SolvedInput:
    """One solution of the inversion problem, with its audit numbers."""

    v: float
    theta: float
    residual: float
    input_magic: float


def _make_residual(code: GnuParams, target: DensityMatrix1Q):
    def residual(v: float, theta: float) -> float:
        try:
            return trace_distance(
                distilled_state(code, InputEnsemble(v, theta, 0.0)), target
            )
        except ZeroSuccessProbabilityError:
            return math.inf

    return residual


def _residual_row(code: GnuParams, target: DensityMatrix1Q, v: float, thetas):
    """Noiseless residual at one v for every angle in thetas; inf where no weight."""
    accepted, m00, m11, m01 = final_states(*projection_weights(code, v, thetas, 0.0))
    row = np.full(thetas.shape, math.inf)
    row[accepted] = trace_distances(m00, m11, m01, target)
    return row


def _pattern_search(residual, v: float, theta: float, stop: float):
    """Coordinate descent with shrinking steps; returns (v, theta, residual)."""
    best = residual(v, theta)
    step = GRID_STEP
    while step > 1e-12 and best > stop:
        move = None
        for cand_v, cand_theta in (
            (v + step, theta),
            (v - step, theta),
            (v, theta + step),
            (v, theta - step),
        ):
            cand_v = min(max(cand_v, 0.0), _HALF_PI)
            cand_theta = wrap_angle(cand_theta)
            value = residual(cand_v, cand_theta)
            if value < (move[2] if move else best):
                move = (cand_v, cand_theta, value)
        if move:
            v, theta, best = move
        else:
            step *= 0.5
    return v, theta, best


def _angle_distance(a: float, b: float) -> float:
    return abs(wrap_angle(a - b))


@lru_cache(maxsize=None)
def solve_to_density(
    code: GnuParams, target: DensityMatrix1Q, tol: float = 1e-9
) -> tuple[SolvedInput, ...]:
    """All distinct (v, theta) whose noiseless output matches a target state.

    Scans a pi/200 grid over v in [0, pi/2] and theta in [-pi, pi), refines
    every grid-local minimum by coordinate descent, keeps refined points with
    trace-distance residual <= tol, deduplicates within 1e-6 and returns the
    solutions sorted by the magic of the required input state (ties broken by
    (v, theta)), so the head of the tuple is the canonical minimum-magic
    solution.

    Raises NoSolutionError when the best grid residual exceeds 0.1, which
    signals a target outside the code's reachable set rather than a grid that
    is merely too coarse.
    """
    if tol < 1e-10:
        raise OutOfRangeError(f"tol must be at least 1e-10, got {tol!r}")
    residual = _make_residual(code, target)

    n_v = int(round(_HALF_PI / GRID_STEP))
    n_theta = int(round(2.0 * math.pi / GRID_STEP))
    vs = [i * GRID_STEP for i in range(n_v + 1)]
    thetas = [-math.pi + j * GRID_STEP for j in range(n_theta)]
    theta_row = np.array(thetas)
    grid = np.empty((n_v + 1, n_theta))
    for i, v in enumerate(vs):
        # The last row overshoots pi/2 by rounding; InputEnsemble clamps it too.
        grid[i] = _residual_row(code, target, min(v, _HALF_PI), theta_row)

    grid_min = grid.min()
    if grid_min > UNREACHABLE_RESIDUAL:
        raise NoSolutionError(
            f"best grid residual {grid_min:.4f} exceeds {UNREACHABLE_RESIDUAL}"
        )

    # Grid-local minima: no larger than any theta (cyclic) or v neighbour.
    is_min = (
        (grid <= UNREACHABLE_RESIDUAL)
        & (grid <= np.roll(grid, 1, axis=1))
        & (grid <= np.roll(grid, -1, axis=1))
    )
    is_min[1:] &= grid[1:] <= grid[:-1]
    is_min[:-1] &= grid[:-1] <= grid[1:]
    candidates = [(vs[i], thetas[j]) for i, j in zip(*np.nonzero(is_min))]

    refined = []
    for v0, theta0 in candidates:
        v, theta, value = _pattern_search(residual, v0, theta0, stop=tol * 1e-3)
        if value <= tol:
            refined.append(
                SolvedInput(
                    v=v,
                    theta=theta,
                    residual=value,
                    input_magic=m2_pure(InputEnsemble(v, theta, 0.0).clean_state()),
                )
            )

    if not refined:
        raise NoSolutionError(f"no refined point reached the tolerance {tol!r}")

    deduped: list[SolvedInput] = []
    for sol in sorted(refined, key=lambda s: s.residual):
        if any(
            abs(sol.v - kept.v) <= 1e-6 and _angle_distance(sol.theta, kept.theta) <= 1e-6
            for kept in deduped
        ):
            continue
        deduped.append(sol)
    deduped.sort(key=lambda s: (s.input_magic, s.v, s.theta))
    return tuple(deduped)


def solve_input_params(
    code: GnuParams, target: TargetSpec, tol: float = 1e-9
) -> tuple[SolvedInput, ...]:
    """solve_to_density against a named target; see that function for the contract."""
    return solve_to_density(code, target.density(), tol)


def magic_curve(
    code: GnuParams, theta: float, v_grid: list[float]
) -> list[tuple[float, float]]:
    """Magic of the noiseless distilled state along a grid of input angles v.

    Grid points where the projection has no weight (the post-selection can
    never accept) are skipped and logged.
    """
    w00, w11 = np.empty(len(v_grid)), np.empty(len(v_grid))
    w01 = np.empty(len(v_grid), dtype=complex)
    for i, v in enumerate(v_grid):
        ens = InputEnsemble(v, theta, 0.0)
        point = projection_weights(code, ens.v, np.array([ens.theta]), 0.0)
        w00[i], w11[i], w01[i] = (w[0] for w in point)
    accepted, m00, m11, m01 = final_states(w00, w11, w01)
    states = zip(m00.tolist(), m11.tolist(), m01.tolist())
    points = []
    for v, kept in zip(v_grid, accepted):
        if kept:
            points.append((v, m2_density(DensityMatrix1Q(*next(states)))))
        else:
            logger.warning("magic_curve: skipped singular grid point v=%r", v)
    return points


def default_magic_grid(grid_step: float = MAGIC_GRID_STEP) -> list[float]:
    steps = int(round(_HALF_PI / grid_step))
    return [k * grid_step for k in range(steps + 1)]


def solve_for_magic(code: GnuParams, theta: float, magic: float) -> float:
    """Invert the magic curve: a v whose noiseless output magic equals `magic`.

    Samples the curve on the pi/1000 grid, finds the first cell that brackets
    the requested value (ties toward smaller v) and bisects inside it; the
    returned point matches to within 1e-6 in magic.
    """
    if magic < 0.0:
        raise OutOfRangeError(f"magic must be nonnegative, got {magic!r}")
    points = magic_curve(code, theta, default_magic_grid())
    if not points:
        raise ZeroSuccessProbabilityError("the whole magic curve is singular")
    peak = max(value for _, value in points)
    if magic > peak:
        raise OutOfRangeError(
            f"requested magic {magic!r} exceeds the sampled maximum {peak!r}"
        )

    def offset(v: float) -> float:
        return m2_density(distilled_state(code, InputEnsemble(v, theta, 0.0))) - magic

    for (v_lo, m_lo), (v_hi, m_hi) in zip(points, points[1:]):
        if abs(m_lo - magic) <= 1e-12:
            return v_lo
        if (m_lo - magic) * (m_hi - magic) < 0.0 or abs(m_hi - magic) <= 1e-12:
            lo, hi = v_lo, v_hi
            f_lo = m_lo - magic
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                f_mid = offset(mid)
                if f_mid == 0.0:
                    return mid
                if (f_mid < 0.0) == (f_lo < 0.0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    # The peak itself was the only match and sits on the final sample.
    last_v, last_m = points[-1]
    if abs(last_m - magic) <= 1e-12:
        return last_v
    raise OutOfRangeError(f"no grid cell brackets magic {magic!r}")
