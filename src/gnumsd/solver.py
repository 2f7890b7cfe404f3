"""Parameter inversion: which inputs distil a wanted state.

Two related jobs live here.  `solve_input_params` finds every (v, theta) whose
noiseless distilled output hits a target state, by a coarse grid scan followed
by derivative-free coordinate descent.  `magic_curve` / `solve_for_magic` map
and invert the relationship between the input angle v and the magic of the
distilled state at fixed theta.

Both scans run on the engine's array path.  At eps = 0 only the unflipped
input string carries weight, and theta enters the output only through the
phases e^{i g j theta}, so `projection_weights` evaluates a whole v x theta
grid per call: the 101 x 400 solver grid is filled in blocks of
`GRID_BLOCK_ROWS` v-rows, each coordinate descent starts from its grid
point's residual and scores its four axis neighbours per round with one
call, and the magic curve is one single-angle call over all of its v;
`final_states` checks every state, and `_residual_row` scores the grid and
the neighbours alike.
`solve_for_magic` searches the sampled magic curve with `roots.first_root`,
the root search of the threshold and crossover searches.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

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
    m2_densities,
    m2_density,
    m2_pure,
    t_state,
    trace_distances,
)
from .roots import first_root, step_grid

logger = logging.getLogger(__name__)

TARGET_KINDS = ("T", "H", "XT", "XH", "custom")

GRID_STEP = math.pi / 200
# v-rows of the solver grid per engine call.  The whole 101-row grid in one
# call costs about 5 MB more peak memory than blocks of this size.
GRID_BLOCK_ROWS = 16
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


def _residual_row(code: GnuParams, target: DensityMatrix1Q, v, thetas):
    """Noiseless residuals at each v for every angle in thetas; inf where no weight.

    v is a float (one row) or a vector (one row per v).
    """
    accepted, m00, m11, m01 = final_states(*projection_weights(code, v, thetas, 0.0))
    row = np.full(np.shape(v) + thetas.shape, math.inf)
    row[accepted] = trace_distances(m00, m11, m01, target)
    return row


def _neighbour_residuals(
    code: GnuParams, target: DensityMatrix1Q, v: float, theta: float, step: float
):
    """The four axis neighbours of (v, theta) at this step, as (v, theta, residual).

    Each neighbour is clamped into [0, pi/2] x [-pi, pi) and scored at its
    InputEnsemble's angles.  The two v-neighbours share a theta and the two
    theta-neighbours a v, so one _residual_row call over the 3 x 3 grid of
    those angles holds all four.
    """
    neighbours = [
        (min(max(cand_v, 0.0), _HALF_PI), wrap_angle(cand_theta))
        for cand_v, cand_theta in (
            (v + step, theta),
            (v - step, theta),
            (v, theta + step),
            (v, theta - step),
        )
    ]
    up, down, right, left = (InputEnsemble(*cand, 0.0) for cand in neighbours)
    vs = np.array([up.v, down.v, right.v])
    thetas = np.array([up.theta, right.theta, left.theta])
    residuals = _residual_row(code, target, vs, thetas)[[0, 1, 2, 2], [0, 0, 1, 2]].tolist()
    return [(*cand, residual) for cand, residual in zip(neighbours, residuals)]


def _pattern_search(
    code: GnuParams, target: DensityMatrix1Q, v: float, theta: float, best: float, stop: float
):
    """Coordinate descent with shrinking steps from (v, theta), whose residual is best.

    Returns (v, theta, residual).
    """
    step = GRID_STEP
    while step > 1e-12 and best > stop:
        move = None
        for cand in _neighbour_residuals(code, target, v, theta, step):
            if cand[2] < (move[2] if move else best):
                move = cand
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
    if not (math.isfinite(tol) and tol >= 1e-10):
        raise OutOfRangeError(f"tol must be a finite number of at least 1e-10, got {tol!r}")

    vs = step_grid(_HALF_PI, GRID_STEP)
    thetas = -math.pi + step_grid(2.0 * math.pi, GRID_STEP)[:-1]
    # The last row overshoots pi/2 by rounding; InputEnsemble clamps it too.
    grid_vs = np.minimum(vs, _HALF_PI)
    grid = np.empty((vs.size, thetas.size))
    for i in range(0, vs.size, GRID_BLOCK_ROWS):
        block = slice(i, i + GRID_BLOCK_ROWS)
        grid[block] = _residual_row(code, target, grid_vs[block], thetas)

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

    refined = []
    # grid[i, j] is the residual at (vs[i], thetas[j]): the grid's angles are
    # wrapped already, and each v clamps to its grid row.
    for i, j in zip(*np.nonzero(is_min)):
        v0, theta0, value0 = float(vs[i]), float(thetas[j]), float(grid[i, j])
        v, theta, value = _pattern_search(code, target, v0, theta0, value0, stop=tol * 1e-3)
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
    ensembles = [InputEnsemble(v, theta, 0.0) for v in v_grid]
    if not ensembles:
        return []
    vs = np.array([ens.v for ens in ensembles])
    weights = projection_weights(code, vs, np.array([ensembles[0].theta]), 0.0)
    accepted, m00, m11, m01 = final_states(*[w[:, 0] for w in weights])
    for v in compress(v_grid, ~accepted):
        logger.warning("magic_curve: skipped singular grid point v=%r", v)
    return list(zip(compress(v_grid, accepted), m2_densities(m00, m11, m01).tolist()))


def default_magic_grid(grid_step: float = MAGIC_GRID_STEP) -> list[float]:
    """The v sweep k * grid_step of [0, pi/2]; see roots.step_grid."""
    return step_grid(_HALF_PI, grid_step).tolist()


def solve_for_magic(code: GnuParams, theta: float, magic: float) -> float:
    """Invert the magic curve: a v whose noiseless output magic equals `magic`.

    Samples the curve on the pi/1000 grid and returns the first sample within
    1e-12 of `magic`, or else bisects the first cell that brackets it (ties
    toward smaller v); a bisected point matches to within 1e-6 in magic.
    """
    if magic < 0.0:
        raise OutOfRangeError(f"magic must be nonnegative, got {magic!r}")
    points = magic_curve(code, theta, default_magic_grid())
    if not points:
        raise ZeroSuccessProbabilityError("the whole magic curve is singular")
    vs, values = zip(*points)
    peak = max(values)
    if magic > peak:
        raise OutOfRangeError(
            f"requested magic {magic!r} exceeds the sampled maximum {peak!r}"
        )

    def offset(v: float) -> float:
        return m2_density(distilled_state(code, InputEnsemble(v, theta, 0.0))) - magic

    found = first_root(vs, np.array(values) - magic, offset, 1e-12, 1e-10)
    if found is None:
        raise OutOfRangeError(f"no grid cell brackets magic {magic!r}")
    return found[0]
