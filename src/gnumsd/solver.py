"""Parameter inversion: which inputs distil a wanted state.

Two related jobs live here.  `solve_input_params` finds every (v, theta) whose
noiseless distilled output hits a target state, by a coarse grid scan followed
by Gauss-Newton refinement of each grid minimum not already on the target, at
most NEWTON_CALLS engine calls per minimum.  `magic_curve` / `solve_for_magic`
map and invert the relationship between the input angle v and the magic of the
distilled state at fixed theta.

Both scans read the engine's noiseless states.  At eps = 0 only the
unflipped input string carries weight, and theta enters the output only
through the phases e^{i g j theta}, so `noiseless_states` evaluates and
checks a whole v x theta grid per call, with no noise weight: the 101 x 400
solver grid in blocks of `GRID_BLOCK_ROWS` v-rows, each Gauss-Newton
iteration as one 3 x 3 block, and the magic curve as one single-angle call.
`solve_for_magic` searches the sampled magic curve with `roots.first_root`,
the root search of the threshold and crossover searches.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from itertools import compress

import numpy as np

from .codes import GnuParams
from .engine import (
    InputEnsemble,
    distilled_state,
    noiseless_states,
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
    pauli_expectations,
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
# Gauss-Newton: the Jacobian's difference step, and the most _newton_step calls
# one start may make, its first call included.
NEWTON_DIFFERENCE_STEP = 1e-6
NEWTON_CALLS = 64
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
    accepted, m00, m11, m01 = noiseless_states(code, v, thetas)
    row = np.full(np.shape(v) + thetas.shape, math.inf)
    row[accepted] = trace_distances(m00, m11, m01, target)
    return row


def _dot(p, q) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _newton_step(code: GnuParams, target: DensityMatrix1Q, v: float, theta: float):
    """(residual, dv, dtheta) at (v, theta) from one engine call; None if its block has no weight.

    The Gauss-Newton step on r = Bloch(output) - Bloch(target), whose length
    is twice the residual, from a difference Jacobian whose four probes share
    the point's 3 x 3 block (one-sided at the v edges); it is in v alone
    where the theta column vanishes, at the poles.  The residual has
    _residual_row's bits.
    """
    h = NEWTON_DIFFERENCE_STEP
    lo, hi = (v - h if v >= h else v), (v + h if v + h < _HALF_PI else v)
    # Each probe at its InputEnsemble's angles, as a scalar call takes them.
    thetas = np.array([wrap_angle(theta - h), theta, wrap_angle(theta + h)])
    accepted, m00, m11, m01 = noiseless_states(code, np.array([lo, v, hi]), thetas)
    if not accepted.all():
        return None
    # r[k] = Bloch(output) - Bloch(target) at the block's v k // 3 and theta k % 3.
    dz = (m00 - m11 - (target.m00 - target.m11)).tolist()
    r = [(2.0 * w.real, -2.0 * w.imag, z) for w, z in zip((m01 - target.m01).tolist(), dz)]
    jv = [(p - q) / (hi - lo) for p, q in zip(r[7], r[1])]
    jt = [(p - q) / (2.0 * h) for p, q in zip(r[5], r[3])]
    a, b, c = _dot(jv, jv), _dot(jv, jt), _dot(jt, jt)
    gv, gt = _dot(jv, r[4]), _dot(jt, r[4])
    det = a * c - b * b
    residual = trace_distances(m00, m11, m01, target).item(4)
    if det > 1e-12 * a * c:
        return residual, (b * gt - c * gv) / det, (b * gv - a * gt) / det
    return residual, (-gv / a if a > 0.0 else 0.0), 0.0


def _gauss_newton(code: GnuParams, target: DensityMatrix1Q, v: float, theta: float, best: float):
    """Gauss-Newton from (v, theta), whose residual is best: (v, theta, residual).

    A trial point, clamped and wrapped as InputEnsemble does, is taken if it
    lowers the residual; else its step halves.  The start ends when its step
    falls below rounding (a converged start, after 4-5 calls), when its first
    block has no weight, or after NEWTON_CALLS _newton_step calls: there a
    start that creeps toward a target reached only in the limit at a
    zero-weight v edge returns its last point.
    """
    step, scale, calls = _newton_step(code, target, v, theta), 1.0, 1
    while step is not None and calls < NEWTON_CALLS:
        trial_v = min(max(v + scale * step[1], 0.0), _HALF_PI)
        trial = InputEnsemble(trial_v, theta + scale * step[2], 0.0)
        if (trial.v, trial.theta) == (v, theta):  # the step is below rounding
            break
        found, calls = _newton_step(code, target, trial.v, trial.theta), calls + 1
        if found is not None and found[0] < best:
            v, theta, best, step, scale = trial.v, trial.theta, found[0], found, 1.0
        else:
            scale *= 0.5
    return v, theta, best


def _canonical_order(a: SolvedInput, b: SolvedInput) -> int:
    """By input magic, v, then theta; magic and v tie within 1e-12, as g-fold images do."""
    ties = ((a.input_magic, b.input_magic, 1e-12), (a.v, b.v, 1e-12), (a.theta, b.theta, 0.0))
    for x, y, tie in ties:
        if abs(x - y) > tie:
            return -1 if x < y else 1
    return 0


@lru_cache(maxsize=None)
def solve_to_density(
    code: GnuParams, target: DensityMatrix1Q, tol: float = 1e-9
) -> tuple[SolvedInput, ...]:
    """All distinct inputs (v, theta) whose noiseless output matches a target state.

    Scans a pi/200 grid over v in [0, pi/2] and theta in [-pi, pi), refines
    every grid-local minimum whose residual is not already 0 by Gauss-Newton
    (_gauss_newton, at most NEWTON_CALLS engine calls each), keeps refined
    points with trace-distance residual <= tol, one per input state
    (clean-state Bloch vectors within 1e-6 are one state, as is every theta
    at a pole), and sorts them by _canonical_order, so the head of the tuple
    is the canonical minimum-magic solution.  A point near a zero-weight v
    edge is kept if it meets tol, however small its success probability.

    Raises NoSolutionError when the best grid residual exceeds 0.1, which
    signals a target outside the code's reachable set rather than a grid that
    is merely too coarse, or when no refined point reaches tol.
    """
    if not (math.isfinite(tol) and tol >= 1e-10):
        raise OutOfRangeError(f"tol must be a finite number of at least 1e-10, got {tol!r}")

    # The last v overshoots pi/2 by rounding; InputEnsemble clamps it too.
    vs = np.minimum(step_grid(_HALF_PI, GRID_STEP), _HALF_PI)
    thetas = -math.pi + step_grid(2.0 * math.pi, GRID_STEP)[:-1]
    grid = np.empty((vs.size, thetas.size))
    for i in range(0, vs.size, GRID_BLOCK_ROWS):
        block = slice(i, i + GRID_BLOCK_ROWS)
        grid[block] = _residual_row(code, target, vs[block], thetas)

    grid_min = grid.min()
    if grid_min > UNREACHABLE_RESIDUAL:
        raise NoSolutionError(f"best grid residual {grid_min:.4f} exceeds {UNREACHABLE_RESIDUAL}")

    # Grid-local minima: no larger than any theta (cyclic) or v neighbour.
    is_min = (
        (grid <= UNREACHABLE_RESIDUAL)
        & (grid <= np.roll(grid, 1, axis=1))
        & (grid <= np.roll(grid, -1, axis=1))
    )
    is_min[1:] &= grid[1:] <= grid[:-1]
    is_min[:-1] &= grid[:-1] <= grid[1:]

    refined = []
    # grid[i, j] is the residual at (vs[i], thetas[j]), whose angles are wrapped.
    rows, cols = np.nonzero(is_min)
    for start in zip(vs[rows].tolist(), thetas[cols].tolist(), grid[rows, cols].tolist()):
        v, theta, value = start if start[2] == 0.0 else _gauss_newton(code, target, *start)
        if value <= tol:
            clean = InputEnsemble(v, theta, 0.0).clean_state()
            refined.append((value, pauli_expectations(clean.density()), v, theta, m2_pure(clean)))
    if not refined:
        raise NoSolutionError(f"no refined point reached the tolerance {tol!r}")

    kept = {}  # input Bloch vector -> solution, one per input state
    for value, bloch, v, theta, magic in sorted(refined, key=lambda item: item[0]):
        if all(math.dist(bloch, other) > 1e-6 for other in kept):
            kept[bloch] = SolvedInput(v, theta, value, magic)
    return tuple(sorted(kept.values(), key=cmp_to_key(_canonical_order)))


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
    accepted, m00, m11, m01 = noiseless_states(code, vs, np.array([ensembles[0].theta]))
    accepted = accepted[:, 0]
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
    if not magic >= 0.0:
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
