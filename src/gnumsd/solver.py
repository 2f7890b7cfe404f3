"""Parameter inversion: which inputs distil a wanted state.

Two related jobs live here.  `solve_input_params` finds every (v, theta) whose
noiseless distilled output hits a target state, as the roots of one
polynomial of degree n.  `magic_curve` / `solve_for_magic` map and invert the
relationship between the input angle v and the magic of the distilled state
at fixed theta.

Both read the engine's omega = 0 kernel, which every eps = 0 point and the
magic curve read, where only the unflipped input string carries weight.
There the decoded state is proportional to E(z)|0> + O(z)|1> with
z = (e^{i theta} tan v)^g, so a pure target is hit exactly at the roots of
p(z) = beta E(z) - alpha O(z), and each root z gives the g inputs
v = atan |z|^(1/g), theta = (arg z + 2 pi k) / g.  A drop in
p's degree is a root at z = inf, the limit v -> pi/2, and a zero p(0) a root
at z = 0, the input v = 0.  n = 1 roots are closed form; higher degrees go
to np.roots.  Each candidate input is confirmed as one eps = 0 point, the
trace distance of its `distilled_state` to the target, as `distill --target`
measures it, so a root at z = inf is a solution only where the code accepts
the float v = pi/2 (u > 1 codes accept nothing in the limit, and most of
them nothing at that float), and an ill-conditioned root whose float input
misses tol (as on (1, 60, 1)) is dropped.  The magic curve is one
`noiseless_states` call for all of its v at one theta.  `solve_for_magic`
searches the sampled magic curve with `roots.first_root`, the root search of
the threshold and crossover searches, and bisects on `distilled_state`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from itertools import compress

import numpy as np

from .codes import GnuParams
from .engine import InputEnsemble, distilled_state, noiseless_states
from .errors import NoSolutionError, OutOfRangeError, ZeroSuccessProbabilityError
from .qmath import (
    DensityMatrix1Q,
    PureQubit,
    h_state,
    m2_densities,
    m2_density,
    pauli_expectations,
    t_state,
    trace_distance,
)
from .roots import first_root, step_grid

TARGET_KINDS = ("T", "H", "XT", "XH", "custom")

MAGIC_GRID_STEP = math.pi / 1000
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


def _nearest_pure(target: DensityMatrix1Q) -> tuple[complex, complex]:
    """Amplitudes (alpha, beta) of the pure state alpha|0> + beta|1> nearest target.

    Read off the target's Bloch vector scaled to length 1, with the larger
    amplitude real, so a pole target has an exact zero amplitude.  A Bloch
    vector of length 0, the maximally mixed state's, reads as |0>.
    """
    _, x, y, z = pauli_expectations(target)
    length = math.hypot(x, y, z) or 1.0
    coherence = complex(x, -y) / (2.0 * length)  # alpha * conj(beta)
    if z >= 0.0:
        alpha = math.sqrt(0.5 + 0.5 * z / length)
        return alpha, coherence.conjugate() / alpha
    beta = math.sqrt(0.5 - 0.5 * z / length)
    return coherence / beta, beta


def _target_polynomial(code: GnuParams, target: DensityMatrix1Q) -> list[complex]:
    """Coefficients p_0..p_n, lowest power first, of p(z) = beta E(z) - alpha O(z).

    At eps = 0 the decoded state is proportional to E(z)|0> + O(z)|1>, the
    even-j and odd-j parts of the sum of c_j z^j, with
    c_j = sqrt(C(n, j) C(N, g*j)) and z = (e^{i theta} tan v)^g.  So it is
    the target's nearest pure state alpha|0> + beta|1> exactly where p(z) = 0.
    """
    alpha, beta = _nearest_pure(target)
    n, g, n_qubits = code.n, code.g, code.num_qubits
    return [
        (-alpha if j % 2 else beta) * math.sqrt(math.comb(n, j) * math.comb(n_qubits, g * j))
        for j in range(n + 1)
    ]


def _interior_roots(p: list[complex]) -> list[complex]:
    """The roots of the sum of p[k] z^k, whose first and last coefficients are nonzero.

    Degree 1 in closed form, which keeps every n = 1 code off np.roots: its
    first call loads LAPACK, about 1.2 MB resident.  A higher degree by
    np.roots in w = z / s, with s = |p[0] / p[-1]|^(1/degree), where the
    end coefficients have equal modulus.
    """
    degree = len(p) - 1
    if degree < 2:
        return [-p[0] / p[1]] if degree else []
    s = abs(p[0] / p[-1]) ** (1.0 / degree)
    return (s * np.roots([c * s**k for k, c in enumerate(p)][::-1])).tolist()


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

    Every such input is a root z of the degree-n _target_polynomial, and
    each interior root maps to g inputs v = atan |z|^(1/g),
    theta = (arg z + 2 pi k) / g.  A zero p_0 is the root z = 0, the one
    input (0, -pi); a zero p_n is the root z = inf, the limit v -> pi/2,
    tried as the one input (pi/2, -pi).  Each input, clamped and wrapped by
    InputEnsemble, is confirmed as one eps = 0 point: kept if distilled_state
    accepts it (a ZeroSuccessProbabilityError refuses it) with a
    trace-distance residual <= tol, that point's residual.  So a mixed
    target, which its nearest pure state misses, is refused, and an
    ill-conditioned root (as on (1, 60, 1)) is dropped when its float input
    misses tol.  One solution is kept per input state
    (clean-state Bloch vectors within 1e-6 are one state, so a repeated
    root whose float roots split counts once), sorted by _canonical_order,
    so the head of the tuple is the canonical minimum-magic solution.

    Raises NoSolutionError when no input is confirmed; the message names the
    limit v -> pi/2 when the code accepts nothing at a root z = inf.
    """
    if not (math.isfinite(tol) and tol >= 1e-10):
        raise OutOfRangeError(f"tol must be a finite number of at least 1e-10, got {tol!r}")

    p = _target_polynomial(code, target)
    nonzero = [j for j, c in enumerate(p) if c != 0.0]
    lo, hi = nonzero[0], nonzero[-1]
    # Every theta at a pole is one input state.
    inputs, limit = [], (_HALF_PI, -math.pi)
    if lo > 0:
        inputs.append((0.0, -math.pi))  # z = 0
    if hi < code.n:
        inputs.append(limit)  # z = inf
    for z in _interior_roots(p[lo : hi + 1]):
        v = math.atan(abs(z) ** (1.0 / code.g))
        inputs += [(v, (cmath.phase(z) + 2.0 * math.pi * k) / code.g) for k in range(code.g)]

    confirmed, refused = [], []
    for v, theta in inputs:
        ens = InputEnsemble(v, theta, 0.0)
        try:
            value = trace_distance(distilled_state(code, ens), target)
        except ZeroSuccessProbabilityError:
            refused.append((v, theta))
            continue
        if value <= tol:
            clean = ens.clean_state().density()
            confirmed.append((value, pauli_expectations(clean), ens, m2_density(clean)))
    if not confirmed:
        reason = f"no input reaches the target within the tolerance {tol!r}"
        if limit in refused:
            reason += "; it is reached only in the limit v -> pi/2, where the code accepts nothing"
        raise NoSolutionError(reason)

    kept = {}  # input Bloch vector -> solution, one per input state
    for value, bloch, ens, magic in sorted(confirmed, key=lambda item: item[0]):
        if all(math.dist(bloch, other) > 1e-6 for other in kept):
            kept[bloch] = SolvedInput(ens.v, ens.theta, value, magic)
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
    never accept) are skipped and logged.  The grid is checked and clamped
    as one array, as InputEnsemble checks and clamps each v; one ensemble,
    on the first rejected grid point or else on the first point, wraps
    theta or raises InputEnsemble's own error.
    """
    vs = np.array(v_grid, dtype=float)
    if vs.size == 0:
        return []
    rejected = ~(np.isfinite(vs) & (vs >= -1e-12) & (vs <= _HALF_PI + 1e-12))
    first = int(rejected.argmax())  # 0 where no grid point is rejected
    # The grid's own element, so InputEnsemble checks and words it as it would alone.
    ens = InputEnsemble(v_grid[first], theta, 0.0)
    vs = np.minimum(np.maximum(vs, 0.0), _HALF_PI) + 0.0
    accepted, m00, m11, m01 = noiseless_states(code, vs, ens.theta)
    for v in compress(v_grid, ~accepted):
        import logging  # here, not at module load: a run that skips no point never logs

        logging.getLogger(__name__).warning("magic_curve: skipped singular grid point v=%r", v)
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
