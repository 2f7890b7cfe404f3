"""Analytic output-state pipeline.

The protocol projects N = g*n*u copies of a noisy input qubit onto a gnu
codespace and decodes the surviving two-dimensional block.  Everything here
works with sums over Hamming weights (never 2^N objects): the overlap of a
product input state with a Dicke state depends on the input string only
through its weight omega, which is what keeps the whole pipeline O(N^3).

`projection_weights` is the one evaluation path.  The overlap of a
weight-omega input string with the j-th logical Dicke component is
e^{i g j theta} times a real amplitude, the x^{gj} coefficient of
(cos v + sin v x)^(N-omega) (sin v - cos v x)^omega, and eps enters only
through the binomial weight of omega flipped inputs.  So one call builds the
real (v, omega, j) amplitude table, only for the omega whose noise weight is
nonzero (omega = 0 alone at eps = 0), builds the phases e^{i g j theta} once,
and contracts them with an (omega, column) table of noise weights.
`projection_weights` takes one eps, a float or a whole vector of v, and a
whole vector of theta, which is how the noiseless solver grid, the solver's
neighbour probes and the magic curve evaluate many points in one call;
`max_errors` takes one (v, theta) and a whole vector of eps, which is how
error curves evaluate a threshold grid or a figure's eps column in one call,
and `max_error` is its one-point call.  The scalar `dicke_overlap` family
spells the same sums out term by term and is the reference the array path is
tested against.  `CodespaceProjection` plus `final_state` keep their own
checks beside `final_states`: one point costs about 6 us through them and
75 us through `final_states`, and `distilled_state` runs point by point.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .codes import GnuParams
from .errors import OutOfRangeError, ZeroSuccessProbabilityError
from .qmath import (
    MAX_QUBITS,
    STATE_TOLERANCE,
    DensityMatrix1Q,
    PureQubit,
    binomial,
    checked_density_arrays,
    squared_modulus,
    trace_distances,
)

# Below this total codespace weight the output state cannot be normalised.
MIN_SUCCESS_PROBABILITY = 1e-300

_HALF_PI = math.pi / 2.0
_TWO_PI = 2.0 * math.pi

# Float binomials C(m, k) for 0 <= m, k <= MAX_QUBITS, zero for k > m, so the
# out-of-range terms of the overlap sums drop out without masks.
_BINOMIAL = np.array(
    [[math.comb(m, k) for k in range(MAX_QUBITS + 1)] for m in range(MAX_QUBITS + 1)],
    dtype=float,
)


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return (theta + math.pi) % _TWO_PI - math.pi


@dataclass(frozen=True)
class InputEnsemble:
    """Noisy input model: clean state at Bloch angles (v, theta), error weight eps.

    The clean state is cos(v)|0> + e^{i theta} sin(v)|1>; the error state is
    its orthogonal complement sin(v)|0> - e^{i theta} cos(v)|1>.  The channel
    emits the error state with probability eps.
    """

    v: float
    theta: float
    eps: float

    def __post_init__(self) -> None:
        v, theta, eps = float(self.v), float(self.theta), float(self.eps)
        if not (math.isfinite(v) and math.isfinite(theta) and math.isfinite(eps)):
            raise OutOfRangeError("ensemble parameters must be finite")
        if not -1e-12 <= v <= _HALF_PI + 1e-12:
            raise OutOfRangeError(f"v must lie in [0, pi/2], got {v!r}")
        if not 0.0 <= eps <= 1.0:
            raise OutOfRangeError(f"eps must lie in [0, 1], got {eps!r}")
        object.__setattr__(self, "v", min(max(v, 0.0), _HALF_PI))
        object.__setattr__(self, "theta", wrap_angle(theta))
        object.__setattr__(self, "eps", eps)

    def clean_state(self) -> PureQubit:
        return PureQubit(math.cos(self.v), cmath.exp(1j * self.theta) * math.sin(self.v))

    def error_state(self) -> PureQubit:
        return PureQubit(math.sin(self.v), -cmath.exp(1j * self.theta) * math.cos(self.v))


@dataclass(frozen=True)
class CodespaceProjection:
    """Unnormalised logical-basis block of the projected N-qubit state.

    w00 and w11 are the weights on logical 0 and 1 (Born probabilities, so
    nonnegative); w01 is the coherence between them.  The success probability
    of the post-selection is w00 + w11.  A projection with zero total weight
    is representable so the brute-force oracle can report it; operations that
    need to normalise raise ZeroSuccessProbabilityError instead.
    """

    w00: float
    w11: float
    w01: complex

    def __post_init__(self) -> None:
        w00, w11, w01 = float(self.w00), float(self.w11), complex(self.w01)
        if w00 < -STATE_TOLERANCE or w11 < -STATE_TOLERANCE:
            raise OutOfRangeError(f"negative projection weight: {w00!r}, {w11!r}")
        w00, w11 = max(w00, 0.0), max(w11, 0.0)
        if w00 + w11 > 1.0 + STATE_TOLERANCE:
            raise OutOfRangeError(f"total projection weight {w00 + w11!r} exceeds 1")
        if squared_modulus(w01) > w00 * w11 + STATE_TOLERANCE:
            raise OutOfRangeError("coherence weight violates positive semidefiniteness")
        object.__setattr__(self, "w00", w00)
        object.__setattr__(self, "w11", w11)
        object.__setattr__(self, "w01", w01)


def dicke_overlap_term(
    s: int, t: int, omega: int, v: float, theta: float, n_qubits: int
) -> complex:
    """Single term of the Dicke-overlap sum.

    Equals (-1)^t e^{i s theta} cos(v)^(N-k) sin(v)^k with k = s + omega - 2t.
    The split cos/sin power form stays finite at v = pi/2, where the
    equivalent cos(v)^N tan(v)^k expression would pit a zero against a pole.
    """
    if not (0 <= s <= n_qubits and 0 <= omega <= n_qubits):
        raise OutOfRangeError(f"need 0 <= s, omega <= {n_qubits}, got s={s}, omega={omega}")
    if not 0 <= t <= min(s, omega):
        raise OutOfRangeError(f"need 0 <= t <= min(s, omega), got t={t}")
    k = s + omega - 2 * t
    sign = -1.0 if t % 2 else 1.0
    return sign * cmath.exp(1j * s * theta) * math.cos(v) ** (n_qubits - k) * math.sin(v) ** k


def dicke_overlap(s: int, omega: int, v: float, theta: float, n_qubits: int) -> complex:
    """Overlap <D^N_s | phi_x> for any input string x of Hamming weight omega."""
    if not (0 <= s <= n_qubits and 0 <= omega <= n_qubits):
        raise OutOfRangeError(f"need 0 <= s, omega <= {n_qubits}, got s={s}, omega={omega}")
    total = 0j
    for t in range(max(0, s + omega - n_qubits), min(s, omega) + 1):
        total += (
            dicke_overlap_term(s, t, omega, v, theta, n_qubits)
            * binomial(omega, t)
            * binomial(n_qubits - omega, s - t)
        )
    return total / math.sqrt(binomial(n_qubits, s))


def logical_component_overlap(
    j: int, omega: int, code: GnuParams, v: float, theta: float
) -> complex:
    """Contribution of the j-th Dicke component of a logical state.

    This is sqrt(C(n, j)) times the overlap of the weight-g*j Dicke state
    with a weight-omega input product state; summing it over even (odd) j and
    scaling by sqrt(2^-(n-1)) gives <0_L|phi_x> (<1_L|phi_x>).
    """
    if not 0 <= j <= code.n:
        raise OutOfRangeError(f"j must lie in [0, {code.n}], got {j}")
    n_qubits = code.num_qubits
    if not 0 <= omega <= n_qubits:
        raise OutOfRangeError(f"omega must lie in [0, {n_qubits}], got {omega}")
    return math.sqrt(binomial(code.n, j)) * dicke_overlap(
        code.g * j, omega, v, theta, n_qubits
    )


def _coefficient_rows(degrees, a, b, width: int):
    """x^r coefficients, r < width, of (a + b x)^m for each m in degrees (one row per m).

    a and b are arrays ending in two unit axes, which broadcast against the
    (m, r) table.
    """
    r = np.arange(width)
    excess = np.maximum(np.subtract.outer(degrees, r), 0)  # m - r where C(m, r) != 0
    return _BINOMIAL[degrees, :width] * a**excess * b**r


def _noise_weights(n_qubits: int, eps):
    """Probability C(N, omega) eps^omega (1 - eps)^(N - omega) of omega flipped inputs.

    omega runs along the last axis; eps is a float or a column of them.
    """
    omegas = np.arange(n_qubits + 1)
    return _BINOMIAL[n_qubits, omegas] * eps**omegas * (1.0 - eps) ** omegas[::-1]


def _projection(code: GnuParams, v, thetas, flips, noise):
    """Codespace weights (w00, w11, w01) summed over the omega in flips.

    v is a float or an array of them, and leads the shape of the weights.
    noise holds the noise weights of those omega, one row each.  The
    (v, omega, theta) logical sums are built once and broadcast against its
    columns: a vector of theta against one noise column, or one theta
    against a column per eps.
    """
    n_qubits, n, g = code.num_qubits, code.n, code.g
    # math.cos/math.sin per v, so a vector of v gives the same bits as one v.
    v = np.asarray(v, dtype=float)
    shape, flat = v.shape + (1, 1), v.ravel().tolist()
    cos_v = np.array(list(map(math.cos, flat))).reshape(shape)
    sin_v = np.array(list(map(math.sin, flat))).reshape(shape)
    excitations = g * np.arange(n + 1)
    depth = min(int(flips[-1]), g * n) + 1
    flipped = _coefficient_rows(flips, sin_v, -cos_v, depth)
    clean = _coefficient_rows(n_qubits - flips, cos_v, sin_v, g * n + 1)
    amplitude = np.zeros(flipped.shape[:-1] + (n + 1,))
    for t in range(depth):
        first = -(-t // g)  # components with g*j >= t
        amplitude[..., first:] += flipped[..., t, None] * clean[..., excitations[first:] - t]
    amplitude *= np.sqrt(_BINOMIAL[n, : n + 1] / _BINOMIAL[n_qubits, excitations])
    # (v, omega, j, theta) terms, summed by broadcasting: matmul would load
    # BLAS, about 0.4 MB of resident memory, for arrays this small.
    phases = np.exp(1j * np.multiply.outer(excitations, thetas))
    terms = amplitude[..., None] * phases
    even = terms[..., 0::2, :].sum(axis=-2)
    odd = terms[..., 1::2, :].sum(axis=-2)
    weight = 2.0 ** (-(n - 1)) * noise
    w00 = (weight * (even.real**2 + even.imag**2)).sum(axis=-2)
    w11 = (weight * (odd.real**2 + odd.imag**2)).sum(axis=-2)
    w01 = (weight * (even * odd.conj())).sum(axis=-2)
    return w00, w11, w01


def projection_weights(code: GnuParams, v, thetas, eps: float):
    """Codespace weights (w00, w11, w01) at one eps for each v and each angle in thetas.

    v is a float or an array of them and thetas a 1-D array; the weights are
    arrays of shape np.shape(v) + thetas.shape, so a float v gives one
    entry per angle.  v and eps must already lie in [0, pi/2] and [0, 1],
    as InputEnsemble ensures.  For each number omega of flipped inputs with
    nonzero noise weight, the real amplitude of logical component j is the
    x^{gj} coefficient of (cos v + sin v x)^(N-omega) (sin v - cos v x)^omega,
    scaled by sqrt(C(n, j) / C(N, gj)); theta only multiplies it by
    e^{i g j theta}.  Both factors are tabulated per call, so a call holds
    O(N^2) numbers per v plus O(N * n) per (v, angle) pair.  No zero-weight
    check happens here: see codespace_projection and final_states.
    """
    noise = _noise_weights(code.num_qubits, eps)
    flips = np.flatnonzero(noise)
    return _projection(code, v, thetas, flips, noise[flips, None])


def codespace_projection(code: GnuParams, ens: InputEnsemble) -> CodespaceProjection:
    """Project N noisy copies onto the codespace and read the logical block.

    One point of projection_weights.  Raises ZeroSuccessProbabilityError when
    the total codespace weight is too small to normalise downstream.
    """
    w00, w11, w01 = projection_weights(code, ens.v, np.array([ens.theta]), ens.eps)
    w00, w11, w01 = float(w00[0]), float(w11[0]), complex(w01[0])
    if w00 + w11 <= MIN_SUCCESS_PROBABILITY:
        raise ZeroSuccessProbabilityError(
            f"codespace weight {w00 + w11!r} at (v={ens.v}, theta={ens.theta}, "
            f"eps={ens.eps}) on (g={code.g}, n={code.n}, u={code.u})"
        )
    return CodespaceProjection(w00, w11, w01)


def success_probability(projection: CodespaceProjection) -> float:
    """Probability that the projective check accepts the state."""
    return projection.w00 + projection.w11


def final_state(projection: CodespaceProjection) -> DensityMatrix1Q:
    """Normalise the logical block into the decoded single-qubit output state."""
    total = projection.w00 + projection.w11
    if total <= 0.0:
        raise ZeroSuccessProbabilityError("cannot normalise a zero-weight projection")
    return DensityMatrix1Q(
        projection.w00 / total, projection.w11 / total, projection.w01 / total
    )


def final_states(w00, w11, w01):
    """final_state over arrays of projection weights, with every scalar check.

    Returns (accepted, m00, m11, m01), the state arrays holding the accepted
    points only.  A point whose total weight is at most
    MIN_SUCCESS_PROBABILITY is not accepted, where codespace_projection
    raises ZeroSuccessProbabilityError; an accepted point that
    CodespaceProjection or DensityMatrix1Q would reject raises
    OutOfRangeError.
    """
    accepted = ~(w00 + w11 <= MIN_SUCCESS_PROBABILITY)
    w00, w11, w01 = w00[accepted], w11[accepted], w01[accepted]
    if ((w00 < -STATE_TOLERANCE) | (w11 < -STATE_TOLERANCE)).any():
        raise OutOfRangeError("negative projection weight")
    # max(x, 0.0) as CodespaceProjection takes it (-0.0 and nan stay).
    w00, w11 = np.where(w00 < 0.0, 0.0, w00), np.where(w11 < 0.0, 0.0, w11)
    total = w00 + w11
    if (total > 1.0 + STATE_TOLERANCE).any():
        raise OutOfRangeError(f"total projection weight {total.max()!r} exceeds 1")
    if (squared_modulus(w01) > w00 * w11 + STATE_TOLERANCE).any():
        raise OutOfRangeError("coherence weight violates positive semidefiniteness")
    # Componentwise, because numpy's complex / float can round differently
    # from the complex / float in final_state.
    m01 = w01.real / total + 1j * (w01.imag / total)
    return (accepted, *checked_density_arrays(w00 / total, w11 / total, m01))


def distilled_state(code: GnuParams, ens: InputEnsemble) -> DensityMatrix1Q:
    """Convenience composition of codespace_projection and final_state."""
    return final_state(codespace_projection(code, ens))


def max_errors(code: GnuParams, v: float, theta: float, eps, target: DensityMatrix1Q):
    """Worst-case output error over the channel settings {0, e} for each e in eps.

    The noiseless output pins the protocol's intent, the noisy one its
    degradation.  eps (a 1-D array) only enters through the noise weights of
    omega flipped inputs, so all points share one (omega, j) amplitude table.
    Raises OutOfRangeError with InputEnsemble's message for the first eps
    outside [0, 1], and ZeroSuccessProbabilityError where
    codespace_projection would at 0 or at any eps.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1:
        raise OutOfRangeError(f"eps must be a 1-D array, got shape {eps.shape}")
    ens = InputEnsemble(v, theta, 0.0)
    bad = ~((eps >= 0.0) & (eps <= 1.0))
    if bad.any():
        InputEnsemble(v, theta, eps[bad][0])  # raises the scalar path's message
    if eps.size == 0:
        return np.empty(0)
    settings = np.concatenate(([0.0], eps))
    noise = _noise_weights(code.num_qubits, settings[:, None])
    flips = np.flatnonzero(noise.any(axis=0))
    weights = _projection(code, ens.v, np.array([ens.theta]), flips, noise[:, flips].T)
    accepted, m00, m11, m01 = final_states(*weights)
    if not accepted.all():
        raise ZeroSuccessProbabilityError(
            f"codespace weight at most {MIN_SUCCESS_PROBABILITY} at "
            f"eps={settings[~accepted][0]} on (v={ens.v}, theta={ens.theta}) "
            f"for (g={code.g}, n={code.n}, u={code.u})"
        )
    errors = trace_distances(m00, m11, m01, target)
    return np.maximum(errors[1:], errors[0])


def max_error(
    code: GnuParams, v: float, theta: float, eps: float, target: DensityMatrix1Q
) -> float:
    """max_errors at the single error weight eps."""
    return float(max_errors(code, v, theta, [eps], target)[0])
