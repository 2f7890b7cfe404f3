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
through the binomial weight of omega flipped inputs.  Everything in that
coefficient that does not depend on v sits in a per-code plan, built once
per code at full size: an index table mapping each (factor, omega, r) to a
position in one flat power table [cos^k | sin^k | (-cos)^k], the matching
binomials, the (t, j) gather of the coefficient product and its
normalisation.  Each (omega, r) table ends in a sentinel column with a 0.0
binomial, where the clean factor is exactly +0, and the gather sends every
(t, j) with g*j < t there, so no mask multiply is needed.  A call raises
cos v, sin v and -cos v to the powers 0..N in one pow, reads both factors
for the omega whose noise weight is nonzero (omega = 0 alone at eps = 0) in
one take and two multiplies, sums the product over t in one gathered
contraction and builds the phases e^{i g j theta} once: that gives the
per-omega logical sums |even|^2, |odd|^2 and even * conj(odd), which a
second step weights by an (omega, column) table of noise weights and sums
over omega.
`projection_weights` takes one eps, a float or a whole vector of v, and a
whole vector of theta, which is how the noiseless solver grid, the solver's
neighbour probes and the magic curve evaluate many points in one call;
`max_errors` takes one (v, theta) and a whole vector of eps, which is how
error curves evaluate a threshold grid or a figure's eps column in one call,
and `max_error` is its one-point twin.  Beside the plan, both keep a second
cache: the logical sums of every omega = 0..N, one table per (code, v,
theta) with v and theta as InputEnsemble clamps and wraps them, at most
CURVE_TABLES of them, read-only.  Only the noise weights depend on eps, so
every point of an error curve, scalar calls and bisection steps included,
reads one table and runs only the weighted omega sum (`_curve_weights`, the
one weight step of both) and the state checks.  `dicke_overlap` is a
one-point read of the same amplitudes on the (1, N, 1) code; the tests keep
the term-by-term sum as the reference the plan path is checked against.
The dataclass pair `CodespaceProjection` + `final_state` (which builds a
`DensityMatrix1Q`) is the one definition of the state checks, their order
and their messages.  `distilled_state` and `max_error` run it point by
point (`_checked_states`, ~5 us a point); `final_states` only screens an
array with the same comparisons in one pass and hands the points to
`_checked_states` when the screen flags one, so a rejection raises the
pair's own error for the first point it rejects.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .codes import GnuParams
from .errors import OutOfRangeError, ZeroSuccessProbabilityError
from .qmath import (
    MAX_QUBITS,
    STATE_TOLERANCE,
    DensityMatrix1Q,
    PureQubit,
    squared_modulus,
    trace_distance,
    trace_distances,
)

# Below this total codespace weight the output state cannot be normalised.
MIN_SUCCESS_PROBABILITY = 1e-300
# Most (code, v, theta) logical-sum tables max_errors keeps; a crossover
# search evaluates two error curves in turn.
CURVE_TABLES = 32

_HALF_PI = math.pi / 2.0
_TWO_PI = 2.0 * math.pi


def _binomials(rows, cols):
    """Float C(m, k) for each m in rows and k in cols.

    Zero for k > m, so the out-of-range terms of the overlap sums drop out
    without masks.
    """
    return np.array([[math.comb(m, k) for k in cols] for m in rows], dtype=float)


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
        # + 0.0 turns a -0.0, which max and the range checks let through,
        # into +0.0, so equal inputs give equal bits and equal cache keys.
        object.__setattr__(self, "v", min(max(v, 0.0), _HALF_PI) + 0.0)
        object.__setattr__(self, "theta", wrap_angle(theta))
        object.__setattr__(self, "eps", eps + 0.0)

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
        if not all(map(math.isfinite, (w00, w11, w01.real, w01.imag))):
            raise OutOfRangeError("projection weights must be finite")
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


class _Plan(NamedTuple):
    """Everything in a projection of one code that does not depend on v or eps.

    The (omega, r) tables run over the flip counts omega = 0..N and the
    powers r = 0..g*n that reach a logical component, plus one sentinel
    column r = g*n + 1; a call reads the rows of the omega it sums over.
    Each (factor, omega, r) entry of index is a position in the call's flat
    power table [cos^k | sin^k | (-cos)^k], k = 0..N: factors 0 and 1 are
    the a^(m - r) of the flipped (degree omega, a = sin v) and clean
    (degree N - omega, a = cos v) factors, 2 and 3 their b^r (b = -cos v and
    sin v).  The sentinel column reads a^0 and b^0 against a 0.0 binomial,
    so the clean factor holds exactly +0 there.
    """

    omegas: np.ndarray  # 0..N: noise exponents and power-table exponents
    noise_binomial: np.ndarray  # C(N, omega)
    index: np.ndarray  # (factor, omega, r) -> position in the flat power table
    binomial: np.ndarray  # C(omega, r) and C(N - omega, r), 0.0 in the sentinel column
    gather: np.ndarray  # (t, j) -> column g*j - t of the clean factor, the sentinel where g*j < t
    phase_rates: np.ndarray  # i*g*j, the exponent of e^{i g j theta} per unit theta
    scale: np.ndarray  # sqrt(C(n, j) / C(N, g*j))
    logical_norm: float  # 2^-(n-1), the square of the logical states' normalisation


@lru_cache(maxsize=None)
def _plan(code: GnuParams) -> _Plan:
    """The projection plan of code, built once per code.

    Keyed on the code alone (not on which omega carry noise weight, a set
    that changes with eps near 0 and 1), so the cache holds one entry per
    code.  The arrays are shared by every call and so read-only.
    """
    n_qubits, n, g = code.num_qubits, code.n, code.g
    omegas = np.arange(n_qubits + 1)
    sentinel = g * n + 1
    r = np.arange(sentinel + 1)
    excitations = g * np.arange(n + 1)
    degrees = np.stack((omegas, n_qubits - omegas))  # flipped, clean
    # (factor, omega, r) exponents of a, then of b; a^0 and b^0 in the sentinel column.
    exponents = np.empty((4,) + omegas.shape + r.shape, dtype=np.intp)
    exponents[:2] = np.maximum(degrees[..., None] - r, 0)
    exponents[2:] = r
    exponents[..., sentinel] = 0
    blocks = (n_qubits + 1) * np.array([1, 0, 2, 1])  # sin, cos, -cos, sin
    binomial = _binomials(range(n_qubits + 1), r)[degrees]
    binomial[..., sentinel] = 0.0
    column = -np.subtract.outer(r[:sentinel], excitations)  # (t, j) -> g*j - t
    plan = _Plan(
        omegas=omegas,
        noise_binomial=_binomials([n_qubits], omegas)[0],
        index=exponents + blocks[:, None, None],
        binomial=binomial,
        # Every g*j < t to -1, which the modulus takes to the sentinel: no
        # integer comparison, whose first use in a process costs ~0.2 MB resident.
        gather=np.maximum(column, -1) % (sentinel + 1),
        phase_rates=1j * excitations,
        scale=np.sqrt(_binomials([n], range(n + 1))[0] / _binomials([n_qubits], excitations)[0]),
        logical_norm=2.0 ** (-(n - 1)),
    )
    for table in plan:
        if isinstance(table, np.ndarray):
            table.setflags(write=False)
    return plan


def _noise_weights(plan: _Plan, eps):
    """Probability C(N, omega) eps^omega (1 - eps)^(N - omega) of omega flipped inputs.

    omega runs along the last axis; eps is a float or a column of them.
    """
    omegas = plan.omegas
    return plan.noise_binomial * eps**omegas * (1.0 - eps) ** omegas[::-1]


def _coefficients(plan: _Plan, v, rows):
    """x^r coefficients of the flipped and clean factors, shape (v, factor, omega, r).

    C(m, r) a^(m - r) b^r for each omega in rows, with every power read from
    one flat power table [cos^k | sin^k | (-cos)^k], k = 0..N, per v: the
    same pow on the same operands as one power per entry.  The gathered
    powers are freed on return, before the caller allocates its larger
    (v, omega, t, j) array.
    """
    # math.cos/math.sin per v, so a vector of v gives the same bits as one v.
    v = np.asarray(v, dtype=float)
    flat = v.ravel().tolist()
    trig = np.array([(c, s, -c) for c, s in zip(map(math.cos, flat), map(math.sin, flat))])
    powers = (trig.reshape(v.shape + (3, 1)) ** plan.omegas).reshape(v.shape + (-1,))
    factors = powers.take(plan.index[:, rows], axis=-1)
    coefficients = plan.binomial[:, rows] * factors[..., :2, :, :]
    coefficients *= factors[..., 2:, :, :]
    return coefficients


def _amplitudes(plan: _Plan, v, rows: slice):
    """Real amplitudes of the logical components, shape np.shape(v) + (omega, j).

    The x^{gj} coefficient of (cos v + sin v x)^(N-omega) (sin v - cos v x)^omega
    for each omega in rows, scaled by sqrt(C(n, j) / C(N, gj)).
    """
    coefficients = _coefficients(plan, v, rows)
    depth = min(rows.stop, plan.gather.shape[0])  # t runs to min(omega, g*n)
    # (v, omega, t, j) products flipped[t] * clean[g*j - t], summed over t;
    # where g*j < t the gather reads the clean factor's +0 sentinel.
    # take fills a fresh C-contiguous array, which the sum then runs over
    # row by row in t, as a loop over t adding into the amplitudes would;
    # the product is taken in place to hold one such array, not two.
    # np.add.reduce is what ndarray.sum calls, minus its Python wrapper.
    amplitude = coefficients[..., 1, :, :].take(plan.gather[:depth], axis=-1)
    amplitude *= coefficients[..., 0, :, :depth, None]
    amplitude = np.add.reduce(amplitude, -2)
    amplitude *= plan.scale
    return amplitude


def _logical_sums(plan: _Plan, v, thetas, rows: slice):
    """Per-omega logical sums (|even|^2, |odd|^2, even * conj(odd)) for the omega in rows.

    v is a float or an array of them, and leads the shape of each sum, which
    is np.shape(v) + (omega, theta).  Nothing here depends on eps: the
    noise weights enter only in _noise_sum.
    """
    amplitude = _amplitudes(plan, v, rows)
    # (v, omega, j, theta) terms, summed by broadcasting: matmul would load
    # BLAS, about 0.4 MB of resident memory, for arrays this small.
    phases = np.exp(np.multiply.outer(plan.phase_rates, thetas))
    terms = amplitude[..., None] * phases
    even = np.add.reduce(terms[..., 0::2, :], -2)
    odd = np.add.reduce(terms[..., 1::2, :], -2)
    return squared_modulus(even), squared_modulus(odd), even * odd.conj()


def _noise_sum(plan: _Plan, sums, noise):
    """Codespace weights (w00, w11, w01): the logical sums weighted by noise, summed over omega.

    noise holds one row per omega of sums, broadcast against its theta
    columns: one noise column against a vector of theta, or one theta
    against a column per eps.
    """
    s00, s11, s01 = sums
    weight = plan.logical_norm * noise
    # A literal tuple: tuple() of a generator builds a longer tuple and
    # shrinks it, which leaves one more 3-tuple on CPython's free list per
    # call, ~128 KB resident once a curve's calls fill it.
    return (
        np.add.reduce(weight * s00, -2),
        np.add.reduce(weight * s11, -2),
        np.add.reduce(weight * s01, -2),
    )


@lru_cache(maxsize=CURVE_TABLES)
def _curve_table(code: GnuParams, v: float, theta: float):
    """The logical sums of code at one (v, theta) for every omega = 0..N.

    All that max_errors needs besides the noise weights, so every eps of an
    error curve shares it.  v and theta come clamped and wrapped by
    InputEnsemble, so equal keys build equal tables.  The arrays are shared
    by every call and so read-only.
    """
    table = _logical_sums(_plan(code), v, np.array([theta]), slice(0, code.num_qubits + 1))
    for part in table:
        part.setflags(write=False)
    return table


def dicke_overlap(s: int, omega: int, v: float, theta: float, n_qubits: int) -> complex:
    """Overlap <D^N_s | phi_x> for any input string x of Hamming weight omega.

    A one-point read of the plan path on the (1, N, 1) code, whose j-th
    logical component is the weight-j Dicke state with scale exactly 1.0:
    the overlap is amplitude[s] / sqrt(C(N, s)) times e^{i s theta}.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise OutOfRangeError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n_qubits}")
    if not (0 <= s <= n_qubits and 0 <= omega <= n_qubits):
        raise OutOfRangeError(f"need 0 <= s, omega <= {n_qubits}, got s={s}, omega={omega}")
    amplitude = _amplitudes(_plan(GnuParams(1, n_qubits, 1)), v, slice(omega, omega + 1))[0, s]
    return float(amplitude) / math.sqrt(math.comb(n_qubits, s)) * cmath.exp(1j * s * theta)


def projection_weights(code: GnuParams, v, thetas, eps: float):
    """Codespace weights (w00, w11, w01) at one eps for each v and each angle in thetas.

    v is a float or an array of them and thetas a 1-D array; the weights are
    arrays of shape np.shape(v) + thetas.shape, so a float v gives one
    entry per angle.  v and eps must already lie in [0, pi/2] and [0, 1],
    as InputEnsemble ensures.  For each number omega of flipped inputs with
    nonzero noise weight, the real amplitude of logical component j is the
    x^{gj} coefficient of (cos v + sin v x)^(N-omega) (sin v - cos v x)^omega,
    scaled by sqrt(C(n, j) / C(N, gj)); theta only multiplies it by
    e^{i g j theta}.  The v-independent tables come from the code's cached
    plan; a call tabulates the powers of cos v and sin v in one flat table,
    reads both factors out of it through the plan's index table in one take,
    and gathers the products of the two factors into one (v, omega, t, j)
    array that it sums over t.  Where g*j < t the gather reads the clean
    factor's sentinel column, exactly +0, so those products are zeros that
    leave the sum unchanged.  That array is filled by take, so it is
    C-contiguous and the sum adds its t-rows in order, giving the bits of a
    loop over t; the products are taken in place, so it is the only array
    of its size.  A call holds O(N * g * n^2) numbers per v plus O(N * n)
    per (v, angle) pair.  No zero-weight check happens here: see
    codespace_projection and final_states.
    """
    plan = _plan(code)
    noise = _noise_weights(plan, eps)
    # The omega with nonzero weight at one eps form one run.
    flips = noise.nonzero()[0]
    rows = slice(int(flips[0]), int(flips[-1]) + 1)
    return _noise_sum(plan, _logical_sums(plan, v, thetas, rows), noise[rows, None])


def codespace_projection(code: GnuParams, ens: InputEnsemble) -> CodespaceProjection:
    """Project N noisy copies onto the codespace and read the logical block.

    One point of projection_weights.  Raises ZeroSuccessProbabilityError when
    the total codespace weight is too small to normalise downstream.
    """
    w00, w11, w01 = projection_weights(code, ens.v, np.array([ens.theta]), ens.eps)
    w00, w11, w01 = w00.item(), w11.item(), w01.item()
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
    w01 = projection.w01
    # Componentwise, as final_states divides: complex / float keeps the sign
    # of a zero part or not by python version, and numpy's rounds otherwise.
    m01 = complex(w01.real / total, w01.imag / total)
    return DensityMatrix1Q(projection.w00 / total, projection.w11 / total, m01)


def _checked_states(weights):
    """The dataclass pair's verdicts on the points of the weight arrays, in order.

    Returns a flag per point, False where the total weight is at most
    MIN_SUCCESS_PROBABILITY, and final_state(CodespaceProjection(*point)) of
    each accepted point, so the first accepted point the pair rejects raises.
    """
    # Star-args of a list: a generator's tuple is built longer and shrunk,
    # which leaves one more tuple on CPython's free list per call (~128 KB).
    points = list(zip(*[part.tolist() for part in weights]))
    accepted = [not w00 + w11 <= MIN_SUCCESS_PROBABILITY for w00, w11, _ in points]
    states = [final_state(CodespaceProjection(*point)) for point, ok in zip(points, accepted) if ok]
    return accepted, states


@np.errstate(over="ignore", invalid="ignore")
def final_states(w00, w11, w01):
    """_checked_states over arrays, screened in one pass.

    Returns (accepted, m00, m11, m01), the state arrays holding the accepted
    points only.  The screen runs the pair's comparisons, which nan fails,
    and sends the accepted points to _checked_states if any fails, so a
    rejected point raises the pair's own error.  Weights that pass
    normalise to a finite, nonnegative state of trace 1 within a few ulps,
    so of the state's checks only its coherence is screened.  Overflow and
    invalid values, which come only from flagged points, raise no warning.
    """
    accepted = ~(w00 + w11 <= MIN_SUCCESS_PROBABILITY)
    w00, w11, w01 = w00[accepted], w11[accepted], w01[accepted]
    # Clamped with max(x, 0.0) as CodespaceProjection clamps them (-0.0 stays).
    c00, c11 = np.where(w00 < 0.0, 0.0, w00), np.where(w11 < 0.0, 0.0, w11)
    total = c00 + c11
    m00, m11 = c00 / total, c11 / total
    m01 = np.empty(total.shape, complex)
    m01.real, m01.imag = w01.real / total, w01.imag / total
    passes = (
        (np.minimum(w00, w11) >= -STATE_TOLERANCE)
        & (total <= 1.0 + STATE_TOLERANCE)
        & (squared_modulus(w01) <= c00 * c11 + STATE_TOLERANCE)
        & (squared_modulus(m01) <= m00 * m11 + STATE_TOLERANCE)
    )
    if not passes.all():
        _checked_states((w00, w11, w01))
    return accepted, m00, m11, m01


def distilled_state(code: GnuParams, ens: InputEnsemble) -> DensityMatrix1Q:
    """Convenience composition of codespace_projection and final_state."""
    return final_state(codespace_projection(code, ens))


def _curve_weights(code: GnuParams, v: float, theta: float, eps):
    """Codespace weights (w00, w11, w01) at the channel settings [0, *eps].

    The one weight step of max_errors and max_error.  eps (a 1-D array)
    only enters through the noise weights of omega flipped inputs, so every
    call at one (v, theta) on a code reads one cached table of the
    per-omega logical sums for omega = 0..N, keyed on the code and
    InputEnsemble's clamped v and wrapped theta, and weights the rows with
    nonzero noise weight at 0 or at some eps.  Returns the noiseless
    ensemble, the settings and the weights, arrays with one entry per
    setting (None for an empty eps).  Raises OutOfRangeError with
    InputEnsemble's message for the first eps outside [0, 1].
    """
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1:
        raise OutOfRangeError(f"eps must be a 1-D array, got shape {eps.shape}")
    ens = InputEnsemble(v, theta, 0.0)
    inside = (eps >= 0.0) & (eps <= 1.0)
    if not inside.all():
        InputEnsemble(v, theta, eps[~inside][0])  # raises the scalar path's message
    settings = np.concatenate(([0.0], eps))
    if eps.size == 0:
        return ens, settings, None
    table = _curve_table(code, ens.v, ens.theta)
    plan = _plan(code)
    noise = _noise_weights(plan, settings[:, None])
    flips = noise.any(axis=0).nonzero()[0]
    # noise[:, flips] comes out F-ordered, so its transpose is C-contiguous;
    # the omega sum's order, and so its bits, follow that layout (a take
    # along axis 1 would change them).
    weights = _noise_sum(plan, [part.take(flips, 0) for part in table], noise[:, flips].T)
    return ens, settings, weights


def _zero_weight_error(code: GnuParams, ens: InputEnsemble, eps) -> ZeroSuccessProbabilityError:
    """The refusal of an error curve whose weight at the setting eps is too small."""
    return ZeroSuccessProbabilityError(
        f"codespace weight at most {MIN_SUCCESS_PROBABILITY} at "
        f"eps={eps} on (v={ens.v}, theta={ens.theta}) "
        f"for (g={code.g}, n={code.n}, u={code.u})"
    )


def max_errors(code: GnuParams, v: float, theta: float, eps, target: DensityMatrix1Q):
    """Worst-case output error over the channel settings {0, e} for each e in eps.

    The noiseless output pins the protocol's intent, the noisy one its
    degradation.  The weights come from _curve_weights, so a warm call gives
    the bits of a cold one; final_states checks every setting and
    trace_distances measures the states.
    Raises OutOfRangeError with InputEnsemble's message for the first eps
    outside [0, 1], and ZeroSuccessProbabilityError where
    codespace_projection would at 0 or at any eps.
    """
    ens, settings, weights = _curve_weights(code, v, theta, eps)
    if weights is None:
        return np.empty(0)
    accepted, m00, m11, m01 = final_states(*weights)
    if not accepted.all():
        raise _zero_weight_error(code, ens, settings[~accepted][0])
    errors = trace_distances(m00, m11, m01, target)
    return np.maximum(errors[1:], errors[0])


def max_error(
    code: GnuParams, v: float, theta: float, eps: float, target: DensityMatrix1Q
) -> float:
    """max_errors at the single error weight eps, on the dataclass path.

    The same weight step, then _checked_states on its two settings: every
    accepted setting is checked before the first at or below
    MIN_SUCCESS_PROBABILITY is refused, and trace_distance measures the
    states.  The value, error class and message are max_errors'.
    """
    ens, settings, weights = _curve_weights(code, v, theta, [eps])
    accepted, states = _checked_states(weights)
    if not all(accepted):
        raise _zero_weight_error(code, ens, settings[accepted.index(False)])
    return max(trace_distance(state, target) for state in states)
