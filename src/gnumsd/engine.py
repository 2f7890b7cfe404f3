"""Analytic output-state pipeline.

The protocol projects N = g*n*u copies of a noisy input qubit onto a gnu
codespace and decodes the surviving two-dimensional block.  Everything here
works with sums over Hamming weights (never 2^N objects): the overlap of a
product input state with a Dicke state depends on the input string only
through its weight omega, which is what keeps the whole pipeline O(N^3).

The overlap of a weight-omega input string with the j-th logical Dicke
component is e^{i g j theta} times a real amplitude, the x^{gj} coefficient
of (cos v + sin v x)^(N-omega) (sin v - cos v x)^omega, and eps enters only
through the binomial weight of omega flipped inputs.  Two kernels evaluate
it, each shaped for its input class, and share only the row builder; the
input, not the caller, picks one.  An eps = 0 point, one v or a vector of
them, reads the omega = 0 kernel; a noisy point and every error curve read
the one-point kernel's whole table.
The one-point kernel, `_sum_rows`, works at one (v, theta) on fixed-rank
arrays and always fills the whole (N + 1, 4) table, one row per
omega = 0..N.  Everything in the coefficient that does not depend on v sits
in a per-code plan, built once per code at full size: a t-major index table
mapping each (factor, r, omega) to a position in one flat power table
[cos^k, sin^k for k = 0..N | (-cos)^k for k = 0..g*n], the matching
binomials, the (t, j) gather of the coefficient product and its
normalisation.  The (-cos v) block ends at g*n because only the flipped
factor's b^r reads it, and it stays a pow: numpy's pow on a negative base
is slow, but +-cos^k v differs from (-cos v)^k in the last bits.  Each
(r, omega) table ends in a sentinel row with a 0.0 binomial, where the
clean factor is exactly +0, and the gather sends every (t, j) with g*j < t
there, so no mask multiply is needed.  A call fills the power table in one
pow, reads both factors of every omega in one take and two multiplies,
gathers the (t, j, omega) products and adds their contiguous (j, omega)
slabs in ascending t, and `_logical_rows` writes the real per-omega rows
[|even|^2, |odd|^2, Re, Im of even * conj(odd)] from the C-ordered
(omega, j) amplitudes.
It serves a noisy `codespace_projection`, `_curve_table` and
`dicke_overlap`, which reads row omega of its amplitudes.
The omega = 0 kernel, `_noiseless_weights`, takes a float or a whole vector
of v at one theta and eps = 0, where omega = 0 alone has noise weight, the
flipped factor is exactly 1.0 and the t-sum has one term: each amplitude is
C(N, g*j) cos^(N - g*j) v sin^(g*j) v times its scale, with no gather, no
contraction and no negative-base pow.  `_logical_rows` writes its sums in
the one-point kernel's row layout, one row per v, and one in-place scale
and one + 0.0 over the whole table make them weights.  It serves
`codespace_projection` at eps = 0 (so `distilled_state`, the solver's
confirmation of each root and `solve_for_magic`'s bisection) and
`noiseless_states`, the magic curve's one call for all of its v.  Both
kernels give the same amplitude bits at omega = 0 and add each j-sum
pairwise along a row, so a noiseless state has the same bits in either, as
the tests check; `codespace_projection` reads one 4-float row from either
kernel, with one tolist and complex(re, im).
`max_errors` takes one (v, theta) and a whole vector of eps, which is how
error curves evaluate a threshold grid or a figure's eps column in one
call, and `max_error` is its one-point twin.  Every noisy omega sum is
`_weigh`'s: real rows [|even|^2, |odd|^2, Re, Im of even * conj(odd)],
weighted by logical_norm times their noise weight and added in ascending
omega from +0, so a noisy projection, both curve paths and a curve's
eps = 0 leg give the same bits at the same (v, theta, eps).  Beside the
plan, the curve paths keep a second cache, `_curve_table`: one entry per
(code, v, theta) with v and theta as InputEnsemble clamps and wraps them,
at most CURVE_TABLES of them, read-only.  An entry holds the whole table
and the curve's eps = 0 leg, its row omega = 0 checked once as the entry is
built: the noiseless output state, or its weight where that setting is too
weak to normalise.  Only the noise weights depend on eps, so every point of
an error curve, scalar calls and bisection steps included, reads one entry
and runs only its own eps: the weighted omega sum over the whole table,
that setting's checks and the refusal (`_refuse_zero_weight`, the one curve
refusal of both).  `max_errors` screens its settings as arrays;
`max_error`, its noise row from the same numpy pow, checks its one setting
in Python numbers.  The tests keep the term-by-term sum as the reference
`dicke_overlap` is checked against.
The dataclass pair `CodespaceProjection` + `final_state` (which builds a
`DensityMatrix1Q`) is the one definition of the state checks, their order
and their messages.  `distilled_state` runs it on one point, and
`_checked_point` (~5 us a point) on one point's weights, for `max_error`'s
setting and a table's eps = 0 leg; `final_states` only screens an array
with the same comparisons in one pass and hands its points to
`_checked_point` in order when the screen flags one, so a rejection raises
the pair's own error for the first point it rejects.  `_zero_weight_error`
words every refusal of a setting too weak to normalise, curves included.
"""
from __future__ import annotations

import cmath
import math
import operator
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

    The one-point kernel's (r, omega) tables are t-major: they run over the
    powers r = 0..g*n that reach a logical component, plus one sentinel row
    r = g*n + 1, and within each r over the flip counts omega = 0..N, so a
    gathered r is one contiguous omega row; a call reads every entry.  Each
    (factor, r, omega) entry of index is a position in the call's flat power
    table [cos^k, sin^k for k = 0..N | (-cos)^k for k = 0..g*n]: factors 0
    and 1 are the a^(m - r) of the flipped (degree omega, a = sin v) and
    clean (degree N - omega, a = cos v) factors, 2 and 3 their b^r
    (b = -cos v and sin v).  Only the flipped factor's b^r reads
    the (-cos v) block, so it ends at g*n.  The sentinel row reads a^0
    and b^0 against a 0.0 binomial, so the clean factor holds exactly +0
    there.  The omega = 0 kernel reads noiseless_binomial,
    noiseless_exponents, scale, phase_rates and logical_norm.
    """

    omegas: np.ndarray  # 0..N: noise exponents
    noise_binomial: np.ndarray  # C(N, omega)
    power_bases: np.ndarray  # power-table entry -> 0, 1, 2 for cos v, sin v, -cos v
    power_exponents: np.ndarray  # power-table entry -> k, as a float
    index: np.ndarray  # (factor, r, omega) -> position in the flat power table
    binomial: np.ndarray  # (2, r, omega): C(omega, r) and C(N - omega, r), 0.0 in the sentinel row
    gather: np.ndarray  # (t, j) -> row g*j - t of the clean factor, the sentinel where g*j < t
    noiseless_binomial: np.ndarray  # C(N, g*j), the omega = 0 clean factor at r = g*j
    noiseless_exponents: np.ndarray  # (2, j): N - g*j of cos v and g*j of sin v, as floats
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
    degrees = np.stack((omegas, n_qubits - omegas))[:, None, :]  # flipped, clean
    # (factor, r, omega) exponents of a, then of b; a^0 and b^0 in the sentinel row.
    exponents = np.empty((4,) + r.shape + omegas.shape, dtype=np.intp)
    exponents[:2] = np.maximum(degrees - r[:, None], 0)
    exponents[2:] = r[:, None]
    exponents[:, sentinel] = 0
    blocks = (n_qubits + 1) * np.array([1, 0, 2, 1])  # sin, cos, -cos, sin
    binomial = _binomials(range(n_qubits + 1), r)[degrees, r[:, None]]
    binomial[:, sentinel] = 0.0
    column = -np.subtract.outer(r[:sentinel], excitations)  # (t, j) -> g*j - t
    counts = [n_qubits + 1, n_qubits + 1, sentinel]
    plan = _Plan(
        omegas=omegas,
        noise_binomial=_binomials([n_qubits], omegas)[0],
        power_bases=np.repeat(np.arange(3), counts),
        power_exponents=np.concatenate([omegas[:count] for count in counts]).astype(float),
        index=exponents + blocks[:, None, None],
        binomial=binomial,
        # Every g*j < t to -1, which the modulus takes to the sentinel: no
        # integer comparison, whose first use in a process costs ~0.2 MB resident.
        gather=np.maximum(column, -1) % (sentinel + 1),
        noiseless_binomial=_binomials([n_qubits], excitations)[0],
        noiseless_exponents=np.stack((n_qubits - excitations, excitations)).astype(float),
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


def _power_table(plan: _Plan, v: float):
    """The flat power table at v: [cos^k, sin^k for k = 0..N | (-cos)^k for k = 0..g*n].

    One pow per entry, so each entry has the bits of its own pow: (-cos v)^k
    stays a pow, since +-cos^k v differs from it in the last bits.
    """
    cos_v = math.cos(v)
    return np.array((cos_v, math.sin(v), -cos_v))[plan.power_bases] ** plan.power_exponents


def _point_amplitudes(plan: _Plan, v: float):
    """Real amplitudes of the logical components at one v, C-ordered (omega, j).

    The x^{gj} coefficient of (cos v + sin v x)^(N-omega) (sin v - cos v x)^omega
    for every omega = 0..N, scaled by sqrt(C(n, j) / C(N, gj)).  Each factor's
    x^r coefficient is C(m, r) a^(m - r) b^r, its powers read from the flat
    power table.
    """
    factors = _power_table(plan, v).take(plan.index)
    coefficients = plan.binomial * factors[:2]
    coefficients *= factors[2:]
    # (t, j, omega) products flipped[t] * clean[g*j - t] for t = 0..g*n,
    # summed over t; the flipped factor is +-0 past t = omega, and where
    # g*j < t the gather reads the clean factor's +0 sentinel row.
    # take copies whole omega rows into a fresh C-contiguous array, and the
    # sum adds its contiguous (j, omega) slabs one by one in ascending t, as
    # a loop over t adding into the amplitudes would; the product is taken
    # in place to hold one such array, not two.  np.add.reduce is what
    # ndarray.sum calls, minus its Python wrapper.
    amplitude = coefficients[1].take(plan.gather, axis=0)
    amplitude *= coefficients[0, :-1, None, :]  # the flipped factor without its sentinel
    amplitude = np.add.reduce(amplitude, 0)
    # C order: _sum_rows adds each j-sum pairwise along a contiguous row, and
    # numpy would add a row of the transposed view in sequence, in other bits.
    return np.multiply(amplitude.T, plan.scale, order="C")


def _logical_rows(terms):
    """Real rows [|even|^2, |odd|^2, Re, Im of even * conj(odd)], one per row of terms.

    terms holds complex (row, j) logical terms, j = 0..n; even and odd are
    the sums of their even and odd j, each added pairwise, numpy's reduce
    along a row.  The coherence is numpy's complex product of arrays, whose
    bits a scalar product need not give.
    """
    even = np.add.reduce(terms[:, 0::2], 1)
    odd = np.add.reduce(terms[:, 1::2], 1)
    rows = np.empty((even.size, 4))
    rows[:, 0] = squared_modulus(even)
    rows[:, 1] = squared_modulus(odd)
    rows.view(complex)[:, 1] = even * odd.conj()
    return rows


def _sum_rows(plan: _Plan, v: float, theta: float):
    """The one-point kernel: _logical_rows at one (v, theta) for every omega = 0..N.

    Returns _weigh's real (N + 1, 4) rows; nothing here depends on eps.
    """
    return _logical_rows(_point_amplitudes(plan, v) * np.exp(plan.phase_rates * theta))


def _weigh(plan: _Plan, rows, noise):
    """The one noisy omega sum: the rows weighted by logical_norm * noise, summed over omega.

    rows holds per-omega logical sums as real (omega, ..., 4) arrays
    [|even|^2, |odd|^2, Re, Im of even * conj(odd)], and noise their noise
    weights, shape (omega, ...).  numpy adds an outer axis row by row when
    the rows end in those 4 columns (a lone column would be coalesced into
    its blocked 1-D reduce), so omega is added in ascending order, and
    + 0.0 turns an all -0 sum into +0.  A finite row with zero noise weight
    then changes no bit: the whole table gives the weights of the rows that
    carry noise weight alone.
    """
    return np.add.reduce((plan.logical_norm * noise)[..., None] * rows, 0) + 0.0


def _split(weights):
    """Views w00, w11 and complex w01 of real rows [w00, w11, Re, Im of w01], for final_states."""
    return weights[..., 0], weights[..., 1], weights[..., 2:].view(complex)[..., 0]


def _curve_weights(plan: _Plan, sums, eps):
    """Codespace weights (w00, w11, w01) at each eps of a 1-D array, from a table's sums.

    The whole table is weighed at every eps, as codespace_projection and
    max_error weigh it at one.
    """
    noise = _noise_weights(plan, eps[:, None])
    # A C-contiguous (omega, eps) block: weighing the transposed view runs
    # ~2.5x slower, with the same bits.
    return _split(_weigh(plan, sums[:, None], np.ascontiguousarray(noise.T)))


class _CurveTable(NamedTuple):
    """The logical sums of one code at one (v, theta), read by every eps of an error curve."""

    sums: np.ndarray  # read-only (N + 1, 4) rows of _weigh, one per omega = 0..N
    noiseless: DensityMatrix1Q | float  # the checked eps = 0 state, or its weight if refused


@lru_cache(maxsize=CURVE_TABLES)
def _curve_table(code: GnuParams, v: float, theta: float) -> _CurveTable:
    """The one-point kernel's whole table at one (v, theta), and its eps = 0 leg.

    All that max_errors and max_error need besides the noise weights, so
    every eps of an error curve shares it.  The eps = 0 weights are the
    table's row omega = 0 weighed at its noise weight 1.0, the one row with
    noise weight at eps = 0; _checked_point checks them here, once per
    entry, which keeps the state, or the weight where it is too small to
    normalise, so every call can refuse it without raising here.  v and
    theta come clamped and wrapped by InputEnsemble, so equal keys build
    equal tables.  The entry is shared by every call and so read-only.
    """
    plan = _plan(code)
    sums = _sum_rows(plan, v, theta)
    sums.setflags(write=False)
    w00, w11, re, im = _weigh(plan, sums[:1], np.ones(1)).tolist()
    state = _checked_point(w00, w11, complex(re, im))
    return _CurveTable(sums, w00 + w11 if state is None else state)


def dicke_overlap(s: int, omega: int, v: float, theta: float, n_qubits: int) -> complex:
    """Overlap <D^N_s | phi_x> for any input string x of Hamming weight omega.

    A one-point read of _point_amplitudes on the (1, N, 1) code, whose j-th
    logical component is the weight-j Dicke state with scale exactly 1.0:
    the overlap is amplitude[s] / sqrt(C(N, s)) times e^{i s theta}.  Any
    finite v is taken; the indices may be any integers, numpy's included.
    """
    try:
        s, omega, n_qubits = operator.index(s), operator.index(omega), operator.index(n_qubits)
    except TypeError:
        raise OutOfRangeError(
            f"s, omega and n_qubits must be integers, got {s!r}, {omega!r}, {n_qubits!r}"
        ) from None
    if not (math.isfinite(v) and math.isfinite(theta)):
        raise OutOfRangeError(f"v and theta must be finite, got v={v!r}, theta={theta!r}")
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise OutOfRangeError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n_qubits}")
    if not (0 <= s <= n_qubits and 0 <= omega <= n_qubits):
        raise OutOfRangeError(f"need 0 <= s, omega <= {n_qubits}, got s={s}, omega={omega}")
    plan = _plan(GnuParams(1, n_qubits, 1))
    amplitude = _point_amplitudes(plan, v)[omega, s]
    return float(amplitude) / math.sqrt(math.comb(n_qubits, s)) * cmath.exp(1j * s * theta)


def _noiseless_weights(plan: _Plan, v, theta: float):
    """The omega = 0 kernel: codespace weights at eps = 0 and one theta, one row per v.

    Returns real rows [w00, w11, Re, Im of w01], _sum_rows' layout, of
    shape np.shape(v) + (4,).  At eps = 0 only omega = 0 has noise weight,
    exactly 1.0, the flipped factor is exactly 1.0 and the t-sum has one
    term, so each amplitude is C(N, g*j) cos^(N - g*j) v sin^(g*j) v times
    its scale: the one-point kernel's omega = 0 bits with no gather, no
    contraction and no negative base.  _logical_rows builds the rows, as
    the one-point kernel builds its own; the weights are logical_norm times
    them, and + 0.0 turns a -0 into +0 as a one-row sum over omega would.
    Scaled as two real columns, the coherence differs from a complex scale
    only in zero signs, which the + 0.0 after the scale clears.
    """
    v = np.asarray(v, dtype=float)
    # math.cos/math.sin per v, so a vector of v gives the same bits as one v.
    flat = v.ravel().tolist()
    trig = np.array((list(map(math.cos, flat)), list(map(math.sin, flat))))
    powers = trig[..., None] ** plan.noiseless_exponents[:, None, :]
    amplitude = plan.noiseless_binomial * powers[0]
    amplitude *= powers[1]
    amplitude *= plan.scale
    # (v, j) rows, as the one-point kernel's (omega, j).
    weights = _logical_rows(amplitude * np.exp(plan.phase_rates * theta))
    weights *= plan.logical_norm
    weights += 0.0
    return weights.reshape(v.shape + (4,))


def noiseless_states(code: GnuParams, v, theta: float):
    """Checked noiseless output states for each v at one angle theta.

    Returns final_states' (accepted, m00, m11, m01) over the _split rows
    of _noiseless_weights, each of v's shape; v, a float or an array of
    them, and theta must already be clamped and wrapped, as InputEnsemble
    does.  This is how the magic curve evaluates all of its v in one call;
    a single eps = 0 point reads the same kernel through
    codespace_projection.
    """
    return final_states(*_split(_noiseless_weights(_plan(code), v, theta)))


def codespace_projection(code: GnuParams, ens: InputEnsemble) -> CodespaceProjection:
    """Project N noisy copies onto the codespace and read the logical block.

    The input picks the kernel: at eps = 0 the omega = 0 kernel's row,
    otherwise the one-point kernel's whole table weighed and summed over
    omega by _weigh.  Both give the same bits at eps = 0.  Raises
    ZeroSuccessProbabilityError when the total codespace weight is too
    small to normalise downstream.
    """
    plan = _plan(code)
    if ens.eps == 0.0:
        row = _noiseless_weights(plan, ens.v, ens.theta)
    else:
        row = _weigh(plan, _sum_rows(plan, ens.v, ens.theta), _noise_weights(plan, ens.eps))
    w00, w11, re, im = row.tolist()
    if w00 + w11 <= MIN_SUCCESS_PROBABILITY:
        raise _zero_weight_error(code, ens, w00 + w11)
    return CodespaceProjection(w00, w11, complex(re, im))


def _zero_weight_error(code: GnuParams, ens: InputEnsemble, weight: float):
    """The one refusal of a setting whose codespace weight is too small to normalise."""
    return ZeroSuccessProbabilityError(
        f"codespace weight {weight!r} at (v={ens.v}, theta={ens.theta}, "
        f"eps={ens.eps}) on (g={code.g}, n={code.n}, u={code.u})"
    )


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


def _checked_point(w00: float, w11: float, w01: complex) -> DensityMatrix1Q | None:
    """The dataclass pair's verdict on one point's weights.

    None where the total weight is at most MIN_SUCCESS_PROBABILITY, else
    final_state(CodespaceProjection(w00, w11, w01)), which raises what the
    pair raises.
    """
    if w00 + w11 <= MIN_SUCCESS_PROBABILITY:
        return None
    return final_state(CodespaceProjection(w00, w11, w01))


@np.errstate(over="ignore", invalid="ignore")
def final_states(w00, w11, w01):
    """_checked_point over arrays, screened in one pass.

    Returns (accepted, m00, m11, m01), the state arrays holding the accepted
    points only.  The screen runs the pair's comparisons, which nan fails,
    and sends the accepted points to _checked_point in order if any fails,
    so the first rejected point raises the pair's own error.  Weights that pass
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
        for point in zip(w00.tolist(), w11.tolist(), w01.tolist()):
            _checked_point(*point)
    return accepted, m00, m11, m01


def distilled_state(code: GnuParams, ens: InputEnsemble) -> DensityMatrix1Q:
    """Convenience composition of codespace_projection and final_state."""
    return final_state(codespace_projection(code, ens))


def _refuse_zero_weight(code: GnuParams, v, theta, noiseless, refused):
    """Refuse the first channel setting too weak to normalise, eps = 0 first.

    The one curve refusal of max_errors and max_error, raised only after
    every setting has been checked, with codespace_projection's error.
    noiseless is the table's eps = 0 leg, a float where it was refused;
    refused is (eps, weight) of the first refused setting of eps, or None.
    """
    if isinstance(noiseless, float):
        refused = 0.0, noiseless
    if refused is not None:
        eps, weight = refused
        raise _zero_weight_error(code, InputEnsemble(v, theta, eps), weight)


def max_errors(code: GnuParams, v: float, theta: float, eps, target: DensityMatrix1Q):
    """Worst-case output error over the channel settings {0, e} for each e in eps.

    The noiseless output pins the protocol's intent, the noisy one its
    degradation.  eps (a 1-D array) only enters through the noise weights
    of omega flipped inputs, so every call at one (v, theta) on a code
    reads one _curve_table entry, which holds the checked eps = 0 leg, and
    _weigh sums its whole table at every eps.  final_states checks every
    eps before the first setting too weak to normalise is refused, so a
    warm call gives the bits of a cold one, and trace_distances measures
    the states.
    Raises OutOfRangeError with InputEnsemble's message for the first eps
    outside [0, 1], and ZeroSuccessProbabilityError, with its message,
    where codespace_projection would at 0 or at any eps.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1:
        raise OutOfRangeError(f"eps must be a 1-D array, got shape {eps.shape}")
    ens = InputEnsemble(v, theta, 0.0)
    inside = (eps >= 0.0) & (eps <= 1.0)
    if not inside.all():
        InputEnsemble(v, theta, eps[~inside][0])  # raises the scalar path's message
    if eps.size == 0:
        return np.empty(0)
    table = _curve_table(code, ens.v, ens.theta)
    w00, w11, w01 = _curve_weights(_plan(code), table.sums, eps)
    accepted, *states = final_states(w00, w11, w01)
    first = accepted.argmin()  # the first refused setting, if any
    refused = None if accepted[first] else (eps[first], float(w00[first] + w11[first]))
    _refuse_zero_weight(code, v, theta, table.noiseless, refused)
    return np.maximum(trace_distances(*states, target), trace_distance(table.noiseless, target))


def max_error(
    code: GnuParams, v: float, theta: float, eps: float, target: DensityMatrix1Q
) -> float:
    """max_errors at the single error weight eps, with no array step past its weights.

    _weigh sums the whole cached table at this eps, as max_errors does at
    each of its eps, and _checked_point checks the setting with the
    dataclass pair before the table's eps = 0 leg, then this setting, may be
    refused; trace_distance measures both states.  The value, error class
    and message are max_errors'.
    """
    ens = InputEnsemble(v, theta, 0.0)
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        InputEnsemble(v, theta, eps)  # raises InputEnsemble's message
    table = _curve_table(code, ens.v, ens.theta)
    plan = _plan(code)
    w00, w11, re, im = _weigh(plan, table.sums, _noise_weights(plan, eps)).tolist()
    state = _checked_point(w00, w11, complex(re, im))
    refused = (eps, w00 + w11) if state is None else None
    _refuse_zero_weight(code, v, theta, table.noiseless, refused)
    return max(trace_distance(table.noiseless, target), trace_distance(state, target))
