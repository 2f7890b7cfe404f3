"""Exact combinatorics and single-qubit linear algebra.

Conventions used everywhere in the package: a single-qubit density matrix is
stored as (m00, m11, m01) with m10 implied by Hermiticity, and Pauli
expectations follow rho = (I + x X + y Y + z Z) / 2, so m01 = (x - i y) / 2.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError

# The package's one size cap: GnuParams accepts codes of N = g*n*u <= MAX_QUBITS
# qubits, so every combinatorial weight of a projection has n <= MAX_QUBITS.
MAX_QUBITS = 60

# Rounding slack of every state check (populations, traces, coherences).
STATE_TOLERANCE = 1e-12

# T-type magic state angle, cos(2 beta) = 1/sqrt(3); Bloch vector (1,1,1)/sqrt(3).
T_STATE_BETA = 0.5 * math.acos(1.0 / math.sqrt(3.0))
# H-type magic state sits at pi/8 in the x-z plane.
H_STATE_ANGLE = math.pi / 8.0


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) for 0 <= k <= n.

    Integer arithmetic (math.comb), so the combinatorial weights carry no
    floating-point error.  No cap on n: the size cap MAX_QUBITS belongs to
    the codes GnuParams accepts.
    """
    if k < 0 or n < 0 or k > n:
        raise OutOfRangeError(f"binomial requires 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def squared_modulus(z):
    """|z|^2 without hypot, whose math and numpy forms can differ by 1 ulp."""
    return z.real * z.real + z.imag * z.imag


def _require_finite(*values: complex) -> None:
    if not all(map(cmath.isfinite, values)):
        raise OutOfRangeError("non-finite component")


@dataclass(frozen=True)
class PureQubit:
    """Normalised single-qubit pure state c0|0> + c1|1>."""

    c0: complex
    c1: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", complex(self.c0))
        object.__setattr__(self, "c1", complex(self.c1))
        _require_finite(self.c0, self.c1)
        norm = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if abs(norm - 1.0) > STATE_TOLERANCE:
            raise OutOfRangeError(f"state is not normalised: |c0|^2 + |c1|^2 = {norm!r}")

    def density(self) -> "DensityMatrix1Q":
        return DensityMatrix1Q(
            abs(self.c0) ** 2, abs(self.c1) ** 2, self.c0 * self.c1.conjugate()
        )


@dataclass(frozen=True)
class DensityMatrix1Q:
    """Single-qubit density matrix; m10 is the conjugate of m01.

    Populations down to -STATE_TOLERANCE are clamped to zero; anything more
    negative, a trace away from one, or a coherence violating positive
    semidefiniteness is rejected as a logic error upstream.
    """

    m00: float
    m11: float
    m01: complex

    def __post_init__(self) -> None:
        m00, m11, m01 = float(self.m00), float(self.m11), complex(self.m01)
        _require_finite(m00, m11, m01)
        if m00 < -STATE_TOLERANCE or m11 < -STATE_TOLERANCE:
            raise OutOfRangeError(f"negative population: m00={m00!r}, m11={m11!r}")
        m00, m11 = max(m00, 0.0), max(m11, 0.0)
        if abs(m00 + m11 - 1.0) > STATE_TOLERANCE:
            raise OutOfRangeError(f"trace is {m00 + m11!r}, expected 1")
        if squared_modulus(m01) > m00 * m11 + STATE_TOLERANCE:
            raise OutOfRangeError("coherence violates positive semidefiniteness")
        object.__setattr__(self, "m00", m00)
        object.__setattr__(self, "m11", m11)
        object.__setattr__(self, "m01", m01)


def t_state() -> PureQubit:
    """T-type magic state cos(beta)|0> + e^{i pi/4} sin(beta)|1>."""
    return PureQubit(
        math.cos(T_STATE_BETA),
        cmath.exp(1j * math.pi / 4.0) * math.sin(T_STATE_BETA),
    )


def h_state() -> PureQubit:
    """H-type magic state cos(pi/8)|0> + sin(pi/8)|1>."""
    return PureQubit(math.cos(H_STATE_ANGLE), math.sin(H_STATE_ANGLE))


def _trace_distance(m00, m11, m01, sigma: DensityMatrix1Q, sqrt):
    """(1/2) * sum of |eigenvalues| of rho - sigma, before the clip to [0, 1].

    Closed 2x2 form with only IEEE +, *, abs and sqrt (entries are at most 1,
    so no overflow).  math.sqrt and np.sqrt both round correctly, so a state
    gives the same bits on floats as in arrays of any shape.
    """
    d0 = m00 - sigma.m00
    d1 = m11 - sigma.m11
    q = m01 - sigma.m01
    mean = 0.5 * (d0 + d1)
    half_gap = 0.5 * (d0 - d1)
    radius = sqrt(half_gap * half_gap + squared_modulus(q))
    return 0.5 * (abs(mean + radius) + abs(mean - radius))


def trace_distances(m00, m11, m01, sigma: DensityMatrix1Q):
    """Trace distance to sigma of each state given by arrays of matrix elements."""
    return np.clip(_trace_distance(m00, m11, m01, sigma, np.sqrt), 0.0, 1.0)


def trace_distance(rho: DensityMatrix1Q, sigma: DensityMatrix1Q) -> float:
    """trace_distances at rho, on floats: min(max(x, 0.0), 1.0) is np.clip's clip."""
    return min(max(_trace_distance(rho.m00, rho.m11, rho.m01, sigma, math.sqrt), 0.0), 1.0)


def pauli_expectations(rho: DensityMatrix1Q) -> tuple[float, float, float, float]:
    """Expectations (<I>, <X>, <Y>, <Z>) of a single-qubit density matrix."""
    return (
        rho.m00 + rho.m11,
        2.0 * rho.m01.real,
        -2.0 * rho.m01.imag,
        rho.m00 - rho.m11,
    )


def _m2(fourth_powers):
    """-log2((1/4) * sum_P Tr(P rho)^4) - log2(2) from the fourth powers of <I>, <X>, <Y>, <Z>.

    The one m2 formula of both carriers, as _trace_distance is the one
    trace distance: the powers are added in that order, as Python floats or
    as arrays, and np.log2 takes the sum.  Each power must come from
    numpy's pow on an array, which Python's ** does not match bit for bit,
    so a state gives the same bits on floats as in arrays of any shape.
    """
    p_i, p_x, p_y, p_z = fourth_powers
    return -np.log2(0.25 * (p_i + p_x + p_y + p_z)) - 1.0


def m2_densities(m00, m11, m01):
    """Stabiliser 2-Renyi magic of each state given by arrays of matrix elements.

    _m2 over the single-qubit Pauli group, the four expectations stacked
    into one array for one pow.  The same fourth-power formula is applied
    to mixed states as well, where it is no longer bounded by the
    pure-state maximum (the maximally mixed state evaluates to 1); callers
    that need a monotone on mixed inputs should be aware of this.
    """
    return _m2(np.array((m00 + m11, 2.0 * m01.real, -2.0 * m01.imag, m00 - m11)) ** 4)


def m2_density(rho: DensityMatrix1Q) -> float:
    """m2_densities at rho, bit for bit.

    One numpy pow on its four Pauli expectations as a 4-element array, then
    _m2 on the powers as Python floats: np.log2 runs on the one sum.
    """
    return float(_m2((np.array(pauli_expectations(rho)) ** 4).tolist()))


def m2_pure(psi: PureQubit) -> float:
    """Stabiliser 2-Renyi magic of a pure state (0 exactly on stabiliser states)."""
    return m2_density(psi.density())
