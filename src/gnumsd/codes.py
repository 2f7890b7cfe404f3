"""gnu-code logical states, as sparse Dicke-weight coefficients and dense vectors.

A gnu code on N = g*n*u qubits has logical states supported on Dicke states of
excitation g*j: even j for logical 0, odd j for logical 1, with amplitudes
sqrt(2^-(n-1) * C(n, j)).  The sparse weight->coefficient map is the canonical
representation; dense 2^N vectors exist only to feed the brute-force oracle.

Dense-vector bit convention: bit k of the integer index holds qubit k, with
qubit 0 the least significant bit.  Every state built here is permutation
invariant, so nothing downstream depends on the choice, but the circuit
simulation needs one fixed convention.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .qmath import MAX_QUBITS, binomial

MAX_DENSE_QUBITS = 12


@dataclass(frozen=True)
class GnuParams:
    """Code parameters (g, n, u); u may be fractional as long as g*n*u is integral."""

    g: int
    n: int
    u: float

    def __post_init__(self) -> None:
        # Before any int() or round(), which raise OverflowError or ValueError on them.
        for name, value in (("g", self.g), ("n", self.n), ("u", self.u)):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer too large for a float: echo none of its digits
                raise OutOfRangeError(f"{name} is too large for a float") from None
            if not finite:
                raise OutOfRangeError(f"{name} must be finite, got {value!r}")
        if int(self.g) != self.g or self.g < 1:
            raise OutOfRangeError(f"g must be a positive integer, got {self.g!r}")
        if int(self.n) != self.n or self.n < 1:
            raise OutOfRangeError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "g", int(self.g))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "u", float(self.u))
        if not self.u > 0:
            raise OutOfRangeError(f"u must be positive, got {self.u!r}")
        try:
            total = self.g * self.n * self.u
            n_qubits = round(total)
        except OverflowError:  # g*n too large for a float, or g*n*u infinite
            raise OutOfRangeError(f"N = g*n*u exceeds the cap of {MAX_QUBITS}") from None
        if abs(total - n_qubits) > 1e-9:
            raise OutOfRangeError(f"g*n*u must be an integer, got {total!r}")
        if n_qubits > MAX_QUBITS:
            raise OutOfRangeError(f"N = g*n*u = {n_qubits} exceeds the cap of {MAX_QUBITS}")
        if self.g * self.n > n_qubits:
            raise OutOfRangeError("g*n may not exceed N = g*n*u (requires u >= 1 effectively)")

    @property
    def num_qubits(self) -> int:
        return int(round(self.g * self.n * self.u))


def logical_state_coeffs(code: GnuParams, bit: int) -> dict[int, float]:
    """Dicke-weight coefficients of the logical |bit> state.

    Nonzero entries sit at weights g*j for j of parity `bit`, 0 <= j <= n,
    with coefficient sqrt(2^-(n-1) * C(n, j)); the squares sum to one.
    """
    if bit not in (0, 1):
        raise OutOfRangeError(f"bit must be 0 or 1, got {bit!r}")
    prefactor = 2.0 ** (-(code.n - 1))
    return {
        code.g * j: math.sqrt(prefactor * binomial(code.n, j))
        for j in range(bit, code.n + 1, 2)
    }


def dicke_vector(n_qubits: int, weight: int) -> np.ndarray:
    """Dense Dicke state |D^N_w>: amplitude 1/sqrt(C(N, w)) on weight-w strings."""
    if not 0 <= n_qubits <= MAX_DENSE_QUBITS:
        raise OutOfRangeError(f"dense vectors need 0 <= N <= {MAX_DENSE_QUBITS}, got {n_qubits}")
    if not 0 <= weight <= n_qubits:
        raise OutOfRangeError(f"weight must lie in [0, {n_qubits}], got {weight}")
    amplitude = 1.0 / math.sqrt(binomial(n_qubits, weight))
    vec = np.zeros(2**n_qubits)
    for positions in itertools.combinations(range(n_qubits), weight):
        vec[sum(1 << p for p in positions)] = amplitude
    return vec


def logical_vector(code: GnuParams, bit: int) -> np.ndarray:
    """Dense 2^N amplitude vector of the logical |bit> state."""
    n_qubits = code.num_qubits
    if n_qubits > MAX_DENSE_QUBITS:
        raise OutOfRangeError(
            f"dense logical vectors need N <= {MAX_DENSE_QUBITS}, got {n_qubits}"
        )
    vec = np.zeros(2**n_qubits)
    for weight, coeff in logical_state_coeffs(code, bit).items():
        vec += coeff * dicke_vector(n_qubits, weight)
    return vec
