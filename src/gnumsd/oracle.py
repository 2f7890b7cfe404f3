"""Brute-force validation paths: dense density matrices and a gate-level circuit.

Everything here deliberately ignores the analytic shortcuts.  States are full
2^N x 2^N matrices (N <= 12), projections are explicit inner products against
dense logical vectors, and the two-qubit protocol is run gate by gate.  The
analytic engine is validated against these paths, never the other way round.

Every circuit element, the post-selecting measurement included, is one `Gate`:
a 2x2 matrix on a target qubit, optionally controlled by one other qubit, and
`gate_unitary` is the one place that embeds it into the full 2^N matrix.

Dense matrices follow the bit convention of `codes`: bit k of an index holds
qubit k, qubit 0 is the least significant bit.  numpy's kron puts its first
factor on the most significant bits, so tensor products are written
highest-qubit-first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import MAX_DENSE_QUBITS, GnuParams, logical_vector
from .engine import CodespaceProjection, InputEnsemble
from .errors import DimensionMismatchError, OutOfRangeError, ZeroSuccessProbabilityError
from .qmath import DensityMatrix1Q


def validate_density(rho: np.ndarray, trace_atol: float = 1e-10) -> None:
    """Assert the invariants of a dense density matrix (test helper)."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=1e-12):
        raise OutOfRangeError("matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_atol:
        raise OutOfRangeError(f"trace is {np.trace(rho)!r}, expected 1")
    eigenvalues = np.linalg.eigvalsh(rho)
    if eigenvalues.min() < -1e-9:
        raise OutOfRangeError(f"negative eigenvalue {eigenvalues.min()!r}")


def _input_vectors(ens: InputEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """The clean and error single-qubit vectors of an input ensemble."""
    return tuple(np.array([state.c0, state.c1]) for state in (ens.clean_state(), ens.error_state()))


def build_rho_n(ens: InputEnsemble, n_qubits: int) -> np.ndarray:
    """Dense N-fold tensor power of the noisy single-qubit input state."""
    if not 1 <= n_qubits <= MAX_DENSE_QUBITS:
        raise OutOfRangeError(f"dense states need 1 <= N <= {MAX_DENSE_QUBITS}, got {n_qubits}")
    clean, error = _input_vectors(ens)
    rho1 = (1.0 - ens.eps) * np.outer(clean, clean.conj()) + ens.eps * np.outer(
        error, error.conj()
    )
    rho = rho1
    for _ in range(n_qubits - 1):
        rho = np.kron(rho, rho1)
    return rho


def product_state_vector(ens: InputEnsemble, bits: tuple[int, ...]) -> np.ndarray:
    """Dense |phi_x> for a specific error pattern x (bits[k] = qubit k)."""
    single = _input_vectors(ens)
    vec = np.array([1.0 + 0j])
    for bit in reversed(bits):  # highest qubit first under the kron convention
        vec = np.kron(vec, single[bit])
    return vec


def permute_qubits(rho: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """Relabel qubits of a dense matrix: qubit k of the input becomes perm[k]."""
    n_qubits = len(perm)
    if rho.shape != (2**n_qubits, 2**n_qubits):
        raise DimensionMismatchError(f"shape {rho.shape} does not match {n_qubits} qubits")
    if sorted(perm) != list(range(n_qubits)):
        raise OutOfRangeError(f"not a permutation: {perm!r}")
    # Tensor axis n_qubits-1-k holds qubit k (rows), then the same for columns.
    source = [0] * n_qubits  # source[axis] = the input axis moved there
    for src, dst in enumerate(perm):
        source[n_qubits - 1 - dst] = n_qubits - 1 - src
    tensor = rho.reshape((2,) * (2 * n_qubits))
    return tensor.transpose(source + [n_qubits + axis for axis in source]).reshape(rho.shape)


def project_and_decode(rho: np.ndarray, code: GnuParams) -> CodespaceProjection:
    """Read the logical-basis block of a dense state: the brute-force (w00, w11, w01).

    Identical to conjugating by the codespace projector and expressing the
    result in the logical basis, which is how the decoded output state is
    defined.
    """
    n_qubits = code.num_qubits
    if rho.shape != (2**n_qubits, 2**n_qubits):
        raise DimensionMismatchError(
            f"state has shape {rho.shape}, code needs {(2**n_qubits, 2**n_qubits)}"
        )
    zero_l = logical_vector(code, 0)
    one_l = logical_vector(code, 1)
    w00 = np.vdot(zero_l, rho @ zero_l).real
    w11 = np.vdot(one_l, rho @ one_l).real
    w01 = complex(np.vdot(zero_l, rho @ one_l))
    return CodespaceProjection(w00, w11, w01)


# --- gate-level simulation of the two-qubit protocol ---------------------

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def _rz(angle: float) -> np.ndarray:
    phase = np.exp(0.5j * angle)
    return np.diag([phase.conjugate(), phase])


@dataclass(frozen=True)
class Gate:
    """One circuit element: a 2x2 matrix on the last of `qubits`.

    With two qubits the first is the control: the matrix acts where the
    control holds 1 and the identity where it holds 0.  `kind` names the
    element ("cnot", "ch", "1q" or "post") so circuits can be counted.  The
    matrix is kept as a tuple of row tuples of its entries, so gates that
    act differently compare unequal and every gate hashes.  Raises
    DimensionMismatchError unless the matrix is 2x2.
    """

    kind: str
    qubits: tuple[int, ...]
    matrix: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix)
        if matrix.shape != (2, 2):
            raise DimensionMismatchError(f"gate {self.kind} has a {matrix.shape} matrix, not 2x2")
        object.__setattr__(self, "matrix", tuple(map(tuple, matrix.tolist())))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target), _PAULI_X)


def controlled_h(control: int, target: int) -> Gate:
    return Gate("ch", (control, target), _HADAMARD)


def single_qubit(qubit: int, matrix: np.ndarray) -> Gate:
    return Gate("1q", (qubit,), np.asarray(matrix, dtype=complex))


def post_select(qubit: int, accept: int) -> Gate:
    """Computational-basis measurement of `qubit`, kept only on outcome `accept`."""
    if accept not in (0, 1):
        raise OutOfRangeError(f"accept must be 0 or 1, got {accept!r}")
    return Gate("post", (qubit,), np.diag([1.0 - accept, accept]))


@dataclass(frozen=True)
class GateList:
    """Ordered circuit: gates, one post-selecting projector gate, more gates."""

    num_qubits: int
    before: tuple[Gate, ...]
    measurement: Gate
    after: tuple[Gate, ...]


def distillation_circuit_u2() -> GateList:
    """The fixed two-qubit protocol circuit: data qubits 0, 1 and ancilla 2.

    First two gates decode the gnu code, the next re-encodes into the
    repetition code, two CNOTs copy the parity onto the ancilla for the
    post-selected syndrome check, and the final CNOT decodes the repetition
    code so qubit 0 carries the output.
    """
    return GateList(
        num_qubits=3,
        before=(cnot(0, 1), controlled_h(1, 0), cnot(1, 0), cnot(0, 2), cnot(1, 2)),
        measurement=post_select(2, accept=0),
        after=(cnot(0, 1),),
    )


def gate_unitary(gate: Gate, n_qubits: int) -> np.ndarray:
    """Embed a gate into the full 2^n matrix under the LSB-qubit convention.

    A column whose control bit is 0 keeps its identity entry; every other
    column gets the 2x2 matrix applied to its target bit.  Raises
    OutOfRangeError unless each qubit lies in [0, n) and the control differs
    from the target.
    """
    *controls, target = gate.qubits
    if len(controls) > 1 or target in controls or not all(0 <= q < n_qubits for q in gate.qubits):
        raise OutOfRangeError(f"gate {gate.kind} cannot act on qubits {gate.qubits} of {n_qubits}")
    control = sum(1 << q for q in controls)
    flip = 1 << target
    full = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for col in range(2**n_qubits):
        if col & control != control:
            full[col, col] = 1.0
        else:
            bit = (col >> target) & 1
            full[col & ~flip, col] += gate.matrix[0][bit]
            full[col | flip, col] += gate.matrix[1][bit]
    return full


def expand_controlled_h(gates: tuple[Gate, ...]) -> tuple[Gate, ...]:
    """Rewrite each controlled-H as two CNOTs plus single-qubit gates.

    Uses the standard controlled-U decomposition U = e^{i a} A X B X C with
    A B C = I; for the Hadamard a = pi/2, A = Ry(pi/4), B = Ry(-pi/4)Rz(-pi/2),
    C = Rz(pi/2), plus S on the control for the phase.  The expansion
    reproduces the controlled-H matrix exactly, not just up to phase.
    """
    expanded: list[Gate] = []
    for gate in gates:
        if gate.kind != "ch":
            expanded.append(gate)
            continue
        control, target = gate.qubits
        expanded.extend(
            (
                single_qubit(target, _rz(math.pi / 2.0)),
                cnot(control, target),
                single_qubit(target, _ry(-math.pi / 4.0) @ _rz(-math.pi / 2.0)),
                cnot(control, target),
                single_qubit(target, _ry(math.pi / 4.0)),
                single_qubit(control, np.diag([1.0, 1j])),
            )
        )
    return tuple(expanded)


def count_cnots(circuit: GateList) -> int:
    """Number of CNOTs once every controlled-H is expanded."""
    gates = expand_controlled_h(circuit.before + circuit.after)
    return sum(1 for gate in gates if gate.kind == "cnot")


def _trace_out_to_single(rho: np.ndarray, keep: int, n_qubits: int) -> np.ndarray:
    # Move the kept qubit to the top (the leading axes), trace the rest pairwise.
    perm = tuple(n_qubits - 1 if q == keep else q - (q > keep) for q in range(n_qubits))
    rest = 2 ** (n_qubits - 1)
    tensor = permute_qubits(rho, perm).reshape(2, rest, 2, rest)
    return np.einsum("arbr->ab", tensor)


def _conjugate(rho: np.ndarray, gates: tuple[Gate, ...], n_qubits: int) -> np.ndarray:
    for gate in gates:
        unitary = gate_unitary(gate, n_qubits)
        rho = unitary @ rho @ unitary.conj().T
    return rho


def run_circuit(circuit: GateList, rho: np.ndarray, keep: int) -> tuple[np.ndarray, float]:
    """Run a post-selected circuit on a dense input state.

    Returns the reduced density matrix on `keep` (renormalised) and the
    acceptance probability of the measurement.
    """
    n_qubits = circuit.num_qubits
    if rho.shape != (2**n_qubits, 2**n_qubits):
        raise DimensionMismatchError(f"state shape {rho.shape} mismatches circuit")
    if not 0 <= keep < n_qubits:
        raise OutOfRangeError(f"kept qubit {keep} outside the circuit's {n_qubits} qubits")
    rho = _conjugate(rho, circuit.before + (circuit.measurement,), n_qubits)
    acceptance = float(np.trace(rho).real)
    if acceptance <= 0.0:
        raise ZeroSuccessProbabilityError("post-selection never accepts this input")
    rho = _conjugate(rho / acceptance, circuit.after, n_qubits)
    return _trace_out_to_single(rho, keep, n_qubits), acceptance


def simulate_circuit_u2(ens: InputEnsemble) -> tuple[DensityMatrix1Q, float]:
    """Gate-level run of the two-qubit protocol on two noisy copies.

    Returns the post-selected single-qubit output state and the acceptance
    probability; both must match the analytic (1, 1, 2) pipeline.
    """
    data = build_rho_n(ens, 2)
    ancilla = np.zeros((2, 2), dtype=complex)
    ancilla[0, 0] = 1.0
    rho = np.kron(ancilla, data)  # ancilla is qubit 2, the most significant
    reduced, acceptance = run_circuit(distillation_circuit_u2(), rho, keep=0)
    state = DensityMatrix1Q(reduced[0, 0].real, reduced[1, 1].real, complex(reduced[0, 1]))
    return state, acceptance
