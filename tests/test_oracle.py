import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from gnumsd.codes import GnuParams, logical_vector
from gnumsd.engine import (
    InputEnsemble,
    codespace_projection,
    final_state,
    success_probability,
)
from gnumsd.errors import (
    DimensionMismatchError,
    OutOfRangeError,
    ZeroSuccessProbabilityError,
)
from gnumsd.oracle import (
    Gate,
    build_rho_n,
    cnot,
    controlled_h,
    count_cnots,
    distillation_circuit_u2,
    expand_controlled_h,
    gate_unitary,
    permute_qubits,
    post_select,
    project_and_decode,
    run_circuit,
    simulate_circuit_u2,
    single_qubit,
    validate_density,
)

U2 = GnuParams(1, 1, 2)


class TestBuildRho:
    def test_single_copy_pure(self):
        ens = InputEnsemble(0.3, 0.7, 0.0)
        rho = build_rho_n(ens, 1)
        clean = np.array([ens.clean_state().c0, ens.clean_state().c1])
        assert np.allclose(rho, np.outer(clean, clean.conj()), atol=1e-15)

    def test_computational_limit_diagonal(self):
        rho = build_rho_n(InputEnsemble(0.0, 0.0, 0.3), 2)
        assert np.allclose(np.diag(rho), [0.49, 0.21, 0.21, 0.09], atol=1e-15)
        assert np.allclose(rho, np.diag(np.diag(rho)), atol=1e-15)

    def test_trace_one_and_valid(self):
        rho = build_rho_n(InputEnsemble(0.9, -2.0, 0.2), 3)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        validate_density(rho)

    def test_equals_weighted_string_expansion(self):
        from gnumsd.oracle import product_state_vector

        ens = InputEnsemble(0.6, 1.3, 0.25)
        n = 3
        expected = np.zeros((8, 8), dtype=complex)
        for bits in itertools.product((0, 1), repeat=n):
            weight = sum(bits)
            vec = product_state_vector(ens, bits)
            expected += (
                ens.eps**weight
                * (1 - ens.eps) ** (n - weight)
                * np.outer(vec, vec.conj())
            )
        assert np.allclose(build_rho_n(ens, n), expected, atol=1e-13)

    def test_rejects_large_n(self):
        with pytest.raises(OutOfRangeError):
            build_rho_n(InputEnsemble(0.1, 0.0, 0.0), 13)


class TestProjectAndDecode:
    def test_logical_zero_projects_cleanly(self):
        vec = logical_vector(U2, 0)
        proj = project_and_decode(np.outer(vec, vec), U2)
        assert (proj.w00, proj.w11, proj.w01) == (1.0, 0.0, 0.0)

    def test_hand_projection(self):
        rho = build_rho_n(InputEnsemble(math.pi / 4, 0.0, 0.0), 2)
        proj = project_and_decode(rho, U2)
        assert proj.w00 == pytest.approx(0.25, abs=1e-12)
        assert proj.w11 == pytest.approx(0.5, abs=1e-12)
        assert proj.w01 == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-12)

    def test_maximally_mixed(self):
        for code in (U2, GnuParams(1, 1, 3)):
            n = code.num_qubits
            proj = project_and_decode(np.eye(2**n) / 2**n, code)
            assert proj.w00 == pytest.approx(2.0**-n, abs=1e-14)
            assert proj.w11 == pytest.approx(2.0**-n, abs=1e-14)
            assert abs(proj.w01) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project_and_decode(np.eye(8) / 8, U2)

    def test_permutation_invariance_of_projector_path(self):
        code = GnuParams(1, 1, 3)
        rho = build_rho_n(InputEnsemble(0.8, 0.5, 0.2), 3)
        base = project_and_decode(rho, code)
        for perm in itertools.permutations(range(3)):
            permuted = project_and_decode(permute_qubits(rho, perm), code)
            assert permuted.w00 == pytest.approx(base.w00, abs=1e-12)
            assert permuted.w11 == pytest.approx(base.w11, abs=1e-12)
            assert abs(permuted.w01 - base.w01) <= 1e-12


class TestPermuteQubits:
    def test_swap_on_asymmetric_state(self):
        # |01> means qubit 0 holds 1, qubit 1 holds 0 (LSB convention)
        vec = np.zeros(4)
        vec[0b01] = 1.0
        rho = np.outer(vec, vec)
        swapped = permute_qubits(rho, (1, 0))
        expected = np.zeros((4, 4))
        expected[0b10, 0b10] = 1.0
        assert np.allclose(swapped, expected)

    def test_rejects_non_permutation(self):
        with pytest.raises(OutOfRangeError):
            permute_qubits(np.eye(4) / 4, (0, 0))


class TestCircuit:
    def test_codeword_always_accepted(self):
        state, acceptance = simulate_circuit_u2(InputEnsemble(0.0, 0.0, 0.0))
        assert acceptance == pytest.approx(1.0, abs=1e-12)
        assert (state.m00, state.m11) == (pytest.approx(1.0), pytest.approx(0.0))

    def test_hand_point(self):
        state, acceptance = simulate_circuit_u2(InputEnsemble(math.pi / 4, 0.0, 0.0))
        assert acceptance == pytest.approx(0.75, abs=1e-12)
        assert state.m00 == pytest.approx(1 / 3, abs=1e-12)
        assert state.m11 == pytest.approx(2 / 3, abs=1e-12)
        assert state.m01 == pytest.approx(math.sqrt(2) / 3, abs=1e-12)

    def test_matches_analytic_path_at_generic_point(self):
        ens = InputEnsemble(0.6, math.pi / 4, 0.2)
        projection = codespace_projection(U2, ens)
        expected = final_state(projection)
        state, acceptance = simulate_circuit_u2(ens)
        assert acceptance == pytest.approx(success_probability(projection), abs=1e-10)
        assert state.m00 == pytest.approx(expected.m00, abs=1e-10)
        assert state.m11 == pytest.approx(expected.m11, abs=1e-10)
        assert abs(state.m01 - expected.m01) <= 1e-10

    def test_never_accepting_input_raises(self):
        with pytest.raises(ZeroSuccessProbabilityError):
            simulate_circuit_u2(InputEnsemble(0.0, 0.0, 1.0))

    def test_acceptance_subspace_is_the_codespace(self):
        # transport the accept projector back through the pre-measurement
        # gates; restricted to ancilla-in-|0> inputs it must be exactly the
        # codespace projector on the data qubits
        circuit = distillation_circuit_u2()
        unitary = np.eye(8, dtype=complex)
        for gate in circuit.before:
            unitary = gate_unitary(gate, 3) @ unitary
        accept = np.diag([1.0 if not (i >> 2) & 1 else 0.0 for i in range(8)])
        transported = unitary.conj().T @ accept @ unitary
        anc0_block = transported[:4, :4]  # ancilla is the most significant bit
        zero_l = logical_vector(U2, 0)
        one_l = logical_vector(U2, 1)
        projector = np.outer(zero_l, zero_l) + np.outer(one_l, one_l)
        assert np.allclose(anc0_block, projector, atol=1e-12)


def _kron_embedding(factors: dict, n_qubits: int) -> np.ndarray:
    """Kronecker product, highest qubit first, of 2x2 factors with identity elsewhere."""
    full = np.eye(1)
    for qubit in reversed(range(n_qubits)):
        full = np.kron(full, factors.get(qubit, np.eye(2)))
    return full


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
# A generic complex unitary: no zero entries, no real-valued entries.
_U = np.array(
    [
        [math.cos(0.3) * np.exp(0.7j), -math.sin(0.3) * np.exp(-1.1j)],
        [math.sin(0.3) * np.exp(1.1j), math.cos(0.3) * np.exp(-0.7j)],
    ]
)
_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])


class TestGateEmbedding:
    # Each embedded gate against |0><0|_c (x) I + |1><1|_c (x) U_t, built
    # as a Kronecker product with identity on every other qubit.
    @pytest.mark.parametrize("control, target", list(itertools.permutations(range(3), 2)))
    @pytest.mark.parametrize(
        "make, matrix",
        [
            (cnot, _X),
            (controlled_h, _H),
            (lambda control, target: Gate("cu", (control, target), _U), _U),
        ],
        ids=["cnot", "ch", "generic"],
    )
    def test_controlled_gate(self, make, matrix, control, target):
        expected = _kron_embedding({control: _P0}, 3) + _kron_embedding(
            {control: _P1, target: matrix}, 3
        )
        assert np.array_equal(gate_unitary(make(control, target), 3), expected)

    @pytest.mark.parametrize("qubit", range(3))
    @pytest.mark.parametrize("matrix", [_X, _H, _U], ids=["x", "h", "generic"])
    def test_single_qubit_gate(self, matrix, qubit):
        expected = _kron_embedding({qubit: matrix}, 3)
        assert np.array_equal(gate_unitary(single_qubit(qubit, matrix), 3), expected)

    @pytest.mark.parametrize("qubit", range(3))
    @pytest.mark.parametrize("accept, projector", [(0, _P0), (1, _P1)])
    def test_post_selection_is_a_projector(self, accept, projector, qubit):
        expected = _kron_embedding({qubit: projector}, 3)
        assert np.array_equal(gate_unitary(post_select(qubit, accept), 3), expected)

    @pytest.mark.parametrize(
        "gate, n_qubits",
        [
            (cnot(1, 1), 2),
            (controlled_h(2, 2), 3),
            (cnot(0, 5), 2),
            (single_qubit(-1, np.eye(2)), 2),
        ],
        ids=["cnot-repeated", "ch-repeated", "qubit-above-range", "negative-qubit"],
    )
    def test_rejects_a_gate_that_does_not_fit(self, gate, n_qubits):
        with pytest.raises(OutOfRangeError, match="cannot act on qubits"):
            gate_unitary(gate, n_qubits)

    def test_rejects_a_matrix_that_is_not_2x2(self):
        with pytest.raises(DimensionMismatchError, match=r"has a \(4, 4\) matrix, not 2x2"):
            gate_unitary(single_qubit(0, np.eye(4)), 2)

    def test_post_selection_accepts_one_outcome(self):
        with pytest.raises(OutOfRangeError, match="accept must be 0 or 1"):
            post_select(0, 2)

    def test_kept_qubit_must_be_in_the_circuit(self):
        rho = np.kron(np.diag([1.0, 0.0]), build_rho_n(InputEnsemble(0.3, 0.0, 0.1), 2))
        with pytest.raises(OutOfRangeError, match="kept qubit 3"):
            run_circuit(distillation_circuit_u2(), rho, keep=3)


class TestGateEquality:
    # A gate is its kind, its qubits and its matrix: gates that act
    # differently compare unequal, equal gates compare and hash equal.
    @pytest.mark.parametrize(
        "a, b",
        [
            (post_select(2, 0), post_select(2, 1)),
            (single_qubit(0, np.eye(2)), single_qubit(0, np.diag([1, -1]))),
            (single_qubit(1, _H), single_qubit(1, _U)),
            (Gate("cu", (0, 1), _X), Gate("cu", (0, 1), _U)),
        ],
        ids=["accept", "1q", "1q-generic", "controlled"],
    )
    def test_gates_that_differ_in_the_matrix_are_unequal(self, a, b):
        assert (a.kind, a.qubits) == (b.kind, b.qubits)
        assert a != b
        circuit = distillation_circuit_u2()
        lists = [replace(circuit, measurement=a), replace(circuit, measurement=b)]
        assert lists[0] != lists[1]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: cnot(0, 2),
            lambda: controlled_h(1, 0),
            lambda: post_select(2, 1),
            lambda: single_qubit(0, _U),
            lambda: Gate("cu", (2, 0), _U.copy()),
            distillation_circuit_u2,
        ],
        ids=["cnot", "ch", "post", "1q", "generic", "circuit"],
    )
    def test_equal_gates_compare_and_hash_equal(self, make):
        a, b = make(), make()
        assert a == b
        assert hash(a) == hash(b)


class TestControlledHExpansion:
    def test_expansion_reproduces_exact_unitary(self):
        gate = controlled_h(1, 0)
        direct = gate_unitary(gate, 2)
        product = np.eye(4, dtype=complex)
        for part in expand_controlled_h((gate,)):
            product = gate_unitary(part, 2) @ product
        assert np.allclose(product, direct, atol=1e-12)

    def test_seven_cnots_total(self):
        assert count_cnots(distillation_circuit_u2()) == 7

    def test_non_ch_gates_pass_through(self):
        circuit = distillation_circuit_u2()
        expanded = expand_controlled_h(circuit.before + circuit.after)
        assert sum(1 for g in expanded if g.kind == "ch") == 0
        assert sum(1 for g in circuit.before + circuit.after if g.kind == "cnot") == 5
