import itertools
import math

import numpy as np
import pytest

from gnumsd.codes import GnuParams, dicke_vector, logical_state_coeffs, logical_vector
from gnumsd.errors import OutOfRangeError

SMALL_CODES = [
    GnuParams(1, 1, 2),
    GnuParams(1, 1, 3),
    GnuParams(1, 1, 4),
    GnuParams(2, 1, 1),
    GnuParams(1, 2, 1),
    GnuParams(2, 2, 1),
    GnuParams(1, 3, 2),
    GnuParams(2, 1, 2),
]


class TestGnuParams:
    def test_num_qubits(self):
        assert GnuParams(2, 3, 2).num_qubits == 12

    def test_fractional_u_with_integral_product(self):
        assert GnuParams(2, 1, 1.5).num_qubits == 3

    def test_rejects_non_integral_product(self):
        with pytest.raises(OutOfRangeError):
            GnuParams(1, 1, 2.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(OutOfRangeError):
            GnuParams(0, 1, 2)
        with pytest.raises(OutOfRangeError):
            GnuParams(1, 1, -2)
        # Non-finite g, n and u are refused before any int() or round().
        for value in (math.inf, -math.inf, math.nan):
            for name, args in (("g", (value, 1, 2)), ("n", (1, value, 2)), ("u", (1, 1, value))):
                message = f"^{name} must be finite, got {value!r}$"
                with pytest.raises(OutOfRangeError, match=message):
                    GnuParams(*args)

    @pytest.mark.parametrize("name", ["g", "n", "u"])
    @pytest.mark.parametrize("huge", [10**400, -(10**400)])
    def test_rejects_an_integer_too_large_for_a_float(self, name, huge):
        # math.isfinite(10**400) overflows; the message echoes none of the digits.
        args = {"g": 1, "n": 1, "u": 2, name: huge}
        with pytest.raises(OutOfRangeError, match=f"^{name} is too large for a float$"):
            GnuParams(**args)

    @pytest.mark.parametrize(
        "args", [(10**200, 10**200, 1), (10**200, 1, 1e200), (2, 1, 1e308)]
    )
    def test_rejects_a_product_too_large_for_a_float(self, args):
        # Each factor converts, but g*n does not, or g*n*u is infinite.
        with pytest.raises(OutOfRangeError, match=r"^N = g\*n\*u exceeds the cap of 60$"):
            GnuParams(*args)

    def test_rejects_gn_above_total(self):
        with pytest.raises(OutOfRangeError):
            GnuParams(2, 2, 0.5)  # N = 2 < g*n = 4

    def test_rejects_above_cap(self):
        with pytest.raises(OutOfRangeError):
            GnuParams(1, 1, 61)


class TestLogicalStateCoeffs:
    def test_two_qubit_code(self):
        assert logical_state_coeffs(GnuParams(1, 1, 2), 0) == {0: 1.0}
        assert logical_state_coeffs(GnuParams(1, 1, 2), 1) == {1: 1.0}

    def test_n2_code(self):
        coeffs = logical_state_coeffs(GnuParams(1, 2, 1), 0)
        assert set(coeffs) == {0, 2}
        assert coeffs[0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert coeffs[2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_bad_bit(self):
        with pytest.raises(OutOfRangeError):
            logical_state_coeffs(GnuParams(1, 1, 2), 2)

    @pytest.mark.parametrize("code", SMALL_CODES)
    @pytest.mark.parametrize("bit", [0, 1])
    def test_normalised_with_g_multiples_of_right_parity(self, code, bit):
        coeffs = logical_state_coeffs(code, bit)
        assert sum(c * c for c in coeffs.values()) == pytest.approx(1.0, abs=1e-12)
        for weight in coeffs:
            assert weight % code.g == 0
            assert (weight // code.g) % 2 == bit


class TestDickeVector:
    def test_two_qubit_w_state(self):
        vec = dicke_vector(2, 1)
        assert vec == pytest.approx([0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])

    def test_vacuum(self):
        vec = dicke_vector(3, 0)
        assert vec[0] == 1.0
        assert np.count_nonzero(vec) == 1

    def test_weight_two_of_four(self):
        vec = dicke_vector(4, 2)
        support = np.flatnonzero(vec)
        assert [bin(i).count("1") for i in support] == [2] * 6
        assert vec[support] == pytest.approx([1 / math.sqrt(6)] * 6)

    def test_unit_norm(self):
        for n, w in [(1, 0), (5, 2), (12, 6)]:
            assert np.linalg.norm(dicke_vector(n, w)) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            dicke_vector(13, 0)
        with pytest.raises(OutOfRangeError):
            dicke_vector(4, 5)


class TestLogicalVector:
    def test_two_qubit_logical_one(self):
        vec = logical_vector(GnuParams(1, 1, 2), 1)
        assert vec == pytest.approx([0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])

    def test_repetition_logical_one(self):
        vec = logical_vector(GnuParams(2, 1, 1), 1)
        assert vec == pytest.approx([0, 0, 0, 1])

    def test_three_qubit_logical_zero(self):
        vec = logical_vector(GnuParams(1, 1, 3), 0)
        assert vec[0] == 1.0
        assert np.count_nonzero(vec) == 1

    def test_rejects_large_codes(self):
        with pytest.raises(OutOfRangeError):
            logical_vector(GnuParams(1, 1, 16), 0)

    @pytest.mark.parametrize("code", SMALL_CODES)
    def test_orthonormality(self, code):
        zero = logical_vector(code, 0)
        one = logical_vector(code, 1)
        assert np.dot(zero, zero) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(one, one) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.dot(zero, one)) <= 1e-12

    @pytest.mark.parametrize("code", SMALL_CODES[:4])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_permutation_invariance(self, code, bit):
        n = code.num_qubits
        vec = logical_vector(code, bit)
        for perm in itertools.permutations(range(n)):
            permuted = np.zeros_like(vec)
            for idx in range(len(vec)):
                new_idx = sum(((idx >> k) & 1) << perm[k] for k in range(n))
                permuted[new_idx] = vec[idx]
            assert permuted == pytest.approx(vec, abs=0)

    @pytest.mark.parametrize("code", SMALL_CODES)
    @pytest.mark.parametrize("bit", [0, 1])
    def test_dense_and_sparse_agree(self, code, bit):
        vec = logical_vector(code, bit)
        coeffs = logical_state_coeffs(code, bit)
        for weight in range(code.num_qubits + 1):
            recovered = float(np.dot(dicke_vector(code.num_qubits, weight), vec))
            assert recovered == pytest.approx(coeffs.get(weight, 0.0), abs=1e-12)
