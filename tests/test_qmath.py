import cmath
import math
import struct

import numpy as np
import pytest

from gnumsd.engine import InputEnsemble
from gnumsd.errors import OutOfRangeError
from gnumsd.qmath import (
    STATE_TOLERANCE,
    DensityMatrix1Q,
    PureQubit,
    binomial,
    h_state,
    m2_densities,
    m2_density,
    m2_pure,
    pauli_expectations,
    squared_modulus,
    t_state,
    trace_distance,
    trace_distances,
)


def density_from_pauli(x: float, y: float, z: float) -> DensityMatrix1Q:
    """Inverse of pauli_expectations (the <I> component is fixed at 1)."""
    return DensityMatrix1Q(0.5 * (1.0 + z), 0.5 * (1.0 - z), complex(x, -y) / 2.0)


def bloch_density(x, y, z):
    return density_from_pauli(x, y, z)


KET0 = DensityMatrix1Q(1.0, 0.0, 0.0)
KET1 = DensityMatrix1Q(0.0, 1.0, 0.0)
PLUS = DensityMatrix1Q(0.5, 0.5, 0.5)
MIXED = DensityMatrix1Q(0.5, 0.5, 0.0)


class TestBinomial:
    def test_small_cases(self):
        assert binomial(0, 0) == 1
        assert binomial(4, 2) == 6

    def test_large_case_against_pascal_oracle(self):
        # independent Pascal recurrence, row by row
        row = [1]
        for n in range(1, 61):
            row = [1] + [row[k - 1] + row[k] for k in range(1, n)] + [1]
        assert binomial(60, 30) == row[30] == 118264581564861424

    def test_matches_stdlib_comb(self):
        for n in range(0, 61, 7):
            for k in range(0, n + 1, 3):
                assert binomial(n, k) == math.comb(n, k)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            binomial(3, 4)
        # No cap on n: MAX_QUBITS caps the codes, not the binomials.
        assert binomial(61, 1) == math.comb(61, 1) == 61
        with pytest.raises(OutOfRangeError):
            binomial(4, -1)


class TestTraceDistance:
    def test_identical_states(self):
        assert trace_distance(PLUS, PLUS) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(KET0, KET1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vs_plus(self):
        assert trace_distance(KET0, PLUS) == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_metric_properties_on_sampled_triples(self):
        rng = np.random.default_rng(20240811)
        for _ in range(200):
            states = []
            for _ in range(3):
                direction = rng.normal(size=3)
                radius = rng.uniform(0.0, 1.0)
                x, y, z = radius * direction / np.linalg.norm(direction)
                states.append(bloch_density(x, y, z))
            a, b, c = states
            assert trace_distance(a, b) == trace_distance(b, a)
            assert trace_distance(a, a) <= 1e-12
            assert (
                trace_distance(a, c)
                <= trace_distance(a, b) + trace_distance(b, c) + 1e-12
            )

    def test_equals_bloch_distance(self):
        # for single qubits the trace distance is half the Bloch-vector distance
        rho = bloch_density(0.3, -0.2, 0.4)
        sigma = bloch_density(-0.1, 0.5, 0.0)
        expected = 0.5 * math.sqrt((0.3 + 0.1) ** 2 + (-0.2 - 0.5) ** 2 + 0.4**2)
        assert trace_distance(rho, sigma) == pytest.approx(expected, abs=1e-12)


class TestPauliExpectations:
    def test_maximally_mixed(self):
        assert pauli_expectations(MIXED) == pytest.approx((1, 0, 0, 0), abs=1e-12)

    def test_z_eigenstate(self):
        assert pauli_expectations(KET0) == pytest.approx((1, 0, 0, 1), abs=1e-12)

    def test_x_eigenstate(self):
        assert pauli_expectations(PLUS) == pytest.approx((1, 1, 0, 0), abs=1e-12)

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            direction = rng.normal(size=3)
            x, y, z = rng.uniform(0, 1) * direction / np.linalg.norm(direction)
            rho = bloch_density(x, y, z)
            _, ex, ey, ez = pauli_expectations(rho)
            back = density_from_pauli(ex, ey, ez)
            assert back.m00 == pytest.approx(rho.m00, abs=1e-12)
            assert back.m11 == pytest.approx(rho.m11, abs=1e-12)
            assert abs(back.m01 - rho.m01) <= 1e-12


class TestMagicMonotone:
    def test_stabilizer_states_have_zero_magic(self):
        for psi in (PureQubit(1, 0), PureQubit(0, 1), PureQubit(1 / math.sqrt(2), 1 / math.sqrt(2)), PureQubit(1 / math.sqrt(2), 1j / math.sqrt(2))):
            assert abs(m2_pure(psi)) <= 1e-10

    def test_t_state_magic(self):
        assert m2_pure(t_state()) == pytest.approx(0.585, abs=1e-3)
        # exact value is log2(3) - 1
        assert m2_pure(t_state()) == pytest.approx(math.log2(3) - 1, abs=1e-12)

    def test_h_state_magic(self):
        # direct evaluation: expectations (1, 1/sqrt2, 0, 1/sqrt2)
        assert m2_pure(h_state()) == pytest.approx(0.41504, abs=1e-4)

    def test_density_matches_pure_on_pure_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            amps = rng.normal(size=4)
            c0 = complex(amps[0], amps[1])
            c1 = complex(amps[2], amps[3])
            norm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
            psi = PureQubit(c0 / norm, c1 / norm)
            assert m2_density(psi.density()) == pytest.approx(m2_pure(psi), abs=1e-10)

    def test_maximally_mixed_evaluates_to_one(self):
        # fourth-power sum is 1, so the printed formula gives exactly 1
        assert m2_density(MIXED) == pytest.approx(1.0, abs=1e-12)

    def test_x_conjugated_t_state(self):
        t = t_state()
        flipped = PureQubit(t.c1, t.c0).density()
        assert m2_density(flipped) == pytest.approx(0.585, abs=1e-3)

    def test_clifford_invariance(self):
        # X, Z, H, S conjugation permutes/flips Pauli expectations; the
        # fourth-power sum is invariant
        rng = np.random.default_rng(11)
        for _ in range(50):
            direction = rng.normal(size=3)
            x, y, z = rng.uniform(0, 1) * direction / np.linalg.norm(direction)
            base = m2_density(bloch_density(x, y, z))
            conjugated = [
                bloch_density(x, -y, -z),  # X
                bloch_density(-x, -y, z),  # Z
                bloch_density(z, -y, x),  # H
                bloch_density(-y, x, z),  # S
            ]
            for rho in conjugated:
                assert m2_density(rho) == pytest.approx(base, abs=1e-10)


def seeded_states(seed: int, count: int):
    """Matrix-element arrays of `count` seeded states: mixed ones, then pure ones."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(3, count))
    direction /= np.linalg.norm(direction, axis=0)
    radius = np.concatenate([rng.uniform(0.0, 1.0, count - count // 4), np.ones(count // 4)])
    x, y, z = direction * radius
    return 0.5 * (1.0 + z), 0.5 * (1.0 - z), 0.5 * (x - 1j * y)


# A pure state whose orthogonal complement lies 0.5 * (|mean + r| + |mean - r|)
# = 1 + 2^-52 from it before the clip: found by a seeded search.
CLIP_V, CLIP_THETA = float.fromhex("0x1.8e73d99646535p-1"), float.fromhex("-0x1.44f93bb9c43b8p-2")
CLIP_STATE = PureQubit(
    math.cos(CLIP_V), cmath.exp(1j * CLIP_THETA) * math.sin(CLIP_V)
).density()


def orthogonal(rho: DensityMatrix1Q) -> DensityMatrix1Q:
    """The antipodal state (the orthogonal complement of a pure rho)."""
    return DensityMatrix1Q(rho.m11, rho.m00, -rho.m01)


def edge_states(sigma: DensityMatrix1Q) -> list[DensityMatrix1Q]:
    """States where trace_distance meets its edges against sigma."""
    tol = STATE_TOLERANCE
    return [
        sigma,  # identical: 0.0
        orthogonal(sigma),  # orthogonal to a pure sigma: 1.0
        CLIP_STATE,
        orthogonal(CLIP_STATE),
        *(DensityMatrix1Q(0.5, 0.5, complex(re, im)) for re in (0.0, -0.0) for im in (0.0, -0.0)),
        DensityMatrix1Q(0.3, 0.7, complex(-0.0, 0.2)),
        DensityMatrix1Q(0.3, 0.7, complex(0.2, -0.0)),
        # Populations at the clamp edges: -tol and -0.0 are kept as 0.0 and -0.0.
        DensityMatrix1Q(-tol, 1.0, 0j),
        DensityMatrix1Q(1.0, -tol, 0j),
        DensityMatrix1Q(-0.0, 1.0, 0j),
        DensityMatrix1Q(tol, 1.0 - tol, 0j),
        DensityMatrix1Q(1.0 + tol / 2, -tol / 2, 0j),
    ]


class TestOnePointForms:
    """Each scalar gives its array form's bits at one point."""

    STATES = seeded_states(2024, 4000)
    SIGMAS = [t_state().density(), h_state().density(), MIXED, KET1]

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_trace_distance_equals_trace_distances(self, sigma):
        m00, m11, m01 = self.STATES
        batch = trace_distances(m00, m11, m01, sigma)
        for k, state in enumerate(zip(m00.tolist(), m11.tolist(), m01.tolist())):
            assert trace_distance(DensityMatrix1Q(*state), sigma) == batch[k]
        # The edge states, bit for bit and down to the sign of zero.
        edges = edge_states(sigma)
        arrays = (np.array([getattr(rho, m) for rho in edges]) for m in ("m00", "m11", "m01"))
        for rho, want in zip(edges, trace_distances(*arrays, sigma).tolist()):
            got = trace_distance(rho, sigma)
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", want)
            assert math.copysign(1.0, got) == math.copysign(1.0, want) == 1.0

    def test_edge_states_reach_the_edges(self):
        assert trace_distance(KET1, KET1) == 0.0
        assert trace_distance(KET0, KET1) == 1.0
        clip, rho = CLIP_STATE, orthogonal(CLIP_STATE)
        d0, d1, q = rho.m00 - clip.m00, rho.m11 - clip.m11, rho.m01 - clip.m01
        mean, half_gap = 0.5 * (d0 + d1), 0.5 * (d0 - d1)
        radius = math.sqrt(half_gap * half_gap + squared_modulus(q))
        assert 0.5 * (abs(mean + radius) + abs(mean - radius)) > 1.0  # the clip acts
        assert trace_distance(rho, clip) == 1.0

    def test_m2_density_equals_m2_densities(self):
        m00, m11, m01 = self.STATES
        batch = m2_densities(m00, m11, m01)
        for k, state in enumerate(zip(m00.tolist(), m11.tolist(), m01.tolist())):
            assert m2_density(DensityMatrix1Q(*state)) == batch[k]
        # An entry does not depend on where it sits in the array.
        assert np.array_equal(m2_densities(m00[3:], m11[3:], m01[3:]), batch[3:])

    def test_m2_density_gives_m2_densities_bytes_at_the_edges(self):
        # == ignores the sign of zero, so the poles, the maximally mixed
        # state, coherences with -0.0 parts and the clean inputs at v = 0
        # and v = pi/2 are compared by their bytes.
        edges = [
            KET0,
            KET1,
            MIXED,
            PLUS,
            *(DensityMatrix1Q(0.5, 0.5, complex(re, im)) for re in (0.0, -0.0) for im in (0.0, -0.0)),
            DensityMatrix1Q(0.5, 0.5, complex(-0.0, -0.5)),
            DensityMatrix1Q(0.5, 0.5, complex(0.5, -0.0)),
            DensityMatrix1Q(-0.0, 1.0, complex(-0.0, 0.0)),
            *(
                InputEnsemble(v, theta, 0.0).clean_state().density()
                for v in (0.0, math.pi / 2)
                for theta in (0.0, -0.0, math.pi / 4, -math.pi, 2.5)
            ),
        ]
        arrays = (np.array([getattr(rho, m) for rho in edges]) for m in ("m00", "m11", "m01"))
        for rho, want in zip(edges, m2_densities(*arrays).tolist(), strict=True):
            got = m2_density(rho)
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_squared_modulus_of_scalar_equals_array_entry(self):
        _, _, m01 = self.STATES
        batch = squared_modulus(m01)
        for k, z in enumerate(m01.tolist()):
            assert squared_modulus(z) == batch[k]


class TestTypeInvariants:
    def test_pure_qubit_requires_normalisation(self):
        with pytest.raises(OutOfRangeError):
            PureQubit(1.0, 1.0)

    def test_density_rejects_negative_population(self):
        with pytest.raises(OutOfRangeError):
            DensityMatrix1Q(-1e-6, 1.0 + 1e-6, 0.0)

    def test_density_clamps_tiny_negative_population(self):
        rho = DensityMatrix1Q(-5e-13, 1.0 + 5e-13, 0.0)
        assert rho.m00 == 0.0

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(OutOfRangeError):
            DensityMatrix1Q(0.6, 0.6, 0.0)

    def test_density_rejects_excess_coherence(self):
        with pytest.raises(OutOfRangeError):
            DensityMatrix1Q(0.9, 0.1, 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(OutOfRangeError):
            DensityMatrix1Q(math.nan, 1.0, 0.0)
