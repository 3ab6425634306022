import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simulmeas import qmath
from simulmeas.errors import UsageError

EPS = sys.float_info.epsilon


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestInner:
    def test_identity(self):
        assert qmath.inner([1, 0], [1, 0]) == 1 + 0j

    def test_orthogonal(self):
        assert qmath.inner([1, 0], [0, 1]) == 0j

    def test_conjugate_bilinear(self):
        # hand evaluation: conj(i/sqrt2)*(-i/sqrt2) = -1/2, cancels the 1/2
        a = np.array([1, 1j]) / np.sqrt(2)
        b = np.array([1, -1j]) / np.sqrt(2)
        assert abs(qmath.inner(a, b)) < 1e-15

    def test_conjugate_linear_in_first_argument(self):
        a = np.array([0.5 + 0.5j, 0.5 - 0.5j])
        b = np.array([1.0, 0.0])
        assert qmath.inner(2j * a, b) == pytest.approx(-2j * qmath.inner(a, b))

    def test_self_inner_is_real(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = random_state(rng, 4)
            assert abs(qmath.inner(v, v).imag) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            qmath.inner([1, 0], [1, 0, 0, 0])

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = random_state(rng, 2), random_state(rng, 2)
            assert qmath.inner(a, b) == np.conj(qmath.inner(b, a))


class TestApplyToObject:
    def test_identity(self):
        rng = np.random.default_rng(6)
        s = random_state(rng, 4)
        np.testing.assert_allclose(qmath.apply_to_object(np.eye(2), s), s, atol=1e-15)

    def test_projector_kills_subspace(self):
        s = np.array([0, 0, 0.6, 0.8], dtype=complex)
        out = qmath.apply_to_object(np.diag([1, 0]), s)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_partial_attenuation_of_singlet(self):
        t = 0.37
        s = np.array([0, 1, -1, 0]) / np.sqrt(2)
        out = qmath.apply_to_object(np.diag([1.0, t]), s)
        np.testing.assert_allclose(out, np.array([0, 1, -t, 0]) / np.sqrt(2), atol=1e-15)

    def test_agrees_with_kron_route(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            s = random_state(rng, 4)
            np.testing.assert_allclose(qmath.apply_to_object(op, s),
                                       np.kron(op, np.eye(2)) @ s, atol=1e-13)

    def test_unitary_preserves_inner_products(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            u = random_unitary(rng)
            x, y = random_state(rng, 4), random_state(rng, 4)
            lhs = qmath.inner(qmath.apply_to_object(u, x), qmath.apply_to_object(u, y))
            assert lhs == pytest.approx(qmath.inner(x, y), abs=1e-12)


def test_vector_validation():
    with pytest.raises(UsageError):
        qmath.vec([1, 0, 0])
    with pytest.raises(UsageError):
        qmath.vec([np.nan, 0])
    with pytest.raises(UsageError):
        qmath.normalize([0, 0])
    with pytest.raises(UsageError):
        qmath.require_state([2, 0])


class TestEquatorial:
    # the (w, sign) state's amplitudes, which the tests use as the reference
    def test_a_eigenstate(self):
        np.testing.assert_allclose(qmath.equatorial(1.0, +1), [1, 0], atol=1e-15)

    def test_b_eigenstate(self):
        np.testing.assert_allclose(qmath.equatorial(0.5, +1), np.array([1, 1]) / np.sqrt(2),
                                   atol=1e-15)

    def test_general_point(self):
        np.testing.assert_allclose(qmath.equatorial(0.75, -1), [math.sqrt(0.75), -0.5],
                                   atol=1e-15)


class TestReferenceChain:
    def test_b_basis_is_unbiased_to_a(self):
        for b in qmath.B_BASIS:
            for a in ([1, 0], [0, 1]):
                assert abs(qmath.inner(a, b)) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_conditional_pair_overlap(self):
        for c in (0.0, 0.3, 1.0):
            m_plus, m_minus = qmath.conditional_pair(c)
            assert qmath.inner(m_plus, m_minus).real == pytest.approx(c, abs=1e-15)

    def test_post_select_yield(self):
        state, p_ok = qmath.post_select(0.4, 0.3)
        assert p_ok == pytest.approx((1 + 0.3 ** 2) / 2, abs=1e-15)
        assert qmath.norm(state) == pytest.approx(1.0, abs=1e-15)

    def test_joint_probabilities_close(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w, c = rng.uniform(), rng.uniform(0, 0.99)
            p = qmath.equatorial_joint(w, int(rng.choice([1, -1])), c)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0)

    def test_decompose_rejects_complex_states(self):
        with pytest.raises(UsageError):
            qmath.decompose(np.array([1, 1j, 0, 0]) / math.sqrt(2))


class TestPauliReference:
    # the Pauli-matrix route the von Neumann argument is checked against
    def test_bloch_components_of_the_axes(self):
        for amps, r in (([1, 0], [1, 0, 0]), ([0, 1], [-1, 0, 0]),
                        (np.array([1, 1]) / np.sqrt(2), [0, 1, 0]),
                        (np.array([1, 1j]) / np.sqrt(2), [0, 0, 1])):
            np.testing.assert_allclose(qmath.pauli_expectations(amps), r, atol=1e-15)

    def test_axis_probability_is_the_projector_mean(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            amps = qmath.normalize(rng.normal(size=2) + 1j * rng.normal(size=2))
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            r = qmath.pauli_expectations(amps)
            assert qmath.axis_probability(amps, axis) == pytest.approx(
                (1 + axis @ r) / 2, abs=1e-14)


class TestSinglet:
    # the source state of the amplitude-level reference
    def test_components(self):
        np.testing.assert_allclose(qmath.singlet(),
                                   np.array([0, 1, -1, 0]) / np.sqrt(2), atol=1e-15)

    def test_normalized(self):
        assert qmath.norm(qmath.singlet()) == pytest.approx(1.0, abs=1e-15)

    def test_decomposition(self):
        w, sign, c, _, _ = qmath.decompose(qmath.singlet())
        assert w == pytest.approx(0.5, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert sign == -1


class TestPolarizerOperator:
    # the Jones operator of the amplitude-level reference
    def test_aligned_attenuates_minus_axis(self):
        np.testing.assert_allclose(qmath.polarizer_operator(0.0, 0.4), np.diag([1.0, 0.4]),
                                   atol=1e-15)

    def test_perfect_polarizer_is_projector(self):
        np.testing.assert_allclose(qmath.polarizer_operator(math.pi / 4, 0.0),
                                   np.full((2, 2), 0.5), atol=1e-15)

    def test_explicit_rotation_sandwich(self):
        expected = np.array([[0.875, 0.21650635094610965],
                             [0.21650635094610965, 0.625]])
        np.testing.assert_allclose(qmath.polarizer_operator(math.pi / 6, 0.5), expected,
                                   atol=1e-15)

    def test_hermitian_with_transmittance_eigenvalues(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            alpha, t_s = rng.uniform(0, math.pi), rng.uniform(0, 1)
            op = qmath.polarizer_operator(alpha, t_s)
            np.testing.assert_allclose(op, op.conj().T, rtol=0, atol=1e-15)
            axis = np.array([math.cos(alpha), math.sin(alpha)])
            np.testing.assert_allclose(op @ axis, axis, atol=1e-12)


class TestEntangleDecompose:
    # the amplitude-level reference in qmath: entangle, then read back
    def test_perfect_entanglement_at_c_zero(self):
        _, _, c, m_plus, m_minus = qmath.decompose(qmath.entangle(0.5, +1, 0.0))
        assert c == pytest.approx(0.0, abs=1e-12)
        assert abs(qmath.inner(m_plus, m_minus)) < 1e-12

    def test_no_entanglement_at_c_one(self):
        state = qmath.entangle(0.7, -1, 1.0)
        _, _, c, m_plus, _ = qmath.decompose(state)
        assert c == pytest.approx(1.0, abs=1e-12)
        # product state: object factor recovered
        np.testing.assert_allclose(np.kron(qmath.equatorial(0.7, -1), m_plus), state,
                                   atol=1e-12)

    def test_singlet_decomposition(self):
        w, sign, c, _, _ = qmath.decompose(qmath.singlet())
        assert w == pytest.approx(0.5, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert sign == -1

    def test_product_state_decomposition(self):
        m = np.array([math.cos(0.3), math.sin(0.3)])
        w, _, c, _, _ = qmath.decompose(np.kron(qmath.equatorial(0.6, +1), m))
        assert w == pytest.approx(0.6, abs=1e-12)
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_object_eigenstate(self):
        w, _, c, _, _ = qmath.decompose(np.kron([1, 0], np.array([1, 1]) / np.sqrt(2)))
        assert c == 1.0
        assert w == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("w,sign,c", [(0.75, +1, 0.6), (0.6, +1, 0.3), (0.31, -1, 0.82)])
    def test_round_trip_examples(self, w, sign, c):
        w_back, sign_back, c_back, _, _ = qmath.decompose(qmath.entangle(w, sign, c))
        assert w_back == pytest.approx(w, abs=1e-10)
        assert c_back == pytest.approx(c, abs=1e-10)
        assert sign_back == sign

    def test_round_trip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            w = rng.uniform(1e-3, 1 - 1e-3)
            c = rng.uniform(0, 1)
            sign = int(rng.choice([1, -1]))
            state = qmath.entangle(w, sign, c)
            assert abs(qmath.norm(state) - 1) < 1e-12
            w_back, _, c_back, _, _ = qmath.decompose(state)
            assert w_back == pytest.approx(w, abs=1e-10)
            assert c_back == pytest.approx(c, abs=1e-10)

    def test_reassembly_reproduces_source(self):
        # the optics only prepare real states, and the reference reads those
        rng = np.random.default_rng(13)
        for _ in range(300):
            v = rng.normal(size=4)
            state = v / np.linalg.norm(v)
            w, sign, c, m_plus, m_minus = qmath.decompose(state)
            rebuilt = (math.sqrt(w) * np.kron([1, 0], m_plus)
                       + sign * math.sqrt(1 - w) * np.kron([0, 1], m_minus))
            np.testing.assert_allclose(rebuilt, state, atol=1e-10)
            assert c == pytest.approx(abs(qmath.inner(m_plus, m_minus)), abs=1e-12)


def _reference_basis(w, c, sign=+1):
    _, _, c_back, m_plus, m_minus = qmath.decompose(qmath.entangle(w, sign, c))
    big_plus, big_minus = qmath.probe_basis(m_plus, m_minus)
    cos_gamma = qmath.inner(big_plus, m_plus).real
    return c_back, m_plus, m_minus, big_plus, big_minus, math.acos(min(cos_gamma, 1.0))


class TestProbeBasis:
    def test_orthogonal_conditionals_need_no_rotation(self):
        _, m_plus, _, big_plus, _, gamma = _reference_basis(0.5, 0.0)
        # arccos is ill-conditioned at 1; cos(gamma) itself is 1e-12-exact
        assert gamma == pytest.approx(0.0, abs=1e-7)
        np.testing.assert_allclose(big_plus, m_plus, atol=1e-7)

    def test_known_angle(self):
        gamma = _reference_basis(0.75, 0.6)[-1]
        assert math.cos(gamma) ** 2 == pytest.approx(0.9, abs=1e-12)
        assert gamma == pytest.approx(0.3217505543966423, abs=1e-10)

    def test_near_degenerate_limit(self):
        assert _reference_basis(0.75, 1 - 1e-6)[-1] == pytest.approx(math.pi / 4, abs=1e-2)

    def test_degenerate_raises(self):
        _, _, _, m_plus, m_minus = qmath.decompose(qmath.entangle(0.75, +1, 1.0))
        with pytest.raises(UsageError):
            qmath.probe_basis(m_plus, m_minus)

    def test_orthonormal_equal_angles_and_sign(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            c, m_plus, m_minus, big_plus, big_minus, gamma = _reference_basis(
                rng.uniform(0.01, 0.99), rng.uniform(0, 0.999))
            assert abs(qmath.norm(big_plus) - 1) < 1e-12
            assert abs(qmath.norm(big_minus) - 1) < 1e-12
            assert abs(qmath.inner(big_plus, big_minus)) < 1e-12
            ov_plus = qmath.inner(big_plus, m_plus)
            ov_minus = qmath.inner(big_minus, m_minus)
            assert ov_plus.real > 0 and abs(ov_plus.imag) < 1e-12
            assert abs(abs(ov_plus) - abs(ov_minus)) < 1e-12
            assert abs(abs(ov_plus) - math.cos(gamma)) < 1e-12
            expected = (1 + math.sqrt(1 - c ** 2)) / 2
            assert math.cos(gamma) ** 2 == pytest.approx(expected, abs=1e-10)


@st.composite
def unit_axes(draw):
    """Unit axes: random directions, and ones next to +-A, +-B and the polar axis."""
    base = draw(st.sampled_from([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                 (0, 0, 1), (0, 0, -1)]))
    offset = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
    scale = 10.0 ** draw(st.floats(-14, 0)) if any(base) else 1.0
    v = np.array(base) + scale * offset
    assume(np.linalg.norm(v) > 1e-3)
    return v / np.linalg.norm(v)


class TestVonNeumannCounterexample:
    @pytest.mark.parametrize("angle", [math.pi / 8, math.pi / 3])
    def test_equatorial_axes(self, angle):
        axis = np.array([math.cos(angle), math.sin(angle), 0.0])
        ce = qmath.von_neumann_counterexample(axis)
        assert max(ce.mean_gap_a, ce.mean_gap_b) > 0.5

    def test_polar_axis(self):
        ce = qmath.von_neumann_counterexample([0.0, 0.0, 1.0])
        assert ce.mean_gap_a == pytest.approx(2.0, abs=1e-12)

    def test_random_axes_prove_impossibility(self):
        # no projective direction distinguishes the pair, yet at least one
        # observable mean differs substantially
        rng = np.random.default_rng(18)
        for _ in range(200):
            v = rng.normal(size=3)
            axis = v / np.linalg.norm(v)
            if min(np.linalg.norm(axis - [1, 0, 0]), np.linalg.norm(axis + [1, 0, 0]),
                   np.linalg.norm(axis - [0, 1, 0]), np.linalg.norm(axis + [0, 1, 0])) < 1e-6:
                continue
            ce = qmath.von_neumann_counterexample(axis)
            assert max(ce.mean_gap_a, ce.mean_gap_b) >= math.sqrt(2) - 1e-9

    @pytest.mark.parametrize("axis", [[1e-6, 1, 0], [1e-9, -1, 0], [1e-8, 1, 1e-8]])
    def test_axes_next_to_b(self, axis):
        # the rounded (w, sign) states carry q_B only to about eps/q_B here;
        # the gaps come from q itself and do not raise
        d = np.array(axis) / np.linalg.norm(axis)
        q_a, q_b = -d[1] / math.hypot(d[0], d[1]), d[0] / math.hypot(d[0], d[1])
        ce = qmath.von_neumann_counterexample(d)
        assert ce.mean_gap_a == 2 * abs(q_a) == pytest.approx(2.0, abs=1e-11)
        assert ce.mean_gap_b == 2 * abs(q_b)

    @settings(max_examples=500, deadline=None)
    @given(axis=unit_axes())
    def test_matches_the_pauli_reference(self, axis):
        try:
            ce = qmath.von_neumann_counterexample(axis)
        except UsageError:
            assume(False)  # on the A or B axis, which the construction excludes
        states = [qmath.equatorial(*s) for s in (ce.state_q, ce.state_minus_q)]
        delta_a = min(2 * math.sqrt(w * (1 - w)) for w, _ in (ce.state_q, ce.state_minus_q))
        # the (w, sign) form rounds y by about eps/delta_a near the A
        # eigenstates; written multiplied out so delta_a = 0 is allowed
        def close(value, exact):
            return abs(value - exact) * delta_a <= 4 * EPS * (1 + delta_a)
        for s in states:
            assert close(qmath.axis_probability(s, axis), 0.5)
        r_q, r_mq = (qmath.pauli_expectations(s) for s in states)
        assert close(ce.mean_gap_a, abs(r_q[0] - r_mq[0]))
        assert close(ce.mean_gap_b, abs(r_q[1] - r_mq[1]))

    @pytest.mark.parametrize("axis", [[1, 0, 0], [0, -1, 0]])
    def test_rejects_observable_axes(self, axis):
        with pytest.raises(UsageError):
            qmath.von_neumann_counterexample(axis)

    def test_rejects_non_unit(self):
        with pytest.raises(UsageError):
            qmath.von_neumann_counterexample([1, 1, 0])
