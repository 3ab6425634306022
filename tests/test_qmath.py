import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simulmeas import qmath
from simulmeas.errors import UsageError

EPS = sys.float_info.epsilon


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
                assert np.vdot(a, b) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_conditional_pair_overlap(self):
        for c in (0.0, 0.3, 1.0):
            m_plus, m_minus = qmath.conditional_pair(c)
            assert np.vdot(m_plus, m_minus) == pytest.approx(c, abs=1e-15)

    def test_post_select_yield(self):
        state, p_ok = qmath.post_select(0.4, 0.3)
        assert p_ok == pytest.approx((1 + 0.3 ** 2) / 2, abs=1e-15)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)
        # aligned, the stack attenuates the object's A- branch by t
        t = 0.37
        np.testing.assert_allclose(qmath.post_select(0.0, t)[0],
                                   np.array([0, 1, -t, 0]) / math.sqrt(1 + t * t), atol=1e-15)

    def test_post_select_matches_the_kron_route(self):
        # (op (x) 1) singlet, and a yield of (1 + t^2)/2 at every angle:
        # the singlet is the same in every polarization basis
        rng = np.random.default_rng(22)
        for _ in range(50):
            alpha, t_s = rng.uniform(0, math.pi), rng.uniform(0, 1)
            raw = np.kron(qmath.polarizer_operator(alpha, t_s), np.eye(2)) @ qmath.singlet()
            state, p_ok = qmath.post_select(alpha, t_s)
            assert p_ok == pytest.approx(raw @ raw, abs=1e-15)
            assert p_ok == pytest.approx((1 + t_s ** 2) / 2, abs=1e-15)
            np.testing.assert_allclose(state, raw / np.linalg.norm(raw), atol=1e-15)

    def test_perfect_polarizer_leaves_a_product(self):
        # the object is projected onto the high axis, the probe onto its partner
        alpha = 0.4
        w, _, c, _, _ = qmath.decompose(qmath.post_select(alpha, 0.0)[0])
        assert w == pytest.approx(math.cos(alpha) ** 2, abs=1e-12)
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_joint_probabilities_match_the_kron_route(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = rng.normal(size=4)
            state = v / np.linalg.norm(v)
            basis = qmath.probe_basis(*qmath.conditional_pair(rng.uniform(0, 0.99)))
            expected = [[(np.kron(b, m) @ state) ** 2 for m in basis] for b in qmath.B_BASIS]
            np.testing.assert_allclose(qmath.joint_probabilities(state, basis), expected,
                                       atol=1e-15)

    def test_marginals_of_the_equatorial_joint(self):
        # B+ row: (1 + y c)/2; M+ column: w cos^2 g + (1 - w) sin^2 g
        rng = np.random.default_rng(24)
        for _ in range(50):
            w, sign, c = rng.uniform(), int(rng.choice([1, -1])), rng.uniform(0, 0.99)
            p = qmath.equatorial_joint(w, sign, c)
            y = 2 * sign * math.sqrt(w * (1 - w))
            cos2 = (1 + math.sqrt(1 - c * c)) / 2
            assert p[0].sum() == pytest.approx((1 + y * c) / 2, abs=1e-12)
            assert p[:, 0].sum() == pytest.approx(w * cos2 + (1 - w) * (1 - cos2), abs=1e-12)

    def test_prepared_joint_at_the_filter_limits(self):
        w, _, c, p_ok, p = qmath.prepared_joint(0.4, 1.0)
        assert (w, c, p_ok) == pytest.approx((0.5, 0.0, 1.0), abs=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        # a perfect polarizer leaves a product state: no probe basis
        assert qmath.prepared_joint(0.4, 0.0)[-1] is None

    def test_prepared_joint_is_a_distribution(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            w, _, c, p_ok, p = qmath.prepared_joint(rng.uniform(0, math.pi), rng.uniform(0.01, 1))
            assert c < 1 and 0.5 <= p_ok <= 1
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0)

    def test_joint_probabilities_close(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w, c = rng.uniform(), rng.uniform(0, 0.99)
            p = qmath.equatorial_joint(w, int(rng.choice([1, -1])), c)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0)

    def test_chain_stays_real(self):
        arrays = (qmath.post_select(0.4, 0.3)[0], qmath.entangle(0.6, -1, 0.3),
                  qmath.equatorial_joint(0.6, -1, 0.3), qmath.prepared_joint(0.4, 0.3)[-1])
        assert [a.dtype for a in arrays] == [np.float64] * 4


class TestPauliReference:
    # the Pauli-matrix route the von Neumann argument is checked against
    def test_bloch_components_of_the_axes(self):
        for amps, r in (([1, 0], [1, 0, 0]), ([0, 1], [-1, 0, 0]),
                        (np.array([1, 1]) / np.sqrt(2), [0, 1, 0]),
                        (np.array([1, 1j]) / np.sqrt(2), [0, 0, 1])):
            np.testing.assert_allclose(qmath.pauli_expectations(amps), r, atol=1e-15)

    def test_equatorial_states_sit_on_the_equator(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            w, sign = rng.uniform(), int(rng.choice([1, -1]))
            np.testing.assert_allclose(qmath.pauli_expectations(qmath.equatorial(w, sign)),
                                       [2 * w - 1, 2 * sign * math.sqrt(w * (1 - w)), 0],
                                       atol=1e-15)

    def test_axis_probability_is_the_projector_mean(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps /= np.linalg.norm(amps)
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
        assert np.linalg.norm(qmath.singlet()) == pytest.approx(1.0, abs=1e-15)


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
            np.testing.assert_allclose(op, op.T, rtol=0, atol=1e-15)
            axis = np.array([math.cos(alpha), math.sin(alpha)])
            np.testing.assert_allclose(op @ axis, axis, atol=1e-12)


class TestEntangleDecompose:
    # the amplitude-level reference in qmath: entangle, then read back
    def test_perfect_entanglement_at_c_zero(self):
        _, _, c, m_plus, m_minus = qmath.decompose(qmath.entangle(0.5, +1, 0.0))
        assert c == pytest.approx(0.0, abs=1e-12)
        assert abs(np.vdot(m_plus, m_minus)) < 1e-12

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

    def test_a_minus_eigenstate(self):
        m = np.array([math.cos(0.3), math.sin(0.3)])
        w, sign, c, m_plus, m_minus = qmath.decompose(np.kron([0, 1], m))
        assert (w, sign, c) == (0.0, +1, 1.0)
        np.testing.assert_allclose([m_plus, m_minus], [m, m], atol=1e-15)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_zero_overlap_sign_convention(self, sign):
        # c = 0 leaves the sign to m-: its largest component is positive
        _, sign_back, c, _, m_minus = qmath.decompose(qmath.entangle(0.3, sign, 0.0))
        assert c == pytest.approx(0.0, abs=1e-12)
        assert sign_back == sign
        assert m_minus[np.argmax(np.abs(m_minus))] > 0

    @pytest.mark.parametrize("w,sign,c", [(-0.1, +1, 0.5), (1.1, +1, 0.5), (0.5, +1, 1.5),
                                          (0.5, 0, 0.5)])
    def test_entangle_rejects_out_of_range(self, w, sign, c):
        with pytest.raises(UsageError):
            qmath.entangle(w, sign, c)

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
            assert abs(np.linalg.norm(state) - 1) < 1e-12
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
            assert c == pytest.approx(abs(np.vdot(m_plus, m_minus)), abs=1e-12)


def _reference_basis(w, c, sign=+1):
    _, _, c_back, m_plus, m_minus = qmath.decompose(qmath.entangle(w, sign, c))
    big_plus, big_minus = qmath.probe_basis(m_plus, m_minus)
    cos_gamma = np.vdot(big_plus, m_plus)
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
            assert abs(np.linalg.norm(big_plus) - 1) < 1e-12
            assert abs(np.linalg.norm(big_minus) - 1) < 1e-12
            assert abs(np.vdot(big_plus, big_minus)) < 1e-12
            ov_plus = np.vdot(big_plus, m_plus)
            ov_minus = np.vdot(big_minus, m_minus)
            assert ov_plus > 0
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
