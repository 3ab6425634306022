import math

import numpy as np
import pytest

from simulmeas import qmath
from simulmeas.errors import UsageError


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
