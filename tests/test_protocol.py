import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simulmeas import protocol, qmath
from simulmeas.errors import RescalingSingularError, UsageError
from simulmeas.experiment import CoincidenceCounts
from simulmeas.protocol import (
    joint_distribution,
    make_equatorial,
    max_product,
    min_product,
    numeric_c_scan,
    probe_noise,
    sharp_deltas,
    sharp_probabilities,
    unsharp_deltas,
    von_neumann_counterexample,
)

SYMMETRIC_W = (2 + math.sqrt(2)) / 4  # maximizer of the sharp product
EPS = sys.float_info.epsilon


def bloch(w, sign):
    """(x, y) of the equatorial state sqrt(w)|A+> + sign sqrt(1-w)|A->."""
    return 2 * w - 1, sign * 2 * math.sqrt(w * (1 - w))


def inferred_means(p, c):
    """Means of the rescaled +-1/sqrt(1-c^2) probe and +-1/c object outcomes."""
    p = np.asarray(p)
    probe = (p[:, 0].sum(axis=0) - p[:, 1].sum(axis=0)) / np.sqrt(1 - c * c)
    obj = (p[0, :].sum(axis=0) - p[1, :].sum(axis=0)) / c
    return probe, obj


class TestMakeEquatorial:
    def test_a_eigenstate(self):
        s = make_equatorial(1.0, +1)
        np.testing.assert_allclose(s.amplitudes, [1, 0], atol=1e-15)

    def test_b_eigenstate(self):
        s = make_equatorial(0.5, +1)
        np.testing.assert_allclose(s.amplitudes, np.array([1, 1]) / np.sqrt(2), atol=1e-15)

    def test_general_point(self):
        s = make_equatorial(0.75, -1)
        np.testing.assert_allclose(s.amplitudes, [math.sqrt(0.75), -0.5], atol=1e-15)

    def test_amplitudes_are_real_floats(self):
        amps = make_equatorial(0.3, -1).amplitudes
        assert isinstance(amps, tuple) and [type(a) for a in amps] == [float, float]

    @pytest.mark.parametrize("w", [-0.1, 1.1, math.nan])
    def test_rejects_bad_probability(self, w):
        with pytest.raises(UsageError):
            make_equatorial(w)

    def test_rejects_bad_sign(self):
        with pytest.raises(UsageError):
            make_equatorial(0.5, 0)


class TestSharpQuantities:
    def test_b_eigenstate_is_certain_in_b(self):
        assert sharp_probabilities(make_equatorial(0.5, +1), "B") == pytest.approx((1, 0))

    def test_a_eigenstate_is_unbiased_in_b(self):
        for sign in (+1, -1):
            assert sharp_probabilities(make_equatorial(1.0, sign), "B") == \
                pytest.approx((0.5, 0.5))

    def test_general_b_probability(self):
        p_plus, p_minus = sharp_probabilities(make_equatorial(0.75, +1), "B")
        assert p_plus == pytest.approx(0.9330127018922193, abs=1e-12)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_b_probability_matches_projection(self):
        # oracle: project the amplitude vector onto the B basis directly
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = make_equatorial(rng.uniform(), rng.choice([1, -1]))
            expected = tuple(abs(qmath.inner(b, s.amplitudes)) ** 2 for b in qmath.B_BASIS)
            assert sharp_probabilities(s, "B") == pytest.approx(expected, abs=1e-12)

    def test_uncertainty_extremes(self):
        assert sharp_deltas(1.0) == pytest.approx((0, 1))
        assert sharp_deltas(0.5) == pytest.approx((1, 0))

    def test_sharp_product_maximum(self):
        da, db = sharp_deltas(SYMMETRIC_W)
        assert (da, db) == pytest.approx((1 / math.sqrt(2), 1 / math.sqrt(2)), abs=1e-12)
        assert da * db == pytest.approx(0.5, abs=1e-12)

    def test_sharp_product_range(self):
        for w in np.linspace(0, 1, 2001):
            da, db = protocol.sharp_deltas(w)
            assert 0.0 - 1e-15 <= da * db <= 0.5 + 1e-12
        for w in ((2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4):
            da, db = protocol.sharp_deltas(w)
            assert da * db == pytest.approx(0.5, abs=1e-9)


class TestEntangleDecompose:
    # the amplitude-level reference in qmath: entangle, then read back
    def test_perfect_entanglement_at_c_zero(self):
        _, _, c, m_plus, m_minus = qmath.decompose(qmath.entangle(0.5, +1, 0.0))
        assert c == pytest.approx(0.0, abs=1e-12)
        assert abs(qmath.inner(m_plus, m_minus)) < 1e-12

    def test_no_entanglement_at_c_one(self):
        s = make_equatorial(0.7, -1)
        state = qmath.entangle(0.7, -1, 1.0)
        _, _, c, m_plus, _ = qmath.decompose(state)
        assert c == pytest.approx(1.0, abs=1e-12)
        # product state: object factor recovered
        np.testing.assert_allclose(np.kron(s.amplitudes, m_plus), state, atol=1e-12)

    def test_singlet_decomposition(self):
        w, sign, c, _, _ = qmath.decompose(qmath.singlet())
        assert w == pytest.approx(0.5, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert sign == -1

    def test_product_state_decomposition(self):
        m = np.array([math.cos(0.3), math.sin(0.3)])
        s = make_equatorial(0.6, +1)
        w, _, c, _, _ = qmath.decompose(np.kron(s.amplitudes, m))
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


class TestRescaledEigenvalues:
    # outcomes rescaled to +-1/sqrt(1-c^2) and +-1/c have second moments
    # 1 + probe_noise(c): the eigenvalue rescaling in variance form
    def test_symmetric_point(self):
        noise = probe_noise(1 / math.sqrt(2))
        assert noise == pytest.approx((1.0, 1.0), abs=1e-12)
        assert np.sqrt(np.add(1, noise)) == pytest.approx((math.sqrt(2), math.sqrt(2)))

    def test_example(self):
        noise_a, noise_b = probe_noise(0.6)
        assert (1 + noise_a, 1 + noise_b) == pytest.approx((1.25 ** 2, (5 / 3) ** 2), abs=1e-12)

    def test_sharp_a_limit(self):
        noise_a, _ = probe_noise(1e-8)
        assert noise_a == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.3])
    def test_singular(self, c):
        with pytest.raises(RescalingSingularError):
            probe_noise(c)

    @pytest.mark.parametrize("c", [1e-300, 1e-155, math.nan, math.inf])
    def test_unrepresentable_noise_is_singular(self, c):
        with pytest.raises(RescalingSingularError):
            probe_noise(c)
        with pytest.raises(RescalingSingularError):
            protocol.unsharp_deltas(0.5, 0.5, c)

    def test_arrays(self):
        c = np.array([0.2, 0.6, 0.9])
        noise_a, noise_b = probe_noise(c)
        np.testing.assert_allclose(noise_a * noise_b, 1.0, rtol=1e-15)
        with pytest.raises(RescalingSingularError):
            probe_noise(np.array([0.5, 1.0]))


class TestJointProbabilities:
    def test_singlet_is_uniform(self):
        # the singlet has w = 1/2 and c = 0 (perfect entanglement)
        np.testing.assert_allclose(joint_distribution(0.0, -1.0, 0.0), 0.25, atol=1e-15)
        w, sign, c, m_plus, m_minus = qmath.decompose(qmath.singlet())
        p = qmath.joint_probabilities(qmath.singlet(), qmath.probe_basis(m_plus, m_minus))
        np.testing.assert_allclose(p, joint_distribution(*bloch(w, sign), c), atol=1e-12)

    def test_product_state_b_eigenstate(self):
        # a B+ eigenstate unentangled from the probe never gives B-
        p = joint_distribution(0.0, 1.0, 1.0)
        np.testing.assert_array_equal(p[1, :], 0.0)
        assert p.sum() == 1.0

    def test_closure_and_marginals(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            w, c = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            sign = int(rng.choice([1, -1]))
            p = joint_distribution(*bloch(w, sign), c)
            assert np.all(p >= -1e-15) and np.all(p <= 1 + 1e-15)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            # object-B marginal: 1/2 +- c sqrt(w(1-w))
            expected_b = 0.5 + sign * c * math.sqrt(w * (1 - w))
            assert p[0, :].sum() == pytest.approx(expected_b, abs=1e-10)
            # probe marginal: w cos^2 gamma + (1-w) sin^2 gamma
            cg = (1 + math.sqrt(1 - c * c)) / 2
            assert p[:, 0].sum() == pytest.approx(w * cg + (1 - w) * (1 - cg), abs=1e-10)
            np.testing.assert_allclose(p, qmath.equatorial_joint(w, sign, c), atol=1e-14)

    def test_known_marginal_value(self):
        p = joint_distribution(*bloch(0.75, +1), 0.6)
        assert p[0, :].sum() == pytest.approx(0.7598076211353315, abs=1e-10)

    def test_arrays(self):
        rng = np.random.default_rng(19)
        x, y, c = rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50), rng.uniform(0, 1, 50)
        p = joint_distribution(x, y, c)
        assert p.shape == (2, 2, 50)
        for k in range(50):
            np.testing.assert_array_equal(p[..., k], joint_distribution(x[k], y[k], c[k]))


class TestInferredMeans:
    def test_uniform_distribution_is_centered(self):
        means = inferred_means(joint_distribution(0.0, 0.0, 0.3), 0.3)
        assert means == pytest.approx((0, 0), abs=1e-15)

    def test_b_eigenstate_mean(self):
        c = 1 / math.sqrt(2)
        _, mean_b = inferred_means(joint_distribution(*bloch(0.5, +1), c), c)
        assert mean_b == pytest.approx(1.0, abs=1e-10)

    def test_unbiased_mean_a(self):
        mean_a, _ = inferred_means(joint_distribution(*bloch(0.75, +1), 0.6), 0.6)
        assert mean_a == pytest.approx(0.5, abs=1e-10)

    def test_unbiasedness_random(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            w, c = rng.uniform(0.005, 0.995), rng.uniform(0.005, 0.995)
            sign = int(rng.choice([1, -1]))
            mean_a, mean_b = inferred_means(qmath.equatorial_joint(w, sign, c), c)
            assert mean_a == pytest.approx(2 * w - 1, abs=1e-10)
            assert mean_b == pytest.approx(sign * 2 * math.sqrt(w * (1 - w)), abs=1e-10)

    def test_rejects_non_distribution(self):
        with pytest.raises(UsageError):
            CoincidenceCounts(0, 0, 0, 0)
        with pytest.raises(UsageError):
            CoincidenceCounts(5, -5, 5, 5)


class TestUnsharpUncertainties:
    def test_symmetric_point_reaches_bound(self):
        da, db = sharp_deltas(SYMMETRIC_W)
        da_prime, db_prime = unsharp_deltas(da, db, 1 / math.sqrt(2))
        assert da_prime == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert db_prime == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert da_prime * db_prime == pytest.approx(1.5, abs=1e-12)
        assert da * db == pytest.approx(0.5, abs=1e-12)

    def test_a_eigenstate(self):
        da_prime, _ = unsharp_deltas(*sharp_deltas(1.0), 0.5)
        assert da_prime == pytest.approx(0.5773502691896257, abs=1e-12)

    def test_sharp_a_limit(self):
        da_prime, _ = unsharp_deltas(*sharp_deltas(0.62), 1e-6)
        assert da_prime == pytest.approx(sharp_deltas(0.62)[0], abs=1e-9)

    def test_closed_form_equals_direct_route(self):
        # standard deviations of the rescaled two-point distributions of the
        # amplitude-level joint distribution
        rng = np.random.default_rng(17)
        for _ in range(150):
            w, sign = rng.uniform(0.01, 0.99), int(rng.choice([1, -1]))
            c = rng.uniform(0.01, 0.99)
            mean_a, mean_b = inferred_means(qmath.equatorial_joint(w, sign, c), c)
            direct = (math.sqrt(1 / (1 - c * c) - mean_a ** 2), math.sqrt(1 / c ** 2 - mean_b ** 2))
            analytic = protocol.unsharp_deltas(*sharp_deltas(w), c)
            assert analytic == pytest.approx(direct, abs=1e-10)

    def test_product_never_below_bound(self):
        da, db = sharp_deltas(0.73)
        bound = 1 + da * db
        products = protocol.unsharp_product(da, db, np.linspace(1e-4, 1 - 1e-4, 1000))
        assert np.all(products >= bound - 1e-9)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_singular_overlap(self, c):
        with pytest.raises(RescalingSingularError):
            unsharp_deltas(*sharp_deltas(0.7), c)


class TestClosedFormProperties:
    # the closed forms against the amplitude-level reference over the whole
    # domain, the edges w in {0, 1} and c -> 0 or 1 included
    @settings(max_examples=400, deadline=None)
    @given(w=st.floats(0, 1), sign=st.sampled_from([1, -1]),
           c=st.floats(0, 1, exclude_max=True))
    def test_joint_distribution_matches_reference(self, w, sign, c):
        x, y = bloch(w, sign)
        p = joint_distribution(x, y, c)
        assert abs(p.sum() - 1) <= 4 * EPS
        assert p.min() >= -2 * EPS
        np.testing.assert_allclose(p, qmath.equatorial_joint(w, sign, c), rtol=0, atol=1e-14)
        # the rescaled means equal x and y: the marginal differences, which
        # rescaling divides by sqrt(1-c^2) and c, are those times x and y to
        # a few ulps
        probe_diff = p[:, 0].sum() - p[:, 1].sum()
        obj_diff = p[0, :].sum() - p[1, :].sum()
        assert abs(probe_diff - math.sqrt(1 - c * c) * x) <= 4 * EPS
        assert abs(obj_diff - c * y) <= 4 * EPS

    @settings(max_examples=400, deadline=None)
    @given(w=st.floats(0, 1), c=st.floats(1e-150, 1, exclude_max=True))
    def test_product_above_its_floor(self, w, c):
        da, db = sharp_deltas(w)
        product = protocol.unsharp_product(da, db, c)
        value, c_opt = min_product(da, db)
        assert product >= value * (1 - 4 * EPS)
        # `state` prints the product of the two inferred uncertainties
        da_prime, db_prime = unsharp_deltas(da, db, c)
        assert da_prime * db_prime == product
        if 0 < c_opt < 1:
            assert protocol.unsharp_product(da, db, c_opt) == pytest.approx(value, rel=1e-12)
            assert max_product(c_opt) >= value


class TestProductExtrema:
    def test_min_product_symmetric(self):
        value, c_opt = min_product(1 / math.sqrt(2), 1 / math.sqrt(2))
        assert value == pytest.approx(1.5, abs=1e-12)
        assert c_opt == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        # simultaneous floor is 9x the sharp product's square at this point
        assert value ** 2 == pytest.approx(9 * 0.25, abs=1e-12)

    def test_min_product_boundary(self):
        assert min_product(1.0, 0.0) == pytest.approx((1.0, 1.0))

    def test_min_product_example(self):
        value, c_opt = min_product(0.8660254037844386, 0.5)
        assert value == pytest.approx(1.4330127018922192, abs=1e-12)
        assert c_opt == pytest.approx(0.7962252170181257, abs=1e-12)

    def test_min_product_rejects_double_zero(self):
        with pytest.raises(UsageError):
            min_product(0.0, 0.0)

    def test_max_product(self):
        assert max_product(1 / math.sqrt(2)) == pytest.approx(2.0, abs=1e-12)
        assert max_product(0.6) == pytest.approx(1 / 0.48, abs=1e-12)
        assert max_product(1e-6) > 1e5
        with pytest.raises(RescalingSingularError):
            max_product(0.0)

    def test_nine_times_ratio(self):
        for w in np.linspace(1e-4, 1 - 1e-4, 30001):
            da, db = protocol.sharp_deltas(w)
            sharp = da * db
            if sharp > 1e-12:
                assert ((1 + sharp) / sharp) ** 2 >= 9 - 1e-9


class TestNumericCScan:
    def test_matches_closed_form(self):
        for w in (SYMMETRIC_W, 0.75, 0.62):
            s = make_equatorial(w)
            scan = numeric_c_scan(s)
            value, c_opt = min_product(*sharp_deltas(w))
            assert not scan.boundary
            assert scan.product_best == pytest.approx(value, abs=1e-6)
            assert scan.c_best == pytest.approx(c_opt, abs=1e-4)

    def test_boundary_flag_at_b_eigenstate(self):
        scan = numeric_c_scan(make_equatorial(0.5))
        assert scan.boundary
        assert scan.product_best == pytest.approx(1.0, abs=1e-3)


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
        ce = von_neumann_counterexample(axis)
        assert max(ce.mean_gap_a, ce.mean_gap_b) > 0.5

    def test_polar_axis(self):
        ce = von_neumann_counterexample([0.0, 0.0, 1.0])
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
            ce = von_neumann_counterexample(axis)
            assert max(ce.mean_gap_a, ce.mean_gap_b) >= math.sqrt(2) - 1e-9

    @pytest.mark.parametrize("axis", [[1e-6, 1, 0], [1e-9, -1, 0], [1e-8, 1, 1e-8]])
    def test_axes_next_to_b(self, axis):
        # the rounded (w, sign) states carry q_B only to about eps/q_B here;
        # the gaps come from q itself and do not raise
        d = np.array(axis) / np.linalg.norm(axis)
        q_a, q_b = -d[1] / math.hypot(d[0], d[1]), d[0] / math.hypot(d[0], d[1])
        ce = von_neumann_counterexample(d)
        assert ce.mean_gap_a == 2 * abs(q_a) == pytest.approx(2.0, abs=1e-11)
        assert ce.mean_gap_b == 2 * abs(q_b)

    @settings(max_examples=500, deadline=None)
    @given(axis=unit_axes())
    def test_matches_the_pauli_reference(self, axis):
        try:
            ce = von_neumann_counterexample(axis)
        except UsageError:
            assume(False)  # on the A or B axis, which the construction excludes
        states = (ce.state_q, ce.state_minus_q)
        delta_a = min(sharp_deltas(s.w_a_plus)[0] for s in states)
        # the (w, sign) form rounds y by about eps/delta_a near the A
        # eigenstates; written multiplied out so delta_a = 0 is allowed
        def close(value, exact):
            return abs(value - exact) * delta_a <= 4 * EPS * (1 + delta_a)
        for s in states:
            assert close(qmath.axis_probability(s.amplitudes, axis), 0.5)
        r_q, r_mq = (qmath.pauli_expectations(s.amplitudes) for s in states)
        assert close(ce.mean_gap_a, abs(r_q[0] - r_mq[0]))
        assert close(ce.mean_gap_b, abs(r_q[1] - r_mq[1]))

    @pytest.mark.parametrize("axis", [[1, 0, 0], [0, -1, 0]])
    def test_rejects_observable_axes(self, axis):
        with pytest.raises(UsageError):
            von_neumann_counterexample(axis)

    def test_rejects_non_unit(self):
        with pytest.raises(UsageError):
            von_neumann_counterexample([1, 1, 0])
