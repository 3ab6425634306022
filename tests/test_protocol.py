import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simulmeas import protocol, qmath
from simulmeas.errors import RescalingSingularError, UsageError
from simulmeas.experiment import CoincidenceCounts
from simulmeas.protocol import (
    joint_distribution,
    max_product,
    min_product,
    numeric_c_scan,
    probe_noise,
    sharp_deltas,
    unsharp_deltas,
)

SYMMETRIC_W = (2 + math.sqrt(2)) / 4  # maximizer of the sharp product
EPS = sys.float_info.epsilon
# the overlap grid `numeric_c_scan` searches before it refines
SCAN_GRID = np.linspace(1e-4, 1 - 1e-4, 1000)


def bloch(w, sign):
    """(x, y) of the equatorial state sqrt(w)|A+> + sign sqrt(1-w)|A->."""
    return 2 * w - 1, sign * 2 * math.sqrt(w * (1 - w))


def inferred_means(p, c):
    """Means of the rescaled +-1/sqrt(1-c^2) probe and +-1/c object outcomes."""
    p = np.asarray(p)
    probe = (p[:, 0].sum(axis=0) - p[:, 1].sum(axis=0)) / np.sqrt(1 - c * c)
    obj = (p[0, :].sum(axis=0) - p[1, :].sum(axis=0)) / c
    return probe, obj


class TestSharpQuantities:
    @pytest.mark.parametrize("w", [1.5, -0.25, math.nan, np.array([0.0, 0.5, 1.0 + 1e-15])],
                             ids=["1.5", "-0.25", "nan", "array"])
    def test_sharp_deltas_rejects_a_weight_outside_the_unit_interval(self, w):
        with pytest.raises(UsageError, match="w_a_plus must be in"):
            sharp_deltas(w)

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
    @given(w=st.floats(0, 1), sign=st.sampled_from([1, -1]), c=st.floats(0, 1),
           v=st.floats(0, 1))
    def test_visibility_shortens_the_bloch_vector(self, w, sign, c, v):
        # the white-noise mixture V rho + (1 - V) I/4 is the state at (V x, V y)
        x, y = bloch(w, sign)
        mixed = v * joint_distribution(x, y, c) + (1 - v) / 4
        np.testing.assert_allclose(joint_distribution(v * x, v * y, c), mixed,
                                   rtol=0, atol=2 * EPS)

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


def three_test_pair_check(delta_a, delta_b):
    """The sharp-pair check as it was before its single accept test."""
    if np.any(np.minimum(delta_a, delta_b) < 0.0):
        raise UsageError("sharp uncertainties must be non-negative")
    if not np.all(np.isfinite(delta_a) & np.isfinite(delta_b)):
        raise UsageError("sharp uncertainties must be finite")
    if np.any(delta_a + delta_b <= 0.0):
        raise UsageError("delta_a = delta_b = 0 is impossible for a valid state")


def refusal(check, delta_a, delta_b):
    """The type and message of what a pair check raises, or None if it accepts."""
    try:
        check(delta_a, delta_b)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# ordinary values and every kind a pair check refuses or could overflow on
PAIR_VALUES = st.one_of(
    st.floats(1e-6, 10.0),
    st.sampled_from([0.0, -0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf, 1e308]))


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

    @pytest.mark.parametrize("extremum", [min_product, numeric_c_scan])
    @pytest.mark.parametrize("pair, message", [
        ((0.0, 0.0), "impossible"), ((-1.0, 0.5), "non-negative"),
        ((math.nan, 0.5), "finite"), ((math.inf, 0.5), "finite")],
        ids=["zeros", "negative", "nan", "inf"])
    def test_impossible_pairs_are_refused(self, extremum, pair, message):
        # the scan refuses exactly what the closed form refuses
        with pytest.raises(UsageError, match=message):
            extremum(*pair)

    @given(st.lists(st.tuples(PAIR_VALUES, PAIR_VALUES), min_size=1, max_size=4),
           st.sampled_from([float, np.float64, np.array]))
    @example([(1e308, 1e308)], np.float64)
    @example([(1e308, 1e308), (0.0, -0.0)], np.array)
    def test_pair_check_refuses_what_three_tests_refused(self, pairs, form):
        if form is np.array:
            delta_a, delta_b = np.array(pairs).T
        else:
            delta_a, delta_b = map(form, pairs[0])
        # the reference's sum overflows to inf on (1e308, 1e308), which still
        # passes its test; the overflow warning is not one of its decisions
        with np.errstate(over="ignore"):
            expected = refusal(three_test_pair_check, delta_a, delta_b)
        assert refusal(protocol._check_sharp_pair, delta_a, delta_b) == expected

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
            c_best, product_best, boundary = numeric_c_scan(*sharp_deltas(w))
            value, c_opt = min_product(*sharp_deltas(w))
            assert not boundary
            assert product_best == pytest.approx(value, rel=1e-12)
            assert c_best == pytest.approx(c_opt, abs=5e-8)

    def test_boundary_flag_at_b_eigenstate(self):
        _, product_best, boundary = numeric_c_scan(*sharp_deltas(0.5))
        assert boundary
        assert product_best == pytest.approx(1.0, abs=1e-3)

    def test_a_eigenstate_stops_at_the_grid_edge(self):
        # the product 1/sqrt(1 - c^2) rises from c = 0, so every pass keeps
        # the first grid point
        c_best, _, boundary = numeric_c_scan(*sharp_deltas(1.0))
        assert boundary
        assert c_best == 1e-4

    @pytest.mark.parametrize("n", [2, 1000])
    def test_refuses_an_array_pair(self, n):
        # a 1000-element pair would otherwise broadcast against the scan's grid
        delta_a, delta_b = sharp_deltas(np.linspace(0.1, 0.9, n))
        with pytest.raises(UsageError, match="one pair of scalars"):
            numeric_c_scan(delta_a, delta_b)
        with pytest.raises(UsageError, match="one pair of scalars"):
            numeric_c_scan(delta_a, 0.5)

    def test_takes_numpy_scalars_and_0d_arrays(self):
        delta_a, delta_b = sharp_deltas(0.75)
        expected = numeric_c_scan(float(delta_a), float(delta_b))
        assert numeric_c_scan(np.float64(delta_a), np.float64(delta_b)) == expected
        assert numeric_c_scan(np.array(delta_a), np.array(delta_b)) == expected

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-1, 1), y=st.floats(-1, 1))
    def test_mixed_states_reach_the_floor(self, x, y):
        # Bloch components in the unit disk; inside it the state is mixed
        assume(x * x + y * y <= 1.0)
        delta_a, delta_b = math.sqrt(1 - x * x), math.sqrt(1 - y * y)
        c_best, product_best, boundary = numeric_c_scan(delta_a, delta_b)
        value, c_opt = min_product(delta_a, delta_b)
        assert product_best >= value * (1 - 8 * EPS)
        if SCAN_GRID[1] < c_opt < SCAN_GRID[-2]:
            assert not boundary
            assert product_best == pytest.approx(value, rel=1e-9)
            assert c_best == pytest.approx(c_opt, abs=5e-8)
