import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simulmeas import experiment, protocol, qmath
from simulmeas.errors import CalibrationInfeasibleError, RescalingSingularError, UsageError
from simulmeas.experiment import (
    CoincidenceCounts,
    calibrate_alpha,
    estimate_report,
    prepare,
    run_setting,
    sample_coincidences,
    stack_transmittance,
    threshold_index,
)

# chi-square critical value, 3 degrees of freedom, significance 1e-3
CHI2_CRIT_3DF = 16.26623619623813


def bloch(w, sign=+1):
    """(x, y) of the equatorial state sqrt(w)|A+> + sign sqrt(1-w)|A->."""
    return 2 * w - 1, sign * 2 * math.sqrt(w * (1 - w))


def fresnel_plate_amplitude(n):
    """Independent oracle: explicit Fresnel chain with obliquity factors."""
    theta_b = math.atan(n)
    theta_t = math.asin(math.sin(theta_b) / n)
    r1 = (math.cos(theta_b) - n * math.cos(theta_t)) / (math.cos(theta_b) + n * math.cos(theta_t))
    T1 = (n * math.cos(theta_t) / math.cos(theta_b)) * (1 + r1) ** 2
    r2 = (n * math.cos(theta_t) - math.cos(theta_b)) / (n * math.cos(theta_t) + math.cos(theta_b))
    T2 = (math.cos(theta_b) / (n * math.cos(theta_t))) * (1 + r2) ** 2
    return math.sqrt(T1 * T2)


def closed_form_cw(alpha, t):
    """Independent closed forms for the post-selected (w, c) at a setting."""
    c_, s_ = math.cos(alpha), math.sin(alpha)
    term1 = c_ * c_ + t * t * s_ * s_
    term2 = s_ * s_ + t * t * c_ * c_
    w = term1 / (1 + t * t)
    c = (1 - t * t) * s_ * c_ / math.sqrt(term1 * term2)
    return w, c


def prepare_stack(plates, alpha, index=1.5):
    """The state an N-plate stack at rotation alpha prepares."""
    return prepare(stack_transmittance(plates, index), alpha)


def optimality_residual(plates, alpha, index=1.5):
    """c - c_opt of the state the stack prepares at rotation alpha."""
    x, y, c = prepare_stack(plates, alpha, index)
    return c - protocol.min_product(abs(y), abs(x))[1]


def cells(counts):
    """The four joint counts as an array, in `CoincidenceCounts` order."""
    return np.array([counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm])


def counts_at(p, shots):
    """Counts round(p * shots) of the joint distribution p, as sampled data."""
    n = [round(x * shots) for x in np.asarray(p, dtype=float).ravel().tolist()]
    return CoincidenceCounts(*n)


@st.composite
def count_cells(draw):
    """Four counts: up to 10^15 a cell, or up to 2^63 - 1 shots, with few or
    none in some cells, so one or both marginals can be nearly pure."""
    cell = st.one_of(st.integers(0, 100), st.integers(0, 10 ** 15), st.integers(0, 2 ** 61))
    n = draw(st.lists(cell, min_size=3, max_size=3))
    n.append(draw(st.one_of(cell, st.just(2 ** 63 - 1 - sum(n)))))
    n = draw(st.permutations(n))
    assume(any(n))
    return n


def fraction_reduction(n, c):
    """(product, stderr) of the counts n in rational arithmetic: each count
    ratio is rounded once, when it meets c."""
    shots = sum(n)
    b, m = Fraction(n[0] + n[1], shots), Fraction(n[0] + n[2], shots)
    b_var, m_var = b * (1 - b), m * (1 - m)
    product = 4 / (c * math.sqrt(1 - c * c)) * math.sqrt(b_var * m_var)
    if b_var and m_var:
        u, v = (1 - 2 * b) / (2 * b_var), (1 - 2 * m) / (2 * m_var)
        cov = Fraction(n[0], shots) - b * m
        stderr = product * math.sqrt((u * u * b_var + v * v * m_var + 2 * u * v * cov) / shots)
    else:
        stderr = 0.0
    return (product, stderr)


class TestPlateTransmittance:
    @pytest.mark.parametrize("n", [1.2, 1.5, 1.7, 2.0])
    def test_matches_fresnel_oracle(self, n):
        assert stack_transmittance(1, n) == pytest.approx(fresnel_plate_amplitude(n), abs=1e-12)

    def test_reference_values(self):
        amp = stack_transmittance(1, 1.5)
        assert amp == pytest.approx(0.8520710059171598, abs=1e-12)
        assert amp ** 2 == pytest.approx(0.7260249991246805, abs=1e-12)  # per-plate intensity
        assert amp ** 7 == pytest.approx(0.3260847678195326, abs=1e-12)

    def test_index_near_one(self):
        assert stack_transmittance(1, 1 + 1e-9) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [1.0, 0.8, -2.0])
    def test_rejects_bad_index(self, n):
        with pytest.raises(UsageError):
            stack_transmittance(1, n)

    @pytest.mark.parametrize("n", [math.inf, math.nan, 1e200, 1e154, 1e100])
    def test_rejects_index_without_finite_transmittance(self, n):
        with pytest.raises(UsageError):
            stack_transmittance(1, n)
        with pytest.raises(UsageError):
            calibrate_alpha(10, n)

    def test_keeps_the_formula_bits(self):
        n = 1.5
        assert stack_transmittance(1, n) == 4.0 * n * n / (1.0 + n * n) ** 2

    def test_stack_transmittance(self):
        assert stack_transmittance(7, 1.5) == stack_transmittance(1, 1.5) ** 7
        assert stack_transmittance(np.int64(7), 1.5) == stack_transmittance(7, 1.5)
        for plates in (0, -3):
            with pytest.raises(UsageError):
                stack_transmittance(plates, 1.5)
        for index in (1.5, math.nan):  # the count is checked before the index
            with pytest.raises(UsageError, match="too large"):
                stack_transmittance(10 ** 400, index)
        for plates in (2.5, 7.0, "7"):
            with pytest.raises(UsageError, match="must be an integer"):
                stack_transmittance(plates, 1.5)

    def test_rejects_an_index_that_is_not_a_number(self):
        # refused, not parsed, although float("1.5") would succeed
        for plates in (8, 7):
            with pytest.raises(UsageError, match="real number, got '1.5'"):
                calibrate_alpha(plates, "1.5")
        assert stack_transmittance(7, np.float32(1.5)) == stack_transmittance(7, 1.5)

    @pytest.mark.parametrize("n", [10 ** 400, -10 ** 400, Fraction(10 ** 400)],
                             ids=["int", "negative-int", "fraction"])
    def test_rejects_an_index_past_the_float_range(self, n):
        # as an out-of-range float index is refused, not an OverflowError
        with pytest.raises(UsageError, match="does not fit a float"):
            stack_transmittance(1, n)

    def test_a_fraction_index_names_its_value(self):
        # 7 plates at n = 1.5 are too leaky; the message formats the index as a float
        with pytest.raises(CalibrationInfeasibleError, match=r"at index 1\.5: "):
            calibrate_alpha(7, Fraction(3, 2))
        assert calibrate_alpha(10, Fraction(3, 2)) == calibrate_alpha(10, 1.5)


def reference_state(t_s, alpha):
    """(w, sign, c, yield, p) of the setting by the amplitude route."""
    return qmath.prepared_joint(alpha, t_s)


class TestPrepare:
    def test_isotropic_filter_keeps_the_singlet(self):
        x, y, c = prepare(1.0, 0.3)
        assert (x, c, abs(y)) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

    def test_config_validation(self):
        for t_s, alpha in ((-0.1, 0.0), (1.5, 0.0), (math.nan, 0.0),
                           (0.5, math.inf), (0.5, math.nan)):
            with pytest.raises(UsageError):
                prepare(t_s, alpha)
        with pytest.raises(UsageError):
            prepare_stack(3, 0.1, index=0.9)

    def test_aligned_polarizer_biases_w_only(self):
        for t in (0.2, 0.5, 0.9):
            x, _, c = prepare(t, 0.0)
            assert c <= 1e-12
            assert 0.5 * (1 + x) == pytest.approx(1 / (1 + t * t), abs=1e-10)
            assert x > 0

    def test_perfect_diagonal_polarizer_entangles_nothing(self):
        x, _, c = prepare(0.0, math.pi / 4)
        assert c >= 1 - 1e-10
        assert 0.5 * (1 + x) == pytest.approx(0.5, abs=1e-10)

    def test_perfect_aligned_polarizer_is_an_a_eigenstate(self):
        assert prepare(0.0, 0.0) == (1.0, 0.0, 1.0)
        assert reference_state(0.0, 0.0)[:3] == (1.0, 1, 1.0)

    def test_general_setting_matches_closed_form(self):
        x, _, c_prep = prepare(0.3, math.pi / 8)
        w, c = closed_form_cw(math.pi / 8, 0.3)
        assert w == pytest.approx(0.7951684270090633, abs=1e-12)
        assert c == pytest.approx(0.7313779906865137, abs=1e-12)
        assert 0.5 * (1 + x) == pytest.approx(w, abs=1e-10)
        assert c_prep == pytest.approx(c, abs=1e-10)

    def test_yield_is_rotation_invariant(self):
        # the post-selection yield (1 + t_s^2)/2 that `prepare` states
        t = stack_transmittance(8, 1.5)
        expected = (1 + t * t) / 2
        for alpha in np.linspace(0, math.pi / 2, 101).tolist():
            assert reference_state(t, alpha)[3] == pytest.approx(expected, abs=1e-10)

    def test_state_consistent_with_decomposition(self):
        rng = np.random.default_rng(22)
        t = stack_transmittance(7, 1.5)
        for _ in range(50):
            alpha = rng.uniform(0.01, math.pi / 4)
            x, y, c_prep = prepare(t, alpha)
            w, sign, c, _, p = reference_state(t, alpha)
            assert (0.5 * (1 + x), c_prep) == pytest.approx((w, c), abs=1e-14)
            assert y == pytest.approx(sign * 2 * math.sqrt(w * (1 - w)), abs=1e-12)
            assert x == pytest.approx(2 * w - 1, abs=1e-14)
            np.testing.assert_allclose(
                protocol.joint_distribution(x, y, c_prep), p, rtol=0, atol=1e-14)

    @settings(max_examples=400, deadline=None)
    @given(alpha=st.floats(-math.pi, math.pi), t_s=st.floats(0, 1))
    def test_matches_the_amplitude_route(self, alpha, t_s):
        x, y, c_prep = prepare(t_s, alpha)
        w, sign, c, p_ok, p = reference_state(t_s, alpha)
        assert p_ok == pytest.approx((1 + t_s * t_s) / 2, rel=4 * sys.float_info.epsilon)
        assert 0.5 * (1 + x) == pytest.approx(w, abs=1e-15)
        assert x == pytest.approx(2 * w - 1, abs=1e-15)
        assert 0.0 <= c_prep <= 1.0
        if abs(y) < 1e-8:
            # the reference reads a conditional below norm 1e-9 as an A
            # eigenstate (c = 1) whatever its overlap; both agree at delta_a = 0
            assert y != 0 or (c_prep == c == 1.0)
            return
        assert c_prep == pytest.approx(c, abs=1e-12)
        assert y ** 2 + x ** 2 == pytest.approx(1.0, abs=1e-15)
        if c > 1e-9:
            assert math.copysign(1, y) == sign
        if p is not None:
            np.testing.assert_allclose(
                protocol.joint_distribution(x, y, c_prep), p, rtol=0, atol=1e-9)

    def test_continuity_in_alpha(self):
        # 1e-4-spaced rotation grid: no branch jumps in (c, w)
        alphas = np.arange(1e-4, math.pi / 4, 1e-4)
        t = stack_transmittance(7, 1.5)
        cws = np.array([
            (c, 0.5 * (1 + x))
            for x, _, c in (prepare(t, float(a)) for a in alphas)])
        steps = np.abs(np.diff(cws, axis=0))
        assert steps.max() < 1e-3


class TestCalibrateAlpha:
    def test_two_roots_for_feasible_stacks(self):
        for plates in (8, 10):
            roots = calibrate_alpha(plates)
            assert len(roots) == 2
            assert roots == sorted(roots)
            for alpha in roots:
                x, y, c = prepare_stack(plates, alpha)
                delta_a, delta_b = abs(y), abs(x)
                _, c_opt = protocol.min_product(delta_a, delta_b)
                assert abs(c - c_opt) < 1e-8
                # at the root the achieved product touches its floor
                product = protocol.unsharp_product(delta_a, delta_b, c)
                assert product == pytest.approx(1 + delta_a * delta_b, abs=1e-8)

    def test_seven_plates_infeasible_at_default_index(self):
        with pytest.raises(CalibrationInfeasibleError) as err:
            calibrate_alpha(7)
        # k^2 exactly from the rational per-plate amplitude 144/169; k_min^2
        # is the real root of 16 K^3 - 56 K^2 + 75 K - 31, where the
        # optimality cubic's discriminant vanishes
        t2 = Fraction(144, 169) ** 14
        k2 = ((1 - t2) / (1 + t2)) ** 2
        k2_min = min(r.real for r in np.roots([16, -56, 75, -31]) if abs(r.imag) < 1e-12)
        assert err.value.margin == pytest.approx(float(k2) - k2_min, abs=1e-9)
        assert err.value.margin < 0
        assert err.value.threshold_index == pytest.approx(1.5375383, abs=1e-7)

    @pytest.mark.parametrize("plates, diagnostic", [
        (7, "-0.0705435; this plate count calibrates above index n* = 1.5375383"),
        # feasible, but both roots round onto the edges of (0, pi/4)
        (3000, "+0.2769532; the stack is feasible, but double precision cannot resolve "
               "its roots"),
    ])
    def test_message_carries_the_diagnostic(self, plates, diagnostic):
        with pytest.raises(CalibrationInfeasibleError) as err:
            calibrate_alpha(plates)
        assert str(err.value).splitlines()[1] == (
            "diagnostic: margin k^2 - k_min^2 = " + diagnostic)

    def test_seven_plates_feasible_at_higher_index(self):
        roots = calibrate_alpha(7, refractive_index=1.55)
        assert len(roots) == 2

    def test_messages_name_the_index_in_full(self):
        # 12 significant digits, as the CLI prints the index in its header
        with pytest.raises(CalibrationInfeasibleError, match=r"at index 1\.0000001: "):
            calibrate_alpha(10, 1.0000001)
        with pytest.warns(UserWarning, match=r"at index 1\.50000001: expected 2"):
            calibrate_alpha(150, 1.50000001)

    def test_rejects_bad_plate_count(self):
        with pytest.raises(UsageError):
            calibrate_alpha(0)
        with pytest.raises(UsageError):
            threshold_index(0)
        with pytest.raises(UsageError, match="too large"):
            threshold_index(10 ** 400)
        with pytest.raises(UsageError, match="must be an integer"):
            threshold_index(2.5)
        assert threshold_index(np.int64(7)) == threshold_index(7)

    @pytest.mark.parametrize("plates, expected", [
        # roots found by the former 2000-point scan with bisection to 1e-10
        (8, (0.35422918440895657, 0.5126281695499301)),
        (10, (0.15880538662806387, 0.6866207489381614)),
    ])
    def test_matches_scan_roots(self, plates, expected):
        assert calibrate_alpha(plates) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("index", [1.5, 1.55])
    @pytest.mark.parametrize("plates", [32, 40, 60])
    def test_thick_stacks_have_two_roots(self, plates, index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = calibrate_alpha(plates, index)
        assert len(roots) == 2
        for alpha in roots:
            assert abs(optimality_residual(plates, alpha, index)) < 1e-8

    def test_roots_rounding_onto_an_edge_are_dropped(self):
        # the root near pi/4 lies within rounding of it from about 120 plates,
        # the one near 0 from about 780; the stack itself stays feasible
        with pytest.warns(UserWarning, match="found 1"):
            roots = calibrate_alpha(150)
        assert len(roots) == 1 and 0.0 < roots[0] < 1e-12
        with pytest.raises(CalibrationInfeasibleError) as err:
            calibrate_alpha(3000)
        assert err.value.margin > 0

    def test_threshold_index(self):
        assert threshold_index(7) == pytest.approx(1.5375383, abs=1e-7)
        # the stack parameter at n* sits on the feasibility threshold
        for plates in (3, 7, 12):
            n_star = threshold_index(plates)
            assert calibrate_alpha(plates, n_star + 1e-6)
            with pytest.raises(CalibrationInfeasibleError):
                calibrate_alpha(plates, n_star - 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(plates=st.integers(8, 60), index=st.floats(1.5, 1.7))
    def test_roots_property(self, plates, index):
        roots = calibrate_alpha(plates, index)
        assert len(roots) == 2
        assert 0.0 < roots[0] < roots[1] < math.pi / 4
        for alpha in roots:
            assert abs(optimality_residual(plates, alpha, index)) < 1e-12


class TestSampling:
    def test_deterministic_point_mass(self):
        counts = sample_coincidences([1, 0, 0, 0], shots=500, seed=9)
        assert (counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm) == (500, 0, 0, 0)

    def test_uniform_within_five_sigma(self):
        shots = 10 ** 6
        sigma = math.sqrt(shots * 3 / 16)
        counts = sample_coincidences([0.25] * 4, shots=shots, seed=10)
        for n in cells(counts):
            assert abs(n - shots / 4) < 5 * sigma

    def test_same_seed_same_counts(self):
        p = [0.4, 0.3, 0.2, 0.1]
        a = sample_coincidences(p, shots=10 ** 5, seed=123)
        b = sample_coincidences(p, shots=10 ** 5, seed=123)
        assert a == b

    def test_counts_conserved(self):
        counts = sample_coincidences([0.4, 0.3, 0.2, 0.1], shots=999, seed=5)
        assert counts.n_pp + counts.n_pm + counts.n_mp + counts.n_mm == 999

    def test_rejects_bad_distribution(self):
        # the sampler draws p as given: its sum must be 1 to the
        # multinomial draw's own tolerance of 1e-12
        for p in ([0.5, 0.5, 0.5, 0.5], [math.nan, 0.5, 0.25, 0.25], [0.5 + 5e-10, 0.5, 0, 0],
                  [0.25, 0.25, 0.25, 0.25 - 5e-10], [0.5, 0.5, 0, -1e-11]):
            with pytest.raises(UsageError, match="not a probability distribution"):
                sample_coincidences(p, shots=10, seed=0)
        with pytest.raises(UsageError, match=r"expected 4 joint probabilities, got shape \(2,\)"):
            sample_coincidences([0.5, 0.5], shots=10, seed=0)
        with pytest.raises(UsageError):
            sample_coincidences([1, 0, 0, 0], shots=0, seed=0)

    @pytest.mark.parametrize("shots, seed, match", [
        (10.7, 1, "must be integers"), ("10", 1, "must be integers"),
        (10, 1.5, "must be integers"), (10, -1, "seed must be a non-negative integer"),
        (experiment.MAX_SHOTS + 1, 1, "shots must be in 1..")],
        ids=["float shots", "string shots", "float seed", "negative seed", "shots past int64"])
    def test_rejects_bad_shots_and_seeds(self, shots, seed, match):
        with pytest.raises(UsageError, match=match):
            sample_coincidences([0.25] * 4, shots, seed)

    def test_counts_validation(self):
        with pytest.raises(UsageError, match="sum to 0"):
            CoincidenceCounts(n_pp=0, n_pm=0, n_mp=0, n_mm=0)
        with pytest.raises(UsageError, match="non-negative"):
            CoincidenceCounts(n_pp=3, n_pm=-1, n_mp=1, n_mm=1)
        assert CoincidenceCounts(n_pp=1, n_pm=2, n_mp=0, n_mm=4).shots == 7

    @pytest.mark.parametrize("counts", [
        (2.5, 2.5, 2.5, 2.5), (2.0, 3, 3, 2), (2, 3, 3, 2.0),
        (np.float64(5), 5, 0, 0), ("5", 5, 0, 0)])
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(UsageError, match="integers"):
            CoincidenceCounts(*counts)

    def test_numpy_integer_counts_become_python_integers(self):
        # products of four counts overflow int64; the stored counts must not
        n = np.array([3 * 10 ** 15, 2 * 10 ** 15, 10 ** 15, 4 * 10 ** 15], dtype=np.int64)
        counts = CoincidenceCounts(*n)
        assert [type(getattr(counts, f)) for f in ("n_pp", "n_pm", "n_mp", "n_mm", "shots")] \
            == [int] * 5
        assert estimate_report(counts, 0.5) == estimate_report(
            CoincidenceCounts(*n.tolist()), 0.5)


class TestEstimateReport:
    def test_plug_in_consistency(self):
        # counts at the exact probabilities must reproduce the analytic product
        w, c = 0.75, 0.6
        p = protocol.joint_distribution(*bloch(w), c)
        product, stderr = estimate_report(counts_at(p, 10 ** 15), c)
        delta_a, delta_b = protocol.sharp_deltas(w)
        assert product == pytest.approx(
            protocol.unsharp_product(delta_a, delta_b, c), abs=1e-9)
        assert stderr > 0

    def test_monte_carlo_convergence(self):
        w, c = 0.8, 0.55
        _, product, _ = run_setting(*bloch(w), c, shots=10 ** 7, seed=33)
        delta_a, delta_b = protocol.sharp_deltas(w)
        analytic = protocol.unsharp_product(delta_a, delta_b, c)
        assert abs(product - analytic) / analytic < 0.01

    def test_noise_inflates_product(self):
        w, c = 0.75, 0.6
        p = protocol.joint_distribution(*bloch(w), c)
        clean, _ = estimate_report(counts_at(p, 10 ** 15), c)
        noisy, _ = estimate_report(counts_at(0.95 * p + 0.0125, 10 ** 15), c)
        assert noisy > clean

    def test_degenerate_marginal_warns_but_reports(self):
        counts = CoincidenceCounts(n_pp=6, n_pm=4, n_mp=0, n_mm=0)
        with pytest.warns(UserWarning, match="degenerate"):
            product, stderr = estimate_report(counts, 0.5)
        assert product == 0.0
        assert stderr == 0.0

    def test_singular_measured_overlap(self):
        counts = CoincidenceCounts(n_pp=3, n_pm=3, n_mp=2, n_mm=2)
        with pytest.raises(RescalingSingularError):
            estimate_report(counts, 0.0)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_singular_overlap_is_refused_before_the_degenerate_warning(self, c):
        # both marginals are pure here, so a warning first would be an error
        with warnings.catch_warnings(), pytest.raises(RescalingSingularError):
            warnings.simplefilter("error")
            estimate_report(CoincidenceCounts(10, 0, 0, 0), c)

    @pytest.mark.filterwarnings("ignore:a marginal has zero weight")
    @settings(max_examples=400, deadline=None)
    @given(n=count_cells(), c=st.floats(1e-150, 1 - 1e-12))
    def test_matches_the_fraction_reduction(self, n, c):
        got = estimate_report(CoincidenceCounts(*n), c)
        expected = fraction_reduction(n, c)
        assert got == pytest.approx(expected, rel=4 * sys.float_info.epsilon, abs=0)

    def test_stderr_finite_where_the_gradient_squares_overflow(self):
        # mc --w 0.999999999999 --c 1e-150 --shots 1e14 --seed 1: a product
        # near 2e144 with a nearly pure probe marginal (1 - m_plus is 9.5e-13)
        n = (49999997003731, 43, 50000002996174, 52)
        shots, c = sum(n), 1e-150
        product, stderr = estimate_report(CoincidenceCounts(*n), c)
        # the exact delta method on the counts, rounded once
        b, m = Fraction(n[0] + n[1], shots), Fraction(n[0] + n[2], shots)
        u, v = (1 - 2 * b) / (2 * b * (1 - b)), (1 - 2 * m) / (2 * m * (1 - m))
        cov = Fraction(n[0], shots) - b * m
        rel_var = (u * u * b * (1 - b) + v * v * m * (1 - m) + 2 * u * v * cov) / shots
        assert product == 1.9493588689608633e+144
        assert stderr == product * math.sqrt(rel_var)


class TestRunSetting:
    def test_calibrated_setting_hits_the_floor(self):
        alpha = calibrate_alpha(10)[0]
        x, y, c = prepare_stack(10, alpha)
        _, product, stderr = run_setting(x, y, c, shots=10 ** 6, seed=77)
        target = 1 + abs(y) * abs(x)
        z = abs(product - target) / stderr
        assert z < 3.0

    def test_aligned_setting_is_singular(self):
        with pytest.raises(RescalingSingularError):
            run_setting(*prepare_stack(8, 0.0), shots=100, seed=1)

    def test_determinism(self):
        alpha = calibrate_alpha(10)[1]
        state = prepare_stack(10, alpha)
        a = run_setting(*state, shots=10 ** 5, seed=4242)
        b = run_setting(*state, shots=10 ** 5, seed=4242)
        assert a == b

    def test_zero_visibility_flattens_any_state(self):
        shots = 10 ** 6
        sigma = math.sqrt(shots * 3 / 16)
        counts, _, _ = run_setting(*bloch(0.95), 0.6, shots=shots, seed=11, visibility=0.0)
        for n in cells(counts):
            assert abs(n - shots / 4) < 5 * sigma

    def test_chi_square_goodness_of_fit(self):
        # V = 0.9 mixes in white noise: V p + (1 - V)/4
        p = protocol.joint_distribution(*bloch(0.75), 0.6).ravel()
        expected = (0.9 * p + 0.025) * 20000
        for seed in range(100):
            counts, _, _ = run_setting(*bloch(0.75), 0.6, shots=20000, seed=seed,
                                       visibility=0.9)
            chi2 = ((cells(counts) - expected) ** 2 / expected).sum()
            assert chi2 < CHI2_CRIT_3DF

    @pytest.mark.parametrize("visibility", [1.2, -0.1, math.nan])
    def test_rejects_bad_visibility(self, visibility):
        with pytest.raises(UsageError, match="visibility"):
            run_setting(*bloch(0.7), 0.5, shots=10, seed=0, visibility=visibility)

    def test_explicit_state_rejects_singular_overlap(self):
        with pytest.raises(RescalingSingularError):
            run_setting(*bloch(0.7), 0.0, shots=100, seed=0)

    @pytest.mark.parametrize("c", [1.0, math.nan, 1e-300])
    def test_rejects_unrescalable_overlap(self, c):
        with pytest.raises(RescalingSingularError):
            run_setting(*bloch(0.7), c, shots=100, seed=0)

    def test_object_eigenstate(self):
        # |A+> is measurable: the probe's M+ rate is (1 + sqrt(1 - c^2))/2
        shots, c = 10 ** 5, 0.5
        counts, _, _ = run_setting(*bloch(1.0), c, shots=shots, seed=3)
        rate = (1 + math.sqrt(1 - c * c)) / 2
        assert abs((counts.n_pp + counts.n_mp) / shots - rate) < 5 * math.sqrt(
            rate * (1 - rate) / shots)
