"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 7-9 are expected to fail at the default glass index 1.5: a
seven-plate stack cannot reach the optimal-product condition there (its
optimality residual peaks at about -0.063; the minimum feasible index is
about 1.5375), so only four of the nominal six settings calibrate. The
failures are left red on purpose rather than papered over; see the
"optical twin" section of the README. Everything the four feasible
settings can check statistically does pass.
"""

import math
import os
import time

import numpy as np
import pytest

from simulmeas import cli, experiment, protocol
from simulmeas.errors import CalibrationInfeasibleError
from simulmeas.experiment import calibrate_alpha, run_setting, stack_transmittance

PLATE_COUNTS = (7, 8, 10)
INDEX = 1.5
MC_SEED_BASE = 1000
NOISE_SEED = 777


def record(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def calibrated_settings():
    """All (plates, alpha) pairs that calibrate at the default index."""
    settings = []
    infeasible = []
    for plates in PLATE_COUNTS:
        try:
            for alpha in calibrate_alpha(plates, INDEX):
                settings.append((plates, alpha))
        except CalibrationInfeasibleError:
            infeasible.append(plates)
    return settings, infeasible


def test_criterion_01_closed_form_vs_brute_force():
    """Scan minimum matches 1 + delta_a*delta_b and its argmin, 101 w values."""
    start = time.perf_counter()
    w_values = np.linspace(0.5, 1.0, 101)
    worst_value, worst_argmin = 0.0, 0.0
    for w in w_values[1:-1]:
        c_best, product_best, _ = protocol.numeric_c_scan(*protocol.sharp_deltas(float(w)))
        value, c_opt = protocol.min_product(*protocol.sharp_deltas(float(w)))
        worst_value = max(worst_value, abs(product_best - value))
        worst_argmin = max(worst_argmin, abs(c_best - c_opt))
    # boundary cases are limits: the scan must flag them and approach the
    # limiting product 1 from above
    edge_ok = True
    for w in (0.5, 1.0):
        _, product_best, boundary = protocol.numeric_c_scan(*protocol.sharp_deltas(w))
        edge_ok &= boundary and abs(product_best - 1.0) < 1e-3
    elapsed = time.perf_counter() - start
    ok = worst_value <= 1e-6 and worst_argmin <= 1e-4 and edge_ok and elapsed < 1.0
    record(1, ok, f"brute-force optimum: max value err {worst_value:.2e}, "
                  f"max argmin err {worst_argmin:.2e}, boundaries flagged, {elapsed:.2f}s")


def _oracle_joint_distribution(w, sign, c):
    """Independent amplitude chain, vectorized over equal-length arrays.

    Canonical conditionals (cos(phi), +-sin(phi)) with cos(2*phi) = c; the
    equal-angle probe basis for that pair is the fixed +-45-degree basis.
    Never touches package code.
    """
    phi = 0.5 * np.arccos(c)
    m_on_plus = np.stack([(np.cos(phi) + np.sin(phi)) / np.sqrt(2),
                          (np.cos(phi) - np.sin(phi)) / np.sqrt(2)])
    m_on_minus = np.stack([(np.cos(phi) - np.sin(phi)) / np.sqrt(2),
                           (np.cos(phi) + np.sin(phi)) / np.sqrt(2)])
    object_signs = np.array([1.0, -1.0])
    p = np.empty((2, 2) + np.shape(w))
    for i in range(2):
        for j in range(2):
            amp = (np.sqrt(w) * m_on_plus[j]
                   + object_signs[i] * sign * np.sqrt(1 - w) * m_on_minus[j]) / np.sqrt(2)
            p[i, j] = amp ** 2
    return p


RANDOM_PAIRS = 10 ** 4


def _random_pairs():
    rng = np.random.default_rng(20260810)
    w = rng.uniform(1e-6, 1 - 1e-6, RANDOM_PAIRS)
    c = rng.uniform(1e-6, 1 - 1e-6, RANDOM_PAIRS)
    sign = rng.choice([1.0, -1.0], RANDOM_PAIRS)
    return w, c, sign


def test_criterion_02_closed_form_equals_direct_variances():
    """Analytic inferred uncertainties vs direct standard deviations, 1e-10."""
    start = time.perf_counter()
    w, c, sign = _random_pairs()
    p = _oracle_joint_distribution(w, sign, c)
    a_scaled, b_scaled = 1 / np.sqrt(1 - c ** 2), 1 / c
    probe_plus = p[:, 0].sum(axis=0)
    object_plus = p[0, :].sum(axis=0)
    mean_a = a_scaled * (2 * probe_plus - 1)
    mean_b = b_scaled * (2 * object_plus - 1)
    direct_a = np.sqrt(np.maximum(a_scaled ** 2 - mean_a ** 2, 0.0))
    direct_b = np.sqrt(np.maximum(b_scaled ** 2 - mean_b ** 2, 0.0))
    analytic = np.array([
        protocol.unsharp_deltas(*protocol.sharp_deltas(wi), ci) for wi, ci in zip(w, c)])
    err_a = float(np.abs(analytic[:, 0] - direct_a).max())
    err_b = float(np.abs(analytic[:, 1] - direct_b).max())
    elapsed = time.perf_counter() - start
    ok = err_a <= 1e-10 and err_b <= 1e-10 and elapsed < 1.0
    record(2, ok, f"direct-variance equivalence over {RANDOM_PAIRS} pairs: "
                  f"max errs {err_a:.2e}/{err_b:.2e}, {elapsed:.2f}s")


def test_criterion_03_unbiasedness():
    """Package inferred means equal sharp means to 1e-10, same random pairs."""
    w, c, sign = _random_pairs()
    sharp_a = 2 * w - 1
    sharp_b = sign * 2 * np.sqrt(w * (1 - w))
    p = protocol.joint_distribution(sharp_a, sharp_b, c)
    mean_a = (p[:, 0].sum(axis=0) - p[:, 1].sum(axis=0)) / np.sqrt(1 - c ** 2)
    mean_b = (p[0, :].sum(axis=0) - p[1, :].sum(axis=0)) / c
    worst = float(max(np.abs(mean_a - sharp_a).max(), np.abs(mean_b - sharp_b).max()))
    ok = worst <= 1e-10
    record(3, ok, f"unbiased inference over {RANDOM_PAIRS} pairs: max mean err {worst:.2e}")


def test_criterion_04_nine_times_bound():
    """Simultaneous floor squared is at least 9x the sharp product squared."""
    w = np.linspace(0.0, 1.0, 10 ** 6 + 2)[1:-1]
    sharp = 2 * np.sqrt(w * (1 - w)) * np.abs(2 * w - 1)
    ratio_sq = ((1 + sharp) / sharp) ** 2
    low = float(ratio_sq.min())
    ok = low >= 9 - 1e-6 and low <= 9 + 1e-4
    record(4, ok, f"nine-times bound on a 1e6-point grid: min ratio^2 = {low:.9f}")


def test_criterion_05_max_product():
    """Eq-level check of the worst-case product and its relation to the floor."""
    symmetric = protocol.max_product(1 / math.sqrt(2))
    settings, _ = calibrated_settings()
    dominated = []
    for plates, alpha in settings:
        x, y, c = experiment.prepare(stack_transmittance(plates, INDEX), alpha)
        dominated.append(protocol.max_product(c) >= 1 + abs(y) * abs(x))
    ok = abs(symmetric - 2.0) <= 1e-12 and all(dominated) and len(dominated) > 0
    record(5, ok, f"max product: value at 1/sqrt(2) = {symmetric!r}, "
                  f"dominates the floor at {len(dominated)} calibrated settings")


def test_criterion_06_preparation_endpoints():
    """Aligned polarizer biases w only; perfect diagonal one entangles nothing."""
    worst_c, worst_w = 0.0, 0.0
    for t in (0.2, 0.32608476781953255, 0.7):
        x, _, c = experiment.prepare(t, 0.0)
        worst_c = max(worst_c, c)
        worst_w = max(worst_w, abs(0.5 * (1 + x) - 1 / (1 + t * t)))
    x, _, c = experiment.prepare(0.0, math.pi / 4)
    w = 0.5 * (1 + x)
    ok = (worst_c <= 1e-12 and worst_w <= 1e-10
          and c >= 1 - 1e-10 and abs(w - 0.5) <= 1e-10)
    record(6, ok, f"preparation endpoints: aligned c <= {worst_c:.1e}, "
                  f"|w - 1/(1+t^2)| <= {worst_w:.1e}; diagonal c = {c:.12f}, "
                  f"w = {w:.12f}")


def test_criterion_07_calibration_six_settings():
    """Exactly two rotation roots per stack at index 1.5, residual < 1e-8."""
    start = time.perf_counter()
    per_stack = {}
    worst_residual = 0.0
    for plates in PLATE_COUNTS:
        try:
            roots = calibrate_alpha(plates, INDEX)
        except CalibrationInfeasibleError as err:
            per_stack[plates] = f"infeasible (margin k^2 - k_min^2 = {err.margin:+.4f})"
            continue
        per_stack[plates] = f"{len(roots)} roots"
        for alpha in roots:
            x, y, c = experiment.prepare(stack_transmittance(plates, INDEX), alpha)
            _, c_opt = protocol.min_product(abs(y), abs(x))
            worst_residual = max(worst_residual, abs(c - c_opt))
    elapsed = time.perf_counter() - start
    ok = (all(v == "2 roots" for v in per_stack.values())
          and worst_residual < 1e-8 and elapsed < 5.0)
    record(7, ok, f"calibration at index {INDEX}: "
                  + "; ".join(f"{n} plates -> {v}" for n, v in per_stack.items())
                  + f"; max residual {worst_residual:.2e}, {elapsed:.2f}s")


def test_criterion_08_monte_carlo_reproduces_the_floor():
    """Measured product within 3 stderr of 1 + delta_a*delta_b, 19/20 seeds."""
    start = time.perf_counter()
    settings, infeasible = calibrated_settings()
    stats_ok = True
    details = []
    for plates, alpha in settings:
        x, y, c = experiment.prepare(stack_transmittance(plates, INDEX), alpha)
        target = 1 + abs(y) * abs(x)
        hits = 0
        for k in range(20):
            _, product, stderr = run_setting(x, y, c, shots=10 ** 6, seed=MC_SEED_BASE + k)
            err = abs(product - target)
            hits += err <= 3 * stderr
        stats_ok &= hits >= 19
        details.append(f"{plates}p/{alpha:.3f}: {hits}/20")
    elapsed = time.perf_counter() - start
    ok = stats_ok and len(settings) == 6 and elapsed < 30.0
    record(8, ok, f"Monte Carlo floor reproduction on {len(settings)}/6 settings "
                  f"({', '.join(details)}); infeasible stacks: {infeasible or 'none'}; "
                  f"{elapsed:.1f}s")


def test_criterion_09_noise_direction():
    """Visibility 0.95 pushes every measured product above its clean value."""
    settings, infeasible = calibrated_settings()
    above = []
    for plates, alpha in settings:
        x, y, c = experiment.prepare(stack_transmittance(plates, INDEX), alpha)
        _, product, stderr = run_setting(x, y, c, shots=10 ** 6, seed=NOISE_SEED,
                                         visibility=0.95)
        clean = protocol.unsharp_product(abs(y), abs(x), c)
        above.append(product > clean)
    ok = all(above) and len(above) == 6
    record(9, ok, f"noise direction at visibility 0.95: {sum(above)}/{len(above)} "
                  f"measured products above clean values (6 required); "
                  f"infeasible stacks: {infeasible or 'none'}")


def test_criterion_10_deterministic_output(tmp_path):
    """Identical run configuration produces byte-identical CSV output."""
    config = tmp_path / "run.cfg"
    config.write_text("seed = 31415\nshots = 200000\nvisibility = 1.0\n")
    pairs = []
    for name, args in (
        ("sweep", ["sweep", "--grid", "301"]),
        ("mc", ["--config", str(config), "mc", "--w", "0.82", "--c", "0.61"]),
    ):
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert cli.main(list(args) + ["--out", str(a)]) == 0
        assert cli.main(list(args) + ["--out", str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())
    ok = all(pairs)
    record(10, ok, f"byte-identical CSV across repeated runs: sweep={pairs[0]}, mc={pairs[1]}")


def test_criterion_11_non_reproducibility_note():
    """The six originally measured products are not asserted anywhere; the
    README says so explicitly and points at the property-based checks."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        text = fh.read().lower()
    ok = "never published in tabular form" in text and "property-based" in text
    record(11, ok, "README documents that the original six measured products are "
                   "not numerically reproducible and property-based checks substitute")
