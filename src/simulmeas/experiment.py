"""Digital twin of the photon-pair experiment.

A down-conversion source emits polarization-singlet pairs; coincidence
post-selection keeps only the two-photon component. A partial polarizer --
a stack of glass plates at the Brewster angle -- sits in the object arm,
transmitting its high axis without loss and the orthogonal axis with
amplitude t_s set by the plate count. Rotated by alpha from the vertical
|A+> direction, it turns the post-selected singlet into the protocol's
partially entangled family: alpha = 0 leaves the probe conditionals
orthogonal (c = 0) while biasing w_a_plus above 1/2; a perfect polarizer at
alpha = pi/4 gives a product state (c = 1) with w_a_plus = 1/2. For a
fixed stack, w and c cannot be tuned independently: only the rotation
angles where c matches sqrt(delta_a/(delta_a+delta_b)) reach the minimum
simultaneous uncertainty product, and `calibrate_alpha` finds them.

`prepare` returns the state as its Bloch triple (x, y, c). Imperfect
purity is a visibility V: the white-noise mixture V rho + (1 - V) I/4
shortens the object's Bloch vector to (V x, V y), and since the coincidence
distribution is affine in x and y about 1/4, `run_setting` samples exactly
`protocol.joint_distribution(V x, V y, c)`. Coincidence counting is seeded
multinomial sampling over those four joint outcomes, and `estimate_report`
reduces the counts to the simultaneous product and its standard error.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import protocol
from .errors import CalibrationInfeasibleError, UsageError

__all__ = [
    "CoincidenceCounts",
    "stack_transmittance",
    "prepare",
    "calibrate_alpha",
    "threshold_index",
    "sample_coincidences",
    "estimate_report",
    "run_setting",
]

DEFAULT_REFRACTIVE_INDEX = 1.5
# the multinomial sampler draws int64 counts
MAX_SHOTS = 2 ** 63 - 1


# --------------------------------------------------------------------------
# polarizer and the prepared state

def _plate_count(plate_count: int) -> int:
    """The plate count as an int >= 1 that converts to float (numpy ints accepted)."""
    try:
        n = operator.index(plate_count)
    except TypeError:
        raise UsageError(f"plate_count must be an integer, got {plate_count!r}") from None
    if n < 1:
        raise UsageError(f"plate_count must be >= 1, got {n}")
    try:
        float(n)
    except OverflowError:
        raise UsageError(f"plate_count {n} is too large") from None
    return n


def stack_transmittance(plate_count: int, refractive_index: float) -> float:
    """s amplitude transmittance t_s = t^N of an N-plate stack at Brewster incidence.

    Each plate has two air/glass interfaces; at the Brewster angle the
    single-interface s intensity transmittance is 4n^2/(1+n^2)^2, so the
    per-plate amplitude t = sqrt(T1*T2) equals that same expression. The p
    polarization passes without reflection. An index that is not a real
    number, or so large that the expression leaves the float range, is
    refused.
    """
    plates = _plate_count(plate_count)
    if not isinstance(refractive_index, numbers.Real):
        raise UsageError(f"refractive index must be a real number, got {refractive_index!r}")
    try:
        n = float(refractive_index)
    except OverflowError:
        raise UsageError("refractive index is out of range: it does not fit a float") from None
    if not n > 1.0:
        raise UsageError(f"refractive index must exceed 1, got {n}")
    try:
        t = 4.0 * n * n / (1.0 + n * n) ** 2
    except OverflowError:
        t = math.nan
    if not math.isfinite(t):
        raise UsageError(f"refractive index {n:g} is out of range: "
                         "the plate transmittance is not finite")
    return t ** plates


def prepare(t_s: float, alpha: float) -> tuple[float, float, float]:
    """Send the singlet's object photon through the polarizer and post-select.

    The stack passes its high axis, at ``alpha`` from the vertical |A+>
    direction, without loss and the orthogonal axis with amplitude ``t_s``.
    With S = t_s^2, k = (1 - S)/(1 + S) and a = 4S/(1 + S)^2 = 1 - k^2, the
    post-selected state has

        x = k cos 2alpha,   delta_a = sqrt(a + k^2 sin^2 2alpha),
        y = sgn(sin 2alpha) delta_a,   c = k |sin 2alpha| / delta_a,

    and returns the Bloch triple (x, y, c) of the state
    sqrt(w)|A+> (x) m+ + sgn(y) sqrt(1-w)|A-> (x) m-, w = (1 + x)/2, with
    probe overlap c = |<m+|m->|. The post-selection yield is (1 + S)/2 >= 1/2,
    independent of alpha by singlet isotropy. sqrt(a) = 2 t_s/(1 + S) is
    formed directly, so delta_a keeps full relative precision for thick
    stacks. At delta_a = 0 (t_s = 0 at alpha = 0) the object is an A
    eigenstate and c is reported as 1.
    """
    if not 0.0 <= t_s <= 1.0:
        raise UsageError(f"need 0 <= t_s <= 1, got t_s={t_s}")
    if not math.isfinite(alpha):
        raise UsageError("alpha must be finite")
    s = t_s * t_s
    total = 1.0 + s
    k = (1.0 - s) / total
    sin2, cos2 = math.sin(2.0 * alpha), math.cos(2.0 * alpha)
    x = k * cos2
    delta_a = math.hypot(2.0 * t_s / total, k * sin2)
    c = k * abs(sin2) / delta_a if delta_a > 0.0 else 1.0
    return x, math.copysign(delta_a, sin2), c


# --------------------------------------------------------------------------
# calibration to the minimum-product condition

def _bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi], given f < 0 at lo and f > 0 at hi, to the last bit.

    The end signs are known from the algebra rather than evaluated, so an
    underflowing end value cannot flip the bracket.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


# k_min^2: the stack parameter k^2 at which the optimality cubic's two
# positive roots merge; its discriminant vanishes where
# 16 K^3 - 56 K^2 + 75 K - 31 = 0, a cubic increasing in K with one real
# root, in (0, 1)
_K2_MIN = _bisect(lambda K: ((16.0 * K - 56.0) * K + 75.0) * K - 31.0, 0.0, 1.0)
# largest feasible t_s, sqrt((1 - k_min)/(1 + k_min))
_T_S_MAX = math.sqrt((1.0 - math.sqrt(_K2_MIN)) / (1.0 + math.sqrt(_K2_MIN)))


def threshold_index(plate_count: int) -> float:
    """Glass index n*(N) above which an N-plate stack can be calibrated.

    A stack reaches the minimum product exactly when k^2 > k_min^2 =
    0.7230468, i.e. when t_s < 0.2844173. Solving (4n^2/(1+n^2)^2)^N =
    t_s_max for n > 1 gives n* = (1 + sqrt(1 - tau))/sqrt(tau) with
    tau = t_s_max^(1/N); for 7 plates n* = 1.5375383.
    """
    tau = _T_S_MAX ** (1.0 / _plate_count(plate_count))
    return (1.0 + math.sqrt(1.0 - tau)) / math.sqrt(tau)


def calibrate_alpha(plate_count: int,
                    refractive_index: float = DEFAULT_REFRACTIVE_INDEX) -> list[float]:
    """Rotation angles where the prepared state attains the minimum product.

    The stack prepares delta_b = k cos(2 alpha) and delta_a^2 = 1 - delta_b^2
    with k = (1 - t_s^2)/(1 + t_s^2), and c^2 = (k^2 - delta_b^2)/delta_a^2.
    With a = 1 - k^2 and y = k^2 sin^2(2 alpha) = delta_a^2 - a, the
    optimality condition c^2 = delta_a/(delta_a + delta_b) reads
    a*delta_a = y*delta_b, whose square is the cubic
    g(y) = y^3 - k^2 y^2 + a^2 y + a^3 = 0 on (0, k^2). g is positive at both
    ends, so the stack is feasible exactly when g is negative at its local
    minimum y_m = (k^2 + sqrt(k^4 - 3a^2))/3; then [0, y_m] brackets the root
    near alpha -> 0, found in y, and [y_m, k^2] the root near alpha -> pi/4,
    found in z = k^2 - y = k^2 cos^2(2 alpha), where the condition reads
    z (k^2 - z)^2 + a^2 z - a^2 = 0. Both are bisected to the last bit and
    mapped back by alpha = asin(sqrt(y)/k)/2 and pi/4 - asin(sqrt(z)/k)/2,
    which stay exact for thick stacks whose roots crowd the edges.

    Returns the roots in (0, pi/4), sorted. A root so close to an edge that
    it rounds onto it is dropped with a warning; an infeasible stack, or one
    left with no root, raises `CalibrationInfeasibleError` with the margin
    k^2 - k_min^2 and the threshold index n*(N), explained on a diagnostic line.
    """
    t_s = stack_transmittance(plate_count, refractive_index)
    index = float(refractive_index)  # any Real index formats as its float value
    t2 = t_s * t_s
    k = (1.0 - t2) / (1.0 + t2)
    k2 = k * k
    a = 4.0 * t2 / (1.0 + t2) ** 2  # 1 - k^2 without the cancellation

    def g(y: float) -> float:
        return ((y - k2) * y + a * a) * y + a ** 3

    # without a local minimum (k^4 < 3a^2) g increases from g(0) > 0, so it
    # is positive at this y_m too and the stack is rightly infeasible
    y_m = (k2 + math.sqrt(max(k2 * k2 - 3.0 * a * a, 0.0))) / 3.0
    roots: list[float] = []
    if g(y_m) < 0.0:
        y = _bisect(lambda y: -g(y), 0.0, y_m)
        z = _bisect(lambda z: z * (k2 - z) ** 2 + a * a * (z - 1.0), 0.0, k2 - y_m)
        alphas = (0.5 * math.asin(math.sqrt(y) / k),
                  math.pi / 4.0 - 0.5 * math.asin(math.sqrt(z) / k))
        roots = [alpha for alpha in alphas if 0.0 < alpha < math.pi / 4.0]

    if not roots:
        margin, n_star = k2 - _K2_MIN, threshold_index(plate_count)
        # a positive margin puts n above n*: rounding, not leakage, lost the roots
        if margin > 0.0:
            why = "its roots round onto the edges of (0, pi/4)"
            advice = "the stack is feasible, but double precision cannot resolve its roots"
        else:
            why = "the stack is too leaky (k^2 below k_min^2)"
            advice = f"this plate count calibrates above index n* = {n_star:.7f}"
        raise CalibrationInfeasibleError(
            f"no rotation angle reaches the optimal product for {plate_count} plates "
            f"at index {index:.12g}: {why}\n"
            f"diagnostic: margin k^2 - k_min^2 = {margin:+.7f}; {advice}",
            margin=margin, threshold_index=n_star)
    if len(roots) != 2:
        warnings.warn(
            f"{plate_count} plates at index {index:.12g}: expected 2 calibration "
            f"roots, found {len(roots)}", stacklevel=2)
    return roots


# --------------------------------------------------------------------------
# coincidence sampling and estimation

@dataclass(frozen=True)
class CoincidenceCounts:
    """Joint outcome counts, ordered (B+,M+), (B+,M-), (B-,M+), (B-,M-).

    Counts are stored as Python integers (numpy integers are accepted), so
    the estimate's integer arithmetic never overflows; ``shots`` is their sum.
    """

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    def __post_init__(self):
        try:
            for name in ("n_pp", "n_pm", "n_mp", "n_mm"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        except TypeError:
            raise UsageError("counts must be integers") from None
        if min(self.n_pp, self.n_pm, self.n_mp, self.n_mm) < 0:
            raise UsageError("counts must be non-negative")
        if self.shots == 0:
            raise UsageError("counts sum to 0")

    @property
    def shots(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


def sample_coincidences(p, shots: int, seed: int) -> CoincidenceCounts:
    """Draw seeded multinomial coincidence counts from the joint distribution p.

    p is drawn as given, so it must sum to 1 within the sampler's own
    tolerance of 1e-12; entries down to -1e-12 are rounding and count as 0.
    ``shots`` and ``seed`` must be integers (numpy integers are accepted).
    """
    probs = np.asarray(p, dtype=float).ravel()
    if probs.shape != (4,):
        raise UsageError(f"expected 4 joint probabilities, got shape {probs.shape}")
    clipped = np.clip(probs, 0.0, None)
    # written so that a NaN fails it
    if not (np.all(probs >= -1e-12) and abs(clipped.sum() - 1.0) <= 1e-12):
        raise UsageError(f"not a probability distribution: {probs} (sum {probs.sum():.12g})")
    try:
        shots, seed = operator.index(shots), operator.index(seed)
    except TypeError:
        raise UsageError(f"shots and seed must be integers, got {shots!r} and {seed!r}") from None
    if not 1 <= shots <= MAX_SHOTS:
        raise UsageError(f"shots must be in 1..{MAX_SHOTS}, got {shots}")
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    counts = np.random.default_rng(seed).multinomial(shots, clipped)
    return CoincidenceCounts(*counts.tolist())


def estimate_report(counts: CoincidenceCounts, c_measured: float) -> tuple[float, float]:
    """Reduce raw coincidence counts to the simultaneous product and its stderr.

    The object's B+ marginal (n_b+ = n_pp + n_pm of N shots) and the probe's
    M+ marginal (n_m+ = n_pp + n_mp) give the two-point outcome
    distributions; rescaling by 1/c and 1/sqrt(1-c^2) and taking standard
    deviations mirrors how measured coincidence data are reduced. The factor
    is 4 `protocol.max_product(c)`, which also refuses a singular overlap:

        product = 4/(c sqrt(1-c^2)) * sqrt(n_b+ n_b- n_m+ n_m- / N^4).

    The product's relative delta-method variance, in which the two marginals
    share the (B+,M+) cell, is one ratio of integers:

        [(n_b- - n_b+)^2 n_m+ n_m- + (n_m- - n_m+)^2 n_b+ n_b-
         + 2 (n_b- - n_b+)(n_m- - n_m+)(n_pp N - n_b+ n_m+)]
        / (4 n_b+ n_b- n_m+ n_m- N).

    Returns (product, stderr). Each count ratio is one correctly rounded
    division of integers, so the estimate keeps full precision up to the
    sampler's 2^63 - 1 shots, nearly pure marginals included.
    """
    # scaling by 4 is exact, so this rounds as 4/(c sqrt(1-c^2)) would
    scale = 4.0 * float(protocol.max_product(float(c_measured)))
    n = counts.shots
    b_plus, m_plus = counts.n_pp + counts.n_pm, counts.n_pp + counts.n_mp
    b_minus, m_minus = n - b_plus, n - m_plus
    b_var, m_var = b_plus * b_minus, m_plus * m_minus  # times N^2
    product = scale * math.sqrt(b_var * m_var / n ** 4)
    if not (b_var and m_var):
        warnings.warn("a marginal has zero weight; uncertainty estimate is degenerate",
                      stacklevel=2)
        return product, 0.0
    u, v = b_minus - b_plus, m_minus - m_plus
    rel_var = ((u * u * m_var + v * v * b_var
                + 2 * u * v * (counts.n_pp * n - b_plus * m_plus))
               / (4 * b_var * m_var * n))
    return product, product * math.sqrt(rel_var)


def run_setting(x: float, y: float, c: float, shots: int, seed: int,
                visibility: float = 1.0) -> tuple[CoincidenceCounts, float, float]:
    """Simulate a coincidence run at Bloch components (x, y) and overlap c.

    A visibility V below 1 shortens the Bloch vector to (V x, V y), the
    white-noise mixture V rho + (1 - V) I/4 that mimics imperfect state
    purity. Samples `protocol.joint_distribution(V x, V y, c)` and reduces
    the counts with the exact c as the measured overlap, i.e. a perfectly
    calibrated one, and returns (counts, product, stderr). Works for object
    eigenstates (x = +-1) too. Checks visibility, then c, then (through the
    sampler) shots and seed.
    """
    if not 0.0 <= visibility <= 1.0:
        raise UsageError(f"visibility must be in [0, 1], got {visibility}")
    protocol.probe_noise(c)  # a singular overlap cannot be rescaled
    p = protocol.joint_distribution(visibility * x, visibility * y, c)
    counts = sample_coincidences(p, shots, seed)
    return (counts, *estimate_report(counts, c))
