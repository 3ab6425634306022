"""Digital twin of the photon-pair experiment.

A down-conversion source emits polarization-singlet pairs; coincidence
post-selection keeps only the two-photon component. A partial polarizer --
a stack of glass plates at the Brewster angle -- sits in the object arm,
transmitting its high axis without loss and the orthogonal axis with
amplitude t_s set by the plate count. Rotated by alpha from the vertical
|A+> direction, it turns the post-selected singlet into the protocol's
partially entangled family: alpha = 0 leaves the probe conditionals
orthogonal (c = 0) while biasing w_a_plus above 1/2; a perfect polarizer at
alpha = pi/4 gives a product state (c = 1) with w_a_plus = 1/2. `prepare`
gives the prepared state in closed form. For a fixed stack, w and c cannot
be tuned independently: only the rotation angles where c matches
sqrt(delta_a/(delta_a+delta_b)) reach the minimum simultaneous uncertainty
product, and `calibrate_alpha` finds them.

Coincidence counting is modeled as seeded multinomial sampling over the four
joint outcomes of `protocol.joint_distribution`, with an optional
visibility knob mixing in a uniform background to mimic imperfect state
purity. `estimate_report` reduces the integer counts the way the measured
data would be processed: empirical marginals, rescaled two-point
distributions, then standard deviations. It returns the inferred
uncertainties and their product with its delta-method standard error. The
count ratios in the product and in its variance are each rounded once, so
the estimate keeps full precision for any counts up to the sampler's
2^63 - 1 shots, nearly pure marginals included.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import protocol
from .errors import CalibrationInfeasibleError, UsageError

__all__ = [
    "PreparedState",
    "CoincidenceCounts",
    "UncertaintyReport",
    "plate_transmittance",
    "stack_transmittance",
    "prepare",
    "calibrate_alpha",
    "threshold_index",
    "sample_coincidences",
    "estimate_report",
    "run_setting",
]

DEFAULT_REFRACTIVE_INDEX = 1.5
DEFAULT_SHOTS = 100_000


# --------------------------------------------------------------------------
# polarizer and the prepared state

def plate_transmittance(refractive_index: float) -> float:
    """Per-plate s-polarization amplitude transmittance at Brewster incidence.

    Each plate has two air/glass interfaces; at the Brewster angle the
    single-interface s intensity transmittance is 4n^2/(1+n^2)^2, so the
    per-plate amplitude sqrt(T1*T2) equals that same expression. The p
    polarization passes without reflection. An index so large that the
    expression leaves the float range is refused.
    """
    n = float(refractive_index)
    if not n > 1.0:
        raise UsageError(f"refractive index must exceed 1, got {n}")
    try:
        t = 4.0 * n * n / (1.0 + n * n) ** 2
    except OverflowError:
        t = math.nan
    if not math.isfinite(t):
        raise UsageError(f"refractive index {n:g} is out of range: "
                         "the plate transmittance is not finite")
    return t


def stack_transmittance(plate_count: int, refractive_index: float) -> float:
    """s amplitude transmittance t_s = t^N of an N-plate stack, t per plate."""
    if plate_count < 1:
        raise UsageError(f"plate_count must be >= 1, got {plate_count}")
    try:
        return plate_transmittance(refractive_index) ** plate_count
    except OverflowError:
        raise UsageError(f"plate_count {plate_count} is too large") from None


@dataclass(frozen=True)
class PreparedState:
    """The post-selected pair state in the protocol's terms, and its yield.

    The state is sqrt(w)|A+> (x) m+ + sign*sqrt(1-w)|A-> (x) m- with probe
    overlap ``c = |<m+|m->|``; ``x = 2w - 1`` and ``y = sign*2 sqrt(w(1-w))``
    are the object's A and B Bloch components in that form.
    """

    w_a_plus: float
    c: float
    x: float
    y: float
    success_probability: float

    @property
    def delta_a(self) -> float:
        return abs(self.y)

    @property
    def delta_b(self) -> float:
        return abs(self.x)


def prepare(t_s: float, alpha: float) -> PreparedState:
    """Send the singlet's object photon through the polarizer and post-select.

    The stack passes its high axis, at ``alpha`` from the vertical |A+>
    direction, without loss and the orthogonal axis with amplitude ``t_s``.
    With S = t_s^2, k = (1 - S)/(1 + S) and a = 4S/(1 + S)^2 = 1 - k^2, the
    post-selected state has

        x = k cos 2alpha,   delta_a = sqrt(a + k^2 sin^2 2alpha),
        y = sgn(sin 2alpha) delta_a,   c = k |sin 2alpha| / delta_a,

    w = (1 + x)/2, and yield (1 + S)/2 >= 1/2, independent of alpha by
    singlet isotropy. sqrt(a) = 2 t_s/(1 + S) is formed directly, so delta_a
    keeps full relative precision for thick stacks. At delta_a = 0 (t_s = 0
    at alpha = 0) the object is an A eigenstate and c is reported as 1.
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
    return PreparedState(w_a_plus=0.5 * (1.0 + x), c=c, x=x, y=math.copysign(delta_a, sin2),
                         success_probability=0.5 * total)


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
    if plate_count < 1:
        raise UsageError(f"plate_count must be >= 1, got {plate_count}")
    tau = _T_S_MAX ** (1.0 / plate_count)
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
    left with no root, raises `CalibrationInfeasibleError` carrying the
    margin k^2 - k_min^2 and the threshold index n*(N).
    """
    t_s = stack_transmittance(plate_count, refractive_index)
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
        margin = k2 - _K2_MIN
        why = ("its roots round onto the edges of (0, pi/4)" if margin > 0.0
               else "the stack is too leaky (k^2 below k_min^2)")
        raise CalibrationInfeasibleError(
            f"no rotation angle reaches the optimal product for {plate_count} plates "
            f"at index {refractive_index:g}: {why}",
            margin=margin, threshold_index=threshold_index(plate_count))
    if len(roots) != 2:
        warnings.warn(
            f"{plate_count} plates at index {refractive_index:g}: expected 2 calibration "
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


def sample_coincidences(p, shots: int, seed: int,
                        visibility: float = 1.0) -> CoincidenceCounts:
    """Draw seeded multinomial coincidence counts from the joint distribution.

    A visibility V below 1 mixes the distribution with a uniform floor,
    V p + (1 - V)/4, to mimic imperfect state purity.
    """
    probs = np.asarray(p, dtype=float).ravel()
    if probs.shape != (4,):
        raise UsageError(f"expected 4 joint probabilities, got shape {probs.shape}")
    if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-9:
        raise UsageError(f"not a probability distribution: {probs} (sum {probs.sum():.12g})")
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")
    if not 0.0 <= visibility <= 1.0:
        raise UsageError(f"visibility must be in [0, 1], got {visibility}")
    mixed = visibility * np.clip(probs, 0.0, None) + (1.0 - visibility) / 4.0
    mixed = mixed / mixed.sum()
    counts = np.random.default_rng(seed).multinomial(int(shots), mixed)
    return CoincidenceCounts(*counts.tolist())


@dataclass(frozen=True)
class UncertaintyReport:
    """Inferred normalized uncertainties estimated from sampled counts.

    ``product_stderr`` is the delta-method standard error of the
    simultaneous product ``delta_a_prime * delta_b_prime``.
    """

    delta_a_prime: float
    delta_b_prime: float
    product_simultaneous: float
    product_stderr: float


def estimate_report(counts: CoincidenceCounts, c_measured: float) -> UncertaintyReport:
    """Reduce raw coincidence counts to an uncertainty report.

    The object's B+ marginal (n_b+ = n_pp + n_pm of N shots) and the probe's
    M+ marginal (n_m+ = n_pp + n_mp) give the two-point outcome
    distributions; rescaling by 1/c and 1/sqrt(1-c^2) and taking standard
    deviations mirrors how measured coincidence data are reduced:

        product = 4/(c sqrt(1-c^2)) * sqrt(n_b+ n_b- n_m+ n_m- / N^4).

    The product's relative delta-method variance, in which the two marginals
    share the (B+,M+) cell, is one ratio of integers:

        [(n_b- - n_b+)^2 n_m+ n_m- + (n_m- - n_m+)^2 n_b+ n_b-
         + 2 (n_b- - n_b+)(n_m- - n_m+)(n_pp N - n_b+ n_m+)]
        / (4 n_b+ n_b- n_m+ n_m- N).

    Each count ratio is one correctly rounded division of integers, so a
    nearly pure marginal keeps full precision.
    """
    c = float(c_measured)
    protocol.probe_noise(c)  # a singular overlap cannot be rescaled
    n = counts.shots
    b_plus, m_plus = counts.n_pp + counts.n_pm, counts.n_pp + counts.n_mp
    b_minus, m_minus = n - b_plus, n - m_plus
    b_var, m_var = b_plus * b_minus, m_plus * m_minus  # times N^2
    if not (b_var and m_var):
        warnings.warn("a marginal has zero weight; uncertainty estimate is degenerate",
                      stacklevel=2)

    db_prime = 2.0 / c * math.sqrt(b_var / (n * n))
    da_prime = 2.0 / math.sqrt(1.0 - c * c) * math.sqrt(m_var / (n * n))
    product = 4.0 / (c * math.sqrt(1.0 - c * c)) * math.sqrt(b_var * m_var / n ** 4)

    if b_var and m_var:
        u, v = b_minus - b_plus, m_minus - m_plus
        rel_var = ((u * u * m_var + v * v * b_var
                    + 2 * u * v * (counts.n_pp * n - b_plus * m_plus))
                   / (4 * b_var * m_var * n))
        stderr = product * math.sqrt(rel_var)
    else:
        stderr = 0.0

    return UncertaintyReport(delta_a_prime=da_prime, delta_b_prime=db_prime,
                             product_simultaneous=product, product_stderr=stderr)


def run_setting(x: float, y: float, c: float, shots: int, seed: int,
                visibility: float = 1.0) -> tuple[CoincidenceCounts, UncertaintyReport]:
    """Simulate a coincidence run at Bloch components (x, y) and overlap c.

    Samples `protocol.joint_distribution(x, y, c)` and reduces the counts
    with the exact c as the measured overlap, i.e. a perfectly calibrated
    one. Works for object eigenstates (x = +-1) too.
    """
    protocol.probe_noise(c)  # a singular overlap cannot be rescaled
    counts = sample_coincidences(protocol.joint_distribution(x, y, c), shots, seed, visibility)
    return counts, estimate_report(counts, c)
