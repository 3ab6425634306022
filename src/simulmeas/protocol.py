"""Simultaneous unsharp measurement of two complementary qubit observables.

The object carries two complementary two-outcome observables, A and B, with
mutually unbiased eigenbases and eigenvalues +/-1. Equatorial states

    sqrt(w) |A+>  +-  sqrt(1 - w) |A->,    w = w_a_plus,

are the minimum-uncertainty family for the pair. Their A and B Bloch
components are x = 2w - 1 and y = +-2 sqrt(w(1-w)), so the sharp
uncertainties are delta_b = |x| and delta_a = |y|. Coupling the object to a
probe qubit produces

    sqrt(w) |A+> (x) |m+>  +-  sqrt(1 - w) |A-> (x) |m->,

where the conditional probe states m+/- overlap by c = |<m+|m->| (c = 0 is
perfect entanglement, c = 1 none). Measuring B directly on the object and
the equal-angle orthonormal basis M+/- on the probe, the probe reads A with
efficiency sqrt(1-c^2) and the object reads B with efficiency c, so the four
coincidence probabilities are

    p[i, j] = (1 + (-1)^j sqrt(1-c^2) x + (-1)^i c y) / 4,

rows B+/B-, columns M+/M-. Rescaling the outcomes to +-1/c and
+-1/sqrt(1-c^2) yields unbiased estimates of both observables from every
pair, with inferred uncertainties

    delta_a' = sqrt(delta_a^2 + c^2/(1-c^2)),
    delta_b' = sqrt(delta_b^2 + (1-c^2)/c^2),

whose product is minimized to 1 + delta_a*delta_b at
c = sqrt(delta_a/(delta_a + delta_b)). This module implements these closed
forms, both product extrema, a brute-force scan that cross-checks the
optimum, and the constructive argument, in Bloch components, that no
single von Neumann measurement can do the same job. It does no amplitude
arithmetic: the closed forms take floats or numpy arrays alike, and their
amplitude-level derivation, Pauli matrices included, lives in `qmath`,
which only the tests use.

Conventions: |A+> = (1, 0), |A-> = (0, 1); |B+/-> = (|A+> +/- |A->)/sqrt(2).
All uncertainties are normalized by the eigenvalue magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RescalingSingularError, UsageError

__all__ = [
    "EquatorialState",
    "ScanResult",
    "VonNeumannCounterexample",
    "make_equatorial",
    "sharp_probabilities",
    "sharp_deltas",
    "joint_distribution",
    "probe_noise",
    "unsharp_deltas",
    "unsharp_product",
    "min_product",
    "max_product",
    "numeric_c_scan",
    "von_neumann_counterexample",
]


# --------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class EquatorialState:
    """Pure qubit state on the A-B equator: sqrt(w)|A+> +- sqrt(1-w)|A->."""

    w_a_plus: float
    sign: int

    def __post_init__(self):
        if not 0.0 <= self.w_a_plus <= 1.0:
            raise UsageError(f"w_a_plus must be in [0, 1], got {self.w_a_plus}")
        if self.sign not in (+1, -1):
            raise UsageError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def amplitudes(self) -> tuple[float, float]:
        w = self.w_a_plus
        return (math.sqrt(w), self.sign * math.sqrt(1.0 - w))


@dataclass(frozen=True)
class ScanResult:
    """Outcome of the brute-force overlap scan."""

    c_best: float
    product_best: float
    boundary: bool


@dataclass(frozen=True, eq=False)
class VonNeumannCounterexample:
    """Two equatorial states a projective measurement cannot tell apart."""

    state_q: EquatorialState
    state_minus_q: EquatorialState
    mean_gap_a: float
    mean_gap_b: float


# --------------------------------------------------------------------------
# states and sharp quantities

def make_equatorial(w_a_plus: float, sign: int = +1) -> EquatorialState:
    """Equatorial state sqrt(w)|A+> + sign*sqrt(1-w)|A->."""
    return EquatorialState(w_a_plus=float(w_a_plus), sign=sign)


def sharp_probabilities(s: EquatorialState, which: str) -> tuple[float, float]:
    """Outcome probabilities of a sharp A or B measurement on the state.

    For B the pair is 1/2 +- sqrt(w(1-w)), the +- fixed by the state's sign.
    """
    if which not in ("A", "B"):
        raise UsageError(f"which must be 'A' or 'B', got {which!r}")
    w = s.w_a_plus
    if which == "A":
        return (w, 1.0 - w)
    p = 0.5 + s.sign * math.sqrt(w * (1.0 - w))
    return (p, 1.0 - p)


def sharp_deltas(w_a_plus):
    """Normalized sharp uncertainties (delta_a, delta_b) = (|y|, |x|) at weight w."""
    w = w_a_plus
    delta_a = 2.0 * np.sqrt(np.maximum(w * (1.0 - w), 0.0))
    delta_b = abs(2.0 * w - 1.0)
    return (delta_a, delta_b)


# --------------------------------------------------------------------------
# joint statistics and inferred uncertainties

def joint_distribution(x, y, c) -> np.ndarray:
    """Coincidence probabilities p[i, j] for object B_i and probe M_j.

    p[i, j] = (1 + (-1)^j sqrt(1-c^2) x + (-1)^i c y)/4 for Bloch
    components (x, y) and overlap c in [0, 1]. Rows are the object's B+/B-
    outcomes, columns the probe's M+/M- outcomes; array arguments give
    shape (2, 2, *shape).
    """
    probe = np.sqrt(1.0 - c * c) * x
    obj = c * y
    return 0.25 * np.array([[1.0 + probe + obj, 1.0 - probe + obj],
                            [1.0 + probe - obj, 1.0 - probe - obj]])


def probe_noise(c):
    """Variances (c^2/(1-c^2), (1-c^2)/c^2) the rescaled outcomes add to A and B.

    Raises `RescalingSingularError` unless 0 < c < 1 and both are finite:
    at c = 0 the object's outcomes carry no B signal, at c = 1 the probe's
    carry no A signal, and below c of about 1e-154 the B term overflows.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c2 = np.multiply(c, c)
        one_minus = 1.0 - c2
        noise_b = one_minus / c2
    if not np.all((c > 0.0) & (c < 1.0) & np.isfinite(noise_b)):
        raise RescalingSingularError(
            f"overlap c = {c} is singular: one observable is exact, the other carries no signal")
    return (c2 / one_minus, noise_b)


def unsharp_deltas(delta_a, delta_b, c):
    """Closed-form inferred uncertainties for sharp (delta_a, delta_b) at overlap c."""
    noise_a, noise_b = probe_noise(c)
    return (np.sqrt(delta_a * delta_a + noise_a), np.sqrt(delta_b * delta_b + noise_b))


def unsharp_product(delta_a, delta_b, c):
    da, db = unsharp_deltas(delta_a, delta_b, c)
    return da * db


# --------------------------------------------------------------------------
# product extrema

def min_product(delta_a, delta_b):
    """Minimum simultaneous product and the overlap achieving it.

    Returns (1 + delta_a*delta_b, sqrt(delta_a/(delta_a + delta_b))). The
    boundary values c_opt = 0 and 1 mark the limits where one observable is
    measured exactly.
    """
    if np.any(np.minimum(delta_a, delta_b) < 0.0):
        raise UsageError("sharp uncertainties must be non-negative")
    total = delta_a + delta_b
    if np.any(total <= 0.0):
        raise UsageError("delta_a = delta_b = 0 is impossible for a valid state")
    return (1.0 + delta_a * delta_b, np.sqrt(delta_a / total))


def max_product(c):
    """Worst-case simultaneous product 1/(c*sqrt(1-c^2)) at overlap c.

    This is the product for a state unbiased in both observables, measured
    with the same rescaling; it is at least 2, with equality at c=1/sqrt(2).
    """
    probe_noise(c)
    return 1.0 / (c * np.sqrt(1.0 - c * c))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_EDGE = 1e-4
_SCAN_POINTS = 1000


def _golden_min(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    # standard golden-section bracket shrink; f assumed unimodal on [lo, hi]
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def numeric_c_scan(s: EquatorialState) -> ScanResult:
    """Brute-force minimization of the simultaneous product over the overlap.

    Scans 1000 uniform points on (1e-4, 1-1e-4), then refines the best
    bracket by golden-section search. A minimizer at the first or last grid
    point is flagged as a boundary: the true optimum is a limit there
    (overlap 0 or 1), not an interior point.
    """
    delta_a, delta_b = sharp_deltas(s.w_a_plus)

    def product(c):
        one_minus = 1.0 - c * c
        return np.sqrt((delta_a * delta_a + c * c / one_minus)
                       * (delta_b * delta_b + one_minus / (c * c)))

    grid = np.linspace(_SCAN_EDGE, 1.0 - _SCAN_EDGE, _SCAN_POINTS)
    k = int(np.argmin(product(grid)))
    boundary = k == 0 or k == _SCAN_POINTS - 1
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, _SCAN_POINTS - 1)]
    c_best = _golden_min(product, lo, hi)
    return ScanResult(c_best=float(c_best), product_best=float(product(c_best)),
                      boundary=boundary)


# --------------------------------------------------------------------------
# why a single projective measurement cannot work

def _equatorial_from_bloch(x: float, y: float) -> EquatorialState:
    w = min(max(0.5 * (1.0 + x), 0.0), 1.0)
    return make_equatorial(w, +1 if y >= 0.0 else -1)


def von_neumann_counterexample(measurement_axis) -> VonNeumannCounterexample:
    """Two equatorial states no projective measurement along the axis can separate.

    Any measurement direction D defines a plane of states through the Bloch
    sphere's center with identical outcome statistics. That plane crosses
    the equator at antipodal points q and -q; the corresponding states agree
    on every D outcome probability yet differ in the mean of A, of B, or
    both, so no single sharp measurement can report correct means for both
    observables on all states. D along the A or B axis is excluded: the
    construction needs a direction distinct from both observables.

    For a unit axis d, q = (-d_B, d_A, 0)/hypot(d_A, d_B), so d.q = 0 and
    both states give P(+) = (1 +- d.q)/2 = 1/2; their means differ by 2|q_A|
    in A and 2|q_B| in B. Where that norm is below 1e-12, near the polar
    axis, q = (1, 0, 0) and d.q = d_A is below 1e-12. The returned
    (w, sign) states carry q only to the precision of w: near the A
    eigenstates their B component is rounded by about eps/delta_a.
    """
    d = np.asarray(measurement_axis, dtype=float)
    if d.shape != (3,) or not np.all(np.isfinite(d)):
        raise UsageError("measurement_axis must be a finite 3-vector")
    if abs(np.linalg.norm(d) - 1.0) > 1e-9:
        raise UsageError(f"measurement_axis must be unit length, |d| = {np.linalg.norm(d):.6g}")
    for axis_name, axis in (("A", np.array([1.0, 0.0, 0.0])),
                            ("B", np.array([0.0, 1.0, 0.0]))):
        if min(np.linalg.norm(d - axis), np.linalg.norm(d + axis)) < 1e-9:
            raise UsageError(
                f"measurement axis coincides with the {axis_name} axis; "
                "the construction requires a direction distinct from both observables")

    d_a, d_b = float(d[0]), float(d[1])
    norm = math.hypot(d_a, d_b)
    # polar axis: the whole equator is equiprobable, any antipodal pair works
    q_a, q_b = (-d_b / norm, d_a / norm) if norm >= 1e-12 else (1.0, 0.0)
    return VonNeumannCounterexample(
        state_q=_equatorial_from_bloch(q_a, q_b),
        state_minus_q=_equatorial_from_bloch(-q_a, -q_b),
        mean_gap_a=2.0 * abs(q_a), mean_gap_b=2.0 * abs(q_b),
    )
