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
forms, both product extrema and a brute-force grid scan that cross-checks
the optimum from the same (delta_a, delta_b), pure or mixed. A state is
the plain pair (w, sign), and `sharp_deltas` is the one check that w lies
in [0, 1]. The module does no amplitude arithmetic: the closed forms take
floats or numpy arrays alike, and their amplitude-level derivation lives
in `qmath`, which only the tests use, together with the argument that no
single von Neumann measurement can do the same job.

Conventions: |A+> = (1, 0), |A-> = (0, 1); |B+/-> = (|A+> +/- |A->)/sqrt(2).
All uncertainties are normalized by the eigenvalue magnitudes.
"""

from __future__ import annotations

import numpy as np

from .errors import RescalingSingularError, UsageError

__all__ = [
    "sharp_deltas",
    "joint_distribution",
    "probe_noise",
    "unsharp_deltas",
    "unsharp_product",
    "min_product",
    "max_product",
    "numeric_c_scan",
]


# --------------------------------------------------------------------------
# sharp quantities of the state (w, sign)

def sharp_deltas(w_a_plus):
    """Normalized sharp uncertainties (delta_a, delta_b) = (|y|, |x|) at weight w.

    Raises `UsageError` unless every w is in [0, 1].
    """
    w = w_a_plus
    if not np.all((w >= 0.0) & (w <= 1.0)):
        raise UsageError(f"w_a_plus must be in [0, 1], got {w}")
    return (2.0 * np.sqrt(w * (1.0 - w)), abs(2.0 * w - 1.0))


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

def _check_sharp_pair(delta_a, delta_b):
    """Refuse a pair no state has: a negative or non-finite value, or both zero.

    One test accepts a valid pair; only a refused one pays for finding its
    message. It only compares, so NaN, inf or 1e308 raise no numpy warning.
    """
    lo, hi = np.minimum(delta_a, delta_b), np.maximum(delta_a, delta_b)
    if ((0.0 <= lo) & (0.0 < hi) & (hi < np.inf)).all():
        return
    if (lo < 0.0).any():
        raise UsageError("sharp uncertainties must be non-negative")
    if not (np.isfinite(delta_a) & np.isfinite(delta_b)).all():
        raise UsageError("sharp uncertainties must be finite")
    raise UsageError("delta_a = delta_b = 0 is impossible for a valid state")


def min_product(delta_a, delta_b):
    """Minimum simultaneous product and the overlap achieving it.

    Returns (1 + delta_a*delta_b, sqrt(delta_a/(delta_a + delta_b))). The
    boundary values c_opt = 0 and 1 mark the limits where one observable is
    measured exactly.
    """
    _check_sharp_pair(delta_a, delta_b)
    return (1.0 + delta_a * delta_b, np.sqrt(delta_a / (delta_a + delta_b)))


def max_product(c):
    """Worst-case simultaneous product 1/(c*sqrt(1-c^2)) at overlap c.

    This is the product for a state unbiased in both observables, measured
    with the same rescaling; it is at least 2, with equality at c=1/sqrt(2).
    """
    probe_noise(c)
    return 1.0 / (c * np.sqrt(1.0 - c * c))


_SCAN_EDGE = 1e-4
_SCAN_POINTS = 1000
# the first grid, then two rescans of the bracket around the previous minimum
_SCAN_PASSES = 3


def numeric_c_scan(delta_a: float, delta_b: float) -> tuple[float, float, bool]:
    """Brute-force minimization of the simultaneous product over the overlap.

    Takes one pair of scalars (Python or numpy floats, or 0-d arrays) and
    refuses what `min_product` does, pure or mixed; an array pair raises
    `UsageError`, as the scan's grid would pair it element by element.
    Returns (c_best, product_best, boundary). Scans 1000 uniform points on
    (1e-4, 1-1e-4), then twice rescans 1000 points across [c[k-1], c[k+1]]
    around the last minimizer c[k], which resolves c to about 1e-8. The
    product is formed here, not by the closed forms it checks. A minimizer at
    the first or last point of the first grid is flagged as a boundary: the
    true optimum is a limit there (overlap 0 or 1), not an interior point.
    """
    def product(c):
        one_minus = 1.0 - c * c
        return np.sqrt((delta_a * delta_a + c * c / one_minus)
                       * (delta_b * delta_b + one_minus / (c * c)))

    if np.ndim(delta_a) or np.ndim(delta_b):
        raise UsageError("numeric_c_scan takes one pair of scalars, got "
                         f"shapes {np.shape(delta_a)} and {np.shape(delta_b)}")
    _check_sharp_pair(delta_a, delta_b)
    lo, hi = _SCAN_EDGE, 1.0 - _SCAN_EDGE
    for scan in range(_SCAN_PASSES):
        grid = np.linspace(lo, hi, _SCAN_POINTS)
        values = product(grid)
        k = int(np.argmin(values))
        if scan == 0:
            boundary = k == 0 or k == _SCAN_POINTS - 1
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, _SCAN_POINTS - 1)]
    return (float(grid[k]), float(values[k]), boundary)
