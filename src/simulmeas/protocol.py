"""Simultaneous unsharp measurement of two complementary qubit observables.

The object carries two complementary two-outcome observables, A and B, with
mutually unbiased eigenbases and eigenvalues +/-A and +/-B. Equatorial
states

    sqrt(w) |A+>  +-  sqrt(1 - w) |A->,    w = w_a_plus,

are the minimum-uncertainty family for the pair. Coupling the object to a
probe qubit produces

    sqrt(w) |A+> (x) |m+>  +-  sqrt(1 - w) |A-> (x) |m->,

where the conditional probe states m+/- overlap by c = |<m+|m->| (c = 0 is
perfect entanglement, c = 1 none). Measuring B directly on the object and
an optimal orthonormal basis M+/- on the probe, then rescaling the outcomes
to +/-B/c and +/-A/sqrt(1-c^2), yields unbiased estimates of both
observables from every pair. The inferred (normalized) uncertainties are

    delta_a' = sqrt(delta_a^2 + c^2/(1-c^2)),
    delta_b' = sqrt(delta_b^2 + (1-c^2)/c^2),

whose product is minimized to 1 + delta_a*delta_b at
c = sqrt(delta_a/(delta_a + delta_b)). This module implements the state
constructors, the entangling/decomposing maps, the optimal probe basis, the
uncertainty bookkeeping, both product extrema, a brute-force scan that
cross-checks the closed-form optimum, and the constructive argument that no
single von Neumann measurement can do the same job.

Conventions: |A+> = (1, 0), |A-> = (0, 1); |B+/-> = (|A+> +/- |A->)/sqrt(2).
Probe vectors built by `entangle` are real and symmetric about the (1, 0)
axis. Eigenvalue magnitudes default to A = B = 1; all reported uncertainties
are normalized by them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import DegenerateBasisError, RescalingSingularError, UsageError

__all__ = [
    "EquatorialState",
    "ObservablePair",
    "EntangledDecomposition",
    "ProbeBasis",
    "UncertaintyReport",
    "ScanResult",
    "VonNeumannCounterexample",
    "make_equatorial",
    "observable_pair",
    "sharp_probabilities",
    "sharp_deltas",
    "sharp_uncertainties",
    "entangle",
    "decompose",
    "probe_basis",
    "probe_basis_for_overlap",
    "rescaled_eigenvalues",
    "joint_probabilities",
    "inferred_means",
    "unsharp_deltas",
    "unsharp_product",
    "direct_unsharp_deltas",
    "unsharp_uncertainties",
    "min_product",
    "max_product",
    "numeric_c_scan",
    "von_neumann_counterexample",
    "bloch_vector",
]


# --------------------------------------------------------------------------
# domain types

@dataclass(frozen=True, eq=False)
class EquatorialState:
    """Pure qubit state on the A-B equator: sqrt(w)|A+> +- sqrt(1-w)|A->."""

    w_a_plus: float
    sign: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.w_a_plus <= 1.0:
            raise UsageError(f"w_a_plus must be in [0, 1], got {self.w_a_plus}")
        if self.sign not in (+1, -1):
            raise UsageError(f"sign must be +1 or -1, got {self.sign}")
        qmath.require_state(self.amplitudes, what="equatorial state")


@dataclass(frozen=True, eq=False)
class ObservablePair:
    """Two complementary two-outcome observables with mutually unbiased bases."""

    a_eigenvalue_magnitude: float
    b_eigenvalue_magnitude: float
    a_basis: tuple
    b_basis: tuple

    def __post_init__(self):
        if self.a_eigenvalue_magnitude <= 0 or self.b_eigenvalue_magnitude <= 0:
            raise UsageError("eigenvalue magnitudes must be positive")


def observable_pair(a_eigenvalue_magnitude: float = 1.0,
                    b_eigenvalue_magnitude: float = 1.0) -> ObservablePair:
    """Build the standard pair: A basis computational, B basis its unbiased partner."""
    a_plus = np.array([1.0, 0.0], dtype=complex)
    a_minus = np.array([0.0, 1.0], dtype=complex)
    b_plus = (a_plus + a_minus) / math.sqrt(2.0)
    b_minus = (a_plus - a_minus) / math.sqrt(2.0)
    pair = ObservablePair(
        a_eigenvalue_magnitude=float(a_eigenvalue_magnitude),
        b_eigenvalue_magnitude=float(b_eigenvalue_magnitude),
        a_basis=(a_plus, a_minus),
        b_basis=(b_plus, b_minus),
    )
    # complementarity: |<A+-|B+->|^2 = 1/2
    for av in pair.a_basis:
        for bv in pair.b_basis:
            if abs(abs(qmath.inner(av, bv)) ** 2 - 0.5) > qmath.ATOL:
                raise UsageError("bases are not mutually unbiased")
    return pair


@dataclass(frozen=True, eq=False)
class EntangledDecomposition:
    """Object-A-basis Schmidt-like form of a pair state.

    ``m_plus``/``m_minus`` are the normalized conditional probe states,
    ``c`` the modulus of their overlap and ``overlap_phase`` its residual
    phase (zero for all real-amplitude states). ``sign`` is chosen so that

        sqrt(w_a_plus) |A+> (x) m_plus + sign*sqrt(1-w_a_plus) |A-> (x) m_minus

    reproduces the source state exactly. ``degenerate`` marks object
    eigenstates, where one conditional vanishes and c is reported as 1.
    """

    w_a_plus: float
    sign: int
    m_plus: np.ndarray
    m_minus: np.ndarray
    c: float
    overlap_phase: float
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class ProbeBasis:
    """Orthonormal probe measurement basis making equal angles gamma with m+/-."""

    m_big_plus: np.ndarray
    m_big_minus: np.ndarray
    gamma: float


@dataclass(frozen=True)
class UncertaintyReport:
    """Sharp and inferred normalized uncertainties and their products.

    ``product_stderr`` is filled only for reports estimated from sampled
    counts (delta-method standard error of the simultaneous product).
    """

    delta_a: float
    delta_b: float
    delta_a_prime: float
    delta_b_prime: float
    product_sharp: float
    product_simultaneous: float
    c_used: float
    product_stderr: float | None = None

    def __post_init__(self):
        for name in ("delta_a", "delta_b", "delta_a_prime", "delta_b_prime"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise UsageError(f"{name} must be finite and non-negative, got {v}")
        if not 0.0 < self.c_used < 1.0:
            raise UsageError(f"c_used must be in (0, 1), got {self.c_used}")
        # an exact report must respect the lower bound; an estimated one
        # (product_stderr set) meets it identically unless a sampled sharp
        # uncertainty was clamped at zero, where falling below it is sampling
        # noise, not an error
        if (self.product_stderr is None
                and self.product_simultaneous < 1.0 + self.product_sharp - 1e-9):
            raise UsageError("simultaneous product below its lower bound")


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
    outcome_probabilities: tuple
    mean_gap_a: float
    mean_gap_b: float


# --------------------------------------------------------------------------
# states and sharp quantities

def make_equatorial(w_a_plus: float, sign: int = +1) -> EquatorialState:
    """Equatorial state sqrt(w)|A+> + sign*sqrt(1-w)|A->."""
    w = float(w_a_plus)
    if not 0.0 <= w <= 1.0:
        raise UsageError(f"w_a_plus must be a probability, got {w}")
    if sign not in (+1, -1):
        raise UsageError(f"sign must be +1 or -1, got {sign}")
    amps = np.array([math.sqrt(w), sign * math.sqrt(1.0 - w)], dtype=complex)
    return EquatorialState(w_a_plus=w, sign=int(sign), amplitudes=amps)


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


def sharp_deltas(w_a_plus: float) -> tuple[float, float]:
    """Normalized sharp uncertainties (delta_a, delta_b) as functions of w."""
    w = float(w_a_plus)
    delta_a = 2.0 * math.sqrt(max(w * (1.0 - w), 0.0))
    delta_b = abs(2.0 * w - 1.0)
    return (delta_a, delta_b)


def sharp_uncertainties(s: EquatorialState) -> tuple[float, float]:
    """Normalized uncertainties of sharp A and B measurements on the state."""
    return sharp_deltas(s.w_a_plus)


# --------------------------------------------------------------------------
# entangling with the probe and back

def _canonical_probe_pair(c: float) -> tuple[np.ndarray, np.ndarray]:
    # real unit vectors symmetric about the (1, 0) axis with overlap c >= 0
    half = 0.5 * math.acos(min(max(c, 0.0), 1.0))
    m_plus = np.array([math.cos(half), math.sin(half)], dtype=complex)
    m_minus = np.array([math.cos(half), -math.sin(half)], dtype=complex)
    return m_plus, m_minus


def entangle(s: EquatorialState, c: float) -> np.ndarray:
    """Couple the state to a probe so the conditional probe overlap is c.

    Returns the normalized 4-component pair state. c = 0 gives perfect
    entanglement (orthogonal probe conditionals), c = 1 a product state.
    """
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise UsageError(f"overlap c must be in [0, 1], got {c}")
    m_plus, m_minus = _canonical_probe_pair(c)
    w = s.w_a_plus
    out = (math.sqrt(w) * np.kron([1.0, 0.0], m_plus)
           + s.sign * math.sqrt(1.0 - w) * np.kron([0.0, 1.0], m_minus))
    return out.astype(complex)


def _largest_component_sign(v: np.ndarray) -> int:
    z = v[int(np.argmax(np.abs(v)))]
    if z.real > 0.0 or (z.real == 0.0 and z.imag >= 0.0):
        return +1
    return -1


def decompose(s) -> EntangledDecomposition:
    """Read a pair state back into (w_a_plus, sign, m+/-, c, overlap_phase).

    The residual sign of the conditional overlap is absorbed into ``sign`` so
    the stored overlap is real non-negative for real-amplitude states; any
    remaining phase is recorded in ``overlap_phase``. If either conditional
    has norm below 1e-9 the object is in an A eigenstate: the decomposition
    is flagged degenerate and c is reported as 1.
    """
    v = qmath.require_state(s, what="pair state")
    if v.shape[0] != 4:
        raise UsageError("decompose expects a 4-component state")
    v_plus, v_minus = v[:2], v[2:]
    wp = float(np.vdot(v_plus, v_plus).real)
    wm = float(np.vdot(v_minus, v_minus).real)

    if math.sqrt(wp) < 1e-9 or math.sqrt(wm) < 1e-9:
        if wp >= wm:
            m_plus = qmath.normalize(v_plus)
            m_minus = m_plus.copy()
        else:
            m_minus = qmath.normalize(v_minus)
            m_plus = m_minus.copy()
        return EntangledDecomposition(
            w_a_plus=min(max(wp, 0.0), 1.0), sign=+1,
            m_plus=m_plus, m_minus=m_minus,
            c=1.0, overlap_phase=0.0, degenerate=True,
        )

    m_plus = v_plus / math.sqrt(wp)
    m_tmp = v_minus / math.sqrt(wm)
    overlap = complex(np.vdot(m_plus, m_tmp))
    c = min(abs(overlap), 1.0)

    if c > 1e-12:
        re, im = overlap.real, overlap.imag
        sign = +1 if (re > 0.0 or (re == 0.0 and im >= 0.0)) else -1
        stored = sign * overlap
        phase = math.atan2(stored.imag, stored.real)
    else:
        sign = _largest_component_sign(m_tmp)
        phase = 0.0
    m_minus = sign * m_tmp

    return EntangledDecomposition(
        w_a_plus=wp / (wp + wm), sign=sign,
        m_plus=m_plus, m_minus=m_minus,
        c=c, overlap_phase=phase, degenerate=False,
    )


def probe_basis_for_overlap(c: float) -> ProbeBasis:
    """Probe basis for the canonical real conditional pair at overlap c.

    Equivalent to ``probe_basis(decompose(entangle(s, c)))`` but defined for
    every object state, including A eigenstates whose decomposition is
    degenerate (one conditional has zero weight there, yet the measurement
    basis is still fixed by the entangling interaction).
    """
    c = float(c)
    if not 0.0 <= c < 1.0 - 1e-12:
        raise DegenerateBasisError(f"no informative probe basis at overlap c = {c:.6g}")
    m_plus, m_minus = _canonical_probe_pair(c)
    return probe_basis(EntangledDecomposition(
        w_a_plus=0.5, sign=+1, m_plus=m_plus, m_minus=m_minus,
        c=c, overlap_phase=0.0, degenerate=False))


def probe_basis(d: EntangledDecomposition) -> ProbeBasis:
    """Orthonormal probe basis making equal angles with both conditionals.

    Built from the normalized sum and difference of m+/- (symmetric
    orthogonalization); the phase of each basis vector is fixed so that
    <M+|m+> and <M-|m-> are real positive. Raises when the conditionals
    coincide (c = 1): the probe then carries no information.
    """
    if d.degenerate or d.c >= 1.0 - 1e-12:
        raise DegenerateBasisError(
            f"probe conditionals coincide (c = {d.c:.6g}); no informative basis exists")
    m_plus = d.m_plus
    # rotate away any residual overlap phase so the working overlap is real
    m_minus = d.m_minus * np.exp(-1j * d.overlap_phase)
    u = qmath.normalize(m_plus + m_minus)
    v = qmath.normalize(m_plus - m_minus)
    big_plus = (u + v) / math.sqrt(2.0)
    big_minus = (u - v) / math.sqrt(2.0)

    for name, bvec, ref in (("m_big_plus", big_plus, d.m_plus),
                            ("m_big_minus", big_minus, d.m_minus)):
        ov = qmath.inner(bvec, ref)
        if abs(ov) < 1e-15:
            raise DegenerateBasisError(f"{name} orthogonal to its conditional")
        bvec *= ov / abs(ov)

    cos_gamma = qmath.inner(big_plus, d.m_plus).real
    gamma = math.acos(min(max(cos_gamma, -1.0), 1.0))
    expected = 0.5 * (1.0 + math.sqrt(max(1.0 - d.c * d.c, 0.0)))
    if abs(cos_gamma ** 2 - expected) > 1e-10:
        raise RuntimeError("equal-angle consistency check failed; "
                           f"cos^2(gamma) = {cos_gamma ** 2:.15g}, expected {expected:.15g}")
    return ProbeBasis(m_big_plus=big_plus, m_big_minus=big_minus, gamma=gamma)


# --------------------------------------------------------------------------
# rescaled outcomes, joint statistics

def rescaled_eigenvalues(pair: ObservablePair, c: float) -> tuple[float, float]:
    """Eigenvalue rescalings (A/sqrt(1-c^2), B/c) that make inference unbiased."""
    c = float(c)
    if not 0.0 < c < 1.0:
        raise RescalingSingularError(
            f"overlap c = {c} is singular: one observable is exact, the other carries no signal")
    a_scaled = pair.a_eigenvalue_magnitude / math.sqrt(1.0 - c * c)
    b_scaled = pair.b_eigenvalue_magnitude / c
    if not (math.isfinite(a_scaled) and math.isfinite(b_scaled)):
        raise RescalingSingularError(f"rescaled eigenvalues overflow at c = {c}")
    return (a_scaled, b_scaled)


def joint_probabilities(s, pair: ObservablePair, basis: ProbeBasis) -> np.ndarray:
    """Joint outcome probabilities p[i, j] for object B_i and probe M_j.

    Row index 0/1 is the B+/B- object outcome, column index 0/1 the M+/M-
    probe outcome. The four entries sum to 1.
    """
    v = qmath.require_state(s, what="pair state")
    p = np.empty((2, 2))
    for i, b_i in enumerate(pair.b_basis):
        for j, m_j in enumerate((basis.m_big_plus, basis.m_big_minus)):
            amp = np.vdot(np.kron(b_i, m_j), v)
            p[i, j] = abs(amp) ** 2
    if abs(p.sum() - 1.0) > qmath.ATOL:
        raise RuntimeError(f"joint probabilities sum to {p.sum():.15g}, not 1")
    return p


def inferred_means(probs, scaled: tuple[float, float]) -> tuple[float, float]:
    """Means of the rescaled outcome distributions built from joint probabilities."""
    p = np.asarray(probs, dtype=float).reshape(2, 2)
    if abs(p.sum() - 1.0) > 1e-9:
        raise UsageError(f"probabilities sum to {p.sum():.15g}, not 1")
    a_scaled, b_scaled = scaled
    mean_a = a_scaled * float(p[:, 0].sum() - p[:, 1].sum())
    mean_b = b_scaled * float(p[0, :].sum() - p[1, :].sum())
    return (mean_a, mean_b)


# --------------------------------------------------------------------------
# inferred uncertainties and product extrema

def unsharp_deltas(delta_a: float, delta_b: float, c: float) -> tuple[float, float]:
    """Closed-form inferred uncertainties for sharp (delta_a, delta_b) at overlap c."""
    c = float(c)
    if not 0.0 < c < 1.0:
        raise RescalingSingularError(f"overlap c = {c} is singular")
    one_minus = 1.0 - c * c
    da = math.sqrt(delta_a * delta_a + c * c / one_minus)
    db = math.sqrt(delta_b * delta_b + one_minus / (c * c))
    return (da, db)


def unsharp_product(delta_a: float, delta_b: float, c: float) -> float:
    da, db = unsharp_deltas(delta_a, delta_b, c)
    return da * db


def direct_unsharp_deltas(s: EquatorialState, c: float) -> tuple[float, float]:
    """Inferred uncertainties computed the long way round.

    Entangles, builds the probe basis for the overlap, forms the joint
    outcome distribution, and takes standard deviations of the two rescaled
    two-point distributions. Agrees with `unsharp_deltas` up to rounding;
    `unsharp_uncertainties` enforces that agreement on every call.
    """
    pair = observable_pair()
    state = entangle(s, c)
    basis = probe_basis_for_overlap(c)
    p = joint_probabilities(state, pair, basis)
    a_scaled, b_scaled = rescaled_eigenvalues(pair, c)
    w_probe_plus = float(p[:, 0].sum())
    w_obj_plus = float(p[0, :].sum())
    mean_a = a_scaled * (2.0 * w_probe_plus - 1.0)
    mean_b = b_scaled * (2.0 * w_obj_plus - 1.0)
    var_a = a_scaled ** 2 - mean_a ** 2
    var_b = b_scaled ** 2 - mean_b ** 2
    da = math.sqrt(max(var_a, 0.0)) / pair.a_eigenvalue_magnitude
    db = math.sqrt(max(var_b, 0.0)) / pair.b_eigenvalue_magnitude
    return (da, db)


def unsharp_uncertainties(s: EquatorialState, c: float) -> UncertaintyReport:
    """Full uncertainty report for measuring the state through overlap c.

    Computes the closed-form inferred uncertainties and cross-checks them
    against the direct outcome-distribution route to 1e-10; a disagreement
    is an internal error, not a user error.
    """
    delta_a, delta_b = sharp_uncertainties(s)
    da_prime, db_prime = unsharp_deltas(delta_a, delta_b, c)
    da_direct, db_direct = direct_unsharp_deltas(s, c)
    if abs(da_prime - da_direct) > 1e-10 or abs(db_prime - db_direct) > 1e-10:
        raise RuntimeError(
            "closed-form and direct inferred uncertainties disagree: "
            f"({da_prime:.15g}, {db_prime:.15g}) vs ({da_direct:.15g}, {db_direct:.15g})")
    return UncertaintyReport(
        delta_a=delta_a, delta_b=delta_b,
        delta_a_prime=da_prime, delta_b_prime=db_prime,
        product_sharp=delta_a * delta_b,
        product_simultaneous=da_prime * db_prime,
        c_used=float(c),
    )


def min_product(delta_a: float, delta_b: float) -> tuple[float, float]:
    """Minimum simultaneous product and the overlap achieving it.

    Returns (1 + delta_a*delta_b, sqrt(delta_a/(delta_a + delta_b))). The
    boundary values c_opt = 0 and 1 mark the limits where one observable is
    measured exactly.
    """
    if delta_a < 0.0 or delta_b < 0.0:
        raise UsageError("sharp uncertainties must be non-negative")
    total = delta_a + delta_b
    if total <= 0.0:
        raise UsageError("delta_a = delta_b = 0 is impossible for a valid state")
    return (1.0 + delta_a * delta_b, math.sqrt(delta_a / total))


def max_product(c: float) -> float:
    """Worst-case simultaneous product 1/(c*sqrt(1-c^2)) at overlap c.

    This is the product for a state unbiased in both observables, measured
    with the same rescaling; it is at least 2, with equality at c=1/sqrt(2).
    """
    c = float(c)
    if not 0.0 < c < 1.0:
        raise RescalingSingularError(f"overlap c = {c} is singular")
    value = 1.0 / (c * math.sqrt(1.0 - c * c))
    if not math.isfinite(value):
        raise RescalingSingularError(f"maximum product overflows at c = {c}")
    return value


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_EDGE = 1e-4


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


def numeric_c_scan(s: EquatorialState, grid_size: int = 1000) -> ScanResult:
    """Brute-force minimization of the simultaneous product over the overlap.

    Scans a uniform grid on (1e-4, 1-1e-4), then refines the best bracket by
    golden-section search. A minimizer at the first or last grid point is
    flagged as a boundary: the true optimum is a limit there (overlap 0 or
    1), not an interior point.
    """
    if grid_size < 3:
        raise UsageError(f"grid_size must be >= 3, got {grid_size}")
    delta_a, delta_b = sharp_uncertainties(s)

    def product(c: float) -> float:
        one_minus = 1.0 - c * c
        return math.sqrt((delta_a * delta_a + c * c / one_minus)
                         * (delta_b * delta_b + one_minus / (c * c)))

    grid = np.linspace(_SCAN_EDGE, 1.0 - _SCAN_EDGE, grid_size)
    values = [product(c) for c in grid]
    k = int(np.argmin(values))
    boundary = k == 0 or k == grid_size - 1
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid_size - 1)]
    c_best = _golden_min(product, lo, hi)
    return ScanResult(c_best=float(c_best), product_best=product(c_best), boundary=boundary)


# --------------------------------------------------------------------------
# why a single projective measurement cannot work

_PAULI_A = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULI_B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_N = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def bloch_vector(s: EquatorialState) -> np.ndarray:
    """Bloch components of the state in the (A-axis, B-axis, normal) frame."""
    amps = s.amplitudes
    comp = [float(np.vdot(amps, op @ amps).real) for op in (_PAULI_A, _PAULI_B, _PAULI_N)]
    return np.array(comp)


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

    q = np.cross([0.0, 0.0, 1.0], d)
    qn = np.linalg.norm(q)
    if qn < 1e-12:
        # polar axis: the whole equator is equiprobable, any antipodal pair works
        q = np.array([1.0, 0.0, 0.0])
    else:
        q = q / qn

    state_q = _equatorial_from_bloch(q[0], q[1])
    state_mq = _equatorial_from_bloch(-q[0], -q[1])

    op_d = d[0] * _PAULI_A + d[1] * _PAULI_B + d[2] * _PAULI_N
    probs = []
    for st in (state_q, state_mq):
        amps = st.amplitudes
        p_plus = float(np.vdot(amps, 0.5 * (np.eye(2) + op_d) @ amps).real)
        probs.append((p_plus, 1.0 - p_plus))
    if abs(probs[0][0] - probs[1][0]) > 1e-12:
        raise RuntimeError("counterexample states do not share outcome statistics")

    r_q, r_mq = bloch_vector(state_q), bloch_vector(state_mq)
    gap_a = abs(r_q[0] - r_mq[0])
    gap_b = abs(r_q[1] - r_mq[1])
    return VonNeumannCounterexample(
        state_q=state_q, state_minus_q=state_mq,
        outcome_probabilities=tuple(probs[0]),
        mean_gap_a=gap_a, mean_gap_b=gap_b,
    )
