"""Amplitude-level reference model of the experiment, used only by the tests.

No runtime module imports this one: `protocol` and `experiment` compute
everything from closed forms in the Bloch components (x, y) and the probe
overlap c. This module derives the same numbers the long way, from
two-qubit state vectors, so the tests can hold the closed forms against an
independent route:

    singlet -> Jones operator of the rotated stack on the object photon
    -> post-selection -> decomposition of the real pair state into
    (w, sign, c, m+, m-) -> equal-angle probe basis M+/-
    -> p[i, j] = |<B_i (x) M_j|psi>|^2.

It also holds the argument, in Bloch components, that no single von
Neumann measurement can do the protocol's job (`von_neumann_counterexample`),
next to the Pauli-matrix route the tests check it against: Bloch
components as expectation values <psi|sigma|psi>, and the outcome
probability of a projective measurement along an axis d from the projector
(1 + d.sigma)/2.

Vectors are real ``float64`` numpy arrays, since the optics (a singlet and
a partial polarizer with a real Jones operator) produce no complex
amplitude: length 2 for a single qubit, length 4 for the object-probe pair,
object index major:

    (obj0*probe0, obj0*probe1, obj1*probe0, obj1*probe1)

Only the Pauli route is complex, because sigma_N is imaginary.

Conventions: |A+> = (1, 0), |A-> = (0, 1); |B+/-> = (|A+> +/- |A->)/sqrt(2).
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

B_BASIS = (np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0))

# Pauli matrices along the A axis, the B axis and the normal to the A-B plane
PAULI = (np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
         np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
         np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex))


def pauli_expectations(amplitudes) -> np.ndarray:
    """Bloch components <sigma> of a qubit state in the (A axis, B axis, normal) frame."""
    v = np.asarray(amplitudes, dtype=complex)
    return np.array([np.vdot(v, op @ v).real for op in PAULI])


def axis_probability(amplitudes, axis) -> float:
    """P(+) of a projective measurement along the unit axis: <(1 + axis.sigma)/2>."""
    v = np.asarray(amplitudes, dtype=complex)
    projector = 0.5 * (np.eye(2) + sum(d * op for d, op in zip(axis, PAULI)))
    return float(np.vdot(v, projector @ v).real)


@dataclass(frozen=True, eq=False)
class VonNeumannCounterexample:
    """Two equatorial states (w, sign) a projective measurement cannot tell apart."""

    state_q: tuple[float, int]
    state_minus_q: tuple[float, int]
    mean_gap_a: float
    mean_gap_b: float


def _equatorial_from_bloch(x: float, y: float) -> tuple[float, int]:
    return (min(max(0.5 * (1.0 + x), 0.0), 1.0), +1 if y >= 0.0 else -1)


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
    length = math.hypot(d_a, d_b)
    # polar axis: the whole equator is equiprobable, any antipodal pair works
    q_a, q_b = (-d_b / length, d_a / length) if length >= 1e-12 else (1.0, 0.0)
    return VonNeumannCounterexample(
        state_q=_equatorial_from_bloch(q_a, q_b),
        state_minus_q=_equatorial_from_bloch(-q_a, -q_b),
        mean_gap_a=2.0 * abs(q_a), mean_gap_b=2.0 * abs(q_b),
    )


# --------------------------------------------------------------------------
# the optics

def singlet() -> np.ndarray:
    """Post-selected two-photon polarization singlet, (0, 1, -1, 0)/sqrt(2)."""
    return np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def polarizer_operator(alpha: float, t_s: float) -> np.ndarray:
    """Jones operator of the stack rotated by alpha, in the A basis.

    R(alpha) diag(1, t_s) R(-alpha): symmetric with eigenvalues {1, t_s};
    the lossless eigenvector is the high-transmission axis at angle alpha
    from |A+>.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([1.0, t_s]) @ rot.T


def post_select(alpha: float, t_s: float) -> tuple[np.ndarray, float]:
    """The singlet after its object photon crosses the polarizer: (state, yield).

    The filter acts on the object factor, (op (x) 1) singlet. The yield is
    the squared norm of the filtered singlet, at least 1/2 since the high
    axis passes without loss; the state is normalized.
    """
    raw = (polarizer_operator(alpha, t_s) @ singlet().reshape(2, 2)).ravel()
    p_ok = float(raw @ raw)
    return raw / math.sqrt(p_ok), p_ok


# --------------------------------------------------------------------------
# the object-probe pair

def equatorial(w: float, sign: int) -> np.ndarray:
    """sqrt(w)|A+> + sign*sqrt(1-w)|A->, the object state `protocol` calls (w, sign)."""
    return np.array([math.sqrt(w), sign * math.sqrt(1.0 - w)])


def conditional_pair(c: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit probe states symmetric about (1, 0) with overlap c in [0, 1]."""
    half = 0.5 * math.acos(c)
    return (np.array([math.cos(half), math.sin(half)]),
            np.array([math.cos(half), -math.sin(half)]))


def entangle(w: float, sign: int, c: float) -> np.ndarray:
    """sqrt(w)|A+> (x) m+ + sign*sqrt(1-w)|A-> (x) m-, m+/- the pair at overlap c."""
    if not 0.0 <= w <= 1.0 or not 0.0 <= c <= 1.0 or sign not in (+1, -1):
        raise UsageError(f"need w and c in [0, 1] and sign +-1, got {w}, {c}, {sign}")
    m_plus, m_minus = conditional_pair(c)
    return (math.sqrt(w) * np.kron([1.0, 0.0], m_plus)
            + sign * math.sqrt(1.0 - w) * np.kron([0.0, 1.0], m_minus))


def decompose(state) -> tuple[float, int, float, np.ndarray, np.ndarray]:
    """Read a unit pair state back into (w, sign, c, m+, m-).

    m+/- are the normalized conditional probe states and c = <m+|m->; the
    sign of the raw overlap is moved into ``sign`` so c >= 0 (at zero
    overlap, so that m-'s largest component is positive). When a
    conditional has norm below 1e-9 the object is in an A eigenstate: its
    conditional stands in for both and c is reported as 1.
    """
    v_plus, v_minus = np.asarray(state, dtype=float).reshape(2, 2)
    wp, wm = float(v_plus @ v_plus), float(v_minus @ v_minus)
    if min(wp, wm) < 1e-18:
        m = v_plus / math.sqrt(wp) if wp >= wm else v_minus / math.sqrt(wm)
        return min(max(wp, 0.0), 1.0), +1, 1.0, m, m
    m_plus = v_plus / math.sqrt(wp)
    m_raw = v_minus / math.sqrt(wm)
    overlap = float(m_plus @ m_raw)
    if abs(overlap) > 1e-12:
        sign = +1 if overlap > 0.0 else -1
    else:
        sign = +1 if m_raw[int(np.argmax(np.abs(m_raw)))] > 0.0 else -1
    return wp / (wp + wm), sign, min(abs(overlap), 1.0), m_plus, sign * m_raw


def probe_basis(m_plus, m_minus) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal probe basis (M+, M-) making equal angles with m+ and m-.

    Symmetric orthogonalization: the normalized sum u and difference v of
    two conditionals with non-negative overlap give M+/- = (u +- v)/sqrt(2),
    with <M+|m+> = <M-|m-> > 0. Raises `UsageError` when the conditionals
    coincide (c = 1): the probe then carries no information.
    """
    u, v = m_plus + m_minus, m_plus - m_minus
    if np.linalg.norm(v) < 1e-15:
        raise UsageError("the probe conditionals coincide (c = 1): no probe basis")
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    return (u + v) / math.sqrt(2.0), (u - v) / math.sqrt(2.0)


def joint_probabilities(state, basis) -> np.ndarray:
    """p[i, j] = <B_i (x) M_j|state>^2, rows B+/B-, columns M+/M-.

    With the pair state as the amplitude matrix psi[object, probe], the
    amplitude <B_i (x) M_j|state> is B_i . psi . M_j.
    """
    return (np.array(B_BASIS) @ np.reshape(state, (2, 2)) @ np.transpose(basis)) ** 2


def equatorial_joint(w: float, sign: int, c: float) -> np.ndarray:
    """Joint distribution of an equatorial state measured through overlap c in [0, 1)."""
    return joint_probabilities(entangle(w, sign, c), probe_basis(*conditional_pair(c)))


def prepared_joint(alpha: float, t_s: float):
    """(w, sign, c, yield, p) of the post-selected state, the whole chain.

    ``p`` is None where the probe conditionals coincide (c = 1).
    """
    state, p_ok = post_select(alpha, t_s)
    w, sign, c, m_plus, m_minus = decompose(state)
    p = None if c >= 1.0 - 1e-12 else joint_probabilities(state, probe_basis(m_plus, m_minus))
    return w, sign, c, p_ok, p
