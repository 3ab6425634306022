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

It is also the Pauli-matrix reference for the von Neumann argument in
`protocol`: Bloch components as expectation values <psi|sigma|psi>, and the
outcome probability of a projective measurement along an axis d from the
projector (1 + d.sigma)/2.

Vectors are numpy arrays of ``complex128``: length 2 for a single qubit,
length 4 for the object-probe pair, object index major:

    (obj0*probe0, obj0*probe1, obj1*probe0, obj1*probe1)

Conventions: |A+> = (1, 0), |A-> = (0, 1); |B+/-> = (|A+> +/- |A->)/sqrt(2).
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyEnsembleError, UsageError

# Shared absolute tolerance for exact-arithmetic identities (normalization,
# orthogonality). Callers may pass a looser/tighter value.
ATOL = 1e-12

B_BASIS = (np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
           np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0))


def vec(components) -> np.ndarray:
    """Coerce to a finite complex vector of dimension 2 or 4."""
    v = np.asarray(components, dtype=complex)
    if v.ndim != 1 or v.shape[0] not in (2, 4):
        raise UsageError(f"expected a 2- or 4-component vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.view(float))):
        raise UsageError("vector has non-finite components")
    return v


def inner(a, b) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise UsageError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def normalize(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    n = np.linalg.norm(a)
    if n < 1e-15:
        raise UsageError("cannot normalize a (near-)zero vector")
    return a / n


def require_state(a, atol: float = ATOL, what: str = "vector") -> np.ndarray:
    v = vec(a)
    if abs(np.linalg.norm(v) - 1.0) > atol:
        raise UsageError(f"{what} is not normalized: |norm - 1| = {abs(norm(v) - 1.0):.3e}")
    return v


# Pauli matrices along the A axis, the B axis and the normal to the A-B plane
PAULI = (np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
         np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
         np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex))


def pauli_expectations(amplitudes) -> np.ndarray:
    """Bloch components <sigma> of a qubit state in the (A axis, B axis, normal) frame."""
    v = require_state(amplitudes, what="qubit state")
    return np.array([np.vdot(v, op @ v).real for op in PAULI])


def axis_probability(amplitudes, axis) -> float:
    """P(+) of a projective measurement along the unit axis: <(1 + axis.sigma)/2>."""
    v = require_state(amplitudes, what="qubit state")
    projector = 0.5 * (np.eye(2) + sum(d * op for d, op in zip(axis, PAULI)))
    return float(np.vdot(v, projector @ v).real)


def apply_to_object(op, s) -> np.ndarray:
    """Apply a 2x2 operator to the object factor of a pair state.

    Returns (op (x) identity) s, possibly unnormalized: lossy operators
    (partial polarizers) are allowed.
    """
    m = np.asarray(op, dtype=complex)
    if m.shape != (2, 2):
        raise UsageError(f"expected a 2x2 operator, got shape {m.shape}")
    v = require_state(s, what="pair state")
    if v.shape[0] != 4:
        raise UsageError("apply_to_object expects a 4-component state")
    return (m @ v.reshape(2, 2)).ravel()


# --------------------------------------------------------------------------
# the optics

def singlet() -> np.ndarray:
    """Post-selected two-photon polarization singlet, (0, 1, -1, 0)/sqrt(2)."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def polarizer_operator(alpha: float, t_p: float, t_s: float) -> np.ndarray:
    """Jones operator of the stack rotated by alpha, in the A basis.

    R(alpha) diag(t_p, t_s) R(-alpha): Hermitian with eigenvalues
    {t_p, t_s}; the t_p eigenvector is the high-transmission axis at angle
    alpha from |A+>.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    rot = np.array([[c, -s], [s, c]])
    return (rot @ np.diag([t_p, t_s]) @ rot.T).astype(complex)


def post_select(alpha: float, t_p: float, t_s: float) -> tuple[np.ndarray, float]:
    """The singlet after its object photon crosses the polarizer: (state, yield).

    The yield is the squared norm of the filtered singlet; the state is
    normalized.
    """
    raw = apply_to_object(polarizer_operator(alpha, t_p, t_s), singlet())
    p_ok = float(np.vdot(raw, raw).real)
    if p_ok < 1e-30:
        raise EmptyEnsembleError("polarizer blocks both axes; post-selection keeps nothing")
    return raw / math.sqrt(p_ok), p_ok


# --------------------------------------------------------------------------
# the object-probe pair

def conditional_pair(c: float) -> tuple[np.ndarray, np.ndarray]:
    """Real unit probe states symmetric about (1, 0) with overlap c in [0, 1]."""
    half = 0.5 * math.acos(c)
    return (np.array([math.cos(half), math.sin(half)], dtype=complex),
            np.array([math.cos(half), -math.sin(half)], dtype=complex))


def entangle(w: float, sign: int, c: float) -> np.ndarray:
    """sqrt(w)|A+> (x) m+ + sign*sqrt(1-w)|A-> (x) m-, m+/- the pair at overlap c."""
    if not 0.0 <= w <= 1.0 or not 0.0 <= c <= 1.0 or sign not in (+1, -1):
        raise UsageError(f"need w and c in [0, 1] and sign +-1, got {w}, {c}, {sign}")
    m_plus, m_minus = conditional_pair(c)
    return (math.sqrt(w) * np.kron([1.0, 0.0], m_plus)
            + sign * math.sqrt(1.0 - w) * np.kron([0.0, 1.0], m_minus))


def decompose(state) -> tuple[float, int, float, np.ndarray, np.ndarray]:
    """Read a real pair state back into (w, sign, c, m+, m-).

    m+/- are the normalized conditional probe states and c = <m+|m->; the
    sign of the raw overlap is moved into ``sign`` so c >= 0 (at zero
    overlap, so that m-'s largest component is positive). When a
    conditional has norm below 1e-9 the object is in an A eigenstate: its
    conditional stands in for both and c is reported as 1.
    """
    v = require_state(state, what="pair state")
    if v.shape[0] != 4 or np.abs(v.imag).max() > ATOL:
        raise UsageError("decompose expects a real 4-component state")
    v_plus, v_minus = v[:2].real, v[2:].real
    wp, wm = float(v_plus @ v_plus), float(v_minus @ v_minus)
    if min(wp, wm) < 1e-18:
        m = normalize(v_plus if wp >= wm else v_minus)
        return min(max(wp, 0.0), 1.0), +1, 1.0, m, m
    m_plus = normalize(v_plus)
    m_raw = normalize(v_minus)
    overlap = float(np.vdot(m_plus, m_raw).real)
    if abs(overlap) > 1e-12:
        sign = +1 if overlap > 0.0 else -1
    else:
        sign = +1 if m_raw[int(np.argmax(np.abs(m_raw)))].real > 0.0 else -1
    return wp / (wp + wm), sign, min(abs(overlap), 1.0), m_plus, sign * m_raw


def probe_basis(m_plus, m_minus) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal probe basis (M+, M-) making equal angles with m+ and m-.

    Symmetric orthogonalization: the normalized sum u and difference v of
    two real conditionals with non-negative overlap give M+/- = (u +- v)/sqrt(2),
    with <M+|m+> = <M-|m-> > 0. Raises `UsageError` when the conditionals
    coincide (c = 1): the probe then carries no information.
    """
    u = normalize(np.asarray(m_plus) + m_minus)
    v = normalize(np.asarray(m_plus) - m_minus)
    return (u + v) / math.sqrt(2.0), (u - v) / math.sqrt(2.0)


def joint_probabilities(state, basis) -> np.ndarray:
    """p[i, j] = |<B_i (x) M_j|state>|^2, rows B+/B-, columns M+/M-."""
    v = require_state(state, what="pair state")
    return np.array([[abs(np.vdot(np.kron(b, m), v)) ** 2 for m in basis] for b in B_BASIS])


def equatorial_joint(w: float, sign: int, c: float) -> np.ndarray:
    """Joint distribution of an equatorial state measured through overlap c in [0, 1)."""
    return joint_probabilities(entangle(w, sign, c), probe_basis(*conditional_pair(c)))


def prepared_joint(alpha: float, t_p: float, t_s: float):
    """(w, sign, c, yield, p) of the post-selected state, the whole chain.

    ``p`` is None where the probe conditionals coincide (c = 1).
    """
    state, p_ok = post_select(alpha, t_p, t_s)
    w, sign, c, m_plus, m_minus = decompose(state)
    p = None if c >= 1.0 - ATOL else joint_probabilities(state, probe_basis(m_plus, m_minus))
    return w, sign, c, p_ok, p
