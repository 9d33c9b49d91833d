"""Non-separable two-mode squeezed states and their coupled portraits.

A beam splitter inserted between two one-mode squeezers couples the modes:
the position wavefunction is still a bivariate complex Gaussian, but with a
cross term whose coefficient ell vanishes only when the two squeezing labels
coincide or the mixing angle is a multiple of pi/2.  Everything downstream is
Gaussian algebra over the quadratic coefficients (Delta1, Delta2, ell): the
normalisation, the overlap of two such states, the position portrait kernel,
and the quantisation of position fields in a truncated Fock basis.

Two independent numerical routes back the closed forms.  Fock coefficients of
the states follow from a pair of exact ladder recurrences seeded by the
vacuum amplitude (no quadrature, no matrix exponentials), which powers the
field quantisation over 4D phase space: each Fock coefficient is the vacuum
amplitude c00 times a polynomial of degree n + m, so every matrix entry of a
field of polynomial degree d is the Gaussian |c00|^2 times a polynomial of
degree <= 4 nmax + d.  A tensor Gauss-Hermite rule on the principal axes of
that Gaussian of order ceil((4 nmax + d + 1) / 2) integrates it exactly up
to rounding; for fields that are not polynomial the order grows by 4 until
the operator changes by at most 1e-6, and the last change is reported as the
convergence witness.
Fields without momentum dependence have a cheaper route with the same loop,
budget and report: they quantise to multiplication by their Gaussian
smoothing, so the momenta integrate exactly and only a 2D outer rule in the
positions is refined (``_quantise_position_field``).  The 4D engine stays the
definition: one run of it on the stacked Table 1 fields q1, q2 and q1 q2
(``table1_operators``) gives their three operators and, from the same nodes,
the identity resolution, which certifies the measure (2 pi hbar)^2.

The mode-mixing (Bogoliubov) residual check holds the unitary G as one
array g[r1, r2, n1, n2] on a grid of rows and columns, assembled from
per-mode recurrences for the squeeze and displacement factors plus a beam
splitter applied per photon-number sector.  On that grid a_j G is g shifted
along row axis j and G F_j is g shifted along the column axes, so the
residual is read off with slices.  The beam splitter conserves n1 + n2, so
below the box edge each sector's generator is exact and its exponential is
an exact spectral rotation; exponentials of truncated one-mode generators
are avoided because their columns are contaminated at any truncation
reachable in practice.

Coupled portraits of general fields are ``numerics.gaussian_smooth`` under
``_portrait_precision``; rectangle indicators keep the exact conditional-normal
route ``nonsep_box_portrait`` (Genz 2004), vectorised over centres.

Sign conventions for the overlap exponent and the mixed-term coefficients
were fixed against exact Gaussian-integral oracles, not taken on faith; see
``table1_coefficient_rows`` and ``nonsep_overlap_closed`` for the rival
closed forms kept around for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import (
    ConfigError,
    GrowthViolation,
    NonConvergent,
    QuadratureNotConverged,
    SqzqError,
    TruncationTooSmall,
)
from .numerics import (
    _NSIGMA,
    _ORDER_STEP,
    _SMOOTH_ORDER,
    _TINY,
    QuadratureReport,
    TruncatedOperator,
    _quantise_on_rule,
    _refine,
    _refuse_beyond_budget,
    gaussian_smooth,
    integrate_gaussian_quadratic,
    legendre_box_rule,
    whitened_rule,
)
from .sepstates import PhasePoint, TwoModeParams, _pad, as_field

__all__ = [
    "NonSepParams",
    "NonSepCoefficients",
    "FieldOperator",
    "nonsep_coefficients",
    "nonsep_wavefunction",
    "fock_coefficients",
    "bogoliubov_check",
    "nonsep_overlap_sq",
    "nonsep_overlap_closed",
    "nonsep_portrait_hq",
    "nonsep_box_portrait",
    "table1_operators",
    "table1_coefficient_rows",
]

# the block size of nonsep_box_portrait; a block of 2048 centres keeps its
# work arrays near 3 MB each
_BOX_BLOCK = 2048
# the rule is exact for the polynomial Table 1 fields, so only rounding remains
_TABLE1_TOL = 1e-10


@dataclass(frozen=True)
class NonSepParams:
    """Two per-mode squeezing labels plus the beam-splitter mixing angle."""

    modes: TwoModeParams
    phi: float

    def __post_init__(self):
        if not np.isfinite(self.phi):
            raise ConfigError("mixing angle must be finite")
        if not (0.0 <= self.phi < 2.0 * np.pi):
            raise ConfigError("mixing angle must lie in [0, 2 pi)")

    @classmethod
    def from_tau(
        cls,
        tau1: complex,
        tau2: complex,
        phi: float,
        lam1: float = 1.0,
        lam2: float = 1.0,
        hbar: float = 1.0,
    ) -> "NonSepParams":
        return cls(TwoModeParams.from_tau(tau1, tau2, lam1, lam2, hbar), float(phi))

    @property
    def tau1(self) -> complex:
        return self.modes.mode1.tau

    @property
    def tau2(self) -> complex:
        return self.modes.mode2.tau

    @property
    def lam1(self) -> float:
        return self.modes.mode1.lam

    @property
    def lam2(self) -> float:
        return self.modes.mode2.lam

    @property
    def hbar(self) -> float:
        return self.modes.hbar


@dataclass(frozen=True)
class NonSepCoefficients:
    """Coefficient groups of one non-separable state at one phase point.

    ``Delta1``, ``Delta2``, ``ell`` are the quadratic-form coefficients of
    the wavefunction; ``ell1``, ``ell2`` the linear ones (point dependent).
    ``Delta`` through ``L22`` parametrise the overlap exponent, and the C
    group the position-portrait kernel; those depend on the parameters only.
    """

    Delta1: complex
    Delta2: complex
    ell: complex
    ell1: complex
    ell2: complex
    Delta: float
    theta1: float
    theta2: float
    theta12: float
    Xi1: float
    Xi2: float
    Xi12: float
    L11: float
    L12: float
    L21: float
    L22: float
    C1: float
    C2: float
    C12: float


# ---------------------------------------------------------------------------
# coefficient algebra


def _mix_coefficients(tau1: complex, tau2: complex, phi: float):
    """Ladder-mixing coefficient quadruples (A, B) of the two modes.

    Written in tau so that tau = 0 (no squeezing) needs no special casing.
    """
    s1 = abs(tau1) ** 2 / (1.0 - abs(tau1) ** 2)
    s2 = abs(tau2) ** 2 / (1.0 - abs(tau2) ** 2)
    sc1 = tau1 / (1.0 - abs(tau1) ** 2)
    sc2 = tau2 / (1.0 - abs(tau2) ** 2)
    c, s = np.cos(phi), np.sin(phi)
    A = np.array(
        [1.0 + s1 * c**2 + s2 * s**2, sc2 * s**2 + sc1 * c**2,
         (s2 - s1) * s * c, (sc2 - sc1) * c * s],
        dtype=complex,
    )
    B = np.array(
        [A[2], A[3], 1.0 + s2 * c**2 + s1 * s**2, sc2 * c**2 + sc1 * s**2],
        dtype=complex,
    )
    return A, B


def _quad_coefficients(tau1: complex, tau2: complex, phi: float):
    """Quadratic-form coefficients (Delta1, Delta2, ell) of the wavefunction."""
    d = 2.0 * (1.0 - tau1) * (1.0 - tau2)
    d1 = (1.0 - tau1 * tau2 - np.cos(2.0 * phi) * (tau2 - tau1)) / d
    d2 = (1.0 - tau1 * tau2 + np.cos(2.0 * phi) * (tau2 - tau1)) / d
    ell = np.sin(2.0 * phi) * (tau2 - tau1) / ((1.0 - tau1) * (1.0 - tau2))
    return complex(d1), complex(d2), complex(ell)


def _pair_matrix(tau1: complex, tau2: complex, phi: float) -> np.ndarray:
    """Pair-correlation matrix of the mixed squeezed vacuum."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array(
        [[tau1 * c**2 + tau2 * s**2, (tau2 - tau1) * c * s],
         [(tau2 - tau1) * c * s, tau1 * s**2 + tau2 * c**2]],
        dtype=complex,
    )


def _k_matrix(tau1: complex, tau2: complex, phi: float) -> np.ndarray:
    """Quadratic form of log |overlap|^2 in (dq1/l1, l1 dp1/h, dq2/l2, l2 dp2/h).

    Built from the momentum-block Schur algebra of the exact Gaussian overlap
    integral; negative definite for |tau_j| < 1.
    """
    d1, d2, ell = _quad_coefficients(tau1, tau2, phi)
    mh = np.array([[2.0 * d1.real, ell.real], [ell.real, 2.0 * d2.real]])
    nh = np.array([[2.0 * d1.imag, ell.imag], [ell.imag, 2.0 * d2.imag]])
    mi = np.linalg.inv(mh)
    kqq = -0.5 * (mh + nh @ mi @ nh)
    kqp = -0.5 * (nh @ mi)
    kpp = -0.5 * mi
    k = np.zeros((4, 4))
    iq, ip = (0, 2), (1, 3)
    for a in range(2):
        for b in range(2):
            k[iq[a], iq[b]] = kqq[a, b]
            k[iq[a], ip[b]] = kqp[a, b]
            k[ip[b], iq[a]] = kqp[a, b]
            k[ip[a], ip[b]] = kpp[a, b]
    return k


def _alpha_pair(params: NonSepParams, point: PhasePoint):
    """Coherent labels of the displacement factors (mode-diagonal map)."""
    l1, l2, hbar = params.lam1, params.lam2, params.hbar
    a1 = point.q1 / (l1 * np.sqrt(2.0)) + 1j * l1 * point.p1 / (hbar * np.sqrt(2.0))
    a2 = point.q2 / (l2 * np.sqrt(2.0)) + 1j * l2 * point.p2 / (hbar * np.sqrt(2.0))
    return a1, a2


def _scaled_q(params: NonSepParams) -> np.ndarray:
    return np.array([[1.0 / params.lam1**2, 0.0], [0.0, 1.0 / params.lam2**2]])


def _wavefunction_parts(params: NonSepParams, point: PhasePoint):
    """Quadratic matrix Q, linear vector v, real prefactor and global phase.

    The wavefunction is phase * nreal * exp(-x^T Q x / 2 + v^T x).  The phase
    is pinned by matching the vacuum Fock amplitude of the state against the
    same amplitude computed from the real-positive Gaussian ansatz.
    """
    tau1, tau2, phi = params.tau1, params.tau2, params.phi
    l1, l2, hbar = params.lam1, params.lam2, params.hbar
    d1, d2, ell = _quad_coefficients(tau1, tau2, phi)
    q = np.array([[2.0 * d1 / l1**2, ell / (l1 * l2)],
                  [ell / (l1 * l2), 2.0 * d2 / l2**2]])
    qvec = np.array([point.q1, point.q2])
    pvec = np.array([point.p1, point.p2])
    v = q @ qvec + 1j * pvec / hbar
    m = q.real
    nreal = (np.linalg.det(m) / np.pi**2) ** 0.25 * np.exp(-0.5 * qvec @ m @ qvec)

    a1, a2 = _alpha_pair(params, point)
    t = _pair_matrix(tau1, tau2, phi)
    ac = np.conj(np.array([a1, a2]))
    v0 = ((1.0 - abs(tau1) ** 2) * (1.0 - abs(tau2) ** 2)) ** 0.25 * np.exp(
        -0.5 * (abs(a1) ** 2 + abs(a2) ** 2) - 0.5 * ac @ t @ ac
    )
    # vacuum amplitude of the ansatz: Gaussian integral of psi against the
    # two-mode ground state, done in closed form
    amat = (q + _scaled_q(params)) / 2.0
    c00 = (
        nreal
        / np.sqrt(np.pi * l1 * l2)
        * np.pi
        / np.sqrt(np.linalg.det(amat))
        * np.exp(0.25 * v @ np.linalg.solve(amat, v))
    )
    ratio = v0 / c00
    return q, v, nreal, ratio / abs(ratio)


def nonsep_coefficients(params: NonSepParams, point: PhasePoint) -> NonSepCoefficients:
    """All coefficient groups of the state labelled by ``point``.

    The linear coefficients come from the phase-space form v = Q q + i p/hbar
    and are cross-checked against the ladder eigenvalue relations through the
    coherent labels; disagreement beyond 1e-12 would mean the two coefficient
    routes have diverged and is raised, never papered over.
    """
    tau1, tau2, phi = params.tau1, params.tau2, params.phi
    d1, d2, ell = _quad_coefficients(tau1, tau2, phi)
    q, v, _, _ = _wavefunction_parts(params, point)
    ell1 = params.lam1 * v[0]
    ell2 = params.lam2 * v[1]

    # ladder route: the state is a joint eigenvector of two mixed ladder
    # combinations; matching constant terms gives a 2x2 system for (l1 v1,
    # l2 v2) that must reproduce the phase-space form
    a, b = _mix_coefficients(tau1, tau2, phi)
    a1, a2 = _alpha_pair(params, point)
    z1 = a[0] * a1 + a[1] * np.conj(a1) + a[2] * a2 + a[3] * np.conj(a2)
    z2 = b[0] * a1 + b[1] * np.conj(a1) + b[2] * a2 + b[3] * np.conj(a2)
    mat = np.array([[a[0] - a[1], a[2] - a[3]], [b[0] - b[1], b[2] - b[3]]])
    lv = np.linalg.solve(mat, np.sqrt(2.0) * np.array([z1, z2]))
    scale = max(1.0, abs(ell1), abs(ell2))
    if max(abs(lv[0] - ell1), abs(lv[1] - ell2)) > 1e-12 * scale:
        raise SqzqError(
            "linear-coefficient routes disagree; coefficient algebra is broken"
        )

    delta = 16.0 * d1.real * d2.real - 4.0 * ell.real**2
    k = _k_matrix(tau1, tau2, phi)
    mt = delta * k
    return NonSepCoefficients(
        Delta1=d1,
        Delta2=d2,
        ell=ell,
        ell1=ell1,
        ell2=ell2,
        Delta=delta,
        theta1=mt[0, 0],
        theta2=mt[2, 2],
        theta12=2.0 * mt[0, 2],
        Xi1=mt[1, 1],
        Xi2=mt[3, 3],
        Xi12=2.0 * mt[1, 3],
        L11=2.0 * mt[0, 1],
        L12=2.0 * mt[0, 3],
        L21=2.0 * mt[1, 2],
        L22=2.0 * mt[2, 3],
        C1=-delta * d1.real,
        C2=-delta * d2.real,
        C12=-delta * ell.real,
    )


def nonsep_wavefunction(params: NonSepParams, point: PhasePoint, x) -> np.ndarray:
    """Position wavefunction psi(x1, x2); ``x`` has shape (..., 2).

    Normalised bivariate Gaussian including the global phase of the
    displacement-mixing-squeezing construction; at phi = 0 it factorises into
    the two one-mode wavefunctions.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError("x must have a trailing axis of length 2")
    q, v, nreal, phase = _wavefunction_parts(params, point)
    quad = (
        q[0, 0] * x[..., 0] ** 2
        + 2.0 * q[0, 1] * x[..., 0] * x[..., 1]
        + q[1, 1] * x[..., 1] ** 2
    )
    lin = v[0] * x[..., 0] + v[1] * x[..., 1]
    return phase * nreal * np.exp(-0.5 * quad + lin)


# ---------------------------------------------------------------------------
# Fock coefficients and the quantisation engine


def _fock_batch(params: NonSepParams, pts: np.ndarray, nmax: int) -> np.ndarray:
    """Fock coefficients <n m|state(q, p)> for a batch of phase points.

    Shell-marching solve of the two ladder recurrences seeded by the vacuum
    amplitude; exact up to rounding, no quadrature involved.  ``pts`` has
    shape (P, 4) ordered (q1, q2, p1, p2); returns (P, nmax+1, nmax+1).
    """
    tau1, tau2, phi = params.tau1, params.tau2, params.phi
    l1, l2, hbar = params.lam1, params.lam2, params.hbar
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    npts = pts.shape[0]
    a, b = _mix_coefficients(tau1, tau2, phi)
    a1 = pts[:, 0] / (l1 * np.sqrt(2.0)) + 1j * l1 * pts[:, 2] / (hbar * np.sqrt(2.0))
    a2 = pts[:, 1] / (l2 * np.sqrt(2.0)) + 1j * l2 * pts[:, 3] / (hbar * np.sqrt(2.0))
    z1 = a[0] * a1 + a[1] * np.conj(a1) + a[2] * a2 + a[3] * np.conj(a2)
    z2 = b[0] * a1 + b[1] * np.conj(a1) + b[2] * a2 + b[3] * np.conj(a2)
    t = _pair_matrix(tau1, tau2, phi)
    ac1, ac2 = np.conj(a1), np.conj(a2)
    c = np.zeros((npts, nmax + 2, nmax + 2), dtype=complex)
    c[:, 0, 0] = ((1.0 - abs(tau1) ** 2) * (1.0 - abs(tau2) ** 2)) ** 0.25 * np.exp(
        -0.5 * (np.abs(a1) ** 2 + np.abs(a2) ** 2)
        - 0.5 * (t[0, 0] * ac1**2 + 2.0 * t[0, 1] * ac1 * ac2 + t[1, 1] * ac2**2)
    )
    det_base = a[0] * b[2] - a[2] * b[0]
    if abs(det_base) < 1e-12:
        raise NonConvergent("ladder system is degenerate; cannot march shells")
    for s in range(0, 2 * nmax + 1):
        for n in range(max(0, s - nmax), min(s, nmax) + 1):
            m = s - n
            r1 = z1 * c[:, n, m]
            r2 = z2 * c[:, n, m]
            if n > 0:
                r1 = r1 - a[1] * np.sqrt(n) * c[:, n - 1, m]
                r2 = r2 - b[1] * np.sqrt(n) * c[:, n - 1, m]
            if m > 0:
                r1 = r1 - a[3] * np.sqrt(m) * c[:, n, m - 1]
                r2 = r2 - b[3] * np.sqrt(m) * c[:, n, m - 1]
            # per-cell 2x2 solve: [[A1 rtN, A3 rtM], [B1 rtN, B3 rtM]]
            rtn, rtm = np.sqrt(n + 1.0), np.sqrt(m + 1.0)
            det = rtn * rtm * det_base
            c[:, n + 1, m] = (b[2] * rtm * r1 - a[2] * rtm * r2) / det
            if n == 0:
                c[:, 0, m + 1] = (-b[0] * rtn * r1 + a[0] * rtn * r2) / det
    return c[:, : nmax + 1, : nmax + 1]


def fock_coefficients(point: PhasePoint, params: NonSepParams, nmax: int) -> np.ndarray:
    """Matrix of Fock coefficients <n m|state> for n, m <= nmax."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    pts = np.array([[point.q1, point.q2, point.p1, point.p2]])
    return _fock_batch(params, pts, nmax)[0]


def _vacuum_precision(params: NonSepParams) -> np.ndarray:
    """Precision P of the vacuum weight, |c00(x)|^2 ~ exp(-x^T P x).

    x = (q1, q2, p1, p2).  The coherent labels are alpha = Re x + i Im x, and
    |c00|^2 = exp(-|alpha|^2 - Re(conj(alpha)^T T conj(alpha))) with T the
    pair-correlation matrix, which expands to the real quadratic form below.
    """
    l1, l2, hbar = params.lam1, params.lam2, params.hbar
    re = np.zeros((2, 4))
    im = np.zeros((2, 4))
    re[0, 0], re[1, 1] = 1.0 / (l1 * np.sqrt(2.0)), 1.0 / (l2 * np.sqrt(2.0))
    im[0, 2], im[1, 3] = l1 / (hbar * np.sqrt(2.0)), l2 / (hbar * np.sqrt(2.0))
    t = _pair_matrix(params.tau1, params.tau2, params.phi)
    tr, ti = t.real, t.imag
    return (
        re.T @ re + im.T @ im
        + re.T @ tr @ re + re.T @ ti @ im + im.T @ ti @ re - im.T @ tr @ im
    )


def _quantise_field(params: NonSepParams, field, nmax: int, degree: int, chunk: int = 20000):
    """4D phase-space quadrature of f(q1, q2, p1, p2) against the family.

    Every Fock coefficient is the vacuum amplitude c00 times a polynomial of
    degree n + m in the phase point, so each matrix entry of a field of
    polynomial degree ``degree`` integrates exp(-x^T P x) times a polynomial
    of degree <= 4 nmax + degree.  A tensor Gauss-Hermite rule whitened by P
    (``numerics.whitened_rule``) of order k0 = ceil((4 nmax + degree + 1) / 2)
    is exact for it up to rounding; orders k0, k0 + 4, ... are refined as
    ``numerics._refine`` describes, with order^4 nodes each.

    Returns the (nmax+1)^2-dimensional matrix of the quantised field in the
    two-mode Fock basis at the finest order evaluated (measure
    d2q d2p / (2 pi hbar)^2), the nodes of that order, shape (N, 4) ordered
    (q1, q2, p1, p2), and a QuadratureReport whose identity deviation comes
    from the identity resolution on those same nodes.  A field returning a
    stack (F, N) of fields, each of degree <= ``degree``, gives a stack of F
    matrices from the one quadrature.
    """
    prec = _vacuum_precision(params)
    dim = (nmax + 1) ** 2
    coefficients = lambda x: _fock_batch(params, x, nmax).reshape(-1, dim)
    norm = (2.0 * np.pi * params.hbar) ** 2

    def evaluate(order):
        pts, weights = whitened_rule(prec, order)
        return (*_quantise_on_rule(coefficients, field, pts, weights, norm, chunk), pts)

    return _refine(2, nmax, degree, lambda order: order**4, evaluate)


def _position_covariance(params: NonSepParams) -> np.ndarray:
    """Covariance S = diag(lam^2 / 2) + (2 M)^-1 of q = Lambda u + y.

    u ~ N(0, I / 2) carries the Hermite weight of the scaled positions
    x_j = lam_j u_j and y ~ N(0, (2 M)^-1) the smoothing of a position field,
    M = ``_portrait_precision``; S is the marginal covariance of q.
    """
    lam = np.array([params.lam1, params.lam2])
    return np.diag(lam**2 / 2.0) + np.linalg.inv(2.0 * _portrait_precision(params))


def _position_rule(params: NonSepParams, order: int):
    """Outer rule of the position route: q nodes (order^2, 2) and weights
    that carry the marginal density N(q; 0, S), so sum(w g(q)) ~ E[g(q)]."""
    s = _position_covariance(params)
    si = np.linalg.inv(s)
    pts, weights = whitened_rule(si / 2.0, order)
    with np.errstate(over="ignore", under="ignore"):
        det = np.linalg.det(s)
    if not _TINY <= det < np.inf:
        raise NonConvergent(
            f"the position covariance at lam1 = {params.lam1:.3g}, lam2 = {params.lam2:.3g} "
            f"has determinant {det:.3g}, outside the float range"
        )
    dens = np.exp(-0.5 * np.einsum("ni,ij,nj->n", pts, si, pts))
    return pts, weights * dens / (2.0 * np.pi * np.sqrt(det))


def _hermite_factors(u: np.ndarray, nmax: int) -> np.ndarray:
    """p_0(u) .. p_nmax(u), orthonormal under the weight e^{-u^2}, shape
    (nmax + 1,) + u.shape; h_n(u) = p_n(u) e^{-u^2 / 2} are the Hermite
    functions."""
    p = np.empty((nmax + 1,) + u.shape)
    p[0] = np.pi**-0.25
    if nmax >= 1:
        p[1] = np.sqrt(2.0) * u * p[0]
    for n in range(2, nmax + 1):
        p[n] = np.sqrt(2.0 / n) * u * p[n - 1] - np.sqrt((n - 1) / n) * p[n - 2]
    return p


def _pair_products(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Rows p[lo[k]] * p[hi[k]], shape (lo.size,) + p.shape[1:]."""
    out = np.empty((lo.size,) + p.shape[1:])
    for k in range(lo.size):
        np.multiply(p[lo[k]], p[hi[k]], out=out[k])
    return out


def _quantise_position_field(params: NonSepParams, field, nmax: int, degree: int,
                             chunk: int = 20000):
    """Quantised position field f(q1, q2) as a multiplication operator.

    A field without momentum dependence quantises to multiplication by its
    Gaussian smoothing g = E[f(x + y)], y ~ N(0, (2 M)^-1), the Weyl form
    A_f = Op_W(f * W0) of integral quantisation (Bergeron & Gazeau 2014).
    With x_j = lam_j u_j the Fock states are Hermite functions of u, so

        <n m|A_f|n' m'> = pi E[f(q) p_n p_n'(u1) p_m p_m'(u2)],

    u ~ N(0, I / 2), q = Lambda u + y.  The expectation is taken as an outer
    integral over q ~ N(0, S) (``_position_rule``, whitened by S) of the
    inner one over u | q, normal with covariance C fixed and mean B q linear
    in q.  The inner polynomial has degree 2 nmax per mode axis, i.e. total
    degree 4 nmax on the principal axes of C, so the inner tensor rule has
    order 2 nmax + 1 per axis and is exact; its conditional expectation is a
    polynomial of degree <= 4 nmax in q, and the outer rule is refined from
    k0 = ceil((4 nmax + degree + 1) / 2) as ``numerics._refine`` describes.  f is
    evaluated on the outer nodes only.  ``nodes`` counts joint (outer x inner)
    nodes, which are processed in blocks no larger in bytes than the 4D
    engine's ``chunk`` complex rows.

    Returns the matrix, the outer nodes of the finest order, shape (N, 2),
    and the QuadratureReport, as ``_quantise_field`` does.
    """
    s = _position_covariance(params)
    half_lam = np.diag([params.lam1, params.lam2]) / 2.0
    gain = half_lam @ np.linalg.inv(s)
    cond = np.eye(2) / 2.0 - gain @ half_lam
    ci = np.linalg.inv(cond)
    offsets, weights = whitened_rule(ci / 2.0, 2 * nmax + 1)
    # the density N(v; 0, C) times pi, the mass of the Hermite weight e^{-|u|^2}
    inner = weights * np.exp(-0.5 * np.einsum("ni,ij,nj->n", offsets, ci, offsets))
    inner /= 2.0 * np.sqrt(np.linalg.det(cond))
    # the entry (n m, n' m') is the product of the mode factors p_n p_n'(u1)
    # and p_m p_m'(u2), each symmetric in its pair: sums run over the pairs
    # n <= n' of both modes and are spread over the entries at the end
    n1 = nmax + 1
    lo, hi = np.triu_indices(n1)
    pair = np.zeros((n1, n1), dtype=int)
    pair[lo, hi] = pair[hi, lo] = np.arange(lo.size)
    spread = (pair[:, None, :, None], pair[None, :, None, :])
    # whole outer nodes per block, each block no larger in bytes than the 4D
    # engine's chunk of complex coefficients
    block = max(1, 2 * chunk * n1**2 // (lo.size * inner.size))

    def evaluate(order):
        pts, wq = _position_rule(params, order)
        fv = np.asarray(field(pts[:, 0], pts[:, 1]), dtype=float)
        if not np.all(np.isfinite(fv)):
            raise GrowthViolation("field evaluates non-finite on the quadrature nodes")
        fv = np.broadcast_to(fv, wq.shape)
        acc = np.zeros((lo.size, lo.size))
        ident = np.zeros((lo.size, lo.size))
        for b in range(0, pts.shape[0], block):
            mean = pts[b : b + block] @ gain.T
            a1 = _pair_products(_hermite_factors((mean[:, :1] + offsets[:, 0]).ravel(), nmax), lo, hi)
            a2 = _pair_products(_hermite_factors((mean[:, 1:] + offsets[:, 1]).ravel(), nmax), lo, hi)
            a1 *= np.outer(wq[b : b + block], inner).ravel()
            ident += a1 @ a2.T
            a1 *= np.repeat(fv[b : b + block], inner.size)
            acc += a1 @ a2.T
        dim = n1 * n1
        return acc[spread].reshape(dim, dim), ident[spread].reshape(dim, dim), pts

    return _refine(2, nmax, degree, _position_cost(nmax), evaluate)


def _position_cost(nmax: int):
    """Joint nodes of the position route at an outer order: order^2 outer
    nodes, each carrying the (2 nmax + 1)^2 inner rule."""
    return lambda order: order**2 * (2 * nmax + 1) ** 2


def _probe_nodes(params: NonSepParams, nmax: int, degree: int) -> np.ndarray:
    """Nodes (N, 4) of the 4D engine's second rule, ordered (q1, q2, p1, p2).

    A field is sent down the position route only if it does not move with
    momentum on these nodes.  The 4D engine always evaluates its second
    order, k0 + 4, to take its first convergence witness, and those nodes
    reach further in momentum than the first order's (at nmax 0 that can be
    a single node at the origin).  The position route never needs more
    nodes than the 4D engine (its outer order is at least the inner order
    2 nmax + 1), so a basis beyond its budget fits neither route and is
    refused before any node is built.
    """
    order = _refuse_beyond_budget(2, nmax, degree, _position_cost(nmax)) + _ORDER_STEP
    return whitened_rule(_vacuum_precision(params), order)[0]


def _two_mode_positions(params: NonSepParams, nmax: int):
    """x1, x2 on the two-mode Fock basis |n1, n2>, n_j <= nmax, and the index
    of the interior block n1, n2 <= nmax - 2, where truncation does not reach
    the quantised quadratic fields."""
    n1 = nmax + 1
    eye = np.eye(n1)
    x1 = np.kron(TruncatedOperator.position(n1, params.lam1).entries.real, eye)
    x2 = np.kron(eye, TruncatedOperator.position(n1, params.lam2).entries.real)
    keep = np.arange(n1) <= nmax - 2
    inner = np.outer(keep, keep).ravel()
    return x1, x2, np.ix_(inner, inner)


def table1_coefficient_rows(params: NonSepParams) -> dict:
    """Adopted and rival closed-form rows for the quantised position fields.

    Keys "q1", "q2" map to coefficient pairs over (x1_hat, x2_hat); "q1q2"
    maps to the additive constants accompanying x1_hat x2_hat.  The adopted
    values are the ones the Fock-basis quadrature oracle confirms (linear
    fields quantise to the bare position operators; the product field gains
    half the off-diagonal kernel covariance).  The rival rows mix the modes
    through Re ell and are kept only so that verification reports can show
    how far they deviate.
    """
    d1, d2, ell = _quad_coefficients(params.tau1, params.tau2, params.phi)
    delta = 16.0 * d1.real * d2.real - 4.0 * ell.real**2
    l1, l2 = params.lam1, params.lam2
    mi = np.linalg.inv(_portrait_precision(params))
    return {
        "q1": {
            "adopted": (1.0, 0.0),
            "rival": (
                1.0 + 8.0 * ell.real**2 / delta,
                16.0 * (l1 / l2) * ell.real * d2.real / delta,
            ),
        },
        "q2": {
            "adopted": (0.0, 1.0),
            "rival": (
                16.0 * (l2 / l1) * ell.real * d1.real / delta,
                1.0 + 8.0 * ell.real**2 / delta,
            ),
        },
        "q1q2": {
            "adopted": mi[0, 1] / 2.0,
            "rival": (8.0 * l1 * l2 * ell.real / delta**2)
            * (3.0 + 16.0 * ell.real**2 / delta),
        },
    }


@dataclass(frozen=True)
class FieldOperator(TruncatedOperator):
    """Quantised field in the truncated two-mode basis with its quadrature report."""

    report: QuadratureReport


def table1_operators(params: NonSepParams, nmax: int) -> dict:
    """Quantised q1, q2 and q1 q2 in the truncated two-mode basis.

    One 4D quadrature of the stacked fields at degree 2, exact for all three
    and for the identity, whose deviation is the shared report's
    ``identity_deviation``.  Each operator is asserted against its adopted
    closed form (bare positions, position product plus a constant) on the
    interior block to 1e-10; the quadrature values are returned as the
    ground truth, keyed "q1", "q2", "q1q2", each with the one report.
    """
    if nmax < 2:
        raise TruncationTooSmall("need nmax >= 2 for an interior block")
    mats, _, report = _quantise_field(
        params, lambda q1, q2, p1, p2: np.stack([q1, q2, q1 * q2]), nmax, 2
    )
    x1, x2, sel = _two_mode_positions(params, nmax)
    dim = len(x1)
    constant = table1_coefficient_rows(params)["q1q2"]["adopted"]
    closed = {"q1": x1, "q2": x2, "q1q2": x1 @ x2 + constant * np.eye(dim)}
    ops = {}
    for (f, want), mat in zip(closed.items(), mats):
        dev = float(np.max(np.abs(mat[sel] - want[sel])))
        if dev > _TABLE1_TOL:
            raise QuadratureNotConverged(
                f"quantised {f} deviates from the closed form by {dev:.2e} "
                f"(tol {_TABLE1_TOL:.1e})"
            )
        ops[f] = FieldOperator(dim, mat, report)
    return ops


# ---------------------------------------------------------------------------
# overlap


def nonsep_overlap_sq(
    point_a: PhasePoint, point_b: PhasePoint, params: NonSepParams
) -> float:
    """Squared overlap of the states at two phase points, exactly.

    Direct Gaussian integration of the two wavefunctions; this closed-form
    integral is the primary route, with the displacement-difference
    expression :func:`nonsep_overlap_closed` for comparison.
    """
    qa, va, na, pha = _wavefunction_parts(params, point_a)
    qb, vb, nb, phb = _wavefunction_parts(params, point_b)
    amat = (np.conj(qa) + qb) / 2.0
    bvec = np.conj(va) + vb
    ov = np.conj(na * pha) * nb * phb * integrate_gaussian_quadratic(amat, bvec)
    return float(abs(ov) ** 2)


def nonsep_overlap_closed(
    point_a: PhasePoint, point_b: PhasePoint, params: NonSepParams
) -> float:
    """Squared overlap from the displacement-difference quadratic form."""
    k = _k_matrix(params.tau1, params.tau2, params.phi)
    l1, l2, hbar = params.lam1, params.lam2, params.hbar
    r = np.array(
        [
            (point_b.q1 - point_a.q1) / l1,
            l1 * (point_b.p1 - point_a.p1) / hbar,
            (point_b.q2 - point_a.q2) / l2,
            l2 * (point_b.p2 - point_a.p2) / hbar,
        ]
    )
    return float(np.exp(r @ k @ r))


# ---------------------------------------------------------------------------
# coupled position portrait


def _portrait_precision(params: NonSepParams) -> np.ndarray:
    """Precision matrix of the position portrait kernel, in (q1, q2)."""
    d1, d2, ell = _quad_coefficients(params.tau1, params.tau2, params.phi)
    l1, l2 = params.lam1, params.lam2
    return np.array([[2.0 * d1.real / l1**2, ell.real / (l1 * l2)],
                     [ell.real / (l1 * l2), 2.0 * d2.real / l2**2]])


def nonsep_portrait_hq(h, point: PhasePoint, params: NonSepParams) -> float:
    """Lower symbol of the quantised position field h(q1, q2).

    Bivariate Gaussian smoothing of h centred at (q1, q2) whose precision
    matrix is the real part of the wavefunction quadratic form; the mixing
    angle makes the kernel anisotropic whenever Re ell is nonzero.  Fields
    with declared support integrate on a clipped product rule, everything
    else on Gauss-Hermite nodes along the kernel's principal axes (see
    ``numerics.gaussian_smooth``).
    """
    field = as_field(h)
    return float(
        gaussian_smooth(
            field, [point.q1, point.q2], _portrait_precision(params), field.support, _pad(field)
        )
    )


def nonsep_box_portrait(box, centres, params: NonSepParams) -> np.ndarray:
    """Lower symbol of the indicator of ``box`` = ((a1, b1), (a2, b2)) at many centres.

    The same coupled-kernel smoothing as ``nonsep_portrait_hq`` of a
    rectangle indicator, vectorised over ``centres`` (shape (..., 2); the
    result has shape (...)).  With U ~ N(c, M^-1), the kernel's law, the
    value is P(U in box) = int N(x1; c1, S11) P(a2 <= U2 <= b2 | U1 = x1) dx1,
    where U2 | U1 = x1 is normal with mean c2 - (M12 / M22)(x1 - c1) and
    variance 1 / M22, so the inner integral is a difference of normal
    distribution functions (Genz 2004).  The outer integral runs over
    [c1 - 8.5 sqrt(S11), c1 + 8.5 sqrt(S11)] clipped to [a1, b1], on one
    two-panel Gauss-Legendre rule mapped to each centre's window.  Centres
    are processed in blocks so memory stays bounded on large grids.
    """
    (a1, b1), (a2, b2) = box
    m = _portrait_precision(params)
    var1 = m[1, 1] / np.linalg.det(m)
    half_window = _NSIGMA * np.sqrt(var1)
    slope = -m[0, 1] / m[1, 1]
    cond_sd = 1.0 / np.sqrt(m[1, 1])
    ref = legendre_box_rule(-1.0, 1.0, _SMOOTH_ORDER, 2)
    centres = np.asarray(centres, dtype=float)
    flat = centres.reshape(-1, 2)
    out = np.empty(flat.shape[0])
    for s in range(0, flat.shape[0], _BOX_BLOCK):
        c1 = flat[s : s + _BOX_BLOCK, 0:1]
        c2 = flat[s : s + _BOX_BLOCK, 1:2]
        lo = np.maximum(a1, c1 - half_window)
        hi = np.minimum(b1, c1 + half_window)
        # an empty window (the kernel misses the box) contributes exactly 0
        half = np.maximum(hi - lo, 0.0) / 2.0
        dx = (lo + hi) / 2.0 + half * ref.nodes - c1
        # a centre or a wall near the float range overflows slope dx, dx^2 or
        # the standardised bounds to +-inf, where ndtr and exp give the right
        # 0 or 1; za + zb is then inf - inf only when both bounds are
        # infinite, and either reflection gives 1
        with np.errstate(over="ignore", invalid="ignore"):
            mu = c2 + slope * dx
            za, zb = (a2 - mu) / cond_sd, (b2 - mu) / cond_sd
            # reflect so both arguments sit where ndtr has full relative
            # precision: P(za <= Z <= zb) = P(-zb <= Z <= -za)
            flip = np.where(za + zb > 0.0, -1.0, 1.0)
            inner = flip * (ndtr(flip * zb) - ndtr(flip * za))
            dens = np.exp(-0.5 * dx * dx / var1)
        out[s : s + _BOX_BLOCK] = (half * (ref.weights * dens * inner)).sum(axis=1)
    out /= np.sqrt(2.0 * np.pi * var1)
    return out.reshape(centres.shape[:-1])


# ---------------------------------------------------------------------------
# mode-mixing (Bogoliubov) residual


def _squeeze_columns(tau: complex, ncols: int, ambient: int) -> np.ndarray:
    """Squeeze-operator columns <m|S|n>, n < ncols, m < ambient.

    Column n follows from column n-1 by one ladder application.  That
    application lowers as well as raises, so the box edge cuts it: column n
    is exact on the rows m < ambient - n only.  The forward recurrence
    amplifies rounding by roughly (|c|+|s|) sqrt(m/n) per column, so it runs
    in extended precision and is cast down once at the end.
    """
    cols = np.zeros((ambient, ncols), np.clongdouble)
    v = np.zeros(ambient, np.clongdouble)
    v[0] = (1.0 - abs(tau) ** 2) ** 0.25
    tl = np.clongdouble(tau)
    k = 0
    while 2 * k + 2 < ambient:
        v[2 * k + 2] = -tl * np.sqrt(np.longdouble(2 * k + 1) / (2 * k + 2)) * v[2 * k]
        k += 1
    cols[:, 0] = v
    c = 1.0 / np.sqrt(1.0 - np.abs(tl) ** 2)
    sbar = np.conj(tl) * c
    rt = np.sqrt(np.arange(1, ambient, dtype=np.longdouble))
    for n in range(1, ncols):
        prev = cols[:, n - 1]
        nxt = np.zeros(ambient, np.clongdouble)
        nxt[1:] += c * rt * prev[:-1]
        nxt[:-1] += sbar * rt * prev[1:]
        cols[:, n] = nxt / np.sqrt(np.longdouble(n))
    return cols.astype(complex)


def _displacement_columns(alpha: complex, ncols: int, ambient: int) -> np.ndarray:
    """Exact displacement-operator columns <m|D|n>, n < ncols, m < ambient."""
    cols = np.zeros((ambient, ncols), np.clongdouble)
    v = np.zeros(ambient, np.clongdouble)
    al = np.clongdouble(alpha)
    v[0] = np.exp(-0.5 * np.abs(al) ** 2)
    for m in range(1, ambient):
        v[m] = al / np.sqrt(np.longdouble(m)) * v[m - 1]
    cols[:, 0] = v
    ac = np.conj(al)
    rt = np.sqrt(np.arange(1, ambient, dtype=np.longdouble))
    for n in range(1, ncols):
        prev = cols[:, n - 1]
        nxt = -ac * prev
        nxt[1:] += rt * prev[:-1]
        cols[:, n] = nxt / np.sqrt(np.longdouble(n))
    return cols.astype(complex)


def _beam_split(phi: float, cols: np.ndarray) -> np.ndarray:
    """Beam splitter exp(phi (a1^dag a2 - a1 a2^dag)) on box columns, as complex.

    ``cols[n1, n2, k]`` holds column k on the ambient box n1, n2 < ambient.
    On the rows |n1, N - n1> of a photon-number sector the generator is
    -i phi D J D*: D = diag(i^n1), and J = V diag(lam) V^T, twice J_x of spin
    N/2, has off-diagonals sqrt((n1 + 1)(N - n1)) (Feng, Wang, Yang & Jin,
    Phys. Rev. E 92:043307, 2015).  So the block is D V exp(-i phi lam) V^T D*
    with lam = -N, 2 - N, ..., N exactly in a full sector (N < ambient); one
    the box cuts keeps the exponential of its truncated block, eigh's spectrum.
    """
    ambient = cols.shape[0]
    out = np.empty(cols.shape, complex)
    for tot in range(2 * ambient - 1):
        n1s = np.arange(max(0, tot - ambient + 1), min(tot, ambient - 1) + 1)
        amp = np.sqrt((n1s[:-1] + 1.0) * (tot - n1s[:-1]))
        lam, vec = np.linalg.eigh(np.diag(amp, -1) + np.diag(amp, 1))
        if tot < ambient:
            lam = np.arange(-tot, tot + 1.0, 2.0)
        d = 1j ** (n1s % 4)  # exact, where 1j ** n1 drifts off the axes
        # long double: phi * lam is exact for integer lam (float64: 6e-14 off at 730 rad)
        phase = np.exp(-1j * np.longdouble(phi) * lam).astype(complex)
        # V is real: multiply real and imaginary parts as one real matrix
        x = (d.conj()[:, None] * cols[n1s, tot - n1s]).view(float)
        rot = phase[:, None] * (vec.T @ x).view(complex)
        out[n1s, tot - n1s] = d[:, None] * (vec @ rot.view(float)).view(complex)
    return out


def bogoliubov_check(params: NonSepParams, nmax: int, dim: int = 40) -> float:
    """Residual of the mixed-ladder relations at truncation ``dim`` per mode.

    Builds the projection of the full unitary onto the dim^2 box as one array
    g[r1, r2, n1, n2] of rows r1, r2 < dim and columns n1, n2 <= nmax + 1,
    in an ambient box of dim + 60 per mode: per-mode ladder recurrences for
    the squeeze and displacement factors, and between them the beam splitter
    per photon-number sector (``_beam_split``).  Only the columns with
    n1 + n2 <= nmax + 1 are built; the rest of the grid stays zero.  Then it
    measures how far a_j G differs from G applied to the closed-form ladder
    mixture F_j, over the columns with n1 + n2 <= nmax, whose images under
    F_j are all built, and the rows r1, r2 < dim - 2, which the truncated
    lowering leaves exact.

    For dim <= 61 the rows of G (N <= 2 dim - 2) lie below the sectors the
    ambient box cuts (N >= dim + 60), but the displacement, applied after the
    beam splitter, carries those sectors into them: |<39|D(0.7 e^{0.4i})|b>|
    reaches 2.2e-6 for b >= 60.  So the cut sectors keep the exponential of
    their truncated block; zeroing them instead moves G by up to 2.3e-7 (at
    rows (39, 39)) and the residual at tanh(0.7) squeezing, nmax 12, dim 40,
    from 2.6e-10 to 1.3e-7.

    Left-multiplied form throughout: sandwiching with the truncated adjoint
    would add squeezed-tail mass lost beyond the box (> 1e-6 even at the
    vacuum column for moderate squeezing) and test the truncation rather
    than the algebra.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if 2 * nmax > dim:
        raise TruncationTooSmall(
            f"interior block nmax = {nmax} needs dim >= {2 * nmax}, got {dim}"
        )
    tau1, tau2, phi = params.tau1, params.tau2, params.phi
    # displacement amplitudes: one coherent label per mode, fixed here to the
    # unit phase-space cell; the relation is displacement covariant, so one
    # nonzero choice exercises the constant term
    a1, a2 = 0.7 * np.exp(0.4j), 0.7 * np.exp(-1.8j)
    ambient = dim + 60
    n = np.arange(nmax + 2)
    photons = n[:, None] + n[None, :]
    built = photons <= nmax + 1
    n1s, n2s = np.nonzero(built)
    sq1 = _squeeze_columns(tau1, nmax + 2, ambient)
    sq2 = _squeeze_columns(tau2, nmax + 2, ambient)
    cols = _beam_split(phi, sq1[:, None, n1s] * sq2[None, :, n2s])
    d1 = _displacement_columns(a1, ambient, ambient)[:dim]
    d2 = _displacement_columns(a2, ambient, ambient)[:dim]
    g = np.zeros((dim, dim, nmax + 2, nmax + 2), dtype=complex)
    g[:, :, built] = np.einsum("ab,bck,dc->adk", d1, cols, d2, optimize=True)

    c1 = 1.0 / np.sqrt(1.0 - abs(tau1) ** 2)
    c2 = 1.0 / np.sqrt(1.0 - abs(tau2) ** 2)
    s1, s2 = tau1 * c1, tau2 * c2
    cphi, sphi = np.cos(phi), np.sin(phi)
    rt = np.sqrt(n[1:])
    rows = np.sqrt(np.arange(1.0, dim - 1))[:, None, None]
    checked = photons <= nmax
    res = 0.0
    # a_j G lowers row axis j; column (n1, n2) of G F_j is the shift plus the
    # ladder weights on the neighbours (n1 -+ 1, n2) and (n1, n2 -+ 1)
    for shift, w, lowered in (
        (a1, (cphi * c1, -cphi * s1, sphi * c2, -sphi * s2),
         rows[:, None] * g[1 : dim - 1, : dim - 2]),
        (a2, (-sphi * c1, sphi * s1, cphi * c2, -cphi * s2),
         rows * g[: dim - 2, 1 : dim - 1]),
    ):
        gf = shift * g
        gf[..., 1:, :] += w[0] * rt[:, None] * g[..., :-1, :]
        gf[..., :-1, :] += w[1] * rt[:, None] * g[..., 1:, :]
        gf[..., 1:] += w[2] * rt * g[..., :-1]
        gf[..., :-1] += w[3] * rt * g[..., 1:]
        r = lowered - gf[: dim - 2, : dim - 2]
        res = max(res, float(np.max(np.abs(r[..., checked]))))
    return res
