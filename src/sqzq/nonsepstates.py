"""Non-separable two-mode squeezed states and their coupled portraits.

A beam splitter inserted between two one-mode squeezers couples the modes:
the position wavefunction is still a bivariate complex Gaussian, but with a
cross term whose coefficient ell vanishes only when the two squeezing labels
coincide or the mixing angle is a multiple of pi/2.  Everything downstream is
Gaussian algebra over the quadratic coefficients (Delta1, Delta2, ell): the
normalisation, the overlap of two such states, the position portrait kernel,
and the quantisation of position fields in a truncated Fock basis.

Fock coefficients of the states follow from a pair of exact ladder
recurrences seeded by the vacuum amplitude (``_fock_batch``: no quadrature,
no matrix exponentials).  The coherent labels, the ladder eigenvalues and
the vacuum amplitude are written once, in ``_ladder_frame``, which the
wavefunction's phase and the coefficients' cross-check read too.

Fields are quantised the way the family is built (``_quantise_rotated``):
the beam splitter only rotates the coherent labels, so in the rotated frame
the family is a product of two one-mode families, and A_phi[f] = U A_0[f o x]
U^H with U the beam splitter on a box of 2 nmax + 1 quanta per mode.  A_0
sum-factorises mode by mode, so each order costs one pair of per-mode
projector tables and two matrix products.  A field that does not move with
momentum, by the one test of that (``_is_position_field``), has each
mode's momentum integrated exactly, and is evaluated on position pairs
alone; a bounded one refines to rounding (1e-13), every other field to
1e-6, and the order one above a polynomial's first exact order confirms it.  The Table 1 fields q1, q2 and
q1 q2 (``table1_operators``) are three runs of this engine; each run's
identity resolution certifies the measure (2 pi hbar)^2.  Only ``sqzq
verify`` holds them against their exact operators on the whole truncated
basis, X1 x 1, 1 x X2 and X1 x X2 plus a constant: its ``table1-closed-form``
check, at the run's tolerance.  Its ``bs-rotation`` check holds the identity
the engine rests on against the ladder recurrences.

The mode-mixing (Bogoliubov) residual check holds the unitary G as one
array g[r1, r2, n1, n2] on a grid of rows and columns.  The displacement
moves through the beam splitter onto the coherent labels it rotates, so G is
U applied last to a product of per-mode columns of D(beta) S, through the
engine's own sector blocks; the sectors it reaches are all full, so its
rotation is exact.  Each mode's columns climb the one-mode family's float64
row recurrence (``onemode._number_columns``), column 0 being the family's
own state, so the check builds its states with the recurrence the engine
runs; long double enters it only through U's phases.  On that grid a_j G is g
shifted along row axis j and G F_j is g shifted along the column axes, so the
residual is read off with slices.  Exponentials of truncated one-mode
generators are avoided because their columns are contaminated at any
truncation reachable in practice.

Coupled portraits of general fields are ``numerics.gaussian_smooth`` under
``_portrait_precision``; rectangle indicators keep the exact conditional-normal
route ``nonsep_box_portrait`` (Genz 2004), vectorised over centres, on the
support branch's window (``numerics._clipped_window``): no rule is sized here.

Sign conventions for the overlap exponent and the mixed-term coefficients
were fixed against exact Gaussian-integral oracles, not taken on faith; see
``table1_coefficient_rows`` and ``nonsep_overlap_closed`` for the rival
closed forms kept around for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    GrowthViolation,
    NonConvergent,
    SqzqError,
    TruncationTooSmall,
)
from .numerics import (
    _CONVERGED,
    _NSIGMA,
    _ORDER_STEP,
    QuadratureReport,
    TruncatedOperator,
    _clipped_window,
    _refine,
    _refuse_beyond_budget,
    gaussian_rule,
    gaussian_smooth,
    integrate_gaussian_quadratic,
    whitened_rule,
)
from .onemode import _coefficients as _mode_coefficients
from .onemode import _number_columns
from .onemode import _vacuum_precision as _mode_precision
from .sepstates import PhasePoint, TwoModeParams, _pad, as_field

__all__ = [
    "NonSepParams",
    "NonSepCoefficients",
    "FieldOperator",
    "nonsep_coefficients",
    "nonsep_wavefunction",
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
# a bounded position field refines until its witness is at rounding
_POSITION_STOP = 1e-13


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


def _ladder_frame(params: NonSepParams, pts: np.ndarray):
    """The family's ladder frame at the phase points ``pts`` (P, 4), ordered
    (q1, q2, p1, p2): the mixing quadruples (A, B) (``_mix_coefficients``),
    the eigenvalues z1, z2 of the two mixed ladder combinations the state
    solves, and its vacuum amplitude <0 0|state>, each (P,).  The coherent
    labels of the displacement factors are alpha_j = q_j / (lam_j sqrt 2) +
    i lam_j p_j / (hbar sqrt 2)."""
    tau1, tau2, phi = params.tau1, params.tau2, params.phi
    l1, l2, hbar = params.lam1, params.lam2, params.hbar
    a, b = _mix_coefficients(tau1, tau2, phi)
    a1 = pts[:, 0] / (l1 * np.sqrt(2.0)) + 1j * l1 * pts[:, 2] / (hbar * np.sqrt(2.0))
    a2 = pts[:, 1] / (l2 * np.sqrt(2.0)) + 1j * l2 * pts[:, 3] / (hbar * np.sqrt(2.0))
    z1 = a[0] * a1 + a[1] * np.conj(a1) + a[2] * a2 + a[3] * np.conj(a2)
    z2 = b[0] * a1 + b[1] * np.conj(a1) + b[2] * a2 + b[3] * np.conj(a2)
    t = _pair_matrix(tau1, tau2, phi)
    ac1, ac2 = np.conj(a1), np.conj(a2)
    vacuum = ((1.0 - abs(tau1) ** 2) * (1.0 - abs(tau2) ** 2)) ** 0.25 * np.exp(
        -0.5 * (np.abs(a1) ** 2 + np.abs(a2) ** 2)
        - 0.5 * (t[0, 0] * ac1**2 + 2.0 * t[0, 1] * ac1 * ac2 + t[1, 1] * ac2**2)
    )
    return a, b, z1, z2, vacuum


def _point_row(point: PhasePoint) -> np.ndarray:
    """The phase point as the one row (1, 4) that ``_ladder_frame`` and
    ``_fock_batch`` take."""
    return np.array([[point.q1, point.q2, point.p1, point.p2]])


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

    v0 = _ladder_frame(params, _point_row(point))[-1][0]
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
    a, b, z1, z2, _ = _ladder_frame(params, _point_row(point))
    mat = np.array([[a[0] - a[1], a[2] - a[3]], [b[0] - b[1], b[2] - b[3]]])
    lv = np.linalg.solve(mat, np.sqrt(2.0) * np.concatenate([z1, z2]))
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
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a, b, z1, z2, vacuum = _ladder_frame(params, pts)
    c = np.zeros((pts.shape[0], nmax + 2, nmax + 2), dtype=complex)
    c[:, 0, 0] = vacuum
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


def _is_position_field(params: NonSepParams, field, nmax: int, degree: int | None) -> bool:
    """Whether the two-mode engine at basis ``nmax`` takes ``field`` for a
    position field, one that does not move with momentum.

    f is evaluated with and without momentum on the product of the per-mode
    phase-plane rules of order k0 + 4 (``_quantise_rotated``), which reach
    further in momentum than k0 or k0 + 1.  A change beyond 1e-12 relative to
    the values, or a value that turns non-finite, means the field depends on
    momentum; points where f is already non-finite at zero momentum are left
    to the callers' finiteness checks.  Nothing is taken from a declaration.
    A basis beyond the node budget is refused first, as ``_quantise_rotated``
    refuses it.
    """
    order = _refuse_beyond_budget(2, nmax, degree, _position_cost(nmax)) + _ORDER_STEP
    to_q, to_p = _frame_maps(params)
    modes = (params.modes.mode1, params.modes.mode2)
    y1, y2 = (whitened_rule(_mode_precision(mode), order)[0] for mode in modes)
    q1, q2, p1, p2 = _joint_points(to_q, to_p, y1, y2)
    zero = np.zeros_like(q1)
    base = np.asarray(field(q1, q2, zero, zero), dtype=float)
    moved = np.asarray(field(q1, q2, p1, p2), dtype=float)
    finite = np.isfinite(base)
    tol = 1e-12 * (np.max(np.abs(base[finite]), initial=0.0) + 1.0)
    return bool(np.all(np.abs(moved - base)[finite] <= tol))


def _frame_maps(params: NonSepParams):
    """The matrices taking the rotated frame's q' to q and p' to p
    (``_rotated_frame``)."""
    lam = np.array([params.lam1, params.lam2])
    c, s = np.cos(params.phi), np.sin(params.phi)
    back = np.array([[c, s], [-s, c]])
    return lam[:, None] * back / lam, back * lam / lam[:, None]


def _rotated_frame(params: NonSepParams, nmax: int):
    """The frame in which the family is a separable product.

    A beam splitter rotates the mode operators (Campos, Saleh & Teich,
    Phys. Rev. A 40:1371, 1989), so the state at x = (q1, q2, p1, p2) is, up
    to a phase, U applied to the product of the phi = 0 states at x', whose
    coherent labels are beta = R(phi) alpha: beta1 = cos phi alpha1 - sin phi
    alpha2, beta2 = sin phi alpha1 + cos phi alpha2.  With alpha_j = q_j /
    (lam_j sqrt 2) + i lam_j p_j / (hbar sqrt 2) that is q = Lam R^T Lam^-1 q'
    and p = Lam^-1 R^T Lam p', a map of unit Jacobian that takes positions to
    positions.  U is the beam splitter on the box n_j <= 2 nmax, whose
    sectors N <= 2 nmax are all full; only its rows on the basis n_j <= nmax
    are needed, and each reaches its own sector alone.  ``bogoliubov_check``
    applies U through the same blocks.

    U = exp(phi (a1^dag a2 - a1 a2^dag)) conserves N = n1 + n2.  On the
    sector's states |k1, N - k1> its generator is -i phi D J D*: D =
    diag(i^k1), and J = V diag(lam) V^T, twice J_x of spin N/2, has
    off-diagonals sqrt((k1 + 1)(N - k1)) and the exact spectrum lam = -N,
    2 - N, ..., N (Feng, Wang, Yang & Jin, Phys. Rev. E 92:043307, 2015).  So
    the block is D V exp(-i phi lam) V^T D*, with eigh's V and the exact lam.

    Returns the matrices taking q' to q and p' to p, and per sector N <=
    2 nmax the basis indices of its rows, the box indices of its columns
    and the block of U they span.
    """
    box = 2 * nmax + 1
    sectors = []
    for tot in range(box):
        k1 = np.arange(tot + 1)
        n1 = k1[max(0, tot - nmax) : min(tot, nmax) + 1]
        rows, cols = n1 * (nmax + 1) + tot - n1, k1 * box + tot - k1
        amp = np.sqrt((k1[:-1] + 1.0) * (tot - k1[:-1]))
        vec = np.linalg.eigh(np.diag(amp, -1) + np.diag(amp, 1))[1]
        # long double: phi * lam is exact for integer lam (float64: 6e-14 off at 730 rad)
        lam = np.arange(-tot, tot + 1.0, 2.0)
        phase = np.exp(-1j * np.longdouble(params.phi) * lam).astype(complex)
        d = 1j ** (k1 % 4)  # exact, where 1j ** k1 drifts off the axes
        # the block's rows n1 alone; V is real, so each part of the phase
        # takes one real product
        left = vec[n1]
        block = (left * phase.real) @ vec.T + 1j * ((left * phase.imag) @ vec.T)
        sectors.append((rows, cols, d[n1, None] * block * d.conj()))
    return (*_frame_maps(params), sectors)


def _rotate(sectors, a: np.ndarray) -> np.ndarray:
    """U a on the basis, for a stack a (..., box^2, n) whose rows are box
    states, a block of U per sector (``_rotated_frame``)."""
    dim = sum(rows.size for rows, _, _ in sectors)
    out = np.empty(a.shape[:-2] + (dim, a.shape[-1]), complex)
    for rows, cols, block in sectors:
        out[..., rows, :] = block @ a[..., cols, :]
    return out


def _joint(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """m (2, 2) applied to every pair of the per-mode values a and b, a
    slowest: shape (2, a.size b.size)."""
    return (m[:, 0, None, None] * a[:, None] + m[:, 1, None, None] * b).reshape(2, -1)


def _joint_points(to_q, to_p, y1, y2):
    """Coordinates q1, q2, p1, p2 of the K1 K2 4D points, mode 1 slowest, of
    per-mode points y_j (K_j, 2) of the rotated frame."""
    return [*_joint(to_q, y1[:, 0], y2[:, 0]), *_joint(to_p, y1[:, 1], y2[:, 1])]


def _mode_tables(mode, pts: np.ndarray, weights: np.ndarray, box: int, group: int) -> np.ndarray:
    """Weighted projectors T(k) = sum_i w_ki c c^H / (2 pi hbar), shape (K, box, box),
    of one mode's phi = 0 states at the phase points ``pts`` (K group, 2), summed
    over each run of ``group`` points; c are the one-mode family's coefficients."""
    c = _mode_coefficients(mode, pts, box - 1).reshape(-1, group, box)
    cw = c * (weights / (2.0 * np.pi * mode.hbar)).reshape(-1, group, 1)
    return cw.transpose(0, 2, 1) @ c.conj()


def _quantise_rotated(params: NonSepParams, field, nmax: int, degree: int | None):
    """Quantised f(q1, q2, p1, p2), through the rotation of a separable product.

    The family is built as a beam splitter between two one-mode squeezers, so
    A_phi[f] = U A_0[f o x] U^H (``_rotated_frame``): the phase of each
    state cancels in its projector, and x' -> x has unit Jacobian.  A_0 is
    the phi = 0 operator on the (2 nmax + 1)^2 box, and it sum-factorises
    mode by mode (Orszag, J. Comput. Phys. 37:70, 1980):

        A_0 = sum_a T_1(a) kron [sum_b f(x(a, b)) T_2(b)],

    T_j the weighted projectors of mode j's one-mode family on its rule
    (``_mode_tables``).  The box coefficients have degree <= 2 nmax in the
    mode's own coordinates, so per-mode rules of order k0 = ceil((4 nmax +
    degree + 1) / 2) per axis are exact for a field of polynomial degree
    ``degree``, and the orders are refined as ``numerics._refine`` describes.

    ``_is_position_field`` decides the route, on the product of the per-mode
    phase-plane rules of order k0 + 4.  A position field has each mode's
    momentum integrated exactly into T_j, on ``gaussian_rule`` of orders (K,
    2 nmax + 1): the mode's q-marginal times a fixed rule in p | q, so f is
    evaluated on K^2 position pairs, and a bounded one refines to 1e-13.  Any
    other field is evaluated on the K^4 points of the per-mode phase-plane
    rules (``whitened_rule``), and stops at 1e-6.  ``nodes`` counts
    these field values, and the node budget caps them.  A basis is refused
    before any node is built when a position field's orders k0 and k0 + 4
    alone would pass the budget in 4D points (``_position_cost``).

    Returns the (nmax + 1)^2-dimensional matrix of the quantised field in the
    two-mode Fock basis at the finest order evaluated (measure
    d2q d2p / (2 pi hbar)^2), the nodes of that order mapped back to x,
    shape (N, 2) ordered (q1, q2) for a position field and (N, 4) ordered
    (q1, q2, p1, p2) otherwise, and a QuadratureReport whose identity
    deviation comes from the identity resolution on the same rules.
    """
    modes = (params.modes.mode1, params.modes.mode2)
    precs = [_mode_precision(mode) for mode in modes]
    to_q, to_p, sectors = _rotated_frame(params, nmax)
    box = 2 * nmax + 1

    def product(t1, t2, fv):
        """U A_0 U^H and the identity, from f's values fv at the K1 K2 joint points."""
        fv = np.asarray(fv, dtype=float)
        if not np.all(np.isfinite(fv)):
            raise GrowthViolation("field evaluates non-finite on the quadrature nodes")
        fv = np.broadcast_to(fv, (len(t1) * len(t2),)).reshape(len(t1), len(t2))
        # f is real: one real product on the real and imaginary parts of T_2
        inner = (fv @ t2.reshape(len(t2), -1).view(float)).view(complex)
        # A_0 and the identity (sum T_1) kron (sum T_2), entries (i1, i2, j1, j2)
        both = np.empty((2, box, box, box, box), complex)
        both[0] = (t1.reshape(len(t1), -1).T @ inner).reshape(box, box, box, box).transpose(0, 2, 1, 3)
        np.multiply(t1.sum(axis=0)[:, None, :, None], t2.sum(axis=0)[None, :, None, :], out=both[1])
        # U a U^H = (U (U a)^H)^H
        half = _rotate(sectors, both.reshape(2, box * box, box * box)).conj().swapaxes(-1, -2)
        return _rotate(sectors, half).conj().swapaxes(-1, -2)

    if not _is_position_field(params, field, nmax, degree):

        def evaluate(order):
            rules = [whitened_rule(prec, order) for prec in precs]
            t1, t2 = (_mode_tables(mode, *rule, box, 1) for mode, rule in zip(modes, rules))
            x = _joint_points(to_q, to_p, rules[0][0], rules[1][0])
            return (*product(t1, t2, field(*x)), np.stack(x, axis=1))

        return _refine(2, nmax, degree, lambda order: order**4, evaluate)

    def evaluate(order):
        # inner order 2 nmax + 1: exact for the box coefficients' degree in p
        rules = [gaussian_rule(prec, (order, box)) for prec in precs]
        tables = [_mode_tables(mode, *rule, box, box) for mode, rule in zip(modes, rules)]
        q = _joint(to_q, *(pts[::box, 0] for pts, _ in rules))
        zero = np.zeros(q.shape[1])
        return (*product(*tables, field(*q, zero, zero)), q.T)

    stop = _POSITION_STOP if degree is None else _CONVERGED
    return _refine(2, nmax, degree, lambda order: order**2, evaluate, stop)


def _position_cost(nmax: int):
    """The 4D points of a position field's product rule at an order, which
    bound the basis: order^2 outer pairs, each carrying the (2 nmax + 1)^2
    inner momenta."""
    return lambda order: order**2 * (2 * nmax + 1) ** 2


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


def _table1_closed_forms(params: NonSepParams, nmax: int) -> dict:
    """The exact operators of q1, q2 and q1 q2 on the whole basis n_j <= nmax.

    A position field quantises to multiplication by its Gaussian smoothing:
    q1 and q2 to X1 x 1 and 1 x X2, and q1 q2 to X1 x X2 plus the adopted
    constant of ``table1_coefficient_rows`` times the identity.  The matrix
    on the basis truncates that operator, and truncating a tensor product of
    one-mode operators truncates each factor, so every entry is exact.
    """
    x1, x2, _ = _two_mode_positions(params, nmax)
    constant = table1_coefficient_rows(params)["q1q2"]["adopted"]
    return {"q1": x1, "q2": x2, "q1q2": x1 @ x2 + constant * np.eye(len(x1))}


# the Table 1 fields, which ``sqzq quantise`` offers too
_TABLE1_FIELDS = {
    "q1": lambda q1, q2, p1, p2: q1,
    "q2": lambda q1, q2, p1, p2: q2,
    "q1q2": lambda q1, q2, p1, p2: q1 * q2,
}


def table1_operators(params: NonSepParams, nmax: int) -> dict:
    """Quantised q1, q2 and q1 q2 in the truncated two-mode basis.

    One run of the two-mode engine (``_quantise_rotated``) per field, at
    degree 2, exact for all three and for the identity, whose deviation is
    each run's report's ``identity_deviation``.  The operators are keyed
    "q1", "q2", "q1q2", each a FieldOperator with its own run's report; the
    ``table1-closed-form`` check of ``sqzq verify`` holds them against their
    closed forms (``_table1_closed_forms``) on the whole matrix, at the run's
    tolerance.
    """
    if nmax < 2:
        raise TruncationTooSmall("need nmax >= 2 for an interior block")
    ops = {}
    for f, field in _TABLE1_FIELDS.items():
        mat, _, report = _quantise_rotated(params, field, nmax, 2)
        ops[f] = FieldOperator(len(mat), mat, report)
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
    [c1 - 8.5 sqrt(S11), c1 + 8.5 sqrt(S11)] clipped to [a1, b1], on the
    support branch's window of ``gaussian_smooth`` (3 x 60 Legendre nodes),
    and an empty window gives exactly 0.  Centres are processed in blocks so
    memory stays bounded on large grids.
    """
    from scipy.special import ndtr  # at first use, as pdm imports erfc: quantise never needs it

    (a1, b1), (a2, b2) = box
    m = _portrait_precision(params)
    var1 = m[1, 1] / np.linalg.det(m)
    half_window = _NSIGMA * np.sqrt(var1)
    slope = -m[0, 1] / m[1, 1]
    cond_sd = 1.0 / np.sqrt(m[1, 1])
    centres = np.asarray(centres, dtype=float)
    flat = centres.reshape(-1, 2)
    out = np.empty(flat.shape[0])
    for s in range(0, flat.shape[0], _BOX_BLOCK):
        c1 = flat[s : s + _BOX_BLOCK, 0:1]
        c2 = flat[s : s + _BOX_BLOCK, 1:2]
        x1, w1, _ = _clipped_window(c1[:, 0], half_window, a1, b1)
        dx = x1 - c1
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
        out[s : s + _BOX_BLOCK] = (w1 * dens * inner).sum(axis=1)
    out /= np.sqrt(2.0 * np.pi * var1)
    return out.reshape(centres.shape[:-1])


# ---------------------------------------------------------------------------
# mode-mixing (Bogoliubov) residual


def bogoliubov_check(params: NonSepParams, nmax: int, dim: int = 40) -> float:
    """Residual of the mixed-ladder relations at truncation ``dim`` per mode.

    Builds the projection of the full unitary G = D(alpha) U (S1 x S2) onto
    the dim^2 box as one array g[r1, r2, n1, n2] of rows r1, r2 < dim and
    columns n1, n2 <= nmax + 1.  The displacement moves in front of the beam
    splitter, D(alpha) U = U D(beta) with beta = R(phi) alpha
    (``_rotated_frame``), so G = U (D(beta1) S1 x D(beta2) S2).  Each mode's
    D(beta_j) S_j on the rows < 2 dim - 1 comes from
    ``onemode._number_columns``, the one-mode family's own float64 row
    recurrence, which no box edge cuts.  U, applied last by the engine's own
    sector blocks (``_rotate``), takes the sectors N <= 2 dim - 2 of their
    product to the rows, every one of them full.  Only the columns with
    n1 + n2 <= nmax + 1 are built; the rest of the grid stays zero.  Then it
    measures how far a_j G differs from G applied to the closed-form ladder
    mixture F_j, over the columns with n1 + n2 <= nmax, whose images under
    F_j are all built, and the rows r1, r2 < dim - 2, which the truncated
    lowering leaves exact: dim must be at least 3.

    Left-multiplied form throughout: sandwiching with the truncated adjoint
    would add squeezed-tail mass lost beyond the box (> 1e-6 even at the
    vacuum column for moderate squeezing) and test the truncation rather
    than the algebra.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if 2 * nmax > dim or dim < 3:
        raise TruncationTooSmall(
            f"interior block nmax = {nmax} needs dim >= {max(2 * nmax, 3)}, got {dim}"
        )
    tau1, tau2, phi = params.tau1, params.tau2, params.phi
    # displacement amplitudes: one coherent label per mode, fixed here to the
    # unit phase-space cell; the relation is displacement covariant, so one
    # nonzero choice exercises the constant term
    a1, a2 = 0.7 * np.exp(0.4j), 0.7 * np.exp(-1.8j)
    cphi, sphi = np.cos(phi), np.sin(phi)
    c1 = 1.0 / np.sqrt(1.0 - abs(tau1) ** 2)
    c2 = 1.0 / np.sqrt(1.0 - abs(tau2) ** 2)
    s1, s2 = tau1 * c1, tau2 * c2
    box = 2 * dim - 1
    n = np.arange(nmax + 2)
    photons = n[:, None] + n[None, :]
    built = photons <= nmax + 1
    n1s, n2s = np.nonzero(built)
    # each mode's D(beta) S is the family's column ladder at the label
    # alpha = c beta + s conj(beta) of its column 0
    f1, f2 = (
        _number_columns(c * beta + s * np.conj(beta), tau, box, nmax + 2)
        for beta, tau, c, s in (
            (cphi * a1 - sphi * a2, tau1, c1, s1),
            (sphi * a1 + cphi * a2, tau2, c2, s2),
        )
    )
    _, _, sectors = _rotated_frame(params, dim - 1)
    cols = _rotate(sectors, (f1[:, None, n1s] * f2[None, :, n2s]).reshape(box * box, -1))
    g = np.zeros((dim, dim, nmax + 2, nmax + 2), dtype=complex)
    g[:, :, built] = cols.reshape(dim, dim, -1)

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
