"""One-mode squeezed coherent states.

A state is labelled by a complex squeezing parameter and a phase-space point.
The internal label is tau = (xi/|xi|) tanh|xi|, which lives strictly inside
the unit disc; all widths, wavefunctions and overlaps are rational or Gaussian
expressions in tau.  The overall phase convention is the one produced by
applying the squeeze operator after the displacement operator to the vacuum,
which the test suite pins against a truncated-operator matrix-exponential
oracle (only momentum-sensitive kernel constructions can tell phase
conventions apart; densities and portraits cannot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSqueezing
from .numerics import _hermgauss, _quantise_on_rule, _refine, hermite_phys, whitened_rule

__all__ = [
    "SqueezeParameter",
    "OneModeWidths",
    "OneModePhasePoint",
    "tau_from_xi",
    "alpha_from_qp",
    "qp_from_alpha",
    "wavefunction",
    "fock_coefficients",
    "overlap_sq",
    "holomorphic_orthogonality_check",
]

# widths diverge as |tau| -> 1; everything stops strictly short of the rim
_TAU_RIM = 1.0 - 1e-7
# the stop of the one-mode refinement loop, relative to max(1, max|A|): the
# two-mode 1e-6 would let the adaptive orders, which differ from field to
# field, break the linearity of the map at 5e-7; one-mode rules cost order^2
# nodes, so they can afford to agree to rounding
_CONVERGED = 1e-12


def tau_from_xi(xi: complex) -> complex:
    """Map the squeeze label xi to the unit-disc parameter tau.

    tau = (xi/|xi|) tanh|xi|, with the removable singularity at xi = 0 filled
    by tau = 0.  |tau| = tanh|xi| < 1 and arg tau = arg xi.
    """
    r = abs(xi)
    if r == 0.0:
        return 0.0 + 0.0j
    return complex(xi) / r * np.tanh(r)


@dataclass(frozen=True)
class OneModeWidths:
    """Width bundle of a one-mode state.

    sigma_q_sq is the complex Gaussian width parameter (1+tau)/(1-tau); its
    real part controls the |psi|^2 falloff.  delta_q_sq/delta_p_sq/gamma are
    the real overlap widths; they satisfy delta_q_sq*delta_p_sq = 1+4 gamma^2,
    which is what makes the overlap integrate to exactly 2 pi hbar.
    """

    sigma_q_sq: complex
    delta_q_sq: float
    delta_p_sq: float
    gamma: float


@dataclass(frozen=True)
class SqueezeParameter:
    """Squeezing label plus the length and action scales.

    ``lam`` is the oscillator length (lambda is reserved in Python).  Use the
    factories: ``from_xi`` derives tau, ``from_tau`` back-fills a consistent
    xi on the same ray.
    """

    xi: complex
    tau: complex
    lam: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        # a scale whose square is 0 or inf leaves no finite width to work with
        for name in ("lam", "hbar"):
            value = getattr(self, name)
            if not (value > 0 and 0.0 < value * value < np.inf):
                raise ValueError(f"{name} must be positive, with a finite nonzero square")
        # the diagonal of the vacuum precision (``_vacuum_precision``) is
        # these scales times 1 -+ Re tau, below 2; the quadrature needs it
        # finite and nonzero
        lam, hbar = self.lam, self.hbar
        scales = (0.5 / (lam * lam), lam * lam / (2.0 * hbar * hbar))
        if not all(0.0 < 2.0 * v < math.inf for v in scales):
            raise ValueError(
                f"lam = {lam:.6g} and hbar = {hbar:.6g} give the phase-space precision "
                f"scales 1/(2 lam^2) = {scales[0]:.6g} and lam^2/(2 hbar^2) = "
                f"{scales[1]:.6g}; both must be finite and nonzero"
            )
        # abs() of a complex raises OverflowError near the float range
        t = math.hypot(self.tau.real, self.tau.imag)
        if not t < 1.0:
            raise ValueError(f"|tau| = {t:.9g} must be below 1")
        if t > _TAU_RIM:
            raise DegenerateSqueezing(f"|tau| = {t:.9f} too close to 1; widths diverge")

    @classmethod
    def from_xi(cls, xi: complex, lam: float = 1.0, hbar: float = 1.0) -> "SqueezeParameter":
        return cls(complex(xi), tau_from_xi(xi), float(lam), float(hbar))

    @classmethod
    def from_tau(cls, tau: complex, lam: float = 1.0, hbar: float = 1.0) -> "SqueezeParameter":
        tau = complex(tau)
        t = math.hypot(tau.real, tau.imag)
        # |tau| >= 1 has no xi; the constructor refuses it
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = 0.0 + 0.0j if t == 0.0 else tau / t * np.arctanh(t)
        return cls(xi, tau, float(lam), float(hbar))

    def widths(self) -> OneModeWidths:
        tau = self.tau
        t2 = abs(tau) ** 2
        one_minus = abs(1.0 - tau) ** 2
        sigma_q_sq = (1.0 + tau) / (1.0 - tau)
        delta_p_sq = one_minus / (1.0 - t2)
        gamma = tau.imag / (1.0 - t2)
        delta_q_sq = ((1.0 - t2) ** 2 + 4.0 * tau.imag**2) / (one_minus * (1.0 - t2))
        return OneModeWidths(sigma_q_sq, delta_q_sq, delta_p_sq, gamma)


@dataclass(frozen=True)
class OneModePhasePoint:
    """Expectation values (q, p) labelling the state."""

    q: float
    p: float

    def __post_init__(self):
        if not (np.isfinite(self.q) and np.isfinite(self.p)):
            raise ValueError("phase-space point must be finite")


def _label_scales(param: SqueezeParameter) -> np.ndarray:
    """The scales taking (q, p) to the (u, w) of ``_symplectic_matrix``."""
    return np.array([1.0 / (param.lam * np.sqrt(2.0)), param.lam / (param.hbar * np.sqrt(2.0))])


def _symplectic_matrix(tau: complex) -> np.ndarray:
    """Unit-determinant map from (q/(lam sqrt2), lam p/(hbar sqrt2)) to (Re a, Im a)."""
    s = np.sqrt(1.0 - abs(tau) ** 2)
    return np.array(
        [[1.0 + tau.real, tau.imag], [tau.imag, 1.0 - tau.real]]
    ) / s


def alpha_from_qp(point: OneModePhasePoint, param: SqueezeParameter) -> complex:
    """Complex amplitude whose state has position/momentum means (q, p)."""
    u = point.q / (param.lam * np.sqrt(2.0))
    w = param.lam * point.p / (param.hbar * np.sqrt(2.0))
    m = _symplectic_matrix(param.tau)
    re, im = m @ (u, w)
    return re + 1j * im


def qp_from_alpha(alpha: complex, param: SqueezeParameter) -> OneModePhasePoint:
    """Inverse of :func:`alpha_from_qp` (exact 2x2 inverse, determinant 1)."""
    tau = param.tau
    s = np.sqrt(1.0 - abs(tau) ** 2)
    minv = np.array(
        [[1.0 - tau.real, -tau.imag], [-tau.imag, 1.0 + tau.real]]
    ) / s
    u, w = minv @ (alpha.real, alpha.imag)
    return OneModePhasePoint(
        u * param.lam * np.sqrt(2.0), w * param.hbar * np.sqrt(2.0) / param.lam
    )


def wavefunction(point: OneModePhasePoint, param: SqueezeParameter, x) -> np.ndarray:
    """Position wavefunction psi(x), vectorised over x.

    Normalised Gaussian; |psi|^2 peaks at x = q with variance
    lam^2/(2 Re sigma_q_sq).  The x-independent phase is the one the
    squeeze-after-displace construction produces.
    """
    tau, lam = param.tau, param.lam
    x = np.asarray(x, dtype=float)
    a = alpha_from_qp(point, param)
    t2 = abs(tau) ** 2
    one_m_tau = 1.0 - tau
    pref = (1.0 - t2) ** 0.25 / (np.pi**0.25 * np.sqrt(lam) * np.sqrt(one_m_tau))
    # the alpha^2 coefficient combines the squeeze-after-displace phase
    # exp(a^2 conj(tau)/2) with the Gaussian completion term
    phase = np.exp(-0.5 * abs(a) ** 2 - a**2 * (1.0 - np.conj(tau)) / (2.0 * one_m_tau))
    expo = (
        -(1.0 + tau) * x**2 / (2.0 * one_m_tau * lam**2)
        + np.sqrt(2.0 * (1.0 - t2)) * a * x / (one_m_tau * lam)
    )
    return pref * phase * np.exp(expo)


def _fock_rows(alpha, tau: complex, nmax: int, source=None) -> np.ndarray:
    """Normalised recurrence rows g_n(alpha), shape (nmax+1,) + alpha.shape.

    g_n = tau^{n/2} H_n(alpha sqrt((1-|tau|^2)/(2 tau))) / sqrt(2^n n!)
    without ever forming the square roots of tau: the branch-free form
    g_{n+1} = sqrt(2/(n+1)) zw g_n - sqrt(n/(n+1)) tau g_{n-1},
    zw = alpha sqrt((1-|tau|^2)/2), reduces to alpha^n/sqrt(n!) exactly at
    tau = 0 and never overflows (each row stays O(1)).

    With ``source`` (nmax + 1 rows) the same recurrence climbs from
    g_0 = source[0] instead of 1, and row n + 1 gains source[n + 1]: the
    inhomogeneous form that ``_number_columns`` climbs its columns by.
    """
    alpha = np.asarray(alpha, dtype=complex)
    zw = alpha * np.sqrt((1.0 - abs(tau) ** 2) / 2.0)
    g = np.zeros((nmax + 1,) + alpha.shape, dtype=complex)
    if source is None:
        g[0] = 1.0
        if nmax >= 1:
            g[1] = np.sqrt(2.0) * zw
    else:
        g[0] = source[0]
        if nmax >= 1:
            g[1] = np.sqrt(2.0) * zw * g[0] + source[1]
    for n in range(1, nmax):
        g[n + 1] = np.sqrt(2.0 / (n + 1)) * zw * g[n] - np.sqrt(n / (n + 1)) * tau * g[n - 1]
        if source is not None:
            g[n + 1] += source[n + 1]
    return g


def _prefactor(alpha, tau: complex):
    """n-independent factor of the Fock coefficients, vectorised over alpha.

    exp(alpha^2 conj(tau)/2) carries the phase of the squeeze-after-displace
    construction; its modulus keeps the whole factor bounded by
    exp(-|alpha|^2 (1-|tau|)/2).
    """
    alpha = np.asarray(alpha, dtype=complex)
    return (1.0 - abs(tau) ** 2) ** 0.25 * np.exp(
        -0.5 * np.abs(alpha) ** 2 + alpha**2 * np.conj(tau) / 2.0
    )


def fock_coefficients(alpha: complex, param: SqueezeParameter, nmax: int) -> np.ndarray:
    """Number-basis coefficients c_0..c_nmax of the state with amplitude alpha.

    sum |c_n|^2 -> 1 as nmax grows; at tau = 0 the coefficients are exactly
    the Poissonian e^{-|alpha|^2/2} alpha^n/sqrt(n!).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    tau = param.tau
    a = complex(alpha)
    g = _fock_rows(a, tau, nmax)
    return _prefactor(a, tau) * g


def _number_columns(alpha: complex, tau: complex, rows: int, ncols: int) -> np.ndarray:
    """Columns <m|D(beta) S(tau)|n>, m < rows (at least 2), n < ncols, of
    the squeezer S(tau) followed by the displacement D(beta) that takes its
    vacuum to the family's state at alpha = c beta + s conj(beta), with
    c = 1/sqrt(1 - |tau|^2) and s = tau c.

    Column 0 is that state, ``_fock_rows`` times ``_prefactor``.  The
    columns psi_n = D S|n> obey A psi_n = sqrt(n) psi_{n-1}, with
    A = D S a S^dag D^dag = c (a - beta) + s (a^dag - conj(beta)).  Row m of
    that relation is the family's recurrence for psi_n[m + 1] plus the source
    sqrt(n/(m+1)) psi_{n-1}[m] / c; row 0 of its adjoint gives
    psi_n[0] = (conj(s) psi_{n-1}[1] - conj(alpha) psi_{n-1}[0]) / sqrt(n).
    The rows only climb, so no box edge cuts any column: row m is the same
    whatever ``rows`` is.
    """
    c = 1.0 / np.sqrt(1.0 - abs(tau) ** 2)
    lift = np.sqrt(np.arange(1.0, rows))
    g = np.empty((ncols, rows), dtype=complex)
    g[0] = _fock_rows(alpha, tau, rows - 1)
    for n in range(1, ncols):
        prev = g[n - 1]
        source = np.empty(rows, dtype=complex)
        source[0] = (np.conj(tau) * c * prev[1] - np.conj(alpha) * prev[0]) / np.sqrt(n)
        source[1:] = np.sqrt(n) / c * prev[:-1] / lift
        g[n] = _fock_rows(alpha, tau, rows - 1, source)
    return (_prefactor(alpha, tau) * g).T


def _vacuum_precision(param: SqueezeParameter) -> np.ndarray:
    """Precision P of the vacuum weight, |c0(x)|^2 ~ exp(-x^T P x), x = (q, p).

    |c0|^2 = sqrt(1 - |tau|^2) exp(-|alpha|^2 + Re(alpha^2 conj(tau))) is a
    quadratic form in (Re alpha, Im alpha) = S (u, w), S the symplectic
    matrix; in (u, w) it is [[1 + Re tau, Im tau], [Im tau, 1 - Re tau]],
    and (u, w) are (q, p) times ``_label_scales``.  P is symmetric bit for
    bit: its [0, 1] entry mirrors [1, 0], the one ``eigh`` reads.
    """
    tau = param.tau
    d = _label_scales(param)
    form = np.array([[1.0 + tau.real, tau.imag], [tau.imag, 1.0 - tau.real]])
    prec = d[:, None] * form * d[None, :]
    prec[0, 1] = prec[1, 0]
    return prec


def _coefficients(param: SqueezeParameter, x: np.ndarray, nmax: int) -> np.ndarray:
    """Fock coefficients (P, nmax + 1) of the states at the phase points x (P, 2),
    ordered (q, p): the rows of ``_fock_rows`` times ``_prefactor``."""
    to_alpha = _symplectic_matrix(param.tau) * _label_scales(param)[None, :]
    a = x @ to_alpha.T
    alpha = a[:, 0] + 1j * a[:, 1]
    return (_fock_rows(alpha, param.tau, nmax) * _prefactor(alpha, param.tau)).T


def _quantise_field(param: SqueezeParameter, field, nmax: int, degree: int | None):
    """Phase-space quadrature of f(q, p) against the family.

    Every Fock coefficient is the vacuum amplitude c0 times a polynomial of
    degree n in the phase point, so the entries integrate exp(-x^T P x)
    times a polynomial, on ``numerics.gaussian_rule`` laid on the principal
    axes of P (``numerics.whitened_rule``), order^2 nodes, refined as
    ``numerics._refine`` describes until two orders agree to 1e-12.  The
    principal axes, not the q-marginal times p | q of the two-mode position
    route: both are exact to the same degree, and over random families
    neither is the more accurate, but on the benchmark's family the
    conditional layout rounds the quantised q^2 to 2.6e-14 instead of 1.2e-14.

    Returns the matrix at the finest order (measure dq dp / (2 pi hbar)),
    the nodes of that order, shape (N, 2) ordered (q, p), and the
    QuadratureReport, as ``nonsepstates._quantise_rotated`` does.
    """
    prec = _vacuum_precision(param)
    coefficients = lambda x: _coefficients(param, x, nmax)
    norm = 2.0 * np.pi * param.hbar

    def evaluate(order):
        pts, weights = whitened_rule(prec, order)
        return (*_quantise_on_rule(coefficients, field, pts, weights, norm), pts)

    return _refine(1, nmax, degree, lambda order: order**2, evaluate, _CONVERGED)


def overlap_sq(
    point_a: OneModePhasePoint, point_b: OneModePhasePoint, param: SqueezeParameter
) -> float:
    """|<b|a>|^2 for two states sharing one squeezing parameter.

    Gaussian in the phase-space separation; equals 1 at coincident points and
    integrates over (q', p')/(2 pi hbar) to exactly 1.
    """
    w = param.widths()
    lam, hbar = param.lam, param.hbar
    dq = point_a.q - point_b.q
    dp = point_a.p - point_b.p
    expo = (
        -w.delta_q_sq * dq**2 / (2.0 * lam**2)
        - lam**2 * w.delta_p_sq * dp**2 / (2.0 * hbar**2)
        - 2.0 * w.gamma * dq * dp / hbar
    )
    return float(np.exp(expo))


def holomorphic_orthogonality_check(param: SqueezeParameter, n: int, m: int):
    """Orthogonality integral of Hermite polynomials at conjugate complex args.

    Evaluates lhs = integral H_n(x+iy) H_m(x-iy) e^{-a x^2 - b y^2} dx dy with
    a = 2|tau|/(1+|tau|), b = 2|tau|/(1-|tau|) (these satisfy 1/a - 1/b = 1,
    which is exactly the condition for orthogonality) and returns (lhs, rhs)
    with the closed form rhs = (pi/sqrt(ab)) 2^n n! ((a+b)/(ab))^n delta_nm.

    The substitution x = t/sqrt(a), y = s/sqrt(b) turns the integrand into a
    polynomial times the Gauss-Hermite weight, so the quadrature is exact once
    the order exceeds (n+m)/2; it runs at (n+m)//2 + 4.
    """
    t = abs(param.tau)
    if t < 1e-12:
        raise ValueError("orthogonality weight degenerates at tau = 0")
    a = 2.0 * t / (1.0 + t)
    b = 2.0 * t / (1.0 - t)
    if abs(1.0 / a - 1.0 / b - 1.0) > 1e-12:
        raise AssertionError("weight constraint 1/a - 1/b = 1 violated")
    nodes, weights = _hermgauss((n + m) // 2 + 4)
    tnod, snod = np.meshgrid(nodes, nodes, indexing="ij")
    wts = weights[:, None] * weights[None, :]
    z_plus = tnod / np.sqrt(a) + 1j * snod / np.sqrt(b)
    lhs = np.sum(wts * hermite_phys(n, z_plus) * hermite_phys(m, np.conj(z_plus))) / np.sqrt(a * b)
    if n == m:
        rhs = np.pi / np.sqrt(a * b) * 2.0**n * float(math.factorial(n)) * ((a + b) / (a * b)) ** n
    else:
        rhs = 0.0
    return complex(lhs), float(rhs)
