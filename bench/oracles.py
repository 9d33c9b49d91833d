"""Reference values the benchmark checks the program's outputs against.

Nothing here calls the code paths it checks.  The quantised operators are
checked with a position-space Gauss-Hermite quadrature in the Fock basis
(the program integrates over 4D phase space); the coupled portraits with a
conditional-normal inner integral (the program uses a clipped Legendre
product rule); the separable wall windows and the energies with the moments
of a truncated normal written with ``scipy.special.ndtr`` (the program uses
an erfc closed form); the free box motion with its exact solution.

The only program functions used are ``nonsep_coefficients``, which supplies
the Gaussian precision matrix of the two-mode family, and the parameter
constructors.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import quad
from scipy.special import ndtr

_SQRT2PI = np.sqrt(2.0 * np.pi)


# ----------------------------------------------------------------------
# operators in the Fock basis


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator a on the first ``dim`` number states."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def position(dim: int, lam: float = 1.0) -> np.ndarray:
    a = ladder(dim)
    return lam * (a + a.T) / np.sqrt(2.0)


def momentum(dim: int, lam: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    a = ladder(dim)
    return 1j * (hbar / lam) * (a.T - a) / np.sqrt(2.0)


def _hermite_functions(u: np.ndarray, nmax: int) -> np.ndarray:
    """Hermite polynomials orthonormal under the weight exp(-u^2), rows n = 0..nmax."""
    h = np.zeros((nmax + 1, u.size))
    h[0] = np.pi**-0.25
    if nmax >= 1:
        h[1] = np.sqrt(2.0) * u * h[0]
    for n in range(2, nmax + 1):
        h[n] = np.sqrt(2.0 / n) * u * h[n - 1] - np.sqrt((n - 1.0) / n) * h[n - 2]
    return h


def multiplication_matrix(g, lam1: float, lam2: float, nmax: int, order: int = 80) -> np.ndarray:
    """<n1 n2| g(x1, x2) |m1 m2> in the two-mode number basis.

    Mode j has position operator lam_j (a_j + a_j^dagger)/sqrt2, so its
    number states are Hermite functions of x_j / lam_j.  The flat index is
    n1 * (nmax + 1) + n2, mode 1 outermost.  A tensor Gauss-Hermite rule in
    the scaled positions is exact for polynomial g and converges
    geometrically for Gaussian g.
    """
    u, w = hermgauss(order)
    h = _hermite_functions(u, nmax)
    vals = g(lam1 * u[:, None], lam2 * u[None, :])
    a = np.einsum("ak,bk,cl,dl,kl->acbd", h, h, h, h, w[:, None] * w[None, :] * vals)
    n1 = nmax + 1
    return a.reshape(n1 * n1, n1 * n1)


def precision_matrix(params, point) -> np.ndarray:
    """Real precision matrix M of the coupled position kernel.

    The lower symbol of a position field is its Gaussian smoothing with
    covariance M^-1; the quantised field is multiplication by its smoothing
    with covariance (2M)^-1.
    """
    from sqzq.nonsepstates import nonsep_coefficients

    co = nonsep_coefficients(params, point)
    l1, l2 = params.lam1, params.lam2
    off = co.ell.real / (l1 * l2)
    return np.array([[2.0 * co.Delta1.real / l1**2, off], [off, 2.0 * co.Delta2.real / l2**2]])


def gaussian_field_smoothing(cov: np.ndarray):
    """Smoothing of exp(-(q1^2 + q2^2)/2) with covariance ``cov``, in closed form."""
    s = np.eye(2) + cov
    inv = np.linalg.inv(s)
    scale = np.linalg.det(s) ** -0.5

    def g(x1, x2):
        return scale * np.exp(-0.5 * (inv[0, 0] * x1 * x1 + 2.0 * inv[0, 1] * x1 * x2 + inv[1, 1] * x2 * x2))

    return g


def structural_residual(op: np.ndarray, base: np.ndarray) -> float:
    """Max entry of op - base - c I, with c fitted as the mean diagonal offset."""
    c = np.mean(np.diag(op - base))
    return float(np.max(np.abs(op - base - c * np.eye(op.shape[0]))))


# ----------------------------------------------------------------------
# Gaussian smoothing of box observables


def box_probability(centre, cov: np.ndarray, box) -> float:
    """P(Y in box) for Y ~ N(centre, cov), as int N(x1) [Phi(b2|x1) - Phi(a2|x1)] dx1."""
    (a1, b1), (a2, b2) = box
    q1, q2 = float(centre[0]), float(centre[1])
    s1 = np.sqrt(cov[0, 0])
    beta = cov[0, 1] / cov[0, 0]
    sc = np.sqrt(cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0])

    def integrand(x1):
        mu = q2 + beta * (x1 - q1)
        dens = np.exp(-0.5 * ((x1 - q1) / s1) ** 2) / (s1 * _SQRT2PI)
        return dens * (ndtr((b2 - mu) / sc) - ndtr((a2 - mu) / sc))

    lo, hi = max(a1, q1 - 12.0 * s1), min(b1, q1 + 12.0 * s1)
    if not hi > lo:
        return 0.0
    points = [q1] if lo < q1 < hi else None
    val, _ = quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200, points=points)
    return float(val)


def window_moments(q, w: float, s: float):
    """(c, g) = int_{-w}^{w} (1, x^2) N(x; q, s^2) dx, from truncated-normal moments.

    Both are even in q, so they are evaluated at |q|, where the normal
    probabilities never cancel near one.
    """
    q = np.abs(np.asarray(q, dtype=float))
    za, zb = (-w - q) / s, (w - q) / s
    pa, pb = np.exp(-0.5 * za * za) / _SQRT2PI, np.exp(-0.5 * zb * zb) / _SQRT2PI
    c = ndtr(zb) - ndtr(za)
    m1 = pa - pb
    m2 = c + za * pa - zb * pb
    g = q * q * c + 2.0 * q * s * m1 + s * s * m2
    return c, g


def real_tau_smoothing_sq(tau: float, lam: float) -> float:
    """Squared wall-smoothing width lam^2 (1 - tau)/(1 + tau) of a real-tau mode."""
    return lam * lam * (1.0 - tau) / (1.0 + tau)


class WallPortraits:
    """Lower symbols of the PDM box observables for real squeezing."""

    def __init__(self, model, modes):
        self.model = model
        self.lam = (model.lambda1, model.lambda2)
        self.wall = (1.0 / model.lambda1, 1.0 / model.lambda2)
        self.vbar = (model.vbar1, model.vbar2)
        s2 = [real_tau_smoothing_sq(modes.mode(j).tau.real, modes.mode(j).lam) for j in (1, 2)]
        self.s = tuple(np.sqrt(v) for v in s2)
        self.kin = tuple(modes.hbar**2 / (2.0 * v) for v in s2)

    def _pieces(self, q):
        q = np.asarray(q, dtype=float)
        c1, g1 = window_moments(q[..., 0], self.wall[0], self.s[0])
        c2, g2 = window_moments(q[..., 1], self.wall[1], self.s[1])
        a1 = (c1 - self.lam[0] ** 2 * g1) * c2 / self.model.m0
        a2 = (c2 - self.lam[1] ** 2 * g2) * c1 / self.model.m0
        return c1, g1, c2, g2, a1, a2

    def _veff(self, c1, g1, c2, g2, a1, a2):
        return self.kin[0] * a1 + self.kin[1] * a2 + self.vbar[0] * g1 * c2 + self.vbar[1] * c1 * g2

    def field(self, name: str, q):
        pieces = self._pieces(q)
        c1, g1, c2, _, a1, _ = pieces
        if name == "chi":
            return c1 * c2
        if name == "mass1":
            return a1
        if name == "q2chi1":
            return g1 * c2
        if name == "veff":
            return self._veff(*pieces)
        raise ValueError(f"no oracle for portrait field {name!r}")

    def energy(self, q, p):
        """0.5 (p1^2 A1 + p2^2 A2) + V_eff, the conserved semiclassical energy."""
        p = np.asarray(p, dtype=float)
        pieces = self._pieces(q)
        a1, a2 = pieces[4], pieces[5]
        return 0.5 * (p[..., 0] ** 2 * a1 + p[..., 1] ** 2 * a2) + self._veff(*pieces)


def classical_energy(model, q, p):
    """sum_j p_j^2 (1 - Lambda_j^2 q_j^2)/(2 m0) + vbar_j q_j^2."""
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    lam = np.array([model.lambda1, model.lambda2])
    vbar = np.array([model.vbar1, model.vbar2])
    return np.sum(p * p * (1.0 - (lam * q) ** 2) / (2.0 * model.m0) + vbar * q * q, axis=-1)


def free_box_positions(model, v0, t):
    """Exact q_j(t) = sin(Lambda_j v_j t)/Lambda_j of the free motion launched from the centre."""
    t = np.asarray(t, dtype=float)
    lam = np.array([model.lambda1, model.lambda2])
    return np.sin(lam * np.asarray(v0, dtype=float) * t[:, None]) / lam
