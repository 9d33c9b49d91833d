"""Independent references for the test suite.

Nothing in the package calls these.  The first group is brute-force
numerics the package itself no longer needs: iterated Gauss-Legendre box
quadrature, dense matrix exponentials, the real erfc, the truncated
momentum matrix and scipy's DOP853 run of an ODE problem.  The second group is 40-digit ``mpmath`` matrix elements
of the squeeze, displacement and beam-splitter operators, built from
expansions that share no step with the recurrences and exponentials they
check.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath as mp
import numpy as np
from scipy import special
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from sqzq.errors import QuadratureNotConverged
from sqzq.numerics import QuadratureRule, TruncatedOperator, legendre_box_rule


def _tensor_eval(f, rules: Sequence[QuadratureRule]) -> complex:
    """Tensor-product quadrature sum over len(rules) dimensions.

    ``f`` must accept ``d`` equally shaped flat arrays and return an array of
    the same length.  The last two axes are evaluated vectorised; any leading
    axes are looped, which keeps the memory footprint at order*panels squared.
    """
    d = len(rules)
    if d == 1:
        (r,) = rules
        return np.sum(r.weights * np.asarray(f(r.nodes)))
    if d == 2:
        x1, x2 = np.meshgrid(rules[0].nodes, rules[1].nodes, indexing="ij")
        w = rules[0].weights[:, None] * rules[1].weights[None, :]
        vals = np.asarray(f(x1.ravel(), x2.ravel())).reshape(x1.shape)
        return np.sum(w * vals)
    # d >= 3: loop over the leading d-2 axes
    inner = rules[-2:]
    x1, x2 = np.meshgrid(inner[0].nodes, inner[1].nodes, indexing="ij")
    w_in = (inner[0].weights[:, None] * inner[1].weights[None, :]).ravel()
    x1f, x2f = x1.ravel(), x2.ravel()
    npts = x1f.size
    outer_nodes = [r.nodes for r in rules[:-2]]
    outer_weights = [r.weights for r in rules[:-2]]
    total = 0.0 + 0.0j
    for idx in np.ndindex(*[len(n) for n in outer_nodes]):
        w_out = 1.0
        args = []
        for k, i in enumerate(idx):
            w_out *= outer_weights[k][i]
            args.append(np.full(npts, outer_nodes[k][i]))
        vals = np.asarray(f(*args, x1f, x2f))
        total += w_out * np.sum(w_in * vals)
    return total


def quad_box(
    f,
    bounds: Sequence[tuple[float, float]],
    order: int = 48,
    panels: int = 1,
    refine: bool = True,
    rtol: float = 1e-9,
    atol: float = 0.0,
    max_doublings: int = 4,
):
    """Integrate a vectorised integrand over a d-dimensional box.

    Iterated composite Gauss-Legendre rules; on ``refine`` the panel count is
    doubled until two successive estimates agree to ``rtol``/``atol``.  The box
    must already contain the integrand's support up to negligible tails.

    Raises
    ------
    QuadratureNotConverged
        if doubling ``max_doublings`` times never reaches the tolerance.
    """
    bounds = [(float(a), float(b)) for a, b in bounds]
    rules = [legendre_box_rule(a, b, order, panels) for a, b in bounds]
    est = _tensor_eval(f, rules)
    if not refine:
        return est
    p = panels
    for _ in range(max_doublings):
        p *= 2
        rules = [legendre_box_rule(a, b, order, p) for a, b in bounds]
        new = _tensor_eval(f, rules)
        if abs(new - est) <= rtol * abs(new) + atol:
            return new
        est = new
    raise QuadratureNotConverged(
        f"box quadrature did not converge (last delta {abs(new - est):.3e})"
    )


def erfc_real(x):
    """Complementary error function on the real line (scipy's)."""
    return special.erfc(x)


def matrix_exp(M):
    """Matrix exponential of a TruncatedOperator or a square ndarray, same type back."""
    if isinstance(M, TruncatedOperator):
        return TruncatedOperator(M.dim, expm(M.entries))
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    return expm(M)


def momentum(dim: int, lam: float = 1.0, hbar: float = 1.0) -> TruncatedOperator:
    """p = (hbar/lam) (a - a^dag)/(i sqrt(2)) on the truncated Fock space."""
    a = TruncatedOperator.annihilation(dim).entries
    return TruncatedOperator(dim, hbar / lam * (a - a.conj().T) / (1j * np.sqrt(2.0)))


# ---------------------------------------------------------------------------
# 40-digit operator matrix elements


def dop853_reference(problem, t_eval=None):
    """scipy's ``solve_ivp(method="DOP853", dense_output=True)`` on an
    ``OdeProblem``, the run that ``numerics.solve_ode`` mirrors step for step
    up to rounding; ``sol.ts`` holds its accepted step ends."""
    return solve_ivp(
        lambda t, y: np.asarray(problem.rhs(t, y.tolist()), dtype=float),
        problem.t_span,
        problem.y0,
        method="DOP853",
        rtol=problem.rel_tol,
        atol=problem.abs_tol,
        dense_output=True,
        t_eval=t_eval,
    )


def beam_splitter_sector(phi, tot: int) -> np.ndarray:
    """<p, N-p| exp(phi (a1^dag a2 - a1 a2^dag)) |n1, N-n1>, rows p, columns n1.

    The unitary U maps a1^dag to cos(phi) a1^dag - sin(phi) a2^dag and a2^dag
    to sin(phi) a1^dag + cos(phi) a2^dag and fixes the vacuum, so U|n1, n2> is
    a binomial expansion of the two rotated creation operators.
    """
    with mp.workdps(40):
        c, s = mp.cos(mp.mpf(phi)), mp.sin(mp.mpf(phi))
        fac = [mp.factorial(k) for k in range(tot + 1)]
        out = np.empty((tot + 1, tot + 1))
        for n1 in range(tot + 1):
            n2 = tot - n1
            a = [math.comb(n1, k) * c**k * (-s) ** (n1 - k) for k in range(n1 + 1)]
            b = [math.comb(n2, k) * s**k * c ** (n2 - k) for k in range(n2 + 1)]
            for p in range(tot + 1):
                coef = mp.fsum(a[k] * b[p - k] for k in range(max(0, p - n2), min(n1, p) + 1))
                out[p, n1] = float(coef * mp.sqrt(fac[p] * fac[tot - p] / (fac[n1] * fac[n2])))
    return out


def squeeze_elements(tau, ncols: int, ambient: int) -> np.ndarray:
    """<m|S|n>, m < ambient, n < ncols, for S|0> proportional to exp(-tau a^dag^2 / 2)|0>.

    Normal-ordered form S = exp(-tau a^dag^2/2) sech(r)^(a^dag a + 1/2)
    exp(conj(tau) a^2/2) with |tau| = tanh r: a finite double sum.
    """
    with mp.workdps(40):
        t = mp.mpc(tau)
        sech = mp.sqrt(1 - abs(t) ** 2)
        fac = [mp.factorial(k) for k in range(ambient + ncols)]
        out = np.zeros((ambient, ncols), complex)
        for n in range(ncols):
            for m in range(n % 2, ambient, 2):
                acc = mp.mpc(0)
                for j in range(n // 2 + 1):
                    i, left = (m - n) // 2 + j, n - 2 * j
                    if i < 0:
                        continue
                    acc += (
                        (mp.conj(t) / 2) ** j / fac[j] * (-t / 2) ** i / fac[i]
                        * sech**left * mp.sqrt(fac[n] * fac[m]) / fac[left]
                    )
                out[m, n] = complex(mp.sqrt(sech) * acc)
    return out


def displacement_elements(alpha, ambient: int) -> np.ndarray:
    """<m|D(alpha)|n>, m, n < ambient, from the associated Laguerre polynomials.

    <n+d|D|n> = sqrt(n!/(n+d)!) alpha^d e^{-|alpha|^2/2} L_n^(d)(|alpha|^2) and
    <n|D|n+d> the same with (-conj(alpha))^d; L_n^(d)(x) summed term by term.
    """
    with mp.workdps(40):
        a = mp.mpc(alpha)
        x = abs(a) ** 2
        pre = mp.exp(-x / 2)
        fac = [mp.factorial(k) for k in range(ambient)]
        terms = [(-x) ** i / fac[i] for i in range(ambient)]
        out = np.zeros((ambient, ambient), complex)
        for lo in range(ambient):
            for d in range(ambient - lo):
                lag = mp.fsum(math.comb(lo + d, lo - i) * terms[i] for i in range(lo + 1))
                amp = pre * mp.sqrt(fac[lo] / fac[lo + d]) * lag
                out[lo + d, lo] = complex(amp * a**d)
                out[lo, lo + d] = complex(amp * (-mp.conj(a)) ** d)
    return out
