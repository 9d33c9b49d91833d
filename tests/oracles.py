"""Independent references for the test suite.

Nothing in the package calls these.  The first group is brute-force
numerics the package itself no longer needs: iterated Gauss-Legendre box
quadrature, dense matrix exponentials, the real erfc, the truncated
momentum matrix, scipy's DOP853 run of an ODE problem and the generic
DOP853 loop that ``numerics.solve_ode`` replaced by generated code.  The
second group is 40-digit ``mpmath`` matrix elements
of the squeeze, displacement and beam-splitter operators, built from
expansions that share no step with the recurrences and exponentials they
check, and 40-digit Gaussian moments on a box.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul
from typing import Sequence

import mpmath as mp
import numpy as np
from scipy import special
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop853
from scipy.linalg import expm

from sqzq.errors import NonFiniteState, QuadratureNotConverged
from sqzq.numerics import (
    OdeSolution,
    QuadratureRule,
    TruncatedOperator,
    _dense_values,
    _initial_step,
    legendre_box_rule,
)


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
# ODE solvers


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


def _sum(terms) -> float:
    """Left to right from 0.0: ``sum`` as CPython 3.11 adds floats (3.12's
    ``sum`` compensates, and would make the bits depend on the version)."""
    return reduce(add, terms, 0.0)


def _combine(y, h, a, cols) -> list:
    """y + h sum_i a_i K_i, one state component (and one column of stage
    values) at a time."""
    return [v + h * _sum(map(mul, a, col)) for v, col in zip(y, cols)]


def _add_stages(rhs, t, y, h, K, stages) -> None:
    """Append to the stage list K the stages (a_s, c_s), each evaluated at
    the combination of the stages before it."""
    for a, c in stages:
        K.append(rhs(t + c * h, _combine(y, h, a, zip(*K))))


def dop853_generic(problem, t_eval=None, max_steps: int = 50_000) -> OdeSolution:
    """``numerics.solve_ode`` with its stage arithmetic written generically:
    the same controller and limits, with every tableau sum taken over the
    stage list in a loop instead of the generated straight-line code.  It
    does the same float operations in the same order, so the two agree to
    the bit."""
    A = [row[:s].tolist() for s, row in enumerate(_dop853.A)]
    C, B, E3, E5, D = (v.tolist() for v in (_dop853.C, _dop853.B, _dop853.E3, _dop853.E5, _dop853.D))
    step_stages = list(zip(A[1:12], C[1:12]))
    dense_stages = list(zip(A[13:], C[13:]))
    rhs = problem.rhs
    rtol, atol = problem.rel_tol, problem.abs_tol
    t0, t1 = (float(v) for v in problem.t_span)
    n = problem.y0.size
    min_step = 10.0 * float(np.spacing(max(abs(t0), abs(t1))))

    t = t0
    y = problem.y0.tolist()
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t1 - t, rtol, atol)
    n_evals = 2
    steps, ends, y_ends = [], [], []
    n_accepted = n_rejected = 0
    h_min = math.inf
    message = ""
    if not all(map(math.isfinite, f)):
        message = f"the right-hand side is not finite at t0 = {t!r}"
    while t < t1 and not message:
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                message = f"step size fell below the minimum step {min_step:.3g} at t = {t!r}"
                break
            if n_accepted + n_rejected >= max_steps:
                message = f"step budget of {max_steps} steps exhausted at t = {t!r}"
                break
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            _add_stages(rhs, t, y, h, K, step_stages)
            y_new = _combine(y, h, B, zip(*K))
            f_new = rhs(t_new, y_new)
            n_evals += 12
            K.append(f_new)
            cols = list(zip(*K))
            scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
            err5 = [_sum(map(mul, E5, col)) / s for col, s in zip(cols, scale)]
            err3 = [_sum(map(mul, E3, col)) / s for col, s in zip(cols, scale)]
            e5 = _sum(e * e for e in err5)
            e3 = _sum(e * e for e in err3)
            error_norm = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(10.0, 0.9 * error_norm ** (-1.0 / 8.0))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                n_accepted += 1
                break
            h_abs *= max(0.2, 0.9 * error_norm ** (-1.0 / 8.0))
            rejected = True
            n_rejected += 1
        if message:
            break
        _add_stages(rhs, t, y, h, K, dense_stages)
        n_evals += 3
        cols = list(zip(*K))
        dy = [b - a for a, b in zip(y, y_new)]
        row = [t, h, *y, *dy]
        row += [h * fo - d for fo, d in zip(f, dy)]
        row += [2.0 * d - h * (fn + fo) for d, fn, fo in zip(dy, f_new, f)]
        for d_row in D:
            row += [h * _sum(map(mul, d_row, col)) for col in cols]
        steps.append(row)
        ends.append(t_new)
        y_ends.append(y_new)
        h_min = min(h_min, h)
        t, y, f = t_new, y_new, f_new

    table = np.array(steps, dtype=float).reshape(len(steps), 2 + 8 * n)
    ends = np.array(ends, dtype=float)
    if t_eval is None:
        ts = np.concatenate([[t0], ends])
        ys = np.array([problem.y0.tolist(), *y_ends], dtype=float)
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        ts = t_eval[: np.searchsorted(t_eval, t, side="right")] if steps else t_eval[:0]
        ys = _dense_values(table, ends, ts) if ts.size else np.empty((0, n))
    counts = {"n_rhs_evals": n_evals, "n_accepted": n_accepted, "n_rejected": n_rejected, "h_min": h_min}
    if message:
        keep = np.all(np.isfinite(ys), axis=1)
        return OdeSolution(ts[keep], ys[keep], "failed", message=message, **counts)
    if not np.all(np.isfinite(ys)):
        raise NonFiniteState("non-finite values in the solution samples")
    return OdeSolution(ts, ys, "finished", **counts)


# ---------------------------------------------------------------------------
# 40-digit operator matrix elements


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


def box_moment(q, w, s, power: int) -> float:
    """int_{-w}^{w} x^power N(x; q, s^2) dx by 40-digit tanh-sinh quadrature,
    split at q and at q +- 4, 8 and 12 s where those fall inside the box."""
    with mp.workdps(40):
        q, w, s = mp.mpf(q), mp.mpf(w), mp.mpf(s)
        cuts = [q + k * s for k in range(-12, 13, 4) if -w < q + k * s < w]
        val = mp.quad(lambda x: x**power * mp.exp(-((x - q) ** 2) / (2 * s * s)), [-w, *cuts, w])
        return float(val / (s * mp.sqrt(2 * mp.pi)))
