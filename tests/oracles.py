"""Independent references for the test suite.

Nothing in the package calls these.  The first group is brute-force
numerics the package itself no longer needs: iterated Gauss-Legendre box
quadrature, dense matrix exponentials, the real erfc, the truncated
momentum matrix, scipy's DOP853 run of an ODE problem, the generic
DOP853 loop that ``numerics.solve_ode`` replaced by generated code, and the
per-cell '%' CSV writer that ``cli._csv`` replaced by compiled text.  It also holds
the two-mode multiplication matrix of a Gaussian field's smoothing by one
Gauss-Hermite rule exact for it, and the direct 4D phase-space quadrature of
a two-mode field (``quantise_4d``) on its own tensor rule for any
dimension (``whitened_rule_nd``), the definition the package's rotated
engine is held against.  The x-kernel route to a quantised field
(``kernel_eval``: the diagonal kernel a0 + a1 d/dx + a2 d^2/dx^2 from
Gaussian moments) is a second route to the engines' operators, and the
PDM model's energy in canonical variables (``classical_energy``) holds the
pendulum invariant that ``pdm.classical_integrate`` reports.  The
second group is 40-digit ``mpmath`` matrix elements
of the squeeze, displacement and beam-splitter operators, built from
expansions that share no step with the recurrences and exponentials they
check, and 40-digit Gaussian moments on a box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Sequence

import mpmath as mp
import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy import special
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop853
from scipy.linalg import expm

from sqzq.errors import ConfigError, NonConvergent, NonFiniteState, SqzqError
from sqzq.numerics import (
    OdeSolution,
    TruncatedOperator,
    _dense_values,
    _initial_step,
    _quantise_on_rule,
    _refine,
    gaussian_smooth,
    legendre_box_rule,
)
from sqzq.nonsepstates import (
    _fock_batch,
    _is_position_field,
    _pair_matrix,
    _portrait_precision,
    _wavefunction_parts,
)
from sqzq.onemode import alpha_from_qp
from sqzq.quantmap import _TWO_MODE_NMAX, ClassicalFunction, _as_classical, _family


def _tensor_eval(f, rules: Sequence[tuple[np.ndarray, np.ndarray]]) -> complex:
    """Tensor-product quadrature sum over len(rules) dimensions, each rule a
    (nodes, weights) pair.

    ``f`` must accept ``d`` equally shaped flat arrays and return an array of
    the same length.  The last two axes are evaluated vectorised; any leading
    axes are looped, which keeps the memory footprint at order*panels squared.
    """
    d = len(rules)
    if d == 1:
        ((x, w),) = rules
        return np.sum(w * np.asarray(f(x)))
    if d == 2:
        (n1, w1), (n2, w2) = rules
        x1, x2 = np.meshgrid(n1, n2, indexing="ij")
        w = w1[:, None] * w2[None, :]
        vals = np.asarray(f(x1.ravel(), x2.ravel())).reshape(x1.shape)
        return np.sum(w * vals)
    # d >= 3: loop over the leading d-2 axes
    (n1, w1), (n2, w2) = rules[-2:]
    x1, x2 = np.meshgrid(n1, n2, indexing="ij")
    w_in = (w1[:, None] * w2[None, :]).ravel()
    x1f, x2f = x1.ravel(), x2.ravel()
    npts = x1f.size
    outer_nodes = [r[0] for r in rules[:-2]]
    outer_weights = [r[1] for r in rules[:-2]]
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
    NonConvergent
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
    raise NonConvergent(
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


def classical_energy(model, q, p):
    """H = sum_j p_j^2 (1 - Lambda_j^2 q_j^2) / (2 m0) + vbar_j q_j^2 of the
    PDM model at positions and momenta of shape (..., 2)."""
    lam = np.array([model.lambda1, model.lambda2])
    vbar = np.array([model.vbar1, model.vbar2])
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    return np.sum(p * p * (1.0 - (lam * q) ** 2) / (2.0 * model.m0) + vbar * q * q, axis=-1)


# ---------------------------------------------------------------------------
# the x-kernel route to a quantised field


class UnsupportedMomentumDependence(SqzqError):
    """Kernel evaluation supports polynomial momentum dependence of degree <= 2 only."""


@dataclass(frozen=True)
class KernelAction:
    """Diagonal-kernel action (A_f g)(x) = a0 g(x) + a1 g'(x) + a2 g''(x).

    Every admissible f produces a kernel supported on x = x' (delta and its
    first two derivatives); the coefficients are the entire content.  For
    position-only f only a0 survives and equals the Gaussian smoothing of f
    at x, exposed as ``smoothing_factor``.
    """

    a0: complex
    a1: complex
    a2: complex

    @property
    def delta_order(self) -> int:
        if self.a2 != 0.0:
            return 2
        return 1 if self.a1 != 0.0 else 0

    @property
    def smoothing_factor(self) -> complex:
        if self.delta_order > 0:
            raise UnsupportedMomentumDependence(
                "kernel carries delta-derivative terms; no pure smoothing factor"
            )
        return self.a0


def _p_components(f: ClassicalFunction, q: np.ndarray, pscale: float):
    """Split f(q, p) = f0 + f1 p + f2 p^2 pointwise; refuse higher degrees."""
    zero = np.zeros_like(q)
    f0 = np.asarray(f(q, zero), dtype=float)
    fp = np.asarray(f(q, zero + pscale), dtype=float)
    fm = np.asarray(f(q, zero - pscale), dtype=float)
    f1 = (fp - fm) / (2.0 * pscale)
    f2 = (fp + fm - 2.0 * f0) / (2.0 * pscale**2)
    probe = np.asarray(f(q, zero + 2.0 * pscale), dtype=float)
    model = f0 + 2.0 * pscale * f1 + 4.0 * pscale**2 * f2
    scale = np.max(np.abs([f0, fp, fm, probe])) + 1.0
    if np.max(np.abs(probe - model)) > 1e-8 * scale:
        raise UnsupportedMomentumDependence(
            "momentum dependence is not polynomial of degree <= 2"
        )
    return f0, f1, f2


def kernel_eval(f, family, x) -> KernelAction:
    """Diagonal kernel of the quantised f at position x.

    The kernel of every admissible f is a distribution on x = x'; what is
    returned is its action on test functions (see KernelAction).  Momentum
    dependence beyond quadratic is refused.  Two-mode families support
    position-only functions: those the engine's position test
    (``nonsepstates._is_position_field``) takes for one at the basis
    n_j <= 4 (``quantmap._TWO_MODE_NMAX``), with the declared degree, as
    ``quantmap.quantise`` there would.  The kernel at x = (x1, x2) is the
    Gaussian smoothing of f(q1, q2, 0, 0) at twice the portrait precision.
    For one mode, f = f0 + f1 p + f2 p^2, and the coefficients take f0, f1,
    f1 d, f2, f2 d, f2 d^2 (d = q - x) from one stacked
    ``numerics.gaussian_smooth`` pass at precision 2 Re(Q1),
    Q1 = sigma_q^2 / lam^2.
    """
    fam, arity, _ = _family(family)
    cf = _as_classical(f, arity)
    if arity == "two-mode":
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise ConfigError("two-mode kernel point must be a pair (x1, x2)")

        if not _is_position_field(fam, cf, _TWO_MODE_NMAX, cf.poly_degree):
            raise UnsupportedMomentumDependence("two-mode kernels support position-only functions")

        def position_part(q1, q2):
            zero = np.zeros_like(q1)
            return np.asarray(cf(q1, q2, zero, zero), dtype=float)

        a0 = gaussian_smooth(position_part, x, 2.0 * _portrait_precision(fam))
        return KernelAction(complex(a0), 0.0, 0.0)

    lam, hbar, x = fam.lam, fam.hbar, float(x)
    q1 = fam.widths().sigma_q_sq / lam**2

    def parts(q):
        f0, f1, f2 = _p_components(cf, q, pscale=hbar / lam)
        d = q - x
        return np.stack(np.broadcast_arrays(f0, f1, f1 * d, f2, f2 * d, f2 * d * d))

    e0, e1, e1d, e2, e2d, e2dd = gaussian_smooth(parts, [x], [[2.0 * q1.real]])
    q1c = np.conj(q1)
    a0 = e0 - 1j * hbar * q1c * e1d - hbar**2 * (q1c**2 * e2dd - q1c * e2)
    a1 = -1j * hbar * e1 - 2.0 * hbar**2 * q1c * e2d
    a2 = -(hbar**2) * e2
    return KernelAction(complex(a0), complex(a1), complex(a2))


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
# CSV text


def csv_row_template(header: str, columns) -> bytes:
    """CSV bytes by one '%' conversion per cell, the reference of
    ``cli._csv``: the header, then a line per row of ``columns``, each number
    written with '%.17g', all by one %-format of a row template repeated
    once per row."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    stacked = np.column_stack(columns)
    return (header + "\n" + (row * len(stacked)) % tuple(stacked.ravel().tolist())).encode("ascii")


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
    <n|D|n+d> the same with (-conj(alpha))^d.  For each d, L_n^(d)(x) climbs
    its three-term recurrence in n, n L_n = (2n - 1 + d - x) L_{n-1} -
    (n - 1 + d) L_{n-2} from L_0 = 1, at 40 digits: for |alpha| <= 1.45 and
    n + d < 140 it agrees with the sum of the polynomial's terms to 3e-28
    relative, the digits that sum loses to the cancellation of its terms.
    """
    with mp.workdps(40):
        a = mp.mpc(alpha)
        x = abs(a) ** 2
        pre = mp.exp(-x / 2)
        fac = [mp.factorial(k) for k in range(ambient)]
        out = np.zeros((ambient, ambient), complex)
        for d in range(ambient):
            lower, upper = a**d, (-mp.conj(a)) ** d
            prev, lag = mp.mpf(0), mp.mpf(1)
            for lo in range(ambient - d):
                if lo:
                    prev, lag = lag, ((2 * lo - 1 + d - x) * lag - (lo - 1 + d) * prev) / lo
                amp = pre * mp.sqrt(fac[lo] / fac[lo + d]) * lag
                out[lo + d, lo] = complex(amp * lower)
                out[lo, lo + d] = complex(amp * upper)
    return out


def box_moment(q, w, s, power: int) -> float:
    """int_{-w}^{w} x^power N(x; q, s^2) dx by 40-digit tanh-sinh quadrature,
    split at q and at q +- 4, 8 and 12 s where those fall inside the box."""
    with mp.workdps(40):
        q, w, s = mp.mpf(q), mp.mpf(w), mp.mpf(s)
        cuts = [q + k * s for k in range(-12, 13, 4) if -w < q + k * s < w]
        val = mp.quad(lambda x: x**power * mp.exp(-((x - q) ** 2) / (2 * s * s)), [-w, *cuts, w])
        return float(val / (s * mp.sqrt(2 * mp.pi)))


def overlap_integral(pa, pb, par) -> float:
    """|<pa|pb>|^2 at 40 digits: psi = c exp(-u x^2 + v x) written out as
    ``onemode.wavefunction`` is, and int conj(psi_a) psi_b dx as the Gaussian
    integral sqrt(pi / A) exp(B^2 / 4A), A = 2 Re u, B = conj(v_a) + v_b."""
    with mp.workdps(40):
        tau, lam = mp.mpc(par.tau), mp.mpf(par.lam)
        t2, omt = abs(tau) ** 2, 1 - tau

        def parts(point):
            a = mp.mpc(complex(alpha_from_qp(point, par)))
            pref = (1 - t2) ** mp.mpf(0.25) / (mp.pi ** mp.mpf(0.25) * mp.sqrt(lam) * mp.sqrt(omt))
            phase = mp.exp(-abs(a) ** 2 / 2 - a**2 * (1 - mp.conj(tau)) / (2 * omt))
            return pref * phase, mp.sqrt(2 * (1 - t2)) * a / (omt * lam)

        (ca, va), (cb, vb) = parts(pa), parts(pb)
        big_a = 2 * mp.re((1 + tau) / (2 * omt * lam**2))
        big_b = mp.conj(va) + vb
        val = mp.conj(ca) * cb * mp.sqrt(mp.pi / big_a) * mp.exp(big_b**2 / (4 * big_a))
        return float(abs(val) ** 2)


def mode_symbol_moment(par, q, p, c, s, k: int) -> float:
    """The integral ``cli._mode_symbol_oracle`` takes with hq(x) =
    exp(-(x - c)^2 / s), as an exact Gaussian moment at 40 digits: over the
    plane, int exp(-z^T M z / 2 + h^T z + e) p'^k dz / (2 pi hbar)."""
    w = par.widths()
    with mp.workdps(40):
        # lam^2 and hbar^2 are squared in float, as the oracle squares them
        l2, h2, hbar = mp.mpf(par.lam**2), mp.mpf(par.hbar**2), mp.mpf(par.hbar)
        dq, dp, g = mp.mpf(w.delta_q_sq), mp.mpf(w.delta_p_sq), mp.mpf(w.gamma)
        q, p, c, s = (mp.mpf(v) for v in (q, p, c, s))
        b, d = 2 * g / hbar, l2 * dp / h2
        m = mp.matrix([[dq / l2 + 2 / s, b], [b, d]])
        h = mp.matrix([dq * q / l2 + b * p + 2 * c / s, d * p + b * q])
        e = -dq * q**2 / (2 * l2) - d * p**2 / 2 - b * q * p - c**2 / s
        mi = m**-1
        mean = mi * h
        mass = 2 * mp.pi / mp.sqrt(mp.det(m)) * mp.exp((h.T * mi * h)[0] / 2 + e)
        moment = (1, mean[1], mean[1] ** 2 + mi[1, 1])[k]
        return float(mass * moment / (2 * mp.pi * hbar))


def nonsep_norm(params, point) -> float:
    """int |psi|^2 over the plane at 40 digits for the wavefunction
    phase * nreal * exp(-x^T Q x / 2 + v^T x) of ``_wavefunction_parts``:
    the Gaussian integral of exp(-x^T Re(Q) x + 2 Re(v)^T x)."""
    q, v, nreal, phase = _wavefunction_parts(params, point)
    with mp.workdps(40):
        a, b = mp.matrix(q.real.tolist()), mp.matrix((2 * v.real).tolist())
        val = mp.pi / mp.sqrt(mp.det(a)) * mp.exp((b.T * a**-1 * b)[0] / 4)
        return float(val * mp.mpf(nreal) ** 2 * abs(mp.mpc(phase)) ** 2)


def gaussian_multiplication(cov, lam1: float, lam2: float, nmax: int) -> np.ndarray:
    """<n1 n2| g |m1 m2> for g the smoothing of exp(-(q1^2 + q2^2) / 2) by
    N(0, ``cov``), the flat index n1 (nmax + 1) + n2, mode 1 outermost.

    g(x) = det(S)^-1/2 exp(-x^T S^-1 x / 2) with S = I + cov, so with
    x_j = lam_j u_j each entry is int p_n1 p_m1(u1) p_n2 p_m2(u2) e^{-u^T A u} du,
    A = I + Lambda S^-1 Lambda / 2: one Gaussian times a polynomial of degree
    <= 4 nmax, which the tensor Gauss-Hermite rule of order 2 nmax + 1 on the
    principal axes of A integrates exactly.  p_n are scipy's Hermite
    polynomials, normalised under e^{-u^2}.
    """
    s = np.eye(2) + np.asarray(cov, dtype=float)
    lam = np.diag([lam1, lam2])
    evals, evecs = np.linalg.eigh(np.eye(2) + lam @ np.linalg.inv(s) @ lam / 2.0)
    t, w = np.polynomial.hermite.hermgauss(2 * nmax + 1)
    grid = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    u = (grid / np.sqrt(evals)) @ evecs.T
    weights = np.outer(w, w).ravel() / np.sqrt(np.prod(evals) * np.linalg.det(s))
    n = np.arange(nmax + 1)[:, None]
    norm = np.sqrt(2.0**n * special.factorial(n) * np.sqrt(np.pi))
    p1, p2 = (special.eval_hermite(n, u[:, j]) / norm for j in (0, 1))
    a = np.einsum("ak,bk,ck,dk,k->acbd", p1, p1, p2, p2, weights)
    return a.reshape((nmax + 1) ** 2, (nmax + 1) ** 2)


def twomode_vacuum_precision(params) -> np.ndarray:
    """Precision P of the two-mode vacuum weight, |c00(x)|^2 ~ exp(-x^T P x).

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


def whitened_rule_nd(prec, order: int):
    """Tensor Gauss-Hermite nodes and weights for integrals over R^d, any d.

    The rule is laid out on the principal axes of the d x d matrix ``prec``,
    scaled so that exp(-x^T prec x) is the Hermite weight (Jaeckel 2005); the
    weights returned carry that Gaussian back out (w e^{t^2} per axis), so
    that sum(w * g(x)) approximates the plain integral of g and is exact when
    g is exp(-x^T prec x) times a polynomial of degree <= 2 order - 1 in each
    principal coordinate.  Returns nodes (order^d, d), first axis slowest,
    and weights (order^d,).  A ``prec`` that is not finite and positive
    definite (its scales overflowed), or whose determinant leaves the normal
    float range although each eigenvalue is finite, raises NonConvergent.
    """
    prec = np.asarray(prec, dtype=float)
    d = prec.shape[0]
    if not np.all(np.isfinite(prec)):
        raise NonConvergent("the Gaussian weight's precision is not finite")
    evals, evecs = np.linalg.eigh(prec)
    if not evals[0] > 0.0:
        raise NonConvergent("the Gaussian weight's precision is not positive definite")
    with np.errstate(over="ignore", under="ignore"):
        det = np.prod(evals)
    if not np.finfo(float).tiny <= det < np.inf:
        raise NonConvergent(
            f"the Gaussian weight's precision has eigenvalues from {evals[0]:.3g} to "
            f"{evals[-1]:.3g}; their product {det:.3g} is outside the float range"
        )
    nodes, weights = hermgauss(order)
    axes = np.meshgrid(*([nodes] * d), indexing="ij")
    t = np.stack([a.ravel() for a in axes], axis=1)
    pts = (t / np.sqrt(evals)) @ evecs.T
    w1 = weights * np.exp(nodes**2)
    idx = "ijklmnop"[:d]
    weights = np.einsum(",".join(idx) + "->" + idx, *([w1] * d)).ravel()
    return pts, weights / np.sqrt(det)


def quantise_4d(params, field, nmax: int, degree):
    """4D phase-space quadrature of f(q1, q2, p1, p2) against the two-mode family.

    Every Fock coefficient of ``_fock_batch`` is the vacuum amplitude c00
    times a polynomial of degree n + m in the phase point, so each matrix
    entry of a field of polynomial degree ``degree`` integrates exp(-x^T P x)
    times a polynomial of degree <= 4 nmax + degree.  A tensor Gauss-Hermite
    rule whitened by P (``whitened_rule_nd``) of order k0 = ceil((4 nmax +
    degree + 1) / 2) is exact for it up to rounding; the orders are refined
    as ``numerics._refine``
    describes (``degree`` None: bounded).  Returns the (nmax + 1)^2 matrix
    at the finest order (measure d2q d2p / (2 pi hbar)^2), its nodes, shape
    (N, 4) ordered (q1, q2, p1, p2), and the QuadratureReport.
    """
    prec = twomode_vacuum_precision(params)
    dim = (nmax + 1) ** 2
    coefficients = lambda x: _fock_batch(params, x, nmax).reshape(-1, dim)
    norm = (2.0 * np.pi * params.hbar) ** 2

    def evaluate(order):
        pts, weights = whitened_rule_nd(prec, order)
        return (*_quantise_on_rule(coefficients, field, pts, weights, norm), pts)

    return _refine(2, nmax, degree, lambda order: order**4, evaluate)
