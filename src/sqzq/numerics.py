"""Foundational numerical kernels.

Everything downstream (state construction, quantisation maps, portraits,
dynamics) is built on the pieces collected here: physicists' Hermite
polynomials, closed-form Gaussian integrals, Gauss-Hermite and
Gauss-Legendre rules, the tensor Gauss-Hermite rule whitened by a Gaussian
(``whitened_rule``) with the order-refinement loop (``_refine``) and the
chunked projector sum (``_quantise_on_rule``) that quantise fields of one
and of two modes, the one Gaussian-smoothing routine behind every portrait
and position kernel (``gaussian_smooth``), truncated boson-operator algebra,
and an adaptive ODE driver.

All functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy import integrate as _sint

from .errors import (
    ConfigError,
    GrowthViolation,
    NonConvergent,
    NonFiniteState,
    StepSizeUnderflow,
)

__all__ = [
    "QuadratureRule",
    "QuadratureReport",
    "TruncatedOperator",
    "OdeProblem",
    "OdeSolution",
    "hermite_phys",
    "gauss_hermite_rule",
    "legendre_box_rule",
    "whitened_rule",
    "gaussian_smooth",
    "integrate_gaussian_quadratic",
    "solve_ode",
]

# Gaussian windows are cut at this many standard deviations; the discarded
# tail is below exp(-36), invisible at every tolerance used downstream
_NSIGMA = 8.5
# the rule order of gaussian_smooth (per axis, per panel) and its block size
# in nodes, which keeps each work array near 2 MB
_SMOOTH_ORDER = 90
_SMOOTH_BLOCK_NODES = 2**18
# the 38^2 x 32^2 Gauss-Legendre box the whitened rule replaced: no field is
# allowed to cost more nodes than it did
_NODE_BUDGET = 38**2 * 32**2
_ORDER_STEP = 4
# the default stop of ``_refine``, relative to max(1, max|A|)
_CONVERGED = 1e-6
# a Gaussian normaliser below this (subnormal) or infinite has lost its digits
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QuadratureRule:
    """One-dimensional quadrature rule.

    Attributes
    ----------
    nodes : ndarray
        Abscissae.
    weights : ndarray
        Weights, same length as ``nodes``; a Gauss-Hermite rule's carry the
        weight e^{-x^2} built in.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1D arrays of equal length")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> complex:
        """Apply the rule to a vectorised integrand."""
        return np.sum(self.weights * np.asarray(f(self.nodes)))


@dataclass(frozen=True)
class QuadratureReport:
    """Convergence witnesses of a quantised operator, from its own quadrature.

    ``identity_deviation`` is the max-entry error of quantising f = 1 on the
    nodes actually used (a direct measure of grid adequacy for the family);
    ``hermiticity_defect`` the largest anti-Hermitian entry, which must sit
    at quadrature level for real f.  ``convergence_witness`` is the max-entry
    change of the operator between the last two rule orders evaluated; for a
    stack of operators, one per field, both are the largest over the stack;
    ``nodes`` counts the nodes evaluated over all orders (on the two-mode
    position route, joint outer x inner nodes).
    """

    identity_deviation: float
    hermiticity_defect: float
    convergence_witness: float
    nodes: int

    @classmethod
    def of(cls, mat, ident, convergence_witness, nodes) -> "QuadratureReport":
        """Report on ``mat``, one operator or a stack of them, with ``ident``,
        the quantised f = 1 on the same nodes."""
        return cls(
            identity_deviation=float(np.max(np.abs(ident - np.eye(ident.shape[0])))),
            hermiticity_defect=float(np.max(np.abs(mat - mat.conj().swapaxes(-1, -2))) / 2.0),
            convergence_witness=convergence_witness,
            nodes=int(nodes),
        )


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


# Reference rules per order, shared by every caller: read-only, so no caller
# can change the rule another one receives.
@lru_cache(maxsize=64)
def _hermgauss(n: int):
    return _read_only(*hermgauss(n))


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return _read_only(*leggauss(order))


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """Gauss-Hermite rule of order ``n`` (physicists' weight e^{-x^2}).

    Exact for polynomials of degree <= 2n-1.  The nodes and weights are
    shared between calls of the same order and are read-only.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    nodes, weights = _hermgauss(n)
    return QuadratureRule(nodes, weights)


def legendre_box_rule(a: float, b: float, order: int, panels: int = 1) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [a, b] with ``panels`` equal panels."""
    if not b > a:
        raise ValueError("need b > a")
    if order < 1 or panels < 1:
        raise ValueError("order and panels must be >= 1")
    x0, w0 = _leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return QuadratureRule(nodes, weights)


def whitened_rule(prec, order: int):
    """Tensor Gauss-Hermite nodes and weights for integrals over R^d.

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
    if not _TINY <= det < np.inf:
        raise NonConvergent(
            f"the Gaussian weight's precision has eigenvalues from {evals[0]:.3g} to "
            f"{evals[-1]:.3g}; their product {det:.3g} is outside the float range"
        )
    rule = gauss_hermite_rule(order)
    axes = np.meshgrid(*([rule.nodes] * d), indexing="ij")
    t = np.stack([a.ravel() for a in axes], axis=1)
    pts = (t / np.sqrt(evals)) @ evecs.T
    w1 = rule.weights * np.exp(rule.nodes**2)
    idx = "ijklmnop"[:d]
    weights = np.einsum(",".join(idx) + "->" + idx, *([w1] * d)).ravel()
    return pts, weights / np.sqrt(det)


def _refuse_beyond_budget(modes: int, nmax: int, degree: int, cost) -> int:
    """The lowest Gauss-Hermite order exact for degree 2 modes nmax + degree,
    unless it and the next order alone exceed the node budget."""
    order = -(-(2 * modes * nmax + degree + 1) // 2)
    if cost(order) + cost(order + _ORDER_STEP) > _NODE_BUDGET:
        raise ConfigError(
            f"nmax = {nmax} with field degree {degree} needs Gauss-Hermite order "
            f"{order}, beyond the node budget of {_NODE_BUDGET}"
        )
    return order


def _refine(modes: int, nmax: int, degree: int, cost, evaluate, stop: float = _CONVERGED):
    """Orders k0, k0 + 4, ... of ``evaluate(order) -> (mat, ident, pts)``.

    A field of polynomial degree ``degree`` in a basis of ``modes`` modes up
    to ``nmax`` quanta integrates a Gaussian times a polynomial of degree
    <= 2 modes nmax + degree, exactly from order k0 = ceil((2 modes nmax +
    degree + 1) / 2) on.  Stops once the max-entry change between two
    successive orders, the convergence witness, is <= ``stop`` max(1,
    max|A|), or once the next order would take the node count, summed over
    ``cost(order)``, past the budget; polynomial fields stop after one
    comparison.  A basis whose first two orders alone exceed the budget is
    refused up front; a non-finite entry raises NonConvergent.
    """
    order = _refuse_beyond_budget(modes, nmax, degree, cost)
    nodes = 0
    prev = None
    while True:
        mat, ident, pts = evaluate(order)
        nodes += cost(order)
        if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(ident))):
            raise NonConvergent(f"quadrature of order {order} gives non-finite entries")
        if prev is not None:
            witness = float(np.max(np.abs(mat - prev)))
            converged = witness <= stop * max(1.0, float(np.max(np.abs(mat))))
            if converged or nodes + cost(order + _ORDER_STEP) > _NODE_BUDGET:
                break
        prev = mat
        order += _ORDER_STEP
    return mat, pts, QuadratureReport.of(mat, ident, witness, nodes)


def _quantise_on_rule(coefficients, field, pts, weights, norm: float, chunk: int = 20000):
    """Quantised field and identity on one rule, ``chunk`` nodes at a time:
    A_nm = sum_k w_k f(x_k) c_n(x_k) conj(c_m(x_k)) / norm, with the Fock
    coefficients (P, dim) of the states at nodes x (P, d) from
    ``coefficients(x)`` and the measure's norm (2 pi hbar)^modes.  A field
    returning a stack (F, P) of F fields gives a stack (F, dim, dim) of
    operators from the one evaluation of the coefficients."""
    fv = np.asarray(field(*pts.T), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise GrowthViolation("field evaluates non-finite on the quadrature nodes")
    wf = (weights * fv).reshape(-1, weights.size)
    acc = ident = 0.0
    for s in range(0, pts.shape[0], chunk):
        cc = coefficients(pts[s : s + chunk])
        # one field at a time, so a stack's work arrays stay one field's size
        acc = acc + np.stack([(cc * w[s : s + chunk, None]).T @ cc.conj() for w in wf])
        ident = ident + (cc * weights[s : s + chunk, None]).T @ cc.conj()
    return acc.reshape(fv.shape[:-1] + acc.shape[1:]) / norm, ident / norm


def _tensor(nodes, weights):
    """Tensor product of d = 1 or 2 per-axis rules, first axis slowest: nodes and
    weights (d, ..., n) -> points (d, ..., n^d) and weights (..., n^d)."""
    if nodes.shape[0] == 1:
        return nodes, weights[0]
    n = nodes.shape[-1]
    w = weights[0][..., :, None] * weights[1][..., None, :]
    points = np.stack([np.repeat(nodes[0], n, axis=-1), np.tile(nodes[1], n)])
    return points, w.reshape(*w.shape[:-2], n * n)


def gaussian_smooth(f, centres, precision, support=None, pad: float = _NSIGMA) -> np.ndarray:
    """Gaussian smoothing E[f(U)] with U ~ N(c, precision^-1) at every centre c.

    ``centres`` has shape (..., d) with d = 1 or 2, ``precision`` is d x d,
    and the result has shape (...); ``f`` takes d equally shaped arrays.
    Without ``support`` the rule is ``whitened_rule`` of order 90 for the
    Gaussian itself, exact for polynomial f of degree <= 179, and a
    ``precision`` that is not positive definite raises NonConvergent.
    ``support`` = ((a1, b1), ...) declares the box outside which f
    vanishes: each axis then integrates over the centre's window c +- pad
    sigma (sigma the marginal standard deviation) clipped to (a, b), on a
    two-panel order-90 Gauss-Legendre rule, and a window that misses the
    support gives exactly 0.  Centres go in blocks of at most 2^18 nodes.
    """
    prec = np.atleast_2d(np.asarray(precision, dtype=float))
    d = prec.shape[0]
    centres = np.asarray(centres, dtype=float)
    if d not in (1, 2) or prec.shape != (d, d) or centres.shape[-1:] != (d,):
        raise ValueError("need a 1x1 or 2x2 precision and centres of shape (..., d)")
    flat = centres.reshape(-1, d).T
    out = np.empty(flat.shape[1])
    if support is None:
        # the rule whitened by exp(-y^T prec y / 2), times that Gaussian
        y, w = whitened_rule(prec / 2.0, _SMOOTH_ORDER)
        offsets, weights = y.T, w * np.exp(-0.5 * np.sum((y @ prec) * y, axis=1))
        per_centre = weights.size
    else:
        box = np.asarray(support, dtype=float).reshape(d, 2)
        reach = pad * np.sqrt(np.diag(np.linalg.inv(prec)))
        ref = legendre_box_rule(-1.0, 1.0, _SMOOTH_ORDER, 2)
        per_centre = ref.nodes.size**d
    scale = (2.0 * np.pi) ** (d / 2) / np.sqrt(np.linalg.det(prec))
    block = max(1, _SMOOTH_BLOCK_NODES // per_centre)
    for s in range(0, flat.shape[1], block):
        c = flat[:, s : s + block, None]
        if support is None:
            u, w, seen = c + offsets[:, None, :], weights, True
        else:
            lo = np.maximum(box[:, :1], c[..., 0] - reach[:, None])
            hi = np.minimum(box[:, 1:], c[..., 0] + reach[:, None])
            half = np.maximum(hi - lo, 0.0)[..., None] / 2.0
            u, w = _tensor((lo + hi)[..., None] / 2.0 + half * ref.nodes, half * ref.weights)
            du = u - c
            w = w * np.exp(-0.5 * np.sum(np.tensordot(prec, du, 1) * du, axis=0))
            seen = np.all(hi > lo, axis=0)
        # a window that misses the support contributes exactly 0
        out[s : s + block] = np.where(seen, np.sum(w * f(*u), axis=-1), 0.0)
    return (out / scale).reshape(centres.shape[:-1])


def hermite_phys(n: int, z):
    """Physicists' Hermite polynomial H_n(z) for real or complex ``z``.

    Three-term recurrence H_{n+1}(z) = 2 z H_n(z) - 2 n H_{n-1}(z); the
    recurrence is exact up to rounding and well behaved on the whole complex
    plane, unlike a monomial-expansion evaluation.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    z = np.asarray(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    h_prev = np.ones_like(z)
    if n == 0:
        return h_prev[0] if scalar else h_prev
    h = 2.0 * z
    for k in range(1, n):
        h_prev, h = h, 2.0 * z * h - 2.0 * k * h_prev
    return h[0] if scalar else h


def integrate_gaussian_quadratic(A, b=None, c=0.0) -> complex:
    """Closed-form 2D Gaussian integral with a complex quadratic form.

    Evaluates ``integral exp(-x^T A x + b^T x + c) d^2x`` over the plane:

        pi * det(A)^(-1/2) * exp(b^T A^(-1) b / 4 + c),

    with the principal branch of the square root.  For a 2x2 complex symmetric
    ``A`` with positive-definite real part both eigenvalues lie in the right
    half-plane, so the principal branch of det(A)^(-1/2) is the correct
    analytic continuation from real positive-definite matrices.

    Raises
    ------
    NonConvergent
        if Re(A) is not positive definite (the integral diverges; downstream
        this signals the |tau| -> 1 degeneracy).
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (2, 2):
        raise ValueError("A must be 2x2")
    if abs(A[0, 1] - A[1, 0]) > 1e-12 * max(1.0, abs(A[0, 1])):
        raise ValueError("A must be symmetric")
    reA = A.real
    # Sylvester criterion for the 2x2 real part
    if not (reA[0, 0] > 0 and np.linalg.det(reA) > 0):
        raise NonConvergent("Re(A) is not positive definite")
    if b is None:
        b = np.zeros(2, dtype=complex)
    b = np.asarray(b, dtype=complex)
    detA = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    quad = 0.25 * b @ np.linalg.solve(A, b)
    return np.pi / np.sqrt(detA) * np.exp(quad + complex(c))


@dataclass(frozen=True)
class TruncatedOperator:
    """Operator on the Fock space truncated to dimension ``dim``.

    The annihilation matrix satisfies a[n, n+1] = sqrt(n+1); the commutator
    [a, a^dag] equals the identity on the upper-left (dim-1) block only, which
    is why every operator assertion downstream restricts itself to an interior
    block (default dim/2) where truncation leakage is negligible.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if entries.shape != (self.dim, self.dim):
            raise ValueError("entries must be a dim x dim matrix")
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def annihilation(dim: int) -> "TruncatedOperator":
        m = np.zeros((dim, dim), dtype=complex)
        n = np.arange(dim - 1)
        m[n, n + 1] = np.sqrt(n + 1.0)
        return TruncatedOperator(dim, m)

    @staticmethod
    def position(dim: int, lam: float = 1.0) -> "TruncatedOperator":
        """x = lam (a + a^dag)/sqrt(2)."""
        a = TruncatedOperator.annihilation(dim).entries
        return TruncatedOperator(dim, lam * (a + a.conj().T) / np.sqrt(2.0))

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.dim, self.entries.conj().T)

    def interior(self, k: int | None = None) -> np.ndarray:
        """Upper-left k x k block (default dim // 2), where entries are converged."""
        k = self.dim // 2 if k is None else k
        return self.entries[:k, :k]

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return TruncatedOperator(self.dim, self.entries @ other.entries)


@dataclass(frozen=True)
class OdeProblem:
    """Initial-value problem passed to :func:`solve_ode`.

    ``rhs(t, y) -> dy/dt``.  Default tolerances leave the energy-drift
    acceptance checks an order of magnitude of headroom below 1e-6.
    """

    dimension: int
    rhs: Callable
    t_span: tuple[float, float]
    y0: np.ndarray
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    method: str = "DOP853"
    max_step: float = np.inf
    events: tuple = field(default=())

    def __post_init__(self):
        y0 = np.asarray(self.y0, dtype=float)
        if y0.shape != (self.dimension,):
            raise ValueError("y0 must have shape (dimension,)")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        t0, t1 = self.t_span
        if not t1 > t0:
            raise ValueError("need t1 > t0")
        object.__setattr__(self, "y0", y0)


@dataclass(frozen=True)
class OdeSolution:
    """Result of :func:`solve_ode`.

    ``y`` has shape (len(t), dimension).  ``status`` is "finished" when t1 was
    reached, "event" when a terminal event stopped the run early, and "failed"
    when the integrator stalled and the caller asked for the partial solution
    instead of an exception.  ``interpolant`` is a dense-output callable
    t -> y(t); on a failed run it only covers the integrated range.
    """

    t: np.ndarray
    y: np.ndarray
    status: str
    interpolant: Callable
    n_rhs_evals: int
    t_events: tuple = ()
    y_events: tuple = ()
    message: str = ""


def solve_ode(problem: OdeProblem, t_eval=None, raise_on_failure: bool = True) -> OdeSolution:
    """Adaptive embedded Runge-Kutta integration of an OdeProblem.

    DOP853 by default (8th-order embedded pair): on smooth Hamiltonian
    problems it conserves quadratic invariants to ~1e-10 over hundreds of
    periods at the default tolerances, where a 4/5 pair drifts close to the
    1e-6 acceptance budget.  Dense output is always on, so callers may sample
    the interpolant at arbitrary resolution.

    With ``raise_on_failure=False`` a stalled integration returns the samples
    accumulated so far (non-finite rows dropped) with status "failed" instead
    of raising, so callers can classify the truncated trajectory.

    Raises
    ------
    NonFiniteState
        if the state leaves the finite range.
    StepSizeUnderflow
        if the integrator stalls (stiff/singular region).
    """
    sol = _sint.solve_ivp(
        problem.rhs,
        problem.t_span,
        problem.y0,
        method=problem.method,
        rtol=problem.rel_tol,
        atol=problem.abs_tol,
        dense_output=True,
        t_eval=t_eval,
        events=list(problem.events) if problem.events else None,
        max_step=problem.max_step,
    )
    # with t_eval and no accepted step, scipy leaves t and y as empty lists
    t = np.asarray(sol.t, dtype=float)
    y = np.asarray(sol.y, dtype=float).reshape(problem.dimension, t.size)
    if sol.status == -1:
        if not raise_on_failure:
            keep = np.all(np.isfinite(y), axis=0)
            return OdeSolution(
                t=t[keep],
                y=y[:, keep].T,
                status="failed",
                interpolant=getattr(sol, "sol", None),
                n_rhs_evals=sol.nfev,
                t_events=tuple(sol.t_events) if sol.t_events is not None else (),
                y_events=tuple(sol.y_events) if sol.y_events is not None else (),
                message=str(sol.message),
            )
        tail = y[:, -1] if t.size else problem.y0
        if not np.all(np.isfinite(tail)):
            raise NonFiniteState(sol.message)
        raise StepSizeUnderflow(sol.message)
    if not np.all(np.isfinite(y)):
        raise NonFiniteState("non-finite values in the solution samples")
    status = "finished" if sol.status == 0 else "event"
    return OdeSolution(
        t=t,
        y=y.T,
        status=status,
        interpolant=sol.sol,
        n_rhs_evals=sol.nfev,
        t_events=tuple(sol.t_events) if sol.t_events is not None else (),
        y_events=tuple(sol.y_events) if sol.y_events is not None else (),
    )
