"""Foundational numerical kernels.

Everything downstream (state construction, quantisation maps, portraits,
dynamics) is built on the pieces collected here: physicists' Hermite
polynomials, closed-form Gaussian integrals, Gauss-Hermite and
Gauss-Legendre rules, the tensor Gauss-Hermite rule whitened by a Gaussian
(``whitened_rule``) with the order-refinement loop (``_refine``) and the
chunked projector sum (``_quantise_on_rule``) that quantise fields of one
and of two modes, the one Gaussian-smoothing routine behind every portrait
and position kernel (``gaussian_smooth``), truncated boson-operator algebra,
and the adaptive DOP853 ODE driver (``solve_ode``), which runs its stages on
Python floats.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.integrate._ivp import dop853_coefficients as _dop853

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


# ----------------------------------------------------------------------
# adaptive ODE driver: the embedded DOP853 pair of Prince & Dormand (J. Comput.
# Appl. Math. 7:67, 1981) with its 7th-order dense output, following
# Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5 and II.6, and scipy's
# step controller.  The tableau is scipy's, as Python floats; row s of _A
# holds the s coefficients of stage s.

_A = [row[:s].tolist() for s, row in enumerate(_dop853.A)]
_C = _dop853.C.tolist()
_B = _dop853.B.tolist()
_E3 = _dop853.E3.tolist()
_E5 = _dop853.E5.tolist()
_D = _dop853.D.tolist()
_N_STAGES = _dop853.N_STAGES
# the stages of one step after the first, and the three extra stages of the
# dense output, as (a_s, c_s)
_STEP_STAGES = list(zip(_A[1:_N_STAGES], _C[1:_N_STAGES]))
_DENSE_STAGES = list(zip(_A[_N_STAGES + 1 :], _C[_N_STAGES + 1 :]))
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # the error estimator is of order 7
# accepted and rejected steps together; over 70 times the largest preset's
_MAX_STEPS = 50_000


@dataclass(frozen=True)
class OdeProblem:
    """Initial-value problem passed to :func:`solve_ode`.

    ``rhs(t, y)`` takes the time and the state as a sequence of ``dimension``
    Python floats and returns dy/dt as a sequence of as many floats (a tuple
    or a list; a numpy array works, but slowly).  ``y0`` must be finite.
    Default tolerances leave the energy-drift acceptance checks an order of
    magnitude of headroom below 1e-6.
    """

    dimension: int
    rhs: Callable
    t_span: tuple[float, float]
    y0: np.ndarray
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11

    def __post_init__(self):
        y0 = np.asarray(self.y0, dtype=float)
        if y0.shape != (self.dimension,):
            raise ValueError("y0 must have shape (dimension,)")
        if not np.all(np.isfinite(y0)):
            raise ValueError("y0 must be finite")
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
    reached and "failed" when a limit stopped the run and the caller asked for
    the partial solution instead of an exception; ``message`` then names the
    limit.  ``interpolant`` is the dense output t -> y(t), of shape
    (dimension,) at a scalar t and (dimension, len(t)) at an array; on a
    failed run it covers only the integrated range, and without any accepted
    step it is None.  Every run satisfies
    ``n_rhs_evals == 2 + 15 n_accepted + 12 n_rejected``.
    """

    t: np.ndarray
    y: np.ndarray
    status: str
    interpolant: Callable | None
    n_rhs_evals: int
    n_accepted: int = 0
    n_rejected: int = 0
    message: str = ""


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


def _initial_step(rhs, t0, y0, f0, span, rel_tol, abs_tol) -> float:
    """scipy's ``select_initial_step`` (Hairer, Norsett & Wanner, sec. II.4)
    for an error estimator of order 7; one RHS evaluation."""
    scale = [abs_tol + abs(v) * rel_tol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = rhs(t0 + h0, [v + h0 * f for v, f in zip(y0, f0)])
    # where numpy divides by zero, the step comes out as zero
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0 if h0 > 0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        d = max(d1, d2)
        h1 = (0.01 / d) ** (1.0 / 8.0) if d > 0 else math.inf
    return min(100 * h0, h1, span)


def _dense_values(steps, ends, times) -> np.ndarray:
    """The dense output at ``times``, of shape (len(times), dimension).

    ``steps`` holds one row per accepted step: t_old, h, y_old and the seven
    coefficients F_0..F_6 of its interpolant; ``ends`` the steps' end times.
    A time in (t_old, end] takes that step, as in scipy (the first step also
    takes t_old itself), and the polynomial is summed in scipy's order.
    """
    k = np.minimum(np.searchsorted(ends, times, side="left"), len(steps) - 1)
    row = steps[k]
    n = (steps.shape[1] - 2) // 8
    x = ((times - row[:, 0]) / row[:, 1])[:, None]
    y = np.zeros((len(times), n))
    for i in range(7):
        y += row[:, 2 + n * (7 - i) : 2 + n * (8 - i)]
        y *= x if i % 2 == 0 else 1.0 - x
    return y + row[:, 2 : 2 + n]


def _combine(y, h, a, cols) -> list:
    """y + h sum_i a_i K_i, one state component (and one column of stage
    values) at a time."""
    return [v + h * sum(map(mul, a, col)) for v, col in zip(y, cols)]


def _add_stages(rhs, t, y, h, K, stages) -> None:
    """Append to the stage list K the stages (a_s, c_s), each evaluated at
    the combination of the stages before it."""
    for a, c in stages:
        K.append(rhs(t + c * h, _combine(y, h, a, zip(*K))))


def solve_ode(problem: OdeProblem, t_eval=None, raise_on_failure: bool = True) -> OdeSolution:
    """Integrate an OdeProblem with the embedded DOP853 pair.

    The 8th-order pair conserves quadratic invariants of smooth Hamiltonian
    problems to ~1e-10 over hundreds of periods at the default tolerances,
    where a 4/5 pair drifts close to the 1e-6 acceptance budget.  The loop
    mirrors scipy's ``solve_ivp(method="DOP853")``: the same first step, the
    same E5/E3 error norm and the same controller (safety 0.9, factors in
    [0.2, 10], exponent -1/8, no growth right after a rejection), so it
    takes scipy's steps up to rounding.  The error norm's E5 sums cancel to
    about 1e-5 relative, and the step size follows the norm to the power
    -1/8, so the summation order alone moves the step ends by up to 7e-8 on
    the fig6a preset (and costs fig4a one more rejected step), while the
    samples agree to 3e-12 or better.  Each step runs its twelve stages on
    Python floats, one ``rhs(t, y)`` call per stage (see :class:`OdeProblem`),
    and each accepted step three more for the 7th-order dense output, whose
    coefficients are kept.  The samples at ``t_eval`` are
    evaluated from them in one pass at the end; without ``t_eval`` they are
    the step ends.

    Two limits bound every run:

    * a minimum step of ten spacings of the float at the span's far end,
      ``10 * np.spacing(max(|t0|, |t1|))``; a rejected step below it stops
      the run;
    * a budget of 50 000 steps, accepted and rejected together.

    A run stopped by either ends with status "failed" and a message naming
    the limit.  With ``raise_on_failure=False`` it returns the samples up to
    the last accepted step (non-finite rows dropped), so callers can classify
    the truncated trajectory.

    Raises
    ------
    NonFiniteState
        if the state leaves the finite range.
    StepSizeUnderflow
        if a limit stops the run and ``raise_on_failure`` is set.
    """
    rhs = problem.rhs
    rtol, atol = problem.rel_tol, problem.abs_tol
    t0, t1 = (float(v) for v in problem.t_span)
    n = problem.dimension
    min_step = 10.0 * float(np.spacing(max(abs(t0), abs(t1))))

    t = t0
    y = problem.y0.tolist()
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t1 - t, rtol, atol)
    n_evals = 2
    steps = []  # per accepted step: t_old, h, y_old, F_0..F_6
    ends = []
    y_ends = []
    n_accepted = n_rejected = 0
    message = ""
    if not all(map(math.isfinite, f)):
        # no step size follows from a non-finite derivative
        message = f"the right-hand side is not finite at t0 = {t!r}"
    while t < t1 and not message:
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                message = f"step size fell below the minimum step {min_step:.3g} at t = {t!r}"
                break
            if n_accepted + n_rejected >= _MAX_STEPS:
                message = f"step budget of {_MAX_STEPS} steps exhausted at t = {t!r}"
                break
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            _add_stages(rhs, t, y, h, K, _STEP_STAGES)
            y_new = _combine(y, h, _B, zip(*K))
            f_new = rhs(t_new, y_new)
            n_evals += 12
            K.append(f_new)
            cols = list(zip(*K))
            scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
            err5 = [sum(map(mul, _E5, col)) / s for col, s in zip(cols, scale)]
            err3 = [sum(map(mul, _E3, col)) / s for col, s in zip(cols, scale)]
            e5 = sum(e * e for e in err5)
            e3 = sum(e * e for e in err3)
            # zero whenever e5 is, as in scipy, and never a division by zero
            error_norm = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                n_accepted += 1
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
            n_rejected += 1
        if message:
            break
        _add_stages(rhs, t, y, h, K, _DENSE_STAGES)
        n_evals += 3
        cols = list(zip(*K))
        dy = [b - a for a, b in zip(y, y_new)]
        row = [t, h, *y, *dy]
        row += [h * fo - d for fo, d in zip(f, dy)]
        row += [2.0 * d - h * (fn + fo) for d, fn, fo in zip(dy, f_new, f)]
        for d_row in _D:
            row += [h * sum(map(mul, d_row, col)) for col in cols]
        steps.append(row)
        ends.append(t_new)
        y_ends.append(y_new)
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
    interpolant = None
    if steps:

        def interpolant(times):
            times = np.asarray(times, dtype=float)
            return _dense_values(table, ends, times.reshape(-1)).T.reshape((n,) + times.shape)

    counts = {"n_rhs_evals": n_evals, "n_accepted": n_accepted, "n_rejected": n_rejected}
    if message:
        if not raise_on_failure:
            keep = np.all(np.isfinite(ys), axis=1)
            return OdeSolution(ts[keep], ys[keep], "failed", interpolant, message=message, **counts)
        tail = ys[-1] if ts.size else problem.y0
        if not np.all(np.isfinite(tail)):
            raise NonFiniteState(message)
        raise StepSizeUnderflow(message)
    if not np.all(np.isfinite(ys)):
        raise NonFiniteState("non-finite values in the solution samples")
    return OdeSolution(ts, ys, "finished", interpolant, **counts)
