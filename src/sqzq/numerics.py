"""Foundational numerical kernels.

Everything downstream (state construction, quantisation maps, portraits,
dynamics) is built on the pieces collected here: physicists' Hermite
polynomials, closed-form Gaussian integrals, Gauss-Legendre rules, the one
Gauss-Hermite rule builder for a Gaussian weight (``gaussian_rule``, which
``whitened_rule`` lays on principal axes; every rule is a (nodes, weights)
pair) with the order-refinement loop (``_refine``) that quantises fields of
one and of two modes, the one-mode chunked projector sum
(``_quantise_on_rule``), the one Gaussian-smoothing
routine behind every portrait (``gaussian_smooth``: a
stack of fields in one pass, on an order-120 Hermite rule or a supported
field's clipped 3 x 60 Legendre window), truncated boson-operator algebra,
and the adaptive DOP853 ODE driver (``solve_ode``), which runs its stages in
straight-line code over the tableau's nonzero entries: on Python floats, or,
for a problem whose right-hand side also comes in C, as the same operations
compiled (``native``), with the same bits.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, GrowthViolation, NonConvergent, NonFiniteState

__all__ = [
    "QuadratureReport",
    "TruncatedOperator",
    "CompiledRhs",
    "OdeProblem",
    "OdeSolution",
    "hermite_phys",
    "legendre_box_rule",
    "gaussian_rule",
    "whitened_rule",
    "gaussian_smooth",
    "integrate_gaussian_quadratic",
    "solve_ode",
]

# Gaussian windows are cut at this many standard deviations; the discarded
# tail is below exp(-36), invisible at every tolerance used downstream
_NSIGMA = 8.5
# gaussian_smooth's Gauss-Hermite order per axis (a field exp(-(x - c)^2 / s),
# s a third of the kernel's variance, is 5e-12 off at order 90 and 3e-15 at 120),
# its clipped window's Legendre layout (numpy's weights are 1e-12 off near panel
# ends; three panels put the centre mid-panel) and its block size in nodes,
# which keeps each work array near 2 MB
_SMOOTH_ORDER = 120
_WINDOW_ORDER, _WINDOW_PANELS = 60, 3
_SMOOTH_BLOCK_NODES = 2**18
# the 38^2 x 32^2 Gauss-Legendre box the whitened rule replaced: no field is
# allowed to cost more nodes than it did
_NODE_BUDGET = 38**2 * 32**2
# the highest Gauss-Hermite order whose weights numpy's ``hermgauss`` can give:
# at 371 the sum it normalises by overflows, so every weight is 0, and from
# 372 on they are NaN (both with a RuntimeWarning)
_MAX_ORDER = 370
_ORDER_STEP = 4
# the nodes ``_quantise_on_rule`` takes at a time: ``sqzq quantise q
# --fock-dim 340`` ends on a 117 649-node rule, whose (nodes x 341) complex
# arrays would take about 640 MB each at once
_RULE_CHUNK = 20000
# ``_refine``'s default stop and its polynomial check, relative to max(1, max|A|)
_CONVERGED = 1e-6
_EXACT = 1e-12
# a Gaussian normaliser below this (subnormal) or infinite has lost its digits
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QuadratureReport:
    """Convergence witnesses of a quantised operator, from its own quadrature.

    ``identity_deviation`` is the max-entry error of quantising f = 1 on the
    nodes actually used (a direct measure of grid adequacy for the family);
    ``hermiticity_defect`` the largest anti-Hermitian entry, which must sit
    at quadrature level for real f.  ``convergence_witness`` is the max-entry
    change of the operator between the last two rule orders evaluated; for a
    stack of operators, one per field, both are the largest over the stack;
    ``nodes`` counts the field values over all orders, the points at which
    the field was evaluated (a two-mode position field is evaluated on
    position pairs only, its momenta integrated exactly).
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


def legendre_box_rule(a: float, b: float, order: int, panels: int):
    """Composite Gauss-Legendre rule on [a, b] with ``panels`` equal panels of
    ``order`` nodes each, as (nodes, weights)."""
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
    return nodes, weights


def gaussian_rule(prec, orders):
    """Gauss-Hermite rule for the weight exp(-x^T prec x) on R^d, d = len(orders)
    = 1 or 2, laid out as x0's marginal, of precision s0 = a - (b / c) b, times
    x1 | x0, of precision s1 = c and mean -(b / c) x0 (prec = [[a, b], [b, c]],
    b read from prec[0, 1]; d = 1: s0 = a), each at its own order.  Returns
    nodes (N, d), x0 slowest, and weights w0 e^{t0^2} w1 e^{t1^2} / sqrt(s0 s1),
    so sum(w * g(x)) is the integral of g, exact for the weight times a
    polynomial of total degree <= 2 orders[0] - 1 and degree <= 2 orders[1] - 1
    in x1.  A factor precision that is not positive, or a product s0 s1
    outside [tiny, inf), raises NonConvergent.
    """
    prec = np.asarray(prec, dtype=float)
    if len(orders) not in (1, 2) or prec.shape != (len(orders),) * 2:
        raise ValueError("need one or two orders and a matching square precision")
    # in Python floats, a weight with no rule fails the checks below, warning-free
    (a, b), (_, c) = prec.tolist() if len(orders) == 2 else ([prec.item(), 0.0], [0.0, 1.0])
    slope = b / c if c > 0.0 else math.nan
    scales = [a - slope * b, c][: len(orders)]
    det = math.prod(scales)
    if not all(s > 0.0 for s in scales):
        raise NonConvergent("the Gaussian weight's precision is not positive definite")
    if not _TINY <= det < np.inf:
        raise NonConvergent(f"the Gaussian weight's factor precisions multiply to {det:.3g}, "
                            "outside the float range")
    rules = [_hermgauss(n) for n in orders]
    nodes = [t / np.sqrt(s) for (t, _), s in zip(rules, scales)]
    weights = [w * np.exp(t**2) for t, w in rules]
    if len(orders) == 1:
        return nodes[0][:, None], weights[0] / np.sqrt(det)
    x0 = np.repeat(nodes[0], orders[1])
    x1 = np.tile(nodes[1], orders[0]) - slope * x0
    return np.stack([x0, x1], axis=1), np.outer(*weights).ravel() / np.sqrt(det)


def whitened_rule(prec, order: int):
    """``gaussian_rule`` of ``order`` on each principal axis of the d x d matrix
    ``prec``, d = 1 or 2 (Jaeckel 2005): exact for exp(-x^T prec x) times a
    polynomial of degree <= 2 order - 1 in each principal coordinate.  Nodes
    (order^d, d), first axis slowest; a ``prec`` that is not finite raises
    NonConvergent, as ``gaussian_rule`` does one it cannot lay a rule for."""
    prec = np.asarray(prec, dtype=float)
    if not np.all(np.isfinite(prec)):
        raise NonConvergent("the Gaussian weight's precision is not finite")
    evals, evecs = np.linalg.eigh(prec)
    pts, weights = gaussian_rule(np.diag(evals), (order,) * evals.size)
    return pts @ evecs.T, weights


def _refuse_beyond_budget(modes: int, nmax: int, degree: int | None, cost) -> int:
    """The lowest Gauss-Hermite order exact for degree 2 modes nmax + degree
    (None: 0), unless it and the order 4 above alone exceed the node budget,
    or the second order the loop needs (k0 + 1 for a polynomial, k0 + 4 for
    a bounded field) is past ``_MAX_ORDER``."""
    order = -(-(2 * modes * nmax + (degree or 0) + 1) // 2)
    second = order + (_ORDER_STEP if degree is None else 1)
    if cost(order) + cost(order + _ORDER_STEP) > _NODE_BUDGET:
        raise ConfigError(
            f"nmax = {nmax} with field degree {degree or 0} needs Gauss-Hermite order "
            f"{order}, beyond the node budget of {_NODE_BUDGET}"
        )
    if second > _MAX_ORDER:
        raise ConfigError(
            f"nmax = {nmax} with field degree {degree or 0} needs Gauss-Hermite order "
            f"{second}, beyond the highest order with usable weights, {_MAX_ORDER}"
        )
    return order


def _refine(modes: int, nmax: int, degree: int | None, cost, evaluate, stop: float = _CONVERGED):
    """Orders k0, k0 + 1, k0 + 5, ... of ``evaluate(order) -> (mat, ident, pts)``,
    or k0, k0 + 4, ... for a bounded field (``degree`` None).

    A field of polynomial degree ``degree`` in a basis of ``modes`` modes up
    to ``nmax`` quanta integrates a Gaussian times a polynomial of degree
    <= 2 modes nmax + degree, exactly from order k0 = ceil((2 modes nmax +
    degree + 1) / 2) on, so k0 + 1 only checks the declaration and must agree
    with k0 to rounding, ``_EXACT`` max(1, max|A|).  Otherwise the loop stops
    once the max-entry change between two successive orders, the convergence
    witness, is <= ``stop`` max(1, max|A|), or once the next order would take
    the node count, summed over ``cost(order)``, past the budget, or would
    itself be past ``_MAX_ORDER``.  A basis whose orders k0 and k0 + 4 alone
    exceed the budget, or whose second order is past ``_MAX_ORDER``, is
    refused up front; a non-finite entry raises NonConvergent.
    """
    order = _refuse_beyond_budget(modes, nmax, degree, cost)
    step, tol = (_ORDER_STEP, stop) if degree is None else (1, _EXACT)
    nodes = 0
    prev = None
    while True:
        mat, ident, pts = evaluate(order)
        nodes += cost(order)
        if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(ident))):
            raise NonConvergent(f"quadrature of order {order} gives non-finite entries")
        if prev is not None:
            witness = float(np.max(np.abs(mat - prev)))
            converged = witness <= tol * max(1.0, float(np.max(np.abs(mat))))
            step, tol = _ORDER_STEP, stop
            if converged or nodes + cost(order + step) > _NODE_BUDGET or order + step > _MAX_ORDER:
                break
        prev = mat
        order += step
    return mat, pts, QuadratureReport.of(mat, ident, witness, nodes)


def _quantise_on_rule(coefficients, field, pts, weights, norm: float):
    """Quantised field and identity on one rule, ``_RULE_CHUNK`` nodes at a time:
    A_nm = sum_k w_k f(x_k) c_n(x_k) conj(c_m(x_k)) / norm, with the Fock
    coefficients (P, dim) of the states at nodes x (P, d) from
    ``coefficients(x)`` and the measure's norm (2 pi hbar)^modes."""
    fv = np.asarray(field(*pts.T), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise GrowthViolation("field evaluates non-finite on the quadrature nodes")
    # weights and norm divided by the power of two just above the norm: exact,
    # so no bit moves, but the sums stay near the size of the result, where
    # unscaled weights (about hbar) times q^2 (about lam^2) could overflow
    scale = math.ldexp(1.0, -math.frexp(norm)[1])
    weights, norm = weights * scale, norm * scale
    wf = weights * fv
    acc = ident = 0.0
    for s in range(0, pts.shape[0], _RULE_CHUNK):
        cc = coefficients(pts[s : s + _RULE_CHUNK])
        conj = cc.conj()
        acc = acc + (cc * wf[s : s + _RULE_CHUNK, None]).T @ conj
        ident = ident + (cc * weights[s : s + _RULE_CHUNK, None]).T @ conj
    return acc / norm, ident / norm


def _tensor(nodes, weights):
    """Tensor product of d = 1 or 2 per-axis rules, first axis slowest: nodes and
    weights (d, ..., n) -> points (d, ..., n^d) and weights (..., n^d)."""
    if nodes.shape[0] == 1:
        return nodes, weights[0]
    n = nodes.shape[-1]
    w = weights[0][..., :, None] * weights[1][..., None, :]
    points = np.stack([np.repeat(nodes[0], n, axis=-1), np.tile(nodes[1], n)])
    return points, w.reshape(*w.shape[:-2], n * n)


def _clipped_window(c, reach, a, b):
    """Nodes and weights (..., 180) of three 60-node Gauss-Legendre panels on each
    window c +- reach clipped to [a, b] (the four broadcast together), and
    whether it is non-empty; an empty window gets zero weights."""
    lo, hi = np.maximum(a, c - reach), np.minimum(b, c + reach)
    x0, w0 = legendre_box_rule(-1.0, 1.0, _WINDOW_ORDER, _WINDOW_PANELS)
    half = np.maximum(hi - lo, 0.0)[..., None] / 2.0
    return (lo + hi)[..., None] / 2.0 + half * x0, half * w0, hi > lo


def gaussian_smooth(f, centres, precision, support=None, pad: float = _NSIGMA) -> np.ndarray:
    """Gaussian smoothing E[f(U)] with U ~ N(c, precision^-1) at every centre c.

    ``centres`` has shape (..., d) with d = 1 or 2, ``precision`` is d x d,
    and ``f`` takes d equally shaped arrays.  A field returning one value per
    node gives a result of shape (...); one returning a stack (F, ...) of F
    fields gives (F, ...), from one rule and one evaluation of ``f``, equal
    bit for bit to F separate calls.  Without ``support`` the rule is
    ``whitened_rule`` of order 120 for the Gaussian itself, exact for
    polynomial f of degree <= 239 and at rounding for exp(-(x - c)^2 / s)
    with s down to a third of the kernel's variance (order 90: 5e-12); a
    ``precision`` that is not positive definite raises NonConvergent.
    ``support`` = ((a1, b1), ...) declares the box outside which f
    vanishes: each axis then integrates over the centre's window c +- pad
    sigma (sigma the marginal standard deviation) clipped to (a, b), on three
    panels of 60 Gauss-Legendre nodes, and a window that misses the support
    gives exactly 0.  Centres go in blocks of at most 2^18 nodes.
    """
    prec = np.atleast_2d(np.asarray(precision, dtype=float))
    d = prec.shape[0]
    centres = np.asarray(centres, dtype=float)
    if d not in (1, 2) or prec.shape != (d, d) or centres.shape[-1:] != (d,):
        raise ValueError("need a 1x1 or 2x2 precision and centres of shape (..., d)")
    flat = centres.reshape(-1, d).T
    if support is None:
        # the rule whitened by exp(-y^T prec y / 2), times that Gaussian
        y, w = whitened_rule(prec / 2.0, _SMOOTH_ORDER)
        offsets, weights = y.T, w * np.exp(-0.5 * np.sum((y @ prec) * y, axis=1))
        per_centre = weights.size
    else:
        box = np.asarray(support, dtype=float).reshape(d, 2)
        reach = pad * np.sqrt(np.diag(np.linalg.inv(prec)))[:, None]
        per_centre = (_WINDOW_ORDER * _WINDOW_PANELS) ** d
    scale = (2.0 * np.pi) ** (d / 2) / np.sqrt(np.linalg.det(prec))
    block = max(1, _SMOOTH_BLOCK_NODES // per_centre)
    parts = []
    # one block at least, so that no centres still give an empty (F, 0) stack
    for s in range(0, max(flat.shape[1], 1), block):
        c = flat[:, s : s + block, None]
        if support is None:
            u, w, seen = c + offsets[:, None, :], weights, True
        else:
            nodes, w, seen = _clipped_window(c[..., 0], reach, box[:, :1], box[:, 1:])
            u, w = _tensor(nodes, w)
            du = u - c
            w = w * np.exp(-0.5 * np.sum(np.tensordot(prec, du, 1) * du, axis=0))
            seen = np.all(seen, axis=0)
        # a window that misses the support contributes exactly 0
        parts.append(np.where(seen, np.sum(w * f(*u), axis=-1), 0.0))
    out = np.concatenate(parts, axis=-1) / scale
    return out.reshape(out.shape[:-1] + centres.shape[:-1])


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
    block where truncation leakage is negligible.
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


# ----------------------------------------------------------------------
# adaptive ODE driver: the embedded DOP853 pair of Prince & Dormand (J. Comput.
# Appl. Math. 7:67, 1981) with its 7th-order dense output, following
# Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5 and II.6, and scipy's
# step controller.  The tableau is scipy's (``dop853_coefficients``) written
# out as the reprs of its floats, so that importing this module loads no
# scipy.integrate; tests/test_numerics.py compares every entry with scipy's.
# Row s of _A holds the s coefficients of stage s (0..11 a step, 12 f_new,
# 13..15 dense).

_A = [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ],
    [
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ],
    [
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ],
    [
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196,
    ],
    [
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
        0.6433927460157636,
    ],
    [
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259,
    ],
    [
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
        -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
        -0.008298,
    ],
    [
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ],
    [
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987,
    ],
]
_C = [
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
]
_B = [
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
]
_E3 = [
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
]
_E5 = [
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
]
_D = [
    [
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ],
    [
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ],
    [
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ],
    [
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ],
]
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # the error estimator is of order 7
# accepted and rejected steps together; over 70 times the largest preset's
_MAX_STEPS = 50_000


@dataclass(frozen=True)
class CompiledRhs:
    """A right-hand side in C as well: ``source`` defines
    ``static void rhs(const double *c, double t, const double *y, double *f)``,
    which writes dy/dt at y to f for the ``constants`` c, and may call the
    functions of ``<math.h>``.  It must give the Python ``rhs``'s bits; that is
    checked at the ``probes``, states of the problem's size, before a library
    built from it runs (see ``native``).
    """

    source: str
    constants: tuple[float, ...]
    probes: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class OdeProblem:
    """Initial-value problem passed to :func:`solve_ode`.

    ``rhs(t, y)`` takes the time and the state as a list of len(y0) Python
    floats and returns dy/dt as a sequence of exactly len(y0) floats (a tuple
    or a list; a numpy array works, but slowly), else :func:`solve_ode` raises
    ValueError.  Their sums run in a fixed order, so a run's bits do not depend
    on the Python version.  ``y0`` must be a finite 1D array.  Default
    tolerances leave the energy-drift checks a decade of headroom below 1e-6.
    ``compiled``, if given, is the same ``rhs`` in C, which :func:`solve_ode`
    runs instead where it can; every problem of ``pdm``'s integrators carries
    one, the trace of its formula.
    """

    rhs: Callable
    t_span: tuple[float, float]
    y0: np.ndarray
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    compiled: CompiledRhs | None = None

    def __post_init__(self):
        y0 = np.asarray(self.y0, dtype=float)
        if y0.ndim != 1:
            raise ValueError("y0 must be a 1D array")
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

    ``y`` has shape (len(t), len(y0)).  ``status`` is "finished" when t1 was
    reached and "failed" when a limit stopped the run; ``message`` then names
    the limit, and ``t`` and ``y`` hold the finite samples up to the last
    accepted step.  ``h_min`` is the smallest accepted step (inf if none).
    Every run satisfies ``n_rhs_evals == 2 + 15 n_accepted + 12 n_rejected``.
    """

    t: np.ndarray
    y: np.ndarray
    status: str
    n_rhs_evals: int
    n_accepted: int = 0
    n_rejected: int = 0
    message: str = ""
    h_min: float = math.inf


def _rms(values) -> float:
    """The root mean square, its sum from 0.0 left to right (CPython 3.11's
    ``sum``; 3.12's compensates)."""
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total / len(values))


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
    """The dense output at ``times``, of shape (len(times), len(y0)).

    ``steps`` holds one row per accepted step: t_old, h, y_old and the seven
    coefficients F_0..F_6 of its dense polynomial; ``ends`` the steps' end times.
    A time in (t_old, end] takes that step, as in scipy (the first step also
    takes t_old itself), and the polynomial is summed in scipy's order.  A
    step whose dense stages are not finite gives non-finite samples without a
    warning; the caller judges them.
    """
    k = np.minimum(np.searchsorted(ends, times, side="left"), len(steps) - 1)
    row = steps[k]
    n = (steps.shape[1] - 2) // 8
    x = ((times - row[:, 0]) / row[:, 1])[:, None]
    y = np.zeros((len(times), n))
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(7):
            y += row[:, 2 + n * (7 - i) : 2 + n * (8 - i)]
            y *= x if i % 2 == 0 else 1.0 - x
        return y + row[:, 2 : 2 + n]


def _sum_code(coeffs, i: int, literal=repr) -> str:
    """The source of sum_s coeffs[s] K_s for component i: from 0.0, left to
    right, over the nonzero coeffs only.  With finite stages the skipped terms
    are zeros, and adding a zero to a sum that starts at +0.0 changes no bit
    (the sum is never -0.0), so ``y + h * sum`` keeps signed zeros.  The
    expression is Python and C alike; ``literal`` spells the coefficients."""
    return "(0.0" + "".join(f" + {literal(a)} * k{s}_{i}" for s, a in enumerate(coeffs) if a) + ")"


def _guard_code(i: int) -> str:
    """The source of sum_s 0.0 * K_s for component i over the stages where E5
    is zero: +-0.0 when they are finite, NaN when one is not."""
    return "(" + " + ".join(f"0.0 * k{s}_{i}" for s, a in enumerate(_E5) if not a) + ")"


@lru_cache(maxsize=16)
def _dop853_kernels(n: int):
    """One DOP853 step's float arithmetic on n-component states as straight-line
    code: tableau literals, every value a local (``k{s}_{i}``: component i of K_s).
    ``attempt`` evaluates K_1..K_11, y_new, f_new and the E5/E3 error sums, ``dense``
    the dense stages and the step's row; tracebacks show ``dop853 kernel n=N``.

    The sums skip the tableau's zero entries (``_sum_code``), so where every
    stage is finite each value is the zero-keeping loop's to the bit.  A zero
    entry times a non-finite stage is NaN there, and that NaN is what rejects
    a step with a non-finite stage, so each E5 sum adds ``_guard_code``: 0.0
    times each stage whose E5 entry is zero.  The first non-finite stage of
    an attempt comes from finite values only, so it is the same as in that
    loop, and it reaches the E5 sum through a nonzero entry or the guard: the
    error norm is NaN and the step is rejected with the smallest factor, as
    there.  The stages after it may be called on different states, which
    that loop would have made NaN.  The error scale max(|y|, |y_new|) is
    written as max evaluates it, NaN included."""
    ix = range(n)
    names = lambda prefix: "".join(f"{prefix}{i}, " for i in ix)
    squares = lambda e: "0.0" + "".join(f" + {e}{i} * {e}{i}" for i in ix)
    stages = "".join(names(f"k{s}_") for s in range(1, 12))
    unpack = f"    {names('y')}= y\n    {names('k0_')}= f\n"
    unpack_new = f"    {names('k12_')}= f_new\n"

    def stage(s):  # K_s at the combination of K_0..K_s-1
        args = "".join(f"        y{i} + h * {_sum_code(_A[s], i)},\n" for i in ix)
        return f"    {names(f'k{s}_')}= rhs(t + {_C[s]!r} * h, [\n{args}    ])\n"

    row = [f"y{i}" for i in ix] + [f"d{i}" for i in ix] + [f"h * k0_{i} - d{i}" for i in ix]
    row += [f"2.0 * d{i} - h * (k12_{i} + k0_{i})" for i in ix]
    row += [f"h * {_sum_code(d, i)}" for d in _D for i in ix]
    src = (
        "def attempt(rhs, t, t_new, y, f, h, atol, rtol):\n" + unpack
        + "".join(stage(s) for s in range(1, 12))
        + "".join(f"    yn{i} = y{i} + h * {_sum_code(_B, i)}\n" for i in ix)
        + f"    y_new = [{names('yn')}]\n    f_new = rhs(t_new, y_new)\n" + unpack_new
        + "".join(
            f"    a{i} = abs(y{i})\n    b{i} = abs(yn{i})\n"
            f"    s{i} = atol + (b{i} if b{i} > a{i} else a{i}) * rtol\n"
            f"    e5_{i} = ({_sum_code(_E5, i)} + {_guard_code(i)}) / s{i}\n"
            f"    e3_{i} = {_sum_code(_E3, i)} / s{i}\n" for i in ix)
        + f"    return y_new, f_new, {squares('e5_')}, {squares('e3_')}, ({stages})\n\n"
        + "def dense(rhs, t, y, f, h, y_new, f_new, stages):\n" + unpack
        + f"    {names('yn')}= y_new\n" + unpack_new + f"    {stages}= stages\n"
        + "".join(stage(s) for s in range(13, 16))
        + "".join(f"    d{i} = yn{i} - y{i}\n" for i in ix)
        + "    return [t, h,\n" + "".join(f"        {v},\n" for v in row) + "    ]\n"
    )
    scope = _exec_generated(src, f"dop853 kernel n={n}")
    return scope["attempt"], scope["dense"]


def _exec_generated(src: str, name: str) -> dict:
    """Run generated source ``src`` as the file ``name`` in a fresh scope, and
    return the scope.  Tracebacks through the code show its lines: linecache
    asks a module's loader for the source of a file it cannot read, also
    after clearcache(), but never for a "<...>" name, and it keeps the first
    source registered under a name."""
    scope = {"__name__": __name__, "__loader__": SimpleNamespace(get_source=lambda _: src)}
    linecache.lazycache(name, scope)
    exec(compile(src, name, "exec"), scope)
    return scope


# why a run stopped before t1, by the stop code of the stepping loops
_STOPS = {
    1: "the right-hand side is not finite at t0 = {t!r}",
    2: "step size fell below the minimum step {min_step:.3g} at t = {t!r}",
    3: "step budget of {max_steps} steps exhausted at t = {t!r}",
}


def _python_steps(problem: OdeProblem, t0: float, t1: float, min_step: float, max_steps: int):
    """:func:`solve_ode`'s stepping on Python floats: the stop code (0 at
    t1, else a key of ``_STOPS``), the last accepted t and y, the table of
    accepted steps (t_old, h, y_old, F_0..F_6 per row), their end times and
    the counts of RHS evaluations, accepted and rejected steps."""
    rhs = problem.rhs
    rtol, atol = problem.rel_tol, problem.abs_tol
    n = problem.y0.size
    t = t0
    y = problem.y0.tolist()
    f = rhs(t, y)
    if len(f) != n:
        raise ValueError(f"rhs returned {len(f)} components for a state of {n}")
    attempt, dense = _dop853_kernels(n)
    h_abs = _initial_step(rhs, t, y, f, t1 - t, rtol, atol)
    n_evals = 2
    steps = []
    ends = []
    n_accepted = n_rejected = 0
    # no step size follows from a non-finite derivative
    stop = 0 if all(map(math.isfinite, f)) else 1
    while t < t1 and not stop:
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                stop = 2
                break
            if n_accepted + n_rejected >= max_steps:
                stop = 3
                break
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, e5, e3, stages = attempt(rhs, t, t_new, y, f, h, atol, rtol)
            n_evals += 12
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
        if stop:
            break
        steps.append(dense(rhs, t, y, f, h, y_new, f_new, stages))
        n_evals += 3
        ends.append(t_new)
        t, y, f = t_new, y_new, f_new
    table = np.array(steps, dtype=float).reshape(len(steps), 2 + 8 * n)
    return stop, t, y, table, np.array(ends, dtype=float), n_evals, n_accepted, n_rejected


def solve_ode(problem: OdeProblem, t_eval=None) -> OdeSolution:
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
    samples agree to 3e-12 or better.  Each step runs its twelve stages, one
    ``rhs(t, y)`` call per stage (see :class:`OdeProblem`), and each accepted
    step three more for the 7th-order dense output, whose coefficients are
    kept.  That arithmetic is code generated per state size
    (``_dop853_kernels``) that adds each tableau sum from 0.0 left to right,
    as CPython 3.11's ``sum`` did; 3.12's ``sum`` compensates, so a loop over
    ``sum`` gives version-dependent bits, and this code does not.  The sums
    skip the tableau's zero entries, which changes no returned bit: a guard
    in the error sum still rejects every step with a non-finite stage, though
    the stages after that one may see other states than with the zeros kept.
    The samples at ``t_eval`` are evaluated from them in one pass at the end;
    without ``t_eval`` they are the step ends.

    The steps run on Python floats (``_python_steps``), unless the problem
    carries a ``compiled`` right-hand side, as both of ``pdm``'s integrators
    give theirs: then a shared library of the same driver, kernels and
    right-hand side in C runs them (``native.steps``), about twenty times
    faster, with the same samples, counts and messages.  One is built by the
    system C compiler per right-hand side source at its first problem,
    cached across processes, and checked against the Python right-hand side
    once per model; where it cannot be built, loaded or trusted, the Python
    floats run.  Nothing else chooses between the two.

    Two limits bound every run:

    * a minimum step of ten spacings of the float at the span's far end,
      ``10 * np.spacing(max(|t0|, |t1|))``; a rejected step below it stops
      the run;
    * a budget of 50 000 steps, accepted and rejected together.

    A run stopped by either, or by a right-hand side that is not finite at
    t0, returns status "failed", a message naming the cause, and the samples
    up to the last accepted step with non-finite rows dropped, so callers can
    classify the truncated trajectory.

    Raises
    ------
    NonFiniteState
        if a run that reached t1 has non-finite samples.
    """
    t0, t1 = (float(v) for v in problem.t_span)
    n = problem.y0.size
    min_step = 10.0 * float(np.spacing(max(abs(t0), abs(t1))))
    run = None
    if problem.compiled is not None:
        # imported here: a process that solves no such problem loads no ctypes
        from . import native

        run = native.steps(problem, t0, t1, min_step, _MAX_STEPS)
    if run is None:
        run = _python_steps(problem, t0, t1, min_step, _MAX_STEPS)
    stop, t, y, table, ends, n_evals, n_accepted, n_rejected = run
    message = _STOPS[stop].format(t=t, min_step=min_step, max_steps=_MAX_STEPS) if stop else ""

    if t_eval is None:
        ts = np.concatenate([[t0], ends])
        # each step's row starts at its y_old, the previous step's y_new
        ys = np.vstack([table[:, 2 : 2 + n], [y]])
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        ts = t_eval[: np.searchsorted(t_eval, t, side="right")] if n_accepted else t_eval[:0]
        ys = _dense_values(table, ends, ts) if ts.size else np.empty((0, n))
    h_min = float(table[:, 1].min()) if n_accepted else math.inf
    counts = dict(n_rhs_evals=n_evals, n_accepted=n_accepted, n_rejected=n_rejected, h_min=h_min)
    if message:
        keep = np.all(np.isfinite(ys), axis=1)
        return OdeSolution(ts[keep], ys[keep], "failed", message=message, **counts)
    if not np.all(np.isfinite(ys)):
        raise NonFiniteState("non-finite values in the solution samples")
    return OdeSolution(ts, ys, "finished", **counts)
