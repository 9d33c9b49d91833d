"""Quantisation of phase-space functions over squeezed coherent families.

A classical function f(q, p) becomes an operator by integrating f against
the rank-one projectors of a state family with the flat measure that makes
f = 1 come out as the identity.  Entries are independent integrals, so the
matrix of the quantised operator is exact entry by entry up to quadrature
error; no truncation leakage enters until operators are multiplied, which
is why the commutator and dilation checks restrict themselves to interior
blocks of matrices built at twice the requested size.

The x-representation kernel of any admissible f here is supported on the
diagonal: position-only functions quantise to multiplication operators
(the multiplier being a Gaussian smoothing of f), and momentum dependence
of polynomial degree <= 2 adds first and second derivative terms whose
coefficients come from exact Gaussian moments, never from oscillatory
numeric p-integrals.

One engine integrates the projector integral for both arities: a tensor
Gauss-Hermite rule whitened by the family's vacuum Gaussian, over the phase
plane for one mode (``onemode._quantise_field``) and over 4D phase space for
two (``nonsepstates._quantise_field``), each refined by the loop and summed
by the chunked projector sum of ``numerics``.  The rule of the first order
is exact for polynomial fields, and the change to the next order is the
convergence witness.

Two-mode families quantise by one of two routes, chosen by probing the
function rather than trusting a declaration.  A function that does not move
with momentum on the nodes of the 4D rule (``_position_values`` on
``nonsepstates._probe_nodes``) is quantised as the multiplication operator
above, with the momenta integrated exactly: a 2D rule in the positions on
which f is evaluated, times a fixed rule exact for the Fock polynomials
(``nonsepstates._quantise_position_field``).  Every other function takes the
4D engine, whose one run on the stacked Table 1 fields
(``nonsepstates.table1_operators``) gives their operators and certifies the
identity resolution on the same nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    GrowthViolation,
    UnsupportedMomentumDependence,
)
from .numerics import (
    _SMOOTH_ORDER,
    QuadratureReport,
    TruncatedOperator,
    gauss_hermite_rule,
    gaussian_smooth,
)
from .onemode import SqueezeParameter
from .onemode import _quantise_field as _quantise_onemode_field
from .nonsepstates import (
    NonSepParams,
    _portrait_precision,
    _probe_nodes,
    _quantise_field,
    _quantise_position_field,
)
from .sepstates import TwoModeParams

__all__ = [
    "ClassicalFunction",
    "QuantisedOperator",
    "QuadratureReport",
    "KernelAction",
    "quantise",
    "kernel_eval",
    "dirac_correspondence_check",
    "symmetrisation_constant",
]


@dataclass(frozen=True)
class ClassicalFunction:
    """Phase-space function with declared arity and growth.

    One-mode evaluators take (q, p), two-mode ones (q1, q2, p1, p2), both
    vectorised over numpy arrays.  The growth declaration is spot-checked
    against the actual values on the quadrature grid, not trusted.
    """

    evaluator: Callable
    arity: str = "one-mode"
    growth: str = "poly"
    degree: int = 2

    def __post_init__(self):
        if self.arity not in ("one-mode", "two-mode"):
            raise ConfigError("arity must be 'one-mode' or 'two-mode'")
        if self.growth not in ("bounded", "poly"):
            raise ConfigError("growth must be 'bounded' or 'poly'")

    def __call__(self, *coords):
        return self.evaluator(*coords)


def _as_classical(f, arity: str) -> ClassicalFunction:
    if isinstance(f, ClassicalFunction):
        if f.arity != arity:
            raise ConfigError(
                f"function has arity {f.arity!r} but the family is {arity}"
            )
        return f
    return ClassicalFunction(f, arity=arity)


@dataclass(frozen=True)
class QuantisedOperator:
    basis: int
    matrix: TruncatedOperator
    family_tag: str
    quadrature_report: QuadratureReport


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
    diagonal: bool = True

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


def _spot_check_growth(f: ClassicalFunction, pts: np.ndarray):
    """Cheap falsification of the declared growth on the nodes ``pts`` (N, d).

    The Chebyshev radius of each node takes each coordinate relative to its
    own extent on the nodes: otherwise the widest coordinate sets the radius,
    and the mid ring already reaches the extremes of the narrow ones.  On a
    rule aligned with the coordinates r takes only the ratios of the Hermite
    nodes, which can skip [0.4, 0.5); the mid ring then reaches down to the
    next ratio.  Coordinates the nodes do not carry (the momenta of the
    two-mode position route) are zero.
    """
    extent = np.abs(pts)
    r = np.max(extent / np.max(extent, axis=0), axis=1)
    edge_mask = r > 0.9
    mid_mask = (r >= min(0.4, r[r < 0.5].max())) & (r < 0.5)
    width = 4 if f.arity == "two-mode" else 2
    coords = np.vstack([pts.T, np.zeros((width - pts.shape[1], pts.shape[0]))])
    vals = np.abs(np.broadcast_to(np.asarray(f(*coords), dtype=float), r.shape))
    if not np.all(np.isfinite(vals)):
        raise GrowthViolation("evaluator is non-finite inside the quadrature box")
    edge = vals[edge_mask].max() if edge_mask.any() else 0.0
    mid = vals[mid_mask].max() if mid_mask.any() else 0.0
    if f.growth == "bounded":
        allowed = 10.0 * max(mid, 1e-12)
    else:
        allowed = max(mid, 1e-12) * 2.0 ** max(f.degree, 1) * 50.0
    if edge > allowed:
        raise GrowthViolation(
            f"declared growth {f.growth!r} is violated on the grid: "
            f"edge max {edge:.3g} vs mid max {mid:.3g}"
        )


def _position_values(f: ClassicalFunction, q1, q2, p1, p2):
    """f(q1, q2, 0, 0), or None when f moves with momentum.

    f at the given phase points is compared with f at the same positions and
    zero momentum.  A change beyond 1e-12 relative to the values, or a value
    that turns non-finite, means the field depends on momentum; points where
    f is already non-finite at zero momentum are left to the callers'
    finiteness checks.  Nothing is taken from a declaration.
    """
    zero = np.zeros_like(q1)
    base = np.asarray(f(q1, q2, zero, zero), dtype=float)
    moved = np.asarray(f(q1, q2, p1, p2), dtype=float)
    finite = np.isfinite(base)
    tol = 1e-12 * (np.max(np.abs(base[finite]), initial=0.0) + 1.0)
    if not np.all(np.abs(moved - base)[finite] <= tol):
        return None
    return base


def _family(family):
    if isinstance(family, SqueezeParameter):
        return family, "one-mode", (
            f"squeezed-onemode(tau={family.tau:.6g}, lam={family.lam:.6g}, "
            f"hbar={family.hbar:.6g})"
        )
    if isinstance(family, TwoModeParams):
        family = NonSepParams(family, 0.0)
    if isinstance(family, NonSepParams):
        return family, "two-mode", (
            f"squeezed-nonsep(tau1={family.tau1:.6g}, tau2={family.tau2:.6g}, "
            f"phi={family.phi:.6g}, lam1={family.lam1:.6g}, lam2={family.lam2:.6g}, "
            f"hbar={family.hbar:.6g})"
        )
    raise ConfigError(f"unsupported state family {type(family).__name__}")


def quantise(f, family, nmax: int) -> QuantisedOperator:
    """Operator of f over the family, in the truncated number basis.

    Both arities integrate the projector integral on a tensor Gauss-Hermite
    rule whitened by the family's vacuum Gaussian, over the phase plane for
    one mode and 4D phase space for two; a two-mode function that does not
    move with momentum on the 4D rule's second order is quantised as
    multiplication by its Gaussian smoothing instead (see the module notes).
    Every rule starts at the order exact for polynomial degree ``f.degree``
    (0 for bounded growth) and is refined by 4 per axis until two orders
    agree, to 1e-12 for one mode and 1e-6 for two, or the node budget is
    spent.  The report carries the identity deviation on the very same
    nodes, the node count over all orders (joint outer x inner nodes on the
    position route) and the change between the last two orders, so a caller
    can tell quadrature error from genuine operator structure.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1: a truncated operator has dimension >= 2")
    fam, arity, tag = _family(family)
    cf = _as_classical(f, arity)
    degree = cf.degree if cf.growth == "poly" else 0
    if arity == "one-mode":
        mat, pts, report = _quantise_onemode_field(fam, cf, nmax, degree)
    elif _position_values(cf, *_probe_nodes(fam, nmax, degree).T) is None:
        mat, pts, report = _quantise_field(fam, cf, nmax, degree)
    else:
        position = lambda q1, q2: cf(q1, q2, np.zeros_like(q1), np.zeros_like(q1))
        mat, pts, report = _quantise_position_field(fam, position, nmax, degree)
    _spot_check_growth(cf, pts)
    return QuantisedOperator(
        basis=nmax, matrix=TruncatedOperator(mat.shape[0], mat), family_tag=tag,
        quadrature_report=report,
    )


def symmetrisation_constant(param: SqueezeParameter) -> float:
    """Coefficient replacing the symmetrised-product constant for complex tau.

    The quantisation of qp is (xp + px)/2 + hbar * this * identity; it
    vanishes exactly for real squeezing, recovering the usual rule.
    """
    s = param.widths().sigma_q_sq
    return float(-s.imag / (2.0 * s.real))


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
    dependence beyond quadratic is refused; two-mode families support
    position-only functions, evaluated at x = (x1, x2), whose kernel is the
    Gaussian smoothing of f at twice the portrait precision.
    """
    fam, arity, _ = _family(family)
    cf = _as_classical(f, arity)
    if arity == "two-mode":
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise ConfigError("two-mode kernel point must be a pair (x1, x2)")

        def position_part(q1, q2):
            base = _position_values(cf, q1, q2, np.full_like(q1, 0.37), np.full_like(q1, -0.61))
            if base is None:
                raise UnsupportedMomentumDependence(
                    "two-mode kernels support position-only functions"
                )
            return base

        a0 = gaussian_smooth(position_part, x, 2.0 * _portrait_precision(fam))
        return KernelAction(complex(a0), 0.0, 0.0)

    rule = gauss_hermite_rule(_SMOOTH_ORDER)
    lam, hbar, tau = fam.lam, fam.hbar, fam.tau
    q1 = fam.widths().sigma_q_sq / lam**2
    s = 1.0 / np.sqrt(2.0 * q1.real)
    qn = float(x) + np.sqrt(2.0) * s * rule.nodes
    zn = np.sqrt(2.0) * rule.nodes
    wts = rule.weights / np.sqrt(np.pi)
    f0, f1, f2 = _p_components(cf, qn, pscale=hbar / lam)
    q1c = np.conj(q1)
    e = lambda vals: complex(np.sum(wts * vals))
    a0 = e(f0)
    a1 = 0.0 + 0.0j
    a2 = 0.0 + 0.0j
    if np.max(np.abs(f1)) > 0.0:
        a1 += -1j * hbar * e(f1)
        a0 += -1j * hbar * q1c * e(f1 * s * zn)
    if np.max(np.abs(f2)) > 0.0:
        a2 += -(hbar**2) * e(f2)
        a1 += -2.0 * hbar**2 * q1c * e(f2 * s * zn)
        a0 += -(hbar**2) * e(f2 * (q1c**2 * (s * zn) ** 2 - q1c))
    return KernelAction(complex(a0), complex(a1), complex(a2))


def dirac_correspondence_check(family, nmax: int) -> float:
    """Max deviation of [A_q, A_p] from i hbar on the interior block.

    The two operators are built at twice the requested truncation so their
    product is exact on the reported block.  ``quantise`` integrates both
    exactly (their entries are polynomials against the vacuum Gaussian), so
    what remains is rounding plus the family's genuine commutator content.
    """
    fam, arity, _ = _family(family)
    if arity != "one-mode":
        raise ConfigError(
            "commutator certification is one-mode; use quantise directly for "
            "two-mode families"
        )
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    big = 2 * nmax + 2
    aq = quantise(ClassicalFunction(lambda q, p: q), fam, big)
    ap = quantise(ClassicalFunction(lambda q, p: p), fam, big)
    comm = aq.matrix.entries @ ap.matrix.entries - ap.matrix.entries @ aq.matrix.entries
    blk = comm[: nmax + 1, : nmax + 1]
    return float(np.max(np.abs(blk - 1j * fam.hbar * np.eye(nmax + 1))))
