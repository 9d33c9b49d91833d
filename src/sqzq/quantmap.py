"""Quantisation of phase-space functions over squeezed coherent families.

A classical function f(q, p) becomes an operator by integrating f against
the rank-one projectors of a state family with the flat measure that makes
f = 1 come out as the identity.  Entries are independent integrals, so the
matrix of the quantised operator is exact entry by entry up to quadrature
error; no truncation leakage enters until operators are multiplied, which
is why the commutator check (``dirac_correspondence_check``) restricts
itself to the interior block of matrices built at twice the requested size.

The x-representation kernel of any admissible f here is supported on the
diagonal: position-only functions quantise to multiplication operators
(the multiplier being a Gaussian smoothing of f), and momentum dependence
of polynomial degree <= 2 adds first and second derivative terms whose
coefficients come from exact Gaussian moments, never from oscillatory
numeric p-integrals.

One mode integrates the projector integral on a tensor Gauss-Hermite rule
over the phase plane, whitened by the family's vacuum Gaussian
(``onemode._quantise_field``), summed by the chunked projector sum of
``numerics``.  Two modes have one engine too, built the way the family is:
a beam splitter between two one-mode squeezers only rotates the coherent
labels, so the operator is the beam splitter's rotation of a separable
product, which sum-factorises into per-mode tables of the one-mode family's
own projectors (``nonsepstates._quantise_rotated``).  It probes the function
rather than trusting a declaration: a function that does not move with
momentum on the product of the per-mode rules
(``nonsepstates._is_position_field``) has each mode's momentum integrated
exactly, and is evaluated on position pairs alone; every other function is
evaluated on the product of the per-mode phase-plane rules.  Each rule's
first order is exact for polynomial fields, and the change to the next order
is the convergence witness.  ``kernel_eval`` asks the same position test, at
the default two-mode basis, before it smooths a two-mode function.  The
Table 1 fields q1, q2 and q1 q2 (``nonsepstates.table1_operators``) run on
the same engine, and ``sqzq verify`` holds their operators against the exact
ones on the whole truncated basis.
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
from .numerics import QuadratureReport, TruncatedOperator, gaussian_smooth
from .onemode import SqueezeParameter
from .onemode import _quantise_field as _quantise_onemode_field
from .nonsepstates import (
    NonSepParams,
    _is_position_field,
    _portrait_precision,
    _quantise_rotated,
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

# the two-mode basis n_j <= 4 that ``sqzq quantise`` takes by default:
# ``kernel_eval`` asks the engine's position test at this basis, so it accepts
# a field exactly when ``quantise`` there routes it to the position rules
_TWO_MODE_NMAX = 4


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

    @property
    def poly_degree(self) -> int | None:
        """The declared polynomial degree, None for bounded growth."""
        return self.degree if self.growth == "poly" else None


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
    next ratio, or up to it where the origin, which says nothing of growth,
    is the only node below (order 3).  Coordinates the nodes do not carry
    (a two-mode position field's momenta) are zero.
    """
    extent = np.abs(pts)
    r = np.max(extent / np.max(extent, axis=0), axis=1)
    edge_mask = r > 0.9
    off = r[r > 0]
    low = min(0.4, off[off < 0.5].max()) if np.any(off < 0.5) else off.min()
    mid_mask = ((r >= low) & (r < 0.5)) | (r == low)
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

    One mode integrates the projector integral on a tensor Gauss-Hermite
    rule over the phase plane, whitened by the family's vacuum Gaussian.  Two
    modes integrate it in the frame where the family is a separable product,
    on per-mode rules, and rotate the result back through the beam splitter;
    a two-mode function that does not move with momentum on the product of
    the per-mode rules of order k0 + 4 has each mode's momentum integrated
    exactly (see the module notes).  Every rule starts at the order k0 exact
    for polynomial degree ``f.degree`` (0 for bounded growth); a polynomial's
    k0 + 1 must agree with it to rounding, else (and for bounded growth)
    orders grow by 4 per axis until two agree, to 1e-12 for one mode, 1e-13
    for a bounded two-mode position field and 1e-6 for any other two-mode
    field, or the budget is spent.  The report carries the identity deviation
    on the very same nodes, the change between the last two orders, so a
    caller can tell quadrature error from genuine operator structure, and
    ``nodes``: the field values of all orders, K^2 an order on the phase
    plane, K^4 on two modes' phase planes and K^2 on a two-mode position
    field's position pairs.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1: a truncated operator has dimension >= 2")
    fam, arity, tag = _family(family)
    cf = _as_classical(f, arity)
    engine = _quantise_onemode_field if arity == "one-mode" else _quantise_rotated
    mat, pts, report = engine(fam, cf, nmax, cf.poly_degree)
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
    dependence beyond quadratic is refused.  Two-mode families support
    position-only functions: those the engine's position test takes for one
    at the basis n_j <= 4 (``_TWO_MODE_NMAX``), with the declared degree, as
    ``quantise`` there would.  The kernel at x = (x1, x2) is the Gaussian
    smoothing of f(q1, q2, 0, 0) at twice the portrait precision.  For one mode,
    f = f0 + f1 p + f2 p^2, and the coefficients take f0, f1, f1 d, f2, f2 d,
    f2 d^2 (d = q - x) from one stacked ``numerics.gaussian_smooth`` pass at
    precision 2 Re(Q1), Q1 = sigma_q^2 / lam^2.
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
