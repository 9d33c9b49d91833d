"""Separable two-mode squeezed states and their position portraits.

A separable state is a tensor product of two one-mode states, so every
quantity here factorises: the wavefunction is a product, the overlap-squared
is a product, and the phase-space portraits reduce to per-mode Gaussian
smoothings in position plus polynomial corrections in the momenta.

Portraits of momentum-weighted fields never need momentum quadrature: the
momentum integrals are Gaussian and have been done once and for all, leaving
position smoothings of h, q_j h and q_j^2 h.  Each is ``numerics.gaussian_smooth``
at precision diag(1/s_j^2), s_j = lam_j Delta_p_j (2/s_j^2 per mode for the
kernel factors): the phi = 0 case of the coupled kernel in ``nonsepstates``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import _NSIGMA, gaussian_smooth
from .onemode import OneModePhasePoint, SqueezeParameter, wavefunction

__all__ = [
    "TwoModeParams",
    "PhasePoint",
    "Field",
    "DiagonalKernel",
    "as_field",
    "sep_wavefunction",
    "portrait_hq",
    "portrait_p_h",
    "portrait_p2_h",
    "sep_kernel_hq",
]


@dataclass(frozen=True)
class TwoModeParams:
    """Per-mode squeezing parameters sharing one hbar."""

    mode1: SqueezeParameter
    mode2: SqueezeParameter
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.mode1.hbar == self.mode2.hbar == self.hbar):
            raise ValueError("mode parameters must carry the shared hbar")

    @classmethod
    def from_tau(
        cls,
        tau1: complex,
        tau2: complex,
        lam1: float = 1.0,
        lam2: float = 1.0,
        hbar: float = 1.0,
    ) -> "TwoModeParams":
        return cls(
            SqueezeParameter.from_tau(tau1, lam1, hbar),
            SqueezeParameter.from_tau(tau2, lam2, hbar),
            float(hbar),
        )

    def mode(self, j: int) -> SqueezeParameter:
        if j == 1:
            return self.mode1
        if j == 2:
            return self.mode2
        raise ValueError("mode index must be 1 or 2")


@dataclass(frozen=True)
class PhasePoint:
    """Two-mode phase-space expectation values."""

    q1: float
    q2: float
    p1: float
    p2: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.q1, self.q2, self.p1, self.p2)):
            raise ValueError("phase-space point must be finite")

    def mode(self, j: int) -> OneModePhasePoint:
        if j == 1:
            return OneModePhasePoint(self.q1, self.p1)
        if j == 2:
            return OneModePhasePoint(self.q2, self.p2)
        raise ValueError("mode index must be 1 or 2")

    def q(self, j: int) -> float:
        return self.q1 if j == 1 else self.q2

    def p(self, j: int) -> float:
        return self.p1 if j == 1 else self.p2


@dataclass(frozen=True)
class Field:
    """Classical position field h(q1, q2) with integrability metadata.

    ``func`` must be vectorised.  ``growth`` declares how the field behaves at
    infinity ("bounded" or "poly" with the given ``degree``), which sizes the
    quadrature windows.  ``support`` optionally declares a hard rectangle
    (a1, b1), (a2, b2) outside which the field vanishes; quadrature is then
    clipped to it, so indicator-type fields integrate at full accuracy.
    """

    func: Callable
    growth: str = "poly"
    degree: int = 2
    support: tuple | None = None

    def __post_init__(self):
        if self.growth not in ("bounded", "poly"):
            raise ValueError("growth must be 'bounded' or 'poly'")
        if self.support is not None:
            (a1, b1), (a2, b2) = self.support
            if not (b1 > a1 and b2 > a2):
                raise ValueError("support rectangle must have positive extent")

    def __call__(self, q1, q2):
        return self.func(q1, q2)


def as_field(h) -> Field:
    return h if isinstance(h, Field) else Field(h)


def _mode_sigma(params: TwoModeParams, j: int) -> float:
    """Position std-dev of the portrait smoothing kernel for mode j."""
    mode = params.mode(j)
    return mode.lam * np.sqrt(mode.widths().delta_p_sq)


def sep_wavefunction(point: PhasePoint, params: TwoModeParams, x) -> np.ndarray:
    """Product wavefunction psi1(x1) psi2(x2); x has shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError("x must have a trailing axis of length 2")
    return wavefunction(point.mode(1), params.mode1, x[..., 0]) * wavefunction(
        point.mode(2), params.mode2, x[..., 1]
    )


def _pad(field: Field) -> float:
    """Half-width of a supported field's windows, in kernel standard deviations."""
    return _NSIGMA + (field.degree if field.growth == "poly" else 0)


def portrait_hq(h, point: PhasePoint, params: TwoModeParams) -> float:
    """Lower symbol of the quantised position field h(q1, q2).

    A two-dimensional Gaussian smoothing of h centred at (q1, q2) with
    per-mode variance lam_j^2 delta_p_sq_j; constants and affine fields are
    reproduced exactly (symmetric kernel, unit mass).
    """
    field = as_field(h)
    precision = np.diag([1.0 / _mode_sigma(params, 1) ** 2, 1.0 / _mode_sigma(params, 2) ** 2])
    return float(
        gaussian_smooth(field, [point.q1, point.q2], precision, field.support, _pad(field))
    )


def _axis_weighted(field: Field, j: int, power: int) -> Field:
    """Field q_j^power * h, preserving metadata."""
    f = field.func
    if j == 1:
        g = lambda q1, q2: q1**power * f(q1, q2)
    else:
        g = lambda q1, q2: q2**power * f(q1, q2)
    degree = field.degree + power if field.growth == "poly" else power
    return Field(g, "poly", degree, field.support)


def portrait_p_h(j: int, h, point: PhasePoint, params: TwoModeParams) -> float:
    """Lower symbol of the quantised field p_j h(q1, q2).

    p_j A_h plus a correction proportional to gamma_j; for real tau_j the
    correction vanishes and the portrait is exactly p_j times the h portrait.
    """
    field = as_field(h)
    mode = params.mode(j)
    w = mode.widths()
    dd = w.delta_p_sq * mode.lam**2
    a_h = portrait_hq(field, point, params)
    if w.gamma == 0.0:
        return point.p(j) * a_h
    a_qh = portrait_hq(_axis_weighted(field, j, 1), point, params)
    return point.p(j) * a_h + (2.0 * params.hbar * w.gamma / dd) * (
        point.q(j) * a_h - a_qh
    )


def portrait_p2_h(j: int, h, point: PhasePoint, params: TwoModeParams) -> float:
    """Lower symbol of the quantised field p_j^2 h(q1, q2).

    Three groups: the isotropic (p_j^2 + hbar^2/(delta_p^2 lam^2)) A_h term,
    a gamma^2 group quadratic in the centred first moments, and a gamma group
    linear in p_j.  Both gamma groups vanish for real tau_j.
    """
    field = as_field(h)
    mode = params.mode(j)
    w = mode.widths()
    dd = w.delta_p_sq * mode.lam**2
    hbar = params.hbar
    pj, qj = point.p(j), point.q(j)
    a_h = portrait_hq(field, point, params)
    base = (pj**2 + hbar**2 / dd) * a_h
    if w.gamma == 0.0:
        return base
    a_qh = portrait_hq(_axis_weighted(field, j, 1), point, params)
    a_q2h = portrait_hq(_axis_weighted(field, j, 2), point, params)
    gamma_sq_group = (4.0 * hbar**2 * w.gamma**2 / dd**2) * (
        qj**2 * a_h - 2.0 * qj * a_qh + a_q2h
    )
    gamma_group = (4.0 * hbar * w.gamma / dd) * pj * (qj * a_h - a_qh)
    return base + gamma_sq_group + gamma_group


@dataclass(frozen=True)
class DiagonalKernel:
    """Position-diagonal integral kernel delta(x - x') * factor(x).

    The delta is symbolic; ``factor`` is the finite multiplicative part.
    Applying the operator to a wavefunction is pointwise multiplication.
    """

    factor: Callable

    def apply(self, psi: Callable) -> Callable:
        return lambda x1, x2: self.factor(x1, x2) * psi(x1, x2)


def _smooth_1d(h: Callable, support, params: TwoModeParams, j: int) -> Callable:
    """Gaussian smoothing of a 1D field at the kernel width of mode j.

    The kernel variance is half the portrait variance: amplitudes smooth
    once, probabilities twice.  Returns a vectorised x -> E[h(x + std Z)].
    """
    precision = [[2.0 / _mode_sigma(params, j) ** 2]]
    box = None if support is None else [support]

    def factor(x):
        out = gaussian_smooth(h, np.asarray(x, dtype=float)[..., None], precision, box)
        return out if out.shape else float(out)

    return factor


def sep_kernel_hq(
    h1: Callable,
    h2: Callable,
    params: TwoModeParams,
    support1: tuple | None = None,
    support2: tuple | None = None,
) -> DiagonalKernel:
    """Kernel of the quantised product field h1(q1) h2(q2).

    Position-only fields quantise to position-diagonal operators; the
    returned object carries the smoothing factor F1(x1) F2(x2).  h ≡ 1 gives
    factor 1 (the identity), and affine h gives the affine function itself.
    """
    f1 = _smooth_1d(h1, support1, params, 1)
    f2 = _smooth_1d(h2, support2, params, 2)
    return DiagonalKernel(lambda x1, x2: f1(x1) * f2(x2))
