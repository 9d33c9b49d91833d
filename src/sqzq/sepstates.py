"""Separable two-mode squeezed states and their position portraits.

A separable state is a tensor product of two one-mode states, so every
quantity here factorises: the wavefunction is a product, the overlap-squared
is a product, and the phase-space portraits reduce to per-mode Gaussian
smoothings in position plus polynomial corrections in the momenta.

Portraits of momentum-weighted fields never need momentum quadrature: the
momentum integrals are Gaussian and have been done once and for all, leaving
position smoothings of h and its centred moments (q_j - q_j0) h, (q_j - q_j0)^2 h,
those a portrait needs in one stacked ``numerics.gaussian_smooth`` pass at precision
diag(1/s_j^2), s_j = lam_j Delta_p_j: the phi = 0 case of the coupled kernel
in ``nonsepstates``.  A quantised position field is multiplication by the
smoothing of h at twice that precision.
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
    "as_field",
    "sep_wavefunction",
    "portrait_hq",
    "portrait_p_h",
    "portrait_p2_h",
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


def _centred_moments(j: int, field: Field, point: PhasePoint, params: TwoModeParams,
                     second: bool = True):
    """Portraits of h, (q_j - q_j0) h and, if ``second``, (q_j - q_j0)^2 h,
    centred on the point's q_j0, from one stacked smoothing; a supported
    field's window is that of its degree plus 2 either way, so h and the first
    moment are the same bit for bit with or without the second."""

    def stack(q1, q2):
        h = field(q1, q2)
        dq = (q1 if j == 1 else q2) - point.q(j)
        moments = [h, dq * h]
        if second:
            moments.append(dq * dq * h)
        return np.stack(np.broadcast_arrays(*moments))

    precision = np.diag([1.0 / _mode_sigma(params, 1) ** 2, 1.0 / _mode_sigma(params, 2) ** 2])
    return gaussian_smooth(stack, [point.q1, point.q2], precision, field.support, _pad(field) + 2)


def portrait_p_h(j: int, h, point: PhasePoint, params: TwoModeParams) -> float:
    """Lower symbol of the quantised field p_j h(q1, q2).

    p_j A_h minus 2 hbar gamma_j / (lam_j^2 delta_p_sq_j) times the centred
    first moment A_{(q_j - q_j0) h}, both from one smoothing pass; for real
    tau_j the correction vanishes and the portrait is p_j times A_h.
    """
    mode = params.mode(j)
    w = mode.widths()
    dd = w.delta_p_sq * mode.lam**2
    a_h, m1 = _centred_moments(j, as_field(h), point, params, second=False)
    return float(point.p(j) * a_h - (2.0 * params.hbar * w.gamma / dd) * m1)


def portrait_p2_h(j: int, h, point: PhasePoint, params: TwoModeParams) -> float:
    """Lower symbol of the quantised field p_j^2 h(q1, q2).

    Three groups: the isotropic (p_j^2 + hbar^2/(delta_p^2 lam^2)) A_h term,
    a gamma^2 group in the centred second moment A_{(q_j - q_j0)^2 h}, and a
    gamma group in p_j times the centred first moment, all three moments
    from one smoothing pass.  Both gamma groups vanish for real tau_j.
    """
    mode = params.mode(j)
    w = mode.widths()
    dd = w.delta_p_sq * mode.lam**2
    hbar, pj = params.hbar, point.p(j)
    a_h, m1, m2 = _centred_moments(j, as_field(h), point, params)
    base = (pj**2 + hbar**2 / dd) * a_h
    gamma_sq_group = (4.0 * hbar**2 * w.gamma**2 / dd**2) * m2
    gamma_group = -(4.0 * hbar * w.gamma / dd) * pj * m1
    return float(base + gamma_sq_group + gamma_group)
