"""Constrained oscillators with position-dependent mass and their smoothed
semiclassical dynamics.

The classical model confines each coordinate to (-1/Lambda_j, 1/Lambda_j) by
letting the mass m0/(1 - Lambda_j^2 q_j^2) diverge at the walls.  The
substitution theta_j = arcsin(Lambda_j q_j) turns each mode into the pendulum
theta'' = -(Vbar_j/m0) sin(2 theta_j), which is smooth through wall touches
and keeps |q_j| <= 1/Lambda_j exactly, so classical trajectories are
integrated in the angle variables and mapped back.  Without an external
potential the angles advance uniformly and each coordinate oscillates at
frequency Lambda_j v0_j.

Quantisation smears the hard walls: observables are replaced by their
Gaussian-smoothed portraits, and the box indicator acquires erfc-shaped
shoulders of width lambda_j Delta_p_j per mode.  The smeared mass portrait
stays finite and strictly positive everywhere, the confining walls become a
finite potential barrier, and a sufficiently energetic state escapes.  The
semiclassical equations of motion are integrated in (q, v) form: the
canonical momentum p_j = v_j / A_j grows like exp(z^2) beyond the walls and
makes the equivalent (q, p) system needlessly stiff during an escape.

Every smoothed wall quantity comes from one per-mode evaluator,
``_mode_pieces`` (the windows chi_j and <q_j^2 chi_j> and their
derivatives), and the regularised inverse masses A_j, V_eff and their
gradients are assembled from it in one place, ``_veff_pieces``, which runs
on float arrays for the portraits, energies and masks.

Each equation of motion is written once, as a formula on floats,
``formula(q1, q2, v1, v2, *constants) -> (acc1, acc2)``: the smoothed flow
``_motion`` (``_veff_pieces`` and ``_accelerations``, 21 constants) and the
pendulum ``_pendulum`` (2 constants).  ``_solve`` hands the solver both of
its forms: the formula called on Python floats with ``math``'s functions
(``_python_rhs``), and its trace in C with the constants as arguments, one
source per formula (``_c_source``), which the solver compiles where it can.
The two give the same bits.  Only the array evaluations need
``scipy.special`` (erfc), and they import it at first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, NonFiniteState, OutsideBox
from .numerics import CompiledRhs, OdeProblem, solve_ode
from .sepstates import TwoModeParams, _mode_sigma

__all__ = [
    "PdmModel",
    "SemiclassicalModel",
    "InitialState",
    "Trajectory",
    "classical_exact",
    "classical_integrate",
    "portrait_chi",
    "portrait_q2chi",
    "regularised_mass",
    "effective_potential",
    "effective_potential_gradient",
    "semiclassical_energy",
    "initial_momenta",
    "semiclassical_integrate",
    "Preset",
    "PRESETS",
]

_CLASSIFICATIONS = ("bounded", "escaped", "singular-stop")

# Escaped means: outside the classical rectangle with the barrier already
# far below the conserved energy, or unambiguously far away.
_ESCAPE_POTENTIAL_FRACTION = 0.01
_FAR_AWAY_FACTOR = 2.0


@dataclass(frozen=True)
class PdmModel:
    """Two uncoupled modes with mass m0/(1 - Lambda_j^2 q_j^2).

    The mass divergence confines mode j to (-1/Lambda_j, 1/Lambda_j); vbar_j
    is the strength of an additional external potential vbar_j q_j^2 (no
    half: the conventional spring constant is 2 vbar_j).
    """

    m0: float
    lambda1: float
    lambda2: float
    vbar1: float = 0.0
    vbar2: float = 0.0

    def __post_init__(self):
        vals = (self.m0, self.lambda1, self.lambda2, self.vbar1, self.vbar2)
        if not all(np.isfinite(v) for v in vals):
            raise ConfigError("model parameters must be finite")
        if not self.m0 > 0:
            raise ConfigError("m0 must be positive")
        if not (self.lambda1 > 0 and self.lambda2 > 0):
            raise ConfigError("inverse lengths lambda1, lambda2 must be positive")
        if not all(math.isfinite(1.0 / float(lam)) for lam in (self.lambda1, self.lambda2)):
            raise ConfigError("inverse lengths lambda1, lambda2 must give finite walls 1/lambda")
        if self.vbar1 < 0 or self.vbar2 < 0:
            raise ConfigError("oscillator strengths vbar1, vbar2 must be nonnegative")

    def inverse_length(self, j: int) -> float:
        _require_mode(j)
        return self.lambda1 if j == 1 else self.lambda2

    def wall(self, j: int) -> float:
        """Half-width 1/Lambda_j of the confining box in mode j."""
        return 1.0 / self.inverse_length(j)

    @property
    def box(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((-self.wall(1), self.wall(1)), (-self.wall(2), self.wall(2)))


@dataclass(frozen=True)
class SemiclassicalModel:
    """A PdmModel paired with the squeezing parameters of the evolving state.

    Dynamics are only derived for real squeezing (gamma_j = 0); complex tau
    is rejected here, although the portrait functions accept it.
    """

    model: PdmModel
    modes: TwoModeParams

    def __post_init__(self):
        for j in (1, 2):
            if self.modes.mode(j).tau.imag != 0.0:
                raise ConfigError(
                    "semiclassical dynamics require real tau (gamma = 0) in both modes"
                )

    @property
    def hbar(self) -> float:
        return self.modes.hbar


@dataclass(frozen=True)
class InitialState:
    """Initial positions and velocities (not momenta) of both modes."""

    q1: float
    q2: float
    v1: float
    v2: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.q1, self.q2, self.v1, self.v2)):
            raise ValueError("initial state must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory (t, q, p, E) plus an outcome classification.

    ``q`` and ``p`` have shape (n, 2).  ``classification`` is "bounded",
    "escaped" or "singular-stop"; the last marks a run whose integrator
    stalled, with the samples truncated at the stall.  ``escape_time`` is the
    first sample time at which the escape criterion held, None otherwise.
    ``n_rhs_evals`` counts the right-hand-side evaluations of the solver run,
    ``n_accepted``, ``n_rejected`` and ``h_min`` its step counts and smallest
    step, and ``message`` the solver limit that stopped a singular-stop run.
    Momenta may overflow at exact wall touches where the classical mass
    diverges; positions and energies are finite throughout.
    """

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    classification: str
    escape_time: Optional[float] = None
    n_rhs_evals: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    message: str = ""
    h_min: float = math.inf

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        n = t.shape[0] if t.ndim == 1 else -1
        if n < 2:
            raise ValueError("trajectory needs at least two time samples")
        if np.asarray(self.q).shape != (n, 2) or np.asarray(self.p).shape != (n, 2):
            raise ValueError("q and p must have shape (len(t), 2)")
        if np.asarray(self.energy).shape != (n,):
            raise ValueError("energy must have shape (len(t),)")
        if not np.all(np.diff(t) > 0):
            raise ValueError("time samples must be strictly increasing")
        if self.classification not in _CLASSIFICATIONS:
            raise ValueError(f"classification must be one of {_CLASSIFICATIONS}")

    def energy_drift(self) -> float:
        """Largest |E(t) - E(0)| relative to |E(0)|."""
        e0 = self.energy[0]
        return float(np.max(np.abs(self.energy - e0)) / max(abs(e0), 1e-300))


def _solve(formula, constants: tuple, probe_axes, y0, t_span, samples: int, rel_tol: float, abs_tol: float):
    """The solver run of both integrators: the (q, v) flow of
    ``formula(q1, q2, v1, v2, *constants) -> (acc1, acc2)`` from y0, sampled
    at linspace(t0, t1, samples).  The problem carries the flow in both
    forms, ``_python_rhs`` and ``_compiled_rhs``, whose C the solver runs
    where it can after checking it at the states ``probe_axes`` spans.

    A run that the solver's minimum step or step budget stops has status
    "failed" and keeps its samples; with fewer than two left it raises
    NonFiniteState with the solver's message.
    """
    problem = OdeProblem(
        _python_rhs(formula, constants), t_span, y0, rel_tol, abs_tol,
        _compiled_rhs(formula, constants, probe_axes),
    )
    sol = solve_ode(problem, t_eval=np.linspace(t_span[0], t_span[1], samples))
    if sol.status == "failed" and sol.t.size < 2:
        raise NonFiniteState(sol.message)
    return sol


def _solver_fields(sol) -> dict:
    """The solver run's counts, smallest step and message, as Trajectory fields."""
    return {
        "n_rhs_evals": sol.n_rhs_evals,
        "n_accepted": sol.n_accepted,
        "n_rejected": sol.n_rejected,
        "message": sol.message,
        "h_min": sol.h_min,
    }


def _require_mode(j: int) -> None:
    if j not in (1, 2):
        raise ValueError("mode index must be 1 or 2")


def _scalar_or_array(x):
    """x as an array, or as a numpy scalar when it has no axes."""
    out = np.asarray(x)
    return out[()] if out.ndim == 0 else out


# ----------------------------------------------------------------------
# equations of motion: one formula, two forms


class _Traced:
    """A value of a formula being traced into C.

    Each float operation on it appends one node, (template, operands, kept),
    to its ``tape`` and returns the traced result; an operation between two
    plain floats runs as a float, so every constant that a formula folds is
    the float it computes.  ``kept`` marks the nodes that may raise in
    Python (a division, a call), which the code keeps even when no result
    reads them.  A traced value has no truth value, no float value and no
    comparison, so a formula that branches on one raises TypeError when it
    is traced instead of being specialised to one branch.
    """

    __slots__ = ("tape", "index")

    def __init__(self, tape: list, template: str, operands=(), kept=False):
        self.tape, self.index = tape, len(tape)
        tape.append((template, operands, kept))

    def _binary(template: str, kept=False, reflected=False):
        def op(self, other):
            if type(other) is not float and not isinstance(other, _Traced):
                return NotImplemented
            return _Traced(self.tape, template, (other, self) if reflected else (self, other), kept)

        return op

    __add__ = _binary("({} + {})")
    __radd__ = _binary("({} + {})", reflected=True)
    __sub__ = _binary("({} - {})")
    __rsub__ = _binary("({} - {})", reflected=True)
    __mul__ = _binary("({} * {})")
    __rmul__ = _binary("({} * {})", reflected=True)
    # a zero divisor raises ZeroDivisionError in Python; in C ``quot`` flags it
    __truediv__ = _binary("quot({}, {}, &raised)", kept=True)
    __rtruediv__ = _binary("quot({}, {}, &raised)", kept=True, reflected=True)
    del _binary

    def __neg__(self):
        return _Traced(self.tape, "(-{})", (self,))

    def __abs__(self):
        return _Traced(self.tape, "fabs({})", (self,))

    def __bool__(self):
        raise TypeError("a traced value has no truth value: the formula branches on it")

    def __eq__(self, other):
        raise TypeError("a traced value cannot be compared: the formula branches on it")

    __ne__ = __eq__


# the C call of each function a formula may take from ``math``: an infinite
# argument of sin raises ValueError in Python, and ``sine`` flags it
_C_CALLS = {math.erfc: "erfc({})", math.exp: "exp({})", math.sin: "sine({}, &raised)"}

_C_HELPERS = (
    "static double quot(double a, double b, int *raised)\n{\n"
    "    if (b == 0.0)\n        *raised = 1;\n    return a / b;\n}\n\n"
    "static double sine(double x, int *raised)\n{\n"
    "    if (isinf(x))\n        *raised = 1;\n    return sin(x);\n}\n\n"
)


def _recording(fn, template: str):
    """``fn`` of one float, recorded as ``template`` on a traced argument."""

    def call(x):
        if isinstance(x, _Traced):
            return _Traced(x.tape, template, (x,), kept=True)
        return fn(x)

    return call


def _trace(formula, names):
    """Straight-line C of ``formula`` on double arguments called ``names``.

    The formula takes the ``math`` functions it calls as keyword-only
    defaults (``_C_CALLS``), and the trace passes their recording forms.
    Returns the statements and the expressions of the results.  The values
    that no result reads are dropped, unless they are divisions or calls,
    which may raise in Python and flag ``raised`` in C; a value read once is
    inlined into its reader, and one read more often is the local
    ``t<node>``.  Every operation keeps its operands' order and its own
    parentheses, and the formula's literals are written in hexadecimal, so
    the code computes the formula's floats bit for bit.
    """
    tape: list = []
    calls = {key: _recording(fn, _C_CALLS[fn]) for key, fn in (formula.__kwdefaults__ or {}).items()}
    results = formula(*(_Traced(tape, name) for name in names), **calls)
    reads = [0] * len(tape)
    for r in results:
        if isinstance(r, _Traced):
            reads[r.index] += 1
    for i in reversed(range(len(tape))):
        _, operands, kept = tape[i]
        if reads[i] or kept:
            for v in operands:
                if isinstance(v, _Traced):
                    reads[v.index] += 1
    text = {}
    lines = []
    for i, (template, operands, kept) in enumerate(tape):
        if not operands:  # an argument
            text[i] = template
            continue
        if not (reads[i] or kept):
            continue
        expr = template.format(*(text[v.index] if isinstance(v, _Traced) else float.hex(v) for v in operands))
        if reads[i] == 1:
            text[i] = expr
        elif reads[i] == 0:
            lines.append(expr)
        else:
            text[i] = f"t{i}"
            lines.append(f"double t{i} = {expr}")
    return lines, [text[r.index] if isinstance(r, _Traced) else float.hex(r) for r in results]


@lru_cache(maxsize=None)
def _c_source(formula, n_constants: int) -> str:
    """``formula``'s right-hand side as the C function ``rhs(c, t, y, f)``:
    its trace with the constants as the arguments ``c[0]``.. instead of
    literals, so one compiled library serves every model.  A flag raised
    anywhere makes both accelerations NaN, as ``_python_rhs`` does."""
    names = ("q1", "q2", "v1", "v2", *(f"c[{k}]" for k in range(n_constants)))
    lines, (acc1, acc2) = _trace(formula, names)
    return (
        _C_HELPERS + "static void rhs(const double *c, double t, const double *y, double *f)\n{\n"
        "    const double q1 = y[0], q2 = y[1], v1 = y[2], v2 = y[3];\n    int raised = 0;\n"
        + "".join(f"    {line};\n" for line in lines)
        + f"    const double acc1 = {acc1};\n    const double acc2 = {acc2};\n"
        "    f[0] = v1;\n    f[1] = v2;\n    f[2] = raised ? NAN : acc1;\n    f[3] = raised ? NAN : acc2;\n}\n"
    )


def _python_rhs(formula, constants: tuple):
    """rhs(t, y) of ``formula`` on Python floats: (v1, v2, acc1, acc2).

    Where numpy would give inf or NaN, Python raises: ``ZeroDivisionError``
    on a zero divisor, ``ValueError`` on sin of an infinite angle.  There the
    accelerations are NaN, so a start whose portraits underflow fails the
    solver's finiteness check, and a step into such a region fails its error
    test, as with numpy values.
    """

    def rhs(t, y):
        q1, q2, v1, v2 = y
        try:
            acc1, acc2 = formula(q1, q2, v1, v2, *constants)
        except (ZeroDivisionError, ValueError):
            return v1, v2, math.nan, math.nan
        return v1, v2, acc1, acc2

    return rhs


def _compiled_rhs(formula, constants: tuple, probe_axes) -> CompiledRhs:
    """The C form of ``_python_rhs(formula, constants)``, which must give its
    bits at the positions (or angles) a, b of ``probe_axes`` with the
    velocities 0.7 and -1.3."""
    probes = tuple((a, b, 0.7, -1.3) for a in probe_axes[0] for b in probe_axes[1])
    return CompiledRhs(_c_source(formula, len(constants)), constants, probes)


# ----------------------------------------------------------------------
# classical dynamics


def classical_exact(model: PdmModel, j: int, q0: float, v0: float, t):
    """Closed-form free motion of mode j: a sine of frequency Lambda_j v0.

    Only valid without external potential.  Accepts scalar or array t.
    """
    _require_mode(j)
    if model.vbar1 != 0.0 or model.vbar2 != 0.0:
        raise ConfigError("closed-form motion requires vbar1 = vbar2 = 0")
    lam = model.inverse_length(j)
    if abs(lam * q0) >= 1.0:
        raise OutsideBox(f"|Lambda q0| = {abs(lam * q0):.6g} >= 1")
    t = np.asarray(t, dtype=float)
    phase = lam * v0 * t / np.sqrt(1.0 - (lam * q0) ** 2) + np.arcsin(lam * q0)
    return _scalar_or_array(np.sin(phase) / lam)


def _pendulum(th1, th2, w1, w2, k1, k2, *, sin=math.sin):
    """The angular accelerations of ``classical_integrate``:
    theta_j'' = -k_j sin(2 theta_j), with k_j = vbar_j / m0."""
    return -k1 * sin(2.0 * th1), -k2 * sin(2.0 * th2)


# angles of the states at which a compiled pendulum must give the Python
# one's bits: around the circle, far along it, and infinite, where sin raises
_PROBE_ANGLES = (-math.inf, -1e6, -2.5, -0.3, 0.0, 0.6, math.pi / 2.0, 4.0, 1e17)


def classical_integrate(
    model: PdmModel,
    init: InitialState,
    t_span: tuple[float, float],
    *,
    samples: int = 2001,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-13,
) -> Trajectory:
    """Integrate the confined classical motion of both modes.

    Works in the angles theta_j = arcsin(Lambda_j q_j), where the motion is
    the pendulum ``_pendulum`` and wall touches are regular interior points;
    the exact bound |q_j| <= 1/Lambda_j survives the round-trip.  The
    pendulum runs through ``_solve`` as the semiclassical flow does, so the
    solver compiles it where it can, with the bits of its Python floats.
    The momenta in the returned samples are recovered as
    m0 thetadot_j / (Lambda_j cos theta_j) and overflow only if a sample
    lands exactly on a wall touch.
    """
    lam = np.array([model.lambda1, model.lambda2])
    vbar = np.array([model.vbar1, model.vbar2])
    q0 = np.array([init.q1, init.q2])
    v0 = np.array([init.v1, init.v2])
    if np.any(np.abs(lam * q0) >= 1.0):
        raise OutsideBox("initial position must lie strictly inside the box")

    theta0 = np.arcsin(lam * q0)
    with np.errstate(over="ignore"):
        omega0 = lam * v0 / np.cos(theta0)
    if not np.all(np.isfinite(omega0)):
        raise NonFiniteState("the initial angular velocities Lambda_j v0_j / cos theta_j overflow")
    # Python floats: numpy scalars would make every RHS call several times
    # slower, and would not raise where Python does
    k = (float(model.vbar1) / float(model.m0), float(model.vbar2) / float(model.m0))
    y0 = np.array([theta0[0], theta0[1], omega0[0], omega0[1]])
    sol = _solve(_pendulum, k, (_PROBE_ANGLES, _PROBE_ANGLES), y0, t_span, samples, rel_tol, abs_tol)
    # the pendulum is smooth, but a coefficient vbar/m0 or a velocity so large
    # that the step falls below the solver's minimum or runs out of its budget
    # stops the run
    classification = "singular-stop" if sol.status == "failed" else "bounded"

    theta = sol.y[:, 0:2]
    omega = sol.y[:, 2:4]
    q = np.sin(theta) / lam
    with np.errstate(divide="ignore", over="ignore"):
        p = model.m0 * omega / (lam * np.cos(theta))
    # per-mode pendulum invariant, identical to p^2/2m + vbar q^2; each factor
    # is divided by Lambda before squaring, since Lambda^2 underflows for
    # Lambda below about 1e-154 where the energy itself is finite
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.sum(
            0.5 * model.m0 * (omega / lam) ** 2 + vbar * (np.sin(theta) / lam) ** 2, axis=1
        )
    if not np.all(np.isfinite(energy)):
        # an angular velocity near the float range (the steps run on without
        # resolving any oscillation) overflows the invariant
        raise NonFiniteState("the energy of the sampled states is not finite")
    return Trajectory(sol.t, q, p, energy, classification, **_solver_fields(sol))


# ----------------------------------------------------------------------
# smoothed portraits of the box observables

# For one mode with wall half-width w and smoothing s = lambda Delta_p the
# Gaussian smoothing of the box indicator chi and of q^2 chi are elementary:
#   c(q) = (erfc(z_b) - erfc(z_a)) / 2,        z_x = (q - x) / (sqrt2 s)
#   g(q) = (q^2 + s^2) c(q)
#          + s/sqrt(2 pi) ((q - w) e^{-z_a^2} - (q + w) e^{-z_b^2})
# with walls a = -w, b = +w, and derivatives
#   c'(q) = (e^{-z_a^2} - e^{-z_b^2}) / (s sqrt(2 pi))
#   g'(q) = 2 q c(q) + (w^2 + 2 s^2) c'(q).
# c is even, and it is evaluated at |q|: left of the box erfc(z_b) and
# erfc(z_a) are both near 2 and their difference would lose its digits,
# right of it both are small and exact.  So c and g are exactly even, c' and
# g' exactly odd.


_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


class _ModeScale(NamedTuple):
    """One mode's wall half-width w and smoothing width s, as Python floats,
    with the constants of ``_mode_pieces``: each is the same single float
    operation that it would otherwise repeat on every call."""

    w: float
    s: float
    rt2s: float  # sqrt2 s
    s_rt2pi: float  # s sqrt(2 pi)
    s_over_rt2pi: float  # s / sqrt(2 pi)
    ss: float  # s^2
    w2_2s2: float  # w^2 + 2 s^2


def _mode_scale(w: float, s: float) -> _ModeScale:
    return _ModeScale(w, s, _SQRT2 * s, s * _SQRT2PI, s / _SQRT2PI, s * s, w * w + 2.0 * s * s)


def _mode_pieces(q, m, erfc=None, exp=np.exp):
    """c, g, c', g' for one mode of scale ``m``, a ``_ModeScale`` or its floats.

    The one source of these formulas for every caller: q a float array
    with the default ``erfc`` and ``exp``, or q a Python float, or a traced
    one, with ``math.erfc`` and ``math.exp`` or their recording forms (the
    C of the equations of motion is traced from them).  The default
    ``erfc`` is ``scipy.special.erfc``, imported here at the first array
    call, so that a process which never smooths a wall never loads
    ``scipy.special``; the floats pass their own, and never run the import.
    """
    if erfc is None:
        from scipy.special import erfc
    w, _, rt2s, s_rt2pi, s_over_rt2pi, ss, w2_2s2 = m
    za = (q + w) / rt2s
    zb = (q - w) / rt2s
    ea = exp(-za * za)
    eb = exp(-zb * zb)
    aq = abs(q)
    c = 0.5 * (erfc((aq - w) / rt2s) - erfc((aq + w) / rt2s))
    cp = (ea - eb) / s_rt2pi
    g = (q * q + ss) * c + s_over_rt2pi * ((q - w) * ea - (q + w) * eb)
    gp = 2.0 * q * c + w2_2s2 * cp
    return c, g, cp, gp


def _as_points(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim == 0 or q.shape[-1] != 2:
        raise ValueError("q must have shape (..., 2)")
    return q


def _both_scales(model: PdmModel, params: TwoModeParams):
    """The ``_ModeScale`` of each mode, from its wall half-width and Gaussian
    smoothing width."""
    return tuple(_mode_scale(model.wall(j), float(_mode_sigma(params, j))) for j in (1, 2))


def _constants(model: PdmModel, params: TwoModeParams, kinetic: bool = False) -> tuple:
    """The constants of the smoothed formulas (``_veff_pieces``, ``_motion``):
    the model's m0, Lambda_1, Lambda_2, vbar_1, vbar_2, each mode's
    ``_ModeScale`` and, with ``kinetic``, the kinetic coefficients; 21
    Python floats, or 19.  An ``np.float64`` would turn every float operation
    of the equations of motion into a slower numpy one that does not raise
    where Python does."""
    scales = _both_scales(model, params)
    kin = _kinetic_coeffs(params) if kinetic else ()
    values = (model.m0, model.lambda1, model.lambda2, model.vbar1, model.vbar2, *scales[0], *scales[1], *kin)
    return tuple(float(v) for v in values)


def _veff_pieces(constants: tuple, q1, q2, erfc=None, exp=np.exp):
    """Every smoothed wall quantity at (q1, q2), from one evaluation of the
    per-mode pieces: V_eff and its gradient (d1, d2) and the inverse masses
    with their gradients (A1, A2, d1A1, d2A1, d1A2, d2A2).  The windows alone
    come from ``_windows``.

    The only place where these are assembled, for the ``_constants`` of a
    model and smoothing family, which callers that evaluate many times
    compute once.  Only V_eff and its gradient read the kinetic
    coefficients: without them (19 constants) only the masses are
    returned, and the V_eff sums are skipped.  ``erfc`` and ``exp`` go to
    ``_mode_pieces`` (scipy's erfc and numpy's exp on float arrays by
    default, ``math``'s on Python floats, their recording forms on traced
    ones).  q1 and q2 broadcast against each other.
    """
    m0, l1, l2, v1, v2 = constants[:5]
    c1, g1, c1p, g1p = _mode_pieces(q1, constants[5:12], erfc, exp)
    c2, g2, c2p, g2p = _mode_pieces(q2, constants[12:19], erfc, exp)
    m1 = (c1 - l1 * l1 * g1) / m0
    m2 = (c2 - l2 * l2 * g2) / m0
    m1p = (c1p - l1 * l1 * g1p) / m0
    m2p = (c2p - l2 * l2 * g2p) / m0
    masses = (m1 * c2, c1 * m2, m1p * c2, m1 * c2p, c1p * m2, c1 * m2p)
    if len(constants) == 19:
        return masses
    k1, k2 = constants[19:]
    veff = k1 * m1 * c2 + k2 * c1 * m2 + v1 * g1 * c2 + v2 * c1 * g2
    d1 = k1 * m1p * c2 + k2 * c1p * m2 + v1 * g1p * c2 + v2 * c1p * g2
    d2 = k1 * m1 * c2p + k2 * c1 * m2p + v1 * g1 * c2p + v2 * c1 * g2p
    return veff, d1, d2, masses


def _pieces(model: PdmModel, params: TwoModeParams, q, kinetic: bool = False):
    """``_veff_pieces`` at the points q of shape (..., 2): the masses alone,
    or with ``kinetic`` V_eff and its gradient as well.

    Far outside a wall exp(-z^2) is the right 0 reached through an
    overflowing z^2; at points or scales so extreme that a piece itself
    leaves the float range (q^2 or Lambda^2 overflowing, m0 subnormal) it
    turns inf or NaN, which the portrait command refuses to write.  Neither
    is reported as a floating-point warning.
    """
    q = _as_points(q)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _veff_pieces(_constants(model, params, kinetic), q[..., 0], q[..., 1])


def _windows(model: PdmModel, params: TwoModeParams, q):
    """``_mode_pieces`` of each mode at the points q, as quiet as ``_pieces``."""
    q, scales = _as_points(q), _both_scales(model, params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return [_mode_pieces(q[..., j], scales[j]) for j in (0, 1)]


def portrait_chi(model: PdmModel, params: TwoModeParams, q):
    """Smoothed box indicator, a product of per-mode erfc windows in (0, 1)."""
    (c1, *_), (c2, *_) = _windows(model, params, q)
    return _scalar_or_array(c1 * c2)


def portrait_q2chi(model: PdmModel, params: TwoModeParams, j: int, q):
    """Smoothed q_j^2 restricted to the box.

    In the infinite-box limit this reduces to q_j^2 + lambda_j^2 Delta_p_j^2,
    the familiar smearing shift of the square.
    """
    _require_mode(j)
    (c1, g1, *_), (c2, g2, *_) = _windows(model, params, q)
    return _scalar_or_array(g1 * c2 if j == 1 else g2 * c1)


def regularised_mass(model: PdmModel, params: TwoModeParams, q, j: int):
    """Smoothed inverse-mass factor A_j = (c_j - Lambda_j^2 g_j) c_other / m0.

    Strictly positive everywhere: inside the box it tends to
    (1 - Lambda_j^2 q_j^2)/m0, outside it decays like a Gaussian tail without
    crossing zero, so the semiclassical flow has no mass singularity.
    """
    _require_mode(j)
    a1, a2 = _pieces(model, params, q)[:2]
    return _scalar_or_array(a1 if j == 1 else a2)


def _kinetic_coeffs(params: TwoModeParams) -> tuple[float, float]:
    out = []
    for j in (1, 2):
        par = params.mode(j)
        s2 = par.lam**2 * par.widths().delta_p_sq
        out.append(params.hbar**2 / (2.0 * s2))
    return out[0], out[1]


def _require_real_tau(params: TwoModeParams) -> None:
    if params.mode1.tau.imag != 0.0 or params.mode2.tau.imag != 0.0:
        raise ConfigError("the effective potential is derived for real tau (gamma = 0)")


def effective_potential(model: PdmModel, params: TwoModeParams, q):
    """Smoothed potential: kinetic wall terms plus the external oscillators.

    V_eff = sum_j hbar^2/(2 lambda_j^2 Delta_p_j^2) A_j + vbar_j <q_j^2 chi>.
    Finite everywhere and decaying to zero far outside the box, which is what
    turns the classical hard walls into an escapable barrier.
    """
    _require_real_tau(params)
    return _scalar_or_array(_pieces(model, params, q, kinetic=True)[0])


def effective_potential_gradient(model: PdmModel, params: TwoModeParams, q):
    """Closed-form gradient of effective_potential, stacked along the last axis."""
    _require_real_tau(params)
    _, d1, d2, _ = _pieces(model, params, q, kinetic=True)
    return np.stack([d1, d2], axis=-1)


# ----------------------------------------------------------------------
# semiclassical dynamics


def semiclassical_energy(semi: SemiclassicalModel, q, p):
    """Conserved value p1^2 A_1/2 + p2^2 A_2/2 + V_eff at (q, p)."""
    p = _as_points(p)
    veff, _, _, (a1, a2, *_) = _pieces(semi.model, semi.modes, q, kinetic=True)
    return _scalar_or_array(0.5 * (p[..., 0] ** 2 * a1 + p[..., 1] ** 2 * a2) + veff)


def initial_momenta(semi: SemiclassicalModel, init: InitialState) -> np.ndarray:
    """Momenta conjugate to the initial velocities: p_j = v_j / A_j(q0)."""
    a1, a2 = _pieces(semi.model, semi.modes, [init.q1, init.q2])[:2]
    return np.array([init.v1 / a1, init.v2 / a2])


def _classify_escape(semi: SemiclassicalModel, t, q, veff, e0):
    """First sample, if any, at which the trajectory counts as escaped."""
    scaled = np.maximum(
        np.abs(semi.model.lambda1 * q[:, 0]), np.abs(semi.model.lambda2 * q[:, 1])
    )
    outside = scaled > 1.0
    barrier_gone = veff < _ESCAPE_POTENTIAL_FRACTION * e0
    far = np.max(np.abs(q), axis=1) > _FAR_AWAY_FACTOR * max(semi.model.wall(1), semi.model.wall(2))
    hit = (outside & barrier_gone) | far
    if not np.any(hit):
        return None
    return float(t[int(np.argmax(hit))])


def _accelerations(v1, v2, d1v, d2v, masses):
    """dv1/dt and dv2/dt of the (q, v) equations of motion, from the
    velocities, the gradient (d1v, d2v) of V_eff and the inverse masses with
    their gradients, as ``_veff_pieces`` returns them."""
    a1, a2, d1a1, d2a1, d1a2, d2a2 = masses
    acc1 = (
        0.5 * v1 * v1 / a1 * d1a1
        - 0.5 * a1 / (a2 * a2) * d1a2 * v2 * v2
        + v1 * v2 / a1 * d2a1
        - a1 * d1v
    )
    acc2 = (
        0.5 * v2 * v2 / a2 * d2a2
        - 0.5 * a2 / (a1 * a1) * d2a1 * v1 * v1
        + v1 * v2 / a2 * d1a2
        - a2 * d2v
    )
    return acc1, acc2


def _motion(q1, q2, v1, v2, *constants, erfc=math.erfc, exp=math.exp):
    """The accelerations of ``semiclassical_integrate``'s (q, v) flow for the
    21 ``constants`` of ``_constants``: ``_veff_pieces`` and ``_accelerations``
    on Python floats, or on traced ones."""
    _, d1v, d2v, masses = _veff_pieces(constants, q1, q2, erfc, exp)
    return _accelerations(v1, v2, d1v, d2v, masses)


# positions, in walls, of the states at which a compiled flow must give the
# Python one's bits: inside, at and beyond each wall, and so far out that
# every window underflows and the accelerations are NaN
_PROBE_WALLS = (-40.0, -2.5, -1.0, -0.3, 0.0, 0.6, 0.999, 1.05, 4.0)


def semiclassical_integrate(
    semi: SemiclassicalModel,
    init: InitialState,
    t_span: tuple[float, float],
    *,
    samples: int = 3001,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
) -> Trajectory:
    """Integrate the smoothed equations of motion from positions and velocities.

    The second-order (q, v) system is used instead of the canonical (q, p)
    one: v_j = p_j A_j stays bounded during an escape while p_j explodes like
    a Gaussian reciprocal, and the (q, p) form loses six orders of magnitude
    of energy conservation crossing the wall region.  All coefficients use
    the closed-form erfc expressions and their analytic derivatives.

    The accelerations are ``_motion``, the same ``_veff_pieces`` that the
    portraits and the sampled energies run on float arrays, here on Python
    floats with ``math.erfc`` and ``math.exp``; ``_solve`` hands the solver
    that and its trace in C, which runs where the host has a compiler, about
    twenty times faster and with the same bits.  The arrays take
    ``scipy.special.erfc``, which a process that has drawn no portrait
    imports for the sampled energies, after the solve.  The two differ only
    by the rounding of the two erfc and exp implementations, so trajectories
    move in their last digits against an all-numpy right-hand side.  A run
    that the solver's minimum step or step budget stops is classified
    "singular-stop" and keeps its samples.

    The initial point may lie anywhere; escape is detected by leaving the
    classical rectangle after the barrier has dropped below a hundredth of
    the conserved energy, or by straying beyond twice the larger half-width.
    """
    constants = _constants(semi.model, semi.modes, kinetic=True)
    walls = [tuple(a * semi.model.wall(j) for a in _PROBE_WALLS) for j in (1, 2)]
    y0 = [float(v) for v in (init.q1, init.q2, init.v1, init.v2)]
    sol = _solve(_motion, constants, walls, y0, t_span, samples, rel_tol, abs_tol)

    q = sol.y[:, 0:2]
    v = sol.y[:, 2:4]
    veff, _, _, (a1, a2, *_) = _veff_pieces(constants, q[:, 0], q[:, 1])
    p = np.stack([v[:, 0] / a1, v[:, 1] / a2], axis=-1)
    energy = 0.5 * (v[:, 0] ** 2 / a1 + v[:, 1] ** 2 / a2) + veff

    fields = _solver_fields(sol)
    if sol.status == "failed":
        return Trajectory(sol.t, q, p, energy, "singular-stop", **fields)
    escape_time = _classify_escape(semi, sol.t, q, veff, energy[0])
    if escape_time is None:
        return Trajectory(sol.t, q, p, energy, "bounded", **fields)
    return Trajectory(sol.t, q, p, energy, "escaped", escape_time, **fields)


# ----------------------------------------------------------------------
# canned parameter sets


@dataclass(frozen=True)
class Preset:
    """A ready-to-run scenario; modes is None for purely classical ones."""

    name: str
    kind: str  # "classical" or "semiclassical"
    model: PdmModel
    init: InitialState
    t_span: tuple[float, float]
    modes: Optional[TwoModeParams] = None
    closure_time: Optional[float] = None
    description: str = ""


def _classical_preset(name, lambda1, lambda2, vbar, m0, v0, t_span, closure, text):
    return Preset(
        name=name,
        kind="classical",
        model=PdmModel(m0=m0, lambda1=lambda1, lambda2=lambda2, vbar1=vbar, vbar2=vbar),
        init=InitialState(0.0, 0.0, v0[0], v0[1]),
        t_span=t_span,
        closure_time=closure,
        description=text,
    )


def _semiclassical_preset(name, v0, text):
    return Preset(
        name=name,
        kind="semiclassical",
        model=PdmModel(m0=5.0, lambda1=1.5, lambda2=1.0, vbar1=50.0, vbar2=50.0),
        init=InitialState(0.0, 0.0, v0[0], v0[1]),
        t_span=(0.0, 15.0),
        modes=TwoModeParams.from_tau(0.9, 0.9, lam1=0.5, lam2=0.5, hbar=1.0),
        description=text,
    )


PRESETS = {
    "fig3a": _classical_preset(
        "fig3a", 1.0, 1.0, 0.0, 1.0, (1.0, 2.0), (0.0, 65.0), 2.0 * np.pi,
        "free box motion, frequencies 1 and 2; orbit closes after 2 pi",
    ),
    "fig3b": _classical_preset(
        "fig3b", 1.5, 1.0, 0.0, 1.0, (1.0, 2.0), (0.0, 65.0), 4.0 * np.pi,
        "free box motion, frequencies 3/2 and 2; orbit closes after 4 pi",
    ),
    "fig3c": _classical_preset(
        "fig3c", 2.0, 1.0, 0.0, 1.0, (1.0, 2.0), (0.0, 65.0), np.pi,
        "free box motion, equal frequencies 2; orbit closes after pi",
    ),
    "fig4a": _classical_preset(
        "fig4a", 2.0, 1.0, 1.0, 5.0, (1.0, 2.0), (0.0, 35.0), None,
        "weak external oscillator inside the box",
    ),
    "fig4b": _classical_preset(
        "fig4b", 2.0, 1.0, 2.0, 5.0, (1.0, 2.0), (0.0, 35.0), None,
        "moderate external oscillator inside the box",
    ),
    "fig4c": _classical_preset(
        "fig4c", 2.0, 1.0, 15.0, 5.0, (1.0, 2.0), (0.0, 35.0), None,
        "strong external oscillator: libration well inside the walls",
    ),
    "fig6a": _semiclassical_preset(
        "fig6a", (0.75, 0.75),
        "semiclassical launch below both barrier tops: stays confined",
    ),
    "fig6b": _semiclassical_preset(
        "fig6b", (1.0, 1.5),
        "energetic launch aimed at the stronger barrier: stays confined",
    ),
    "fig6c": _semiclassical_preset(
        "fig6c", (1.75, 1.25),
        "energetic launch along the weaker barrier: escapes the box",
    ),
}
