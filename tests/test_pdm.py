"""Position-dependent-mass dynamics and wall-portrait checks.

Every closed-form erfc expression is compared against direct Gaussian
quadrature of the smoothed observable; the oracles never reuse the erfc
algebra under test.  Dynamics are checked against the exact free solution,
analytic libration amplitudes, and conservation of the relevant energy.
"""

import itertools
import linecache
import math
import shutil
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import erfc

import sqzq.pdm as pdm_module
from sqzq import native
from sqzq.cli import _quad_moment_1d
from sqzq.errors import ConfigError, NonFiniteState, OutsideBox
from sqzq.numerics import OdeSolution, solve_ode
from sqzq.pdm import (
    PRESETS,
    InitialState,
    PdmModel,
    SemiclassicalModel,
    Trajectory,
    classical_energy,
    classical_exact,
    classical_integrate,
    effective_potential,
    effective_potential_gradient,
    forbidden_region,
    initial_momenta,
    portrait_chi,
    portrait_q2chi,
    regularised_mass,
    regularised_mass_gradient,
    semiclassical_energy,
    semiclassical_integrate,
)
from sqzq.pdm import (
    _accelerations,
    _both_scales,
    _equations_of_motion,
    _generated_rhs,
    _kinetic_coeffs,
    _mode_pieces,
    _motion_constants,
    _rhs_c_source,
    _trace,
    _veff_pieces,
)
from sqzq.sepstates import TwoModeParams

from .oracles import box_moment, dop853_reference


def _fig6_pair():
    model = PdmModel(m0=5.0, lambda1=1.5, lambda2=1.0, vbar1=50.0, vbar2=50.0)
    modes = TwoModeParams.from_tau(0.9, 0.9, lam1=0.5, lam2=0.5)
    return model, modes


def _smoothing(modes, j):
    par = modes.mode(j)
    return par.lam * np.sqrt(par.widths().delta_p_sq)


def _smoothed(q, model, modes, j, power=0):
    # Gaussian smoothing of x^power on mode j's box, by brute quadrature
    return _quad_moment_1d(q, model.wall(j), _smoothing(modes, j), power)


def _quad_massnum(q, w, s, lam):
    val, _ = quad(
        lambda x: (1 - lam * lam * x * x) * np.exp(-((x - q) ** 2) / (2 * s * s)),
        -w,
        w,
        limit=200,
    )
    return val / (s * np.sqrt(2 * np.pi))


# ---------------------------------------------------------------- models


def test_model_validation():
    with pytest.raises(ConfigError):
        PdmModel(m0=0.0, lambda1=1.0, lambda2=1.0)
    with pytest.raises(ConfigError):
        PdmModel(m0=1.0, lambda1=-1.0, lambda2=1.0)
    with pytest.raises(ConfigError):
        PdmModel(m0=1.0, lambda1=1.0, lambda2=1.0, vbar1=-0.5)
    with pytest.raises(ConfigError):
        PdmModel(m0=np.inf, lambda1=1.0, lambda2=1.0)


def test_model_box_and_mass():
    model = PdmModel(m0=2.0, lambda1=2.0, lambda2=0.5)
    assert model.box == ((-0.5, 0.5), (-2.0, 2.0))
    assert model.mass(1, 0.0) == 2.0
    assert model.mass(2, 1.0) == pytest.approx(2.0 / (1 - 0.25))
    q = np.linspace(-0.49, 0.49, 99)
    assert np.all(model.mass(1, q) > 0)
    assert model.mass(1, 0.4999) > 1e3


def test_semiclassical_model_requires_real_tau():
    model = PdmModel(m0=1.0, lambda1=1.0, lambda2=1.0)
    modes = TwoModeParams.from_tau(0.5j, 0.0, lam1=0.5, lam2=0.5)
    with pytest.raises(ConfigError):
        SemiclassicalModel(model, modes)


def test_initial_state_validation():
    with pytest.raises(ValueError):
        InitialState(0.0, np.nan, 1.0, 1.0)
    s = InitialState(0.1, 0.2, 0.3, 0.4)
    assert (s.q1, s.q2, s.v1, s.v2) == (0.1, 0.2, 0.3, 0.4)


def test_trajectory_validation():
    t = np.array([0.0, 1.0, 0.5])
    qp = np.zeros((3, 2))
    e = np.zeros(3)
    with pytest.raises(ValueError):
        Trajectory(t, qp, qp, e, "bounded")
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), "stuck")
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0]), np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1), "bounded")


# ---------------------------------------------------------------- classical


def test_classical_exact_peak():
    model = PdmModel(m0=1.0, lambda1=1.0, lambda2=1.0)
    assert classical_exact(model, 1, 0.0, 1.0, np.pi / 2) == pytest.approx(1.0)


def test_classical_exact_frequency():
    # wall at 1/2 halves the amplitude and doubles the frequency
    model = PdmModel(m0=1.0, lambda1=2.0, lambda2=1.0)
    t = np.linspace(0.0, 9.0, 400)
    assert_allclose(classical_exact(model, 1, 0.0, 1.0, t), 0.5 * np.sin(2.0 * t), atol=1e-14)


def test_classical_exact_initial_condition():
    model = PdmModel(m0=1.0, lambda1=1.0, lambda2=1.0)
    assert classical_exact(model, 1, 0.5, 1.0, 0.0) == pytest.approx(0.5)


def test_classical_exact_rejects_bad_input():
    model = PdmModel(m0=1.0, lambda1=1.0, lambda2=1.0)
    with pytest.raises(OutsideBox):
        classical_exact(model, 1, 1.0, 1.0, 0.5)
    withpot = PdmModel(m0=1.0, lambda1=1.0, lambda2=1.0, vbar1=1.0)
    with pytest.raises(ConfigError):
        classical_exact(withpot, 1, 0.0, 1.0, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.2, 4.0),
    u=st.floats(-0.99, 0.99),
    v0=st.floats(-3.0, 3.0),
    t=st.floats(0.0, 50.0),
)
def test_classical_exact_never_leaves_box(lam, u, v0, t):
    model = PdmModel(m0=1.0, lambda1=lam, lambda2=1.0)
    q = classical_exact(model, 1, u / lam, v0, t)
    assert abs(q) <= 1.0 / lam + 1e-12


def test_classical_integrate_matches_exact():
    model = PdmModel(m0=1.0, lambda1=1.0, lambda2=1.0)
    tr = classical_integrate(model, InitialState(0.0, 0.0, 1.0, 2.0), (0.0, 65.0))
    assert tr.classification == "bounded"
    assert np.max(np.abs(tr.q[:, 0] - np.sin(tr.t))) < 1e-9
    exact2 = classical_exact(model, 2, 0.0, 2.0, tr.t)
    assert np.max(np.abs(tr.q[:, 1] - exact2)) < 1e-9
    assert tr.energy_drift() < 1e-12


@pytest.mark.parametrize("name,period", [("fig3a", 2 * np.pi), ("fig3b", 4 * np.pi), ("fig3c", np.pi)])
def test_classical_closed_orbits(name, period):
    preset = PRESETS[name]
    assert preset.closure_time == pytest.approx(period)
    tr = classical_integrate(preset.model, preset.init, (0.0, period))
    start = np.array([tr.q[0, 0], tr.q[0, 1], tr.p[0, 0], tr.p[0, 1]])
    end = np.array([tr.q[-1, 0], tr.q[-1, 1], tr.p[-1, 0], tr.p[-1, 1]])
    assert np.max(np.abs(end - start)) < 1e-3


def test_classical_constant_mass_limit():
    # walls pushed out to 1e4 leave a plain oscillator: H = p^2/2 + 2 q^2
    model = PdmModel(m0=1.0, lambda1=1e-4, lambda2=1e-4, vbar1=2.0, vbar2=2.0)
    tr = classical_integrate(model, InitialState(0.0, 0.0, 1.0, 0.5), (0.0, 10.0))
    omega = 2.0
    assert np.max(np.abs(tr.q[:, 0] - np.sin(omega * tr.t) / omega)) < 1e-4
    assert np.max(np.abs(tr.q[:, 1] - 0.5 * np.sin(omega * tr.t) / omega)) < 1e-4


@pytest.mark.parametrize("name", ["fig4a", "fig4b", "fig4c"])
def test_classical_presets_stay_inside(name, run_preset):
    tr = run_preset(name)
    model = PRESETS[name].model
    scaled = np.abs(tr.q) * np.array([model.lambda1, model.lambda2])
    assert np.max(scaled) <= 1.0
    assert tr.energy_drift() < 1e-6


def test_classical_libration_amplitude(run_preset):
    # energy partition fixes the turning point: sin^2(theta_max) = E Lambda^2 / vbar
    tr = run_preset("fig4c")
    model = PRESETS["fig4c"].model
    e1 = 0.5 * model.m0 * 1.0**2
    expected = np.sqrt(e1 * model.lambda1**2 / model.vbar1) / model.lambda1
    assert np.max(np.abs(tr.q[:, 0])) == pytest.approx(expected, abs=1e-4)


def test_classical_energy_identity(run_preset):
    tr = run_preset("fig4c")
    model = PRESETS["fig4c"].model
    mass = np.stack([model.mass(1, tr.q[:, 0]), model.mass(2, tr.q[:, 1])], axis=-1)
    v = tr.p / mass
    assert_allclose(classical_energy(model, tr.q, v), tr.energy, rtol=1e-9)


@pytest.mark.parametrize("v0, t1", [(1e300, 35.0), (1e306, 1e3), (1e307, 35.0)])
def test_classical_integrate_with_an_unresolvable_velocity_raises(v0, t1):
    # 1e300 runs to t1 in growing steps with an infinite energy, 1e306 drives
    # a stage angle to inf (where math.sin raises), 1e307 stops at the
    # minimum step; none may pass for a finite trajectory
    model = PRESETS["fig4a"].model
    with pytest.raises(NonFiniteState):
        classical_integrate(model, InitialState(0.0, 0.0, v0, 2.0), (0.0, t1))
    # an initial angular velocity that overflows fails before the solver
    with pytest.raises(NonFiniteState, match="overflow"):
        classical_integrate(model, InitialState(0.0, 0.0, 1e308, 2.0), (0.0, 35.0))


def test_classical_integrate_outside_box_raises():
    model = PdmModel(m0=1.0, lambda1=2.0, lambda2=1.0)
    with pytest.raises(OutsideBox):
        classical_integrate(model, InitialState(0.5, 0.0, 1.0, 1.0), (0.0, 1.0))


# ---------------------------------------------------------------- portraits


def test_portrait_chi_limits():
    model, modes = _fig6_pair()
    assert portrait_chi(model, modes, np.zeros(2)) == pytest.approx(1.0, abs=1e-6)
    at_wall = np.array([1.0 / model.lambda1, 0.0])
    assert portrait_chi(model, modes, at_wall) == pytest.approx(0.5, abs=1e-6)
    far = np.array([5.0, 0.0])
    assert portrait_chi(model, modes, far) == pytest.approx(0.0, abs=1e-12)


def test_portrait_chi_against_quadrature():
    model, modes = _fig6_pair()
    rng = np.random.default_rng(11)
    for q in rng.uniform(-1.2, 1.2, size=(6, 2)):
        want = _smoothed(q[0], model, modes, 1) * _smoothed(q[1], model, modes, 2)
        assert_allclose(portrait_chi(model, modes, q), want, rtol=1e-8)


def test_portrait_q2chi_against_quadrature():
    model, modes = _fig6_pair()
    rng = np.random.default_rng(12)
    for q in rng.uniform(-1.2, 1.2, size=(6, 2)):
        want1 = _smoothed(q[0], model, modes, 1, 2) * _smoothed(q[1], model, modes, 2)
        assert_allclose(portrait_q2chi(model, modes, 1, q), want1, rtol=1e-8)
        want2 = _smoothed(q[1], model, modes, 2, 2) * _smoothed(q[0], model, modes, 1)
        assert_allclose(portrait_q2chi(model, modes, 2, q), want2, rtol=1e-8)


def test_wall_moment_oracle_matches_40_digit_moments():
    # the fixed rule behind verify's wall-portrait checks: at verify's 8
    # draws, at centres on and beyond each wall, within 1e-14 relative of
    # the moment wherever it exceeds 1e-12
    model, modes = _fig6_pair()
    draws = np.random.default_rng(61).uniform(-1.3, 1.3, size=(8, 2))
    for j in (1, 2):
        w, s = model.wall(j), _smoothing(modes, j)
        for q in [*draws[:, j - 1], -w, w, w + 0.3, -w - 1.0, w + 11 * s, w + 20 * s]:
            for power in (0, 2):
                want = box_moment(q, w, s, power)
                got = _quad_moment_1d(q, w, s, power)
                assert abs(got - want) <= 1e-14 * max(want, 1e-12), (q, j, power)


def test_portrait_q2chi_infinite_box_limit():
    # walls at 1e6 are invisible: the smoothed square is q^2 + s^2
    model = PdmModel(m0=1.0, lambda1=1e-6, lambda2=1e-6)
    modes = TwoModeParams.from_tau(0.3, 0.3, lam1=0.7, lam2=0.7)
    s2 = _smoothing(modes, 1) ** 2
    for qv in (0.0, 0.8, -2.5):
        q = np.array([qv, 0.3])
        assert_allclose(portrait_q2chi(model, modes, 1, q), qv * qv + s2, rtol=1e-10, atol=1e-12)


def test_portrait_q2chi_centre_symmetry():
    # at q_j = 0 the two wall corrections are equal, leaving s^2 c(0) - 2 w phi(w)
    model, modes = _fig6_pair()
    w, s = model.wall(1), _smoothing(modes, 1)
    from scipy.special import erfc as _erfc

    c0 = 0.5 * (_erfc(-w / (np.sqrt(2) * s)) - _erfc(w / (np.sqrt(2) * s)))
    expected1 = s * s * c0 - 2.0 * w * s / np.sqrt(2 * np.pi) * np.exp(-w * w / (2 * s * s))
    got = portrait_q2chi(model, modes, 1, np.array([0.0, 0.4]))
    other = _smoothed(0.4, model, modes, 2)
    assert_allclose(got, expected1 * other, rtol=1e-8)


def test_portraits_accept_complex_tau():
    model = PdmModel(m0=1.0, lambda1=1.5, lambda2=1.0)
    modes = TwoModeParams.from_tau(0.7j, 0.2 + 0.1j, lam1=0.5, lam2=0.6)
    rng = np.random.default_rng(13)
    for q in rng.uniform(-1.0, 1.0, size=(4, 2)):
        want = _smoothed(q[0], model, modes, 1) * _smoothed(q[1], model, modes, 2)
        assert_allclose(portrait_chi(model, modes, q), want, rtol=1e-8)
        want2 = _smoothed(q[0], model, modes, 1, 2) * _smoothed(q[1], model, modes, 2)
        assert_allclose(portrait_q2chi(model, modes, 1, q), want2, rtol=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    q1=st.floats(-6.0, 6.0),
    q2=st.floats(-6.0, 6.0),
    tau=st.floats(-0.85, 0.85),
    lam=st.floats(0.2, 1.5),
    il=st.floats(0.5, 3.0),
)
def test_portrait_chi_in_unit_interval(q1, q2, tau, lam, il):
    model = PdmModel(m0=1.0, lambda1=il, lambda2=il)
    modes = TwoModeParams.from_tau(tau, tau, lam1=lam, lam2=lam)
    val = portrait_chi(model, modes, np.array([q1, q2]))
    assert 0.0 <= val <= 1.0


def test_regularised_mass_against_quadrature():
    model, modes = _fig6_pair()
    q = np.array([0.5, 0.5])
    want = (
        _quad_massnum(q[0], model.wall(1), _smoothing(modes, 1), model.lambda1)
        / model.m0
        * _smoothed(q[1], model, modes, 2)
    )
    assert_allclose(regularised_mass(model, modes, q, 1), want, rtol=1e-8)
    want2 = (
        _quad_massnum(q[1], model.wall(2), _smoothing(modes, 2), model.lambda2)
        / model.m0
        * _smoothed(q[0], model, modes, 1)
    )
    assert_allclose(regularised_mass(model, modes, q, 2), want2, rtol=1e-8)


def test_regularised_mass_limits_and_positivity():
    model, modes = _fig6_pair()
    # deep interior recovers the classical inverse-mass profile
    got = regularised_mass(model, modes, np.zeros(2), 1)
    s1 = _smoothing(modes, 1)
    assert got == pytest.approx((1.0 - model.lambda1**2 * s1**2) / model.m0, rel=1e-6)
    far = regularised_mass(model, modes, np.array([6.0, 0.0]), 1)
    assert 0.0 <= far < 1e-15
    # no zero crossing anywhere along the escape path
    line = np.stack([np.linspace(0.0, 3.0, 400), np.zeros(400)], axis=-1)
    assert np.all(regularised_mass(model, modes, line, 1) > 0.0)


def test_effective_potential_barrier_anisotropy():
    model, modes = _fig6_pair()
    q1 = np.linspace(0.0, 1.4, 701)
    along1 = effective_potential(model, modes, np.stack([q1, np.zeros_like(q1)], axis=-1))
    q2 = np.linspace(0.0, 1.8, 901)
    along2 = effective_potential(model, modes, np.stack([np.zeros_like(q2), q2], axis=-1))
    b1, b2 = np.max(along1), np.max(along2)
    assert b2 > 1.5 * b1
    # the walls have become finite barriers that decay to nothing outside
    assert effective_potential(model, modes, np.array([4.0, 4.0])) < 1e-10


def test_effective_potential_requires_real_tau():
    model, _ = _fig6_pair()
    modes = TwoModeParams.from_tau(0.1j, 0.0, lam1=0.5, lam2=0.5)
    with pytest.raises(ConfigError):
        effective_potential(model, modes, np.zeros(2))


def test_gradients_match_central_differences():
    model, modes = _fig6_pair()
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1.5, 1.5, size=(100, 2))
    h = 1e-6
    grad_v = effective_potential_gradient(model, modes, pts)
    grad_m1 = regularised_mass_gradient(model, modes, pts, 1)
    grad_m2 = regularised_mass_gradient(model, modes, pts, 2)
    for k, base in enumerate(pts):
        for d in range(2):
            step = np.zeros(2)
            step[d] = h
            fd_v = (
                effective_potential(model, modes, base + step)
                - effective_potential(model, modes, base - step)
            ) / (2 * h)
            den = max(np.max(np.abs(grad_v[k])), 1.0)
            assert abs(grad_v[k, d] - fd_v) / den < 1e-6
            for j, grad_m in ((1, grad_m1), (2, grad_m2)):
                fd_m = (
                    regularised_mass(model, modes, base + step, j)
                    - regularised_mass(model, modes, base - step, j)
                ) / (2 * h)
                den = max(np.max(np.abs(grad_m[k])), 1e-3)
                assert abs(grad_m[k, d] - fd_m) / den < 1e-6


def _pinning_axis(w, s):
    # interior, both erfc shoulders at +-4 widths, and 1.5 to 2.5 walls out
    shoulder = s * np.linspace(-4.0, 4.0, 9)
    out = np.linspace(1.5 * w, 2.5 * w, 3)
    return np.concatenate(
        [np.linspace(-0.9 * w, 0.9 * w, 7), -w + shoulder, w + shoulder, -out, out]
    )


_PIN_MODELS = pytest.mark.parametrize(
    "model,modes",
    [
        _fig6_pair(),
        (
            PdmModel(m0=2.0, lambda1=0.8, lambda2=2.5, vbar1=3.0, vbar2=0.5),
            TwoModeParams.from_tau(0.3, -0.4, lam1=1.2, lam2=0.7, hbar=0.6),
        ),
    ],
    ids=["fig6", "other-scales"],
)


@_PIN_MODELS
def test_float_and_array_formulas_agree(model, modes):
    # the equations of motion are _veff_pieces traced on Python floats with
    # math's erfc and exp, and compute its floats to the bit
    # (test_generated_rhs_computes_the_formulas_floats_to_the_bit); everything
    # else runs it on arrays with scipy's and numpy's
    scales = _both_scales(model, modes)
    kin = _kinetic_coeffs(modes)
    axes = [_pinning_axis(m.w, m.s) for m in scales]
    g1, g2 = np.meshgrid(*axes, indexing="ij")
    q1, q2 = g1.ravel(), g2.ravel()
    assert q1.size >= 200

    def quantities(a, b, erfc_f, exp_f):
        veff, d1, d2, masses = _veff_pieces(model, scales, a, b, kin, erfc_f, exp_f)
        # without kinetic coefficients only the masses are assembled, the
        # same six, to the bit
        alone = _veff_pieces(model, scales, a, b, None, erfc_f, exp_f)
        windows = [_mode_pieces(x, m, erfc_f, exp_f)[:2] for x, m in zip((a, b), scales)]
        return [veff, d1, d2, *masses, *windows[0], *windows[1], *alone]

    arrays = np.array(quantities(q1, q2, erfc, np.exp))
    np.testing.assert_array_equal(arrays[13:], arrays[3:9])
    # the arrays' default erfc (None), imported at first use, is scipy's
    np.testing.assert_array_equal(np.array(quantities(q1, q2, None, np.exp)), arrays)

    def on_floats(erfc_f, exp_f):
        rows = [quantities(a, b, erfc_f, exp_f) for a, b in zip(q1.tolist(), q2.tolist())]
        assert all(type(v) is float for row in rows for v in row)
        return np.array(rows).T

    # with the same erfc and exp, float and array arithmetic agree to the bit
    # in all thirteen quantities and in the masses alone: one source of
    # formulas, two instantiations
    same = on_floats(lambda x: float(erfc(x)), lambda x: float(np.exp(x)))
    np.testing.assert_array_equal(same, arrays)
    mathed = on_floats(math.erfc, math.exp)
    np.testing.assert_array_equal(mathed[13:], mathed[3:9])

    # so math's instantiation moves them only as far as math's functions
    # differ from scipy's and numpy's on the arguments reached: exp by an ulp,
    # erfc by tail rounding that grows like z^2 eps (3e-14 at z = 20).  The
    # thirteen quantities themselves are not compared at 1e-14 relative: where
    # the formulas subtract nearly equal terms (the mass c - Lambda^2 g at the
    # walls) such a difference grows to 1.1e-12 relative
    z = np.concatenate(
        [(ax + sign * m.w) / (np.sqrt(2.0) * m.s) for ax, m in zip(axes, scales)
         for sign in (1, -1)]
    )
    exps = [math.exp(v) for v in (-z * z).tolist()]
    assert_allclose(exps, np.exp(-z * z), rtol=2.3e-16, atol=0)
    assert_allclose([math.erfc(v) for v in z.tolist()], erfc(z), rtol=5e-14, atol=0)


@_PIN_MODELS
@pytest.mark.parametrize("floats", [False, True], ids=["arrays", "math-floats"])
@pytest.mark.parametrize("j", [1, 2])
def test_mode_pieces_are_mirror_symmetric(model, modes, floats, j):
    # the windows c, g are even and their derivatives odd, to the bit, left
    # of the box as well as right of it, out to three walls
    mode = _both_scales(model, modes)[j - 1]
    w, s = mode.w, mode.s
    q = np.concatenate([np.linspace(0.0, 3.0 * w, 301), w + s * np.linspace(-4.0, 4.0, 17)])
    if floats:
        def pieces(x):
            return np.array([_mode_pieces(v, mode, math.erfc, math.exp) for v in x.tolist()]).T
    else:
        def pieces(x):
            return np.array(_mode_pieces(x, mode))
    right, left = pieces(q), pieces(-q)
    parity = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
    np.testing.assert_array_equal(left, parity * right)
    assert np.all(right[0] > 0.0)


def test_float_equations_of_motion_turn_nan_where_the_portraits_underflow():
    model, modes = _fig6_pair()
    rhs = _equations_of_motion(model, _both_scales(model, modes), _kinetic_coeffs(modes))
    inside = rhs(0.0, [0.1, -0.2, 0.7, 0.4])
    assert all(type(v) is float for v in inside)
    assert np.all(np.isfinite(inside))
    # every window underflows to 0 this far out, where Python floats raise
    # ZeroDivisionError where numpy values give inf or NaN
    far = rhs(0.0, [50.0, 50.0, 1.0, 1.0])
    assert list(far[:2]) == [1.0, 1.0]
    assert not np.any(np.isfinite(far[2:]))


def _untraced_rhs(model, scales, kin):
    # the formulas that the generated right-hand side is traced from, run on
    # Python floats
    def rhs(t, y):
        q1, q2, v1, v2 = y
        try:
            _, d1v, d2v, masses = _veff_pieces(model, scales, q1, q2, kin, math.erfc, math.exp)
            return (v1, v2, *_accelerations(v1, v2, d1v, d2v, masses))
        except ZeroDivisionError:
            return v1, v2, math.nan, math.nan

    return rhs


def _assert_rhs_bits(model, modes, states) -> int:
    """The states at which the generated right-hand side and its formulas
    agree to the bit, as they must at all; returns how many are finite."""
    scales, kin = _both_scales(model, modes), _kinetic_coeffs(modes)
    generated = _equations_of_motion(model, scales, kin)
    untraced = _untraced_rhs(model, scales, kin)
    finite = 0
    for y in states:
        got = generated(0.0, y)
        # float.hex tells -0.0 from 0.0 and writes every NaN as nan
        assert [v.hex() for v in got] == [v.hex() for v in untraced(0.0, y)], (model, y)
        finite += all(map(math.isfinite, got))
    return finite


def _random_states(rng, scales, n):
    # positions out to three walls or three units, a tenth of them a
    # thousand times further, and velocities of either sign and any scale
    unit = np.arange(n) % 2 == 0
    q = [np.where(unit, 1.0, m.w) * rng.uniform(-3.0, 3.0, n) for m in scales]
    far = rng.random(n) < 0.1
    q = [np.where(far, 1e3 * x, x) for x in q]
    v = [rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4.0, 4.0, n) for _ in range(2)]
    return np.stack([*q, *v], axis=1).tolist()


@_PIN_MODELS
def test_generated_rhs_computes_the_formulas_floats_to_the_bit(model, modes):
    scales = _both_scales(model, modes)
    axes = [_pinning_axis(m.w, m.s) for m in scales]
    states = [[a, b, v1, v2] for a in axes[0].tolist() for b in axes[1].tolist()
              for v1, v2 in ((0.7, -0.4), (-3.0, 1e-3))]
    # every window underflows this far out, where the accelerations are NaN
    states += [[50.0, 50.0, 1.0, 1.0], [-50.0, 0.1, 0.0, -0.0], [0.0, 0.0, 0.0, 0.0]]
    states += _random_states(np.random.default_rng(27), scales, 4000)
    assert 0 < _assert_rhs_bits(model, modes, states) < len(states)


def test_generated_rhs_holds_its_bits_over_the_fuzzed_model_scales():
    # the simulate fuzz test's model ranges, 1e-300 to 1e300, over fig6a's
    # squeezing; each parameter is drawn from them or from [0.1, 10], so that
    # some models have finite accelerations.  Folded constants such as
    # Lambda^2 and w^2 + 2 s^2 overflow or underflow in some of them
    _, modes = _fig6_pair()
    rng = np.random.default_rng(2027)
    wide = rng.random((60, 5)) < 0.5
    draws = np.where(wide, 10.0 ** rng.uniform(-300.0, 300.0, wide.shape),
                     10.0 ** rng.uniform(-1.0, 1.0, wide.shape))
    models = [PdmModel(*row) for row in draws.tolist()]
    models += [
        PdmModel(m0=1e-300, lambda1=1e200, lambda2=1e-200, vbar1=0.0, vbar2=1e300),
        PdmModel(m0=1e300, lambda1=1e-300, lambda2=1.0, vbar1=-0.0, vbar2=0.0),
    ]
    squares = {lam * lam for m in models for lam in (m.lambda1, m.lambda2)}
    assert math.inf in squares and 0.0 in squares
    finite = total = 0
    for model in models:
        states = _random_states(rng, _both_scales(model, modes), 150) + [[50.0, 50.0, 1.0, 1.0]]
        finite += _assert_rhs_bits(model, modes, states)
        total += len(states)
    assert 0.05 * total < finite < 0.5 * total


@pytest.fixture
def compiled_library():
    """The solver library of the semiclassical right-hand side; a host
    without a C compiler skips, a host with one must build it."""
    lib = native._solver(_rhs_c_source(), 4)
    if lib is None:
        assert not (shutil.which("cc") or shutil.which("gcc")), "a C compiler is on PATH, but no library"
        pytest.skip("no C compiler on PATH")
    return lib


def _assert_compiled_bits(lib, model, modes, states) -> int:
    """The states at which the compiled right-hand side gives the generated
    Python one's bits, as it must at all; returns how many are finite."""
    scales, kin = _both_scales(model, modes), _kinetic_coeffs(modes)
    constants = np.array(_motion_constants(model, scales, kin))
    ys = np.array(states, dtype=float)
    out = np.empty_like(ys)
    lib.dll.sqzq_rhs(constants.ctypes.data, len(ys), ys.ctypes.data, out.ctypes.data)
    generated = _equations_of_motion(model, scales, kin)
    finite = 0
    for y, got in zip(states, out.tolist()):
        want = generated(0.0, y)
        # float.hex tells -0.0 from 0.0 and writes every NaN as nan
        assert [v.hex() for v in got] == [v.hex() for v in want], (model, y)
        finite += all(map(math.isfinite, want))
    return finite


def test_compiled_rhs_gives_the_python_bits_over_random_models(compiled_library):
    # one library for every model: its constants are arguments.  Each model
    # parameter is drawn from 1e-300..1e300 or from [0.1, 10], the squeezing
    # at random, and the states inside and far outside the box, where the
    # windows underflow and a zero divisor makes the accelerations NaN
    rng = np.random.default_rng(33)
    finite = total = 0
    for _ in range(40):
        wide = rng.random(5) < 0.2
        model = PdmModel(*np.where(wide, 10.0 ** rng.uniform(-300.0, 300.0, 5),
                                   10.0 ** rng.uniform(-1.0, 1.0, 5)).tolist())
        tau1, tau2 = rng.uniform(-0.95, 0.95, 2).tolist()
        lam1, lam2, hbar = (10.0 ** rng.uniform(-0.5, 0.5, 3)).tolist()
        modes = TwoModeParams.from_tau(tau1, tau2, lam1=lam1, lam2=lam2, hbar=hbar)
        states = _random_states(rng, _both_scales(model, modes), 1500) + [[50.0, 50.0, 1.0, 1.0]]
        finite += _assert_compiled_bits(compiled_library, model, modes, states)
        total += len(states)
    assert 0.2 * total < finite < 0.9 * total


@pytest.mark.parametrize("model", [
    PRESETS["fig6a"].model,
    PdmModel(m0=1e-300, lambda1=1e200, lambda2=1e-200, vbar1=0.0, vbar2=1e300),
], ids=["fig6", "extreme"])
def test_compiled_rhs_gives_the_python_bits_at_special_floats(compiled_library, model):
    # signed zeros, subnormals, huge values, infinities and NaN in every
    # component, 1 800 of the 12^4 combinations
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, math.inf, -math.inf, math.nan,
               0.3, -1.7]
    states = [list(y) for y in itertools.product(special, repeat=4)]
    picked = np.random.default_rng(1800).choice(len(states), 1800, replace=False)
    _assert_compiled_bits(compiled_library, model, PRESETS["fig6a"].modes, [states[k] for k in picked])


def test_compiled_rhs_is_one_source_for_every_model():
    # the constants are the C function's arguments c[0..20], never literals
    src = _rhs_c_source()
    assert _rhs_c_source() is src
    assert src.count("c[") > 21 and "c[20]" in src and "c[21]" not in src
    assert "0x1.5555555555555p-1" not in src  # fig6a's wall 2/3
    assert "fabs(" in src and "abs(" not in src.replace("fabs(", "")


def test_generated_rhs_tracebacks_show_its_source():
    # linecache keeps no copy of the source: clearing it must not lose the lines
    model, modes = _fig6_pair()
    rhs = _equations_of_motion(model, _both_scales(model, modes), _kinetic_coeffs(modes))
    name = rhs.__code__.co_filename
    assert name.startswith("semiclassical rhs ")
    linecache.clearcache()
    with pytest.raises(TypeError) as info:
        rhs(0.0, ["not a float", 0.0, 0.0, 0.0])
    text = "".join(traceback.format_exception(info.value))
    assert f'File "{name}", line 4' in text
    assert "((q1 + 0.6666666666666666) / " in text
    assert linecache.getlines(name)[0] == "def rhs(t, y):\n"


def test_a_model_generates_its_rhs_once():
    _, modes = _fig6_pair()
    kin = _kinetic_coeffs(modes)

    def rhs(vbar1):
        model = PdmModel(m0=4.75, lambda1=1.25, lambda2=0.75, vbar1=vbar1, vbar2=3.0)
        return _equations_of_motion(model, _both_scales(model, modes), kin)

    before = _generated_rhs.cache_info()
    first = rhs(2.0)
    assert rhs(2.0) is first
    after = _generated_rhs.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    # 0.0 and -0.0 are equal as floats but not as literals
    assert rhs(0.0) is not rhs(-0.0)


def test_trace_folds_constants_drops_dead_values_and_keeps_what_may_raise():
    def formula(x, y):
        x * y  # read by nothing: dropped
        x / y  # read by nothing, but may raise
        twice = x + 2.0 * 3.0  # the constant runs as a float; read twice
        return twice * twice, 1.0 - abs(-y), 0.25 + 2.0 / y, 3.0 * x, 0.5

    lines, results = _trace(formula, ("x", "y"))
    assert lines == ["(x / y)", "t4 = (x + 6.0)"]
    assert results == ["(t4 * t4)", "(1.0 - abs((-y)))", "(0.25 + (2.0 / y))", "(3.0 * x)", "0.5"]
    # the code computes the formula's floats, operands in their order
    scope = {}
    body = "".join(f"    {line}\n" for line in lines)
    exec(f"def f(x, y):\n{body}    return {', '.join(results)}\n", scope)
    for x, y in ((0.3, -1.7), (1e308, 3e-308), (-0.0, math.inf)):
        assert scope["f"](x, y) == formula(x, y)
    with pytest.raises(ZeroDivisionError):
        scope["f"](1.0, 0.0)


@pytest.mark.parametrize(
    "formula",
    [
        lambda x: (x if x > 0.0 else -x,),
        lambda x: (1.0 if x else x,),
        lambda x: (0.0 if x == 0.0 else 1.0 / x,),
        lambda x: (math.exp(x),),
    ],
    ids=["order", "truth", "equality", "float"],
)
def test_a_formula_that_branches_on_a_traced_value_fails_to_trace(formula):
    with pytest.raises(TypeError):
        _trace(formula, ("x",))


# ---------------------------------------------------------------- semiclassical


def test_semiclassical_bounded_runs(run_preset):
    model, modes = _fig6_pair()
    for name in ("fig6a", "fig6b"):
        tr = run_preset(name)
        assert tr.classification == "bounded"
        assert tr.escape_time is None
        assert tr.energy_drift() < 1e-6
    tr = run_preset("fig6a")
    scaled = np.abs(tr.q) * np.array([model.lambda1, model.lambda2])
    # the orbit turns around before the classical wall
    assert np.max(scaled) < 1.0


def test_semiclassical_escape(run_preset):
    tr = run_preset("fig6c")
    assert tr.classification == "escaped"
    assert tr.escape_time is not None and tr.escape_time <= 15.0
    assert tr.energy_drift() < 1e-6
    model = PRESETS["fig6c"].model
    scaled = np.abs(tr.q[-1]) * np.array([model.lambda1, model.lambda2])
    assert np.max(scaled) > 1.0


def test_semiclassical_initial_momenta():
    model, modes = _fig6_pair()
    semi = SemiclassicalModel(model, modes)
    init = PRESETS["fig6b"].init
    p0 = initial_momenta(semi, init)
    a1 = regularised_mass(model, modes, np.zeros(2), 1)
    a2 = regularised_mass(model, modes, np.zeros(2), 2)
    assert_allclose(p0, [init.v1 / a1, init.v2 / a2], rtol=1e-14)
    tr = semiclassical_integrate(semi, init, (0.0, 0.5), samples=11)
    assert_allclose(tr.p[0], p0, rtol=1e-12)
    e0 = semiclassical_energy(semi, np.array([init.q1, init.q2]), p0)
    assert_allclose(tr.energy[0], e0, rtol=1e-12)


def test_semiclassical_reduces_to_classical():
    # shrinking both the smoothing width and the quantum potential restores
    # the hard-wall dynamics
    model = PdmModel(m0=5.0, lambda1=2.0, lambda2=1.0, vbar1=15.0, vbar2=15.0)
    init = InitialState(0.0, 0.0, 0.5, 0.5)
    span = (0.0, 3.0)
    ref = classical_integrate(model, init, span, samples=601)
    devs = []
    for lam in (0.2, 0.1, 0.05):
        modes = TwoModeParams.from_tau(0.0, 0.0, lam1=lam, lam2=lam, hbar=lam * lam)
        tr = semiclassical_integrate(SemiclassicalModel(model, modes), init, span, samples=601)
        devs.append(np.max(np.abs(tr.q - ref.q)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.01


def test_semiclassical_rejects_degenerate_start():
    model, modes = _fig6_pair()
    semi = SemiclassicalModel(model, modes)
    with pytest.raises(NonFiniteState, match="not finite at t0"):
        semiclassical_integrate(semi, InitialState(50.0, 50.0, 1.0, 1.0), (0.0, 1.0))


# ---------------------------------------------------------------- forbidden region


def test_forbidden_region_energetics():
    model, modes = _fig6_pair()
    semi = SemiclassicalModel(model, modes)
    axis1 = np.linspace(-0.6, 0.6, 121)
    axis2 = np.linspace(-0.9, 0.9, 121)
    # barely moving: inside the box, everything but a pocket around the
    # start is classically forbidden (outside, V_eff decays below any E > 0)
    slow = forbidden_region(semi, InitialState(0.0, 0.0, 0.05, 0.05), axis1, axis2)
    assert slow.shape == (121, 121)
    assert not slow[60, 60]
    assert np.mean(slow) > 0.99
    # far above every barrier: nothing is forbidden
    fast = forbidden_region(semi, InitialState(0.0, 0.0, 6.0, 6.0), axis1, axis2)
    assert not np.any(fast)


def test_forbidden_region_corridor_structure():
    model, modes = _fig6_pair()
    semi = SemiclassicalModel(model, modes)
    axis1 = np.linspace(-1.4, 1.4, 141)
    axis2 = np.linspace(-1.8, 1.8, 141)
    centre = 70
    # below both barriers: blocked along both coordinate axes
    low = forbidden_region(semi, PRESETS["fig6a"].init, axis1, axis2)
    assert np.any(low[:, centre]) and np.any(low[centre, :])
    # above the weaker barrier only: open corridor along q1, still blocked in q2
    high = forbidden_region(semi, PRESETS["fig6c"].init, axis1, axis2)
    assert not np.any(high[:, centre])
    assert np.any(high[centre, :])


def test_bounded_trajectory_avoids_forbidden_region(run_preset):
    model, modes = _fig6_pair()
    tr = run_preset("fig6a")
    veff = effective_potential(model, modes, tr.q)
    # kinetic term is nonnegative, so V_eff along the path stays below E
    assert np.all(veff <= tr.energy[0] * (1.0 + 1e-9))


def test_forbidden_region_default_grid():
    model, modes = _fig6_pair()
    semi = SemiclassicalModel(model, modes)
    mask = forbidden_region(semi, PRESETS["fig6a"].init)
    assert mask.shape == (201, 201)
    assert mask.dtype == bool


@pytest.mark.parametrize("launch", ["fig6a", "fig6c"])
def test_forbidden_region_is_the_potential_above_the_energy(launch):
    # the mask broadcasts its axes through the same evaluator as the
    # potential on a full grid, so the two agree exactly, boundary included
    model, modes = _fig6_pair()
    semi = SemiclassicalModel(model, modes)
    init = PRESETS[launch].init
    e0 = semiclassical_energy(semi, [init.q1, init.q2], initial_momenta(semi, init))
    axes = [np.linspace(-1.5 * model.wall(j), 1.5 * model.wall(j), 201) for j in (1, 2)]
    for given_axes in (axes, [None, None]):
        mask = forbidden_region(semi, init, *given_axes)
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        np.testing.assert_array_equal(mask, effective_potential(model, modes, grid) >= e0)
        assert 0 < mask.sum() < mask.size


# ---------------------------------------------------------------- presets


def test_preset_catalogue():
    assert sorted(PRESETS) == [
        "fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig4c", "fig6a", "fig6b", "fig6c",
    ]
    for name, preset in PRESETS.items():
        assert preset.name == name
        assert preset.kind in ("classical", "semiclassical")
        assert (preset.modes is not None) == (preset.kind == "semiclassical")


@pytest.mark.parametrize("name", ["fig3a", "fig6c"])
def test_trajectory_reports_the_solver_rhs_count(monkeypatch, name, run_preset):
    counts = []

    def recording(problem, **kwargs):
        sol = solve_ode(problem, **kwargs)
        counts.append(sol.n_rhs_evals)
        return sol

    monkeypatch.setattr(pdm_module, "solve_ode", recording)
    tr = run_preset(name)
    assert len(counts) == 1
    assert tr.n_rhs_evals == counts[0] > 0


# ---------------------------------------------------------------- the scipy oracle


def _preset_runs(monkeypatch, name, run_preset):
    """The preset's trajectory and its solver run, and the same from scipy's
    DOP853 oracle on the same ODE problem and samples."""
    runs = []

    def recording(problem, t_eval=None, **kwargs):
        runs.append((problem, t_eval, solve_ode(problem, t_eval=t_eval, **kwargs)))
        return runs[-1][2]

    def oracle(problem, t_eval=None):
        ref = dop853_reference(problem, t_eval)
        assert ref.status == 0
        runs.append(ref)
        return OdeSolution(ref.t, ref.y.T, "finished", ref.nfev)

    monkeypatch.setattr(pdm_module, "solve_ode", recording)
    tr = run_preset(name)
    monkeypatch.setattr(pdm_module, "solve_ode", oracle)
    ref_tr = run_preset(name)
    (problem, t_eval, sol), ref = runs
    return tr, sol, ref_tr, ref, problem


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_trajectories_match_the_scipy_dop853_oracle(monkeypatch, name, run_preset):
    tr, sol, ref_tr, ref, _ = _preset_runs(monkeypatch, name, run_preset)
    assert sol.status == "finished"
    np.testing.assert_array_equal(sol.t, ref.t)
    assert np.max(np.abs(sol.y - ref.y.T)) <= 1e-10
    assert tr.classification == ref_tr.classification
    assert tr.energy_drift() <= 1.1 * ref_tr.energy_drift()
    # twelve stages per step, three more for the dense output of an accepted
    # one, and f(t0) with the first-step probe: a hidden extra call or a
    # dropped dense stage breaks the count
    assert tr.n_rhs_evals == 2 + 15 * tr.n_accepted + 12 * tr.n_rejected
    assert (tr.n_rhs_evals, tr.n_accepted, tr.n_rejected, tr.h_min) == (
        sol.n_rhs_evals, sol.n_accepted, sol.n_rejected, sol.h_min,
    )
    assert 0 < tr.h_min < np.inf


def test_fig6a_steps_match_the_scipy_dop853_oracle(monkeypatch, run_preset):
    _, _, _, _, problem = _preset_runs(monkeypatch, "fig6a", run_preset)
    ref = dop853_reference(problem)
    steps = solve_ode(problem)
    assert steps.n_rhs_evals == ref.nfev == 4742
    assert (steps.n_accepted, steps.n_rejected) == (312, 5)
    # without t_eval the samples are the step ends; they agree to 7.2e-8, not
    # to rounding: each step size follows the error norm to the power -1/8,
    # and the norm's E5 sums cancel to ~1e-5 relative, so any summation order
    # other than numpy's moves every later step end
    assert steps.t.shape == ref.sol.ts.shape
    assert np.max(np.abs(steps.t - ref.sol.ts)) <= 1e-6


class TestOnThePythonKernels:
    """The semiclassical trajectory tests above with the compiled form
    removed, so the Python kernels, which a host without a C compiler runs,
    keep being held to the same checks."""

    @pytest.fixture(autouse=True)
    def _python_kernels(self, monkeypatch):
        monkeypatch.setattr(pdm_module, "_compiled_rhs", lambda *args: None)

    test_semiclassical_bounded_runs = staticmethod(test_semiclassical_bounded_runs)
    test_semiclassical_escape = staticmethod(test_semiclassical_escape)
    test_semiclassical_initial_momenta = staticmethod(test_semiclassical_initial_momenta)
    test_semiclassical_reduces_to_classical = staticmethod(test_semiclassical_reduces_to_classical)
    test_semiclassical_rejects_degenerate_start = staticmethod(test_semiclassical_rejects_degenerate_start)
    test_bounded_trajectory_avoids_forbidden_region = staticmethod(test_bounded_trajectory_avoids_forbidden_region)
    test_trajectory_reports_the_solver_rhs_count = staticmethod(test_trajectory_reports_the_solver_rhs_count)
    test_trajectories_match_the_scipy_dop853_oracle = staticmethod(test_trajectories_match_the_scipy_dop853_oracle)
    test_fig6a_steps_match_the_scipy_dop853_oracle = staticmethod(test_fig6a_steps_match_the_scipy_dop853_oracle)
