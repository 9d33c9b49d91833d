"""Quantisation-engine checks.

The one-mode integrands are polynomials against the vacuum Gaussian, so the
Gauss-Hermite rule whitened by it is exact up to rounding; the tests therefore pin
tight tolerances for the canonical operators (identity, position, momentum,
their commutator, the symmetrised product) and verify the kernel action
against operators reconstructed from the Fock matrix, which is a fully
independent route.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from numpy.testing import assert_allclose
from scipy.linalg import expm

import sqzq.nonsepstates as nonsepstates_module
from sqzq.errors import ConfigError, GrowthViolation, UnsupportedMomentumDependence
from sqzq.nonsepstates import (
    NonSepParams,
    _portrait_precision,
    _position_cost,
    _quantise_rotated,
    _two_mode_positions,
)
from sqzq.numerics import TruncatedOperator, _refuse_beyond_budget
from sqzq.onemode import SqueezeParameter
from sqzq.quantmap import (
    ClassicalFunction,
    KernelAction,
    dirac_correspondence_check,
    kernel_eval,
    quantise,
    symmetrisation_constant,
)
from sqzq.sepstates import TwoModeParams

from .oracles import gaussian_multiplication, momentum, quantise_4d

TAUS = (0.0, 0.5, 0.7j, 0.6 * np.exp(1.1j))


def _hermite_basis(lam, x, nmax):
    """Harmonic eigenfunctions phi_0..phi_nmax at points x, ladder recurrence."""
    u = np.atleast_1d(x) / lam
    rows = np.zeros((nmax + 1, u.size))
    rows[0] = np.exp(-0.5 * u**2) / (np.pi**0.25 * np.sqrt(lam))
    if nmax >= 1:
        rows[1] = np.sqrt(2.0) * u * rows[0]
    for n in range(2, nmax + 1):
        rows[n] = np.sqrt(2.0 / n) * u * rows[n - 1] - np.sqrt((n - 1) / n) * rows[n - 2]
    return rows


def _basis_with_derivatives(lam, x, nmax):
    """phi_m, phi_m', phi_m'' via the exact ladder identities."""
    ext = _hermite_basis(lam, x, nmax + 2)
    def ladder_derivative(rows, m):
        lo = np.sqrt(m / 2.0) * rows[m - 1] if m > 0 else 0.0
        return (lo - np.sqrt((m + 1) / 2.0) * rows[m + 1]) / lam
    d1 = np.stack([ladder_derivative(ext, m) for m in range(nmax + 2)])
    d2 = np.stack([ladder_derivative(d1, m) for m in range(nmax + 1)])
    return ext[: nmax + 1], d1[: nmax + 1], d2


# ---------------------------------------------------------------------------
# canonical operators


@pytest.mark.parametrize("tau", TAUS)
def test_constant_field_gives_identity(tau):
    par = SqueezeParameter.from_tau(tau, lam=0.9, hbar=1.2)
    op = quantise(lambda q, p: np.ones_like(q), par, 8)
    assert op.quadrature_report.identity_deviation < 1e-6
    assert_allclose(op.matrix.entries, np.eye(9), atol=1e-12)


@pytest.mark.parametrize("tau", TAUS)
def test_position_field_gives_position_operator(tau):
    par = SqueezeParameter.from_tau(tau, lam=0.9, hbar=1.2)
    op = quantise(lambda q, p: q, par, 8)
    want = TruncatedOperator.position(9, 0.9).entries
    assert np.max(np.abs(op.matrix.entries - want)) < 1e-6


@pytest.mark.parametrize("tau", TAUS)
def test_momentum_field_gives_momentum_operator(tau):
    par = SqueezeParameter.from_tau(tau, lam=0.9, hbar=1.2)
    op = quantise(lambda q, p: p, par, 8)
    want = momentum(9, 0.9, 1.2).entries
    assert np.max(np.abs(op.matrix.entries - want)) < 1e-6


def test_wide_scales_quantise_without_overflow():
    # the rule's weights carry hbar and q^2 carries lam^2; at lam = 1e103 and
    # hbar = 1.5e101 their products used to overflow before the division by
    # 2 pi hbar, and the operator is lam^2 times the one at unit scales
    q2 = lambda q, p: q * q
    unit = quantise(q2, SqueezeParameter.from_tau(0.3, lam=1.0, hbar=1.0), 4)
    wide = quantise(q2, SqueezeParameter.from_tau(0.3, lam=1e103, hbar=1.5e101), 4)
    assert_allclose(wide.matrix.entries / 1e206, unit.matrix.entries, rtol=0, atol=1e-12)


def test_product_field_symmetrises_with_constant():
    par = SqueezeParameter.from_tau(0.5j)
    op = quantise(lambda q, p: q * p, par, 10)
    x = TruncatedOperator.position(11).entries
    p = momentum(11).entries
    const = symmetrisation_constant(par)
    want = (x @ p + p @ x) / 2.0 + const * np.eye(11)
    assert np.max(np.abs((op.matrix.entries - want)[:6, :6])) < 1e-10


def test_symmetrisation_constant_values():
    # sigma^2 at tau=0.5i is 0.6+0.8i, so the constant is -0.8/1.2
    assert_allclose(symmetrisation_constant(SqueezeParameter.from_tau(0.5j)), -2.0 / 3.0)
    assert symmetrisation_constant(SqueezeParameter.from_tau(0.4)) == 0.0
    assert symmetrisation_constant(SqueezeParameter.from_tau(0.0)) == 0.0


@pytest.mark.parametrize("tau,bound", [(0.0, 1e-8), (0.5, 1e-6), (0.7j, 1e-6)])
def test_dirac_correspondence(tau, bound):
    par = SqueezeParameter.from_tau(tau)
    assert dirac_correspondence_check(par, 8) < bound


@pytest.mark.parametrize("tau", [0.9, 0.9j])
def test_strong_squeezing_is_exact(tau):
    # the whitened rule follows the vacuum weight however elongated it is
    par = SqueezeParameter.from_tau(tau, lam=0.9, hbar=1.2)
    assert dirac_correspondence_check(par, 8) < 1e-10
    q = quantise(lambda q, p: q, par, 8).matrix.entries
    p = quantise(lambda q, p: p, par, 8).matrix.entries
    assert np.max(np.abs(q - TruncatedOperator.position(9, 0.9).entries)) < 1e-10
    assert np.max(np.abs(p - momentum(9, 0.9, 1.2).entries)) < 1e-10


@pytest.mark.parametrize("nmax", [1, 5, 8, 10, 12, 14, 18, 30, 48])
def test_polynomial_fields_stop_after_two_orders(nmax):
    # order k0 = ceil((2 nmax + degree + 1) / 2) is exact, so k0 + 1 only
    # confirms it; this holds for the declared degree and for the default 2
    par = SqueezeParameter.from_tau(0.6 * np.exp(1.1j), lam=0.9, hbar=1.2)
    fields = [(lambda q, p: np.ones_like(q), 0), (lambda q, p: q, 1), (lambda q, p: p, 1),
              (lambda q, p: q * q, 2), (lambda q, p: q * p, 2), (lambda q, p: p * p, 2)]
    for f, degree in fields:
        for declared in (degree, 2):
            k0 = -(-(2 * nmax + declared + 1) // 2)
            rep = quantise(ClassicalFunction(f, degree=declared), par, nmax).quadrature_report
            assert rep.nodes == k0**2 + (k0 + 1) ** 2
            assert rep.convergence_witness < 1e-11


@pytest.mark.parametrize(
    "f,arity,declared,right,nmax,route",
    [(lambda q, p: np.exp(-(q**2)) + 0.2 * q * p, "one-mode", 2, ("bounded", 2), 8, "one-mode"),
     (lambda q, p: q**3, "one-mode", 1, ("poly", 3), 8, "one-mode"),
     (lambda q1, q2, p1, p2: np.exp(-(q1**2 + q2**2) / 100.0), "two-mode", 2, ("bounded", 2), 2,
      "position"),
     (lambda q1, q2, p1, p2: q1 * q2**2, "two-mode", 1, ("poly", 3), 2, "position"),
     (lambda q1, q2, p1, p2: q1 * p1**2, "two-mode", 1, ("poly", 3), 2, "phase-space")],
    ids=["exp(-q**2)+0.2qp", "q**3-as-degree-1", "position-gaussian", "q1*q2**2-as-degree-1",
         "q1*p1**2-as-degree-1"],
)
def test_wrong_polynomial_declarations_refine_past_k0_plus_one(monkeypatch, f, arity, declared,
                                                               right, nmax, route):
    # a non-polynomial field under the default declaration, or a polynomial
    # two degrees above its declared one, is not exact at k0, so k0 and k0 + 1
    # disagree beyond rounding and the loop goes on in steps of 4; the result
    # agrees with the correctly declared run within the engine's stop.  The
    # wide position Gaussian's k0 and k0 + 1 agree to 7e-8, inside the
    # two-mode stop: only the rounding-level first check sends it on
    family = SqueezeParameter.from_tau(0.3j, lam=0.8, hbar=1.1) if arity == "one-mode" else ROUTE_PARAMS
    modes, stop = (1, 1e-12) if arity == "one-mode" else (2, 1e-6)
    # the field values of an order: K^2 on the plane, K^4 on the per-mode
    # phase-plane rules, K^2 outer position pairs on a position field's
    cost = {"one-mode": lambda k: k**2, "phase-space": lambda k: k**4,
            "position": lambda k: k**2}[route]
    calls = _record_paths(monkeypatch)
    wrong = quantise(ClassicalFunction(f, arity=arity, degree=declared), family, nmax)
    assert calls == ([] if arity == "one-mode" else [route])
    k0 = -(-(2 * modes * nmax + declared + 1) // 2)
    assert wrong.quadrature_report.nodes > cost(k0) + cost(k0 + 1)
    growth, degree = right
    want = quantise(ClassicalFunction(f, arity=arity, growth=growth, degree=degree), family, nmax)
    a = wrong.matrix.entries
    assert np.max(np.abs(a - want.matrix.entries)) <= stop * max(1.0, np.max(np.abs(a)))


def test_dirac_correspondence_rejects_two_mode():
    with pytest.raises(ConfigError):
        dirac_correspondence_check(NonSepParams.from_tau(0.1, 0.2, 0.3), 4)


# ---------------------------------------------------------------------------
# structural properties


def test_hermitian_for_real_functions():
    rng = np.random.default_rng(2)
    par = SqueezeParameter.from_tau(0.4 * np.exp(0.7j), lam=1.1)
    for _ in range(3):
        c = rng.normal(size=6)
        f = lambda q, p: c[0] + c[1]*q + c[2]*p + c[3]*q*q + c[4]*q*p + c[5]*p*p
        op = quantise(f, par, 10)
        assert op.quadrature_report.hermiticity_defect < 1e-12


def test_linearity():
    par = SqueezeParameter.from_tau(0.3j, lam=0.8, hbar=1.1)
    f = lambda q, p: q * q - 0.5 * p
    g = lambda q, p: np.exp(-(q**2)) + 0.2 * q * p
    a, b = 1.7, -0.6
    comb = quantise(lambda q, p: a * f(q, p) + b * g(q, p), par, 8)
    parts = a * quantise(f, par, 8).matrix.entries + b * quantise(g, par, 8).matrix.entries
    assert np.max(np.abs(comb.matrix.entries - parts)) < 1e-12


def test_nonnegative_field_is_positive_semidefinite():
    par = SqueezeParameter.from_tau(0.5, lam=1.2, hbar=0.9)
    f = lambda q, p: (q - 0.3) ** 2 + 0.5 * p**2 + 2.0 * np.exp(-((q + 1) ** 2) - p**2)
    op = quantise(f, par, 12)
    eigs = np.linalg.eigvalsh((op.matrix.entries + op.matrix.entries.conj().T) / 2.0)
    assert eigs.min() > -1e-8


def test_dilation_generator_for_real_squeezing():
    par = SqueezeParameter.from_tau(0.45)
    a = quantise(lambda q, p: q * p, par, 30).matrix.entries
    x = TruncatedOperator.position(31).entries
    ell = 0.1
    u = expm(1j * ell * a / par.hbar)
    lhs = u @ x @ u.conj().T
    assert np.max(np.abs((lhs - np.exp(ell) * x)[:11, :11])) < 1e-4


def test_family_tag_and_basis():
    op = quantise(lambda q, p: q, SqueezeParameter.from_tau(0.2), 4)
    assert op.basis == 4 and "onemode" in op.family_tag
    two = quantise(
        ClassicalFunction(lambda q1, q2, p1, p2: np.ones_like(q1), arity="two-mode"),
        TwoModeParams.from_tau(0.1, 0.2), 2,
    )
    assert "nonsep" in two.family_tag and two.matrix.dim == 9


# ---------------------------------------------------------------------------
# declarations and guards


def test_arity_mismatch_is_rejected():
    f = ClassicalFunction(lambda q, p: q, arity="one-mode")
    with pytest.raises(ConfigError):
        quantise(f, NonSepParams.from_tau(0.1, 0.2, 0.3), 2)


def test_bad_declarations_are_rejected():
    with pytest.raises(ConfigError):
        ClassicalFunction(lambda q, p: q, arity="three-mode")
    with pytest.raises(ConfigError):
        ClassicalFunction(lambda q, p: q, growth="exponential")


def test_growth_violation_is_spotted():
    f = ClassicalFunction(lambda q, p: q**6, growth="bounded")
    with pytest.raises(GrowthViolation):
        quantise(f, SqueezeParameter.from_tau(0.2), 6)


def test_non_finite_evaluator_is_spotted():
    f = ClassicalFunction(lambda q, p: 1.0 / (q - q + p - p))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(GrowthViolation):
            quantise(f, SqueezeParameter.from_tau(0.1), 4)


# ---------------------------------------------------------------------------
# two-mode route


# complex labels, a mixing angle off the symmetric point and hbar != 1
ROUTE_PARAMS = NonSepParams.from_tau(0.3 * np.exp(0.7j), 0.5 * np.exp(-0.4j), 0.9, 0.8, 1.15, 0.6)


def _record_paths(monkeypatch):
    """The rules each two-mode quantisation refines, in call order, read off
    the field values an order costs: "phase-space" on the per-mode
    phase-plane rules (K^4), "position" with the momenta integrated into the
    mode tables (K^2).  Recorded before the first order, so a basis refused
    on its path's budget is recorded too."""
    calls = []
    refine = nonsepstates_module._refine

    def recording(modes, nmax, degree, cost, *args):
        calls.append("phase-space" if cost(2) == 16 else "position")
        return refine(modes, nmax, degree, cost, *args)

    monkeypatch.setattr(nonsepstates_module, "_refine", recording)
    return calls


# a momentum dependence too weak to change a test's outcome but enough to keep
# its field on the phase-space rules, whose own checks the test then exercises
def _tilted(g):
    return lambda q1, q2, p1, p2: g(q1, q2) * (1.0 + 1e-3 * np.tanh(p1))


def test_two_mode_identity_and_position():
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    op = quantise(
        ClassicalFunction(lambda q1, q2, p1, p2: q1, arity="two-mode"), params, 4
    )
    assert op.quadrature_report.identity_deviation < 1e-12
    x1, _, sel = _two_mode_positions(params, 4)
    assert np.max(np.abs(op.matrix.entries[sel] - x1[sel])) < 1e-12


def test_two_mode_gaussian_field_matches_its_smoothing():
    # position fields quantise to multiplication by their Gaussian smoothing
    # with covariance (2 M)^-1, M = Re of the wavefunction quadratic form;
    # for exp(-|x|^2 / 2) that smoothing is again a Gaussian, in closed form
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    nmax = 4
    f = ClassicalFunction(
        lambda q1, q2, p1, p2: np.exp(-(q1 * q1 + q2 * q2) / 2.0),
        arity="two-mode", growth="bounded",
    )
    op = quantise(f, params, nmax)
    l1, l2 = params.lam1, params.lam2
    s = np.eye(2) + np.linalg.inv(2.0 * _portrait_precision(params))
    si = np.linalg.inv(s)
    u, w = hermgauss(60)
    x1, x2 = l1 * u, l2 * u
    g = np.exp(-0.5 * (si[0, 0] * x1[:, None] ** 2 + 2.0 * si[0, 1] * x1[:, None] * x2[None, :]
                       + si[1, 1] * x2[None, :] ** 2)) / np.sqrt(np.linalg.det(s))
    # phi_n(x) phi_m(x) carries exp(-u^2), so the Hermite weight is divided out
    b1 = _hermite_basis(l1, x1, nmax) * np.sqrt(l1 * w * np.exp(u**2))
    b2 = _hermite_basis(l2, x2, nmax) * np.sqrt(l2 * w * np.exp(u**2))
    ref = np.einsum("ak,bk,cl,dl,kl->acbd", b1, b1, b2, b2, g).reshape(25, 25)
    assert np.max(np.abs(op.matrix.entries - ref)) < 1e-6
    rep = op.quadrature_report
    assert rep.convergence_witness <= 1e-6
    assert rep.identity_deviation < 1e-12


def test_two_mode_box_indicator_stops_at_the_node_budget():
    # a discontinuous field never converges geometrically: the engine must
    # stop at its node budget and say so through the witness, not hang
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    f = ClassicalFunction(
        lambda q1, q2, p1, p2: ((np.abs(q1) < 1.0) & (np.abs(q2) < 1.0)).astype(float),
        arity="two-mode", growth="bounded",
    )
    rep = quantise(f, params, 2).quadrature_report
    assert rep.nodes <= 38**2 * 32**2
    assert rep.convergence_witness > 1e-6
    assert rep.identity_deviation < 1e-12


@pytest.mark.parametrize(
    "g,tilt",
    [
        pytest.param(lambda q1: q1**6, False, id="q1**6"),
        pytest.param(lambda q1: np.exp(q1**2 / 4.0), False, id="exp(q1**2/4)"),
        pytest.param(lambda q1: q1**6, True, id="q1**6-with-momentum"),
        pytest.param(lambda q1: np.exp(q1**2 / 4.0), True, id="exp(q1**2/4)-with-momentum"),
    ],
)
def test_two_mode_growth_violation_is_spotted(monkeypatch, g, tilt):
    # the 4D nodes reach much further in p1 than in q1, so a ring radius over
    # the raw coordinates would leave q1 near its extreme on the mid ring too
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    field = _tilted(lambda q1, q2: g(q1)) if tilt else lambda q1, q2, p1, p2: g(q1)
    f = ClassicalFunction(field, arity="two-mode", growth="bounded")
    calls = _record_paths(monkeypatch)
    with pytest.raises(GrowthViolation):
        quantise(f, params, 4)
    assert calls == ["phase-space" if tilt else "position"]


def test_two_mode_basis_beyond_the_node_budget_is_refused():
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    with pytest.raises(ConfigError):
        quantise(ClassicalFunction(lambda q1, q2, p1, p2: q1, arity="two-mode"), params, 14)


@pytest.mark.parametrize(
    "g,degree,growth,bound",
    [
        (lambda q1, q2: q1 * q2, 2, "poly", 1e-12),
        (lambda q1, q2: q1 * q1 + q2, 2, "poly", 1e-12),
        (lambda q1, q2: np.exp(-((q1 - 0.3) ** 2 + (q2 + 0.2) ** 2) / 4.0), 0, "bounded", 1e-8),
    ],
    ids=["q1q2", "q1**2+q2", "gaussian-bump"],
)
def test_position_route_matches_the_phase_space_engine(monkeypatch, g, degree, growth, bound):
    # a position field quantises to multiplication by its smoothing; the
    # rules that integrate the momenta exactly must give the 4D projector
    # integral's matrix
    f = ClassicalFunction(lambda q1, q2, p1, p2: g(q1, q2), arity="two-mode",
                          growth=growth, degree=degree)
    calls = _record_paths(monkeypatch)
    op = quantise(f, ROUTE_PARAMS, 2)
    assert calls == ["position"]
    want, _, _ = quantise_4d(ROUTE_PARAMS, f, 2, degree)
    assert np.max(np.abs(op.matrix.entries - want)) < bound
    rep = op.quadrature_report
    assert rep.identity_deviation < 1e-12
    assert rep.convergence_witness <= 1e-6
    if growth == "poly":
        # K^2 outer position pairs at the exact orders k0 = 6 and k0 + 1
        assert rep.nodes == 6**2 + 7**2
    else:
        # K^2 outer position pairs at each order K = 5, 9, ... up to the last
        assert rep.nodes in np.cumsum(np.arange(5, 400, 4) ** 2)


# fields that move with momentum, each with the basis its engine test takes
MOMENTUM_FIELDS = [
    pytest.param(lambda q1, q2, p1, p2: q1 + p1, "poly", 1, 2, id="q1+p1"),
    pytest.param(lambda q1, q2, p1, p2: q1 * q2 + 1e-3 * p1**2, "poly", 2, 2,
                 id="q1q2+1e-3*p1**2"),
    # flat in momentum around p = 0: only a probe across the engine's
    # momentum range sees them move
    pytest.param(lambda q1, q2, p1, p2: ((np.abs(q1) < 1.0) & (np.abs(p1) < 1.0)).astype(float),
                 "bounded", 0, 1, id="phase-space-box"),
    pytest.param(lambda q1, q2, p1, p2: np.maximum(np.abs(p1) - 1.0, 0.0), "poly", 1, 1,
                 id="p1-threshold"),
]


@pytest.mark.parametrize("g,growth,degree,nmax", MOMENTUM_FIELDS)
def test_momentum_fields_keep_the_phase_space_engine(monkeypatch, g, growth, degree, nmax):
    f = ClassicalFunction(g, arity="two-mode", growth=growth, degree=degree)
    calls = _record_paths(monkeypatch)
    op = quantise(f, ROUTE_PARAMS, nmax)
    assert calls == ["phase-space"]
    # the same declaration as quantise passes: None for a bounded field.  The
    # two rules differ, so each result is taken within its own last change
    # of the limit they share
    want, _, report = quantise_4d(ROUTE_PARAMS, f, nmax, degree if growth == "poly" else None)
    rep = op.quadrature_report
    gap = np.max(np.abs(op.matrix.entries - want))
    assert gap <= rep.convergence_witness + report.convergence_witness
    # the same refinement: the orders agree, and so do the field values
    assert rep.nodes == report.nodes


def test_field_non_finite_under_momentum_keeps_the_phase_space_engine(monkeypatch):
    # q1 wherever it is defined, but NaN at negative p2: turning non-finite
    # is a change under the probe, and the phase-space rules' finiteness
    # check refuses the field instead of the position rules quantising q1
    f = ClassicalFunction(lambda q1, q2, p1, p2: q1 + np.sqrt(p2 - np.abs(p2)),
                          arity="two-mode", degree=1)
    calls = _record_paths(monkeypatch)
    with np.errstate(invalid="ignore"), pytest.raises(GrowthViolation):
        quantise(f, ROUTE_PARAMS, 2)
    assert calls == ["phase-space"]


def test_phase_space_engine_box_indicator_stops_at_the_node_budget(monkeypatch):
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    box = lambda q1, q2: ((np.abs(q1) < 1.0) & (np.abs(q2) < 1.0)).astype(float)
    f = ClassicalFunction(_tilted(box), arity="two-mode", growth="bounded")
    calls = _record_paths(monkeypatch)
    rep = quantise(f, params, 2).quadrature_report
    assert calls == ["phase-space"]
    assert rep.nodes <= 38**2 * 32**2
    assert rep.convergence_witness > 1e-6
    assert rep.identity_deviation < 1e-12


def test_phase_space_engine_refuses_a_basis_beyond_its_budget(monkeypatch):
    # nmax 13 at degree 2 fits a position field's guard, (28^2 + 32^2) 27^2
    # 4D points, but not the per-mode phase-plane rules' budget, 28^4 + 32^4
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    f = ClassicalFunction(_tilted(lambda q1, q2: q1 * q2), arity="two-mode", degree=2)
    calls = _record_paths(monkeypatch)
    with pytest.raises(ConfigError, match="order 28"):
        quantise(f, params, 13)
    assert calls == ["phase-space"]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    r=st.tuples(st.floats(0.0, 0.7), st.floats(0.0, 0.7)),
    arg=st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi)),
    phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
    scales=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    nmax=st.integers(2, 3),
)
def test_rotated_engine_matches_the_4d_definition(r, arg, phi, scales, nmax):
    # the rotation of the separable product against the direct 4D projector
    # integral, on a position polynomial and on a momentum polynomial; both
    # are exact at their first order, so only rounding separates them
    params = NonSepParams.from_tau(r[0] * np.exp(1j * arg[0]), r[1] * np.exp(1j * arg[1]),
                                   phi, *scales)
    for g in (lambda q1, q2, p1, p2: q1 * q1 * q2, lambda q1, q2, p1, p2: q1 * p2**2 + p1):
        got, _, _ = _quantise_rotated(params, g, nmax, 3)
        want, _, _ = quantise_4d(params, g, nmax, 3)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


BENCH_PARAMS = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
GAUSSIAN = ClassicalFunction(lambda q1, q2, p1, p2: np.exp(-(q1 * q1 + q2 * q2) / 2.0),
                             arity="two-mode", growth="bounded")


@pytest.mark.parametrize("nmax,bound", [(4, 1e-14), (8, 5e-15)])
def test_bounded_position_field_reaches_rounding(monkeypatch, nmax, bound):
    # the mode tables integrate the momenta exactly, so a smooth bounded
    # position field stops at rounding; the oracle integrates the Gaussian
    # smoothing's matrix exactly
    calls = _record_paths(monkeypatch)
    op = quantise(GAUSSIAN, BENCH_PARAMS, nmax)
    assert calls == ["position"]
    cov = np.linalg.inv(2.0 * _portrait_precision(BENCH_PARAMS))
    want = gaussian_multiplication(cov, BENCH_PARAMS.lam1, BENCH_PARAMS.lam2, nmax)
    assert np.max(np.abs(op.matrix.entries - want)) <= bound
    rep = op.quadrature_report
    assert rep.identity_deviation <= bound
    assert rep.convergence_witness <= 1e-13


def test_bounded_declaration_of_a_polynomial_matches_its_direct_orders(monkeypatch):
    # q1 q2 declared bounded refines in steps of 4 to rounding, declared of
    # degree 2 it stops at the exact orders k0 and k0 + 1
    calls = _record_paths(monkeypatch)
    ops = [quantise(ClassicalFunction(lambda q1, q2, p1, p2: q1 * q2, arity="two-mode", **kw),
                    BENCH_PARAMS, 4) for kw in ({"growth": "bounded"}, {"degree": 2})]
    assert calls == ["position"] * 2
    assert np.max(np.abs(ops[0].matrix.entries - ops[1].matrix.entries)) <= 1e-13
    # K^2 outer position pairs at orders K = 9, 13, ..., and at 10 and 11
    assert ops[0].quadrature_report.nodes in np.cumsum(np.arange(9, 400, 4) ** 2)
    assert ops[1].quadrature_report.nodes == 10**2 + 11**2


@pytest.mark.parametrize("degree,k0", [(None, 27), (2, 28)])
def test_position_route_refuses_the_bases_it_refused_before(degree, k0):
    # a basis is refused on the 4D points of a position field's orders k0
    # and k0 + 4, bounded or declared, before any node is built: nmax 13
    # fits, 14 not
    assert _refuse_beyond_budget(2, 13, degree, _position_cost(13)) == k0
    with pytest.raises(ConfigError, match="beyond the node budget"):
        _refuse_beyond_budget(2, 14, degree, _position_cost(14))
    with pytest.raises(ConfigError, match="beyond the node budget"):
        _quantise_rotated(BENCH_PARAMS, lambda q1, q2, p1, p2: np.exp(-q1 * q1), 14, degree)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_constant_is_pure_delta():
    ka = kernel_eval(lambda q, p: np.ones_like(q), SqueezeParameter.from_tau(0.3), 0.7)
    assert ka.delta_order == 0
    assert_allclose(ka.smoothing_factor, 1.0, rtol=1e-12)


def test_kernel_position_smoothing_is_the_point():
    par = SqueezeParameter.from_tau(0.4 * np.exp(0.5j), lam=1.3, hbar=0.7)
    for x0 in (-1.2, 0.0, 0.9):
        ka = kernel_eval(lambda q, p: q, par, x0)
        assert ka.delta_order == 0
        assert_allclose(ka.smoothing_factor, x0, atol=1e-12)


def test_kernel_smoothing_factor_refuses_derivative_terms():
    ka = kernel_eval(lambda q, p: q * p, SqueezeParameter.from_tau(0.5j), 0.3)
    assert ka.delta_order == 1
    with pytest.raises(UnsupportedMomentumDependence):
        ka.smoothing_factor


def test_kernel_momentum_cubic_is_rejected():
    with pytest.raises(UnsupportedMomentumDependence):
        kernel_eval(lambda q, p: p**3, SqueezeParameter.from_tau(0.2), 0.0)


@pytest.mark.parametrize(
    "f",
    [
        lambda q, p: q,
        lambda q, p: q * q,
        lambda q, p: p + np.zeros_like(q),
        lambda q, p: q * p,
        lambda q, p: p * p + np.zeros_like(q),
        lambda q, p: np.exp(-(q**2)) * p,
    ],
)
def test_kernel_action_matches_fock_reconstruction(f):
    # apply the kernel's differential action to low eigenfunctions and
    # compare with the operator matrix applied in the Fock basis
    par = SqueezeParameter.from_tau(0.5j, lam=0.9, hbar=1.2)
    nmax = 48
    op = quantise(f, par, nmax).matrix.entries
    xs = np.array([-1.1, -0.3, 0.2, 0.8, 1.7])
    rows, d1, d2 = _basis_with_derivatives(par.lam, xs, nmax)
    worst = 0.0
    for m in (0, 1, 3, 5):
        for j, x0 in enumerate(xs):
            ka = kernel_eval(f, par, float(x0))
            got = ka.a0 * rows[m, j] + ka.a1 * d1[m, j] + ka.a2 * d2[m, j]
            want = rows[:, j] @ op[:, m]
            worst = max(worst, abs(got - want))
    assert worst < 1e-5


def test_kernel_two_mode_position_product():
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    co_m = np.array(
        [
            [2 * 1.375 / 0.8**2, 1.25 / (0.8 * 1.15)],
            [1.25 / (0.8 * 1.15), 2 * 1.375 / 1.15**2],
        ]
    )
    cov = np.linalg.inv(2.0 * co_m)
    ka = kernel_eval(
        ClassicalFunction(lambda q1, q2, p1, p2: q1 * q2, arity="two-mode"),
        params,
        np.array([0.3, 0.4]),
    )
    assert_allclose(ka.smoothing_factor, 0.3 * 0.4 + cov[0, 1], rtol=1e-10)


class _Routed(Exception):
    pass


def _route(monkeypatch, f, params, nmax):
    """The rules ``quantise`` takes for f at basis nmax ("phase-space" or
    "position", as ``_record_paths`` names them), read before any order runs."""

    def stop(modes, nmax, degree, cost, *args):
        raise _Routed("phase-space" if cost(2) == 16 else "position")

    monkeypatch.setattr(nonsepstates_module, "_refine", stop)
    with pytest.raises(_Routed) as exc:
        quantise(f, params, nmax)
    return str(exc.value)


@pytest.mark.parametrize(
    "params",
    [ROUTE_PARAMS, NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)],
    ids=["route-family", "table1-family"],
)
@pytest.mark.parametrize(
    "g,growth,degree,nmax",
    MOMENTUM_FIELDS
    + [pytest.param(lambda q1, q2, p1, p2: q1 + np.maximum(np.abs(p1) - 1.0, 0.0), "poly", 1, 1,
                    id="q1+p1-threshold")],
)
def test_kernel_two_mode_refuses_what_quantise_takes_for_momentum(
    monkeypatch, params, g, growth, degree, nmax
):
    # kernel_eval asks the engine's own position test, at the two-mode basis
    # quantise takes by default, 4, whatever basis the field's phase-space
    # test above takes (nmax): a probe at one momentum pair took the
    # threshold fields for position fields (q1 plus the threshold smoothed
    # to q1's 0.3 at x = (0.3, 0.4))
    f = ClassicalFunction(g, arity="two-mode", growth=growth, degree=degree)
    with pytest.raises(UnsupportedMomentumDependence):
        kernel_eval(f, params, np.array([0.3, 0.4]))
    assert _route(monkeypatch, f, params, 4) == "phase-space"


def test_kernel_two_mode_accepts_what_quantise_takes_for_a_position_field(monkeypatch):
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    f = ClassicalFunction(lambda q1, q2, p1, p2: np.exp(-(q1 * q1 + q2 * q2) / 2.0),
                          arity="two-mode", growth="bounded")
    a0 = kernel_eval(f, params, np.array([0.3, 0.4])).smoothing_factor
    # the smoothing of exp(-|x|^2 / 2) at covariance S = (2 M)^-1 is
    # exp(-x^T (1 + S)^-1 x / 2) / sqrt(det(1 + S))
    s = np.eye(2) + np.linalg.inv(2.0 * _portrait_precision(params))
    x = np.array([0.3, 0.4])
    assert_allclose(a0, np.exp(-0.5 * x @ np.linalg.solve(s, x)) / np.sqrt(np.linalg.det(s)),
                    rtol=1e-12)
    assert _route(monkeypatch, f, params, 4) == "position"


def test_kernel_two_mode_rejects_momentum():
    params = NonSepParams.from_tau(0.1, 0.3, 0.5)
    with pytest.raises(UnsupportedMomentumDependence):
        kernel_eval(
            ClassicalFunction(lambda q1, q2, p1, p2: q1 * p2, arity="two-mode"),
            params,
            np.array([0.0, 0.0]),
        )
