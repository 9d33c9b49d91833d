"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each criterion is a single test function so the -v run shows one pass/fail
line per guarantee.  Every closed form is checked against an independent
route, not against itself: trapezoid or Legendre quadrature, exact Gaussian
moments, central differences.  The quadrature oracles are the ones ``sqzq
verify`` uses, imported from ``sqzq.cli``; these tests run them on their own,
wider draws (25 per family, where ``verify`` takes 4 to 10).
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sqzq import pdm
from sqzq.cli import (
    _mode_symbol_oracle,
    _norm_oracle,
    _overlap_oracle_1d,
)
from sqzq.numerics import TruncatedOperator
from sqzq.onemode import (
    OneModePhasePoint,
    SqueezeParameter,
    alpha_from_qp,
    fock_coefficients,
    holomorphic_orthogonality_check,
    overlap_sq,
    wavefunction,
)
from sqzq.sepstates import (
    PhasePoint,
    TwoModeParams,
    portrait_hq,
    portrait_p2_h,
    portrait_p_h,
    sep_wavefunction,
)
from sqzq.nonsepstates import (
    NonSepParams,
    bogoliubov_check,
    nonsep_overlap_closed,
    nonsep_overlap_sq,
    nonsep_portrait_hq,
    nonsep_wavefunction,
    table1_coefficient_rows,
    table1_operators,
)
from sqzq.nonsepstates import _portrait_precision, _two_mode_positions
from sqzq.nonsepstates import fock_coefficients as nonsep_fock_coefficients
from sqzq.quantmap import dirac_correspondence_check, quantise, symmetrisation_constant

from .oracles import momentum


def test_criterion_01_exact_solution_reproduction():
    model = pdm.PdmModel(m0=1.0, lambda1=1.0, lambda2=1.0)
    init = pdm.InitialState(0.0, 0.0, 1.0, 1.0)
    start = time.perf_counter()
    tr = pdm.classical_integrate(model, init, (0.0, 65.0))
    elapsed = time.perf_counter() - start
    assert np.max(np.abs(tr.q[:, 0] - np.sin(tr.t))) < 1e-6
    assert elapsed < 1.0


def test_criterion_02_closed_orbits_at_analytic_periods():
    expected = {"fig3a": 2.0 * np.pi, "fig3b": 4.0 * np.pi, "fig3c": np.pi}
    for name, period in expected.items():
        preset = pdm.PRESETS[name]
        assert preset.closure_time == pytest.approx(period)
        tr = pdm.classical_integrate(preset.model, preset.init, (0.0, period))
        start = np.concatenate([tr.q[0], tr.p[0]])
        end = np.concatenate([tr.q[-1], tr.p[-1]])
        assert np.max(np.abs(end - start)) < 1e-3, name


def test_criterion_03_identity_resolution_and_orthogonality():
    for tau in (0.0, 0.5, 0.7j):
        par = SqueezeParameter.from_tau(tau)
        op = quantise(lambda q, p: np.ones_like(q), par, nmax=7)
        assert op.matrix.entries.shape == (8, 8)
        assert np.max(np.abs(op.matrix.entries - np.eye(8))) < 1e-4, tau
    par = SqueezeParameter.from_tau(0.5)
    norms = [abs(holomorphic_orthogonality_check(par, n, n)[1]) for n in range(7)]
    for n in range(7):
        for m in range(7):
            lhs, rhs = holomorphic_orthogonality_check(par, n, m)
            if n == m:
                assert abs(lhs - rhs) / abs(rhs) < 1e-6
            else:
                assert abs(lhs) / np.sqrt(norms[n] * norms[m]) < 1e-6


def test_criterion_04_canonical_quantisation():
    for tau in (0.0, 0.4, 0.5j):
        par = SqueezeParameter.from_tau(tau, lam=0.9, hbar=1.2)
        got_q = quantise(lambda q, p: q, par, nmax=8).matrix.entries
        got_p = quantise(lambda q, p: p, par, nmax=8).matrix.entries
        assert np.max(np.abs(got_q - TruncatedOperator.position(9, 0.9).entries)) < 1e-6
        assert np.max(np.abs(got_p - momentum(9, 0.9, 1.2).entries)) < 1e-6
        assert dirac_correspondence_check(par, nmax=6) < 1e-6
    # product field: no additive constant for real squeezing
    assert symmetrisation_constant(SqueezeParameter.from_tau(0.4)) == 0.0
    par = SqueezeParameter.from_tau(0.4)
    got = quantise(lambda q, p: q * p, par, nmax=10).matrix.entries
    x = TruncatedOperator.position(11).entries
    p = momentum(11).entries
    assert np.max(np.abs((got - (x @ p + p @ x) / 2.0)[:6, :6])) < 1e-6
    # complex squeezing: quadrature matrix against the Fock-algebra oracle
    par = SqueezeParameter.from_tau(0.5j)
    got = quantise(lambda q, p: q * p, par, nmax=10).matrix.entries
    want = (x @ p + p @ x) / 2.0 + symmetrisation_constant(par) * np.eye(11)
    assert np.max(np.abs((got - want)[:6, :6])) < 1e-6


def test_criterion_05_closed_forms_match_quadrature_oracles():
    # one-mode overlap against direct wavefunction integration
    rng = np.random.default_rng(5001)
    for _ in range(25):
        par = SqueezeParameter.from_tau(
            rng.uniform(0, 0.75) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            lam=rng.uniform(0.6, 1.4),
        )
        pa = OneModePhasePoint(*rng.uniform(-1.2, 1.2, size=2))
        pb = OneModePhasePoint(*rng.uniform(-1.2, 1.2, size=2))
        closed = overlap_sq(pa, pb, par)
        assert abs(closed - _overlap_oracle_1d(pa, pb, par)) / closed < 1e-6

    # separable momentum portraits against 2D phase-space quadrature
    rng = np.random.default_rng(5002)
    for k in range(25):
        params = TwoModeParams.from_tau(
            rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            lam1=rng.uniform(0.7, 1.3),
            lam2=rng.uniform(0.7, 1.3),
        )
        pt = PhasePoint(*rng.uniform(-1.0, 1.0, size=4))
        c1, c2 = rng.uniform(-0.8, 0.8, size=2)
        h1 = lambda x, c=c1: np.exp(-((x - c) ** 2) / 0.9)
        h2 = lambda x, c=c2: np.exp(-((x - c) ** 2) / 1.3)
        h = lambda q1, q2: h1(q1) * h2(q2)
        j = 1 + (k % 2)
        other = 3 - j
        hs = {1: h1, 2: h2}
        factors = {
            (mode, pw): _mode_symbol_oracle(
                params.mode(mode), pt.q(mode), pt.p(mode), hs[mode], pw
            )
            for mode in (1, 2)
            for pw in (0, 1, 2)
        }
        oracle1 = factors[(j, 1)] * factors[(other, 0)]
        oracle2 = factors[(j, 2)] * factors[(other, 0)]
        assert abs(portrait_p_h(j, h, pt, params) - oracle1) / abs(oracle1) < 1e-6
        assert abs(portrait_p2_h(j, h, pt, params) - oracle2) / abs(oracle2) < 1e-6

    # non-separable normalisation against planar quadrature
    rng = np.random.default_rng(5003)
    for _ in range(25):
        params = NonSepParams.from_tau(
            rng.uniform(0, 0.55) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(0, 0.55) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(0.0, 6.2),
            rng.uniform(0.7, 1.2),
            rng.uniform(0.7, 1.2),
        )
        pt = PhasePoint(*rng.uniform(-0.8, 0.8, size=4))
        assert abs(_norm_oracle(params, pt) - 1.0) < 1e-6

    # coupled portrait against exact Gaussian second moments
    rng = np.random.default_rng(5004)
    for _ in range(25):
        params = NonSepParams.from_tau(
            rng.uniform(0, 0.55) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(0, 0.55) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(0.0, 6.2),
            rng.uniform(0.7, 1.2),
            rng.uniform(0.7, 1.2),
        )
        pt = PhasePoint(*rng.uniform(-0.8, 0.8, size=4))
        a, b, c, d, e, f = rng.uniform(-1.0, 1.0, size=6)
        poly = lambda q1, q2: a * q1 * q1 + b * q2 * q2 + c * q1 * q2 + d * q1 + e * q2 + f
        mi = np.linalg.inv(_portrait_precision(params))
        want = poly(pt.q1, pt.q2) + a * mi[0, 0] + b * mi[1, 1] + c * mi[0, 1]
        got = nonsep_portrait_hq(poly, pt, params)
        assert abs(got - want) / max(abs(want), 1e-9) < 1e-6

    # two-mode overlap closed form against its Gaussian-integral oracle
    rng = np.random.default_rng(5005)
    for _ in range(25):
        params = NonSepParams.from_tau(
            rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(0.0, 6.2),
            rng.uniform(0.7, 1.2),
            rng.uniform(0.7, 1.2),
        )
        pa = PhasePoint(*rng.uniform(-0.7, 0.7, size=4))
        pb = PhasePoint(*rng.uniform(-0.7, 0.7, size=4))
        oracle = nonsep_overlap_sq(pa, pb, params)
        closed = nonsep_overlap_closed(pa, pb, params)
        assert abs(closed - oracle) / oracle < 1e-6


def test_criterion_06_bogoliubov_residual():
    t = float(np.tanh(0.7))
    params = NonSepParams.from_tau(
        t * np.exp(0.4j), t * np.exp(-1.1j), 0.9, 0.8, 1.15
    )
    start = time.perf_counter()
    # interior block n <= 8 inside the 40-level box per mode
    residual = bogoliubov_check(params, nmax=8, dim=40)
    elapsed = time.perf_counter() - start
    assert residual < 1e-6
    assert elapsed < 10.0


def test_criterion_07_table1_rows():
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    nmax = 4
    x1, x2, sel = _two_mode_positions(params, nmax)

    # each field's engine run gives its identity resolution too; its
    # identity deviation covers the full matrix, not only the interior block
    ops = table1_operators(params, nmax)
    assert ops["q1"].report.identity_deviation < 1e-4

    rows = table1_coefficient_rows(params)
    for name, bare in (("q1", x1), ("q2", x2)):
        mat = ops[name].entries
        printed = rows[name]["rival"]
        combo = printed[0] * x1 + printed[1] * x2
        printed_dev = np.max(np.abs((mat - combo)[sel]))
        if printed_dev >= 1e-4:
            # erratum branch: the oracle must pin the bare position operator
            # and both rows must be on record for reporting
            assert np.max(np.abs((mat - bare)[sel])) < 1e-4, name
            assert rows[name]["adopted"] in ((1.0, 0.0), (0.0, 1.0))
            assert printed_dev > 0.01, name


def test_criterion_08_semiclassical_phenomenology(run_preset):
    expected = {"fig6a": "bounded", "fig6b": "bounded", "fig6c": "escaped"}
    for name, classification in expected.items():
        start = time.perf_counter()
        tr = run_preset(name)
        elapsed = time.perf_counter() - start
        assert tr.classification == classification, name
        assert tr.energy_drift() < 1e-6, name
        assert elapsed < 30.0, name
        if name == "fig6c":
            assert tr.escape_time is not None and tr.escape_time <= 15.0


def test_criterion_09_gradients_match_central_differences():
    model = pdm.PdmModel(m0=5.0, lambda1=1.5, lambda2=1.0, vbar1=50.0, vbar2=50.0)
    modes = TwoModeParams.from_tau(0.9, 0.9, lam1=0.5, lam2=0.5)
    rng = np.random.default_rng(9001)
    pts = rng.uniform(-1.5, 1.5, size=(100, 2))
    h = 1e-6
    vgrad = pdm.effective_potential_gradient(model, modes, pts)
    for k, base in enumerate(pts):
        for d in range(2):
            step = np.zeros(2)
            step[d] = h
            fd = (
                pdm.effective_potential(model, modes, base + step)
                - pdm.effective_potential(model, modes, base - step)
            ) / (2 * h)
            scale = max(np.max(np.abs(vgrad[k])), 1.0)
            assert abs(vgrad[k, d] - fd) / scale < 1e-6
        for j in (1, 2):
            mgrad = pdm.regularised_mass_gradient(model, modes, base, j)
            for d in range(2):
                step = np.zeros(2)
                step[d] = h
                fd = (
                    pdm.regularised_mass(model, modes, base + step, j)
                    - pdm.regularised_mass(model, modes, base - step, j)
                ) / (2 * h)
                scale = max(np.max(np.abs(mgrad)), 1e-3)
                assert abs(mgrad[d] - fd) / scale < 1e-6


def test_criterion_10_limit_sweeps():
    # zero mixing, real squeezing: every two-mode output collapses separable
    params = NonSepParams.from_tau(0.4, -0.3, 0.0, 0.9, 1.1)
    modes = TwoModeParams.from_tau(0.4, -0.3, 0.9, 1.1)
    pt = PhasePoint(0.5, -0.2, 0.3, 0.4)
    x = np.random.default_rng(1000).normal(size=(80, 2)) * 1.4
    assert_allclose(
        nonsep_wavefunction(params, pt, x), sep_wavefunction(pt, modes, x),
        atol=1e-10,
    )
    pb = PhasePoint(-0.1, 0.25, 0.0, -0.3)
    product = overlap_sq(
        OneModePhasePoint(pt.q1, pt.p1), OneModePhasePoint(pb.q1, pb.p1), modes.mode1
    ) * overlap_sq(
        OneModePhasePoint(pt.q2, pt.p2), OneModePhasePoint(pb.q2, pb.p2), modes.mode2
    )
    assert abs(nonsep_overlap_closed(pt, pb, params) - product) < 1e-10
    bump = lambda q1, q2: np.exp(-((q1 - 0.2) ** 2) - 0.5 * (q2 + 0.1) ** 2)
    assert abs(
        nonsep_portrait_hq(bump, pt, params) - portrait_hq(bump, pt, modes)
    ) < 1e-10
    c2d = nonsep_fock_coefficients(pt, params, 12)
    c1 = fock_coefficients(
        alpha_from_qp(OneModePhasePoint(pt.q1, pt.p1), modes.mode1), modes.mode1, 12
    )
    c2 = fock_coefficients(
        alpha_from_qp(OneModePhasePoint(pt.q2, pt.p2), modes.mode2), modes.mode2, 12
    )
    assert np.max(np.abs(c2d - np.outer(c1, c2))) < 1e-10

    # vanishing squeezing: coherent values, exact where analytic
    par0 = SqueezeParameter.from_tau(0.0, lam=1.1, hbar=0.9)
    w = par0.widths()
    assert w.delta_q_sq == 1.0 and w.delta_p_sq == 1.0 and w.gamma == 0.0
    pa = OneModePhasePoint(0.7, -0.4)
    pb1 = OneModePhasePoint(-0.2, 0.5)
    coherent = np.exp(
        -((pa.q - pb1.q) ** 2) / (2 * par0.lam**2)
        - par0.lam**2 * (pa.p - pb1.p) ** 2 / (2 * par0.hbar**2)
    )
    assert abs(overlap_sq(pa, pb1, par0) - coherent) < 1e-15
    alpha = 0.3
    c = fock_coefficients(alpha, SqueezeParameter.from_tau(0.0), 10)
    glauber = np.exp(-(alpha**2) / 2) * alpha ** np.arange(11) / np.sqrt(
        [float(math.factorial(n)) for n in range(11)]
    )
    assert_allclose(c.real, glauber, rtol=1e-12)
    assert np.all(c.imag == 0)
    got_q = quantise(lambda q, p: q, SqueezeParameter.from_tau(0.0), nmax=8)
    assert np.max(np.abs(got_q.matrix.entries - TruncatedOperator.position(9).entries)) < 1e-8
    # mixing acts before displacement, so it drops out on unsqueezed vacua
    p0 = NonSepParams.from_tau(0.0, 0.0, 1.3, 0.9, 1.2, hbar=0.8)
    m1 = SqueezeParameter.from_tau(0.0, lam=0.9, hbar=0.8)
    m2 = SqueezeParameter.from_tau(0.0, lam=1.2, hbar=0.8)
    xs = np.linspace(-3.5, 3.5, 31)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    want = wavefunction(OneModePhasePoint(pt.q1, pt.p1), m1, grid[..., 0]) * wavefunction(
        OneModePhasePoint(pt.q2, pt.p2), m2, grid[..., 1]
    )
    assert np.max(np.abs(nonsep_wavefunction(p0, pt, grid) - want)) < 1e-8
