"""Self-test of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q

Run from the root of a checkout.  Covers span self-time accounting on a
synthetic nested call, the restoration of every wrapped binding after a
traced run, byte-identical outputs of traced and untraced passes, the
oracles against direct quadrature, the host-speed rescaling, and the
agreement of BENCHMARK.json with the metrics the harness prints.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibration  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import REQUEST, Tracer, package_modules  # noqa: E402


@pytest.fixture
def fake_package():
    """fakepkg.inner defines inner(); fakepkg.outer imports it and calls it twice."""
    pkg = types.ModuleType("fakepkg")
    inner_mod = types.ModuleType("fakepkg.inner")
    outer_mod = types.ModuleType("fakepkg.outer")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.03)
        outer_mod.inner()
        outer_mod.inner()

    inner.__module__, outer.__module__ = inner_mod.__name__, outer_mod.__name__
    inner_mod.inner, inner_mod.__all__ = inner, ["inner"]
    outer_mod.outer, outer_mod.inner, outer_mod.__all__ = outer, inner, ["outer"]
    mods = {"fakepkg": pkg, "fakepkg.inner": inner_mod, "fakepkg.outer": outer_mod}
    sys.modules.update(mods)
    yield outer_mod, inner_mod
    for name in mods:
        sys.modules.pop(name, None)


def test_self_time_of_synthetic_nested_call(fake_package):
    outer_mod, inner_mod = fake_package
    original_inner = inner_mod.inner
    tracer = Tracer([outer_mod, inner_mod], package_modules("fakepkg"))
    tracer.install()
    assert sorted(tracer.bindings) == ["fakepkg.inner.inner", "fakepkg.outer.inner", "fakepkg.outer.outer"]
    with tracer.request("r0"):
        outer_mod.outer()
    tracer.restore()

    assert tracer.unrestored() == []
    assert outer_mod.inner is original_inner and inner_mod.inner is original_inner
    names = [s.name for s in tracer.spans]
    assert names == [REQUEST, "outer.outer", "inner.inner", "inner.inner"]
    req, out, in1, in2 = tracer.spans
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    assert all(s.request == "r0" for s in tracer.spans)
    own = tracer.self_times()
    assert own[1] == pytest.approx(out.duration - in1.duration - in2.duration, abs=1e-12)
    assert own[2] == in1.duration and own[3] == in2.duration
    assert sum(own) == pytest.approx(req.duration, abs=1e-12)
    assert own[1] >= 0.03 and own[2] >= 0.02 and own[3] >= 0.02
    summary = tracer.summary()
    assert summary["inner.inner"]["calls"] == 2
    assert summary["outer.outer"]["total_s"] == out.duration


def _function_bindings():
    return {
        (mod.__name__, attr): val
        for mod in package_modules("sqzq")
        for attr, val in vars(mod).items()
        if inspect.isfunction(val)
    }


def test_traced_run_restores_bindings_and_writes_identical_outputs(tmp_path):
    import sqzq  # noqa: F401

    keep = {"fig3a", "fig6c", "fig4a"}
    dyn = workloads.build_dynamics(7, tmp_path / "dynamics")
    por = workloads.build_portrait(7, tmp_path / "portrait")
    wl = workloads.Workload(
        "mixed", [r for r in dyn.requests if r.rid in keep] + [r for r in por.requests if r.rid == "chi"]
    )
    before = _function_bindings()
    tracer = harness.make_tracer()
    untraced, traced = harness.measure_traced(wl, 0.0, tracer)
    wrapped = set(tracer.bindings)

    assert {"sqzq.cli.main", "sqzq.pdm.solve_ode", "sqzq.numerics.solve_ode", "sqzq.cli.table1_operators",
            "sqzq.nonsepstates.table1_operators", "sqzq.cli.quantise", "sqzq.quantmap.quantise"} <= wrapped
    assert tracer.unrestored() == []
    assert _function_bindings() == before
    assert all(w.ok for w in untraced[0].witnesses)
    ids = [w.id for w in traced[0].witnesses]
    assert ids == [f"{r.rid}.traced.identical_outputs" for r in wl.requests]
    assert all(w.ok for w in traced[0].witnesses)

    metrics = harness.layer_metrics(tracer, traced, untraced)
    assert list(metrics) == list(harness.PER_LAYER)
    assert harness.self_time_gap(metrics) < 1e-9
    assert metrics["cli.main.calls"] == 4
    assert metrics["numerics.solve_ode.calls"] >= 3
    assert metrics["numerics.solve_ode.rhs_evals"] > 0
    assert metrics["pdm.closed_form.self_s"] > 0


def test_window_moments_match_direct_quadrature():
    w, s = 1.0, 0.3
    for q in (-1.7, -0.4, 0.0, 0.9, 1.3):
        c, g = oracles.window_moments(q, w, s)
        dens = lambda x: np.exp(-0.5 * ((x - q) / s) ** 2) / (s * np.sqrt(2 * np.pi))
        assert c == pytest.approx(quad(dens, -w, w, epsabs=1e-15)[0], abs=1e-13)
        assert g == pytest.approx(quad(lambda x: x * x * dens(x), -w, w, epsabs=1e-15)[0], abs=1e-13)


def test_box_probability_factorises_for_diagonal_covariance():
    box = ((-0.7, 0.7), (-1.0, 1.0))
    cov = np.diag([0.04, 0.09])
    for centre in ((0.1, -0.2), (0.65, 0.95), (-0.9, 0.3)):
        c1, _ = oracles.window_moments(centre[0], 0.7, 0.2)
        c2, _ = oracles.window_moments(centre[1], 1.0, 0.3)
        assert oracles.box_probability(centre, cov, box) == pytest.approx(c1 * c2, abs=1e-13)


def test_multiplication_matrix_of_positions():
    lam1, lam2, nmax = 0.8, 1.15, 3
    dim = nmax + 1
    x1 = np.kron(oracles.position(dim, lam1), np.eye(dim))
    x2 = np.kron(np.eye(dim), oracles.position(dim, lam2))
    assert np.max(np.abs(oracles.multiplication_matrix(lambda a, b: a + 0 * b, lam1, lam2, nmax) - x1)) < 1e-13
    assert np.max(np.abs(oracles.multiplication_matrix(lambda a, b: 0 * a + b, lam1, lam2, nmax) - x2)) < 1e-13


def test_host_speed_rescales_by_the_median_unit_time():
    for kernel, (_, ref) in calibration.KERNELS.items():
        speed = calibration.HostSpeed(kernel)
        times = speed.sample(3)
        assert len(times) == 3 and all(t > 0 for t in times)
        # a host twice as slow as the reference halves the scaled time
        assert speed.scale(3.0, [2 * ref, 9 * ref], [2 * ref]) == pytest.approx(1.5)
        assert speed.scale(3.0, [ref]) == pytest.approx(3.0)
        with speed.ticking() as ticks:
            time.sleep(2.2 * speed.period)
        # ticks at one and two periods; a late one may fall after the sleep
        assert len(ticks.samples) in (speed.tick_units, 2 * speed.tick_units) and ticks.spent > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert set(workloads.BY_NAME) == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
