"""Pass loop, correctness gates and metrics of one benchmark run.

A pass sends the workload's requests one after another in a closed loop:
the next request starts when the previous one has returned.  Request time
covers the call into the program only; reading its outputs, hashing them
and comparing them with the oracles happen between requests, untimed.  The
first pass of a run is checked against the oracles; every later pass, traced
or not, must write byte-identical outputs.  Untraced passes also sample a
host-speed kernel around and during each request (see ``calibration``); the
time of the samples taken during a request is taken out of its time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from calibration import HostSpeed
from tracing import REQUEST, Tracer, package_modules
from workloads import CliRequest, Witness, gate

LAYERS = ("cli", "quantmap", "nonsepstates", "sepstates", "onemode", "pdm", "numerics")
CLOSED_FORM = (
    "pdm.portrait_chi",
    "pdm.regularised_mass",
    "pdm.portrait_q2chi",
    "pdm.effective_potential",
    "pdm.effective_potential_gradient",
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_UNITS = 200

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "nonsepstates.table1_operators.self_s": "s",
    "nonsepstates.verify_identity_resolution.self_s": "s",
    "nonsepstates.bogoliubov_check.self_s": "s",
    "quantmap.quantise.calls": "count",
    "quantmap.quantise.self_s": "s",
    "quantmap.quantise.identity_deviation_max": "1",
    "nonsepstates.nonsep_portrait_hq.calls": "count",
    "nonsepstates.nonsep_portrait_hq.self_s": "s",
    "nonsepstates.nonsep_portrait_hq.us_per_call": "us",
    "numerics.legendre_box_rule.calls": "count",
    "numerics.legendre_box_rule.self_s": "s",
    "numerics.gauss_hermite_rule.calls": "count",
    "numerics.gauss_hermite_rule.self_s": "s",
    "numerics.solve_ode.calls": "count",
    "numerics.solve_ode.self_s": "s",
    "numerics.solve_ode.rhs_evals": "count",
    "numerics.solve_ode.us_per_rhs_eval": "us",
    "numerics.solve_ode.failed": "count",
    "pdm.semiclassical_integrate.self_s": "s",
    "pdm.classical_integrate.self_s": "s",
    "pdm.closed_form.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}


@dataclass
class PassResult:
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    raw_wall_s: float = 0.0
    raw_latencies: list = field(default_factory=list)
    failed: set = field(default_factory=set)
    witnesses: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode())
        h.update(outputs[name])
    return h.hexdigest()


def _call(req, tracer: Tracer | None, speed: HostSpeed | None = None):
    """Run one request; returns (raw result or None, seconds, error text or None, kernel samples).

    With ``speed``, kernel samples are taken during the request (see
    ``HostSpeed.ticking``) and their time is not counted in ``seconds``.
    """
    sink = io.StringIO()
    raw, error = None, None
    root = contextlib.nullcontext() if tracer is None else tracer.request(req.rid)
    ticking = contextlib.nullcontext() if speed is None else speed.ticking()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), ticking as ticks:
        start = time.perf_counter()
        with root as span:
            try:
                raw = req.call()
            except Exception:
                error = traceback.format_exc()
        # traced, the request span's duration, so that self times add up to the wall
        seconds = time.perf_counter() - start if span is None else span.duration
    if ticks is not None:
        seconds -= ticks.spent
    if error is None and not req.succeeded(raw):
        error = f"exit code {raw}: {sink.getvalue()[-2000:]}"
    return raw, seconds, error, [] if ticks is None else ticks.samples


def run_pass(
    workload, reference: dict | None, tracer: Tracer | None = None, label: str = "", speed: HostSpeed | None = None
) -> PassResult:
    """One pass of every request; checked against the oracles unless ``reference`` digests are given.

    With ``speed``, each request's time is also rescaled to the reference host
    speed from kernel samples taken right before, during and right after it,
    and the scaled times are the pass's ``latencies`` and ``wall_s``.
    """
    res = PassResult()
    before = speed.sample() if speed is not None else None
    for req in workload.requests:
        raw, seconds, error, during = _call(req, tracer, speed)
        res.raw_latencies.append(seconds)
        res.raw_wall_s += seconds
        if speed is not None:
            after = speed.sample()
            seconds = speed.scale(seconds, before, during, after)
            before = after
        res.latencies.append(seconds)
        res.wall_s += seconds
        if error is not None:
            res.failed.add(req.rid)
            res.witnesses.append(gate(f"{req.rid}.ran", False))
            print(f"request {req.rid} failed: {error}", file=sys.stderr)
            continue
        outputs = req.outputs(raw)
        res.digests[req.rid] = digest(outputs)
        if isinstance(req, CliRequest):
            res.bytes_written += sum(len(v) for v in outputs.values())
        if reference is None:
            try:
                found = req.check(raw)
            except Exception:
                print(f"check of {req.rid} raised: {traceback.format_exc()}", file=sys.stderr)
                found = [gate(f"{req.rid}.checked", False)]
        else:
            found = [gate(f"{req.rid}.{label}identical_outputs", reference.get(req.rid) == res.digests[req.rid])]
        res.witnesses.extend(found)
        if not all(w.ok for w in found):
            res.failed.add(req.rid)
    return res


def _next_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass of the mean length so far should end within ``seconds``."""
    return (time.perf_counter() - start) * (done + 1) / done <= seconds


def measure(workload, seconds: float, min_passes: int) -> list:
    """At least ``min_passes`` untraced passes, then more while the next one fits in ``seconds``.

    Request times are rescaled to the reference host speed with the
    workload's kernel (see ``calibration``).
    """
    passes = []
    speed = HostSpeed(workload.kernel)
    start = time.perf_counter()
    while len(passes) < min_passes or _next_fits(start, len(passes), seconds):
        gc.collect()
        passes.append(run_pass(workload, passes[0].digests if passes else None, speed=speed))
    return passes


def measure_traced(workload, seconds: float, tracer: Tracer) -> tuple[list, list]:
    """Untraced and traced passes in turn, at least one of each, while the next one fits in ``seconds``.

    Alternating spreads slow spells of the machine over both kinds, so their
    ratio is the tracing overhead.  The first (untraced) pass is checked
    against the oracles; every later pass must write identical outputs.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or _next_fits(start, len(untraced) + len(traced), seconds):
        gc.collect()
        if len(untraced) <= len(traced):
            untraced.append(run_pass(workload, untraced[0].digests if untraced else None))
            continue
        tracer.install()
        try:
            traced.append(run_pass(workload, untraced[0].digests, tracer, "traced."))
        finally:
            tracer.restore()
    return untraced, traced


def setup_seconds(src: str) -> tuple[list, list]:
    """Wall times of fresh interpreters that import the package, spawn to exit: scaled and raw.

    Each is rescaled to the reference host speed from interpreter-kernel
    samples taken right before and right after it (see ``calibration``).
    """
    code = f"import sys; sys.path.insert(0, {src!r}); import sqzq"
    speed = HostSpeed("interpreter")
    scaled, raw = [], []
    before = speed.sample(SETUP_UNITS)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=os.environ.copy())
        raw.append(time.perf_counter() - start)
        after = speed.sample(SETUP_UNITS)
        scaled.append(speed.scale(raw[-1], before, after))
        before = after
    return scaled, raw


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def accuracy(witnesses) -> tuple[float, Witness | None]:
    """min over witnesses of -log10(max(deviation, 1e-16)), with the worst one."""
    def dev(w):
        return w.deviation if math.isfinite(w.deviation) else 1e16

    worst = max(witnesses, key=dev, default=None)
    if worst is None:
        return 16.0, None
    return -math.log10(max(dev(worst), 1e-16)), worst


def end_to_end(passes, setup: list) -> dict:
    lat_ms = [1e3 * s for p in passes for s in p.latencies]
    witnesses = [w for p in passes for w in p.witnesses]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "request_p50_ms": percentile(lat_ms, 50),
        "request_p90_ms": percentile(lat_ms, 90),
        "accuracy_digits": accuracy(witnesses)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def raw_times(passes, setup_raw: list) -> dict:
    """The time metrics of ``end_to_end`` from raw, unscaled times."""
    lat_ms = [1e3 * s for p in passes for s in p.raw_latencies]
    return {
        "wall_s": statistics.median(p.raw_wall_s for p in passes),
        "setup_s": statistics.median(setup_raw),
        "request_p50_ms": percentile(lat_ms, 50),
        "request_p90_ms": percentile(lat_ms, 90),
    }


def _quantise_observation(op):
    return op.quadrature_report.identity_deviation


def _ode_observation(sol):
    return (sol.n_rhs_evals, sol.status == "failed")


def make_tracer(package: str = "sqzq") -> Tracer:
    layers = [sys.modules[f"{package}.{name}"] for name in LAYERS]
    return Tracer(
        layers,
        package_modules(package),
        observe={"quantmap.quantise": _quantise_observation, "numerics.solve_ode": _ode_observation},
    )


def layer_metrics(tracer: Tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics, each a mean per traced pass."""
    summary = tracer.summary()
    n = len(traced)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0, "results": []}

    def rec(name):
        return summary.get(name, empty)

    out = dict.fromkeys(PER_LAYER, 0.0)
    for key in PER_LAYER:
        fn, _, stat = key.rpartition(".")
        if stat in ("self_s", "calls") and fn in summary:
            out[key] = summary[fn][stat] / n
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(r["self_s"] for k, r in summary.items() if k.startswith(layer + ".")) / n

    q = rec("quantmap.quantise")
    out["quantmap.quantise.identity_deviation_max"] = max(q["results"], default=0.0)
    hq = rec("nonsepstates.nonsep_portrait_hq")
    out["nonsepstates.nonsep_portrait_hq.us_per_call"] = 1e6 * hq["total_s"] / hq["calls"] if hq["calls"] else 0.0
    ode = rec("numerics.solve_ode")
    evals = sum(r[0] for r in ode["results"])
    out["numerics.solve_ode.rhs_evals"] = evals / n
    out["numerics.solve_ode.us_per_rhs_eval"] = 1e6 * ode["total_s"] / evals if evals else 0.0
    out["numerics.solve_ode.failed"] = (ode["raised"] + sum(bool(r[1]) for r in ode["results"])) / n
    out["pdm.closed_form.self_s"] = sum(rec(name)["self_s"] for name in CLOSED_FORM) / n
    out["cli.bytes_written"] = sum(p.bytes_written for p in traced) / n
    traced_wall = sum(p.wall_s for p in traced) / n
    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = rec(REQUEST)["self_s"] / n
    out["trace.overhead"] = traced_wall / (sum(p.wall_s for p in untraced) / len(untraced))
    return out


def self_time_gap(metrics: dict) -> float:
    """Relative gap between the traced wall and the sum of layer self times plus unattributed time."""
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["trace.unattributed_s"]
    return abs(total - metrics["trace.wall_s"]) / metrics["trace.wall_s"]


# ----------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, or None where it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    eps = float(np.finfo(np.longdouble).eps)
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_runtime_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "longdouble_eps": eps,
        "longdouble_is_float64": eps == float(np.finfo(np.float64).eps),
    }
