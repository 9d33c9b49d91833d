"""Command-line interface: portraits, simulations, verification, quantisation.

Configuration is a flat JSON object; command-line flags override file values.
All outputs are byte-reproducible for a fixed config and package version:
sampling grids are fixed, random draws are seeded from constants, numbers are
written with 17 significant digits, and wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigError, NonFiniteState, OutsideBox, SqzqError
from ..numerics import legendre_box_rule
from ..onemode import OneModePhasePoint, SqueezeParameter, overlap_sq, wavefunction
from ..onemode import _coefficients as _mode_coefficients
from ..onemode import holomorphic_orthogonality_check
from ..sepstates import PhasePoint, TwoModeParams, _mode_sigma, portrait_p2_h, portrait_p_h
from ..nonsepstates import (
    NonSepParams,
    bogoliubov_check,
    nonsep_box_portrait,
    nonsep_coefficients,
    nonsep_overlap_closed,
    nonsep_overlap_sq,
    nonsep_portrait_hq,
    nonsep_wavefunction,
    table1_coefficient_rows,
    table1_operators,
)
from ..nonsepstates import (
    _fock_batch,
    _portrait_precision,
    _rotate,
    _TABLE1_FIELDS,
    _rotated_frame,
    _table1_closed_forms,
    _two_mode_positions,
)
from ..quantmap import _TWO_MODE_NMAX, quantise
from .. import pdm

__all__ = ["RunConfig", "main"]

_REQUIRED = object()

_PORTRAIT_FIELDS = ("chi", "mass1", "mass2", "q2chi1", "q2chi2", "veff", "nonsep_hq")
# the functions ``sqzq quantise`` offers; the two-mode ones beside the
# identity are the Table 1 fields
_ONEMODE_CATALOGUE = {
    "one": lambda q, p: np.ones_like(q),
    "q": lambda q, p: q,
    "p": lambda q, p: p,
    "q2": lambda q, p: q * q,
    "p2": lambda q, p: p * p,
    "qp": lambda q, p: q * p,
}
_TWOMODE_CATALOGUE = {"one": lambda q1, q2, p1, p2: np.ones_like(q1), **_TABLE1_FIELDS}


@dataclass(frozen=True)
class RunConfig:
    """Flat key-value parameters merged from file and flags."""

    values: dict

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        values = {}
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
            if not isinstance(data, dict):
                raise ConfigError(f"config file {path!r} must hold a JSON object")
            values.update(data)
        for key, val in overrides.items():
            if val is not None:
                values[key] = val
        return cls(values)

    def has(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str, default=_REQUIRED, cast=float):
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigError(f"config field {key!r} is required")
            return default
        raw = self.values[key]
        try:
            # Python counts a boolean as a number, and int() drops a fraction
            if isinstance(raw, bool) and cast in (int, float):
                raise TypeError
            if cast is int and isinstance(raw, float) and not raw.is_integer():
                raise ValueError
            val = cast(raw)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(
                f"config field {key!r}: cannot interpret {raw!r} as {cast.__name__}"
            ) from None
        if cast is float and not np.isfinite(val):
            raise ConfigError(f"config field {key!r}: must be finite")
        return val

    def get_complex(self, key: str, default=_REQUIRED) -> complex:
        re = self.get(key, default=default)
        im = self.get(key + "_im", default=0.0)
        return complex(re, im)


# ----------------------------------------------------------------------
# CSV text
#
# Every number goes out as '%.17g' spells it.  A block of _LIBRARY_CELLS
# numbers or more is written by the compiled CSV writer (``native.csv``); a
# smaller block, or any block where no library loads, by one '%' row template.

# a block below this many numbers goes to '%' (0.3-1 us a number), so a
# process whose blocks are all as small, as one-mode quantise's 81 x 4, never
# pays the library's load (5-8 ms warm, about 3 ms of it importing hashlib)
_LIBRARY_CELLS = 512


def _csv(header: str, columns) -> bytes:
    """CSV bytes: the header, then one line per row of ``columns``, every
    number as '%.17g' writes it, integers as floats."""
    values = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    head = (header + "\n").encode("ascii")
    if values.size >= _LIBRARY_CELLS:
        # loaded at the first large block of a process, not at import
        from .. import native

        text = native.csv(head, values)
        if text is not None:
            return text
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return head + ((row * len(values)) % tuple(values.ravel().tolist())).encode("ascii")


def _write(out_dir: str, name: str, data: bytes) -> str:
    """Write ``data`` to ``out_dir/name``; an output path that cannot be
    written (``--out`` naming a file, a directory without permission) is a
    config error."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    return path


def _write_json(out_dir: str, name: str, payload) -> str:
    return _write(out_dir, name, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


# ----------------------------------------------------------------------
# model/state assembly from config


def _preset_value(preset: pdm.Preset | None, path: str, fallback=_REQUIRED):
    """The preset's value at the dotted attribute ``path``, or ``fallback``
    where no preset, or no part of it (a classical preset's modes), supplies
    one: a preset only supplies defaults, which the config overrides."""
    value = preset
    for attr in path.split("."):
        if value is None:
            return fallback
        value = getattr(value, attr)
    return value


def _model_from(cfg: RunConfig, preset: pdm.Preset | None) -> pdm.PdmModel:
    def read(key, fallback=_REQUIRED):
        return cfg.get(key, _preset_value(preset, f"model.{key}", fallback))

    return pdm.PdmModel(
        m0=read("m0"),
        lambda1=read("lambda1"),
        lambda2=read("lambda2"),
        vbar1=read("vbar1", 0.0),
        vbar2=read("vbar2", 0.0),
    )


def _family_from(build, **values):
    """State parameters from config values; a value they reject is a config error."""
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _modes_from(cfg: RunConfig, preset: pdm.Preset | None) -> TwoModeParams:
    def default(j: int, attr: str, fallback=_REQUIRED):
        return _preset_value(preset, f"modes.mode{j}.{attr}", fallback)

    return _family_from(
        TwoModeParams.from_tau,
        tau1=cfg.get_complex("tau1", default(1, "tau")),
        tau2=cfg.get_complex("tau2", default(2, "tau")),
        lam1=cfg.get("lam1", default(1, "lam", 1.0)),
        lam2=cfg.get("lam2", default(2, "lam", 1.0)),
        hbar=cfg.get("hbar", default(1, "hbar", 1.0)),
    )


def _preset_from(cfg: RunConfig) -> pdm.Preset | None:
    name = cfg.get("preset", None, cast=str)
    if name is None:
        return None
    if name not in pdm.PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(pdm.PRESETS))}"
        )
    return pdm.PRESETS[name]


def _tolerance(cfg: RunConfig, key: str, default=None):
    """The tolerance at config ``key``; it must be positive and finite."""
    tol = cfg.get(key, default)
    if tol is not None and not 0.0 < tol < math.inf:
        raise ConfigError(f"tolerance {key!r} must be positive and finite, got {tol!r}")
    return tol


def _grid_axes(cfg: RunConfig, model: pdm.PdmModel):
    def axis(j: int):
        w = model.wall(j)
        lo = cfg.get(f"q{j}_min", -1.5 * w)
        hi = cfg.get(f"q{j}_max", 1.5 * w)
        n = cfg.get(f"q{j}_points", 201, cast=int)
        if not hi > lo:
            raise ConfigError(f"config field 'q{j}_max' must exceed 'q{j}_min'")
        if n < 2:
            raise ConfigError(f"config field 'q{j}_points' must be >= 2")
        # a span near the float range overflows inside linspace
        with np.errstate(over="ignore", invalid="ignore"):
            points = np.linspace(lo, hi, n)
        if not np.all(np.isfinite(points)):
            raise ConfigError(f"the grid span q{j}_max - q{j}_min must be finite")
        return points

    return axis(1), axis(2)


# ----------------------------------------------------------------------
# portrait


def _nonsep_grid_values(model, modes, phi, pts):
    """Coupled-state smoothing of the box indicator at the grid points ``pts``.

    At zero mixing the kernel factorises exactly, whatever the squeezing
    phases, and the values are the separable closed form; any other angle
    takes the conditional-normal form of the coupled kernel.
    """
    if phi == 0.0:
        return pdm.portrait_chi(model, modes, pts)
    return nonsep_box_portrait(model.box, pts, NonSepParams(modes, phi))


def cmd_portrait(cfg: RunConfig, args) -> int:
    field = cfg.get("field", None, cast=str)
    if field is None:
        raise ConfigError(f"choose a portrait field: one of {', '.join(_PORTRAIT_FIELDS)}")
    if field not in _PORTRAIT_FIELDS:
        raise ConfigError(
            f"unknown portrait field {field!r}; expected one of {', '.join(_PORTRAIT_FIELDS)}"
        )
    preset = _preset_from(cfg)
    model = _model_from(cfg, preset)
    modes = _modes_from(cfg, preset)
    q1_axis, q2_axis = _grid_axes(cfg, model)

    g1, g2 = np.meshgrid(q1_axis, q2_axis, indexing="ij")
    pts = np.stack([g1, g2], axis=-1)
    if field == "chi":
        values = pdm.portrait_chi(model, modes, pts)
    elif field in ("mass1", "mass2"):
        values = pdm.regularised_mass(model, modes, pts, int(field[-1]))
    elif field in ("q2chi1", "q2chi2"):
        values = pdm.portrait_q2chi(model, modes, int(field[-1]), pts)
    elif field == "veff":
        values = pdm.effective_potential(model, modes, pts)
    else:
        values = _nonsep_grid_values(model, modes, cfg.get("phi", 0.0), pts)
    if not np.all(np.isfinite(values)):
        raise NonFiniteState(f"the {field} portrait is not finite on the grid")

    path = _write(args.out, f"portrait_{field}.csv", _csv("q1,q2,value", [g1.ravel(), g2.ravel(), values.ravel()]))
    print(path)
    return 0


# ----------------------------------------------------------------------
# simulate


def _recurrence_residual(model, init, t0: float, closure_time: float, tols) -> float:
    """Largest change of (q, p) of the run's classical motion over one
    closure time from t0, integrated at the run's tolerances ``tols``."""
    tr = pdm.classical_integrate(model, init, (t0, t0 + closure_time), **tols)
    start = np.array([tr.q[0, 0], tr.q[0, 1], tr.p[0, 0], tr.p[0, 1]])
    end = np.array([tr.q[-1, 0], tr.q[-1, 1], tr.p[-1, 0], tr.p[-1, 1]])
    return float(np.max(np.abs(end - start)))


def cmd_simulate(cfg: RunConfig, args) -> int:
    preset = _preset_from(cfg)
    kind = cfg.get("kind", _preset_value(preset, "kind"), cast=str)
    init = pdm.InitialState(
        q1=cfg.get("q0_1", _preset_value(preset, "init.q1", 0.0)),
        q2=cfg.get("q0_2", _preset_value(preset, "init.q2", 0.0)),
        v1=cfg.get("v0_1", _preset_value(preset, "init.v1")),
        v2=cfg.get("v0_2", _preset_value(preset, "init.v2")),
    )
    t0, t1 = _preset_value(preset, "t_span", (0.0, _REQUIRED))
    t_span = (cfg.get("t0", t0), cfg.get("t1", t1))
    # a preset's run is named after it, whatever the config says; a name
    # that is no plain file stem is refused either way
    given = cfg.get("name", "run", cast=str)
    if given in ("", ".", "..") or any(c in given for c in ("/", os.sep, "\0")):
        raise ConfigError(f"config field 'name' must be a plain file stem, got {given!r}")
    preset_name = _preset_value(preset, "name", None)
    name = preset_name or given
    if kind not in ("classical", "semiclassical"):
        raise ConfigError("config field 'kind' must be 'classical' or 'semiclassical'")
    if not t_span[1] > t_span[0]:
        raise ConfigError("config field 't1' must exceed 't0'")

    model = _model_from(cfg, preset)
    kwargs = {}
    if cfg.has("samples"):
        kwargs["samples"] = cfg.get("samples", cast=int)
        if kwargs["samples"] < 2:
            raise ConfigError("config field 'samples' must be >= 2")
    tols = {}
    for key in ("rel_tol", "abs_tol"):
        tol = _tolerance(cfg, key)
        if tol is not None:
            tols[key] = tol
    kwargs.update(tols)

    if kind == "classical":
        tr = pdm.classical_integrate(model, init, t_span, **kwargs)
    else:
        modes = _modes_from(cfg, preset)
        semi = pdm.SemiclassicalModel(model, modes)
        tr = pdm.semiclassical_integrate(semi, init, t_span, **kwargs)

    summary = {
        "classification": tr.classification,
        "energy_drift": tr.energy_drift(),
        "escape_time": tr.escape_time,
        "initial_energy": float(tr.energy[0]),
        "kind": kind,
        "preset": preset_name,
        "samples": int(tr.t.shape[0]),
        "t0": float(tr.t[0]),
        "t1": float(tr.t[-1]),
    }
    closure_time = _preset_value(preset, "closure_time", None)
    if kind == "classical" and closure_time is not None:
        summary["recurrence_residual"] = _recurrence_residual(
            model, init, t_span[0], closure_time, tols
        )

    columns = (tr.t, tr.q[:, 0], tr.q[:, 1], tr.p[:, 0], tr.p[:, 1], tr.energy)
    csv_path = _write(args.out, f"{name}.csv", _csv("t,q1,q2,p1,p2,E", columns))
    json_path = _write_json(args.out, f"{name}_summary.json", summary)
    print(csv_path)
    print(json_path)
    print(f"classification: {tr.classification}")
    # a stalled integrator still writes its partial samples, but the run
    # counts as a numerical failure
    if tr.classification == "singular-stop":
        print(f"numerical failure: {tr.message}", file=sys.stderr)
        return 3
    return 0


# ----------------------------------------------------------------------
# verify
#
# CHECKS is the one table of closed-form-vs-oracle checks.  Each entry is a
# function of no arguments that returns its outcomes, as (id, deviation,
# detail) triples, and its errata records; cmd_verify compares
# every deviation against the run's tolerance.  An entry may read several
# outcomes off one computation: ``_table1`` takes the two-mode identity
# resolution, the Table 1 rows and the closed-form check from the three
# Table 1 operators of the two-mode engine.  The oracles below are the only
# copies in the repository: the acceptance tests import them and run them on
# their own, wider draws.  The table may live in any module that ``import
# sqzq`` loads: the benchmark's trace wraps the engines it calls
# (``table1_operators``, ``quantise``) at their bindings in every loaded
# ``sqzq`` module.  A module first imported after the trace is installed
# would bind the unwrapped engines, so only importing the checks lazily
# needs the benchmark to change.


def _quad_moment_1d(q, w, s, power):
    """int_{-w}^{w} x^power N(x; q, s^2) dx by a fixed Gauss-Legendre rule."""
    # 40 nodes on each of 8 panels of the +-12 s window clipped to the box
    # reach rounding; beyond that window the Gaussian is below e^-72
    lo, hi = max(-w, q - 12 * s), min(w, q + 12 * s)
    if not hi > lo:
        return 0.0
    x, wts = legendre_box_rule(lo, hi, 40, 8)
    val = wts @ (x**power * np.exp(-((x - q) ** 2) / (2 * s * s)))
    return float(val) / (s * np.sqrt(2 * np.pi))


def _overlap_oracle_1d(pa: OneModePhasePoint, pb: OneModePhasePoint, par) -> float:
    """|<pa|pb>|^2 by trapezoid integration of the position wavefunctions."""
    # the trapezoid converges geometrically on this analytic, Gaussian-decaying
    # integrand (Trefethen & Weideman 2014): 2 001 points reach rounding
    half = 8.0 + 14.0 * par.lam / np.sqrt(1.0 - abs(par.tau))
    x = np.linspace(-half, half, 2001)
    fa = wavefunction(pa, par, x)
    fb = wavefunction(pb, par, x)
    return float(abs(np.trapezoid(np.conj(fa) * fb, x)) ** 2)


def _mode_symbol_oracle(par, q, p, hq, porder_weight):
    """Lower-symbol factor for one mode by direct 2D phase-space quadrature.

    Integrates weight(q', p') * hq(q') * p'^k over the coherent-overlap
    Gaussian; used as the independent check of the momentum portraits.
    """
    # numpy's Legendre weights are 4e-15 off mid-panel but 1e-12 at the ends:
    # three panels of 64 nodes per axis put the Gaussian's peak mid-panel
    w = par.widths()
    lam, hbar = par.lam, par.hbar
    sq = lam / np.sqrt(w.delta_q_sq)
    sp = hbar / (lam * np.sqrt(w.delta_p_sq))
    tilt = 2.0 * abs(w.gamma) * sq / (lam**2 * w.delta_p_sq / hbar)
    qx, qw = legendre_box_rule(q - 10 * sq - 2.0, q + 10 * sq + 2.0, 64, 3)
    px, pw = legendre_box_rule(p - 12 * sp - 10 * tilt, p + 12 * sp + 10 * tilt, 64, 3)
    qn, pn = np.meshgrid(qx, px, indexing="ij")
    wts = qw[:, None] * pw[None, :]
    dq, dp = qn - q, pn - p
    weight = np.exp(
        -w.delta_q_sq * dq**2 / (2 * lam**2)
        - lam**2 * w.delta_p_sq * dp**2 / (2 * hbar**2)
        - 2.0 * w.gamma * dq * dp / hbar
    )
    vals = weight * hq(qn) * pn**porder_weight
    return float(np.sum(wts * vals) / (2.0 * np.pi * hbar))


def _norm_oracle(params: NonSepParams, pt: PhasePoint) -> float:
    """int |psi|^2 over the plane by a Legendre product rule on +-9 kernel
    standard deviations around the state's centre, sized as below."""
    sd = np.sqrt(np.diag(np.linalg.inv(_portrait_precision(params))))
    n1, w1 = legendre_box_rule(pt.q1 - 9 * sd[0], pt.q1 + 9 * sd[0], 64, 3)
    n2, w2 = legendre_box_rule(pt.q2 - 9 * sd[1], pt.q2 + 9 * sd[1], 64, 3)
    x1, x2 = np.meshgrid(n1, n2, indexing="ij")
    wts = w1[:, None] * w2[None, :]
    psi = nonsep_wavefunction(params, pt, np.stack([x1, x2], axis=-1))
    return float(np.sum(wts * abs(psi) ** 2))


def _identity():
    devs = []
    for tau in (0.0, 0.5, 0.7j):
        par = SqueezeParameter.from_tau(tau)
        op = quantise(lambda q, p: np.ones_like(q), par, nmax=7)
        devs.append(op.quadrature_report.identity_deviation)
    return [("identity-onemode", max(devs), {"taus": ["0", "0.5", "0.7j"]})], []


def _holoh():
    par = SqueezeParameter.from_tau(0.5)
    worst = 0.0
    for n in range(7):
        for m in range(7):
            lhs, rhs = holomorphic_orthogonality_check(par, n, m)
            if n == m:
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
            else:
                scale = abs(holomorphic_orthogonality_check(par, n, n)[1])
                worst = max(worst, abs(lhs) / scale)
    return [("holoh", worst, {"n_range": 7})], []


def _overlap_onemode():
    rng = np.random.default_rng(20260819)
    devs, ratios = [], []
    for _ in range(25):
        r, th = rng.uniform(0.0, 0.75), rng.uniform(0.0, 2 * np.pi)
        par = SqueezeParameter.from_tau(r * np.exp(1j * th), lam=rng.uniform(0.6, 1.4))
        pa = OneModePhasePoint(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        pb = OneModePhasePoint(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        closed = overlap_sq(pa, pb, par)
        oracle = _overlap_oracle_1d(pa, pb, par)
        devs.append(abs(closed - oracle) / oracle)
        ratios.append(closed / oracle)
    detail = {"draws": 25, "fitted_factor": float(np.mean(ratios))}
    return [("overlap-onemode", max(devs), detail)], []


def _sep_portraits():
    rng = np.random.default_rng(31)
    dev_p, dev_p2 = [], []
    for k in range(6):
        tau1 = rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        tau2 = rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        params = TwoModeParams.from_tau(
            tau1, tau2, lam1=rng.uniform(0.7, 1.3), lam2=rng.uniform(0.7, 1.3)
        )
        pt = PhasePoint(*rng.uniform(-1.0, 1.0, size=4))
        c1, c2 = rng.uniform(-0.8, 0.8, size=2)
        h1 = lambda x, c=c1, s=0.9: np.exp(-((x - c) ** 2) / s)
        h2 = lambda x, c=c2, s=1.3: np.exp(-((x - c) ** 2) / s)
        h = lambda q1, q2: h1(q1) * h2(q2)
        j = 1 + (k % 2)
        own, other = (1, 2) if j == 1 else (2, 1)
        hs = {1: h1, 2: h2}
        rest = _mode_symbol_oracle(params.mode(other), pt.q(other), pt.p(other), hs[other], 0)
        closed = portrait_p_h(j, h, pt, params)
        oracle = _mode_symbol_oracle(params.mode(own), pt.q(own), pt.p(own), hs[own], 1) * rest
        dev_p.append(abs(closed - oracle) / max(abs(oracle), 1e-12))
        closed2 = portrait_p2_h(j, h, pt, params)
        oracle2 = _mode_symbol_oracle(params.mode(own), pt.q(own), pt.p(own), hs[own], 2) * rest
        dev_p2.append(abs(closed2 - oracle2) / max(abs(oracle2), 1e-12))
    return [
        ("portrait-ph", max(dev_p), {"draws": 6}),
        ("portrait-p2h", max(dev_p2), {"draws": 6}),
    ], []


def _nonsep_norm():
    rng = np.random.default_rng(47)
    devs = []
    for _ in range(4):
        params = NonSepParams.from_tau(
            rng.uniform(0, 0.55) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(0, 0.55) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(0.2, 5.9),
            rng.uniform(0.7, 1.2),
            rng.uniform(0.7, 1.2),
        )
        pt = PhasePoint(*rng.uniform(-0.8, 0.8, size=4))
        devs.append(abs(_norm_oracle(params, pt) - 1.0))
    return [("nonsep-norm", max(devs), {"draws": 4})], []


def _nonsep_overlap():
    rng = np.random.default_rng(53)
    devs, printed_devs, ratios = [], [], []
    for _ in range(10):
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
        devs.append(abs(closed - oracle) / oracle)
        ratios.append(closed / oracle)
        # flipping the exponent sign inverts the Gaussian closed form
        flipped = 1.0 / closed if closed > 0 else np.inf
        printed_devs.append(abs(flipped - oracle) / oracle)
    detail = {"draws": 10, "fitted_factor": float(np.mean(ratios)), "fitted_exponent_sign": -1}
    erratum = {
        "id": "nonsep-overlap-exponent-sign",
        "description": (
            "the displacement-difference overlap exponent carries a global "
            "minus sign; the sign-flipped variant inverts the overlap and "
            "is wrong by the deviation shown"
        ),
        "adopted_deviation": float(max(devs)),
        "sign_flipped_deviation": float(max(printed_devs)),
    }
    return [("nonsep-overlap", max(devs), detail)], [erratum]


def _coupled_portrait():
    params = NonSepParams.from_tau(0.35, -0.2, 0.9, 1.1, 0.8)
    pt = PhasePoint(0.3, 0.4, 0.2, -0.1)
    cross = np.linalg.inv(_portrait_precision(params))[0, 1]
    one = nonsep_portrait_hq(lambda q1, q2: np.ones_like(q1), pt, params)
    aff = nonsep_portrait_hq(lambda q1, q2: 2.0 * q1 - 0.7 * q2 + 1.5, pt, params)
    prod = nonsep_portrait_hq(lambda q1, q2: q1 * q2, pt, params)
    adopted = abs(prod - (pt.q1 * pt.q2 + cross))
    flipped = abs(prod - (pt.q1 * pt.q2 - cross))
    dev = max(abs(one - 1.0), abs(aff - (2.0 * pt.q1 - 0.7 * pt.q2 + 1.5)), adopted)
    erratum = {
        "id": "portrait-kernel-cross-sign",
        "description": (
            "the coupled smoothing kernel's cross coefficient enters with "
            "the adjugate sign; flipping it misplaces the product-field "
            "portrait by twice the cross covariance"
        ),
        "adopted_deviation": float(adopted),
        "sign_flipped_deviation": float(flipped),
    }
    return [("coupled-portrait", dev, {"cross_covariance": float(cross)})], [erratum]


def _delta_factored():
    recs = []
    for tau1, tau2, phi in ((0.0, 0.0, 0.7), (0.3, -0.45, 1.3)):
        params = NonSepParams.from_tau(tau1, tau2, phi)
        co = nonsep_coefficients(params, PhasePoint(0, 0, 0, 0))
        corrected = (
            4.0
            * (1 - abs(tau1) ** 2)
            * (1 - abs(tau2) ** 2)
            / (abs(1 - tau1) ** 2 * abs(1 - tau2) ** 2)
        )
        recs.append(
            {
                "tau1": tau1,
                "tau2": tau2,
                "phi": phi,
                "quadratic": float(co.Delta),
                "corrected_factored": float(corrected),
                "unscaled_factored": float(corrected / 4.0),
            }
        )
    dev = max(abs(r["quadratic"] - r["corrected_factored"]) for r in recs)
    erratum = {
        "id": "delta-factored-scale",
        "description": (
            "the factored form of the overlap normal-form determinant "
            "needs an overall factor 4 to match the defining quadratic "
            "expression (it evaluates to 1 instead of 4 at zero squeezing)"
        ),
        "cases": recs,
    }
    return [("delta-factored", dev, {"cases": recs})], [erratum]


def _table1():
    params = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)
    rows = table1_coefficient_rows(params)
    # one run of the two-mode engine per Table 1 field, each with the identity
    # resolution on its own rules, at the two-mode default basis
    nmax = _TWO_MODE_NMAX
    ops = table1_operators(params, nmax)
    report = max((op.report for op in ops.values()), key=lambda r: r.identity_deviation)
    x1, x2, sel = _two_mode_positions(params, nmax)
    # the exact operators on the whole basis, which no quadrature enters
    closed = _table1_closed_forms(params, nmax)
    closed_dev = max(float(np.max(np.abs(op.entries - closed[f]))) for f, op in ops.items())

    # each field's operator on the interior block is fitted on a pair of basis
    # operators, and the fit is held against the adopted and the rival rows
    linear = (
        "quantised linear position fields reduce to the bare position operators; the "
        "mode-mixing row printed for them does not fit the operator"
    )
    fits = [(f"table1-{f}-row", linear, f, (x1, x2), rows[f]["adopted"], rows[f]["rival"])
            for f in ("q1", "q2")]
    fits.append((
        "table1-q1q2-constant",
        "the product field quantises to x1 x2 plus half the inverse kernel's off-diagonal "
        "entry times the identity; the printed constant does not fit",
        "q1q2", (x1 @ x2, np.eye(len(x1))), (1.0, rows["q1q2"]["adopted"]), (1.0, rows["q1q2"]["rival"]),
    ))
    errata = []
    worst = 0.0
    for eid, description, name, pair, adopted, rival in fits:
        basis = np.stack([b[sel].ravel() for b in pair], axis=1)
        fit, *_ = np.linalg.lstsq(basis, ops[name].entries[sel].real.ravel(), rcond=None)
        dev_adopted = float(np.max(np.abs(fit - np.array(adopted))))
        worst = max(worst, dev_adopted)
        errata.append(
            {
                "id": eid,
                "description": description,
                "oracle_fit": [float(v) for v in fit],
                "adopted": [float(v) for v in adopted],
                "rival": [float(v) for v in rival],
                "adopted_deviation": dev_adopted,
                "rival_deviation": float(np.max(np.abs(fit - np.array(rival)))),
            }
        )
    detail = {"nmax": nmax, "nodes": report.nodes}
    return [
        ("identity-twomode", report.identity_deviation, detail),
        ("table1-rows", worst, detail),
        ("table1-closed-form", closed_dev, detail),
    ], errata


def _bs_rotation():
    # the identity the two-mode engine rests on: the state at x is, up to a
    # phase, U applied to the product of the phi = 0 one-mode states at the
    # rotated point x', so the two projectors c c^H agree.  Both families
    # are drawn around their vacuum's spread, 200 seeded points each
    nmax, points = 4, 200
    worst = 0.0
    for params in (NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15),
                   NonSepParams.from_tau(0.3 - 0.4j, -0.5 + 0.2j, 2.7, 0.7, 1.3, 0.8)):
        rng = np.random.default_rng(91)
        l1, l2, hbar = params.lam1, params.lam2, params.hbar
        xr = rng.normal(size=(points, 4)) * [l1, l2, hbar / l1, hbar / l2]
        to_q, to_p, sectors = _rotated_frame(params, nmax)
        x = np.hstack([xr[:, :2] @ to_q.T, xr[:, 2:] @ to_p.T])
        c = _fock_batch(params, x, nmax).reshape(points, -1)
        c1, c2 = (_mode_coefficients(params.modes.mode(j), xr[:, [j - 1, j + 1]], 2 * nmax)
                  for j in (1, 2))
        u = _rotate(sectors, (c1[:, :, None] * c2[:, None, :]).reshape(points, -1).T).T
        dev = np.max(np.abs(c[:, :, None] * c.conj()[:, None, :] - u[:, :, None] * u.conj()[:, None, :]))
        worst = max(worst, float(dev))
    return [("bs-rotation", worst, {"nmax": nmax, "points": 2 * points})], []


def _bogoliubov():
    t = float(np.tanh(0.7))
    params = NonSepParams.from_tau(
        t * np.exp(0.4j), t * np.exp(-1.1j), 0.9, 0.8, 1.15
    )
    res = bogoliubov_check(params, nmax=4, dim=32)
    # the columns are float64; long double enters only through the beam
    # splitter's sector phases (``_rotated_frame``), whose precision the
    # detail records
    eps = float(np.finfo(np.longdouble).eps)
    return [("bogoliubov", res, {"nmax": 4, "dim": 32, "longdouble_eps": eps})], []


def _wall_portraits():
    model, modes = pdm.PRESETS["fig6a"].model, pdm.PRESETS["fig6a"].modes
    smooth = [_mode_sigma(modes, j) for j in (1, 2)]
    rng = np.random.default_rng(61)
    dev_chi, dev_q2, dev_mass = [], [], []
    for k in range(8):
        q = rng.uniform(-1.3, 1.3, size=2)
        wins = {j: _quad_moment_1d(q[j - 1], model.wall(j), smooth[j - 1], 0) for j in (1, 2)}
        dev_chi.append(abs(pdm.portrait_chi(model, modes, q) - wins[1] * wins[2]))
        j = 1 + (k % 2)
        sq = _quad_moment_1d(q[j - 1], model.wall(j), smooth[j - 1], 2)
        dev_q2.append(
            abs(pdm.portrait_q2chi(model, modes, j, q) - sq * wins[3 - j])
            / max(sq * wins[3 - j], 1e-12)
        )
        lam_j = model.inverse_length(j)
        mass_oracle = (wins[j] - lam_j**2 * sq) / model.m0 * wins[3 - j]
        dev_mass.append(
            abs(pdm.regularised_mass(model, modes, q, j) - mass_oracle)
            / max(abs(mass_oracle), 1e-12)
        )
    return [
        ("chi-portrait", max(dev_chi), {"draws": 8}),
        ("q2chi-portrait", max(dev_q2), {"draws": 8}),
        ("mass-portrait", max(dev_mass), {"draws": 8}),
    ], []


def _veff_gradient():
    model, modes = pdm.PRESETS["fig6a"].model, pdm.PRESETS["fig6a"].modes
    rng = np.random.default_rng(71)
    pts = rng.uniform(-1.5, 1.5, size=(40, 2))
    grad = pdm.effective_potential_gradient(model, modes, pts)
    # the 8th-order central stencil on offsets 1..4 h; h = 2e-3 balances its
    # h^8 truncation against the eps / h rounding of the differences (1e-2
    # leaves 7e-9 of truncation on this V_eff's walls)
    h = 2e-3
    weights = np.array([4 / 5, -1 / 5, 4 / 105, -1 / 280])
    offsets = h * np.arange(1.0, 5.0)[:, None, None]
    fd = np.empty_like(grad)
    for d in range(2):
        step = offsets * np.eye(2)[d]
        plus = pdm.effective_potential(model, modes, pts + step)
        minus = pdm.effective_potential(model, modes, pts - step)
        fd[:, d] = weights @ (plus - minus) / h
    scale = np.maximum(np.max(np.abs(grad), axis=1, keepdims=True), 1.0)
    worst = float(np.max(np.abs(grad - fd) / scale))
    return [("veff-gradient", worst, {"points": 40})], []


CHECKS = (
    _identity,
    _holoh,
    _overlap_onemode,
    _sep_portraits,
    _nonsep_norm,
    _nonsep_overlap,
    _coupled_portrait,
    _delta_factored,
    _table1,
    _bs_rotation,
    _bogoliubov,
    _wall_portraits,
    _veff_gradient,
)


def cmd_verify(cfg: RunConfig, args) -> int:
    tol = _tolerance(cfg, "tol", 1e-6)
    checks: list = []
    errata: list = []
    for entry in CHECKS:
        start = time.perf_counter()
        outcomes, records = entry()
        seconds = time.perf_counter() - start
        for cid, deviation, detail in outcomes:
            rec = {
                "id": cid,
                "deviation": float(deviation),
                "tolerance": tol,
                "within_tolerance": bool(deviation <= tol),
            }
            if detail:
                rec["detail"] = detail
            checks.append(rec)
        errata.extend(records)
        # timings go to stderr only, so the report stays byte-reproducible
        print(f"check {' '.join(c[0] for c in outcomes)}: {seconds:.3f}s", file=sys.stderr)
    report = {
        "checks": checks,
        "errata": errata,
        "tolerance": tol,
        "all_within_tolerance": all(c["within_tolerance"] for c in checks),
        "version": 1,
    }
    path = _write_json(args.out, "verify_report.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(path, file=sys.stderr)
    # a check outside the tolerance is a numerical failure; the report is kept
    return 0 if report["all_within_tolerance"] else 3


# ----------------------------------------------------------------------
# quantise


def cmd_quantise(cfg: RunConfig, args) -> int:
    fn = cfg.get("function", None, cast=str)
    if fn is None:
        raise ConfigError("choose a function to quantise (positional argument or 'function')")
    family_kind = cfg.get("family", "one-mode", cast=str)
    # the two-mode catalogue holds polynomial position fields: two orders,
    # each a pair of per-mode tables on (2 fock_dim + 1)^2 box states and a
    # product of about 2 fock_dim (2 fock_dim + 1)^4 terms.  fock_dim is capped
    # by the node budget on the 4D points, (2 fock_dim)^2 (2 fock_dim + 1)^2 an
    # order (13 for the degree-2 q1q2).  The default stays small; an explicit
    # fock_dim always wins
    nmax = cfg.get("fock_dim", 8 if family_kind == "one-mode" else _TWO_MODE_NMAX, cast=int)
    if nmax < 1:
        raise ConfigError("quantise needs fock_dim >= 1")
    if family_kind not in ("one-mode", "two-mode"):
        raise ConfigError("config field 'family' must be 'one-mode' or 'two-mode'")
    catalogue = _ONEMODE_CATALOGUE if family_kind == "one-mode" else _TWOMODE_CATALOGUE
    if fn not in catalogue:
        raise ConfigError(
            f"unknown {family_kind} function {fn!r}; expected one of {', '.join(catalogue)}"
        )
    if family_kind == "one-mode":
        family = _family_from(
            SqueezeParameter.from_tau,
            tau=cfg.get_complex("tau", 0.0), lam=cfg.get("lam", 1.0), hbar=cfg.get("hbar", 1.0),
        )
    else:
        family = NonSepParams(_modes_from(cfg, None), cfg.get("phi", 0.0))

    op = quantise(catalogue[fn], family, nmax=nmax)
    mat = op.matrix.entries
    # integer indices print as integers under %.17g
    row, col = np.indices(mat.shape)
    columns = (row.ravel(), col.ravel(), mat.real.ravel(), mat.imag.ravel())
    csv_path = _write(args.out, f"quantise_{fn}.csv", _csv("row,col,re,im", columns))
    report = {
        "basis": op.basis,
        "dimension": int(mat.shape[0]),
        "family": op.family_tag,
        "function": fn,
        "hermiticity_defect": op.quadrature_report.hermiticity_defect,
        "identity_deviation": op.quadrature_report.identity_deviation,
        "convergence_witness": op.quadrature_report.convergence_witness,
        "nodes": op.quadrature_report.nodes,
    }
    json_path = _write_json(args.out, f"quantise_{fn}_report.json", report)
    print(csv_path)
    print(json_path)
    return 0


# ----------------------------------------------------------------------
# entry point


# the config keys of README's "Config keys" groups that several subcommands read
_MODEL_KEYS = ("m0", "lambda1", "lambda2", "vbar1", "vbar2")
_MODES_KEYS = ("tau1", "tau1_im", "tau2", "tau2_im", "lam1", "lam2", "hbar")
_GRID_KEYS = tuple(f"q{j}_{end}" for j in (1, 2) for end in ("min", "max", "points"))

# the flags a subcommand may take beyond --config and --out
_FLAGS = {
    "preset": (["--preset"], {"help": "named parameter set, e.g. fig3a..fig6c"}),
    "tol": (["--tol"], {"type": float, "metavar": "TOL", "help": "tolerance / relative step control"}),
}


# built at the first ``main`` of a process and kept: building it takes about
# 20 times as long as parsing one command line, and parsing leaves it as it was
@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzq",
        description="squeezed-state quantisation toolkit: portraits, dynamics, checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, flags, reads, by=None, **keys):
        """A subcommand that takes only the flags it reads, so argparse
        refuses the others instead of ignoring them, and only the config
        keys ``reads`` names, so ``main`` refuses the others.  ``by`` =
        (what, select, {value: keys}) splits the keys further: each value
        of ``select(cfg)``, a portrait field, quantise family or simulate
        kind, reads its own keys besides ``reads``.  A flag's value lands
        under the config key it overrides: its own name, or the one ``keys``
        gives it."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file (flags override its values)")
        p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            names, kwargs = _FLAGS[flag]
            p.add_argument(*names, dest=keys.get(flag, flag), **kwargs)
        p.set_defaults(func=func, reads=frozenset(reads), by=by)
        return p

    fields = {field: ("phi",) if field == "nonsep_hq" else () for field in _PORTRAIT_FIELDS}
    p = command("portrait", "write a smoothed-observable grid CSV", cmd_portrait, ["preset"],
                ("field", "preset", *_MODEL_KEYS, *_MODES_KEYS, *_GRID_KEYS),
                by=("field", lambda cfg: cfg.get("field", None, cast=str), fields))
    p.add_argument("field", nargs="?", choices=_PORTRAIT_FIELDS, default=None)
    command("simulate", "integrate a trajectory and write CSV + summary", cmd_simulate,
            ["preset", "tol"],
            ("preset", "kind", "q0_1", "q0_2", "v0_1", "v0_2", "t0", "t1", "samples",
             "rel_tol", "abs_tol", "name", *_MODEL_KEYS),
            by=("kind", lambda cfg: cfg.get("kind", _preset_value(_preset_from(cfg), "kind", None), cast=str),
                {"classical": (), "semiclassical": _MODES_KEYS}),
            tol="rel_tol")
    command("verify", "run closed-form vs oracle checks, write JSON report", cmd_verify, ["tol"],
            ("tol",))
    p = command("quantise", "write a quantised operator matrix as CSV", cmd_quantise, [],
                ("function", "family", "fock_dim"),
                by=("family", lambda cfg: cfg.get("family", "one-mode", cast=str),
                    {"one-mode": ("tau", "tau_im", "lam", "hbar"), "two-mode": ("phi", *_MODES_KEYS)}))
    p.add_argument("--fock-dim", dest="fock_dim", type=int,
                   help="nmax per mode: the matrix has dimension FOCK_DIM + 1 per mode "
                   "(default 8 for one mode, 4 for two)")
    p.add_argument("function", nargs="?", default=None)
    return parser


def _refuse_unread(cfg: RunConfig, args) -> None:
    """Refuse a config key that the run will not read: one that the command
    never reads, or one that only another portrait field, quantise family or
    simulate kind reads.  A value that is none of those is left to the
    command, which refuses it."""
    what, select, split = args.by or (None, None, {})
    name, reads = args.command, args.reads.union(*split.values())
    if set(cfg.values) <= reads and select is not None:
        value = select(cfg)
        if value in split:
            name, reads = f"{args.command} {what} {value!r}", args.reads.union(split[value])
    unread = sorted(set(cfg.values) - reads)
    if unread:
        raise ConfigError(
            f"{name} does not read the config key(s) {', '.join(map(repr, unread))}; "
            f"it reads {', '.join(sorted(reads))}"
        )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # every other parsed value is a flag or positional under its config key
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "out", "func", "reads", "by")}
    start = time.perf_counter()
    try:
        cfg = RunConfig.load(args.config, overrides)
        _refuse_unread(cfg, args)
        code = args.func(cfg, args)
    except (ConfigError, OutsideBox) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SqzqError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code

