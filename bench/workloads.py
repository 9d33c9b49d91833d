"""The benchmark's workloads: the requests of one pass and their correctness gates.

Every request goes through a public entry point of the program:
``sqzq.cli.main(argv)`` with a generated JSON config, or
``sqzq.quantmap.quantise`` where the CLI catalogue cannot express the field.
The seed draws the launch velocities and the oracle sample points; the
program sees only the generated configs.

Why each workload is here:

verify
    ``sqzq verify`` at its defaults, the paper-reproduction command.  Most of
    its time is the two-mode 4D phase-space quadrature of polynomial fields
    (``table1_operators``, ``verify_identity_resolution``).
quantise
    The same quadrature engine used differently: the polynomial field
    q1 q2 through the CLI and the non-polynomial field exp(-(q1^2+q2^2)/2)
    through ``quantise``, so a rule exact only for polynomials shows here,
    plus the one-mode family, which no other workload exercises.
portrait
    Gaussian smoothing without Fock states or 4D quadrature.  The coupled
    ``nonsep_hq`` grid overrides tau2 to 0.3: with the fig6a preset
    tau1 = tau2, which at phi = 0.5 leaves Re ell = 0 and a separable kernel
    (cross covariance 0), so a separable shortcut could pass for a coupled
    speed-up.  Its grid is 21 x 21 so that a run holds several passes; the
    cost per grid point is the same as on a larger grid.  The phi = 0 and
    closed-form full grids bypass that path and are dominated by CSV
    formatting.
dynamics
    Semiclassical launches of the fig6 model (about a third escape) and the
    fig3/fig4/fig6 presets: ODE stepping, no quadrature, no smoothing grid.
    The launch velocities fill a jittered 7 x 7 grid over [0.5, 2]^2, so every
    seed has close to the same share of the cheaper escaping launches.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("verify", "quantise", "portrait", "dynamics")

# Gate tolerances, fixed before measuring.  The program holds its two-mode
# quadrature to 1e-3 (its own verify tolerance for those checks); everything
# else to the CLI's global 1e-6 or tighter where the comparison is exact.
TWO_MODE_TOL = 1e-3
GLOBAL_TOL = 1e-6
PORTRAIT_TOL = 1e-10

TABLE1 = dict(tau1=0.2, tau2=0.6, phi=math.pi / 4, lam1=0.8, lam2=1.15)
ONE_MODE = dict(tau=0.4, tau_im=0.3)
ONE_MODE_NMAX = 8
TWO_MODE_NMAX = 4
COUPLED = dict(phi=0.5, tau2=0.3, q1_points=21, q2_points=21)
PORTRAIT_SAMPLES = 400
LAUNCH_GRID = 7
ENERGY_ROWS = 6
# the escape criterion of the PDM model
ESCAPE_POTENTIAL_FRACTION = 0.01
ESCAPE_FAR_FACTOR = 2.0


@dataclass
class Witness:
    """One compared quantity: deviation from its oracle against a tolerance."""

    id: str
    deviation: float
    tolerance: float

    def __post_init__(self):
        self.deviation = float(self.deviation)

    @property
    def ok(self) -> bool:
        return math.isfinite(self.deviation) and self.deviation <= self.tolerance


def gate(wid: str, condition: bool) -> Witness:
    return Witness(wid, 0.0 if condition else 1.0, 0.0)


class CliRequest:
    """``sqzq.cli.main`` with a generated config; outputs are the files it writes."""

    def __init__(self, rid: str, argv: list, workdir: Path, check: Callable, config: dict | None = None):
        self.rid = rid
        self.out = workdir / "out" / rid
        self.argv = list(argv) + ["--out", str(self.out)]
        if config is not None:
            path = workdir / "configs" / f"{rid}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
            self.argv += ["--config", str(path)]
        self._check = check

    def call(self):
        # looked up at call time, so a traced run reaches the wrapped binding
        return sys.modules["sqzq.cli"].main(self.argv)

    def succeeded(self, raw) -> bool:
        return raw == 0

    def outputs(self, raw) -> dict:
        return {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}

    def check(self, raw) -> list:
        return self._check(self.out)


class QuantiseRequest:
    """``sqzq.quantmap.quantise`` on a two-mode field; the output is the matrix."""

    def __init__(self, rid: str, field_fn, family_args: dict, nmax: int, check: Callable):
        self.rid = rid
        self.field_fn = field_fn
        self.family_args = family_args
        self.nmax = nmax
        self._check = check

    def call(self):
        from sqzq.nonsepstates import NonSepParams

        quantmap = sys.modules["sqzq.quantmap"]
        family = NonSepParams.from_tau(**self.family_args)
        f = quantmap.ClassicalFunction(self.field_fn, arity="two-mode", growth="bounded")
        return quantmap.quantise(f, family, nmax=self.nmax)

    def succeeded(self, raw) -> bool:
        return True

    def outputs(self, raw) -> dict:
        return {"matrix": np.ascontiguousarray(raw.matrix.entries).tobytes()}

    def check(self, raw) -> list:
        return self._check(raw.matrix.entries)


@dataclass
class Workload:
    name: str
    requests: list
    min_passes: int = 1
    notes: list = field(default_factory=list)
    # the calibration kernel that matches the hot path (see calibration.py)
    kernel: str = "interpreter"


# ----------------------------------------------------------------------
# shared parsing


def _read_operator(path: Path) -> np.ndarray:
    d = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    dim = int(d[:, 0].max()) + 1
    mat = np.zeros((dim, dim), dtype=complex)
    mat[d[:, 0].astype(int), d[:, 1].astype(int)] = d[:, 2] + 1j * d[:, 3]
    return mat


def _max_dev(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b)))


def _table1_params():
    from sqzq.nonsepstates import NonSepParams

    return NonSepParams.from_tau(**TABLE1)


def _two_mode_sigma(params) -> np.ndarray:
    """Covariance (2M)^-1 of the smoothing that quantisation applies to position fields."""
    from sqzq.sepstates import PhasePoint

    return np.linalg.inv(2.0 * oracles.precision_matrix(params, PhasePoint(0.0, 0.0, 0.0, 0.0)))


# ----------------------------------------------------------------------
# verify


def build_verify(seed: int, workdir: Path) -> Workload:
    sigma12 = _two_mode_sigma(_table1_params())[0, 1]

    def check(out: Path) -> list:
        report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
        ws = [Witness(f"verify.{c['id']}", c["deviation"], c["tolerance"]) for c in report["checks"]]
        ws.append(gate("verify.all_within_tolerance", report["all_within_tolerance"] is True))
        errata = {e["id"]: e for e in report["errata"]}
        fit = errata["table1-q1q2-constant"]["oracle_fit"]
        ws.append(Witness("verify.table1-q1q2-constant.vs_sigma12", abs(fit[1] - sigma12), TWO_MODE_TOL))
        return ws

    return Workload("verify", [CliRequest("verify", ["verify"], workdir, check)], kernel="array")


# ----------------------------------------------------------------------
# quantise


def build_quantise(seed: int, workdir: Path) -> Workload:
    params = _table1_params()
    sigma = _two_mode_sigma(params)
    l1, l2 = params.lam1, params.lam2
    n = TWO_MODE_NMAX
    q1q2_ref = oracles.multiplication_matrix(lambda x1, x2: x1 * x2 + sigma[0, 1], l1, l2, n)
    gauss_ref = oracles.multiplication_matrix(oracles.gaussian_field_smoothing(sigma), l1, l2, n)

    def check_q1q2(out: Path) -> list:
        return [Witness("quantise.q1q2", _max_dev(_read_operator(out / "quantise_q1q2.csv"), q1q2_ref), TWO_MODE_TOL)]

    def check_gauss(mat) -> list:
        return [Witness("quantise.gaussian", _max_dev(mat, gauss_ref), TWO_MODE_TOL)]

    dim = ONE_MODE_NMAX + 1
    big = dim + 1  # squares are exact on the first dim states when built one state larger
    xb, pb = oracles.position(big), oracles.momentum(big)
    bases = {
        "q2": (xb @ xb)[:dim, :dim],
        "p2": (pb @ pb)[:dim, :dim],
        "qp": ((xb @ pb + pb @ xb) / 2.0)[:dim, :dim],
    }

    def one_mode_check(fn: str):
        def check(out: Path) -> list:
            op = _read_operator(out / f"quantise_{fn}.csv")
            if fn == "q":
                return [Witness("quantise.onemode.q", _max_dev(op, oracles.position(dim)), GLOBAL_TOL)]
            if fn == "p":
                return [Witness("quantise.onemode.p", _max_dev(op, oracles.momentum(dim)), GLOBAL_TOL)]
            if op.shape != bases[fn].shape:
                return [gate(f"quantise.onemode.{fn}.shape", False)]
            return [Witness(f"quantise.onemode.{fn}", oracles.structural_residual(op, bases[fn]), GLOBAL_TOL)]

        return check

    two_mode_cfg = dict(TABLE1, family="two-mode", fock_dim=n)
    one_mode_cfg = dict(ONE_MODE, family="one-mode", fock_dim=ONE_MODE_NMAX)
    requests = [
        CliRequest("q1q2", ["quantise", "q1q2"], workdir, check_q1q2, two_mode_cfg),
        QuantiseRequest(
            "gaussian", lambda q1, q2, p1, p2: np.exp(-(q1 * q1 + q2 * q2) / 2.0), TABLE1, n, check_gauss
        ),
    ]
    for fn in ("q", "p", "q2", "p2", "qp"):
        requests.append(
            CliRequest(f"onemode_{fn}", ["quantise", fn], workdir, one_mode_check(fn), one_mode_cfg)
        )
    return Workload("quantise", requests, kernel="array")


# ----------------------------------------------------------------------
# portrait


def _read_grid(path: Path, shape) -> np.ndarray | None:
    d = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return d if d.shape == (shape[0] * shape[1], 3) else None


def build_portrait(seed: int, workdir: Path) -> Workload:
    from sqzq import pdm
    from sqzq.nonsepstates import NonSepParams
    from sqzq.sepstates import PhasePoint, TwoModeParams

    preset = pdm.PRESETS["fig6a"]
    model, modes = preset.model, preset.modes
    coupled_modes = TwoModeParams.from_tau(
        modes.mode1.tau, COUPLED["tau2"], lam1=modes.mode1.lam, lam2=modes.mode2.lam, hbar=modes.hbar
    )
    origin = PhasePoint(0.0, 0.0, 0.0, 0.0)
    cov_coupled = np.linalg.inv(oracles.precision_matrix(NonSepParams(coupled_modes, COUPLED["phi"]), origin))
    cov_sep = np.linalg.inv(oracles.precision_matrix(NonSepParams(modes, 0.0), origin))
    cov_same_tau = np.linalg.inv(oracles.precision_matrix(NonSepParams(modes, COUPLED["phi"]), origin))
    corr = cov_coupled[0, 1] / math.sqrt(cov_coupled[0, 0] * cov_coupled[1, 1])
    if abs(corr) < 0.5:
        raise RuntimeError(f"the coupled portrait kernel is nearly separable (correlation {corr:.3f})")
    walls = oracles.WallPortraits(model, modes)
    rng = np.random.default_rng([seed, 1])

    def coupled_check(wid: str, fname: str, cov, shape):
        picks = rng.permutation(shape[0] * shape[1])[:PORTRAIT_SAMPLES]

        def check(out: Path) -> list:
            d = _read_grid(out / fname, shape)
            if d is None:
                return [gate(f"{wid}.shape", False)]
            dev = max(abs(oracles.box_probability(d[i, :2], cov, model.box) - d[i, 2]) for i in picks)
            return [Witness(wid, dev, PORTRAIT_TOL)]

        return check

    def separable_check(name: str):
        def check(out: Path) -> list:
            d = _read_grid(out / f"portrait_{name}.csv", (201, 201))
            if d is None:
                return [gate(f"portrait.{name}.shape", False)]
            ref = walls.field(name, d[:, :2])
            dev = float(np.max(np.abs(d[:, 2] - ref) / np.maximum(1.0, np.abs(ref))))
            return [Witness(f"portrait.{name}", dev, PORTRAIT_TOL)]

        return check

    fig6a = ["--preset", "fig6a"]
    requests = [
        CliRequest(
            "nonsep_hq_coupled",
            ["portrait", "nonsep_hq"] + fig6a,
            workdir,
            coupled_check(
                "portrait.nonsep_hq.coupled",
                "portrait_nonsep_hq.csv",
                cov_coupled,
                (COUPLED["q1_points"], COUPLED["q2_points"]),
            ),
            COUPLED,
        ),
        CliRequest(
            "nonsep_hq_phi0",
            ["portrait", "nonsep_hq"] + fig6a,
            workdir,
            coupled_check("portrait.nonsep_hq.phi0", "portrait_nonsep_hq.csv", cov_sep, (201, 201)),
            {"phi": 0.0},
        ),
    ]
    for name in ("chi", "veff", "mass1", "q2chi1"):
        requests.append(CliRequest(name, ["portrait", name] + fig6a, workdir, separable_check(name)))
    notes = [
        f"coupled kernel (fig6a, phi {COUPLED['phi']}, tau2 {COUPLED['tau2']}): cross covariance "
        f"{cov_coupled[0, 1]:.4g}, correlation {corr:.4g}; with tau2 = tau1 it would be "
        f"{cov_same_tau[0, 1]:.3g}"
    ]
    return Workload("portrait", requests, notes=notes)


# ----------------------------------------------------------------------
# dynamics


def _scaled_extent(model, q) -> np.ndarray:
    return np.maximum(np.abs(model.lambda1 * q[:, 0]), np.abs(model.lambda2 * q[:, 1]))


def _read_trajectory(out: Path, name: str):
    d = np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
    summary = json.loads((out / f"{name}_summary.json").read_text(encoding="utf-8"))
    return d, summary


def _relative(a, b) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


def build_dynamics(seed: int, workdir: Path) -> Workload:
    from sqzq import pdm

    rng = np.random.default_rng([seed, 2])
    fig6 = pdm.PRESETS["fig6a"]
    walls = oracles.WallPortraits(fig6.model, fig6.modes)

    def semiclassical_check(wid: str, name: str, expect: str | None):
        row_rng = np.random.default_rng(rng.integers(2**63))

        def check(out: Path) -> list:
            d, summary = _read_trajectory(out, name)
            q, p, e = d[:, 1:3], d[:, 3:5], d[:, 5]
            extent = _scaled_extent(fig6.model, q)
            inside = np.flatnonzero(extent <= 1.2)
            rows = np.concatenate(([0], row_rng.choice(inside, min(ENERGY_ROWS, inside.size), replace=False)))
            e_ref = walls.energy(q[rows], p[rows])
            # escaped: outside the box once the barrier is below a hundredth of
            # the energy, or beyond twice the larger half-width
            gone = (extent > 1.0) & (walls.field("veff", q) < ESCAPE_POTENTIAL_FRACTION * e_ref[0])
            far = np.max(np.abs(q), axis=1) > ESCAPE_FAR_FACTOR * max(walls.wall)
            cls = "escaped" if np.any(gone | far) else "bounded"
            ws = [gate(f"{wid}.classification", summary["classification"] == cls and expect in (None, cls))]
            ws.append(Witness(f"{wid}.energy_drift", _relative(e_ref, e_ref[0]), GLOBAL_TOL))
            ws.append(Witness(f"{wid}.energy_column", _relative(e[rows], e_ref), GLOBAL_TOL))
            return ws

        return check

    def free_motion_check(name: str):
        preset = pdm.PRESETS[name]

        def check(out: Path) -> list:
            d, summary = _read_trajectory(out, name)
            exact = oracles.free_box_positions(preset.model, (preset.init.v1, preset.init.v2), d[:, 0])
            return [
                Witness(f"{name}.recurrence_residual", summary["recurrence_residual"], GLOBAL_TOL),
                Witness(f"{name}.exact_positions", _max_dev(d[:, 1:3], exact), GLOBAL_TOL),
            ]

        return check

    def oscillator_check(name: str):
        model = pdm.PRESETS[name].model

        def check(out: Path) -> list:
            d, _ = _read_trajectory(out, name)
            q, p, e = d[:, 1:3], d[:, 3:5], d[:, 5]
            keep = np.all(np.isfinite(p), axis=1) & (_scaled_extent(model, q) < 0.999)
            e_ref = oracles.classical_energy(model, q[keep], p[keep])
            return [
                Witness(f"{name}.energy_drift", _relative(e_ref, e_ref[0]), GLOBAL_TOL),
                Witness(f"{name}.energy_column", _relative(e[keep], e_ref), GLOBAL_TOL),
            ]

        return check

    requests = []
    n = LAUNCH_GRID
    jitter = rng.uniform(size=(n, n, 2))
    for i in range(n):
        for k in range(n):
            v1 = 0.5 + 1.5 * (i + jitter[i, k, 0]) / n
            v2 = 0.5 + 1.5 * (k + jitter[i, k, 1]) / n
            rid = f"launch_{i}{k}"
            requests.append(
                CliRequest(
                    rid,
                    ["simulate", "--preset", "fig6a"],
                    workdir,
                    semiclassical_check(rid, "fig6a", None),
                    {"v0_1": float(v1), "v0_2": float(v2)},
                )
            )
    for name, expect in (("fig6a", "bounded"), ("fig6b", "bounded"), ("fig6c", "escaped")):
        requests.append(
            CliRequest(name, ["simulate", "--preset", name], workdir, semiclassical_check(name, name, expect))
        )
    for name in ("fig3a", "fig3b", "fig3c"):
        requests.append(CliRequest(name, ["simulate", "--preset", name], workdir, free_motion_check(name)))
    for name in ("fig4a", "fig4b", "fig4c"):
        requests.append(CliRequest(name, ["simulate", "--preset", name], workdir, oscillator_check(name)))
    # two passes give the latency percentiles at least 100 samples
    return Workload("dynamics", requests, min_passes=2)


BY_NAME = {
    "verify": build_verify,
    "quantise": build_quantise,
    "portrait": build_portrait,
    "dynamics": build_dynamics,
}
