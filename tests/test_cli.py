"""End-to-end checks of the command-line entry points.

Everything drives ``main(argv)`` in-process for speed; one subprocess test
covers the installed console script.  Output files must be byte-reproducible
for a fixed config, so several tests compare raw bytes across runs.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose

from sqzq import cli, native, nonsepstates, numerics, pdm
from sqzq.cli import CHECKS, RunConfig, _csv, main
from sqzq.errors import ConfigError
from sqzq.nonsepstates import NonSepParams, nonsep_portrait_hq
from sqzq.sepstates import Field, PhasePoint

from .oracles import csv_row_template, mode_symbol_moment, nonsep_norm, overlap_integral


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _grid_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1], data[:, 2]


# ----------------------------------------------------------------------
# config handling


def test_run_config_flag_overrides_file(tmp_path):
    path = _write_cfg(tmp_path, {"a": 1.0, "b": 2.0})
    cfg = RunConfig.load(path, {"b": 3.0, "c": None})
    assert cfg.get("a") == 1.0
    assert cfg.get("b") == 3.0
    assert not cfg.has("c")


_GRID = {"q1_points": 5, "q2_points": 5}


@pytest.mark.parametrize(
    "flags,keys,other,outputs",
    [
        (["portrait", "chi", "--preset", "fig6a"], {**_GRID, "field": "chi", "preset": "fig6a"},
         {**_GRID, "field": "veff", "preset": "fig4a"}, ["portrait_chi.csv"]),
        (["simulate", "--preset", "fig4b", "--tol", "1e-9"], {"preset": "fig4b", "rel_tol": 1e-9},
         {"preset": "fig4a", "rel_tol": 1e-6}, ["fig4b.csv", "fig4b_summary.json"]),
        (["verify", "--tol", "1e-2"], {"tol": 1e-2}, {"tol": 1e-3}, ["verify_report.json"]),
        (["quantise", "qp", "--fock-dim", "4"], {"function": "qp", "fock_dim": 4},
         {"function": "q2", "fock_dim": 6}, ["quantise_qp.csv", "quantise_qp_report.json"]),
    ],
    ids=["portrait", "simulate", "verify", "quantise"],
)
def test_each_flag_overrides_its_config_key(tmp_path, flags, keys, other, outputs):
    # flags over a file that sets each of the command's flag keys otherwise
    # write what a file of the flags' values writes: a flag or positional
    # lands on the key of its name, simulate's --tol on rel_tol
    argvs = (flags + ["--config", _write_cfg(tmp_path, other, "other.json")],
             [flags[0], "--config", _write_cfg(tmp_path, keys, "keys.json")])
    for sub, argv in zip("ab", argvs):
        assert main(argv + ["--out", str(tmp_path / sub)]) == 0
    for name in outputs:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "argv,payload,named",
    [
        (["portrait", "chi", "--preset", "fig6a"], {"q1_point": 5}, "'q1_point'"),
        (["simulate", "--preset", "fig3a"], {"reltol": 1e-9}, "'reltol'"),
        (["verify"], {"fock_dim": 4, "tolerance": 1e-20}, "'fock_dim', 'tolerance'"),
        (["quantise", "q"], {"fockdim": 4}, "'fockdim'"),
    ],
    ids=["portrait", "simulate", "verify", "quantise"],
)
def test_a_config_key_the_command_does_not_read_exits_2(tmp_path, capsys, argv, payload, named):
    # a misspelt key, or one another command reads, is refused before the
    # command runs, as argparse refuses a flag the command does not take
    cfg = _write_cfg(tmp_path, payload)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {argv[0]} does not read the config key(s) {named}" in err
    assert not (tmp_path / "out").exists()


def test_run_config_field_errors(tmp_path):
    cfg = RunConfig.load(None, {"n": "many"})
    with pytest.raises(ConfigError, match="'missing' is required"):
        cfg.get("missing")
    with pytest.raises(ConfigError, match="'n'"):
        cfg.get("n", cast=int)


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_preset_exits_2(tmp_path):
    assert main(["simulate", "--preset", "fig9z", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["simulate", "--preset", "fig6a"], {"lam1": -1}),
        (["portrait", "chi", "--preset", "fig6a"], {"lam1": -1}),
        (["simulate", "--preset", "fig3a"], {"samples": 1}),
        (["quantise", "q", "--fock-dim", "-1"], {}),
        (["simulate", "--preset", "fig3a", "--tol", "0"], {}),
        (["simulate", "--preset", "fig3a", "--tol", "-1"], {}),
        (["simulate", "--preset", "fig3a", "--tol", "nan"], {}),
        (["simulate", "--preset", "fig3a"], {"rel_tol": -1e-9}),
        (["simulate", "--preset", "fig3a"], {"abs_tol": 0}),
        (["verify", "--tol", "nan"], {}),
        (["verify", "--tol", "-1"], {}),
        (["verify"], {"tol": 0}),
        (["quantise", "q"], {"tau": 1.5}),
        (["quantise", "q"], {"tau": 1.0}),
        (["quantise", "q"], {"tau": 0.6, "tau_im": 0.8}),
        (["quantise", "q1"], {"family": "two-mode", "tau1": 1.2, "tau2": 0.3}),
        (["quantise", "q1"], {"family": "two-mode", "tau1": 0.2, "tau2": -1.0}),
        (["quantise", "q"], {"lam": 1e-300}),
        (["quantise", "q"], {"lam": 1e200}),
        (["quantise", "q"], {"hbar": 1e-300}),
        (["quantise", "q"], {"hbar": 1e200}),
        (["quantise", "q1"], {"family": "two-mode", "tau1": 0.2, "tau2": 0.3, "lam1": 1e-300}),
        (["quantise", "q1"], {"family": "two-mode", "tau1": 0.2, "tau2": 0.3, "lam2": 1e200}),
        (["quantise", "q", "--fock-dim", "0"], {}),
        (["quantise", "q"], {"lam": 1e-155}),
        (["quantise", "q"], {"lam": 1e150, "hbar": 1e-150}),
    ],
    ids=[
        "simulate-lam1", "portrait-lam1", "samples", "fock-dim",
        "simulate-tol-0", "simulate-tol-negative", "simulate-tol-nan", "rel-tol",
        "abs-tol", "verify-tol-nan", "verify-tol-negative", "verify-tol-0",
        "tau-1.5", "tau-1", "tau-unit-circle", "two-mode-tau1-1.2", "two-mode-tau2-minus-1",
        "lam-1e-300", "lam-1e200", "hbar-1e-300", "hbar-1e200",
        "two-mode-lam1-1e-300", "two-mode-lam2-1e200", "quantise-fock-dim-0",
        "lam-precision-overflow", "lam-over-hbar-precision-overflow",
    ],
)
def test_invalid_input_exits_2(tmp_path, capsys, argv, payload):
    cfg = _write_cfg(tmp_path, payload)
    # refused before any arithmetic can overflow: a warning would be an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["portrait", "chi", "--preset", "fig6a", "--tol", "-5", "--fock-dim", "-3"],
        ["portrait", "chi", "--preset", "fig6a", "--tol", "1e-8"],
        ["simulate", "--preset", "fig3a", "--fock-dim", "-3"],
        ["verify", "--preset", "fig3a"],
        ["verify", "--fock-dim", "4"],
        ["quantise", "q", "--tol", "1e-8"],
        ["quantise", "q", "--preset", "fig3a"],
    ],
    ids=[
        "portrait-unread-flags", "portrait-tol", "simulate-fock-dim", "verify-preset",
        "verify-fock-dim", "quantise-tol", "quantise-preset",
    ],
)
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, capsys, argv):
    # argparse refuses them with its usage error instead of ignoring them
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_required_field_exits_2(tmp_path):
    path = _write_cfg(tmp_path, {"kind": "classical"})
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2


def test_help_shows_subcommands():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_one_parser_serves_every_main_of_a_process(tmp_path, capsys):
    # the parser is built at the first main and kept: runs through it write
    # what runs through a fresh parser write, also after a usage error and
    # --help, which leave it through SystemExit
    argvs = [
        ["simulate", "--preset", "fig6a"],
        ["quantise", "p2", "--fock-dim", "6"],
        ["simulate", "--preset", "fig4b", "--fock-dim", "3"],
        ["quantise", "--help"],
        ["simulate", "--preset", "fig6a"],
    ]

    def run(argv, out, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        err = [line for line in captured.err.splitlines() if not line.startswith("elapsed ")]
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        return code, captured.out.replace(str(out), "OUT"), err, files

    cli._build_parser.cache_clear()
    kept = [run(argv, tmp_path / f"kept{i}", False) for i, argv in enumerate(argvs)]
    assert cli._build_parser.cache_info().misses == 1
    fresh = [run(argv, tmp_path / f"fresh{i}", True) for i, argv in enumerate(argvs)]
    assert [r[0] for r in kept] == [0, 0, 2, 0, 0]
    assert "unrecognized arguments: --fock-dim 3" in kept[2][2][-1]
    assert "--fock-dim FOCK_DIM" in kept[3][1]
    assert kept[4] == kept[0]
    assert kept == fresh


def test_console_script_runs():
    out = subprocess.run(
        [sys.executable, "-m", "sqzq.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    for name in ("portrait", "simulate", "verify", "quantise"):
        assert name in out.stdout
    # runpy warns when the module it is asked to run was already imported
    # with the package
    assert "RuntimeWarning" not in out.stderr


_COLD_START = """
import json, sys
from sqzq import cli

def loaded():
    return {
        "scipy": any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
        "special": "scipy.special" in sys.modules,
        "integrate": "scipy.integrate" in sys.modules,
        "linalg": "scipy.linalg" in sys.modules,
    }

out, argvs = sys.argv[1], json.loads(sys.argv[2])
steps = [("import", 0, loaded())]
for argv in argvs:
    code = cli.main(argv + ["--out", out])
    steps.append((argv[0], code, loaded()))
print(json.dumps(steps))
"""

_NO_SCIPY = {"scipy": False, "special": False, "integrate": False, "linalg": False}
_SPECIAL_ONLY = {"scipy": True, "special": True, "integrate": False, "linalg": False}


def _cold_steps(tmp_path, argvs):
    # a fresh interpreter: the test session itself has scipy loaded
    out = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path), json.dumps(argvs)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return [tuple(step) for step in json.loads(out.stdout.splitlines()[-1])]


def test_quantise_and_classical_simulate_load_no_scipy(tmp_path):
    # only the smoothed walls (erfc) and the coupled box portrait (ndtr) need
    # scipy.special, and they load it at first use: the import, both
    # quantisation families, the classical dynamics and a config error load
    # no scipy module at all, and the first wall portrait loads scipy.special
    two = _write_cfg(tmp_path, {"family": "two-mode", "tau1": 0.2, "tau2": 0.3, "phi": 0.5})
    bad = _write_cfg(tmp_path, {"lam1": -1}, "bad.json")
    steps = _cold_steps(tmp_path, [
        ["quantise", "q1q2", "--config", two],
        ["quantise", "q"],
        ["simulate", "--preset", "fig3a"],
        ["simulate", "--preset", "fig6a", "--config", bad],
        ["portrait", "chi", "--preset", "fig6a"],
    ])
    assert steps == [
        ("import", 0, _NO_SCIPY),
        ("quantise", 0, _NO_SCIPY),
        ("quantise", 0, _NO_SCIPY),
        ("simulate", 0, _NO_SCIPY),
        ("simulate", 2, _NO_SCIPY),
        ("portrait", 0, _SPECIAL_ONLY),
    ]


def test_no_step_imports_scipy_integrate_or_linalg(tmp_path):
    # the semiclassical dynamics and verify each load scipy.special on their
    # own, and no command loads scipy.integrate or scipy.linalg
    for argv in (["simulate", "--preset", "fig6a"], ["verify"]):
        steps = _cold_steps(tmp_path, [argv])
        assert steps == [("import", 0, _NO_SCIPY), (argv[0], 0, _SPECIAL_ONLY)]


def test_every_public_name_resolves():
    # the benchmark's tracer looks up every name of every module's __all__
    import importlib
    import pkgutil

    import sqzq

    names = ["sqzq"] + [f"sqzq.{m.name}" for m in pkgutil.iter_modules(sqzq.__path__)]
    assert "sqzq.pdm" in names and "sqzq.cli" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not missing, (name, missing)


# the two ways a CSV block is written
_CSV_WRITERS = ("compiled", "no-library")


@contextlib.contextmanager
def _csv_writer(kind):
    """Every block, whatever its size, through the compiled CSV writer
    ('compiled'), or through the '%' template where no library loads
    ('no-library'); the library is forgotten afterwards."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_LIBRARY_CELLS", 0)
        if kind == "no-library":
            patch.setattr(native.shutil, "which", lambda name: None)
        native._library.cache_clear()
        try:
            lib = native._library("csv", native._CSV_SOURCE)
            used = lib is not None and not lib.differs
            assert used == (kind == "compiled" and bool(shutil.which("cc") or shutil.which("gcc")))
            yield
        finally:
            native._library.cache_clear()


def test_csv_row_template_writes_the_per_cell_bytes():
    # every kind of float %.17g spells in its own way, and an integer column
    # as quantise writes its indices, against the per-cell '%' writer
    odd = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 2.5e-310, 3.0, -7.0,
                    1e300, 0.1, 2.0**53 + 2.0])
    ints = np.arange(odd.size)
    for kind in _CSV_WRITERS:
        with _csv_writer(kind):
            text = _csv("a,b,c", [ints, odd, odd[::-1]])
        assert text == csv_row_template("a,b,c", [ints, odd, odd[::-1]]), kind
        assert b"nan" in text and b"-0," in text and b"\n3," in text
        assert b"\n1,-inf,0.1" in text and b",4.9406564584124654e-324\n" in text


def _spelt_as_percent(values, cols=1):
    """Asserts that ``_csv`` writes each cell of ``values`` as '%.17g' does,
    laid out in rows of ``cols`` cells, on both writers."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    columns = [values[:, j] for j in range(cols)]
    want = csv_row_template("x", columns)
    for kind in _CSV_WRITERS:
        with _csv_writer(kind):
            got = _csv("x", columns)
        if got != want:
            lines = list(zip(got.split(b"\n"), want.split(b"\n")))
            bad = [(g, w) for g, w in lines if g != w]
            assert len(got.split(b"\n")) == len(want.split(b"\n")) and not bad, (kind, bad[:5])


def test_csv_cells_match_percent_over_a_seeded_million_values():
    rng = np.random.default_rng(20260429)
    n = 1 << 18
    bit_patterns = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(n) * 10.0 ** rng.uniform(-12.0, 16.0, n)
    rounded = np.round(rng.standard_normal(n) * 1000.0, 3) / 10.0 ** rng.integers(0, 6, n)
    integers = rng.integers(-(2**53), 2**53, n).astype(np.float64) // 10.0 ** rng.integers(0, 16, n)
    _spelt_as_percent(np.concatenate([bit_patterns, scaled, rounded, integers]), cols=4)


def _ties_of_the_18th_digit(rng):
    """Odd j times 2^-p with 18 significant digits, the last a 5: '%.17g'
    rounds each one half to even."""
    ties = []
    for p in range(2, 26):
        lo, hi = -(-10**17 // 5**p), min(2**53, 10**18 // 5**p)
        for j in rng.integers(lo, hi, 40).tolist():
            ties.append(math.ldexp(j | 1, -p))
    return np.array(ties)


def test_csv_cells_match_percent_on_the_boundaries():
    decades = 10.0 ** np.arange(-12, 17)
    near = [decades]
    for direction in (0.0, np.inf):
        step = decades
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    # the exact set is 10^-11 <= |x| < 10^15; 1e-11 is just below 10^-11,
    # and the normals start at 2^-1022
    edges = np.array([1e-11, 1e15, 2.0**-1022, 2.0**-1022 - 2.0**-1074, 5e-324, 0.0,
                      2.0**53, 2.0**53 + 2.0, 999999999999999.9])
    near += [edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), [np.finfo(float).max]]
    ties = _ties_of_the_18th_digit(np.random.default_rng(7))
    exact = [Decimal(v) for v in ties[:50].tolist()]
    assert all(len(d.as_tuple().digits) == 18 and d.as_tuple().digits[-1] == 5 for d in exact)
    # written with 17 nines, each is the decade or the double below it
    nines = np.array([float("9.9999999999999999e%d" % e) for e in range(-13, 16)])
    nines = np.concatenate([nines, np.nextafter(nines, 0.0)])
    values = np.concatenate(near + [ties, nines])
    _spelt_as_percent(np.concatenate([values, -values, [np.nan, np.inf, -np.inf]]))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12), elements=st.floats()))
def test_csv_cells_match_percent_on_any_float_block(block):
    columns = [block[:, j] for j in range(block.shape[1])]
    want = csv_row_template("h", columns)
    for kind in _CSV_WRITERS:
        with _csv_writer(kind):
            assert _csv("h", columns) == want, kind


@pytest.mark.parametrize("rows", [1, 818, 820])
def test_csv_blocks_of_one_row_and_across_a_chunk(rows):
    # rows of five cells: one row, and two blocks of about 4 100 cells
    rng = np.random.default_rng(rows)
    block = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-14, 18, (rows, 5))
    _spelt_as_percent(block, cols=5)


def test_csv_widest_cells_fill_the_writers_bound():
    # each cell and its separator: 25 bytes, the most the compiled writer
    # sets aside, and 24 bytes
    widest = np.tile([-1.2345678901234567e-308, -0.00012345678901234567], (300, 2))
    spelt = ["%.17g," % v for v in widest[0].tolist()]
    assert [len(cell) for cell in spelt] == [25, 24, 25, 24]
    assert native._CELL_BYTES == 25
    _spelt_as_percent(widest, cols=4)
    text = _csv("h", [widest[:, 0]] * 4)
    assert len(text) == len("h\n") + native._CELL_BYTES * 4 * len(widest)


def test_csv_library_whose_probe_block_differs_is_not_used(monkeypatch, tmp_path):
    # a writer that rounds ties of the 18th digit away from zero, not to
    # even, is built and loaded, and fails its probe block
    if not (shutil.which("cc") or shutil.which("gcc")):
        pytest.skip("no C compiler on PATH")
    rounding = "(rem > half || (rem == half && (floor & 1)))"
    assert rounding in native._CSV_SOURCE
    monkeypatch.setattr(native, "_CSV_SOURCE", native._CSV_SOURCE.replace(rounding, "(rem >= half)"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    native._library.cache_clear()
    try:
        lib = native._library("csv", native._CSV_SOURCE)
        assert lib is not None and lib.differs
        ties = _ties_of_the_18th_digit(np.random.default_rng(11))
        columns = [ties[:480], -ties[480:960]]
        assert native._written(lib.dll, b"h\n", np.column_stack(columns)) != csv_row_template("h", columns)
        assert _csv("h", columns) == csv_row_template("h", columns)
    finally:
        native._library.cache_clear()


# ----------------------------------------------------------------------
# portrait


def test_portrait_grid_matches_library(tmp_path):
    cfg = _write_cfg(tmp_path, {"q1_points": 11, "q2_points": 9})
    assert main(["portrait", "chi", "--preset", "fig6a", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    q1, q2, val = _grid_csv(tmp_path / "portrait_chi.csv")
    assert q1.size == 11 * 9
    preset = pdm.PRESETS["fig6a"]
    direct = pdm.portrait_chi(preset.model, preset.modes,
                              np.stack([q1, q2], axis=-1))
    assert_allclose(val, direct, rtol=1e-15)


def test_portrait_deterministic_bytes(tmp_path):
    cfg = _write_cfg(tmp_path, {"q1_points": 8, "q2_points": 8})
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["portrait", "veff", "--preset", "fig6b", "--config", cfg,
                     "--out", str(out)]) == 0
        blobs.append((out / "portrait_veff.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_portrait_field_from_config(tmp_path):
    cfg = _write_cfg(tmp_path, {"field": "mass1", "q1_points": 6, "q2_points": 6})
    assert main(["portrait", "--preset", "fig6a", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    q1, q2, val = _grid_csv(tmp_path / "portrait_mass1.csv")
    preset = pdm.PRESETS["fig6a"]
    direct = pdm.regularised_mass(preset.model, preset.modes,
                                  np.stack([q1, q2], axis=-1), 1)
    assert_allclose(val, direct, rtol=1e-15, atol=1e-300)


def test_portrait_requires_field(tmp_path):
    assert main(["portrait", "--preset", "fig6a", "--out", str(tmp_path)]) == 2


def test_nonsep_portrait_collapses_to_windows(tmp_path):
    # zero mixing factorises exactly, for real and for complex squeezing, so
    # the coupled field must reproduce the separable file byte for byte
    for sub, payload in (
        ("real", {}),
        ("complex", {"tau1": 0.5, "tau1_im": 0.3, "tau2": -0.2, "tau2_im": 0.4}),
    ):
        out = tmp_path / sub
        out.mkdir()
        cfg = _write_cfg(out, {"q1_points": 7, "q2_points": 7, **payload})
        for field in ("nonsep_hq", "chi"):
            assert main(["portrait", field, "--preset", "fig6a", "--config", cfg,
                         "--out", str(out)]) == 0
        a = (out / "portrait_nonsep_hq.csv").read_text()
        b = (out / "portrait_chi.csv").read_text()
        assert a == b


def test_nonsep_portrait_near_zero_mixing_matches_windows(tmp_path):
    cfg = _write_cfg(tmp_path, {"q1_points": 5, "q2_points": 5, "phi": 1e-9})
    assert main(["portrait", "nonsep_hq", "--preset", "fig6a", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    q1, q2, val = _grid_csv(tmp_path / "portrait_nonsep_hq.csv")
    preset = pdm.PRESETS["fig6a"]
    direct = pdm.portrait_chi(preset.model, preset.modes,
                              np.stack([q1, q2], axis=-1))
    assert_allclose(val, direct, atol=1e-6)


def test_nonsep_portrait_deterministic_bytes(tmp_path):
    cfg = _write_cfg(tmp_path, {"q1_points": 5, "q2_points": 4, "phi": 0.8})
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["portrait", "nonsep_hq", "--preset", "fig6a", "--config", cfg,
                     "--out", str(out)]) == 0
        blobs.append((out / "portrait_nonsep_hq.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_nonsep_portrait_full_grid_matches_per_point_smoothing(tmp_path):
    # the default 201 x 201 grid on a correlated kernel (tau2 != tau1)
    cfg = _write_cfg(tmp_path, {"phi": 0.5, "tau2": 0.3})
    assert main(["portrait", "nonsep_hq", "--preset", "fig6a", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    q1, q2, val = _grid_csv(tmp_path / "portrait_nonsep_hq.csv")
    assert val.size == 201 * 201
    preset = pdm.PRESETS["fig6a"]
    modes = preset.modes
    params = NonSepParams.from_tau(modes.mode1.tau, 0.3, 0.5, modes.mode1.lam,
                                   modes.mode2.lam, modes.hbar)
    (a1, b1), (a2, b2) = preset.model.box
    chi = Field(
        lambda x1, x2: 1.0 * ((x1 >= a1) & (x1 <= b1) & (x2 >= a2) & (x2 <= b2)),
        growth="bounded",
        support=preset.model.box,
    )
    picks = np.random.default_rng(11).permutation(val.size)[:50]
    want = [nonsep_portrait_hq(chi, PhasePoint(q1[i], q2[i], 0.0, 0.0), params)
            for i in picks]
    assert_allclose(val[picks], want, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# simulate


def test_simulate_recurrence_summary(tmp_path):
    assert main(["simulate", "--preset", "fig3c", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "fig3c.csv").read_text().splitlines()
    assert rows[0] == "t,q1,q2,p1,p2,E"
    first = [float(x) for x in rows[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == 0.0 and first[2] == 0.0
    summary = json.loads((tmp_path / "fig3c_summary.json").read_text())
    assert summary["classification"] == "bounded"
    assert summary["recurrence_residual"] < 1e-3
    assert summary["energy_drift"] < 1e-6


def test_simulate_escape_summary(tmp_path):
    assert main(["simulate", "--preset", "fig6c", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "fig6c_summary.json").read_text())
    assert summary["classification"] == "escaped"
    assert summary["escape_time"] is not None
    assert summary["escape_time"] <= 15.0
    assert summary["energy_drift"] < 1e-6


def test_simulate_config_overrides_preset_state(tmp_path):
    cfg = _write_cfg(tmp_path, {"v0_1": 0.5})
    assert main(["simulate", "--preset", "fig3a", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "fig3a.csv").read_text().splitlines()
    first = [float(x) for x in rows[1].split(",")]
    # v = p/m at the origin with unit mass
    assert_allclose(first[3], 0.5, rtol=1e-12)


def _preset_config(preset, command):
    """A config without a preset that holds every value the preset supplies
    to ``command``: a portrait reads no initial state or time span."""
    model, init = preset.model, preset.init
    cfg = {}
    if command == "simulate":
        cfg = {"kind": preset.kind, "name": preset.name, "q0_1": init.q1, "q0_2": init.q2,
               "v0_1": init.v1, "v0_2": init.v2, "t0": preset.t_span[0], "t1": preset.t_span[1]}
    cfg.update({key: getattr(model, key) for key in ("m0", "lambda1", "lambda2", "vbar1", "vbar2")})
    if preset.modes is not None:
        for j in (1, 2):
            mode = preset.modes.mode(j)
            cfg.update({f"tau{j}": mode.tau.real, f"tau{j}_im": mode.tau.imag, f"lam{j}": mode.lam})
        cfg["hbar"] = preset.modes.hbar
    return cfg


@pytest.mark.parametrize(
    "argv,written",
    [(["simulate", "--preset", "fig4b"], "fig4b.csv"),
     (["simulate", "--preset", "fig6a"], "fig6a.csv"),
     (["portrait", "veff", "--preset", "fig6a"], "portrait_veff.csv")],
    ids=["simulate-fig4b", "simulate-fig6a", "portrait-veff-fig6a"],
)
def test_a_preset_only_supplies_defaults(tmp_path, argv, written):
    cfg = _write_cfg(tmp_path, _preset_config(pdm.PRESETS[argv[-1]], argv[0]))
    assert main(argv + ["--out", str(tmp_path / "preset")]) == 0
    assert main(argv[:-2] + ["--config", cfg, "--out", str(tmp_path / "config")]) == 0
    assert (tmp_path / "preset" / written).read_bytes() == (tmp_path / "config" / written).read_bytes()


@pytest.mark.parametrize(
    "argv,payload",
    [(["portrait", "chi", "--preset", "fig3a"], {}),
     (["simulate", "--preset", "fig3a"], {"kind": "semiclassical"})],
    ids=["portrait-chi", "simulate-semiclassical"],
)
def test_a_classical_preset_supplies_no_squeezing(tmp_path, capsys, argv, payload):
    # a classical preset has no modes, so the squeezing labels must come from
    # the config
    cfg = _write_cfg(tmp_path, payload)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: config field 'tau1' is required" in capsys.readouterr().err


def test_fig6a_outputs_keep_their_bytes(tmp_path):
    # the semiclassical run and the V_eff portrait read through the preset;
    # their bits pin the reader and everything below it
    assert main(["simulate", "--preset", "fig6a", "--out", str(tmp_path)]) == 0
    assert main(["portrait", "veff", "--preset", "fig6a", "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("fig6a.csv", "fig6a_summary.json", "portrait_veff.csv")
    }
    assert digests == {
        "fig6a.csv": "624e4e48b9ad9c303b603ed3ce7256dfbd145a868b8ff0b0bce23d58a17160f2",
        "fig6a_summary.json": "d7d5af185696982eaf2b99cb8bf4478018bcc43c19c4b896d30431663c3a904e",
        "portrait_veff.csv": "3a1058b1b8631b0b9be4f082434513b04d97de3868db62797fc5f0be1f298df2",
    }


def test_fig4b_run_and_full_chi_portrait_keep_their_bytes(tmp_path):
    # pinned under the per-cell '%' writer: a classical run's 2001 x 6 block
    # and a 201 x 201 grid
    assert main(["simulate", "--preset", "fig4b", "--out", str(tmp_path)]) == 0
    assert main(["portrait", "chi", "--preset", "fig6a", "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("fig4b.csv", "fig4b_summary.json", "portrait_chi.csv")
    }
    assert digests == {
        "fig4b.csv": "24d3be8b799a31119e100b0279959bcd7afafd1fce3b7944d8bb32e7160c6267",
        "fig4b_summary.json": "3b53e307ceab851958f4707f8585aa286a9600b08143ea2fa29c965a4651b196",
        "portrait_chi.csv": "6c1e64df7434451646dfcd81ecb591dcce1cbdcd9c5fe7cf734f88f4f698dac4",
    }


def test_fig4b_run_and_full_chi_portrait_keep_their_bytes_with_no_compiler(tmp_path, monkeypatch):
    # the same pins where no CSV library loads: '%' writes every block
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    native._library.cache_clear()
    try:
        test_fig4b_run_and_full_chi_portrait_keep_their_bytes(tmp_path)
        assert native._library("csv", native._CSV_SOURCE) is None
    finally:
        native._library.cache_clear()


def test_simulate_recurrence_residual_describes_the_run(tmp_path):
    # the plain preset closes after 2 pi; with a wider box and a slower
    # first mode the run does not, and its residual must say so
    assert main(["simulate", "--preset", "fig3a", "--out", str(tmp_path / "plain")]) == 0
    plain = json.loads((tmp_path / "plain" / "fig3a_summary.json").read_text())
    assert plain["recurrence_residual"] <= 1e-10
    cfg = _write_cfg(tmp_path, {"lambda1": 1.3, "v0_1": 0.7})
    assert main(["simulate", "--preset", "fig3a", "--config", cfg,
                 "--out", str(tmp_path / "moved")]) == 0
    moved = json.loads((tmp_path / "moved" / "fig3a_summary.json").read_text())
    assert moved["recurrence_residual"] > 1e-3


def test_simulate_explicit_classical_config(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "kind": "classical", "name": "free", "m0": 1.0,
        "lambda1": 1.0, "lambda2": 1.0,
        "v0_1": 1.0, "v0_2": 0.0, "t1": 6.5, "samples": 101,
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "free.csv", delimiter=",", skiprows=1)
    assert data.shape == (101, 6)
    assert_allclose(data[:, 1], np.sin(data[:, 0]), atol=1e-9)


def test_simulate_outside_box_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, {"q0_1": 5.0})
    assert main(["simulate", "--preset", "fig3a", "--config", cfg,
                 "--out", str(tmp_path)]) == 2


def test_simulate_degenerate_semiclassical_exits_3(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"q0_1": 50.0, "q0_2": 50.0})
    assert main(["simulate", "--preset", "fig6a", "--config", cfg,
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "not finite at t0" in err


def test_simulate_failure_before_the_first_sample_exits_3(tmp_path, capsys):
    # a mass this small makes the first step fail; the solver then has no
    # sample at all
    cfg = _write_cfg(tmp_path, {"m0": 1e-300, "t1": 1.0, "samples": 50})
    assert main(["simulate", "--preset", "fig6a", "--config", cfg,
                 "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("preset, payload", [
    # accelerations near 1e300: the steps shrink without end
    ("fig6a", {"vbar1": 1e300}),
    # a pendulum coefficient vbar/m0 near 1e300: about 1e150 oscillations
    ("fig4a", {"m0": 1e-300, "t1": 1.0}),
])
def test_simulate_unresolvable_run_stops_at_the_minimum_step(tmp_path, capsys, preset, payload):
    cfg = _write_cfg(tmp_path, payload)
    start = time.perf_counter()
    assert main(["simulate", "--preset", preset, "--config", cfg, "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "numerical failure" in err and "minimum step" in err


def test_simulate_stopped_run_prints_the_solver_message(tmp_path, capsys, monkeypatch):
    # a small step budget stops fig4a after some samples: the partial
    # trajectory is written, and stderr says which limit stopped it
    monkeypatch.setattr(numerics, "_MAX_STEPS", 200)
    assert main(["simulate", "--preset", "fig4a", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: step budget of 200 steps exhausted at t = " in err
    summary = json.loads((tmp_path / "fig4a_summary.json").read_text())
    assert summary["classification"] == "singular-stop" and 2 <= summary["samples"] < 2001


def test_simulate_classical_energy_with_a_tiny_inverse_length(tmp_path):
    # Lambda1^2 underflows to 0, but the energy 1/2 m0 (omega/Lambda)^2 +
    # vbar (sin theta/Lambda)^2 of each mode is finite
    cfg = _write_cfg(tmp_path, {
        "kind": "classical", "lambda1": 5.28e-216, "lambda2": 2.0e75, "m0": 1e50,
        "vbar1": 10.0, "vbar2": 7.3e116, "q0_1": 3.16, "q0_2": -1.9e-106,
        "v0_1": -8.06e5, "v0_2": 6.2, "t1": 1.62,
    })
    assert main(["simulate", "--preset", "fig6a", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "fig6a_summary.json").read_text())
    assert summary["initial_energy"] == 3.2481800001922004e61


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["classical", "semiclassical"]),
    scales=st.fixed_dictionaries(
        {k: _log_uniform(1e-300, 1e300) for k in ("m0", "vbar1", "vbar2", "lambda1", "lambda2")}
    ),
    state=st.fixed_dictionaries({
        "q0_1": st.floats(-10.0, 10.0), "q0_2": st.floats(-10.0, 10.0),
        "v0_1": st.floats(-1e6, 1e6), "v0_2": st.floats(-1e6, 1e6),
        "t1": st.floats(1e-3, 2.0),
    }),
)
def test_simulate_fuzzed_config_exits_cleanly(tmp_path_factory, kind, scales, state):
    """A config error (2), a numerical failure (3) or a finished run (0),
    never an exception out of main: the minimum step and the step budget
    bound every run."""
    out = tmp_path_factory.mktemp("fuzz")
    cfg = _write_cfg(out, {"kind": kind, **scales, **state})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--preset", "fig6a", "--config", cfg, "--out", str(out)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["classical", "semiclassical"]),
    scales=st.fixed_dictionaries(
        {k: st.floats(0.1, 10.0) for k in ("m0", "vbar1", "vbar2", "lambda1", "lambda2")}
    ),
    inside=st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99)),
    velocity=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    t1=st.floats(1e-3, 2.0),
)
def test_simulate_fuzzed_workable_config_runs(tmp_path_factory, kind, scales, inside, velocity, t1):
    """At scales where the equations of motion are finite, with the start
    inside the box: a finished run (0) with finite samples, or a numerical
    failure (3), never an exception out of main."""
    out = tmp_path_factory.mktemp("workable")
    start = {f"q0_{j}": u / scales[f"lambda{j}"] for j, u in enumerate(inside, 1)}
    start.update({f"v0_{j}": v for j, v in enumerate(velocity, 1)})
    cfg = _write_cfg(out, {"kind": kind, **scales, **start, "t1": t1})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--preset", "fig6a", "--config", cfg, "--out", str(out)])
    assert code in (0, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert np.all(np.isfinite(np.loadtxt(out / "fig6a.csv", delimiter=",", skiprows=1)))


def _configs(ranges):
    """Configs drawn inside ``ranges``, then with any subset of their keys set
    to arbitrary floats (nan and inf included) or to floats of any decimal
    scale, subnormal to near the float maximum, on the key's side of zero, so
    that the engines run as well as the input checks."""
    inside = st.fixed_dictionaries({k: st.floats(lo, hi) for k, (lo, hi) in ranges.items()})

    def scaled(lo, hi):
        signs = [s for s, ok in ((1.0, hi > 0.0), (-1.0, lo < 0.0)) if ok]
        return st.builds(
            lambda sign, m, e: sign * m * 10.0**e,
            st.sampled_from(signs), st.floats(1.0, 9.99), st.integers(-320, 307),
        )

    wild = st.fixed_dictionaries(
        {}, optional={k: st.floats() | scaled(lo, hi) for k, (lo, hi) in ranges.items()}
    )
    return st.builds(lambda base, override: {**base, **override}, inside, wild)


_PORTRAIT_RANGES = {
    "m0": (0.1, 10.0), "lambda1": (0.1, 10.0), "lambda2": (0.1, 10.0),
    "vbar1": (0.0, 100.0), "vbar2": (0.0, 100.0),
    "tau1": (-0.9, 0.9), "tau2": (-0.9, 0.9), "lam1": (0.1, 5.0), "lam2": (0.1, 5.0),
    "hbar": (0.1, 5.0), "phi": (0.0, 6.0),
    "q1_min": (-5.0, 0.0), "q1_max": (0.0, 5.0), "q2_min": (-5.0, 0.0), "q2_max": (0.0, 5.0),
}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    field=st.sampled_from(["chi", "mass1", "mass2", "q2chi1", "q2chi2", "veff", "nonsep_hq"]),
    values=_configs(_PORTRAIT_RANGES),
    points=st.tuples(st.integers(2, 6), st.integers(2, 6)),
    preset=st.booleans(),
)
# a wall 1/lambda2 that overflows, and a grid span that does: both wrote NaN
@example("mass1", {"m0": 1, "lambda1": 1, "lambda2": 2.2250738585e-313, "tau1": 0, "tau2": 0},
         (3, 3), False)
@example("mass2", {"m0": 1, "lambda1": 1, "lambda2": 1, "tau1": 0, "tau2": 0,
                   "q2_min": -1e308, "q2_max": 1e308}, (3, 3), False)
# an inverse mass that overflows (exit 3), and walls so wide that exp(-z^2)
# reaches its 0 through an overflowing z^2 (exit 0)
@example("mass1", {"m0": 2.2e-313}, (2, 2), True)
@example("chi", {"lambda2": 2e-259}, (3, 3), True)
@example("nonsep_hq", {"phi": 0.5, "q1_min": -1e308}, (3, 3), True)
@example("nonsep_hq", {"phi": 0.28, "q2_max": 1.7976931348623157e308}, (5, 3), True)
def test_portrait_fuzzed_config_exits_cleanly(tmp_path_factory, field, values, points, preset):
    """A config error (2), a numerical failure (3) or a finite grid (0),
    never an exception out of main."""
    out = tmp_path_factory.mktemp("fuzz")
    cfg = _write_cfg(out, {**values, "q1_points": points[0], "q2_points": points[1]})
    argv = ["portrait", field, "--config", cfg, "--out", str(out)]
    code = main(argv + (["--preset", "fig6a"] if preset else []))
    assert code in (0, 2, 3)
    if code == 0:
        assert np.all(np.isfinite(_grid_csv(out / f"portrait_{field}.csv")[2]))


# ----------------------------------------------------------------------
# quantise


def test_quantise_csv_is_hermitian(tmp_path):
    cfg = _write_cfg(tmp_path, {"tau": 0.4, "tau_im": 0.2})
    assert main(["quantise", "qp", "--config", cfg, "--fock-dim", "6",
                 "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "quantise_qp.csv", delimiter=",", skiprows=1)
    dim = int(rows[:, 0].max()) + 1
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    assert dim == 7
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    report = json.loads((tmp_path / "quantise_qp_report.json").read_text())
    assert report["identity_deviation"] < 1e-6
    assert report["hermiticity_defect"] < 1e-12
    # qp has degree 2: the rule of order k0 = ceil((2 * 6 + 2 + 1) / 2) is
    # exact, and the next order k0 + 1 only confirms it
    assert report["convergence_witness"] < 1e-12
    k0 = 8
    assert report["nodes"] == k0**2 + (k0 + 1) ** 2


def test_quantise_identity_matches_report(tmp_path):
    assert main(["quantise", "one", "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "quantise_one.csv", delimiter=",", skiprows=1)
    dim = int(rows[:, 0].max()) + 1
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    assert np.max(np.abs(mat - np.eye(dim))) < 1e-6


def test_quantise_two_mode_linear_field(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "family": "two-mode", "tau1": 0.2, "tau2": 0.3, "phi": 0.5,
    })
    assert main(["quantise", "q1", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "quantise_q1_report.json").read_text())
    assert report["dimension"] == 25
    assert report["identity_deviation"] < 1e-10
    assert report["convergence_witness"] < 1e-10
    assert 0 < report["nodes"] <= 38**2 * 32**2


def test_quantise_unknown_function_exits_2(tmp_path):
    assert main(["quantise", "q7", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "payload",
    [{"tau": 1.0 - 1e-9}, {"tau": 0.6, "tau_im": 0.8 - 1e-9},
     {"family": "two-mode", "tau1": 1.0 - 1e-9, "tau2": 0.3, "phi": 0.5}],
    ids=["below-1", "below-unit-circle", "two-mode-below-1"],
)
def test_quantise_tau_inside_the_rim_exits_3(tmp_path, capsys, payload):
    # just inside |tau| = 1 the state exists but its widths diverge: a
    # numerical failure, where |tau| >= 1 is a config error
    fn = "q1" if "tau1" in payload else "q"
    cfg = _write_cfg(tmp_path, payload)
    assert main(["quantise", fn, "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [{"family": "one-mode", "tau": 0.3, "lam": 1e-10, "hbar": 1e-155}],
    ids=["one-mode-determinant-overflows"],
)
def test_quantise_unrepresentable_normaliser_exits_3(tmp_path, capsys, payload):
    # each eigenvalue of the Gaussian weight's precision is finite, but their
    # product leaves the normal float range: the rule's weights would all be
    # 0, or lose digits
    cfg = _write_cfg(tmp_path, payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["quantise", "one", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "outside the float range" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "payload",
    [{"family": "two-mode", "tau1": 0.2, "tau2": 0.3, "lam1": 1e-78, "lam2": 1e-78},
     {"family": "two-mode", "tau1": 0.2, "tau2": 0.3, "lam1": 1e80, "lam2": 1e80},
     {"family": "two-mode", "tau1": 0.2, "tau2": 0.3, "lam1": 1e-77, "lam2": 1e-77}],
    ids=["two-mode-lam-1e-78", "two-mode-lam-1e80", "two-mode-lam-1e-77"],
)
def test_quantise_extreme_two_mode_scales_resolve_the_identity(tmp_path, capsys, payload):
    # the two-mode rules are per mode, each whitened by its own 2 x 2 vacuum
    # precision, whose determinant (1 - |tau|^2) / (4 hbar^2) does not see
    # lam: no product of the two modes' scales is formed, so these scales
    # quantise the identity to rounding
    cfg = _write_cfg(tmp_path, payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["quantise", "one", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = np.loadtxt(tmp_path / "quantise_one.csv", delimiter=",", skiprows=1)
    dim = int(rows[:, 0].max()) + 1
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    assert np.max(np.abs(mat - np.eye(dim))) <= 1e-14
    report = json.loads((tmp_path / "quantise_one_report.json").read_text())
    assert report["identity_deviation"] <= 1e-14


def _quantise_exits_cleanly(tmp_path_factory, fn, payload, fock_dim):
    """A config error (2), a numerical failure (3) or a finite operator whose
    identity resolves (0); never an exception out of main."""
    out = tmp_path_factory.mktemp("fuzz")
    cfg = _write_cfg(out, payload)
    code = main(["quantise", fn, "--config", cfg, "--fock-dim", str(fock_dim), "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 0:
        rows = np.loadtxt(out / f"quantise_{fn}.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))
        report = json.loads((out / f"quantise_{fn}_report.json").read_text())
        assert report["identity_deviation"] <= 1e-6


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    fn=st.sampled_from(["one", "q", "p", "q2", "p2", "qp"]),
    values=_configs({"tau": (-0.7, 0.7), "tau_im": (-0.7, 0.7), "lam": (0.2, 5.0),
                     "hbar": (0.2, 5.0)}),
    fock_dim=st.integers(-2, 4),
)
def test_quantise_one_mode_fuzzed_config_exits_cleanly(tmp_path_factory, fn, values, fock_dim):
    _quantise_exits_cleanly(tmp_path_factory, fn, dict(values, family="one-mode"), fock_dim)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    fn=st.sampled_from(["one", "q1", "q2", "q1q2"]),
    values=_configs({"tau1": (-0.7, 0.7), "tau2": (-0.7, 0.7), "phi": (0.0, 6.0),
                     "lam1": (0.2, 5.0), "lam2": (0.2, 5.0)}),
    fock_dim=st.integers(-2, 2),
)
def test_quantise_two_mode_fuzzed_config_exits_cleanly(tmp_path_factory, fn, values, fock_dim):
    _quantise_exits_cleanly(tmp_path_factory, fn, dict(values, family="two-mode"), fock_dim)


# ----------------------------------------------------------------------
# verify


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    """The default verify run: exit code, report, the two-mode engine runs
    of table1_operators and the dimension of every Gauss-Hermite rule built."""
    out = tmp_path_factory.mktemp("verify")
    engine = nonsepstates._quantise_rotated
    rule = numerics.gaussian_rule
    runs, dims = [], []

    def counted(*args, **kwargs):
        runs.append(args[2:])
        return engine(*args, **kwargs)

    def recorded(prec, orders):
        dims.append(len(orders))
        return rule(prec, orders)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonsepstates, "_quantise_rotated", counted)
        # every module's binding, so that a rule built anywhere is seen
        for module in list(sys.modules.values()):
            if module.__name__.startswith("sqzq") and getattr(module, "gaussian_rule", None) is rule:
                mp.setattr(module, "gaussian_rule", recorded)
        code = main(["verify", "--out", str(out)])
    report = json.loads((out / "verify_report.json").read_text())
    return code, report, runs, dims


@pytest.fixture(scope="module")
def verify_report(verify_run):
    return verify_run[:2]


def test_verify_runs_table1_on_the_rotated_engine(verify_run):
    # no 4D rule is built, only per-mode ones: Table 1 is three runs of the
    # two-mode engine, one per field at nmax 4 and degree 2, each on the
    # position pairs of the orders k0 = ceil((4 * 4 + 2 + 1) / 2) = 10 and
    # k0 + 1: 10^2 + 11^2
    _, report, runs, dims = verify_run
    assert set(dims) <= {1, 2} and 2 in dims
    assert runs == [(4, 2)] * 3
    two_mode = ("identity-twomode", "table1-rows", "table1-closed-form")
    nodes = {c["detail"]["nodes"] for c in report["checks"] if c["id"] in two_mode}
    assert nodes == {221}


def test_verify_exits_zero(verify_report):
    code, _ = verify_report
    assert code == 0


def test_verify_all_checks_present_and_within_tolerance(verify_report):
    _, report = verify_report
    ids = {c["id"] for c in report["checks"]}
    assert ids == {
        "identity-onemode", "identity-twomode", "holoh", "overlap-onemode",
        "portrait-ph", "portrait-p2h", "nonsep-norm", "nonsep-overlap",
        "coupled-portrait", "delta-factored", "table1-rows", "table1-closed-form", "bs-rotation",
        "bogoliubov",
        "chi-portrait", "q2chi-portrait", "mass-portrait", "veff-gradient",
    }
    assert report["all_within_tolerance"]
    for check in report["checks"]:
        assert check["deviation"] <= check["tolerance"], check["id"]


def test_verify_two_mode_checks_use_the_run_tolerance(verify_report):
    _, report = verify_report
    for cid in ("identity-twomode", "table1-rows", "table1-closed-form"):
        check = next(c for c in report["checks"] if c["id"] == cid)
        assert check["tolerance"] == report["tolerance"], cid
        assert check["detail"]["nodes"] > 0, cid


def test_verify_table1_closed_form_holds_the_full_matrix(verify_report):
    # the engine's q1, q2 and q1 q2 against X1 x 1, 1 x X2 and X1 x X2 + c 1
    # on every entry of the truncated basis
    _, report = verify_report
    check = next(c for c in report["checks"] if c["id"] == "table1-closed-form")
    assert check["deviation"] <= 1e-14


def test_verify_bs_rotation_holds_the_projectors_to_rounding(verify_report):
    # U (c1 x c2)(x') against the ladder recurrence's c(x), projector by
    # projector, at both families' 200 points
    _, report = verify_report
    check = next(c for c in report["checks"] if c["id"] == "bs-rotation")
    assert check["deviation"] <= 1e-13
    assert check["detail"] == {"nmax": 4, "points": 400}


def test_verify_reports_errata(verify_report):
    _, report = verify_report
    ids = {e["id"] for e in report["errata"]}
    assert {"nonsep-overlap-exponent-sign", "portrait-kernel-cross-sign",
            "delta-factored-scale", "table1-q1-row", "table1-q2-row",
            "table1-q1q2-constant"} <= ids
    overlap = next(e for e in report["errata"]
                   if e["id"] == "nonsep-overlap-exponent-sign")
    assert overlap["sign_flipped_deviation"] > 1e3 * overlap["adopted_deviation"]
    for name in ("q1", "q2"):
        row = next(e for e in report["errata"] if e["id"] == f"table1-{name}-row")
        assert row["adopted_deviation"] < 1e-10
        assert row["rival_deviation"] > 10 * row["adopted_deviation"]


def test_verify_table1_fit_recovers_bare_positions(verify_report):
    _, report = verify_report
    row = next(e for e in report["errata"] if e["id"] == "table1-q1-row")
    assert_allclose(row["oracle_fit"], [1.0, 0.0], atol=1e-10)
    const = next(e for e in report["errata"] if e["id"] == "table1-q1q2-constant")
    assert_allclose(const["oracle_fit"][0], 1.0, atol=1e-10)


def _oracle_calls(monkeypatch, check, oracle):
    """The argument tuples of every call ``check`` makes to ``oracle``."""
    calls, inner = [], getattr(cli, oracle)
    monkeypatch.setattr(cli, oracle, lambda *args: calls.append(args) or inner(*args))
    getattr(cli, check)()
    monkeypatch.undo()
    return calls


def test_overlap_oracle_matches_40_digit_integrals(monkeypatch):
    # the 2 001-point trapezoid at verify's own draws
    calls = _oracle_calls(monkeypatch, "_overlap_onemode", "_overlap_oracle_1d")
    assert len(calls) == 25
    for pa, pb, par in calls:
        want = overlap_integral(pa, pb, par)
        assert abs(cli._overlap_oracle_1d(pa, pb, par) - want) <= 1e-14 * want


def test_mode_symbol_oracle_matches_40_digit_moments(monkeypatch):
    # three panels of 64 Legendre nodes per axis, at verify's own draws
    # (k = 0, 1, 2); hq(x) = exp(-(x - c)^2 / s) carries c and s as defaults
    calls = _oracle_calls(monkeypatch, "_sep_portraits", "_mode_symbol_oracle")
    assert sorted({args[4] for args in calls}) == [0, 1, 2]
    for par, q, p, hq, k in calls:
        want = mode_symbol_moment(par, q, p, *hq.__defaults__, k)
        assert abs(cli._mode_symbol_oracle(par, q, p, hq, k) - want) <= 1e-14 * abs(want)


def test_sep_portraits_match_40_digit_moments(monkeypatch):
    # verify's own draws: the portrait is the owning mode's moment k = 1 or 2
    # times the other mode's k = 0; an order-90 smoothing rule reads 4.9e-12 here
    calls, values = [], []
    inner = cli._mode_symbol_oracle
    monkeypatch.setattr(cli, "_mode_symbol_oracle", lambda *a: calls.append(a) or inner(*a))
    for name in ("portrait_p_h", "portrait_p2_h"):
        closed = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, f=closed: values.append(f(*a)) or values[-1])
    cli._sep_portraits()
    monkeypatch.undo()
    assert len(calls) == 18 and len(values) == 12
    exact = [mode_symbol_moment(par, q, p, *hq.__defaults__, k) for par, q, p, hq, k in calls]
    for draw in range(6):
        rest, own1, own2 = exact[3 * draw : 3 * draw + 3]
        for got, own in zip(values[2 * draw : 2 * draw + 2], (own1, own2)):
            assert abs(got - own * rest) <= 1e-14 * abs(own * rest)


def test_norm_oracle_matches_40_digit_gaussian_integrals(monkeypatch):
    calls = _oracle_calls(monkeypatch, "_nonsep_norm", "_norm_oracle")
    assert len(calls) == 4
    for params, pt in calls:
        want = nonsep_norm(params, pt)
        assert abs(cli._norm_oracle(params, pt) - want) <= 1e-14 * want


def test_verify_deterministic_report(tmp_path, verify_report):
    _, report = verify_report
    code = main(["verify", "--out", str(tmp_path)])
    assert code == 0
    again = json.loads((tmp_path / "verify_report.json").read_text())
    assert again == report


def test_verify_small_fock_dim_is_within_tolerance(tmp_path, capsys, monkeypatch):
    # below nmax 3 the Table 1 interior block is the vacuum alone and the fit
    # is empty; nmax 3, the smallest basis with a fit, used to report
    # table1-rows at deviation 1.0
    monkeypatch.setattr(cli, "_TWO_MODE_NMAX", 3)
    assert main(["verify", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_within_tolerance"]
    table1 = next(c for c in report["checks"] if c["id"] == "table1-rows")
    assert table1["detail"]["nmax"] == 3
    # one timing line per table entry on stderr, naming its checks
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("check ")]
    assert len(lines) == len(CHECKS)
    named = [cid for ln in lines for cid in ln[len("check "):].split(":")[0].split()]
    assert named == [c["id"] for c in report["checks"]]
    assert all(ln.endswith("s") for ln in lines)


def test_polynomial_position_fields_keep_their_direct_sum(tmp_path):
    # a declared polynomial stops at its exact orders k0 and k0 + 1, whose
    # bits these are; they pin the sum's order of operations, so a change to
    # it shows here even when it moves the operator only at rounding
    cfg = _write_cfg(tmp_path, {"family": "two-mode", "tau1": 0.2, "tau2": 0.6,
                                "phi": math.pi / 4, "lam1": 0.8, "lam2": 1.15})
    assert main(["quantise", "q1q2", "--config", cfg, "--fock-dim", "4", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "quantise_q1q2.csv").read_bytes()).hexdigest()
    assert digest == "8e4c42974cfe0019dc3197ca72e45a701506365e65fdd7de3752b2c24e9081f6"


def test_polynomial_one_mode_fields_keep_their_bits(tmp_path):
    # the one-mode counterpart of the pin above, at the benchmark's family:
    # the principal-axis rule's order of operations, k0 and k0 + 1
    cfg = _write_cfg(tmp_path, {"family": "one-mode", "tau": 0.4, "tau_im": 0.3})
    assert main(["quantise", "p2", "--config", cfg, "--fock-dim", "8", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "quantise_p2.csv").read_bytes()).hexdigest()
    assert digest == "2d510b4ac30b3ddbb2fae595ccb92176a5824a9868b96399763bed8244e18274"


def test_quantise_past_the_highest_hermite_order_exits_2(tmp_path, capsys):
    # nmax 369 needs orders 371 and 372 for the degree-2 q; numpy gives no
    # usable weights past 370, so the basis is refused before any rule
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        assert main(["quantise", "q", "--fock-dim", "369", "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "config error" in err and "order 372" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.iterdir())


def test_verify_holds_1e_12(tmp_path):
    # the worst check is veff-gradient, about 1e-13; the portraits read at
    # most 9.8e-15 on the order-120 smoothing rule
    assert main(["verify", "--tol", "1e-12", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    checks = {c["id"]: c for c in report["checks"]}
    # each degree-2 Table 1 field is evaluated on the outer position pairs of
    # the exact orders k0 = 2 nmax + 2 and k0 + 1 alone
    closed = checks["table1-closed-form"]
    n = closed["detail"]["nmax"]
    assert closed["detail"]["nodes"] == (2 * n + 2) ** 2 + (2 * n + 3) ** 2
    assert closed["deviation"] <= 1e-14
    assert checks["identity-twomode"]["deviation"] <= 1e-14
    assert checks["bs-rotation"]["deviation"] <= 1e-13


def test_verify_holds_table1_operators_off_their_closed_forms(tmp_path, monkeypatch):
    # the table1-closed-form check, at the run's tolerance, is the one test of
    # the Table 1 operators: an engine off by 1e-9 is reported, not raised,
    # and the report is kept
    engine = nonsepstates._quantise_rotated

    def shifted(*args):
        mat, pts, report = engine(*args)
        return mat + 1e-9, pts, report

    monkeypatch.setattr(nonsepstates, "_quantise_rotated", shifted)
    assert main(["verify", "--tol", "1e-12", "--out", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "verify_report.json").read_text())
    closed = next(c for c in report["checks"] if c["id"] == "table1-closed-form")
    assert not closed["within_tolerance"]
    assert closed["deviation"] == pytest.approx(1e-9, rel=1e-4)


def test_verify_outside_tolerance_exits_3(tmp_path):
    assert main(["verify", "--tol", "1e-30", "--out", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert not report["all_within_tolerance"]
    assert report["tolerance"] == 1e-30


@pytest.mark.parametrize(
    "argv,payload,named",
    [
        (["portrait", "chi", "--preset", "fig6a"], {"phi": 1.0}, "portrait field 'chi'"),
        (["quantise", "q"], {"phi": 1.0}, "quantise family 'one-mode'"),
        (["quantise", "q1q2"], {"family": "two-mode", "tau": 0.3}, "quantise family 'two-mode'"),
        (["simulate", "--preset", "fig3a"], {"tau1": 0.5}, "simulate kind 'classical'"),
        (["simulate", "--preset", "fig6a"], {"kind": "classical", "lam2": 2.0}, "simulate kind 'classical'"),
    ],
    ids=["portrait-field", "quantise-one-mode", "quantise-two-mode", "simulate-kind", "simulate-kind-override"],
)
def test_a_config_key_only_another_field_family_or_kind_reads_exits_2(tmp_path, capsys, argv, payload, named):
    # the key is the command's, but the run at hand never reads it: phi only
    # mixes the nonsep_hq portrait and the two-mode family, the squeezing only
    # smooths semiclassical dynamics
    cfg = _write_cfg(tmp_path, payload)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    key = next(k for k in payload if k not in ("family", "kind"))
    assert f"config error: {named} does not read the config key(s) '{key}'; it reads " in err
    assert not (tmp_path / "out").exists()


def test_the_benchmark_configs_stay_accepted(tmp_path):
    # the key sets of the configs the benchmark writes, each with the command
    # and the field, family or kind that reads them
    cases = [
        (["portrait", "nonsep_hq", "--preset", "fig6a"], {"phi": 0.5, "tau2": 0.3, "q1_points": 21, "q2_points": 21}),
        (["portrait", "nonsep_hq", "--preset", "fig6a"], {"phi": 0.0, "q1_points": 5, "q2_points": 5}),
        (["simulate", "--preset", "fig6a"], {"v0_1": 1.2, "v0_2": 0.9, "t1": 0.5}),
        (["quantise", "q1q2"], {"family": "two-mode", "fock_dim": 2, "tau1": 0.2, "tau2": 0.6,
                                "phi": math.pi / 4, "lam1": 0.8, "lam2": 1.15}),
        (["quantise", "q"], {"family": "one-mode", "tau": 0.4, "tau_im": 0.3, "fock_dim": 4}),
    ]
    for k, (argv, payload) in enumerate(cases):
        cfg = _write_cfg(tmp_path, payload, f"c{k}.json")
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / f"out{k}")]) == 0, argv


def test_fig6a_outputs_keep_their_bytes_on_the_python_kernels(tmp_path, monkeypatch):
    # the same pins with the compiled form removed: both paths write the bytes
    monkeypatch.setattr(pdm, "_compiled_rhs", lambda *args: None)
    test_fig6a_outputs_keep_their_bytes(tmp_path)
