"""``solve_ode`` in C: the DOP853 driver and its kernels around a problem's
compiled right-hand side, built once into a shared library and loaded with
ctypes.

The C makes the Python kernels' float operations in their order.  The
kernels are emitted from the same tableau sums (``numerics._sum_code`` and
``numerics._guard_code``, with hexadecimal literals), and the driver
(``_DRIVER``) is ``numerics._python_steps`` and ``numerics._initial_step``
statement for statement.  Python's ``min(a, b)`` is written
``b < a ? b : a`` and ``max(a, b)`` ``b > a ? b : a``, which pick what they
pick when one is NaN; ``x ** y`` is ``pow``; ``if e5`` is ``e5 != 0.0``, true
for NaN as in Python.  Compiled without contraction or fast math
(``_FLAGS``), every operation rounds as Python's does, so a trajectory has
the Python kernels' bits and the same step counts.

The library is cached in ``${XDG_CACHE_HOME:-~/.cache}/sqzq/``, named by the
sha256 of its C source and the compiler command: a new source or compiler
gives a new file, and no file goes stale.  It is written under a temporary
name and moved into place, and it ends with the sha256 of its other bytes,
so a truncated or damaged file is rebuilt and never loaded.  Without a C
compiler (``cc`` or ``gcc`` on PATH), with an unwritable cache or a failing
build, ``steps`` returns None and the solver runs its Python kernels.

Before a library runs a model for the first time in a process, its
right-hand side must give the Python one's bits (NaN payloads aside) at the
problem's probe states, and its ``pow`` Python's at fixed arguments.  A libm
whose ``erfc``, ``exp`` or ``pow`` is not the one ``math`` calls would fail
that, and a library that fails it once is not used again in the process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
from functools import lru_cache

import numpy as np

from . import numerics

# no contraction into fused multiply-adds, no reassociation
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math")
# the library's last bytes: the sha256 of the others
_DIGEST = 32
# rows of the step table allocated first; it doubles when full
_CHUNK = 256
# (x, y) at which the library's pow must give Python's x ** y: the
# controller's error norms and the first step's (0.01 / d) ** (1 / 8)
_POWERS = [(x, y) for x in (1e-300, 3.7e-9, 0.04, 0.61, 0.999, 1.0, 7.5, 2.2e15, 4e300)
           for y in (numerics._ERROR_EXPONENT, 1.0 / 8.0)]


def _kernels_source(n: int) -> str:
    """``attempt`` and ``dense`` of ``numerics._dop853_kernels(n)`` in C: the
    same sums over the same locals (``k{s}_{i}``: component i of K_s).
    ``attempt`` leaves the stages K_1..K_11 in ``st`` for ``dense``, which
    writes the step's row of the table."""
    ix = range(n)
    lit = float.hex

    def load(prefix, array):
        return "".join(f"    const double {prefix}{i} = {array}[{i}];\n" for i in ix)

    def stage(s):  # K_s at the combination of K_0..K_s-1
        args = "".join(f"    s[{i}] = y{i} + h * {numerics._sum_code(numerics._A[s], i, lit)};\n" for i in ix)
        return args + f"    rhs(c, t + {lit(numerics._C[s])} * h, s, r);\n" + load(f"k{s}_", "r")

    stages = [(s, i) for s in range(1, 12) for i in ix]
    row = ["t", "h", *(f"y{i}" for i in ix), *(f"d{i}" for i in ix)]
    row += [f"h * k0_{i} - d{i}" for i in ix]
    row += [f"2.0 * d{i} - h * (k12_{i} + k0_{i})" for i in ix]
    row += [f"h * {numerics._sum_code(d, i, lit)}" for d in numerics._D for i in ix]
    squares = lambda e: "0.0" + "".join(f" + {e}{i} * {e}{i}" for i in ix)
    return (
        "static void attempt(const double *c, double t, double t_new, const double *y, const double *f,\n"
        "                    double h, double atol, double rtol, double *y_new, double *f_new,\n"
        "                    double *e5, double *e3, double *st)\n{\n"
        "    double s[N], r[N];\n" + load("y", "y") + load("k0_", "f")
        + "".join(stage(s) for s in range(1, 12))
        + "".join(f"    const double yn{i} = y{i} + h * {numerics._sum_code(numerics._B, i, lit)};\n"
                  f"    y_new[{i}] = yn{i};\n" for i in ix)
        + "    rhs(c, t_new, y_new, f_new);\n" + load("k12_", "f_new")
        + "".join(
            f"    const double a{i} = fabs(y{i});\n    const double b{i} = fabs(yn{i});\n"
            f"    const double s{i} = atol + (b{i} > a{i} ? b{i} : a{i}) * rtol;\n"
            f"    const double e5_{i} = ({numerics._sum_code(numerics._E5, i, lit)} + {numerics._guard_code(i)}) / s{i};\n"
            f"    const double e3_{i} = {numerics._sum_code(numerics._E3, i, lit)} / s{i};\n" for i in ix)
        + f"    *e5 = {squares('e5_')};\n    *e3 = {squares('e3_')};\n"
        + "".join(f"    st[{k}] = k{s}_{i};\n" for k, (s, i) in enumerate(stages))
        + "}\n\n"
        "static void dense(const double *c, double t, const double *y, const double *f, double h,\n"
        "                  const double *y_new, const double *f_new, const double *st, double *row)\n{\n"
        "    double s[N], r[N];\n" + load("y", "y") + load("k0_", "f") + load("yn", "y_new")
        + load("k12_", "f_new")
        + "".join(f"    const double k{s}_{i} = st[{k}];\n" for k, (s, i) in enumerate(stages))
        + "".join(stage(s) for s in range(13, 16))
        + "".join(f"    const double d{i} = yn{i} - y{i};\n" for i in ix)
        + "".join(f"    row[{k}] = {v};\n" for k, v in enumerate(row))
        + "}\n\n"
    )


# numerics._rms, numerics._initial_step and numerics._python_steps; the table
# has a row of W doubles per accepted step: t_old, h, y_old, F_0..F_6 and the
# step's end time.  sqzq_solve returns the stop code, or -1 where the table
# cannot grow
_DRIVER = r"""
static double rms(const double *v)
{
    double total = 0.0;
    for (int i = 0; i < N; i++)
        total += v[i] * v[i];
    return sqrt(total / N);
}

static double initial_step(const double *c, double t0, const double *y0, const double *f0,
                           double span, double rel_tol, double abs_tol)
{
    double scale[N], v[N], w[N], f1[N];
    for (int i = 0; i < N; i++)
        scale[i] = abs_tol + fabs(y0[i]) * rel_tol;
    for (int i = 0; i < N; i++)
        v[i] = y0[i] / scale[i];
    const double d0 = rms(v);
    for (int i = 0; i < N; i++)
        v[i] = f0[i] / scale[i];
    const double d1 = rms(v);
    double h0 = d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1;
    h0 = span < h0 ? span : h0;
    for (int i = 0; i < N; i++)
        w[i] = y0[i] + h0 * f0[i];
    rhs(c, t0 + h0, w, f1);
    for (int i = 0; i < N; i++)
        v[i] = (f1[i] - f0[i]) / scale[i];
    const double d2 = h0 > 0 ? rms(v) / h0 : INFINITY;
    double h1;
    if (d1 <= 1e-15 && d2 <= 1e-15) {
        const double g = h0 * 1e-3;
        h1 = g > 1e-6 ? g : 1e-6;
    } else {
        const double d = d2 > d1 ? d2 : d1;
        h1 = d > 0 ? pow(0.01 / d, 1.0 / 8.0) : INFINITY;
    }
    double m = 100 * h0;
    if (h1 < m)
        m = h1;
    if (span < m)
        m = span;
    return m;
}

int sqzq_solve(const double *c, double t0, double t1, double *y, double rtol, double atol,
               double min_step, int64_t max_steps, double *t_end, int64_t *counts, double **table)
{
    double f[N], y_new[N], f_new[N], st[11 * N], e5, e3, h = 0.0, t_new = t0;
    double *rows = NULL;
    int64_t cap = 0, n_evals = 2, n_accepted = 0, n_rejected = 0;
    double t = t0;
    rhs(c, t, y, f);
    double h_abs = initial_step(c, t, y, f, t1 - t, rtol, atol);
    int stop = 0;
    for (int i = 0; i < N; i++)
        if (!isfinite(f[i]))
            stop = 1;
    while (t < t1 && !stop) {
        h_abs = min_step > h_abs ? min_step : h_abs;
        int rejected = 0;
        for (;;) {
            if (h_abs < min_step) {
                stop = 2;
                break;
            }
            if (n_accepted + n_rejected >= max_steps) {
                stop = 3;
                break;
            }
            t_new = t1 < t + h_abs ? t1 : t + h_abs;
            h = t_new - t;
            h_abs = fabs(h);
            attempt(c, t, t_new, y, f, h, atol, rtol, y_new, f_new, &e5, &e3, st);
            n_evals += 12;
            const double error_norm = e5 != 0.0 ? h_abs * e5 / sqrt((e5 + 0.01 * e3) * N) : 0.0;
            if (error_norm < 1) {
                double factor;
                if (error_norm == 0) {
                    factor = MAX_FACTOR;
                } else {
                    const double g = SAFETY * pow(error_norm, ERROR_EXPONENT);
                    factor = g < MAX_FACTOR ? g : MAX_FACTOR;
                }
                if (rejected)
                    factor = factor < 1.0 ? factor : 1.0;
                h_abs *= factor;
                n_accepted++;
                break;
            }
            const double g = SAFETY * pow(error_norm, ERROR_EXPONENT);
            h_abs *= g > MIN_FACTOR ? g : MIN_FACTOR;
            rejected = 1;
            n_rejected++;
        }
        if (stop)
            break;
        if (n_accepted > cap) {
            cap = cap ? 2 * cap : CHUNK;
            double *grown = realloc(rows, (size_t)cap * W * sizeof(double));
            if (!grown) {
                free(rows);
                return -1;
            }
            rows = grown;
        }
        double *row = rows + (n_accepted - 1) * W;
        dense(c, t, y, f, h, y_new, f_new, st, row);
        row[W - 1] = t_new;
        n_evals += 3;
        t = t_new;
        for (int i = 0; i < N; i++) {
            y[i] = y_new[i];
            f[i] = f_new[i];
        }
    }
    *t_end = t;
    counts[0] = n_evals;
    counts[1] = n_accepted;
    counts[2] = n_rejected;
    *table = rows;
    return stop;
}

void sqzq_rhs(const double *c, int64_t m, const double *ys, double *out)
{
    for (int64_t k = 0; k < m; k++)
        rhs(c, 0.0, ys + k * N, out + k * N);
}

double sqzq_pow(double x, double y)
{
    return pow(x, y);
}

void sqzq_free(double *rows)
{
    free(rows);
}
"""


def _library_source(rhs_source: str, n: int) -> str:
    """The whole C source: the right-hand side, the kernels and the driver on
    n-component states."""
    defines = {
        "N": n, "W": "(2 + 8 * N + 1)", "CHUNK": _CHUNK,
        "SAFETY": float.hex(numerics._SAFETY), "MIN_FACTOR": float.hex(numerics._MIN_FACTOR),
        "MAX_FACTOR": float.hex(numerics._MAX_FACTOR), "ERROR_EXPONENT": float.hex(numerics._ERROR_EXPONENT),
    }
    return (
        "#include <math.h>\n#include <stdint.h>\n#include <stdlib.h>\n\n"
        + "".join(f"#define {name} {value}\n" for name, value in defines.items()) + "\n"
        + rhs_source + "\n" + _kernels_source(n) + _DRIVER
    )


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    # the XDG spec ignores a relative path
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "sqzq")


def _intact(path: str) -> bool:
    """Whether ``path`` holds a library whose last bytes are the sha256 of the others."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return False
    return len(data) > _DIGEST and hashlib.sha256(data[:-_DIGEST]).digest() == data[-_DIGEST:]


def _build(command: list, source: str, path: str) -> bool:
    """Compile ``source`` with ``command`` and move the library, with its
    digest appended, to ``path``; False where that fails."""
    # only a build needs them: a warm load is a few milliseconds without
    import subprocess
    import tempfile

    folder = os.path.dirname(path)
    try:
        os.makedirs(folder, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=folder, prefix=".build-") as tmp:
            c_file, so = os.path.join(tmp, "dop853.c"), os.path.join(tmp, "dop853.so")
            with open(c_file, "w", encoding="utf-8") as fh:
                fh.write(source)
            subprocess.run([*command, "-o", so, c_file, "-lm"], check=True, capture_output=True, timeout=300)
            with open(so, "rb") as fh:
                digest = hashlib.sha256(fh.read()).digest()
            with open(so, "ab") as fh:
                fh.write(digest)
            os.replace(so, path)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


class _Library:
    """A loaded library, and whether its bits were found to be Python's."""

    def __init__(self, path: str):
        dll = ctypes.CDLL(path)
        double, ptr, i64 = ctypes.c_double, ctypes.c_void_p, ctypes.c_int64
        dll.sqzq_solve.argtypes = [ptr, double, double, ptr, double, double, double, i64, ptr, ptr,
                                   ctypes.POINTER(ctypes.POINTER(double))]
        dll.sqzq_solve.restype = ctypes.c_int
        dll.sqzq_rhs.argtypes = [ptr, i64, ptr, ptr]
        dll.sqzq_rhs.restype = None
        dll.sqzq_pow.argtypes = [double, double]
        dll.sqzq_pow.restype = double
        dll.sqzq_free.argtypes = [ptr]
        dll.sqzq_free.restype = None
        self.dll = dll
        self.differs = any(
            float.hex(dll.sqzq_pow(x, y)) != float.hex(x**y) for x, y in _POWERS
        )
        self.agreed: set = set()  # the constants of the models checked

    def agrees(self, problem) -> bool:
        """Whether the compiled right-hand side gives ``problem.rhs``'s bits at
        its probes: checked once per model, and a library that differs once
        is not used again.  A NaN may differ in payload and sign (the compiler
        may swap the operands of a product), which no output shows: a NaN
        stage rejects its step, and NaN samples are dropped or refused."""
        compiled = problem.compiled
        constants = np.array(compiled.constants, dtype=float)
        key = constants.tobytes()
        if self.differs or key in self.agreed:
            return not self.differs
        states = np.array(compiled.probes, dtype=float).reshape(len(compiled.probes), problem.y0.size)
        got = np.empty_like(states)
        self.dll.sqzq_rhs(constants.ctypes.data, len(states), states.ctypes.data, got.ctypes.data)
        want = np.array([problem.rhs(0.0, s) for s in states.tolist()], dtype=float).reshape(states.shape)
        same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
        self.differs = not same.all()
        self.agreed.add(key)
        return not self.differs


@lru_cache(maxsize=None)
def _library(rhs_source: str, n: int):
    """The library of ``rhs_source`` on n-component states, loaded from the
    cache or built into it once per process; None where neither can be."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None
    source = _library_source(rhs_source, n)
    command = [cc, *_FLAGS]
    key = hashlib.sha256("\0".join([source, *command]).encode()).hexdigest()
    path = os.path.join(_cache_dir(), f"dop853-{key}.so")
    if not (_intact(path) or _build(command, source, path) and _intact(path)):
        return None
    try:
        return _Library(path)
    except OSError:
        return None


def steps(problem, t0: float, t1: float, min_step: float, max_steps: int):
    """``numerics._python_steps`` of a problem with a compiled right-hand
    side, run by the library, with the same return values and bits; None
    where no library can run it."""
    n = problem.y0.size
    lib = _library(problem.compiled.source, n)
    if lib is None or not lib.agrees(problem):
        return None
    constants = np.array(problem.compiled.constants, dtype=float)
    y = np.array(problem.y0, dtype=float)
    t_end = np.empty(1)
    counts = np.zeros(3, dtype=np.int64)
    table = ctypes.POINTER(ctypes.c_double)()
    stop = lib.dll.sqzq_solve(
        constants.ctypes.data, t0, t1, y.ctypes.data, problem.rel_tol, problem.abs_tol, min_step,
        max_steps, t_end.ctypes.data, counts.ctypes.data, ctypes.byref(table),
    )
    if stop < 0:
        raise MemoryError("no memory for the solver's table of accepted steps")
    n_evals, n_accepted, n_rejected = (int(v) for v in counts)
    width = 2 + 8 * n + 1
    rows = np.ctypeslib.as_array(table, (n_accepted, width)).copy() if n_accepted else np.empty((0, width))
    lib.dll.sqzq_free(table)
    return stop, float(t_end[0]), y, rows[:, :-1], rows[:, -1], n_evals, n_accepted, n_rejected
