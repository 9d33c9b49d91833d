"""Compiled C for the two hot loops that have one: ``solve_ode``'s DOP853
driver around a problem's right-hand side (the library ``dop853``), and the
CSV writer (``csv``).  One loader, ``_library``, builds each into a cached
shared library and loads it with ctypes.

The solver's C makes the Python kernels' float operations in their order.
The kernels are emitted from the same tableau sums (``numerics._sum_code``
and ``numerics._guard_code``, with hexadecimal literals), and the driver
(``_DRIVER``) is ``numerics._python_steps`` and ``numerics._initial_step``
statement for statement.  Python's ``min(a, b)`` is written
``b < a ? b : a`` and ``max(a, b)`` ``b > a ? b : a``, which pick what they
pick when one is NaN; ``x ** y`` is ``pow``; ``if e5`` is ``e5 != 0.0``, true
for NaN as in Python.  Compiled without contraction or fast math
(``_FLAGS``), every operation rounds as Python's does, so a trajectory has
the Python kernels' bits and the same step counts.

The CSV writer (``_CSV_SOURCE``) spells each float64 as '%.17g' does, from
exact integer arithmetic where 1e-11 <= |x| < 1e15 and from glibc's exact
'%.16e' digits elsewhere; ``csv`` gives a block's bytes.

Both libraries share one cache, ``${XDG_CACHE_HOME:-~/.cache}/sqzq/``.  A
library is ``<name>-<sha256>.so``, named by the sha256 of its C source and
the compiler command: a new source or compiler gives a new file, and no file
goes stale.  It is written under a temporary name and moved into place, and
it ends with the sha256 of its other bytes, so a truncated or damaged file is
rebuilt and never loaded.  A build that fails leaves
``<name>-<sha256>.failed``, and no later process runs the compiler on that
source and command again.  Without a C compiler (``cc`` or ``gcc`` on PATH),
with an unwritable cache or a failing build, ``steps`` and ``csv`` return
None and their callers run the Python code.

Before a library is used, its output must be Python's.  The CSV writer must
write a fixed probe block (``_probe``) byte for byte as '%' does, once per
process.  The solver's ``pow`` must give Python's at fixed arguments, and,
before it runs a model for the first time in a process, its right-hand side
the Python one's bits (NaN payloads aside) at the problem's probe states.  A
libm whose ``erfc``, ``exp`` or ``pow`` is not the one ``math`` calls would
fail that, and a library that fails once is not used again in the process.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
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


@lru_cache(maxsize=None)
def _library_source(rhs_source: str, n: int) -> str:
    """The whole C source: the right-hand side, the kernels and the driver on
    n-component states.  Emitted once: every solve asks for it."""
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


# the bytes a cell and its separator take at most (see ``cell``)
_CELL_BYTES = 25

# One row of the block is a line, its cells separated by ','.  A value
# 1e-11 <= |x| < 1e15 is m 2^e2 (``digits``): its 17 digits are the scaled
# m 5^k, shifted and rounded on the exact remainder in 128 bits, ties to even
# as in David Gay's dtoa, which '%' runs.  'nan', 'inf', '-inf', '0' and '-0'
# are spelt as Python spells them.
_CSV_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* the ASCII of 00, 01, ..., 99 */
static const char PAIRS[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* 5^k for k = 0..27, the powers below 2^63 */
static const uint64_t POW5[28] = {
    1ull, 5ull, 25ull, 125ull, 625ull, 3125ull, 15625ull, 78125ull, 390625ull, 1953125ull,
    9765625ull, 48828125ull, 244140625ull, 1220703125ull, 6103515625ull, 30517578125ull,
    152587890625ull, 762939453125ull, 3814697265625ull, 19073486328125ull, 95367431640625ull,
    476837158203125ull, 2384185791015625ull, 11920928955078125ull, 59604644775390625ull,
    298023223876953125ull, 1490116119384765625ull, 7450580596923828125ull,
};

#define TEN16 10000000000000000ull
#define TEN17 100000000000000000ull

/* the eight decimal digits of v < 10^8 at d */
static void eight(char *d, uint32_t v)
{
    const uint32_t a = v / 10000, b = v % 10000;
    memcpy(d, PAIRS + 2 * (a / 100), 2);
    memcpy(d + 2, PAIRS + 2 * (a % 100), 2);
    memcpy(d + 4, PAIRS + 2 * (b / 100), 2);
    memcpy(d + 6, PAIRS + 2 * (b % 100), 2);
}

/* The 17 significant digits of a > 0 (finite) as '%.17g' rounds them, at d;
   returns their decimal exponent X, the first digit's place.

   For 1e-11 <= a < 1e15, a = m 2^e2 with a 53-bit m, and the digits are
   N = a 10^(16 - X) rounded to an integer, ties to even.  With k = 16 - X in
   [2, 27], m 5^k < 2^116 is exact in 128 bits, and N is its shift by
   s = -(e2 + k) bits, between 1 and 63, rounded on the exact remainder.  X
   starts at floor(log10 2^E) for a's binary exponent E, one below the true
   X at most, and moves up where N reaches 10^17.  Other values take their
   digits from snprintf's '%.16e', which glibc rounds exactly too. */
static int digits(double a, char *d)
{
    if (a >= 1e-11 && a < 1e15) {
        uint64_t bits;
        memcpy(&bits, &a, sizeof bits);
        const uint64_t m = (bits & ((1ull << 52) - 1)) | (1ull << 52);
        const int e2 = (int)(bits >> 52) - 1075;
        int X = ((e2 + 52) * 78913) >> 18;
        if (X < -11)
            X = -11;
        for (;;) {
            const int k = 16 - X, s = -(e2 + k);
            const unsigned __int128 p = (unsigned __int128)m * POW5[k];
            const uint64_t floor = (uint64_t)(p >> s);
            if (floor >= TEN17) {
                X++;
                continue;
            }
            if (floor >= TEN16) {
                const unsigned __int128 half = (unsigned __int128)1 << (s - 1);
                const unsigned __int128 rem = p & ((half << 1) - 1);
                uint64_t n = floor + (rem > half || (rem == half && (floor & 1)));
                if (n == TEN17) {
                    n = TEN16;
                    X++;
                }
                const uint64_t high = n / 100000000;
                d[0] = (char)('0' + high / 100000000);
                eight(d + 1, (uint32_t)(high % 100000000));
                eight(d + 9, (uint32_t)(n % 100000000));
                return X;
            }
            break; /* below 10^-11 after all */
        }
    }
    char text[32];
    snprintf(text, sizeof text, "%.16e", a);
    d[0] = text[0];
    memcpy(d + 1, text + 2, 16);
    int X = 0;
    for (const char *e = text + 20; *e; e++)
        X = 10 * X + (*e - '0');
    return text[19] == '-' ? -X : X;
}

/* x as '%.17g' writes it, at out; returns its length, at most 24 bytes: a
   sign, then "0.000" and 17 digits, or d.dddddddddddddddde-308 */
static int cell(double x, char *out)
{
    char *o = out;
    if (isnan(x)) {
        memcpy(o, "nan", 3);
        return 3;
    }
    if (signbit(x)) {
        *o++ = '-';
        x = -x;
    }
    if (x == 0) {
        *o++ = '0';
        return (int)(o - out);
    }
    if (isinf(x)) {
        memcpy(o, "inf", 3);
        return (int)(o - out) + 3;
    }
    char d[17];
    const int X = digits(x, d);
    int nd = 17;
    while (nd > 1 && d[nd - 1] == '0')
        nd--;
    if (X >= 0 && X < 17) {
        memcpy(o, d, X + 1);
        o += X + 1;
        if (nd > X + 1) {
            *o++ = '.';
            memcpy(o, d + X + 1, nd - X - 1);
            o += nd - X - 1;
        }
    } else if (X < 0 && X >= -4) {
        memcpy(o, "0.000", 1 - X);
        o += 1 - X;
        memcpy(o, d, nd);
        o += nd;
    } else {
        *o++ = d[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, d + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = X < 0 ? '-' : '+';
        const int e = X < 0 ? -X : X;
        if (e >= 100)
            *o++ = (char)('0' + e / 100);
        memcpy(o, PAIRS + 2 * (e % 100), 2);
        o += 2;
    }
    return (int)(o - out);
}

/* The rows x[r cols .. r cols + cols - 1] as CSV lines at out, which holds
   25 bytes a cell; returns the bytes written. */
int64_t sqzq_csv(const double *x, int64_t rows, int64_t cols, char *out)
{
    char *o = out;
    for (int64_t r = 0; r < rows; r++)
        for (int64_t j = 0; j < cols; j++) {
            o += cell(*x++, o);
            *o++ = j + 1 < cols ? ',' : '\n';
        }
    return o - out;
}
"""


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
            c_file, so = os.path.join(tmp, "library.c"), os.path.join(tmp, "library.so")
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


def _pow_differs(dll) -> bool:
    return any(float.hex(dll.sqzq_pow(x, y)) != float.hex(x**y) for x, y in _POWERS)


def _probe() -> list:
    """The CSV writer's check block: every decade its exact path spans, a
    few beyond it and the first with three exponent digits, each with its
    neighbours; ties of the 18th digit (odd j 2^-p with 18 significant
    digits, the last a 5), rounded up and down; subnormals and the float
    range's ends; NaN, the infinities and both zeros; and the widest cells.
    Each value also appears negated."""
    values = []
    for e in (-100, *range(-13, 18), 99, 100):
        decade = float(f"1e{e}")
        values += [decade, math.nextafter(decade, 0.0), math.nextafter(decade, math.inf)]
    for p in (2, 7, 13, 19, 25):
        j = -(-10**17 // 5**p) | 1
        values += [math.ldexp(j, -p), math.ldexp(j + 2, -p)]
    values += [5e-324, 2.5e-310, 2.0**-1022, math.nextafter(2.0**-1022, 0.0), 1.7976931348623157e308,
               1.2345678901234567e-308, 0.00012345678901234567, 0.1, 1.0 / 3.0, 2.0**53 + 2.0]
    values += [-v for v in values]
    return values + [math.nan, math.inf, -math.inf, 0.0, -0.0]


def _probe_differs(dll) -> bool:
    values = np.array(_probe()).reshape(-1, 1)
    want = ("%.17g\n" * len(values)) % tuple(values.ravel().tolist())
    return _written(dll, b"", values) != want.encode("ascii")


# what ``_library`` sets up in a library of each name: the argument and
# result types of its functions, and the check that its output is Python's
_DOUBLE, _PTR, _I64 = ctypes.c_double, ctypes.c_void_p, ctypes.c_int64
_KINDS = {
    "dop853": ({
        "sqzq_solve": ([_PTR, _DOUBLE, _DOUBLE, _PTR, _DOUBLE, _DOUBLE, _DOUBLE, _I64, _PTR, _PTR,
                        ctypes.POINTER(ctypes.POINTER(_DOUBLE))], ctypes.c_int),
        "sqzq_rhs": ([_PTR, _I64, _PTR, _PTR], None),
        "sqzq_pow": ([_DOUBLE, _DOUBLE], _DOUBLE),
        "sqzq_free": ([_PTR], None),
    }, _pow_differs),
    "csv": ({"sqzq_csv": ([_PTR, _I64, _I64, _PTR], _I64)}, _probe_differs),
}


class _Library:
    """A loaded library, and whether its output was found to be Python's."""

    def __init__(self, path: str, name: str):
        dll = ctypes.CDLL(path)
        functions, differs = _KINDS[name]
        for function, (argtypes, restype) in functions.items():
            getattr(dll, function).argtypes = argtypes
            getattr(dll, function).restype = restype
        self.dll = dll
        self.differs = differs(dll)
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
def _library(name: str, source: str):
    """The library ``name`` of C ``source``, loaded from the cache or built
    into it once per process; None where neither can be.  A failed build is
    remembered in the cache, so no process runs the compiler on the same
    source and command twice."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None
    command = [cc, *_FLAGS]
    key = hashlib.sha256("\0".join([source, *command]).encode()).hexdigest()
    stem = os.path.join(_cache_dir(), f"{name}-{key}")
    path, failed = stem + ".so", stem + ".failed"
    if not _intact(path):
        if os.path.exists(failed):
            return None
        if not (_build(command, source, path) and _intact(path)):
            try:
                open(failed, "wb").close()
            except OSError:  # an unwritable cache: the next process tries again
                pass
            return None
    try:
        return _Library(path, name)
    except OSError:
        return None


def _solver(rhs_source: str, n: int):
    """The solver library of ``rhs_source`` on n-component states, or None."""
    return _library("dop853", _library_source(rhs_source, n))


def _written(dll, head: bytes, values) -> bytearray:
    """``head``, then the rows of the C-contiguous float64 block ``values``
    as CSV lines, written by the library ``dll``."""
    rows, cols = values.shape
    out = bytearray(len(head) + _CELL_BYTES * values.size)
    out[: len(head)] = head
    view = (ctypes.c_char * len(out)).from_buffer(out)
    n = dll.sqzq_csv(values.ctypes.data, rows, cols, ctypes.byref(view, len(head)))
    del view  # the buffer's export ends, so it can shrink
    del out[len(head) + n :]
    return out


def csv(head: bytes, values) -> bytearray | None:
    """``head``, then each row of the float64 block ``values`` as a CSV line,
    every cell as '%.17g' writes it; None where no CSV library loads or its
    probe block differs from '%'."""
    lib = _library("csv", _CSV_SOURCE)
    if lib is None or lib.differs:
        return None
    return _written(lib.dll, head, np.ascontiguousarray(values, dtype=np.float64))


def steps(problem, t0: float, t1: float, min_step: float, max_steps: int):
    """``numerics._python_steps`` of a problem with a compiled right-hand
    side, run by the library, with the same return values and bits; None
    where no library can run it."""
    n = problem.y0.size
    lib = _solver(problem.compiled.source, n)
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
