"""Run one workload of the sqzq benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

All four workloads, one after another:

    for w in verify quantise portrait dynamics; do
        python3 bench/run.py --workload $w --seed 1 --seconds 20 --trace 0 || break
    done

Run from the root of a source checkout: the program is imported from
``./src``, and outputs go under ``./.bench_work/NAME``.  One process, one
thread (the BLAS pool and the CLI's portrait pool, SQZQ_THREADS, are pinned to
one thread before numpy loads).

With ``--trace 0`` the run measures untraced passes for ``--seconds`` and
reports the end-to-end metrics; their times are rescaled to a reference host
speed by a fixed kernel run before, during and after each request (see
``calibration``), and the raw times are printed beside them.  With
``--trace 1`` it alternates untraced and traced passes for ``--seconds`` and
reports the per-layer metrics, each a mean per traced pass.  Either way the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every correctness
gate held.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

WORKLOAD_NAMES = ("verify", "quantise", "portrait", "dynamics")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "sqzq" / "__init__.py").is_file():
        print(f"no program source at {src}/sqzq; run from the root of a sqzq checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SQZQ_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import sqzq

    if Path(sqzq.__file__).resolve().parent != (src / "sqzq").resolve():
        print(f"imported sqzq from {sqzq.__file__}, not from {src}", file=sys.stderr)
        return 2

    import harness
    import workloads

    workdir = root / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    env = harness.environment()
    setup, setup_raw = ([], []) if args.trace else harness.setup_seconds(str(src))
    workload = workloads.BY_NAME[args.workload](args.seed, workdir)

    print(f"workload {args.workload}  seed {args.seed}  seconds {_fmt(args.seconds)}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for note in workload.notes:
        print("note: " + note)

    if args.trace:
        tracer = harness.make_tracer()
        untraced, traced = harness.measure_traced(workload, args.seconds, tracer)
        passes = untraced + traced
        metrics = harness.layer_metrics(tracer, traced, untraced)
        extra = [
            workloads.gate("trace.bindings_restored", not tracer.unrestored()),
            workloads.Witness("trace.self_time_sum", harness.self_time_gap(metrics), 1e-9),
        ]
        passes[-1].witnesses.extend(extra)
        tracer.write(workdir / "spans.json")
        units = harness.PER_LAYER
        print(f"passes: {len(untraced)} untraced, {len(traced)} traced; {len(tracer.bindings)} bindings wrapped")
    else:
        passes = harness.measure(workload, args.seconds, workload.min_passes)
        metrics = harness.end_to_end(passes, setup)
        units = harness.END_TO_END
        n_lat = sum(len(p.latencies) for p in passes)
        raw = harness.raw_times(passes, setup_raw)
        print(f"passes: {len(passes)}; pass walls " + ", ".join(f"{p.wall_s:.4g} s" for p in passes))
        print("setup samples " + ", ".join(f"{s:.4g} s" for s in setup))
        print(f"latency percentiles over {n_lat} requests")
        print("times are at the reference host speed; raw: "
              + ", ".join(f"{name} {_fmt(value)}" for name, value in raw.items()))

    witnesses = [w for p in passes for w in p.witnesses]
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    digits, worst = harness.accuracy(witnesses)
    bad = [w for w in witnesses if not w.ok]
    correct = failed == 0 and not bad
    for name, value in metrics.items():
        print(f"{name} = {_fmt(value)} {units[name]}")
    print(f"failed_frac = {_fmt(failed / attempted)} ({failed} of {attempted} requests)")
    if worst is not None:
        print(f"worst witness: {worst.id} deviation {worst.deviation:.3g} (tolerance {worst.tolerance:.3g}); "
              f"{len(witnesses)} witnesses, accuracy {digits:.4g} digits")
    for w in bad:
        print(f"GATE FAILED: {w.id} deviation {w.deviation!r} tolerance {w.tolerance!r}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=env, setup_samples_s=setup, setup_raw_s=setup_raw,
                  pass_walls_s=[p.wall_s for p in passes], pass_raw_walls_s=[p.raw_wall_s for p in passes],
                  latencies_s=[p.latencies for p in passes], raw_latencies_s=[p.raw_latencies for p in passes],
                  witnesses=[vars(w) for w in witnesses])
    (workdir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    shutil.rmtree(workdir / "out", ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
