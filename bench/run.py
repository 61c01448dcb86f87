"""eislab benchmark launcher.

    python3 bench/run.py --workload moment-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; eislab is imported from ``src/`` of
that checkout, never from an installed copy.  The BLAS thread count is pinned
below before numpy loads, the same for every commit.

One client drives the lab in a closed loop: each operation starts when the
previous one returns, and a pass (the workload's operation list) repeats
until ``--seconds`` is used up (at least one pass).

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced passes of the same inputs and
reports the per-layer metrics of the traced passes, plus the tracing overhead
(traced minus untraced wall time); its spans go to ``.bench_out/``.

Human-readable lines come first: one per metric, a provenance line, and the
checks that failed.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 4          # extra fresh-process set-ups, besides this process's own

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "slowest_op_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "share", "accuracy_digits": "digits",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import, fixtures and warm-up; print the seconds")
    return p.parse_args(argv)


def set_up(workload_name: str):
    """Import eislab from this checkout, build fixtures, warm up; timed."""
    if not (SRC / "eislab" / "__init__.py").is_file():
        raise SystemExit(f"error: no eislab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # imports eislab, numpy, scipy, mpmath
    import eislab
    if Path(eislab.__file__).resolve().parent != SRC / "eislab":
        raise SystemExit(f"error: eislab imported from {eislab.__file__}, not {SRC}")
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload_name]
    fx = wl.fixtures()
    wl.warm_up(fx)
    return wl, fx, time.perf_counter() - t0


def run_pass(wl, ops, fx, tracer=None):
    """Run every operation once, in order; returns timings and outputs."""
    values, errors, op_walls = [], [], []
    gc.collect()  # leave no garbage of the previous pass to this one's timing
    c0, t0 = time.process_time(), time.perf_counter()
    for i, op in enumerate(ops):
        s0 = time.perf_counter()
        try:
            if tracer is None:
                value = wl.run(op, fx)
            else:
                with tracer.op(i, op.kind):
                    value = wl.run(op, fx)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        op_walls.append(time.perf_counter() - s0)
        values.append(value)
        errors.append(error)
    return {"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0,
            "op_walls": op_walls, "values": values, "errors": errors}


def check_run(wl, ops, passes, spot_rng):
    """Checks of every pass plus the once-per-run kernel spot checks.

    Returns (checks, failed (pass, op) pairs, failure messages).
    """
    import workloads
    failed, messages, all_checks = set(), [], []
    first = passes[0]["values"]
    for k, p in enumerate(passes):
        for i, err in enumerate(p["errors"]):
            if err is not None:
                failed.add((k, i))
                messages.append(f"pass {k} op {i} ({ops[i].kind}) raised {err}")
        ok = [i for i, err in enumerate(p["errors"]) if err is None]
        if len(ok) < len(ops):
            continue  # structural checks need the whole pass
        checks = wl.checks(ops, p["values"])
        if k > 0:
            checks += [workloads.structural("rerun reproduces the first pass", i,
                                            workloads.holds(repr(v) == repr(first[i])))
                       for i, v in enumerate(p["values"])]
        for c in checks:
            all_checks.append(c)
            if not c.passed:
                failed.add((k, c.op))
                messages.append(f"pass {k} op {c.op}: {c.name}: err {c.err:.3e} > {c.tol:.1e}")
    try:
        spots = wl.spots(ops, spot_rng)
    except Exception as exc:
        spots = []
        messages.append(f"spot checks raised {type(exc).__name__}: {exc}")
        failed.update((k, 0) for k in range(len(passes)))
    for c in spots:
        all_checks.append(c)
        if not c.passed:
            failed.update((k, c.op) for k in range(len(passes)))
            messages.append(f"spot check {c.name}: err {c.err:.3e} > {c.tol:.1e}")
    return all_checks, failed, messages


def setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def provenance(args, ops) -> dict:
    import numpy
    import scipy
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "git_rev": rev, "src_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "inputs": [{"kind": op.kind, **op.args} for op in ops],
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "os_threads": threads,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, fx, setup_s = set_up(args.workload)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np
    import tracing
    ops = wl.make_ops(np.random.default_rng([args.seed, 0]))

    passes, traced, tracers = [], [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        passes.append(run_pass(wl, ops, fx))
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                tp = run_pass(wl, ops, fx, tracer)
            traced.append(tp)
            tracers.append(tracer)
        now = time.perf_counter()
        if now - t_start + (now - t_round) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, failed, messages = check_run(wl, ops, passes + traced,
                                         np.random.default_rng([args.seed, 1]))
    attempted = len(ops) * (len(passes) + len(traced))
    digits = [c.digits for c in checks if c.digits is not None]
    correct = not failed and bool(digits)

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        span_file.unlink(missing_ok=True)
        for k, tracer in enumerate(tracers):
            tracer.write(span_file, k)
        stats = [tracing.layer_stats(t, p["wall"]) for t, p in zip(tracers, traced)]
        metrics = {k: statistics.median(s[k] for s in stats) for k in stats[0]}
        metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                       - statistics.median(p["wall"] for p in passes))
        units = tracing.UNITS
    else:
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "slowest_op_s": statistics.median(max(p["op_walls"]) for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - len(failed) / attempted,
            "accuracy_digits": min(digits) if digits else 0,
        }
        units = END_TO_END_UNITS

    print(f"# {args.workload} seed {args.seed}: {len(passes)} untraced and "
          f"{len(traced)} traced passes of {len(ops)} operations")
    for label, ps in (("untraced", passes), ("traced", traced)):
        for p in ps:
            print(f"# {label} pass {p['wall']:.4f} s: operations "
                  + " ".join(f"{t:.4f}" for t in p["op_walls"]))
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    print(f"{'fail_frac':48s} {len(failed) / attempted:>16.6g} share")
    print("# provenance " + json.dumps(provenance(args, ops)))
    for msg in messages:
        print("# FAILED " + msg)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
