"""Benchmark of the entact CLI: one workload per run, closed loop, one caller.

Run from the root of a checkout:

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 25 --trace 0

The run calls `entact.cli.main` in this process, back to back, until the next
call would end after `--seconds`, and checks the outputs of every call.  With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json, with call
and set-up times taken at a fixed host speed (see speed.py); with
`--trace 1` it spends half the time untraced and half with spans installed
(see tracing.py) and reports the per-layer metrics.  The last line of stdout
is the result object; the line before it holds the run's details: samples,
check failures, observed outputs, provenance and, when traced, the span tree
and the baseline check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Optional

import speed
from tracing import COUNTER_NAMES, SPAN_NAMES, Tracer
from workloads import BASELINE_SPANS, WORKLOADS, Spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
BASELINE_FACTOR = 2.0  # a layer more than this factor off its baseline row is flagged
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
FINGERPRINTED = ("*.csv", "tomo_*.json")  # outputs free of timestamps and paths


@dataclass
class Call:
    """One timed workload call and the checks on its outputs."""

    wall: float
    cpu: float
    speed_wall: Optional[float]  # wall at the nominal host speed, when sampled
    slices: int  # reference slices taken during the call
    command_walls: dict
    checks: list  # (name, ok)
    error: Optional[str]
    observed: dict
    bytes_written: int
    fingerprint: Optional[str]


def _fingerprint(out_dir: Path, observed: dict) -> str:
    h = hashlib.sha256(json.dumps(observed, sort_keys=True).encode())
    for pattern in FINGERPRINTED:
        for path in sorted(out_dir.glob(pattern)):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_call(spec: Spec, out_dir: Path, sample_speed: bool = False) -> Call:
    """Run every command of one workload call on a fresh output directory, then check it."""
    import entact.cli  # looked up per call, so the traced run sees the wrapped main

    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    stdouts, command_walls, error = [], {}, None
    sampler = speed.SpeedSampler() if sample_speed else None
    cpu0, t0 = process_time(), perf_counter()
    with sampler or nullcontext():
        for argv in spec.commands:
            buf = io.StringIO()
            c0 = perf_counter()
            try:
                with redirect_stdout(buf):
                    rc = entact.cli.main(argv)
            except SystemExit as e:  # argparse rejects bad arguments this way
                rc = e.code
            except Exception:  # a crashing call fails its checks; the run goes on
                rc, error = None, traceback.format_exc()
            command_walls[argv[0]] = perf_counter() - c0
            stdouts.append(buf.getvalue())
            if rc != 0:
                error = error or f"{argv[0]} exited with code {rc}"
                break
    wall, cpu = perf_counter() - t0, process_time() - cpu0
    speed_wall = sampler.normalise(wall) if sampler else None
    slices = len(sampler.slices) - 1 if sampler else 0

    checks, observed = [], {}
    if error is None:
        try:
            checks, observed = spec.check(out_dir, stdouts)
        except Exception:  # unreadable or missing outputs fail every check
            error = traceback.format_exc()
    if error is None and len(checks) != spec.n_checks:
        error = f"{len(checks)} checks ran where {spec.n_checks} were expected"
    if error is not None:
        checks = [("call completed with readable outputs", False)] * spec.n_checks
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) \
        if out_dir.exists() else 0
    fingerprint = None if error else _fingerprint(out_dir, observed)
    return Call(wall, cpu, speed_wall, slices, command_walls, checks, error, observed, written,
                fingerprint)


def measure(spec: Spec, out_dir: Path, seconds: float, sample_speed: bool = False) -> list:
    """Closed loop: start the next call only if it is predicted to end within `seconds`."""
    calls = []
    start = perf_counter()
    while True:
        calls.append(run_call(spec, out_dir, sample_speed))
        if perf_counter() - start + calls[-1].wall > seconds:
            return calls


def measure_setup(n: int = SETUP_PROBES) -> list:
    """(probe, reference) seconds, n times: from starting a fresh interpreter until
    probe.py reports ready, and a reference start-up run just before it."""
    times = []
    for _ in range(n):
        reference = speed.reference_startup(ROOT)
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py")], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}: "
                               f"{err.strip()[-2000:]}")
        times.append((dt, reference))
    return times


def summary(values) -> dict:
    values = list(values)
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def check_counts(calls: list) -> dict:
    return {"calls": len(calls), "attempted": sum(len(c.checks) for c in calls),
            "failed": sum(not ok for c in calls for _, ok in c.checks)}


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # the benchmark may run from an exported tree
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def provenance(args, spec: Spec) -> dict:
    import entact
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "entact").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "entact_source_sha256": digest.hexdigest(),
        "entact": entact.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "bench_argv": sys.argv,
        "commands": [list(c) for c in spec.commands],
        "config_file": spec.config,
    }


def baseline_check(spec: Spec, layers: dict, plain: list) -> list:
    """Per-call cost of each exercised row of the ROADMAP baseline table, flagged
    when it is more than BASELINE_FACTOR off in either direction."""
    rows = []
    for name, base in BASELINE_SPANS.items():
        calls, total, self_s = layers[name]
        if calls:
            rows.append({"row": name, "baseline_s": base, "measured_s": total / calls,
                         "self_s_per_call": self_s / calls})
    for command, base in spec.baseline.items():
        rows.append({"row": f"cli {command}", "baseline_s": base,
                     "measured_s": statistics.median(c.command_walls[command] for c in plain
                                                     if command in c.command_walls)})
    for row in rows:
        row["ratio"] = row["measured_s"] / row["baseline_s"]
        row["flagged"] = not 1 / BASELINE_FACTOR <= row["ratio"] <= BASELINE_FACTOR
    return rows


def layer_metrics(tracer: Tracer, traced: list, plain: list) -> dict:
    """Per-layer metrics, each per workload call, in the form of the result object."""
    n = len(traced)
    layers = tracer.by_name()
    metrics = {}
    for name in SPAN_NAMES:
        calls, _, self_s = layers[name]
        if name != "cli.main":
            metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
    for name in COUNTER_NAMES:
        metrics[name] = (tracer.counts[name] / n, "count")
    metrics["cli.bytes_written"] = (statistics.mean(c.bytes_written for c in traced), "bytes")
    metrics["trace.overhead_s"] = (statistics.median(c.wall for c in traced)
                                   - statistics.median(c.wall for c in plain), "s")
    return metrics


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**63:
        raise argparse.ArgumentTypeError("seed must be a non-negative 63-bit integer")
    return seed


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--seconds", required=True, type=_positive)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="reduced workload sizes, used by bench/smoke.py")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entact" / "__init__.py").is_file():
        print(f"bench: no entact sources at {SRC / 'entact'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    try:
        setup = [] if args.trace else measure_setup()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    import entact
    from probe import warm_up

    if Path(entact.__file__).resolve().parent != (SRC / "entact").resolve():
        print(f"bench: imported entact from {entact.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    warm_up()

    run_dir = OUT_ROOT.relative_to(ROOT) / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        spec = WORKLOADS[args.workload](args.seed, args.smoke, run_dir)
        out_dir = run_dir / "out"
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "smoke": args.smoke, "loop": "closed, one caller"}
        if args.trace:
            plain = measure(spec, out_dir, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(spec, out_dir, args.seconds / 2)
            finally:
                tracer.uninstall()
            for c in traced:  # the wrappers must not change what the CLI writes
                c.checks.append(("traced outputs equal the untraced outputs",
                                 c.error is None and c.fingerprint == plain[0].fingerprint))
            untraced, calls = plain, plain + traced
            metrics = layer_metrics(tracer, traced, plain)
            baseline = baseline_check(spec, tracer.by_name(), plain)
            details.update(untraced_wall_s=summary(c.wall for c in plain),
                           traced_wall_s=summary(c.wall for c in traced),
                           phase_checks={"untraced": check_counts(plain),
                                         "traced": check_counts(traced)},
                           baseline_check=baseline, spans=tracer.tree_report())
            for row in baseline:
                if row["flagged"]:
                    print(f"bench: baseline row {row['row']} measured {row['measured_s']:.3g} s "
                          f"per call against {row['baseline_s']:.3g} s", file=sys.stderr)
        else:
            speed.warm_up()
            untraced = calls = measure(spec, out_dir, args.seconds, sample_speed=True)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_s = [speed.NOMINAL_STARTUP_S * probe / ref for probe, ref in setup]
            metrics = {"wall_s": (statistics.median(c.speed_wall for c in calls), "s"),
                       "setup_s": (statistics.median(setup_s), "s"),
                       "peak_rss_mib": (peak_rss_mib, "MiB")}
            details.update(wall_s=summary(c.speed_wall for c in calls),
                           measured_wall_s=summary(c.wall for c in calls),
                           host_speed={"nominal_slice_s": speed.NOMINAL_SLICE_S,
                                       "period_s": speed.PERIOD_S,
                                       "slices_per_call": summary(c.slices for c in calls),
                                       "nominal_startup_s": speed.NOMINAL_STARTUP_S},
                           setup_s=summary(setup_s),
                           measured_setup_s=summary(probe for probe, _ in setup),
                           reference_startup_s=summary(ref for _, ref in setup))

        totals = check_counts(calls)
        details.update(
            calls=len(calls),
            command_wall_s={cmd: statistics.median(c.command_walls[cmd] for c in untraced
                                                   if cmd in c.command_walls)
                            for cmd in untraced[0].command_walls},
            cpu_s=summary(c.cpu for c in untraced),
            checks={**totals, "fail_ratio": totals["failed"] / totals["attempted"],
                    "failures": sorted({name for c in calls for name, ok in c.checks if not ok}),
                    "errors": sorted({c.error for c in calls if c.error})},
            observed=calls[0].observed,
            provenance=provenance(args, spec),
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
