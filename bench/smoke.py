"""Smoke test of the benchmark itself: every workload at a reduced size, untraced
and traced, plus the refusal to run without the program's sources.

Run from anywhere: `python3 bench/smoke.py`.  It prints one line per run and
exits non-zero at the first failed assertion.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600
PROVENANCE_KEYS = {"git_commit", "entact_source_sha256", "python", "numpy", "scipy", "blas",
                   "thread_env", "nproc", "seed", "bench_argv", "commands", "config_file"}


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: str = "7"):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", seed,
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def check(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def check_run(workload: str, trace: int, declared: dict):
    r = bench(workload, trace)
    tag = f"{workload} --trace {trace}"
    check(r.returncode == 0, f"{tag}: exit code {r.returncode}\n{r.stderr[-3000:]}")
    lines = r.stdout.strip().splitlines()
    details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])

    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag}: failed checks {details['checks']}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    check(units == declared, f"{tag}: metrics and units differ from BENCHMARK.json: "
          f"{sorted(set(units.items()) ^ set(declared.items()))}")
    check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
              for m in result["metrics"].values()), f"{tag}: non-finite metric value")

    checks = details["checks"]
    check(checks["fail_ratio"] == checks["failed"] / checks["attempted"] == 0,
          f"{tag}: fail_ratio {checks['fail_ratio']}")
    check("median" in details["cpu_s"], f"{tag}: no cpu_s diagnostic")
    if not trace:
        check("median" in details["measured_wall_s"] and details["host_speed"]
              and "median" in details["measured_setup_s"]
              and "median" in details["reference_startup_s"],
              f"{tag}: no raw times or host-speed samples")
    check(PROVENANCE_KEYS <= set(details["provenance"]), f"{tag}: provenance incomplete")
    check(details["provenance"]["seed"] == 7, f"{tag}: seed not recorded")
    if workload == "certify-sweep":
        check(set(details["observed"]["min_low"]) == {"0.00", "0.20"}, f"{tag}: margins")
    if trace:
        # same checks on both sides, plus one output-equality check per traced call
        phases = details["phase_checks"]
        per_call = {k: v["attempted"] / v["calls"] for k, v in phases.items()}
        check(per_call["traced"] == per_call["untraced"] + 1 and
              phases["traced"]["failed"] == phases["untraced"]["failed"] == 0,
              f"{tag}: traced and untraced checks differ: {phases}")
        check(details["baseline_check"] and details["spans"], f"{tag}: no baseline or spans")
    print(f"ok  {tag}: {result['attempted']} checks, {len(units)} metrics", flush=True)


def check_refusals():
    """A tree holding only BENCHMARK.json and bench/ must fail without a result,
    and so must a negative seed."""
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        r = bench("quick-commands", 0, cwd=bare)
        check(r.returncode != 0 and '"metrics"' not in r.stdout,
              f"bare tree: exit code {r.returncode}, stdout {r.stdout[-500:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    r = bench("quick-commands", 0, seed="-1")
    check(r.returncode != 0 and '"metrics"' not in r.stdout, "negative seed accepted")
    print("ok  refusals: bare tree and negative seed", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check_refusals()
    for w in spec["workloads"]:
        check_run(w["name"], 0, end_to_end)
        check_run(w["name"], 1, per_layer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
