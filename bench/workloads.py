"""The four benchmark workloads: which `entact` CLI calls each one makes, and the
checks on their outputs.

A workload call is one unit of work timed as a whole: one CLI command, or for
`quick-commands` a pass of four.  Every check is one count towards the run's
`attempted`; a call that exits non-zero or raises fails all of its checks.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

SCHEMA_LINE = "# schema=1"
DEFAULT_Q = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_GRID_STEP = math.pi / 180
# the smoke size keeps span/step + 1/2 clear of an integer on both axes, so the
# expected row count does not hinge on how np.arange rounds its stop value
SMOKE_GRID_STEP = math.pi / 100
NET_THETA_STEP = math.pi / 12  # spacing of the CLI's default 28-setting net
MC_REPS = 50  # the floor that mc_errorbar accepts

CERTIFY_HEADER = "q,theta_rad,phi_rad,n_theory,n_low1,n_low2,n_low,cfg_hash,seed"
DISCORD_HEADER = "q,d_closed,d_numeric,min_net_negativity,q_n,status,cfg_hash,seed"
ACTIVATE_HEADER = "q,theta_rad,phi_rad,n_theory,n_value,n_std,cfg_hash,seed"
WITNESS_HEADER = "q,w2_expect,w3_expect,theory,cfg_hash,seed"

BOUND_SOUNDNESS_TOL = 1e-9
DISCORD_NUMERIC_TOL = 1e-3
QUANTUMNESS_TOL = 1e-6
MC_STD_LIMIT = 1e-2
# finite-exposure bias of the reconstructed negativity at exposure 1e4: about
# -0.010 at (0, 0) and -0.003 at (pi/4, 0) for q = 0.2, while the mean of 50
# reps has a sampling spread near 0.001
MC_BIAS_TOL = 0.02
EXACT_TOL = 1e-9
# one reconstruction at exposure 1e4 reads fidelity 0.9928 +- 0.0021 over seeds
# 60..359 (minimum 0.9867, 11% below 0.99); 0.99 bounds the mean of 100 reps in
# acceptance test 7, not a single tomo-demo call
FIDELITY_FLOOR = 0.98
PACKING_TOL = 1e-6

# ROADMAP baseline table, seconds per call including child calls
BASELINE_SPANS = {
    "protocol.premeasurement": 185e-6,
    "measures.negativity": 1.66e-3,
    "measures.negativity_offdiag": 56e-6,
    "qcore.fidelity": 1.86e-3,
    "witnesses.expect": 1.35e-3,
    "tomo.simulate_counts": 2.2e-3,
    "tomo.reconstruct": 22e-3,
    "tomo.mc_errorbar": 2.8 * MC_REPS / 100,  # the table times 100 reps
    "measures.discord_numeric": 2.8,
    "epsnet.sphere_scan": 1.75,
}


@dataclass(frozen=True)
class Spec:
    """A workload made concrete for one run: commands, config and checks."""

    commands: tuple  # argv lists, run in order as one workload call
    config: Optional[dict]  # content of the --config file, if any
    n_checks: int
    check: Callable[[Path, list], tuple]  # (out_dir, stdouts) -> (checks, observed)
    baseline: dict  # CLI command -> ROADMAP end-to-end seconds


def read_csv(path: Path, header: str):
    """(schema_ok, rows) of a CLI CSV; rows are dicts of strings, produced lazily."""
    lines = path.read_text().splitlines()
    ok = lines[:2] == [SCHEMA_LINE, header]
    cols = header.split(",")
    return ok, (dict(zip(cols, line.split(","))) for line in lines[2:])


def grid_points(span: float, step: float) -> int:
    """Length of np.arange(0, span + step / 2, step), for span/step + 1/2 not an integer."""
    return math.floor(span / step + 0.5) + 1


def _write_config(run_dir: Path, config: dict) -> str:
    path = run_dir / "config.json"
    path.write_text(json.dumps(config, sort_keys=True))
    return str(path)


# --- certify-sweep -----------------------------------------------------------


def build_certify(seed: int, smoke: bool, run_dir: Path) -> Spec:
    out = str(run_dir / "out")
    if smoke:
        q_values, step = (0.0, 0.2), SMOKE_GRID_STEP
        config = {"q_values": list(q_values), "grid_step": step}
        argv = ["certify", "--config", _write_config(run_dir, config)]
    else:
        q_values, step, config, argv = DEFAULT_Q, DEFAULT_GRID_STEP, None, ["certify"]
    n_rows = grid_points(math.pi / 2, step) * grid_points(math.pi / 4, step)

    def check(out_dir: Path, stdouts):
        checks, min_low = [], {}
        for q in q_values:
            ok, rows = read_csv(out_dir / f"certify_q{q:.2f}.csv", CERTIFY_HEADER)
            n, sound, low = 0, True, math.inf
            for r in rows:
                n += 1
                n_low = float(r["n_low"])
                sound &= n_low <= float(r["n_theory"]) + BOUND_SOUNDNESS_TOL
                low = min(low, n_low)
            min_low[f"{q:.2f}"] = low
            tag = f"certify q={q:.2f}"
            checks += [
                (f"{tag}: schema line and header", ok),
                (f"{tag}: {n_rows} rows", n == n_rows),
                (f"{tag}: n_low <= n_theory + {BOUND_SOUNDNESS_TOL:g} on every row", sound),
                (f"{tag}: min_low {'> 0' if q > 0 else '<= 0'}", low > 0 if q > 0 else low <= 0),
            ]
        return checks, {"min_low": min_low}

    return Spec((argv + ["--seed", str(seed), "--out", out],), config, 4 * len(q_values),
                check, {} if smoke else {"certify": 11.3})


# --- discord-match -----------------------------------------------------------


def build_discord(seed: int, smoke: bool, run_dir: Path) -> Spec:
    out = str(run_dir / "out")
    if smoke:
        q_values = (0.2,)
        config = {"q_values": list(q_values)}
        argv = ["discord-match", "--config", _write_config(run_dir, config)]
    else:
        q_values, config, argv = DEFAULT_Q, None, ["discord-match"]

    def check(out_dir: Path, stdouts):
        ok, rows = read_csv(out_dir / "discord_match.csv", DISCORD_HEADER)
        rows = list(rows)
        checks = [("discord-match: schema line and header", ok),
                  (f"discord-match: {len(q_values)} rows", len(rows) == len(q_values))]
        errors = {}
        for r in rows:
            d_closed = float(r["d_closed"])
            d_err = abs(float(r["d_numeric"]) - d_closed)
            qn_err = abs(float(r["q_n"]) - d_closed)
            errors[r["q"]] = {"d_numeric": d_err, "q_n": qn_err}
            tag = f"discord-match q={r['q']}"
            checks += [
                (f"{tag}: status ok", r["status"] == "ok"),
                (f"{tag}: |d_numeric - d_closed| <= {DISCORD_NUMERIC_TOL:g}",
                 d_err <= DISCORD_NUMERIC_TOL),
                (f"{tag}: |q_n - d_closed| <= {QUANTUMNESS_TOL:g}", qn_err <= QUANTUMNESS_TOL),
            ]
        return checks, {"abs_error_vs_d_closed": errors}

    return Spec((argv + ["--seed", str(seed), "--out", out],), config, 2 + 3 * len(q_values),
                check, {} if smoke else {"discord-match": 17.3})


# --- mc-tomography -----------------------------------------------------------


def build_mc(seed: int, smoke: bool, run_dir: Path) -> Spec:
    out = str(run_dir / "out")
    # q = 0.2 at (0, 0) and (pi/4, 0): the largest and the smallest premeasurement
    # negativity of that q on the default net (0.6 and 0.2)
    thetas = [0.0] if smoke else [0.0, 3 * NET_THETA_STEP]
    config = {"q_values": [0.2], "net": {"thetas": thetas, "phis": [0.0]}}
    argv = ["activate", "--config", _write_config(run_dir, config), "--mc-reps", str(MC_REPS),
            "--seed", str(seed), "--out", out]
    n_settings = len(thetas)

    def check(out_dir: Path, stdouts):
        ok, rows = read_csv(out_dir / "activate_q0.20.csv", ACTIVATE_HEADER)
        rows = list(rows)
        checks = [("mc-tomography: schema line and header", ok),
                  (f"mc-tomography: {n_settings} rows", len(rows) == n_settings)]
        estimates = []
        for r in rows:
            value, theory, std = float(r["n_value"]), float(r["n_theory"]), float(r["n_std"])
            estimates.append({"theta": float(r["theta_rad"]), "phi": float(r["phi_rad"]),
                              "n_theory": theory, "n_value": value, "n_std": std})
            tag = f"mc-tomography theta={r['theta_rad']} phi={r['phi_rad']}"
            checks += [
                (f"{tag}: n_std < {MC_STD_LIMIT:g}", std < MC_STD_LIMIT),
                (f"{tag}: |n_value - n_theory| <= {MC_BIAS_TOL:g}",
                 abs(value - theory) <= MC_BIAS_TOL),
            ]
        return checks, {"estimates": estimates}

    return Spec((argv,), config, 2 + 2 * n_settings, check, {})


# --- quick-commands ----------------------------------------------------------

_PACKING_RE = re.compile(r"packing=(pass|FAIL) \(min pairwise ([0-9.eE+-]+)\)")
_FIDELITY_RE = re.compile(r"fidelity=([0-9.eE+-]+)")


def _load_state(path: Path) -> np.ndarray:
    d = json.loads(path.read_text())
    return np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)


def _psd_sqrt(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, computed here independently of entact."""
    sr = _psd_sqrt(rho)
    inner = sr @ sigma @ sr
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sqrt(np.clip(vals, 0.0, None)).sum() ** 2)


def build_quick(seed: int, smoke: bool, run_dir: Path) -> Spec:
    out = str(run_dir / "out")
    common = ["--seed", str(seed)]
    commands = (
        ["activate", *common, "--out", out],
        ["witness", *common, "--out", out],
        ["tomo-demo", *common, "--out", out],
        ["net-verify", *common],
    )
    n_net = 28  # 7 thetas x 4 phis in the CLI's default net

    def check(out_dir: Path, stdouts):
        checks = []
        for q in DEFAULT_Q:
            ok, rows = read_csv(out_dir / f"activate_q{q:.2f}.csv", ACTIVATE_HEADER)
            rows = list(rows)
            exact = all(abs(float(r["n_value"]) - float(r["n_theory"])) <= EXACT_TOL for r in rows)
            tag = f"activate q={q:.2f}"
            checks += [(f"{tag}: schema line and header", ok),
                       (f"{tag}: {n_net} rows", len(rows) == n_net),
                       (f"{tag}: n_value = n_theory within {EXACT_TOL:g}", exact)]
        ok, rows = read_csv(out_dir / "witness.csv", WITNESS_HEADER)
        rows = list(rows)
        checks += [("witness: schema line and header", ok),
                   (f"witness: {len(DEFAULT_Q)} rows", len(rows) == len(DEFAULT_Q))]
        for r in rows:
            line = 0.5 - float(r["q"])
            for col in ("w2_expect", "w3_expect"):
                checks.append((f"witness q={r['q']}: {col} = 1/2 - q within {EXACT_TOL:g}",
                               abs(float(r[col]) - line) <= EXACT_TOL))
        reported = float(_FIDELITY_RE.search(stdouts[2]).group(1))
        recomputed = uhlmann_fidelity(_load_state(out_dir / "tomo_reconstructed.json"),
                                      _load_state(out_dir / "tomo_truth.json"))
        checks += [(f"tomo-demo: fidelity >= {FIDELITY_FLOOR}", recomputed >= FIDELITY_FLOOR),
                   ("tomo-demo: printed fidelity matches a recomputation within 1e-6",
                    abs(reported - recomputed) <= 1e-6)]
        m = _PACKING_RE.search(stdouts[3])
        dmin = float(m.group(2))
        checks.append(("net-verify: packing pass at 0.5",
                       m.group(1) == "pass" and abs(dmin - 0.5) <= PACKING_TOL))
        return checks, {"tomo_fidelity": recomputed, "net_min_pairwise": dmin}

    n_checks = 3 * len(DEFAULT_Q) + 2 + 2 * len(DEFAULT_Q) + 2 + 1
    return Spec(commands, None, n_checks, check, {} if smoke else {"activate": 0.28})


# BENCHMARK.json and README.md give the reason for each workload
WORKLOADS = {
    "certify-sweep": build_certify,
    "discord-match": build_discord,
    "mc-tomography": build_mc,
    "quick-commands": build_quick,
}
