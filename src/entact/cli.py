"""Command-line driver: sweep orchestration and plot-ready dataset emission.

Commands: activate, certify, discord-match, witness, tomo-demo, net-verify.
Exit codes: 0 success, 1 I/O failure, 2 config error, 3 certification failed
in --strict mode.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from .qcore import DensityMatrix, chi_q, fidelity
from .protocol import (NetSpec, WaveplateSetting, _premeasure, bloch_vector, dedup_bloch,
                       default_net, premeasurement, u_b)
from .measures import discord_numeric, discord_x_state, negativities, negativities_theory
from .epsnet import (
    MAX_GRID_POINTS,
    MAX_GRID_STEP,
    MAX_NET_SETTINGS,
    MAX_RESOLUTION,
    MIN_GRID_STEP,
    cap_radius,
    net_negativities,
    scan_axes,
    sphere_scan,
    verify_covering,
    verify_packing,
)
from .witnesses import expectations, w2, w3
from .tomo import (E_MAX, MC_REPS_MAX, MC_REPS_MIN, mc_errorbar, pauli_expectations_exact,
                   reconstruct_from_expectations, tomography)

SCHEMA_LINE = "# schema=1"
DEFAULT_Q = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
# Past either threshold a reconstruction shows the exposure more than the state:
# a Pauli setting that recorded no counts, or a linear inversion with more
# negative eigenvalue mass than this, the mass the PSD projection clips (the
# tomo-demo state has 0.016 at exposure 1e4, 0.150 at 100 and 1.72 at 1)
MAX_ZERO_SETTINGS = 0
MAX_CLIPPED_MASS = 0.1


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    q_values: tuple = DEFAULT_Q
    noise: str = "ideal"  # "ideal" or "werner:<v>"
    exposure: float = 1e4
    seed: int = 1
    grid_step: float = math.pi / 180
    output_dir: str = "out"
    mc_reps: int = 0  # 0 = exact values, no tomography loop
    net: NetSpec = field(default_factory=default_net)

    def validate(self):
        if not self.q_values:
            raise ConfigError("q_values must be nonempty")
        if any(not 0 <= q <= 1 for q in self.q_values):
            raise ConfigError("q values must lie in [0, 1]")
        if len({f"{q:.2f}" for q in self.q_values}) < len(self.q_values):
            raise ConfigError("q values must differ in their first two decimals, "
                              "which name the per-q CSV files")
        if not 0 < self.exposure <= E_MAX:  # also rejects NaN
            raise ConfigError(f"exposure must lie in (0, {E_MAX:g}]")
        if not MIN_GRID_STEP <= self.grid_step <= MAX_GRID_STEP:  # also rejects NaN
            raise ConfigError("grid_step must lie in [pi/720, pi/90]")
        if not 0 <= self.seed < 2**64:  # the Philox key is an unsigned 64-bit integer
            raise ConfigError("seed must be a nonnegative 64-bit integer")
        if not (self.net.thetas and self.net.phis):
            raise ConfigError("net.thetas and net.phis must be nonempty")
        # 12 |angle| bounds the largest angle sum taken, |4 theta - 8 phi| of `n_theory`
        if not all(math.isfinite(12.0 * a) for a in self.net.thetas + self.net.phis):
            raise ConfigError("net angles must be finite, with 12 |angle| within the float range")
        if self.mc_reps != 0 and not MC_REPS_MIN <= self.mc_reps <= MC_REPS_MAX:
            raise ConfigError(f"mc_reps must be 0 (exact values) or lie in "
                              f"[{MC_REPS_MIN}, {MC_REPS_MAX}]")
        self.werner_visibility()  # parses/validates the noise string

    def werner_visibility(self):
        """None in ideal mode, otherwise the visibility v of werner:<v>."""
        if self.noise == "ideal":
            return None
        if self.noise.startswith("werner:"):
            try:
                v = float(self.noise.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"bad werner visibility in {self.noise!r}") from None
            if not 0 <= v <= 1:
                raise ConfigError("werner visibility must be in [0, 1]")
            return v
        raise ConfigError(f"unknown noise model {self.noise!r}")

    def input_state(self, q: float) -> DensityMatrix:
        v = self.werner_visibility()
        if v is None:
            return chi_q(q)
        # each Bell state mixed with white noise; the three weights sum to 1
        return DensityMatrix(v * chi_q(q).mat + (1 - v) * np.eye(4) / 4, (2, 2))

    def hash(self) -> str:
        """12-hex digest of the experiment; where its outputs go is left out."""
        payload = asdict(self)
        del payload["output_dir"]
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _read_as(name: str, value, default):
    """A config-file `value` read as the type of the field's `default`: a number
    (an integer for int defaults; never a boolean), a string, a list of numbers
    for a tuple, or a {"thetas", "phis"} object for a net."""
    if isinstance(default, NetSpec):
        if not isinstance(value, dict) or set(value) != {"thetas", "phis"}:
            raise ConfigError(f"{name} must be an object with exactly the keys thetas and phis")
        return NetSpec(*(_read_as(f"{name}.{key}", value[key], getattr(default, key))
                         for key in ("thetas", "phis")))
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_read_as(f"{name}[{i}]", v, default[0]) for i, v in enumerate(value))
    # type() is exact: bool is a subclass of int, and int() would read 1.7 as 1
    if type(value) is not type(default) and not (type(default) is float and type(value) is int):
        kind = {float: "a number", int: "an integer", str: "a string"}[type(default)]
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return type(default)(value)


def load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as e:  # also bad UTF-8 and over-long integers
            raise ConfigError(f"cannot read config {args.config}: {e}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config {args.config} must be a JSON object")
        if unknown := sorted(set(raw) - {f.name for f in fields(ExperimentConfig)}):
            raise ConfigError(f"unknown field(s) in config {args.config}: {', '.join(unknown)}")
        try:
            for key, value in raw.items():
                setattr(cfg, key, _read_as(key, value, getattr(cfg, key)))
        except (ConfigError, OverflowError) as e:  # an integer too large for a float
            raise ConfigError(f"bad field in config {args.config}: {e}") from None
    # flags override file fields
    for f in fields(ExperimentConfig):
        if (v := getattr(args, f.name, None)) is not None:
            setattr(cfg, f.name, v)
    cfg.validate()
    return cfg


def _check_settings(cfg: ExperimentConfig, command: str):
    if (settings := len(cfg.net.thetas) * len(cfg.net.phis)) > MAX_NET_SETTINGS:
        raise ConfigError(f"net has {settings} settings, above the {MAX_NET_SETTINGS} "
                          f"that {command} takes")


def _check_chords(cfg: ExperimentConfig, points: int, most: int):
    """certify and net-verify hold at most settings x points chord floats: no more
    than the default net's at `most` points."""
    settings, default = (len(n.thetas) * len(n.phis) for n in (cfg.net, default_net()))
    if settings * points > default * most:
        raise ConfigError(f"net settings x points is {settings} x {points}, above the "
                          f"default net's {default} x {most}")


def parse_angle(text: str) -> float:
    """Angle given in degrees ('15') or as a fraction of pi ('1/12 pi', '0.25pi',
    '-pi')."""
    t = text.strip().lower()
    try:
        if not t.endswith("pi"):
            angle = math.radians(float(t))
        elif (frac := t[:-2].strip().rstrip("*").strip()) in ("", "+", "-"):
            angle = -math.pi if frac == "-" else math.pi
        elif "/" in frac:
            num, den = frac.split("/")
            angle = float(num) / float(den) * math.pi
        else:
            angle = float(frac) * math.pi
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(angle):
        raise ConfigError(f"angle {text!r} is not finite")
    return angle


def _write_csv(path: Path, header: str, columns, cfg_hash: str, seed: int, shared=None):
    """Write one CSV field per entry of `columns`, each a sequence over the rows or a scalar
    that every row repeats: floats as %.12g, other values as str; sequences of unequal
    length raise ValueError.  A column object given twice is formatted once; `shared` maps
    the id of a column that several files repeat to its `_format_column` fields."""
    n = max((len(c) for c in columns if np.ndim(c)), default=0)
    fields = {i: shared[i] if shared and i in shared else _format_column(c, n)
              for i, c in {id(c): c for c in columns}.items()}
    k = len(columns) + 1  # row-major cells: each row's fields, then its hash and seed
    cells = [f"{cfg_hash},{seed}\n"] * (n * k)
    for j, c in enumerate(columns):
        cells[j::k] = fields[id(c)]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:  # in slices: a whole-file string made the heap trim per file
        f.write(f"{SCHEMA_LINE}\n{header},cfg_hash,seed\n")
        f.writelines("".join(cells[i:i + 4096]) for i in range(0, len(cells), 4096))


def _format_column(column, n: int) -> list:
    """The n comma-terminated fields of one `_write_csv` column, formatting the
    distinct floats in one % operation."""
    if not np.ndim(column):
        return [f"{column:.12g}," if isinstance(column, float) else f"{column},"] * n
    values = np.asarray(column)
    if values.dtype != np.float64:
        return [f"{x}," for x in column]
    # the bit view keeps -0.0 apart from 0.0
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    u = bits.view(np.float64).tolist()
    text = np.array((("%.12g,\n" * len(u)) % tuple(u)).split("\n")[:-1], dtype=object)
    return text[index].tolist()


def _exposure_warnings(where: str, clipped_mass: float, zero_settings: int) -> list:
    """A one-item list naming the crossed low-exposure thresholds, or []."""
    if zero_settings <= MAX_ZERO_SETTINGS and clipped_mass <= MAX_CLIPPED_MASS:
        return []
    return [f"{where}: low exposure: {zero_settings} zero-count settings "
            f"(threshold {MAX_ZERO_SETTINGS}), clipped PSD mass {clipped_mass:.3g} "
            f"(threshold {MAX_CLIPPED_MASS:g})"]


def cmd_activate(cfg: ExperimentConfig, args) -> int:
    _check_settings(cfg, args.command)
    out, cfg_hash = Path(cfg.output_dir), cfg.hash()
    clipping, warnings = [], []  # tomography diagnostics per (q, setting) under --mc-reps
    ab_m = functools.partial(negativities, dims=(2, 2, 2), cut=(0, 1))  # each rep's N(AB|M)
    states = [cfg.input_state(q) for q in cfg.q_values]
    theta, phi = cfg.net.angles()
    angles = {id(c): _format_column(c, len(c)) for c in (theta, phi)}  # every q's file repeats
    # exact values come straight from the 4x4 states, taken only where no tomography runs
    exact = [None] * len(states) if cfg.mc_reps else net_negativities(
        states, bloch_vector(theta, phi))
    for q, chi, n in zip(cfg.q_values, states, exact):
        value, err = n, 0.0
        if cfg.mc_reps > 0:
            value, err = [], []
            for th, ph in zip(theta.tolist(), phi.tolist()):
                state = premeasurement(chi, WaveplateSetting(th, ph))
                bar = mc_errorbar(state, cfg.exposure, cfg.mc_reps, cfg.seed, ab_m)
                value.append(bar.mean)
                err.append(bar.std)
                clipping.append({"q": q, "theta": th, "phi": ph,
                                 **_summary("clipped_mass", bar.clipped_mass),
                                 **_summary("zero_settings", bar.zero_settings)})
                warnings += _exposure_warnings(
                    f"q={q} theta={th:.6f} phi={ph:.6f}",
                    clipping[-1]["clipped_mass_mean"], clipping[-1]["zero_settings_max"])
        _write_csv(out / f"activate_q{q:.2f}.csv", "q,theta_rad,phi_rad,n_theory,n_value,n_std",
                   (q, theta, phi, negativities_theory(q, theta, phi), value, err),
                   cfg_hash, cfg.seed, angles)
    results = {"tomography": clipping} if clipping else {}
    if warnings:
        print(f"warning: {len(warnings)} of {len(clipping)} tomography runs crossed a "
              f"low-exposure threshold; see results.warnings in manifest_activate.json",
              file=sys.stderr)
        results["warnings"] = warnings
    _write_manifest(out, cfg, "activate", cfg_hash, results)
    return 0


def _summary(name: str, per_rep: np.ndarray) -> dict:
    return {f"{name}_mean": float(per_rep.mean()), f"{name}_max": per_rep.max().item()}


def cmd_certify(cfg: ExperimentConfig, args) -> int:
    _check_chords(cfg, math.prod(map(len, scan_axes(cfg.grid_step))), MAX_GRID_POINTS)
    out, cfg_hash = Path(cfg.output_dir), cfg.hash()
    scans = sphere_scan([cfg.input_state(q) for q in cfg.q_values], cfg.net, cfg.grid_step)
    # every q's file repeats the grid's theta and phi columns
    grid = {id(c): _format_column(c, len(c)) for c in scans[0].columns[:2]}
    for q, (min_low, argmin, (theta, phi, low1, low2), *_) in zip(cfg.q_values, scans):
        # n_theory is the closed form of the ideal chi_q(q), also under noise;
        # n_low, the bound at the grid point, is low2, as low2 >= low1 exactly
        _write_csv(out / f"certify_q{q:.2f}.csv",
                   "q,theta_rad,phi_rad,n_theory,n_low1,n_low2,n_low",
                   (q, theta, phi, negativities_theory(q, theta, phi), low1, low2, low2),
                   cfg_hash, cfg.seed, grid)
        print(f"q={q}: min_low={min_low:.6f} at (theta={argmin.theta:.6f}, "
              f"phi={argmin.phi:.6f}) -> {'certified' if min_low > 0 else 'not certified'}")
    _write_manifest(out, cfg, "certify", cfg_hash, {  # min_low is n_low2_min - margin
        str(q): {"min_low": s.min_low, "n_low2_min": s.grid_min, "L": s.lip, "margin": s.margin}
        for q, s in zip(cfg.q_values, scans)})
    if args.strict and any(s.min_low <= 0 for q, s in zip(cfg.q_values, scans) if q > 0):
        return 3
    return 0


def cmd_discord_match(cfg: ExperimentConfig, args) -> int:
    _check_settings(cfg, args.command)
    out, cfg_hash = Path(cfg.output_dir), cfg.hash()
    searches, minimisers, rows = {}, {}, []  # per q: the search report, its minimiser
    states = [cfg.input_state(q) for q in cfg.q_values]
    net_min = net_negativities(states, bloch_vector(*cfg.net.angles())).min(axis=1).tolist()
    # the discord on B is min_n N(n): one exact minimum per q gives d_numeric and q_n
    for q, chi, res, least in zip(cfg.q_values, states, discord_numeric(states), net_min):
        searches[str(q)], minimisers[str(q)] = asdict(res.search), asdict(res.settings_used)
        rows.append((q, discord_x_state(chi), res.value, least, res.value))
    # the minimum is always a finite value, so every row's status is ok
    _write_csv(out / "discord_match.csv", "q,d_closed,d_numeric,min_net_negativity,q_n,status",
               tuple(zip(*rows)) + ("ok",), cfg_hash, cfg.seed)
    _write_manifest(out, cfg, "discord-match", cfg_hash,
                    {"searches": searches, "settings_used": minimisers})
    return 0


def cmd_witness(cfg: ExperimentConfig, args) -> int:
    out, cfg_hash = Path(cfg.output_dir), cfg.hash()
    chis = np.array([cfg.input_state(q).mat for q in cfg.q_values])
    # W3 is read at (pi/4, 0), the setting that makes W3's GHZ~ state from |Psi+>
    rhos = _premeasure(chis, u_b(math.pi / 4, 0.0))
    _write_csv(out / "witness.csv", "q,w2_expect,w3_expect,theory",
               (cfg.q_values, expectations(w2(), chis), expectations(w3(), rhos),
                [0.5 - q for q in cfg.q_values]), cfg_hash, cfg.seed)
    _write_manifest(out, cfg, "witness", cfg_hash)
    return 0


def cmd_tomo_demo(cfg: ExperimentConfig, args) -> int:
    if not 0 <= (q := args.q) <= 1:
        raise ConfigError("--q must lie in [0, 1]")
    s = WaveplateSetting(parse_angle(args.theta), parse_angle(args.phi))
    (out := Path(cfg.output_dir)).mkdir(parents=True, exist_ok=True)
    truth = premeasurement(cfg.input_state(q), s)
    results = {}
    if args.exact:
        recon = reconstruct_from_expectations(pauli_expectations_exact(truth), 3)
    else:
        recon, clipped, zero = tomography(truth, cfg.exposure, cfg.seed)
        results = {"clipped_mass": clipped, "zero_settings": zero}
        if warnings := _exposure_warnings(f"tomo-demo exposure={cfg.exposure:g}", clipped, zero):
            print(f"warning: {warnings[0]}", file=sys.stderr)
            results["warnings"] = warnings
    f = fidelity(recon, truth)
    (out / "tomo_truth.json").write_text(truth.to_json())
    (out / "tomo_reconstructed.json").write_text(recon.to_json())
    print(f"q={q} theta={s.theta:.6f} phi={s.phi:.6f} exposure={cfg.exposure:g} "
          f"fidelity={f:.6f}")
    _write_manifest(out, cfg, "tomo-demo", cfg.hash(), {"fidelity": f, **results})
    return 0


def cmd_net_verify(cfg: ExperimentConfig, args) -> int:
    if not 0 <= (epsilon := args.epsilon) <= 2:
        raise ConfigError("--epsilon must lie in [0, 2]")
    if not 1000 <= (resolution := args.resolution) <= MAX_RESOLUTION:
        raise ConfigError(f"--resolution must lie in [1000, {MAX_RESOLUTION}]")
    _check_chords(cfg, resolution, MAX_RESOLUTION)
    bases = dedup_bloch(cfg.net)
    covered, gap = verify_covering(bases, epsilon, resolution)
    packed, dmin = verify_packing(bases, epsilon)
    print(f"epsilon={epsilon}: covering={'pass' if covered else 'FAIL'} "
          f"(worst gap {gap:.6f}), packing={'pass' if packed else 'FAIL'} "
          f"(min pairwise {dmin:.6f})")
    print(f"cap base radius a_eps = {cap_radius(epsilon):.6f}, "
          f"a_eps/2 = {cap_radius(epsilon / 2):.6f}")
    print(f"net is an epsilon-net at epsilon={epsilon}: "
          f"{'yes' if covered and packed else 'no'}")
    return 0


def _write_manifest(out: Path, cfg: ExperimentConfig, command: str, cfg_hash: str, extra=None):
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"command": command, "config": asdict(cfg), "cfg_hash": cfg_hash}
    if extra:
        manifest["results"] = extra
    (out / f"manifest_{command.replace('-', '_')}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True)
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; each command's `run`
    default is the `cmd_*` that checks and reads its own flags."""
    p = argparse.ArgumentParser(prog="entact", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--noise", help="ideal | werner:<v>")
        sp.add_argument("--exposure", type=float)
        sp.add_argument("--grid-step", dest="grid_step", type=float)
        sp.add_argument("--out", dest="output_dir", help="output directory")
        sp.add_argument("--mc-reps", dest="mc_reps", type=int)
        sp.set_defaults(run=run)
        return sp

    command("activate", cmd_activate)
    command("certify", cmd_certify).add_argument(
        "--strict", action="store_true", help="exit 3 when any q > 0 fails to certify")
    command("discord-match", cmd_discord_match)
    command("witness", cmd_witness)
    sp = command("tomo-demo", cmd_tomo_demo)
    sp.add_argument("--q", type=float, default=0.2)
    sp.add_argument("--theta", default="1/12 pi",
                    help="degrees or a pi fraction like '1/12 pi'")
    sp.add_argument("--phi", default="1/6 pi")
    sp.add_argument("--exact", action="store_true",
                    help="use exact expectation values instead of counts")
    sp = command("net-verify", cmd_net_verify)
    sp.add_argument("--epsilon", type=float, default=0.5)
    sp.add_argument("--resolution", type=int, default=10_000)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(load_config(args), args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"I/O failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
