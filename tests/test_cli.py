"""Command-line interface: configs, outputs, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import entact
from entact import cli, epsnet, measures, protocol
from entact.epsnet import MAX_RESOLUTION, MIN_GRID_STEP
from entact.cli import (
    MAX_CLIPPED_MASS,
    MAX_NET_SETTINGS,
    SCHEMA_LINE,
    ConfigError,
    ExperimentConfig,
    _write_csv,
    build_parser,
    load_config,
    main,
    parse_angle,
)
from entact.measures import negativities_offdiag, negativities_theory, negativity
from entact.protocol import (NetSpec, WaveplateSetting, bloch_vector, dedup_bloch,
                             default_net, premeasurement, u_b)
from entact.qcore import DensityMatrix
from entact.witnesses import expect, w2, w3
from reference import density_from_json, lipschitz_reference, net_settings


@pytest.fixture
def formatted(monkeypatch):
    """The columns that `cli._format_column` formats while the test runs."""
    columns, format_column = [], cli._format_column

    def counted(column, n):
        columns.append(column)
        return format_column(column, n)

    monkeypatch.setattr(cli, "_format_column", counted)
    return columns


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


SPECIAL_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310)


@st.composite
def csv_columns(draw):
    """Writer input: a scalar, float columns drawn from a few values (so that rows
    repeat them) as arrays and lists, one array given twice, and a string column."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS),
                         min_size=1, max_size=4))

    def column():
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    twice = np.array(column())
    text = draw(st.lists(st.text("abz:-_ ", max_size=6), min_size=n, max_size=n))
    return [draw(st.floats()), np.array(column()), column(), twice, text, twice]


_TWICE = np.array([1 / 3, 1 / 3, -1e-310, 2.5])
SPECIAL_COLUMNS = [0.5, [0.0, -0.0, 0.0, math.nan], np.array([math.inf, -math.inf, 5e-324, -0.0]),
                   _TWICE, ["ok", "x", "ok", ""], _TWICE]


COMMANDS = ("activate", "certify", "discord-match", "witness", "tomo-demo", "net-verify")
NET_COMMANDS = ("activate", "certify", "discord-match", "net-verify")
# the largest net angle a config may hold, the last float with 12 |angle| finite
NET_ANGLE_MAX = math.nextafter(sys.float_info.max / 12, 0.0)
# JSON values that no config field takes: booleans, strings, integers past 64 bits
# (2**1024 overflows a float), NaN, the infinities, and lists of them
BAD_LEAVES = (st.booleans() | st.text(max_size=6) | st.integers(2**64, 10**400)
              | st.sampled_from([2**64, 2**1024, 10**400, math.nan, math.inf, -math.inf]))
BAD_VALUES = BAD_LEAVES | st.lists(BAD_LEAVES, max_size=2)
ANGLES = st.lists(st.floats(-10, 10) | BAD_VALUES, max_size=3)
NETS = st.builds(lambda net, extra: {**net, **extra},
                 st.fixed_dictionaries({}, optional={"thetas": ANGLES, "phis": ANGLES}),
                 st.dictionaries(st.sampled_from(["phi", "theta", "net"]), ANGLES, max_size=1))
VALID_FIELDS = {
    "q_values": st.lists(st.floats(0, 1), min_size=1, max_size=3),
    "noise": st.sampled_from(["ideal", "werner:0.9", "werner:1.5", "pink"]),
    "exposure": st.floats(1, 1e6),
    "seed": st.integers(0, 2**64 - 1),
    "grid_step": st.floats(MIN_GRID_STEP, math.pi / 90),
    "output_dir": st.text(max_size=6),
    "mc_reps": st.sampled_from([0, 50, 100]),
    "net": NETS,
}
# a config object on a subset of the fields, each valid, bad or a (nested) list of bad values
CONFIGS = st.fixed_dictionaries({}, optional={
    name: valid | BAD_VALUES | st.lists(BAD_VALUES, max_size=3)
    for name, valid in VALID_FIELDS.items()})


def sized_net(n_thetas, n_phis):
    return {"thetas": [0.01 * j for j in range(n_thetas)],
            "phis": [0.02 * k for k in range(n_phis)]}


# a config that loads, on a net of up to 150 x 150 settings: on either side of the
# net-size limits of activate and discord-match, and of certify's and net-verify's
# chord limits at any grid step or resolution
LOADABLE_CONFIGS = st.fixed_dictionaries(
    {"net": st.builds(sized_net, st.integers(1, 150), st.integers(1, 150))},
    optional={"grid_step": VALID_FIELDS["grid_step"], "mc_reps": VALID_FIELDS["mc_reps"],
              "noise": st.sampled_from(["ideal", "werner:0.9"])})


class TestParseAngle:
    def test_degrees(self):
        assert parse_angle("45") == pytest.approx(math.pi / 4)

    def test_pi_fractions(self):
        assert parse_angle("1/12 pi") == pytest.approx(math.pi / 12)
        assert parse_angle("0.25pi") == pytest.approx(math.pi / 4)
        assert parse_angle("pi") == pytest.approx(math.pi)
        # a sign alone is a coefficient of 1, as in "-1 pi"
        assert parse_angle("-pi") == parse_angle("-1 pi") == -math.pi
        assert parse_angle("+pi") == parse_angle(" + PI ") == math.pi
        for bad in ("--pi", "+-pi", "-/2 pi"):
            with pytest.raises(ConfigError):
                parse_angle(bad)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        cfg.validate()
        assert cfg.q_values == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

    def test_noise_parsing(self):
        cfg = ExperimentConfig(noise="werner:0.9564")
        assert cfg.werner_visibility() == pytest.approx(0.9564)
        with pytest.raises(ConfigError):
            ExperimentConfig(noise="pink").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(noise="werner:1.5").validate()

    def test_bad_q_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(q_values=(0.2, 1.4)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(q_values=()).validate()

    def test_hash_changes_with_config(self):
        a = ExperimentConfig()
        b = ExperimentConfig(seed=2)
        assert a.hash() != b.hash()
        assert len(a.hash()) == 12
        # where the outputs go is not part of the experiment
        assert ExperimentConfig(output_dir="elsewhere").hash() == a.hash()

    def test_flags_override_file_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noise": "werner:0.5", "output_dir": "a", "seed": 3,
                                    "exposure": 5.0, "grid_step": 0.01, "mc_reps": 60}))
        file_only = load_config(build_parser().parse_args(["certify", "--config", str(path)]))
        assert (file_only.noise, file_only.output_dir, file_only.seed, file_only.exposure,
                file_only.grid_step, file_only.mc_reps) == ("werner:0.5", "a", 3, 5.0, 0.01, 60)
        flags = ["--noise", "ideal", "--out", "b", "--seed", "4", "--exposure", "6",
                 "--grid-step", "0.02", "--mc-reps", "70"]
        cfg = load_config(build_parser().parse_args(["certify", "--config", str(path)] + flags))
        assert (cfg.noise, cfg.output_dir, cfg.seed, cfg.exposure, cfg.grid_step,
                cfg.mc_reps) == ("ideal", "b", 4, 6.0, 0.02, 70)

    def test_werner_input_state_is_valid(self):
        cfg = ExperimentConfig(noise="werner:0.9")
        rho = cfg.input_state(0.4)
        assert isinstance(rho, DensityMatrix)
        assert rho.dims == (2, 2)


class TestCommands:
    def test_bad_config_file_exits_2(self, tmp_path):
        bad = tmp_path / "cfg.json"
        for text in (b"{not json", b"\xff\xfe{", b'{"seed": 1' + b"0" * 5000 + b"}"):
            bad.write_bytes(text)
            assert main(["witness", "--config", str(bad)]) == 2, text[:12]

    def test_bad_noise_flag_exits_2(self, tmp_path):
        assert main(["witness", "--noise", "pink", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["activate", "--mc-reps", "10"],
        ["certify", "--grid-step", "0.1"],
        ["certify", "--grid-step", "nan"],
        ["certify", "--exposure", "inf"],
        ["tomo-demo", "--q", "2"],
        ["tomo-demo", "--theta", "abc"],
        ["tomo-demo", "--phi", "nan"],
        ["tomo-demo", "--seed", "-1"],
        ["net-verify", "--resolution", "10"],
        ["net-verify", "--epsilon", "3"],
        ["witness", "--noise", "werner:abc"],
        ["activate", "--mc-reps", "50", "--exposure", "1e300"],
        ["activate", "--mc-reps", "100000000000000000000"],
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["net-verify", "--resolution", str(MAX_RESOLUTION + 1)],
        ["net-verify", "--resolution", str(10**15)],
        ["certify", "--grid-step", repr(MIN_GRID_STEP * (1 - 1e-9))],
        ["certify", "--grid-step", "1e-12"],
        ["certify", "--grid-step", "5e-324"],
    ])
    def test_oversized_work_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        # past the limits the arrays would take gigabytes or more, so the config
        # check must stop the run before the kernels are entered
        def entered(*args, **kwargs):
            raise AssertionError("kernel entered past the config limit")

        monkeypatch.setattr(cli, "verify_covering", entered)
        monkeypatch.setattr(cli, "sphere_scan", entered)
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not list(tmp_path.iterdir())

    def test_limits_themselves_are_accepted(self, tmp_path, capsys, monkeypatch):
        # each command checks its own limits, so at each one the run goes on to
        # the command's kernel, here stubbed to record that it was entered
        class Entered(Exception):
            pass

        entered = []

        def stub(name):
            def kernel(*args, **kwargs):
                entered.append(name)
                raise Entered

            return kernel

        for name in ("verify_covering", "sphere_scan", "premeasurement"):
            monkeypatch.setattr(cli, name, stub(name))
        cfg, out = tmp_path / "cfg.json", str(tmp_path / "out")
        cfg.write_text(json.dumps({"grid_step": MIN_GRID_STEP}))
        kernels = {"net-verify": "verify_covering", "certify": "sphere_scan",
                   "tomo-demo": "premeasurement"}
        for argv in (["net-verify", "--resolution", str(MAX_RESOLUTION)],
                     ["net-verify", "--resolution", "1000"],
                     ["net-verify", "--epsilon", "0"], ["net-verify", "--epsilon", "2"],
                     ["certify", "--grid-step", repr(MIN_GRID_STEP)],
                     ["certify", "--config", str(cfg)],
                     ["tomo-demo", "--q", "0"], ["tomo-demo", "--q", "1"]):
            with pytest.raises(Entered):
                main(argv + ["--out", out])
            assert entered.pop() == kernels[argv[0]], argv
        cfg.write_text(json.dumps({"grid_step": MIN_GRID_STEP / 2}))
        assert main(["certify", "--config", str(cfg), "--out", out]) == 2
        assert "grid_step" in capsys.readouterr().err
        assert entered == []

    def test_one_parser_per_process(self, tmp_path, monkeypatch):
        # the parser is built once; a later call constructs no ArgumentParser and
        # still reads only its own argv
        assert main(["witness", "--out", str(tmp_path)]) == 0
        built, init = [], argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["witness", "--out", str(tmp_path)]) == 0
        assert build_parser().parse_args(["tomo-demo", "--q", "0.5", "--exact"]).q == 0.5
        args = build_parser().parse_args(["tomo-demo"])
        assert (args.q, args.exact) == (0.2, False)
        assert built == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", NET_COMMANDS)
    @pytest.mark.parametrize("net", [
        '{"thetas": [], "phis": [0.0]}',
        '{"thetas": [0.0], "phis": []}',
        '{"thetas": [NaN], "phis": [0.0]}',
        '{"thetas": [0.0], "phis": [-Infinity]}',
        # finite angles whose sums overflow: 4 theta - 8 phi, the argument of
        # n_theory, was nan at these, and certify's scan raised
        '{"thetas": [0.0], "phis": [1e308]}',
        '{"thetas": [0.0], "phis": [2.5e307]}',
        '{"thetas": [%r], "phis": [0.0]}' % math.nextafter(NET_ANGLE_MAX, math.inf),
        '{"thetas": [0.0], "phis": [%r]}' % -math.nextafter(NET_ANGLE_MAX, math.inf),
    ])
    def test_bad_net_exits_2(self, tmp_path, capsys, command, net):
        # JSON NaN and Infinity parse, and an empty net yields no records
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"q_values": [0.2], "net": %s}' % net)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: net") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", NET_COMMANDS)
    def test_largest_net_angles_run(self, tmp_path, command):
        # 12 |angle| just inside the float range: |4 theta - 8 phi| at its largest
        assert math.isfinite(12 * NET_ANGLE_MAX)
        assert not math.isfinite(12 * math.nextafter(NET_ANGLE_MAX, math.inf))
        net = {"thetas": [NET_ANGLE_MAX], "phis": [-NET_ANGLE_MAX]}
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({"q_values": [0.2], "grid_step": math.pi / 90, "net": net}))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0

    def test_bad_config_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        for bad in ({"exposure": "lots"}, [1, 2], "abc", None, {"qvalues": [0.2]},
                    {"seed": 1.7}, {"seed": True}, {"seed": 2.0}, {"seed": "1"},
                    {"mc_reps": 50.5}, {"mc_reps": False},
                    # booleans are not numbers, and no value is coerced to a list or string
                    {"exposure": True, "q_values": "1"}, {"q_values": [True]},
                    {"grid_step": False}, {"q_values": 0.2}, {"noise": 0.9},
                    {"output_dir": 7}, {"net": {"thetas": 0.0, "phis": [0.0]}},
                    {"net": {"thetas": [0.0], "phis": [0.0], "phi": [1.0]}},
                    {"net": {"thetas": [0.0]}}, {"net": [[0.0], [0.0]]},
                    {"exposure": 10**400}):
            cfg.write_text(json.dumps(bad))
            assert main(["witness", "--config", str(cfg), "--out", str(out)]) == 2, bad
            assert capsys.readouterr().err.startswith("config error:"), bad
            assert not out.exists(), bad
        # certify and net-verify hold settings x points chords: no more than the
        # default 28-setting net at the finest grid step or the highest resolution
        angles = [0.05 * i for i in range(29)]
        wide = {"net": {"thetas": angles[:24], "phis": angles[:24]}}
        one_more = {"net": {"thetas": angles, "phis": [0.0]}}
        # at the lowest resolution the limit is 28 x 200 = 5,600 settings
        for argv, bad in ((["certify"], wide), (["net-verify"], wide),
                          (["certify", "--grid-step", repr(MIN_GRID_STEP)], one_more),
                          (["net-verify", "--resolution", str(MAX_RESOLUTION)], one_more),
                          (["net-verify", "--resolution", "1000"],
                           {"net": sized_net(75, 75)})):
            cfg.write_text(json.dumps(bad))
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2, argv
            assert capsys.readouterr().err.startswith("config error:"), argv
            assert not out.exists(), argv

    @settings(max_examples=150, deadline=None)
    @given(config=CONFIGS)
    def test_any_config_loads_or_exits_2(self, config):
        # every command either loads a config or refuses it with exit 2 and a
        # one-line message before writing anything; the commands are not run
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
            path.write_text(json.dumps(config))
            for command in COMMANDS:
                argv = [command, "--config", str(path), "--out", str(out)]
                try:
                    load_config(build_parser().parse_args(argv))
                except ConfigError:
                    stderr = io.StringIO()
                    with contextlib.redirect_stderr(stderr):
                        assert main(argv) == 2, command
                    assert stderr.getvalue().startswith("config error:"), command
                    assert not out.exists(), command

    @settings(max_examples=100, deadline=None)
    @given(config=LOADABLE_CONFIGS, resolution=st.integers(1000, MAX_RESOLUTION))
    # one setting over the net cap and at it; 437 settings (at most the chord limit at
    # the default grid step's 4,186 points) and 438; 29 settings at the finest grid
    # step (over), and 28 at it and at the highest resolution (at both chord limits);
    # net-verify's limit at the lowest resolution, 5,600 settings (70 x 80) and 5,625
    @example(config={"net": sized_net(73, 137)}, resolution=1000)
    @example(config={"net": sized_net(100, 100)}, resolution=1000)
    @example(config={"net": sized_net(19, 23)}, resolution=12_814)
    @example(config={"net": sized_net(6, 73)}, resolution=12_815)
    @example(config={"net": sized_net(29, 1), "grid_step": MIN_GRID_STEP}, resolution=1000)
    @example(config={"net": sized_net(7, 4), "grid_step": MIN_GRID_STEP},
             resolution=MAX_RESOLUTION)
    @example(config={"net": sized_net(70, 80)}, resolution=1000)
    @example(config={"net": sized_net(75, 75)}, resolution=1000)
    def test_any_loaded_config_runs_or_exits_2(self, config, resolution):
        # a config that loads may still be over a command's own net-size limit:
        # then the command exits 2 with a one-line message, no traceback and no
        # output; under it, the run goes on to the command's kernel, here stubbed
        class Entered(Exception):
            pass

        def kernel(*args, **kwargs):
            raise Entered

        n_settings = len(config["net"]["thetas"]) * len(config["net"]["phis"])
        default = len(default_net().thetas) * len(default_net().phis)
        points = len(NetSpec(*epsnet.scan_axes(config.get("grid_step", math.pi / 180)))
                     .angles()[0])
        over = {"activate": n_settings > MAX_NET_SETTINGS,
                "discord-match": n_settings > MAX_NET_SETTINGS,
                "certify": n_settings * points > default * epsnet.MAX_GRID_POINTS,
                "net-verify": n_settings * resolution > default * MAX_RESOLUTION}
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            for name in ("net_negativities", "sphere_scan", "verify_covering",
                         "premeasurement", "_premeasure"):
                mp.setattr(cli, name, kernel)
            (path := Path(tmp) / "cfg.json").write_text(json.dumps(config))
            for command in COMMANDS:
                out = Path(tmp) / command  # tomo-demo makes its directory before its kernel
                argv = [command, "--config", str(path), "--out", str(out)]
                argv += ["--resolution", str(resolution)] if command == "net-verify" else []
                load_config(build_parser().parse_args(argv))
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    if not over.get(command, False):
                        with pytest.raises(Entered):
                            main(argv)
                        continue
                    assert main(argv) == 2, command
                assert stderr.getvalue().startswith("config error:"), command
                assert stderr.getvalue().count("\n") == 1, command
                assert not out.exists(), command

    @pytest.mark.parametrize("command", ["activate", "discord-match"])
    def test_net_settings_cap(self, tmp_path, capsys, command):
        # both hold every net record at once; 73 x 137 is one setting over the cap
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"

        def run(n_thetas, n_phis):
            net = {"thetas": [0.01 * j for j in range(n_thetas)],
                   "phis": [0.02 * k for k in range(n_phis)]}
            cfg.write_text(json.dumps({"q_values": [0.2], "net": net}))
            return main([command, "--config", str(cfg), "--out", str(out)])

        assert 73 * 137 == MAX_NET_SETTINGS + 1
        assert run(73, 137) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()
        assert run(100, 100) == 0
        assert out.exists()

    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_columns())
    @example(SPECIAL_COLUMNS)
    @example([0.5, [], np.array([]), np.array([]), [], []])  # no rows
    @example([0.5, -0.0, math.nan, "ok", 3, 0.5])  # scalars alone: no rows
    # 1,500 rows of 8 cells: the file is written in several slices
    @example([np.linspace(-1.0, 1.0, 1500), np.arange(1500), 0.5, "x", 7, -0.0])
    def test_csv_bytes_match_per_field_rendering(self, tmp_path, columns):
        # the column writer gives the bytes of rendering each field alone as
        # f"{x:.12g}" (floats, np.float64 included) or str(x), a scalar on every row
        n = max((len(c) for c in columns if np.ndim(c)), default=0)
        rows = zip(*(c if np.ndim(c) else [c] * n for c in columns))
        expected = "".join(
            ",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row)
            + ",0123456789ab,7\n" for row in rows)
        header = ",".join("abcdef")
        _write_csv(tmp_path / "t.csv", header, columns, "0123456789ab", 7)
        assert (tmp_path / "t.csv").read_bytes() == (
            f"{SCHEMA_LINE}\n{header},cfg_hash,seed\n{expected}").encode()

    def test_csv_renders_signed_zeros_and_specials(self, tmp_path):
        column = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1 / 3, 0.0])
        _write_csv(tmp_path / "t.csv", "x", (column,), "h", 1)
        assert (tmp_path / "t.csv").read_text().splitlines()[2:] == [
            f"{x},h,1" for x in ("0", "-0", "nan", "inf", "-inf", "4.94065645841e-324",
                                 "0.333333333333", "0")]

    def test_csv_refuses_ragged_columns(self, tmp_path):
        # a column shorter than the others is an error, not a truncated file
        for columns in (([1.0, 2.0], [1.0]), ([1.0], ["a", "b"]), (0.5, np.zeros(3), [])):
            with pytest.raises(ValueError):
                _write_csv(tmp_path / "t.csv", "a,b", columns, "h", 1)
            assert not (tmp_path / "t.csv").exists()

    def test_witness_csv(self, tmp_path):
        assert main(["witness", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "witness.csv")
        assert header == ["q", "w2_expect", "w3_expect", "theory", "cfg_hash", "seed"]
        assert len(rows) == 6
        for row in rows:
            q, w2v, w3v, theory = (float(x) for x in row[:4])
            assert w2v == pytest.approx(0.5 - q, abs=1e-9)
            assert w3v == pytest.approx(0.5 - q, abs=1e-9)

    def test_activate_formats_the_net_angles_once(self, tmp_path, formatted):
        # every q's file shares the net's theta and phi columns
        assert main(["activate", "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("activate_q*.csv"))) == 6
        for axis in default_net().angles():
            assert sum(np.array_equal(c, axis) for c in formatted if np.ndim(c)) == 1

    def test_activate_exact_mode(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.3]}))
        assert main(["activate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "activate_q0.30.csv")
        assert len(rows) == 28
        for row in rows:
            n_theory, n_value, n_std = (float(x) for x in row[3:6])
            assert n_value == pytest.approx(n_theory, abs=1e-9)
            assert n_std == 0.0
        manifest = json.loads((tmp_path / "manifest_activate.json").read_text())
        assert manifest["command"] == "activate"
        assert manifest["config"]["q_values"] == [0.3]

    @pytest.mark.parametrize("noise", ["ideal", "werner:0.9"])
    def test_activate_reads_the_net_negativities(self, tmp_path, monkeypatch, noise):
        # exact mode takes its values from one `negativities_offdiag` call for all q:
        # it builds no 3-qubit state, each row carries the bits of the off-diagonal
        # kernel over the net, and they lie within 2e-12 of the brute-force negativity
        written, three_qubit = {}, []
        write_csv, post_init = cli._write_csv, DensityMatrix.__post_init__

        def recorded(path, header, columns, cfg_hash, seed, shared=None):
            written[path.name] = columns
            write_csv(path, header, columns, cfg_hash, seed, shared)

        def counted(dm):
            post_init(dm)
            if dm.dims == (2, 2, 2):
                three_qubit.append(dm)

        def forbidden(*args):
            raise AssertionError("exact activate called a per-setting kernel")

        monkeypatch.setattr(cli, "_write_csv", recorded)
        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        monkeypatch.setattr(cli, "premeasurement", forbidden)
        monkeypatch.setattr(measures, "negativity", forbidden)
        assert main(["activate", "--noise", noise, "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        assert three_qubit == []
        cfg = ExperimentConfig(noise=noise)
        ordered, dirs = net_settings(cfg.net), bloch_vector(*cfg.net.angles())
        for q in cfg.q_values:
            chi = cfg.input_state(q)
            q_col, theta, phi, theory, value, err = written[f"activate_q{q:.2f}.csv"]
            assert (q_col, err) == (q, 0.0)
            assert list(zip(theta.tolist(), phi.tolist())) == [(s.theta, s.phi) for s in ordered]
            assert value.tobytes() == negativities_offdiag(chi.mat, dirs).tobytes()
            for th, ph, t, v, s in zip(theta.tolist(), phi.tolist(), theory.tolist(),
                                       value.tolist(), ordered):
                assert v == pytest.approx(negativity(premeasurement(chi, s), [0, 1]), abs=2e-12)
                # the closed form of the ideal chi_q, also under noise
                assert t == float(negativities_theory(q, th, ph))

    @pytest.mark.parametrize("command", ["activate", "certify", "discord-match"])
    def test_one_net_negativities_call_for_every_q(self, tmp_path, monkeypatch, command):
        # the six default q share one `net_negativities` call in each command, which
        # reads N(n) off (b, T) alone: no u_b is built, and no 8x8 eigvalsh runs, as
        # no premeasurement state is built.  certify takes it at the net's 16 distinct
        # bases, the other two at all 28 settings
        calls, built, solved = [], [], []
        net_negativities, eigvalsh = epsnet.net_negativities, np.linalg.eigvalsh

        def counted(states, dirs):
            calls.append((len(states), dirs))
            return net_negativities(states, dirs)

        def counted_u_b(theta, phi):
            built.append(np.shape(theta))
            return u_b(theta, phi)

        def counted_eigvalsh(a, *args, **kwargs):
            if np.shape(a)[-1] == 8:
                solved.append(np.shape(a)[:-2])
            return eigvalsh(a, *args, **kwargs)

        for module in (epsnet, cli):
            monkeypatch.setattr(module, "net_negativities", counted)
        for module in (protocol, cli):
            monkeypatch.setattr(module, "u_b", counted_u_b)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        assert main([command, "--out", str(tmp_path)]) == 0
        net = default_net()
        want = dedup_bloch(net) if command == "certify" else bloch_vector(*net.angles())
        [(count, dirs)] = calls
        assert count == 6 and dirs.shape == want.shape and dirs.tobytes() == want.tobytes()
        assert built == solved == []

    @pytest.mark.parametrize("noise", ["ideal", "werner:0.9"])
    def test_witness_lines_from_stacked_states(self, tmp_path, monkeypatch, noise):
        # both lines are read off stacks over q, with no 3-qubit state built, and
        # each value holds the bits of the per-q `expect` of its state
        written, three_qubit = {}, []
        write_csv, post_init = cli._write_csv, DensityMatrix.__post_init__

        def recorded(path, header, columns, cfg_hash, seed, shared=None):
            written[path.name] = columns
            write_csv(path, header, columns, cfg_hash, seed, shared)

        def counted(dm):
            post_init(dm)
            if dm.dims == (2, 2, 2):
                three_qubit.append(dm)

        monkeypatch.setattr(cli, "_write_csv", recorded)
        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        assert main(["witness", "--noise", noise, "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        assert three_qubit == []
        cfg, worst = ExperimentConfig(noise=noise), WaveplateSetting(math.pi / 4, 0.0)
        q_col, w2_line, w3_line, theory = written["witness.csv"]
        assert list(q_col) == list(cfg.q_values)
        assert list(theory) == [0.5 - q for q in cfg.q_values]
        for q, w2_value, w3_value in zip(cfg.q_values, w2_line.tolist(), w3_line.tolist()):
            chi = cfg.input_state(q)
            assert w2_value == expect(w2(), chi)
            assert w3_value == expect(w3(), premeasurement(chi, worst))

    @pytest.mark.parametrize("command", ["activate", "certify"])
    def test_colliding_q_labels_exit_2(self, tmp_path, capsys, command):
        # 0.201 and 0.204 would both write *_q0.20.csv, the second over the first
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.201, 0.204]}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()
        with pytest.raises(ConfigError, match="two decimals"):
            ExperimentConfig(q_values=(0.4, 0.4)).validate()
        ExperimentConfig(q_values=(0.2, 0.21)).validate()

    @pytest.mark.parametrize("command", ["activate", "certify", "witness", "tomo-demo"])
    def test_config_hash_computed_once_per_command(self, tmp_path, monkeypatch, command):
        calls, config_hash = [], ExperimentConfig.hash

        def counted(cfg):
            calls.append(cfg)
            return config_hash(cfg)

        monkeypatch.setattr(ExperimentConfig, "hash", counted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.2, 0.6], "grid_step": math.pi / 90}))
        exact = ["--exact"] if command == "tomo-demo" else []
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)] + exact) == 0
        assert len(calls) == 1
        manifest = json.loads(next(tmp_path.glob("manifest_*.json")).read_text())
        assert manifest["cfg_hash"] == config_hash(calls[0])

    def test_certify_builds_the_chords_once(self, tmp_path, monkeypatch, formatted):
        # the chords from the net's 16 distinct bases to the grid depend on neither q
        # nor the state, so a default call (six q) builds them once, the grid once and
        # the net's angles once, from which the bases, their twin test, the records
        # and the chords all come: the net-size check counts the grid's points from
        # its axes.  Every q's file shares the grid's theta and phi columns, so each
        # is formatted once
        shapes, chords, sizes, angles = [], epsnet._basis_chords, [], NetSpec.angles

        def counted(bases, points):
            shapes.append((len(bases), len(points)))
            return chords(bases, points)

        def counted_angles(net):
            sizes.append(len(net.thetas) * len(net.phis))
            return angles(net)

        monkeypatch.setattr(epsnet, "_basis_chords", counted)
        monkeypatch.setattr(NetSpec, "angles", counted_angles)
        assert main(["certify", "--out", str(tmp_path)]) == 0
        assert shapes == [(16, 91 * 46)]
        assert sizes.count(91 * 46) == sizes.count(28) == 1
        assert len(list(tmp_path.glob("certify_q*.csv"))) == 6
        monkeypatch.undo()
        for axis in NetSpec(*epsnet.scan_axes(math.pi / 180)).angles():
            assert sum(np.array_equal(c, axis) for c in formatted if np.ndim(c)) == 1

    def test_certify_strict_passes_for_positive_q(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.4], "grid_step": math.pi / 90}))
        assert main(["certify", "--strict", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "certified" in out
        header, rows = read_csv(tmp_path / "certify_q0.40.csv")
        assert header[:7] == ["q", "theta_rad", "phi_rad", "n_theory",
                              "n_low1", "n_low2", "n_low"]
        assert all(float(r[6]) > 0 for r in rows)

    def test_certify_manifest_records_the_margin(self, tmp_path, capsys):
        # per q: the grid minimum of n_low2, L and the margin L (2 + sqrt 2) grid_step,
        # from which a reader gets the printed min_low without recomputing L
        step = math.pi / 90
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.0, 0.4], "noise": "werner:0.9",
                                   "grid_step": step}))
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        results = json.loads((tmp_path / "manifest_certify.json").read_text())["results"]
        assert list(results) == ["0.0", "0.4"]
        for (q, r), line in zip(results.items(), printed):
            assert sorted(r) == ["L", "margin", "min_low", "n_low2_min"]
            assert r["min_low"] == r["n_low2_min"] - r["margin"]
            assert r["margin"] == r["L"] * (2.0 + math.sqrt(2.0)) * step
            chi = ExperimentConfig(noise="werner:0.9").input_state(float(q))
            assert r["L"] == lipschitz_reference(chi)
            assert line.startswith(f"q={q}: min_low={r['min_low']:.6f} ")
            _, rows = read_csv(tmp_path / f"certify_q{float(q):.2f}.csv")
            assert min(float(row[5]) for row in rows) == pytest.approx(r["n_low2_min"],
                                                                       abs=1e-12)

    def test_certify_zero_discord_not_certified(self, tmp_path, capsys):
        # the default pi/180 grid holds settings with zero negativity; LAPACK's
        # +4e-16 there must still read as 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.0]}))
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "not certified" in capsys.readouterr().out
        _, rows = read_csv(tmp_path / "certify_q0.00.csv")
        assert min(float(r[6]) for r in rows) <= 0

    def test_certify_checks_between_grid_points(self, tmp_path, capsys):
        # no point of this 2-degree grid meets q = 0's zero-negativity set, and
        # the grid values alone read min 0.0117 > 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.0], "grid_step": 0.0349}))
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "-> not certified" in capsys.readouterr().out

    def test_certify_bounds_use_the_noisy_state(self, tmp_path):
        # the records, and L with them, come from the noisy state
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.2], "grid_step": math.pi / 90,
                                   "noise": "werner:0.9"}))
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "certify_q0.20.csv")
        assert min(float(r[6]) for r in rows) > 0.04

    def test_certify_strict_fails_under_heavy_noise(self, tmp_path):
        # visibility 0.5 destroys the certifiable margin at small q
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.1], "grid_step": math.pi / 90,
                                   "noise": "werner:0.5"}))
        assert main(["certify", "--strict", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 3

    def test_net_verify_output(self, tmp_path, capsys):
        # at chord 1/2 the default net packs exactly but covers only at 0.5176
        assert main(["net-verify", "--epsilon", "0.5", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "packing=pass" in out
        assert "covering=FAIL" in out
        assert "cap base radius" in out
        assert main(["net-verify", "--epsilon", "0.52", "--out", str(tmp_path)]) == 0
        assert "covering=pass" in capsys.readouterr().out

    def test_net_verify_deduplicates_the_net_once(self, tmp_path, capsys, monkeypatch):
        # both checks read the one (k, 3) array of distinct bases
        calls = []

        def counted(net):
            calls.append(net)
            return protocol.dedup_bloch(net)

        monkeypatch.setattr(cli, "dedup_bloch", counted)
        assert main(["net-verify", "--out", str(tmp_path)]) == 0
        assert calls == [default_net()]
        assert "net is an epsilon-net at epsilon=0.5: no" in capsys.readouterr().out

    def test_tomo_demo_exact(self, tmp_path, capsys):
        assert main(["tomo-demo", "--exact", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fidelity=1.000000" in out
        truth = density_from_json((tmp_path / "tomo_truth.json").read_text())
        recon = density_from_json(
            (tmp_path / "tomo_reconstructed.json").read_text())
        assert truth.dims == recon.dims == (2, 2, 2)

    def test_tomo_demo_counts(self, tmp_path, capsys):
        assert main(["tomo-demo", "--seed", "1", "--exposure", "10000",
                     "--out", str(tmp_path)]) == 0
        fid = float(capsys.readouterr().out.split("fidelity=")[1])
        assert fid > 0.97

    def test_tomo_demo_manifest_records_clipping(self, tmp_path, capsys):
        results, stderr = {}, {}
        for exposure in ("10000", "100", "1"):
            out = tmp_path / exposure
            assert main(["tomo-demo", "--seed", "1", "--exposure", exposure,
                         "--out", str(out)]) == 0
            stderr[exposure] = capsys.readouterr().err
            results[exposure] = json.loads((out / "manifest_tomo_demo.json").read_text())["results"]
        assert results["10000"]["zero_settings"] == 0
        assert 0 < results["10000"]["clipped_mass"] < 0.05
        assert results["1"]["zero_settings"] > 0
        assert results["1"]["clipped_mass"] > 10 * results["10000"]["clipped_mass"]
        # exposure 1 crosses both low-exposure thresholds, 100 the clipped mass
        # alone, the default neither
        assert stderr["10000"] == "" and "warnings" not in results["10000"]
        [warning] = results["100"]["warnings"]
        assert "0 zero-count settings" in warning and "clipped PSD mass 0.15 (" in warning
        [warning] = results["1"]["warnings"]
        assert "10 zero-count settings" in warning and "clipped PSD mass 1.72 (" in warning
        assert stderr["1"] == f"warning: {warning}\n"

    def test_activate_manifest_records_clipping(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.2],
                                   "net": {"thetas": [0.0, 0.5], "phis": [0.0]}}))
        assert main(["activate", "--config", str(cfg), "--mc-reps", "50", "--exposure", "0.01",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest_activate.json").read_text())
        records = manifest["results"]["tomography"]
        assert [(r["q"], r["theta"], r["phi"]) for r in records] == [(0.2, 0.0, 0.0),
                                                                     (0.2, 0.5, 0.0)]
        for r in records:
            assert 0 < r["zero_settings_mean"] <= r["zero_settings_max"] <= 27
            assert 0 <= r["clipped_mass_mean"] <= r["clipped_mass_max"]
        assert [w.split(": ")[0] for w in manifest["results"]["warnings"]] == [
            "q=0.2 theta=0.000000 phi=0.000000", "q=0.2 theta=0.500000 phi=0.000000"]
        assert capsys.readouterr().err == (
            "warning: 2 of 2 tomography runs crossed a low-exposure threshold; "
            "see results.warnings in manifest_activate.json\n")

    def test_activate_default_exposure_is_silent(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.2],
                                   "net": {"thetas": [0.0, 0.5], "phis": [0.0]}}))
        assert main(["activate", "--config", str(cfg), "--mc-reps", "50",
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        results = json.loads((tmp_path / "manifest_activate.json").read_text())["results"]
        assert "warnings" not in results
        for r in results["tomography"]:
            assert r["zero_settings_max"] == 0 and r["clipped_mass_mean"] < MAX_CLIPPED_MASS

    def test_discord_match(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.2]}))
        assert main(["discord-match", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "discord_match.csv")
        q, d_closed, d_num, min_net, qn = (float(x) for x in rows[0][:5])
        assert d_closed == pytest.approx(0.2, abs=1e-10)
        assert d_num == pytest.approx(0.2, abs=1e-3)
        assert min_net == pytest.approx(0.2, abs=1e-9)
        assert qn == pytest.approx(0.2, abs=1e-6)
        assert rows[0][5] == "ok"

    @pytest.mark.parametrize("noise", ["ideal", "werner:0.9"])
    def test_discord_match_zero_discord_reads_zero(self, tmp_path, noise):
        # chi_0 is classical on B: the kernel's zero band makes every column of its
        # row exactly 0, where the raw formula leaves about 3e-17
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.0], "noise": noise}))
        assert main(["discord-match", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, [row] = read_csv(tmp_path / "discord_match.csv")
        assert row[:6] == ["0", "0", "0", "0", "0", "ok"]

    def test_discord_match_manifest_records_searches(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.0, 0.6]}))
        assert main(["discord-match", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        searches = json.loads((tmp_path / "manifest_discord_match.json").read_text())[
            "results"]["searches"]
        assert sorted(searches) == ["0.0", "0.6"]
        # one exact minimum per q gives both d_numeric and q_n, so one report: chi_q
        # has b = 0, so the great circle is skipped, and a circular-section normal wins
        for report in searches.values():
            assert report == {"winner": "kink", "polish_residual": None}

    def test_discord_match_manifest_records_the_minimiser(self, tmp_path):
        # beside each search report: the setting it ended on, where N(n) is d_numeric
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.1, 0.7], "noise": "werner:0.9"}))
        assert main(["discord-match", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "manifest_discord_match.json").read_text())["results"]
        assert list(results["settings_used"]) == list(results["searches"]) == ["0.1", "0.7"]
        _, rows = read_csv(tmp_path / "discord_match.csv")
        for row in rows:
            setting = results["settings_used"][row[0]]
            assert sorted(setting) == ["phi", "theta"]
            chi = ExperimentConfig(noise="werner:0.9").input_state(float(row[0]))
            n = bloch_vector(setting["theta"], setting["phi"])
            assert negativities_offdiag(chi.mat, n[None])[0] == pytest.approx(float(row[2]),
                                                                             abs=1e-11)

    def test_no_rotated_blocks_in_the_net_commands(self, tmp_path, monkeypatch):
        # activate, certify and discord-match read N(n) off (b, T) and L off chi: with
        # the waveplate unitaries unbuildable, and no rotated block with them, they
        # write the same CSV bytes and print the same lines
        class Rotated(Exception):
            pass

        def rotated(*args):
            raise Rotated

        def run(out):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                for command in ("activate", "certify", "discord-match"):
                    assert main([command, "--out", str(out)]) == 0
            return stdout.getvalue()

        plain, patched = tmp_path / "plain", tmp_path / "patched"
        printed = run(plain)
        for module in (protocol, cli):
            monkeypatch.setattr(module, "u_b", rotated)
        assert run(patched) == printed
        names = sorted(path.name for path in plain.glob("*.csv"))
        assert len(names) == 13 and names == sorted(path.name for path in patched.glob("*.csv"))
        for name in names:
            assert (plain / name).read_bytes() == (patched / name).read_bytes(), name
        with pytest.raises(Rotated):
            main(["witness", "--out", str(tmp_path / "witness")])

    def test_mc_activate_takes_no_exact_negativities(self, tmp_path, monkeypatch):
        # under --mc-reps every n_value is a Monte-Carlo mean: with the net kernel
        # unusable, activate on the mc-tomography config (q = 0.2 at the settings
        # (0, 0) and (pi/4, 0)) exits 0 and writes the same bytes
        def forbidden(*args):
            raise AssertionError("activate --mc-reps took the exact N(n)")

        (cfg := tmp_path / "mc.json").write_text(json.dumps(
            {"q_values": [0.2], "net": {"thetas": [0.0, 3 * (math.pi / 12)], "phis": [0.0]}}))
        plain, patched = tmp_path / "plain", tmp_path / "patched"
        argv = ["activate", "--mc-reps", "50", "--seed", "1", "--config", str(cfg)]
        assert main(argv + ["--out", str(plain)]) == 0
        monkeypatch.setattr(epsnet, "negativities_offdiag", forbidden)
        assert main(argv + ["--out", str(patched)]) == 0
        csv = "activate_q0.20.csv"
        assert (plain / csv).read_bytes() == (patched / csv).read_bytes()

    def test_discord_match_runs_one_search_per_q(self, tmp_path, monkeypatch):
        # two kernel calls serve every q: one over the 28 net directions, then one that
        # scores the whole candidate set of each q
        kernel, calls = measures._kernel, []

        def counted(block, frames):
            calls.append((block.shape[:-2], frames.shape[:-2]))
            return kernel(block, frames)

        monkeypatch.setattr(measures, "_kernel", counted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": [0.1, 0.7]}))
        assert main(["discord-match", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        (net_states, net_dirs), (states, candidates) = calls
        assert net_states == states == (2,) and net_dirs == (28,)
        assert candidates[0] == 2 and candidates[1] >= 14
        _, rows = read_csv(tmp_path / "discord_match.csv")
        for q, row in zip((0.1, 0.7), rows):
            assert row[2] == row[4]  # d_numeric is q_n
            assert float(row[2]) == pytest.approx(q, abs=1e-6)


def run_cold(script: str, *args) -> subprocess.CompletedProcess:
    """`script` in a fresh interpreter that imports this checkout's entact."""
    src = str(Path(entact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_version_matches_pyproject():
    # the benchmark's provenance records `__version__`; pyproject.toml holds it too
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(entact.__file__).resolve().parents[2] / "pyproject.toml"
    assert entact.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]


class TestColdStart:
    """No command imports scipy: the discord is exact and runs no optimiser."""

    def test_no_command_imports_scipy(self, tmp_path):
        proc = run_cold("""
            import sys
            import entact
            loaded = [m for m in sys.modules if m.startswith("entact.") or m == "numpy"]
            assert not loaded, f"import entact loads {loaded}"
            import entact.cli
            assert "scipy" not in sys.modules, "import entact.cli"
            for command in ("activate", "witness", "net-verify", "tomo-demo", "certify",
                            "discord-match"):
                assert entact.cli.main([command, "--out", sys.argv[1]]) == 0, command
                assert "scipy" not in sys.modules, command
            """, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "discord_match.csv").exists()

    def test_discord_functional_from_a_cold_start(self):
        # a per-rep discord map, on general reconstructed states, loads no scipy either
        proc = run_cold("""
            import math, sys
            from entact.measures import discord_numeric
            from entact.qcore import DensityMatrix, chi_q
            from entact.tomo import mc_errorbar
            discord = lambda mats: [r.value for r in discord_numeric(
                [DensityMatrix(m, (2, 2)) for m in mats])]
            bar = mc_errorbar(chi_q(0.2), 1e4, 50, 1, discord)
            assert "scipy" not in sys.modules
            assert math.isclose(bar.mean, 0.2, abs_tol=0.02), bar.mean
            """)
        assert proc.returncode == 0, proc.stderr
