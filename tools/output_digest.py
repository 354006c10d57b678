"""One sha256 per output of the six entact commands at seed 1, to check that two
checkouts write the same bytes:

    python3 tools/output_digest.py > new.txt              # this checkout
    python3 tools/output_digest.py path/to/other > old.txt  # another checkout's root
    diff old.txt new.txt

Each run calls `entact.cli.main` in this process, into its own folder of a
temporary directory: the six commands at their defaults, the six under
`--noise werner:0.9`, `tomo-demo --exact`, `tomo-demo` at exposures 100 and 1
(where the PSD projection clips most and the low-exposure warnings fire),
`activate --mc-reps 50` twice (on the mc-tomography config of
`bench/workloads.py`, q = 0.2 at the settings (0, 0) and (pi/4, 0), and on the
default net and q values), `activate --mc-reps 131` on that config: two
full Monte-Carlo blocks of 64 reps and a partial one, and `certify` on a net full
of twin settings (a repeated theta, and phi = pi/4, which gives -n), whose scan
keeps only the net's distinct bases.  Every file a run writes gets
one line, and so do its stdout, its stderr and its exit code.  A manifest is
hashed with `config.output_dir` removed, as that path names the temporary
directory.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

COMMANDS = ("activate", "certify", "discord-match", "witness", "tomo-demo", "net-verify")
MC_CONFIG = {"q_values": [0.2], "net": {"thetas": [0.0, 3 * (math.pi / 12)], "phis": [0.0]}}
TWIN_CONFIG = {"net": {"thetas": [0.0, math.pi / 12, math.pi / 12, math.pi / 2],
                       "phis": [0.0, math.pi / 4]}}


def runs(tmp: Path):
    """(name, argv) of every run, each without its --out."""
    (config := tmp / "mc.json").write_text(json.dumps(MC_CONFIG))
    (twins := tmp / "twins.json").write_text(json.dumps(TWIN_CONFIG))
    yield from ((c, [c]) for c in COMMANDS)
    yield from ((f"{c}.werner", [c, "--noise", "werner:0.9"]) for c in COMMANDS)
    yield "tomo-demo.exact", ["tomo-demo", "--exact"]
    yield from ((f"tomo-demo.e{e}", ["tomo-demo", "--exposure", e]) for e in ("100", "1"))
    yield "activate.mc", ["activate", "--mc-reps", "50", "--config", str(config)]
    yield "activate.mc-net", ["activate", "--mc-reps", "50"]
    yield "activate.mc-blocks", ["activate", "--mc-reps", "131", "--config", str(config)]
    yield "certify.twins", ["certify", "--config", str(twins)]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    if not path.name.startswith("manifest_"):
        return sha(path.read_bytes())
    manifest = json.loads(path.read_text())
    del manifest["config"]["output_dir"]
    return sha(json.dumps(manifest, indent=2, sort_keys=True).encode())


def main(argv) -> int:
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(checkout / "src"))
    from entact.cli import main as entact_main

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, args in runs(tmp):
            out, stdout, stderr = tmp / name, io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = entact_main(args + ["--seed", "1", "--out", str(out)])
                except SystemExit as e:  # argparse errors
                    code = e.code
            print(f"{name} stdout {sha(stdout.getvalue().encode())}")
            print(f"{name} stderr {sha(stderr.getvalue().encode())}")
            print(f"{name} exit {sha(str(code).encode())}")
            for path in sorted(out.rglob("*")) if out.exists() else ():
                if path.is_file():
                    print(f"{name} {path.relative_to(out)} {file_digest(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
