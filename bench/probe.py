"""Set-up probe: import entact in a fresh interpreter, warm its lazy state, print "ready".

`run.py` starts this script several times and times each start up to the
"ready" line; that is the benchmark's `setup_s`.  Run it from anywhere with
`python3 bench/probe.py`.
"""

import math
import sys
from pathlib import Path


def warm_up():
    """Import the whole CLI (numpy, scipy.optimize) and touch the lazy state its
    first call would fill: the Bell-ket cache, the first LAPACK and Jacobi calls."""
    from entact.cli import build_parser
    from entact.measures import negativity
    from entact.protocol import WaveplateSetting, premeasurement
    from entact.qcore import chi_q

    build_parser()
    negativity(premeasurement(chi_q(0.2), WaveplateSetting(math.pi / 12, 0.0)), [0, 1])


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    warm_up()
    print("ready", flush=True)
