"""Host-speed references for the benchmark's `wall_s` and `setup_s`.

The benchmark runs on a few cores of a shared host whose speed drifts: the same
CLI call can take 30% longer a minute later, for reasons outside the program.
A median over one run does not remove that, because the drift is slower than a
run.  So every timed call also samples the host's speed while it runs: an
interval timer (SIGALRM) interrupts the call every `PERIOD_S` and runs one
reference slice, a fixed piece of work of the kinds
entact spends its time on (interpreted float arithmetic, small complex numpy
products, single and batched 8x8 Hermitian eigensolves) that never touches
entact.  The call's wall time minus its slices, scaled by
`NOMINAL_SLICE_S / mean slice time`, is its time at a fixed host speed: the
speed at which one slice takes `NOMINAL_SLICE_S`, about the median slice time
on the 2-vCPU host the benchmark was tuned on.  A change to entact moves the
call's time and not the slices', so it shows in full.

Python runs a signal handler between bytecodes, so a slice never splits a
numpy or LAPACK call; a long C call only delays the next sample.

Start-up drifts with the host too, but the slices do not track it: starting an
interpreter is file, loader and unmarshal work, not arithmetic.  So each set-up
probe is paired with a reference start-up run just before it, a fresh
interpreter that imports numpy and exits, and the probe's time is scaled by
`NOMINAL_STARTUP_S / reference time`.  entact cannot change the reference, so
a change to its import cost shows in full.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from time import perf_counter

import numpy as np

PERIOD_S = 0.025  # one slice per 25 ms of call time, about 8% of it
NOMINAL_SLICE_S = 2.0e-3
NOMINAL_STARTUP_S = 0.25  # about the median reference start-up on the same host
STARTUP_TIMEOUT_S = 120
_LOOP = 2500
_RNG = np.random.default_rng(20130807)
_H = _RNG.normal(size=(16, 8, 8)) + 1j * _RNG.normal(size=(16, 8, 8))
_H = _H + _H.conj().transpose(0, 2, 1)
_U = _RNG.normal(size=(2, 2)) + 0j


def reference_slice() -> float:
    """Run the fixed reference work once; return its seconds."""
    t0 = perf_counter()
    s = 0.0
    for i in range(_LOOP):
        s += (i * 0.5) % 7.0
    for h in _H:
        np.kron(np.kron(_U, _U), _U) @ h
    for h in _H[:12]:
        np.linalg.eigh(h)
    np.linalg.eigvalsh(_H)
    return perf_counter() - t0


class SpeedSampler:
    """Context manager: runs a reference slice every PERIOD_S while it is open."""

    def __init__(self):
        self.slices = []
        self._previous = None

    def _tick(self, signum, frame):
        self.slices.append(reference_slice())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalise(self, wall: float) -> float:
        """`wall`, the seconds the sampler was open for, less its slices and at
        the nominal host speed.  One more slice is taken first, outside the
        interval, so that an interval shorter than PERIOD_S has a sample too."""
        inside = sum(self.slices)
        self.slices.append(reference_slice())
        mean_slice = sum(self.slices) / len(self.slices)
        return (wall - inside) * NOMINAL_SLICE_S / mean_slice


def warm_up():
    """The first slices pay numpy's lazy set-up; keep that out of the samples."""
    for _ in range(50):
        reference_slice()


def reference_startup(cwd) -> float:
    """Seconds for a fresh interpreter to import numpy and exit."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=STARTUP_TIMEOUT_S)
    return perf_counter() - t0
