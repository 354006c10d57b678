"""In-memory span recorder for the traced benchmark run.

`Tracer.install` wraps public `entact` functions from outside the package.  The
CLI and `measures` bind names with `from ... import`, so every module attribute
that refers to a wrapped function is rebound, not just the defining one.
Spans nest; each is aggregated under its call path (the names of the open
spans above it), and a span's self time is its duration minus that of its
child spans.  `numpy.linalg` calls and optimiser evaluations are counted, not
timed; numpy.linalg only while a span is open, so the harness's own output
checks do not count.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (module, function); the metric prefix drops the leading "entact."
SPANS = (
    ("entact.qcore", "hermitian_eigen"),
    ("entact.qcore", "fidelity"),
    ("entact.protocol", "premeasurement"),
    ("entact.measures", "negativity"),
    ("entact.measures", "negativity_offdiag"),
    ("entact.measures", "discord_numeric"),
    ("entact.measures", "negativity_of_quantumness"),
    ("entact.epsnet", "sphere_scan"),
    ("entact.epsnet", "verify_covering"),
    ("entact.epsnet", "verify_packing"),
    ("entact.witnesses", "expect"),
    ("entact.witnesses", "w3"),
    ("entact.tomo", "simulate_counts"),
    ("entact.tomo", "reconstruct"),
    ("entact.tomo", "project_psd"),
    ("entact.tomo", "mc_errorbar"),
    ("entact.cli", "main"),
)
# DensityMatrix is a class that isinstance checks name, so its validating
# __post_init__ is wrapped in place of the class binding
DENSITY_MATRIX = "qcore.DensityMatrix"
LINALG_COUNTED = ("eigvalsh", "eigh", "svd")

SPAN_NAMES = (DENSITY_MATRIX,) + tuple(f"{m.split('.', 1)[1]}.{f}" for m, f in SPANS)
COUNTER_NAMES = ("numpy.linalg.calls", "numpy.linalg.matrices",
                 "measures.minimize.calls", "measures.minimize.nfev")


class Tracer:
    """Spans and counters of one traced run; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.tree = {}  # call path (tuple of span names) -> [calls, total_s, self_s]
        self.counts = Counter()
        self._open = []  # [path, seconds spent in child spans] per open span
        self._undo = []  # (owner, attribute, original value)

    def span(self, name, fn):
        """`fn` wrapped so that each call records one span named `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            frame = [(parent[0] if parent else ()) + (name,), 0.0]
            self._open.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._open.pop()
                if parent:
                    parent[1] += dt
                rec = self.tree.setdefault(frame[0], [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "entact" and not mod_name.startswith("entact."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self):
        """Wrap every traced function; all entact modules must be imported already."""
        for mod_name, func in SPANS:
            original = getattr(sys.modules[mod_name], func)
            self._rebind(original, self.span(f"{mod_name.split('.', 1)[1]}.{func}", original))
        dm = sys.modules["entact.qcore"].DensityMatrix
        self._set(dm, "__post_init__", self.span(DENSITY_MATRIX, dm.__post_init__))

        for func in LINALG_COUNTED:
            self._set(np.linalg, func, self._count_linalg(getattr(np.linalg, func)))

        minimize = sys.modules["entact.measures"].minimize

        @functools.wraps(minimize)
        def counted_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            self.counts["measures.minimize.calls"] += 1
            self.counts["measures.minimize.nfev"] += int(res.nfev)
            return res

        self._rebind(minimize, counted_minimize)

    def _count_linalg(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self._open:  # inside a traced call, not the harness's own output checks
                self.counts["numpy.linalg.calls"] += 1
                self.counts["numpy.linalg.matrices"] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        return counted

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def by_name(self):
        """Span name -> (calls, total_s, self_s), summed over every call path."""
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for path, (calls, total, self_s) in self.tree.items():
            rec = out[path[-1]]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def tree_report(self):
        return {"/".join(path): {"calls": c, "total_s": t, "self_s": s}
                for path, (c, t, s) in sorted(self.tree.items())}
