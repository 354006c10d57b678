"""Finite-sample certification of entanglement over the whole Bloch sphere.

A 28-setting waveplate net, spherical-cap covering/packing checks under the
chord metric, the net records of an input state, one kernel for the two
continuity lower bounds on the premeasurement negativity, and the full-sphere
positivity scan built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .qcore import DensityMatrix
from .protocol import WaveplateSetting, _premeasure, _u_b, bloch_vector, premeasurement
from .measures import _fibonacci_directions, negativity

# targets per stacked eigvalsh in `lower_bounds`
_TARGET_BATCH = 32


@dataclass(frozen=True)
class NetSpec:
    """Waveplate angle grid; the Cartesian product defines the settings."""

    thetas: tuple
    phis: tuple

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))

    def settings(self) -> List[WaveplateSetting]:
        return [WaveplateSetting(t, p) for t in self.thetas for p in self.phis]


@dataclass(frozen=True)
class NetRecord:
    """One net setting with its AB|M negativity and the premeasurement state it came from."""

    setting: WaveplateSetting
    negativity_measured: float
    state: DensityMatrix

    def __post_init__(self):
        if self.negativity_measured < 0:
            raise ValueError("measured negativity must be nonnegative")


def default_net() -> NetSpec:
    """The 7 x 4 = 28 settings theta_j = j pi/12 (j = 0..6), phi_k = k pi/12 (k = 0..3)."""
    return NetSpec(
        thetas=tuple(j * math.pi / 12 for j in range(7)),
        phis=tuple(k * math.pi / 12 for k in range(4)),
    )


def net_records(chi: DensityMatrix, net: NetSpec) -> List[NetRecord]:
    """One record per net setting: the premeasurement state of `chi` and its
    brute-force AB|M negativity."""
    records = []
    for s in net.settings():
        state = premeasurement(chi, s)
        records.append(NetRecord(s, negativity(state, [0, 1]), state))
    return records


def cap_radius(epsilon: float) -> float:
    """Base-circle radius of the spherical cap whose rim sits at chord distance epsilon."""
    if not 0.0 <= epsilon <= 2.0:
        raise ValueError(f"epsilon must be in [0, 2], got {epsilon}")
    return 0.25 * math.sqrt(epsilon**2 * (4.0 - epsilon**2))


def dedup_bloch(net: NetSpec, tol: float = 1e-8) -> np.ndarray:
    """Unique measurement bases of a net as a (k, 3) array, identifying n with -n."""
    unique: List[np.ndarray] = []
    for s in net.settings():
        v = bloch_vector(s).as_array()
        if not any(
            np.abs(v - u).max() <= tol or np.abs(v + u).max() <= tol for u in unique
        ):
            unique.append(v)
    return np.array(unique)


def _basis_chords(points: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Chord distance from each point to each basis, identifying n with -n."""
    dots = np.abs(points @ bases.T)
    return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - np.minimum(dots, 1.0))))


def _pt_trace_norms(ops: np.ndarray) -> np.ndarray:
    """||X^Gamma||_1, transpose on the last qubit, for a Hermitian stack (..., 8, 8)."""
    pt = ops.reshape(ops.shape[:-2] + (4, 2, 4, 2)).swapaxes(-1, -3).reshape(ops.shape)
    return np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1)


def verify_covering(net: NetSpec, epsilon: float, resolution: int = 10_000):
    """Check that every point of a Fibonacci lattice lies within chord epsilon of the net.

    Returns (covered, worst_gap).
    """
    if resolution < 1000:
        raise ValueError("resolution must be at least 10^3 sample points")
    bases = dedup_bloch(net)
    lattice = _fibonacci_directions(resolution)
    worst_gap = float(_basis_chords(lattice, bases).min(axis=1).max())
    return worst_gap <= epsilon + 1e-9, worst_gap


def verify_packing(net: NetSpec, epsilon: float):
    """Check that distinct deduplicated bases are pairwise at least epsilon apart.

    Returns (packed, min_pairwise_distance).
    """
    bases = dedup_bloch(net)
    if len(bases) < 2:
        return True, math.inf
    dmin = float(_basis_chords(bases, bases)[np.triu_indices(len(bases), 1)].min())
    # the default net attains the threshold exactly, so compare with a float margin
    return dmin >= epsilon - 1e-9, dmin


def lower_bounds(records: List[NetRecord], settings: List[WaveplateSetting],
                 chi: DensityMatrix):
    """Two continuity lower bounds on the AB|M negativity at each target setting.

    low1 = max_j (N_j - chord(n, n_j)) is model-free: it reads only the records.
    low2 = max_j (N_j - ||(rho(n) - rho_j)^Gamma||_1), with the partial transpose
    on M, builds each target state rho(n) from `chi`, so it holds only for the
    state that was measured.  A negative bound means "not certified", not "zero".
    Returns the arrays (low1, low2) over `settings`.
    """
    if not records:
        raise ValueError("lower_bounds needs at least one record")
    rec_n = np.array([r.negativity_measured for r in records])
    rec_b = np.array([bloch_vector(r.setting).as_array() for r in records])
    rec_s = np.array([r.state.mat for r in records])
    n_t = np.array([bloch_vector(s).as_array() for s in settings]).reshape(-1, 3)
    low1 = (rec_n - _basis_chords(n_t, rec_b)).max(axis=1)
    angles = np.array([(s.theta, s.phi) for s in settings]).reshape(-1, 2)
    u = _u_b(angles[:, 0], angles[:, 1])
    low2 = np.empty(len(u))
    # targets go in batches: the differences for a whole 1-degree grid would take ~120 MB
    for i in range(0, len(u), _TARGET_BATCH):
        targets = _premeasure(chi.mat, u[i:i + _TARGET_BATCH])
        low2[i:i + _TARGET_BATCH] = (rec_n - _pt_trace_norms(targets[:, None] - rec_s)).max(axis=1)
    return low1, low2


def sphere_scan(chi: DensityMatrix, net: NetSpec, grid_step: float = math.pi / 180):
    """Both lower bounds, from the net records of `chi`, on a (theta, phi) grid over
    the full angular range.

    Returns (min_low, argmin_setting, rows) with rows (theta, phi, low1, low2, low),
    where low = max(low1, low2) is the certified bound at that point, and
    argmin_setting is the lexicographically smallest (theta, phi) whose low is
    within 1e-12 of min_low.
    """
    if grid_step > math.pi / 90 + 1e-12:
        raise ValueError("grid_step must be at most pi/90")
    thetas = np.arange(0.0, math.pi / 2 + grid_step / 2, grid_step)
    phis = np.arange(0.0, math.pi / 4 + grid_step / 2, grid_step)
    settings = [WaveplateSetting(th, ph) for th in thetas.tolist() for ph in phis.tolist()]
    low1, low2 = lower_bounds(net_records(chi, net), settings, chi)
    low = np.maximum(low1, low2)
    # settings run theta-major in ascending order, so the first near-tie is the
    # lexicographically smallest; rounding-level changes in chi do not move it
    min_low = float(low.min())
    i = int(np.flatnonzero(low <= min_low + 1e-12)[0])
    rows = [(s.theta, s.phi, a, b, c)
            for s, a, b, c in zip(settings, low1.tolist(), low2.tolist(), low.tolist())]
    return min_low, settings[i], rows
