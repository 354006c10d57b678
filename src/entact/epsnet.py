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
from .protocol import (
    _CNOT_IMAGE,
    WaveplateSetting,
    _bloch_vectors,
    _premeasure,
    _rotate_b,
    _u_b,
    bloch_vector,
)
from .measures import _fibonacci_directions, _sv_sum, negativities

# targets per batch of `low2` in `lower_bounds`: the ten-entry differences of
# a whole 1-degree grid (4,186 targets x 28 records) take 15 MB at once, and a
# call then peaks at 24 MB of numpy memory against 3.0 MB in batches of 128
# targets (0.46 MB of differences each); larger batches run no faster
_TARGET_BATCH = 128
# the A-block off-diagonals (0, 2), (1, 3) and the D_01 block (0, 1), (0, 3),
# (2, 1), (2, 3) of a 4x4 block in the (a, b) index
_OFF_ROWS, _OFF_COLS = [0, 1, 0, 0, 2, 2], [2, 3, 1, 3, 1, 3]
# net bases closer than this in every coordinate, up to sign, are one basis
_DEDUP_TOL = 1e-8


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
    brute-force AB|M negativity, both built for the whole net in one call."""
    if chi.dims != (2, 2):
        raise ValueError(f"chi must be a 2-qubit state, got dims {chi.dims}")
    theta = np.repeat(net.thetas, len(net.phis))
    phi = np.tile(net.phis, len(net.thetas))
    states = _premeasure(chi.mat, _u_b(theta, phi))
    values = negativities(states, (2, 2, 2), [0, 1]).tolist()
    return [NetRecord(s, v, DensityMatrix(m, (2, 2, 2)))
            for s, v, m in zip(net.settings(), values, states)]


def cap_radius(epsilon: float) -> float:
    """Base-circle radius of the spherical cap whose rim sits at chord distance epsilon."""
    if not 0.0 <= epsilon <= 2.0:
        raise ValueError(f"epsilon must be in [0, 2], got {epsilon}")
    return 0.25 * math.sqrt(epsilon**2 * (4.0 - epsilon**2))


def dedup_bloch(net: NetSpec) -> np.ndarray:
    """Unique measurement bases of a net as a (k, 3) array, identifying n with -n."""
    unique: List[np.ndarray] = []
    for s in net.settings():
        v = bloch_vector(s).as_array()
        if not any(
            np.abs(v - u).max() <= _DEDUP_TOL or np.abs(v + u).max() <= _DEDUP_TOL
            for u in unique
        ):
            unique.append(v)
    return np.array(unique)


def _basis_chords(bases: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Chord distance from each basis to each point, identifying n with -n, as a
    (bases, points) array: min(|n - m|, |n + m|) = |n - sign(n.m) m|.  Unlike
    sqrt(2 (1 - |n.m|)) it keeps full precision near coincident bases."""
    # one contiguous row per point coordinate; in place, so that three
    # (bases, points) arrays are the peak
    sign = np.copysign(1.0, bases @ points.T)
    sq, d = np.zeros_like(sign), np.empty_like(sign)
    for x, m in zip(np.ascontiguousarray(points.T), bases.T):
        np.subtract(x, np.multiply(sign, m[:, None], out=d), out=d)
        sq += np.square(d, out=d)
    return np.sqrt(sq, out=sq)


def _block_entries(d: np.ndarray):
    """The ten entries of each 4x4 block of the stack d (..., 4, 4) that
    `_cnot_pt_norms` reads, entry axis first: the real diagonal (4, ...), and
    (6, ...) the A-block off-diagonals d[0, 2], d[1, 3] followed by
    D_01 = d[0::2, 1::2] row by row."""
    return (np.moveaxis(d.diagonal(axis1=-2, axis2=-1).real, -1, 0),
            np.moveaxis(d[..., _OFF_ROWS, _OFF_COLS], -1, 0))


def _cnot_pt_norms(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """||X^Gamma||_1, transpose on M, from the `_block_entries` of a Hermitian X in
    the (a, b) index placed on |a b b>, by the block identity and the two closed
    forms given in `lower_bounds`."""
    # the A-blocks d_00 and d_11 side by side: entries (a b, a' b) with b = 0, 1
    h00, h11, h01 = diag[:2], diag[2:], off[:2]
    blocks = np.maximum(np.abs(h00 + h11),
                        np.sqrt((h00 - h11) ** 2 + 4.0 * (h01.real ** 2 + h01.imag ** 2)))
    # d_01: rows (a, b = 0), columns (a', b' = 1)
    return blocks[0] + blocks[1] + 2.0 * _sv_sum(*off[2:])


def verify_covering(net: NetSpec, epsilon: float, resolution: int = 10_000):
    """Check that every point of a Fibonacci lattice lies within chord epsilon of the net.

    Returns (covered, worst_gap).
    """
    if resolution < 1000:
        raise ValueError("resolution must be at least 10^3 sample points")
    bases = dedup_bloch(net)
    lattice = _fibonacci_directions(resolution)
    worst_gap = float(_basis_chords(bases, lattice).min(axis=0).max())
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


def lower_bounds(records: List[NetRecord], theta, phi, chi: DensityMatrix):
    """Two continuity lower bounds on the AB|M negativity at each target setting
    (theta, phi), given as two 1-D angle arrays of one length.

    low1 = max_j (N_j - chord(n, n_j)) is model-free: it reads only the records.
    low2 = max_j (N_j - ||(rho(n) - rho_j)^Gamma||_1), with the partial transpose
    on M, builds each target state rho(n) from `chi`, so it holds only for the
    state that was measured.  A negative bound means "not certified", not "zero".
    Returns the arrays (low1, low2) over the targets.

    low2 takes no eigensolver.  Every premeasurement state is the B-rotated chi
    on the basis states |a b b>, so D = rho(n) - rho_j is a Hermitian 4x4 block
    in the index (a, b).  Transposing M splits D^Gamma into the A-blocks D_00,
    D_11 and the pair [[0, D_01], [D_01^dag, 0]], whose eigenvalues are +-s1,
    +-s2, the singular values of D_01.  So, exactly,
        ||D^Gamma||_1 = ||D_00||_1 + ||D_11||_1 + 2 (s1 + s2)(D_01),
    and both terms have closed forms without cancellation:
        ||h||_1 = max(|h00 + h11|, sqrt((h00 - h11)^2 + 4 |h01|^2)), h Hermitian 2x2,
        s1 + s2 = sqrt(||m||_F^2 + 2 |det m|),                       m any 2x2.
    These read ten entries of D, which are differences of the same entries of
    rho(n) and rho_j, so D itself is never formed.  The bound is the one an 8x8
    eigvalsh of each partial transpose gives.
    """
    if not records:
        raise ValueError("lower_bounds needs at least one record")
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if theta.ndim != 1 or theta.shape != phi.shape:
        raise ValueError("theta and phi must be 1-D arrays of one length")
    rec_n = np.array([r.negativity_measured for r in records])
    rec_b = _bloch_vectors(*np.array([(r.setting.theta, r.setting.phi) for r in records]).T)
    rec_e = _block_entries(np.array([r.state.mat[_CNOT_IMAGE[:, None], _CNOT_IMAGE]
                                     for r in records]))
    low1 = (rec_n[:, None] - _basis_chords(rec_b, _bloch_vectors(theta, phi))).max(axis=0)
    u = _u_b(theta, phi)
    low2 = np.empty(len(u))
    for i in range(0, len(u), _TARGET_BATCH):
        targets = _block_entries(_rotate_b(chi.mat, u[i:i + _TARGET_BATCH]))
        norms = _cnot_pt_norms(*(t[:, :, None] - r[:, None] for t, r in zip(targets, rec_e)))
        low2[i:i + _TARGET_BATCH] = (rec_n - norms).max(axis=1)
    return low1, low2


def sphere_scan(chi: DensityMatrix, net: NetSpec, grid_step: float = math.pi / 180):
    """Both lower bounds, from the net records of `chi`, on a (theta, phi) grid over
    the full angular range, 0 < grid_step <= pi/90.

    Returns (min_low, argmin_setting, columns) with columns the 1-D arrays
    (theta, phi, low1, low2, low), theta-major over the grid, where
    low = max(low1, low2) is the certified bound at that point, and
    argmin_setting is the lexicographically smallest (theta, phi) whose low is
    within 1e-12 of min_low.
    """
    if not 0.0 < grid_step <= math.pi / 90 + 1e-12:  # also rejects NaN
        raise ValueError(f"grid_step must lie in (0, pi/90], got {grid_step}")
    thetas = np.arange(0.0, math.pi / 2 + grid_step / 2, grid_step)
    phis = np.arange(0.0, math.pi / 4 + grid_step / 2, grid_step)
    theta, phi = np.repeat(thetas, len(phis)), np.tile(phis, len(thetas))
    low1, low2 = lower_bounds(net_records(chi, net), theta, phi, chi)
    low = np.maximum(low1, low2)
    # the grid runs theta-major in ascending order, so the first near-tie is the
    # lexicographically smallest; rounding-level changes in chi do not move it
    min_low = float(low.min())
    i = int(np.flatnonzero(low <= min_low + 1e-12)[0])
    return min_low, WaveplateSetting(theta[i], phi[i]), (theta, phi, low1, low2, low)
