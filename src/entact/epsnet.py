"""Finite-sample certification of entanglement over the whole Bloch sphere.

Spherical-cap covering/packing checks of a waveplate net (`protocol.NetSpec`)
under the chord metric, the net records of an input state as arrays, one kernel
for the two continuity lower bounds on the premeasurement negativity, and the
full-sphere positivity scan built on it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qcore import DensityMatrix
from .protocol import (
    _CNOT_IMAGE,
    NetSpec,
    WaveplateSetting,
    _premeasure,
    bloch_vector,
    dedup_bloch,
    u_b,
)
from .measures import _fibonacci_directions, negativities

# Largest `verify_covering` resolution: its chord kernel holds three (bases,
# points) float arrays, 77 MB at the 16 distinct bases of the default net; a
# net-verify run at it peaks near 120 MB resident
MAX_RESOLUTION = 200_000
# Finest `sphere_scan` grid step, 0.25 degree, and its MAX_GRID_POINTS grid points,
# whose three (records, points) chord arrays take 44 MB at the 28-setting default
# net; a certify run at it peaks near 95 MB resident
MIN_GRID_STEP = math.pi / 720
MAX_GRID_POINTS = 361 * 181


class NetRecords(NamedTuple):
    """The records of a state on a net, as arrays over its k settings: the waveplate
    angles, the brute-force AB|M negativity of each premeasurement state, and each
    state's 4x4 block at the C-NOT image, which is chi rotated on B."""

    theta: np.ndarray
    phi: np.ndarray
    n: np.ndarray
    blocks: np.ndarray


def net_records(chi: DensityMatrix, net: NetSpec) -> NetRecords:
    """The records of `chi` on every setting of `net`, theta-major like
    `net.angles()`, from one stacked premeasurement and one stacked `eigvalsh`."""
    if chi.dims != (2, 2):
        raise ValueError(f"chi must be a 2-qubit state, got dims {chi.dims}")
    theta, phi = net.angles()
    states = _premeasure(chi.mat, u_b(theta, phi))
    return NetRecords(theta, phi, negativities(states, (2, 2, 2), [0, 1]),
                      states[:, _CNOT_IMAGE[:, None], _CNOT_IMAGE])


def cap_radius(epsilon: float) -> float:
    """Base-circle radius of the spherical cap whose rim sits at chord distance epsilon."""
    if not 0.0 <= epsilon <= 2.0:
        raise ValueError(f"epsilon must be in [0, 2], got {epsilon}")
    return 0.25 * math.sqrt(epsilon**2 * (4.0 - epsilon**2))


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


def verify_covering(net: NetSpec, epsilon: float, resolution: int = 10_000):
    """Check that every point of a Fibonacci lattice lies within chord epsilon of the net.

    Returns (covered, worst_gap).
    """
    if not 1000 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [1000, {MAX_RESOLUTION}] sample points")
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


def lower_bounds(records: NetRecords, theta, phi):
    """Two continuity lower bounds on the AB|M negativity N(n) at each target
    setting (theta, phi), given as two 1-D angle arrays of one length, read off
    the records alone.  A negative bound means "not certified", not "zero".
    Returns (low1, low2, L): two arrays over the targets and the constant L,

        low1 = max_j (N_j - chord(n, n_j)),   low2 = max_j (N_j - L chord(n, n_j)),

    with L = min(1, max_j ||B_j - tr_B(B_j) x I/2||_1), B_j the 4x4 block of
    record j's state at the C-NOT image, which is chi rotated on B.

    Both rest on N being L-Lipschitz in the chord metric with n and -n
    identified.  With Z_n = I x n.sigma, N(n) = ||chi - D_n(chi)||_1
    = 1/2 ||chi - Z_n chi Z_n||_1 (the dephasing lemma of `negativities_offdiag`).
    Any tau = X_A x I commutes with Z_n, so with Delta = chi - tau
        N(n) = 1/2 ||Delta - Z_n Delta Z_n||_1,
        |N(n) - N(m)| <= 1/2 ||Z_n Delta Z_n - Z_m Delta Z_m||_1 <= |n - m| ||Delta||_1,
    since ||Z_n - Z_m||_inf = |n - m|; Z_-n gives the conjugation of Z_n, so
    |n - m| may be the chord.  tau = 0 gives ||chi||_1 = 1, and tau =
    chi_A x I/2 gives ||chi - chi_A x I/2||_1, which no unitary on B changes, so
    every B_j gives it.  As L <= 1, low2 >= low1 in every entry, exactly.
    """
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if theta.ndim != 1 or theta.shape != phi.shape:
        raise ValueError("theta and phi must be 1-D arrays of one length")
    return _bounds(records, _basis_chords(bloch_vector(records.theta, records.phi),
                                          bloch_vector(theta, phi)))


def _bounds(records: NetRecords, chords: np.ndarray):
    """`lower_bounds` from the (records, targets) chord array of the record bases."""
    if not len(records.n):
        raise ValueError("lower_bounds needs at least one record")
    if not (records.n >= 0).all():  # also rejects NaN
        raise ValueError("record negativities must be nonnegative")
    rec_n, blocks = records.n[:, None], records.blocks
    marginal = np.einsum("jabcb->jac", blocks.reshape(-1, 2, 2, 2, 2))
    centred = blocks - np.einsum("jac,bd->jabcd", marginal, np.eye(2) / 2).reshape(blocks.shape)
    lip = min(1.0, float(np.abs(np.linalg.eigvalsh(centred)).sum(axis=-1).max()))
    low1 = (rec_n - chords).max(axis=0)
    # at L = 1 the two bounds are one array, bit for bit
    return low1, low1 if lip == 1.0 else (rec_n - lip * chords).max(axis=0), lip


class Scan(NamedTuple):
    """One state's `sphere_scan`; min_low is grid_min - margin, bit for bit."""

    min_low: float
    argmin: WaveplateSetting  # a grid setting whose low2 is within 1e-12 of grid_min
    columns: tuple  # (theta, phi, low1, low2), theta-major over the grid
    grid_min: float  # min(low2) over the grid
    lip: float  # L
    margin: float  # L (2 + sqrt 2) grid_step


def scan_grid(grid_step: float):
    """The (theta, phi) arrays of the `sphere_scan` grid, theta-major."""
    return NetSpec(np.arange(0.0, math.pi / 2 + grid_step / 2, grid_step),
                   np.arange(0.0, math.pi / 4 + grid_step / 2, grid_step)).angles()


def sphere_scan(states, net: NetSpec, grid_step: float = math.pi / 180) -> list:
    """Both lower bounds, from the net records of each state in `states`, on one
    (theta, phi) grid over the full angular range, MIN_GRID_STEP <= grid_step <= pi/90,
    and a verdict that holds between the grid points too.

    Returns one `Scan` per state.  The chords to the grid depend on the net alone,
    so one chord array serves every state.

    The range theta in [0, pi/2], phi in [0, pi/4] reaches every basis:
    n = (-cos a sin 2 theta, -sin a, cos a cos 2 theta) with a = 2 (theta - 2 phi),
    2 theta sweeps half a turn, and at each theta, a sweeps an interval of
    length pi, where a - pi gives -n.  Each angle pair of the range lies within grid_step/2 of
    a grid corner in both angles, and |dn/dphi| = 4, |dn/dtheta| <= 2 sqrt 2, so
    every basis lies within chord r = (2 + sqrt 2) grid_step of a grid point.
    low2 is L-Lipschitz, so
        min_low = min(low2) - L r
    bounds N(n) from below at every basis.  argmin is the
    lexicographically smallest grid (theta, phi) whose low2 is within 1e-12 of
    min(low2).
    """
    if not MIN_GRID_STEP <= grid_step <= math.pi / 90 + 1e-12:  # also rejects NaN
        raise ValueError(f"grid_step must lie in [pi/720, pi/90], got {grid_step}")
    theta, phi = scan_grid(grid_step)
    chords = _basis_chords(bloch_vector(*net.angles()), bloch_vector(theta, phi))
    scans = []
    for chi in states:
        low1, low2, lip = _bounds(net_records(chi, net), chords)
        # the grid runs theta-major in ascending order, so the first near-tie is the
        # lexicographically smallest; rounding-level changes in chi do not move it
        grid_min = float(low2.min())
        i = int(np.flatnonzero(low2 <= grid_min + 1e-12)[0])
        margin = lip * (2.0 + math.sqrt(2.0)) * grid_step
        scans.append(Scan(grid_min - margin, WaveplateSetting(theta[i], phi[i]),
                          (theta, phi, low1, low2), grid_min, lip, margin))
    return scans
