"""Finite-sample certification of entanglement over the whole Bloch sphere.

Spherical-cap covering/packing checks of a net's distinct bases (`dedup_bloch`)
under the chord metric, N(n) of a sequence of states at a stack of directions, the
one path that every command takes (`net_negativities`), and the full-sphere scan of
the two continuity lower bounds on the premeasurement negativity, read off N(n) at
the net's distinct bases (`sphere_scan`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .protocol import NetSpec, WaveplateSetting, bloch_vector, dedup_bloch
from .measures import negativities_offdiag

# Largest `verify_covering` resolution: it holds one (bases, points) float array
# of dot products, 26 MB at the 16 distinct bases of the default net; a
# net-verify run at it peaks near 68 MiB resident
MAX_RESOLUTION = 200_000
# Finest `sphere_scan` grid step, 0.25 degree, and its MAX_GRID_POINTS grid points,
# whose chord kernel holds three (bases, points) float arrays, 25 MB at the 16
# distinct bases of the default net; a certify run at it peaks near 63 MiB resident
MIN_GRID_STEP = math.pi / 720
MAX_GRID_STEP = math.pi / 90 + 1e-12  # the coarsest, 2 degrees, with a float margin
MAX_GRID_POINTS = 361 * 181
# `net_negativities` takes N(n) in blocks of at most this many (state, setting) pairs,
# or one state, about 190 B a pair at the peak: memory does not grow with the state count
MAX_NET_SETTINGS = 10_000


def net_negativities(states, dirs: np.ndarray) -> np.ndarray:
    """N(n) of each 2-qubit state of the sequence `states` at each unit direction of
    the (k, 3) stack `dirs`, as a (states, k) array: the `negativities_offdiag`
    kernel, in blocks of states."""
    if any(chi.dims != (2, 2) for chi in states):
        raise ValueError("every state must be a 2-qubit state")
    mats = np.array([chi.mat for chi in states])
    out, step = np.empty((len(mats), len(dirs))), max(1, MAX_NET_SETTINGS // max(1, len(dirs)))
    for i in range(0, len(mats), step):
        out[i:i + step] = negativities_offdiag(mats[i:i + step], dirs)
    return out


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
    sign = bases @ points.T
    np.copysign(1.0, sign, out=sign)
    sq, d = np.zeros_like(sign), np.empty_like(sign)
    for x, m in zip(np.ascontiguousarray(points.T), bases.T):
        np.subtract(x, np.multiply(sign, m[:, None], out=d), out=d)
        sq += np.square(d, out=d)
    return np.sqrt(sq, out=sq)


def _fibonacci_directions(count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors (Fibonacci lattice)."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    az = 2.0 * math.pi * i / golden
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(az), r * np.sin(az), z], axis=1)


def verify_covering(bases: np.ndarray, epsilon: float, resolution: int = 10_000):
    """Check that every Fibonacci lattice point lies within chord epsilon of `bases`.

    Returns (covered, worst_gap).
    """
    if not 1000 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [1000, {MAX_RESOLUTION}] sample points")
    lattice = _fibonacci_directions(resolution)
    # the nearest basis has the largest |n.m|; the worst point is among those whose
    # largest |n.m| ties the smallest, so exact chords are taken at those alone
    dots = bases @ lattice.T
    near = np.maximum(dots.max(axis=0), -dots.min(axis=0))
    worst = lattice[~(near > near.min() + 1e-12)]  # all points if any is NaN
    worst_gap = float(_basis_chords(bases, worst).min(axis=0).max())
    return worst_gap <= epsilon + 1e-9, worst_gap


def verify_packing(bases: np.ndarray, epsilon: float):
    """Check that the distinct `bases` are pairwise at least epsilon apart.

    Returns (packed, min_pairwise_distance).
    """
    # the pairs i < j in row blocks of about 65k chords: row i of a block starting
    # at s holds the chords to bases s + 1 on, the first i - s of them pairs j <= i
    step, mins = 1 + 2**16 // (len(bases) or 1), [math.inf]
    for s in range(0, len(bases) - 1, step):
        chords = _basis_chords(bases[s:s + step], bases[s + 1:])
        chords[np.tril_indices(len(chords), -1, chords.shape[1])] = math.inf
        mins.append(chords.min())
    dmin = float(np.min(mins))
    # the default net attains the threshold exactly, so compare with a float margin
    return dmin >= epsilon - 1e-9, dmin


class Scan(NamedTuple):
    """One state's `sphere_scan`; min_low is grid_min - margin, bit for bit."""

    min_low: float
    argmin: WaveplateSetting  # a grid setting whose low2 is within 1e-12 of grid_min
    columns: tuple  # (theta, phi, low1, low2), theta-major over the grid
    grid_min: float  # min(low2) over the grid
    lip: float  # L
    margin: float  # L (2 + sqrt 2) grid_step


def scan_axes(grid_step: float):
    """The theta and phi axes of the `sphere_scan` grid, which is their product."""
    return (np.arange(0.0, math.pi / 2 + grid_step / 2, grid_step),
            np.arange(0.0, math.pi / 4 + grid_step / 2, grid_step))


def sphere_scan(states, net: NetSpec, grid_step: float = math.pi / 180) -> list:
    """Two continuity lower bounds on the AB|M negativity N(n), from each state's N_j
    at the net's distinct bases n_j, on one (theta, phi) grid over the full angular
    range, MIN_GRID_STEP <= grid_step <= pi/90, and a verdict that holds between the
    grid points too.  A negative bound means "not certified", not "zero":

        low1 = max_j (N_j - chord(n, n_j)),   low2 = max_j (N_j - L chord(n, n_j)),

    with L = min(1, ||chi - chi_A x I/2||_1).  Both rest on N being L-Lipschitz in
    the chord, n and -n identified.  With Z_n = I x n.sigma and any Delta = chi - X_A x I,
    N(n) = 1/2 ||Delta - Z_n Delta Z_n||_1 (the dephasing lemma of `negativities_offdiag`),
    so |N(n) - N(m)| <= |n - m| ||Delta||_1 as ||Z_n - Z_m||_inf = |n - m|, and Z_-n
    conjugates like Z_n; Delta = chi gives 1, and Delta = chi - chi_A x I/2 the
    other constant, which no unitary on B changes.  As L <= 1, low2 >= low1 exactly.

    Returns one `Scan` per state.  One (distinct bases, grid points) chord array, which
    depends on the net alone, and one buffer serve every state.  A setting that
    `dedup_bloch` drops twins a kept basis, and a max over fewer lower bounds is one too.

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
    if not MIN_GRID_STEP <= grid_step <= MAX_GRID_STEP:  # also rejects NaN
        raise ValueError(f"grid_step must lie in [pi/720, pi/90], got {grid_step}")
    bases = dedup_bloch(net)
    if not len(bases):
        raise ValueError("sphere_scan needs at least one record, and the net has no settings")
    theta, phi = NetSpec(*scan_axes(grid_step)).angles()
    chords = _basis_chords(bases, bloch_vector(theta, phi))
    buf, scans = np.empty_like(chords), []
    for chi, n in zip(states, net_negativities(states, bases)):
        rec_n = n[:, None]
        chi_a = np.trace(chi.mat.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        lip = float(np.abs(np.linalg.eigvalsh(chi.mat - np.kron(chi_a, np.eye(2) / 2))).sum())
        low1 = np.subtract(rec_n, chords, out=buf).max(axis=0)
        # L = 1 always holds (Delta = chi), so an L within rounding of 1, or above it,
        # is 1 and the two bounds are one array, bit for bit
        if lip < 1.0 - 1e-12:
            low2 = np.subtract(rec_n, np.multiply(lip, chords, out=buf), out=buf).max(axis=0)
        else:
            low2, lip = low1, 1.0
        # the grid runs theta-major in ascending order, so the first near-tie is the
        # lexicographically smallest; rounding-level changes in chi do not move it
        grid_min = float(low2.min())
        i = int(np.flatnonzero(low2 <= grid_min + 1e-12)[0])
        margin = lip * (2.0 + math.sqrt(2.0)) * grid_step
        scans.append(Scan(grid_min - margin, WaveplateSetting(theta[i], phi[i]),
                          (theta, phi, low1, low2), grid_min, lip, margin))
    return scans
