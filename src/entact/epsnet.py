"""Finite-sample certification of entanglement over the whole Bloch sphere.

Spherical-cap covering/packing checks of a net's distinct bases (`dedup_bloch`)
under the chord metric, the net records of an input state as arrays (N(n) by the
(b, T) kernel of `measures.negativities_offdiag`), one kernel for the two
continuity lower bounds on the premeasurement negativity, and the full-sphere
positivity scan built on it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .protocol import NetSpec, WaveplateSetting, _rotate_b, bloch_vector, u_b
from .measures import _fibonacci_directions, _frames, _kernel, _pauli_block

# Largest `verify_covering` resolution: it holds one (bases, points) float array
# of dot products, 26 MB at the 16 distinct bases of the default net; a
# net-verify run at it peaks near 68 MiB resident
MAX_RESOLUTION = 200_000
# Finest `sphere_scan` grid step, 0.25 degree, and its MAX_GRID_POINTS grid points,
# whose chord kernel holds three (records, points) float arrays, 44 MB at the
# 28-setting default net; a certify run at it peaks near 85 MiB resident
MIN_GRID_STEP = math.pi / 720
MAX_GRID_STEP = math.pi / 90 + 1e-12  # the coarsest, 2 degrees, with a float margin
MAX_GRID_POINTS = 361 * 181


class NetRecords(NamedTuple):
    """The records of a state on a net, as arrays over its k settings: the waveplate
    angles, N(n) = 2 ||<n| chi |n_perp>||_1 of each premeasurement state, read off B's
    Bloch vector b and the correlation matrix T of chi (`measures.negativities_offdiag`),
    and each state's 4x4 block at the C-NOT image, which is chi rotated on B."""

    theta: np.ndarray
    phi: np.ndarray
    n: np.ndarray
    blocks: np.ndarray


def net_records(states, net: NetSpec):
    """The records of each 2-qubit state of the sequence `states` on every setting of
    `net`, theta-major like `net.angles()`, yielded one `NetRecords` per state.

    The directions' frames and u_b are built once over the net; each state's record is
    read straight off chi, N(n) by one `measures._kernel` call on its (b, T), so a
    caller that drops each record holds no more than one."""
    if any(chi.dims != (2, 2) for chi in states):
        raise ValueError("every state must be a 2-qubit state")
    theta, phi = net.angles()
    e, u = _frames(bloch_vector(theta, phi)), u_b(theta, phi)
    for chi in states:
        yield NetRecords(theta, phi, _kernel(_pauli_block(chi.mat), e), _rotate_b(chi.mat, u))


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
    chords = _basis_chords(bloch_vector(records.theta, records.phi), bloch_vector(theta, phi))
    return _bounds(records, chords, np.empty_like(chords))


def _bounds(records: NetRecords, chords: np.ndarray, buf: np.ndarray):
    """`lower_bounds` from the (records, targets) chord array of the record bases,
    writing its differences into `buf`, a float array of the same shape."""
    if not len(records.n):
        raise ValueError("lower_bounds needs at least one record")
    if not (records.n >= 0).all():  # also rejects NaN
        raise ValueError("record negativities must be nonnegative")
    rec_n, blocks = records.n[:, None], records.blocks
    marginal = np.einsum("jabcb->jac", blocks.reshape(-1, 2, 2, 2, 2))
    centred = blocks - np.einsum("jac,bd->jabcd", marginal, np.eye(2) / 2).reshape(blocks.shape)
    lip = float(np.abs(np.linalg.eigvalsh(centred)).sum(axis=-1).max())
    low1 = np.subtract(rec_n, chords, out=buf).max(axis=0)
    # L = 1 always holds (tau = 0), so an L within rounding of 1, or above it, is 1
    # and the two bounds are one array, bit for bit
    if not lip < 1.0 - 1e-12:
        return low1, low1, 1.0
    return low1, np.subtract(rec_n, np.multiply(lip, chords, out=buf), out=buf).max(axis=0), lip


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
    """Both lower bounds, from the net records of each state in `states`, on one
    (theta, phi) grid over the full angular range, MIN_GRID_STEP <= grid_step <= pi/90,
    and a verdict that holds between the grid points too.

    Returns one `Scan` per state.  The chords to the grid depend on the net alone,
    so one chord array, and one buffer for the bounds, serve every state.

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
    theta, phi = NetSpec(*scan_axes(grid_step)).angles()
    chords = _basis_chords(bloch_vector(*net.angles()), bloch_vector(theta, phi))
    buf, scans = np.empty_like(chords), []
    for records in net_records(states, net):
        low1, low2, lip = _bounds(records, chords, buf)
        # the grid runs theta-major in ascending order, so the first near-tie is the
        # lexicographically smallest; rounding-level changes in chi do not move it
        grid_min = float(low2.min())
        i = int(np.flatnonzero(low2 <= grid_min + 1e-12)[0])
        margin = lip * (2.0 + math.sqrt(2.0)) * grid_step
        scans.append(Scan(grid_min - margin, WaveplateSetting(theta[i], phi[i]),
                          (theta, phi, low1, low2), grid_min, lip, margin))
    return scans
