"""Finite-sample certification of entanglement over the whole Bloch sphere.

A 28-setting waveplate net, spherical-cap covering/packing checks under the
chord metric, two continuity lower bounds on the premeasurement negativity,
and full-sphere positivity scans built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .qcore import DensityMatrix, chi_q
from .protocol import BlochVector, WaveplateSetting, _premeasure, bloch_vector, premeasurement, u_b
from .measures import _fibonacci_directions, negativity_theory


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
    """One sampled setting with its (computed or simulated) negativity."""

    setting: WaveplateSetting
    bloch: BlochVector
    negativity_measured: float
    state: Optional[DensityMatrix] = None

    def __post_init__(self):
        if self.negativity_measured < 0:
            raise ValueError("measured negativity must be nonnegative")
        expected = bloch_vector(self.setting).as_array()
        if np.abs(expected - self.bloch.as_array()).max() > 1e-10:
            raise ValueError("bloch does not match bloch_vector(setting)")


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds on the negativity at one unmeasured setting.

    `low` is the certified bound: the larger of the two individually valid
    lower bounds.  (Taking the smaller, as a worst case over modelling
    assumptions, makes the q = 0.2 and q = 0.4 ideal nets uncertifiable.)
    """

    target: WaveplateSetting
    low1: float
    low2: float
    low: float = field(default=None)
    witness_record: tuple = (None, None)

    def __post_init__(self):
        if self.low is None:
            object.__setattr__(self, "low", max(self.low1, self.low2))

    def to_json_dict(self) -> dict:
        return {
            "target": self.target.to_json_dict(),
            "low1": self.low1,
            "low2": self.low2,
            "low": self.low,
            "witness_record": list(self.witness_record),
        }


def default_net() -> NetSpec:
    """The 7 x 4 = 28 settings theta_j = j pi/12 (j = 0..6), phi_k = k pi/12 (k = 0..3)."""
    return NetSpec(
        thetas=tuple(j * math.pi / 12 for j in range(7)),
        phis=tuple(k * math.pi / 12 for k in range(4)),
    )


def ideal_records(q: float, net: NetSpec, with_states: bool = True) -> List[NetRecord]:
    """Noise-free records for the chi_q family over a net."""
    chi = chi_q(q)
    recs = []
    for s in net.settings():
        recs.append(
            NetRecord(
                setting=s,
                bloch=bloch_vector(s),
                negativity_measured=negativity_theory(q, s),
                state=premeasurement(chi, s) if with_states else None,
            )
        )
    return recs


def euclid_chord(n1: BlochVector, n2: BlochVector) -> float:
    """Euclidean (chord) distance between two unit vectors: sqrt(2(1 - n1.n2))."""
    dot = float(np.dot(n1.as_array(), n2.as_array()))
    return math.sqrt(max(0.0, 2.0 * (1.0 - min(dot, 1.0))))


def cap_radius(epsilon: float) -> float:
    """Base-circle radius of the spherical cap whose rim sits at chord distance epsilon."""
    if not 0.0 <= epsilon <= 2.0:
        raise ValueError(f"epsilon must be in [0, 2], got {epsilon}")
    return 0.25 * math.sqrt(epsilon**2 * (4.0 - epsilon**2))


def dedup_bloch(net: NetSpec, tol: float = 1e-8) -> List[BlochVector]:
    """Unique measurement bases of a net, identifying n with -n."""
    unique: List[np.ndarray] = []
    for s in net.settings():
        v = bloch_vector(s).as_array()
        if not any(
            np.abs(v - u).max() <= tol or np.abs(v + u).max() <= tol for u in unique
        ):
            unique.append(v)
    return [BlochVector.from_array(v) for v in unique]


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
    bases = np.array([b.as_array() for b in dedup_bloch(net)])
    lattice = _fibonacci_directions(resolution)
    worst_gap = float(_basis_chords(lattice, bases).min(axis=1).max())
    return worst_gap <= epsilon + 1e-9, worst_gap


def verify_packing(net: NetSpec, epsilon: float):
    """Check that distinct deduplicated bases are pairwise at least epsilon apart.

    Returns (packed, min_pairwise_distance).
    """
    bases = np.array([b.as_array() for b in dedup_bloch(net)])
    if len(bases) < 2:
        return True, math.inf
    dmin = float(_basis_chords(bases, bases)[np.triu_indices(len(bases), 1)].min())
    # the default net attains the threshold exactly, so compare with a float margin
    return dmin >= epsilon - 1e-9, dmin


def bound1(records: List[NetRecord], target: BlochVector) -> float:
    """Chord-continuity lower bound: max_j { N_j - chord(target, n_j) }.

    May be negative; a negative bound means "not certified", not "zero".
    """
    if not records:
        raise ValueError("bound1 needs at least one record")
    rec_n = np.array([r.negativity_measured for r in records])
    rec_b = np.array([r.bloch.as_array() for r in records])
    return float((rec_n - _basis_chords(target.as_array()[None], rec_b)[0]).max())


def bound2(records: List[NetRecord], target_state: DensityMatrix) -> float:
    """State-continuity lower bound: max_j { N_j - ||(rho_target - rho_j)^Gamma||_1 }
    with the partial transpose on M (the AB|M cut)."""
    if not records:
        raise ValueError("bound2 needs at least one record")
    if any(r.state is None for r in records):
        raise ValueError("bound2 needs records carrying premeasurement states")
    rec_n = np.array([r.negativity_measured for r in records])
    rec_s = np.array([r.state.mat for r in records])
    return float((rec_n - _pt_trace_norms(target_state.mat - rec_s)).max())


def combined_bound(records: List[NetRecord], target: WaveplateSetting,
                   chi: DensityMatrix) -> BoundReport:
    """Both lower bounds at an unmeasured target; bound2 uses the model
    premeasurement state built from `chi` (ideal-model assumption)."""
    rec_n = np.array([r.negativity_measured for r in records])
    rec_b = np.array([r.bloch.as_array() for r in records])
    rec_s = np.array([r.state.mat for r in records])
    b1 = rec_n - _basis_chords(bloch_vector(target).as_array()[None], rec_b)[0]
    b2 = rec_n - _pt_trace_norms(premeasurement(chi, target).mat - rec_s)
    i1, i2 = int(np.argmax(b1)), int(np.argmax(b2))
    return BoundReport(
        target=target,
        low1=float(b1[i1]),
        low2=float(b2[i2]),
        witness_record=(i1, i2),
    )


def sphere_scan(q: float, net: NetSpec, grid_step: float = math.pi / 180,
                records: Optional[List[NetRecord]] = None,
                chi: Optional[DensityMatrix] = None):
    """Evaluate the combined bound on a (theta, phi) grid over the full angular range.

    `records` default to the ideal records of chi_q(q), and bound2 targets are built
    from `chi`, by default chi_q(q).  Returns (min_low, argmin_setting, rows) where
    rows carry per-point values (theta, phi, n_theory, low1, low2, low).
    """
    if grid_step > math.pi / 90 + 1e-12:
        raise ValueError("grid_step must be at most pi/90")
    if records is None:
        records = ideal_records(q, net)
    chi = chi_q(q) if chi is None else chi
    rec_n = np.array([r.negativity_measured for r in records])
    rec_b = np.array([r.bloch.as_array() for r in records])
    rec_s = np.array([r.state.mat for r in records])
    thetas = np.arange(0.0, math.pi / 2 + grid_step / 2, grid_step)
    phis = np.arange(0.0, math.pi / 4 + grid_step / 2, grid_step)
    min_low = math.inf
    argmin = None
    rows = []
    for th in thetas:
        # one batch per theta strip: a whole-grid batch of differences would take ~120 MB
        settings = [WaveplateSetting(float(th), float(ph)) for ph in phis]
        targets = _premeasure(chi.mat, np.array([u_b(s) for s in settings]))
        b2 = (rec_n - _pt_trace_norms(targets[:, None] - rec_s)).max(axis=1)
        n_t = np.array([bloch_vector(s).as_array() for s in settings])
        b1 = (rec_n - _basis_chords(n_t, rec_b)).max(axis=1)
        low = np.maximum(b1, b2)
        for i, s in enumerate(settings):
            rows.append((s.theta, s.phi, negativity_theory(q, s),
                         float(b1[i]), float(b2[i]), float(low[i])))
            if low[i] < min_low:
                min_low = float(low[i])
                argmin = s
    return min_low, argmin, rows
