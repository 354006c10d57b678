"""Entanglement and discord quantifiers.

Negativity comes in three routes (brute-force partial transpose, the
off-diagonal-block shortcut for premeasurement states, and the closed form in
the waveplate angles), plus the trace-distance discord in closed form for
Bell-diagonal states and by numerical minimization in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .qcore import (
    DensityMatrix,
    PAULIS,
    partial_transpose,
    projector,
    tensor,
)
from .protocol import BlochVector, WaveplateSetting, basis_kets, bloch_vector

BELL_DIAGONAL_TOL = 1e-8


class Method(Enum):
    BRUTE_FORCE = "BruteForce"
    OFF_DIAGONAL_BLOCK = "OffDiagonalBlock"
    CLOSED_FORM = "ClosedForm"
    NUMERICAL_MIN = "NumericalMin"


@dataclass(frozen=True)
class MeasureResult:
    value: float
    method: Method
    settings_used: Optional[WaveplateSetting] = None

    def __post_init__(self):
        if self.value < -1e-12:
            raise ValueError(f"measure value {self.value} below tolerance")

    def to_json_dict(self) -> dict:
        d = {"value": self.value, "method": self.method.value}
        if self.settings_used is not None:
            d["settings_used"] = self.settings_used.to_json_dict()
        return d


class OptimizerError(RuntimeError):
    """Raised when a numerical minimization fails to converge."""


def negativity(rho: DensityMatrix, cut) -> float:
    """N = ||rho^Gamma||_1 - 1 for the bipartition `cut` (iterable of subsystem indices).

    The partial transpose is applied on the complement of `cut`; the value is
    symmetric in the choice, so `cut` just needs to name one side.
    """
    cut = sorted(set(int(i) for i in cut))
    k = len(rho.dims)
    if not cut or len(cut) >= k or any(i < 0 or i >= k for i in cut):
        raise ValueError(f"invalid bipartition {cut} for dims {rho.dims}")
    other = [i for i in range(k) if i not in cut]
    pt = rho.mat
    for i in other:
        pt = partial_transpose(pt, i, rho.dims)
    # the partial transpose stays Hermitian, so the trace norm is a plain
    # absolute eigenvalue sum (better conditioned than the O^dag O route)
    raw = float(np.abs(np.linalg.eigvalsh(pt)).sum()) - 1.0
    if raw < -1e-12:
        raise ValueError(f"negativity evaluated to {raw}, below numerical tolerance")
    # symmetric zero band: LAPACK's +4e-16 on separable states is not entanglement
    return raw if raw > 1e-12 else 0.0


def negativity_offdiag(chi: DensityMatrix, n: BlochVector) -> float:
    """Premeasurement negativity without building the 3-qubit state: 2 ||<n| chi |n_perp>||_1."""
    if chi.dims != (2, 2):
        raise ValueError("off-diagonal route expects a 2-qubit state with B a qubit")
    ket_n, ket_p = basis_kets(n)
    c4 = chi.mat.reshape(2, 2, 2, 2)
    block = np.einsum("b,abcd,d->ac", ket_n.conj(), c4, ket_p)
    return 2.0 * float(np.linalg.svd(block, compute_uv=False).sum())


def negativity_theory(q: float, s: WaveplateSetting) -> float:
    """Closed-form premeasurement negativity for the chi_q family."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if q >= 1.0 / 3.0:
        return float(q)
    radicand = ((q - 1.0) * (3.0 * q - 1.0) * math.cos(4.0 * s.theta - 8.0 * s.phi)
                + q * (5.0 * q - 4.0) + 1.0) / 2.0
    return math.sqrt(max(radicand, 0.0))


def correlation_matrix(chi: DensityMatrix) -> np.ndarray:
    """3x3 real matrix T_ij = Tr[chi (sigma_i x sigma_j)]."""
    if chi.dims != (2, 2):
        raise ValueError(f"expected a 2-qubit state, got dims {chi.dims}")
    axes = "XYZ"
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = np.trace(chi.mat @ tensor(PAULIS[axes[i]], PAULIS[axes[j]])).real
    return t


def is_bell_diagonal(chi: DensityMatrix, tol: float = BELL_DIAGONAL_TOL) -> bool:
    """True when the only nonzero correlations are the diagonal sigma_i x sigma_i terms
    and both marginals are maximally mixed."""
    if chi.dims != (2, 2):
        return False
    t = correlation_matrix(chi)
    if np.abs(t - np.diag(np.diag(t))).max() > tol:
        return False
    # local Bloch vectors must vanish as well
    for pauli in "XYZ":
        if abs(np.trace(chi.mat @ tensor(PAULIS[pauli], np.eye(2))).real) > tol:
            return False
        if abs(np.trace(chi.mat @ tensor(np.eye(2), PAULIS[pauli])).real) > tol:
            return False
    return True


def discord_bell_diagonal(chi: DensityMatrix) -> float:
    """Trace-distance discord of a Bell-diagonal state: the middle singular value
    of its correlation matrix."""
    if not is_bell_diagonal(chi):
        raise ValueError("state is not Bell-diagonal; use discord_numeric instead")
    s = np.sort(np.abs(np.linalg.svd(correlation_matrix(chi), compute_uv=False)))
    return float(s[1])


def _fibonacci_directions(count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors (Fibonacci lattice)."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    az = 2.0 * math.pi * i / golden
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(az), r * np.sin(az), z], axis=1)


def _basis_projectors(n: np.ndarray):
    h = (n[0] * PAULIS["X"] + n[1] * PAULIS["Y"] + n[2] * PAULIS["Z"])
    _, v = np.linalg.eigh(h)
    return projector(v[:, 1]), projector(v[:, 0])


def _closest_qc_distance(chi_mat: np.ndarray, n: np.ndarray, iters: int,
                         restarts: int, rng: np.random.Generator) -> float:
    """Minimal ||chi - (M0 x P_n + M1 x P_perp)||_1 over PSD M0, M1 with total trace 1.

    Convex in (M0, M1); solved by projected subgradient descent with restarts.
    """
    p0, p1 = _basis_projectors(n)
    c4 = chi_mat.reshape(2, 2, 2, 2)
    best = np.inf
    for r in range(restarts):
        if r == 0:
            # measured-block seed: exact optimum whenever chi is classical along n
            m0 = np.einsum("abcd,db->ac", c4, p0)
            m1 = np.einsum("abcd,db->ac", c4, p1)
        else:
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m0, m1 = a @ a.conj().T, b @ b.conj().T
            s = np.trace(m0 + m1).real
            m0, m1 = m0 / s, m1 / s
        step = 0.15
        for _ in range(iters):
            delta = chi_mat - np.kron(m0, p0) - np.kron(m1, p1)
            w, v = np.linalg.eigh(delta)
            best = min(best, float(np.abs(w).sum()))
            g = (v * np.sign(w)) @ v.conj().T
            g4 = g.reshape(2, 2, 2, 2)
            m0n = m0 + step * np.einsum("abcd,db->ac", g4, p0)
            m1n = m1 + step * np.einsum("abcd,db->ac", g4, p1)
            ww, vv = np.linalg.eigh(m0n)
            m0n = (vv * np.maximum(ww, 0.0)) @ vv.conj().T
            ww, vv = np.linalg.eigh(m1n)
            m1n = (vv * np.maximum(ww, 0.0)) @ vv.conj().T
            s = np.trace(m0n + m1n).real
            if s > 1e-12:
                m0n, m1n = m0n / s, m1n / s
            m0, m1 = m0n, m1n
            step *= 0.97
    return best


def discord_numeric(chi: DensityMatrix, seed: int = 0, max_restarts: int = 5) -> MeasureResult:
    """Trace-distance discord by a two-level minimization.

    Outer: measurement direction on B's Bloch sphere, seeded on a 64-point
    Fibonacci lattice and refined by Nelder-Mead.  Inner: convex projected
    subgradient descent over the quantum-classical blocks.
    """
    if chi.dims != (2, 2):
        raise ValueError(f"expected a 2-qubit state, got dims {chi.dims}")
    rng = np.random.default_rng(seed)
    seeds = _fibonacci_directions(64)
    coarse = [( _closest_qc_distance(chi.mat, n, 60, 1, rng), n) for n in seeds]
    f0, n0 = min(coarse, key=lambda x: x[0])

    def objective(angles):
        th, ph = angles
        n = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
        return _closest_qc_distance(chi.mat, n, 150, 1, rng)

    th0 = math.acos(min(max(n0[2], -1.0), 1.0))
    ph0 = math.atan2(n0[1], n0[0])
    res = minimize(objective, [th0, ph0], method="Nelder-Mead",
                   options=dict(xatol=1e-6, fatol=1e-8, maxiter=200, maxfev=300))
    th, ph = res.x
    n_best = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
    polish = _closest_qc_distance(chi.mat, n_best, 400, max_restarts, rng)
    value = min(f0, float(res.fun), polish)
    if not np.isfinite(value):
        raise OptimizerError("trace-distance minimization did not converge")
    return MeasureResult(max(value, 0.0), Method.NUMERICAL_MIN)


def negativity_of_quantumness(chi: DensityMatrix, angular_tol: float = 1e-6) -> MeasureResult:
    """Minimum premeasurement negativity over all measurement bases on B.

    Coarse stage: the 28-setting net over the full angular periodicity;
    refinement: Nelder-Mead in (theta, phi) down to `angular_tol`.
    Ties at the coarse stage resolve to the lexicographically smallest setting.
    """
    from .epsnet import default_net  # local import to avoid a module cycle

    net = default_net()
    grid = [WaveplateSetting(th, ph) for th in net.thetas for ph in net.phis]
    vals = [negativity_offdiag(chi, bloch_vector(s)) for s in grid]
    vmin = min(vals)
    candidates = sorted(
        (s for s, v in zip(grid, vals) if v <= vmin + 1e-9),
        key=lambda s: (s.theta, s.phi),
    )
    s0 = candidates[0]

    def objective(angles):
        return negativity_offdiag(chi, bloch_vector(WaveplateSetting(angles[0], angles[1])))

    res = minimize(objective, [s0.theta, s0.phi], method="Nelder-Mead",
                   options=dict(xatol=angular_tol * 0.1, fatol=1e-12, maxiter=400))
    if res.fun < vmin - 1e-9:
        best = WaveplateSetting(res.x[0], res.x[1])
        value = float(res.fun)
    else:
        best, value = s0, vmin
    return MeasureResult(max(value, 0.0), Method.NUMERICAL_MIN, settings_used=best)
