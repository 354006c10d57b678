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

from .qcore import DensityMatrix, PAULIS, tensor
from .protocol import BlochVector, WaveplateSetting, basis_kets, bloch_vector, setting_of

BELL_DIAGONAL_TOL = 1e-8
_SIGMAS = np.array([PAULIS[p] for p in "XYZ"])
# Nelder-Mead runs from this many of the best seed directions: one start missed
# the global minimum on 7 of 300 random full-rank states, four on none of 1,000
_STARTS = 4


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
    return float(negativities(rho.mat[None], rho.dims, cut)[0])


def negativities(mats: np.ndarray, dims, cut) -> np.ndarray:
    """`negativity` of every matrix of a (reps, d, d) stack with subsystem dimensions
    `dims`, from one stacked partial transpose and one stacked `eigvalsh`."""
    dims = tuple(dims)
    cut = sorted(set(int(i) for i in cut))
    k = len(dims)
    if not cut or len(cut) >= k or any(i < 0 or i >= k for i in cut):
        raise ValueError(f"invalid bipartition {cut} for dims {dims}")
    pt = mats.reshape((len(mats),) + dims + dims)
    for i in range(k):
        if i not in cut:
            pt = pt.swapaxes(1 + i, 1 + k + i)
    # the partial transpose stays Hermitian, so the trace norm is a plain
    # absolute eigenvalue sum (better conditioned than the O^dag O route)
    raw = np.abs(np.linalg.eigvalsh(pt.reshape(mats.shape))).sum(axis=-1) - 1.0
    if raw.min() < -1e-12:
        raise ValueError(f"negativity evaluated to {raw.min()}, below numerical tolerance")
    # symmetric zero band: LAPACK's +4e-16 on separable states is not entanglement
    return np.where(raw > 1e-12, raw, 0.0)


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
    return np.einsum("abcd,ica,jdb->ij", chi.mat.reshape(2, 2, 2, 2), _SIGMAS, _SIGMAS).real


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


def _dephased_distance(chi_mat: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """||chi - D_n(chi)||_1 for each direction in the stack `ns` (k, 3), where D_n
    dephases B in the basis of n . sigma.

    D_n(chi) is the closest state to chi that is classical on B along n: for any
    such sigma, I x Z_n fixes sigma and flips the sign of X = chi - D_n(chi), so
    2X = (chi - sigma) - (I x Z_n)(chi - sigma)(I x Z_n) and ||chi - sigma||_1 >= ||X||_1.
    """
    _, v = np.linalg.eigh(np.einsum("ki,ijl->kjl", ns, _SIGMAS))
    # chi in each n basis, B index first: r[k, x, y, a, c] = <a x_n| chi |c y_n>
    r = np.einsum("kbx,abcd,kdy->kxyac", v.conj(), chi_mat.reshape(2, 2, 2, 2), v)
    r[:, 0, 0] = r[:, 1, 1] = 0.0  # X keeps only the B-off-diagonal blocks
    x = r.swapaxes(2, 3).reshape(-1, 4, 4)
    return np.abs(np.linalg.eigvalsh(x)).sum(axis=-1)


def discord_numeric(chi: DensityMatrix) -> MeasureResult:
    """Trace-distance discord of a two-qubit state, measured on B.

    For each direction n the closest B-classical state is the dephased D_n(chi)
    (see `_dephased_distance`), so only n is searched: the 64-point Fibonacci
    lattice in one batch, then Nelder-Mead in polar angles from its best few
    points (one start can miss the global minimum of a general state).
    """
    if chi.dims != (2, 2):
        raise ValueError(f"expected a 2-qubit state, got dims {chi.dims}")
    seeds = _fibonacci_directions(64)
    coarse = _dephased_distance(chi.mat, seeds)

    def objective(angles):
        th, ph = angles
        n = [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        return float(_dephased_distance(chi.mat, np.array([n]))[0])

    value = float(coarse.min())
    for n0 in seeds[np.argsort(coarse, kind="stable")[:_STARTS]]:
        th0 = math.acos(min(max(n0[2], -1.0), 1.0))
        ph0 = math.atan2(n0[1], n0[0])
        res = minimize(objective, [th0, ph0], method="Nelder-Mead",
                       options=dict(xatol=1e-6, fatol=1e-8, maxiter=200, maxfev=300))
        value = min(value, float(res.fun))
    if not np.isfinite(value):
        raise OptimizerError("trace-distance minimization did not converge")
    return MeasureResult(max(value, 0.0), Method.NUMERICAL_MIN)


def negativity_of_quantumness(chi: DensityMatrix, angular_tol: float = 1e-6) -> MeasureResult:
    """Minimum premeasurement negativity over all measurement bases on B.

    Coarse stage: the bases of the 28-setting net plus 64 Fibonacci directions,
    each as its `setting_of` (the net alone leaves Nelder-Mead in local minima
    on general states); refinement: Nelder-Mead in (theta, phi) down to
    `angular_tol` from the best few.  Ties at the coarse stage resolve to the
    lexicographically smallest setting.
    """
    from .epsnet import dedup_bloch, default_net  # local import to avoid a module cycle

    # distinct bases only: the 28 net settings hold 16, +-y four times
    dirs = np.vstack([dedup_bloch(default_net()), _fibonacci_directions(64)])
    grid = [setting_of(BlochVector(*n)) for n in dirs]
    vals = [negativity_offdiag(chi, bloch_vector(s)) for s in grid]
    vmin = min(vals)
    # near-ties of the minimum rank first, lexicographically; then by value
    ranked = sorted(zip(vals, grid),
                    key=lambda vs: (max(vs[0], vmin + 1e-9), vs[1].theta, vs[1].phi))

    def objective(angles):
        return negativity_offdiag(chi, bloch_vector(WaveplateSetting(angles[0], angles[1])))

    best, value = ranked[0][1], vmin
    for _, s0 in ranked[:_STARTS]:
        res = minimize(objective, [s0.theta, s0.phi], method="Nelder-Mead",
                       options=dict(xatol=angular_tol * 0.1, fatol=1e-12, maxiter=400))
        if res.fun < value - 1e-9:
            best, value = WaveplateSetting(res.x[0], res.x[1]), float(res.fun)
    return MeasureResult(max(value, 0.0), Method.NUMERICAL_MIN, settings_used=best)
