"""Dense complex matrix algebra on small dimensions and the canonical two-qubit states.

Everything here operates on plain complex numpy arrays, with spectra and norms
taken straight from `np.linalg` (LAPACK); `DensityMatrix` is a thin validated
wrapper used at module boundaries.  Qubit order is (A, B, M)
with A most significant, computational basis |H> = |0>, |V> = |1>,
path |a> = |0>, |b> = |1>.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": I2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD operator with a subsystem-dimension signature."""

    mat: np.ndarray
    dims: tuple = (2,)

    def __post_init__(self):
        a = _as_square(self.mat)
        object.__setattr__(self, "mat", a)
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
        if math.prod(dims) != a.shape[0]:
            raise ValueError(f"dims {dims} incompatible with matrix size {a.shape[0]}")
        if np.abs(a - a.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(a).real - 1.0) > TRACE_TOL or abs(np.trace(a).imag) > TRACE_TOL:
            raise ValueError(f"trace is {np.trace(a)}, expected 1")
        if np.linalg.eigvalsh(a).min() < PSD_TOL:
            raise ValueError("matrix has a significantly negative eigenvalue")

    @property
    def n_qubits(self) -> int:
        return len(self.dims)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dims": list(self.dims),
                "re": self.mat.real.tolist(),
                "im": self.mat.imag.tolist(),
            }
        )


def hermitian_eigen(h):
    """Eigenvalues (ascending) and column eigenvectors of a Hermitian matrix, via LAPACK."""
    a = _as_square(h)
    if np.abs(a - a.conj().T).max() > 1e-8:
        raise ValueError("input is not Hermitian")
    return np.linalg.eigh(a)


def projector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def _kron_power(single: np.ndarray, n: int) -> np.ndarray:
    """The n-fold Kronecker power of a per-qubit table along every axis at once:
    shape (s_1, ..., s_k) becomes (s_1^n, ..., s_k^n), and each entry is the product
    of one per-qubit entry per qubit, qubit 0 most significant in every index (the
    `itertools.product` order)."""
    single = np.asarray(single)
    return functools.reduce(np.kron, [single] * n, np.ones((1,) * single.ndim, single.dtype))


@functools.cache
def pauli_basis(n: int) -> np.ndarray:
    """The 4^n n-qubit Pauli strings as one read-only (4^n, 2^n, 2^n) stack, in
    `itertools.product("IXYZ", repeat=n)` order."""
    basis = _kron_power(np.array([PAULIS[p] for p in "IXYZ"]), n)
    basis.flags.writeable = False
    return basis


# the three Bell projectors that chi_q mixes, with |H> = |0>, |V> = |1>
_PSI_PLUS = projector(np.array([0, 1, 1, 0]) / math.sqrt(2))
_PHI_PLUS = projector(np.array([1, 0, 0, 1]) / math.sqrt(2))
_PSI_MINUS = projector(np.array([0, 1, -1, 0]) / math.sqrt(2))


def chi_q(q: float) -> DensityMatrix:
    """Symmetric Bell-diagonal family: q |Psi+><Psi+| + (1-q)/2 (|Phi+><Phi+| + |Psi-><Psi-|)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return DensityMatrix(q * _PSI_PLUS + 0.5 * (1 - q) * (_PHI_PLUS + _PSI_MINUS), (2, 2))


def _psd_sqrt(h) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    s = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * s) @ vecs.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.  The inner matrix's
    eigenvalues at rounding level, <= d eps max, are taken as zero: on a
    rank-deficient state a square root would lift each to about 1e-8."""
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    sr = _psd_sqrt(rho.mat)
    inner = sr @ sigma.mat @ sr
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    f = np.sqrt(np.where(vals > len(vals) * np.finfo(float).eps * vals.max(), vals, 0.0)).sum() ** 2
    return float(min(max(f, 0.0), 1.0))
