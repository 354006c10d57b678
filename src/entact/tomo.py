"""Simulated quantum state tomography.

Poissonian counts of every Pauli setting with a counter-based RNG,
linear-inversion reconstruction with PSD projection, and Monte-Carlo error bars
for derived quantities.  Counts are int arrays (setting, outcome): the 3^n
settings in `itertools.product("XYZ", repeat=n)` order, the 2^n outcomes as bit
strings with qubit 0 most significant, bit 1 the -1 eigenvalue.  One batched
pipeline (counts, inversion, projection over a stack of reps) serves both the
Monte-Carlo loop and the single-shot functions.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .qcore import DensityMatrix, _kron_power, pauli_basis, projector

# numpy's Poisson sampler rejects means above about 9.2e18, and each mean is the
# exposure times an outcome probability of at most 1
E_MAX = 1e18
MC_REPS_MIN = 50
# mc_errorbar keeps 24 bytes per rep (value, clipped mass, zero-count settings),
# 2.4 MB at the cap, where one 3-qubit state takes about 20 s
MC_REPS_MAX = 100_000
# reps per batched pass of mc_errorbar: a rep holds about 13 kB of counts,
# frequencies and 8x8 stacks, so a pass stays under 1 MB whatever the rep count
_BLOCK = 64
# `project_psd` input further than this from trace 1 is no reconstruction
_RECONSTRUCTION_TRACE_TOL = 0.2

_AXIS_EIGENBASES = {
    # columns: +1 and -1 eigenvectors with a fixed phase convention
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
    "Z": np.array([[1, 0], [0, 1]], dtype=complex),
}


def _check_exposure(exposure: float):
    if not 0 < exposure <= E_MAX:  # also rejects NaN
        raise ValueError(f"exposure must lie in (0, {E_MAX:g}], got {exposure}")


def _check_index(name: str, value, bits: int) -> int:
    """`value` as an int, if it is an integer in [0, 2**bits); else ValueError.
    Seeds are the 64-bit Philox key; rep indices count the 2**128 substreams that
    `Philox.jumped` reaches before its counter wraps."""
    if not isinstance(value, numbers.Integral) or not 0 <= value < 2**bits:
        raise ValueError(f"{name} must be an integer in [0, 2**{bits}), got {value!r}")
    return int(value)


@functools.cache
def _projector_stack(n_qubits: int) -> np.ndarray:
    """The rank-1 outcome projectors of every Pauli setting, for n in {2, 3}, as one
    read-only (setting, outcome, d, d) array in the count layout; each is the kron
    of one single-qubit eigenprojector per qubit.  Built once: restacking 221 kB
    per 3-qubit call left malloc to return it to the OS and fault it back in on
    every Monte-Carlo state."""
    if n_qubits not in (2, 3):
        raise ValueError(f"unsupported qubit count {n_qubits}")
    # (axis, outcome, 2, 2): the +1 and -1 eigenprojectors of X, Y and Z
    single = np.array([[projector(b[:, k]) for k in (0, 1)] for b in _AXIS_EIGENBASES.values()])
    projs = _kron_power(single, n_qubits)
    projs.flags.writeable = False
    return projs


def _born(projs: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Outcome probabilities (setting, outcome) of the state `mat` under the
    projector stack `projs` (setting, outcome, d, d), clipped at 0."""
    return np.clip(np.trace(projs @ mat, axis1=-2, axis2=-1).real, 0.0, None)


def _draw(lam: np.ndarray, seed: int, reps: Sequence[int]) -> np.ndarray:
    """Poisson counts of mean `lam` (setting, outcome), stacked over `reps`.

    Rep r draws from its own substream Philox(seed).jumped(r), so its counts do
    not depend on which other reps are drawn with it.  Philox is counter-based, so
    one generator is reset to that substream's state before each rep: the key,
    counter [0, 0, r mod 2**64, r >> 64] and an empty buffer.  `jumped` would
    build a BitGenerator, and seed a throwaway SeedSequence from the OS, per rep.
    One draw over the (setting, outcome) array consumes the stream in the order
    of per-setting draws.
    """
    bitgen = np.random.Philox(key=np.uint64(seed))
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, empty buffer
    counter = state["state"]["counter"]
    counts = np.empty((len(reps),) + lam.shape, dtype=np.int64)
    for i, rep in enumerate(reps):
        counter[3], counter[2] = divmod(rep, 2**64)
        bitgen.state = state
        counts[i] = rng.poisson(lam)
    return counts


def simulate_counts(rho: DensityMatrix, exposure: float, seed: int, rep: int = 0) -> np.ndarray:
    """Independent Poisson(exposure * p_outcome) counts of every outcome of every
    Pauli setting, as a (3^n, 2^n) int array; rep r draws from Philox(seed).jumped(r)."""
    _check_exposure(exposure)
    seed, rep = _check_index("seed", seed, 64), _check_index("rep", rep, 128)
    return _draw(exposure * _born(_projector_stack(rho.n_qubits), rho.mat), seed, (rep,))[0]


def project_psd(h) -> DensityMatrix:
    """Project a Hermitian matrix onto the PSD unit-trace cone.

    Repeatedly clips the most negative eigenvalue to zero and spreads its
    deficit uniformly over the eigenvalues that are still positive only, then
    renormalizes the trace.  This is close to the one-pass algorithm of Smolin,
    Gambetta and Smith, PRL 108, 070502 (2012), but not the same algorithm:
    theirs walks up the sorted spectrum and spreads the accumulated deficit
    over every eigenvalue not yet zeroed.  On random spectra the two results
    agree to rounding, which a test checks.
    """
    a = np.asarray(h, dtype=complex)
    if np.abs(a - a.conj().T).max() > 1e-8:
        raise ValueError("input must be Hermitian")
    tr = np.trace(a).real
    if abs(tr - 1.0) > _RECONSTRUCTION_TRACE_TOL:
        raise ValueError(f"trace {tr} too far from 1 to be a reconstruction")
    n_qubits = round(math.log2(a.shape[0]))
    return DensityMatrix(_project(a[None])[0][0], (2,) * n_qubits)


def _project(h: np.ndarray):
    """`project_psd` on a Hermitian stack (reps, d, d), without its input checks.

    Returns the projected stack and, per rep, the clipped eigenvalue mass: the
    summed magnitude of the eigenvalues the loop set to zero.  Each round
    works on the reps that still have a negative eigenvalue and zeroes one
    eigenvalue of each for good, so there are at most d rounds; every element
    sees the same arithmetic whatever else is in the stack.
    """
    vals, vecs = np.linalg.eigh(h)
    clipped = np.zeros(len(h))
    rows = np.flatnonzero(vals.min(axis=1) < 0)
    while rows.size:
        v = vals[rows]
        if (v.max(axis=1) <= 0).any():
            raise ValueError("spectrum entirely nonpositive; cannot project")
        lowest = v.argmin(axis=1)
        deficit = v[np.arange(rows.size), lowest]
        v[np.arange(rows.size), lowest] = 0.0
        clipped[rows] -= deficit
        positive = v > 0
        np.add(v, (deficit / positive.sum(axis=1))[:, None], out=v, where=positive)
        vals[rows] = v
        rows = rows[v.min(axis=1) < 0]
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum(axis=1, keepdims=True)
    return (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2), clipped


@functools.cache
def _parity_table(n_qubits: int) -> np.ndarray:
    """Read-only (3^n, 4^n, 2^n) table: the eigenvalue (+-1) of each Pauli string,
    in `pauli_basis` order, on each outcome of each setting in the count layout,
    and 0 where that setting does not measure the string."""
    # per qubit (axis, op, outcome): I reads +1, the measured axis +-1, the others 0
    single = np.array([[[1, 1] if op == "I" else [1, -1] if op == axis else [0, 0]
                        for op in "IXYZ"] for axis in "XYZ"])
    parities = _kron_power(single, n_qubits).astype(float)  # integers keep every 0 unsigned
    parities.flags.writeable = False
    return parities


@functools.cache
def _inversion_matrices(n_qubits: int):
    """Read-only real matrices of the two contractions of the linear inversion:
    the parity table as a (3^n 2^n, 4^n) matrix from the flattened frequencies of
    a rep to its parity sums, and the real and imaginary parts of
    `pauli_basis(n) / 2^n` as (4^n, 4^n) matrices from its Pauli expectations to
    its flattened state.  Two real products beat one complex one by far."""
    parity = _parity_table(n_qubits).transpose(0, 2, 1).reshape(-1, 4**n_qubits)
    basis = pauli_basis(n_qubits).reshape(4**n_qubits, -1) / 2**n_qubits
    matrices = parity, basis.real.copy(), basis.imag.copy()
    for m in matrices:
        m.flags.writeable = False
    return matrices


def _rowwise(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """`rows @ matrix` as a stack of one-row products, so that BLAS runs the same
    kernel on every row: a plain 2-D product takes another path for one row (gemv)
    than for many (gemm), and a rep would change in the last bit with its block."""
    return (rows[:, None] @ matrix)[:, 0]


def _pauli_sum(values: np.ndarray, n_qubits: int) -> np.ndarray:
    """The stack (reps, d, d) of sum_p values[r, p] P_p / 2^n over `pauli_basis(n)`."""
    _, real, imag = _inversion_matrices(n_qubits)
    h = np.empty((len(values), 4**n_qubits), dtype=complex)
    h.real, h.imag = _rowwise(values, real), _rowwise(values, imag)
    return h.reshape(-1, 2**n_qubits, 2**n_qubits)


def pauli_expectations_exact(rho: DensityMatrix) -> np.ndarray:
    """Analytic (infinite-exposure) Pauli expectations, a (4^n,) array in
    `pauli_basis` order, for the inversion identity."""
    return np.einsum("pij,ji->p", pauli_basis(rho.n_qubits), rho.mat).real


def reconstruct_from_expectations(expectations, n_qubits: int) -> DensityMatrix:
    """Linear inversion and PSD projection from the (4^n,) Pauli expectations in
    `pauli_basis` order."""
    values = np.asarray(expectations, dtype=float)
    if values.shape != (4**n_qubits,):
        raise ValueError(f"expected {4**n_qubits} Pauli expectations, got shape {values.shape}")
    return project_psd(_pauli_sum(values[None], n_qubits)[0])


def reconstruct(counts) -> DensityMatrix:
    """Linear inversion from the counts of every Pauli setting, a (3^n, 2^n) int
    array for n in {2, 3} as `simulate_counts` returns, then PSD projection.

    Each Pauli-string expectation is the parity-weighted frequency, averaged
    over every setting with nonzero counts that measures it; a string that no
    such setting measures is taken as 0.
    """
    c = np.asarray(counts)
    n_qubits = {(9, 4): 2, (27, 8): 3}.get(c.shape)
    if n_qubits is None:
        raise ValueError(f"counts must have shape (9, 4) or (27, 8), got {c.shape}")
    if c.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got dtype {c.dtype}")
    if (c < 0).any():
        raise ValueError("counts must be nonnegative")
    return DensityMatrix(_reconstruct(c[None], n_qubits)[0][0], (2,) * n_qubits)


def _reconstruct(counts: np.ndarray, n_qubits: int):
    """`reconstruct` on a count stack (reps, setting, outcome), without its input
    checks: one product with the parity matrix inverts every rep, with the
    settings that recorded nothing masked out.  Returns the states (reps, d, d),
    the clipped eigenvalue mass and the number of zero-count settings per rep."""
    c = counts.astype(float)
    totals = c.sum(axis=2)
    kept = totals > 0
    freq = np.divide(c, totals[..., None], out=np.zeros_like(c), where=kept[..., None])
    sums = _rowwise(freq.reshape(len(c), -1), _inversion_matrices(n_qubits)[0])
    # outcome 0 has parity +1 on every measured string
    hits = kept @ _parity_table(n_qubits)[:, :, 0]
    values = np.divide(sums, hits, out=np.zeros_like(sums), where=hits > 0)
    values[:, 0] = 1.0  # the identity string
    states, clipped = _project(_pauli_sum(values, n_qubits))
    return states, clipped, (~kept).sum(axis=1)


class Tomography(NamedTuple):
    """Simulated tomography of one state, one entry per rep."""

    states: np.ndarray  # (reps, d, d) reconstructed density matrices
    clipped_mass: np.ndarray  # eigenvalue mass the PSD projection set to zero
    zero_settings: np.ndarray  # settings that recorded no counts


def tomography(rho: DensityMatrix, exposure: float, seed: int,
               reps: Sequence[int] = (0,)) -> Tomography:
    """Counts, linear inversion and PSD projection of `rho` for each rep index in
    `reps`, over all 3^n Pauli settings; rep r draws from Philox(seed).jumped(r)."""
    _check_exposure(exposure)
    seed = _check_index("seed", seed, 64)
    reps = [_check_index("rep", r, 128) for r in reps]
    lam = exposure * _born(_projector_stack(rho.n_qubits), rho.mat)
    return Tomography(*_reconstruct(_draw(lam, seed, reps), rho.n_qubits))


class ErrorBar(NamedTuple):
    """Monte-Carlo mean and spread of a functional, with the tomography
    diagnostics of every rep."""

    mean: float
    std: float
    clipped_mass: np.ndarray
    zero_settings: np.ndarray


def mc_errorbar(rho: DensityMatrix, exposure: float, reps: int, seed: int,
                functional: Callable[[np.ndarray], np.ndarray]) -> ErrorBar:
    """Monte-Carlo spread of a reconstructed quantity: the mean and std over the
    reps of `functional`, which maps a (reps, d, d) stack of reconstructions to one
    value per rep.  The reps run in blocks of `_BLOCK` through the batched pipeline
    of `tomography`, so peak memory does not grow with `reps`; rep r reads the same
    counts as `simulate_counts(..., rep=r)`.
    """
    if not isinstance(reps, numbers.Integral) or not MC_REPS_MIN <= reps <= MC_REPS_MAX:
        raise ValueError(f"reps must be an integer in [{MC_REPS_MIN}, {MC_REPS_MAX}]")
    _check_exposure(exposure)
    seed = _check_index("seed", seed, 64)
    if not callable(functional):
        raise TypeError(f"functional must map a stack of states to values, got {functional!r}")
    lam = exposure * _born(_projector_stack(rho.n_qubits), rho.mat)
    values, clipped, zero = np.empty(reps), np.empty(reps), np.empty(reps, dtype=int)
    for start in range(0, reps, _BLOCK):
        block = slice(start, min(start + _BLOCK, reps))
        states, clipped[block], zero[block] = _reconstruct(
            _draw(lam, seed, range(block.start, block.stop)), rho.n_qubits)
        values[block] = functional(states)
    return ErrorBar(float(values.mean()), float(values.std(ddof=1)), clipped, zero)
