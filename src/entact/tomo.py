"""Simulated quantum state tomography.

Poissonian counts of every Pauli setting with a counter-based RNG, linear
inversion, the closed-form projection of Smolin, Gambetta and Smith onto the
nearest density matrix, and Monte-Carlo error bars for derived quantities.
Counts are int arrays (setting, outcome): the 3^n settings in
`itertools.product("XYZ", repeat=n)` order, the 2^n outcomes as bit strings with
qubit 0 most significant, bit 1 the -1 eigenvalue.  One parity matrix describes
the measurement both ways: it maps a state's Pauli expectations to its Born
probabilities, and the observed frequencies back to the expectations.  One
batched pipeline (counts, inversion, projection over a stack of reps) runs the
Monte-Carlo blocks; the single-shot functions pass it a stack of one.
"""

from __future__ import annotations

import functools
import numbers
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .qcore import DensityMatrix, _kron_power, pauli_basis

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


def _born(rho: DensityMatrix) -> np.ndarray:
    """Outcome probabilities (setting, outcome) of `rho`, for n in {2, 3}: each is
    the parity-weighted sum of its Pauli expectations over 2^n, clipped at 0."""
    n_qubits = rho.n_qubits
    if n_qubits not in (2, 3) or rho.dims != (2,) * n_qubits:
        raise ValueError(f"unsupported qubit count: dims {rho.dims}, expected 2 or 3 qubits")
    p = _inversion_matrices(n_qubits)[0] @ pauli_expectations_exact(rho) / 2**n_qubits
    return np.clip(p, 0.0, None).reshape(3**n_qubits, 2**n_qubits)


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
    return _draw(exposure * _born(rho), seed, (rep,))[0]


def project_psd(h) -> DensityMatrix:
    """The density matrix nearest a Hermitian matrix in Frobenius norm.

    Keeps the eigenvectors and replaces the spectrum mu by its Euclidean
    projection onto the unit-trace simplex: the one-pass algorithm of Smolin,
    Gambetta and Smith, PRL 108, 070502 (2012).  The density matrices are convex,
    so the result is no further than `h` from any of them.  `h` must be 2^n x 2^n,
    n >= 1, with its trace within `_RECONSTRUCTION_TRACE_TOL` of 1.
    """
    a = np.asarray(h, dtype=complex)
    d = a.shape[0] if a.ndim else 0
    if a.shape != (d, d) or d < 2 or d & (d - 1):
        raise ValueError(f"input must be 2^n x 2^n with n >= 1, got shape {a.shape}")
    if not (np.isfinite(a).all() and np.abs(a - a.conj().T).max() <= 1e-8):
        raise ValueError("input must be finite and Hermitian")
    tr = np.trace(a).real
    if abs(tr - 1.0) > _RECONSTRUCTION_TRACE_TOL:
        raise ValueError(f"trace {tr} too far from 1 to be a reconstruction")
    return DensityMatrix(_project(a[None])[0][0], (2,) * (d.bit_length() - 1))


def _project(h: np.ndarray):
    """`project_psd` on a Hermitian stack (reps, d, d), without its input checks.

    With each spectrum sorted as mu_(1) >= ... >= mu_(d), let
    tau_k = (mu_(1) + ... + mu_(k) - 1) / k.  The water level tau is the largest
    tau_k, which is tau_k at the largest k with mu_(k) > tau_k, and the projected
    spectrum is max(mu - tau, 0), of trace 1.  Returns the projected stack and,
    per rep, the clipped mass: the summed |mu_j| of the negative eigenvalues,
    continuous in the spectrum.  One pass over the stack: every element sees the
    same arithmetic whatever else is in it.
    """
    vals, vecs = np.linalg.eigh(h)
    sums = np.cumsum(vals[:, ::-1], axis=1)
    level = ((sums - 1.0) / np.arange(1, vals.shape[1] + 1)).max(axis=1, keepdims=True)
    lam = np.maximum(vals - level, 0.0)
    clipped = np.maximum(-vals, 0.0).sum(axis=1)
    return (vecs * lam[:, None, :]) @ vecs.conj().swapaxes(-1, -2), clipped


@functools.cache
def _inversion_matrices(n_qubits: int):
    """Read-only real matrices of the measurement and its linear inversion.

    The parity matrix (3^n 2^n, 4^n) holds the eigenvalue (+-1) of each Pauli
    string, in `pauli_basis` order, on each outcome of each setting in the count
    layout, and 0 where that setting does not measure the string: it maps a
    state's Pauli expectations to 2^n times its outcome probabilities, and a
    rep's flattened frequencies to its parity sums.  The real and imaginary parts
    of `pauli_basis(n) / 2^n`, as (4^n, 4^n) matrices, map Pauli expectations to
    the flattened state.  Two real products beat one complex one by far."""
    # per qubit (axis, outcome, op): I reads +1, the measured axis +-1, the others 0
    single = np.array([[[1 if op == "I" else sign * (op == axis) for op in "IXYZ"]
                        for sign in (1, -1)] for axis in "XYZ"])
    # integers keep every 0 unsigned
    parity = _kron_power(single, n_qubits).astype(float).reshape(-1, 4**n_qubits)
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
    parity = _inversion_matrices(n_qubits)[0]
    sums = _rowwise(freq.reshape(len(c), -1), parity)
    # outcome 0, every 2^n-th row, has parity +1 on every measured string
    hits = kept @ parity[::2**n_qubits]
    values = np.divide(sums, hits, out=np.zeros_like(sums), where=hits > 0)
    values[:, 0] = 1.0  # the identity string
    states, clipped = _project(_pauli_sum(values, n_qubits))
    return states, clipped, (~kept).sum(axis=1)


class Tomography(NamedTuple):
    """One simulated tomography run: the reconstruction of rep 0 and its diagnostics."""

    state: DensityMatrix
    clipped_mass: float  # negative eigenvalue mass of the raw inversion
    zero_settings: int  # settings that recorded no counts


def tomography(rho: DensityMatrix, exposure: float, seed: int) -> Tomography:
    """Counts, linear inversion and PSD projection of `rho` over all 3^n Pauli
    settings: `reconstruct(simulate_counts(rho, exposure, seed))` with its diagnostics."""
    (state,), (clipped,), (zero,) = _reconstruct(simulate_counts(rho, exposure, seed)[None],
                                                 rho.n_qubits)
    return Tomography(DensityMatrix(state, rho.dims), float(clipped), int(zero))


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
    value per rep.  The Born probabilities are taken once, and the reps run through
    `_draw` and `_reconstruct` in blocks of `_BLOCK`, so peak memory does not grow
    with `reps`; rep r reads the same counts as `simulate_counts(..., rep=r)`.
    """
    if not isinstance(reps, numbers.Integral) or not MC_REPS_MIN <= reps <= MC_REPS_MAX:
        raise ValueError(f"reps must be an integer in [{MC_REPS_MIN}, {MC_REPS_MAX}]")
    if not callable(functional):
        raise TypeError(f"functional must map a stack of states to values, got {functional!r}")
    _check_exposure(exposure)
    seed, lam = _check_index("seed", seed, 64), exposure * _born(rho)
    values, clipped, zero = np.empty(reps), np.empty(reps), np.empty(reps, dtype=int)
    for start in range(0, reps, _BLOCK):
        block = range(start, min(start + _BLOCK, reps))
        states, clipped[block], zero[block] = _reconstruct(_draw(lam, seed, block), rho.n_qubits)
        out = functional(states)
        if np.shape(out) != (len(block),):  # a scalar or (1,) would broadcast silently
            raise ValueError(f"functional must return shape ({len(block)},), one value "
                             f"per rep, got shape {np.shape(out)}")
        values[block] = out
    return ErrorBar(float(values.mean()), float(values.std(ddof=1)), clipped, zero)
