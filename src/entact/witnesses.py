"""Bipartite and genuine-tripartite entanglement witnesses.

Each witness is given by its Pauli terms, (string, coefficient) pairs, as the
experiment measures it; the read-only dense matrix they sum to is built once and
serves every expectation value.  That W2 = I/2 - |Psi+><Psi+| and
W3 = I/2 - |GHZ~><GHZ~| is proven by the tests.
"""

from __future__ import annotations

import functools

import numpy as np

from .qcore import DensityMatrix, pauli_basis

# (II - XX - YY + ZZ)/4
W2_TERMS = (("II", 1 / 4), ("XX", -1 / 4), ("YY", -1 / 4), ("ZZ", 1 / 4))
W3_TERMS = (("III", 3 / 8), ("IZZ", -1 / 8), ("XXX", 1 / 8), ("XYY", -1 / 8),
            ("YIZ", 1 / 8), ("YZI", 1 / 8), ("ZXY", -1 / 8), ("ZYX", -1 / 8))
_BASE4 = str.maketrans("IXYZ", "0123")  # a string's index in `pauli_basis` order


def _sum_terms(terms) -> np.ndarray:
    basis = pauli_basis(len(terms[0][0]))
    m = sum(c * basis[int(ops.translate(_BASE4), 4)] for ops, c in terms)
    m.flags.writeable = False
    return m


@functools.cache
def w2() -> np.ndarray:
    """Bipartite witness of `W2_TERMS`, equal to I/2 - |Psi+><Psi+|.

    Detects the entanglement of chi_q for q > 1/2: expectation 1/2 - q.
    """
    return _sum_terms(W2_TERMS)


@functools.cache
def w3() -> np.ndarray:
    """Genuine-tripartite GHZ-type witness of `W3_TERMS`, equal to I/2 - |GHZ~><GHZ~|
    for the locally rotated GHZ state that the (pi/4, 0) setting makes from |Psi+>."""
    return _sum_terms(W3_TERMS)


def expect(w: np.ndarray, rho: DensityMatrix) -> float:
    """Tr[W rho] through the dense matrix."""
    if w.shape != rho.mat.shape:
        raise ValueError(f"dimension mismatch: witness {w.shape} vs state {rho.mat.shape}")
    return float(expectations(w, rho.mat[None])[0])


def expectations(w: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Tr[W rho] for every matrix of a (reps, d, d) stack, through the dense matrix.

    A stacked product and trace, not an einsum: it sums in the order of the
    single-state product, so `expect` keeps its last bit.
    """
    full = np.trace(w @ mats, axis1=-2, axis2=-1)
    if np.abs(full.imag).max() > 1e-10:
        raise ValueError(f"expectation has imaginary residue {np.abs(full.imag).max()}")
    return full.real
