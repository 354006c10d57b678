"""Bipartite and genuine-tripartite entanglement witnesses.

Both witnesses are carried in two equivalent forms, a dense matrix and a
Pauli-string decomposition.  The two forms are proven equal once, when the
operator is constructed; expectation values then use the matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, PauliString, basis_ket, projector


@dataclass(frozen=True)
class WitnessOperator:
    matrix: np.ndarray
    pauli_terms: tuple
    label: str  # "W2" or "W3"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "pauli_terms", tuple(self.pauli_terms))
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValueError("witness matrix must be Hermitian")
        rebuilt = sum(t.matrix() for t in self.pauli_terms)
        if np.abs(rebuilt - m).max() > 1e-10:
            raise ValueError("Pauli decomposition does not reassemble the matrix")


def w2() -> WitnessOperator:
    """Bipartite witness (I - XX - YY + ZZ)/4, equal to I/2 - |Psi+><Psi+|.

    Detects the entanglement of chi_q for q > 1/2: expectation 1/2 - q.
    """
    terms = (
        PauliString("II", 0.25),
        PauliString("XX", -0.25),
        PauliString("YY", -0.25),
        PauliString("ZZ", 0.25),
    )
    return WitnessOperator(sum(t.matrix() for t in terms), terms, "W2")


def _ghz_rotated_ket() -> np.ndarray:
    """The locally rotated GHZ state produced at the (pi/4, 0) setting from |Psi+>."""
    k = lambda *bits: _basis_product(bits)
    return 0.5 * (-k(0, 0, 0) - 1j * k(0, 1, 1) + 1j * k(1, 0, 0) + k(1, 1, 1))


def _basis_product(bits) -> np.ndarray:
    v = np.array([1.0 + 0j])
    for b in bits:
        v = np.kron(v, basis_ket(b))
    return v


def w3() -> WitnessOperator:
    """Genuine-tripartite GHZ-type witness I/2 - |GHZ~><GHZ~| in 8-term Pauli form."""
    terms = (
        PauliString("III", 3 / 8),
        PauliString("IZZ", -1 / 8),
        PauliString("XXX", 1 / 8),
        PauliString("XYY", -1 / 8),
        PauliString("YIZ", 1 / 8),
        PauliString("YZI", 1 / 8),
        PauliString("ZXY", -1 / 8),
        PauliString("ZYX", -1 / 8),
    )
    matrix = np.eye(8, dtype=complex) / 2 - projector(_ghz_rotated_ket())
    return WitnessOperator(matrix, terms, "W3")


def expect(w: WitnessOperator, rho: DensityMatrix) -> float:
    """Tr[W rho] through the dense matrix."""
    if w.matrix.shape != rho.mat.shape:
        raise ValueError(
            f"dimension mismatch: witness {w.matrix.shape} vs state {rho.mat.shape}"
        )
    return float(expectations(w, rho.mat[None])[0])


def expectations(w: WitnessOperator, mats: np.ndarray) -> np.ndarray:
    """Tr[W rho] for every matrix of a (reps, d, d) stack, through the dense matrix.

    A stacked product and trace, not an einsum: it sums in the order of the
    single-state product, so `expect` keeps its last bit.
    """
    full = np.trace(w.matrix @ mats, axis1=-2, axis2=-1)
    if np.abs(full.imag).max() > 1e-10:
        raise ValueError(f"expectation has imaginary residue {np.abs(full.imag).max()}")
    return full.real
