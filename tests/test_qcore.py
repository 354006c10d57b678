"""Core linear algebra and canonical states."""

import itertools
import json
import math

import numpy as np
import pytest

from entact.qcore import (
    DensityMatrix,
    chi_q,
    fidelity,
    hermitian_eigen,
    pauli_basis,
    projector,
)
from entact.witnesses import _sum_terms
from reference import (BELL_KETS, bell_state, density_from_json, partial_trace,
                       partial_transpose, pauli_string_matrix, purity, quantum_classical,
                       werner_mix)


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


def random_density(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return m / np.trace(m).real


class TestPauliString:
    def test_single_qubit_matrices(self):
        assert np.array_equal(pauli_basis(1), [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                                               [[1, 0], [0, -1]]])

    def test_tensor_order_and_coefficient(self):
        # qubit 0 is the most significant digit: "ZX" is string 4 * 3 + 1
        zx = pauli_basis(2)[13]
        assert np.array_equal(zx, np.kron([[1, 0], [0, -1]], [[0, 1], [1, 0]]))
        assert np.array_equal(_sum_terms((("ZX", -0.5),)), -0.5 * zx)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_string_kron(self, n):
        strings = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
        assert np.array_equal(pauli_basis(n), [pauli_string_matrix(ops) for ops in strings])

    def test_built_once_read_only(self):
        basis = pauli_basis(2)
        assert pauli_basis(2) is basis
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 0.0


class TestDensityMatrix:
    def test_validation(self):
        # a transposed (non-C-contiguous) matrix is valid input
        assert DensityMatrix(chi_q(0.3).mat.T, (2, 2)).dims == (2, 2)
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.0, 0.5j], [0.5j, 0.0]]), (2,))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2), (2,))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))  # not PSD

    def test_dims_must_match_size(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, (2,))

    def test_json_roundtrip(self):
        rho = chi_q(0.3)
        back = density_from_json(rho.to_json())
        assert back.dims == rho.dims
        assert np.abs(back.mat - rho.mat).max() < 1e-15

    def test_json_fields(self):
        d = json.loads(chi_q(0.1).to_json())
        assert set(d) == {"dims", "re", "im"}

    def test_purity_bounds(self):
        assert purity(bell_state("phi+")) == pytest.approx(1.0)
        assert purity(chi_q(1 / 3)) < 1.0


class TestPartialOps:
    def test_partial_transpose_involution(self):
        rng = np.random.default_rng(3)
        m = random_density(4, rng)
        once = partial_transpose(m, 1, (2, 2))
        assert np.allclose(partial_transpose(once, 1, (2, 2)), m)

    def test_partial_transpose_product_state(self):
        rng = np.random.default_rng(4)
        a, b = random_density(2, rng), random_density(2, rng)
        pt = partial_transpose(np.kron(a, b), 1, (2, 2))
        assert np.allclose(pt, np.kron(a, b.T))

    def test_partial_trace_of_bell_is_maximally_mixed(self):
        for kind in BELL_KETS:
            red = partial_trace(bell_state(kind).mat, (2, 2), [0])
            assert np.abs(red - np.eye(2) / 2).max() < 1e-12

    def test_partial_trace_keeps_order(self):
        rng = np.random.default_rng(5)
        a, b, c = (random_density(2, rng) for _ in range(3))
        red = partial_trace(np.kron(np.kron(a, b), c), (2, 2, 2), [0, 2])
        assert np.abs(red - np.kron(a, c)).max() < 1e-12


class TestEigenAndNorms:
    def test_hermitian_eigen_matches_numpy(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 8):
            h = random_hermitian(n, rng)
            vals, vecs = hermitian_eigen(h)
            assert np.abs(vals - np.linalg.eigvalsh(h)).max() < 1e-10
            # eigenvector columns actually diagonalize
            assert np.abs(vecs.conj().T @ h @ vecs - np.diag(vals)).max() < 1e-9

    def test_hermitian_eigen_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestStates:
    def test_bell_kets_orthonormal(self):
        kets = list(BELL_KETS.values())
        g = np.array([[np.vdot(a, b) for b in kets] for a in kets])
        assert np.abs(g - np.eye(4)).max() < 1e-12

    def test_chi_q_spectrum(self):
        # eigenvalues {q, (1-q)/2, (1-q)/2, 0}
        for q in (0.0, 0.2, 0.7, 1.0):
            vals = np.sort(np.linalg.eigvalsh(chi_q(q).mat))
            expect = np.sort([q, (1 - q) / 2, (1 - q) / 2, 0.0])
            assert np.abs(vals - expect).max() < 1e-12

    def test_chi_q_validates_once(self, monkeypatch):
        calls, post_init = [], DensityMatrix.__post_init__

        def counted(dm):
            calls.append(dm)
            post_init(dm)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        for q in (0.0, 0.3, 1.0):
            mix = (q * bell_state("psi+").mat
                   + 0.5 * (1 - q) * (bell_state("phi+").mat
                                      + bell_state("psi-").mat))
            calls.clear()
            assert chi_q(q).mat.tobytes() == mix.tobytes()
            assert len(calls) == 1

    def test_chi_q_range_check(self):
        with pytest.raises(ValueError):
            chi_q(1.2)

    def test_werner_endpoints(self):
        assert np.allclose(werner_mix("psi+", 1.0).mat,
                           bell_state("psi+").mat)
        assert np.allclose(werner_mix("psi+", 0.0).mat, np.eye(4) / 4)

    def test_werner_purity(self):
        v = 0.9564
        assert purity(werner_mix("phi+", v)) == pytest.approx(
            (3 * v**2 + 1) / 4, abs=1e-12)

    def test_quantum_classical_structure(self):
        tau0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
        tau1 = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
        rho = quantum_classical([0.3, 0.7], [tau0, tau1], [0, 0, 1])
        # measuring B along z leaves the state invariant
        pz0 = np.kron(np.eye(2), projector([1, 0]))
        pz1 = np.kron(np.eye(2), projector([0, 1]))
        dephased = pz0 @ rho.mat @ pz0 + pz1 @ rho.mat @ pz1
        assert np.abs(dephased - rho.mat).max() < 1e-12

    def test_quantum_classical_bad_probs(self):
        tau = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
        with pytest.raises(ValueError):
            quantum_classical([0.6, 0.6], [tau, tau], [0, 0, 1])


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(chi_q(0.4), chi_q(0.4)) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = bell_state("phi+")
        b = bell_state("psi-")
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_mixed_overlap(self):
        # F(|psi><psi|, rho) = <psi|rho|psi>
        psi = BELL_KETS["psi+"]
        rho = chi_q(0.35)
        assert fidelity(bell_state("psi+"), rho) == pytest.approx(
            float(np.real(psi.conj() @ rho.mat @ psi)), abs=1e-10)

    def test_symmetry(self):
        a, b = chi_q(0.1), chi_q(0.8)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_stable_on_rank_deficient_states(self, seed):
        # a rank-3 state moved by rounding-level noise: square roots of the inner
        # matrix's near-zero eigenvalues would move F by about 1e-8
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        low = DensityMatrix(a @ a.conj().T / np.linalg.norm(a) ** 2, (2, 2, 2))
        full = DensityMatrix(random_density(8, rng), (2, 2, 2))
        h = random_hermitian(8, rng)
        h -= np.trace(h) / 8 * np.eye(8)
        moved = DensityMatrix(low.mat + 4e-16 * h / np.abs(h).max(), low.dims)
        for f, f_moved in ((fidelity(full, low), fidelity(full, moved)),
                           (fidelity(low, full), fidelity(moved, full))):
            assert abs(f_moved - f) < 1e-13
