"""Waveplate circuit and Bloch-vector geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entact.qcore import DensityMatrix, I2, chi_q, projector
from entact.protocol import (
    WaveplateSetting,
    _premeasure,
    bloch_vector,
    premeasurement,
    setting_of,
    u_b,
)
from entact.measures import negativity, negativity_offdiag
from reference import cnot_bm, coupling_unitary, partial_trace, unit_vector

PAULI_VEC = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def full_rank_state(re_im):
    """Two-qubit density matrix (A A^dag + I/10) / trace from a real (2, 4, 4) array."""
    a = re_im[0] + 1j * re_im[1]
    m = a @ a.conj().T + 0.1 * np.eye(4)
    return DensityMatrix(m / np.trace(m).real, (2, 2))


in_range_settings = st.builds(
    WaveplateSetting,
    st.floats(0.0, math.pi / 2),
    st.floats(0.0, math.pi / 4),
)


def grid_settings(n_theta=7, n_phi=5):
    return [
        WaveplateSetting(i * (math.pi / 2) / (n_theta - 1), j * (math.pi / 4) / (n_phi - 1))
        for i in range(n_theta)
        for j in range(n_phi)
    ]


class TestWaveplateSetting:
    def test_angles_used_as_given(self):
        s = WaveplateSetting(0.3 + math.pi / 2, -0.1)
        assert (s.theta, s.phi) == (0.3 + math.pi / 2, -0.1)
        # theta + pi/2 is a different basis: it flips n_y and keeps n_x, n_z
        n = bloch_vector(0.3, -0.1)
        assert np.abs(bloch_vector(s.theta, s.phi) - n * [1, -1, 1]).max() < 1e-12
        assert abs(n[1]) > 0.1


class TestBlochVector:
    def test_from_array_normalizes(self):
        assert unit_vector([0.0, 0.0, 3.0])[2] == pytest.approx(1.0)

    def test_formula_values(self):
        # theta = phi = 0 measures along +z; the (pi/4, 0) setting along -y
        assert np.allclose(bloch_vector(0, 0), [0, 0, 1])
        assert np.allclose(bloch_vector(math.pi / 4, 0), [0, -1, 0], atol=1e-15)

    def test_periodicity_of_direction(self):
        # theta has period pi; phi + pi/4 gives -n, the same basis
        n = bloch_vector(0.3, 0.11)
        assert np.abs(bloch_vector(0.3 + math.pi, 0.11) - n).max() < 1e-12
        assert np.abs(bloch_vector(0.3, 0.11 + math.pi / 4) + n).max() < 1e-12


unit_vectors = arrays(float, (3,), elements=st.floats(-1.0, 1.0)).filter(
    lambda v: np.linalg.norm(v) > 1e-3)


class TestSettingOf:
    @settings(max_examples=200)
    @given(unit_vectors)
    def test_inverts_bloch_vector(self, v):
        n = unit_vector(v)
        assert np.abs(bloch_vector(*setting_of(n)) - n).max() < 1e-12

    def test_poles(self):
        for v in ([0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0], [0, -1, 0], [1e-5, 0.875, 1e-5]):
            n = unit_vector(v)
            assert np.abs(bloch_vector(*setting_of(n)) - n).max() < 1e-15

    def test_inverts_a_stack_of_directions(self):
        ns = np.array([unit_vector(v) for v in np.random.default_rng(4).normal(size=(12, 3))])
        theta, phi = setting_of(ns.reshape(3, 4, 3))
        assert theta.shape == phi.shape == (3, 4)
        assert np.abs(bloch_vector(theta, phi).reshape(12, 3) - ns).max() < 1e-12


def jones_reference(s):
    """The waveplate pair as explicit 2x2 matrix products, one setting at a time."""
    def waveplate(angle, retardance):
        c, si = math.cos(-angle), math.sin(-angle)
        r = np.array([[c, -si], [si, c]], dtype=complex)
        return r @ np.diag([1.0 + 0j, retardance]) @ r.conj().T
    return waveplate(s.phi, -1.0) @ waveplate(s.theta, 1j)


class TestUnitaries:
    def test_u_b_array_matches_matrix_products(self):
        rng = np.random.default_rng(3)
        th, ph = rng.uniform(-7.0, 7.0, (2, 500))
        stack = u_b(th, ph)
        assert stack.shape == (500, 2, 2)
        for a, b, u in zip(th, ph, stack):
            assert np.abs(u - jones_reference(WaveplateSetting(a, b))).max() < 1e-15
            assert np.array_equal(u, u_b(a, b))

    def test_u_b_is_unitary(self):
        for s in grid_settings():
            u = u_b(s.theta, s.phi)
            assert np.abs(u @ u.conj().T - I2).max() < 1e-12

    def test_u_b_rotates_basis_to_poles(self):
        # u_b |n> ~ |0> and u_b |n_perp> ~ |1>
        for s in grid_settings():
            n = bloch_vector(s.theta, s.phi)
            u = u_b(s.theta, s.phi)
            psi0 = u.conj().T @ np.array([1, 0], dtype=complex)
            back = np.array([np.real(psi0.conj() @ p @ psi0) for p in PAULI_VEC])
            assert np.abs(back - n).max() < 1e-10

    def test_cnot_action(self):
        c = cnot_bm()
        assert np.abs(c @ c.conj().T - np.eye(4)).max() < 1e-15
        # |H a> fixed, |V a> -> |V b>
        assert np.allclose(c @ [1, 0, 0, 0], [1, 0, 0, 0])
        assert np.allclose(c @ [0, 0, 1, 0], [0, 0, 0, 1])

    def test_coupling_unitary_composition(self):
        s = WaveplateSetting(0.2, 0.05)
        assert np.allclose(coupling_unitary(s), cnot_bm() @ np.kron(u_b(0.2, 0.05), I2))


class TestPremeasurement:
    def test_output_dims_and_validity(self):
        rho = premeasurement(chi_q(0.4), WaveplateSetting(0.3, 0.1))
        assert rho.dims == (2, 2, 2)

    def test_spectrum_preserved(self):
        # unitary embedding: the 3-qubit spectrum is the input spectrum plus zeros
        q = 0.25
        rho = premeasurement(chi_q(q), WaveplateSetting(0.7, 0.2))
        vals = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
        expect = np.array([q, (1 - q) / 2, (1 - q) / 2, 0, 0, 0, 0, 0])
        assert np.abs(vals - np.sort(expect)[::-1]).max() < 1e-12

    def test_marginal_on_a_unchanged(self):
        chi = chi_q(0.6)
        rho = premeasurement(chi, WaveplateSetting(0.5, 0.2))
        red_a = partial_trace(rho.mat, (2, 2, 2), [0])
        chi_a = partial_trace(chi.mat, (2, 2), [0])
        assert np.abs(red_a - chi_a).max() < 1e-12

    @settings(max_examples=50)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)),
           st.lists(in_range_settings, min_size=1, max_size=3))
    def test_kernel_matches_kron_formula(self, re_im, targets):
        chi = full_rank_state(re_im)
        stack = _premeasure(chi.mat, np.array([u_b(s.theta, s.phi) for s in targets]))
        rho0 = np.kron(chi.mat, projector([1, 0]))
        for s, rho in zip(targets, stack):
            w = np.kron(I2, coupling_unitary(s))
            assert np.abs(rho - w @ rho0 @ w.conj().T).max() < 1e-12
            assert negativity(premeasurement(chi, s), [0, 1]) == pytest.approx(
                negativity_offdiag(chi, bloch_vector(s.theta, s.phi)), abs=1e-9)

    def test_rejects_wrong_input_dims(self):
        bad = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
        with pytest.raises(ValueError):
            premeasurement(bad, WaveplateSetting(0, 0))

