"""Negativity routes and discord measures."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entact.qcore import (
    BellKind,
    DensityMatrix,
    bell_state,
    chi_q,
    quantum_classical,
    werner_mix,
)
from entact.protocol import BlochVector, WaveplateSetting, bloch_vector, premeasurement
from entact.measures import (
    MeasureResult,
    Method,
    _dephased_distance,
    correlation_matrix,
    discord_bell_diagonal,
    discord_numeric,
    is_bell_diagonal,
    negativity,
    negativity_of_quantumness,
    negativity_offdiag,
    negativity_theory,
)
from test_protocol import PAULI_VEC, full_rank_state, unit_vectors

Q_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


class TestNegativity:
    def test_bell_state_is_maximal(self):
        assert negativity(bell_state(BellKind.PHI_PLUS), [0]) == pytest.approx(1.0, abs=1e-12)

    def test_separable_state_is_zero(self):
        tau = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
        rho = quantum_classical([0.5, 0.5], [tau, tau], [0, 0, 1])
        assert negativity(rho, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_chi_q_input_entanglement(self):
        # N(chi_q) = max(0, 2q - 1)
        for q in Q_GRID:
            assert negativity(chi_q(q), [0]) == pytest.approx(max(0.0, 2 * q - 1), abs=1e-10)

    def test_cut_symmetry(self):
        rho = premeasurement(chi_q(0.7), WaveplateSetting(0.4, 0.1))
        assert negativity(rho, [0, 1]) == pytest.approx(negativity(rho, [2]), abs=1e-10)

    def test_invalid_cut(self):
        rho = chi_q(0.5)
        with pytest.raises(ValueError):
            negativity(rho, [])
        with pytest.raises(ValueError):
            negativity(rho, [0, 1])
        with pytest.raises(ValueError):
            negativity(rho, [5])


class TestNegativityRoutes:
    @pytest.mark.parametrize("q", [0.0, 0.15, 1 / 3, 0.5, 0.9])
    def test_three_routes_agree(self, q):
        chi = chi_q(q)
        for theta, phi in [(0, 0), (math.pi / 12, math.pi / 6), (math.pi / 4, 0),
                           (0.37, 0.12)]:
            s = WaveplateSetting(theta, phi)
            brute = negativity(premeasurement(chi, s), [0, 1])
            offdiag = negativity_offdiag(chi, bloch_vector(s))
            closed = negativity_theory(q, s)
            assert brute == pytest.approx(closed, abs=1e-9)
            assert offdiag == pytest.approx(closed, abs=1e-9)

    def test_theory_branches(self):
        # constant q for q >= 1/3, angle-dependent below
        s_min = WaveplateSetting(math.pi / 4, 0.0)
        assert negativity_theory(0.5, s_min) == pytest.approx(0.5)
        assert negativity_theory(0.2, s_min) == pytest.approx(0.2, abs=1e-12)
        assert negativity_theory(0.2, WaveplateSetting(0, 0)) > 0.2

    def test_theory_range_check(self):
        with pytest.raises(ValueError):
            negativity_theory(-0.1, WaveplateSetting(0, 0))

    def test_offdiag_requires_two_qubits(self):
        rho = premeasurement(chi_q(0.2), WaveplateSetting(0, 0))
        with pytest.raises(ValueError):
            negativity_offdiag(rho, bloch_vector(WaveplateSetting(0, 0)))


class TestCorrelationsAndDiscord:
    def test_correlation_matrix_of_chi_q(self):
        # singular values are {q, |2q - 1|, q}
        for q in (0.0, 0.3, 0.8):
            sv = np.sort(np.linalg.svd(correlation_matrix(chi_q(q)), compute_uv=False))
            expect = np.sort([q, abs(2 * q - 1), q])
            assert np.abs(sv - expect).max() < 1e-12

    def test_is_bell_diagonal(self):
        assert is_bell_diagonal(chi_q(0.4))
        assert is_bell_diagonal(werner_mix(BellKind.PHI_MINUS, 0.7))
        tau0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
        tau1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), (2,))
        assert not is_bell_diagonal(quantum_classical([0.9, 0.1], [tau0, tau1], [0, 0, 1]))

    def test_discord_closed_form_on_grid(self):
        for q in Q_GRID:
            assert discord_bell_diagonal(chi_q(q)) == pytest.approx(q, abs=1e-10)

    def test_discord_closed_form_rejects_general_states(self):
        tau0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
        tau1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), (2,))
        with pytest.raises(ValueError):
            discord_bell_diagonal(quantum_classical([0.9, 0.1], [tau0, tau1], [0, 0, 1]))

    def test_discord_numeric_on_zero_discord_state(self):
        tau0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
        tau1 = DensityMatrix(np.diag([0.2, 0.8]).astype(complex), (2,))
        rho = quantum_classical([0.4, 0.6], [tau0, tau1], [1, 0, 0])
        res = discord_numeric(rho)
        assert res.method is Method.NUMERICAL_MIN
        assert res.value == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("q", [0.0, 0.4, 1.0])
    def test_discord_numeric_matches_closed_form(self, q):
        res = discord_numeric(chi_q(q))
        assert res.value == pytest.approx(q, abs=1e-3)


def random_state(re_im, rank):
    """Two-qubit density matrix A A^dag / trace from the first `rank` columns of
    the complex (4, 4) matrix in a real (2, 4, 4) array."""
    a = (re_im[0] + 1j * re_im[1])[:, :rank]
    m = a @ a.conj().T
    assume(np.trace(m).real > 1e-3)
    return m / np.trace(m).real


def hermitian(re_im):
    a = re_im[0] + 1j * re_im[1]
    return (a + a.conj().T) / 2


def projectors(n):
    """(P_n, P_perp) in closed form, (I +- n.sigma)/2."""
    n_sigma = sum(c * p for c, p in zip(n, PAULI_VEC))
    return (np.eye(2) + n_sigma) / 2, (np.eye(2) - n_sigma) / 2


def b_classical(m0, m1, n):
    """M0 x P_n + M1 x P_perp."""
    p_n, p_perp = projectors(n)
    return np.kron(m0, p_n) + np.kron(m1, p_perp)


def trace_norm(h):
    return float(np.abs(np.linalg.eigvalsh(h)).sum())


class TestDephasingLemma:
    """The closest B-classical state along n is the dephased D_n(chi), so the
    discord search needs no inner optimisation over B-classical states."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)), st.integers(1, 4),
           unit_vectors, arrays(float, (4, 2, 2), elements=st.floats(-1.0, 1.0)))
    def test_no_b_classical_state_is_closer(self, re_im, rank, v, blocks):
        chi = random_state(re_im, rank)
        n = v / np.linalg.norm(v)
        d = float(_dephased_distance(chi, n[None])[0])
        # the dephased blocks Tr_B[chi (I x P)] for P = P_n, P_perp
        dephased = [np.einsum("abcd,db->ac", chi.reshape(2, 2, 2, 2), p) for p in projectors(n)]
        assert trace_norm(chi - b_classical(*dephased, n)) == pytest.approx(d, abs=1e-12)
        assert d == pytest.approx(negativity_offdiag(DensityMatrix(chi, (2, 2)),
                                                     BlochVector(*n)), abs=1e-12)
        # a random B-classical state (PSD blocks of total trace 1)
        m0, m1 = (b @ b.conj().T for b in (blocks[0] + 1j * blocks[1], blocks[2] + 1j * blocks[3]))
        total = np.trace(m0 + m1).real
        if total > 1e-9:
            assert trace_norm(chi - b_classical(m0 / total, m1 / total, n)) >= d - 1e-12
        # small Hermitian perturbations of the dephased blocks
        for eps in (1e-2, 1e-5):
            h0, h1 = hermitian(blocks[:2]), hermitian(blocks[2:])
            near = b_classical(dephased[0] + eps * h0, dephased[1] + eps * h1, n)
            assert trace_norm(chi - near) >= d - 1e-12


class TestNegativityOfQuantumness:
    @pytest.mark.parametrize("q", [0.0, 0.2, 0.6, 1.0])
    def test_equals_discord_for_chi_q(self, q):
        res = negativity_of_quantumness(chi_q(q))
        assert res.value == pytest.approx(q, abs=1e-6)
        assert res.settings_used is not None

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)))
    def test_equals_discord_on_random_states(self, re_im):
        # the paper's identity beyond chi_q; both searches must find the global minimum
        chi = full_rank_state(re_im)
        assert negativity_of_quantumness(chi).value == pytest.approx(
            discord_numeric(chi).value, abs=1e-6)

    def test_reports_a_minimizing_setting(self):
        res = negativity_of_quantumness(chi_q(0.1))
        chi = chi_q(0.1)
        at_min = negativity_offdiag(chi, bloch_vector(res.settings_used))
        assert at_min == pytest.approx(res.value, abs=1e-9)


class TestMeasureResult:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            MeasureResult(-1e-3, Method.BRUTE_FORCE)

    def test_json_dict(self):
        r = MeasureResult(0.25, Method.CLOSED_FORM, WaveplateSetting(0.1, 0.05))
        d = r.to_json_dict()
        assert d["value"] == 0.25
        assert d["method"] == "ClosedForm"
        assert d["settings_used"]["theta_rad"] == pytest.approx(0.1)
