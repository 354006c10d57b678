"""Negativity routes and discord measures."""

import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entact.qcore import DensityMatrix, chi_q
from entact import cli, measures
from entact.epsnet import _fibonacci_directions, sphere_scan
from entact.protocol import WaveplateSetting, bloch_vector, default_net, premeasurement, setting_of
from entact.measures import (
    _great_circle,
    _pauli_block,
    discord_numeric,
    discord_x_state,
    negativities_offdiag,
    negativities_theory,
    negativity,
    negativity_of_quantumness,
    negativity_offdiag,
)
from reference import (BELL_KETS, bell_diagonal_discord, bell_state, dephasing_negativity,
                       discord_nelder_mead, full_rank_state, premeasurement_negativities,
                       quantum_classical)
from test_protocol import PAULI_VEC, unit_vectors

Q_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
BENCH_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_bench_tracing():
    """bench/tracing.py, loaded by path: the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing
# the poles, both sides of the kernel's hemisphere seam z = 0, and the equator
SEAM_DIRECTIONS = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.6, -0.8, -1e-12],
                   [0.6, -0.8, 1e-12], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
# the seam itself: the kernel takes the sign of z, so -0.0 and +0.0 are two cases
SIGNED_ZERO_DIRECTIONS = [[0.6, -0.8, 0.0], [0.6, -0.8, -0.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, -0.0]]
# the bases of a 2,000-point Fibonacci lattice, as waveplate settings
LATTICE = tuple(map(WaveplateSetting, *setting_of(_fibonacci_directions(2000))))


def brute_force_at(chi, s):
    """The reference premeasurement negativity of `chi` at one setting."""
    return float(premeasurement_negativities(chi.mat, (s,))[0])


class TestNegativity:
    def test_bell_state_is_maximal(self):
        assert negativity(bell_state("phi+"), [0]) == pytest.approx(1.0, abs=1e-12)

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
            offdiag = negativity_offdiag(chi, bloch_vector(theta, phi))
            closed = float(negativities_theory(q, theta, phi))
            assert brute == pytest.approx(closed, abs=1e-9)
            assert offdiag == pytest.approx(closed, abs=1e-9)

    def test_theory_branches(self):
        # constant q for q >= 1/3, angle-dependent below
        at_min = (math.pi / 4, 0.0)
        assert negativities_theory(0.5, *at_min) == pytest.approx(0.5)
        assert negativities_theory(0.2, *at_min) == pytest.approx(0.2, abs=1e-12)
        assert negativities_theory(0.2, 0.0, 0.0) > 0.2

    def test_theory_range_check(self):
        with pytest.raises(ValueError):
            negativities_theory(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            negativities_theory(1.5, np.zeros(3), np.zeros(3))

    @settings(max_examples=60)
    @given(st.one_of(st.just(0.0), st.floats(0.0, 1 / 3, exclude_max=True), st.floats(1 / 3, 1.0)),
           st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                    min_size=1, max_size=16))
    def test_array_kernels_match_math_reference(self, q, angles):
        # the direction and closed-form kernels against the formulas in scalar
        # `math` calls, within 1 ulp; the one-setting forms are their one-point calls
        def direction(th, ph):
            a = 2.0 * (th - 2.0 * ph)
            return np.array([-math.cos(a) * math.sin(2.0 * th), -math.sin(a),
                             math.cos(a) * math.cos(2.0 * th)])

        def theory(th, ph):
            if q >= 1.0 / 3.0:
                return q
            return math.sqrt(max(((q - 1.0) * (3.0 * q - 1.0) * math.cos(4.0 * th - 8.0 * ph)
                                  + q * (5.0 * q - 4.0) + 1.0) / 2.0, 0.0))

        theta, phi = np.array(angles).T
        dirs, values = bloch_vector(theta, phi), negativities_theory(q, theta, phi)
        assert dirs.shape == (len(angles), 3) and values.shape == (len(angles),)
        for (th, ph), n, value in zip(angles, dirs, values):
            ref = direction(th, ph)
            assert (np.abs(n - ref) <= np.spacing(np.abs(ref))).all()
            assert abs(value - theory(th, ph)) <= np.spacing(theory(th, ph))
            assert (bloch_vector(th, ph) == n).all()
            assert float(negativities_theory(q, th, ph)) == value

    @settings(max_examples=60)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)),
           st.lists(unit_vectors, min_size=1, max_size=8))
    def test_offdiag_kernel_matches_dephasing_reference(self, re_im, vs):
        # N(n) = 1/2 ||chi - Z chi Z||_1 with Z = I x n.sigma, taken here by
        # eigvalsh; N(-n) = N(n), which the kernel uses to stay in z >= 0
        chi = full_rank_state(re_im).mat
        ns = np.array([v / np.linalg.norm(v) for v in vs] + SEAM_DIRECTIONS)
        got = negativities_offdiag(chi, np.vstack([ns, -ns]))
        for n, value in zip(ns, got):
            z = np.kron(np.eye(2), sum(c * p for c, p in zip(n, PAULI_VEC)))
            assert value == pytest.approx(0.5 * trace_norm(chi - z @ chi @ z), abs=1e-12)
        assert np.abs(got[:len(ns)] - got[len(ns):]).max() <= 1e-12

    @settings(max_examples=60)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)),
           st.lists(unit_vectors, min_size=1, max_size=8))
    def test_scalar_call_matches_array_call(self, re_im, vs):
        # the one-setting route, on a 3-sequence, against the array call over the
        # stack: both run the one kernel, and n and -n share one frame exactly
        chi = full_rank_state(re_im)
        ns = np.array([v / np.linalg.norm(v) for v in vs] + SEAM_DIRECTIONS
                      + SIGNED_ZERO_DIRECTIONS)
        ns = np.vstack([ns, -ns])
        got = negativities_offdiag(chi.mat, ns)
        for n, value in zip(ns.tolist(), got.tolist()):
            scalar = negativity_offdiag(chi, n)
            assert type(scalar) is float
            assert abs(scalar - value) <= 1e-15
            assert scalar == 0.0 or scalar > 1e-12  # the zero band
        assert np.abs(got[:len(ns) // 2] - got[len(ns) // 2:]).max() <= 1e-15

    def test_offdiag_zero_band_at_the_search_minimiser(self):
        # chi_q(0) is classical on B: where its minimum lies, both routes read 0
        chi = chi_q(0.0)
        s = negativity_of_quantumness([chi])[0].settings_used
        n = bloch_vector(s.theta, s.phi)
        assert negativity_offdiag(chi, n) == 0.0
        assert negativities_offdiag(chi.mat, n[None])[0] == 0.0

    def test_offdiag_requires_two_qubits(self):
        rho = premeasurement(chi_q(0.2), WaveplateSetting(0, 0))
        with pytest.raises(ValueError):
            negativity_offdiag(rho, bloch_vector(0, 0))

    def test_offdiag_rejects_non_unit_direction(self):
        # the norm is checked to 1e-10; a direction is exactly three components
        assert negativity_offdiag(chi_q(0.2), [0.0, 0.0, 1.0 + 4e-11]) >= 0
        for n in ([1.0, 1.0, 0.0], [0.0, 0.0, 1.0 + 2e-10], [0.0, 0.0], [0.0, 0.0, 1.0, 0.0]):
            with pytest.raises(ValueError):
                negativity_offdiag(chi_q(0.2), n)


class TestCorrelationsAndDiscord:
    def test_discord_closed_form_on_grid(self):
        for q in Q_GRID:
            assert discord_x_state(chi_q(q)) == pytest.approx(q, abs=1e-10)

    def test_discord_numeric_on_zero_discord_state(self):
        tau0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
        tau1 = DensityMatrix(np.diag([0.2, 0.8]).astype(complex), (2,))
        rho = quantum_classical([0.4, 0.6], [tau0, tau1], [1, 0, 0])
        res = discord_numeric([rho])[0]
        assert res.value == 0.0

    @pytest.mark.parametrize("q", [0.0, 0.4, 1.0])
    def test_discord_numeric_matches_closed_form(self, q):
        res = discord_numeric([chi_q(q)])[0]
        assert res.value == pytest.approx(q, abs=1e-12)


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

    @settings(max_examples=60)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)), st.integers(1, 4),
           unit_vectors, arrays(float, (4, 2, 2), elements=st.floats(-1.0, 1.0)))
    def test_no_b_classical_state_is_closer(self, re_im, rank, v, blocks):
        chi = random_state(re_im, rank)
        n = v / np.linalg.norm(v)
        d = float(negativities_offdiag(chi, n[None])[0])
        # the dephased blocks Tr_B[chi (I x P)] for P = P_n, P_perp
        dephased = [np.einsum("abcd,db->ac", chi.reshape(2, 2, 2, 2), p) for p in projectors(n)]
        assert trace_norm(chi - b_classical(*dephased, n)) == pytest.approx(d, abs=1e-12)
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
        res = negativity_of_quantumness([chi_q(q)])[0]
        assert res.value == pytest.approx(q, abs=1e-12)
        assert res.settings_used is not None

    @settings(max_examples=40)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)), st.integers(1, 4))
    def test_reaches_the_brute_force_minimum_on_random_states(self, re_im, rank):
        # against a reference that shares no N(n) code with the candidate set: the
        # value is no more than the least brute-force negativity over the lattice,
        # and it is the brute-force negativity at the returned setting
        chi = DensityMatrix(random_state(re_im, rank), (2, 2))
        res = negativity_of_quantumness([chi])[0]
        assert res.value <= premeasurement_negativities(chi.mat, LATTICE).min() + 1e-12
        assert res.value == pytest.approx(brute_force_at(chi, res.settings_used), abs=1e-12)

    @settings(max_examples=20)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)), st.integers(1, 4))
    def test_no_higher_than_a_nelder_mead_search(self, re_im, rank):
        chi = random_state(re_im, rank)
        value = negativity_of_quantumness([DensityMatrix(chi, (2, 2))])[0].value
        assert value <= discord_nelder_mead(chi) + 1e-12

    @settings(max_examples=20)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)), st.integers(1, 4),
           st.floats(0.0, 1.0))
    def test_no_lower_than_the_certified_bound(self, re_im, rank, q):
        # sphere_scan's min_low bounds N(n) from below at every basis, so the least
        # N(n) too; on chi_q it certifies, so the check is not only min_low < 0
        for chi in (DensityMatrix(random_state(re_im, rank), (2, 2)), chi_q(q)):
            [scan] = sphere_scan([chi], default_net())
            assert negativity_of_quantumness([chi])[0].value >= scan.min_low - 1e-12

    @settings(max_examples=30)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)), st.sampled_from(Q_GRID))
    def test_reports_its_setting_in_the_certify_range(self, re_im, q):
        # the setting lies in the range theta in [0, pi/2], phi in [0, pi/4] that
        # certify scans, and N(n) there is the value
        for chi in (full_rank_state(re_im), chi_q(q)):
            res = negativity_of_quantumness([chi])[0]
            s = res.settings_used
            assert 0.0 <= s.theta <= math.pi / 2 and 0.0 <= s.phi <= math.pi / 4, s
            at_setting = negativities_offdiag(chi.mat, bloch_vector(s.theta, s.phi)[None])[0]
            assert at_setting == pytest.approx(res.value, abs=1e-12)

    def test_reports_a_minimizing_setting(self):
        res = negativity_of_quantumness([chi_q(0.1)])[0]
        chi = chi_q(0.1)
        at_min = negativity_offdiag(chi, bloch_vector(res.settings_used.theta, res.settings_used.phi))
        assert at_min == pytest.approx(res.value, abs=1e-9)


def x_state(p, c14, c23):
    """Two-qubit X-state: populations p (4,) and coherences c14 sqrt(p0 p3),
    c23 sqrt(p1 p2), complex with |c| <= 1, so that it is PSD."""
    m = np.diag(p).astype(complex)
    m[0, 3] = c14 * math.sqrt(p[0] * p[3])
    m[1, 2] = c23 * math.sqrt(p[1] * p[2])
    m[3, 0], m[2, 1] = m[0, 3].conjugate(), m[1, 2].conjugate()
    return m


def su2(quaternion):
    """The SU(2) matrix of a unit quaternion (a, b, c, d)."""
    a, b, c, d = quaternion
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


populations = arrays(float, (4,), elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
coherences = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
quaternions = (arrays(float, (4,), elements=st.floats(-1.0, 1.0))
               .filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v)))


class TestXStates:
    """`discord_x_state`, the closed form of Ciccarello, Tufarelli and Giovannetti,
    NJP 16, 013038 (2014), against the exact minimum and a textbook reference."""

    @settings(max_examples=60)
    @given(populations, coherences, coherences, quaternions, quaternions)
    def test_both_searches_match_closed_form(self, p, c14, c23, qa, qb):
        # zero populations give the rank-deficient X states; local unitaries keep the
        # discord on B but move b and the eigenvectors of T^T T off the axes
        assume(p.sum() > 1e-2)
        x = DensityMatrix(x_state(p / p.sum(), c14, c23), (2, 2))
        u = np.kron(su2(qa), su2(qb))
        closed = discord_x_state(x)
        for chi in (x, DensityMatrix(u @ x.mat @ u.conj().T, (2, 2))):
            assert discord_numeric([chi])[0].value == pytest.approx(closed, abs=1e-9)
            assert negativity_of_quantumness([chi])[0].value == pytest.approx(closed, abs=1e-9)

    @settings(max_examples=60)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), quaternions, quaternions)
    def test_search_matches_closed_form_off_the_seed_lattice(self, q, v, qa, qb):
        # local unitaries keep the discord on B but move the minimisers off the axes
        x = v * chi_q(q).mat + (1 - v) * np.eye(4) / 4
        u = np.kron(su2(qa), su2(qb))
        chi = DensityMatrix(u @ x @ u.conj().T, (2, 2))
        assert negativity_of_quantumness([chi])[0].value == pytest.approx(
            discord_x_state(DensityMatrix(x, (2, 2))), abs=1e-9)

    @pytest.mark.parametrize("q", [1 / 3, 1.0])
    @pytest.mark.parametrize("v", [1.0, 0.9, 0.5, 1e-3])
    def test_degenerate_states(self, q, v):
        # all three |T_i| agree, where the closed form as a ratio is 0/0; D = v q
        chi = DensityMatrix(v * chi_q(q).mat + (1 - v) * np.eye(4) / 4, (2, 2))
        closed = discord_x_state(chi)
        assert closed == pytest.approx(v * q, abs=1e-12)
        assert negativity_of_quantumness([chi])[0].value == pytest.approx(closed, abs=1e-9)

    @settings(max_examples=60)
    @given(populations)
    def test_bell_diagonal_states_give_middle_singular_value(self, w):
        assume(w.sum() > 1e-3)
        chi = sum(x * np.outer(k, k.conj()) for x, k in zip(w / w.sum(), BELL_KETS.values()))
        for discord in (discord_x_state, lambda c: negativity_of_quantumness([c])[0].value):
            assert discord(DensityMatrix(chi, (2, 2))) == pytest.approx(
                bell_diagonal_discord(chi), abs=1e-12)

    @settings(max_examples=60)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)))
    def test_other_states_give_nan(self, re_im):
        # nan exactly when an entry off the diagonal and anti-diagonal is above the
        # tolerance
        chi = full_rank_state(re_im)
        off_x = chi.mat[[0, 0, 1, 1, 2, 2, 3, 3], [1, 2, 0, 3, 0, 3, 1, 2]]
        assert math.isnan(discord_x_state(chi)) == (np.abs(off_x).max() > measures.X_STATE_TOL)

    def test_random_full_rank_state_gives_nan(self):
        chi = full_rank_state(np.random.default_rng(5).normal(size=(2, 4, 4)))
        assert math.isnan(discord_x_state(chi))

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            discord_x_state(premeasurement(chi_q(0.2), WaveplateSetting(0, 0)))


class TestGuards:
    def test_traced_names_resolve(self):
        # the benchmark's traced run wraps these names from outside the package
        tracing = load_bench_tracing()
        for module, name in tracing.SPANS + (("entact.measures", "minimize"),):
            assert callable(getattr(importlib.import_module(module), name)), (module, name)
        module, cls = tracing.DENSITY_MATRIX.split(".")
        assert callable(getattr(importlib.import_module(f"entact.{module}"), cls).__post_init__)

    def test_traced_witness_run_records_its_spans(self, tmp_path):
        # the witness operators are built once per process, yet each call of w3
        # still goes through the name that the traced run wraps; both witness lines
        # come from stacked `expectations` calls, so `expect` is not called
        tracer = load_bench_tracing().Tracer()
        tracer.install()
        try:
            assert cli.main(["witness", "--out", str(tmp_path)]) == 0
        finally:
            tracer.uninstall()
        calls = {name: rec[0] for name, rec in tracer.by_name().items()}
        assert (calls["cli.main"], calls["witnesses.w3"], calls["witnesses.expect"]) == (1, 1, 0)


# a mixed qubit state with coherence, for A in a product state whose B is diagonal
# along z, a classical basis, where N = 0
PRODUCT_A = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])


def scored(monkeypatch, search, chi):
    """The search's result on the one-state stack [chi], the scores of its kernel
    call and the polish residuals of its great circle (empty where it is skipped)."""
    kernel, circle, seen = measures._kernel, measures._great_circle, {"residuals": ()}

    def scores(block, frames):
        assert "scores" not in seen, "the kernel ran twice"
        seen["scores"] = kernel(block, frames)
        return seen["scores"]

    def circled(block):
        dirs, seen["residuals"] = circle(block)
        return dirs, seen["residuals"]

    monkeypatch.setattr(measures, "_kernel", scores)
    monkeypatch.setattr(measures, "_great_circle", circled)
    [res] = search([chi])
    return res, seen["scores"][0], np.asarray(seen["residuals"])


class TestSearchReport:
    """The report of `negativity_of_quantumness` against the scores of its one kernel
    call: the kink candidates come first (2), then the eigen ones (12), then the circle."""

    @pytest.mark.parametrize("search", [discord_numeric, negativity_of_quantumness])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_report_summarises_every_run(self, monkeypatch, search, seed):
        # a random full-rank state drops no candidate, so each class keeps its place
        chi = full_rank_state(np.random.default_rng(seed).normal(size=(2, 4, 4)))
        res, scores, residuals = scored(monkeypatch, search, chi)
        assert len(residuals) > 0 and len(scores) == 14 + len(residuals)
        first = int(np.flatnonzero(scores <= scores.min() + 1e-12)[0])
        assert res.value == float(scores[first])
        assert res.search.winner == ("kink", "eigen", "circle")[(first >= 2) + (first >= 14)]
        assert res.search.polish_residual == float(residuals[scores[14:].argmin()])
        assert res.value == pytest.approx(brute_force_at(chi, res.settings_used), abs=1e-12)

    @pytest.mark.parametrize("chi", [chi_q(0.0).mat, np.kron(PRODUCT_A, np.diag([0.3, 0.7])),
                                     np.eye(4) / 4], ids=["chi_0", "product", "maximally_mixed"])
    def test_no_run_starts_below_the_win_margin(self, monkeypatch, chi):
        # a zero-discord state: a candidate reads exactly 0, in the zero band, and
        # no optimiser runs to find it
        def forbidden(*args, **kwargs):
            raise AssertionError("an optimiser ran on a zero-discord state")

        monkeypatch.setattr(measures, "minimize", forbidden)
        state = DensityMatrix(chi, (2, 2))
        res, scores, _ = scored(monkeypatch, negativity_of_quantumness, state)
        assert res.value == 0.0 == scores.min()
        assert max(brute_force_at(state, res.settings_used), 0.0) <= 1e-12

    @pytest.mark.parametrize("q", [0.4, 0.6, 0.8, 1.0])
    def test_runs_on_a_flat_minimum_stop_on_its_value(self, monkeypatch, q):
        # N(n) = q at every basis: every candidate reads q, and b = 0 skips the circle
        res, scores, residuals = scored(monkeypatch, negativity_of_quantumness, chi_q(q))
        assert res.value == pytest.approx(q, abs=1e-12)
        assert np.abs(scores - q).max() <= 1e-12
        assert len(residuals) == 0 and res.search.polish_residual is None


def pure_state(re_im):
    """The projector onto the 2-qubit ket (re_im[0] + i re_im[1]) / norm, a real (2, 4)."""
    psi = re_im[0] + 1j * re_im[1]
    return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real


class TestIsotropicSkip:
    """Where A- = b b^T - K is a multiple of the identity, as on every pure state, every n
    is a kink and A+'s top eigenvector holds the minimum: the great circle is skipped."""

    @settings(max_examples=60)
    @given(arrays(float, (2, 4), elements=st.floats(-1.0, 1.0)))
    def test_pure_states_score_no_circle(self, re_im):
        assume(np.linalg.norm(re_im) > 1e-3)
        chi = pure_state(re_im)
        block = _pauli_block(chi)
        assume(np.linalg.norm(block[0]) > 1e-3)  # b = 0 skips the circle anyway
        res = negativity_of_quantumness([DensityMatrix(chi, (2, 2))])[0]
        assert res.search.polish_residual is None and res.search.winner != "circle"
        # no circle point undercuts the value by the 1e-12 tie margin, so a search that
        # scored the circle too would pick the same candidate: value and setting bit for
        # bit.  On near-product kets (entries near 1e-65) np.roots overflows in the circle
        # that is no longer scored, so the reference keeps its finite points
        with np.errstate(all="ignore"):
            dirs, _ = _great_circle(block)
        circle = negativities_offdiag(chi, dirs[np.isfinite(dirs).all(axis=1)])
        assert not len(circle) or res.value <= circle.min() + 1e-12
        assert res.value == pytest.approx(brute_force_at(DensityMatrix(chi, (2, 2)),
                                                         res.settings_used), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_states_are_won_by_an_eigenvector(self, seed):
        # a circular-section normal of A- ~ I points nowhere in particular; on about 1 in
        # 80 random pure states it still ties the top eigenvector within 1e-12 and wins
        chi = pure_state(np.random.default_rng(seed).normal(size=(2, 4)))
        res = negativity_of_quantumness([DensityMatrix(chi, (2, 2))])[0]
        assert res.search == measures.SearchReport(winner="eigen", polish_residual=None)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_little_noise_scores_the_circle(self, monkeypatch, seed):
        # mixed with a little non-white noise, A- is no longer a multiple of I
        rng = np.random.default_rng(seed)
        noise = full_rank_state(rng.normal(size=(2, 4, 4))).mat
        chi = DensityMatrix(0.99 * pure_state(rng.normal(size=(2, 4))) + 0.01 * noise, (2, 2))
        res, scores, residuals = scored(monkeypatch, negativity_of_quantumness, chi)
        assert len(residuals) > 0 and len(scores) == 14 + len(residuals)
        assert res.search.polish_residual == float(residuals[scores[14:].argmin()])


def b_free_state(q, v, qa):
    """A Werner mix of chi_q rotated on A alone: B's Bloch vector b stays 0."""
    u = np.kron(su2(qa), np.eye(2))
    return u @ (v * chi_q(q).mat + (1 - v) * np.eye(4) / 4) @ u.conj().T


mixed_rank_states = st.one_of(
    st.builds(random_state, arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)),
              st.integers(1, 4)),
    st.builds(b_free_state, st.floats(0.0, 1.0), st.floats(0.0, 1.0), quaternions))


class TestBatchIndependence:
    """A stack of states gives each state the bits of its own one-state call."""

    @settings(max_examples=40)
    @given(st.lists(mixed_rank_states, min_size=1, max_size=6), st.data())
    def test_a_stack_changes_no_result(self, mats, data):
        states = [DensityMatrix(m, (2, 2)) for m in mats]
        results = negativity_of_quantumness(states)
        # repr is exact on floats, and tells -0.0 from 0.0
        assert repr(results) == repr([negativity_of_quantumness([s])[0] for s in states])
        order = data.draw(st.permutations(range(len(states))))
        assert repr(negativity_of_quantumness([states[i] for i in order])) == repr(
            [results[i] for i in order])
        assert repr(discord_numeric(states)) == repr(results)
        ns = _fibonacci_directions(64)
        stack = negativities_offdiag(np.array(mats), ns)
        assert stack.shape == (len(mats), 64)
        for row, chi in zip(stack, mats):
            assert row.tobytes() == negativities_offdiag(chi, ns).tobytes()

    def test_an_empty_stack_gives_no_result(self):
        assert negativity_of_quantumness([]) == discord_numeric([]) == []

    def test_every_state_must_be_two_qubits(self):
        three_qubit = premeasurement(chi_q(0.2), WaveplateSetting(0, 0))
        with pytest.raises(ValueError, match="2-qubit"):
            negativity_of_quantumness([chi_q(0.2), three_qubit])


def classical_quantum(blocks, p, qa, qb):
    """p tau0 x |0><0| + (1 - p) tau1 x |1><1| rotated by U_A x U_B, with the tau from
    the complex 2x2 matrices in `blocks` (4, 2, 2), and its classical basis on B."""
    taus = [m @ m.conj().T for m in (blocks[0] + 1j * blocks[1], blocks[2] + 1j * blocks[3])]
    assume(min(np.trace(t).real for t in taus) > 1e-3)
    t0, t1 = (t / np.trace(t).real for t in taus)
    u_b = su2(qb)
    u = np.kron(su2(qa), u_b)
    chi = u @ (p * np.kron(t0, np.diag([1.0, 0.0])) + (1 - p) * np.kron(t1, np.diag([0.0, 1.0])))
    n = np.array([(u_b[:, 0].conj() @ s @ u_b[:, 0]).real for s in PAULI_VEC])
    return chi @ u.conj().T, n / np.linalg.norm(n)


class TestBlochCorrelationKernel:
    """N(n) from B's Bloch vector b and the correlation matrix T: the one kernel of
    the net records, the one-setting route and the discord."""

    @settings(max_examples=60)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)), st.integers(1, 4),
           st.lists(unit_vectors, min_size=1, max_size=6))
    def test_matches_the_brute_force_premeasurement(self, re_im, rank, vs):
        # the 8x8 partial transpose of the premeasurement state shares no code with it
        chi = random_state(re_im, rank)
        ns = np.array([v / np.linalg.norm(v) for v in vs] + SEAM_DIRECTIONS
                      + SIGNED_ZERO_DIRECTIONS)
        brute = premeasurement_negativities(chi, tuple(map(WaveplateSetting, *setting_of(ns))))
        assert np.abs(negativities_offdiag(chi, ns) - brute).max() <= 1e-12

    @settings(max_examples=40)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)), st.integers(1, 4),
           quaternions)
    def test_a_unitary_on_a_changes_nothing(self, re_im, rank, qa):
        # T becomes R T for a rotation R, and N reads T only through T^T T
        chi = random_state(re_im, rank)
        u = np.kron(su2(qa), np.eye(2))
        moved = u @ chi @ u.conj().T
        ns = _fibonacci_directions(100)
        assert np.abs(negativities_offdiag(moved, ns) - negativities_offdiag(chi, ns)).max() <= 1e-12
        results = negativity_of_quantumness([DensityMatrix(m, (2, 2)) for m in (moved, chi)])
        assert results[0].value == pytest.approx(results[1].value, abs=1e-12)

    @settings(max_examples=60)
    @given(arrays(float, (4, 2, 2), elements=st.floats(-1.0, 1.0)), st.floats(0.0, 1.0),
           quaternions, quaternions)
    def test_reads_zero_at_the_classical_basis(self, blocks, p, qa, qb):
        # a classical-quantum state rotated by local unitaries: N(n) at its classical
        # basis is exactly 0, in the zero band, and so is the discord.  Quadratic forms
        # from (b.e, T e) read eps there; the form e^T (T^T T) e read up to 7.5e-9
        chi, n = classical_quantum(blocks, p, qa, qb)
        assert negativities_offdiag(chi, np.array([n, -n])).tolist() == [0.0, 0.0]
        assert max(dephasing_negativity(chi, n), 0.0) <= 1e-12
        assert negativity_of_quantumness([DensityMatrix(chi, (2, 2))])[0].value == 0.0

    def test_nan_stays_nan(self):
        chi = np.full((4, 4), np.nan)
        assert np.isnan(negativities_offdiag(chi, np.eye(3))).all()


class TestCandidateSet:
    """The classes of critical points that `negativity_of_quantumness` scores, and
    its report."""

    @pytest.mark.parametrize("q", Q_GRID)
    def test_chi_q_is_won_on_the_kink(self, q):
        # b = 0, so the great circle is skipped; for q >= 1/3 every basis ties at q,
        # and the first candidate, the circular-section normal of A- along +-y, wins
        # (at q = 1, A- = -I has no such normal, and the eigenvectors win)
        res = negativity_of_quantumness([chi_q(q)])[0]
        assert res.value == pytest.approx(q, abs=1e-12)
        assert res.search == measures.SearchReport(
            winner="eigen" if q == 1.0 else "kink", polish_residual=None)
        if q < 1.0:
            n = bloch_vector(res.settings_used.theta, res.settings_used.phi)
            assert abs(n[1]) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)), st.integers(2, 4))
    def test_circle_roots_hold_its_least_point(self, re_im, rank):
        # the polished roots on the great circle n perp b reach the least N over 4,096
        # samples of the circle, and the report gives their residual.  A pure state
        # is left out: its N^2 is smooth everywhere, P vanishes, and A+ holds its minimum
        chi = random_state(re_im, rank)
        block = _pauli_block(chi)
        b = block[0]
        assume(np.linalg.norm(b) > 1e-3 and np.linalg.eigvalsh(chi)[-2] > 1e-3)
        w = np.linalg.svd(b[None])[2][1:]  # an orthonormal pair perpendicular to b
        psi = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        least = negativities_offdiag(chi, np.cos(psi)[:, None] * w[0]
                                     + np.sin(psi)[:, None] * w[1]).min()
        res = negativity_of_quantumness([DensityMatrix(chi, (2, 2))])[0]
        assert res.value <= least + 1e-12
        dirs, residuals = _great_circle(block)
        if not len(dirs):  # P = 0: b is an eigenvector of K, and so are the minimisers
            assert res.search.polish_residual is None
            return
        if res.search.polish_residual is None:
            # the circle is skipped where A- = b b^T - K is a multiple of the identity
            k = block[1:].T @ block[1:]
            spread = np.ptp(np.linalg.eigvalsh(np.outer(b, b) - k))
            assert spread <= 1e-9 * (b @ b + np.trace(k)) and res.search.winner != "circle"
            return
        assert np.abs(dirs @ b).max() <= 1e-12 and residuals.max() <= 1e-12
        assert negativities_offdiag(chi, dirs).min() <= least + 1e-12
        assert res.search.polish_residual in residuals.tolist()

    @pytest.mark.parametrize("state, rank", [("flat", 2), ("flat", 3), ("flat", 4),
                                             ("sparse", 2)])
    def test_value_holds_where_the_circle_roots_miss(self, state, rank):
        # two states where `_great_circle`'s best root misses the circle's least
        # sample (by 1.5e-5 on the first at rank 2) or its residual exceeds 1e-12
        # (2.3e-11 on the second): another candidate holds the minimum, at or below
        # the least of 4,096 circle samples and of a 20,000-point lattice
        re_im = np.zeros((2, 4, 4))
        if state == "flat":
            re_im[:] = 0.5
            re_im[0, :2, 0] = 0.0, 1.0
        else:
            re_im[0, 1:3, 0], re_im[0, 3, 1], re_im[1, 0, 0] = (1.0, 0.5), 0.8203125, 0.125
        a = (re_im[0] + 1j * re_im[1])[:, :rank]
        chi = a @ a.conj().T / np.trace(a @ a.conj().T).real
        w = np.linalg.svd(_pauli_block(chi)[0][None])[2][1:]  # a pair perpendicular to b
        psi = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        circle = negativities_offdiag(chi, np.cos(psi)[:, None] * w[0]
                                      + np.sin(psi)[:, None] * w[1]).min()
        lattice = negativities_offdiag(chi, _fibonacci_directions(20_000)).min()
        value = negativity_of_quantumness([DensityMatrix(chi, (2, 2))])[0].value
        assert value <= circle + 1e-12 and value <= lattice + 1e-12

    def test_runs_no_optimiser(self, monkeypatch):
        # the candidate set is scored in one kernel call; nothing calls `minimize`,
        # whose name stays for the benchmark's tracing
        chi = full_rank_state(np.random.default_rng(7).normal(size=(2, 4, 4)))
        kernel, calls = measures._kernel, []

        def counted(block, frames):
            calls.append(frames.shape[:-2])
            return kernel(block, frames)

        monkeypatch.setattr(measures, "_kernel", counted)
        for search in (discord_numeric, negativity_of_quantumness):
            calls.clear()
            assert search([chi])[0].search.polish_residual is not None
            assert len(calls) == 1 and calls[0][0] == 1 and calls[0][1] >= 14
        with pytest.raises(NotImplementedError):
            measures.minimize(None, None)
