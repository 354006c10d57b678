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
from entact.protocol import WaveplateSetting, bloch_vector, premeasurement, setting_of
from entact.measures import (
    _fibonacci_directions,
    _offdiag_at,
    _offdiag_columns,
    _seeds,
    discord_numeric,
    discord_x_state,
    negativities_offdiag,
    negativities_theory,
    negativity,
    negativity_of_quantumness,
    negativity_offdiag,
)
from reference import (BELL_KETS, bell_diagonal_discord, bell_state, premeasurement_negativities,
                       quantum_classical)
from test_protocol import PAULI_VEC, full_rank_state, unit_vectors

Q_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
# a mixed qubit state with coherence, for A in a product state whose B is diagonal
# along z, a seed basis, where N = 0
PRODUCT_A = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])
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
        # the one N(n) formula on Python scalars (per Nelder-Mead step) against its
        # array call (the seed stage): they round differently, within 1e-15
        chi = full_rank_state(re_im)
        ns = np.array([v / np.linalg.norm(v) for v in vs] + SEAM_DIRECTIONS
                      + SIGNED_ZERO_DIRECTIONS)
        ns = np.vstack([ns, -ns])
        got = negativities_offdiag(chi.mat, ns)
        cols = _offdiag_columns(chi.mat)
        for n, value in zip(ns.tolist(), got.tolist()):
            scalar = _offdiag_at(cols, *n)
            assert type(scalar) is float
            assert abs(scalar - value) <= 1e-15
            # the one-setting route is the scalar call, exactly
            assert negativity_offdiag(chi, n) == scalar
        assert np.abs(got[:len(ns) // 2] - got[len(ns) // 2:]).max() <= 1e-15

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
        res = discord_numeric(rho)
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
        res = negativity_of_quantumness(chi_q(q))
        assert res.value == pytest.approx(q, abs=1e-6)
        assert res.settings_used is not None

    @settings(max_examples=40)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)))
    def test_reaches_the_brute_force_minimum_on_random_states(self, re_im):
        # against a reference that shares no N(n) code with the search: the value is
        # no more than the least brute-force negativity over the lattice, and it is
        # the brute-force negativity at the returned setting
        chi = full_rank_state(re_im)
        res = negativity_of_quantumness(chi)
        assert res.value <= premeasurement_negativities(chi.mat, LATTICE).min() + 1e-9
        assert res.value == pytest.approx(brute_force_at(chi, res.settings_used), abs=1e-9)

    @settings(max_examples=30)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)), st.sampled_from(Q_GRID))
    def test_reports_its_setting_in_the_certify_range(self, re_im, q):
        # the setting lies in the range theta in [0, pi/2], phi in [0, pi/4] that
        # certify scans, and N(n) there is the value
        for chi in (full_rank_state(re_im), chi_q(q)):
            res = negativity_of_quantumness(chi)
            s = res.settings_used
            assert 0.0 <= s.theta <= math.pi / 2 and 0.0 <= s.phi <= math.pi / 4, s
            at_setting = negativities_offdiag(chi.mat, bloch_vector(s.theta, s.phi)[None])[0]
            assert at_setting == pytest.approx(res.value, abs=1e-12)

    def test_reports_a_minimizing_setting(self):
        res = negativity_of_quantumness(chi_q(0.1))
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
    NJP 16, 013038 (2014), against the search and a textbook reference."""

    @settings(max_examples=40)
    @given(populations, coherences, coherences)
    def test_both_searches_match_closed_form(self, p, c14, c23):
        assume(p.sum() > 1e-2)
        chi = DensityMatrix(x_state(p / p.sum(), c14, c23), (2, 2))
        closed = discord_x_state(chi)
        assert discord_numeric(chi).value == pytest.approx(closed, abs=1e-6)
        assert negativity_of_quantumness(chi).value == pytest.approx(closed, abs=1e-6)

    @settings(max_examples=60)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), quaternions, quaternions)
    def test_search_matches_closed_form_off_the_seed_lattice(self, q, v, qa, qb):
        # local unitaries keep the discord on B but move the minimisers off the
        # seed directions, so the runs, not the seeds, must reach the closed form
        x = v * chi_q(q).mat + (1 - v) * np.eye(4) / 4
        u = np.kron(su2(qa), su2(qb))
        chi = DensityMatrix(u @ x @ u.conj().T, (2, 2))
        assert negativity_of_quantumness(chi).value == pytest.approx(
            discord_x_state(DensityMatrix(x, (2, 2))), abs=1e-6)

    @pytest.mark.parametrize("q", [1 / 3, 1.0])
    @pytest.mark.parametrize("v", [1.0, 0.9, 0.5, 1e-3])
    def test_degenerate_states(self, q, v):
        # all three |T_i| agree, where the closed form as a ratio is 0/0; D = v q
        chi = DensityMatrix(v * chi_q(q).mat + (1 - v) * np.eye(4) / 4, (2, 2))
        closed = discord_x_state(chi)
        assert closed == pytest.approx(v * q, abs=1e-12)
        assert negativity_of_quantumness(chi).value == pytest.approx(closed, abs=1e-6)

    @settings(max_examples=60)
    @given(populations)
    def test_bell_diagonal_states_give_middle_singular_value(self, w):
        assume(w.sum() > 1e-3)
        chi = sum(x * np.outer(k, k.conj()) for x, k in zip(w / w.sum(), BELL_KETS.values()))
        assert discord_x_state(DensityMatrix(chi, (2, 2))) == pytest.approx(
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

    def test_optimisers_call_no_eigensolver(self, monkeypatch):
        chi = full_rank_state(np.random.default_rng(5).normal(size=(2, 4, 4)))

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg eigensolver called inside an optimiser")

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        res = negativity_of_quantumness(chi)
        monkeypatch.undo()
        assert res.value == pytest.approx(brute_force_at(chi, res.settings_used), abs=1e-9)

    def test_each_search_scores_its_seeds_once(self, monkeypatch):
        # the array call runs once, on the 80 seeds, and never inside the optimiser;
        # the Nelder-Mead steps take the scalar call, not the one-setting route;
        # discord_numeric is the same search
        chi = full_rank_state(np.random.default_rng(7).normal(size=(2, 4, 4)))
        kernel, nelder_mead = measures.negativities_offdiag, measures.minimize
        calls, inside = [], []

        def counted(chi_mat, ns):
            assert not inside, "negativities_offdiag called inside the optimiser"
            calls.append(len(ns))
            return kernel(chi_mat, ns)

        def forbidden(*args, **kwargs):
            raise AssertionError("negativity_offdiag called by a search")

        def guarded(*args, **kwargs):
            inside.append(True)
            try:
                return nelder_mead(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(measures, "negativities_offdiag", counted)
        monkeypatch.setattr(measures, "negativity_offdiag", forbidden)
        monkeypatch.setattr(measures, "minimize", guarded)
        for search in (discord_numeric, negativity_of_quantumness):
            calls.clear()
            assert search(chi).search.nfev > 0
            assert calls == [80]


class TestSearchReport:
    def runs_of(self, monkeypatch, search, chi, **forced):
        """The search's result and the scipy results of its Nelder-Mead runs, with
        `forced` overriding the search's options."""
        runs, nelder_mead = [], measures.minimize

        def recorded(*args, options, **kwargs):
            runs.append(nelder_mead(*args, options={**options, **forced}, **kwargs))
            return runs[-1]

        monkeypatch.setattr(measures, "minimize", recorded)
        return search(chi), runs

    @pytest.mark.parametrize("search", [discord_numeric, negativity_of_quantumness])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_report_summarises_every_run(self, monkeypatch, search, seed):
        chi = full_rank_state(np.random.default_rng(seed).normal(size=(2, 4, 4)))
        res, runs = self.runs_of(monkeypatch, search, chi)
        assert len(runs) == 4
        assert res.search.nfev == sum(r.nfev for r in runs)
        assert res.search.nit_max == max(r.nit for r in runs)
        assert res.search.converged is all(r.success for r in runs)
        if res.search.winner == "coarse":
            assert res.value == max(float(negativities_offdiag(chi.mat, _seeds()[1]).min()), 0.0)
        else:
            assert res.value == max(float(runs[int(res.search.winner.split()[1])].fun), 0.0)

    @pytest.mark.parametrize("chi", [chi_q(0.0).mat, np.kron(PRODUCT_A, np.diag([0.3, 0.7])),
                                     np.eye(4) / 4], ids=["chi_0", "product", "maximally_mixed"])
    def test_no_run_starts_below_the_win_margin(self, monkeypatch, chi):
        # a seed reads N below 1e-9 and N >= 0, so no run could beat it by 1e-9
        def forbidden(*args, **kwargs):
            raise AssertionError("Nelder-Mead ran though no run could win")

        monkeypatch.setattr(measures, "minimize", forbidden)
        res = negativity_of_quantumness(DensityMatrix(chi, (2, 2)))
        assert res.value < 1e-9
        assert res.search == measures.SearchReport(nfev=0, nit_max=0, converged=True,
                                                   winner="coarse")

    @pytest.mark.parametrize("q", [0.4, 0.6, 0.8, 1.0])
    def test_runs_on_a_flat_minimum_stop_on_its_value(self, q):
        # N(n) = q at every basis: each simplex is flat in value from its first
        # step, so the runs stop at once, however wide the simplex still is
        res = negativity_of_quantumness(chi_q(q))
        assert res.value == pytest.approx(q, abs=1e-12)
        assert res.search.nfev <= 40

    @pytest.mark.parametrize("search", [discord_numeric, negativity_of_quantumness])
    def test_report_flags_runs_cut_by_maxfev(self, monkeypatch, search):
        chi = full_rank_state(np.random.default_rng(3).normal(size=(2, 4, 4)))
        assert search(chi).search.converged
        res, runs = self.runs_of(monkeypatch, search, chi, maxfev=5)
        assert not res.search.converged
        assert res.search.nfev == sum(r.nfev for r in runs) <= 4 * 8
