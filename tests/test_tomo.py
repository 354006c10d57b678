"""Simulated tomography: counts, reconstruction, error bars."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entact.qcore import DensityMatrix, chi_q, fidelity, pauli_basis, projector
from entact.protocol import WaveplateSetting, premeasurement
from entact import tomo
from entact.measures import negativities, negativity, negativity_of_quantumness
from entact.witnesses import expect, expectations, w3
from entact.tomo import (
    E_MAX,
    MC_REPS_MAX,
    _BLOCK,
    _born,
    _draw,
    _inversion_matrices,
    _project,
    _reconstruct,
    mc_errorbar,
    pauli_expectations_exact,
    project_psd,
    reconstruct,
    reconstruct_from_expectations,
    simulate_counts,
    tomography,
)
from reference import (bell_state, partial_transpose, pauli_string_matrix,
                       project_spectrum_sgs)

# the count layout: one row per setting, one column per outcome bit string
EIGENBASES = {"X": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
              "Y": np.array([[1, 1], [1j, -1j]]) / math.sqrt(2),
              "Z": np.eye(2)}


def setting_axes(n_qubits):
    return ["".join(a) for a in itertools.product("XYZ", repeat=n_qubits)]


def outcome_bits(n_qubits):
    return list(itertools.product((0, 1), repeat=n_qubits))


def setting_projectors(axes):
    """The outcome projectors of one setting: kron of each qubit's eigenprojector,
    column 0 (+1) for bit 0 and column 1 (-1) for bit 1."""
    projs = []
    for bits in outcome_bits(len(axes)):
        p = np.ones((1, 1))
        for a, b in zip(axes, bits):
            p = np.kron(p, projector(EIGENBASES[a][:, b]))
        projs.append(p)
    return projs


@functools.cache
def pauli_string_table(n_qubits):
    """Per non-identity Pauli string: its matrix, the parity of each outcome ((-1)
    to the number of 1 bits on the qubits where the string is not I), and the rows
    of the settings that measure it."""
    table = []
    for ops in ("".join(p) for p in itertools.product("IXYZ", repeat=n_qubits)):
        if ops == "I" * n_qubits:
            continue
        parity = np.array([(-1) ** sum(b for o, b in zip(ops, bits) if o != "I")
                           for bits in outcome_bits(n_qubits)])
        rows = [i for i, axes in enumerate(setting_axes(n_qubits))
                if all(o in ("I", a) for o, a in zip(ops, axes))]
        table.append((pauli_string_matrix(ops), parity, rows))
    return table


def inversion_reference(counts, n_qubits):
    """Per-string loop: each Pauli expectation is the parity-weighted frequency,
    averaged over the settings with nonzero counts that measure it; returns the
    linear-inversion matrix before any projection."""
    dim = 2**n_qubits
    totals = counts.sum(axis=1)
    h = np.eye(dim, dtype=complex) / dim
    for matrix, parity, rows in pauli_string_table(n_qubits):
        values = [parity @ (counts[i] / totals[i]) for i in rows if totals[i]]
        if values:
            h += np.mean(values) * matrix / dim
    return h


def project_reference(h):
    """Scalar clip loop: zero the most negative eigenvalue, spread its deficit over
    the positive ones, repeat, renormalise; returns (matrix, clipped mass)."""
    vals, vecs = np.linalg.eigh(h)
    clipped = 0.0
    while vals.min() < 0:
        if vals.max() <= 0:
            raise ValueError("spectrum entirely nonpositive")
        i = int(np.argmin(vals))
        deficit = vals[i]
        vals[i] = 0.0
        clipped -= deficit
        positive = vals > 0
        vals[positive] += deficit / positive.sum()
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum()
    return (vecs * vals) @ vecs.conj().T, clipped


def reconstruct_reference(counts, n_qubits):
    return project_reference(inversion_reference(counts, n_qubits))[0]


def negativity_reference(mat):
    """AB|M negativity by brute force: singular values of the M-transposed matrix."""
    return np.linalg.svd(partial_transpose(mat, 2, (2, 2, 2)), compute_uv=False).sum() - 1.0


def random_state(seed: int, n_qubits: int = 3, rank: int | None = None) -> DensityMatrix:
    """Full-rank n-qubit state A A^dag + I/20, normalised; given a rank, A A^dag
    with A of that many columns instead."""
    rng = np.random.default_rng(seed)
    d = 2**n_qubits
    a = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    m = a @ a.conj().T + (0.0 if rank else np.eye(d) / 20)
    return DensityMatrix(m / np.trace(m).real, (2,) * n_qubits)


# mc_errorbar functionals: maps from a (reps, d, d) stack to one value per rep
AB_M = functools.partial(negativities, dims=(2, 2, 2), cut=(0, 1))
STACKED = {"negativity": AB_M, "witness-expect": lambda mats: expectations(w3(), mats)}


def per_state(f, dims):
    """The stack map that applies `f` to one `DensityMatrix` per rep."""
    return lambda mats: [f(DensityMatrix(m, dims)) for m in mats]


@pytest.fixture(scope="module")
def rho3():
    return premeasurement(chi_q(0.2), WaveplateSetting(math.pi / 12, math.pi / 6))


class TestSettings:
    def test_setting_counts(self, rho3):
        assert _born(chi_q(0.3)).shape == (9, 4)
        assert _born(rho3).shape == (27, 8)
        assert simulate_counts(chi_q(0.3), 1e4, seed=1).shape == (9, 4)
        assert simulate_counts(rho3, 1e4, seed=1).shape == (27, 8)

    @pytest.mark.parametrize("dims", [(2,), (2, 2, 2, 2), (4, 2)])
    def test_unsupported_qubit_count_raises(self, dims):
        rho = DensityMatrix(np.eye(math.prod(dims)) / math.prod(dims), dims)
        for call in (lambda: _born(rho), lambda: simulate_counts(rho, 1e4, 1),
                     lambda: tomography(rho, 1e4, 1),
                     lambda: mc_errorbar(rho, 1e4, 50, 1, AB_M)):
            with pytest.raises(ValueError, match="unsupported qubit count"):
                call()

    @settings(max_examples=30)
    @example(n_qubits=3, rank=1, state_seed=0)
    @given(n_qubits=st.sampled_from([2, 3]), rank=st.sampled_from([1, 2, None]),
           state_seed=st.integers(0, 2**32 - 1))
    def test_born_matches_setting_projectors(self, n_qubits, rank, state_seed):
        # the Pauli expectations through the parity matrix give each outcome's
        # trace with its projector, on full-rank and rank-deficient states alike
        rho = random_state(state_seed, n_qubits, rank)
        expected = [[np.trace(proj @ rho.mat).real for proj in setting_projectors(axes)]
                    for axes in setting_axes(n_qubits)]
        born = _born(rho)
        assert np.abs(born - np.clip(expected, 0.0, None)).max() <= 1e-15
        assert np.abs(born.sum(axis=1) - 1.0).max() <= 1e-12

    def test_structural_zeros_clip_to_zero(self):
        # some outcomes of this state have probability 0, and the parity sum of
        # one lands a few ulps below it: the draw needs a nonnegative mean
        rho = premeasurement(chi_q(0.0), WaveplateSetting(math.pi / 12, math.pi / 6))
        assert _born(rho).min() == 0.0
        assert simulate_counts(rho, 1e4, seed=1).min() == 0

    def test_outcome_parities(self):
        # setting ZZ is row 8; the strings ZZ, IZ and XZ are columns 15, 3 and 7
        table = _inversion_matrices(2)[0].reshape(9, 4, 16)
        assert np.array_equal(table[8, :, 15], [1, -1, -1, 1])
        assert np.array_equal(table[8, :, 3], [1, -1, 1, -1])
        assert np.array_equal(table[8, :, 7], [0, 0, 0, 0])

    def test_parity_table_matches_per_string_reference(self):
        for n_qubits in (2, 3):
            parity = _inversion_matrices(n_qubits)[0]
            assert parity.shape == (3**n_qubits * 2**n_qubits, 4**n_qubits)
            # row (setting, outcome) in the count layout and column string: the
            # identity string reads +1 everywhere; every other string reads its
            # outcome parities on the settings that measure it and 0 elsewhere
            table = parity.reshape(3**n_qubits, 2**n_qubits, -1)
            assert (table[:, :, 0] == 1).all()
            expected = np.zeros_like(table)
            for p, (_, signs, rows) in enumerate(pauli_string_table(n_qubits), start=1):
                expected[rows, :, p] = signs
            expected[:, :, 0] = 1
            assert parity.tobytes() == expected.tobytes()  # no -0.0 either

    def test_inversion_matrices_reshape_the_tables(self):
        for n_qubits in (2, 3):
            parity, real, imag = matrices = _inversion_matrices(n_qubits)
            assert _inversion_matrices(n_qubits) is matrices
            assert not any(m.flags.writeable for m in matrices)
            basis = pauli_basis(n_qubits).reshape(4**n_qubits, -1) / 2**n_qubits
            assert np.array_equal(real + 1j * imag, basis)


class TestCounts:
    def test_reproducible_with_seed(self, rho3):
        a = simulate_counts(rho3, 1e4, seed=5)
        assert a.dtype == np.int64
        assert np.array_equal(a, simulate_counts(rho3, 1e4, seed=5))

    def test_substreams_differ(self, rho3):
        a = simulate_counts(rho3, 1e4, seed=5, rep=0)
        assert not np.array_equal(a, simulate_counts(rho3, 1e4, seed=5, rep=1))

    def test_totals_scale_with_exposure(self, rho3):
        totals = simulate_counts(rho3, 1e5, seed=2).sum(axis=1)
        assert totals == pytest.approx(np.full(27, 1e5), rel=0.05)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_reset_substreams_match_jumped(self, rho3, seed):
        # one generator reset per rep reads what Philox(seed).jumped(r) reads,
        # across the carry of r into the fourth counter word
        reps = [0, 1, 63, 64, 65, 2**64 - 1, 2**64, 2**64 + 5, 2**128 - 1]
        lam = 1e4 * _born(rho3)
        base = np.random.Philox(key=np.uint64(seed))
        expected = [np.random.Generator(base.jumped(r)).poisson(lam) for r in reps]
        assert np.array_equal(_draw(lam, seed, reps), expected)
        assert np.array_equal(_draw(lam, seed, reps[::-1]), expected[::-1])
        for r, counts in zip(reps, expected):
            assert np.array_equal(simulate_counts(rho3, 1e4, seed, rep=r), counts)

    @pytest.mark.parametrize("seed", [2**64, -1, 1.5, 1.0, "1", None])
    def test_bad_seed_raises(self, rho3, seed):
        for call in (lambda: simulate_counts(rho3, 1e4, seed),
                     lambda: tomography(rho3, 1e4, seed),
                     lambda: mc_errorbar(rho3, 1e4, 50, seed, AB_M)):
            with pytest.raises(ValueError, match="seed"):
                call()

    @pytest.mark.parametrize("rep", [1.5, -1, 2**128, np.float64(2.0), "0"])
    def test_bad_rep_raises(self, rho3, rep):
        with pytest.raises(ValueError, match="rep"):
            simulate_counts(rho3, 1e4, 1, rep=rep)

    def test_numpy_integer_seeds_and_reps(self, rho3):
        counts = simulate_counts(rho3, 1e4, np.uint64(2**64 - 1), rep=np.int64(3))
        assert np.array_equal(counts, simulate_counts(rho3, 1e4, 2**64 - 1, rep=3))

    def test_one_draw_equals_per_setting_draws(self, rho3):
        for seed, rep in ((1, 0), (1, 7), (123, 3)):
            # the substream rule: rep r draws from Philox(seed).jumped(r)
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)).jumped(rep))
            counts = simulate_counts(rho3, 1e4, seed, rep=rep)
            for axes, row in zip(setting_axes(3), counts):
                p = [np.trace(proj @ rho3.mat).real for proj in setting_projectors(axes)]
                assert np.array_equal(row, rng.poisson(1e4 * np.clip(p, 0.0, None)))

    def test_exposure_guard(self, rho3):
        with pytest.raises(ValueError):
            simulate_counts(rho3, 0.0, seed=1)

    @pytest.mark.parametrize("exposure", [-1.0, math.nan, math.inf, 2 * E_MAX])
    def test_exposure_bounds(self, rho3, exposure):
        with pytest.raises(ValueError, match="exposure"):
            simulate_counts(rho3, exposure, seed=1)
        with pytest.raises(ValueError, match="exposure"):
            mc_errorbar(rho3, exposure, reps=50, seed=1, functional=AB_M)

    def test_largest_exposure_draws(self, rho3):
        totals = simulate_counts(rho3, E_MAX, seed=1).sum(axis=1)
        assert totals == pytest.approx(np.full(27, E_MAX), rel=1e-6)

    def test_counts_table_validation(self, rho3):
        counts = simulate_counts(rho3, 1e4, seed=1)
        for bad in (counts[:, :-1], counts.T, counts[None], counts.ravel(),
                    np.zeros((27, 4), int)):
            with pytest.raises(ValueError, match="shape"):
                reconstruct(bad)
        for bad in (counts.astype(float), counts > 0):
            with pytest.raises(ValueError, match="integers"):
                reconstruct(bad)
        negative = counts.copy()
        negative[3, 2] = -1
        with pytest.raises(ValueError, match="nonnegative"):
            reconstruct(negative)
        # unsigned and narrower integers read as the same counts
        assert np.array_equal(reconstruct(counts.astype(np.uint16)).mat, reconstruct(counts).mat)


class TestProjection:
    def test_passthrough_on_valid_state(self, rho3):
        out = project_psd(rho3.mat)
        assert np.abs(out.mat - rho3.mat).max() < 1e-10

    def test_clips_negative_eigenvalue(self):
        h = np.diag([0.7, 0.4, -0.1, 0.0]).astype(complex)
        out = project_psd(h)
        vals = np.linalg.eigvalsh(out.mat)
        assert vals.min() >= -1e-12
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            project_psd(bad / np.trace(bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        h = np.eye(4, dtype=complex) / 4
        h[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            project_psd(h)

    def test_rejects_bad_shape(self):
        # a (2, 3) input would fail in the Hermiticity test, a 3 x 3 one in DensityMatrix
        for bad in (np.zeros((2, 3)), np.eye(3) / 3):
            with pytest.raises(ValueError, match=rf"got shape \({bad.shape[0]}, 3\)"):
                project_psd(bad)

    def test_rejects_wild_trace(self):
        with pytest.raises(ValueError):
            project_psd(np.eye(4, dtype=complex))

    def test_stacked_clip_rounds_match_scalar_loop(self):
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        spread_twice = np.diag([0.9, 0.3, -0.1, -0.1]).astype(complex)  # two clip rounds
        # the clip loop's first spread pushes 0.01 below zero, so a second round
        # zeroes it too: the same state, but the loop clips 0.2 + 0.2/3 - 0.01
        pushed_under = np.diag([0.8, 0.01, 0.39, -0.2]).astype(complex)
        h = np.array([spread_twice, u @ spread_twice @ u.conj().T, pushed_under,
                      np.diag([0.7, 0.4, -0.1, 0.0]), np.eye(4) / 4,
                      random_state(2, 2).mat])
        states, clipped = _project(h)
        for r in range(len(h)):
            ref, ref_clipped = project_reference(h[r])
            assert np.abs(states[r] - ref).max() <= 1e-15
            assert np.array_equal(project_psd(h[r]).mat, states[r])
            if r != 2:  # only negative eigenvalues are zeroed
                assert clipped[r] == pytest.approx(ref_clipped, abs=1e-15)
        assert np.diag(states[0]).real == pytest.approx([0.8, 0.2, 0.0, 0.0], abs=1e-15)
        assert np.diag(states[2]).real == pytest.approx([0.705, 0.0, 0.295, 0.0], abs=1e-15)
        # the negative eigenvalue mass: 0.01 ends at zero too, but is not counted
        assert clipped[:4] == pytest.approx([0.2, 0.2, 0.2, 0.1], abs=1e-15)
        assert clipped[4] == clipped[5] == 0.0

    @settings(max_examples=200, deadline=None)
    @example(spectrum=[0.9, 0.3, -0.1], trace=1.0)
    @example(spectrum=[0.8, 0.01, 0.39], trace=1.0)
    @example(spectrum=[0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0], trace=1.0)
    @example(spectrum=[0.8, 0.4, 0.1], trace=1.0)  # mu_(3) is the level tau_3
    @example(spectrum=[0.7, 0.4, 0.1], trace=0.9)  # a deficit of 0.1 to spread
    @given(spectrum=st.sampled_from([3, 7]).flatmap(lambda n: st.lists(
               st.floats(-0.3, 0.6) | st.sampled_from([0.0, 0.25, -0.05]),
               min_size=n, max_size=n)),
           trace=st.floats(0.8, 1.2))
    def test_spectrum_agrees_with_smolin_gambetta_smith(self, spectrum, trace):
        # the last eigenvalue sets the trace; ties and exact zeros come from the
        # sampled values, on 2- and 3-qubit spectra
        mu = np.array(spectrum + [trace - math.fsum(spectrum)])
        ref, ref_clipped = project_spectrum_sgs(mu)
        states, clipped = _project(np.diag(mu).astype(complex)[None])
        assert np.abs(np.diag(states[0]).real - ref).max() <= 1e-12
        assert clipped[0] == pytest.approx(ref_clipped, abs=1e-14)
        # the eigenvectors carry over: the same spectrum in a random basis
        u, _ = np.linalg.qr(np.random.default_rng(len(mu)).normal(size=(len(mu),) * 2))
        states, _ = _project((u @ np.diag(mu) @ u.T).astype(complex)[None])
        assert np.abs(states[0] - u @ np.diag(ref) @ u.T).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    # projected at its own trace and then rescaled, this input moves away
    @example(n_qubits=2, seed=210, spread=0.1, rank=4, trace=0.8)
    @given(n_qubits=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
           spread=st.floats(0.01, 1.0), rank=st.integers(1, 8), trace=st.floats(0.8, 1.2))
    def test_projection_never_moves_away_from_a_state(self, n_qubits, seed, spread, rank,
                                                      trace):
        # the projection onto the convex set of density matrices is a contraction
        # towards every member: ||P(X) - rho||_F <= ||X - rho||_F, at any trace
        rng = np.random.default_rng(seed)
        d = 2**n_qubits
        a = spread * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        x = (a + a.conj().T) / 2
        x += np.eye(d) * (trace - np.trace(x).real) / d
        rho = random_state(seed, n_qubits, rank=min(rank, d)).mat
        states, _ = _project(x[None])
        assert np.linalg.norm(states[0] - rho) <= np.linalg.norm(x - rho) + 1e-12

    def test_clipped_mass_matches_the_clip_loop_where_only_negatives_are_zeroed(self):
        # the clipped mass is the negative eigenvalue mass of the raw inversion; at
        # high exposure only negative eigenvalues are zeroed, and there the clip
        # loop's rounds clip each raw eigenvalue once, so the masses agree
        rho = random_state(11, rank=6)
        counts = _draw(1e4 * _born(rho), 5, range(40))
        states, masses, _ = _reconstruct(counts, 3)
        raw = np.array([inversion_reference(c, 3) for c in counts])
        negative_mass = np.maximum(-np.linalg.eigvalsh(raw), 0.0).sum(axis=1)
        assert _project(raw)[1] == pytest.approx(negative_mass, abs=1e-15)
        assert masses == pytest.approx(negative_mass, abs=1e-14)
        only_negatives = 0
        for state, clipped, h in zip(states, masses, raw):
            # both spectra ascend, and the projection keeps their order
            mu, zeroed = np.linalg.eigvalsh(h), np.linalg.eigvalsh(state) <= 1e-14
            if zeroed.any() and (mu[zeroed] < 0).all():
                only_negatives += 1
                assert clipped == pytest.approx(project_reference(h)[1], abs=1e-12)
        assert only_negatives >= 20

    @pytest.mark.parametrize("nudge", [0.0, 1e-15, -1e-15])
    def test_clipped_mass_is_continuous(self, nudge):
        # mu_(3) = 0.1 is the level of a projection at this spectrum's own trace,
        # 0.9: the mass, 0.3, must not depend on the last bit of mu_(3)
        _, clipped = _project(np.diag([0.7, 0.4, 0.1 + nudge, -0.3]).astype(complex)[None])
        assert clipped[0] == pytest.approx(0.3, abs=1e-14)

    def test_every_spectrum_has_a_level(self):
        # a spectrum of nonpositive trace still has a nearest density matrix
        h = np.array([np.diag([0.7, 0.4, -0.1, 0.0]), np.diag([-0.1, -0.2, 0.0, 0.0])])
        states, clipped = _project(h.astype(complex))
        assert np.diag(states[1]).real == pytest.approx([0.225, 0.125, 0.325, 0.325],
                                                        abs=1e-15)
        assert clipped == pytest.approx([0.1, 0.3], abs=1e-15)


class TestReconstruction:
    def test_exact_expectations_invert_perfectly(self, rho3):
        values = pauli_expectations_exact(rho3)
        assert values.shape == (64,)
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        for p, (matrix, _, _) in enumerate(pauli_string_table(3), start=1):
            assert values[p] == pytest.approx(np.trace(matrix @ rho3.mat).real, abs=1e-12)
        recon = reconstruct_from_expectations(values, 3)
        assert fidelity(recon, rho3) == pytest.approx(1.0, abs=1e-10)

    def test_expectations_length_checked(self, rho3):
        values = pauli_expectations_exact(rho3)
        for bad, n_qubits in ((values, 2), (values[:-1], 3), (values[None], 3)):
            with pytest.raises(ValueError, match="Pauli expectations"):
                reconstruct_from_expectations(bad, n_qubits)

    def test_two_qubit_roundtrip(self):
        chi = chi_q(0.35)
        recon = reconstruct_from_expectations(pauli_expectations_exact(chi), 2)
        assert np.abs(recon.mat - chi.mat).max() < 1e-10

    def test_counts_reconstruction_converges(self):
        rho = bell_state("psi+")
        recon = reconstruct(simulate_counts(rho, 1e6, seed=3))
        assert recon.dims == (2, 2)
        assert fidelity(recon, rho) > 0.999

    @pytest.mark.parametrize("exposure", [1e4, 1.0])
    def test_matches_per_string_reference(self, rho3, exposure):
        for n_qubits, rho in ((3, rho3), (2, random_state(5, 2))):
            counts = simulate_counts(rho, exposure, seed=4)
            if exposure == 1.0:
                assert (counts.sum(axis=1) == 0).any()
            ref = reconstruct_reference(counts, n_qubits)
            assert np.abs(reconstruct(counts).mat - ref).max() < 1e-12

    def test_incomplete_settings_rejected(self, rho3):
        counts = simulate_counts(rho3, 1e4, seed=1)
        with pytest.raises(ValueError, match="shape"):
            reconstruct(counts[:-1])

    def test_empty_input(self):
        for empty in ([], np.zeros((0, 8), int)):
            with pytest.raises(ValueError, match="shape"):
                reconstruct(empty)


class TestErrorBars:
    def test_reps_floor(self, rho3):
        with pytest.raises(ValueError):
            mc_errorbar(rho3, 1e4, reps=5, seed=1, functional=AB_M)

    def test_reps_cap(self, rho3):
        for reps in (MC_REPS_MAX + 1, 50.5, 60.0):
            with pytest.raises(ValueError, match="reps"):
                mc_errorbar(rho3, 1e4, reps=reps, seed=1, functional=AB_M)

    def test_negativity_statistics(self, rho3):
        mean, std, *_ = mc_errorbar(rho3, 1e4, reps=50, seed=1, functional=AB_M)
        truth = negativity(rho3, [0, 1])
        assert std < 1e-2
        assert mean == pytest.approx(truth, abs=5 * std + 1e-3)

    def test_callable_functional(self, rho3):
        fidelities = per_state(lambda dm: fidelity(dm, rho3), rho3.dims)
        mean, std, *_ = mc_errorbar(rho3, 1e4, reps=50, seed=1, functional=fidelities)
        assert 0.97 < mean <= 1.0
        assert std < 0.01

    def test_discord_statistics(self):
        # each block of reps runs one stacked discord call, whose reports the map may keep
        reports = []

        def discord(mats):
            results = negativity_of_quantumness([DensityMatrix(m, (2, 2)) for m in mats])
            reports.extend(r.search for r in results)
            return [r.value for r in results]

        mean, std, *_ = mc_errorbar(chi_q(0.4), 1e4, reps=50, seed=1, functional=discord)
        assert mean == pytest.approx(0.4, abs=0.02)
        assert std < 0.02
        assert len(reports) == 50

    def test_born_probabilities_once_per_call(self, rho3, monkeypatch):
        # 131 reps run in three blocks (64, 64 and 3) from one set of Poisson means
        calls, born = [], tomo._born

        def counted(rho):
            calls.append(rho)
            return born(rho)

        monkeypatch.setattr(tomo, "_born", counted)
        bar = mc_errorbar(rho3, 1e4, 2 * _BLOCK + 3, seed=9, functional=AB_M)
        assert len(calls) == 1 and calls[0] is rho3
        assert len(bar.clipped_mass) == 131

    def test_blocks_bound_memory(self, rho3):
        # past its 24 bytes a rep (value, clipped mass, zero-count settings) keeps
        # nothing: 100 times the reps moves the peak by those bytes and a fixed
        # slack, where one unblocked stack of 6,400 reps would hold some 83 MB
        def peak(reps):
            tracemalloc.start()
            try:
                mc_errorbar(rho3, 1e4, reps, seed=1, functional=AB_M)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(_BLOCK)
        small, large = peak(_BLOCK), peak(100 * _BLOCK)
        assert large - small <= 24 * 99 * _BLOCK + 256 * 1024

    @pytest.mark.parametrize("functional", ["negativity", None, 0.5, [AB_M]])
    def test_non_callable_functional_raises(self, rho3, monkeypatch, functional):
        # a name is no functional either, and the check runs before any count is drawn
        monkeypatch.setattr(tomo, "_draw", None)
        with pytest.raises(TypeError, match="functional"):
            mc_errorbar(rho3, 1e4, reps=50, seed=1, functional=functional)

    @pytest.mark.parametrize("reps, functional, shape", [
        (50, lambda mats: AB_M(mats).mean(), r"\(\)"),
        (130, lambda mats: AB_M(mats)[:1], r"\(1,\)"),
    ])
    def test_wrong_shaped_functional_raises(self, rho3, reps, functional, shape):
        # a scalar or a (1,) would broadcast over the block: a 5.6e-17 std, or the
        # mean of one value per block
        with pytest.raises(ValueError, match=rf"functional must return shape \(\d+,\).*{shape}"):
            mc_errorbar(rho3, 1e4, reps=reps, seed=1, functional=functional)


class TestBatchedPipeline:
    """The batched pipeline against a per-rep loop built from the single-shot API
    and reference implementations."""

    @settings(max_examples=3)
    @example(state_seed=0, exposure=1.0, reps=50, seed=1)
    @example(state_seed=1, exposure=1e4, reps=51, seed=2**64 - 1)
    @given(state_seed=st.integers(0, 2**32 - 1), exposure=st.sampled_from([1.0, 1e4]),
           reps=st.integers(50, 60), seed=st.integers(0, 2**64 - 1))
    def test_matches_per_rep_reference(self, state_seed, exposure, reps, seed):
        rho = random_state(state_seed)
        counts = _draw(exposure * _born(rho), seed, range(reps))
        states, masses, zeros = _reconstruct(counts, 3)
        values = []
        for rep in range(reps):
            single = simulate_counts(rho, exposure, seed, rep=rep)
            assert np.array_equal(counts[rep], single)
            assert np.array_equal(reconstruct(single).mat, states[rep])
            h = inversion_reference(single, 3)
            mat = project_reference(h)[0]
            assert np.abs(states[rep] - mat).max() <= 1e-12
            clipped = project_spectrum_sgs(np.linalg.eigvalsh(h))[1]
            assert masses[rep] == pytest.approx(clipped, abs=1e-12)
            assert zeros[rep] == (single.sum(axis=1) == 0).sum()
            values.append(negativity_reference(mat))
        assert np.abs(negativities(states, (2, 2, 2), [0, 1]) - values).max() <= 1e-12
        bar = mc_errorbar(rho, exposure, reps, seed, AB_M)
        assert bar.mean == pytest.approx(np.mean(values), abs=1e-12)
        assert bar.std == pytest.approx(np.std(values, ddof=1), abs=1e-12)
        assert np.array_equal(bar.clipped_mass, masses)
        assert np.array_equal(bar.zero_settings, zeros)
        if exposure == 1.0:
            assert zeros.max() > 0

    @settings(max_examples=25, deadline=None)
    @example(n_qubits=2, state_seed=0, exposure=1.0, offset=0, size=_BLOCK, seed=1)
    @example(n_qubits=3, state_seed=1, exposure=1e4, offset=2**64 - 2, size=5, seed=0)
    @given(n_qubits=st.sampled_from([2, 3]), state_seed=st.integers(0, 2**32 - 1),
           exposure=st.sampled_from([1.0, 30.0, 1e4]),
           offset=st.integers(0, 2**128 - _BLOCK), size=st.integers(1, _BLOCK),
           seed=st.integers(0, 2**64 - 1))
    def test_rep_is_bit_identical_alone_and_in_a_block(self, n_qubits, state_seed, exposure,
                                                       offset, size, seed):
        # the BLAS products must not depend on how many reps share them
        lam = exposure * _born(random_state(state_seed, n_qubits))
        block = _reconstruct(_draw(lam, seed, range(offset, offset + size)), n_qubits)
        for i, rep in enumerate(range(offset, offset + size)):
            alone = _reconstruct(_draw(lam, seed, (rep,)), n_qubits)
            for a, b in zip(alone, block):
                assert a[0].tobytes() == b[i].tobytes()

    def test_blocks_match_single_shot_reps(self, rho3):
        reps = 2 * _BLOCK + 3
        bar = mc_errorbar(rho3, 1e4, reps, seed=9, functional=AB_M)
        values = [negativity(reconstruct(simulate_counts(rho3, 1e4, 9, rep=r)), [0, 1])
                  for r in range(reps)]
        assert bar.mean == float(np.mean(values))
        assert bar.std == float(np.std(values, ddof=1))
        _, masses, zeros = _reconstruct(_draw(1e4 * _born(rho3), 9, range(reps)), 3)
        assert bar.clipped_mass.tobytes() == masses.tobytes()
        assert bar.zero_settings.tobytes() == zeros.tobytes()

    @pytest.mark.parametrize("n_qubits", [2, 3])
    @pytest.mark.parametrize("exposure", [1.0, 1e4])
    def test_tomography_is_one_rep(self, n_qubits, exposure):
        # the bits of `reconstruct` on rep 0's counts, with the diagnostics that
        # mc_errorbar reports for its rep 0, as scalars
        rho = random_state(4, n_qubits)
        run = tomography(rho, exposure, 7)
        single = reconstruct(simulate_counts(rho, exposure, 7))
        assert run.state.dims == rho.dims and run.state.mat.tobytes() == single.mat.tobytes()
        bar = mc_errorbar(rho, exposure, 50, 7, lambda mats: np.trace(mats, axis1=1, axis2=2).real)
        assert type(run.clipped_mass) is float and type(run.zero_settings) is int
        assert (run.clipped_mass, run.zero_settings) == (bar.clipped_mass[0], bar.zero_settings[0])
        assert (run.zero_settings > 0) == (exposure == 1.0)

    @pytest.mark.parametrize("name, single", [
        ("negativity", lambda dm: negativity(dm, [0, 1])),
        ("witness-expect", lambda dm: expect(w3(), dm)),
    ])
    def test_stacked_functionals_equal_per_state(self, rho3, name, single):
        # the stack kernel gives the bits of its one-state call on every rep
        stacked = mc_errorbar(rho3, 1e3, 50, 2, STACKED[name])
        assert stacked[:2] == mc_errorbar(rho3, 1e3, 50, 2, per_state(single, rho3.dims))[:2]
