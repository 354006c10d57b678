"""Simulated tomography: counts, reconstruction, error bars."""

import functools
import itertools
import math

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
    _parity_table,
    _project,
    _projector_stack,
    mc_errorbar,
    pauli_expectations_exact,
    project_psd,
    reconstruct,
    reconstruct_from_expectations,
    simulate_counts,
    tomography,
)
from reference import bell_state, partial_transpose, pauli_string_matrix

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


def random_state(seed: int, n_qubits: int = 3) -> DensityMatrix:
    """Full-rank n-qubit state A A^dag + I/20, normalised."""
    rng = np.random.default_rng(seed)
    d = 2**n_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T + np.eye(d) / 20
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
        assert _projector_stack(2).shape == (9, 4, 4, 4)
        assert _projector_stack(3).shape == (27, 8, 8, 8)
        assert simulate_counts(chi_q(0.3), 1e4, seed=1).shape == (9, 4)
        assert simulate_counts(rho3, 1e4, seed=1).shape == (27, 8)
        for n_qubits in (1, 4):
            with pytest.raises(ValueError, match="qubit count"):
                _projector_stack(n_qubits)

    def test_settings_built_once(self):
        for n_qubits in (2, 3):
            stack = _projector_stack(n_qubits)
            assert _projector_stack(n_qubits) is stack
            # the kron of the per-qubit eigenprojectors, row by row in the count layout
            assert np.array_equal(stack, [setting_projectors(a) for a in setting_axes(n_qubits)])
            with pytest.raises(ValueError):
                stack[0, 0, 0, 0] = 0.0

    def test_projectors_resolve_identity(self):
        total = _projector_stack(3).sum(axis=1)
        assert np.abs(total - np.eye(8)).max() < 1e-12

    def test_outcome_parities(self):
        # setting ZZ is row 8; the strings ZZ, IZ and XZ are columns 15, 3 and 7
        table = _parity_table(2)
        assert np.array_equal(table[8, 15], [1, -1, -1, 1])
        assert np.array_equal(table[8, 3], [1, -1, 1, -1])
        assert np.array_equal(table[8, 7], [0, 0, 0, 0])

    def test_parity_table_matches_per_string_reference(self):
        for n_qubits in (2, 3):
            table = _parity_table(n_qubits)
            assert _parity_table(n_qubits) is table and not table.flags.writeable
            assert table.shape == (3**n_qubits, 4**n_qubits, 2**n_qubits)
            # the identity string reads +1 everywhere; every other string reads
            # its outcome parities on the settings that measure it and 0 elsewhere
            assert (table[:, 0] == 1).all()
            expected = np.zeros_like(table)
            for p, (_, parity, rows) in enumerate(pauli_string_table(n_qubits), start=1):
                expected[rows, p] = parity
            expected[:, 0] = 1
            assert table.tobytes() == expected.tobytes()  # no -0.0 either

    def test_inversion_matrices_reshape_the_tables(self):
        for n_qubits in (2, 3):
            parity, real, imag = matrices = _inversion_matrices(n_qubits)
            assert _inversion_matrices(n_qubits) is matrices
            assert not any(m.flags.writeable for m in matrices)
            # row (setting, outcome) and column string, as in the count layout
            table = _parity_table(n_qubits)
            assert np.array_equal(parity.reshape(3**n_qubits, 2**n_qubits, -1),
                                  table.transpose(0, 2, 1))
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
        lam = 1e4 * _born(_projector_stack(3), rho3.mat)
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
        with pytest.raises(ValueError, match="rep"):
            tomography(rho3, 1e4, 1, (0, rep))

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

    def test_rejects_wild_trace(self):
        with pytest.raises(ValueError):
            project_psd(np.eye(4, dtype=complex))

    def test_stacked_clip_rounds_match_scalar_loop(self):
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        spread_twice = np.diag([0.9, 0.3, -0.1, -0.1]).astype(complex)  # two clip rounds
        # the first spread pushes 0.01 below zero, so a second round clips more
        # than the initial negative mass
        pushed_under = np.diag([0.8, 0.01, 0.39, -0.2]).astype(complex)
        h = np.array([spread_twice, u @ spread_twice @ u.conj().T, pushed_under,
                      np.diag([0.7, 0.4, -0.1, 0.0]), np.eye(4) / 4])
        states, clipped = _project(h)
        for r in range(len(h)):
            ref, ref_clipped = project_reference(h[r])
            assert np.array_equal(states[r], ref)
            assert clipped[r] == ref_clipped
            assert np.array_equal(project_psd(h[r]).mat, ref)
        assert np.diag(states[0]).real == pytest.approx([0.8, 0.2, 0.0, 0.0], abs=1e-15)
        assert clipped[:3] == pytest.approx([0.2, 0.2, 0.2 + 0.2 / 3 - 0.01], abs=1e-15)
        assert clipped[4] == 0.0

    @settings(max_examples=100)
    @given(spectrum=arrays(np.float64, 8, elements=st.floats(-0.3, 0.6)))
    def test_spectrum_agrees_with_smolin_gambetta_smith(self, spectrum):
        mu = spectrum + (1.0 - spectrum.sum()) / 8  # unit trace, as a reconstruction has
        # their one pass: walk up the sorted spectrum, zero while the accumulated
        # deficit spread over the rest leaves the current eigenvalue negative
        order = np.argsort(mu)[::-1]
        deficit, keep = 0.0, 8
        while mu[order[keep - 1]] + deficit / keep < 0:
            deficit += mu[order[keep - 1]]
            keep -= 1
        sgs = np.zeros(8)
        sgs[order[:keep]] = mu[order[:keep]] + deficit / keep
        states, _ = _project(np.diag(mu).astype(complex)[None])
        assert np.abs(np.diag(states[0]).real - sgs / sgs.sum()).max() <= 1e-12

    def test_stack_with_nonpositive_rep_raises(self):
        h = np.array([np.diag([0.7, 0.4, -0.1, 0.0]), np.diag([-0.1, -0.2, 0.0, 0.0])])
        with pytest.raises(ValueError, match="nonpositive"):
            _project(h.astype(complex))


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
        # every rep runs the one discord search, whose reports the map may keep
        reports = []

        def discord(dm):
            result = negativity_of_quantumness(dm)
            reports.append(result.search)
            return result.value

        mean, std, *_ = mc_errorbar(chi_q(0.4), 1e4, reps=50, seed=1,
                                    functional=per_state(discord, (2, 2)))
        assert mean == pytest.approx(0.4, abs=0.02)
        assert std < 0.02
        assert len(reports) == 50

    @pytest.mark.parametrize("functional", ["negativity", None, 0.5, [AB_M]])
    def test_non_callable_functional_raises(self, rho3, monkeypatch, functional):
        # a name is no functional either, and the check runs before any count is drawn
        monkeypatch.setattr(tomo, "_draw", None)
        with pytest.raises(TypeError, match="functional"):
            mc_errorbar(rho3, 1e4, reps=50, seed=1, functional=functional)


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
        counts = _draw(exposure * _born(_projector_stack(3), rho.mat), seed, range(reps))
        run = tomography(rho, exposure, seed, range(reps))
        values = []
        for rep in range(reps):
            single = simulate_counts(rho, exposure, seed, rep=rep)
            assert np.array_equal(counts[rep], single)
            assert np.array_equal(reconstruct(single).mat, run.states[rep])
            mat, clipped = project_reference(inversion_reference(single, 3))
            assert np.abs(run.states[rep] - mat).max() <= 1e-12
            assert run.clipped_mass[rep] == pytest.approx(clipped, abs=1e-12)
            assert run.zero_settings[rep] == (single.sum(axis=1) == 0).sum()
            values.append(negativity_reference(mat))
        assert np.abs(negativities(run.states, (2, 2, 2), [0, 1]) - values).max() <= 1e-12
        bar = mc_errorbar(rho, exposure, reps, seed, AB_M)
        assert bar.mean == pytest.approx(np.mean(values), abs=1e-12)
        assert bar.std == pytest.approx(np.std(values, ddof=1), abs=1e-12)
        assert np.array_equal(bar.clipped_mass, run.clipped_mass)
        assert np.array_equal(bar.zero_settings, run.zero_settings)
        if exposure == 1.0:
            assert run.zero_settings.max() > 0

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
        rho = random_state(state_seed, n_qubits)
        block = tomography(rho, exposure, seed, range(offset, offset + size))
        for i, rep in enumerate(range(offset, offset + size)):
            alone = tomography(rho, exposure, seed, (rep,))
            assert alone.states[0].tobytes() == block.states[i].tobytes()
            assert alone.clipped_mass[0].tobytes() == block.clipped_mass[i].tobytes()
            assert alone.zero_settings[0] == block.zero_settings[i]

    def test_blocks_match_single_shot_reps(self, rho3):
        reps = 2 * _BLOCK + 3
        bar = mc_errorbar(rho3, 1e4, reps, seed=9, functional=AB_M)
        values = [negativity(reconstruct(simulate_counts(rho3, 1e4, 9, rep=r)), [0, 1])
                  for r in range(reps)]
        assert bar.mean == float(np.mean(values))
        assert bar.std == float(np.std(values, ddof=1))

    @pytest.mark.parametrize("name, single", [
        ("negativity", lambda dm: negativity(dm, [0, 1])),
        ("witness-expect", lambda dm: expect(w3(), dm)),
    ])
    def test_stacked_functionals_equal_per_state(self, rho3, name, single):
        # the stack kernel gives the bits of its one-state call on every rep
        stacked = mc_errorbar(rho3, 1e3, 50, 2, STACKED[name])
        assert stacked[:2] == mc_errorbar(rho3, 1e3, 50, 2, per_state(single, rho3.dims))[:2]
