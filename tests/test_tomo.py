"""Simulated tomography: counts, reconstruction, error bars."""

import itertools
import math

import numpy as np
import pytest

from entact.qcore import BellKind, PauliString, bell_state, chi_q, fidelity
from entact.protocol import WaveplateSetting, premeasurement
from entact.measures import negativity
from entact.tomo import (
    CountsTable,
    MeasurementSetting,
    _stream,
    mc_errorbar,
    pauli_expectations_exact,
    pauli_settings,
    project_psd,
    reconstruct,
    reconstruct_from_expectations,
    simulate_counts,
)


def reconstruct_reference(counts, n_qubits):
    """Per-string loop: each Pauli expectation is the parity-weighted frequency,
    averaged over the settings with nonzero counts that measure it."""
    dim = 2**n_qubits
    h = np.eye(dim, dtype=complex) / dim
    for ops in ("".join(p) for p in itertools.product("IXYZ", repeat=n_qubits)):
        if ops == "I" * n_qubits:
            continue
        values = [t.setting.outcome_parities(ops) @ (np.array(t.counts) / sum(t.counts))
                  for t in counts
                  if sum(t.counts) and all(o in ("I", a) for o, a in zip(ops, t.setting.axes))]
        if values:
            h += np.mean(values) * PauliString(ops).matrix() / dim
    return project_psd(h)


@pytest.fixture(scope="module")
def rho3():
    return premeasurement(chi_q(0.2), WaveplateSetting(math.pi / 12, math.pi / 6))


class TestSettings:
    def test_setting_counts(self):
        assert len(pauli_settings(2)) == 9
        assert len(pauli_settings(3)) == 27
        with pytest.raises(ValueError):
            pauli_settings(4)

    def test_settings_built_once(self):
        settings = pauli_settings(3)
        assert pauli_settings(3) is settings
        assert [s.axes for s in settings] == ["".join(a) for a in itertools.product("XYZ", repeat=3)]
        with pytest.raises(ValueError):
            settings[0].projectors[0][0, 0] = 0.0

    def test_projectors_resolve_identity(self):
        s = MeasurementSetting.from_axes("XZY")
        total = sum(s.projectors)
        assert np.abs(total - np.eye(8)).max() < 1e-12

    def test_outcome_parities(self):
        s = MeasurementSetting.from_axes("ZZ")
        assert np.allclose(s.outcome_parities("ZZ"), [1, -1, -1, 1])
        assert np.allclose(s.outcome_parities("IZ"), [1, -1, 1, -1])
        with pytest.raises(ValueError):
            s.outcome_parities("XZ")


class TestCounts:
    def test_reproducible_with_seed(self, rho3):
        a = simulate_counts(rho3, pauli_settings(3), 1e4, seed=5)
        b = simulate_counts(rho3, pauli_settings(3), 1e4, seed=5)
        assert all(x.counts == y.counts for x, y in zip(a, b))

    def test_substreams_differ(self, rho3):
        a = simulate_counts(rho3, pauli_settings(3), 1e4, seed=5, rep=0)
        b = simulate_counts(rho3, pauli_settings(3), 1e4, seed=5, rep=1)
        assert any(x.counts != y.counts for x, y in zip(a, b))

    def test_totals_scale_with_exposure(self, rho3):
        tables = simulate_counts(rho3, pauli_settings(3)[:3], 1e5, seed=2)
        for t in tables:
            assert sum(t.counts) == pytest.approx(1e5, rel=0.05)

    def test_one_draw_equals_per_setting_draws(self, rho3):
        settings = pauli_settings(3)
        for seed, rep in ((1, 0), (1, 7), (123, 3)):
            rng = _stream(seed, rep)
            for table in simulate_counts(rho3, settings, 1e4, seed, rep=rep):
                p = [np.trace(proj @ rho3.mat).real for proj in table.setting.projectors]
                assert table.counts == tuple(rng.poisson(1e4 * np.clip(p, 0.0, None)))

    def test_exposure_guard(self, rho3):
        with pytest.raises(ValueError):
            simulate_counts(rho3, pauli_settings(3), 0.0, seed=1)

    def test_counts_table_validation(self):
        s = MeasurementSetting.from_axes("ZZ")
        with pytest.raises(ValueError):
            CountsTable(s, (1, 2, 3), 100.0)
        with pytest.raises(ValueError):
            CountsTable(s, (1, -2, 3, 4), 100.0)


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


class TestReconstruction:
    def test_exact_expectations_invert_perfectly(self, rho3):
        recon = reconstruct_from_expectations(pauli_expectations_exact(rho3), 3)
        assert fidelity(recon, rho3) == pytest.approx(1.0, abs=1e-10)

    def test_two_qubit_roundtrip(self):
        chi = chi_q(0.35)
        recon = reconstruct_from_expectations(pauli_expectations_exact(chi), 2)
        assert np.abs(recon.mat - chi.mat).max() < 1e-10

    def test_counts_reconstruction_converges(self):
        rho = bell_state(BellKind.PSI_PLUS)
        tables = simulate_counts(rho, pauli_settings(2), 1e6, seed=3)
        recon = reconstruct(tables)
        assert fidelity(recon, rho) > 0.999

    @pytest.mark.parametrize("exposure", [1e4, 1.0])
    def test_matches_per_string_reference(self, rho3, exposure):
        tables = simulate_counts(rho3, pauli_settings(3), exposure, seed=4)
        if exposure == 1.0:
            assert any(sum(t.counts) == 0 for t in tables)
        ref = reconstruct_reference(tables, 3)
        assert np.abs(reconstruct(tables).mat - ref.mat).max() < 1e-12

    def test_incomplete_settings_rejected(self, rho3):
        tables = simulate_counts(rho3, pauli_settings(3)[:-1], 1e4, seed=1)
        with pytest.raises(ValueError):
            reconstruct(tables)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            reconstruct([])


class TestErrorBars:
    def test_reps_floor(self, rho3):
        with pytest.raises(ValueError):
            mc_errorbar(rho3, 1e4, reps=5, seed=1, functional="negativity")

    def test_negativity_statistics(self, rho3):
        mean, std = mc_errorbar(rho3, 1e4, reps=50, seed=1, functional="negativity")
        truth = negativity(rho3, [0, 1])
        assert std < 1e-2
        assert mean == pytest.approx(truth, abs=5 * std + 1e-3)

    def test_callable_functional(self, rho3):
        mean, std = mc_errorbar(rho3, 1e4, reps=50, seed=1,
                                functional=lambda dm: fidelity(dm, rho3))
        assert 0.97 < mean <= 1.0
        assert std < 0.01

    def test_discord_statistics(self):
        # reconstructions are never exactly Bell-diagonal, so every rep runs discord_numeric
        mean, std = mc_errorbar(chi_q(0.4), 1e4, reps=50, seed=1, functional="discord")
        assert mean == pytest.approx(0.4, abs=0.02)
        assert std < 0.02

    def test_unknown_functional(self, rho3):
        with pytest.raises(ValueError):
            mc_errorbar(rho3, 1e4, reps=50, seed=1, functional="entropy")
