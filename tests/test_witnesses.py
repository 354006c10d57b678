"""Witness operators and their expectation routes."""

import math

import numpy as np
import pytest

from entact.qcore import DensityMatrix, chi_q, projector
from entact.protocol import WaveplateSetting, premeasurement
from entact.witnesses import W2_TERMS, W3_TERMS, expect, w2, w3
from reference import bell_state, ghz_rotated_ket, pauli_string_matrix


def sum_of_terms(terms):
    return sum(c * pauli_string_matrix(ops) for ops, c in terms)


class TestConstruction:
    def test_w2_matrix_form(self):
        # (II - XX - YY + ZZ)/4 equals I/2 - |Psi+><Psi+|, exactly; |Psi+> is
        # written as (|01> + |10>)/sqrt(2) without rounding 1/sqrt(2)
        expected = np.eye(4) / 2 - projector([0, 1, 1, 0]) / 2
        assert np.array_equal(sum_of_terms(W2_TERMS), expected)
        assert np.array_equal(w2(), expected)
        assert np.abs(w2() - (np.eye(4) / 2 - bell_state("psi+").mat)).max() < 1e-15

    def test_w3_matrix_form(self):
        # the eight terms equal I/2 - |GHZ~><GHZ~|, exactly
        expected = np.eye(8) / 2 - projector(ghz_rotated_ket())
        assert np.array_equal(sum_of_terms(W3_TERMS), expected)
        assert np.array_equal(w3(), expected)

    def test_w3_is_half_identity_minus_projector(self):
        # I/2 - P for a rank-1 projector P: spectrum {-1/2, 1/2 x7}
        vals = np.sort(np.linalg.eigvalsh(w3()))
        assert vals[0] == pytest.approx(-0.5, abs=1e-12)
        assert np.abs(vals[1:] - 0.5).max() < 1e-12

    def test_pauli_terms_rebuild(self):
        for w, terms in ((w2(), W2_TERMS), (w3(), W3_TERMS)):
            assert w.tobytes() == sum_of_terms(terms).tobytes()

    def test_built_once_read_only(self):
        for w in (w2, w3):
            assert w() is w()
            with pytest.raises(ValueError):
                w()[0, 0] = 0.0


class TestExpectations:
    def test_w2_line(self):
        for q in np.linspace(0, 1, 11):
            assert expect(w2(), chi_q(q)) == pytest.approx(0.5 - q, abs=1e-9)

    def test_w3_line_at_quarter_pi(self):
        s = WaveplateSetting(math.pi / 4, 0.0)
        for q in np.linspace(0, 1, 11):
            rho = premeasurement(chi_q(q), s)
            assert expect(w3(), rho) == pytest.approx(0.5 - q, abs=1e-9)

    def test_negative_exactly_above_half(self):
        assert expect(w2(), chi_q(0.5)) == pytest.approx(0.0, abs=1e-12)
        assert expect(w2(), chi_q(0.51)) < 0
        assert expect(w2(), chi_q(0.49)) > 0

    def test_w3_detects_ghz_state(self):
        # the witness reaches its floor -1/2 on its own GHZ-type state
        ghz = premeasurement(chi_q(1.0), WaveplateSetting(math.pi / 4, 0.0))
        assert expect(w3(), ghz) == pytest.approx(-0.5, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expect(w3(), chi_q(0.3))

    def test_separable_three_qubit_state_nonnegative(self):
        rho = DensityMatrix(np.eye(8, dtype=complex) / 8, (2, 2, 2))
        assert expect(w3(), rho) >= 0
