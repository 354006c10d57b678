"""Simulated quantum state tomography.

Pauli-basis measurement schedules, Poissonian count generation with a
counter-based RNG, linear-inversion reconstruction with PSD projection, and
Monte-Carlo error bars for derived quantities.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .qcore import DensityMatrix, PauliString, projector

_AXIS_EIGENBASES = {
    # columns: +1 and -1 eigenvectors with a fixed phase convention
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
    "Z": np.array([[1, 0], [0, 1]], dtype=complex),
}


@dataclass(frozen=True)
class MeasurementSetting:
    """One Pauli axis per qubit plus the 2^n rank-1 outcome projectors."""

    axes: str  # e.g. "XYZ"
    projectors: tuple

    @classmethod
    def from_axes(cls, axes: str) -> "MeasurementSetting":
        single = []
        for a in axes:
            basis = _AXIS_EIGENBASES[a]
            single.append((projector(basis[:, 0]), projector(basis[:, 1])))
        projs = []
        for outcome in itertools.product((0, 1), repeat=len(axes)):
            p = np.array([[1.0 + 0j]])
            for qubit, bit in enumerate(outcome):
                p = np.kron(p, single[qubit][bit])
            projs.append(p)
        return cls(axes=axes, projectors=tuple(projs))

    def outcome_parities(self, ops: str) -> np.ndarray:
        """Eigenvalue (+-1) of the Pauli string `ops` on each outcome; identity
        positions contribute +1."""
        signs = _parities(self.axes, ops)
        if not signs[0]:
            raise ValueError(f"{ops} not measurable with axes {self.axes}")
        return signs


def _parities(axes: str, ops: str) -> np.ndarray:
    """Eigenvalue (+-1) of the Pauli string `ops` on each outcome of the setting
    `axes`; all zeros when that setting does not measure `ops`."""
    if any(o not in ("I", a) for o, a in zip(ops, axes)):
        return np.zeros(2 ** len(axes))
    signs = np.ones(1)
    for op in ops:
        signs = np.outer(signs, [1.0, 1.0] if op == "I" else [1.0, -1.0]).ravel()
    return signs


@dataclass(frozen=True)
class CountsTable:
    setting: MeasurementSetting
    counts: tuple
    exposure: float

    def __post_init__(self):
        if len(self.counts) != len(self.setting.projectors):
            raise ValueError("counts length must equal number of outcomes")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")


@functools.cache
def pauli_settings(n_qubits: int) -> Tuple[MeasurementSetting, ...]:
    """All 3^n axis combinations for n in {2, 3}, built once per process; the
    projector arrays are read-only."""
    if n_qubits not in (2, 3):
        raise ValueError(f"unsupported qubit count {n_qubits}")
    settings = tuple(
        MeasurementSetting.from_axes("".join(axes))
        for axes in itertools.product("XYZ", repeat=n_qubits)
    )
    for s in settings:
        for p in s.projectors:
            p.flags.writeable = False
    return settings


def _stream(seed: int, rep: int = 0) -> np.random.Generator:
    """Counter-based (Philox) stream; reps get statistically independent substreams."""
    bg = np.random.Philox(key=np.uint64(seed))
    if rep:
        bg = bg.jumped(rep)
    return np.random.Generator(bg)


def simulate_counts(rho: DensityMatrix, settings: Sequence[MeasurementSetting],
                    exposure: float, seed: int, rep: int = 0) -> List[CountsTable]:
    """Independent Poisson(exposure * p_outcome) counts per outcome, per setting."""
    if exposure <= 0:
        raise ValueError("exposure must be positive")
    if not settings:
        return []
    projs = np.array([s.projectors for s in settings])  # (setting, outcome, d, d)
    p = np.clip(np.trace(projs @ rho.mat, axis1=-2, axis2=-1).real, 0.0, None)
    # one draw over the (setting, outcome) array consumes the stream in the
    # order of per-setting draws, so the counts do not depend on the batching
    counts = _stream(seed, rep).poisson(exposure * p)
    return [CountsTable(s, tuple(int(c) for c in row), exposure)
            for s, row in zip(settings, counts)]


def project_psd(h, trace_tol: float = 0.2) -> DensityMatrix:
    """Project a Hermitian matrix onto the PSD unit-trace cone.

    Iteratively clips the most negative eigenvalue to zero, spreading its
    deficit uniformly over the remaining positive eigenvalues, then
    renormalizes the trace.
    """
    a = np.asarray(h, dtype=complex)
    if np.abs(a - a.conj().T).max() > 1e-8:
        raise ValueError("input must be Hermitian")
    tr = np.trace(a).real
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} too far from 1 to be a reconstruction")
    vals, vecs = np.linalg.eigh(a)
    vals = vals.copy()
    while vals.min() < 0:
        if vals.max() <= 0:
            raise ValueError("spectrum entirely nonpositive; cannot project")
        i = int(np.argmin(vals))
        deficit = vals[i]
        vals[i] = 0.0
        positive = vals > 0
        vals[positive] += deficit / positive.sum()
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum()
    n_qubits = round(math.log2(a.shape[0]))
    return DensityMatrix((vecs * vals) @ vecs.conj().T, (2,) * n_qubits)


def _pauli_strings(n_qubits: int):
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n_qubits)]


@functools.cache
def _pauli_tables(n_qubits: int):
    """Read-only tables in `_pauli_strings` order: the Pauli-basis stack (4^n, d, d),
    the row of each setting's axes string, and the parity table (3^n, 4^n, 2^n)
    from `_parities`."""
    strings = _pauli_strings(n_qubits)
    axes = ["".join(a) for a in itertools.product("XYZ", repeat=n_qubits)]
    basis = np.array([PauliString(ops).matrix() for ops in strings])
    parities = np.array([[_parities(a, ops) for ops in strings] for a in axes])
    basis.flags.writeable = parities.flags.writeable = False
    return basis, {a: i for i, a in enumerate(axes)}, parities


def pauli_expectations_exact(rho: DensityMatrix) -> dict:
    """Analytic (infinite-exposure) Pauli expectations, for the inversion identity."""
    basis = _pauli_tables(rho.n_qubits)[0]
    values = np.einsum("pij,ji->p", basis, rho.mat).real
    return dict(zip(_pauli_strings(rho.n_qubits), values.tolist()))


def reconstruct_from_expectations(expectations: dict, n_qubits: int) -> DensityMatrix:
    strings = _pauli_strings(n_qubits)
    unknown = set(expectations) - set(strings)
    if unknown:
        raise ValueError(f"not {n_qubits}-qubit Pauli strings: {sorted(unknown)}")
    values = np.array([expectations.get(ops, 0.0) for ops in strings])
    return project_psd(np.einsum("p,pij->ij", values, _pauli_tables(n_qubits)[0]) / 2**n_qubits)


def reconstruct(counts: Sequence[CountsTable]) -> DensityMatrix:
    """Linear inversion from a complete Pauli-setting count set, then PSD projection.

    Each Pauli-string expectation is the parity-weighted frequency, averaged
    over every setting with nonzero counts that measures it; a string that no
    such setting measures is taken as 0.
    """
    if not counts:
        raise ValueError("no counts given")
    n_qubits = len(counts[0].setting.axes)
    _, rows, parities = _pauli_tables(n_qubits)
    seen = {t.setting.axes for t in counts}
    if seen != set(rows):
        raise ValueError(f"not the {n_qubits}-qubit Pauli setting set; missing "
                         f"{sorted(set(rows) - seen)}, unexpected {sorted(seen - set(rows))}")
    c = np.array([t.counts for t in counts], dtype=float)
    totals = c.sum(axis=1)
    kept = totals > 0
    table = parities[[rows[t.setting.axes] for t in counts]][kept]  # (table, string, outcome)
    sums = np.einsum("tpo,to->p", table, c[kept] / totals[kept, None])
    hits = table[:, :, 0].sum(axis=0)  # outcome 0 has parity +1 on every measured string
    values = np.divide(sums, hits, out=np.zeros_like(sums), where=hits > 0)
    values[0] = 1.0  # the identity string
    return reconstruct_from_expectations(dict(zip(_pauli_strings(n_qubits), values)), n_qubits)


def mc_errorbar(rho: DensityMatrix, exposure: float, reps: int, seed: int,
                functional: Union[str, Callable[[DensityMatrix], float]]):
    """Monte-Carlo spread of a reconstructed quantity: repeat simulate ->
    reconstruct -> functional and report (mean, std)."""
    if reps < 50:
        raise ValueError("reps must be at least 50")
    func = _resolve_functional(functional, rho.n_qubits)
    settings = pauli_settings(rho.n_qubits)
    values = np.empty(reps)
    for rep in range(reps):
        tables = simulate_counts(rho, settings, exposure, seed, rep=rep)
        values[rep] = func(reconstruct(tables))
    return float(values.mean()), float(values.std(ddof=1))


def _resolve_functional(functional, n_qubits: int) -> Callable[[DensityMatrix], float]:
    if callable(functional):
        return functional
    from .measures import discord_bell_diagonal, discord_numeric, is_bell_diagonal, negativity
    from .witnesses import expect, w2, w3

    if functional == "negativity":
        # negativity across the AB|M cut for 3 qubits, A|B for 2
        cut = [0, 1] if n_qubits == 3 else [0]
        return lambda dm: negativity(dm, cut)
    if functional == "witness-expect":
        w = w3() if n_qubits == 3 else w2()
        return lambda dm: expect(w, dm)
    if functional == "discord":
        if n_qubits != 2:
            raise ValueError("discord functional needs a 2-qubit state")
        return lambda dm: (
            discord_bell_diagonal(dm) if is_bell_diagonal(dm) else discord_numeric(dm).value
        )
    raise ValueError(f"unknown functional {functional!r}")
