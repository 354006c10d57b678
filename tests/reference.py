"""Brute-force references and extra state families that only the tests use.

Each one is the textbook construction, kept independent of the package kernels
it is compared against.
"""

import functools
import json
import math

import numpy as np

from entact.qcore import I2, PAULIS, DensityMatrix, projector
from entact.protocol import NetSpec, WaveplateSetting, bloch_vector, premeasurement, u_b
from entact.measures import _fibonacci_directions, negativity
from entact.epsnet import _basis_chords

_KET = np.eye(4, dtype=complex)  # |00>, |01>, |10>, |11> with |H> = |0>, |V> = |1>
BELL_KETS = {
    "psi-": (_KET[1] - _KET[2]) / math.sqrt(2),
    "psi+": (_KET[1] + _KET[2]) / math.sqrt(2),
    "phi-": (_KET[0] - _KET[3]) / math.sqrt(2),
    "phi+": (_KET[0] + _KET[3]) / math.sqrt(2),
}


def bell_state(kind: str) -> DensityMatrix:
    """The pure Bell state |psi+->, |phi+-> named by a key of `BELL_KETS`."""
    ket = BELL_KETS[kind]
    return DensityMatrix(np.outer(ket, ket.conj()), (2, 2))


def partial_transpose(mat, subsystem: int, dims) -> np.ndarray:
    """Transpose applied on the single tensor factor `subsystem` of `mat`."""
    a = np.asarray(mat, dtype=complex)
    dims = tuple(dims)
    k = len(dims)
    perm = list(range(2 * k))
    perm[subsystem], perm[k + subsystem] = perm[k + subsystem], perm[subsystem]
    return a.reshape(dims + dims).transpose(perm).reshape(a.shape)


def partial_trace(mat, dims, keep) -> np.ndarray:
    """Reduced matrix of `mat` on the subsystems `keep`, in their original order."""
    dims = tuple(dims)
    t = np.asarray(mat).reshape(dims + dims)
    # descending order keeps the remaining axis indices stable
    for i in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    d = math.prod(dims[i] for i in keep)
    return t.reshape(d, d)


def net_settings(net: NetSpec) -> list:
    """The settings of a net, theta-major: one `WaveplateSetting` per angle pair."""
    return [WaveplateSetting(t, p) for t in net.thetas for p in net.phis]


def dedup_bloch(net: NetSpec) -> np.ndarray:
    """Distinct bases of a net, identifying n with -n: one setting at a time, each
    direction compared with every kept one."""
    unique = []
    for s in net_settings(net):
        v = bloch_vector(s.theta, s.phi)
        if not any(np.abs(v - u).max() <= 1e-8 or np.abs(v + u).max() <= 1e-8 for u in unique):
            unique.append(v)
    return np.array(unique)


def net_records(states, net: NetSpec) -> list:
    """(n, blocks) of each state on the settings of `net`, one setting at a time: the
    AB|M `negativity` of its `premeasurement` state there, as an array over the
    settings, and the state's 4x4 blocks on rows and columns 0, 3, 4, 7, the
    C-NOT's image of |a, b, 0>, after checking that the state is zero off them."""
    image = np.ix_([0, 3, 4, 7], [0, 3, 4, 7])
    records = []
    for chi in states:
        rhos = [premeasurement(chi, s) for s in net_settings(net)]
        for rho in rhos:
            outside = rho.mat.copy()
            outside[image] = 0.0
            assert not outside.any()
        n = np.array([negativity(rho, [0, 1]) for rho in rhos], dtype=float)
        blocks = np.array([rho.mat[image] for rho in rhos], dtype=complex)
        records.append((n, blocks.reshape(-1, 4, 4)))
    return records


def covering_gap(net: NetSpec, resolution: int) -> float:
    """The worst gap of `epsnet.verify_covering` from the full (bases, points) chord
    array: each lattice point's nearest basis, then the farthest point."""
    chords = _basis_chords(dedup_bloch(net), _fibonacci_directions(resolution))
    return float(chords.min(axis=0).max())


def pauli_string_matrix(ops: str) -> np.ndarray:
    """The kron of one Pauli per letter of `ops`, qubit 0 first."""
    return functools.reduce(np.kron, [PAULIS[c] for c in ops])


def bell_diagonal_discord(chi) -> float:
    """Trace-distance discord of a Bell-diagonal 4x4 `chi`: the middle singular value
    of its correlation matrix T_ij = Tr[chi (sigma_i x sigma_j)]."""
    t = [[np.trace(chi @ pauli_string_matrix(i + j)).real for j in "XYZ"] for i in "XYZ"]
    return float(np.linalg.svd(t, compute_uv=False)[1])


def ghz_rotated_ket() -> np.ndarray:
    """The locally rotated GHZ state produced at the (pi/4, 0) setting from |Psi+>."""
    k = lambda *bits: np.eye(8, dtype=complex)[int("".join(map(str, bits)), 2)]
    return 0.5 * (-k(0, 0, 0) - 1j * k(0, 1, 1) + 1j * k(1, 0, 0) + k(1, 1, 1))


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.mat @ rho.mat).real)


def density_from_json(text: str) -> DensityMatrix:
    """The inverse of `DensityMatrix.to_json`."""
    d = json.loads(text)
    mat = np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)
    return DensityMatrix(mat, tuple(d["dims"]))


def unit_vector(v) -> np.ndarray:
    """The unit vector along the nonzero 3-vector `v`."""
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def werner_mix(kind: str, v: float) -> DensityMatrix:
    """Bell state mixed with white noise: v |bell><bell| + (1-v) I/4."""
    return DensityMatrix(v * bell_state(kind).mat + (1 - v) * np.eye(4) / 4, (2, 2))


def quantum_classical(ps, taus, basis) -> DensityMatrix:
    """Zero-discord state sum_n p_n tau^n_A x |n><n|_B in the basis along +-`basis`."""
    if abs(sum(ps) - 1.0) > 1e-10 or min(ps) < 0:
        raise ValueError(f"probabilities {ps} do not sum to 1")
    n = np.asarray(basis, dtype=float)
    n = n / np.linalg.norm(n)
    _, vecs = np.linalg.eigh(n[0] * PAULIS["X"] + n[1] * PAULIS["Y"] + n[2] * PAULIS["Z"])
    m = (ps[0] * np.kron(taus[0].mat, projector(vecs[:, 1]))
         + ps[1] * np.kron(taus[1].mat, projector(vecs[:, 0])))
    return DensityMatrix(m, (2, 2))


def cnot_bm() -> np.ndarray:
    """C-NOT with B as control and M as target: |V>_B flips the path qubit."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = 1.0  # |H a> -> |H a>, |H b> -> |H b>
    m[3, 2] = m[2, 3] = 1.0  # |V a> <-> |V b>
    return m


def coupling_unitary(s: WaveplateSetting) -> np.ndarray:
    """The full B-M interaction V_BM = CNOT (U_B x I_M)."""
    return cnot_bm() @ np.kron(u_b(s.theta, s.phi), I2)


@functools.lru_cache(maxsize=4)
def _premeasurement_unitaries(settings: tuple) -> np.ndarray:
    """I_A x V_BM at each setting, as a (k, 8, 8) stack."""
    return np.array([np.kron(I2, coupling_unitary(s)) for s in settings])


def premeasurement_negativities(chi, settings) -> np.ndarray:
    """AB|M negativity of the premeasurement state of the 4x4 `chi` at each of the
    `settings`, by brute force: I_A x V_BM applied to chi x |0><0|_M, the partial
    transpose on M, and the absolute eigenvalue sum."""
    v = _premeasurement_unitaries(tuple(settings))
    states = v @ np.kron(chi, projector([1.0, 0.0])) @ v.conj().swapaxes(-1, -2)
    pt = np.array([partial_transpose(m, 2, (2, 2, 2)) for m in states])
    return np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1) - 1.0


def project_spectrum_sgs(mu):
    """The projected spectrum and clipped mass of one spectrum `mu`, as in Smolin,
    Gambetta and Smith, PRL 108, 070502 (2012), with target trace 1: start from the
    deficit 1 - sum(mu), walk up the sorted spectrum from its smallest eigenvalue,
    zeroing each while it stays negative once the deficit accumulated so far is
    spread over the i eigenvalues not yet zeroed; add that spread to those i.  The
    result has trace 1 with no rescale.  The clipped mass is the summed |mu_j| over
    the negative eigenvalues."""
    mu = [float(m) for m in mu]
    order = sorted(range(len(mu)), key=lambda j: mu[j], reverse=True)
    lam, deficit, i = [0.0] * len(mu), 1.0 - math.fsum(mu), len(mu)
    while mu[order[i - 1]] + deficit / i < 0:
        deficit += mu[order[i - 1]]
        i -= 1
    for j in order[:i]:
        lam[j] = mu[j] + deficit / i
    return np.array(lam), math.fsum(-m for m in mu if m < 0)
