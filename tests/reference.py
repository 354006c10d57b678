"""Brute-force references and extra state families that only the tests use.

Each one is the textbook construction, kept independent of the package kernels
it is compared against.  scipy is imported here only, by the Nelder-Mead
reference for the discord.
"""

import functools
import json
import math

import numpy as np

from entact.qcore import I2, PAULIS, DensityMatrix, chi_q, projector
from entact.protocol import NetSpec, WaveplateSetting, bloch_vector, premeasurement, u_b
from entact.measures import _fibonacci_directions, negativities_offdiag, negativity
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


def per_setting_records(states, net: NetSpec) -> list:
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


def lipschitz_reference(chi) -> float:
    """min(1, ||chi - chi_A x I/2||_1), straight from chi."""
    chi_a = np.trace(chi.mat.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    return min(1.0, float(np.abs(np.linalg.eigvalsh(chi.mat - np.kron(chi_a, np.eye(2) / 2))).sum()))


def scan_bounds(chi, dirs, theta, phi):
    """(low1, low2) of `epsnet.sphere_scan` at each target setting (theta, phi), two
    1-D angle arrays, from N_j of the state `chi` at each direction of the (k, 3)
    stack `dirs`: max_j (N_j - chord) and max_j (N_j - L chord), with each chord
    min(|n - m|, |n + m|) by `np.linalg.norm` and L by `lipschitz_reference`."""
    n = negativities_offdiag(chi.mat, dirs)[:, None]
    targets = bloch_vector(theta, phi)[None]
    chords = np.minimum(np.linalg.norm(dirs[:, None] - targets, axis=2),
                        np.linalg.norm(dirs[:, None] + targets, axis=2))
    return (n - chords).max(axis=0), (n - lipschitz_reference(chi) * chords).max(axis=0)


def full_rank_state(re_im):
    """Two-qubit density matrix (A A^dag + I/10) / trace from a real (2, 4, 4) array."""
    a = re_im[0] + 1j * re_im[1]
    m = a @ a.conj().T + 0.1 * np.eye(4)
    return DensityMatrix(m / np.trace(m).real, (2, 2))


def seeded_state(seed):
    """For even seeds, `full_rank_state` of a seeded normal draw whose A A^dag has rank 1
    to 4, so the B marginals range from nearly pure to nearly mixed; for odd ones
    chi_q(q) mixed with white noise at visibility v, both drawn from the seed."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        re_im = rng.normal(size=(2, 4, 4))
        re_im[:, :, rng.integers(1, 5):] = 0.0
        return full_rank_state(re_im)
    q, v = rng.uniform(0.0, 1.0, 2)
    return DensityMatrix(v * chi_q(q).mat + (1 - v) * np.eye(4) / 4, (2, 2))


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


def dephasing_negativity(chi, n) -> float:
    """N(n) = 1/2 ||chi - Z chi Z||_1 with Z = I x n.sigma, for a 4x4 `chi` and a unit
    3-vector n: the trace distance of chi to its dephasing on B along n."""
    z = np.kron(I2, sum(c * PAULIS[p] for c, p in zip(n, "XYZ")))
    return 0.5 * float(np.abs(np.linalg.eigvalsh(chi - z @ chi @ z)).sum())


def discord_nelder_mead(chi, starts: int = 4) -> float:
    """min_n N(n) of the 4x4 `chi` by Nelder-Mead (scipy) in the polar angles of n,
    from the `starts` best points of a 200-point Fibonacci lattice, with N taken by
    `dephasing_negativity`: an upper bound on the discord that shares no code with
    the package's candidate set."""
    from scipy.optimize import minimize

    def objective(angles):
        theta, phi = angles
        return dephasing_negativity(chi, (math.sin(theta) * math.cos(phi),
                                          math.sin(theta) * math.sin(phi), math.cos(theta)))

    lattice = _fibonacci_directions(200)
    values = [dephasing_negativity(chi, n) for n in lattice]
    best = min(values)
    for i in np.argsort(values)[:starts]:
        x, y, z = lattice[i]
        run = minimize(objective, [math.acos(z), math.atan2(y, x)], method="Nelder-Mead",
                       options=dict(xatol=1e-12, fatol=1e-15, maxiter=1000))
        best = min(best, float(run.fun))
    return best


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
