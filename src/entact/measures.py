"""Entanglement and discord quantifiers.

Negativity comes in three routes: the brute-force partial transpose, for general
states such as the tomography reconstructions of `activate --mc-reps`; the
off-diagonal-block lemma for premeasurement states, read off B's Bloch vector b and
the correlation matrix T, a form that no other module reads, which gives N(n) over a
net (`epsnet.net_negativities`) and the discord; and the closed form of chi_q, the
`n_theory` columns.  Also the trace-distance discord: in closed form for X states,
and for every two-qubit state as the exact min_n N(n) over a finite set of directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, pauli_basis
from .protocol import WaveplateSetting, setting_of

X_STATE_TOL = 1e-8
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
_SIGNATURE = np.array([1.0, -1.0, -1.0, -1.0])  # J of `_kernel`
_FOURIER = np.arange(-6, 7)  # the frequencies of `_great_circle`'s polynomial
_SAMPLES = 2.0 * math.pi * np.arange(13)[:, None] / 13  # and its sample angles


@dataclass(frozen=True)
class SearchReport:
    """The class of critical point that gave the discord (`negativity_of_quantumness`)
    and the polish residual of the great circle's least point, None if none was scored."""

    winner: str
    polish_residual: float | None


@dataclass(frozen=True)
class MeasureResult:
    value: float
    settings_used: WaveplateSetting
    search: SearchReport


def negativity(rho: DensityMatrix, cut) -> float:
    """N = ||rho^Gamma||_1 - 1 for the bipartition `cut` (iterable of subsystem indices).

    The partial transpose is applied on the complement of `cut`; the value is
    symmetric in the choice, so `cut` just needs to name one side.
    """
    return float(negativities(rho.mat[None], rho.dims, cut)[0])


def negativities(mats: np.ndarray, dims, cut) -> np.ndarray:
    """`negativity` of every matrix of a (reps, d, d) stack with subsystem dimensions
    `dims`, from one stacked partial transpose and one stacked `eigvalsh`."""
    dims = tuple(dims)
    cut = sorted(set(int(i) for i in cut))
    k = len(dims)
    if not cut or len(cut) >= k or any(i < 0 or i >= k for i in cut):
        raise ValueError(f"invalid bipartition {cut} for dims {dims}")
    pt = mats.reshape((len(mats),) + dims + dims)
    for i in range(k):
        if i not in cut:
            pt = pt.swapaxes(1 + i, 1 + k + i)
    # the partial transpose stays Hermitian, so the trace norm is a plain
    # absolute eigenvalue sum (better conditioned than the O^dag O route)
    raw = np.abs(np.linalg.eigvalsh(pt.reshape(mats.shape))).sum(axis=-1) - 1.0
    if raw.size and raw.min() < -1e-12:
        raise ValueError(f"negativity evaluated to {raw.min()}, below numerical tolerance")
    # symmetric zero band: LAPACK's +4e-16 on separable states is not entanglement
    return np.where(raw > 1e-12, raw, 0.0)


def _pauli_block(chi: np.ndarray) -> np.ndarray:
    """X_ij = tr chi (s_i x sigma_j), s = (I, sigma_x, sigma_y, sigma_z), (..., 4, 3), of a
    raw (..., 4, 4) stack `chi`: row 0 is B's Bloch vector b, rows 1-3 the correlation T."""
    x = np.einsum("pij,...ji->...p", pauli_basis(2), chi).real
    return x.reshape(chi.shape[:-2] + (4, 4))[..., 1:]


def _frames(ns: np.ndarray) -> np.ndarray:
    """An orthonormal pair (e1, e2) perpendicular to each unit direction of the stack
    `ns` (..., 3), as (..., 2, 3): e1 - i e2 = <n| sigma |n_perp> for the kets
    <n| = (1 + z, u) / c, |n_perp> = (-u, 1 + z) / c, u = n_x - i n_y, c^2 = 2 (1 + z),
    of n or -n, whichever has z >= 0, where they have no cancellation."""
    x, y, z = np.moveaxis(ns, -1, 0)
    s, k = np.copysign(1.0, z), 1.0 / (1.0 + np.abs(z))
    e = np.empty(ns.shape[:-1] + (2, 3))
    e[..., 0, 0], e[..., 1, 1] = 1.0 - k * x * x, 1.0 - k * y * y
    e[..., 0, 1] = e[..., 1, 0] = -k * x * y
    e[..., 0, 2], e[..., 1, 2] = -s * x, -s * y
    return e


def _kernel(block: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """N(n) of `negativities_offdiag`, (..., m), from the `_pauli_block` X (..., 4, 3) and
    the `_frames` (..., m, 2, 3), leading axes broadcast: with x_i = X e_i = (b.e_i, T e_i),
    J = diag(1, -1, -1, -1) and m = [x_i^T J x_j], N^2 = (|x_1|^2 + |x_2|^2 + hypot(m_11 -
    m_22, 2 m_12)) / 2, from X e, not e^T X^T J X e, which reads a zero N as sqrt(eps)."""
    x = frames @ block[..., None, :, :].swapaxes(-1, -2)
    m = (x * _SIGNATURE) @ x.swapaxes(-1, -2)
    n = np.sqrt(0.5 * ((x * x).sum(axis=(-2, -1))
                       + np.hypot(m[..., 0, 0] - m[..., 1, 1], 2.0 * m[..., 0, 1])))
    return np.where(n <= 1e-12, 0.0, n)


def negativities_offdiag(chi: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """N(n) = 2 (s1 + s2)(<n| chi |n_perp>), kets on B, as (..., k): of each raw 4x4 `chi`
    (unvalidated) of a (..., 4, 4) stack at each unit direction of the stack `ns` (k, 3).

    N(n) is the premeasurement negativity at basis n, and also ||chi - D_n(chi)||_1
    for chi dephased on B along n, whose B-off-diagonal part has eigenvalues
    +-s1, +-s2.  With b_j = tr chi (I x sigma_j), T_ij = tr chi (sigma_i x sigma_j) and
    e1, e2 of `_frames`, M = 2 <n| chi |n_perp> = sum_j (e1 - i e2)_j (b_j I + sum_i T_ij
    sigma_i) / 2, so s1 + s2 = sqrt(||M||_F^2 + 2 |det M|) is the `_kernel` formula.
    Values <= 1e-12 read exactly 0, the zero band of `negativities`, so a classical
    state's zero-discord bases read 0 (NaN stays NaN)."""
    return _kernel(_pauli_block(chi), _frames(ns))


def negativity_offdiag(chi: DensityMatrix, n) -> float:
    """Premeasurement negativity without building the 3-qubit state: 2 ||<n| chi |n_perp>||_1,
    for a unit direction n given as a 3-sequence, by `negativities_offdiag`."""
    if chi.dims != (2, 2):
        raise ValueError("off-diagonal route expects a 2-qubit state with B a qubit")
    x, y, z = map(float, n)
    if abs(x * x + y * y + z * z - 1.0) > 1e-10:
        raise ValueError("the direction n must have unit norm")
    return float(negativities_offdiag(chi.mat, np.array([[x, y, z]]))[0])


def negativities_theory(q: float, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Closed-form premeasurement negativity of chi_q at every point of the angle
    arrays `theta`, `phi` (one shape)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if q >= 1.0 / 3.0:
        return np.full(np.broadcast(theta, phi).shape, float(q))
    radicand = ((q - 1.0) * (3.0 * q - 1.0) * np.cos(4.0 * theta - 8.0 * phi)
                + q * (5.0 * q - 4.0) + 1.0) / 2.0
    return np.sqrt(np.maximum(radicand, 0.0))


def discord_x_state(chi: DensityMatrix) -> float:
    """Trace-distance discord, measured on B, of an X state (zero off the diagonal
    and anti-diagonal, up to X_STATE_TOL; nan for any other state), in the closed
    form of Ciccarello, Tufarelli and Giovannetti, NJP 16, 013038 (2014).  A local
    phase makes both coherences real, so g1 = 2 (|chi_03| + |chi_12|) >= g2 = |T_y|:
        D^2 = (g1^2 hi - g2^2 lo) / (hi - lo + g1^2 - g2^2),
        hi = max(g3^2, g2^2 + b^2),  lo = min(g3^2, g1^2),  g3 = T_z,  b = <I x Z>.
    That ratio is 0/0 where all |T_i| agree (Werner states); as the mean of g1^2
    and lo weighted by hi - lo and g1^2 - g2^2 (both >= 0) it stays accurate.
    """
    if chi.dims != (2, 2):
        raise ValueError(f"expected a 2-qubit state, got dims {chi.dims}")
    m = chi.mat
    if np.abs(m[_OFF_X]).max() > X_STATE_TOL:
        return math.nan
    p0, p1, p2, p3 = m.diagonal().real.tolist()
    c03, c12 = np.abs(m[[0, 1], [3, 2]]).tolist()
    g1_sq, g2_sq = 4.0 * (c03 + c12) ** 2, 4.0 * (c12 - c03) ** 2
    g3_sq, b_sq = (p0 - p1 - p2 + p3) ** 2, (p0 - p1 + p2 - p3) ** 2
    hi, lo = max(g3_sq, g2_sq + b_sq), min(g3_sq, g1_sq)
    h, g = hi - lo, g1_sq - g2_sq
    return math.sqrt((g1_sq * h + lo * g) / (h + g) if h + g > 0.0 else g1_sq)


def _fibonacci_directions(count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors (Fibonacci lattice)."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    az = 2.0 * math.pi * i / golden
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(az), r * np.sin(az), z], axis=1)


def minimize(*args, **kwargs):
    """Kept as a name for the benchmark's tracing; the exact discord calls no optimiser."""
    raise NotImplementedError("negativity_of_quantumness runs no optimiser")


def _great_circle(block: np.ndarray):
    """The directions (r, 3) where N(n) is stationary on the great circle n perp b,
    b = X_0 of the `_pauli_block` X, and their polish residuals: the roots of the
    squared stationarity condition P(psi) = 0 (see the README), of degree 6 in the
    angle psi, from 13 samples of P; those within 1e-3 of the unit circle in e^(i psi)
    take four Newton steps.  The residual is |P| over its coefficients' summed
    magnitudes.  X is scaled to norm 1, which leaves the roots alone."""
    x = block / np.linalg.norm(block)
    b = x[0] / np.linalg.norm(x[0])
    f, tb = _frames(b[None])[0], x[1:] @ b
    # T w and T w' at 13 samples psi_k = 2 pi k / 13, w = cos psi f1 + sin psi f2
    c, s = np.cos(_SAMPLES), np.sin(_SAMPLES)
    tw, dtw = (c * f[0] + s * f[1]) @ x[1:].T, (c * f[1] - s * f[0]) @ x[1:].T
    w, dw, cc, dc = (tw * tw).sum(axis=1), 2.0 * (tw * dtw).sum(axis=1), tw @ tb, dtw @ tb
    p = cc * (dw * dw * cc - 2.0 * (x[0] @ x[0] - tb @ tb + w) * dw * dc - 4.0 * cc * dc * dc)
    coef = np.fft.fft(p)[_FOURIER % 13] / 13  # c_m of e^(i m psi), m = -6..6
    coef[np.abs(coef) <= 1e-13 * np.abs(coef).max()] = 0.0  # no leading one overflows
    roots = np.roots(coef[::-1])  # none where P = 0, as where C = 0
    psi = np.angle(roots[np.abs(np.abs(roots) - 1.0) <= 1e-3])
    for step in range(5):
        terms = coef * np.exp(1j * np.outer(psi, _FOURIER))
        value, slope = terms.sum(axis=1).real, (terms @ (1j * _FOURIER)).real
        if step < 4:
            psi = psi - np.divide(value, slope, out=np.zeros_like(psi), where=slope != 0.0)
    # n = b^ x w: (f1, f2, +-b^) is orthonormal, and n and -n are one basis
    n = np.cos(psi)[:, None] * f[1] - np.sin(psi)[:, None] * f[0]
    return n, np.abs(value) / np.abs(coef).sum()


def negativity_of_quantumness(states) -> list:
    """The exact min_n N(n) over all measurement bases on B, and a setting that attains
    it, as one `MeasureResult` per 2-qubit state of the sequence `states`: the least
    `_kernel` score over three classes of critical points, which the README derives:
    kink, the normals of the circular sections of A- = b b^T - K, K = T^T T; eigen, the
    eigenvectors of K, A- and A+ = b b^T + K, and (b x k) x k for each eigenvector k of K;
    circle, the `_great_circle` n perp b, skipped where |b| <= 1e-13 and where A- is a
    multiple of the identity, all kinks.  A tie within 1e-12 goes to the first candidate
    in that order, and the report names its class.  A stack changes no result's bits."""
    if bad := [chi.dims for chi in states if chi.dims != (2, 2)]:
        raise ValueError(f"expected 2-qubit states, got dims {bad[0]}")
    blocks = _pauli_block(np.array([chi.mat for chi in states]).reshape(-1, 4, 4))
    b = blocks[:, 0]
    # K and A- as S U^T U S and S U^T J U S, X = U S V^T: unlike T^T T and b b^T - K,
    # they keep the eigenvector digits of near-product states (4e-16 against 4e-10)
    u, s, vt = np.linalg.svd(blocks, full_matrices=False)
    us = u * s[:, None]
    vals, vecs = np.linalg.eigh(np.stack([us[:, 1:].swapaxes(1, 2) @ us[:, 1:],
                                          (us * _SIGNATURE[:, None]).swapaxes(1, 2) @ us], 1))
    eigen = vt.swapaxes(1, 2)[:, None] @ vecs  # K's and A-'s eigenvectors as columns
    (d3, d2, d1), a = vals[:, 1].T, eigen[:, 1]
    flat = d1 - d3 <= 1e-12 * ((b * b).sum(axis=1) + vals[:, 0].sum(axis=1))  # A- ~ I
    circles = [_great_circle(x) if math.sqrt(x[0] @ x[0]) > 1e-13 and not f
               else (np.empty((0, 3)), ()) for x, f in zip(blocks, flat)]
    # the candidates in class order, zero rows padding each state's circle to the longest
    raw = np.zeros((len(blocks), 14 + max((len(c[1]) for c in circles), default=0), 3))
    raw[:, :2] = (np.sqrt(d1 - d2)[:, None, None] * a[:, None, :, 2]
                  + _SIGNATURE[:2, None] * (np.sqrt(d2 - d3)[:, None, None] * a[:, None, :, 0]))
    raw[:, 2:8], raw[:, 8:11] = eigen.swapaxes(2, 3).reshape(-1, 6, 3), vt  # A+ = V S^2 V^T
    raw[:, 11:14] = raw[:, 2:5] * (raw[:, 2:5] @ b[:, :, None]) - b[:, None]
    for row, (circle, _) in zip(raw, circles):
        row[14:14 + len(circle)] = circle
    norms = np.sqrt((raw * raw).sum(axis=2))
    keep = norms > 0.0  # a vanishing normal or (b x k) x k is no direction, nor is a pad
    dirs = raw / np.where(keep, norms, 1.0)[..., None]
    scores = np.where(keep, _kernel(blocks, _frames(dirs)), np.inf)
    first = np.argmax(scores <= scores.min(axis=1, keepdims=True) + 1e-12, axis=1)
    # the same basis in certify's range theta in [0, pi/2], phi in [0, pi/4]: (theta +
    # pi/2, theta - phi) gives the same n, phi + pi/4 gives -n; abs reads -0.0 as 0.0
    theta, phi = setting_of(dirs[np.arange(len(dirs)), first])
    angles = np.where(theta < 0.0, (theta + math.pi / 2, theta - phi), (theta, phi)).tolist()
    return [MeasureResult(float(row[i]), WaveplateSetting(abs(t), p % (math.pi / 4)),
                          SearchReport(("kink", "eigen", "circle")[(i >= 2) + (i >= 14)],
                                       float(res[row[14:].argmin()]) if len(res) else None))
            for row, i, (_, res), t, p in zip(scores, first.tolist(), circles, *angles)]


def discord_numeric(states) -> list:
    """Trace-distance discord of each two-qubit state of the sequence `states`, measured
    on B: the values of `negativity_of_quantumness`.  For each n the closest B-classical
    state is the dephased D_n(chi): any such sigma is fixed by I x Z_n, which flips the
    sign of X = chi - D_n(chi), so 2X = (chi - sigma) - (I x Z_n)(chi - sigma)(I x Z_n)
    and ||chi - sigma||_1 >= ||X||_1 = N(n) (see `negativities_offdiag`)."""
    return negativity_of_quantumness(states)
