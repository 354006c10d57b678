"""Entanglement and discord quantifiers.

Negativity comes in three routes: the brute-force partial transpose, for general
states such as the tomography reconstructions of `activate --mc-reps`; the
off-diagonal-block lemma for premeasurement states, which gives the net records
(`epsnet.net_records`) and the discord search; and the closed form of chi_q in
the waveplate angles, the `n_theory` columns.  Also the trace-distance discord in
closed form for X states, and in general by one search for min_n N(n), which is
both the negativity of quantumness and the discord.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix
from .protocol import WaveplateSetting, bloch_vector, dedup_bloch, default_net, setting_of

X_STATE_TOL = 1e-8
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
# Nelder-Mead runs from this many of the best seed directions: one start missed
# the global minimum on 7 of 300 random full-rank states, four on none of 1,000
_STARTS = 4


@dataclass(frozen=True)
class SearchReport:
    """How a multi-start Nelder-Mead search went: evaluations over all runs, the
    most iterations of one run, whether every run converged, and which start gave
    the value (its rank among the seeds, 0 = best), or "coarse" for the seed stage."""

    nfev: int
    nit_max: int
    converged: bool
    winner: str


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


def _sv_sum(a, b, c, d):
    """s1 + s2, the sum of the singular values of [[a, b], [c, d]], as
    sqrt(||m||_F^2 + 2 |det m|) = sqrt(s1^2 + s2^2 + 2 s1 s2); elementwise, so the
    entries may be Python complex scalars or numpy arrays of one shape."""
    frob = ((a.real * a.real + a.imag * a.imag) + (b.real * b.real + b.imag * b.imag)
            + (c.real * c.real + c.imag * c.imag) + (d.real * d.real + d.imag * d.imag))
    return (frob + 2.0 * abs(a * d - b * c)) ** 0.5


def _offdiag_columns(chi: np.ndarray) -> list:
    """The columns of chi with the B indices moved first, (b, d) x (a, c), as nested
    Python complex: the coefficients that `_offdiag` contracts with its kets."""
    return chi.reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4).T.tolist()


def _offdiag(cols: list, u, zp):
    """N(n) of `negativities_offdiag` from the `_offdiag_columns` of chi and the ket
    parameters u = sign(z) (n_x - i n_y), zp = 1 + |z|; elementwise, so u and zp
    may be Python scalars (one direction) or numpy arrays (a stack)."""
    # 2 <n|_b |n_perp>_d over (b, d), so that s1 + s2 of the product is N
    w0, w1, w2, w3 = -u, zp, -u * u / zp, u
    return _sv_sum(*[w0 * c0 + w1 * c1 + w2 * c2 + w3 * c3 for c0, c1, c2, c3 in cols])


def _offdiag_at(cols: list, x: float, y: float, z: float) -> float:
    """`_offdiag` at one direction (x, y, z), on Python scalars only."""
    return _offdiag(cols, math.copysign(1.0, z) * complex(x, -y), 1.0 + abs(z))


def negativities_offdiag(chi: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """N(n) = 2 (s1 + s2)(<n| chi |n_perp>), with the kets on B, for a raw 4x4 `chi`
    (unvalidated) and each unit direction of the stack `ns` (k, 3).

    N(n) is the premeasurement negativity at basis n, and also ||chi - D_n(chi)||_1
    for chi dephased on B along n, whose B-off-diagonal part has eigenvalues
    +-s1, +-s2.  N is even in n, so n is taken with z >= 0, where the kets
        <n| = (1 + z, u) / c,  |n_perp> = (-u, 1 + z) / c,  u = n_x - i n_y,  c^2 = 2 (1 + z)
    have no cancellation.  The formula is `_offdiag`, written once: this is its
    array call; `_offdiag_at` is its call on one direction in Python scalars.
    Values <= 1e-12 read exactly 0, the zero band of `negativities`, so a classical
    state's zero-discord bases read 0 (NaN stays NaN).
    """
    x, y, z = ns.T
    n = _offdiag(_offdiag_columns(chi), np.copysign(1.0, z) * (x - 1j * y), 1.0 + np.abs(z))
    return np.where(n <= 1e-12, 0.0, n)


def negativity_offdiag(chi: DensityMatrix, n) -> float:
    """Premeasurement negativity without building the 3-qubit state: 2 ||<n| chi |n_perp>||_1,
    for a unit direction n given as a 3-sequence."""
    if chi.dims != (2, 2):
        raise ValueError("off-diagonal route expects a 2-qubit state with B a qubit")
    x, y, z = map(float, n)
    if abs(x * x + y * y + z * z - 1.0) > 1e-10:
        raise ValueError("the direction n must have unit norm")
    return _offdiag_at(_offdiag_columns(chi.mat), x, y, z)


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


def minimize(fun, x0, **kwargs):
    """`scipy.optimize.minimize`, imported on the first call: scipy.optimize takes
    most of a cold `import entact`, and only the discord search uses it.  The
    search calls this module global, so it can be patched or traced."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


@functools.lru_cache(maxsize=None)
def _seeds():
    """The seed settings of `negativity_of_quantumness` as (theta, phi) pairs and the
    directions (k, 3) they select, read-only; they do not depend on the state, so
    they are built once.  The 16 distinct bases of the default net hold the
    minimisers of chi_q; the 64 Fibonacci directions keep Nelder-Mead out of the
    local minima of general states."""
    bases = np.vstack([dedup_bloch(default_net()), _fibonacci_directions(64)])
    theta, phi = setting_of(bases)
    dirs = bloch_vector(theta, phi)
    dirs.flags.writeable = False
    return tuple(zip(theta.tolist(), phi.tolist())), dirs


def negativity_of_quantumness(chi: DensityMatrix) -> MeasureResult:
    """Minimum premeasurement negativity min_n N(n) over all measurement bases on B,
    and a setting that attains it.

    Seed stage: the `_seeds` settings, scored in one `negativities_offdiag` call;
    near-ties of the minimum rank lexicographically by (theta, phi).  Refinement:
    Nelder-Mead in the waveplate angles, on Python scalars, from the best `_STARTS`;
    scipy stops a run when both tolerances hold, so with xatol open a run stops once
    its simplex values agree to 1e-12.  The value is the seed minimum unless a run
    beats it by 1e-9, so below 1e-9 (N >= 0) no run starts, and nfev = 0.
    """
    if chi.dims != (2, 2):
        raise ValueError(f"expected a 2-qubit state, got dims {chi.dims}")
    grid, dirs = _seeds()
    vals = negativities_offdiag(chi.mat, dirs)
    vmin = float(vals.min())
    ranked = sorted(zip(vals.tolist(), grid), key=lambda vs: (max(vs[0], vmin + 1e-9), vs[1]))
    cols = _offdiag_columns(chi.mat)

    def objective(angles):
        theta, phi = angles.tolist()
        a = 2.0 * (theta - 2.0 * phi)
        cos_a = math.cos(a)
        return _offdiag_at(cols, -cos_a * math.sin(2.0 * theta), -math.sin(a),
                           cos_a * math.cos(2.0 * theta))

    runs = [minimize(objective, s, method="Nelder-Mead",
                     options=dict(xatol=math.inf, fatol=1e-12, maxiter=400))
            for _, s in (ranked[:_STARTS] if vmin >= 1e-9 else ())]
    best, value, winner = ranked[0][1], vmin, None
    for i, res in enumerate(runs):
        if res.fun < value - 1e-9:
            best, value, winner = tuple(res.x), float(res.fun), i
    report = SearchReport(nfev=sum(int(res.nfev) for res in runs),
                          nit_max=max((int(res.nit) for res in runs), default=0),
                          converged=all(bool(res.success) for res in runs),
                          winner="coarse" if winner is None else f"start {winner}")
    # the same basis in certify's range theta in [0, pi/2], phi in [0, pi/4]:
    # (theta + pi/2, theta - phi) gives the same n, and phi + pi/4 gives -n
    theta, phi = setting_of(bloch_vector(*best))
    if theta < 0.0:
        theta, phi = theta + math.pi / 2, theta - phi
    setting = WaveplateSetting(theta, phi % (math.pi / 4))
    return MeasureResult(max(value, 0.0), settings_used=setting, search=report)


def discord_numeric(chi: DensityMatrix) -> MeasureResult:
    """Trace-distance discord of a two-qubit state, measured on B: the search of
    `negativity_of_quantumness`, whose value it is.

    For each direction n the closest B-classical state is the dephased D_n(chi):
    any such sigma is fixed by I x Z_n, which flips the sign of X = chi - D_n(chi),
    so 2X = (chi - sigma) - (I x Z_n)(chi - sigma)(I x Z_n) and
    ||chi - sigma||_1 >= ||X||_1 = N(n) (see `negativities_offdiag`).  So the
    discord is min_n N(n), the least premeasurement negativity.
    """
    return negativity_of_quantumness(chi)
