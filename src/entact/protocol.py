"""Measurement-activation circuit: basis-selecting unitary, B-M C-NOT, premeasurement
state, and the waveplate-angle nets whose settings the circuit is run at.

The basis unitary is built from quarter- and half-waveplate Jones matrices at
angles (theta, phi).  The relative phases matter for tripartite witness
expectations, so the waveplate composition (not just the target Bloch vector)
is the source of truth here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, I2


@dataclass(frozen=True)
class WaveplateSetting:
    """Quarter-waveplate angle theta and half-waveplate angle phi, in radians.

    Any real angles are used as given: `bloch_vector` and `u_b` are smooth in
    both.  theta + pi gives the same direction n, and phi + pi/4 gives -n, the
    same basis; theta + pi/2 flips n_y, which is a different basis.
    """

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))


def bloch_vector(theta, phi) -> np.ndarray:
    """Measurement directions n(theta, phi) selected by the waveplate pair, for float
    or array angles of one shape; returns shape + (3,) unit vectors."""
    a = 2.0 * (theta - 2.0 * phi)
    cos_a = np.cos(a)
    # filled in place: np.stack costs twice as much on a single direction
    n = np.empty(np.shape(a) + (3,))
    n[..., 0] = -cos_a * np.sin(2.0 * theta)
    n[..., 1] = -np.sin(a)
    n[..., 2] = cos_a * np.cos(2.0 * theta)
    return n


def setting_of(n):
    """Waveplate angles (theta, phi) selecting each direction of the (..., 3) array
    `n`: the inverse of `bloch_vector`, as two arrays of shape n.shape[:-1].

    With a = 2 (theta - 2 phi), n_y = -sin a and (n_x, n_z) = cos a (-sin 2 theta,
    cos 2 theta), cos a >= 0.  a is taken by arctan2, which stays exact near
    n = +-y where arcsin(n_y) loses half the digits; at n = +-y any theta works
    and theta = 0 is returned.
    """
    x, y, z = np.moveaxis(np.asarray(n, dtype=float), -1, 0)
    a = np.arctan2(-y, np.hypot(x, z))
    theta = 0.5 * np.arctan2(-x, z)
    return theta, (theta - a / 2.0) / 2.0


# net bases closer than this in every coordinate, up to sign, are one basis
_DEDUP_TOL = 1e-8


@dataclass(frozen=True)
class NetSpec:
    """Waveplate angle grid; the Cartesian product defines the settings."""

    thetas: tuple
    phis: tuple

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))

    def angles(self):
        """The (theta, phi) arrays of every setting, theta-major."""
        return np.repeat(self.thetas, len(self.phis)), np.tile(self.phis, len(self.thetas))


def default_net() -> NetSpec:
    """The 7 x 4 = 28 settings theta_j = j pi/12 (j = 0..6), phi_k = k pi/12 (k = 0..3)."""
    return NetSpec(
        thetas=tuple(j * math.pi / 12 for j in range(7)),
        phis=tuple(k * math.pi / 12 for k in range(4)),
    )


def dedup_bloch(net: NetSpec) -> np.ndarray:
    """Unique measurement bases of a net as a (k, 3) array, identifying n with -n:
    the directions of the settings in `net.angles()` order, each kept unless a kept
    one lies within `_DEDUP_TOL` of it or of its negative in every coordinate."""
    dirs = bloch_vector(*net.angles())
    cols, keep = np.ascontiguousarray(dirs.T), np.ones(len(dirs), dtype=bool)
    # the pairwise test in row blocks of about 4,096 pairs: temporaries near 100 kB,
    # too small to leave the heap larger once the call returns
    step = max(1, 4096 // len(dirs))
    for a in range(0, len(dirs), step):
        block = cols[:, a:a + step, None]
        twin = ((np.abs(block - cols[:, None]).max(axis=0) <= _DEDUP_TOL)
                | (np.abs(block + cols[:, None]).max(axis=0) <= _DEDUP_TOL))
        for i in np.flatnonzero(twin.sum(axis=1) > 1):  # a twin besides itself
            if keep[a + i]:
                keep[a + i + 1:] &= ~twin[i, a + i + 1:]
    return dirs[keep]


def _rot(a) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    r = np.empty(np.shape(a) + (2, 2), dtype=complex)
    r[..., 0, 0] = r[..., 1, 1] = c
    r[..., 0, 1] = -s
    r[..., 1, 0] = s
    return r


def _waveplate(angle, retardance: complex) -> np.ndarray:
    """Jones matrices R(-angle) diag(1, retardance) R(-angle)^dag, shape angle.shape + (2, 2)."""
    r = _rot(-angle)
    return r @ (np.array([[1.0], [retardance]]) * r.conj().swapaxes(-1, -2))


def u_b(theta, phi) -> np.ndarray:
    """2x2 unitaries of the waveplate pair, half-wave at phi after quarter-wave at
    theta, for float or array angles of one shape; returns shape + (2, 2).

    Maps |n(theta,phi)> to |0> and its orthogonal to |1> up to the phases
    fixed by the Jones matrices.
    """
    return _waveplate(phi, -1.0) @ _waveplate(theta, 1j)


# The C-NOT sends |a, b, 0>_ABM to |a, b, b>: the premeasurement state is the
# B-rotated chi placed on these rows and columns of the 8x8 basis, zero elsewhere.
_CNOT_IMAGE = np.array([0, 3, 4, 7])


def _rotate_b(chi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(I_A x U_B) chi (I_A x U_B)^dag for raw 4x4 `chi` (..., 4, 4) and 2x2 unitaries
    `u` (..., 2, 2), broadcast: the (..., 4, 4) blocks that `_premeasure` places."""
    w = np.einsum("ac,...bd->...abcd", I2, u).reshape(u.shape[:-2] + (4, 4))
    return w @ chi @ w.conj().swapaxes(-1, -2)


def _premeasure(chi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Premeasurement states of a stack of raw 4x4 `chi` (..., 4, 4) at the 2x2 basis
    unitaries of the stack `u` (..., 2, 2), their leading axes broadcast against each
    other; returns the (..., 8, 8) stack, unvalidated."""
    out = np.zeros(np.broadcast_shapes(chi.shape[:-2], u.shape[:-2]) + (8, 8), dtype=complex)
    out[..., _CNOT_IMAGE[:, None], _CNOT_IMAGE] = _rotate_b(chi, u)
    return out


def premeasurement(chi: DensityMatrix, s: WaveplateSetting) -> DensityMatrix:
    """Three-qubit state (I_A x V_BM)(chi x |0><0|_M)(I_A x V_BM)^dag."""
    if chi.dims != (2, 2):
        raise ValueError(f"chi must be a 2-qubit state, got dims {chi.dims}")
    return DensityMatrix(_premeasure(chi.mat, u_b(s.theta, s.phi)), (2, 2, 2))

