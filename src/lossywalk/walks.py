"""Momentum-space builders for lossy discrete-time quantum walks.

All operators act on the two-dimensional coin space at a fixed quasi-momentum
and are built from three ingredients:

* the coin rotation R(theta) = exp(-i theta sigma_y / 2),
* spin-conditioned translations; in momentum space the half-shifts are
  T_down(k) = diag(1, e^{-ik}) and T_up(k) = diag(e^{ik}, 1), and the full
  conditional shift is T(k) = diag(e^{ik}, e^{-ik}),
* the gain/loss scaling G_delta = diag(e^delta, e^{-delta}), non-unitary for
  Re(delta) != 0.

Every builder returns a matrix of unit determinant, so eigenvalues come in
(lambda, 1/lambda) pairs and quasi-energies pair as +-E.  Builders broadcast
over array-valued momenta and return stacks of shape (..., 2, 2).

Evaluation: inside a builder a 2x2 operator is a tuple of its four entries
(m00, m01, m10, m11), each an array that broadcasts against the others, and
products are written out entry by entry (``_mul``); no stacked ``@`` is
used.  The diagonal factors, T, T_up, T_down and G and their fused products
such as G_x T_x = diag(e^{gx + ikx}, e^{-gx - ikx}), are applied as row or
column scalings (``_rows``, ``_cols``), so only the coins need a full
product.  The (..., 2, 2) stack is assembled once, at the end.  A factor
that depends on one momentum component is evaluated on that component's
own shape, so passing ``kx[:, None], ky[None, :]`` to a 2D builder costs
O(nx + ny) factor work plus one broadcast product over the (nx, ny) grid.

Closed forms implemented here (quasi-energy of the 1D split-step walk and
of the 2D walk, the Bloch vector of the 1D walk, and the critical scaling
factor where the real spectrum breaks down) are cross-checked against the
analytic 2x2 eigensolver in the test suite.

Convention notes, verified to machine precision in tests:

* ``u1d_ssqw_k(t1, t2, 0, k)`` equals the two-step product
  ``u1d_dtqw_k(t2, k/2) @ u1d_dtqw_k(t1, k/2)``: the single-step factors
  live on half the momentum because each split-step half-shift moves one
  site while the plain walk moves two sites per double step.
* ``u2d_k`` factorizes exactly into two split-step walks at doubled momenta,
  ``u1d_ssqw_k(t2, t1, gy; 2 ky) @ u1d_ssqw_k(0, t1, gx; 2 kx)``.  As a
  consequence the operator is pi-periodic in each momentum component; one
  pi-period is its true Brillouin zone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateCoin, GapClosure

__all__ = [
    "WalkParams1D",
    "WalkParams2D",
    "CriticalKind",
    "CriticalGamma",
    "BlochDecomposition",
    "momentum_grid",
    "u1d_dtqw_k",
    "u1d_ssqw_k",
    "u1d_ssqw_timesym_k",
    "quasi_energy_ssqw",
    "bloch_ssqw",
    "u2d_k",
    "u2d_triangular_k",
    "quasi_energy_2d",
    "critical_gamma",
    "min_positive_critical_gamma",
]


@dataclass(frozen=True)
class WalkParams1D:
    """Split-step walk parameters: coin angles and complex scaling delta = gamma + i phi.

    Array fields broadcast against the momenta: (n, 1) columns give n walks.
    """

    theta1: float
    theta2: float
    gamma: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        for name in ("theta1", "theta2", "gamma", "phi"):
            # one test per field, false for NaN and +-inf as well
            ok = np.abs(getattr(self, name)) < (GAMMA_MAX if name == "gamma" else np.inf)
            if not (ok.all() if ok.ndim else ok):  # a scalar skips the reduction
                raise ValueError(f"{name} must be finite" if name != "gamma" else
                                 f"gamma must be finite and |gamma| below {GAMMA_MAX:.1f}, "
                                 "where the eigensolver's e^(4 gamma) overflows")

    @property
    def delta(self) -> complex:
        """gamma + i phi, exact to the signed zero; a complex array if a field is an array."""
        if isinstance(self.gamma, np.ndarray) or isinstance(self.phi, np.ndarray):
            return np.vectorize(complex, otypes=[complex])(self.gamma, self.phi)
        return complex(self.gamma, self.phi)


@dataclass(frozen=True)
class WalkParams2D:
    """2D walk parameters: coin angles and scaling factors along x and y."""

    theta1: float
    theta2: float
    gamma_x: float = 0.0
    gamma_y: float = 0.0

    def __post_init__(self):
        for name in ("theta1", "theta2", "gamma_x", "gamma_y"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if abs(self.gamma_x) + abs(self.gamma_y) >= GAMMA_MAX:
            raise ValueError(f"|gamma_x| + |gamma_y| must be below {GAMMA_MAX:.1f}, "
                             "where the eigensolver's e^(4 (|gamma_x| + |gamma_y|)) overflows")


class CriticalKind(Enum):
    REAL_CRITICAL = "real"
    SHIFTED_CRITICAL = "shifted"
    NO_CLOSING = "no_closing"


@dataclass(frozen=True)
class CriticalGamma:
    """Scaling factor at which a band-closing channel (k0, E0) is reached.

    ``kind`` distinguishes a real critical point (phi_c = 0), one reachable
    only with the shifted branch phi_c = pi/2, and no closing at all
    (|cosh argument| < 1).  ``gamma_c`` is present unless NO_CLOSING.
    """

    kind: CriticalKind
    gamma_c: float | None
    phi_c: float | None


@dataclass
class BlochDecomposition:
    """Complex quasi-energy E and complex Bloch vector n with n.n = 1.

    The underlying generator is H = E n.sigma, so U = exp(-i E n.sigma).
    """

    energy: complex
    n: np.ndarray


# the Bloch vector n = (nx, ny, nz) / sin E is undefined where |sin E| < this
GAP_SIN_TOL = 1e-9
# the split-step operator has entries of size e^{2 gamma} (the 2D step
# e^{2 (|gamma_x| + |gamma_y|)}), and the 2x2 eigensolver squares them
# (eig2_batch's discriminant, eig2_vector's |v|^2): beyond this (about
# 177.4) they overflow float64
GAMMA_MAX = np.log(np.finfo(float).max) / 4.0
# critical_gamma's channels k0, E0 in {0, pi} have |sin k0|, |sin E0| below this
CHANNEL_SIN_TOL = 1e-9


def momentum_grid(n_points: int) -> np.ndarray:
    """k_j = -pi + 2 pi j / N, j = 0..N-1; odd N avoids k = 0 and the +pi duplicate."""
    if n_points < 1:
        raise ValueError("n_points must be positive")
    return -np.pi + 2.0 * np.pi * np.arange(n_points) / n_points


def _stack2(m00, m01, m10, m11) -> np.ndarray:
    m00, m01, m10, m11 = np.broadcast_arrays(m00, m01, m10, m11)
    out = np.empty(m00.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = m00
    out[..., 0, 1] = m01
    out[..., 1, 0] = m10
    out[..., 1, 1] = m11
    return out


def _mul(a, b):
    """Product of two 2x2 operators held as entry tuples (m00, m01, m10, m11)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    )


def _rows(d, m):
    """diag(d) @ m for an entry tuple m."""
    (d0, d1), (m00, m01, m10, m11) = d, m
    return (d0 * m00, d0 * m01, d1 * m10, d1 * m11)


def _cols(m, d):
    """m @ diag(d) for an entry tuple m."""
    (m00, m01, m10, m11), (d0, d1) = m, d
    return (m00 * d0, m01 * d1, m10 * d0, m11 * d1)


def _rot(theta):
    """Entry tuple of the coin R(theta)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return (c, -s, s, c)


def _phase(x):
    """Diagonal (e^x, e^-x): the conditional shift (x = ik) fused with scalings."""
    return np.exp(x), np.exp(-x)


def u1d_dtqw_k(theta: float, k) -> np.ndarray:
    """Plain 1D walk step T(k) R(theta) with the full conditional shift."""
    return _stack2(*_rows(_phase(1j * np.asarray(k)), _rot(theta)))


def _ssqw(p: WalkParams1D, k, first):
    """T_down G R(theta2) T_up G^-1 @ first, as an entry tuple.

    T_up G^-1 = diag(e^{ik} e^{-delta}, e^delta) and
    T_down G = diag(e^delta, e^{-ik} e^{-delta}) are row scalings; each
    exponential is taken on its own argument's shape, as in ``u2d_k``.
    """
    e_ik, e_mik = _phase(1j * np.asarray(k))
    e_d, e_md = _phase(p.delta)
    inner = _rows((e_ik * e_md, e_d), first)
    return _rows((e_d, e_mik * e_md), _mul(_rot(p.theta2), inner))


def u1d_ssqw_k(p: WalkParams1D, k) -> np.ndarray:
    """Split-step walk step T_down G R(theta2) T_up G^-1 R(theta1)."""
    return _stack2(*_ssqw(p, k, _rot(p.theta1)))


def u1d_ssqw_timesym_k(p: WalkParams1D, k) -> np.ndarray:
    """Time-symmetric representation R(t1/2) T_down G R(t2) T_up G^-1 R(t1/2).

    Similar to ``u1d_ssqw_k`` by conjugation with R(theta1/2); this is the
    frame in which the particle-hole and chiral relations take their plain
    sigma-matrix form.
    """
    half = _rot(p.theta1 / 2.0)
    return _stack2(*_mul(half, _ssqw(p, k, half)))


def _principal_arccos(z) -> np.ndarray:
    """arccos with Re E in [0, pi]; real arguments beyond [-1, 1] take Im E <= 0."""
    z = np.asarray(z, dtype=complex)
    e = np.arccos(z)
    # on the degenerate set (real z, |z| > 1) both signs of Im are valid
    # branches; pick the decaying one, |e^{-iE}| <= 1
    boundary = (np.abs(z.imag) < 1e-14) & (np.abs(z.real) > 1.0)
    e = np.where(boundary, e.real - 1j * np.abs(e.imag), e)
    return e


def quasi_energy_ssqw(p: WalkParams1D, k) -> np.ndarray:
    """cos E = cos(t1/2) cos(t2/2) cos k - sin(t1/2) sin(t2/2) cosh(2 delta)."""
    k = np.asarray(k, dtype=float)
    d = p.delta
    z = (
        np.cos(p.theta1 / 2.0) * np.cos(p.theta2 / 2.0) * np.cos(k)
        - np.sin(p.theta1 / 2.0) * np.sin(p.theta2 / 2.0) * np.cosh(2.0 * d)
    )
    return _principal_arccos(z)


def bloch_ssqw(p: WalkParams1D, k: float) -> BlochDecomposition:
    """Quasi-energy and bilinear-unit Bloch vector of the split-step walk.

    Raises GapClosure([k]) when |sin E| < GAP_SIN_TOL at this momentum.
    """
    e = complex(quasi_energy_ssqw(p, k))
    sin_e = np.sin(e)
    if abs(sin_e) < GAP_SIN_TOL:
        raise GapClosure([k])
    c1, s1 = np.cos(p.theta1 / 2.0), np.sin(p.theta1 / 2.0)
    c2, s2 = np.cos(p.theta2 / 2.0), np.sin(p.theta2 / 2.0)
    ch, sh = np.cosh(2.0 * p.delta), np.sinh(2.0 * p.delta)
    n = np.array([
        s1 * c2 * np.sin(k) - 1j * c1 * s2 * sh,
        s1 * c2 * np.cos(k) + c1 * s2 * ch,
        -c1 * c2 * np.sin(k) - 1j * s1 * s2 * sh,
    ], dtype=complex) / sin_e
    return BlochDecomposition(energy=e, n=n)


def _x_half(r1, theta2, ikx, gamma_x):
    """x half R(t2) G_x T_x R(t1) G_x^-1 T_x of the 2D step, with r1 = ``_rot(t1)``.

    ``u2d_k`` and ``lattice.build_strip_operator`` (at per-site angles) both
    build it here, with the same operations in the same order.
    """
    return _mul(_rot(theta2), _rows(_phase(ikx + gamma_x), _cols(r1, _phase(ikx - gamma_x))))


def u2d_k(p: WalkParams2D, kx, ky) -> np.ndarray:
    """Lossy 2D walk step G_y T_y R(t1) G_y^-1 T_y R(t2) G_x T_x R(t1) G_x^-1 T_x.

    T_x, T_y are full conditional shifts at the respective momentum.  The
    result is pi-periodic in kx and ky (every step displaces the walker by
    an even number of sites).

    The step separates as A(ky) @ B(kx): the x half
    B = R(t2) G_x T_x R(t1) G_x^-1 T_x is evaluated on kx's own shape and
    the y half A = G_y T_y R(t1) G_y^-1 T_y on ky's, and only their product
    broadcasts.  ``u2d_k(p, kx[:, None], ky[None, :])`` therefore builds an
    (nx, ny) grid with O(nx + ny) factor work plus one elementwise product;
    meshgrid inputs give the same values at O(nx ny) cost.
    """
    r1 = _rot(p.theta1)
    ikx, iky = 1j * np.asarray(kx), 1j * np.asarray(ky)
    gy = p.gamma_y
    x_half = _x_half(r1, p.theta2, ikx, p.gamma_x)
    y_half = _rows(_phase(iky + gy), _cols(r1, _phase(iky - gy)))
    return _stack2(*_mul(y_half, x_half))


def u2d_triangular_k(theta1: float, theta2: float, kx, ky) -> np.ndarray:
    """Triangular-lattice step T_xy R(t1) T_y R(t2) T_x R(t1), T_xy = T_x T_y.

    Unitarily equivalent to the square-lattice ``u2d_k`` at zero scaling:
    u2d_k = T_x^dag @ u2d_triangular_k @ T_x.  Evaluated as
    T_x [T_y R(t1) T_y] [R(t2) T_x R(t1)], with each bracket on one momentum.
    """
    r1 = _rot(theta1)
    tx = _phase(1j * np.asarray(kx, dtype=float))
    ty = _phase(1j * np.asarray(ky, dtype=float))
    x_half = _mul(_rot(theta2), _rows(tx, r1))
    y_half = _rows(ty, _cols(r1, ty))
    return _stack2(*_rows(tx, _mul(y_half, x_half)))


def quasi_energy_2d(p: WalkParams2D, kx, ky) -> np.ndarray:
    """Closed-form quasi-energy of the lossy 2D walk (principal branch)."""
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    u = kx + ky
    v = kx - ky
    w = 1j * p.gamma_x - 1j * p.gamma_y
    wp = 1j * p.gamma_x + 1j * p.gamma_y
    c2, s2 = np.cos(p.theta2 / 2.0), np.sin(p.theta2 / 2.0)
    z = (
        np.cos(p.theta1) * c2 * np.cos(u - w) * np.cos(u + w)
        - c2 * np.sin(u - w) * np.sin(u + w)
        - np.sin(p.theta1) * s2 * np.cos(v - wp) * np.cos(u + w)
    )
    return _principal_arccos(z)


def critical_gamma(theta1: float, theta2: float, k0: float, e0: float) -> CriticalGamma:
    """Scaling factor closing the gap in channel (k0, E0), k0 and E0 in {0, pi}.

    Solves cos E0 = cos(t1/2) cos(t2/2) cos k0 - sin(t1/2) sin(t2/2) cosh(2 delta_c)
    for delta_c = gamma_c + i phi_c.  The cosh argument
    x = (cos(t1/2) cos(t2/2) cos k0 - cos E0) / (sin(t1/2) sin(t2/2))
    yields a real critical point for x >= 1, a shifted one (phi_c = pi/2,
    i.e. k -> k + pi/2) for x <= -1, and no closing for |x| < 1.
    """
    if max(abs(np.sin(k0)), abs(np.sin(e0))) > CHANNEL_SIN_TOL:
        raise ValueError(f"k0 and e0 must be 0 or pi, got k0={k0:g}, e0={e0:g}")
    s1s2 = np.sin(theta1 / 2.0) * np.sin(theta2 / 2.0)
    if abs(s1s2) < 1e-12:
        raise DegenerateCoin(f"sin(theta1/2) sin(theta2/2) = {s1s2:.2e}")
    x = (np.cos(theta1 / 2.0) * np.cos(theta2 / 2.0) * np.cos(k0) - np.cos(e0)) / s1s2
    if x >= 1.0:
        return CriticalGamma(kind=CriticalKind.REAL_CRITICAL, gamma_c=float(0.5 * np.arccosh(x)), phi_c=0.0)
    if x <= -1.0:
        return CriticalGamma(kind=CriticalKind.SHIFTED_CRITICAL, gamma_c=float(0.5 * np.arccosh(-x)),
                             phi_c=float(np.pi / 2.0))
    return CriticalGamma(kind=CriticalKind.NO_CLOSING, gamma_c=None, phi_c=None)


def min_positive_critical_gamma(theta1: float, theta2: float) -> float:
    """Smallest real critical scaling over the four (k0, E0) channels.

    Returns inf when no channel closes with a real scaling factor.
    """
    best = np.inf
    for k0 in (0.0, np.pi):
        for e0 in (0.0, np.pi):
            res = critical_gamma(theta1, theta2, k0, e0)
            if res.kind is CriticalKind.REAL_CRITICAL and res.gamma_c < best:
                best = res.gamma_c
    return float(best)
