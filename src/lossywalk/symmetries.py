"""Symmetry relation checks and exceptional-point location.

The checks evaluate operator identities entrywise on a momentum grid and
report the worst violation in the max norm.  The combined parity-time
relation sigma_z U*(k) sigma_z = U(k)^-1 holds exactly in the time-symmetric
representation (the frame in which the coin-space operator takes the plain
sigma_z K form), so the 1D checks are evaluated there; spectra are
similarity-invariant, so conclusions about spectral reality carry over to
the plain representation unchanged.

Exact parity-time symmetry is monitored through spectral reality
(max |Im E| over the grid), which for this model family coincides with the
eigenvector-coalescence criterion and is numerically robust.  The spectrum
is computed with the analytic 2x2 eigenvalue step (``eig2_batch``; no
eigenvector is built) on the built operators, so the bisection in
``find_exceptional_point`` stays independent of the closed-form critical
scaling factor it is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoBracket
from .linalg import SIGMA_X, SIGMA_Z, eig2_batch
from .walks import (
    WalkParams1D,
    momentum_grid,
    u1d_ssqw_k,
    u1d_ssqw_timesym_k,
    u2d_k,
)

__all__ = [
    "SymmetryReport",
    "check_pt_1d",
    "check_exact_pt",
    "check_phs",
    "check_cs",
    "find_exceptional_point",
]


@dataclass(frozen=True)
class SymmetryReport:
    relation: str
    max_violation: float
    passed: bool


def _inv2(m: np.ndarray) -> np.ndarray:
    """Adjugate inverse of a (..., 2, 2) stack with unit determinant."""
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def _report(relation: str, diff: np.ndarray, tol: float) -> SymmetryReport:
    viol = float(np.max(np.abs(diff)))
    return SymmetryReport(relation=relation, max_violation=viol, passed=bool(viol <= tol))


def check_pt_1d(p: WalkParams1D, n_points: int, tol: float) -> SymmetryReport:
    """Combined parity-time relation sigma_z U*(k) sigma_z = U(k)^-1.

    Evaluated on the time-symmetric representation; holds for every scaling
    factor, including beyond the exceptional point.
    """
    ks = momentum_grid(n_points)
    u = u1d_ssqw_timesym_k(p, ks)
    lhs = SIGMA_Z @ np.conj(u) @ SIGMA_Z
    return _report("PT", lhs - _inv2(u), tol)


def check_exact_pt(p: WalkParams1D, n_points: int, tol: float) -> SymmetryReport:
    """Spectral reality: max over the grid and both bands of |Im E|.

    The grid is augmented with k = 0 so that both band-closing channels
    (k = 0 and k = -pi, the latter already on the grid) are sampled exactly;
    the reality transition is then located without grid-resolution bias.
    """
    ks = np.concatenate([momentum_grid(n_points), [0.0]])
    values, _ = eig2_batch(u1d_ssqw_k(p, ks))
    im_e = np.log(np.abs(values))  # Im E = log|lambda|
    return _report("ExactPT", im_e, tol)


def check_phs(model: str, params, n_points: int, tol: float) -> SymmetryReport:
    """Particle-hole relation conj(U(k)) = U(-k).

    ``model`` is "1d" (time-symmetric representation of the split-step walk,
    params: WalkParams1D) or "2d" (params: WalkParams2D; k -> -k negates
    both momentum components).
    """
    if model == "1d":
        ks = momentum_grid(n_points)
        diff = np.conj(u1d_ssqw_timesym_k(params, ks)) - u1d_ssqw_timesym_k(params, -ks)
        return _report("PHS", diff, tol)
    if model == "2d":
        ks = momentum_grid(n_points)
        kx, ky = ks[:, None], ks[None, :]
        diff = np.conj(u2d_k(params, kx, ky)) - u2d_k(params, -kx, -ky)
        return _report("PHS", diff, tol)
    raise ValueError(f"unknown model {model!r}; expected '1d' or '2d'")


def check_cs(p: WalkParams1D, n_points: int, tol: float) -> SymmetryReport:
    """Chiral relation sigma_x U'(k) sigma_x = U'(k)^dag on the time-symmetric frame."""
    ks = momentum_grid(n_points)
    u = u1d_ssqw_timesym_k(p, ks)
    lhs = SIGMA_X @ u @ SIGMA_X
    rhs = np.conj(np.swapaxes(u, -1, -2))
    return _report("CS", lhs - rhs, tol)


def find_exceptional_point(
    theta1: float,
    theta2: float,
    gamma_hi: float,
    n_points: int = 201,
    tol: float = 1e-8,
) -> float:
    """Bisect the scaling factor where the spectrum stops being real.

    The predicate is ``check_exact_pt(...).passed`` on an n_points grid;
    the returned transition value is bracketed to 1e-6.  Raises NoBracket
    when the predicate does not change over [0, gamma_hi].
    """

    def is_real(gamma: float) -> bool:
        return check_exact_pt(WalkParams1D(theta1, theta2, gamma), n_points, tol).passed

    lo, hi = 0.0, float(gamma_hi)
    if not is_real(lo):
        raise NoBracket("spectrum already complex at gamma = 0")
    if is_real(hi):
        raise NoBracket(f"spectrum still real at gamma = {gamma_hi}")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if is_real(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
