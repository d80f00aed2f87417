"""Symmetry relation checks and exceptional-point location.

The checks evaluate operator identities entrywise on a momentum grid and
report the worst violation in the max norm.  The 1D relations are taken in
the time-symmetric representation U'(k) (the frame in which the coin-space
operator takes the plain sigma_z K form); spectra are similarity-invariant,
so conclusions about spectral reality carry over to the plain
representation unchanged.  No matrix product is formed: each relation is a
reordering of the entries of the walk's (..., 2, 2) stack.

For a 2x2 step the parity-time relation sigma_z U'* sigma_z = U'^-1 and the
chiral relation sigma_x U' sigma_x = U'^dag have the same residual entries
up to sign and order (with U'^-1 the adjugate at det U' = 1; see
docs/NOTES.md), so ``check_pt_1d`` and ``check_cs`` report one residual,
``_timesym_residual``, under their two names.  Both hold for every real
scaling factor, beyond the exceptional point included; a phase phi != 0 in
delta breaks both.

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
from .linalg import eig2_batch
from .walks import (
    WalkParams1D,
    WalkParams2D,
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


# spectral reality holds while max |Im E| stays within this
EXACT_PT_TOL = 1e-8


@dataclass(frozen=True)
class SymmetryReport:
    relation: str
    max_violation: float
    passed: bool


def _report(relation: str, diff: np.ndarray, tol: float) -> SymmetryReport:
    viol = float(np.max(np.abs(diff)))
    return SymmetryReport(relation=relation, max_violation=viol, passed=bool(viol <= tol))


def _timesym_residual(p: WalkParams1D, n_points: int) -> np.ndarray:
    """sigma_x U'(k) sigma_x - U'(k)^dag on the time-symmetric frame, entrywise."""
    u = u1d_ssqw_timesym_k(p, momentum_grid(n_points))
    return u[..., ::-1, ::-1] - np.conj(np.swapaxes(u, -1, -2))


def check_pt_1d(p: WalkParams1D, n_points: int, tol: float) -> SymmetryReport:
    """Combined parity-time relation sigma_z U'*(k) sigma_z = U'(k)^-1."""
    return _report("PT", _timesym_residual(p, n_points), tol)


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


def check_phs(params: WalkParams1D | WalkParams2D, n_points: int, tol: float) -> SymmetryReport:
    """Particle-hole relation conj(U(k)) = U(-k).

    A ``WalkParams1D`` is checked on the time-symmetric representation of
    the split-step walk, a ``WalkParams2D`` on ``u2d_k`` over an
    n_points x n_points grid (k -> -k negates both momentum components).
    """
    ks = momentum_grid(n_points)
    if isinstance(params, WalkParams2D):
        kx, ky = ks[:, None], ks[None, :]
        diff = np.conj(u2d_k(params, kx, ky)) - u2d_k(params, -kx, -ky)
    else:
        diff = np.conj(u1d_ssqw_timesym_k(params, ks)) - u1d_ssqw_timesym_k(params, -ks)
    return _report("PHS", diff, tol)


def check_cs(p: WalkParams1D, n_points: int, tol: float) -> SymmetryReport:
    """Chiral relation sigma_x U'(k) sigma_x = U'(k)^dag."""
    return _report("CS", _timesym_residual(p, n_points), tol)


def find_exceptional_point(
    theta1: float,
    theta2: float,
    gamma_hi: float,
    n_points: int = 201,
) -> float:
    """Bisect the scaling factor where the spectrum stops being real.

    The predicate is ``check_exact_pt(...).passed`` on an n_points grid;
    the returned transition value is bracketed to 1e-6.  Raises ValueError
    unless gamma_hi > 0, and NoBracket when the predicate does not change
    over [0, gamma_hi].
    """
    if not gamma_hi > 0:
        raise ValueError(f"gamma_hi must be positive, got {gamma_hi}")

    def is_real(gamma: float) -> bool:
        return check_exact_pt(WalkParams1D(theta1, theta2, gamma), n_points, EXACT_PT_TOL).passed

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
