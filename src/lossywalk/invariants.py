"""Topological invariants of walk bands.

Winding numbers come from the discrete geometric phase of a closed chain of
state overlaps around the 1D Brillouin zone; Chern numbers from plaquette
link variables on a 2D momentum grid (the lattice field-strength method of
Fukui, Hatsugai & Suzuki, JPSJ 74, 1674 (2005), which produces exact
integers on any grid because every link cancels between neighboring
plaquettes).  The plaquettes are formed from the two link fields U_x and
U_y, one entry per torus link; their product is gauge-invariant, so the 2D
band states carry the raw adjugate gauge of ``eig2_vector`` and no phase fix.

Band convention for complex spectra: the *lower* band at each momentum is
the eigenvalue whose quasi-energy has negative real part; on the set where
the real parts coincide modulo 2 pi (real eigenvalue pairs, positive or
negative) the decaying state (Im E < 0, |lambda| < 1) is the lower one.
Both band functions return the lower band only.

``_lower_band`` is the band step of both band functions: the collision mask
and the lower eigenvalue, chosen from lambda0 alone (lambda1 = 1/lambda0, so
Re E1 = -Re E0 = arg lambda0); the 2D band takes lambda0 from unstacked
entry arrays (``walks._u2d``, ``linalg._eig2``).  One ``eig2_vector`` per
band gives the states the raw adjugate gauge.  ``_links`` forms the overlaps
<s(k)|s(k + step)> along one axis as component products, for the 1D loop and
both 2D link fields.  ``pancharatnam_phase`` is the holonomy Phi, the sum of
the link phases arg<s_j|s_j+1> around the loop wrapped into (-pi, pi]; every
state's phase enters it once with + and once with -, so it is the same in
any gauge.  A holonomy within CUT_REL_TOL of +-pi is taken as +pi, which
fixes the loop orientation so the nontrivial phase of the split-step walk
comes out at +1.  It is exactly pi * integer in the real-spectrum regime and
moves continuously once the spectrum turns complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GapClosure, OrthogonalLink
from .linalg import _eig2, eig2_batch, eig2_vector
from .walks import WalkParams1D, WalkParams2D, _u2d, momentum_grid, u1d_ssqw_k, u2d_k

__all__ = [
    "BandData1D",
    "BandData2D",
    "WindingResult",
    "band_spectrum_1d",
    "band_spectrum_2d",
    "pancharatnam_phase",
    "winding_number",
    "chern_number",
    "u2d_k",  # re-exported: the benchmark times the 2D builder at this lookup site
]

LINK_TOL = 1e-12
# a winding or Chern number within this of an integer counts as that integer
INTEGER_TOL = 1e-6
# two quasi-energies whose real parts differ by less than this modulo 2 pi
# (2 arg lambda0 this close to 2 pi Z) are ordered by Im E
DEGENERACY_TOL = 1e-9
# a closing is an exactly degenerate eigenvalue pair, and the collision
# detector must sit above the split that rounding leaves there.
# eig2_batch, the eigenvalue step, takes lambda = tr/2 +- sqrt(D) with
# D = ((a - d)/2)^2 + bc.
# At a normal closing (U = +-I) a - d, b and c are all O(eps), so D is
# O(eps^2) and the split O(eps).  At an exceptional point (U defective,
# b or c of order 1) the O(eps) rounding in the entries enters bc
# linearly, |D| ~ c eps for a small integer c, and the split is
# 2 sqrt(c eps).  With eps = 2.2e-16, sqrt(eps) = 1.5e-8, so 1e-7 is about
# 7 sqrt(eps): both kinds read as collisions while the rounding in D stays
# below about 11 eps.
GAP_COLLISION_TOL = 1e-7
# a loop holonomy within this of +-pi sits on the -pi/+pi cut, and is taken as +pi
CUT_REL_TOL = 1e-9


@dataclass
class BandData1D:
    """Samples of one band over a closed momentum loop (ascending k)."""

    k_samples: np.ndarray
    states: np.ndarray  # (N, 2) unit right eigenvectors, adjugate gauge


@dataclass
class BandData2D:
    """Samples of the lower band over a 2D momentum grid (one full period per axis)."""

    kx: np.ndarray
    ky: np.ndarray
    states: np.ndarray  # (Nx, Ny, 2)


@dataclass(frozen=True)
class WindingResult:
    """Winding number w = loop phase / pi with an integrality verdict."""

    w: float
    is_integer: bool


def _lower_band(lam0: np.ndarray, lam1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(collisions, lower lambda) of an eigenvalue pair, lam0 = ``_eig2``'s and lam1 = 1/lam0.

    Re E1 = -Re E0 = arg lambda0, so lambda0 is the lower one where
    arg lambda0 > 0, which off the tie set is Im lambda0 > 0.  The tie set,
    where 2 arg lambda0 is within DEGENERACY_TOL of 2 pi Z (a real pair,
    whose real parts tie modulo 2 pi), is |Im lambda0| < (DEGENERACY_TOL/2)
    |lambda0|; there the decaying lambda, |lambda| <= 1, is the lower one.
    """
    collisions = np.abs(lam0 - lam1) < GAP_COLLISION_TOL
    mag = np.abs(lam0)
    tie = np.abs(lam0.imag) < 0.5 * DEGENERACY_TOL * mag
    first = np.where(tie, mag <= 1.0, lam0.imag > 0.0)
    return collisions, np.where(first, lam0, lam1)


def band_spectrum_1d(p: WalkParams1D, n_points: int) -> BandData1D:
    """Diagonalize the split-step walk on a momentum loop; return the lower band.

    Raises GapClosure (with the offending momenta) when the two eigenvalues
    of ``eig2_batch`` collide within GAP_COLLISION_TOL anywhere on the grid.
    ``_lower_band`` picks the lower eigenvalue, and the states are the
    adjugate vectors ``eig2_vector`` builds for it alone, with no phase
    fix: the winding number is gauge-invariant.  Array fields given as
    (..., 1) columns make a batch of loops, equal bit for bit to one call
    per cell; there a collision makes the cell's states NaN instead, and
    non-finite states in another cell raise FloatingPointError.
    """
    ks = momentum_grid(n_points)
    values, entries = eig2_batch(u1d_ssqw_k(p, ks))
    collisions, lam = _lower_band(values[..., 0], values[..., 1])
    if collisions.ndim == 1 and np.any(collisions):
        raise GapClosure(ks[collisions])
    states = eig2_vector(entries, lam)
    if collisions.ndim > 1:
        closed = np.any(collisions, axis=-1)
        if not np.all(np.isfinite(states[~closed])):
            raise FloatingPointError("non-finite band states in a gapped cell")
        states[closed] = np.nan
    return BandData1D(k_samples=ks, states=states)


def band_spectrum_2d(p: WalkParams2D, nx: int, ny: int) -> BandData2D:
    """Diagonalize the 2D walk over one full period per momentum axis; return the lower band.

    The operator is pi-periodic in each momentum, so the sampled zone is
    one pi-period per axis; the cyclic plaquettes are exact.  The
    grid is offset by a quarter step, q_j = (-pi + 2 pi (j + 1/4) / N) / 2,
    which never lands on the high-symmetry momenta {0, +-pi/2} where the
    phase-boundary gap closings sit.  Raises GapClosure (with the offending
    momentum pairs) when the two eigenvalues collide within
    GAP_COLLISION_TOL anywhere on the grid, before any vector is built.

    ``_lower_band`` picks the lower eigenvalue, and only it gets
    eigenvectors, in the adjugate gauge of ``eig2_vector`` (no phase fix:
    ``chern_number`` is gauge-invariant).  The upper band's Chern number
    is minus the lower one's.  The builder ``walks._u2d`` gets the axes as
    (nx, 1) and (1, ny) columns and returns four entry arrays, never a
    stack; only its final product fills the grid.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid sizes must be positive, got {nx} x {ny}")
    qx = (-np.pi + 2.0 * np.pi * (np.arange(nx) + 0.25) / nx) / 2.0
    qy = (-np.pi + 2.0 * np.pi * (np.arange(ny) + 0.25) / ny) / 2.0
    entries = _u2d(p, qx[:, None], qy[None, :])
    lam0 = _eig2(*entries)
    collisions, lam = _lower_band(lam0, 1.0 / lam0)
    if np.any(collisions):
        kxg, kyg = np.meshgrid(qx, qy, indexing="ij")
        ks = np.stack([kxg[collisions], kyg[collisions]], axis=-1)
        raise GapClosure([tuple(row) for row in ks])
    return BandData2D(kx=qx, ky=qy, states=eig2_vector(entries, lam))


def _next(a: np.ndarray, axis: int) -> np.ndarray:
    """a(k + step) along ``axis``, cyclic: the slice after the first sample, then the first."""
    before = (slice(None),) * (axis % a.ndim)
    return np.concatenate([a[before + (slice(1, None),)], a[before + (slice(0, 1),)]], axis=axis)


def _links(states: np.ndarray, axis: int) -> np.ndarray:
    """Overlaps <s(k)|s(k + step)> of unit states (..., 2) along ``axis``, cyclic."""
    products = np.conj(states) * _next(states, axis)
    return products[..., 0] + products[..., 1]


def pancharatnam_phase(band: BandData1D) -> float:
    """Holonomy of the cyclic chain of state overlaps, in (-pi, pi].

    Phi = sum over j of arg<psi(k_j)|psi(k_j+1)>, indices cyclic, wrapped
    into (-pi, pi]; within CUT_REL_TOL of +-pi it is +pi.  Every state's
    phase cancels from the sum, so Phi holds for any gauge of the states.
    A batch of loops gives one phase per loop, NaN where a link, the
    closing one included, is below LINK_TOL; a single loop raises
    OrthogonalLink there.
    """
    links = _links(band.states, -2)
    orthogonal = np.abs(links) < LINK_TOL
    if links.ndim == 1 and np.any(orthogonal):
        raise OrthogonalLink(f"orthogonal link(s) at k = {band.k_samples[orthogonal]}")
    phi = np.pi - (np.pi - np.sum(np.angle(links), axis=-1)) % (2.0 * np.pi)
    phi = np.where(np.pi - np.abs(phi) <= CUT_REL_TOL, np.pi, phi)
    if links.ndim > 1:
        return np.where(np.any(orthogonal, axis=-1), np.nan, phi)
    return float(phi)


def winding_number(band: BandData1D) -> WindingResult:
    """Winding number of one band: loop phase / pi (arrays for a batch, NaN w where closed)."""
    w = pancharatnam_phase(band) / np.pi
    is_integer = np.abs(w - np.rint(w)) < INTEGER_TOL
    if np.ndim(w):
        return WindingResult(w=w, is_integer=is_integer)
    return WindingResult(w=float(w), is_integer=bool(is_integer))


def chern_number(band: BandData2D) -> tuple[int, np.ndarray]:
    """Chern number from plaquette link variables; exact integer by construction.

    With the link fields U_x(k) = <s(k)|s(k + x)> and U_y(k) = <s(k)|s(k + y)>,
    each plaquette contributes F = arg U_x(k) U_y(k + x) conj(U_x(k + y) U_y(k)),
    F in (-pi, pi]; C = sum(F) / 2 pi.  Every torus link is one entry of
    U_x or U_y, and a link below LINK_TOL raises OrthogonalLink.  Returns
    the integer and the per-plaquette field strength.
    """
    ux, uy = _links(band.states, 0), _links(band.states, 1)
    thin = (np.abs(ux) < LINK_TOL) | (np.abs(uy) < LINK_TOL)
    if np.any(thin):
        raise OrthogonalLink(f"orthogonal plaquette link(s) at grid indices {np.argwhere(thin)[:4].tolist()}")
    field = np.angle(ux * _next(uy, 0) * np.conj(_next(ux, 1) * uy))
    total = field.sum() / (2.0 * np.pi)
    c = int(np.rint(total))
    if abs(total - c) > INTEGER_TOL:
        raise ArithmeticError(f"plaquette sum {total} is not an integer")
    return c, field
