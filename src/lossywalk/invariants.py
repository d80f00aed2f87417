"""Topological invariants of walk bands.

Winding numbers come from the discrete geometric phase of a closed chain of
state overlaps around the 1D Brillouin zone; Chern numbers from plaquette
link variables on a 2D momentum grid (the lattice field-strength method,
which produces exact integers on any grid because every link cancels between
neighboring plaquettes).

Band convention for complex spectra: the *lower* band at each momentum is
the eigenvalue whose quasi-energy has negative real part; on the set where
the real parts coincide (real eigenvalue pairs) the decaying state
(Im E < 0, |lambda| < 1) is the lower one.

Gauge of the returned 1D band states: states are phase-aligned along the
loop and the residual closed-loop holonomy Phi is spread uniformly, so every
link overlap carries the phase Phi/N.  The unwrapped per-link sum then
recovers Phi robustly (no link sits near the -pi/+pi cut), stays exactly
pi * integer in the real-spectrum regime, and decays continuously once the
spectrum turns complex.  Link phases are taken in (-pi, pi]; an overlap that
is real-negative to within CUT_REL_TOL relative imaginary part (``_on_cut``)
is canonicalized to +pi, which fixes the loop orientation so the nontrivial
phase of the split-step walk comes out at +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GapClosure, OrthogonalLink
from .linalg import DEGENERACY_TOL, eig2_batch, quasienergy
from .walks import WalkParams1D, WalkParams2D, momentum_grid, u1d_ssqw_k, u2d_k

__all__ = [
    "BandData1D",
    "BandData2D",
    "WindingResult",
    "band_spectrum_1d",
    "band_spectrum_2d",
    "pancharatnam_phase",
    "winding_number",
    "chern_number",
]

LINK_TOL = 1e-12
# an exact closing with O(eps) rounding in the operator splits the
# eigenvalue pair by O(sqrt(eps)) through the discriminant, so the
# collision detector must sit above that amplification scale
GAP_COLLISION_TOL = 1e-7
# an overlap whose |Im| is at most this fraction of its negative real part
# sits on the -pi/+pi cut, and its phase is taken as +pi
CUT_REL_TOL = 1e-9


@dataclass
class BandData1D:
    """Samples of one band over a closed momentum loop (ascending k)."""

    k_samples: np.ndarray
    states: np.ndarray  # (N, 2) unit right eigenvectors
    energies: np.ndarray  # (N,) complex quasi-energies
    band_label: str  # "lower" | "upper"


@dataclass
class BandData2D:
    """Samples of one band over a 2D momentum grid (one full period per axis)."""

    kx: np.ndarray
    ky: np.ndarray
    states: np.ndarray  # (Nx, Ny, 2)
    energies: np.ndarray  # (Nx, Ny)
    band_label: str


@dataclass(frozen=True)
class WindingResult:
    """Winding number w = total_phase / pi with an integrality verdict."""

    w: float
    is_integer: bool
    total_phase: float


def _canonical_phase(states: np.ndarray) -> np.ndarray:
    """Deterministic per-state gauge: largest-magnitude component real positive."""
    idx = np.argmax(np.abs(states), axis=-1)
    lead = np.take_along_axis(states, idx[..., None], axis=-1)[..., 0]
    phase = lead / np.where(np.abs(lead) == 0.0, 1.0, np.abs(lead))
    return states * np.conj(phase)[..., None]


def _split_bands(values: np.ndarray) -> np.ndarray:
    """Index (0 or 1) of the lower eigenvalue per sample, by (Re E, Im E)."""
    es = quasienergy(values)
    re0, re1 = es[..., 0].real, es[..., 1].real
    im0, im1 = es[..., 0].imag, es[..., 1].imag
    tie = np.abs(re0 - re1) < DEGENERACY_TOL
    lower_first = np.where(tie, im0 <= im1, re0 < re1)
    return np.where(lower_first, 0, 1)


def _on_cut(z):
    """Where overlap ``z`` (scalar or array) is real-negative to CUT_REL_TOL: phase +pi."""
    return (z.real < 0) & (abs(z.imag) <= CUT_REL_TOL * abs(z.real))


def _transport_and_spread(states: np.ndarray) -> np.ndarray:
    """Phase-align states along the loop, then spread the holonomy evenly.

    After this gauge every cyclic link overlap has phase Phi/N where Phi is
    the closed-loop holonomy in (-pi, pi] (boundary canonicalized to +pi).
    """
    n = states.shape[0]
    raw = np.sum(np.conj(states[:-1]) * states[1:], axis=-1)
    if np.any(np.abs(raw) < LINK_TOL):
        raise OrthogonalLink("vanishing overlap between adjacent band states")
    chi = np.concatenate([[0.0], np.cumsum(np.angle(raw))])
    aligned = states * np.exp(-1j * chi)[:, None]
    closing = np.sum(np.conj(aligned[-1]) * aligned[0])
    if abs(closing) < LINK_TOL:
        raise OrthogonalLink("vanishing overlap on the closing link")
    phi = np.pi if _on_cut(closing) else float(np.angle(closing))
    return aligned * np.exp(1j * np.arange(n) * phi / n)[:, None]


def band_spectrum_1d(p: WalkParams1D, n_points: int) -> tuple[BandData1D, BandData1D]:
    """Diagonalize the split-step walk on a momentum loop; return (lower, upper).

    Raises GapClosure (with the offending momenta) when the two eigenvalues
    collide within GAP_COLLISION_TOL anywhere on the grid.
    """
    ks = momentum_grid(n_points)
    ops = u1d_ssqw_k(p, ks)
    values, vectors, _ = eig2_batch(ops)
    collisions = np.abs(values[:, 0] - values[:, 1]) < GAP_COLLISION_TOL
    if np.any(collisions):
        raise GapClosure(ks[collisions])
    low = _split_bands(values)
    idx = np.arange(n_points)
    bands = []
    for label, sel in (("lower", low), ("upper", 1 - low)):
        energies = quasienergy(values[idx, sel])
        states = vectors[idx, :, sel]
        states = _canonical_phase(states)
        states = _transport_and_spread(states)
        bands.append(BandData1D(k_samples=ks.copy(), states=states, energies=energies, band_label=label))
    return bands[0], bands[1]


def band_spectrum_2d(p: WalkParams2D, nx: int, ny: int) -> tuple[BandData2D, BandData2D]:
    """Diagonalize the 2D walk over one full period per momentum axis.

    The operator is pi-periodic in each momentum, so the sampled zone is
    one pi-period per axis; plaquette wraparound via roll is exact.  The
    grid is offset by a quarter step, q_j = (-pi + 2 pi (j + 1/4) / N) / 2,
    which never lands on the high-symmetry momenta {0, +-pi/2} where the
    phase-boundary gap closings sit.  Raises GapClosure (with the offending
    momentum pairs) when the two eigenvalues collide within
    GAP_COLLISION_TOL anywhere on the grid.

    The builder gets the axes as (nx, 1) and (1, ny) columns, so its
    factors are evaluated per axis and only the final product fills the grid.
    """
    qx = (-np.pi + 2.0 * np.pi * (np.arange(nx) + 0.25) / nx) / 2.0
    qy = (-np.pi + 2.0 * np.pi * (np.arange(ny) + 0.25) / ny) / 2.0
    ops = u2d_k(p, qx[:, None], qy[None, :])
    values, vectors, _ = eig2_batch(ops)
    collisions = np.abs(values[..., 0] - values[..., 1]) < GAP_COLLISION_TOL
    if np.any(collisions):
        kxg, kyg = np.meshgrid(qx, qy, indexing="ij")
        ks = np.stack([kxg[collisions], kyg[collisions]], axis=-1)
        raise GapClosure([tuple(row) for row in ks])
    low = _split_bands(values)
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    bands = []
    for label, sel in (("lower", low), ("upper", 1 - low)):
        energies = quasienergy(values[ii, jj, sel])
        states = vectors[ii, jj, :, sel]
        states = _canonical_phase(states)
        bands.append(BandData2D(kx=qx.copy(), ky=qy.copy(), states=states, energies=energies, band_label=label))
    return bands[0], bands[1]


def pancharatnam_phase(band: BandData1D) -> float:
    """Unwrapped geometric phase of the cyclic chain of state overlaps.

    Sum over j of arg<psi(k_j)|psi(k_j+1)> with each link phase in (-pi, pi]
    (real-negative overlaps canonicalized to +pi) and indices cyclic.  Equals
    the holonomy arg of the full overlap product modulo 2 pi; in the gauge
    produced by band_spectrum_1d the sum recovers it without wrapping.
    """
    states = band.states
    links = np.sum(np.conj(states) * np.roll(states, -1, axis=0), axis=-1)
    mags = np.abs(links)
    if np.any(mags < LINK_TOL):
        bad = band.k_samples[mags < LINK_TOL]
        raise OrthogonalLink(f"orthogonal link(s) at k = {bad}")
    return float(np.sum(np.where(_on_cut(links), np.pi, np.angle(links))))


def winding_number(band: BandData1D) -> WindingResult:
    """Winding number of one band: geometric loop phase divided by pi."""
    total = pancharatnam_phase(band)
    w = total / np.pi
    return WindingResult(w=float(w), is_integer=bool(abs(w - round(w)) < 1e-6), total_phase=total)


def chern_number(band: BandData2D) -> tuple[int, np.ndarray]:
    """Chern number from plaquette link variables; exact integer by construction.

    Each plaquette contributes F_P = arg of the product of its four link
    overlaps, F_P in (-pi, pi]; C = sum(F_P) / 2 pi.  Returns the integer and
    the per-plaquette field strength.
    """
    s = band.states
    s10 = np.roll(s, -1, axis=0)
    s01 = np.roll(s, -1, axis=1)
    s11 = np.roll(s10, -1, axis=1)
    l1 = np.sum(np.conj(s) * s10, axis=-1)
    l2 = np.sum(np.conj(s10) * s11, axis=-1)
    l3 = np.sum(np.conj(s11) * s01, axis=-1)
    l4 = np.sum(np.conj(s01) * s, axis=-1)
    for links in (l1, l2, l3, l4):
        if np.any(np.abs(links) < LINK_TOL):
            idx = np.argwhere(np.abs(links) < LINK_TOL)
            raise OrthogonalLink(f"orthogonal plaquette link(s) at grid indices {idx[:4].tolist()}")
    field = np.angle(l1 * l2 * l3 * l4)
    total = field.sum() / (2.0 * np.pi)
    c = int(np.rint(total))
    if abs(total - c) > 1e-6:
        raise ArithmeticError(f"plaquette sum {total} is not an integer")
    return c, field

