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
from .linalg import eig2_batch, quasienergy
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
# a winding or Chern number within this of an integer counts as that integer
INTEGER_TOL = 1e-6
# two quasi-energies whose real parts differ by less than this are ordered by Im E
DEGENERACY_TOL = 1e-9
# an exact closing with O(eps) rounding in the operator splits the
# eigenvalue pair by O(sqrt(eps)) through the discriminant, so the
# collision detector must sit above that amplification scale:
# eig2_batch takes lambda = tr/2 +- sqrt(D) with D = (tr/2)^2 - 1 (det U = 1
# is not computed).  At a closing D = 0 exactly, but rounding in the O(1)
# entries, in tr/2 and in (tr/2)^2 - 1 leaves |D| ~ c eps for a small
# integer c, and the computed split is 2 sqrt(|D|) = 2 sqrt(c) sqrt(eps).
# With eps = 2.2e-16, sqrt(eps) = 1.5e-8, so 1e-7 is about 7 sqrt(eps): a
# closing still reads as a collision while the rounding in D stays below
# about 11 eps.
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


def _transport_and_spread(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-align (..., N, 2) loops of states, then spread each holonomy evenly.

    After this gauge every cyclic link overlap has phase Phi/N where Phi is
    the closed-loop holonomy in (-pi, pi] (boundary canonicalized to +pi).
    Also returns, per loop, whether a raw or the closing link is below
    LINK_TOL; a single (N, 2) loop raises OrthogonalLink there instead.
    """
    n, single = states.shape[-2], states.ndim == 2
    raw = np.sum(np.conj(states[..., :-1, :]) * states[..., 1:, :], axis=-1)
    thin = np.any(np.abs(raw) < LINK_TOL, axis=-1)
    if single and thin:
        raise OrthogonalLink("vanishing overlap between adjacent band states")
    chi = np.concatenate([np.zeros_like(raw[..., :1].real), np.cumsum(np.angle(raw), axis=-1)], axis=-1)
    aligned = states * np.exp(-1j * chi)[..., None]
    closing = np.sum(np.conj(aligned[..., -1, :]) * aligned[..., 0, :], axis=-1)
    thin = thin | (np.abs(closing) < LINK_TOL)
    if single and thin:
        raise OrthogonalLink("vanishing overlap on the closing link")
    phi = np.where(_on_cut(closing), np.pi, np.angle(closing))[..., None]
    return aligned * np.exp(1j * np.arange(n) * phi / n)[..., None], thin


def band_spectrum_1d(p: WalkParams1D, n_points: int) -> tuple[BandData1D, BandData1D]:
    """Diagonalize the split-step walk on a momentum loop; return (lower, upper).

    Raises GapClosure (with the offending momenta) when the two eigenvalues
    collide within GAP_COLLISION_TOL anywhere on the grid.
    Array fields given as (..., 1) columns make a batch of loops, equal bit
    for bit to one call per cell; there a collision or a link below LINK_TOL
    in either band makes the cell's states and energies NaN instead, and
    non-finite data in another cell raises FloatingPointError.
    """
    ks = momentum_grid(n_points)
    ops = u1d_ssqw_k(p, ks)
    values, vectors = eig2_batch(ops)
    collisions = np.abs(values[..., 0] - values[..., 1]) < GAP_COLLISION_TOL
    if ops.ndim == 3 and np.any(collisions):
        raise GapClosure(ks[collisions])
    closed = np.any(collisions, axis=-1)
    low = _split_bands(values)[..., None]
    bands = []
    for label, sel in (("lower", low), ("upper", 1 - low)):
        energies = quasienergy(np.take_along_axis(values, sel, axis=-1)[..., 0])
        states = np.take_along_axis(vectors, sel[..., None, :], axis=-1)[..., 0]
        states, thin = _transport_and_spread(_canonical_phase(states))
        closed = closed | thin
        bands.append(BandData1D(k_samples=ks.copy(), states=states, energies=energies, band_label=label))
    if ops.ndim > 3:
        for band in bands:
            if not np.all(np.isfinite(band.states[~closed])):
                raise FloatingPointError("non-finite band states in a gapped cell")
            band.states[closed] = np.nan
            band.energies[closed] = np.nan
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
    values, vectors = eig2_batch(ops)
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
    produced by band_spectrum_1d the sum recovers it without wrapping.  A
    batch of loops gives one phase per loop, NaN where a link is below
    LINK_TOL; a single loop raises OrthogonalLink there.
    """
    states = band.states
    links = np.sum(np.conj(states) * np.roll(states, -1, axis=-2), axis=-1)
    orthogonal = np.abs(links) < LINK_TOL
    phases = np.where(_on_cut(links), np.pi, np.angle(links))
    if states.ndim > 2:
        return np.where(np.any(orthogonal, axis=-1), np.nan, np.sum(phases, axis=-1))
    if np.any(orthogonal):
        raise OrthogonalLink(f"orthogonal link(s) at k = {band.k_samples[orthogonal]}")
    return float(np.sum(phases))


def winding_number(band: BandData1D) -> WindingResult:
    """Winding number of one band: loop phase / pi (arrays for a batch, NaN w where closed)."""
    total = pancharatnam_phase(band)
    w = total / np.pi
    if np.ndim(w):
        return WindingResult(w=w, is_integer=np.abs(w - np.rint(w)) < INTEGER_TOL, total_phase=total)
    return WindingResult(w=float(w), is_integer=bool(abs(w - round(w)) < INTEGER_TOL), total_phase=total)


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
    if abs(total - c) > INTEGER_TOL:
        raise ArithmeticError(f"plaquette sum {total} is not an integer")
    return c, field

