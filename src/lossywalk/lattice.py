"""Real-space walk operators with inhomogeneous coin angles.

Two geometries: a closed 1D chain whose coin angles differ between an inner
region |n| <= L_B and the rest of the ring, and a 2D strip periodic along x
(x enters as a momentum parameter) with the same two-region split along the
y ring.  Basis ordering is site-major with a two-component coin per site:
index = 2 * site + spin, spin 0 = up, 1 = down, and site i corresponds to
lattice coordinate n = i - (N - 1) / 2 on the ring of odd length N.

Evaluation: an operator is held as the tuple of its four spin blocks
(up-up, up-down, down-up, down-down), each an (N, N) array over sites, and
is built with the entry-tuple algebra of ``walks`` (``_rot``, ``_mul``,
``_rows``, ``_phase``).  A site-local factor has (N, 1) column
entries, so coins act elementwise and G, T_x act as row scalings; the
real-space shifts T_up, T_down and T are cyclic row rolls of the spin-up
and spin-down blocks (``_hop``).  A build is therefore O(N^2) elementwise
work with no matrix product, and the 2N x 2N matrix is interleaved once,
at the end.  The strip's x half is ``walks._x_half``, the function that
builds the x half of ``walks.u2d_k``.

The homogeneous limit block-diagonalizes over the momentum grid, which the
tests use as the strongest integration check: the chain (strip) spectrum
equals the union of the 2x2 momentum-space spectra.

The strip operator has two exact symmetries in kx: U(-kx) = conj(U(kx)),
bit for bit, and U(kx + pi) = U(kx), because T_x enters twice.  The grid
functions ``strip_band_structure`` and ``strip_gap_states_grid`` therefore
diagonalize once per symmetry class of the kx grid (``_kx_classes``) and
fill the partner rows from it; ``strip_band_structure`` does so in real
arithmetic where 2 kx is a multiple of pi.

Dense solves run at one BLAS thread (``linalg.eig_general``), so their
bits do not depend on the environment.  The grid functions take
``workers`` as the sweeps do and fan their class representatives out over
the process pool (``pool``); each result lands in its class's rows, so the
output is the same at every worker count.

One loop reports the edge states of both geometries: a state is an edge
state when its site marginal peaks within ``EDGE_WINDOW`` sites of a region
boundary and, on the chain only, its inverse participation ratio reaches
``EDGE_IPR_MIN``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidRegion
from .linalg import eig_general, quasienergy
from .pool import _run_dense
from .walks import WalkParams2D, _mul, _phase, _rot, _rows, _x_half, momentum_grid, quasi_energy_2d

__all__ = [
    "RegionSpec",
    "EdgeStateReport",
    "StripBands",
    "build_chain_operator",
    "chain_spectrum",
    "detect_edge_states",
    "build_strip_operator",
    "strip_band_structure",
    "strip_gap_states",
    "strip_gap_states_grid",
]


def _site_coords(n_sites: int) -> np.ndarray:
    return np.arange(n_sites) - (n_sites - 1) // 2


@dataclass(frozen=True)
class RegionSpec:
    """Two-region split of a ring: |n| <= boundary inner, |n| > boundary outer."""

    boundary: int
    params_inner: tuple[float, float]
    params_outer: tuple[float, float]

    def validate(self, n_sites: int) -> None:
        if n_sites % 2 != 1:
            raise InvalidRegion(f"ring size must be odd, got {n_sites}")
        if not 0 < self.boundary < (n_sites - 1) // 2:
            raise InvalidRegion(
                f"boundary {self.boundary} outside (0, {(n_sites - 1) // 2}) for {n_sites} sites"
            )

    def angles(self, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-site (theta1, theta2) arrays on the centered ring."""
        inner = np.abs(_site_coords(n_sites)) <= self.boundary
        t1 = np.where(inner, self.params_inner[0], self.params_outer[0])
        t2 = np.where(inner, self.params_inner[1], self.params_outer[1])
        return t1, t2


EDGE_WINDOW = 10  # sites between a state's peak and a region boundary
EDGE_IPR_MIN = 0.05  # inverse participation ratio a chain edge state reaches
# |Im lambda| up to which a chain eigenvalue counts as real, without and with
# loss (``detect_edge_states``; docs/NOTES.md, "Chain real-axis tolerances")
CHAIN_REAL_TOL = 1e-6
CHAIN_REAL_TOL_LOSSY = 1e-4


@dataclass(frozen=True)
class EdgeStateReport:
    """One selected eigenvalue with its localization diagnostics.

    ``profile`` is the state's normalized spin-summed probability per site,
    in site order; it takes no part in ``==`` or ``hash``.
    """

    eigenvalue: complex
    quasi_energy: complex
    ipr: float
    peak_site: int
    is_edge: bool
    profile: np.ndarray = field(repr=False, compare=False)


@dataclass
class StripBands:
    """Real quasi-energy bands of the strip, row per transverse momentum."""

    kx: np.ndarray
    re_energies: np.ndarray  # (n_kx, 2 n_y), each row sorted ascending


def _hop(m, up: int, down: int):
    """Cyclic shift of the spin-up rows by ``up`` sites and the spin-down rows by ``down``.

    T_up is ``_hop(m, 1, 0)``, T_down ``_hop(m, 0, -1)`` and the full
    conditional shift T ``_hop(m, 1, -1)``, each applied from the left.
    """
    m00, m01, m10, m11 = m
    return (np.roll(m00, up, 0), np.roll(m01, up, 0), np.roll(m10, down, 0), np.roll(m11, down, 0))


def _dense(m, n: int):
    """Spin blocks of a site-diagonal operator whose entries are (n, 1) columns."""
    eye = np.eye(n)
    return tuple(e * eye for e in m)


def _interleave(m) -> np.ndarray:
    """2n x 2n matrix, entry [2 i + s, 2 j + t] = block (s, t) at [i, j], in the blocks' dtype."""
    n = m[0].shape[0]
    out = np.empty((n, 2, n, 2), dtype=np.result_type(*m))
    out[:, 0, :, 0], out[:, 0, :, 1], out[:, 1, :, 0], out[:, 1, :, 1] = m
    return out.reshape(2 * n, 2 * n)


def build_chain_operator(n_sites: int, spec: RegionSpec, gamma: float) -> np.ndarray:
    """One step of the split-step walk on a two-region closed chain.

    U = T_down G R(theta2(n)) T_up G^-1 R(theta1(n)) with cyclic half-shifts,
    per-site rotation angles from ``spec`` and a homogeneous gain/loss factor
    G = diag(e^gamma, e^-gamma) on every site.  Every factor is real, and
    so is the returned float64 matrix.
    """
    spec.validate(n_sites)
    t1, t2 = spec.angles(n_sites)
    m = _hop(_rows(_phase(-gamma), _dense(_rot(t1[:, None]), n_sites)), 1, 0)
    m = _hop(_rows(_phase(gamma), _mul(_rot(t2[:, None]), m)), 0, -1)
    return _interleave(m)


def chain_spectrum(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eig_general`` of a chain/strip operator: (Re, Im)-sorted values, unit vector columns."""
    return eig_general(op)


def _reports(values, vectors, keep, boundary: int, ipr_min: float) -> list[EdgeStateReport]:
    """One report per index of ``keep``, in its order.

    The IPR and peak site are read from the state's ``profile``; ``is_edge``
    marks a peak within ``EDGE_WINDOW`` sites of either region boundary
    +-``boundary`` with ipr >= ``ipr_min``.
    """
    es = quasienergy(values)
    out = []
    for i in keep:
        v = vectors[:, i]
        probs = np.abs(v[0::2]) ** 2 + np.abs(v[1::2]) ** 2
        probs = probs / probs.sum()
        peak = int(_site_coords(len(probs))[int(np.argmax(probs))])
        ipr = float(np.sum(probs**2))
        near = min(abs(peak - boundary), abs(peak + boundary)) <= EDGE_WINDOW
        out.append(EdgeStateReport(eigenvalue=complex(values[i]), quasi_energy=complex(es[i]),
                                   ipr=ipr, peak_site=peak, is_edge=bool(near and ipr >= ipr_min),
                                   profile=probs))
    return out


def detect_edge_states(values: np.ndarray, vectors: np.ndarray, real_axis_tol: float,
                       boundary: int) -> list[EdgeStateReport]:
    """Pick the near-real eigenvalues of a ``chain_spectrum`` and rate their localization.

    A state is flagged ``is_edge`` when its inverse participation ratio over
    site marginals reaches ``EDGE_IPR_MIN`` and the marginal peaks within
    ``EDGE_WINDOW`` sites of either region boundary +-``boundary``.
    """
    near_real = (np.abs(values.imag) <= real_axis_tol) & (np.abs(values.real) > real_axis_tol)
    return _reports(values, vectors, np.flatnonzero(near_real), boundary, EDGE_IPR_MIN)


def build_strip_operator(
    n_y: int,
    spec: RegionSpec,
    kx: float,
    gamma_x: float,
    gamma_y: float,
) -> np.ndarray:
    """One step of the lossy 2D walk on a y-ring at fixed transverse momentum.

    U = G_y T_y R(t1(y)) G_y^-1 T_y R(t2(y)) G_x T_x R(t1(y)) G_x^-1 T_x with
    T_y the full conditional shift on the y ring, T_x(kx) the momentum-space
    phase diag(e^{i kx}, e^{-i kx}) on every site, and coin angles split by
    region along y.  The x half is site-diagonal: ``walks._x_half``, as in
    ``walks.u2d_k``, at per-site angles; the y half hops where ``u2d_k``
    multiplies by the phase of T_y.
    """
    spec.validate(n_y)
    t1, t2 = spec.angles(n_y)
    r1 = _rot(t1[:, None])
    x_half = _x_half(r1, t2[:, None], 1j * kx, gamma_x)
    m = _hop(_rows(_phase(-gamma_y), _dense(x_half, n_y)), 1, -1)
    m = _hop(_rows(_phase(gamma_y), _mul(r1, m)), 1, -1)
    return _interleave(m)


def _kx_classes(n: int) -> list[tuple[int, bool, bool]]:
    """(representative, mirrored, real) for each point kx_j = -pi + 2 pi j / n of the grid.

    The class of j is {j, j + n/2, n - j, n - j + n/2} mod n (the n/2 shifts,
    kx -> kx + pi, only for even n; n - j is -kx).  Its representative is its
    smallest index, which the grid functions diagonalize; every other row is
    a copy of it (kx + pi) or its mirror (-kx, possibly with + pi).  A pure
    mirror is preferred over a copy: where -kx_j is exactly a grid point, the
    mirrored row is bit-equal to a direct solve.  There are n // 4 + 1
    classes for even n and (n + 1) // 2 for odd n.  A class is ``real`` when
    4 rep / n is an integer (2 kx in pi Z): its operator is real, and every
    other member is a copy.
    """
    half = n // 2 if n % 2 == 0 else 0
    out = []
    for j in range(n):
        mirror, copy = (n - j) % n, (j + half) % n
        rep = min(j, mirror, copy, (mirror + half) % n)
        real = 4 * rep % n == 0
        out.append((rep, not real and rep != j and (rep == mirror or rep != copy), real))
    return out


def _band_row(args) -> np.ndarray:
    """Sorted Re E of the strip at one kx, from its real part when ``real``."""
    n_y, spec, kx, gamma_x, gamma_y, real = args
    op = build_strip_operator(n_y, spec, kx, gamma_x, gamma_y)
    return np.sort(quasienergy(eig_general(op.real if real else op, vectors=False)).real)


def strip_band_structure(
    spec: RegionSpec,
    n_y: int,
    kx_samples: int,
    gamma_x: float,
    gamma_y: float,
    workers: int | None = None,
) -> StripBands:
    """Real parts of the strip quasi-energies over a transverse-momentum grid.

    Only one kx per symmetry class is diagonalized (its real part for a real
    class), in a pool of ``workers``.  A mirrored row is the
    representative's row negated and reversed: Re E = -angle(lambda), and
    the eigenvalues at -kx are conjugates.
    """
    ks = momentum_grid(kx_samples)
    classes = _kx_classes(kx_samples)
    reps = [j for j, (rep, _, _) in enumerate(classes) if rep == j]
    tasks = [(n_y, spec, ks[j], gamma_x, gamma_y, classes[j][2]) for j in reps]
    solved = dict(zip(reps, _run_dense(_band_row, tasks, workers)))
    rows = np.empty((kx_samples, 2 * n_y))
    for j, (rep, mirrored, _) in enumerate(classes):
        rows[j] = -solved[rep][::-1] if mirrored else solved[rep]
    return StripBands(kx=ks, re_energies=rows)


def bulk_gap_half_width(
    spec: RegionSpec,
    n_y: int,
    kx: float,
    gamma_x: float,
    gamma_y: float,
) -> float:
    """Smallest |Re E| of the two homogeneous bulks at this transverse momentum."""
    kys = momentum_grid(n_y) / 2.0
    half = np.inf
    for t1, t2 in (spec.params_inner, spec.params_outer):
        p = WalkParams2D(t1, t2, gamma_x, gamma_y)
        half = min(half, float(np.min(np.abs(quasi_energy_2d(p, kx, kys).real))))
    return half


_GAP_MARGIN = 1e-3  # reported states lie this far inside the gap window


def strip_gap_states(
    spec: RegionSpec,
    n_y: int,
    kx: float,
    gamma_x: float,
    gamma_y: float,
    gap_half: float,
) -> list[EdgeStateReport]:
    """States of the strip whose Re E falls inside the bulk gap around E = 0, by ascending Re E.

    ``gap_half`` is the window half-width: ``bulk_gap_half_width`` at the
    same scaling factors, or a fixed reference (e.g. the zero-loss gap) to
    count states inside one window across a loss sweep.  Reported states lie
    strictly inside the window by ``_GAP_MARGIN``; their IPR and peak site
    are as in detect_edge_states, and ``is_edge`` marks a peak within
    ``EDGE_WINDOW`` sites of either region boundary, with no IPR threshold.
    """
    values, vectors = eig_general(build_strip_operator(n_y, spec, kx, gamma_x, gamma_y))
    re = quasienergy(values).real
    order = np.argsort(re, kind="stable")
    keep = order[np.abs(re[order]) < gap_half - _GAP_MARGIN]
    return _reports(values, vectors, keep, spec.boundary, 0.0)


def _gap_states(args) -> list[EdgeStateReport]:
    return strip_gap_states(*args)


def strip_gap_states_grid(
    spec: RegionSpec,
    n_y: int,
    kx_samples: int,
    gamma_x: float,
    gamma_y: float,
    gap_half: np.ndarray,
    workers: int | None = None,
) -> list[list[EdgeStateReport]]:
    """``strip_gap_states`` at every point of the ``strip_band_structure`` grid.

    ``gap_half`` is one window half-width per kx.  The strip is
    diagonalized once per symmetry class, by ``strip_gap_states`` in the
    widest window of the class and in a pool of ``workers``; each row then
    keeps the states inside its own window.  A mirrored row holds the
    conjugate eigenvalues, quasi-energies -conj(E) and the same profile,
    IPR, peak site and ``is_edge``, since its eigenvectors are the complex
    conjugates and conjugate vectors have equal site marginals.  A copied
    row (kx + pi, or the other member of a real class) holds the
    representative's states, equal to the per-kx call up to rounding.
    """
    ks = momentum_grid(kx_samples)
    halves = np.asarray(gap_half, dtype=float)
    if halves.shape != ks.shape:
        raise ValueError(f"gap_half has shape {halves.shape}, expected ({kx_samples},)")
    classes = _kx_classes(kx_samples)
    widest: dict[int, float] = {}
    for j, (rep, _, _) in enumerate(classes):
        widest[rep] = max(widest.get(rep, -np.inf), halves[j])
    tasks = [(spec, n_y, float(ks[rep]), gamma_x, gamma_y, half) for rep, half in widest.items()]
    found = dict(zip(widest, _run_dense(_gap_states, tasks, workers)))
    out = []
    for j, (rep, mirrored, _) in enumerate(classes):
        kept = [s for s in found[rep] if abs(s.quasi_energy.real) < halves[j] - _GAP_MARGIN]
        if mirrored:
            kept = [replace(s, eigenvalue=s.eigenvalue.conjugate(),
                            quasi_energy=-s.quasi_energy.conjugate()) for s in reversed(kept)]
        out.append(kept)
    return out
