"""Shared comparison helpers and independent oracle builds for the test suite."""

import numpy as np

from lossywalk.errors import GapClosure, OrthogonalLink
from lossywalk.invariants import (
    CUT_REL_TOL, DEGENERACY_TOL, GAP_COLLISION_TOL, LINK_TOL, BandData1D, band_spectrum_1d, winding_number,
)
from lossywalk.lattice import build_strip_operator
from lossywalk.linalg import eig2_batch, eig2_vector, quasienergy
from lossywalk.sweeps import STATUS_ERROR, STATUS_GAP_CLOSED, STATUS_OK
from lossywalk.walks import WalkParams1D, momentum_grid, u1d_ssqw_k, u2d_k


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def is_unitary(m, tol):
    """True iff max|M^dag M - I| <= tol."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def exp_bloch(energy, n):
    """exp(-i E n.sigma) = cos(E) I - i sin(E) n.sigma for a bilinear-unit n."""
    n_sigma = np.array([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]])
    return np.cos(energy) * np.eye(2) - 1j * np.sin(energy) * n_sigma


def bloch_axis(u, energy):
    """n with u = cos(E) I - i sin(E) n.sigma, from tr(sigma_j u) = -2i sin(E) n_j."""
    n = [u[0, 1] + u[1, 0], 1j * (u[0, 1] - u[1, 0]), u[0, 0] - u[1, 1]]
    return np.array(n) * 0.5j / np.sin(energy)


def eig2_pair(m):
    """(values, vectors) of a (..., 2, 2) stack with both eigenvector columns.

    The values are ``eig2_batch``'s; column j of vectors is the
    ``eig2_vector`` of values[..., j], the two-column decomposition that no
    library caller needs.
    """
    values, entries = eig2_batch(m)
    columns = [eig2_vector(entries, values[..., j]) for j in (0, 1)]
    return values, np.stack(columns, axis=-1)


def branch_dist(a, b):
    """Distance between quasi-energies with the real part compared mod 2 pi, elementwise."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    dr = (a.real - b.real + np.pi) % (2.0 * np.pi) - np.pi
    return np.abs(dr + 1j * (a.imag - b.imag))


def chain_operator_by_rolls(n_sites, spec, gamma):
    """Split-step chain operator built from its action on coin-state arrays.

    A check on ``lattice.build_chain_operator`` that shares no code with it
    or with ``chain_operator_by_matmul``: the amplitudes psi[site, spin] of every basis
    vector are rotated site by site, scaled per spin, and half-shifted with
    np.roll (spin up one site forward, spin down one site back on the ring),
    in the order U = T_down G R(theta2) T_up G^-1 R(theta1).  Site i sits at
    n = i - (N - 1) / 2 and is inner when |n| <= spec.boundary; column j is
    the image of basis vector j = 2 * site + spin.
    """
    coords = np.arange(n_sites) - (n_sites - 1) // 2
    inner = np.abs(coords) <= spec.boundary
    t1 = np.where(inner, spec.params_inner[0], spec.params_outer[0])
    t2 = np.where(inner, spec.params_inner[1], spec.params_outer[1])
    psi = np.eye(2 * n_sites, dtype=complex).reshape(n_sites, 2, 2 * n_sites)

    def rotate(psi, theta):
        c, s = np.cos(theta / 2.0)[:, None], np.sin(theta / 2.0)[:, None]
        up, down = psi[:, 0], psi[:, 1]
        return np.stack([c * up - s * down, s * up + c * down], axis=1)

    def scale(psi, delta):
        return psi * np.exp([delta, -delta])[None, :, None]

    psi = scale(rotate(psi, t1), -gamma)
    psi[:, 0] = np.roll(psi[:, 0], 1, axis=0)
    psi = scale(rotate(psi, t2), gamma)
    psi[:, 1] = np.roll(psi[:, 1], -1, axis=0)
    return psi.reshape(2 * n_sites, 2 * n_sites)


def _rotation_blockdiag(thetas):
    n = len(thetas)
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    c, s = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    idx = np.arange(n)
    m[2 * idx, 2 * idx] = c
    m[2 * idx, 2 * idx + 1] = -s
    m[2 * idx + 1, 2 * idx] = s
    m[2 * idx + 1, 2 * idx + 1] = c
    return m


def _ring_shift(n, up, down):
    """Spin up hops ``up`` sites and spin down ``down`` sites on the ring, as a dense matrix."""
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    idx = np.arange(n)
    m[2 * ((idx + up) % n), 2 * idx] = 1.0
    m[2 * ((idx + down) % n) + 1, 2 * idx + 1] = 1.0
    return m


def _spin_diag(n, up, down):
    d = np.empty(2 * n, dtype=complex)
    d[0::2] = up
    d[1::2] = down
    return np.diag(d)


def chain_operator_by_matmul(n_sites, spec, gamma):
    """T_down G R(theta2) T_up G^-1 R(theta1) as a product of dense 2N x 2N factors."""
    t1, t2 = spec.angles(n_sites)
    g = _spin_diag(n_sites, np.exp(gamma), np.exp(-gamma))
    g_inv = _spin_diag(n_sites, np.exp(-gamma), np.exp(gamma))
    return (_ring_shift(n_sites, 0, -1) @ g @ _rotation_blockdiag(t2)
            @ _ring_shift(n_sites, 1, 0) @ g_inv @ _rotation_blockdiag(t1))


def strip_operator_by_matmul(n_y, spec, kx, gamma_x, gamma_y):
    """G_y T_y R(t1) G_y^-1 T_y R(t2) G_x T_x R(t1) G_x^-1 T_x with dense 2N x 2N factors."""
    t1, t2 = spec.angles(n_y)
    r1, r2 = _rotation_blockdiag(t1), _rotation_blockdiag(t2)
    ty = _ring_shift(n_y, 1, -1)
    tx = _spin_diag(n_y, np.exp(1j * kx), np.exp(-1j * kx))
    gx = _spin_diag(n_y, np.exp(gamma_x), np.exp(-gamma_x))
    gx_inv = _spin_diag(n_y, np.exp(-gamma_x), np.exp(gamma_x))
    gy = _spin_diag(n_y, np.exp(gamma_y), np.exp(-gamma_y))
    gy_inv = _spin_diag(n_y, np.exp(-gamma_y), np.exp(gamma_y))
    return gy @ ty @ r1 @ gy_inv @ ty @ r2 @ gx @ tx @ r1 @ gx_inv @ tx


def strip_bands_by_loop(spec, n_y, kx_samples, gamma_x, gamma_y):
    """(kx grid, sorted Re E rows) with one eigvals call per kx, no symmetry used."""
    ks = -np.pi + 2.0 * np.pi * np.arange(kx_samples) / kx_samples
    rows = np.empty((kx_samples, 2 * n_y))
    for i, kx in enumerate(ks):
        lam = np.linalg.eigvals(build_strip_operator(n_y, spec, kx, gamma_x, gamma_y))
        rows[i] = np.sort(quasienergy(lam).real)
    return ks, rows


def winding_row_by_cells(cells):
    """(values, statuses) of a winding row from one scalar call per cell.

    Each (theta1, theta2, gamma, n_k) cell gets its own band_spectrum_1d and
    winding_number call; a gap closure or vanishing link is gap_closed, any
    other exception is error, both with a NaN value.
    """
    vals = np.full(len(cells), np.nan)
    stat = np.full(len(cells), STATUS_OK, dtype=np.uint8)
    for j, (theta1, theta2, gamma, n_k) in enumerate(cells):
        try:
            lower = band_spectrum_1d(WalkParams1D(theta1, theta2, gamma), n_k)
            vals[j] = winding_number(lower).w
        except (GapClosure, OrthogonalLink):
            stat[j] = STATUS_GAP_CLOSED
        except Exception:
            stat[j] = STATUS_ERROR
    return vals, stat


def _eig_lower_first(m):
    """(values, vectors, least |lambda0 - lambda1|) of a (..., 2, 2) stack from LAPACK.

    np.linalg.eig diagonalizes the whole stack; the pairs are reordered so
    that column 0 is the lower band, the smaller (Re E, Im E) with real
    parts within DEGENERACY_TOL mod 2 pi tied.  Colliding eigenvalues raise
    GapClosure.
    """
    values, vectors = np.linalg.eig(m)
    separation = np.min(np.abs(values[..., 0] - values[..., 1]))
    if separation < GAP_COLLISION_TOL:
        raise GapClosure([])
    e = quasienergy(values)
    tie = np.abs(np.angle(np.exp(1j * (e[..., 0].real - e[..., 1].real)))) < DEGENERACY_TOL
    second = np.where(tie, e[..., 1].imag < e[..., 0].imag, e[..., 1].real < e[..., 0].real)
    order = np.stack([second, ~second], axis=-1).astype(int)
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    return values, vectors, separation


def winding_by_eig(p, n):
    """(w, least |lambda0 - lambda1|) of the lower 1D band from LAPACK.

    The lower unit vectors of ``_eig_lower_first`` on the momentum_grid(n)
    loop give the holonomy as the angle of the product of the unit link
    overlaps, in (-pi, pi] and +pi within CUT_REL_TOL of +-pi; w is it over
    pi.  A vanishing link raises OrthogonalLink.
    """
    _, vectors, separation = _eig_lower_first(u1d_ssqw_k(p, momentum_grid(n)))
    s = vectors[..., 0]
    links = np.sum(np.conj(s) * np.roll(s, -1, axis=0), axis=-1)
    if np.min(np.abs(links)) < LINK_TOL:
        raise OrthogonalLink("vanishing link")
    phi = np.angle(np.prod(links / np.abs(links)))
    if np.pi - abs(phi) <= CUT_REL_TOL:
        phi = np.pi
    return phi / np.pi, separation


def upper_band_by_eig(p, n):
    """The upper 1D band on the momentum_grid(n) loop, LAPACK's unit vectors."""
    ks = momentum_grid(n)
    _, vectors, _ = _eig_lower_first(u1d_ssqw_k(p, ks))
    return BandData1D(k_samples=ks, states=vectors[..., 1])


def chern_by_eig(p, n):
    """(C, four-link field, least |lambda0 - lambda1|) of the lower 2D band from LAPACK.

    ``_eig_lower_first`` diagonalizes band_spectrum_2d's quarter-offset
    n x n grid in one batch.  Each plaquette multiplies its four link
    overlaps in turn.  Colliding eigenvalues raise GapClosure, a vanishing
    link OrthogonalLink.
    """
    q = (-np.pi + 2.0 * np.pi * (np.arange(n) + 0.25) / n) / 2.0
    _, vectors, separation = _eig_lower_first(u2d_k(p, q[:, None], q[None, :]))
    s = vectors[..., 0]
    corners = [s, np.roll(s, -1, axis=0), np.roll(np.roll(s, -1, axis=0), -1, axis=1), np.roll(s, -1, axis=1)]
    links = [np.sum(np.conj(corners[i]) * corners[(i + 1) % 4], axis=-1) for i in range(4)]
    if min(np.min(np.abs(link)) for link in links) < LINK_TOL:
        raise OrthogonalLink("vanishing plaquette link")
    field = np.angle(links[0] * links[1] * links[2] * links[3])
    return int(np.rint(field.sum() / (2.0 * np.pi))), field, separation


def _diag(d0, d1):
    d0, d1 = np.broadcast_arrays(np.asarray(d0, dtype=complex), np.asarray(d1, dtype=complex))
    out = np.zeros(d0.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = d0
    out[..., 1, 1] = d1
    return out


def _coin(theta):
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _shift(k):
    return _diag(np.exp(1j * np.asarray(k)), np.exp(-1j * np.asarray(k)))


def _shift_up(k):
    return _diag(np.exp(1j * np.asarray(k)), 1.0)


def _shift_down(k):
    return _diag(1.0, np.exp(-1j * np.asarray(k)))


def _scaling(delta):
    return _diag(np.exp(delta), np.exp(-delta))


def dtqw_by_matmul(theta, k):
    """T(k) R(theta) as a stacked (..., 2, 2) @ product."""
    return _shift(k) @ _coin(theta)


def ssqw_by_matmul(p, k):
    """T_down G R(theta2) T_up G^-1 R(theta1) as a stacked @ chain."""
    d = p.delta
    return (_shift_down(k) @ _scaling(d) @ _coin(p.theta2) @ _shift_up(k)
            @ _scaling(-d) @ _coin(p.theta1))


def ssqw_timesym_by_matmul(p, k):
    """R(theta1/2) T_down G R(theta2) T_up G^-1 R(theta1/2) as a stacked @ chain."""
    d, half = p.delta, _coin(p.theta1 / 2.0)
    return (half @ _shift_down(k) @ _scaling(d) @ _coin(p.theta2) @ _shift_up(k)
            @ _scaling(-d) @ half)


def u2d_by_matmul(p, kx, ky):
    """G_y T_y R(t1) G_y^-1 T_y R(t2) G_x T_x R(t1) G_x^-1 T_x as a stacked @ chain."""
    r1, r2 = _coin(p.theta1), _coin(p.theta2)
    gx, gy = _scaling(p.gamma_x), _scaling(p.gamma_y)
    gx_inv, gy_inv = _scaling(-p.gamma_x), _scaling(-p.gamma_y)
    tx, ty = _shift(kx), _shift(ky)
    return gy @ ty @ r1 @ gy_inv @ ty @ r2 @ gx @ tx @ r1 @ gx_inv @ tx


def u2d_triangular_by_matmul(theta1, theta2, kx, ky):
    """T_xy R(t1) T_y R(t2) T_x R(t1), T_xy = T(kx + ky), as a stacked @ chain."""
    kx, ky = np.asarray(kx, dtype=float), np.asarray(ky, dtype=float)
    r1 = _coin(theta1)
    return _shift(kx + ky) @ r1 @ _shift(ky) @ _coin(theta2) @ _shift(kx) @ r1


def assert_multiset_close(got, want, tol):
    """Greedy nearest matching of two complex multisets."""
    got = list(np.asarray(got, dtype=complex))
    want = list(np.asarray(want, dtype=complex))
    assert len(got) == len(want)
    for g in got:
        dists = [abs(g - w) for w in want]
        j = int(np.argmin(dists))
        assert dists[j] < tol, f"no partner for {g}; best {dists[j]:.2e}"
        want.pop(j)
