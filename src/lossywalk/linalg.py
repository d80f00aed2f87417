"""Eigensolvers for walk operators, and the quasi-energy branch convention.

``eig2_batch`` solves stacks of 2x2 unit-determinant operators (every walk
step in the package) analytically: lambda0 = (a + d)/2 +- sqrt(D) with the
backward-stable discriminant D = ((a - d)/2)^2 + bc, lambda1 = 1/lambda0,
and adjugate eigenvectors.  It is vectorized over leading axes and is the
hot path of every momentum-grid computation.  ``eig_general`` takes the
dense NxN spectra of real-space chains and strips through LAPACK
(``numpy.linalg.eig``), in real arithmetic when the matrix is real (every
chain), and returns them in canonical (Re, Im) order.

Quasi-energy branch convention used throughout: an eigenvalue lambda of a
one-step operator corresponds to E = i log(lambda) with the principal
logarithm (``quasienergy``), i.e. Re E = -arg(lambda) in [-pi, pi) and
Im E = log|lambda|.  The principal band has Re E in [0, pi]; on the
degenerate set Re E in {0, pi} the branch with Im E <= 0 (|lambda| <= 1,
the decaying one) is chosen.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def eig2_batch(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized analytic eigendecomposition of a (..., 2, 2) stack of unit-determinant matrices.

    Returns ``(values, vectors)`` with shapes (..., 2) and (..., 2, 2)
    (columns are unit eigenvectors).  The roots are tr/2 +- sqrt(D) with
    D = ((a - d)/2)^2 + bc, which equals (tr/2)^2 - 1 for det = 1 but keeps
    a normal degenerate pair split by O(eps), not O(sqrt(eps)); values[..., 0]
    takes the sign that grows |lambda|, so |lambda0| >= 1, and
    values[..., 1] = 1/lambda0.  No determinant is formed: ad - bc would
    cancel between products of the size of the entries squared.
    A defective matrix yields two equal vectors, +-identity the standard basis.
    The input is not checked for unit determinant.
    """
    m = np.asarray(m, dtype=complex)
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    half_tr, half_diff = 0.5 * (a + d), 0.5 * (a - d)
    disc = np.sqrt(half_diff * half_diff + b * c)
    # avoid cancellation: add the root on the side that grows |lambda|
    flip = np.real(np.conj(half_tr) * disc) < 0
    lam0 = half_tr + np.where(flip, -disc, disc)
    lam1 = 1.0 / lam0
    scale = np.max(np.abs(m), axis=(-2, -1))

    def _vector(lam):
        v1 = np.stack([b, lam - a], axis=-1)
        v2 = np.stack([lam - d, c], axis=-1)
        n1 = np.sum(np.abs(v1) ** 2, axis=-1)
        n2 = np.sum(np.abs(v2) ** 2, axis=-1)
        v = np.where((n1 >= n2)[..., None], v1, v2)
        nrm = np.sqrt(np.sum(np.abs(v) ** 2, axis=-1))
        # scaled identity: no off-diagonal structure at all
        isotropic = nrm <= 1e-14 * np.maximum(1.0, scale)
        v = np.where(isotropic[..., None], np.array([1.0, 0.0]), v)
        nrm = np.where(isotropic, 1.0, nrm)
        return v / nrm[..., None], isotropic

    vec0, iso0 = _vector(lam0)
    vec1, iso1 = _vector(lam1)
    # scaled identity: return the standard basis rather than two copies of e1
    vec1 = np.where((iso0 & iso1)[..., None], np.array([0.0, 1.0]), vec1)
    return np.stack([lam0, lam1], axis=-1), np.stack([vec0, vec1], axis=-1)


def eig_general(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full right eigendecomposition of a dense NxN matrix, in real LAPACK if it is real.

    Returns ``(values, vectors)``, complex either way: the eigenvalues sorted
    by (Re, Im), ascending, and ``vectors[:, i]`` the unit-norm eigenvector
    of ``values[i]``.
    """
    m = np.asarray(m)
    m = m.astype(np.result_type(m, float), copy=False)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order].astype(complex, copy=False)
    vectors = vectors[:, order].astype(complex, copy=False)
    return values, vectors / np.linalg.norm(vectors, axis=0, keepdims=True)


def quasienergy(lam: np.ndarray) -> np.ndarray:
    """E = i log(lambda), principal branch: Re E in [-pi, pi)."""
    lam = np.asarray(lam, dtype=complex)
    return -np.angle(lam) + 1j * np.log(np.abs(lam))
