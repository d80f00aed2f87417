"""Dense complex linear algebra for two-band walk operators.

The 2x2 eigenproblem is solved analytically (quadratic formula plus adjugate
eigenvectors) and is fully vectorized over leading axes; it is the hot path
for every momentum-grid computation in the package.  General NxN spectra
(real-space chains and strips) go through LAPACK via ``numpy.linalg.eig``
behind the same canonical-ordering contract, in real arithmetic when the
matrix is real (every chain) and in complex arithmetic otherwise.

Quasi-energy branch convention used throughout: an eigenvalue lambda of a
one-step operator corresponds to E = i log(lambda) with the principal
logarithm, i.e. Re E = -arg(lambda) in [-pi, pi) and Im E = log|lambda|.
The principal band has Re E in [0, pi]; on the degenerate set Re E in
{0, pi} the branch with Im E <= 0 (|lambda| <= 1, the decaying one) is
chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

DEGENERACY_TOL = 1e-9
BRANCH_TOL = 1e-9


@dataclass
class Eig2Result:
    """Analytic eigendecomposition of a 2x2 matrix.

    ``vectors[:, i]`` is the unit eigenvector of ``values[i]``.  For a
    degenerate spectrum ``degenerate`` is set; a defective matrix yields two
    equal vectors, a scaled identity yields the standard basis.
    """

    values: np.ndarray
    vectors: np.ndarray
    degenerate: bool


@dataclass
class BlochDecomposition:
    """Complex quasi-energy E and complex Bloch vector n with n.n = 1.

    The underlying generator is H = E n.sigma, so U = exp(-i E n.sigma).
    ``n`` is None when the gap is closed (|sin E| ~ 0) and the direction is
    undefined; ``branch_ambiguous`` flags Re E within tolerance of {0, pi}.
    """

    energy: complex
    n: np.ndarray | None
    branch_ambiguous: bool = False


def _check_finite(m: np.ndarray, dtype=complex) -> np.ndarray:
    m = np.asarray(m, dtype=dtype)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def eig2_batch(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized analytic eigendecomposition of a (..., 2, 2) stack.

    Returns ``(values, vectors, degenerate)`` with shapes (..., 2),
    (..., 2, 2) (columns are eigenvectors) and (...,) bool.
    """
    m = np.asarray(m, dtype=complex)
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    half_tr = 0.5 * (a + d)
    det = a * d - b * c
    disc = np.sqrt(half_tr * half_tr - det)
    # avoid cancellation: add the root on the side that grows |lambda|
    flip = np.real(np.conj(half_tr) * disc) < 0
    disc = np.where(flip, -disc, disc)
    lam0 = half_tr + disc
    # second root from the product when safe, from the sum otherwise
    small = np.abs(lam0) < 1e-300
    lam1 = np.where(small, half_tr - disc, det / np.where(small, 1.0, lam0))

    scale = np.max(np.abs(m), axis=(-2, -1))
    degenerate = np.abs(lam0 - lam1) <= DEGENERACY_TOL * np.maximum(1.0, scale)

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

    values = np.stack([lam0, lam1], axis=-1)
    vectors = np.stack([vec0, vec1], axis=-1)
    return values, vectors, degenerate


def eig2(m: np.ndarray) -> Eig2Result:
    """Analytic eigendecomposition of a single 2x2 complex matrix."""
    m = _check_finite(m)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    values, vectors, degenerate = eig2_batch(m)
    return Eig2Result(values=values, vectors=vectors, degenerate=bool(degenerate))


def eig_general(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full right eigendecomposition of a dense NxN matrix, in real LAPACK if it is real.

    Returns ``(values, vectors)``, complex either way: the eigenvalues sorted
    by (Re, Im), ascending, and ``vectors[:, i]`` the unit-norm eigenvector
    of ``values[i]``.
    """
    m = _check_finite(m, np.result_type(np.asarray(m), float))
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


def is_unitary(m: np.ndarray, tol: float) -> bool:
    """True iff max|M^dag M - I| <= tol."""
    m = _check_finite(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("is_unitary expects a square matrix")
    gram = m.conj().T @ m
    return bool(np.max(np.abs(gram - np.eye(m.shape[0]))) <= tol)


def quasienergy(lam: np.ndarray) -> np.ndarray:
    """E = i log(lambda), principal branch: Re E in [-pi, pi)."""
    lam = np.asarray(lam, dtype=complex)
    return -np.angle(lam) + 1j * np.log(np.abs(lam))


def principal_quasienergy_pair(values: np.ndarray) -> tuple[complex, complex]:
    """Split a det-1 eigenvalue pair into (principal E, its eigenvalue).

    Picks the eigenvalue whose quasi-energy has Re in (0, pi); when both lie
    on the degenerate set Re in {0, pi} (real eigenvalues) the decaying
    branch (|lambda| <= 1, Im E <= 0) is chosen and Re E = -pi is folded to
    +pi.
    """
    es = quasienergy(values)
    for i in (0, 1):
        if BRANCH_TOL < es[i].real < np.pi - BRANCH_TOL:
            return complex(es[i]), complex(values[i])
    # both on the branch boundary: prefer |lambda| <= 1
    i = int(np.argmin(np.abs(values)))
    e = es[i]
    re = e.real + 2.0 * np.pi if e.real < -np.pi + BRANCH_TOL else e.real
    return complex(re + 1j * e.imag), complex(values[i])


def hamiltonian_from_unitary(u: np.ndarray) -> BlochDecomposition:
    """Extract (E, n) with u = exp(-i E n.sigma) for a det-1 2x2 operator.

    E is the principal quasi-energy (Re E in [0, pi]); n is normalized under
    the complex bilinear form n.n = 1.  ``branch_ambiguous`` is set when
    Re E is within 1e-9 of {0, pi} (gap closing: the two branches +-E merge
    and the direction n is no longer uniquely defined; n is still returned
    whenever |sin E| is non-negligible, as happens for real eigenvalue pairs
    off the unit circle).
    """
    u = _check_finite(u)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise ValueError(f"operator must have unit determinant, |det-1| = {abs(det - 1.0):.2e}")
    values, _, _ = eig2_batch(u)
    energy, _ = principal_quasienergy_pair(values)
    ambiguous = min(abs(energy.real), abs(energy.real - np.pi)) <= BRANCH_TOL
    sin_e = np.sin(energy)
    if abs(sin_e) < 1e-12:
        return BlochDecomposition(energy=energy, n=None, branch_ambiguous=True)
    # u = cos(E) I - i sin(E) n.sigma  =>  n.sigma = (cos(E) I - u) / (i sin E)
    ns = (np.cos(energy) * IDENTITY_2 - u) / (1j * sin_e)
    n = np.array(
        [
            0.5 * (ns[0, 1] + ns[1, 0]),
            0.5j * (ns[0, 1] - ns[1, 0]),
            ns[0, 0],
        ],
        dtype=complex,
    )
    return BlochDecomposition(energy=energy, n=n, branch_ambiguous=bool(ambiguous))


def exp_bloch(energy: complex, n: np.ndarray) -> np.ndarray:
    """exp(-i E n.sigma) = cos(E) I - i sin(E) n.sigma for bilinear-unit n."""
    n = np.asarray(n, dtype=complex)
    ndots = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return np.cos(energy) * IDENTITY_2 - 1j * np.sin(energy) * ndots
