"""Eigensolvers for walk operators, and the quasi-energy branch convention.

Stacks of 2x2 unit-determinant operators (every walk step in the package)
are solved analytically in two steps, both vectorized over leading axes
and the hot path of every momentum-grid computation.  ``_eig2`` is the
eigenvalue step on the four entry arrays: lambda0 = (a + d)/2 +- sqrt(D)
with the backward-stable discriminant D = ((a - d)/2)^2 + bc, and
lambda1 = 1/lambda0; ``eig2_batch`` applies it to a (..., 2, 2) stack.
``eig2_vector`` is the vector step: the unit adjugate eigenvector of one
chosen eigenvalue per matrix, so a caller that needs one band builds one
vector and a caller that needs only the spectrum builds none.
``eig_general`` is the one dense LAPACK entry point: the NxN spectra of
real-space chains and strips (``numpy.linalg.eig``, or ``eigvals`` for
values only), in real arithmetic when the matrix is real (every chain).

``_process_policy`` sets the process up once, through ``ctypes``, wherever
the package takes a process over: before LAPACK (``eig_general``), before
the pool's first row or fork (``pool``; workers inherit it) and once the
CLI's arguments parse.  It pins the OpenBLAS that numpy loaded to one
thread: a second thread buys nothing at the package's sizes, and LAPACK's
bits depend on the thread count, so outputs are the same under any
``OPENBLAS_NUM_THREADS`` and the cores go to the pool.  And it raises
glibc's mmap and trim thresholds, so numpy's freed temporaries stay in the
heap, not faulted in again page by page.  Nothing restores either half: a
restore would restart OpenBLAS's thread pool after every fan-out.  A
library loop over the band or EP functions keeps its caller's allocator.
Without OpenBLAS (``_openblas`` returns None) dense solves stay serial.

Quasi-energy branch convention: an eigenvalue lambda of a one-step
operator corresponds to E = i log(lambda) with the principal logarithm
(``quasienergy``), i.e. Re E = -arg(lambda) in [-pi, pi) and
Im E = log|lambda|.  The two bands are E and -E.  The closed forms
(``walks._principal_arccos``) return the band with Re E in [0, pi]; on the
degenerate set Re E in {0, pi} they take the branch with Im E <= 0
(|lambda| <= 1, the decaying one).  The band functions of ``invariants``
take its partner, the lower band with Re E in [-pi, 0]: at
(theta1, theta2, gamma) = (-3pi/8, pi/4, 0.1) the quasi-energies of the
lambda that ``invariants._lower_band`` picks on the loop equal
-``quasi_energy_ssqw`` to 6e-16.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

from .errors import ConvergenceFailure

__all__ = ["eig_general", "quasienergy"]


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS in numpy's wheel libraries, or None.

    Looked up on first use, so importing the package opens no library.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the handle numpy already holds
        except OSError:
            continue
        # scipy-openblas (numpy >= 2) prefixes its symbols; ILP64 builds add 64_
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@functools.cache
def _process_policy() -> bool:
    """Pin BLAS to one thread and keep freed heap (glibc); True if a BLAS library was pinned.

    Makes no BLAS set call where the count is already 1: in a forked child,
    OpenBLAS answers any set call by restarting its thread pool, whose new
    threads spin for about 0.1 s of CPU.  Without ``mallopt`` (not glibc)
    the heap half does nothing.
    """
    if mallopt := getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None):
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks under 32 MiB come from the heap
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: the heap keeps up to 64 MiB free at its top
    get, put = _openblas() or (None, None)
    if get is not None and get() != 1:
        put(1)
    return get is not None


def _eig2(a, b, c, d) -> np.ndarray:
    """lambda0 of unit-determinant matrices given by their entries, the other eigenvalue being 1/lambda0.

    tr/2 +- sqrt(D) with D = ((a - d)/2)^2 + bc, which equals (tr/2)^2 - 1
    for det = 1 but keeps a normal degenerate pair split by O(eps), not
    O(sqrt(eps)), with the sign that grows |lambda|: |lambda0| >= 1.  No
    determinant is formed (ad - bc would cancel) and none is checked.
    """
    half_tr, half_diff = 0.5 * (a + d), 0.5 * (a - d)
    disc = np.sqrt(half_diff * half_diff + b * c)
    # avoid cancellation: add the root on the side that grows |lambda|
    flip = np.real(np.conj(half_tr) * disc) < 0
    return half_tr + np.where(flip, -disc, disc)


def eig2_batch(m: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Analytic eigenvalues of a (..., 2, 2) stack of unit-determinant matrices.

    Returns the values, shape (..., 2), and the entries ``(a, b, c, d)`` as
    complex arrays, for ``eig2_vector``: values[..., 0] is ``_eig2``'s
    lambda0 and values[..., 1] = 1/lambda0.
    """
    m = np.asarray(m, dtype=complex)
    entries = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    lam0 = _eig2(*entries)
    return np.stack([lam0, 1.0 / lam0], axis=-1), entries


def _sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 from the real and imaginary parts, with no hypot."""
    return np.square(z.real) + np.square(z.imag)


def eig2_vector(entries: tuple[np.ndarray, ...], lam: np.ndarray) -> np.ndarray:
    """Unit adjugate eigenvector (..., 2) of one eigenvalue ``lam`` per matrix.

    ``entries`` are the ``(a, b, c, d)`` of the matrices.  The vector is the
    column of adj(M - lam), (b, lam - a) or (lam - d, c), with the larger
    squared norm; a defective matrix has one.  Where the matrix is
    isotropic (a scaled identity: both columns vanish to rounding) the
    vector is e1.
    """
    a, b, c, d = entries
    lam_a, lam_d = lam - a, lam - d
    sq_b, sq_c = _sq(b), _sq(c)
    n1, n2 = sq_b + _sq(lam_a), _sq(lam_d) + sq_c
    first = n1 >= n2
    v0, v1, n = np.where(first, b, lam_d), np.where(first, lam_a, c), np.maximum(n1, n2)
    isotropic = n <= 1e-28 * np.maximum(np.maximum(np.maximum(_sq(a), sq_b), np.maximum(sq_c, _sq(d))), 1.0)
    if np.any(isotropic):
        v0, v1, n = np.where(isotropic, 1.0, v0), np.where(isotropic, 0.0, v1), np.where(isotropic, 1.0, n)
    inv = 1.0 / np.sqrt(n)
    return np.stack([v0 * inv, v1 * inv], axis=-1)


def eig_general(m: np.ndarray, vectors: bool = True) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Right eigendecomposition of a dense NxN matrix, in real LAPACK if it is real.

    Returns ``(values, vectors)``, complex either way: the eigenvalues sorted
    by (Re, Im), ascending, and ``vectors[:, i]`` the unit-norm eigenvector
    of ``values[i]``.  With ``vectors=False`` it returns the eigenvalues
    alone, in LAPACK's order.
    """
    m = np.asarray(m)
    m = m.astype(np.result_type(m, float), copy=False)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _process_policy()
    try:
        if not vectors:
            return np.linalg.eigvals(m).astype(complex, copy=False)
        values, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order].astype(complex, copy=False)
    vecs = vecs[:, order].astype(complex, copy=False)
    return values, vecs / np.linalg.norm(vecs, axis=0, keepdims=True)


def quasienergy(lam: np.ndarray) -> np.ndarray:
    """E = i log(lambda), principal branch: Re E in [-pi, pi)."""
    lam = np.asarray(lam, dtype=complex)
    return -np.angle(lam) + 1j * np.log(np.abs(lam))
