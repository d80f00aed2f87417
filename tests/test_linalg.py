import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SIGMA_Z, assert_multiset_close, bloch_axis, branch_dist, eig2_pair, exp_bloch, is_unitary

from lossywalk import linalg, pool
from lossywalk.linalg import eig2_batch, eig2_vector, eig_general, quasienergy
from lossywalk.walks import (
    GAMMA_MAX,
    WalkParams1D,
    WalkParams2D,
    bloch_ssqw,
    momentum_grid,
    quasi_energy_ssqw,
    u1d_dtqw_k,
    u1d_ssqw_k,
    u2d_k,
)


def char_poly_roots(m):
    """Independent oracle: eigenvalues as roots of det(M - lambda I)."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.roots([1.0, -tr, det])


def test_eig2_identity_degenerate():
    values, entries = eig2_batch(np.eye(2))
    assert np.allclose(sorted(values.real), [1.0, 1.0])
    assert np.allclose(values.imag, 0.0)
    assert values[0] == values[1]
    # a scaled identity has no adjugate column at all: the vector is e1
    for sign in (1.0, -1.0):
        values, entries = eig2_batch(sign * np.eye(2))
        assert eig2_vector(entries, values[0]).tolist() == [1.0, 0.0]


def test_eig2_sigma_z():
    # i sigma_z: the unit-determinant sibling of sigma_z, eigenvalues +-i
    values, vectors = eig2_pair(1j * SIGMA_Z)
    assert np.allclose(sorted(values.imag), [-1.0, 1.0])
    assert np.allclose(values.real, 0.0)
    for value, v in zip(values, vectors.T):
        expected = [1.0, 0.0] if value.imag > 0 else [0.0, 1.0]
        assert np.allclose(np.abs(v), expected, atol=1e-12)


def test_eig2_random_nonnormal_vs_quadratic_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m / np.sqrt(np.linalg.det(m))  # unit determinant
        values, vectors = eig2_pair(m)
        got = np.sort_complex(values)
        want = np.sort_complex(char_poly_roots(m))
        assert np.max(np.abs(got - want)) < 1e-10
        scale = np.max(np.abs(m))
        for value, v in zip(values, vectors.T):
            resid = np.linalg.norm(m @ v - value * v)
            assert resid <= 1e-10 * max(1.0, scale)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_eig2_defective_flagged_not_raised():
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # Jordan block
    values, vectors = eig2_pair(m)
    assert values[0] == values[1]
    # both vectors equal (up to phase) the single eigenvector (1, 0)
    for v in vectors.T:
        assert np.allclose(np.abs(v), [1.0, 0.0], atol=1e-6)


ANGLES = st.floats(-2 * np.pi, 2 * np.pi)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ANGLES, ANGLES, st.floats(0.0, GAMMA_MAX - 1e-9), st.sampled_from([-1.0, 1.0]), st.floats(0.0, 1.0))
def test_eig2_pair_is_reciprocal_at_any_loss(t1, t2, loss, sign, share):
    # det U = 1, so lambda1 = 1/lambda0 must hold to rounding at every |gamma|
    # below the overflow bound
    ks = momentum_grid(51)
    p1 = WalkParams1D(t1, t2, sign * loss)
    p2 = WalkParams2D(t1, t2, sign * share * loss, -sign * (1.0 - share) * loss)
    for u in (u1d_ssqw_k(p1, ks), u2d_k(p2, ks[:, None] / 2, ks[None, :] / 2)):
        values, _ = eig2_batch(u)
        assert np.max(np.abs(values[..., 0] * values[..., 1] - 1.0)) <= 1e-12
    if loss <= 20.0:
        # the growing root carries Im E = log|lambda0| >= 0 of the closed form.
        # Near a gap closing the quadratic formula and arccos both lose digits
        # as eps / split (GAP_COLLISION_TOL), so 1e-12 holds once the pair is
        # split by more than about 3.5e-3 relative to |lambda0|
        values, _ = eig2_batch(u1d_ssqw_k(p1, ks))
        got = np.log(np.abs(values[:, 0]))
        want = np.abs(quasi_energy_ssqw(p1, ks).imag)
        split = np.abs(values[:, 0] - values[:, 1]) / np.abs(values[:, 0])
        err = np.abs(got - want) / np.maximum(1.0, want)
        assert np.all((err <= 1e-12) | (err * split <= 16 * np.finfo(float).eps))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.floats(-(GAMMA_MAX - 1e-9), GAMMA_MAX - 1e-9), st.sampled_from([0.0, -np.pi]))
def test_eig2_normal_degenerate_pair_splits_at_rounding(gamma, k):
    # at theta1 = theta2 = 0 the walk is diag(e^{ik}, e^{-ik}) at every gamma:
    # normal, with the exactly degenerate pair +-1 at k in {0, -pi}.  The
    # discriminant ((a - d)/2)^2 + bc is O(eps^2) there, so |lambda| = 1 to
    # rounding; (tr/2)^2 - 1 would be O(eps) and split the pair by O(sqrt(eps))
    values, _ = eig2_batch(u1d_ssqw_k(WalkParams1D(0.0, 0.0, gamma), k))
    assert np.max(np.abs(np.abs(values) - 1.0)) <= 1e-12


def test_eig_general_diagonal_sorted():
    m = np.diag([1.0, 2.0j, -3.0]).astype(complex)
    vals, _ = eig_general(m)
    # canonical (Re, Im) ascending: -3, 2i, 1
    assert np.allclose(vals, [-3.0, 2.0j, 1.0])


@pytest.mark.parametrize("m, want", [
    (np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]),
     [np.exp(-0.3j), np.exp(0.3j)]),  # a complex conjugate pair
    (np.diag([2.0, -1.0, 0.5]), [-1.0, 0.5, 2.0]),  # all real: LAPACK returns real vectors
])
def test_eig_general_real_input(m, want):
    vals, vecs = eig_general(m)
    assert np.allclose(vals, want, atol=1e-15)
    assert np.all(np.lexsort((vals.imag, vals.real)) == np.arange(len(vals)))
    assert vals.dtype == vecs.dtype == np.complex128
    for value, v in zip(vals, vecs.T):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-15
        assert np.linalg.norm(m @ v - value * v) < 1e-15


@pytest.mark.parametrize("m, cause", [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "^matrix entries must be finite$"),
    (np.array([[1.0, 0.0], [np.inf, 1.0]], dtype=complex), "^matrix entries must be finite$"),
    (np.ones((2, 3)), r"^expected a square matrix, got shape \(2, 3\)$"),
    (np.ones(4), r"^expected a square matrix, got shape \(4,\)$"),
])
def test_eig_general_rejects_non_finite_and_non_square_input(m, cause):
    with pytest.raises(ValueError, match=cause):
        eig_general(m)


def test_eig_general_permutation_vs_polynomial_oracle():
    m = np.zeros((6, 6), dtype=complex)
    for i in range(6):
        m[(i + 1) % 6, i] = 1.0  # single 6-cycle: char poly lambda^6 - 1
    got, vecs = eig_general(m)
    want = np.roots([1, 0, 0, 0, 0, 0, -1])
    assert_multiset_close(got, want, 1e-10)
    for value, v in zip(got, vecs.T):
        assert np.linalg.norm(m @ v - value * v) < 1e-9 * 6


def test_eig_general_residual_random():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    scale = np.linalg.norm(m)
    vals, vecs = eig_general(m)
    for value, v in zip(vals, vecs.T):
        assert np.linalg.norm(m @ v - value * v) <= 1e-9 * scale


@pytest.mark.skipif(linalg._openblas() is None, reason="no OpenBLAS found in numpy's wheel libraries")
def test_a_dense_solve_leaves_blas_at_one_thread(fresh_pin):
    get, put = linalg._openblas()
    put(2)  # the library may cap it at the core count
    eig_general(np.eye(3), vectors=False)
    assert get() == 1
    eig_general(np.eye(3))
    pool._run_dense(_solve_in, [np.eye(3), 2 * np.eye(3)], 2)
    assert get() == 1


def test_pin_one_blas_thread_sets_nothing_when_already_at_one_thread(monkeypatch, fresh_pin):
    # in a forked worker any set call restarts OpenBLAS's thread pool, so a
    # process that is already at a count of 1 must make none
    count, sets = [1], []

    def put(n):
        sets.append(n)
        count[0] = n

    monkeypatch.setattr(linalg, "_openblas", lambda: (lambda: count[0], put))
    assert linalg.pin_one_blas_thread()
    assert sets == []
    linalg.pin_one_blas_thread.cache_clear()
    count[0] = 3
    assert linalg.pin_one_blas_thread() and linalg.pin_one_blas_thread()
    assert sets == [1] and count == [1]
    linalg.pin_one_blas_thread.cache_clear()
    monkeypatch.setattr(linalg, "_openblas", lambda: None)
    assert not linalg.pin_one_blas_thread()


def _solve_in(m):
    """(pid, eigenvalues) of one dense solve, for the pool."""
    return os.getpid(), eig_general(m, vectors=False)


def test_a_pooled_fan_out_sets_the_count_once_in_the_parent(monkeypatch, tmp_path, fresh_pin):
    log = tmp_path / "sets"
    count = [2]

    def put(n):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        count[0] = n

    monkeypatch.setattr(linalg, "_openblas", lambda: (lambda: count[0], put))
    rows = pool._run_dense(_solve_in, [k * np.eye(3) for k in range(1, 5)], 2)
    assert os.getpid() not in {pid for pid, _ in rows}  # the solves ran in workers
    assert [values.tolist() for _, values in rows] == [[k] * 3 for k in range(1, 5)]
    assert log.read_text().split() == [str(os.getpid())]


def test_eig_general_values_only_are_lapacks_values_in_lapacks_order():
    # the strip bands sort their quasi-energies themselves; a values-only
    # solve must not reorder LAPACK's output, ties between -0 and +0 included
    rng = np.random.default_rng(3)
    for m in (rng.normal(size=(30, 30)), rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))):
        got = eig_general(m, vectors=False)
        assert got.dtype == complex
        assert got.tobytes() == np.linalg.eigvals(m).astype(complex).tobytes()


def test_chain_operator_unitary_spectrum():
    # 402x402 chain at zero loss: all eigenvalues on the unit circle
    from lossywalk.lattice import RegionSpec, build_chain_operator

    spec = RegionSpec(50, (-3 * np.pi / 8, 5 * np.pi / 8), (-3 * np.pi / 8, np.pi / 4))
    op = build_chain_operator(201, spec, 0.0)
    assert is_unitary(op, 1e-10)
    vals, _ = eig_general(op)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-8


def test_hamiltonian_from_unitary_matches_closed_forms():
    # E from the operator's eigenvalues, n from its traceless part, against
    # quasi_energy_ssqw and bloch_ssqw
    p = WalkParams1D(-np.pi / 2, np.pi / 2, 0.1)
    u = u1d_ssqw_k(p, 1.0)
    e_ref = quasi_energy_ssqw(p, 1.0)
    es = quasienergy(eig2_batch(u)[0])
    assert min(branch_dist(e, e_ref) for e in es) < 1e-9
    assert min(branch_dist(e, -e_ref) for e in es) < 1e-9
    assert np.max(np.abs(bloch_axis(u, e_ref) - bloch_ssqw(p, 1.0).n)) < 1e-9


def test_hamiltonian_reexponentiation_roundtrip():
    # (E, n) read off the operator by eig2_batch and quasienergy rebuild it
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = WalkParams1D(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi), rng.uniform(0, 1))
        k = rng.uniform(-np.pi, np.pi)
        if abs(np.sin(quasi_energy_ssqw(p, k))) < 1e-12:  # gap closed: n undefined
            continue
        u = u1d_ssqw_k(p, k)
        energy = quasienergy(eig2_batch(u)[0][0])
        n = bloch_axis(u, energy)
        assert np.max(np.abs(exp_bloch(energy, n) - u)) < 1e-8
        assert abs(np.sum(n**2) - 1.0) < 1e-9  # bilinear normalization


def test_is_unitary_examples():
    # the test oracle on the coin R(theta) = u1d_dtqw_k(theta, 0) and on G_delta
    assert is_unitary(u1d_dtqw_k(0.7321, 0.0), 1e-12)
    assert not is_unitary(np.diag(np.exp([0.3, -0.3])), 1e-6)
    assert is_unitary(u1d_ssqw_k(WalkParams1D(0.4, -1.1, 0.0), 0.3), 1e-12)
    assert is_unitary(np.diag(np.exp([0.5j * np.pi, -0.5j * np.pi])), 1e-12)  # purely imaginary delta


def test_quasienergy_branch():
    # lambda = e^{-iE}: principal Re E = -arg(lambda), Im E = log|lambda|
    lam = 0.5 * np.exp(-0.3j)
    e = quasienergy(lam)
    assert abs(e.real - 0.3) < 1e-15
    assert abs(e.imag - np.log(0.5)) < 1e-15
