import numpy as np
import pytest

from helpers import assert_multiset_close

from lossywalk.linalg import (
    SIGMA_Y,
    SIGMA_Z,
    eig2,
    eig_general,
    exp_bloch,
    hamiltonian_from_unitary,
    is_unitary,
    quasienergy,
)
from lossywalk.walks import WalkParams1D, bloch_ssqw, quasi_energy_ssqw, rotation_coin, scaling_op, u1d_ssqw_k


def char_poly_roots(m):
    """Independent oracle: eigenvalues as roots of det(M - lambda I)."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.roots([1.0, -tr, det])


def test_eig2_identity_degenerate():
    res = eig2(np.eye(2))
    assert np.allclose(sorted(res.values.real), [1.0, 1.0])
    assert np.allclose(res.values.imag, 0.0)
    assert res.degenerate
    # scaled identity is not defective: standard basis comes back
    assert abs(np.linalg.det(res.vectors)) > 0.5


def test_eig2_sigma_z():
    res = eig2(SIGMA_Z)
    vals = sorted(res.values.real)
    assert np.allclose(vals, [-1.0, 1.0])
    for value, v in zip(res.values, res.vectors.T):
        expected = [1.0, 0.0] if value.real > 0 else [0.0, 1.0]
        assert np.allclose(np.abs(v), expected, atol=1e-12)


def test_eig2_random_nonnormal_vs_quadratic_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        res = eig2(m)
        got = np.sort_complex(res.values)
        want = np.sort_complex(char_poly_roots(m))
        assert np.max(np.abs(got - want)) < 1e-10
        scale = np.max(np.abs(m))
        for value, v in zip(res.values, res.vectors.T):
            resid = np.linalg.norm(m @ v - value * v)
            assert resid <= 1e-10 * max(1.0, scale)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_eig2_defective_flagged_not_raised():
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # Jordan block
    res = eig2(m)
    assert res.degenerate
    # both vectors equal (up to phase) the single eigenvector (1, 0)
    for v in res.vectors.T:
        assert np.allclose(np.abs(v), [1.0, 0.0], atol=1e-6)


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


def test_chain_operator_unitary_spectrum():
    # 402x402 chain at zero loss: all eigenvalues on the unit circle
    from lossywalk.lattice import RegionSpec, build_chain_operator

    spec = RegionSpec(50, (-3 * np.pi / 8, 5 * np.pi / 8), (-3 * np.pi / 8, np.pi / 4))
    op = build_chain_operator(201, spec, 0.0)
    assert is_unitary(op, 1e-10)
    vals, _ = eig_general(op)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-8


def test_hamiltonian_from_unitary_identity():
    b = hamiltonian_from_unitary(np.eye(2, dtype=complex))
    assert abs(b.energy) < 1e-12
    assert b.branch_ambiguous


def test_hamiltonian_from_unitary_single_axis():
    u = exp_bloch(np.pi / 3, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(u, rotation_coin(2 * np.pi / 3))  # e^{-i(pi/3) sigma_y}
    b = hamiltonian_from_unitary(u)
    assert abs(b.energy - np.pi / 3) < 1e-12
    assert np.allclose(b.n, [0.0, 1.0, 0.0], atol=1e-12)
    assert not b.branch_ambiguous


def test_hamiltonian_from_unitary_matches_closed_forms():
    p = WalkParams1D(-np.pi / 2, np.pi / 2, 0.1)
    u = u1d_ssqw_k(p, 1.0)
    b = hamiltonian_from_unitary(u)
    assert abs(b.energy - quasi_energy_ssqw(p, 1.0)) < 1e-9
    ref = bloch_ssqw(p, 1.0)
    assert np.max(np.abs(b.n - ref.n)) < 1e-9


def test_hamiltonian_reexponentiation_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = WalkParams1D(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi), rng.uniform(0, 1))
        u = u1d_ssqw_k(p, rng.uniform(-np.pi, np.pi))
        b = hamiltonian_from_unitary(u)
        if b.n is None:
            continue
        assert np.max(np.abs(exp_bloch(b.energy, b.n) - u)) < 1e-8
        assert abs(np.sum(b.n**2) - 1.0) < 1e-9  # bilinear normalization


def test_hamiltonian_from_unitary_rejects_non_unit_det():
    with pytest.raises(ValueError):
        hamiltonian_from_unitary(2.0 * np.eye(2))


def test_is_unitary_examples():
    assert is_unitary(rotation_coin(0.7321), 1e-12)
    assert not is_unitary(scaling_op(0.3), 1e-6)
    assert is_unitary(u1d_ssqw_k(WalkParams1D(0.4, -1.1, 0.0), 0.3), 1e-12)
    assert is_unitary(scaling_op(1j * np.pi / 2), 1e-12)  # purely imaginary delta


def test_quasienergy_branch():
    # lambda = e^{-iE}: principal Re E = -arg(lambda), Im E = log|lambda|
    lam = 0.5 * np.exp(-0.3j)
    e = quasienergy(lam)
    assert abs(e.real - 0.3) < 1e-15
    assert abs(e.imag - np.log(0.5)) < 1e-15
