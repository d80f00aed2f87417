import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import assert_multiset_close, branch_dist

from lossywalk.errors import DegenerateCoin, GapClosed
from lossywalk.linalg import IDENTITY_2, SIGMA_X, eig2_batch, exp_bloch, is_unitary
from lossywalk.walks import (
    GAMMA_MAX,
    CriticalKind,
    WalkParams1D,
    WalkParams2D,
    bloch_2d,
    bloch_ssqw,
    critical_gamma,
    momentum_grid,
    quasi_energy_2d,
    quasi_energy_ssqw,
    rotation_coin,
    scaling_op,
    u1d_dtqw_k,
    u1d_ssqw_k,
    u1d_ssqw_timesym_k,
    u2d_k,
    u2d_triangular_k,
)

RNG_SEED = 20240811


def random_params_1d(rng, gamma_max=1.0):
    return WalkParams1D(
        rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi), rng.uniform(0, gamma_max)
    )


# --------------------------------------------------------------------------
# coin and scaling operators

def test_rotation_zero_is_identity():
    assert np.allclose(rotation_coin(0.0), IDENTITY_2)


def test_rotation_double_cover():
    assert np.allclose(rotation_coin(2 * np.pi), -IDENTITY_2, atol=1e-15)


def test_rotation_quarter_vs_series_oracle():
    # exp(-i theta sigma_y / 2) summed directly as a matrix power series
    theta = np.pi / 2
    a = -1j * (theta / 2) * np.array([[0, -1j], [1j, 0]], dtype=complex)
    series = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, 40):
        term = term @ a / n
        series += term
    assert np.max(np.abs(rotation_coin(theta) - series)) < 1e-14
    assert abs(rotation_coin(theta)[0, 0] - 1 / np.sqrt(2)) < 1e-15


def test_scaling_op_values():
    assert np.allclose(scaling_op(0.0), IDENTITY_2)
    g = scaling_op(0.3)
    assert np.allclose(np.diag(g), [np.exp(0.3), np.exp(-0.3)])
    assert not is_unitary(g, 1e-6)
    assert np.allclose(scaling_op(1j * np.pi / 2), np.diag([1j, -1j]))


# --------------------------------------------------------------------------
# 1D walk builders

def test_dtqw_free_walk():
    u = u1d_dtqw_k(0.0, 0.37)
    assert np.allclose(u, np.diag([np.exp(0.37j), np.exp(-0.37j)]))
    # principal quasi-energy is |k|
    values, _ = eig2_batch(u)
    assert np.min(np.abs(-np.angle(values) - 0.37)) < 1e-14


def test_dtqw_dispersion_relation():
    # cos E = cos(theta/2) cos k, checked at theta = pi/2, k = 0
    values, _ = eig2_batch(u1d_dtqw_k(np.pi / 2, 0.0))
    cos_e = np.cos(-np.angle(values[0]))
    assert abs(cos_e - np.cos(np.pi / 4)) < 1e-12


def test_dtqw_random_vs_eig2_oracle():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        theta, k = rng.uniform(-np.pi, np.pi, 2)
        values, _ = eig2_batch(u1d_dtqw_k(theta, k))
        got = np.sort(np.cos(-np.angle(values)).real)
        want = np.cos(theta / 2) * np.cos(k)
        assert min(abs(got[0] - want), abs(got[1] - want)) < 1e-10


def test_ssqw_collapses_to_dtqw():
    p = WalkParams1D(0.83, 0.0, 0.0)
    k = 0.51
    assert np.max(np.abs(u1d_ssqw_k(p, k) - u1d_dtqw_k(0.83, k))) < 1e-14


def test_ssqw_unitary_at_zero_scaling():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        p = WalkParams1D(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi), 0.0)
        assert is_unitary(u1d_ssqw_k(p, rng.uniform(-np.pi, np.pi)), 1e-12)


def test_ssqw_quasi_energy_against_eig2():
    p = WalkParams1D(-np.pi / 2, np.pi / 2, 0.25)
    values, _ = eig2_batch(u1d_ssqw_k(p, 0.7))
    es = -np.angle(values) + 1j * np.log(np.abs(values))
    e_ref = quasi_energy_ssqw(p, 0.7)
    assert min(abs(es[0] - e_ref), abs(es[1] - e_ref)) < 1e-10


def test_timesym_same_spectrum():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(50):
        p = random_params_1d(rng)
        k = rng.uniform(-np.pi, np.pi)
        v1, _ = eig2_batch(u1d_ssqw_k(p, k))
        v2, _ = eig2_batch(u1d_ssqw_timesym_k(p, k))
        assert_multiset_close(v1, v2, 1e-10)


def test_timesym_reduces_at_theta1_zero():
    p = WalkParams1D(0.0, 0.9, 0.2)
    k = -1.3
    assert np.max(np.abs(u1d_ssqw_timesym_k(p, k) - u1d_ssqw_k(p, k))) < 1e-14


def test_timesym_chiral_relation():
    p = WalkParams1D(-3 * np.pi / 8, np.pi / 8, 0.1)
    u = u1d_ssqw_timesym_k(p, 0.3)
    assert np.max(np.abs(SIGMA_X @ u @ SIGMA_X - u.conj().T)) < 1e-10


# --------------------------------------------------------------------------
# 1D closed forms

def test_quasi_energy_gap_closing_point():
    e = quasi_energy_ssqw(WalkParams1D(-np.pi / 2, np.pi / 2, 0.0), 0.0)
    assert abs(e) < 1e-8  # cos E = 1


def test_quasi_energy_real_below_critical():
    p = WalkParams1D(-3 * np.pi / 8, np.pi / 4, 0.20)  # below gamma_c = 0.2110
    es = quasi_energy_ssqw(p, momentum_grid(201))
    assert np.max(np.abs(es.imag)) < 1e-12


def test_quasi_energy_complex_above_critical():
    p = WalkParams1D(-3 * np.pi / 8, np.pi / 4, 0.30)
    es = quasi_energy_ssqw(p, momentum_grid(201))
    assert np.max(np.abs(es.imag)) > 1e-4


def test_bloch_ssqw_real_at_zero_scaling():
    p = WalkParams1D(-0.9, 1.3, 0.0)
    b = bloch_ssqw(p, 0.8)
    assert np.max(np.abs(b.n.imag)) < 1e-12
    # matches the unitary component formulas with the loss terms dropped
    c1, s1 = np.cos(p.theta1 / 2), np.sin(p.theta1 / 2)
    c2, s2 = np.cos(p.theta2 / 2), np.sin(p.theta2 / 2)
    se = np.sin(b.energy.real)
    want = np.array(
        [s1 * c2 * np.sin(0.8), c1 * s2 + s1 * c2 * np.cos(0.8), -c1 * c2 * np.sin(0.8)]
    ) / se
    assert np.max(np.abs(b.n - want)) < 1e-12


def test_bloch_ssqw_reconstruction():
    p = WalkParams1D(-3 * np.pi / 8, np.pi / 8, 0.25)
    b = bloch_ssqw(p, np.pi / 2)
    assert np.max(np.abs(exp_bloch(b.energy, b.n) - u1d_ssqw_k(p, np.pi / 2))) < 1e-8


def test_bloch_ssqw_axis_aligned_at_k0_theta2_0():
    # at k = 0, theta2 = 0 the step operator is exactly R(theta1), whose
    # rotation axis is y: the x and z components vanish term by term
    b = bloch_ssqw(WalkParams1D(0.7, 0.0, 0.0), 0.0)
    assert abs(b.n[0]) < 1e-12 and abs(b.n[2]) < 1e-12
    assert abs(abs(b.n[1]) - 1.0) < 1e-9


def test_bloch_ssqw_gap_closed_raises():
    with pytest.raises(GapClosed):
        bloch_ssqw(WalkParams1D(-np.pi / 2, np.pi / 2, 0.0), 0.0)


# --------------------------------------------------------------------------
# 2D walk builders and closed forms

def test_u2d_decomposes_into_two_split_step_walks():
    # exact identity, including nonzero scaling:
    # u2d(t1,t2,gx,gy; kx,ky) = ssqw(t2,t1,gy; 2ky) @ ssqw(0,t1,gx; 2kx)
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(100):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        gx, gy = rng.uniform(0, 0.8, 2)
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        lhs = u2d_k(WalkParams2D(t1, t2, gx, gy), kx, ky)
        rhs = u1d_ssqw_k(WalkParams1D(t2, t1, gy), 2 * ky) @ u1d_ssqw_k(
            WalkParams1D(0.0, t1, gx), 2 * kx
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_u2d_unitary_at_zero_scaling():
    p = WalkParams2D(7 * np.pi / 6, 7 * np.pi / 6)
    assert is_unitary(u2d_k(p, 0.4, -1.1), 1e-12)


def test_u2d_quasi_energy_against_eig2():
    p = WalkParams2D(7 * np.pi / 6, 7 * np.pi / 6)
    values, _ = eig2_batch(u2d_k(p, 0.3, 0.9))
    es = -np.angle(values) + 1j * np.log(np.abs(values))
    e_ref = quasi_energy_2d(p, 0.3, 0.9)
    assert min(abs(es[0] - e_ref), abs(es[1] - e_ref)) < 1e-10


def test_triangular_square_equivalence():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(100):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        tri = u2d_triangular_k(t1, t2, kx, ky)
        tx = np.diag([np.exp(1j * kx), np.exp(-1j * kx)])
        assert np.max(np.abs(u2d_k(WalkParams2D(t1, t2), kx, ky) - tx.conj().T @ tri @ tx)) < 1e-12


def test_triangular_pure_translation_at_zero_angles():
    kx, ky = 0.4, -0.7
    tri = u2d_triangular_k(0.0, 0.0, kx, ky)
    txy = np.diag([np.exp(1j * (kx + ky)), np.exp(-1j * (kx + ky))])
    ty = np.diag([np.exp(1j * ky), np.exp(-1j * ky)])
    tx = np.diag([np.exp(1j * kx), np.exp(-1j * kx)])
    assert np.max(np.abs(tri - txy @ ty @ tx)) < 1e-14


def test_triangular_same_spectrum_as_square():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(50):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        v1, _ = eig2_batch(u2d_triangular_k(t1, t2, kx, ky))
        v2, _ = eig2_batch(u2d_k(WalkParams2D(t1, t2), kx, ky))
        assert_multiset_close(v1, v2, 1e-10)


def test_quasi_energy_2d_at_k0():
    p = WalkParams2D(np.pi / 2, np.pi / 2)
    e = quasi_energy_2d(p, 0.0, 0.0)
    want = np.cos(p.theta1) * np.cos(p.theta2 / 2) - np.sin(p.theta1) * np.sin(p.theta2 / 2)
    assert abs(np.cos(e) - want) < 1e-12


def test_quasi_energy_2d_first_order_complexification():
    # cos E(gx) - cos E(0) ~ i gx sin(t1) sin(t2/2) sin(2 ky) for small gx
    t1, t2 = np.pi / 3, np.pi / 5
    kx, ky = 0.7, np.pi / 4
    gx = 1e-5
    lhs = np.cos(quasi_energy_2d(WalkParams2D(t1, t2, gx, 0.0), kx, ky)) - np.cos(
        quasi_energy_2d(WalkParams2D(t1, t2), kx, ky)
    )
    rhs = 1j * gx * np.sin(t1) * np.sin(t2 / 2) * np.sin(2 * ky)
    assert abs(lhs - rhs) / abs(rhs) < 1e-3


def test_bloch_2d_real_at_zero_scaling():
    p = WalkParams2D(7 * np.pi / 6, 7 * np.pi / 6)
    ks = momentum_grid(21) / 2.0
    for kx in ks[::5]:
        for ky in ks[::5]:
            b = bloch_2d(p, float(kx), float(ky))
            assert np.max(np.abs(b.n.imag)) < 1e-9
            assert abs(np.sum(b.n**2) - 1.0) < 1e-9


def test_bloch_2d_reconstruction():
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(100):
        p = WalkParams2D(
            rng.uniform(-np.pi, np.pi),
            rng.uniform(-np.pi, np.pi),
            rng.uniform(0, 0.8),
            rng.uniform(0, 0.8),
        )
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        try:
            b = bloch_2d(p, kx, ky)
        except GapClosed:
            continue
        assert np.max(np.abs(exp_bloch(b.energy, b.n) - u2d_k(p, kx, ky))) < 1e-8


# --------------------------------------------------------------------------
# critical scaling factor

def test_critical_gamma_anchor_values():
    res = critical_gamma(-3 * np.pi / 8, np.pi / 4, 0.0, 0.0)
    assert res.kind is CriticalKind.REAL_CRITICAL
    assert abs(res.gamma_c - 0.2110) < 5e-5
    res = critical_gamma(-3 * np.pi / 8, 5 * np.pi / 8, 0.0, 0.0)
    assert res.kind is CriticalKind.REAL_CRITICAL
    assert abs(res.gamma_c - 0.2832) < 5e-5


def test_critical_gamma_marginal_case():
    res = critical_gamma(-np.pi / 2, np.pi / 2, 0.0, 0.0)  # cosh argument exactly 1
    assert res.kind is CriticalKind.REAL_CRITICAL
    assert abs(res.gamma_c) < 1e-12


def test_critical_gamma_shifted_branch():
    # same-sign angles flip the cosh argument negative: phi_c = pi/2
    res = critical_gamma(3 * np.pi / 8, np.pi / 4, 0.0, 0.0)
    assert res.kind is CriticalKind.SHIFTED_CRITICAL
    assert res.phi_c == pytest.approx(np.pi / 2)
    mirrored = critical_gamma(-3 * np.pi / 8, np.pi / 4, 0.0, 0.0)
    assert abs(res.gamma_c - mirrored.gamma_c) < 1e-12


def test_critical_gamma_degenerate_coin():
    with pytest.raises(DegenerateCoin):
        critical_gamma(0.0, np.pi / 4, 0.0, 0.0)


def test_critical_gamma_brackets_spectral_reality():
    # max_k |Im E| flips from ~0 to > 1e-4 across gamma_c
    rng = np.random.default_rng(RNG_SEED + 7)
    ks = momentum_grid(201)
    tested = 0
    while tested < 20:
        t1 = -rng.uniform(0.3, np.pi - 0.3)
        t2 = rng.uniform(0.3, np.pi - 0.3)
        res = critical_gamma(t1, t2, 0.0, 0.0)
        if res.kind is not CriticalKind.REAL_CRITICAL or not 0.05 < res.gamma_c < 1.5:
            continue
        below = quasi_energy_ssqw(WalkParams1D(t1, t2, res.gamma_c - 1e-3), ks)
        above = quasi_energy_ssqw(WalkParams1D(t1, t2, res.gamma_c + 1e-3), ks)
        assert np.max(np.abs(below.imag)) < 1e-8
        assert np.max(np.abs(above.imag)) > 1e-4
        tested += 1


# --------------------------------------------------------------------------
# cross-cutting builder invariants

def _all_builders(rng):
    p1 = random_params_1d(rng)
    p2 = WalkParams2D(
        rng.uniform(-np.pi, np.pi),
        rng.uniform(-np.pi, np.pi),
        rng.uniform(0, 1),
        rng.uniform(0, 1),
    )
    k, kx, ky = rng.uniform(-np.pi, np.pi, 3)
    yield u1d_dtqw_k(p1.theta1, k)
    yield u1d_ssqw_k(p1, k)
    yield u1d_ssqw_timesym_k(p1, k)
    yield u2d_k(p2, kx, ky)
    yield u2d_triangular_k(p2.theta1, p2.theta2, kx, ky)


def test_every_builder_has_unit_determinant():
    rng = np.random.default_rng(RNG_SEED + 8)
    for _ in range(50):
        for u in _all_builders(rng):
            det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
            assert abs(det - 1.0) < 1e-9


def test_quasi_energies_pair_as_plus_minus():
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(50):
        for u in _all_builders(rng):
            values, _ = eig2_batch(u)
            # lambda0 * lambda1 = 1 <=> E0 = -E1 (mod 2 pi)
            assert abs(values[0] * values[1] - 1.0) < 1e-10


def test_walk_params_2d_bounds_the_summed_loss():
    # u2d_k entries have size e^{2 (|gx| + |gy|)}, which eig2_batch squares
    cause = (r"\|gamma_x\| \+ \|gamma_y\| must be below 177.4, "
             r"where the eigensolver's e\^\(4 \(\|gamma_x\| \+ \|gamma_y\|\)\) overflows")
    for gx, gy in ((GAMMA_MAX, 0.0), (-200.0, 0.0), (0.0, -GAMMA_MAX), (100.0, -80.0), (-90.0, -90.0)):
        with pytest.raises(ValueError, match=cause):
            WalkParams2D(3 * np.pi / 8, 1.0, gx, gy)
    # just below the bound, with either sign on either axis, eig2_batch is finite and silent
    rng = np.random.default_rng(RNG_SEED)
    below = GAMMA_MAX - 1e-9
    q = momentum_grid(21) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            t1, t2 = rng.uniform(-np.pi, np.pi, 2)
            share = rng.uniform()
            sx, sy = rng.choice([-1.0, 1.0], 2)
            p = WalkParams2D(t1, t2, sx * share * below, sy * (1.0 - share) * below)
            values, vectors = eig2_batch(u2d_k(p, q[:, None], q[None, :]))
            assert np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))


def test_unitary_iff_zero_scaling():
    # phi restricted to {0, pi/2}: both are unitary at gamma = 0
    rng = np.random.default_rng(RNG_SEED + 10)
    for phi in (0.0, np.pi / 2):
        for _ in range(10):
            t1, t2 = rng.uniform(-np.pi, np.pi, 2)
            k = rng.uniform(-np.pi, np.pi)
            assert is_unitary(u1d_ssqw_k(WalkParams1D(t1, t2, 0.0, phi), k), 1e-10)
            assert not is_unitary(u1d_ssqw_k(WalkParams1D(t1, t2, 0.31, phi), k), 1e-10)
    assert not is_unitary(u2d_k(WalkParams2D(0.7, -0.4, 0.2, 0.0), 0.3, 0.5), 1e-10)
    assert not is_unitary(u2d_k(WalkParams2D(0.7, -0.4, 0.0, 0.2), 0.3, 0.5), 1e-10)


def test_split_step_decomposition_convention():
    # U_SS(t1, t2)(k) = U(t2, k/2) @ U(t1, k/2): single-step factors at half momentum
    rng = np.random.default_rng(RNG_SEED + 11)
    for _ in range(100):
        t1, t2, k = rng.uniform(-np.pi, np.pi, 3)
        lhs = u1d_ssqw_k(WalkParams1D(t1, t2, 0.0), k)
        rhs = u1d_dtqw_k(t2, k / 2) @ u1d_dtqw_k(t1, k / 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_closed_forms_agree_with_eig2_on_random_draws():
    rng = np.random.default_rng(RNG_SEED + 12)
    for _ in range(1000):
        p = random_params_1d(rng)
        k = rng.uniform(-np.pi, np.pi)
        values, _ = eig2_batch(u1d_ssqw_k(p, k))
        es = -np.angle(values) + 1j * np.log(np.abs(values))
        e_ref = quasi_energy_ssqw(p, k)
        assert min(branch_dist(es[0], e_ref), branch_dist(es[1], e_ref)) < 1e-9


# --------------------------------------------------------------------------
# entry-tuple builders against stacked @-chain oracles (tests/helpers.py)

ANGLES = st.floats(-2 * np.pi, 2 * np.pi)
SCALINGS = st.floats(-1.0, 1.0)
MOMENTA = st.floats(-2 * np.pi, 2 * np.pi)


@st.composite
def momentum_pairs(draw):
    """(kx, ky): two scalars, two equal-length 1D arrays, or (n, 1) x (1, m)."""
    kind = draw(st.sampled_from(["scalar", "1d", "outer"]))
    if kind == "scalar":
        return draw(MOMENTA), draw(MOMENTA)
    n = draw(st.integers(1, 6))
    m = n if kind == "1d" else draw(st.integers(1, 6))
    kx = np.array(draw(st.lists(MOMENTA, min_size=n, max_size=n)))
    ky = np.array(draw(st.lists(MOMENTA, min_size=m, max_size=m)))
    if kind == "outer":
        return kx[:, None], ky[None, :]
    return kx, ky


def assert_rel_close(got, want, rtol=1e-13):
    """Per-matrix max-entry error within rtol of the oracle's largest entry."""
    assert got.shape == want.shape
    err = np.max(np.abs(got - want), axis=(-2, -1))
    assert np.all(err <= rtol * np.max(np.abs(want), axis=(-2, -1)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ANGLES, ANGLES, SCALINGS, SCALINGS, momentum_pairs())
def test_builders_match_matmul_oracles(t1, t2, ga, gb, ks):
    kx, ky = ks
    k = np.add(kx, ky)  # scalar, 1D or (n, m)
    p1 = WalkParams1D(t1, t2, ga, np.pi * gb)  # complex delta = gamma + i phi
    p2 = WalkParams2D(t1, t2, ga, gb)
    assert_rel_close(u1d_dtqw_k(t1, k), helpers.dtqw_by_matmul(t1, k))
    assert_rel_close(u1d_ssqw_k(p1, k), helpers.ssqw_by_matmul(p1, k))
    assert_rel_close(u1d_ssqw_timesym_k(p1, k), helpers.ssqw_timesym_by_matmul(p1, k))
    assert_rel_close(u2d_k(p2, kx, ky), helpers.u2d_by_matmul(p2, kx, ky))
    assert_rel_close(u2d_triangular_k(t1, t2, kx, ky), helpers.u2d_triangular_by_matmul(t1, t2, kx, ky))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(ANGLES, ANGLES, SCALINGS, SCALINGS, st.integers(1, 9), st.integers(1, 9))
def test_u2d_separable_axes_equal_meshgrid(t1, t2, gx, gy, nx, ny):
    p = WalkParams2D(t1, t2, gx, gy)
    qx, qy = momentum_grid(nx) / 2.0, momentum_grid(ny) / 2.0
    sep = u2d_k(p, qx[:, None], qy[None, :])
    mesh = u2d_k(p, *np.meshgrid(qx, qy, indexing="ij"))
    assert sep.shape == (nx, ny, 2, 2)
    np.testing.assert_array_equal(sep, mesh)
