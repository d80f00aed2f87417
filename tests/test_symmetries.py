import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SIGMA_X, SIGMA_Y, SIGMA_Z, branch_dist

from lossywalk.errors import NoBracket
from lossywalk.linalg import eig2_batch
from lossywalk.symmetries import (
    check_cs,
    check_exact_pt,
    check_phs,
    check_pt_1d,
    find_exceptional_point,
)
from lossywalk.walks import (
    CriticalKind,
    WalkParams1D,
    WalkParams2D,
    critical_gamma,
    momentum_grid,
    u1d_ssqw_k,
    u1d_ssqw_timesym_k,
)

ANCHOR = (-3 * np.pi / 8, np.pi / 4)       # gamma_c = 0.2110
ANCHOR2 = (-3 * np.pi / 8, 5 * np.pi / 8)  # gamma_c = 0.2832
ANGLE = st.floats(-np.pi, np.pi)
EPS = np.finfo(float).eps


def _rounding_bound(total_gamma):
    """A small multiple of eps times the e^{2 |gamma|} size of the walk's entries."""
    return 8.0 * EPS * np.exp(2.0 * total_gamma)


def test_pt_holds_beyond_exceptional_point():
    rep = check_pt_1d(WalkParams1D(*ANCHOR, 0.5), 201, 1e-10)
    assert rep.passed and rep.relation == "PT"


def test_pt_holds_unitary_case():
    assert check_pt_1d(WalkParams1D(*ANCHOR, 0.0), 201, 1e-12).passed


def test_pt_negative_control():
    # a perturbed operator violates the relation at the perturbation scale
    p = WalkParams1D(*ANCHOR, 0.1)
    u = u1d_ssqw_timesym_k(p, 0.4).copy()
    u[0, 1] += 1e-3
    inv = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]]) / np.linalg.det(u)
    viol = np.max(np.abs(SIGMA_Z @ u.conj() @ SIGMA_Z - inv))
    assert viol > 1e-6


def test_exact_pt_flips_across_critical():
    assert check_exact_pt(WalkParams1D(*ANCHOR, 0.20), 201, 1e-8).passed
    assert not check_exact_pt(WalkParams1D(*ANCHOR, 0.22), 201, 1e-8).passed
    assert check_exact_pt(WalkParams1D(*ANCHOR, 0.0), 201, 1e-12).passed


def test_pt_vs_exact_pt_hierarchy():
    # PT always; exact PT only below the exceptional point
    rng = np.random.default_rng(21)
    tested = 0
    while tested < 20:
        t1 = -rng.uniform(0.3, np.pi - 0.3)
        t2 = rng.uniform(0.3, np.pi - 0.3)
        res = critical_gamma(t1, t2, 0.0, 0.0)
        if res.kind is not CriticalKind.REAL_CRITICAL or not 0.05 < res.gamma_c < 1.0:
            continue
        gc = res.gamma_c
        for g, expect_real in ((0.0, True), (gc / 2, True), (2 * gc, False)):
            p = WalkParams1D(t1, t2, g)
            assert check_pt_1d(p, 101, 1e-9).passed
            assert check_exact_pt(p, 201, 1e-8).passed == expect_real
        tested += 1


def test_phs_1d():
    assert check_phs(WalkParams1D(-3 * np.pi / 8, np.pi / 8, 0.3), 201, 1e-10).passed


def test_phs_2d():
    p = WalkParams2D(7 * np.pi / 6, 7 * np.pi / 6, 0.2, 0.2)
    assert check_phs(p, 51, 1e-10).passed


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ANGLE, ANGLE, st.floats(-3.0, 3.0), st.floats(-1.0, 1.0))
def test_phs_holds_at_random_loss(t1, t2, g, gy):
    # every factor but the shifts is real for real scalings, so conj U(k)
    # = U(-k) at any loss; what is left is rounding in the entries
    assert check_phs(WalkParams1D(t1, t2, g), 51, _rounding_bound(abs(g))).passed
    assert check_phs(WalkParams2D(t1, t2, g, gy), 51, _rounding_bound(abs(g) + abs(gy))).passed


def test_phs_negative_control():
    # a sigma_y admixture in the coin breaks the conjugation relation
    p = WalkParams1D(-3 * np.pi / 8, np.pi / 8, 0.1)
    ks = momentum_grid(51)
    perturb = SIGMA_Y * 0.02  # i*sigma_y would be real, hence PHS-invariant
    u = u1d_ssqw_timesym_k(p, ks) @ (np.eye(2) + perturb)
    u_neg = u1d_ssqw_timesym_k(p, -ks) @ (np.eye(2) + perturb)
    assert np.max(np.abs(np.conj(u) - u_neg)) > 1e-4


def test_cs_timesym_representation():
    assert check_cs(WalkParams1D(*ANCHOR, 0.15), 201, 1e-10).passed
    assert check_cs(WalkParams1D(*ANCHOR, 0.0), 201, 1e-12).passed


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ANGLE, ANGLE, st.floats(-3.0, 3.0))
def test_cs_holds_at_random_loss(t1, t2, g):
    # PT holds for every loss too, beyond the exceptional point included
    assert check_cs(WalkParams1D(t1, t2, g), 51, _rounding_bound(abs(g))).passed
    assert check_pt_1d(WalkParams1D(t1, t2, g), 51, _rounding_bound(abs(g))).passed


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ANGLE, ANGLE, st.floats(-3.0, 3.0), ANGLE)
def test_pt_and_cs_residuals_have_equal_max_norm(t1, t2, g, phi):
    # sigma_z conj(U) sigma_z - adj U and sigma_x U sigma_x - U^dag have the
    # same entries up to sign and order (docs/NOTES.md), at any loss and
    # phase, beyond the exceptional point included
    p = WalkParams1D(t1, t2, g, phi)
    u = u1d_ssqw_timesym_k(p, momentum_grid(51))
    a, b, c, d = u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1]
    adj = np.stack([np.stack([d, -b], axis=-1), np.stack([-c, a], axis=-1)], axis=-2)
    pt = np.max(np.abs(SIGMA_Z @ u.conj() @ SIGMA_Z - adj))
    cs = np.max(np.abs(SIGMA_X @ u @ SIGMA_X - np.swapaxes(u.conj(), -1, -2)))
    assert pt == cs
    assert check_pt_1d(p, 51, 1.0).max_violation == pt
    assert check_cs(p, 51, 1.0).max_violation == cs


def test_cs_fails_on_plain_representation():
    # the asymmetric grouping does not satisfy the plain sigma_x relation,
    # which is what the time-symmetric frame is for
    p = WalkParams1D(-3 * np.pi / 8, np.pi / 4, 0.15)
    u = u1d_ssqw_k(p, 0.7)
    assert np.max(np.abs(SIGMA_X @ u @ SIGMA_X - u.conj().T)) > 1e-3


def test_exceptional_point_anchor_1():
    got = find_exceptional_point(*ANCHOR, gamma_hi=1.0)
    assert abs(got - 0.2110) < 1e-3


def test_exceptional_point_anchor_2():
    got = find_exceptional_point(*ANCHOR2, gamma_hi=1.0)
    assert abs(got - 0.2832) < 1e-3


def test_exceptional_point_needs_a_complex_spectrum_at_gamma_hi():
    # the anchor's exceptional point is 0.2110: [0, 0.1] does not bracket it
    with pytest.raises(NoBracket, match="^spectrum still real at gamma = 0.1$"):
        find_exceptional_point(*ANCHOR, gamma_hi=0.1)


@pytest.mark.parametrize("gamma_hi", [-1.0, 0.0])
def test_exceptional_point_needs_a_positive_gamma_hi(gamma_hi):
    # a negative bound used to return the midpoint of [gamma_hi, 0] (-0.5 for
    # -1.0) although the anchor's exceptional point is 0.2110
    with pytest.raises(ValueError, match=f"^gamma_hi must be positive, got {gamma_hi}$"):
        find_exceptional_point(*ANCHOR, gamma_hi=gamma_hi)


def test_exceptional_point_gapless_at_zero():
    # the closed form gives gamma_c = 0 here (cosh argument exactly 1):
    # bisection either reports the degenerate bracket or collapses to ~0
    try:
        got = find_exceptional_point(-np.pi / 2, np.pi / 2, gamma_hi=0.5)
    except NoBracket:
        return
    assert got < 1e-5


def test_2d_has_no_exact_pt():
    # any nonzero gamma_x makes the 2D spectrum complex (first-order effect)
    p = WalkParams2D(np.pi / 3, np.pi / 5, 1e-3, 0.0)
    ks = momentum_grid(51)
    kx, ky = np.meshgrid(ks, ks, indexing="ij")
    from lossywalk.walks import u2d_k

    values, _ = eig2_batch(u2d_k(p, kx, ky))
    assert np.max(np.abs(np.log(np.abs(values)))) > 1e-8


def test_spectrum_closed_under_conjugation():
    # PT symmetry: per momentum, eigenvalue multisets of H(k) are closed
    # under complex conjugation (real or conjugate pairs)
    rng = np.random.default_rng(22)
    for _ in range(50):
        p = WalkParams1D(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi), rng.uniform(0, 1))
        values, _ = eig2_batch(u1d_ssqw_k(p, rng.uniform(-np.pi, np.pi)))
        es = -np.angle(values) + 1j * np.log(np.abs(values))
        # {E0, E1} == {conj(E0), conj(E1)} within tolerance, mod 2 pi
        d1 = max(branch_dist(es[0], np.conj(es[0])), branch_dist(es[1], np.conj(es[1])))
        d2 = max(branch_dist(es[0], np.conj(es[1])), branch_dist(es[1], np.conj(es[0])))
        assert min(d1, d2) < 1e-9
