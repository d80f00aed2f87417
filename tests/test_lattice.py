import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_multiset_close,
    chain_operator_by_matmul,
    strip_bands_by_loop,
    strip_operator_by_matmul,
)

from lossywalk.errors import InvalidRegion
from lossywalk.lattice import (
    EDGE_IPR_MIN,
    EDGE_WINDOW,
    RegionSpec,
    _kx_classes,
    build_chain_operator,
    build_strip_operator,
    bulk_gap_half_width,
    chain_spectrum,
    detect_edge_states,
    strip_band_structure,
    strip_gap_states,
    strip_gap_states_grid,
)
from lossywalk.linalg import eig2_batch, is_unitary, quasienergy
from lossywalk.walks import WalkParams1D, WalkParams2D, u1d_ssqw_k, u2d_k

FIG6_SPEC = RegionSpec(50, (-3 * np.pi / 8, 5 * np.pi / 8), (-3 * np.pi / 8, np.pi / 4))
FIG8_SPEC = RegionSpec(50, (7 * np.pi / 6, 7 * np.pi / 6), (3 * np.pi / 2, np.pi))


def ring_momenta(n):
    ks = 2.0 * np.pi * np.arange(n) / n
    return (ks + np.pi) % (2 * np.pi) - np.pi


def test_region_spec_validation():
    with pytest.raises(InvalidRegion):
        RegionSpec(100, (0.1, 0.2), (0.3, 0.4)).validate(201)
    with pytest.raises(InvalidRegion):
        RegionSpec(10, (0.1, 0.2), (0.3, 0.4)).validate(200)  # even ring
    RegionSpec(50, (0.1, 0.2), (0.3, 0.4)).validate(201)


def test_chain_homogeneous_fourier_blocks():
    # homogeneous lossy chain == union of momentum-space spectra
    n = 61
    t1, t2, g = -3 * np.pi / 8, np.pi / 4, 0.1
    spec = RegionSpec(15, (t1, t2), (t1, t2))
    op = build_chain_operator(n, spec, g)
    got = np.linalg.eigvals(op)
    p = WalkParams1D(t1, t2, g)
    blocks = u1d_ssqw_k(p, ring_momenta(n))
    want, _ = eig2_batch(blocks)
    assert_multiset_close(got, want.ravel(), 1e-8)


def test_chain_unitary_at_zero_scaling_inhomogeneous():
    op = build_chain_operator(101, RegionSpec(25, (0.3, -0.8), (1.1, 2.0)), 0.0)
    assert is_unitary(op, 1e-10)


def test_chain_unit_determinant():
    op = build_chain_operator(101, RegionSpec(25, FIG6_SPEC.params_inner, FIG6_SPEC.params_outer), 0.15)
    sign, logdet = np.linalg.slogdet(op)
    assert abs(sign * np.exp(logdet) - 1.0) < 1e-6 * 101


def test_chain_two_real_eigenvalues_at_interface():
    op = build_chain_operator(201, FIG6_SPEC, 0.0)
    lam = chain_spectrum(op)[0]
    real_axis = np.abs(lam.imag) < 1e-6
    assert real_axis.sum() == 2
    assert np.all(np.abs(np.abs(lam) - 1.0) < 1e-8)  # unitary: unit circle
    # real eigenvalues on the circle sit at +-1, i.e. quasi-energy 0 or pi
    assert np.all(np.abs(np.abs(lam.real[real_axis]) - 1.0) < 1e-6)


def test_edge_state_detection_interface():
    for g, tol in ((0.0, 1e-6), (0.2, 1e-4)):
        op = build_chain_operator(201, FIG6_SPEC, g)
        reports = detect_edge_states(*chain_spectrum(op), tol, FIG6_SPEC.boundary)
        edges = [r for r in reports if r.is_edge]
        assert len(edges) == 2
        # the two boundary modes hybridize into even/odd pairs with weight
        # at both interfaces; each peak lies within the window of +-L_B
        for r in edges:
            assert min(abs(r.peak_site - 50), abs(r.peak_site + 50)) <= 10
            assert r.ipr >= 0.05


def test_no_edge_states_on_homogeneous_ring():
    spec = RegionSpec(50, (-3 * np.pi / 8, np.pi / 4), (-3 * np.pi / 8, np.pi / 4))
    op = build_chain_operator(201, spec, 0.0)
    reports = detect_edge_states(*chain_spectrum(op), 1e-6, spec.boundary)
    assert sum(1 for r in reports if r.is_edge) == 0


def test_chain_bulk_on_unit_circle_below_critical():
    op = build_chain_operator(201, FIG6_SPEC, 0.2)  # below min(0.2110, 0.2832)
    lam = chain_spectrum(op)[0]
    off = np.abs(np.abs(lam) - 1.0)
    # all but the persisting edge pair stay on the circle
    assert (off > 1e-6).sum() <= 2
    assert (np.abs(lam.imag) < 1e-4).sum() >= 2


def test_chain_broken_regime_many_complex_energies():
    op = build_chain_operator(201, FIG6_SPEC, 0.25)
    lam = chain_spectrum(op)[0]
    im_e = np.abs(np.log(np.abs(lam)))
    assert (im_e > 1e-3).sum() >= 10


def test_chain_pt_eigenvalue_pairing():
    # exact-PT regime: spectrum closed under lambda -> 1/conj(lambda)
    op = build_chain_operator(201, FIG6_SPEC, 0.2)
    lam = chain_spectrum(op)[0]
    assert_multiset_close(lam, 1.0 / np.conj(lam), 1e-6)


def test_edge_count_stable_under_boundary_shift():
    for lb in (40, 50, 60):
        spec = RegionSpec(lb, FIG6_SPEC.params_inner, FIG6_SPEC.params_outer)
        op = build_chain_operator(201, spec, 0.1)
        reports = detect_edge_states(*chain_spectrum(op), 1e-4, lb)
        assert sum(1 for r in reports if r.is_edge) == 2


def test_strip_homogeneous_fourier_blocks():
    n_y = 41
    t1, t2 = 7 * np.pi / 6, 7 * np.pi / 6
    gx, gy = 0.15, 0.1
    spec = RegionSpec(10, (t1, t2), (t1, t2))
    kx = 0.37
    op = build_strip_operator(n_y, spec, kx, gx, gy)
    got = np.linalg.eigvals(op)
    p = WalkParams2D(t1, t2, gx, gy)
    blocks = u2d_k(p, kx, ring_momenta(n_y))
    want, _ = eig2_batch(blocks)
    assert_multiset_close(got, want.ravel(), 1e-8)


def test_strip_unitary_at_zero_scaling():
    op = build_strip_operator(61, RegionSpec(15, (0.5, 1.0), (2.0, -0.7)), 0.9, 0.0, 0.0)
    assert is_unitary(op, 1e-10)


SMALL_FIG8 = RegionSpec(25, FIG8_SPEC.params_inner, FIG8_SPEC.params_outer)
STRIP_SPEC = RegionSpec(10, FIG8_SPEC.params_inner, FIG8_SPEC.params_outer)
STRIP_NY = 41


def test_strip_gap_hosts_interface_states():
    half = bulk_gap_half_width(SMALL_FIG8, 101, 1.0, 0.0, 0.0)
    states = strip_gap_states(SMALL_FIG8, 101, 1.0, 0.0, 0.0, gap_half=half)
    assert len(states) >= 1
    assert all(s.is_edge for s in states)  # peaked at the region boundaries


def test_strip_gap_states_persist_with_loss():
    half = bulk_gap_half_width(SMALL_FIG8, 101, 1.0, 0.2, 0.2)
    states = strip_gap_states(SMALL_FIG8, 101, 1.0, 0.2, 0.2, gap_half=half)
    assert len(states) >= 1
    assert any(s.is_edge for s in states)


def test_strip_band_structure_rows_sorted():
    bands = strip_band_structure(STRIP_SPEC, STRIP_NY, 8, 0.0, 0.0)
    assert bands.re_energies.shape == (8, 2 * STRIP_NY)
    assert np.all(np.diff(bands.re_energies, axis=1) >= 0)
    assert np.all(np.diff(bands.kx) > 0)


def test_strip_band_edges_converge_with_width():
    # bulk band edges move by < 1e-2 between n_y = 101 and 201
    kx = 0.7
    edges = []
    for n_y in (101, 201):
        half = bulk_gap_half_width(SMALL_FIG8, n_y, kx, 0.0, 0.0)
        edges.append(half)
    assert abs(edges[0] - edges[1]) < 1e-2
    # and the strip spectrum's own band edge tracks the bulk value
    op = build_strip_operator(201, FIG8_SPEC, kx, 0.0, 0.0)
    lam = np.linalg.eigvals(op)
    re = np.abs(np.sort(np.angle(lam)))  # |Re E| values
    bulk_like = re[re > edges[1] - 1e-6]
    assert bulk_like.min() < edges[1] + 0.05


# --------------------------------------------------------------------------
# spin-block builders against dense @-chain oracles (tests/helpers.py)

ANGLES = st.floats(-2 * np.pi, 2 * np.pi)
SCALINGS = st.floats(-0.5, 0.5)


@st.composite
def regions(draw):
    """(odd ring size <= 61, valid RegionSpec); about half of them homogeneous."""
    n = 2 * draw(st.integers(2, 30)) + 1
    inner = (draw(ANGLES), draw(ANGLES))
    outer = inner if draw(st.booleans()) else (draw(ANGLES), draw(ANGLES))
    return n, RegionSpec(draw(st.integers(1, (n - 1) // 2 - 1)), inner, outer)


def assert_rel_close(got, want, rtol):
    """Max-entry error within rtol of the reference's largest entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def assert_fourier_blocks(op, blocks):
    """op maps each plane wave e^{-2 pi i j y / n} (x) coin to itself times blocks[j]."""
    n = len(blocks)
    y = np.arange(n)
    waves = np.exp(-2j * np.pi * np.outer(y, y) / n)
    planes = np.einsum("yj,ts->ytjs", waves, np.eye(2)).reshape(2 * n, 2 * n)
    want = np.einsum("yj,jts->ytjs", waves, blocks).reshape(2 * n, 2 * n)
    assert_rel_close(op @ planes, want, 1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(regions(), SCALINGS, SCALINGS, SCALINGS, st.floats(-2 * np.pi, 2 * np.pi))
def test_builders_match_matmul_oracles(region, g, gx, gy, kx):
    n, spec = region
    chain = build_chain_operator(n, spec, g)
    strip = build_strip_operator(n, spec, kx, gx, gy)
    assert_rel_close(chain, chain_operator_by_matmul(n, spec, g), 1e-13)
    assert_rel_close(strip, strip_operator_by_matmul(n, spec, kx, gx, gy), 1e-13)
    if spec.params_inner == spec.params_outer:
        t1, t2 = spec.params_inner
        qs = 2.0 * np.pi * np.arange(n) / n
        assert_fourier_blocks(chain, u1d_ssqw_k(WalkParams1D(t1, t2, g), qs))
        assert_fourier_blocks(strip, u2d_k(WalkParams2D(t1, t2, gx, gy), kx, qs))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(regions(), SCALINGS)
def test_chain_is_real_with_conjugate_closed_unit_determinant_spectrum(region, g):
    n, spec = region
    chain = build_chain_operator(n, spec, g)
    oracle = chain_operator_by_matmul(n, spec, g)
    assert chain.dtype == np.float64
    assert not np.any(oracle.imag)  # every factor is real
    assert_rel_close(chain, oracle.real, 1e-13)
    lam = chain_spectrum(chain)[0]
    # real LAPACK returns exact conjugate pairs
    conj = np.conj(lam)
    assert np.array_equal(lam, conj[np.lexsort((conj.imag, conj.real))])
    assert abs(np.sum(np.log(np.abs(lam)))) < 1e-9  # det U = 1


# --------------------------------------------------------------------------
# kx symmetry classes of the strip: premises, class count, mirrored rows


@settings(derandomize=True, max_examples=100, deadline=None)
@given(regions(), SCALINGS, SCALINGS, st.floats(-2 * np.pi, 2 * np.pi))
def test_strip_kx_symmetry_premises(region, gx, gy, kx):
    n, spec = region
    op = build_strip_operator(n, spec, kx, gx, gy)
    assert np.array_equal(build_strip_operator(n, spec, -kx, gx, gy), op.conj())
    assert_rel_close(build_strip_operator(n, spec, kx + np.pi, gx, gy), op, 1e-13)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(regions(), SCALINGS, SCALINGS, st.sampled_from([-np.pi, -np.pi / 2, 0.0, np.pi / 2]))
def test_strip_real_where_two_kx_is_a_multiple_of_pi(region, gx, gy, kx):
    n, spec = region
    op = build_strip_operator(n, spec, kx, gx, gy)
    assert np.max(np.abs(op.imag)) <= 1e-15 * np.max(np.abs(op))
    assert np.array_equal(build_strip_operator(n, spec, -kx, gx, gy).real, op.real)


def test_kx_classes_cover_the_grid():
    for n in range(1, 70):
        classes = _kx_classes(n)
        reps = {rep for rep, _, _ in classes}
        assert len(reps) == (n // 4 + 1 if n % 2 == 0 else (n + 1) // 2)
        assert all(classes[rep][:2] == (rep, False) for rep in reps)
        # {-pi, 0} is self-conjugate on every grid, {-pi/2, pi/2} too when 4 | n
        assert sum(classes[rep][2] for rep in reps) == (2 if n % 4 == 0 else 1)
        for j, (rep, mirrored, real) in enumerate(classes):
            # j is rep, rep + pi, -rep or -rep + pi on the grid
            partners = {rep, (rep + n // 2) % n} if n % 2 == 0 else {rep}
            if mirrored:
                partners = {(n - p) % n for p in partners}
            assert j in partners
            # self-conjugate iff 2 kx_rep is a multiple of pi; its members are copies
            assert real == ((4 * rep) % n == 0)
            assert not (real and mirrored)


def _circle_distance(got, want):
    """Largest distance from a point of either row to its nearest partner, on the unit circle."""
    d = np.abs(np.exp(1j * got)[:, None] - np.exp(1j * want)[None, :])
    return max(d.min(axis=0).max(), d.min(axis=1).max())


def _in_gap_counts(rows, halves, margin=1e-3):
    """States per row inside the zero- and pi-gap windows of half-width halves[j] - margin."""
    re = np.abs(rows)
    window = (np.asarray(halves) - margin)[:, None]
    return np.sum(re < window, axis=1), np.sum(np.pi - re < window, axis=1)


@pytest.mark.parametrize("kx_samples", [1, 2, 3, 4, 6, 8])
def test_strip_bands_match_per_kx_loop(kx_samples):
    ks, want = strip_bands_by_loop(STRIP_SPEC, STRIP_NY, kx_samples, 0.0, 0.0)
    got = strip_band_structure(STRIP_SPEC, STRIP_NY, kx_samples, 0.0, 0.0)
    assert np.array_equal(got.kx, ks)
    for j in range(kx_samples):
        assert _circle_distance(got.re_energies[j], want[j]) <= 1e-9, f"kx#{j}"
    halves = [bulk_gap_half_width(STRIP_SPEC, STRIP_NY, kx, 0.0, 0.0) for kx in ks]
    _, want = strip_bands_by_loop(STRIP_SPEC, STRIP_NY, kx_samples, 0.2, 0.2)
    got = strip_band_structure(STRIP_SPEC, STRIP_NY, kx_samples, 0.2, 0.2)
    for got_counts, want_counts in zip(_in_gap_counts(got.re_energies, halves),
                                       _in_gap_counts(want, halves)):
        assert got_counts.tolist() == want_counts.tolist()


@pytest.mark.parametrize("gamma", [0.0, 0.2, 0.47])
def test_strip_bands_exact_mirror_rows_bit_equal(gamma):
    # on the 4-grid, kx = +-pi/2 is a self-conjugate class: row 3 copies row 1's
    # real solve, and U(-kx).real is bit-equal to U(kx).real, so both rows are
    # bit-equal to a direct real solve
    ks, want = strip_bands_by_loop(STRIP_SPEC, STRIP_NY, 4, gamma, gamma)
    assert ks[3] == -ks[1] == np.pi / 2
    got = strip_band_structure(STRIP_SPEC, STRIP_NY, 4, gamma, gamma)
    assert _kx_classes(4)[3] == (1, False, True)
    for j in (1, 3):
        op = build_strip_operator(STRIP_NY, STRIP_SPEC, ks[j], gamma, gamma)
        direct = np.sort(quasienergy(np.linalg.eigvals(op.real)).real)
        assert np.array_equal(got.re_energies[j], direct)
    # against the complex per-kx oracle by the output rule of docs/NOTES.md
    if gamma == 0.0:
        for j in (1, 3):
            assert _circle_distance(got.re_energies[j], want[j]) <= 1e-9
    else:
        halves = [bulk_gap_half_width(STRIP_SPEC, STRIP_NY, ks[j], 0.0, 0.0) for j in (1, 3)]
        for got_counts, want_counts in zip(_in_gap_counts(got.re_energies[[1, 3]], halves),
                                           _in_gap_counts(want[[1, 3]], halves)):
            assert got_counts.tolist() == want_counts.tolist()


@pytest.mark.parametrize("gamma", [0.0, 0.2])
def test_strip_gap_states_grid_matches_per_kx_calls(gamma):
    n = 8
    ks = -np.pi + 2 * np.pi * np.arange(n) / n
    halves = np.array([bulk_gap_half_width(STRIP_SPEC, STRIP_NY, kx, 0.0, 0.0) for kx in ks])
    grid = strip_gap_states_grid(STRIP_SPEC, STRIP_NY, n, gamma, gamma, gap_half=halves)
    classes = _kx_classes(n)
    assert len(grid) == n
    for j, kx in enumerate(ks):
        want = strip_gap_states(STRIP_SPEC, STRIP_NY, float(kx), gamma, gamma, gap_half=halves[j])
        got = grid[j]
        assert len(got) == len(want), f"kx#{j}"
        # at gamma > 0, nearly equal Re E may swap order between partner rows
        assert sorted((s.peak_site, s.is_edge) for s in got) == sorted(
            (s.peak_site, s.is_edge) for s in want)
        if gamma == 0.0:
            for g, w in zip(got, want):
                assert abs(g.eigenvalue - w.eigenvalue) <= 1e-9
                assert abs(g.ipr - w.ipr) <= 1e-9
        rep, mirrored, _ = classes[j]
        if rep == j:
            assert got == want
        elif mirrored and kx == -ks[rep]:
            assert got == want  # exact negation: the mirror is a direct solve


def _near_boundary(report, boundary):
    return min(abs(report.peak_site - boundary), abs(report.peak_site + boundary)) <= EDGE_WINDOW


def test_is_edge_rules_of_chain_and_strip():
    # a chain edge state peaks near a region boundary and reaches EDGE_IPR_MIN
    low_ipr_near = 0
    for n, lb, g, tol in ((201, 50, 0.0, 1e-6), (201, 50, 0.25, 1e-4), (101, 25, 0.3, 1e-4)):
        spec = RegionSpec(lb, FIG6_SPEC.params_inner, FIG6_SPEC.params_outer)
        reports = detect_edge_states(*chain_spectrum(build_chain_operator(n, spec, g)), tol, lb)
        assert reports
        for r in reports:
            assert r.is_edge == (_near_boundary(r, lb) and r.ipr >= EDGE_IPR_MIN)
            low_ipr_near += _near_boundary(r, lb) and r.ipr < EDGE_IPR_MIN
    assert low_ipr_near > 0  # the IPR threshold decides some chain states
    # a strip in-gap state is an edge state by its peak alone
    ks = -np.pi + 2 * np.pi * np.arange(8) / 8
    halves = np.array([bulk_gap_half_width(STRIP_SPEC, STRIP_NY, kx, 0.0, 0.0) for kx in ks])
    states = [s for row in strip_gap_states_grid(STRIP_SPEC, STRIP_NY, 8, 0.47, 0.47, gap_half=halves)
              for s in row]
    assert states
    assert all(s.is_edge == _near_boundary(s, STRIP_SPEC.boundary) for s in states)
    # not vacuous: 32 of the 76 are edge states below the chain's IPR threshold
    assert any(s.is_edge and s.ipr < EDGE_IPR_MIN for s in states)


def test_strip_gap_states_grid_rejects_wrong_window_shape():
    with pytest.raises(ValueError):
        strip_gap_states_grid(STRIP_SPEC, STRIP_NY, 4, 0.0, 0.0, gap_half=np.ones(3))
