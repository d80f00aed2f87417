import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lossywalk import invariants
from lossywalk.cli import parse_angle, parse_range
from lossywalk.errors import GapClosure, OrthogonalLink
from lossywalk.invariants import (
    BandData1D,
    BandData2D,
    band_spectrum_1d,
    band_spectrum_2d,
    chern_number,
    pancharatnam_phase,
    winding_number,
)
from lossywalk.linalg import eig2_batch, eig2_vector, quasienergy
from lossywalk.sweeps import STATUS_GAP_CLOSED, STATUS_OK
from lossywalk.walks import WalkParams1D, WalkParams2D, critical_gamma, momentum_grid, u1d_ssqw_k, u2d_k

from helpers import (
    _eig_lower_first, branch_dist, cell_outcome, chern_by_eig, chern_cell_by_stack, links_by_roll,
    lower_pick_by_angle, upper_band_by_eig, winding_by_eig, winding_row_by_cells,
)

FIG3A = WalkParams1D(-3 * np.pi / 8, np.pi / 8, 0.25)   # winding 1 phase
FIG3B = WalkParams1D(-3 * np.pi / 8, 5 * np.pi / 8, 0.25)  # winding 0 phase


def make_band(states, ks=None):
    states = np.asarray(states, dtype=complex)
    ks = momentum_grid(len(states)) if ks is None else ks
    return BandData1D(k_samples=ks, states=states)


# --------------------------------------------------------------------------
# discrete geometric phase

def test_pancharatnam_identical_states_zero():
    states = np.tile(np.array([1.0, 0.0], dtype=complex), (11, 1))
    assert pancharatnam_phase(make_band(states)) == 0.0


def test_pancharatnam_great_circle():
    # real spinors (cos k/2, sin k/2): all links real positive except the
    # closing one, which is real negative; total phase has magnitude pi.
    # Continuum-integral oracle: in this real gauge the connection vanishes
    # pointwise, so the loop phase is carried entirely by the antipodal
    # closure, +-pi exactly (half the solid angle of a great circle).
    ks = momentum_grid(101)
    states = np.stack([np.cos(ks / 2), np.sin(ks / 2)], axis=-1).astype(complex)
    connection = np.sum(np.conj(states) * np.gradient(states, ks, axis=0), axis=-1)
    assert np.max(np.abs(connection[1:-1])) < 1e-12  # interior: central differences
    total = pancharatnam_phase(make_band(states))
    assert abs(abs(total) - np.pi) < 1e-10
    w = winding_number(make_band(states))
    assert w.is_integer and abs(abs(w.w) - 1.0) < 1e-10
    assert w.w == total / np.pi  # exact by definition


def test_pancharatnam_gauge_invariance_small_redress():
    lower = band_spectrum_1d(FIG3A, 201)
    base = pancharatnam_phase(lower)
    rng = np.random.default_rng(3)
    for _ in range(100):
        phases = rng.uniform(-0.3, 0.3, size=len(lower.states))
        redressed = make_band(lower.states * np.exp(1j * phases)[:, None], lower.k_samples)
        assert abs(pancharatnam_phase(redressed) - base) < 1e-10


def test_pancharatnam_gauge_invariance_mod_2pi_arbitrary_redress():
    lower = band_spectrum_1d(FIG3A, 201)
    base = pancharatnam_phase(lower)
    rng = np.random.default_rng(4)
    for _ in range(20):
        phases = rng.uniform(-np.pi, np.pi, size=len(lower.states))
        redressed = make_band(lower.states * np.exp(1j * phases)[:, None], lower.k_samples)
        diff = pancharatnam_phase(redressed) - base
        assert abs(diff - 2 * np.pi * round(diff / (2 * np.pi))) < 1e-9


def test_pancharatnam_orthogonal_link_raises():
    states = np.array([[1, 0], [0, 1], [1, 0]], dtype=complex)
    with pytest.raises(OrthogonalLink):
        pancharatnam_phase(make_band(states))


# --------------------------------------------------------------------------
# 1D band construction

def _lower(u):
    """(lower lambda, entries) of a (..., 2, 2) stack: eig2_batch, then ``_lower_band``'s pick."""
    values, entries = eig2_batch(u)
    return invariants._lower_band(values[..., 0], values[..., 1])[1], entries


def _band_energies(p, n):
    """Quasi-energies of the lower band's lambda (``_lower_band``) and of the other eig2_batch eigenvalue."""
    u = u1d_ssqw_k(p, momentum_grid(n))
    lower = quasienergy(_lower(u)[0])
    es = quasienergy(eig2_batch(u)[0])
    assert np.all((lower == es[:, 0]) | (lower == es[:, 1]))
    return lower, np.where(lower == es[:, 0], es[:, 1], es[:, 0])


def test_band_spectrum_basics():
    lower = band_spectrum_1d(FIG3A, 201)
    assert np.all(np.diff(lower.k_samples) > 0)
    assert np.max(np.abs(np.linalg.norm(lower.states, axis=1) - 1.0)) < 1e-12
    # the states are the adjugate vectors of _lower_band's lambda
    lam, entries = _lower(u1d_ssqw_k(FIG3A, lower.k_samples))
    assert lower.states.tobytes() == eig2_vector(entries, lam).tobytes()
    # energies pair to zero sum per momentum (real parts mod 2 pi)
    energies, other = _band_energies(FIG3A, 201)
    s = energies + other
    wrapped = (s.real + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(wrapped + 1j * s.imag)) < 1e-9
    assert np.all(energies.real <= 1e-9)


def test_band_spectrum_hermitian_limit_real():
    energies, other = _band_energies(WalkParams1D(-np.pi / 2, np.pi / 2 + 0.1, 0.0), 201)
    assert np.max(np.abs(energies.imag)) < 1e-12
    assert np.max(np.abs(other.imag)) < 1e-12


def test_band_spectrum_broken_region_complex():
    energies, _ = _band_energies(WalkParams1D(-3 * np.pi / 8, np.pi / 4, 0.3), 201)
    assert np.max(np.abs(energies.imag)) > 1e-4


def test_band_spectrum_gap_closure_reported():
    with pytest.raises(GapClosure) as err:
        band_spectrum_1d(WalkParams1D(-np.pi / 2, np.pi / 2, 0.0), 200)  # even grid hits k = 0
    assert len(err.value.k_samples) >= 1


def test_batched_link_masks_match_scalar_raises():
    # three loops: a vanishing raw link, a vanishing closing link only, none
    r = 1 / np.sqrt(2)
    raw_thin = [[1, 0], [0, 1], [r, r]]
    closing_thin = [[1, 0], [r, r], [0, 1]]
    gapped = [[1, 0], [r, r], [1, 0]]
    batch = np.array([raw_thin, closing_thin, gapped], dtype=complex)
    phases = pancharatnam_phase(make_band(batch))
    assert np.isnan(phases[:2]).all() and np.isfinite(phases[2])
    for loop in (raw_thin, closing_thin):
        with pytest.raises(OrthogonalLink, match="orthogonal link"):
            pancharatnam_phase(make_band(loop))
    assert phases[2] == pancharatnam_phase(make_band(gapped))


def test_batched_band_spectrum_marks_closed_cells_and_matches_scalar_calls():
    cells = [(-3 * np.pi / 8, np.pi / 8, 0.25), (-np.pi / 2, np.pi / 2, 0.0), (-3 * np.pi / 8, np.pi / 4, 0.3)]
    cols = [np.array(c)[:, None] for c in zip(*cells)]
    lower = band_spectrum_1d(WalkParams1D(*cols), 200)
    assert lower.states.shape == (3, 200, 2)
    assert np.isnan(lower.states[1]).all()
    energies = quasienergy(_lower(u1d_ssqw_k(WalkParams1D(*cols), lower.k_samples))[0])
    for i in (0, 2):
        want = band_spectrum_1d(WalkParams1D(*cells[i]), 200)
        assert lower.states[i].tobytes() == want.states.tobytes()
        want_energies = quasienergy(_lower(u1d_ssqw_k(WalkParams1D(*cells[i]), want.k_samples))[0])
        assert energies[i].tobytes() == want_energies.tobytes()
    result = winding_number(lower)
    assert np.isnan(result.w[1]) and result.is_integer.tolist() == [True, False, False]


def test_batch_closes_a_cell_on_a_lower_band_link(monkeypatch):
    # a vanishing link of the lower band closes that cell of a batch (NaN w),
    # as the scalar call's OrthogonalLink does
    real = invariants.eig2_vector

    def thin_lower_link_in_first_cell(entries, lam):
        states = real(entries, lam)
        if lam.ndim == 2:
            states[0, 7] = 0.0  # the lower band's state, the only one built
        return states

    monkeypatch.setattr(invariants, "eig2_vector", thin_lower_link_in_first_cell)
    gammas = np.array([[0.0], [0.1]])
    lower = band_spectrum_1d(WalkParams1D(-3 * np.pi / 8, np.pi / 8, gammas), 51)
    assert np.isfinite(lower.states).all()
    w = winding_number(lower).w
    assert np.isnan(w[0]) and abs(w[1] - 1.0) < 1e-6
    with pytest.raises(OrthogonalLink):
        pancharatnam_phase(make_band(lower.states[0], lower.k_samples))


# --------------------------------------------------------------------------
# winding numbers

def test_winding_anchor_nontrivial_phase():
    lower = band_spectrum_1d(FIG3A, 201)
    res = winding_number(lower)
    assert abs(res.w - 1.0) < 1e-6


def test_winding_anchor_trivial_phase():
    lower = band_spectrum_1d(FIG3B, 201)
    res = winding_number(lower)
    assert abs(res.w) < 1e-6


def test_winding_decays_beyond_critical():
    values = []
    for g in (1.2, 1.8, 3.0):
        lower = band_spectrum_1d(WalkParams1D(-3 * np.pi / 8, np.pi / 8, g), 201)
        values.append(winding_number(lower))
    ws = [r.w for r in values]
    assert all(0 < w < 1 for w in ws)
    assert ws[0] > ws[1] > ws[2]
    assert not values[0].is_integer


def test_hermitian_winding_integer_and_grid_stable():
    rng = np.random.default_rng(9)
    tested = 0
    while tested < 10:
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        try:
            lower = band_spectrum_1d(WalkParams1D(t1, t2, 0.0), 101)
        except GapClosure:
            continue
        res = winding_number(lower)
        if not res.is_integer:
            continue  # skip near-gapless parameter draws
        for n in (51, 201):
            lo_n = band_spectrum_1d(WalkParams1D(t1, t2, 0.0), n)
            assert abs(winding_number(lo_n).w - res.w) < 1e-6
        tested += 1


def test_lower_and_upper_band_wind_identically():
    rng = np.random.default_rng(10)
    tested = 0
    while tested < 20:
        t1 = -rng.uniform(0.3, np.pi - 0.3)
        t2 = rng.uniform(0.3, np.pi - 0.3)
        g = rng.uniform(0.0, 0.15)
        try:
            wl = winding_number(band_spectrum_1d(WalkParams1D(t1, t2, g), 201))
        except GapClosure:
            continue
        wu = winding_number(upper_band_by_eig(WalkParams1D(t1, t2, g), 201))
        if not (wl.is_integer and wu.is_integer):
            continue  # only the gapped exact-PT regime is asserted
        assert abs(wl.w - wu.w) < 1e-6
        tested += 1


def test_winding_continuous_in_gamma_across_critical():
    gc = critical_gamma(-3 * np.pi / 8, np.pi / 8, 0.0, 0.0).gamma_c
    gs = np.linspace(gc - 0.1, gc + 0.4, 26)
    ws = []
    for g in gs:
        lower = band_spectrum_1d(WalkParams1D(-3 * np.pi / 8, np.pi / 8, float(g)), 201)
        ws.append(winding_number(lower).w)
    steps = np.abs(np.diff(ws))
    assert np.max(steps) <= 5.0 * (gs[1] - gs[0])


ANGLE_1D = st.floats(-np.pi, np.pi)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ANGLE_1D, ANGLE_1D, st.floats(0.0, 2.0), st.sampled_from([51, 200]))
@example(-3 * np.pi / 8, np.pi / 8, 0.25, 51)  # FIG3A: the holonomy sits on the cut, w = +1
@example(-np.pi / 2, np.pi / 2, 0.0, 200)  # the even grid hits the closing at k = 0
def test_lower_band_winding_matches_eig_oracle(t1, t2, g, n):
    p = WalkParams1D(t1, t2, g)
    try:
        want, separation = winding_by_eig(p, n)
    except (GapClosure, OrthogonalLink):
        with pytest.raises((GapClosure, OrthogonalLink)):
            winding_number(band_spectrum_1d(p, n))
        return
    w = winding_number(band_spectrum_1d(p, n)).w
    # LAPACK's vectors carry an error of order eps / separation, so the
    # bound widens below a separation of 0.1
    assert abs(w - want) < 1e-9 * max(1.0, 0.1 / separation)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(ANGLE_1D, ANGLE_1D)
def test_winding_batch_of_41_cells_equals_per_cell_calls(t1, t2):
    # a figure-sized row, gamma from 0 into the broken regime, one batch
    gammas = np.linspace(0.0, 2.0, 41)
    batch = winding_number(band_spectrum_1d(WalkParams1D(t1, t2, gammas[:, None]), 201)).w
    want, _ = winding_row_by_cells([(t1, t2, g, 201) for g in gammas])
    assert batch.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# Chern numbers

def test_chern_constant_field_zero():
    n = 21
    states = np.tile(np.array([0.6, 0.8j], dtype=complex), (n, n, 1))
    band = BandData2D(kx=momentum_grid(n) / 2, ky=momentum_grid(n) / 2, states=states)
    c, field = chern_number(band)
    assert c == 0
    assert np.max(np.abs(field)) < 1e-12


def test_chern_nontrivial_and_trivial_cells():
    # the gapped nontrivial diamond: (3pi/2, 7pi/6); gapped trivial: (7pi/6, 7pi/6)
    lower = band_spectrum_2d(WalkParams2D(3 * np.pi / 2, 7 * np.pi / 6), 101, 101)
    assert chern_number(lower)[0] == 1
    lower = band_spectrum_2d(WalkParams2D(7 * np.pi / 6, 7 * np.pi / 6), 101, 101)
    assert chern_number(lower)[0] == 0
    lower = band_spectrum_2d(WalkParams2D(np.pi / 4, np.pi / 4), 101, 101)
    assert chern_number(lower)[0] == -1


ANGLE = st.floats(0.0, 2 * np.pi)
# a figure 2b gap_closed cell: theta2 = 0 closes the gap for every theta1
FIG2B_GAP_CELL = (float(np.linspace(0.0, 2 * np.pi, 51)[7]), 0.0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ANGLE, ANGLE)
def test_chern_grid_refinement_stable(t1, t2):
    # at zero loss the gap closes only on the lines theta1 +- theta2/2 in pi Z
    # and theta2 in 2 pi Z (docs/NOTES.md); a margin of 0.05 away from all of
    # them, C is the same exact integer on any fine grid
    distances = [abs((t1 + sign * t2 / 2 + np.pi / 2) % np.pi - np.pi / 2) / np.hypot(1.0, 0.5)
                 for sign in (1, -1)]
    assume(min(distances + [abs((t2 + np.pi) % (2 * np.pi) - np.pi)]) >= 0.05)
    c51, _ = chern_number(band_spectrum_2d(WalkParams2D(t1, t2), 51, 51))
    c101, _ = chern_number(band_spectrum_2d(WalkParams2D(t1, t2), 101, 101))
    assert c51 == c101


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ANGLE, ANGLE, st.floats(0.0, 2.0), st.floats(0.0, 1.0))
@example(*FIG2B_GAP_CELL, 0.0, 0.0)
@example(1.0, 0.0, 0.0, 1.0)  # real negative pairs: the band order ties mod 2 pi (docs/NOTES.md)
def test_lower_band_chern_matches_eig_oracle(t1, t2, gx, gy):
    p = WalkParams2D(t1, t2, gx, gy)
    try:
        want, want_field, separation = chern_by_eig(p, 51)
    except (GapClosure, OrthogonalLink) as exc:
        with pytest.raises(type(exc)):
            chern_number(band_spectrum_2d(p, 51, 51))
        return
    c, field = chern_number(band_spectrum_2d(p, 51, 51))
    assert c == want
    # the two-link field in the adjugate gauge is the four-link one, mod 2 pi;
    # LAPACK's vectors carry an error of order eps / separation, so the
    # bound widens below a separation of 0.1
    tol = 1e-12 * max(1.0, 0.1 / separation)
    assert np.max(np.abs(np.angle(np.exp(1j * (field - want_field))))) < tol


def test_lower_band_sits_on_the_oracle_band_on_real_pairs():
    # where the pair is real its quasi-energies tie in Re E modulo 2 pi and
    # the decaying one is lower: the real negative pairs of the 2D grid at
    # (1, 0, 0, 1) (docs/NOTES.md) and the broken regions of three 1D loops
    p2 = WalkParams2D(1.0, 0.0, 0.0, 1.0)
    band2 = band_spectrum_2d(p2, 51, 51)
    p1 = WalkParams1D(-3 * np.pi / 8, np.pi / 8, np.array([[0.3], [0.6], [1.2]]))
    band1 = band_spectrum_1d(p1, 201)
    stacks = [u2d_k(p2, band2.kx[:, None], band2.ky[None, :]), u1d_ssqw_k(p1, band1.k_samples)]
    got = np.concatenate([quasienergy(_lower(u)[0]).ravel() for u in stacks])
    want = np.concatenate([quasienergy(_eig_lower_first(u)[0][..., 0]).ravel() for u in stacks])
    assert np.count_nonzero(np.abs(np.sin(want.real)) < 1e-9) > 1000
    off = np.count_nonzero(~(branch_dist(got, want) < 1e-9))
    assert off == 0, f"{off} of {got.size} samples off the oracle's lower band"


def _library_cell(p, n):
    return chern_number(band_spectrum_2d(p, n, n))


def _cells_match_the_stack(params, n):
    """Assert the library's C, status and field equal chern_cell_by_stack's per cell; the statuses."""
    statuses = []
    for p in params:
        c, field, status = cell_outcome(_library_cell, p, n)
        want_c, want_field, want_status = cell_outcome(chern_cell_by_stack, p, n)
        assert (c, status) == (want_c, want_status), p
        if status == STATUS_OK:
            assert np.max(np.abs(field - want_field)) < 1e-12, p
        statuses.append(status)
    return statuses


@pytest.mark.parametrize("n", [13, 25, 51])
def test_chern_cells_equal_the_stacked_path_on_random_cells(n):
    # the entry-array cell against u2d_k -> eig2_batch -> angle pick -> hypot
    # vector -> einsum/roll links, on lossy cells with real pairs (ties)
    rng = np.random.default_rng(1000 + n)
    params = [WalkParams2D(*rng.uniform(0.0, 2 * np.pi, 2), rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0))
              for _ in range(40)]
    assert STATUS_OK in _cells_match_the_stack(params, n)


def test_chern_cells_equal_the_stacked_path_on_the_fig2b_gap_lines():
    # theta2 in {0, 2 pi} closes the gap for every theta1 (docs/NOTES.md)
    params = [WalkParams2D(t1, t2) for t2 in (0.0, 2 * np.pi) for t1 in parse_range("0:2pi:51")]
    assert set(_cells_match_the_stack(params, 13)) == {STATUS_GAP_CLOSED}


@pytest.mark.parametrize("row", [0, 25])
def test_chern_cells_equal_the_stacked_path_on_a_chern_loss_row(row):
    # the benchmark's chern_loss at seed 0 (figure 5, panel 4): at
    # theta2 = 0 (row 0) about 1000 grid points per cell are real pairs, tied
    # modulo 2 pi; at row 25 C goes 1, 0, 1, 0 along gamma_x
    t2 = parse_range("0:2pi:31")[row]
    params = [WalkParams2D(parse_angle("3pi/8"), t2, gx, 0.5) for gx in parse_range("0:2:31")]
    assert set(_cells_match_the_stack(params, 51)) == {STATUS_OK}


def _tie_samples():
    """lambda0 on and off the tie set, with |lambda0| on both sides of 1."""
    rng = np.random.default_rng(17)
    mags = np.concatenate([rng.uniform(0.2, 5.0, 200), [1.0 - 1e-3, 1.0 + 1e-3, 3.0, 1 / 3.0]])
    half_tol = invariants.DEGENERACY_TOL / 2
    args = np.concatenate([rng.uniform(-np.pi, np.pi, 200),
                           [s * f * half_tol for s in (1, -1) for f in (10.0, 2.0, 0.5, 0.1)],
                           [s * (np.pi - f * half_tol) for s in (1, -1) for f in (10.0, 2.0, 0.5, 0.1)]])
    lam0 = (mags[:, None] * np.exp(1j * args)[None, :]).ravel()
    # exact real pairs of both signs, with either signed zero imaginary part
    real = [complex(x, z) for x in (-3.0, -1.5, 1.5, 3.0, -0.5, 0.5) for z in (0.0, -0.0)]
    return np.concatenate([lam0, np.array(real)])


def test_im_form_tie_picks_as_the_angle_form():
    # arg lambda0 > 0 <=> Im lambda0 > 0 off the tie set, and the tie
    # |Im lambda0| < (DEGENERACY_TOL/2) |lambda0| is the % form's away
    # from its threshold: both pick the same lambda on every sample
    lam0 = _tie_samples()
    lam1 = 1.0 / lam0
    got = invariants._lower_band(lam0, lam1)[1]
    assert got.tobytes() == lower_pick_by_angle(lam0, lam1).tobytes()
    # the samples reach both branches of the tie
    tie = np.abs(lam0.imag) < invariants.DEGENERACY_TOL / 2 * np.abs(lam0)
    assert 0 < np.count_nonzero(tie) < tie.size and np.any(tie & (got == lam0))


def test_sliced_links_match_einsum_and_roll():
    rng = np.random.default_rng(23)

    def unit_states(*shape):
        s = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
        return s / np.linalg.norm(s, axis=-1, keepdims=True)

    for states, axes in ((unit_states(51), [-2]), (unit_states(7, 51), [-2]), (unit_states(13, 25), [0, 1])):
        for axis in axes:
            got = invariants._links(states, axis)
            assert np.max(np.abs(got - links_by_roll(states, axis))) < 1e-15


def test_isotropic_points_pass_band_spectrum_2d_vector_step_silently(monkeypatch):
    # at zero angles and loss the step is diag(e^{2i(kx+ky)}, c.c.), a scaled
    # identity on the 13 grid points with 4 (kx + ky) in 2 pi Z.  With the
    # collision check off they reach the vector step, which gives e1 there
    # and raises no RuntimeWarning
    monkeypatch.setattr(invariants, "GAP_COLLISION_TOL", 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        band = band_spectrum_2d(WalkParams2D(0.0, 0.0), 13, 13)
    isotropic = (band.states[..., 0] == 1.0) & (band.states[..., 1] == 0.0)
    assert np.count_nonzero(isotropic) == 13
    assert np.max(np.abs(np.linalg.norm(band.states, axis=-1) - 1.0)) < 1e-15


def test_chern_gap_closure_names_the_colliding_grid_points():
    # on a figure 2b gap_closed cell the raise comes from the eigenvalues
    # alone, at exactly the grid points where eig2_batch's pair collides
    p = WalkParams2D(*FIG2B_GAP_CELL)
    with pytest.raises(GapClosure) as err:
        band_spectrum_2d(p, 101, 101)
    q = (-np.pi + 2.0 * np.pi * (np.arange(101) + 0.25) / 101) / 2.0
    values, _ = eig2_batch(u2d_k(p, q[:, None], q[None, :]))
    ii, jj = np.nonzero(np.abs(values[..., 0] - values[..., 1]) < invariants.GAP_COLLISION_TOL)
    assert len(ii) > 0
    assert [tuple(k) for k in err.value.k_samples] == list(zip(q[ii], q[jj]))


def test_chern_integer_for_lossy_band():
    lower = band_spectrum_2d(WalkParams2D(np.pi / 4, np.pi / 4, 0.5, 0.0), 61, 61)
    c, _ = chern_number(lower)  # integrality is checked inside
    assert c in (-1, 0, 1)


def test_chern_loss_induced_transition():
    # C jumps from -1 to 0 as gamma_x grows at (pi/4, pi/4)
    cs = []
    for gx in (0.0, 0.5, 2.0):
        lower = band_spectrum_2d(WalkParams2D(np.pi / 4, np.pi / 4, gx, 0.0), 61, 61)
        cs.append(chern_number(lower)[0])
    assert cs[0] == -1 and cs[-1] == 0


@pytest.mark.parametrize("nx, ny", [(0, 5), (5, 0), (-2, -2)])
def test_band_spectrum_2d_rejects_grid_sizes_below_one(nx, ny):
    # an empty grid would have summed to a Chern number of 0
    with pytest.raises(ValueError, match=f"^grid sizes must be positive, got {nx} x {ny}$"):
        band_spectrum_2d(WalkParams2D(np.pi / 4, np.pi / 2, 0.0, 0.0), nx, ny)
