import numpy as np
import pytest

from lossywalk import invariants
from lossywalk.errors import GapClosure, OrthogonalLink
from lossywalk.invariants import (
    BandData1D,
    _transport_and_spread,
    BandData2D,
    band_spectrum_1d,
    band_spectrum_2d,
    chern_number,
    pancharatnam_phase,
    winding_number,
)
from lossywalk.walks import WalkParams1D, WalkParams2D, critical_gamma, momentum_grid

FIG3A = WalkParams1D(-3 * np.pi / 8, np.pi / 8, 0.25)   # winding 1 phase
FIG3B = WalkParams1D(-3 * np.pi / 8, 5 * np.pi / 8, 0.25)  # winding 0 phase


def make_band(states, ks=None):
    states = np.asarray(states, dtype=complex)
    n = len(states)
    ks = momentum_grid(n) if ks is None else ks
    return BandData1D(k_samples=ks, states=states, energies=np.zeros(n, dtype=complex), band_label="lower")


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
    lower, _ = band_spectrum_1d(FIG3A, 201)
    base = pancharatnam_phase(lower)
    rng = np.random.default_rng(3)
    for _ in range(100):
        phases = rng.uniform(-0.3, 0.3, size=len(lower.states))
        redressed = make_band(lower.states * np.exp(1j * phases)[:, None], lower.k_samples)
        assert abs(pancharatnam_phase(redressed) - base) < 1e-10


def test_pancharatnam_gauge_invariance_mod_2pi_arbitrary_redress():
    lower, _ = band_spectrum_1d(FIG3A, 201)
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

def test_band_spectrum_basics():
    lower, upper = band_spectrum_1d(FIG3A, 201)
    assert np.all(np.diff(lower.k_samples) > 0)
    assert np.max(np.abs(np.linalg.norm(lower.states, axis=1) - 1.0)) < 1e-12
    # energies pair to zero sum per momentum (real parts mod 2 pi)
    s = lower.energies + upper.energies
    wrapped = (s.real + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(wrapped + 1j * s.imag)) < 1e-9
    assert np.all(lower.energies.real <= 1e-9)


def test_band_spectrum_hermitian_limit_real():
    lower, upper = band_spectrum_1d(WalkParams1D(-np.pi / 2, np.pi / 2 + 0.1, 0.0), 201)
    assert np.max(np.abs(lower.energies.imag)) < 1e-12
    assert np.max(np.abs(upper.energies.imag)) < 1e-12


def test_band_spectrum_broken_region_complex():
    lower, _ = band_spectrum_1d(WalkParams1D(-3 * np.pi / 8, np.pi / 4, 0.3), 201)
    assert np.max(np.abs(lower.energies.imag)) > 1e-4


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
    gauged, thin = _transport_and_spread(batch)
    assert thin.tolist() == [True, True, False]
    for loop, where in ((raw_thin, "adjacent"), (closing_thin, "closing")):
        with pytest.raises(OrthogonalLink, match=where):
            _transport_and_spread(np.array(loop, dtype=complex))
    single, _ = _transport_and_spread(np.array(gapped, dtype=complex))
    assert gauged[2].tobytes() == single.tobytes()
    phases = pancharatnam_phase(make_band(batch))
    assert np.isnan(phases[:2]).all()
    assert phases[2] == pancharatnam_phase(make_band(gapped))


def test_batched_band_spectrum_marks_closed_cells_and_matches_scalar_calls():
    cells = [(-3 * np.pi / 8, np.pi / 8, 0.25), (-np.pi / 2, np.pi / 2, 0.0), (-3 * np.pi / 8, np.pi / 4, 0.3)]
    cols = [np.array(c)[:, None] for c in zip(*cells)]
    lower, upper = band_spectrum_1d(WalkParams1D(*cols), 200)
    assert lower.states.shape == (3, 200, 2) and upper.energies.shape == (3, 200)
    for band in (lower, upper):
        assert np.isnan(band.states[1]).all() and np.isnan(band.energies[1]).all()
    for i in (0, 2):
        want = band_spectrum_1d(WalkParams1D(*cells[i]), 200)
        for got, ref in zip((lower, upper), want):
            assert got.states[i].tobytes() == ref.states.tobytes()
            assert got.energies[i].tobytes() == ref.energies.tobytes()
    result = winding_number(lower)
    assert np.isnan(result.w[1]) and result.is_integer.tolist() == [True, False, False]


def test_batch_closes_a_cell_on_an_upper_band_link(monkeypatch):
    # a vanishing link in the upper band alone closes the cell, as the scalar
    # call's OrthogonalLink from the upper band does
    real = invariants._transport_and_spread
    bands_seen = []

    def upper_thin_in_first_cell(states):
        gauged, thin = real(states)
        bands_seen.append(thin.copy())
        if len(bands_seen) == 2:
            thin[0] = True
        return gauged, thin

    monkeypatch.setattr(invariants, "_transport_and_spread", upper_thin_in_first_cell)
    gammas = np.array([[0.0], [0.1]])
    lower, upper = band_spectrum_1d(WalkParams1D(-3 * np.pi / 8, np.pi / 8, gammas), 51)
    assert not np.any(bands_seen[0]) and len(bands_seen) == 2
    for band in (lower, upper):
        assert np.isnan(band.states[0]).all() and np.isfinite(band.states[1]).all()


# --------------------------------------------------------------------------
# winding numbers

def test_winding_anchor_nontrivial_phase():
    lower, _ = band_spectrum_1d(FIG3A, 201)
    res = winding_number(lower)
    assert abs(res.w - 1.0) < 1e-6


def test_winding_anchor_trivial_phase():
    lower, _ = band_spectrum_1d(FIG3B, 201)
    res = winding_number(lower)
    assert abs(res.w) < 1e-6


def test_winding_decays_beyond_critical():
    values = []
    for g in (1.2, 1.8, 3.0):
        lower, _ = band_spectrum_1d(WalkParams1D(-3 * np.pi / 8, np.pi / 8, g), 201)
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
            lower, _ = band_spectrum_1d(WalkParams1D(t1, t2, 0.0), 101)
        except GapClosure:
            continue
        res = winding_number(lower)
        if not res.is_integer:
            continue  # skip near-gapless parameter draws
        for n in (51, 201):
            lo_n, _ = band_spectrum_1d(WalkParams1D(t1, t2, 0.0), n)
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
            lower, upper = band_spectrum_1d(WalkParams1D(t1, t2, g), 201)
        except GapClosure:
            continue
        wl = winding_number(lower)
        wu = winding_number(upper)
        if not (wl.is_integer and wu.is_integer):
            continue  # only the gapped exact-PT regime is asserted
        assert abs(wl.w - wu.w) < 1e-6
        tested += 1


def test_winding_continuous_in_gamma_across_critical():
    gc = critical_gamma(-3 * np.pi / 8, np.pi / 8, 0.0, 0.0).gamma_c
    gs = np.linspace(gc - 0.1, gc + 0.4, 26)
    ws = []
    for g in gs:
        lower, _ = band_spectrum_1d(WalkParams1D(-3 * np.pi / 8, np.pi / 8, float(g)), 201)
        ws.append(winding_number(lower).w)
    steps = np.abs(np.diff(ws))
    assert np.max(steps) <= 5.0 * (gs[1] - gs[0])


# --------------------------------------------------------------------------
# Chern numbers

def test_chern_constant_field_zero():
    n = 21
    states = np.tile(np.array([0.6, 0.8j], dtype=complex), (n, n, 1))
    band = BandData2D(
        kx=momentum_grid(n) / 2, ky=momentum_grid(n) / 2,
        states=states, energies=np.zeros((n, n), dtype=complex), band_label="lower",
    )
    c, field = chern_number(band)
    assert c == 0
    assert np.max(np.abs(field)) < 1e-12


def test_chern_nontrivial_and_trivial_cells():
    # the gapped nontrivial diamond: (3pi/2, 7pi/6); gapped trivial: (7pi/6, 7pi/6)
    lower, _ = band_spectrum_2d(WalkParams2D(3 * np.pi / 2, 7 * np.pi / 6), 101, 101)
    assert chern_number(lower)[0] == 1
    lower, _ = band_spectrum_2d(WalkParams2D(7 * np.pi / 6, 7 * np.pi / 6), 101, 101)
    assert chern_number(lower)[0] == 0
    lower, _ = band_spectrum_2d(WalkParams2D(np.pi / 4, np.pi / 4), 101, 101)
    assert chern_number(lower)[0] == -1


def test_chern_grid_refinement_stable():
    rng = np.random.default_rng(12)
    tested = 0
    while tested < 5:
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        try:
            lower, _ = band_spectrum_2d(WalkParams2D(t1, t2), 51, 51)
            c51 = chern_number(lower)[0]
            lower, _ = band_spectrum_2d(WalkParams2D(t1, t2), 101, 101)
            c101 = chern_number(lower)[0]
        except (GapClosure, OrthogonalLink):
            continue
        assert c51 == c101
        tested += 1


def test_chern_integer_for_lossy_band():
    lower, _ = band_spectrum_2d(WalkParams2D(np.pi / 4, np.pi / 4, 0.5, 0.0), 61, 61)
    c, _ = chern_number(lower)  # integrality is checked inside
    assert c in (-1, 0, 1)


def test_chern_loss_induced_transition():
    # C jumps from -1 to 0 as gamma_x grows at (pi/4, pi/4)
    cs = []
    for gx in (0.0, 0.5, 2.0):
        lower, _ = band_spectrum_2d(WalkParams2D(np.pi / 4, np.pi / 4, gx, 0.0), 61, 61)
        cs.append(chern_number(lower)[0])
    assert cs[0] == -1 and cs[-1] == 0
