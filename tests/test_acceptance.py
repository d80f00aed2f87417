"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or any pytest invocation;
the summary lines print either way).  Two stated values contradict the model
the closed forms define: C = +1 at (7pi/6, 7pi/6) in criterion 5a and "> 10"
complex states in criterion 7.  ``docs/NOTES.md`` derives the model's values
(C = 0 and exactly 10); those tests assert the premises of each derivation
and then the derived value.
"""

import time

import numpy as np
import pytest

from helpers import assert_multiset_close, branch_dist, chain_operator_by_rolls

import lossywalk as lw
from lossywalk.errors import GapClosure, OrthogonalLink
from lossywalk.lattice import bulk_gap_half_width
from lossywalk.linalg import eig2_batch
from lossywalk.sweeps import STATUS_GAP_CLOSED, STATUS_OK


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def test_criterion_01_critical_scaling_values():
    t0 = time.perf_counter()
    got1 = lw.critical_gamma(-3 * np.pi / 8, np.pi / 4, 0.0, 0.0).gamma_c
    got2 = lw.critical_gamma(-3 * np.pi / 8, 5 * np.pi / 8, 0.0, 0.0).gamma_c
    dt = time.perf_counter() - t0
    ok = abs(got1 - 0.2110) < 5e-4 and abs(got2 - 0.2832) < 5e-4 and dt < 1e-3
    report("criterion 1 (critical scaling values)",
           ok, f"gamma_c = {got1:.6f}, {got2:.6f} in {dt*1e3:.3f} ms")
    assert abs(got1 - 0.2110) < 5e-4
    assert abs(got2 - 0.2832) < 5e-4
    assert dt < 1e-3


def test_criterion_02_exceptional_point_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    tested = 0
    while tested < 20:
        t1 = -rng.uniform(0.3, np.pi - 0.3)
        t2 = rng.uniform(0.3, np.pi - 0.3)
        res = lw.critical_gamma(t1, t2, 0.0, 0.0)
        # cross-validation needs an exceptional point reachable on the grid:
        # reject channels that never close or close too shallowly for N=201
        if res.kind is not lw.CriticalKind.REAL_CRITICAL or not 0.1 < res.gamma_c < 0.8:
            continue
        got = lw.find_exceptional_point(t1, t2, gamma_hi=res.gamma_c + 0.5, n_points=201)
        worst = max(worst, abs(got - res.gamma_c))
        tested += 1
    dt = time.perf_counter() - t0
    ok = worst < 1e-3 and dt < 5.0
    report("criterion 2 (exceptional-point cross-validation)",
           ok, f"20 pairs, worst |bisection - closed form| = {worst:.2e} in {dt:.2f} s")
    assert worst < 1e-3
    assert dt < 5.0


def _winding_at(t1, t2, g, n_k=201):
    lower, _ = lw.band_spectrum_1d(lw.WalkParams1D(t1, t2, g), n_k)
    return lw.winding_number(lower)


def test_criterion_03_winding_persistence_and_decay():
    t0 = time.perf_counter()
    t1 = -3 * np.pi / 8
    # nontrivial phase: plateau below gamma_c, monotone decay beyond
    gc1 = lw.critical_gamma(t1, np.pi / 8, 0.0, 0.0).gamma_c
    plateau = np.arange(0.0, 0.9 * gc1 + 1e-12, 0.05)
    plateau_ok = all(abs(_winding_at(t1, np.pi / 8, float(g)).w - 1.0) < 1e-6 for g in plateau)
    tail_gs = np.linspace(gc1 + 0.1, 3.0, 8)
    tail = [_winding_at(t1, np.pi / 8, float(g)) for g in tail_gs]
    ws = [r.w for r in tail]
    decreasing = all(a > b for a, b in zip(ws, ws[1:]))
    tail_ok = decreasing and not any(r.is_integer for r in tail) and ws[-1] < 0.2
    # trivial phase: zero below gamma_c, positive overshoot, decay below 0.05
    gc0 = lw.critical_gamma(t1, 5 * np.pi / 8, 0.0, 0.0).gamma_c
    zero_ok = all(abs(_winding_at(t1, 5 * np.pi / 8, float(g)).w) < 1e-6
                  for g in np.arange(0.0, gc0 - 0.02, 0.05))
    over_gs = np.linspace(gc0 + 0.02, 5.0, 12)
    over = [_winding_at(t1, 5 * np.pi / 8, float(g)).w for g in over_gs]
    peak = int(np.argmax(over))
    over_ok = max(over) > 0.01 and 0 < peak < len(over) - 1 and over[-1] < 0.05
    dt = time.perf_counter() - t0
    ok = plateau_ok and tail_ok and zero_ok and over_ok and dt < 10.0
    report("criterion 3 (winding persistence)", ok,
           f"plateau(W=1)={plateau_ok} decay={tail_ok} zero-phase={zero_ok} "
           f"overshoot(max={max(over):.3f})={over_ok} in {dt:.2f} s")
    assert plateau_ok and tail_ok and zero_ok and over_ok
    assert dt < 10.0


def test_criterion_04_phase_diagram_boundaries():
    t0 = time.perf_counter()
    t1s = np.linspace(-np.pi, np.pi, 101)
    t2s = np.linspace(-np.pi, np.pi, 101)
    table = lw.sweep_phase_diagram_1d(t1s, t2s, n_k=201)
    grid = table.grid()
    status = table.status_grid()
    gapped = status == STATUS_OK
    vals = grid[gapped]
    integers_ok = bool(np.all(np.abs(vals - np.rint(vals)) < 1e-6))
    in_01 = bool(np.all(np.isin(np.rint(vals), [0.0, 1.0])))

    # boundary cells must hug the analytic gap-closing lines
    # theta1 +- theta2 in {0, +-2pi}
    def line_dist(x, y):
        d = np.inf
        for c in (0.0, 2 * np.pi, -2 * np.pi):
            d = min(d, abs(x + y - c) / np.sqrt(2), abs(x - y - c) / np.sqrt(2))
        return d

    h = float(t1s[1] - t1s[0])
    cell = np.hypot(h, h)
    rounded = np.where(gapped, np.rint(grid), np.nan)
    worst = 0.0
    for axis in (0, 1):
        a = rounded
        b = np.roll(rounded, -1, axis=axis)
        jump = (~np.isnan(a)) & (~np.isnan(b)) & (a != b)
        jump[-1, :] = False if axis == 0 else jump[-1, :]
        jump[:, -1] = False if axis == 1 else jump[:, -1]
        for i, j in zip(*np.nonzero(jump)):
            x = t1s[i] + (h / 2 if axis == 0 else 0.0)
            y = t2s[j] + (h / 2 if axis == 1 else 0.0)
            worst = max(worst, line_dist(x, y))
    boundary_ok = worst <= cell
    dt = time.perf_counter() - t0
    ok = integers_ok and in_01 and boundary_ok and dt < 120.0
    report("criterion 4 (1D phase diagram)", ok,
           f"gapped cells integer={integers_ok}, W in {{0,1}}={in_01}, "
           f"boundary-line distance worst={worst:.3f} (cell={cell:.3f}) in {dt:.1f} s")
    assert integers_ok and in_01
    assert boundary_ok
    assert dt < 120.0


def test_criterion_05_chern_anchor_nontrivial():
    # Stated value: C = +1 at (7pi/6, 7pi/6) on a 201x201 momentum grid.  The
    # model gives C = 0 there (test_invariants pins the same point at 0), and
    # docs/NOTES.md derives the 0 without chern_number: at (pi, pi) the step
    # does not depend on momentum (flat bands, C = 0), and along
    # theta1 = theta2 = t, t in [pi, 7pi/6], the gap never closes, so the
    # plaquette Chern number cannot change.  Both premises are asserted, then
    # C = 0 at the stated point; the nontrivial anchor moves to (3pi/2, 7pi/6),
    # inside the gapped theta1 +- theta2/2 cell with C = +1.
    t0 = time.perf_counter()
    ks = np.pi / 2 * np.linspace(-1.0, 1.0, 201)  # one pi-period, holds 0 and +-pi/2
    kx, ky = np.meshgrid(ks, ks, indexing="ij")
    u = lw.u2d_k(lw.WalkParams2D(np.pi, np.pi), kx, ky)
    flat_spread = float(np.max(np.abs(u - u[0, 0])))
    path_gap = min(
        float(np.min(np.abs(np.sin(lw.quasi_energy_2d(lw.WalkParams2D(t, t), kx, ky)))))
        for t in np.linspace(np.pi, 7 * np.pi / 6, 31)
    )
    lower, _ = lw.band_spectrum_2d(lw.WalkParams2D(7 * np.pi / 6, 7 * np.pi / 6), 201, 201)
    c_stated, _ = lw.chern_number(lower)
    lower, _ = lw.band_spectrum_2d(lw.WalkParams2D(3 * np.pi / 2, 7 * np.pi / 6), 201, 201)
    c_anchor, _ = lw.chern_number(lower)
    dt = time.perf_counter() - t0
    premises_ok = flat_spread < 1e-12 and path_gap >= 1 / np.sqrt(2) - 1e-9
    ok = premises_ok and c_stated == 0 and c_anchor == 1 and dt < 60.0
    report("criterion 5a (Chern anchors, derived 0 and +1)", ok,
           f"U(pi, pi) k-spread={flat_spread:.1e}, path min|sin E|={path_gap:.6f}, "
           f"C(7pi/6, 7pi/6) = {c_stated} (stated +1, derived 0; see docs/NOTES.md), "
           f"C(3pi/2, 7pi/6) = {c_anchor} in {dt:.1f} s")
    assert flat_spread < 1e-12, "u2d_k at (pi, pi) must not depend on momentum (docs/NOTES.md)"
    assert path_gap >= 1 / np.sqrt(2) - 1e-9, (
        f"gap along theta1 = theta2 in [pi, 7pi/6] fell to min|sin E| = {path_gap} "
        "(docs/NOTES.md derives 1/sqrt 2)"
    )
    assert c_stated == 0, (
        f"C(7pi/6, 7pi/6) = {c_stated}; docs/NOTES.md derives 0 from the flat band at "
        "(pi, pi) and the open gap on the path (the stated +1 contradicts the model)"
    )
    assert c_anchor == 1
    assert dt < 60.0


def test_criterion_05_chern_anchor_trivial():
    t0 = time.perf_counter()
    lower, _ = lw.band_spectrum_2d(lw.WalkParams2D(3 * np.pi / 2, np.pi), 201, 201)
    c, _ = lw.chern_number(lower)
    dt = time.perf_counter() - t0
    ok = c == 0 and dt < 60.0
    report("criterion 5b (Chern anchor, stated 0)", ok, f"C(3pi/2, pi) = {c} in {dt:.1f} s")
    assert c == 0
    assert dt < 60.0


def test_criterion_05_trivial_anchor_gapless_off_grid():
    # Why criterion 5b passes (docs/NOTES.md): (3pi/2, pi) lies on the gap lines
    # theta1 + theta2/2 = 2pi and theta1 - theta2/2 = pi.  The step is I at
    # k = (0, 0) (E = 0) and -I at the zone corners (+-pi/2, +-pi/2) (E = pi),
    # and the quarter-offset grid of band_spectrum_2d samples neither.
    p = lw.WalkParams2D(3 * np.pi / 2, np.pi)
    eye = np.eye(2)
    assert np.max(np.abs(lw.u2d_k(p, 0.0, 0.0) - eye)) < 1e-12
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            assert np.max(np.abs(lw.u2d_k(p, sx * np.pi / 2, sy * np.pi / 2) + eye)) < 1e-12
    lower, _ = lw.band_spectrum_2d(p, 201, 201)
    closings = np.array([-np.pi / 2, 0.0, np.pi / 2])
    step = np.pi / 201
    for axis in (lower.kx, lower.ky):
        nearest = np.min(np.abs(axis[:, None] - closings[None, :]))
        assert abs(nearest - step / 4) < 1e-12


def test_criterion_06_loss_induced_transition():
    t0 = time.perf_counter()
    t1 = np.pi / 4
    t2s = np.linspace(0.1, 2 * np.pi - 0.1, 13)
    gxs = np.linspace(0.0, 2.0, 11)
    table = lw.sweep_chern_vs_gamma(t1, t2s, gxs, gamma_y=0.0, grid=51)
    grid = table.grid()
    status = table.status_grid()
    vals = grid[status == STATUS_OK]
    integers_ok = bool(np.all(np.abs(vals - np.rint(vals)) < 1e-9))
    jump = False
    for row, srow in zip(grid, status):
        cs = row[srow == STATUS_OK]
        if len(cs) >= 2 and len(set(np.rint(cs).astype(int))) >= 2:
            jump = True
            break
    collapse = []
    for t2 in t2s[::3]:
        lower, _ = lw.band_spectrum_2d(lw.WalkParams2D(t1, float(t2), 3.0, 3.0), 51, 51)
        collapse.append(lw.chern_number(lower)[0])
    collapse_ok = all(c == 0 for c in collapse)
    dt = time.perf_counter() - t0
    ok = integers_ok and jump and collapse_ok and dt < 1200.0
    report("criterion 6 (loss-induced transition)", ok,
           f"integer cells={integers_ok}, jump exists={jump}, "
           f"C=0 at gamma=3 for {len(collapse)} samples={collapse_ok} in {dt:.1f} s")
    assert integers_ok and jump and collapse_ok
    assert dt < 1200.0


FIG6_SPEC = lw.RegionSpec(50, (-3 * np.pi / 8, 5 * np.pi / 8), (-3 * np.pi / 8, np.pi / 4))


def test_criterion_07_bulk_boundary_1d():
    # Stated: "> 10" states with |Im E| > 1e-3 at gamma = 0.25.  The model gives
    # exactly 10 (five pairs lambda, 1/lambda), and the count does not hang on
    # the threshold: the 10th largest |ln|lambda|| is 0.059, the 11th is at
    # rounding level.  The operator is checked against an independent build
    # (helpers.chain_operator_by_rolls) before the count is trusted; see
    # docs/NOTES.md for the derivation and the counts at nearby gamma.
    t0 = time.perf_counter()
    counts = {}
    for g, tol in ((0.0, 1e-6), (0.2, 1e-4)):
        op = lw.build_chain_operator(201, FIG6_SPEC, g)
        reports = lw.detect_edge_states(*lw.chain_spectrum(op), tol, 50)
        counts[g] = sum(1 for r in reports if r.is_edge)
    edges_ok = counts[0.0] == 2 and counts[0.2] == 2
    op = lw.build_chain_operator(201, FIG6_SPEC, 0.25)
    build_err = float(np.max(np.abs(op - chain_operator_by_rolls(201, FIG6_SPEC, 0.25))))
    lam = lw.chain_spectrum(op)[0]
    im_e = np.sort(np.abs(np.log(np.abs(lam))))[::-1]
    n_complex = int((im_e > 1e-3).sum())
    separated = im_e[9] > 1e-2 and im_e[10] < 1e-9
    dt = time.perf_counter() - t0
    ok = edges_ok and build_err < 1e-12 and separated and n_complex == 10 and dt < 180.0
    report("criterion 7 (bulk-boundary 1D)", ok,
           f"edge counts {counts}, independent build max diff {build_err:.1e}, "
           f"states with |Im E|>1e-3 at gamma=0.25: {n_complex} (10th/11th |Im E| "
           f"{im_e[9]:.3f}/{im_e[10]:.1e}; stated > 10, derived 10) in {dt:.1f} s")
    assert edges_ok
    assert dt < 180.0
    assert build_err < 1e-12, "build_chain_operator disagrees with the roll-based chain build"
    assert separated, (
        f"10th/11th largest |Im E| = {im_e[9]:.3e}/{im_e[10]:.3e}; docs/NOTES.md "
        "has 0.059 and rounding level"
    )
    assert n_complex == 10, (
        f"{n_complex} eigenvalues leave the unit circle at gamma = 0.25; docs/NOTES.md "
        "derives exactly 10 (the stated '> 10' overcounts)"
    )


FIG8_SPEC = lw.RegionSpec(50, (7 * np.pi / 6, 7 * np.pi / 6), (3 * np.pi / 2, np.pi))


def test_criterion_08_bulk_boundary_2d():
    t0 = time.perf_counter()
    n_y = 201
    kxs = -np.pi + 2 * np.pi * np.arange(64) / 64
    ref = [bulk_gap_half_width(FIG8_SPEC, n_y, float(kx), 0.0, 0.0) for kx in kxs]
    counts = {}
    boundary_peaked = {}
    for g in (0.0, 0.2, 0.47):
        total = 0
        peaked = 0
        for states in lw.strip_gap_states_grid(FIG8_SPEC, n_y, 64, g, g, gap_half=ref):
            total += len(states)
            peaked += sum(1 for s in states if s.is_edge)
        counts[g] = total
        boundary_peaked[g] = peaked
    exists_ok = counts[0.0] >= 1 and counts[0.2] >= 1
    peaks_ok = boundary_peaked[0.0] >= 1 and boundary_peaked[0.2] >= 1
    prolif_ok = counts[0.47] >= 5 * counts[0.0]
    dt = time.perf_counter() - t0
    ok = exists_ok and peaks_ok and prolif_ok and dt < 1800.0
    report("criterion 8 (bulk-boundary 2D)", ok,
           f"in-gap counts {counts} (boundary-peaked {boundary_peaked}) in {dt:.1f} s")
    assert exists_ok and peaks_ok
    assert prolif_ok
    assert dt < 1800.0


def test_criterion_09_symmetry_suite():
    t0 = time.perf_counter()
    anchor = lw.WalkParams1D(-3 * np.pi / 8, np.pi / 4, 0.0)
    results = []
    for g in (0.0, 0.1, 0.2110, 0.5):
        p = lw.WalkParams1D(anchor.theta1, anchor.theta2, g)
        results.append(lw.check_pt_1d(p, 201, 1e-9).passed)
    pt_ok = all(results)
    flip_ok = (lw.check_exact_pt(lw.WalkParams1D(anchor.theta1, anchor.theta2, 0.20), 201, 1e-8).passed
               and not lw.check_exact_pt(lw.WalkParams1D(anchor.theta1, anchor.theta2, 0.22), 201, 1e-8).passed)
    phs_cs_ok = (lw.check_phs("1d", lw.WalkParams1D(-3 * np.pi / 8, np.pi / 8, 0.3), 201, 1e-10).passed
                 and lw.check_cs(lw.WalkParams1D(-3 * np.pi / 8, np.pi / 4, 0.15), 201, 1e-10).passed
                 and lw.check_phs("2d", lw.WalkParams2D(7 * np.pi / 6, 7 * np.pi / 6, 0.2, 0.2), 51, 1e-10).passed)
    t1, t2, kx, ky, gx = np.pi / 3, np.pi / 5, 0.7, np.pi / 4, 1e-5
    lhs = (np.cos(lw.quasi_energy_2d(lw.WalkParams2D(t1, t2, gx, 0.0), kx, ky))
           - np.cos(lw.quasi_energy_2d(lw.WalkParams2D(t1, t2), kx, ky)))
    rhs = 1j * gx * np.sin(t1) * np.sin(t2 / 2) * np.sin(2 * ky)
    first_order_ok = abs(lhs - rhs) / abs(rhs) <= 1e-3
    dt = time.perf_counter() - t0
    ok = pt_ok and flip_ok and phs_cs_ok and first_order_ok and dt < 10.0
    report("criterion 9 (symmetry suite)", ok,
           f"PT(all gamma)={pt_ok} exact-PT flip={flip_ok} PHS/CS={phs_cs_ok} "
           f"first-order 2D={first_order_ok} in {dt:.2f} s")
    assert pt_ok and flip_ok and phs_cs_ok and first_order_ok
    assert dt < 10.0


def test_criterion_10_oracle_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst_det = worst_pair = worst_closed = worst_dec1 = worst_dec2 = worst_tri = 0.0
    for i in range(1000):
        p = lw.WalkParams1D(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi), rng.uniform(0, 1))
        k = rng.uniform(-np.pi, np.pi)
        u = lw.u1d_ssqw_k(p, k)
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        worst_det = max(worst_det, abs(det - 1.0))
        values, _ = eig2_batch(u)
        worst_pair = max(worst_pair, abs(values[0] * values[1] - 1.0))
        es = -np.angle(values) + 1j * np.log(np.abs(values))
        e_ref = lw.quasi_energy_ssqw(p, k)
        worst_closed = max(worst_closed,
                           min(branch_dist(es[0], e_ref), branch_dist(es[1], e_ref)))
        if i < 200:
            lhs = lw.u1d_ssqw_k(lw.WalkParams1D(p.theta1, p.theta2, 0.0), k)
            rhs = lw.u1d_dtqw_k(p.theta2, k / 2) @ lw.u1d_dtqw_k(p.theta1, k / 2)
            worst_dec1 = max(worst_dec1, np.max(np.abs(lhs - rhs)))
            t1, t2 = rng.uniform(-np.pi, np.pi, 2)
            gx, gy = rng.uniform(0, 0.8, 2)
            kx, ky = rng.uniform(-np.pi, np.pi, 2)
            u2 = lw.u2d_k(lw.WalkParams2D(t1, t2, gx, gy), kx, ky)
            rhs2 = (lw.u1d_ssqw_k(lw.WalkParams1D(t2, t1, gy), 2 * ky)
                    @ lw.u1d_ssqw_k(lw.WalkParams1D(0.0, t1, gx), 2 * kx))
            worst_dec2 = max(worst_dec2, np.max(np.abs(u2 - rhs2)))
            tri = lw.u2d_triangular_k(t1, t2, kx, ky)
            tx = np.diag([np.exp(1j * kx), np.exp(-1j * kx)])
            worst_tri = max(worst_tri,
                            np.max(np.abs(lw.u2d_k(lw.WalkParams2D(t1, t2), kx, ky)
                                          - tx.conj().T @ tri @ tx)))
    # Fourier block-diagonalization, chain and strip
    n = 61
    spec = lw.RegionSpec(15, (-3 * np.pi / 8, np.pi / 4), (-3 * np.pi / 8, np.pi / 4))
    ks = (2 * np.pi * np.arange(n) / n + np.pi) % (2 * np.pi) - np.pi
    got = np.linalg.eigvals(lw.build_chain_operator(n, spec, 0.1))
    want, _ = eig2_batch(lw.u1d_ssqw_k(lw.WalkParams1D(-3 * np.pi / 8, np.pi / 4, 0.1), ks))
    assert_multiset_close(got, want.ravel(), 1e-8)
    spec2 = lw.RegionSpec(15, (7 * np.pi / 6, 7 * np.pi / 6), (7 * np.pi / 6, 7 * np.pi / 6))
    got = np.linalg.eigvals(lw.build_strip_operator(n, spec2, 0.37, 0.15, 0.1))
    want, _ = eig2_batch(lw.u2d_k(lw.WalkParams2D(7 * np.pi / 6, 7 * np.pi / 6, 0.15, 0.1), 0.37, ks))
    assert_multiset_close(got, want.ravel(), 1e-8)
    dt = time.perf_counter() - t0
    ok = (worst_det < 1e-9 and worst_pair < 1e-10 and worst_closed < 1e-9
          and worst_dec1 < 1e-12 and worst_dec2 < 1e-12 and worst_tri < 1e-12 and dt < 30.0)
    report("criterion 10 (oracle/identity suite)", ok,
           f"det={worst_det:.1e} pair={worst_pair:.1e} closed-form={worst_closed:.1e} "
           f"decomp1D={worst_dec1:.1e} decomp2D={worst_dec2:.1e} tri={worst_tri:.1e} in {dt:.1f} s")
    assert worst_det < 1e-9
    assert worst_pair < 1e-10
    assert worst_closed < 1e-9
    assert worst_dec1 < 1e-12 and worst_dec2 < 1e-12 and worst_tri < 1e-12
    assert dt < 30.0


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError:
                failures += 1
    sys.exit(1 if failures else 0)
