"""Acceptance checklist.

One numbered test per claim the package stands on, in fixed order, so the
verbose test report doubles as the checklist. Each test prints its measured
margins; run with -s (or read failure output) to see them.

Known red: test_03 and test_04. Split-torus eigenvector systems attain
off-origin autoambiguity 2 sqrt(p)/(p-1), which exceeds the asymptotic
envelope 2/sqrt(p) by about 1/(p-1) in relative terms at any fixed p; the
1e-9 tolerance cannot absorb that at p = 101. test_03 reaches 0.199917
against 2/sqrt(101) + 1e-9 = 0.199007. test_04 fails where its sampled
same-torus pair lands on the split torus of trace 3 (nondegenerate
eigenvectors 29 and 7): 0.200796, below the pair bound 2 sqrt(p)/(p-1) =
0.200998. Which vectors the sampled indices name follows the eigenbasis
order, which is by exact eigenvalue, so where test_04 fails does not rest
on float rounding. Both tests state the envelope bound faithfully and fail on
split tori; test_weil.py locks the exact finite-p bounds, which every
measured value satisfies.
"""

import numpy as np
import pytest

from helpers import mf_line_oracle, unit_monte_carlo_template

from tfshift import (
    Line,
    PlanePoint,
    Signal,
    as_prime,
    bench_complexity,
    cross_family,
    default_torus_roster,
    fit_exponent,
    flag_detect,
    flag_family,
    heisenberg_op,
    line_points,
    line_vector,
    lines_through_origin,
    mf_entry,
    mf_full,
    mf_on_line,
    mfi_coefficient,
    monte_carlo,
    radar_detect,
    random_signal,
    torus_eigenbasis,
)

P101 = as_prime(101)
TOL = 1e-9


def line_mask(L, p: int) -> np.ndarray:
    mask = np.zeros((p, p), dtype=bool)
    for v in line_points(L):
        mask[v.tau, v.omega] = True
    return mask


@pytest.fixture(scope="module")
def roster_bases():
    roster = default_torus_roster(101, 5)
    return [(T, [w for w in torus_eigenbasis(T) if not w.degenerate])
            for T in roster]


def test_01_line_system_exact_support():
    # 10 origin lines (9 sloped + vertical), 5 basis vectors each, all p^2
    # cells: |M| = 1 on the carrier line and 0 off it
    lines = lines_through_origin(101)
    sample = lines[:9] + [lines[-1]]
    worst_on, worst_off = 0.0, 0.0
    for L in sample:
        mask = line_mask(L, 101)
        for b in (0, 25, 50, 75, 100):
            f = line_vector(L, b).signal
            mags = mf_full(f, f).magnitudes()
            worst_on = max(worst_on, np.abs(mags[mask] - 1.0).max())
            worst_off = max(worst_off, mags[~mask].max())
    assert worst_on <= TOL, worst_on
    assert worst_off <= TOL, worst_off
    print(f"[01] PASS line support: on-line dev {worst_on:.2e}, "
          f"off-line max {worst_off:.2e}")


def test_02_line_system_flat_cross_ambiguity():
    # distinct-line vector pairs are flat at 1/sqrt(p) across the whole plane
    lines = lines_through_origin(101)
    rng = np.random.default_rng(0)
    flat = 1 / np.sqrt(101)
    worst = 0.0
    for _ in range(20):
        i, j = rng.choice(102, size=2, replace=False)
        b1, b2 = rng.integers(0, 101, size=2)
        f = line_vector(lines[i], int(b1)).signal
        g = line_vector(lines[j], int(b2)).signal
        mags = mf_full(f, g).magnitudes()
        worst = max(worst, np.abs(mags - flat).max())
    assert worst <= TOL, worst
    print(f"[02] PASS flat pairs: max |M - 1/sqrt(p)| = {worst:.2e}")


def test_03_weil_system_peak_bound(roster_bases):
    # every nondegenerate eigenvector of five tori (both kinds): unit value
    # at the origin and off-origin peaks within 2/sqrt(p)
    kinds = {T.kind for T, _ in roster_bases}
    assert kinds == {"split", "nonsplit"}
    bound = 2 / np.sqrt(101) + TOL
    worst_origin = 0.0
    worst = 0.0
    n_over = 0
    for T, basis in roster_bases:
        for w in basis:
            mags = mf_full(w.signal, w.signal).magnitudes()
            worst_origin = max(worst_origin, abs(mags[0, 0] - 1.0))
            mags[0, 0] = 0.0
            m = mags.max()
            worst = max(worst, m)
            if m > bound:
                n_over += 1
    assert worst_origin <= TOL, worst_origin
    assert worst <= bound, (
        f"off-origin peak {worst:.6f} exceeds 2/sqrt(101) + 1e-9 = {bound:.6f} "
        f"on {n_over} eigenvectors (split tori attain 2 sqrt(p)/(p-1) = "
        f"{2 * np.sqrt(101) / 100:.6f})")
    print(f"[03] PASS weil peaks: worst off-origin {worst:.6f}")


def test_04_weil_system_pair_ambiguity(roster_bases):
    # 30 same-torus pairs and 30 cross-torus pairs, exhaustive over shifts
    rng = np.random.default_rng(0)
    same_bound = 2 / np.sqrt(101) + TOL
    cross_bound = 4 / np.sqrt(101) + TOL
    worst_same = 0.0
    for k in range(30):
        _, basis = roster_bases[k % 5]
        i, j = rng.choice(len(basis), size=2, replace=False)
        m = mf_full(basis[i].signal, basis[j].signal).magnitudes().max()
        worst_same = max(worst_same, m)
    worst_cross = 0.0
    for _ in range(30):
        ta, tb = rng.choice(5, size=2, replace=False)
        a = roster_bases[ta][1]
        b = roster_bases[tb][1]
        i = rng.integers(len(a))
        j = rng.integers(len(b))
        m = mf_full(a[i].signal, b[j].signal).magnitudes().max()
        worst_cross = max(worst_cross, m)
    assert worst_same <= same_bound, worst_same
    assert worst_cross <= cross_bound, worst_cross
    print(f"[04] PASS weil pairs: same-torus {worst_same:.6f} "
          f"(bound {same_bound:.6f}), cross-torus {worst_cross:.6f} "
          f"(bound {cross_bound:.6f})")


def test_05_flag_three_level_structure():
    flags = flag_family(101, 10, seed=0)
    near, mid = 4 / np.sqrt(101) + TOL, 6 / np.sqrt(101) + TOL
    worst_peak = worst_line = worst_off = 0.0
    for fl in flags:
        mags = mf_full(fl.signal, fl.signal).magnitudes()
        mask = line_mask(fl.line, 101)
        worst_peak = max(worst_peak, abs(mags[0, 0] - 2.0))
        worst_off = max(worst_off, mags[~mask].max())
        mask[0, 0] = False
        worst_line = max(worst_line, np.abs(mags[mask] - 1.0).max())
    assert worst_peak <= near, worst_peak
    assert worst_line <= mid, worst_line
    assert worst_off <= mid, worst_off
    # pair ambiguity, classified by torus
    pair_same = pair_diff = 0.0
    n_same = 0
    for i in range(len(flags)):
        for j in range(i + 1, len(flags)):
            m = mf_full(flags[i].signal, flags[j].signal).magnitudes().max()
            if flags[i].torus == flags[j].torus:
                pair_same = max(pair_same, m)
                n_same += 1
            else:
                pair_diff = max(pair_diff, m)
    assert n_same > 0
    assert pair_same <= 7 / np.sqrt(101) + TOL, pair_same
    assert pair_diff <= 9 / np.sqrt(101) + TOL, pair_diff
    print(f"[05] PASS flags: peak dev {worst_peak:.4f}, line dev "
          f"{worst_line:.4f}, off {worst_off:.4f}, pairs same/diff "
          f"{pair_same:.4f}/{pair_diff:.4f} ({n_same} same-torus pairs)")


def test_06_cross_levels_and_pairs():
    crosses = cross_family(101, seed=0)[:10]
    eps = 2 / np.sqrt(101) + TOL
    worst_peak = worst_line = worst_off = 0.0
    for c in crosses:
        mags = mf_full(c.signal, c.signal).magnitudes()
        mask = line_mask(c.lineL, 101) | line_mask(c.lineM, 101)
        worst_peak = max(worst_peak, abs(mags[0, 0] - 2.0))
        worst_off = max(worst_off, mags[~mask].max())
        mask[0, 0] = False
        worst_line = max(worst_line, np.abs(mags[mask] - 1.0).max())
    assert worst_peak <= eps, worst_peak
    assert worst_line <= eps, worst_line
    assert worst_off <= eps, worst_off
    pair_bound = 4 / np.sqrt(101) + TOL
    worst_pair = 0.0
    n_pairs = 0
    for i in range(len(crosses)):
        for j in range(i + 1, len(crosses)):
            li = {crosses[i].lineL, crosses[i].lineM,
                  crosses[j].lineL, crosses[j].lineM}
            if len(li) < 4:
                continue  # the pair clause covers line-disjoint crosses
            n_pairs += 1
            m = mf_full(crosses[i].signal, crosses[j].signal).magnitudes().max()
            worst_pair = max(worst_pair, m)
    assert n_pairs > 0
    assert worst_pair <= pair_bound, worst_pair
    print(f"[06] PASS crosses: peak dev {worst_peak:.4f}, line dev "
          f"{worst_line:.4f}, off {worst_off:.4f}, {n_pairs} disjoint pairs "
          f"max {worst_pair:.4f}")


def test_07_fast_line_transform_agreement():
    # fast path vs the direct sum on all cells, every line kind, 50 cases each
    worst = 0.0
    for p in (5, 31, 101):
        pp = as_prime(p)
        rng = np.random.default_rng(p)
        kinds = ["vertical", "vertical-shifted", "zero", "zero-shifted",
                 "sloped", "sloped-shifted"]
        for kind in kinds:
            for _ in range(50):
                off = PlanePoint(int(rng.integers(p)), int(rng.integers(p)), pp)
                slope = int(rng.integers(2, p)) if p > 2 else 1
                if kind == "vertical":
                    L = Line(None, pp)
                elif kind == "vertical-shifted":
                    L = Line(None, pp, offset=off)
                elif kind == "zero":
                    L = Line(0, pp)
                elif kind == "zero-shifted":
                    L = Line(0, pp, offset=off)
                elif kind == "sloped":
                    L = Line(slope, pp)
                else:
                    L = Line(slope, pp, offset=off)
                S = random_signal(pp, seed=int(rng.integers(1 << 30)))
                R = random_signal(pp, seed=int(rng.integers(1 << 30)))
                got = mf_on_line(S, R, L).values
                want = mf_line_oracle(S, R, L)
                worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-8, worst
    print(f"[07] PASS fast line transform: max |fast - direct| = {worst:.2e}")


def test_08_complexity_growth_and_speedup():
    rows = bench_complexity([1009, 10007, 100003], repeats=3)
    expo = fit_exponent([r["p"] for r in rows],
                        [r["dft_ops_line"] for r in rows])
    assert expo <= 1.3, (expo, [r["dft_ops_line"] for r in rows])
    base = rows[0]
    assert not base["full_extrapolated"]  # measured, not estimated, at 1009
    assert base["ratio"] >= 50.0, base["ratio"]
    print(f"[08] PASS complexity: ops exponent {expo:.4f} <= 1.3, "
          f"p=1009 full/line wall ratio {base['ratio']:.0f}x >= 50x")


def test_09_planted_shift_and_radar_scenario():
    # single planted shift at p = 101
    flag = flag_family(101, 1, seed=0)[0]
    v = PlanePoint(50, 50, P101)
    det = flag_detect(heisenberg_op(flag.signal, v), flag)
    assert det.shift == v
    assert abs(det.magnitude - 2.0) <= 4 / np.sqrt(101)
    # three radar echoes at p = 251
    p251 = as_prime(251)
    fl = flag_family(251, 1, seed=0)[0]
    targets = [PlanePoint(50, 50, p251), PlanePoint(100, 100, p251),
               PlanePoint(150, 150, p251)]
    acc = np.zeros(251, dtype=np.complex128)
    for t in targets:
        acc = acc + heisenberg_op(fl.signal, t).samples
    dets = radar_detect(Signal(p251, acc), fl, 3)
    got = {(d.shift.tau, d.shift.omega) for d in dets}
    assert got == {(50, 50), (100, 100), (150, 150)}, got
    assert all(d.confident for d in dets)
    print(f"[09] PASS detection scenarios: (50,50) peak {det.magnitude:.4f}, "
          f"radar recovered {sorted(got)}")


def test_10_monte_carlo_exactness_and_noise_floor():
    # three users, p large enough for the two-stage guarantee regime
    p = as_prime(1009)
    clean = monte_carlo(unit_monte_carlo_template(p, 3, 0.0, 0), 100)
    assert clean.exact_shift_rate == 1.0, clean.exact_shift_rate
    assert clean.bit_error_rate == 0.0, clean.bit_error_rate
    sigma = np.sqrt(1.0 / 1009)  # noise-to-signal ratio 1
    noisy = monte_carlo(unit_monte_carlo_template(p, 3, sigma, 0), 500)
    assert noisy.exact_shift_rate >= 0.99, noisy.exact_shift_rate
    print(f"[10] PASS monte carlo: noiseless rate {clean.exact_shift_rate:.3f}"
          f", NSR-1 rate over 500 trials {noisy.exact_shift_rate:.4f}")


def test_11_receiver_decomposition_identity():
    # noiseless multiuser receiver equals its term-by-term expansion
    p = as_prime(31)
    fam = flag_family(31, 3, seed=2)
    shifts = [PlanePoint(4, 9, p), PlanePoint(20, 3, p), PlanePoint(11, 30, p)]
    bits = [1, -1, 1]
    acc = np.zeros(31, dtype=np.complex128)
    for f, v, b in zip(fam, shifts, bits):
        acc = acc + b * heisenberg_op(f.signal, v).samples
    R = Signal(p, acc)
    worst = 0.0
    for k in range(3):
        lhs = mf_full(fam[k].signal, R).entries
        rhs = np.zeros((31, 31), dtype=np.complex128)
        for tau in range(31):
            for om in range(31):
                v = PlanePoint(tau, om, p)
                for f, vj, b in zip(fam, shifts, bits):
                    rhs[tau, om] += (b * mfi_coefficient(v, vj)
                                     * mf_entry(fam[k].signal, f.signal, v - vj))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-9, worst
    print(f"[11] PASS receiver decomposition: max entrywise error {worst:.2e}")


def test_12_cross_ambiguity_vs_flag_radar():
    # two echoes of one cross waveform: ridge geometry alone yields four
    # candidate shifts, two forged; the flag radar on the same shifts is exact
    cross = cross_family(101, seed=0)[0]
    t1, t2 = PlanePoint(10, 7, P101), PlanePoint(60, 33, P101)
    acc = (heisenberg_op(cross.signal, t1).samples
           + heisenberg_op(cross.signal, t2).samples)
    R = Signal(P101, acc)

    def bumps(scan_line):
        prof = mf_on_line(cross.signal, R, scan_line)
        pts = line_points(scan_line)
        return [pts[k] for k in np.where(np.abs(prof.values) >= 0.5)[0]]

    # shifted copies of lineL cross the lineM scan, and vice versa
    on_m = bumps(cross.lineM)
    on_l = bumps(cross.lineL)
    assert len(on_m) == 2 and len(on_l) == 2, (len(on_m), len(on_l))

    def intersect(a, b):
        # line of slope sL through a meets line of slope sM through b
        sL, sM = cross.lineL.slope, cross.lineM.slope
        dp = pow((sL - sM) % 101, -1, 101)
        tau = ((b.omega - sM * b.tau) - (a.omega - sL * a.tau)) * dp % 101
        return PlanePoint(tau, (a.omega + sL * (tau - a.tau)), P101)

    candidates = {(w.tau, w.omega) for a in on_m for b in on_l
                  for w in [intersect(a, b)]}
    truth = {(10, 7), (60, 33)}
    assert truth <= candidates
    forged = candidates - truth
    assert len(candidates) == 4 and len(forged) == 2, candidates

    flag = flag_family(101, 1, seed=0)[0]
    acc = (heisenberg_op(flag.signal, t1).samples
           + heisenberg_op(flag.signal, t2).samples)
    dets = radar_detect(Signal(P101, acc), flag, 2)
    got = {(d.shift.tau, d.shift.omega) for d in dets}
    assert got == truth, got
    print(f"[12] PASS cross limitation: candidates {sorted(candidates)} "
          f"include forged {sorted(forged)}; flag radar returned exactly "
          f"{sorted(got)}")
