"""Two-stage detectors: flag, cross, bits, gps, radar."""

import hashlib

import numpy as np
import pytest

from tfshift import (
    Line,
    counters,
    PlanePoint,
    Signal,
    as_prime,
    awgn,
    cross_detect,
    cross_family,
    extract_bits,
    flag_detect,
    flag_family,
    gps_solve,
    flag_waveform,
    heisenberg_op,
    line_points,
    make_torus,
    mf_entry,
    mf_on_line,
    radar_detect,
    random_signal,
    transverse_line,
)
from tfshift import detect, fastmf
from tfshift.detect import THETA1_DEFAULT, THETA2_DEFAULT
from tfshift.sim import build_family

P = as_prime(101)


@pytest.fixture(scope="module")
def flag101():
    return flag_family(101, 1, seed=0)[0]


@pytest.fixture(scope="module")
def cross101():
    return cross_family(101, seed=0)[0]


def received(signal, shifts, bits=None, sigma=0.0, seed=0):
    bits = bits or [1] * len(shifts)
    acc = np.zeros(signal.p.p, dtype=np.complex128)
    for b, v in zip(bits, shifts):
        acc = acc + b * heisenberg_op(signal, v).samples
    acc = acc + awgn(signal.p, sigma, seed).samples
    return Signal(signal.p, acc)


def test_transverse_line_mapping():
    assert transverse_line(Line(3, P)) == Line(4, P)
    assert transverse_line(Line(100, P)) == Line(0, P)
    assert transverse_line(Line(None, P)) == Line(0, P)
    for L in (Line(0, P), Line(7, P), Line(None, P)):
        assert transverse_line(L) != L
        assert transverse_line(L).through_origin()


def test_flag_detect_exact_noiseless(flag101):
    rng = np.random.default_rng(11)
    margin = 4 / np.sqrt(101)
    shifts = [PlanePoint(int(a), int(b), P) for a, b in rng.integers(0, 101, (20, 2))]
    shifts.append(PlanePoint(50, 50, P))
    for v in shifts:
        det = flag_detect(received(flag101.signal, [v]), flag101)
        assert det.shift == v, (v.tau, v.omega)
        assert abs(det.magnitude - 2.0) <= margin
        assert det.confident


def test_flag_detect_degenerate_geometries(flag101):
    # shifts on the carrier line and on the transverse scan line exercise the
    # crossing-at-origin and crossing-at-self corner cases
    L = flag101.line
    lperp = transverse_line(L)
    for v in (line_points(L)[5], line_points(lperp)[9]):
        det = flag_detect(received(flag101.signal, [v]), flag101)
        assert det.shift == v
        assert det.confident


def test_flag_detect_zero_shift(flag101):
    # at (0,0) the shifted line equals the carrier line, so the stage-1 scan
    # crosses it at the origin cell, which carries the peak level, not the
    # bump level
    det = flag_detect(received(flag101.signal, [PlanePoint(0, 0, P)]), flag101)
    assert det.shift == PlanePoint(0, 0, P)
    assert det.stage1_magnitude > 1.5
    assert det.confident


def test_flag_detect_noisy(flag101):
    sigma = np.sqrt(1.0 / 101)  # noise-to-signal ratio 1
    for seed in range(30):
        v = PlanePoint(17 * seed % 101, 41 * seed % 101, P)
        det = flag_detect(received(flag101.signal, [v], sigma=sigma, seed=seed),
                          flag101)
        assert det.shift == v, seed


def test_flag_detect_confidence_gates(flag101):
    R = received(flag101.signal, [PlanePoint(10, 7, P)])
    det = flag_detect(R, flag101, theta2=3.0)
    assert det.shift == PlanePoint(10, 7, P) and not det.confident
    det = flag_detect(R, flag101, theta1=50.0)
    assert det.shift == PlanePoint(10, 7, P) and not det.confident
    noise = awgn(P, np.sqrt(1.0 / 101), seed=3)
    assert not flag_detect(noise, flag101).confident


def test_flag_detect_rejects_shifted_carrier(flag101):
    shifted = Line(flag101.line.slope, P, offset=PlanePoint(1, 5, P))
    bad = type(flag101)(shifted, flag101.torus, flag101.b_index, flag101.eig_index,
                        flag101.signal)
    with pytest.raises(ValueError):
        flag_detect(received(flag101.signal, [PlanePoint(3, 4, P)]), bad)


def test_cross_and_radar_reject_shifted_carrier(flag101, cross101):
    # the shared stage 2 refuses a carrier line off the origin, for every kind
    R = received(flag101.signal, [PlanePoint(3, 4, P)])
    shifted = Line(cross101.lineL.slope, P, offset=PlanePoint(1, 5, P))
    bad_cross = type(cross101)(shifted, cross101.lineM, cross101.bL, cross101.bM,
                               cross101.signal)
    with pytest.raises(ValueError, match="carrier line must pass through the origin"):
        cross_detect(R, bad_cross)
    bad_flag = type(flag101)(Line(flag101.line.slope, P, offset=PlanePoint(1, 5, P)),
                             flag101.torus, flag101.b_index, flag101.eig_index,
                             flag101.signal)
    with pytest.raises(ValueError, match="carrier line must pass through the origin"):
        radar_detect(R, bad_flag, 1)


def test_scan_lines_name_carrier_and_stage1_line(flag101, cross101):
    assert flag101.scan_lines == (flag101.line, transverse_line(flag101.line))
    assert cross101.scan_lines == (cross101.lineL, cross101.lineM)


@pytest.mark.parametrize("q", [97, 103])
@pytest.mark.parametrize("detector", [
    lambda R, w: flag_detect(R, w),
    lambda R, w: cross_detect(R, w),
    lambda R, w: extract_bits(R, [w]),
    lambda R, w: gps_solve(R, [w]),
    lambda R, w: radar_detect(R, w, 2),
], ids=["flag_detect", "cross_detect", "extract_bits", "gps_solve", "radar_detect"])
def test_detectors_refuse_mismatched_moduli(flag101, cross101, detector, q):
    R = random_signal(q, seed=1)
    for w in (flag101, cross101):
        with pytest.raises(ValueError, match="mismatched moduli"):
            detector(R, w)


def test_cross_detect_exact_noiseless(cross101):
    rng = np.random.default_rng(13)
    for a, b in rng.integers(0, 101, (20, 2)):
        v = PlanePoint(int(a), int(b), P)
        det = cross_detect(received(cross101.signal, [v]), cross101)
        assert det.shift == v
        assert det.confident


def test_cross_detect_degenerate_geometries(cross101):
    for v in (line_points(cross101.lineL)[3], line_points(cross101.lineM)[8],
              PlanePoint(0, 0, P)):
        det = cross_detect(received(cross101.signal, [v]), cross101)
        assert det.shift == v


def test_cross_detect_noisy(cross101):
    sigma = np.sqrt(1.0 / 101)
    for seed in range(20):
        v = PlanePoint(29 * seed % 101, 13 * seed % 101, P)
        det = cross_detect(received(cross101.signal, [v], sigma=sigma,
                                    seed=seed), cross101)
        assert det.shift == v, seed


def test_extract_bits_single_user(flag101):
    v = PlanePoint(42, 83, P)
    for bit in (1, -1):
        R = received(flag101.signal, [v], bits=[bit])
        (dec,) = extract_bits(R, [flag101])
        assert dec.bit == bit
        assert dec.detection.shift == v
        assert abs(dec.soft - bit) <= 2 / np.sqrt(101)


def test_extract_bits_multiuser_large_p():
    # three flag users; p large enough that stage-1 interference is harmless
    p = as_prime(1009)
    fam = flag_family(p, 3, seed=0)
    shifts = [PlanePoint(100, 900, p), PlanePoint(501, 7, p),
              PlanePoint(3, 444, p)]
    bits = [1, -1, -1]
    acc = np.zeros(1009, dtype=np.complex128)
    for f, v, b in zip(fam, shifts, bits):
        acc = acc + b * heisenberg_op(f.signal, v).samples
    R = Signal(p, acc)
    decs = extract_bits(R, fam)
    for dec, v, b in zip(decs, shifts, bits):
        assert dec.detection.shift == v
        assert dec.bit == b


def test_gps_solve_reports_time_and_bit(flag101):
    v = PlanePoint(77, 18, P)
    (fix,) = gps_solve(received(flag101.signal, [v], bits=[-1]), [flag101])
    assert (fix.tau, fix.omega, fix.bit) == (77, 18, -1)


def test_radar_two_targets(flag101):
    v1, v2 = PlanePoint(10, 7, P), PlanePoint(60, 33, P)
    R = received(flag101.signal, [v1, v2])
    for r in (2, 3, 4):
        dets = radar_detect(R, flag101, r)
        assert {(d.shift.tau, d.shift.omega) for d in dets} == {(10, 7), (60, 33)}
        assert all(d.confident for d in dets)
        mags1 = [d.stage1_magnitude for d in dets]
        assert mags1 == sorted(mags1, reverse=True)
        assert all(abs(d.magnitude - 2.0) <= 4 / np.sqrt(101) for d in dets)


def test_radar_noise_only_returns_nothing(flag101):
    noise = awgn(P, np.sqrt(1.0 / 101), seed=3)
    assert radar_detect(noise, flag101, 3) == []


def test_radar_drops_unconfirmed_ridge():
    # one full flag echo at v plus clutter that is the carrier-line component
    # alone: its stage-1 bump is as tall as an echo's, but its shifted line
    # holds no peak, so stage 2 must reject it
    p = as_prime(251)
    flag = flag_family(251, 1, seed=0)[0]
    cases = [((50, 50), (131, 150)), ((10, 20), (132, 33)),
             ((200, 3), (104, 200))]
    for (vt, vo), (ut, uo) in cases:
        v, u = PlanePoint(vt, vo, p), PlanePoint(ut, uo, p)
        R = Signal(p, heisenberg_op(flag.signal, v).samples
                   + heisenberg_op(flag.fL.signal, u).samples)
        dets = radar_detect(R, flag, 2)
        assert [d.shift for d in dets] == [v], [(d.shift.tau, d.shift.omega)
                                                for d in dets]
        assert all(d.magnitude >= THETA2_DEFAULT and d.confident for d in dets)


def test_radar_with_no_candidate_scans_an_empty_split_stage():
    # theta above every stage-1 |M| leaves stage 2 a (0, p) stack; at
    # p = 10007 both stages run split passes, 4 warm dft calls each, and the
    # empty one transforms no row
    p = as_prime(10007)
    flag = flag_family(p, 1, seed=0)[0]
    R = Signal(p, heisenberg_op(flag.signal, PlanePoint(10, 7, p)).samples)
    theta = 2 * np.abs(mf_on_line(flag.signal, R, flag.scan_lines[1]).values).max()
    n = fastmf._smooth_length(2 * p.p - 1)
    n2, n1, _ = fastmf._split(n)
    assert n > fastmf.SPLIT_ABOVE
    radar_detect(R, flag, 3, theta)  # warm both stages' plans
    counters.reset()
    assert radar_detect(R, flag, 3, theta) == []
    per_row = n1 * fastmf._radix2_ops(n2) + n2 * fastmf._radix2_ops(n1)
    assert counters.snapshot() == (8, 2 * per_row, 0)


def test_radar_rejects_nonpositive_r(flag101):
    R = received(flag101.signal, [PlanePoint(10, 7, P), PlanePoint(60, 33, P)])
    for r in (0, -1):
        with pytest.raises(ValueError):
            radar_detect(R, flag101, r)


def test_radar_single_echo_matches_flag_detect(flag101):
    # radar's stage 2 is the flag detector's stage 2: on one echo the single
    # radar target is the flag detection, magnitudes included; the vertical
    # carrier takes the other branch of the stage-2 offset
    vertical = flag_waveform(Line(None, P), make_torus(0, P), 7, 3)
    for flag, v in ((flag101, PlanePoint(10, 7, P)), (flag101, PlanePoint(77, 18, P)),
                    (vertical, PlanePoint(10, 7, P)), (vertical, PlanePoint(0, 42, P))):
        R = received(flag.signal, [v])
        det = flag_detect(R, flag)
        (got,) = radar_detect(R, flag, 1)
        assert got.shift == det.shift == v
        assert got.magnitude == det.magnitude
        assert got.stage1_magnitude == det.stage1_magnitude


def test_soft_bit_is_matched_filter_at_shift(flag101, cross101):
    # the soft value read off the stage-2 scan equals the defining sum there
    sigma = np.sqrt(1.0 / 101)
    for w in (flag101, cross101):
        for seed, bit in ((1, 1), (2, -1)):
            v = PlanePoint(23 * seed, 58 * seed, P)
            R = received(w.signal, [v], bits=[bit], sigma=sigma, seed=seed)
            (dec,) = extract_bits(R, [w])
            want = mf_entry(w.signal, R, dec.detection.shift) / 2
            assert abs(dec.soft - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("p, method, r", [
    (11, "flag", 12),   # flag 11's carrier line is vertical
    (11, "cross", 6),   # the last cross's stage-1 line is vertical
    (101, "flag", 3),
    (101, "cross", 3),
    (503, "flag", 3),
    (503, "cross", 3),
])
def test_stacked_stage_equals_one_waveform_at_a_time(p, method, r):
    # each stage scans the whole family as one stack; every Scan field must
    # equal that of the waveform scanned alone, bit for bit
    family = build_family(p, r, method, 1)
    rng = np.random.default_rng(p + r)
    T = 4
    R = np.zeros((T, p), dtype=np.complex128)
    for w in family:
        for i in range(T):
            v = PlanePoint(int(rng.integers(p)), int(rng.integers(p)), as_prime(p))
            R[i] += heisenberg_op(w.signal, v).samples
    R += 0.3 * (rng.standard_normal((T, p)) + 1j * rng.standard_normal((T, p))) / np.sqrt(p)
    stacked = detect._detect(R, family, 0.5, 1.5)
    assert len(stacked) == r
    for w, scan in zip(family, stacked):
        (alone,) = detect._detect(R, [w], 0.5, 1.5)
        for field, a, b in zip(scan._fields, scan, alone):
            assert np.array_equal(a, b), field


def test_empty_family_scans_nothing():
    R = random_signal(101, seed=1)
    counters.reset()
    assert extract_bits(R, []) == []
    assert gps_solve(R, []) == []
    assert counters.snapshot() == (0, 0, 0)


def test_refusals_come_before_any_transform(flag101, cross101):
    # a bad last waveform stops the stacked scan before its first transform
    R = received(flag101.signal, [PlanePoint(3, 4, P)])
    bad = type(flag101)(Line(flag101.line.slope, P, offset=PlanePoint(1, 5, P)),
                        flag101.torus, flag101.b_index, flag101.eig_index, flag101.signal)
    other = flag_family(103, 1, seed=0)[0]
    for family, message in (([flag101, cross101, bad], "carrier line must pass"),
                            ([flag101, cross101, other], "mismatched moduli")):
        counters.reset()
        with pytest.raises(ValueError, match=message):
            extract_bits(R, family)
        assert counters.snapshot() == (0, 0, 0)


def radar_scenario(flag, s):
    # scenario s for a flag at p: 1-4 echoes of random shift, bit and
    # intensity, every fourth with a bare carrier-line ridge as clutter, at
    # NSR 0, 1 or 3 in turn
    p = flag.signal.p
    rng = np.random.default_rng([p.p, s])
    acc = np.zeros(p.p, dtype=np.complex128)
    for _ in range(int(rng.integers(1, 5))):
        v = PlanePoint(int(rng.integers(p.p)), int(rng.integers(p.p)), p)
        acc += rng.choice([-1, 1]) * rng.uniform(0.3, 1.0) * heisenberg_op(flag.signal, v).samples
    if s % 4 == 3:
        u = PlanePoint(int(rng.integers(p.p)), int(rng.integers(p.p)), p)
        acc += heisenberg_op(flag.fL.signal, u).samples
    acc += awgn(p, np.sqrt((0, 1, 3)[s % 3] / p.p), seed=s).samples
    return Signal(p, acc)


@pytest.mark.parametrize("p, r, golden", [
    (31, 1, "c2572225940d389822b8e8bfc8890a406b28f6e4a5564d35600cf602bfdde52d"),
    (31, 2, "98fd89a975aee578df74c8762a35dec6bfd1bd5a3441f3c86f5dcc6ba5e2d392"),
    (31, 3, "375336b134dfa39849ca92ebe18331cd0c9000346d396f22ff9601ef59beb652"),
    (31, 5, "924d21a6418857f0936b13d9e5a5ac647b15a37653ff6313c51bb25230e67b55"),
    (31, 31, "c4bbe755f412f582048a07c75048a6d5207d5eed188bc7ab557d1aeb91917e71"),
    (101, 1, "de028846b692f9274116d190aaed85eb4270258a6fdfb061f3fd5e73fb775609"),
    (101, 2, "44d6f30fdd73f00840ab849eee0b75677479b9d7e3473232e9dcad4b1c944686"),
    (101, 3, "d9bb7b0ad71c0b55c17079cf82f2678adb69e651e8d147eb6b8f64acd19c2a2f"),
    (101, 5, "78875dfcc20226968d7c497b7493689308ec1f4e2bc67a2a6728f7814f10e684"),
    (101, 101, "ab4fc9736cdba822371c0e187817ce171967920f2d6c7fcdade6d459da055d92"),
    (251, 1, "4fac35103e9f600bc6204e9f0afc68434f4042eda14c170c2c5f09fb53c2ba60"),
    (251, 2, "144fbab7c4d81047bd4cce0ed6ab5e51673702d7e710962f38109cdd7e8107bd"),
    (251, 3, "bb33addbb5393cf8bd82808ec241c830180695215685cf7e82416a3318028715"),
    (251, 5, "35df5b94c69ac872e05fa4096a1723f6282e2d4e0a5b70861b72fdb6d520004f"),
    (251, 251, "35df5b94c69ac872e05fa4096a1723f6282e2d4e0a5b70861b72fdb6d520004f"),
])
def test_radar_golden_digest(p, r, golden):
    # radar_detect on 12 seeded scenarios at two threshold pairs, pinned to
    # the last bit (numpy 2.4 on x86-64): one sha256 per call of its
    # (tau, omega, magnitude, stage-1 magnitude, confident) list, and one of
    # those digests per (p, r)
    flag = flag_family(p, 1, seed=0)[0]
    calls = hashlib.sha256()
    for s in range(12):
        R = radar_scenario(flag, s)
        for theta, theta2 in ((THETA1_DEFAULT, THETA2_DEFAULT), (0.2, 0.8)):
            dets = radar_detect(R, flag, r, theta, theta2)
            rows = [(d.shift.tau, d.shift.omega, d.magnitude.hex(), d.stage1_magnitude.hex(),
                     d.confident) for d in dets]
            calls.update(hashlib.sha256(repr(rows).encode()).digest())
    assert calls.hexdigest() == golden


def pick(mags, k):
    # detect._pick on real magnitudes, with values = mags and a unit chirp,
    # so |M| = mags exactly; per row, its candidates in rank order
    mags = np.asarray(mags, dtype=float)
    rows, cols, M = detect._pick(mags, mags.astype(complex), np.ones(mags.shape[1]), k)
    assert np.array_equal(np.abs(M), mags[rows, cols])
    return [cols[rows == i].tolist() for i in range(mags.shape[0])]


def pick_reference(row, k):
    # plain-loop reference of detect._pick on one row: cyclic local maxima,
    # each run of them once at its lowest index, largest first, ties to the
    # lowest index
    p = len(row)
    peak = [row[i] >= row[i - 1] and row[i] >= row[(i + 1) % p] for i in range(p)]
    if all(peak):
        return [0]
    starts = [i for i in range(p) if peak[i] and not peak[i - 1]]
    if peak[0] and peak[-1]:
        starts[-1] = 0  # the last run goes on at index 0
    return sorted(starts, key=lambda i: (-row[i], i))[:k]


def test_pick_matches_loop_reference_and_argmax_with_ties():
    rng = np.random.default_rng(5)
    mags = rng.integers(0, 4, size=(200, 11)).astype(float)  # ties and runs in almost every row
    mags[0] = 2.0  # a flat row: one run round the whole row
    for k in (1, 2, 3, 11):
        assert pick(mags, k) == [pick_reference(row.tolist(), k) for row in mags], k
    want = np.argmax(mags, axis=1).tolist()
    assert [c for (c,) in pick(mags, 1)] == want
    assert [cs[0] for cs in pick(mags, 3)] == want


def test_pick_plateau_gives_one_candidate_per_run():
    # a run of equal maxima is one candidate, its lowest index, also when the
    # run wraps round the row's end; a flat run of zeros is a maximum too
    assert pick([[0, 1, 1, 1, 0, 0, 0]], 7) == [[1, 5]]
    assert pick([[1, 1, 0, 0, 0, 1, 1]], 7) == [[0, 3]]
    assert pick([[1, 1, 1, 1, 1, 1, 1]], 7) == [[0]]


def test_pick_rows_with_fewer_than_k_candidates():
    # every row keeps only its own candidates: none is padded or borrowed
    mags = [[0, 3, 0, 2, 0, 1, 0], [1, 2, 3, 4, 5, 6, 7], [5, 0, 5, 0, 5, 0, 4]]
    assert pick(mags, 5) == [[1, 3, 5], [6], [0, 2, 4]]
    assert pick(mags, 2) == [[1, 3], [6], [0, 2]]


def test_radar_scans_each_candidate_that_can_be_confident_once(flag101):
    # with r far above the number of stage-1 maxima, stage 2 scans each
    # maximum whose stage-1 |M| reaches theta1 once, largest first, and no
    # padded or repeated candidate
    R = received(flag101.signal, [PlanePoint(10, 7, P), PlanePoint(60, 33, P)])
    mags = np.abs(mf_on_line(flag101.signal, R, flag101.scan_lines[1]).values)
    maxima = (mags >= np.roll(mags, 1)) & (mags >= np.roll(mags, -1))
    for theta1 in (0.0, 0.5):
        (scan,) = detect._detect(R.samples[None, :], [flag101], theta1, 1.5, 101)
        want = np.sort(mags[maxima & (mags >= theta1)])[::-1]
        assert 2 <= scan.tau.size == want.size < 101
        assert np.array_equal(scan.stage1, want)
