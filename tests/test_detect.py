"""Two-stage detectors: flag, cross, bits, gps, radar."""

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
    radar_detect,
    random_signal,
    transverse_line,
)
from tfshift import detect
from tfshift.detect import THETA2_DEFAULT
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
    bad = type(flag101)(shifted, flag101.torus, flag101.fL, flag101.phiT,
                        flag101.signal)
    with pytest.raises(ValueError):
        flag_detect(received(flag101.signal, [PlanePoint(3, 4, P)]), bad)


def test_cross_and_radar_reject_shifted_carrier(flag101, cross101):
    # the shared stage 2 refuses a carrier line off the origin, for every kind
    R = received(flag101.signal, [PlanePoint(3, 4, P)])
    shifted = Line(cross101.lineL.slope, P, offset=PlanePoint(1, 5, P))
    bad_cross = type(cross101)(shifted, cross101.lineM, cross101.fL, cross101.fM,
                               cross101.signal)
    with pytest.raises(ValueError, match="carrier line must pass through the origin"):
        cross_detect(R, bad_cross)
    bad_flag = type(flag101)(Line(flag101.line.slope, P, offset=PlanePoint(1, 5, P)),
                             flag101.torus, flag101.fL, flag101.phiT, flag101.signal)
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
                        flag101.torus, flag101.fL, flag101.phiT, flag101.signal)
    other = flag_family(103, 1, seed=0)[0]
    for family, message in (([flag101, cross101, bad], "carrier line must pass"),
                            ([flag101, cross101, other], "mismatched moduli")):
        counters.reset()
        with pytest.raises(ValueError, match=message):
            extract_bits(R, family)
        assert counters.snapshot() == (0, 0, 0)
