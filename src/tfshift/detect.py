"""Two-stage detection in O(p log p) per waveform: flag and cross algorithms,
multi-user bit extraction, GPS fixes, and multi-target radar.

Every detector is one two-stage scan (_detect). Each waveform names its
scan_lines: the carrier line and a stage-1 line transverse to it (a flag's
gfp.transverse_line, a cross's second line M). Both stages are one routine
(_stage): scan a line per receiver row and take its peaks with one picker
(_pick), each row's argmax or, for radar's stage 1, its r best local maxima.
Stage 1's peaks land on shifted carrier lines; stage 2 scans each of them,
and its peak gives the shift, the bit and the confidence. Decisions are
taken on magnitudes, so bits (pure phases) never disturb detection. Each
stage is one stacked line scan (fastmf._scan) of the whole family over a
(T, p) receiver stack, so r waveforms cost two transform pairs, not 2r:
sim.monte_carlo scans a chunk of trials at once, radar its candidates. A
stage reads values and magnitudes in place in the scan's work buffer,
before the output chirp, which has modulus one, and applies the chirp only
at the picked indices, so a warm stage allocates no (T, p) array and makes
no pass for the chirp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .fastmf import _scan, line_offset
from .gfp import Line, PlanePoint

if TYPE_CHECKING:
    from .heisenberg import Cross
    from .signals import Signal
    from .weil import Flag

THETA1_DEFAULT = 0.5
THETA2_DEFAULT = 1.5


@dataclass(frozen=True)
class Detection:
    """A recovered shift with its decision magnitudes."""

    shift: PlanePoint
    magnitude: float
    stage1_magnitude: float
    confident: bool


@dataclass(frozen=True)
class BitDecision:
    """A hard/soft bit read off the matched filter at the detected shift."""

    bit: int
    soft: complex
    detection: Detection


@dataclass(frozen=True)
class GpsFix:
    """Per-satellite result: data bit and time shift; omega is auxiliary."""

    bit: int
    tau: int
    omega: int


class Scan(NamedTuple):
    """The two-stage scan of one waveform, per stage-1 candidate of a receiver stack."""

    tau: np.ndarray       # detected shift
    omega: np.ndarray
    stage1: np.ndarray    # |M| at the stage-1 peak
    magnitude: np.ndarray  # |M| at the detected shift
    peak: np.ndarray      # M at the detected shift
    bit: np.ndarray       # sign(Re soft), soft = peak/2
    confident: np.ndarray  # stage1 >= theta1 and magnitude >= theta2


def _points(slope: int | None, offsets: np.ndarray, k: np.ndarray, p: int) -> tuple:
    """Per row: point k (tau, omega) of its line of `slope`, as gfp.line_point."""
    return (offsets, k) if slope is None else (k, (offsets + slope * k) % p)


def _scan_lines(family: list) -> list[tuple[Line, Line]]:
    """Each waveform's (carrier line, stage-1 line), checked before any scan."""
    lines = [w.scan_lines for w in family]
    if not all(carrier.through_origin() for carrier, _ in lines):
        raise ValueError("carrier line must pass through the origin")
    return lines


def _peak(values: np.ndarray, cq: np.ndarray, rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    """M at index k[i] of row rows[i], from a scan's values before its output
    chirp cq (fastmf._scan)."""
    # cq first, as mf_on_stage multiplies: numpy's complex product is not
    # commutative bit for bit
    return np.multiply(cq[k], values[rows, k])


def _stage(R: np.ndarray, jobs: list, k: int) -> list[tuple]:
    """Per job (sender, slope, offsets), each receiver row's k best
    candidates (_pick) on its line: one stacked scan of the rows of R, read
    in place in the scan's work buffer (fastmf._scan)."""
    return [_pick(np.abs(values, out=spare), values, cq, k) for values, spare, cq in _scan(R, jobs)]


def _pick(mags: np.ndarray, values: np.ndarray, cq: np.ndarray, k: int) -> tuple:
    """Each row's k best candidates in a scan, from its values before the
    output chirp cq (fastmf._scan) and mags = |values|, as flat (rows,
    indices, M there), row by row, best first. A candidate is a cyclic
    local maximum of mags, at least as large as both neighbours; a run of
    equal maxima gives one, its lowest index (0 for a run round the row's
    end). Candidates rank on |M|, largest first, ties to the lowest index; a
    row with fewer than k gives only those. For k = 1 the pick is np.argmax
    of mags, whose last bits can differ from |M|'s."""
    if k == 1:
        rows, cols = np.arange(mags.shape[0]), np.argmax(mags, axis=1)
        return rows, cols, _peak(values, cq, rows, cols)
    peak = (mags >= np.roll(mags, 1, axis=1)) & (mags >= np.roll(mags, -1, axis=1))
    first = peak.copy()
    first[:, 1:] &= ~peak[:, :-1]  # the lowest index of each run
    tail = mags.shape[1] - 1 - np.argmax(first[:, ::-1], axis=1)  # start of a row's last run
    wraps = peak[:, 0] & peak[:, -1] & (tail > 0)  # which goes on at index 0
    first[wraps, tail[wraps]] = False
    rows, cols = np.nonzero(first)
    M = _peak(values, cq, rows, cols)
    order = np.lexsort((cols, -np.abs(M), rows))  # rows stay sorted
    best = order[np.arange(rows.size) - np.searchsorted(rows, rows) < k]
    return rows[best], cols[best], M[best]


def _detect(R: np.ndarray, family: list, theta1: float, theta2: float, k: int = 1) -> list[Scan]:
    """Both stages of every waveform's scan over the rows of R, one _stage
    each: stage 1 on the stage-1 lines, stage 2 on the carrier line through
    each row's k best stage-1 candidates, whose peak gives the shift, the bit
    and the confidence. For k > 1 the family holds one waveform, and each
    candidate that can be confident (stage-1 |M| >= theta1) is a row of its
    Scan."""
    lines = _scan_lines(family)
    T, p = R.shape
    picks = _stage(R, [(w.signal, l1.slope, np.full(T, line_offset(l1)))
                       for w, (_, l1) in zip(family, lines)], k)
    if k > 1:
        ((rows, cols, M1),) = picks
        keep = np.abs(M1) >= theta1
        picks, R = [(rows[keep], cols[keep], M1[keep])], R[rows[keep]]
    jobs = []
    for w, (carrier, line1), (_, k1, _) in zip(family, lines, picks):
        m = carrier.slope
        tau1, omega1 = _points(line1.slope, np.full(k1.shape, line_offset(line1)), k1, p)
        # line_offset of line_through(m, stage-1 peak), per row
        jobs.append((w.signal, m, tau1 if m is None else (omega1 - m * tau1) % p))
    scans = []
    for (_, m, offsets), (_, k2, peak), (_, _, M1) in zip(jobs, _stage(R, jobs, 1), picks):
        mag1, mag2 = np.abs(M1), np.abs(peak)
        scans.append(Scan(*_points(m, offsets, k2, p), mag1, mag2, peak,
                          np.where((peak / 2.0).real >= 0, 1, -1),
                          (mag1 >= theta1) & (mag2 >= theta2)))
    return scans


def _detection(scan: Scan, i: int, p) -> Detection:
    """Row i of a scan as a Detection."""
    return Detection(PlanePoint(int(scan.tau[i]), int(scan.omega[i]), p),
                     float(scan.magnitude[i]), float(scan.stage1[i]), bool(scan.confident[i]))


def flag_detect(R: Signal, flag: Flag,
                theta1: float = THETA1_DEFAULT,
                theta2: float = THETA2_DEFAULT) -> Detection:
    """Flag algorithm: scan a transverse line, then the shifted carrier line.
    Exactly two line scans."""
    return extract_bits(R, [flag], theta1, theta2)[0].detection


def cross_detect(R: Signal, cross: Cross,
                 theta1: float = THETA1_DEFAULT,
                 theta2: float = THETA2_DEFAULT) -> Detection:
    """Cross algorithm: the second line M of the cross is already transverse
    to L, so stage 1 scans M itself; stage 2 scans the shifted L."""
    return extract_bits(R, [cross], theta1, theta2)[0].detection


def extract_bits(R: Signal, family: list,
                 theta1: float = THETA1_DEFAULT,
                 theta2: float = THETA2_DEFAULT) -> list[BitDecision]:
    """Detect each waveform's shift and read its bit off the stage-2 peak:
    soft = M[S_k, R](shift)/2, bit = sign(Re soft)."""
    return [BitDecision(int(scan.bit[0]), complex(scan.peak[0]) / 2.0, _detection(scan, 0, R.p))
            for scan in _detect(R.samples[None, :], family, theta1, theta2)]


def gps_solve(R: Signal, family: list,
              theta1: float = THETA1_DEFAULT,
              theta2: float = THETA2_DEFAULT) -> list[GpsFix]:
    """Per satellite: recover (bit, tau); omega rides along as auxiliary."""
    return [GpsFix(b.bit, b.detection.shift.tau, b.detection.shift.omega)
            for b in extract_bits(R, family, theta1, theta2)]


def radar_detect(R: Signal, flag: Flag, r: int,
                 theta: float = THETA1_DEFAULT,
                 theta2: float = THETA2_DEFAULT) -> list[Detection]:
    """Multi-target detection with a single flag waveform: the shared
    two-stage scan on the r best stage-1 candidates (_pick), the cyclic local
    maxima of the transverse line's |M|, where a run of equal maxima is one
    candidate at its lowest index. Only confident detections (stage-1 |M| >=
    theta, stage-2 peak >= theta2) are returned, one per shift, largest
    stage-1 |M| first, so a bump from a bare ridge or from noise is dropped.
    If fewer than r echoes are confirmed, the returned list is shorter.
    """
    if r < 1:
        raise ValueError(f"radar needs r >= 1 targets, got {r}")
    (scan,) = _detect(R.samples[None, :], [flag], theta, theta2, r)
    out = {}
    for det in (_detection(scan, i, R.p) for i in np.flatnonzero(scan.confident)):
        out.setdefault(det.shift, det)
    return list(out.values())
