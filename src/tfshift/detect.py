"""Two-stage detection in O(p log p) per waveform: flag and cross algorithms,
multi-user bit extraction, GPS fixes, and multi-target radar.

Every detector is one two-stage scan. Each waveform names its scan_lines:
the carrier line and a stage-1 line transverse to it (a flag's
gfp.transverse_line, a cross's second line M). Stage 1's peak lands on the
shifted carrier line; stage 2 (_stage2, shared by all detectors) scans that
line, and its peak gives the shift, the bit and the confidence. Decisions are
taken on magnitudes, so bits (pure phases) never disturb detection. Each stage
is one stacked line scan (fastmf.mf_on_stage) of the whole family over a
(T, p) receiver stack, so r waveforms cost two transform pairs, not 2r: one
receiver is the one-row case, sim.monte_carlo scans a chunk of trials at once,
and radar runs stage 2 on several stage-1 peaks at once. Both stages read
values and magnitudes in place in the scan's work buffer (fastmf._scan),
before the scan's output chirp, which has modulus one: argmax runs on the
magnitudes there, and the chirp is applied only at each row's peak, so a warm
stage allocates no (T, p) array and makes no pass for the chirp.
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
    """The two-stage scan of one waveform over a (T, p) receiver stack, per row."""

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


def _peak(values: np.ndarray, cq: np.ndarray, k: np.ndarray) -> np.ndarray:
    """M at index k[i] of row i, from a scan's values before its output chirp
    cq (fastmf._scan)."""
    # cq first, as mf_on_stage multiplies: numpy's complex product is not
    # commutative bit for bit
    return np.multiply(cq[k], values[np.arange(k.shape[0]), k])


def _stage1(R: np.ndarray, family: list, lines: list) -> list[tuple]:
    """Per waveform, |M[S, R_i]| along its stage-1 line, one row per receiver
    row, with the scan's values and output chirp (_peak reads M off them):
    one stacked scan for the whole family, in place: the arrays are views of
    the scan's work buffer (fastmf._scan), valid until this thread's next
    scan."""
    T = R.shape[0]
    jobs = [(w.signal, l1.slope, np.full(T, line_offset(l1)))
            for w, (_, l1) in zip(family, lines)]
    return [(np.abs(values, out=spare), values, cq) for values, spare, cq in _scan(R, jobs)]


def _stage2(R: np.ndarray, family: list, lines: list, k1s: list, mag1s: list,
            theta1: float, theta2: float) -> list[Scan]:
    """Stage 2 over the rows of R, one stacked scan for the whole family: for
    waveform j, row i scans its carrier line through point k1s[j][i] of its
    stage-1 line, its stage-1 peak of magnitude mag1s[j][i], and reads the
    shift, the bit and the confidence rule off the stage-2 peak."""
    p = R.shape[-1]
    jobs = []
    for w, (carrier, line1), k1 in zip(family, lines, k1s):
        m = carrier.slope
        tau1, omega1 = _points(line1.slope, np.full(k1.shape, line_offset(line1)), k1, p)
        # line_offset of line_through(m, stage-1 peak), per row
        jobs.append((w.signal, m, tau1 if m is None else (omega1 - m * tau1) % p))
    scans = []
    for (_, m, offsets), (values, spare, cq), mag1 in zip(jobs, _scan(R, jobs), mag1s):
        k = np.argmax(np.abs(values, out=spare), axis=1)
        peak = _peak(values, cq, k)
        mag2 = np.abs(peak)
        scans.append(Scan(*_points(m, offsets, k, p), mag1, mag2, peak,
                          np.where((peak / 2.0).real >= 0, 1, -1),
                          (mag1 >= theta1) & (mag2 >= theta2)))
    return scans


def _detect(R: np.ndarray, family: list, theta1: float, theta2: float) -> list[Scan]:
    """Both stages of every waveform's scan over the rows of R, one stacked
    scan per stage."""
    lines = _scan_lines(family)
    stage1 = _stage1(R, family, lines)
    k1s = [np.argmax(mags, axis=1) for mags, _, _ in stage1]
    mag1s = [np.abs(_peak(values, cq, k1)) for (_, values, cq), k1 in zip(stage1, k1s)]
    return _stage2(R, family, lines, k1s, mag1s, theta1, theta2)


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


def _local_maxima(mags: np.ndarray, theta: float) -> list[int]:
    """Cyclic local maxima with value >= theta, suppression radius 1."""
    left = np.roll(mags, 1)
    right = np.roll(mags, -1)
    idx = np.where((mags >= left) & (mags >= right) & (mags >= theta))[0]
    # adjacent equal-valued picks would double-report one hit; keep the first
    keep = []
    for i in idx:
        if keep and (i - keep[-1]) % mags.shape[0] == 1:
            continue
        keep.append(int(i))
    if len(keep) > 1 and (keep[0] - keep[-1]) % mags.shape[0] == 1:
        keep.pop()
    return keep


def radar_detect(R: Signal, flag: Flag, r: int,
                 theta: float = THETA1_DEFAULT,
                 theta2: float = THETA2_DEFAULT) -> list[Detection]:
    """Multi-target detection with a single flag waveform.

    Stage 1 scans the transverse line once and keeps the r largest local
    maxima with magnitude >= theta, one per echoed (distinct) shifted line.
    The shared stage 2 scans all their shifted lines as one stack. Only
    confident candidates (stage-2 peak >= theta2) are returned, one per
    shift, so a bump from a bare ridge or from noise is dropped. If fewer
    than r echoes are confirmed, the returned list is shorter.
    """
    if r < 1:
        raise ValueError(f"radar needs r >= 1 targets, got {r}")
    lines = _scan_lines([flag])
    (mags, values, cq), = _stage1(R.samples[None, :], [flag], lines)
    mags, values = mags[0], values[0]
    k = np.array(_local_maxima(mags, theta), dtype=np.int64)
    mag1 = np.abs(np.multiply(cq[k], values[k]))  # |M| at the candidates, as _peak reads it
    top = np.argsort(-mag1, kind="stable")[:r]
    if not top.size:
        return []
    (scan,) = _stage2(np.broadcast_to(R.samples, (top.size, R.p.p)), [flag], lines,
                      [k[top]], [mag1[top]], theta, theta2)
    out = []
    for i in range(top.size):
        det = _detection(scan, i, R.p)
        if det.confident and det.shift not in {d.shift for d in out}:
            out.append(det)
    return out
