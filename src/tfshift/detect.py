"""Two-stage detection in O(p log p) per waveform: flag and cross algorithms,
multi-user bit extraction, GPS fixes, and multi-target radar.

Flag and cross detection are one scan. Stage 1 scans a line transverse to the
waveform's carrier line (a flag's transverse_line, a cross's second line M);
its peak lands on the shifted carrier line. Stage 2 scans that shifted line;
its peak is the time-frequency shift, and the matched-filter value there
carries the bit. Decisions are taken on magnitudes, so bits (pure phases)
never disturb detection. Each stage is one stacked line scan
(fastmf.mf_on_lines) over a (T, p) stack of receivers, so a single receiver
is the one-row case and sim.monte_carlo scans all its trials at once. Radar
scans stage 1 once and runs the same stage 2 for all candidates as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fastmf import line_offset, mf_on_line, mf_on_lines
from .gfp import Line, PlanePoint, line_point, line_through
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


def transverse_line(L: Line) -> Line:
    """A deterministic origin line different from L: successor slope for sloped
    lines (m -> m+1 mod p, never vertical), slope 0 for the vertical line."""
    if L.is_vertical:
        return Line(0, L.p)
    return Line((L.slope + 1) % L.p.p, L.p)


def _lines(waveform) -> tuple[Line, Line]:
    """(carrier line, stage-1 line): the one place a flag is told from a cross."""
    if isinstance(waveform, Flag):
        if not waveform.line.through_origin():
            raise ValueError("flag carrier line must pass through the origin")
        return waveform.line, transverse_line(waveform.line)
    if isinstance(waveform, Cross):
        return waveform.lineL, waveform.lineM
    raise TypeError(f"unsupported waveform type {type(waveform).__name__}")


class Scan(NamedTuple):
    """The two-stage scan of one waveform over a (T, p) receiver stack, per row."""

    tau: np.ndarray       # detected shift
    omega: np.ndarray
    stage1: np.ndarray    # |M| at the stage-1 peak
    magnitude: np.ndarray  # |M| at the detected shift
    peak: np.ndarray      # M at the detected shift
    bit: np.ndarray       # sign(Re soft), soft = peak/2


def _peaks(S: Signal, R: np.ndarray, slope: int | None,
           offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row: the point (tau, omega) of its line where |M[S, R_i]| peaks,
    |M| and M there; gfp.line_point per row."""
    values = mf_on_lines(S, R, slope, offsets)
    mags = np.abs(values)
    k = np.argmax(mags, axis=1)
    rows = np.arange(k.shape[0])
    if slope is None:
        tau, omega = offsets, k
    else:
        tau, omega = k, (offsets + slope * k) % S.p.p
    return tau, omega, mags[rows, k], values[rows, k]


def _detect(R: np.ndarray, waveform) -> Scan:
    """The two-stage scan of one waveform over the rows of R: stage 1 on the
    same line for every row, stage 2 on each row's shifted carrier line."""
    carrier, stage1_line = _lines(waveform)
    S, m = waveform.signal, carrier.slope
    tau1, omega1, mag1, _ = _peaks(S, R, stage1_line.slope,
                                   np.full(R.shape[0], line_offset(stage1_line)))
    # line_offset of line_through(m, stage-1 peak), per row
    offsets = tau1 if m is None else (omega1 - m * tau1) % S.p.p
    tau, omega, mag2, peak = _peaks(S, R, m, offsets)
    return Scan(tau, omega, mag1, mag2, peak, np.where((peak / 2.0).real >= 0, 1, -1))


def _detect_one(R: Signal, waveform, theta1: float,
                theta2: float) -> tuple[Detection, Scan]:
    """_detect on one receiver, with its Detection."""
    scan = _detect(R.samples[None, :], waveform)
    mag1, mag2 = float(scan.stage1[0]), float(scan.magnitude[0])
    shift = PlanePoint(int(scan.tau[0]), int(scan.omega[0]), R.p)
    return Detection(shift, mag2, mag1, mag1 >= theta1 and mag2 >= theta2), scan


def flag_detect(R: Signal, flag: Flag,
                theta1: float = THETA1_DEFAULT,
                theta2: float = THETA2_DEFAULT) -> Detection:
    """Flag algorithm: scan a transverse line, then the shifted carrier line.
    Exactly two line scans."""
    return _detect_one(R, flag, theta1, theta2)[0]


def cross_detect(R: Signal, cross: Cross,
                 theta1: float = THETA1_DEFAULT,
                 theta2: float = THETA2_DEFAULT) -> Detection:
    """Cross algorithm: the second line M of the cross is already transverse
    to L, so stage 1 scans M itself; stage 2 scans the shifted L."""
    return _detect_one(R, cross, theta1, theta2)[0]


def extract_bits(R: Signal, family: list,
                 theta1: float = THETA1_DEFAULT,
                 theta2: float = THETA2_DEFAULT) -> list[BitDecision]:
    """Detect each waveform's shift and read its bit off the stage-2 peak:
    soft = M[S_k, R](shift)/2, bit = sign(Re soft)."""
    out = []
    for w in family:
        det, scan = _detect_one(R, w, theta1, theta2)
        out.append(BitDecision(int(scan.bit[0]), complex(scan.peak[0]) / 2.0, det))
    return out


def gps_solve(R: Signal, family: list,
              theta1: float = THETA1_DEFAULT,
              theta2: float = THETA2_DEFAULT) -> list[GpsFix]:
    """Per satellite: recover (bit, tau); omega rides along as auxiliary."""
    bits = extract_bits(R, family, theta1, theta2)
    return [GpsFix(b.bit, b.detection.shift.tau, b.detection.shift.omega)
            for b in bits]


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
    Stage 2 scans each candidate's shifted line for its peak. Only candidates
    whose stage-2 peak clears theta2 are returned, so every Detection is
    confirmed (confident) and a bump from a bare ridge or from noise is
    dropped. Costs two line scans: stage 1, then all candidates' stage 2 as
    one stack. If fewer than r echoes are confirmed, the shorter list is
    returned and callers see the shortfall in the list length.
    """
    if r < 1:
        raise ValueError(f"radar needs r >= 1 targets, got {r}")
    carrier, lperp = _lines(flag)
    prof1 = mf_on_line(flag.signal, R, lperp)
    mags = np.abs(prof1.values)
    cands = _local_maxima(mags, theta)
    cands.sort(key=lambda i: -mags[i])
    cands = cands[:r]
    if not cands:
        return []
    offsets = np.array([line_offset(line_through(carrier.slope, line_point(lperp, k)))
                        for k in cands])
    tau, omega, mag2, _ = _peaks(flag.signal, np.broadcast_to(R.samples, (len(cands), R.p.p)),
                                 carrier.slope, offsets)
    out = []
    seen = set()
    for i, k in enumerate(cands):
        shift = PlanePoint(int(tau[i]), int(omega[i]), R.p)
        mag = float(mag2[i])
        if mag < theta2 or shift in seen:
            continue
        seen.add(shift)
        out.append(Detection(shift, mag, float(mags[k]), True))
    return out
