"""Two-stage detection in O(p log p) per waveform: flag and cross algorithms,
multi-user bit extraction, GPS fixes, and multi-target radar.

Stage 1 scans a line transverse to the waveform's carrier line; its peak lands
on the shifted carrier line. Stage 2 scans that shifted line; its peak is the
time-frequency shift. Both stages are single mf_on_line calls, and decisions
are taken on magnitudes, so bits (pure phases) never disturb detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fastmf import mf_on_line
from .gfp import Line, PlanePoint, line_point, line_through
from .heisenberg import Cross
from .signals import Signal, mf_entry
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


def _two_stage(S: Signal, R: Signal, carrier: Line, stage1_line: Line,
               theta1: float, theta2: float) -> Detection:
    prof1 = mf_on_line(S, R, stage1_line)
    k1 = prof1.argmax()
    stage1_mag = float(np.abs(prof1.values[k1]))
    v_star = line_point(stage1_line, k1)
    stage2_line = line_through(carrier.slope, v_star)
    prof2 = mf_on_line(S, R, stage2_line)
    k2 = prof2.argmax()
    shift = line_point(stage2_line, k2)
    mag = float(np.abs(prof2.values[k2]))
    return Detection(shift, mag, stage1_mag,
                     stage1_mag >= theta1 and mag >= theta2)


def flag_detect(R: Signal, flag: Flag,
                theta1: float = THETA1_DEFAULT,
                theta2: float = THETA2_DEFAULT) -> Detection:
    """Flag algorithm: scan a transverse line, then the shifted carrier line.
    Exactly two mf_on_line calls."""
    if not flag.line.through_origin():
        raise ValueError("flag carrier line must pass through the origin")
    return _two_stage(flag.signal, R, flag.line, transverse_line(flag.line),
                      theta1, theta2)


def cross_detect(R: Signal, cross: Cross,
                 theta1: float = THETA1_DEFAULT,
                 theta2: float = THETA2_DEFAULT) -> Detection:
    """Cross algorithm: the second line M of the cross is already transverse
    to L, so stage 1 scans M itself; stage 2 scans the shifted L."""
    return _two_stage(cross.signal, R, cross.lineL, cross.lineM,
                      theta1, theta2)


def _detect_any(R: Signal, waveform, theta1: float, theta2: float) -> Detection:
    if isinstance(waveform, Flag):
        return flag_detect(R, waveform, theta1, theta2)
    if isinstance(waveform, Cross):
        return cross_detect(R, waveform, theta1, theta2)
    raise TypeError(f"unsupported waveform type {type(waveform).__name__}")


def extract_bits(R: Signal, family: list,
                 theta1: float = THETA1_DEFAULT,
                 theta2: float = THETA2_DEFAULT) -> list[BitDecision]:
    """Detect each waveform's shift, then read the bit from the matched filter
    at the detected shift: soft = M[S_k, R](shift)/2, bit = sign(Re soft)."""
    out = []
    for w in family:
        det = _detect_any(R, w, theta1, theta2)
        soft = mf_entry(w.signal, R, det.shift) / 2.0
        bit = 1 if soft.real >= 0 else -1
        out.append(BitDecision(bit, soft, det))
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
    dropped. Costs 1 + at most r mf_on_line calls. If fewer than r echoes are
    confirmed, the shorter list is returned and callers see the shortfall in
    the list length.
    """
    if not flag.line.through_origin():
        raise ValueError("flag carrier line must pass through the origin")
    lperp = transverse_line(flag.line)
    prof1 = mf_on_line(flag.signal, R, lperp)
    mags = np.abs(prof1.values)
    cands = _local_maxima(mags, theta)
    cands.sort(key=lambda i: -mags[i])
    cands = cands[:r]
    out = []
    seen = set()
    for k in cands:
        stage2_line = line_through(flag.line.slope, line_point(lperp, k))
        prof2 = mf_on_line(flag.signal, R, stage2_line)
        k2 = prof2.argmax()
        shift = line_point(stage2_line, k2)
        key = (shift.tau, shift.omega)
        mag = float(np.abs(prof2.values[k2]))
        if mag < theta2 or key in seen:
            continue
        seen.add(key)
        out.append(Detection(shift, mag, float(mags[k]), True))
    return out
