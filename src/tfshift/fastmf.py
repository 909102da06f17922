"""The O(p log p) engine: prime-length DFT and matched filtering on lines.

The forward transform uses the kernel e^{+2 pi i k t / p}, chosen so that a
vertical-line slice of the matched-filter matrix is literally one forward
transform. Transforms run through numpy.fft (pocketfft), which handles prime
lengths in O(p log p) itself. Every transform is counted in an operation
counter so complexity claims can be checked machine-independently.

mf_on_lines is the one line-scan kernel: it scans one sender against a stack
of receivers, each row on its own line of a shared slope, with one transform
call per step for the whole stack. mf_on_line is its one-row case. A vertical
scan costs one transform. A sloped scan costs three the first time a sender is
scanned on a slope and two afterwards: the sender's half of the correlation
(its chirp and chirped spectrum) is kept as a read-only plan per (sender
Signal, slope), at most PLAN_SLOPES slopes per sender, and dropped when the
Signal is garbage-collected.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import numpy.fft  # numpy loads it lazily; load it with the package

from .gfp import Line, inv, is_prime

if TYPE_CHECKING:
    from .signals import Signal


# ---------------------------------------------------------------- counters

@dataclass
class OpCounters:
    """Instrumentation for complexity evidence. Not thread-safe; read it
    around single-threaded measurement sections only.

    dft_calls counts dft calls, and a call on a stack of rows counts once.
    dft_ops is the modelled cost of the zero-padded radix-2 Rader scheme for
    a prime length (see _modelled_ops) times the number of rows transformed,
    not a count of instructions executed. A sloped scan adds 3 dft calls on
    the first scan of a (sender, slope) pair and 2 on each later one, for any
    number of receiver rows; a vertical scan adds 1. line_calls counts
    mf_on_line calls only, so stacked scans (mf_on_lines) leave it alone.
    """

    dft_calls: int = 0
    dft_ops: int = 0
    line_calls: int = 0

    def reset(self) -> None:
        self.dft_calls = 0
        self.dft_ops = 0
        self.line_calls = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.dft_calls, self.dft_ops, self.line_calls)


counters = OpCounters()


def _modelled_ops(p: int) -> int:
    """Cost of one padded Rader transform: two radix-2 passes of length
    N >= 2(p-1)-1, (N/2)log2 N butterflies each, plus N pointwise products."""
    if p <= 3:
        return 0
    n = 1 << (2 * (p - 1) - 1).bit_length()
    return n * (n.bit_length() - 1) + n


def dft(x: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Length-p DFT, p prime, of a vector or of each row of a (rows, p) stack.
    Forward: X[k] = sum_t x[t] e^{+2 pi i kt/p}; inverse applies the opposite
    kernel and the 1/p factor. A square array is refused: p x p is the shape
    of a matched-filter matrix, not of a stack of receivers."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim not in (1, 2) or x.ndim == 2 and x.shape[0] == x.shape[1]:
        raise ValueError(f"dft expects a vector or a (rows, p) stack with rows != p, "
                         f"got shape {x.shape}")
    p = x.shape[-1]
    if not is_prime(p):
        raise ValueError(f"dft length {p} is not prime")
    if direction == "forward":
        out = np.fft.ifft(x, norm="forward")
    elif direction == "inverse":
        out = np.fft.fft(x, norm="forward")
    else:
        raise ValueError(f"unknown direction {direction!r}")
    counters.dft_calls += 1
    counters.dft_ops += x.size // p * _modelled_ops(p)
    return out


# ----------------------------------------------------- matched filter on a line

@dataclass(frozen=True, eq=False)
class LineProfile:
    """Matched-filter values along one line, indexed like line_points(line)."""

    line: Line
    values: np.ndarray

    def argmax(self) -> int:
        return int(np.argmax(np.abs(self.values)))


PLAN_SLOPES = 4  # sloped-scan plans kept per sender Signal

# sender Signal -> {slope: (chirp q_m, dft(q_m * S))}, oldest slope first
_plans: "weakref.WeakKeyDictionary[Signal, dict]" = weakref.WeakKeyDictionary()
_plans_lock = threading.Lock()


def _sender_plan(S: "Signal", m: int) -> tuple[np.ndarray, np.ndarray]:
    """The chirp q_m(t) = e^{(2 pi i/p) 2^{-1} m t^2} and the spectrum
    dft(q_m * S), built on first use and kept for later scans of S on slope m."""
    with _plans_lock:
        per = _plans.get(S)
        plan = per.pop(m, None) if per is not None else None
        if plan is not None:
            per[m] = plan  # most recently used last
            return plan
    p = S.p.p
    t = np.arange(p)
    q = np.exp(2j * np.pi * ((inv(2, S.p) * m % p) * (t * t % p) % p) / p)
    fa = dft(q * S.samples, "forward")
    q.setflags(write=False)
    fa.setflags(write=False)
    plan = (q, fa)
    with _plans_lock:
        per = _plans.setdefault(S, {})
        per[m] = plan
        while len(per) > PLAN_SLOPES:
            del per[next(iter(per))]
    return plan


def line_offset(line: Line) -> int:
    """The canonical offset mf_on_lines takes for a line: the omega-intercept
    of a sloped line, the tau of a vertical one."""
    return line.offset.tau if line.is_vertical else line.offset.omega


def _roll_rows(x: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Row i of the (T, p) array x rolled by shifts[i], as np.roll rolls a
    vector: two slice copies per row, which for one row cost what np.roll
    does and for a stack less than a modulo-indexed gather."""
    p = x.shape[-1]
    out = np.empty(x.shape, dtype=x.dtype)
    for i, s in enumerate((shifts % p).tolist()):
        out[i, s:] = x[i, :p - s]
        out[i, :s] = x[i, p - s:]
    return out


def mf_on_lines(S: "Signal", R: np.ndarray, slope: int | None,
                offsets: np.ndarray) -> np.ndarray:
    """M[S, R_i] on one line per row of the (T, p) receiver stack R, in
    O(p log p) per row and a fixed number of transform calls per stack.

    Row i scans the line of `slope` (None = vertical) with canonical offset
    offsets[i]: the omega-intercept c of {(tau, slope*tau + c)}, or tau0 of
    the vertical line {(tau0, w)}. Row i of the result is indexed like
    line_points of that line.

    Vertical: row i is one forward DFT of u(t) = S(t+tau0) conj(R_i(t)), the
    sender rolled per row.

    Sloped: with the chirp q(t) = e^{(2 pi i/p) 2^{-1} m t^2} the kernel
    factorizes as e^{(2 pi i/p) m tau t} = q(t+tau) conj(q(t)) conj(q(tau)),
    so M(tau, m*tau+c) = conj(q(tau)) * crosscorr(q*S, q*R_i*e^{-2 pi i c t/p})[tau].
    The offset is a cyclic shift of the spectrum, dft(x e^{-2 pi i c t/p})[k] =
    dft(x)[k-c], a roll per row, and q and dft(q*S) come from the
    sender's plan, so the first scan of (S, m) costs three transforms and each
    later one two. dft refuses square arrays, so a stack of exactly p rows is
    scanned as two stacks. Rows of another length than S are refused.
    """
    p = S.p.p
    if R.shape[-1] != p:
        raise ValueError("mismatched moduli")
    rows = R.shape[0]
    if rows == p:
        return np.concatenate([mf_on_lines(S, R[:-1], slope, offsets[:-1]),
                               mf_on_lines(S, R[-1:], slope, offsets[-1:])])
    if slope is None:
        u = _roll_rows(np.broadcast_to(S.samples, R.shape), -offsets) * np.conj(R)
        return dft(u, "forward")
    q, fa = _sender_plan(S, slope)
    fb = _roll_rows(dft(q * R, "forward"), offsets)
    cc = dft(fa * np.conj(fb), "inverse")
    return np.conj(q) * cc


def mf_on_line(S: "Signal", R: "Signal", line: Line) -> LineProfile:
    """Restrict the matched-filter matrix M[S,R] to a line, in O(p log p):
    the one-row case of mf_on_lines, which documents the method."""
    if line.p != S.p:
        raise ValueError("line modulus does not match signals")
    values = mf_on_lines(S, R.samples[None, :], line.slope, np.array([line_offset(line)]))
    counters.line_calls += 1
    return LineProfile(line, values[0])
