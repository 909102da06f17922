"""The O(p log p) engine: prime-length DFT and matched filtering on a line.

The forward transform uses the kernel e^{+2 pi i k t / p}, chosen so that a
vertical-line slice of the matched-filter matrix is literally one forward
transform. Transforms run through numpy.fft (pocketfft), which handles prime
lengths in O(p log p) itself. Every transform is counted in an operation
counter so complexity claims can be checked machine-independently.

A vertical scan costs one transform. A sloped scan costs three the first time
a sender is scanned on a slope and two afterwards: the sender's half of the
correlation (its chirp and chirped spectrum) is kept as a read-only plan per
(sender Signal, slope), at most PLAN_SLOPES slopes per sender, and dropped
when the Signal is garbage-collected.
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

    dft_ops is the modelled cost of the zero-padded radix-2 Rader scheme for
    a prime length (see _modelled_ops), not a count of instructions executed.
    A sloped mf_on_line adds 3 dft calls on the first scan of a (sender,
    slope) pair and 2 on each later one; a vertical scan adds 1.
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
    """Length-p DFT, p prime. Forward: X[k] = sum_t x[t] e^{+2 pi i kt/p};
    inverse applies the opposite kernel and the 1/p factor."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError("dft expects a 1-d vector")
    p = x.shape[0]
    if not is_prime(p):
        raise ValueError(f"dft length {p} is not prime")
    if direction == "forward":
        out = np.fft.ifft(x, norm="forward")
    elif direction == "inverse":
        out = np.fft.fft(x, norm="forward")
    else:
        raise ValueError(f"unknown direction {direction!r}")
    counters.dft_calls += 1
    counters.dft_ops += _modelled_ops(p)
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


def mf_on_line(S: "Signal", R: "Signal", line: Line) -> LineProfile:
    """Restrict the matched-filter matrix M[S,R] to a line, in O(p log p).

    Vertical line {(tau0, w)}: the values over w are one forward DFT of
    u(t) = S(t+tau0) conj(R(t)).

    Sloped line w = m*tau + c: with the chirp q(t) = e^{(2 pi i/p) 2^{-1} m t^2}
    the kernel factorizes as e^{(2 pi i/p) m tau t} = q(t+tau) conj(q(t)) conj(q(tau)),
    so M(tau, m*tau+c) = conj(q(tau)) * crosscorr(q*S, q*R*e^{-2 pi i c t/p})[tau].
    The offset is a cyclic shift of the spectrum, dft(x e^{-2 pi i c t/p})[k] =
    dft(x)[k-c], and q and dft(q*S) come from the sender's plan, so the first
    scan of (S, m) costs three transforms and each later one two.
    """
    if S.p != R.p:
        raise ValueError("mismatched moduli")
    if line.p != S.p:
        raise ValueError("line modulus does not match signals")
    counters.line_calls += 1
    if line.is_vertical:
        tau0 = line.offset.tau
        u = np.roll(S.samples, -tau0) * np.conj(R.samples)
        values = dft(u, "forward")
        return LineProfile(line, values)
    q, fa = _sender_plan(S, line.slope)
    fb = np.roll(dft(q * R.samples, "forward"), line.offset.omega)
    cc = dft(fa * np.conj(fb), "inverse")
    values = np.conj(q) * cc
    return LineProfile(line, values)
