"""The O(p log p) engine: DFTs and matched filtering on lines.

The forward transform uses the kernel e^{+2 pi i k t / p}, chosen so that a
vertical-line slice of the matched-filter matrix is literally one forward
transform. Transforms run through numpy.fft (pocketfft), which handles prime
lengths in O(p log p) itself, by Bluestein's algorithm: two FFTs at a smooth
length of at least 2p-1, plus chirps. Every transform is a dft call, counted
in an operation counter so complexity claims can be checked
machine-independently.

mf_on_stage is the one line-scan kernel: it scans a list of jobs (sender,
slope, offsets) against one stack of receivers, each row of a job on its own
line of the job's slope, as one detection stage. The transform count is per
stage, not per scan: every line, vertical or sloped, is one zero-padded chirp
correlation, so the whole stage runs one adjoint and one inverse FFT at a
padded length n >= 2p-1, in place in a reused per-thread buffer (two FFTs of
length n where two prime-length transforms would run four). n is the 5-smooth
length in [2p-1, next power of two] that pocketfft transforms fastest by a
fitted cost rule (_smooth_length), not the least one. Above SPLIT_ABOVE
samples each of the two transforms runs as two short passes, n = n2 n1, one
call each over the whole stack, that leave the spectrum in their own order
and take it back (_stage_transform):
the same O(n log n) transform, with a few KB of pocketfft scratch where one
pass over rows of length n takes scratch that glibc can map, and fault in,
on every call. A stage also runs one
transform per job whose sender half is cold: that half (its conjugate chirp
and padded spectrum) is kept as a read-only plan per (sender Signal, slope),
at most PLAN_SLOPES slopes per sender, and dropped when the Signal is
garbage-collected; the vertical plan depends on p only, and is kept once
per p for every sender. The detectors read each job's result in place in
that buffer, before its output chirp (_scan), so a warm stage allocates no
(rows, p) array; mf_on_stage returns copies with the chirp applied.
mf_on_line is its one-job, one-row case. The full p x p matrix is the p
vertical lines tau0 = 0..p-1, scanned in blocks of rows that fit the kept
buffer (_mf_rows).
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
import numpy.fft  # numpy loads it lazily; load it with the package

from .gfp import Line, _chirp, _roll_rows, inv, is_prime

if TYPE_CHECKING:
    from .signals import Signal


# ---------------------------------------------------------------- counters

@dataclass
class OpCounters:
    """Instrumentation for complexity evidence. Not thread-safe; read it
    around single-threaded measurement sections only.

    dft_calls counts dft calls, and a call on a stack of rows counts once.
    dft_ops is a modelled cost times the number of rows transformed, not a
    count of instructions executed: a prime length p is priced as a
    zero-padded radix-2 Rader transform (_modelled_ops), a padded length n as
    one radix-2 pass at the power of two N >= n (_radix2_ops). A non-empty
    stage of stacked scans (mf_on_stage) adds 2 padded dft calls of length n,
    4 above SPLIT_ABOVE, where each stage transform is counted as its two
    passes (_stage_transform), each priced by _radix2_ops at its own length;
    plus 1 per cold plan (a sloped job's (sender, slope) plan, or the
    vertical jobs' one plan per p), a one-pass transform of length n. The
    count holds for any mix of vertical and sloped jobs and any number of
    receiver rows. line_calls counts mf_on_line calls only, so stacked scans
    leave it alone.
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


def _radix2_ops(n: int) -> int:
    """Butterflies of one radix-2 pass at the power of two N >= n: (N/2)log2 N."""
    n = 1 << (n - 1).bit_length()
    return n // 2 * (n.bit_length() - 1)


def _modelled_ops(p: int) -> int:
    """Cost of one prime-length transform as a padded Rader transform: two
    radix-2 passes at the power of two N >= 2(p-1), plus N pointwise products."""
    n = 1 << (2 * p - 3).bit_length()
    return 2 * _radix2_ops(n) + n


@lru_cache(maxsize=64)
def _smooth_length(m: int) -> int:
    """The padded length for m >= 1 samples: of the 5-smooth n = 2^a 3^b 5^c
    with m <= n <= N, N the power of two >= m, the one of least modelled cost
    n (1 + 0.03 (b + c)), the smaller n on a tie. pocketfft's radix-3 and
    radix-5 passes cost more per sample than its radix-4 ones, so a length
    a little above the least 5-smooth one is often faster: 20480 = 2^12 5
    against 20250 = 2 3^4 5^3 at m = 2 * 10007 - 1. The weight is fitted to a
    timing sweep of stacked transform pairs (CHANGES.md has the table)."""
    top = 1 << (m - 1).bit_length()
    best = (100 * top, top)
    f5, c = 1, 0
    while f5 < top:
        f35, k = f5, c
        while f35 < top:
            n = f35 << (-(-m // f35) - 1).bit_length()  # least 2^a f35 >= m
            best = min(best, (n * (100 + 3 * k), n))
            f35, k = f35 * 3, k + 1
        f5, c = f5 * 5, c + 1
    return best[1]


def dft(x: np.ndarray, direction: str = "forward", *, n: int | None = None,
        out: np.ndarray | None = None) -> np.ndarray:
    """Length-p DFT, p prime, of a vector or of each row of a stack of any
    rank, along its last axis. Forward: X[k] = sum_t x[t] e^{+2 pi i kt/p};
    inverse applies the opposite kernel and the 1/p factor; adjoint applies
    the opposite kernel unscaled, so dft(x, "adjoint") ==
    conj(dft(conj(x), "forward")) bit for bit, and is counted as a forward
    transform. A square (p, p) array is refused: it is the shape of a
    matched-filter matrix, not of a stack of receivers.

    With n, the transform has length n instead: each row is zero-padded to n
    (n below the row length is refused), for any n and any stack.
    Sloped scans use it for their padded correlation.

    With out, the result is written there and out is returned; out may be x
    itself, which transforms in place when x already has length n."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0:
        raise ValueError(f"dft expects a vector or a stack of rows, got shape {x.shape}")
    if n is None:
        n = x.shape[-1]
        if x.ndim == 2 and x.shape[0] == n:
            raise ValueError(f"dft expects a vector or a (rows, p) stack with rows != p, "
                             f"got shape {x.shape}")
        if not is_prime(n):
            raise ValueError(f"dft length {n} is not prime")
        ops = _modelled_ops(n)
    elif n < x.shape[-1]:
        raise ValueError(f"dft padded length {n} is below the row length {x.shape[-1]}")
    else:
        ops = _radix2_ops(n)
    if direction == "forward":
        out = np.fft.ifft(x, n, norm="forward", out=out)
    elif direction in ("inverse", "adjoint"):  # one kernel; the adjoint is unscaled
        out = np.fft.fft(x, n, norm="forward" if direction == "inverse" else "backward",
                         out=out)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    counters.dft_calls += 1
    counters.dft_ops += math.prod(x.shape[:-1]) * ops
    return out


# ----------------------------------------------------- matched filter on a line

@dataclass(frozen=True, eq=False)
class LineProfile:
    """Matched-filter values along one line, indexed like line_points(line)."""

    line: Line
    values: np.ndarray

    def argmax(self) -> int:
        return int(np.argmax(np.abs(self.values)))


PLAN_SLOPES = 4  # sloped line-scan plans kept per sender Signal

# sender Signal -> {slope: (conjugate chirp conj(q), padded spectrum)}, oldest slope first
_plans: "weakref.WeakKeyDictionary[Signal, dict]" = weakref.WeakKeyDictionary()
_plans_lock = threading.Lock()


def _sender_plan(S: "Signal", m: int | None) -> tuple[np.ndarray, np.ndarray]:
    """conj(q_m), for the chirp q_m(t) = e^{(2 pi i/p) 2^{-1} m t^2}, and the
    length-n spectrum of the periodic extension [a, a[:p-1]] of a = q_m*S, n
    the padded length _smooth_length(2p-1) (_plan), built on first use and
    kept for later scans of S on slope m. Vertical (m = None): q = q_1 and
    a = q, since the vertical line's sender samples ride in the receiver
    rows, so that plan depends on p only and every sender shares it
    (_vertical_plan)."""
    if m is None:
        return _vertical_plan(S.p.p)
    with _plans_lock:
        per = _plans.get(S)
        plan = per.pop(m, None) if per is not None else None
        if plan is not None:
            per[m] = plan  # most recently used last
            return plan
    plan = _plan(S.p.p, m, S.samples)
    with _plans_lock:
        per = _plans.setdefault(S, {})
        per[m] = plan
        while len(per) > PLAN_SLOPES:
            del per[next(iter(per))]
    return plan


@lru_cache(maxsize=2)
def _vertical_plan(p: int) -> tuple[np.ndarray, np.ndarray]:
    return _plan(p, None, None)


def _plan(p: int, m: int | None, samples: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (conj(q), padded spectrum) of _sender_plan for the
    sender samples on slope m (None: vertical, samples unused), by one dft.
    Above SPLIT_ABOVE the spectrum is stored in the order the split stage
    transform leaves its own in (_stage_transform), reordered once here."""
    q = _chirp(p, inv(2, p) * (1 if m is None else m))
    a = q if m is None else q * samples
    cq = np.conj(q)
    n = _smooth_length(2 * p - 1)
    fa = dft(np.concatenate([a, a[:p - 1]]), "forward", n=n)
    if n > SPLIT_ABOVE:  # the split stage transform's (k2, k1) order
        n2, n1, _ = _split(n)
        fa = fa.reshape(n1, n2).T.ravel()
    cq.setflags(write=False)
    fa.setflags(write=False)
    return cq, fa


def line_offset(line: Line) -> int:
    """The canonical offset mf_on_stage takes for a line: the omega-intercept
    of a sloped line, the tau of a vertical one."""
    return line.offset.tau if line.is_vertical else line.offset.omega


BUFFER_CAP = 2**17  # samples (2 MB) of each per-thread buffer kept between calls (_work)

_local = threading.local()


def _work(size: int, name: str = "buf") -> np.ndarray:
    """size complex samples of scratch: a view of this thread's kept buffer
    `name`, grown to the largest size seen up to BUFFER_CAP samples; a larger
    size gets an array for this call only. Each name is a separate buffer, so
    arrays carved from one stay valid while another is used."""
    if size > BUFFER_CAP:
        return np.empty(size, dtype=np.complex128)
    buf = getattr(_local, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=np.complex128)
        setattr(_local, name, buf)
    return buf[:size]


SPLIT_ABOVE = 4096  # longer padded lengths split each stage transform (sweep in CHANGES.md)


@lru_cache(maxsize=4)
def _split(n: int) -> tuple[int, int, np.ndarray]:
    """(n2, n1, w) for a padded length n: n = n2 * n1 with n1 the least
    divisor of n at or above sqrt(n), and the read-only (n2, n1) twiddle table
    w[k2, t1] = e^{-2 pi i k2 t1 / n}."""
    n1 = next(d for d in range(math.isqrt(n), n + 1) if n % d == 0 and d * d >= n)
    n2 = n // n1
    w = np.exp(-2j * np.pi * (np.arange(n2)[:, None] * np.arange(n1) % n) / n)
    w.setflags(write=False)
    return n2, n1, w


def _stage_transform(work: np.ndarray, direction: str) -> None:
    """The stage's adjoint or inverse transform of each row of the (rows, n)
    array work, in place. Up to SPLIT_ABOVE it is one dft call of length n.

    Above, it is Bailey's four-step FFT without its transposes, run as two
    short dft passes on the (rows, n2, n1) view (_split), one call each for
    the whole stack, with t = t2 n1 + t1 and k = k1 n2 + k2. The adjoint runs
    a length-n2 pass over the strided axis (t2 -> k2) of the transposed
    (rows, n1, n2) view, multiplies by w[k2, t1], and runs a length-n1 pass
    over the contiguous axis (t1 -> k1), so the spectrum
    X[k1 n2 + k2] lands at k2 n1 + k1. The inverse takes that order, runs
    the passes the other way round with the same table (both directions use
    the kernel e^{-2 pi i kt/n}) and returns natural order. Both are the same
    O(n log n) transform as one pass, but one pass takes pocketfft scratch of
    the row length, large enough that glibc can map or trim it and fault it
    in again on every call, where the short passes need a few KB."""
    n = work.shape[1]
    if n <= SPLIT_ABOVE:
        dft(work, direction, n=n, out=work)
        return
    n2, n1, w = _split(n)
    grid = work.reshape(-1, n2, n1)
    cols = grid.transpose(0, 2, 1)
    if direction == "inverse":
        dft(grid, direction, n=n1, out=grid)
        grid *= w
    dft(cols, direction, n=n2, out=cols)
    if direction == "adjoint":
        grid *= w
        dft(grid, direction, n=n1, out=grid)


def mf_on_stage(R: np.ndarray, jobs: list) -> list[np.ndarray]:
    """M[S, R_i] on one line per row of the (T, p) receiver stack R, for each
    job (S, slope, offsets) of a detection stage, in O(p log p) per row and a
    fixed number of transform calls per stage, whatever the number of jobs
    and rows. Returns one fresh (T, p) array per job, in job order: the views
    _scan leaves in the work buffer, which the detectors read in place, times
    the output chirp conj(q).

    Row i of a job scans the line of `slope` (None = vertical) with canonical
    offset offsets[i]: the omega-intercept c of {(tau, slope*tau + c)}, or
    tau0 of the vertical line {(tau0, w)}. Row i of its result is indexed like
    line_points of that line.

    With the chirp q(t) = e^{(2 pi i/p) 2^{-1} m t^2} the kernel factorizes
    as e^{(2 pi i/p) m tau t} = q(t+tau) conj(q(t)) conj(q(tau)), Bluestein's
    chirp-z step, so every line is one cyclic correlation against a chirp:

    Sloped (slope m): M(tau, m*tau+c) = conj(q(tau)) * crosscorr(q*S, b_i)[tau],
    with b_i(t) = q(t) R_i(t) e^{-2 pi i c t/p}, the offset a modulation per row.
    For m != 0 the same identity makes the modulated chirp a shifted one,
    q(t) e^{-2 pi i c t/p} = q(t+a) conj(q(a)) with a = -c/m, so b_i is a roll
    of q and takes no exponential (gfp._roll_rows); on slope 0, q = 1 and
    the modulations are one gfp._chirp stack.

    Vertical: M(tau0, w) = conj(q(w)) * crosscorr(q, b_i)[w] with q = q_1 and
    b_i(t) = q(t) R_i(t) conj(S(t+tau0)), the sender rolled per row
    (gfp._roll_rows).

    The cyclic correlation of length p is a linear one against the periodic
    extension of its first argument, so it is read off lags [:p] of a
    correlation zero-padded to the length n = _smooth_length(2p-1). Every job
    writes conj(b_i) into columns [:p] of one (rows, n) work array (_work)
    with zero columns [p:], so the whole stage runs one adjoint transform
    (the conjugated forward spectrum of b_i, with no conjugation pass) and one
    inverse, both in place and of length n, each as two short passes above
    SPLIT_ABOVE (_stage_transform). R is conjugated once per stage,
    into the same kept buffer. conj(q) and the padded spectrum of the first
    argument come from the sender's plan, so a stage adds one transform per
    cold plan: a sloped job's (S, slope) plan, or the vertical plan of p.
    Every job is checked before any transform: an R that is not a (T, p)
    stack, rows of another length than a sender, and offsets other than one
    per receiver row are refused.
    """
    # conj(q) first: numpy's complex product is not commutative bit for bit
    return [np.multiply(cq, values) for values, _, cq in _scan(R, jobs)]


def _scan(R: np.ndarray, jobs: list) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """mf_on_stage before its output chirp and without the copies: per job,
    v = M / conj(q) along each row's line as a (T, p) view of this thread's
    work buffer, a spare (T, p) float64 view of the same rows' padding
    columns, free for the caller (the detectors write |v| = |M| there), and
    the plan's read-only conj(q), so that M[i, k] = conj(q)[k] * v[i, k]. The
    views stay valid until this thread's next scan."""
    if np.ndim(R) != 2:
        raise ValueError(f"expected a (T, p) stack of receiver rows, got shape {np.shape(R)}")
    T, p = R.shape
    for S, _, offsets in jobs:
        if S.p.p != p:
            raise ValueError("mismatched moduli")
        if np.shape(offsets) != (T,):
            raise ValueError(f"expected one offset per receiver row, shape ({T},), "
                             f"got shape {np.shape(offsets)}")
    if not jobs:
        return []
    n = _smooth_length(2 * p - 1)
    size = len(jobs) * T * n
    buf = _work(size + T * p)
    work = buf[:size].reshape(len(jobs) * T, n)
    work[:, p:] = 0
    cR = np.conjugate(R, out=buf[size:].reshape(T, p))
    blocks = work.reshape(len(jobs), T, n)
    plans = [_sender_plan(S, m) for S, m, _ in jobs]
    for rows, (cq, _), (S, m, offsets) in zip(blocks, plans, jobs):
        b = rows[:, :p]  # conj(b_i), written directly
        if m is None:
            _roll_rows(S.samples, -offsets, b)
            b *= cq
        elif m % p:
            a = -offsets * inv(m, S.p) % p
            _roll_rows(cq, -a, b)
            b *= np.conj(cq[a])[:, None]
        else:  # q = 1
            _chirp(p, 0, offsets[:, None], out=b)
        b *= cR
    _stage_transform(work, "adjoint")
    for rows, (_, fa) in zip(blocks, plans):
        rows *= fa
    _stage_transform(work, "inverse")
    # n - p >= p - 1 >= p/2, so the padding holds a (T, p) float64 view
    return [(rows[:, :p], rows[:, p:].view(np.float64)[:, :p], cq)
            for rows, (cq, _) in zip(blocks, plans)]


def _mf_rows(S: "Signal", R: "Signal", k: int) -> np.ndarray:
    """Rows tau = 0..k-1 of the full matched-filter matrix M[S, R] as a fresh
    (k, p) array, entry [tau, w] = M(tau, w). Row tau is the vertical line
    tau0 = tau, so the rows are one-job mf_on_stage scans of R broadcast to a
    block of rows, one stage per block, with as many rows a block as let the
    stage's work fit the kept buffer (BUFFER_CAP): no (k, n) work array is
    built."""
    if S.p != R.p:
        raise ValueError("mismatched moduli")
    p = S.p.p
    block = max(1, BUFFER_CAP // (_smooth_length(2 * p - 1) + p))  # _scan's buffer per row
    out = np.empty((k, p), dtype=np.complex128)
    for t0 in range(0, k, block):
        taus = np.arange(t0, min(t0 + block, k))
        ((values, _, cq),) = _scan(np.broadcast_to(R.samples, (taus.size, p)),
                                   [(S, None, taus)])
        np.multiply(cq, values, out=out[t0:t0 + taus.size])  # mf_on_stage, in place
    return out


def mf_on_line(S: "Signal", R: "Signal", line: Line) -> LineProfile:
    """Restrict the matched-filter matrix M[S,R] to a line, in O(p log p):
    the one-row mf_on_stage scan."""
    if line.p != S.p:
        raise ValueError("line modulus does not match signals")
    (values,) = mf_on_stage(R.samples[None, :], [(S, line.slope, np.array([line_offset(line)]))])
    counters.line_calls += 1
    return LineProfile(line, values[0])
