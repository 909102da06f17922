"""Channel synthesis, Monte Carlo detection statistics, and the complexity
benchmark comparing line-restricted matched filtering against the full matrix.

The receiver model is R = sum_j alpha_j b_j pi(tau_j, omega_j) S_j + W with
unit-norm senders, bits b_j = +-1, intensities alpha_j in (0, 1], and white
Gaussian noise of per-sample variance sigma^2 (so E||W||^2 = p sigma^2; the
noise-to-signal ratio against one sender is p sigma^2).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import fastmf
from .detect import THETA1_DEFAULT, THETA2_DEFAULT, _detect
from .fastmf import mf_on_line
from .gfp import Line, PlanePoint, Prime, _roots, as_prime
from .heisenberg import cross_family
from .signals import Signal, awgn_rows, random_signal
from .weil import flag_family

TRIAL_CHUNK = 64  # rows of a Monte Carlo stage stack: trials x waveforms scanned at once


@dataclass(frozen=True)
class UserSpec:
    """One sender: waveform id, planted shift, data bit, echo intensity."""

    waveform_id: str
    shift: PlanePoint
    bit: int = 1
    intensity: float = 1.0

    def __post_init__(self):
        if self.bit not in (-1, 1):
            raise ValueError("bit must be +1 or -1")
        if not (0.0 < self.intensity <= 1.0):
            raise ValueError("intensity must lie in (0, 1]")


@dataclass(frozen=True)
class ChannelSpec:
    p: Prime
    users: tuple
    sigma: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_prime(self.p))
        object.__setattr__(self, "users", tuple(self.users))
        if len(self.users) < 1:
            raise ValueError("at least one user required")
        if not 0 <= self.sigma < np.inf:  # NaN fails too
            raise ValueError("sigma must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrialStats:
    trials: int
    exact_shift_rate: float
    bit_error_rate: float
    mean_stage1_mag: float
    mean_peak_mag: float
    confident_rate: float        # confident detections (Detection.confident)
    confident_wrong_rate: float  # confident detections with a wrong shift
    wall_time: float


def _stack_arrays(T: int, p: int) -> tuple:
    """Fresh arrays for _receivers to fill: the (T, p) stack, an int64 index
    array and two complex terms."""
    out, term, shifted = np.empty((3, T, p), dtype=np.complex128)
    return out, np.empty((T, p), dtype=np.int64), term, shifted


def _chunk_arrays(T: int, p: int) -> tuple:
    """The Monte Carlo chunk arrays: _stack_arrays' four, the (T, p) noise and
    its (2, T, p) normal planes, carved from this thread's kept "chunk"
    buffer (fastmf._work), so a warm call allocates none of them up to
    fastmf.BUFFER_CAP samples. They stay valid while the line scans use the
    separate stage buffer."""
    tp = T * p
    buf = fastmf._work(5 * tp + (tp + 1) // 2, "chunk")
    out, term, shifted, noise = buf[:4 * tp].reshape(4, T, p)
    planes = buf[4 * tp:5 * tp].view(np.float64).reshape(2, T, p)
    idx = buf[5 * tp:].view(np.int64)[:tp].reshape(T, p)
    return (out, idx, term, shifted), noise, planes


def _receivers(senders: list, shifts: np.ndarray, coef: np.ndarray,
               noise: np.ndarray, arrays: tuple | None = None) -> np.ndarray:
    """The (T, p) stack R_i = sum_j coef[i,j] pi(shifts[i,j]) S_j + noise_i for
    sender sample vectors S_j, (T, r, 2) shifts (tau, omega) and (T, r)
    coefficients. The terms are added in sender order and the noise last, and
    pi(v) S_j is built as heisenberg_op builds it (a fancy-index roll, then the
    modulation), so every row equals the receiver synthesized alone. It is
    built in place in arrays (default _stack_arrays(T, p)), whose first is
    returned, so a caller that reuses them allocates nothing."""
    T, p = noise.shape
    out, idx, term, shifted = arrays or _stack_arrays(T, p)
    psi, _, t = _roots(p)
    out.fill(0)
    for j, S in enumerate(senders):
        tau, omega = shifts[:, j, 0, None], shifts[:, j, 1, None]
        # out + coef * (psi[omega * t % p] * S[(t + tau) % p]); the indices are
        # in range, so take's clip mode changes nothing but spares it a copy
        np.take(psi, np.remainder(np.multiply(omega, t, out=idx), p, out=idx),
                out=term, mode="clip")
        np.take(S, np.remainder(np.add(t, tau, out=idx), p, out=idx), out=shifted, mode="clip")
        np.multiply(term, shifted, out=term)
        np.multiply(coef[:, j, None], term, out=term)
        np.add(out, term, out=out)
    return np.add(out, noise, out=out)


def synthesize_receiver(spec: ChannelSpec, waveforms: dict) -> Signal:
    """R = sum_j intensity_j * bit_j * pi(shift_j) S_j + awgn(p, sigma, seed):
    the one-row case of the receiver stack monte_carlo builds."""
    p = spec.p
    senders = []
    for u in spec.users:
        if u.waveform_id not in waveforms:
            raise ValueError(f"unknown waveform id {u.waveform_id!r}")
        S = waveforms[u.waveform_id]
        if S.p != p or u.shift.p != p:
            raise ValueError("waveform modulus does not match channel")
        senders.append(S.samples)
    R = _receivers(senders, np.array([[(u.shift.tau, u.shift.omega) for u in spec.users]]),
                   np.array([[u.intensity * u.bit for u in spec.users]]),
                   awgn_rows(p.p, spec.sigma, [spec.seed]))
    return Signal(p, R[0])


def thread_cap() -> int:
    """The thread cap TFSHIFT_THREADS asks for (default 1). monte_carlo runs
    on one thread and does not read it; it is kept as a reported setting."""
    raw = os.environ.get("TFSHIFT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_family(p, r: int, method: str, seed: int) -> list:
    if method == "flag":
        return flag_family(p, r, seed)
    if method == "cross":
        fam = cross_family(p, seed)
        if not 0 <= r <= len(fam):
            raise ValueError(f"a cross family holds 0 to {len(fam)} waveforms")
        return fam[:r]
    raise ValueError(f"unknown method {method!r}")


def monte_carlo(template: ChannelSpec, trials: int, method: str = "flag",
                theta1: float = THETA1_DEFAULT,
                theta2: float = THETA2_DEFAULT) -> TrialStats:
    """Randomized detection trials, run as stacked scans on one thread.

    Per trial, shifts are drawn uniformly over the plane and bits uniformly
    over +-1 (intensities come from the template); the receiver is synthesized
    and every waveform detected. Rates are per sender-detection. Each trial
    has its own random stream, spawned from one seed sequence, and draws the
    shifts, the bits and the noise seed from it in that order. Trials go
    max(1, TRIAL_CHUNK // r) at a time, so a stage stack holds at most
    TRIAL_CHUNK rows: their receivers are built as one (trials, p) stack, in
    arrays this thread keeps between calls (_chunk_arrays), and the family's
    two-stage scan runs once over it, one stacked scan per stage, so the
    statistics equal those of synthesize_receiver and extract_bits run trial
    by trial. theta1 and theta2 set the confident rates: a detection is
    confident as Detection.confident is, and confident but wrong when its
    shift is also wrong.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = template.p
    r = len(template.users)
    family = build_family(p, r, method, template.seed)
    senders = [w.signal.samples for w in family]
    intensity = np.array([u.intensity for u in template.users])
    seeds = np.random.SeedSequence(template.seed)
    signs = np.array([-1, 1])
    t0 = time.perf_counter()
    hits = errs = confident = wrong = 0
    s1: list[float] = []
    pk: list[float] = []
    chunk = max(1, TRIAL_CHUNK // r)
    arrays, noise, planes = _chunk_arrays(min(chunk, trials), p.p)
    for start in range(0, trials, chunk):
        n = min(chunk, trials - start)
        draws = np.empty((n, r, 2), dtype=np.int64)
        bits = np.empty((n, r), dtype=np.int64)
        noise_seeds = []
        for i, child in enumerate(seeds.spawn(n)):
            rng = np.random.default_rng(child)
            draws[i] = rng.integers(0, p.p, size=(r, 2))
            bits[i] = signs[rng.integers(0, 2, size=r)]  # the draw rng.choice(signs) makes
            noise_seeds.append(int(rng.integers(0, 2**63)))
        R = _receivers(senders, draws, intensity * bits,
                       awgn_rows(p.p, template.sigma, noise_seeds, noise[:n], planes[:, :n]),
                       [a[:n] for a in arrays])
        s1_rows = np.zeros(n)
        pk_rows = np.zeros(n)
        for k, scan in enumerate(_detect(R, family, theta1, theta2)):
            hit = (scan.tau == draws[:, k, 0]) & (scan.omega == draws[:, k, 1])
            hits += int(np.count_nonzero(hit))
            errs += int(np.count_nonzero(scan.bit != bits[:, k]))
            confident += int(np.count_nonzero(scan.confident))
            wrong += int(np.count_nonzero(scan.confident & ~hit))
            s1_rows = s1_rows + scan.stage1
            pk_rows = pk_rows + scan.magnitude
        s1 += s1_rows.tolist()
        pk += pk_rows.tolist()
    n = trials * r
    return TrialStats(trials, hits / n, errs / n, sum(s1) / n, sum(pk) / n,
                      confident / n, wrong / n, time.perf_counter() - t0)


# ----------------------------------------------------------------- benchmark

FULL_MF_LIMIT = 2048  # above this, mf_full timing is extrapolated from full_rows rows


def bench_complexity(p_list, repeats: int = 3, full_rows: int = 32) -> list[dict]:
    """Timing and operation-count table for mf_on_line vs mf_full.

    Per p: median wall time of one sloped mf_on_line call over `repeats` runs,
    the dft op count of one call, and the mf_full wall time. The line figures
    are the steady-state scan, with the sender's plan already built: 2
    transforms, where the first scan of a sender on a slope costs 3, and
    above fastmf.SPLIT_ABOVE each stage transform runs as 2 passes. The full
    matrix is timed as mf_full computes it, rows as vertical line scans
    (fastmf._mf_rows), on k = p rows up to FULL_MF_LIMIT and on
    k = min(full_rows, p) rows above; t_full_s is that time scaled by p/k, and
    flagged extrapolated when k < p. Row blocks cost the same per row, so the
    estimate is a straight per-row scale-up. ValueError if repeats or
    full_rows is below 1.
    """
    if repeats < 1 or full_rows < 1:
        raise ValueError(f"repeats and full_rows must be >= 1, got {repeats} and {full_rows}")
    rows = []
    for p in p_list:
        pp = as_prime(p)
        S = random_signal(pp, seed=101)
        R = random_signal(pp, seed=202)
        line = Line(1, pp)
        mf_on_line(S, R, line)  # builds the sender's plan outside the timing
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            mf_on_line(S, R, line)
            times.append(time.perf_counter() - t0)
        t_line = float(np.median(times))
        before = fastmf.counters.snapshot()
        mf_on_line(S, R, line)
        after = fastmf.counters.snapshot()
        ops_line = after[1] - before[1]
        k = pp.p if pp.p <= FULL_MF_LIMIT else min(full_rows, pp.p)
        t0 = time.perf_counter()
        fastmf._mf_rows(S, R, k)
        t_full = (time.perf_counter() - t0) * (pp.p / k)
        rows.append({
            "p": pp.p,
            "t_line_s": t_line,
            "dft_ops_line": ops_line,
            "t_full_s": t_full,
            "full_extrapolated": k < pp.p,
            "ratio": t_full / t_line if t_line > 0 else float("inf"),
        })
    return rows


def fit_exponent(ps, ys) -> float:
    """Least-squares slope of log(y) against log(p). ValueError if any p or y
    is not positive, since its log is not finite, or if ps holds fewer than
    two distinct values, which fit no slope."""
    x, y = np.asarray(ps, dtype=float), np.asarray(ys, dtype=float)
    if not (x > 0).all() or not (y > 0).all():
        raise ValueError(f"fit_exponent needs positive values, got ps={list(ps)}, ys={list(ys)}")
    if np.unique(x).size < 2:
        raise ValueError(f"fit_exponent needs two distinct p values, got ps={list(ps)}")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
