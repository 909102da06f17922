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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fastmf
from .detect import THETA1_DEFAULT, THETA2_DEFAULT, extract_bits
from .fastmf import mf_on_line
from .gfp import Line, PlanePoint, Prime, as_prime
from .heisenberg import cross_family
from .signals import Signal, awgn, heisenberg_op, mf_full, random_signal
from .weil import flag_family


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
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class TrialStats:
    trials: int
    exact_shift_rate: float
    bit_error_rate: float
    mean_stage1_mag: float
    mean_peak_mag: float
    wall_time: float


def synthesize_receiver(spec: ChannelSpec, waveforms: dict) -> Signal:
    """R = sum_j intensity_j * bit_j * pi(shift_j) S_j + awgn(p, sigma, seed)."""
    p = spec.p
    acc = np.zeros(p.p, dtype=np.complex128)
    for u in spec.users:
        if u.waveform_id not in waveforms:
            raise ValueError(f"unknown waveform id {u.waveform_id!r}")
        S = waveforms[u.waveform_id]
        if S.p != p:
            raise ValueError("waveform modulus does not match channel")
        acc = acc + u.intensity * u.bit * heisenberg_op(S, u.shift).samples
    acc = acc + awgn(p, spec.sigma, spec.seed).samples
    return Signal(p, acc)


def thread_cap() -> int:
    """Parallelism cap from TFSHIFT_THREADS (default 1)."""
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
        if r > len(fam):
            raise ValueError(f"cross family holds only {len(fam)} waveforms")
        return fam[:r]
    raise ValueError(f"unknown method {method!r}")


def monte_carlo(template: ChannelSpec, trials: int, method: str = "flag",
                theta1: float = THETA1_DEFAULT,
                theta2: float = THETA2_DEFAULT) -> TrialStats:
    """Randomized detection trials.

    Per trial, shifts are drawn uniformly over the plane and bits uniformly
    over +-1 (intensities come from the template); the receiver is synthesized
    and every waveform detected. Rates are per sender-detection. The per-trial
    random streams are spawned from one seed sequence, so results do not
    depend on the execution schedule; trials may run in parallel up to
    TFSHIFT_THREADS.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = template.p
    r = len(template.users)
    family = build_family(p, r, method, template.seed)
    signals = {f"w{k}": w.signal for k, w in enumerate(family)}
    children = np.random.SeedSequence(template.seed).spawn(trials)
    t0 = time.perf_counter()

    def run_trial(child) -> tuple[int, int, float, float]:
        rng = np.random.default_rng(child)
        draws = rng.integers(0, p.p, size=(r, 2))
        bits = rng.choice(np.array([-1, 1]), size=r)
        users = tuple(
            UserSpec(f"w{k}", PlanePoint(int(draws[k, 0]), int(draws[k, 1]), p),
                     int(bits[k]), template.users[k].intensity)
            for k in range(r)
        )
        noise_seed = int(rng.integers(0, 2**63))
        spec = ChannelSpec(p, users, template.sigma, noise_seed)
        R = synthesize_receiver(spec, signals)
        decisions = extract_bits(R, family, theta1, theta2)
        hits = 0
        errs = 0
        s1 = 0.0
        pk = 0.0
        for u, d in zip(users, decisions):
            if d.detection.shift == u.shift:
                hits += 1
            if d.bit != u.bit:
                errs += 1
            s1 += d.detection.stage1_magnitude
            pk += d.detection.magnitude
        return hits, errs, s1, pk

    workers = thread_cap()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run_trial, children))
    else:
        results = [run_trial(c) for c in children]

    hits = sum(x[0] for x in results)
    errs = sum(x[1] for x in results)
    s1 = sum(x[2] for x in results)
    pk = sum(x[3] for x in results)
    n = trials * r
    return TrialStats(trials, hits / n, errs / n, s1 / n, pk / n,
                      time.perf_counter() - t0)


# ----------------------------------------------------------------- benchmark

FULL_MF_LIMIT = 2048  # above this, mf_full timing is extrapolated from sample rows


def bench_complexity(p_list, repeats: int = 3, full_rows: int = 32) -> list[dict]:
    """Timing and operation-count table for mf_on_line vs mf_full.

    Per p: median wall time of one sloped mf_on_line call over `repeats` runs,
    the dft op count of one call, and the mf_full wall time. The line figures
    are the steady-state scan, with the sender's plan already built: 2
    transforms, where the first scan of a sender on a slope costs 3. Beyond
    FULL_MF_LIMIT the full-matrix time is estimated from `full_rows` rows and
    flagged extrapolated; the row loop is exact per row, so the estimate is a
    straight per-row scale-up. ValueError if repeats or full_rows is below 1.
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
        if pp.p <= FULL_MF_LIMIT:
            t0 = time.perf_counter()
            mf_full(S, R)
            t_full = time.perf_counter() - t0
            extrapolated = False
        else:
            Rc = np.conj(R.samples)
            t0 = time.perf_counter()
            for tau in range(full_rows):
                fastmf.dft(np.roll(S.samples, -tau) * Rc, "forward")
            t_full = (time.perf_counter() - t0) * (pp.p / full_rows)
            extrapolated = True
        rows.append({
            "p": pp.p,
            "t_line_s": t_line,
            "dft_ops_line": ops_line,
            "t_full_s": t_full,
            "full_extrapolated": extrapolated,
            "ratio": t_full / t_line if t_line > 0 else float("inf"),
        })
    return rows


def fit_exponent(ps, ys) -> float:
    """Least-squares slope of log(y) against log(p)."""
    x = np.log(np.asarray(ps, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
