#!/usr/bin/env python3
"""Restricting the matched filter to a line costs O(p log p), not O(p^2).

The entries of M[S, R] along any line, vertical or sloped, reduce to one
cyclic correlation against a chirp, zero-padded to a 5-smooth length
n >= 2p-1: a forward and an inverse FFT of length n (numpy's pocketfft). n is
the 5-smooth length up to the next power of two that a cost rule fitted to
pocketfft timings ranks fastest, not always the least one: a length with
fewer radix-3 and radix-5 passes can be faster though longer.
Operation counters charge each call per row the modelled cost of one
radix-2 pass at the power of two at or above its length, so the complexity
shows without timing noise; wall
clocks are printed as a sanity check. A sender's first scan on a slope costs
three transforms and later scans two, since the sender's half is kept. A
detection stage scans a whole family of senders as one stack, so r warm
scans cost those two transforms together, whatever their lines. Above
fastmf.SPLIT_ABOVE samples each of the two runs as two short passes,
n = n2 x n1, each one call over the whole stack, so a warm stage counts 4
calls there.
"""

import time

import numpy as np

from tfshift import (Line, PlanePoint, as_prime, counters, dft, fastmf,
                     fit_exponent, heisenberg_op, line_points, mf_full,
                     mf_on_line, random_signal)


def main() -> None:
    # 1. the DFT pair round-trips and matches the direct O(p^2) sum
    P = as_prime(101)
    x = random_signal(P, seed=3).samples
    X = dft(x, "forward")
    t = np.arange(P.p)
    direct = np.array([(x * np.exp(2j * np.pi * w * t / P.p)).sum()
                       for w in range(P.p)])
    print(f"dft vs direct sum: {np.abs(X - direct).max():.2e}")
    print(f"inverse round trip: "
          f"{np.abs(dft(X, 'inverse') - x).max():.2e}")

    # 2. line profile equals the matching row of the full filter
    S = random_signal(P, seed=1)
    R = heisenberg_op(S, PlanePoint(20, 60, P))
    L = Line(3, P, PlanePoint(20, 60, P))
    prof = mf_on_line(S, R, L)
    full = mf_full(S, R)
    worst = max(abs(prof.values[k] - full.entries[v.tau, v.omega])
                for k, v in enumerate(line_points(L)))
    print(f"\nmf_on_line vs mf_full on the same cells: {worst:.2e}")
    k = prof.argmax()
    v = line_points(L)[k]
    print(f"profile peak at index {k} -> shift ({v.tau}, {v.omega}), "
          f"|M| = {abs(prof.values[k]):.6f}")

    # 3. counters: ops grow like p log p along a line, p^2 log p for the grid.
    # The first scan of a sender on a slope runs 3 transforms and keeps the
    # sender's half; every later scan on that slope runs 2. mf_full scans the
    # grid's p rows as vertical lines in stages of stacked rows, so its
    # stage transforms count about p times a later scan's ops (plus one cold
    # vertical plan), and the ratio reads about p
    print("\n      p  first scan  later scan  p-line grid ops   ratio")
    for pp in (101, 401, 1009):
        Pq = as_prime(pp)
        Sq = random_signal(Pq, seed=1)
        Rq = random_signal(Pq, seed=2)
        counters.reset()
        mf_on_line(Sq, Rq, Line(1, Pq))
        first_ops = counters.dft_ops
        counters.reset()
        mf_on_line(Sq, Rq, Line(1, Pq, PlanePoint(0, 5, Pq)))
        line_ops = counters.dft_ops
        counters.reset()
        mf_full(Sq, Rq)
        grid_ops = counters.dft_ops
        print(f"  {pp:5d}  {first_ops:10d}  {line_ops:10d}  {grid_ops:15d}  "
              f"{grid_ops / line_ops:6.1f}x")

    # 4. fitted exponent of line-restricted ops over a wide prime range
    # (first scans of fresh senders: 3 transforms, the 2 stage ones in two
    # passes each at p = 10007 and 100003)
    ps = [1009, 10007, 100003]
    ops = []
    for pp in ps:
        Pq = as_prime(pp)
        Sq = random_signal(Pq, seed=1)
        Rq = random_signal(Pq, seed=2)
        counters.reset()
        t0 = time.perf_counter()
        mf_on_line(Sq, Rq, Line(1, Pq))
        dt = time.perf_counter() - t0
        ops.append(counters.dft_ops)
        print(f"p = {pp:6d}: {counters.dft_ops:10d} ops, {dt * 1e3:7.2f} ms")
    print(f"fitted ops exponent: {fit_exponent(ps, ops):.4f} "
          f"(near 1; log factors and pow2 padding nudge it up)")

    # 5. the padded length: the cost rule's n next to the least 5-smooth
    # length, both in [2p-1, next power of two], and the passes a stage
    # transform of length n runs: one, or n2 x n1 above fastmf.SPLIT_ABOVE
    def least_smooth(m):
        k = m
        while True:
            r = k
            for f in (2, 3, 5):
                while r % f == 0:
                    r //= f
            if r == 1:
                return k
            k += 1

    print("\n       p    2p-1  least 5-smooth  chosen n  passes")
    for pp in (101, 307, 503, 1009, 2003, 4001, 10007, 100003):
        m = 2 * pp - 1
        n = fastmf._smooth_length(m)
        if n > fastmf.SPLIT_ABOVE:
            n2, n1, _ = fastmf._split(n)
            passes = f"{n2} x {n1}"
        else:
            passes = "one"
        print(f"  {pp:6d}  {m:6d}  {least_smooth(m):14d}  {n:8d}  {passes}")
        assert m <= n <= 1 << (m - 1).bit_length()

    # 6. a detection stage: r senders, each on its own line (the last one
    # vertical), scanned against one receiver as one stack. Their rows share
    # one buffer of length n, so warm scans cost 2 transform calls for any r,
    # against 2r one by one
    R = random_signal(P, seed=2).samples[None, :]
    print("\n   r  stacked calls  one-by-one calls")
    for r in (1, 3, 6):
        jobs = [(random_signal(P, seed=10 + k), k + 1 if k < r - 1 else None,
                 np.zeros(1, dtype=np.int64)) for k in range(r)]
        stacked = fastmf.mf_on_stage(R, jobs)  # builds the senders' plans
        counters.reset()
        fastmf.mf_on_stage(R, jobs)
        calls = counters.dft_calls
        counters.reset()
        single = [fastmf.mf_on_stage(R, [(S, m, c)])[0][0] for S, m, c in jobs]
        same = all(np.array_equal(a[0], b) for a, b in zip(stacked, single))
        print(f"  {r:2d}  {calls:13d}  {counters.dft_calls:16d}  "
              f"(profiles equal bit for bit: {same})")
        assert calls == 2 and same


if __name__ == "__main__":
    main()
