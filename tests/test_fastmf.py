"""Prime-length and padded transforms and the line-restricted matched filter."""

import ast
import dataclasses
import gc
import hashlib
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from helpers import (cross_correlate, dft_oracle, mf_oracle, padded_stage_oracle,
                     unit_monte_carlo_template)

from tfshift import (
    Line,
    PlanePoint,
    Signal,
    as_prime,
    counters,
    detect,
    dft,
    fastmf,
    flag_family,
    heisenberg_op,
    line_point,
    line_points,
    mf_entry,
    mf_on_line,
    monte_carlo,
    random_signal,
)
from tfshift.gfp import _chirp, inv


@pytest.mark.parametrize("p", [3, 5, 7, 31, 101, 257])
def test_dft_matches_direct_sum(p):
    rng = np.random.default_rng(p)
    x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    scale = max(1.0, np.abs(dft_oracle(x)).max())
    assert np.abs(dft(x, "forward") - dft_oracle(x, "forward")).max() / scale < 1e-9
    assert np.abs(dft(x, "inverse") - dft_oracle(x, "inverse")).max() < 1e-9


@pytest.mark.parametrize("p", [10007, 100003])
def test_dft_matches_direct_sum_large_p(p):
    # the direct sum at 16 sampled output indices costs O(16 p), not O(p^2)
    rng = np.random.default_rng(p)
    x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    ks = rng.choice(p, size=16, replace=False)
    t = np.arange(p, dtype=np.int64)
    kernel = np.exp(2j * np.pi * (np.outer(ks, t) % p) / p)
    for direction, want in (("forward", kernel @ x),
                            ("inverse", (np.conj(kernel) @ x) / p)):
        got = dft(x, direction)[ks]
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() / scale < 1e-9, direction


def test_dft_length_two_and_rejects_bad_input():
    x = np.array([1.5 - 0.5j, -2.0 + 3.0j])
    for direction in ("forward", "inverse"):
        assert np.abs(dft(x, direction) - dft_oracle(x, direction)).max() < 1e-12
    for n in (1, 4, 9, 15):
        with pytest.raises(ValueError):
            dft(np.ones(n, dtype=np.complex128))
    with pytest.raises(ValueError):
        dft(np.ones((5, 5), dtype=np.complex128))


@pytest.mark.parametrize("p", [5, 31, 997])
def test_dft_roundtrip_and_linearity(p):
    rng = np.random.default_rng(p + 1)
    x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    y = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    assert np.abs(dft(dft(x, "forward"), "inverse") - x).max() < 1e-9
    assert np.abs(dft(dft(x, "inverse"), "forward") - x).max() < 1e-9
    lhs = dft(2.0 * x + 3j * y)
    assert np.abs(lhs - (2.0 * dft(x) + 3j * dft(y))).max() < 1e-9


def test_dft_known_pairs():
    p = 31
    e0 = np.zeros(p, dtype=np.complex128)
    e0[0] = 1.0
    assert np.abs(dft(e0) - np.ones(p)).max() < 1e-12
    ones = np.ones(p, dtype=np.complex128)
    want = np.zeros(p, dtype=np.complex128)
    want[0] = p
    assert np.abs(dft(ones) - want).max() < 1e-9


def test_dft_parseval():
    p = 101
    rng = np.random.default_rng(2)
    x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    f = dft(x, "forward")
    assert np.sum(np.abs(f) ** 2) == pytest.approx(p * np.sum(np.abs(x) ** 2))


def test_counters_track_work():
    p = 101
    x = np.ones(p, dtype=np.complex128)
    dft(x)  # warm any cached plan before measuring
    counters.reset()
    assert counters.snapshot() == (0, 0, 0)
    dft(x)
    calls, ops, line_calls = counters.snapshot()
    assert calls == 1 and line_calls == 0
    assert ops > 0
    # ops must stay near N log2 N for the padded length N < 4p
    n = 1
    while n < 2 * p - 3:
        n *= 2
    assert ops <= 6 * n * np.log2(n)
    dft(x)
    assert counters.snapshot()[0] == 2


@pytest.mark.parametrize("p, rows", [(5, 3), (31, 7), (503, 64), (101, 1)])
def test_dft_rows_match_vector_dft(p, rows):
    rng = np.random.default_rng(p + rows)
    X = rng.standard_normal((rows, p)) + 1j * rng.standard_normal((rows, p))
    for direction in ("forward", "inverse"):
        F = dft(X, direction)
        assert F.shape == (rows, p)
        for i in range(rows):
            assert np.array_equal(F[i], dft(X[i], direction)), (direction, i)


def test_dft_stack_counts_one_call_and_ops_per_row():
    p, rows = 101, 9
    X = np.ones((rows, p), dtype=np.complex128)
    dft(X)  # warm any cached plan before measuring
    counters.reset()
    dft(X, "inverse")
    assert counters.snapshot() == (1, rows * fastmf._modelled_ops(p), 0)
    counters.reset()
    dft(X[0])
    assert counters.snapshot() == (1, fastmf._modelled_ops(p), 0)


def test_dft_stack_rejects_bad_shapes():
    for shape in ((3, 4), (5, 9), (2, 1)):
        with pytest.raises(ValueError):
            dft(np.ones(shape, dtype=np.complex128))
    with pytest.raises(ValueError, match="rows != p"):
        dft(np.ones((7, 7), dtype=np.complex128))  # a p x p matrix, not a stack
    # a stack of any rank transforms its last axis: a (2, 3, p) stack gives
    # the bits of its (6, p) reshape
    p = 101
    rng = np.random.default_rng(p)
    X = rng.standard_normal((2, 3, p)) + 1j * rng.standard_normal((2, 3, p))
    for direction in ("forward", "inverse", "adjoint"):
        assert np.array_equal(dft(X, direction).reshape(6, p),
                              dft(X.reshape(6, p), direction)), direction


def test_modelled_ops_price_every_prime():
    # p = 3 was priced at 0 ops, so `tfshift bench --p 3,5,7` fitted log(0)
    for p in (2, 3, 5, 7):
        assert fastmf._modelled_ops(p) > 0, p
    # the Rader padding: two radix-2 passes at N >= 2(p-1), plus N products
    assert fastmf._modelled_ops(3) == 2 * 4 + 4
    assert fastmf._modelled_ops(101) == 256 * 8 + 256


def test_smooth_length_is_cheapest_5_smooth_up_to_power_of_two():
    # the rule: of the 5-smooth n in [m, next power of two], least
    # n (1 + 0.03 (number of odd prime factors)), the smaller n on a tie
    def odd_factors(k):
        count = 0
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
                count += f > 2
        return count if k == 1 else None
    for m in range(1, 2000):
        top = 1 << (m - 1).bit_length()
        costs = {k: k * (100 + 3 * c) for k in range(m, top + 1)
                 if (c := odd_factors(k)) is not None}
        n = fastmf._smooth_length(m)
        assert m <= n <= top and n in costs, m
        assert (costs[n], n) == min((c, k) for k, c in costs.items()), m
    assert fastmf._smooth_length(2 * 31 - 1) == 64
    assert fastmf._smooth_length(2 * 503 - 1) == 1024
    assert fastmf._smooth_length(2 * 10007 - 1) == 20480  # not the least, 20250


@pytest.mark.parametrize("n", [64, 216, 640, 1024, 2048, 4096, 20250, 20480, 204800])
@pytest.mark.parametrize("shape", ["vector", "stack", "padded stack"])
def test_adjoint_is_the_conjugated_forward_transform_bit_for_bit(n, shape):
    # line scans run the adjoint on conj(b) in place of conj(forward(b)), so
    # the two must agree to the last bit, zero padding included
    rng = np.random.default_rng(n)
    rows, width = {"vector": (None, n), "stack": (3, n), "padded stack": (3, n // 2 + 1)}[shape]
    size = (width,) if rows is None else (rows, width)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    want = np.conj(dft(np.conj(x), "forward", n=n))
    counters.reset()
    got = dft(x, "adjoint", n=n)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert counters.snapshot() == (1, (rows or 1) * fastmf._radix2_ops(n), 0)


@pytest.mark.parametrize("n, rows", [(9, 1), (64, 64), (20, 3), (7, 7)])
def test_dft_padded_length(n, rows):
    # any length and any row count, square stacks too; rows are zero-padded
    rng = np.random.default_rng(n + rows)
    X = rng.standard_normal((rows, 5)) + 1j * rng.standard_normal((rows, 5))
    padded = np.concatenate([X, np.zeros((rows, n - 5))], axis=1)
    for direction in ("forward", "inverse"):
        counters.reset()
        F = dft(X, direction, n=n)
        assert counters.snapshot() == (1, rows * fastmf._radix2_ops(n), 0)
        assert F.shape == (rows, n)
        for i in range(rows):
            assert np.abs(F[i] - dft_oracle(padded[i], direction)).max() < 1e-12
    counters.reset()
    assert dft(X[0], n=n).shape == (n,)
    assert counters.snapshot() == (1, fastmf._radix2_ops(n), 0)
    with pytest.raises(ValueError, match="below the row length"):
        dft(X, n=4)


def test_radix2_ops_model():
    # butterflies of one radix-2 pass at the power of two N >= n
    assert [fastmf._radix2_ops(n) for n in (1, 2, 5, 8, 9, 1024, 1025)] == \
        [0, 1, 12, 12, 32, 5120, 11264]


def test_ops_growth_near_linear():
    # counter-based curve over a wide prime spread; pure p^2 growth would
    # push the fitted slope above 1.8
    ops = []
    ps = [101, 1009, 10007]
    for p in ps:
        x = random_signal(p, seed=1).samples
        dft(x)
        counters.reset()
        dft(x)
        ops.append(counters.snapshot()[1])
    slope = np.polyfit(np.log(ps), np.log(ops), 1)[0]
    assert slope < 1.5, (ps, ops, slope)


def test_cross_correlate_matches_direct():
    p = 31
    A = random_signal(p, seed=3)
    B = random_signal(p, seed=4)
    want = np.array([sum(A.samples[(t + tau) % p] * np.conj(B.samples[t])
                         for t in range(p)) for tau in range(p)])
    assert np.abs(cross_correlate(A, B) - want).max() < 1e-10
    with pytest.raises(ValueError):
        cross_correlate(A, random_signal(11, seed=0))


def line_cases(p):
    pp = as_prime(p)
    q = pp.p
    return [
        Line(0, pp),
        Line(1, pp),
        Line(q - 2, pp),
        Line(None, pp),
        Line(3 % q, pp, offset=PlanePoint(2, 5, pp)),
        Line(None, pp, offset=PlanePoint(4, 1, pp)),
    ]


def test_line_point_matches_line_points():
    # line_points is built on line_point, so the parametrisation is also pinned
    # independently: point t is the canonical offset plus t times direction()
    rng = np.random.default_rng(10007)
    for p, ts in ((7, range(7)), (10007, rng.integers(10007, size=64))):
        for L in line_cases(p):
            pts = line_points(L)
            off, d = L.offset, L.direction()
            for t in map(int, ts):
                want = PlanePoint(off.tau + t * d.tau, off.omega + t * d.omega, L.p)
                assert line_point(L, t) == pts[t] == want, (L, t)


@pytest.mark.parametrize("p", [5, 31, 101])
def test_mf_on_line_matches_entry_oracle(p):
    rng = np.random.default_rng(p)
    for case in range(6):
        S = random_signal(p, seed=int(rng.integers(1 << 30)))
        R = random_signal(p, seed=int(rng.integers(1 << 30)))
        for L in line_cases(p):
            prof = mf_on_line(S, R, L)
            pts = line_points(L)
            assert prof.line == L and prof.values.shape == (p,)
            for k in (0, 1, p // 2, p - 1):
                v = pts[k]
                want = mf_oracle(S, R, v.tau, v.omega)
                assert abs(prof.values[k] - want) < 1e-8, (L, k)


def test_mf_on_line_full_profile_small_p():
    # every cell of every line kind at p = 5, not just sampled cells
    p = 5
    S = random_signal(p, seed=7)
    R = random_signal(p, seed=8)
    for L in line_cases(p):
        prof = mf_on_line(S, R, L)
        for k, v in enumerate(line_points(L)):
            assert abs(prof.values[k] - mf_oracle(S, R, v.tau, v.omega)) < 1e-10


def test_line_profile_argmax_and_counter():
    p = 31
    S = random_signal(p, seed=1)
    v = PlanePoint(4, 3 * 4 % p, as_prime(p))  # on the slope-3 origin line
    R = heisenberg_op(S, v)
    L = Line(3, as_prime(p))
    counters.reset()
    prof = mf_on_line(S, R, L)
    assert counters.snapshot()[2] == 1
    k = prof.argmax()
    assert line_points(L)[k] == v
    assert abs(prof.values[k]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p, rows", [(31, 5), (31, 31), (101, 1)])
def test_one_job_stage_rows_match_mf_on_line(p, rows):
    # one stacked scan per line kind, each row on its own line of the slope;
    # rows == p is a square receiver stack
    pp = as_prime(p)
    rng = np.random.default_rng(p * rows)
    S = random_signal(p, seed=51)
    R = np.stack([random_signal(p, seed=60 + i).samples for i in range(rows)])
    offsets = rng.integers(p, size=rows)
    for slope in (0, 4, None):
        got = fastmf.mf_on_stage(R, [(S, slope, offsets)])[0]
        assert got.shape == (rows, p)
        for i in range(rows):
            off = PlanePoint(int(offsets[i]), 0, pp) if slope is None \
                else PlanePoint(0, int(offsets[i]), pp)
            L = Line(slope, pp, offset=off)
            assert fastmf.line_offset(L) == offsets[i]
            want = mf_on_line(S, Signal(pp, R[i]), L).values
            assert np.array_equal(got[i], want), (slope, i)


def test_one_job_stage_counts_transforms_not_lines():
    p, rows = 101, 16
    S = random_signal(p, seed=71)
    R = np.stack([random_signal(p, seed=80 + i).samples for i in range(rows)])
    offsets = np.arange(rows)
    counters.reset()
    fastmf.mf_on_stage(R, [(S, 5, offsets)])
    assert counters.snapshot()[0::2] == (3, 0)  # cold plan, no mf_on_line call
    counters.reset()
    fastmf.mf_on_stage(R, [(S, 5, offsets)])
    assert counters.snapshot()[0::2] == (2, 0)
    fastmf._vertical_plan.cache_clear()  # one plan per p, shared by every sender
    counters.reset()
    fastmf.mf_on_stage(R, [(S, None, offsets)])  # cold: builds the vertical plan
    n = fastmf._smooth_length(2 * p - 1)
    assert counters.snapshot() == (3, (2 * rows + 1) * fastmf._radix2_ops(n), 0)


# ------------------------------------------------ padded correlation edge cases

def assert_rows_match_entries(S, R, slope, offsets, got, tol=1e-10):
    pp = S.p
    for i, c in enumerate(offsets):
        off = PlanePoint(int(c), 0, pp) if slope is None else PlanePoint(0, int(c), pp)
        L = Line(slope, pp, offset=off)
        want = np.array([mf_entry(S, Signal(pp, R[i]), v) for v in line_points(L)])
        assert np.abs(got[i] - want).max() < tol, (slope, i, c)


@pytest.mark.parametrize("p", [3, 5, 17, 257])
def test_padded_scan_matches_entry_oracle(p):
    # for p >= 5 these are the primes with 2p-2 a power of two, so the
    # periodic extension of length 2p-1 just overruns that power of two
    S = random_signal(p, seed=p)
    R = np.stack([random_signal(p, seed=p + 1 + i).samples for i in range(3)])
    offsets = np.array([0, 1, p - 1])
    for m in (0, 1, p - 1, None):
        (got,) = fastmf.mf_on_stage(R, [(S, m, offsets)])
        assert_rows_match_entries(S, R, m, offsets, got)


@pytest.mark.parametrize("p, rows", [(31, 31), (31, 64), (17, 17), (17, 36)])
def test_padded_scan_stack_of_p_or_n_rows(p, rows):
    # 64 and 36 are the padded lengths n at p = 31 and 17: a (n, n) stack of
    # spectra must not hit the square-array refusal of the prime-length dft
    assert rows in (p, fastmf._smooth_length(2 * p - 1))
    rng = np.random.default_rng(p * rows)
    S = random_signal(p, seed=5)
    R = rng.standard_normal((rows, p)) + 1j * rng.standard_normal((rows, p))
    offsets = rng.integers(p, size=rows)
    for slope in (0, 3, None):
        got = fastmf.mf_on_stage(R, [(S, slope, offsets)])[0]
        assert got.shape == (rows, p)
        picked = [0, 1, rows // 2, rows - 1]
        assert_rows_match_entries(S, R[picked], slope, offsets[picked], got[picked])


def test_sloped_scan_runs_only_padded_transforms(monkeypatch):
    # no line kind makes a prime-length transform: a cold scan runs the plan's
    # transform and the stage's pair, all of length n. fastmf.dft is looked up
    # by its module-global name
    p = 101
    S = random_signal(p, seed=91)
    R = np.stack([random_signal(p, seed=92 + i).samples for i in range(4)])
    lengths = []
    real = fastmf.dft

    def spy(x, direction="forward", *, n=None, out=None):
        lengths.append(n)
        return real(x, direction, n=n, out=out)

    monkeypatch.setattr(fastmf, "dft", spy)
    fastmf.mf_on_stage(R, [(S, 7, np.arange(4))])
    assert lengths == [fastmf._smooth_length(2 * p - 1)] * 3
    lengths.clear()
    fastmf.mf_on_stage(R, [(S, None, np.arange(4))])
    assert lengths == [fastmf._smooth_length(2 * p - 1)] * 3


# ------------------------------------------------ stacked stages of many jobs

def stage_jobs(p, T, slopes, seed):
    rng = np.random.default_rng(seed)
    return [(random_signal(p, seed=seed + k), m, rng.integers(p, size=T))
            for k, m in enumerate(slopes)]


@pytest.mark.parametrize("p, T", [(11, 1), (11, 11), (31, 5), (101, 3), (503, 2)])
def test_stage_equals_jobs_one_at_a_time(p, T):
    # sloped and vertical jobs in one stage, slope 0 included; T = p = 11 puts
    # a square stack of 11 vertical rows next to the sloped ones
    rng = np.random.default_rng(p + T)
    R = rng.standard_normal((T, p)) + 1j * rng.standard_normal((T, p))
    jobs = stage_jobs(p, T, [3, None, 0, p - 1, 3, None], seed=p)
    got = fastmf.mf_on_stage(R, jobs)
    assert len(got) == len(jobs)
    for (S, m, offsets), values in zip(jobs, got):
        assert values.shape == (T, p)
        assert np.array_equal(values, fastmf.mf_on_stage(R, [(S, m, offsets)])[0]), m
        assert_rows_match_entries(S, R[:1], m, offsets[:1], values[:1], tol=1e-9)


@pytest.mark.parametrize("r, T", [(1, 1), (3, 1), (5, 7), (4, 64)])
def test_stage_runs_two_transforms_for_any_jobs_and_rows(r, T):
    p = 101
    n = fastmf._smooth_length(2 * p - 1)
    R = np.stack([random_signal(p, seed=300 + i).samples for i in range(T)])
    jobs = stage_jobs(p, T, [(5 + 7 * k) % p for k in range(r)], seed=400)
    fastmf.mf_on_stage(R, jobs)  # warm every sender's plan
    counters.reset()
    fastmf.mf_on_stage(R, jobs)
    assert counters.snapshot() == (2, 2 * r * T * fastmf._radix2_ops(n), 0)
    mixed = jobs + stage_jobs(p, T, [None, None], seed=500)
    fastmf.mf_on_stage(R, mixed)  # warm the vertical senders' plans
    counters.reset()
    fastmf.mf_on_stage(R, mixed)
    assert counters.snapshot() == (2, 2 * (r + 2) * T * fastmf._radix2_ops(n), 0)
    counters.reset()
    assert fastmf.mf_on_stage(R, []) == []
    assert counters.snapshot() == (0, 0, 0)


@pytest.mark.parametrize("p", [101, 10007])
@pytest.mark.parametrize("r, T", [(1, 1), (1, 3), (3, 1), (1, 12), (2, 6), (3, 4)])
def test_stage_calls_are_fixed_for_any_jobs_and_rows(p, r, T):
    # one pass (p = 101) or split passes (p = 10007): a warm stage of r * T
    # work rows makes 2 or 4 dft calls, a cold one 1 more per plan, with the
    # ops of every work row transformed
    n = fastmf._smooth_length(2 * p - 1)
    if n > fastmf.SPLIT_ABOVE:
        n2, n1, _ = fastmf._split(n)
        calls, per_row = 4, n1 * fastmf._radix2_ops(n2) + n2 * fastmf._radix2_ops(n1)
    else:
        calls, per_row = 2, fastmf._radix2_ops(n)
    rng = np.random.default_rng(p + T)
    R = rng.standard_normal((T, p)) + 1j * rng.standard_normal((T, p))
    jobs = stage_jobs(p, T, [None, 0, 5][:r], seed=700)
    fastmf._vertical_plan.cache_clear()
    counters.reset()
    fastmf.mf_on_stage(R, jobs)
    assert counters.snapshot() == (calls + r, 2 * r * T * per_row + r * fastmf._radix2_ops(n), 0)
    counters.reset()
    fastmf.mf_on_stage(R, jobs)
    assert counters.snapshot() == (calls, 2 * r * T * per_row, 0)


def test_stage_golden_digest_on_every_slope():
    # every slope and the vertical line at p=101 (n=216) in one stage, pinned
    # to the last bit (sha256 of the result bytes, numpy 2.4 pocketfft on
    # x86-64): a kernel change that moves one bit of a line scan shows here
    p, T = 101, 3
    rng = np.random.default_rng(101)
    R = rng.standard_normal((T, p)) + 1j * rng.standard_normal((T, p))
    jobs = [(random_signal(p, seed=7), m, rng.integers(p, size=T)) for m in [*range(p), None]]
    digest = hashlib.sha256(b"".join(v.tobytes() for v in fastmf.mf_on_stage(R, jobs)))
    assert digest.hexdigest() == "dade0fb5e7465908a35460643dcb384038d6f6304bfaf460a7ce227d351ff030"


def split_stage(p, T=3):
    # slopes 0, 1, 7 and p-1 and the vertical line, one sender, random offsets
    rng = np.random.default_rng(p)
    R = rng.standard_normal((T, p)) + 1j * rng.standard_normal((T, p))
    return R, [(random_signal(p, seed=7), m, rng.integers(p, size=T))
               for m in [0, 1, 7, p - 1, None]]


def test_split_stage_matches_one_pass_oracle():
    # at p = 10007 (n = 20480 > SPLIT_ABOVE) each stage transform runs as two
    # passes; the oracle runs the same correlation with one FFT of length n.
    # The passes round differently, so a tolerance from float64, and the
    # result pinned to the last bit as the p = 101 golden test pins it
    p = 10007
    n = fastmf._smooth_length(2 * p - 1)
    assert n > fastmf.SPLIT_ABOVE
    R, jobs = split_stage(p)
    got = fastmf.mf_on_stage(R, jobs)
    for (_, m, _), values, want in zip(jobs, got, padded_stage_oracle(R, jobs, n)):
        assert np.abs(values - want).max() <= 2e-15 * np.abs(want).max(), m
    digest = hashlib.sha256(b"".join(v.tobytes() for v in got))
    assert digest.hexdigest() == "37d1e07bc62cde299fdaa68714cd58da3ce770f7c71cea271e90d675cb63f3ab"


def test_split_plans_tables_and_buffer():
    # a plan stores its padded spectrum in the split passes' (k2, k1) order,
    # bit for bit the natural-order spectrum reordered; plans and the twiddle
    # table are read-only, and a one-receiver stage of 3 senders at p = 10007
    # runs in the kept buffer
    p = 10007
    n = fastmf._smooth_length(2 * p - 1)
    n2, n1, w = fastmf._split(n)
    assert (n2, n1) == (128, 160)
    R, jobs = split_stage(p, T=1)
    fastmf.mf_on_stage(R, jobs)
    P = as_prime(p)
    for S, m, _ in jobs:
        cq, fa = fastmf._sender_plan(S, m)
        q = _chirp(p, inv(2, P) * (1 if m is None else m))
        a = q if m is None else q * S.samples
        natural = dft(np.concatenate([a, a[:p - 1]]), "forward", n=n)
        assert np.array_equal(fa, natural.reshape(n1, n2).T.ravel()), m
        assert not cq.flags.writeable and not fa.flags.writeable
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 0
    k2, t1 = np.meshgrid(np.arange(n2), np.arange(n1), indexing="ij")
    assert np.abs(w - np.exp(-2j * np.pi * k2 * t1 / n)).max() < 1e-12
    views = fastmf._scan(R, jobs[:3])
    assert fastmf._local.buf.size <= fastmf.BUFFER_CAP
    assert all(np.shares_memory(v, fastmf._local.buf) for v, _, _ in views)


def test_split_stage_counts_each_pass():
    # a warm split stage: per transform, one length-n2 call (n1 transforms a
    # work row) and one length-n1 call (n2 a work row), for any number of rows
    p, T = 10007, 2
    n2, n1, _ = fastmf._split(fastmf._smooth_length(2 * p - 1))
    R, jobs = split_stage(p, T)
    fastmf.mf_on_stage(R, jobs)
    counters.reset()
    fastmf.mf_on_stage(R, jobs)
    rows = len(jobs) * T
    ops = rows * (n1 * fastmf._radix2_ops(n2) + n2 * fastmf._radix2_ops(n1))
    assert counters.snapshot() == (4, 2 * ops, 0)


def test_stage_returns_fresh_arrays():
    # results must outlive the per-thread buffer that the next stage rewrites
    p = 31
    R = random_signal(p, seed=1).samples[None, :]
    jobs = stage_jobs(p, 1, [1, 2, None], seed=600)
    first = fastmf.mf_on_stage(R, jobs)
    kept = [v.copy() for v in first]
    fastmf.mf_on_stage(random_signal(p, seed=2).samples[None, :], jobs)
    buf = fastmf._local.buf
    for v, w in zip(first, kept):
        assert np.array_equal(v, w)
        assert not np.shares_memory(v, buf)


def test_stage_refuses_before_any_transform_or_buffer_write():
    # a sender of another modulus, or offsets that are not one per receiver
    # row: one offset for 3 rows would leave rows 1-2 unwritten
    p = 31
    R = np.stack([random_signal(p, seed=3 + i).samples for i in range(3)])
    fastmf.mf_on_stage(R, stage_jobs(p, 3, [1], seed=700))  # this thread now has a buffer
    before = fastmf._local.buf.copy()
    S = random_signal(p, seed=1)
    for bad, match in (((random_signal(37, seed=0), 2, np.zeros(3)), "mismatched moduli"),
                       ((S, 5, np.array([7])), "one offset per receiver row"),
                       ((S, None, np.array([7])), "one offset per receiver row"),
                       ((S, 5, np.arange(5)), "one offset per receiver row")):
        jobs = stage_jobs(p, 3, [1, None], seed=710) + [bad]
        counters.reset()
        with pytest.raises(ValueError, match=match):
            fastmf.mf_on_stage(R, jobs)
        assert counters.snapshot() == (0, 0, 0)
        assert np.array_equal(fastmf._local.buf, before)
    # one receiver as a bare vector is not a stack of p rows of length 1
    for flat in (R[0], R[None]):
        counters.reset()
        with pytest.raises(ValueError, match=r"expected a \(T, p\) stack"):
            fastmf.mf_on_stage(flat, [(S, 5, np.zeros(p, dtype=np.int64))])
        assert counters.snapshot() == (0, 0, 0)
        assert np.array_equal(fastmf._local.buf, before)


def test_warm_detection_reads_the_stage_buffer_in_place():
    # a warm two-stage scan of 3 flags over 21 rows at p=503 (one Monte Carlo
    # chunk) peaks below the 3 fresh (21, 503) complex results a stage would
    # hold if it copied them out: about 0.39 MB in place against 0.78 MB. The
    # flag on line 0 alone makes stage 2 modulate slope-0 rows into the
    # strided work array, where one take of the stack would copy them
    p, T = 503, 21
    flags = flag_family(p, 3, 4)
    assert flags[0].line.slope == 0
    rng = np.random.default_rng(8)
    R = rng.standard_normal((T, p)) + 1j * rng.standard_normal((T, p))
    for family in (flags, flags[:1]):
        want = detect._detect(R, family, 0.5, 1.5)  # warm: plans and buffer
        tracemalloc.start()
        try:
            got = detect._detect(R, family, 0.5, 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * T * p * 16, (len(family), peak)
        for a, b in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_stage_buffer_kept_only_up_to_cap():
    # a 64-row sloped scan at p = 10007 needs 64 x 20250 samples, far above
    # the cap: its work array lives for that call only
    p, T = 10007, 64
    n = fastmf._smooth_length(2 * p - 1)
    assert T * n > fastmf.BUFFER_CAP
    S = random_signal(p, seed=5)
    rng = np.random.default_rng(5)
    R = rng.standard_normal((T, p)) + 1j * rng.standard_normal((T, p))
    offsets = rng.integers(p, size=T)
    fastmf.mf_on_stage(R[:1], [(S, 3, offsets[:1])])  # build the plan outside the trace
    tracemalloc.start()
    try:
        got = fastmf.mf_on_stage(R, [(S, 3, offsets)])[0]
        nbytes = got.nbytes
        del got
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak >= T * n * 16  # the stack did run in a full-size array
    assert retained < fastmf.BUFFER_CAP * 16 < nbytes
    assert fastmf._local.buf.size <= fastmf.BUFFER_CAP


def test_stage_buffers_are_per_thread():
    # threads scan at p = 101 and p = 503 at once, more threads than cores;
    # each keeps its own buffer, so each matches the direct sum
    cases = {}
    for p in (101, 503):
        rng = np.random.default_rng(p)
        R = rng.standard_normal((3, p)) + 1j * rng.standard_normal((3, p))
        jobs = stage_jobs(p, 3, [1, 2, 0, None], seed=p)
        cases[p] = (R, jobs, fastmf.mf_on_stage(R, jobs))
    ps = [101, 503] * 2
    barrier = threading.Barrier(len(ps))

    def scan(p):
        R, jobs, want = cases[p]
        barrier.wait(timeout=30)
        for _ in range(100):
            got = fastmf.mf_on_stage(R, jobs)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), p
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(ps)) as ex:
            results = list(ex.map(scan, ps, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for p, got in zip(ps, results):
        R, jobs, _ = cases[p]
        pp = as_prime(p)
        for (S, m, offsets), values in zip(jobs, got):
            c = int(offsets[0])
            L = Line(m, pp, offset=PlanePoint(c, 0, pp) if m is None else PlanePoint(0, c, pp))
            for k in (0, 1, p - 1):
                v = line_point(L, k)
                want = mf_oracle(S, Signal(pp, R[0]), v.tau, v.omega)
                assert abs(values[0, k] - want) < 1e-8, (p, m, k)


def test_every_transform_outside_weil_is_a_counted_dft():
    # perfbench checks fastmf.counters against traced fastmf.dft spans, so a
    # transform that bypasses dft would break that count. weil's transforms
    # are uncounted on purpose (see weil._rho).
    src = Path(fastmf.__file__).parent
    found, inside_dft = [], 0
    for path in sorted(src.glob("*.py")):
        if path.name == "weil.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "fastmf.py":
            dft_def = next(node for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name == "dft")
            allowed = {id(node) for node in ast.walk(dft_def)}
        aliases = {"numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "numpy":
                        aliases.add(a.asname or "numpy")
                    elif a.name.startswith("numpy.fft") and a.asname:
                        found.append(f"{path.name}:{node.lineno} import {a.name} as {a.asname}")
            elif isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.startswith("numpy.fft")
                    or node.module == "numpy" and any(a.name == "fft" for a in node.names)):
                found.append(f"{path.name}:{node.lineno} from {node.module} import ...")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                if id(node) in allowed:
                    inside_dft += 1
                else:
                    found.append(f"{path.name}:{node.lineno} {node.value.id}.fft")
    assert not found, found
    assert inside_dft == 2  # dft's own forward and inverse calls


# ------------------------------------------------ sender plans for sloped scans

def sloped(m, c, p):
    pp = as_prime(p)
    return Line(m, pp, offset=PlanePoint(0, c, pp))


def test_sender_plan_saves_one_transform():
    p = 101
    S = random_signal(p, seed=11)
    R = random_signal(p, seed=12)
    counters.reset()
    mf_on_line(S, R, sloped(3, 0, p))
    assert counters.snapshot()[0] == 3  # cold: builds the plan
    counters.reset()
    mf_on_line(S, R, sloped(3, 7, p))
    assert counters.snapshot()[0] == 2  # warm, another offset on the slope
    fastmf._vertical_plan.cache_clear()  # one plan per p, shared by every sender
    counters.reset()
    mf_on_line(S, R, Line(None, as_prime(p)))
    assert counters.snapshot()[0] == 3  # cold: a vertical scan keeps a plan too
    counters.reset()
    mf_on_line(S, R, Line(None, as_prime(p), PlanePoint(5, 0, as_prime(p))))
    assert counters.snapshot()[0] == 2
    counters.reset()
    mf_on_line(S, random_signal(p, seed=13), sloped(3, 0, p))
    assert counters.snapshot()[0] == 2  # the plan depends on S only


def test_warm_profiles_match_entries_across_eviction():
    p = 31
    S = random_signal(p, seed=21)
    R = random_signal(p, seed=22)
    slopes = [0, 1, 2, 5, 7, 11, 30]  # more than PLAN_SLOPES, so plans evict
    for _ in range(2):
        for m in slopes:
            for c in (0, 1, p - 1):
                L = sloped(m, c, p)
                prof = mf_on_line(S, R, L)
                for k, v in enumerate(line_points(L)):
                    want = mf_entry(S, R, v)
                    assert abs(prof.values[k] - want) < 1e-10, (m, c, k)


def test_vertical_plan_is_shared_per_p():
    # the vertical plan depends on p only: two senders share its arrays, a
    # vertical scan keeps nothing per sender and costs no transform for a
    # second sender, and the profiles are those of a plan built afresh
    p = 10007
    S1, S2 = random_signal(p, seed=51), random_signal(p, seed=52)
    R = np.stack([random_signal(p, seed=53).samples] * 2)
    taus = np.array([0, 4321])
    first = fastmf.mf_on_stage(R, [(S1, None, taus)])[0]
    counters.reset()
    second = fastmf.mf_on_stage(R, [(S2, None, taus)])[0]
    assert counters.snapshot()[0] == 4  # the split stage only, no plan
    plan1, plan2 = fastmf._sender_plan(S1, None), fastmf._sender_plan(S2, None)
    assert all(a is b for a, b in zip(plan1, plan2))
    assert None not in fastmf._plans.get(S1, {}) and None not in fastmf._plans.get(S2, {})
    fastmf._vertical_plan.cache_clear()
    assert np.array_equal(fastmf.mf_on_stage(R, [(S1, None, taus)])[0], first)
    assert np.array_equal(fastmf.mf_on_stage(R, [(S2, None, taus)])[0], second)
    for w in (0, 1, 5000):
        assert abs(first[1, w] - mf_oracle(S1, Signal(as_prime(p), R[1]), 4321, w)) < 1e-9


def test_plan_store_is_bounded_read_only_and_weak():
    p = 31
    S = random_signal(p, seed=31)
    R = random_signal(p, seed=32)
    for m in range(10):
        mf_on_line(S, R, sloped(m, 0, p))
    plans = fastmf._plans[S]
    assert len(plans) == fastmf.PLAN_SLOPES == 4
    assert sorted(plans) == [6, 7, 8, 9]  # least recently used go first
    for q, fa in plans.values():
        assert not q.flags.writeable and not fa.flags.writeable
        with pytest.raises(ValueError):
            fa[0] = 0
    with fastmf._plans_lock:
        fastmf._plans.clear()
    mf_on_line(S, R, sloped(2, 0, p))
    assert len(fastmf._plans) == 1
    del S, plans
    gc.collect()
    assert len(fastmf._plans) == 0


def test_plan_store_under_threads():
    # more threads than cores scan one sender, cycling through more slopes
    # than a plan store keeps, so nearly every scan builds and evicts a plan
    p = 31
    S = random_signal(p, seed=41)
    R = random_signal(p, seed=42)
    jobs = [(m, c) for c in (0, 3, p - 1) for m in range(10)] * 100
    want = {j: mf_on_line(S, R, sloped(*j, p)).values for j in set(jobs)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(lambda j: mf_on_line(S, R, sloped(*j, p)).values,
                              jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for j, values in zip(jobs, got):
        assert np.abs(values - want[j]).max() < 1e-12, j
    assert len(fastmf._plans[S]) <= fastmf.PLAN_SLOPES


def test_monte_carlo_same_with_threads(monkeypatch):
    t = unit_monte_carlo_template(101, 3, np.sqrt(1 / 101), 9)
    stats = []
    for threads in ("1", "2"):
        monkeypatch.setenv("TFSHIFT_THREADS", threads)
        stats.append(dataclasses.replace(monte_carlo(t, 30), wall_time=0.0))
    assert stats[0] == stats[1]
