"""Prime-length transform and line-restricted matched filter."""

import dataclasses
import gc
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import cross_correlate, dft_oracle, mf_oracle, unit_monte_carlo_template

from tfshift import (
    Line,
    PlanePoint,
    Signal,
    as_prime,
    counters,
    dft,
    fastmf,
    heisenberg_op,
    line_point,
    line_points,
    mf_entry,
    mf_on_line,
    monte_carlo,
    random_signal,
)


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
    for shape in ((2, 3, 5), (1, 1, 5), (3, 4), (5, 9), (2, 1)):
        with pytest.raises(ValueError):
            dft(np.ones(shape, dtype=np.complex128))
    with pytest.raises(ValueError, match="rows != p"):
        dft(np.ones((7, 7), dtype=np.complex128))  # a p x p matrix, not a stack


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
def test_mf_on_lines_rows_match_mf_on_line(p, rows):
    # one stacked scan per line kind, each row on its own line of the slope;
    # rows == p is scanned as two stacks, since dft refuses square arrays
    pp = as_prime(p)
    rng = np.random.default_rng(p * rows)
    S = random_signal(p, seed=51)
    R = np.stack([random_signal(p, seed=60 + i).samples for i in range(rows)])
    offsets = rng.integers(p, size=rows)
    for slope in (0, 4, None):
        got = fastmf.mf_on_lines(S, R, slope, offsets)
        assert got.shape == (rows, p)
        for i in range(rows):
            off = PlanePoint(int(offsets[i]), 0, pp) if slope is None \
                else PlanePoint(0, int(offsets[i]), pp)
            L = Line(slope, pp, offset=off)
            assert fastmf.line_offset(L) == offsets[i]
            want = mf_on_line(S, Signal(pp, R[i]), L).values
            assert np.array_equal(got[i], want), (slope, i)


def test_mf_on_lines_counts_transforms_not_lines():
    p, rows = 101, 16
    S = random_signal(p, seed=71)
    R = np.stack([random_signal(p, seed=80 + i).samples for i in range(rows)])
    offsets = np.arange(rows)
    counters.reset()
    fastmf.mf_on_lines(S, R, 5, offsets)
    assert counters.snapshot()[0::2] == (3, 0)  # cold plan, no mf_on_line call
    counters.reset()
    fastmf.mf_on_lines(S, R, 5, offsets)
    assert counters.snapshot()[0::2] == (2, 0)
    counters.reset()
    fastmf.mf_on_lines(S, R, None, offsets)
    assert counters.snapshot() == (1, rows * fastmf._modelled_ops(p), 0)


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
    counters.reset()
    mf_on_line(S, R, Line(None, as_prime(p)))
    assert counters.snapshot()[0] == 1  # vertical scans keep no plan
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
