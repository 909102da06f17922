"""Channel synthesis, Monte Carlo harness, benchmark table."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import monte_carlo_oracle, unit_monte_carlo_template

from tfshift.signals import add, awgn_rows

from tfshift import (
    ChannelSpec,
    fastmf,
    gfp,
    sim,
    weil,
    PlanePoint,
    UserSpec,
    as_prime,
    awgn,
    bench_complexity,
    cross_family,
    fit_exponent,
    flag_family,
    heisenberg_op,
    line_vector,
    monte_carlo,
    synthesize_receiver,
    thread_cap,
)


def test_channel_spec_validation():
    p = as_prime(31)
    u = UserSpec("w0", PlanePoint(1, 2, p))
    assert u.bit == 1 and u.intensity == 1.0
    with pytest.raises(ValueError):
        ChannelSpec(p, (), 0.0, 0)
    with pytest.raises(ValueError):
        ChannelSpec(p, (u,), -0.1, 0)
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            ChannelSpec(p, (u,), sigma, 0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ChannelSpec(p, (u,), 0.0, -1)


@pytest.mark.parametrize("field, value, message", [
    ("bit", 0, "bit must be"), ("intensity", 0.0, "intensity must lie in")])
def test_user_spec_refuses_bit_0_and_intensity_0(field, value, message):
    with pytest.raises(ValueError, match=message):
        UserSpec("w0", PlanePoint(1, 2, as_prime(31)), **{field: value})


def test_receivers_into_reused_arrays_equal_fresh_ones():
    # monte_carlo fills one set of chunk arrays per call; the rows must keep
    # every bit of a fresh synthesis, dirty scratch and a shorter last chunk too
    p, T, r = 101, 7, 3
    rng = np.random.default_rng(12)
    senders = [w.signal.samples for w in flag_family(p, r, seed=2)]
    shifts = rng.integers(0, p, size=(T, r, 2))
    coef = rng.uniform(0.1, 1, size=(T, r)) * rng.choice([-1, 1], size=(T, r))
    seeds = rng.integers(0, 2**63, size=T).tolist()
    want = sim._receivers(senders, shifts, coef, awgn_rows(p, 0.3, seeds))
    out, noise, term, shifted = np.full((4, T + 2, p), np.nan + 1j)
    planes = np.full((2, T + 2, p), np.inf)
    for n in (T, 4):
        got = sim._receivers(senders, shifts[:n], coef[:n],
                             awgn_rows(p, 0.3, seeds[:n], noise[:n], planes[:, :n]),
                             (out[:n], term[:n], shifted[:n]))
        assert np.shares_memory(got, out)
        assert np.array_equal(got, want[:n])


def test_synthesize_receiver_matches_oracle():
    p = as_prime(31)
    fam = flag_family(31, 2, seed=1)
    users = (
        UserSpec("w0", PlanePoint(4, 9, p), bit=1, intensity=1.0),
        UserSpec("w1", PlanePoint(20, 3, p), bit=-1, intensity=0.5),
    )
    spec = ChannelSpec(p, users, 0.0, 7)
    waveforms = {"w0": fam[0].signal, "w1": fam[1].signal}
    R = synthesize_receiver(spec, waveforms)
    want = (heisenberg_op(fam[0].signal, users[0].shift).samples
            - 0.5 * heisenberg_op(fam[1].signal, users[1].shift).samples)
    assert np.abs(R.samples - want).max() < 1e-12

    noisy = ChannelSpec(p, users, 0.2, 7)
    R1 = synthesize_receiver(noisy, waveforms)
    R2 = synthesize_receiver(noisy, waveforms)
    assert np.array_equal(R1.samples, R2.samples)  # seeded noise
    assert np.abs(R1.samples - want - awgn(p, 0.2, 7).samples).max() < 1e-12


def test_synthesize_receiver_rejects_bad_input():
    p = as_prime(31)
    fam = flag_family(31, 1, seed=1)
    users = (UserSpec("missing", PlanePoint(0, 0, p)),)
    with pytest.raises(ValueError):
        synthesize_receiver(ChannelSpec(p, users, 0.0, 0),
                            {"w0": fam[0].signal})
    other = flag_family(11, 1, seed=1)[0].signal
    with pytest.raises(ValueError):
        synthesize_receiver(
            ChannelSpec(p, (UserSpec("w0", PlanePoint(0, 0, p)),), 0.0, 0),
            {"w0": other})


def test_family_sizes_below_zero_are_refused():
    # r = -1 would otherwise slice the cross family to fam[:-1]
    for method in ("flag", "cross"):
        for r in (-1, -2):
            with pytest.raises(ValueError, match="holds 0 to"):
                sim.build_family(101, r, method, 0)
        assert sim.build_family(101, 0, method, 0) == []
    with pytest.raises(ValueError, match="holds 0 to"):
        flag_family(101, -2, 0)


def test_small_cross_family_at_large_p_builds_only_its_crosses():
    # three crosses at p = 100003 build 3 x 3 signals of 1.6 MB and keep 3,
    # beside the 3.2 MB table of roots; the whole family of 50002 would need
    # about 240 GB
    tracemalloc.start()
    try:
        fam = sim.build_family(100003, 3, "cross", 0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fam) == 3
    assert peak < 32e6, peak
    assert kept <= 10e6, kept


def test_flag_family_at_large_p_keeps_one_array_a_flag():
    # three flags at p = 100003 keep their 3 signals of 1.6 MB and one
    # special key per torus, not their parts or any length-p spectrum; the
    # roots table, shared by every chirp at p, is built before tracing
    p = 100003
    gfp._roots(p)
    weil._special_key.cache_clear()
    tracemalloc.start()
    try:
        fam = sim.build_family(p, 3, "flag", 0)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(fam) == 3
    assert kept <= 6e6, kept


@pytest.mark.parametrize("p", [31, 101, 10007])
def test_rebuilt_parts_equal_the_built_ones(p):
    # a flag or cross keeps its sum; its parts, rebuilt from the recipe,
    # are the vectors the sum was built from, bit for bit
    flags = flag_family(p, 3, seed=5)
    built = weil._vectors([fl.torus for fl in flags], [fl.eig_index for fl in flags])
    for fl, phi in zip(flags, built):
        fL, phiT = fl.fL, fl.phiT
        assert fL.line == fl.line and fL.index == fl.b_index
        assert np.array_equal(fL.signal.samples, line_vector(fl.line, fl.b_index).signal.samples)
        assert phiT.torus == fl.torus and phiT.eigenvalue == phi.eigenvalue
        assert np.array_equal(phiT.signal.samples, phi.signal.samples)
        assert np.array_equal(fl.signal.samples, add(fL.signal, phiT.signal).samples)
    for c in cross_family(p, 5, 3):
        fL, fM = c.fL, c.fM
        assert (fL.line, fL.index, fM.line, fM.index) == (c.lineL, c.bL, c.lineM, c.bM)
        assert np.array_equal(c.signal.samples, add(fL.signal, fM.signal).samples)


def test_monte_carlo_single_user_noiseless_exact():
    stats = monte_carlo(unit_monte_carlo_template(101, 1, 0.0, 0), 50)
    assert stats.trials == 50
    assert stats.exact_shift_rate == 1.0
    assert stats.bit_error_rate == 0.0
    assert abs(stats.mean_peak_mag - 2.0) < 4 / np.sqrt(101)
    assert stats.wall_time > 0


def test_monte_carlo_single_user_noisy():
    sigma = np.sqrt(1.0 / 101)  # NSR 1
    stats = monte_carlo(unit_monte_carlo_template(101, 1, sigma, 1), 100)
    assert stats.exact_shift_rate >= 0.99


def test_monte_carlo_three_users_interference_regime():
    # r/sqrt(p) is not small at p = 101: stage-1 misses happen at a steady
    # few-percent rate even without noise; lock the measured band so both a
    # detection regression and an unexplained jump to 1.0 get flagged
    stats = monte_carlo(unit_monte_carlo_template(101, 3, 0.0, 0), 100)
    assert 0.80 <= stats.exact_shift_rate <= 0.99, stats.exact_shift_rate


def test_monte_carlo_cross_method():
    stats = monte_carlo(unit_monte_carlo_template(101, 2, 0.0, 0), 100,
                        method="cross")
    assert stats.exact_shift_rate == 1.0
    assert stats.bit_error_rate == 0.0


def test_monte_carlo_deterministic():
    t = unit_monte_carlo_template(101, 1, 0.3, 5)
    a = monte_carlo(t, 20)
    b = monte_carlo(t, 20)
    assert a.exact_shift_rate == b.exact_shift_rate
    assert a.mean_stage1_mag == b.mean_stage1_mag
    assert a.mean_peak_mag == b.mean_peak_mag


def _same_as_oracle(template, trials, method):
    got = dataclasses.replace(monte_carlo(template, trials, method), wall_time=0.0)
    assert got == monte_carlo_oracle(template, trials, method)
    return got


@pytest.mark.parametrize("p, r, nsr, seed, method, trials", [
    (101, 3, 0.0, 0, "flag", 40),      # sigma = 0
    (101, 2, 1.0, 3, "cross", 40),
    (101, 3, 12.0, 4, "flag", 40),     # noise high enough to miss shifts
    (11, 6, 0.0, 2, "cross", 20),      # the last cross's stage-1 line is vertical
    (11, 12, 0.5, 6, "flag", 10),      # flag 11's carrier line is vertical
])
def test_monte_carlo_equals_per_trial_oracle(p, r, nsr, seed, method, trials):
    stats = _same_as_oracle(unit_monte_carlo_template(p, r, np.sqrt(nsr / p), seed),
                            trials, method)
    if nsr == 12.0:
        assert 0.0 < stats.exact_shift_rate < 1.0


def test_monte_carlo_equals_oracle_across_chunks(monkeypatch):
    # 23 trials in stacks of 5 (the last one short), and 70 > TRIAL_CHUNK as set
    monkeypatch.setattr(sim, "TRIAL_CHUNK", 5)
    _same_as_oracle(unit_monte_carlo_template(31, 2, np.sqrt(0.5 / 31), 8), 23, "flag")
    monkeypatch.undo()
    assert sim.TRIAL_CHUNK < 70
    _same_as_oracle(unit_monte_carlo_template(31, 2, np.sqrt(1 / 31), 9), 70, "cross")


@pytest.mark.parametrize("method, golden", [
    ("flag", (100, 1.0, 0.0, 1.0992810412537302, 2.0837532396672844, 1.0, 0.0)),
    ("cross", (100, 1.0, 0.0, 0.9962677535863317, 1.9865309115979963, 1.0, 0.0)),
])
def test_monte_carlo_golden_trial_stats(method, golden):
    # the mc-flag benchmark's shape (p=503, r=3, NSR 1, 100 trials), every
    # field but wall_time pinned to the last bit (numpy 2.4 on x86-64): a
    # change that moves one bit of a line scan, a waveform or the channel
    # shows here
    stats = monte_carlo(unit_monte_carlo_template(503, 3, 1 / np.sqrt(503), 11), 100, method)
    assert dataclasses.astuple(stats)[:-1] == golden


def test_monte_carlo_keeps_its_chunk_arrays_per_thread():
    # a warm call fills the arrays of the last one; above fastmf.BUFFER_CAP
    # samples a call's arrays live for that call only
    template = unit_monte_carlo_template(503, 3, 1 / np.sqrt(503), 5)
    first = monte_carlo(template, 30)
    kept = fastmf._local.chunk
    assert kept.size <= fastmf.BUFFER_CAP
    again = monte_carlo(template, 30)
    assert fastmf._local.chunk is kept
    assert dataclasses.replace(again, wall_time=0) == dataclasses.replace(first, wall_time=0)
    big = unit_monte_carlo_template(10007, 3, 1 / np.sqrt(10007), 5)
    assert 5 * 3 * 10007 > fastmf.BUFFER_CAP
    monte_carlo(big, 3, "cross")
    assert fastmf._local.chunk is kept
    results = []
    worker = threading.Thread(target=lambda: results.append(
        (monte_carlo(template, 30), getattr(fastmf._local, "chunk", None))))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    (other, buf), = results
    assert buf is not None and buf is not kept
    assert dataclasses.replace(other, wall_time=0) == dataclasses.replace(first, wall_time=0)


def test_monte_carlo_argument_errors():
    t = unit_monte_carlo_template(31, 1, 0.0, 0)
    with pytest.raises(ValueError):
        monte_carlo(t, 0)
    with pytest.raises(ValueError):
        monte_carlo(t, 5, method="nope")
    big = unit_monte_carlo_template(31, 60, 0.0, 0)
    with pytest.raises(ValueError):
        monte_carlo(big, 1, method="cross")  # only (p+1)/2 crosses exist


def test_thread_cap_env(monkeypatch):
    monkeypatch.delenv("TFSHIFT_THREADS", raising=False)
    assert thread_cap() == 1
    monkeypatch.setenv("TFSHIFT_THREADS", "4")
    assert thread_cap() == 4
    monkeypatch.setenv("TFSHIFT_THREADS", "0")
    assert thread_cap() == 1
    monkeypatch.setenv("TFSHIFT_THREADS", "junk")
    assert thread_cap() == 1


def test_bench_complexity_rows():
    rows = bench_complexity([31, 61], repeats=1)
    assert [r["p"] for r in rows] == [31, 61]
    for r in rows:
        assert set(r) == {"p", "t_line_s", "dft_ops_line", "t_full_s",
                          "full_extrapolated", "ratio"}
        assert r["dft_ops_line"] > 0
        assert not r["full_extrapolated"]
        assert r["t_full_s"] > 0 and r["ratio"] > 0
    # op counts are deterministic
    again = bench_complexity([31, 61], repeats=1)
    assert [r["dft_ops_line"] for r in rows] == [r["dft_ops_line"] for r in again]


def test_bench_complexity_extrapolates_large_p():
    (row,) = bench_complexity([2053], repeats=1, full_rows=4)
    assert row["full_extrapolated"]
    assert row["t_full_s"] > 0


def test_bench_complexity_caps_sample_rows_at_p(monkeypatch):
    # full_rows above p times the whole grid, which is measured, not estimated
    monkeypatch.setattr(sim, "FULL_MF_LIMIT", 7)
    (row,) = bench_complexity([31], repeats=1, full_rows=100)
    assert not row["full_extrapolated"]
    (row,) = bench_complexity([31], repeats=1, full_rows=5)
    assert row["full_extrapolated"]


@pytest.mark.parametrize("kwargs", [{"repeats": 0}, {"repeats": -1}, {"full_rows": 0}])
def test_bench_complexity_rejects_counts_below_one(kwargs):
    # checked before any timing: repeats=0 ran once, full_rows=0 divided by zero
    with pytest.raises(ValueError, match="must be >= 1"):
        bench_complexity([2053], **kwargs)


def test_fit_exponent_recovers_power_law():
    ps = [10.0, 100.0, 1000.0]
    ys = [7.0 * p ** 1.17 for p in ps]
    assert fit_exponent(ps, ys) == pytest.approx(1.17, abs=1e-9)
    assert fit_exponent([2, 4, 8], [6, 12, 24]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("ps, ys", [([3, 5, 7], [0, 64, 64]), ([3, 5, 7], [24, -1, 64]),
                                    ([0, 5, 7], [24, 64, 64]), ([3, 5, 7], [24, np.nan, 64])])
def test_fit_exponent_rejects_non_positive_values(ps, ys):
    # log(0) made a numpy RuntimeWarning and a nan exponent
    with pytest.raises(ValueError, match="positive"):
        fit_exponent(ps, ys)


@pytest.mark.filterwarnings("error")
def test_fit_exponent_rejects_one_distinct_p():
    # numpy warned of a rank-deficient fit and returned a slope anyway
    with pytest.raises(ValueError, match="two distinct"):
        fit_exponent([101, 101], [4096, 4096])


def test_monte_carlo_confident_rates_follow_thresholds():
    # thresholds change only the confident rates; a noiseless single sender
    # is always found, confidently
    template = unit_monte_carlo_template(as_prime(31), 2, 0.1, 0)
    base = monte_carlo(template, 40)
    for theta1, theta2 in ((0.0, 0.0), (0.9, 1.7), (9.0, 9.0)):
        got = monte_carlo(template, 40, "flag", theta1, theta2)
        assert dataclasses.replace(got, confident_rate=0.0, confident_wrong_rate=0.0,
                                   wall_time=0.0) == dataclasses.replace(
            base, confident_rate=0.0, confident_wrong_rate=0.0, wall_time=0.0)
        assert 0.0 <= got.confident_wrong_rate <= got.confident_rate <= 1.0
    assert monte_carlo(template, 40, "flag", 0.0, 0.0).confident_rate == 1.0
    assert monte_carlo(template, 40, "flag", 9.0, 9.0).confident_rate == 0.0
    clean = monte_carlo(unit_monte_carlo_template(as_prime(101), 1, 0.0, 1), 20)
    assert clean.confident_rate == 1.0 and clean.confident_wrong_rate == 0.0
