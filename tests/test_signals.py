"""Signal container, Heisenberg operators, matched-filter oracle paths."""

import tracemalloc

import numpy as np
import pytest

from helpers import mf_full_oracle, mf_oracle, mf_oracle_grid, pi_oracle, psi

from tfshift import (
    Line,
    PlanePoint,
    Signal,
    as_prime,
    awgn,
    const_signal,
    counters,
    delta,
    fastmf,
    heisenberg_op,
    inner,
    line_vector,
    mf_entry,
    mf_full,
    mfi_coefficient,
    modulate,
    random_signal,
    time_shift,
)
from tfshift.signals import add, awgn_rows, scale


def test_signal_validation():
    p = as_prime(5)
    s = Signal(p, np.ones(5))
    assert s.norm() == pytest.approx(np.sqrt(5))
    assert not s.samples.flags.writeable
    with pytest.raises(ValueError):
        Signal(p, np.ones(4))
    with pytest.raises(ValueError):
        Signal(p, np.ones(5), normalized=True)  # norm is sqrt(5), not 1


def test_normalized_signals_are_checked_without_blas(monkeypatch):
    # a BLAS call can wait milliseconds for an idle thread-pool worker at
    # large p, so the normalized check is a numpy ufunc sum
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS-backed call")
    for module, name in ((np.linalg, "norm"), (np, "dot"), (np, "vdot"), (np, "matmul")):
        monkeypatch.setattr(module, name, refuse)
    p = 10007
    built = [random_signal(p, seed=1), line_vector(Line(3, as_prime(p)), 5).signal,
             delta(p, 2), Signal(p, np.full(p, 1 / np.sqrt(p)), normalized=True)]
    assert all(S.normalized for S in built)
    with pytest.raises(ValueError, match="norm differs from 1"):
        Signal(p, np.full(p, 2 / np.sqrt(p)), normalized=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(1, np.inf)])
def test_signal_rejects_non_finite_samples(bad):
    x = np.ones(5, dtype=np.complex128)
    x[2] = bad
    with pytest.raises(ValueError, match="finite"):
        Signal(as_prime(5), x)


def test_basic_generators():
    d = delta(7, 3)
    assert d.samples[3] == 1 and np.count_nonzero(d.samples) == 1
    assert d.norm() == pytest.approx(1.0)
    c = const_signal(7)
    assert c.norm() == pytest.approx(1.0)
    assert np.allclose(c.samples, c.samples[0])
    r1 = random_signal(31, seed=5)
    r2 = random_signal(31, seed=5)
    assert np.array_equal(r1.samples, r2.samples)
    assert r1.norm() == pytest.approx(1.0)
    assert not np.array_equal(r1.samples, random_signal(31, seed=6).samples)


def test_awgn_seeded_and_scaled():
    p = 101
    n1 = awgn(p, 0.3, seed=9)
    n2 = awgn(p, 0.3, seed=9)
    assert np.array_equal(n1.samples, n2.samples)
    assert np.all(awgn(p, 0.0, seed=9).samples == 0)
    # E|noise|^2 over the p samples is p sigma^2; average 200 draws
    tot = 0.0
    for s in range(200):
        tot += np.sum(np.abs(awgn(p, 0.3, seed=s).samples) ** 2)
    assert tot / 200 == pytest.approx(p * 0.09, rel=0.05)


def test_awgn_rows_into_given_arrays():
    # the rows equal awgn one seed at a time, written into the caller's arrays
    out, planes = np.empty((3, 31), dtype=np.complex128), np.empty((2, 3, 31))
    got = awgn_rows(31, 0.4, [5, 0, 2**62], out, planes)
    assert got is out
    for row, seed in zip(got, [5, 0, 2**62]):
        assert np.array_equal(row, awgn(31, 0.4, seed).samples)
    assert np.array_equal(got, awgn_rows(31, 0.4, [5, 0, 2**62]))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -0.1])
def test_awgn_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
        awgn_rows(31, sigma, [0, 1])
    with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
        awgn(31, sigma, seed=0)


def test_shift_modulate_heisenberg_against_oracle():
    rng = np.random.default_rng(3)
    p = as_prime(11)
    f = Signal(p, rng.standard_normal(11) + 1j * rng.standard_normal(11))
    for tau in range(11):
        assert np.allclose(time_shift(f, tau).samples,
                           np.roll(f.samples, -tau), atol=1e-12)
    for tau in (0, 1, 4, 10):
        for om in (0, 2, 7):
            got = heisenberg_op(f, PlanePoint(tau, om, p)).samples
            assert np.allclose(got, pi_oracle(f, tau, om), atol=1e-12)
    # pi = modulation after time shift
    v = PlanePoint(3, 8, p)
    assert np.allclose(heisenberg_op(f, v).samples,
                       modulate(time_shift(f, 3), 8).samples, atol=1e-12)


def test_heisenberg_cocycle():
    # pi(a) pi(b) = psi(tau_a omega_b) pi(a+b)
    rng = np.random.default_rng(12)
    p = as_prime(13)
    f = Signal(p, rng.standard_normal(13) + 1j * rng.standard_normal(13))
    for _ in range(25):
        ta, oa, tb, ob = rng.integers(0, 13, size=4)
        a = PlanePoint(int(ta), int(oa), p)
        b = PlanePoint(int(tb), int(ob), p)
        lhs = heisenberg_op(heisenberg_op(f, b), a).samples
        rhs = psi(int(ta) * int(ob), 13) * heisenberg_op(f, a + b).samples
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_heisenberg_unitary():
    rng = np.random.default_rng(1)
    p = as_prime(31)
    f = Signal(p, rng.standard_normal(31) + 1j * rng.standard_normal(31))
    for _ in range(10):
        tau, om = rng.integers(0, 31, size=2)
        g = heisenberg_op(f, PlanePoint(int(tau), int(om), p))
        assert g.norm() == pytest.approx(f.norm(), abs=1e-12)


def test_inner_and_linear_ops():
    p = as_prime(7)
    rng = np.random.default_rng(8)
    f = Signal(p, rng.standard_normal(7) + 1j * rng.standard_normal(7))
    g = Signal(p, rng.standard_normal(7) + 1j * rng.standard_normal(7))
    want = np.sum(f.samples * np.conj(g.samples))
    assert inner(f, g) == pytest.approx(want)
    assert inner(f, f).real == pytest.approx(f.norm() ** 2)
    h = add(scale(f, 2.0), g)
    assert np.allclose(h.samples, 2.0 * f.samples + g.samples)


def test_mf_entry_matches_direct_sum():
    rng = np.random.default_rng(21)
    p = as_prime(31)
    S = random_signal(p, seed=1)
    R = random_signal(p, seed=2)
    for _ in range(40):
        tau, om = rng.integers(0, 31, size=2)
        got = mf_entry(S, R, PlanePoint(int(tau), int(om), p))
        assert got == pytest.approx(mf_oracle(S, R, int(tau), int(om)), abs=1e-10)
    with pytest.raises(ValueError):
        mf_entry(S, random_signal(11, seed=0), PlanePoint(0, 0, p))


def test_mf_full_exhaustive_small_p():
    # the fast row transform against the direct double loop, every entry
    p = as_prime(11)
    S = random_signal(p, seed=4)
    R = random_signal(p, seed=5)
    M = mf_full(S, R)
    assert np.abs(M.entries - mf_oracle_grid(S, R)).max() < 1e-10


@pytest.mark.parametrize("p", [31, 101, 1009])
def test_mf_full_matches_row_transforms(p):
    # vertical line scans against one prime-length dft per row
    S = random_signal(p, seed=6)
    R = random_signal(p, seed=7)
    got = mf_full(S, R).entries
    want = mf_full_oracle(S, R)
    assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()
    assert np.argmax(np.abs(got)) == np.argmax(np.abs(want))


def test_mf_full_memory_holds_one_buffer_of_rows():
    # the result (16.3 MB at p = 1009), one kept buffer (2.1 MB) and a 1 MB
    # margin; a single (p, n) work array of all rows would take about 33 MB
    p = 1009
    S = random_signal(p, seed=6)
    R = random_signal(p, seed=7)
    tracemalloc.start()
    try:
        mf_full(S, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= p * p * 16 + fastmf.BUFFER_CAP * 16 + 2**20, peak


def test_mf_full_rejects_mismatched_moduli_before_any_transform():
    counters.reset()
    with pytest.raises(ValueError, match="mismatched moduli"):
        mf_full(random_signal(31, seed=0), random_signal(37, seed=0))
    assert counters.dft_calls == 0


def test_mf_matrix_helpers():
    p = as_prime(11)
    S = random_signal(p, seed=4)
    M = mf_full(S, S)
    mags = M.magnitudes()
    assert mags.shape == (11, 11)
    assert M.argmax() == (0, 0)  # autocorrelation peaks at zero shift
    assert mags[0, 0] == pytest.approx(1.0)


def test_mf_peak_at_planted_shift():
    p = as_prime(31)
    S = random_signal(p, seed=10)
    v = PlanePoint(12, 25, p)
    R = heisenberg_op(S, v)
    M = mf_full(S, R)
    assert M.argmax() == (12, 25)
    assert np.abs(M.entries[12, 25]) == pytest.approx(1.0, abs=1e-10)


def test_mfi_expansion_small_case():
    # receiver built from two shifted unit-norm senders; the cross matched
    # filter must equal the phase-weighted sum of shifted autocorrelations
    p = as_prime(11)
    S = [random_signal(p, seed=k) for k in (1, 2)]
    shifts = [PlanePoint(3, 7, p), PlanePoint(9, 2, p)]
    bits = [1, -1]
    acc = np.zeros(11, dtype=np.complex128)
    for b, v, s in zip(bits, shifts, S):
        acc = acc + b * heisenberg_op(s, v).samples
    R = Signal(p, acc)
    for k in range(2):
        lhs = mf_full(S[k], R).entries
        rhs = np.zeros((11, 11), dtype=np.complex128)
        for tau in range(11):
            for om in range(11):
                v = PlanePoint(tau, om, p)
                for b, vj, sj in zip(bits, shifts, S):
                    rhs[tau, om] += (b * mfi_coefficient(v, vj)
                                     * mf_entry(S[k], sj, v - vj))
        assert np.abs(lhs - rhs).max() < 1e-9


def test_mfi_coefficient_unit_phase():
    p = as_prime(13)
    rng = np.random.default_rng(0)
    for _ in range(20):
        t1, o1, t2, o2 = rng.integers(0, 13, size=4)
        z = mfi_coefficient(PlanePoint(int(t1), int(o1), p),
                            PlanePoint(int(t2), int(o2), p))
        assert abs(abs(z) - 1.0) < 1e-12
    v = PlanePoint(4, 9, p)
    assert mfi_coefficient(v, v) == pytest.approx(1.0)
