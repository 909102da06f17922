"""Field arithmetic and plane geometry."""

import numpy as np
import pytest

from helpers import chirp_oracle

from tfshift import (
    Line,
    PlanePoint,
    Prime,
    as_prime,
    inv,
    is_prime,
    legendre,
    line_contains,
    line_points,
    line_through,
    lines_through_origin,
)
from tfshift.gfp import MR_BASES, MR_BOUND, _chirp, _factor, _roots, sqrt_mod


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(32):
        assert is_prime(n) == (n in primes), n


def sieve(n):
    """The smallest prime factor of each of 0..n-1 (0 and 1 map to themselves)."""
    spf = list(range(n))
    for i in range(2, int(n ** 0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, n, i):
                spf[j] = min(spf[j], i)
    return spf


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** k, n) == n - 1 for k in range(1, s))


def test_is_prime_agrees_with_trial_division_below_1e5():
    spf = sieve(10**5)
    for n in range(10**5):
        assert is_prime(n) == (n >= 2 and spf[n] == n), n


@pytest.mark.parametrize("n, prime", [
    # strong pseudoprimes to the first 1, 2, 3, 4 and 9 prime bases
    (2047, False), (1373653, False), (25326001, False), (3215031751, False),
    (3825123056546413051, False),
    # Carmichael numbers
    (561, False), (1105, False), (1729, False), (41041, False), (825265, False),
    # products of two primes near 2^31, and the primes
    (2147483647 * 2147483629, False), (2147483587 * 2147483659, False),
    (2147483647, True), (2147483693, True),
    # 2^61 - 1 and a 61-bit safe prime, and the composite 2^61 - 3
    (2**61 - 1, True), (2305843009213691579, True), ((2305843009213691579 - 1) // 2, True),
    (2**61 - 3, False), (1000003, True), (100003, True),
])
def test_is_prime_on_hard_cases(n, prime):
    assert is_prime(n) == prime


def test_is_prime_refuses_past_its_bound():
    # the bound is tight: a composite that passes all twelve bases
    assert MR_BOUND == 399165290221 * 798330580441
    assert all(strong_probable_prime(MR_BOUND, a) for a in MR_BASES)
    assert not is_prime(MR_BOUND - 2)
    for n in (MR_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)
    with pytest.raises(ValueError, match="too large"):
        as_prime(2**89 - 1)


def test_factor_agrees_with_trial_division_below_1e5():
    spf = sieve(10**5)
    for n in range(1, 10**5):
        want, m = [], n
        while m > 1:
            want.append(spf[m])
            while m % want[-1] == 0:
                m //= want[-1]
        assert _factor(n) == want, n
    assert _factor(2**61 - 2) == [2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321]


@pytest.mark.parametrize("p", [2**61 - 1, 2305843009213691579])
def test_factor_of_a_61_bit_torus_order(p):
    # the two torus orders p -+ 1, each rebuilt from its distinct primes
    for n in (p - 1, p + 1):
        primes = _factor(n)
        assert primes == sorted(primes) and all(is_prime(q) for q in primes)
        m = n
        for q in primes:
            while m % q == 0:
                m //= q
        assert m == 1, n


def test_prime_rejects_bad_moduli():
    with pytest.raises(ValueError):
        Prime(91)  # 7 * 13
    with pytest.raises(ValueError):
        Prime(2)  # odd primes only: 2 has no inverse of 2
    assert as_prime(31).p == 31
    pp = Prime(31)
    assert as_prime(pp) is pp
    assert int(pp) == 31


def test_inv_exhaustive():
    for p in (3, 31):
        for a in range(1, p):
            assert (a * inv(a, p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv(0, 31)
    # accepts values outside [0, p)
    assert inv(32, 31) == 1


def test_legendre_matches_square_set():
    p = 31
    squares = {(x * x) % p for x in range(1, p)}
    for a in range(p):
        want = 0 if a == 0 else (1 if a in squares else -1)
        assert legendre(a, p) == want


@pytest.mark.parametrize("p", [3, 5, 13, 17, 257])
def test_sqrt_mod_on_every_residue(p):
    # None exactly for the nonsquares, else a root in [0, p); p = 17 and 257
    # (1 mod 8, and 257 = 2^8 + 1) run Tonelli-Shanks's loop several times
    squares = {x * x % p for x in range(p)}
    for a in range(-p, 2 * p):
        r = sqrt_mod(a, p)
        if a % p in squares:
            assert r is not None and 0 <= r < p and r * r % p == a % p, (p, a, r)
        else:
            assert r is None, (p, a, r)


def test_as_prime_shares_validated_primes():
    assert as_prime(10007) is as_prime(10007)
    assert as_prime(np.int64(10007)) is as_prime(10007)
    for _ in range(2):  # a refusal is not kept
        with pytest.raises(ValueError, match="not prime"):
            as_prime(10001)


def test_legendre_multiplicative():
    rng = np.random.default_rng(7)
    p = 101
    for _ in range(50):
        a, b = (int(x) for x in rng.integers(1, p, size=2))
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_plane_point_reduction_and_arithmetic():
    p = as_prime(7)
    v = PlanePoint(9, -1, p)
    assert (v.tau, v.omega) == (2, 6)
    w = PlanePoint(5, 3, p)
    assert ((v + w).tau, (v + w).omega) == (0, 2)
    assert (v + w) - w == v
    assert PlanePoint(0, 0, p).is_origin() and not v.is_origin()
    with pytest.raises(ValueError):
        v + PlanePoint(0, 0, 11)


def test_line_canonical_offsets():
    p = as_prime(11)
    # same point set -> equal objects, whatever offset representative is given
    a = Line(3, p, offset=PlanePoint(2, 7, p))
    b = Line(3, p, offset=PlanePoint(5, 16, p))  # differs by 3 * direction
    assert a == b
    assert not a.through_origin()
    assert Line(3, p).through_origin()
    v1 = Line(None, p, offset=PlanePoint(4, 9, p))
    v2 = Line(None, p, offset=PlanePoint(4, 0, p))
    assert v1 == v2 and v1.is_vertical


def test_line_through_and_contains():
    p = as_prime(11)
    v = PlanePoint(4, 9, p)
    for slope in (0, 3, None):
        L = line_through(slope, v)
        assert line_contains(L, v)
        pts = line_points(L)
        assert len(pts) == 11 and len(set(pts)) == 11
        for q in pts:
            assert line_contains(L, q)
        # exhaustive complement check
        member = set(pts)
        for tau in range(11):
            for om in range(11):
                q = PlanePoint(tau, om, p)
                assert line_contains(L, q) == (q in member)


def test_lines_through_origin_partition():
    p = as_prime(7)
    lines = lines_through_origin(p)
    assert len(lines) == 8
    assert all(L.through_origin() for L in lines)
    # the p+1 origin lines cover V and meet pairwise only at the origin
    seen: dict = {}
    for k, L in enumerate(lines):
        for q in line_points(L):
            if q.is_origin():
                continue
            assert q not in seen, (k, seen.get(q))
            seen[q] = k
    assert len(seen) == 7 * 7 - 1


def test_direction_spans_line():
    p = as_prime(13)
    for slope in (0, 5, None):
        L = Line(slope, p)
        d = L.direction()
        assert line_contains(L, d)
        assert not d.is_origin()


@pytest.mark.parametrize("p", [3, 5, 503, 10007, 100003])
def test_chirp_gather_equals_exp_oracle_bit_for_bit(p):
    # a gather from the roots table must keep every sample of the one-exp
    # chirp, so that flags, scans and statistics keep their bits
    pairs = [(0, 0), (0, 1), (1, 0), (-1, -1), (2, -3), (-7, 5), (p - 1, 1 - p),
             (3 * p + 2, -5 * p - 4), (-(p // 2), p // 3)]
    for a, b in pairs:
        assert np.array_equal(_chirp(p, a, b), chirp_oracle(p, a, b)), (a, b)
    # the slope-0 modulation of a line scan reads conj(e(k)) for e(-k)
    t = np.arange(p)
    assert np.array_equal(np.conj(_roots(p)[0]), np.exp(-2j * np.pi * t / p))


def test_roots_table_is_read_only_and_small():
    roots, sq, t = _roots(31)
    assert not any(a.flags.writeable for a in (roots, sq, t))
    assert np.array_equal(sq, t * t % 31) and np.array_equal(t, np.arange(31))
    assert _roots.cache_info().maxsize == 2
    assert _chirp(31, 3, 4).flags.writeable  # a chirp is the caller's own array
