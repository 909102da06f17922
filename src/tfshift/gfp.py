"""Arithmetic in the prime field F_p and geometry of the time-frequency plane.

The plane V = F_p x F_p carries p+1 lines through the origin: one for each
slope m in {0..p-1} plus the vertical line. Shifted lines are origin lines
plus an offset point. All scalars are canonical residues in [0, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_BOUND = 318665857834031151167461  # the least composite that passes every base in MR_BASES


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (Miller 1976, Rabin 1980),
    O(log^3 n): a strong probable prime to the 12 bases MR_BASES is prime
    for every n < MR_BOUND (Sorenson and Webster, "Strong pseudoprimes to
    twelve prime bases", Math. Comp. 86, 2017). ValueError for a larger n."""
    if n >= MR_BOUND:
        raise ValueError(f"{n} is too large: primality is decided only below {MR_BOUND}")
    if n < 2 or any(n % a == 0 for a in MR_BASES):
        return n in MR_BASES
    d, s = n - 1, 0  # n - 1 = d 2^s, d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending. Each composite part is
    split by Pollard's rho (Pollard 1975) with Floyd's cycle finding, in about
    sqrt(q) products for its smallest prime factor q, so the order p +- 1 of
    a 61-bit p factors in milliseconds."""
    out, parts = set(), [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out.add(m)
            continue
        d = 2 if m % 2 == 0 else 1
        c = 0
        while d in (1, m):  # a walk x -> x^2 + c that closed its cycle mod m too: next c
            x = y = 2
            c, d = c + 1, 1
            while d == 1:
                x, y = (x * x + c) % m, (y * y + c) % m
                y = (y * y + c) % m
                d = math.gcd(x - y, m)
        parts += [d, m // d]
    return sorted(out)


@dataclass(frozen=True)
class Prime:
    """An odd prime modulus, validated at construction."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.p < 3:
            raise ValueError("p must be an odd prime, p >= 3")

    def __int__(self) -> int:
        return self.p


def as_prime(p) -> Prime:
    """Coerce an int (or pass through a Prime) to a validated Prime. An int
    is validated once: the Primes of the last 64 ints are shared, so the
    modular helpers that take an int p run no primality test on each call."""
    return p if isinstance(p, Prime) else _prime(int(p))


@lru_cache(maxsize=64)
def _prime(p: int) -> Prime:
    return Prime(p)  # lru_cache keeps no exception: a non-prime fails every time


def inv(a: int, p) -> int:
    """Multiplicative inverse of a mod p. Zero input is a domain error."""
    p = int(as_prime(p).p)
    a = a % p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse mod p")
    return pow(a, -1, p)


def legendre(a: int, p) -> int:
    """Legendre symbol: +1 for a nonzero square mod p, 0 for 0, -1 otherwise."""
    p = int(as_prime(p).p)
    a = a % p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def sqrt_mod(a: int, p) -> int | None:
    """A square root of a mod p, a residue r in [0, p) with r^2 = a, or None
    when a is a nonsquare (Tonelli-Shanks, Shanks 1973): O(log^2 p) products.
    The other root is p - r."""
    p = int(as_prime(p).p)
    a = a % p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0  # p - 1 = q 2^s, q odd
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:  # a nonsquare
        z += 1
    # invariant: r^2 = a t, with t of order 2^i dividing 2^(m-1), c of order 2^m
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


@lru_cache(maxsize=2)
def _roots(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables for F_p, about 32p bytes: the p-th roots of unity
    e(k) for k = 0..p-1, with e(z) = e^{(2 pi i/p) z}, then t^2 mod p and t."""
    t = np.arange(p)
    tables = (np.exp(2j * np.pi * t / p), t * t % p, t)
    for a in tables:
        a.setflags(write=False)
    return tables


def _phase(p: int, a, b=0, out: np.ndarray | None = None) -> np.ndarray:
    """The index (a t^2 + b t) mod p of the phase e(a t^2 + b t), t in F_p,
    for ints a, b or (T, 1) integer columns (then a (T, p) stack); with a = 0
    it is the dilation index b t. Reduced as k - p (k // p), since floor
    division by a scalar is several times faster than remainder. out, a
    (2, ...) int64 array, takes the index in out[1] and scratch in out[0]."""
    _, sq, t = _roots(p)
    q, k = np.empty((2, *np.broadcast(a, b, t).shape), np.int64) if out is None else out
    np.multiply(b % p, t, out=k)
    if isinstance(a, np.ndarray) or a % p:
        np.add(k, np.multiply(a % p, sq, out=q), out=k)
    np.floor_divide(k, p, out=q)
    return np.subtract(k, np.multiply(q, p, out=q), out=k)


def _chirp(p: int, a, b=0, out: np.ndarray | None = None) -> np.ndarray:
    """e(a t^2 + b t) for t in F_p, a chirp or with a = 0 the modulation by
    b, for ints a, b or (T, 1) integer columns (a (T, p) stack): the one phase
    kernel, a gather from _roots(p) at the _phase index. Into out, if given,
    a C-contiguous array or (T, p) rows with a row stride. The index is built
    in the upper half of the bytes each gather fills (index j at byte 8(N + j)
    of N samples), which the gather reads before it writes sample j over
    bytes 16j to 16j + 16, so a call allocates no array beyond its result
    (numpy's ufunc buffers aside: about 128 KB for a (T, 1) column)."""
    out = np.empty(np.broadcast(a, b, _roots(p)[2]).shape, np.complex128) if out is None else out
    if out.flags.c_contiguous:
        k = _phase(p, a, b, out.view(np.int64).reshape(2, *out.shape))
        return np.take(_roots(p)[0], k, out=out, mode="clip")  # in range; clip takes no copy
    # (T, p) rows with a row stride: each row's own (scratch, index) halves
    halves = out.view(np.int64).reshape(-1, 2, p).swapaxes(0, 1)
    for row, index in zip(out, _phase(p, a, b, halves)):
        np.take(_roots(p)[0], index, out=row, mode="clip")
    return out


def _roll_rows(x: np.ndarray, shifts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row i of out, any stack of rows, set to the vector x rolled by
    shifts[i] as np.roll rolls it: two slice copies per row, which for one
    row cost what np.roll does and for a stack less than a gather."""
    p = x.shape[-1]
    for i, s in enumerate((shifts % p).tolist()):
        out[i, s:] = x[:p - s]
        out[i, :s] = x[p - s:]
    return out


@dataclass(frozen=True)
class PlanePoint:
    """A point (tau, omega) of V: tau cyclic time shift, omega cyclic frequency shift."""

    tau: int
    omega: int
    p: Prime

    def __post_init__(self):
        pp = as_prime(self.p)
        object.__setattr__(self, "p", pp)
        object.__setattr__(self, "tau", self.tau % pp.p)
        object.__setattr__(self, "omega", self.omega % pp.p)

    def __add__(self, other: "PlanePoint") -> "PlanePoint":
        if self.p != other.p:
            raise ValueError("mismatched moduli")
        return PlanePoint(self.tau + other.tau, self.omega + other.omega, self.p)

    def __sub__(self, other: "PlanePoint") -> "PlanePoint":
        if self.p != other.p:
            raise ValueError("mismatched moduli")
        return PlanePoint(self.tau - other.tau, self.omega - other.omega, self.p)

    def is_origin(self) -> bool:
        return self.tau == 0 and self.omega == 0


@dataclass(frozen=True)
class Line:
    """A line in V: slope m (the set {(t, m*t)}) or vertical (slope=None, the set
    {(0, w)}), translated by an explicit offset point.

    Offsets are canonicalized so structurally equal lines compare equal: a sloped
    line stores its intersection with the vertical axis, a vertical line its
    intersection with the horizontal axis.
    """

    slope: int | None
    p: Prime
    offset: PlanePoint = field(default=None)

    def __post_init__(self):
        pp = as_prime(self.p)
        object.__setattr__(self, "p", pp)
        if self.slope is not None:
            object.__setattr__(self, "slope", self.slope % pp.p)
        off = self.offset
        if off is None:
            off = PlanePoint(0, 0, pp)
        if off.p != pp:
            raise ValueError("offset modulus does not match line modulus")
        # canonical representative of the coset
        if self.slope is None:
            off = PlanePoint(off.tau, 0, pp)
        else:
            off = PlanePoint(0, off.omega - self.slope * off.tau, pp)
        object.__setattr__(self, "offset", off)

    @property
    def is_vertical(self) -> bool:
        return self.slope is None

    def through_origin(self) -> bool:
        return self.offset.is_origin()

    def direction(self) -> PlanePoint:
        """A nonzero vector spanning the line's direction."""
        if self.slope is None:
            return PlanePoint(0, 1, self.p)
        return PlanePoint(1, self.slope, self.p)


def line_through(slope: int | None, v: PlanePoint) -> Line:
    """The line of the given slope (None = vertical) passing through v."""
    return Line(slope, v.p, offset=v)


def transverse_line(L: Line) -> Line:
    """A deterministic origin line different from L: successor slope for sloped
    lines (m -> m+1 mod p, never vertical), slope 0 for the vertical line."""
    return Line(0 if L.is_vertical else (L.slope + 1) % L.p.p, L.p)


def lines_through_origin(p) -> list[Line]:
    """All p+1 origin lines in canonical order: slopes 0..p-1, then vertical."""
    pp = as_prime(p)
    lines = [Line(m, pp) for m in range(pp.p)]
    lines.append(Line(None, pp))
    return lines


def line_point(L: Line, t: int) -> PlanePoint:
    """The t-th point of L in canonical parameter order, in O(1).

    Slope(m): (off.tau + t, off.omega + m*t). Vertical: (off.tau, off.omega + t).
    """
    off = L.offset
    if L.slope is None:
        return PlanePoint(off.tau, off.omega + t, L.p)
    return PlanePoint(off.tau + t, off.omega + L.slope * t, L.p)


def line_points(L: Line) -> list[PlanePoint]:
    """The p points of L in canonical parameter order t = 0..p-1."""
    return [line_point(L, t) for t in range(L.p.p)]


def line_contains(L: Line, v: PlanePoint) -> bool:
    """True iff v lies on L (offset included)."""
    if v.p != L.p:
        raise ValueError("mismatched moduli")
    d = v - L.offset
    if L.slope is None:
        return d.tau == 0
    return (L.slope * d.tau - d.omega) % L.p.p == 0
