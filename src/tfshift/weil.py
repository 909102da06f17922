"""The Weil (peaks) system: SL2(F_p), Weil representation operators, torus
eigenbases, and Heisenberg-Weil flag waveforms.

The operator rho(g) is the unitary that conjugates the time-frequency shift
operators according to the linear action of g on the plane. With the
symmetrized shifts

    sigma(tau, omega) = e^{(2 pi i/p) 2^{-1} tau omega} pi(tau, omega)

the intertwining law is

    rho(g) sigma(v) = sigma(g v) rho(g)          for all v,

equivalently, on the plain operators,

    rho(g) pi(v) = e^{(2 pi i/p) 2^{-1} (q(gv) - q(v))} pi(g v) rho(g),

with q(tau, omega) = tau * omega. The scalar is identically 1 on v with
q(gv) = q(v) but not in general; it is forced by the pi composition law
pi(a) pi(b) = e^{(2 pi i/p) tau_a omega_b} pi(a+b), whose scalar is not
SL2-invariant. The law fixes rho(g) up to a scalar; _rho applies it to a
stack of signals through the explicit chirp kernel of Gurevich, Hadani and
Sochen ("The finite harmonic oscillator and its applications to sequences,
communication and radar", IEEE Trans. IT 2008), a chirp, one length-p FFT and
a second chirp, and fixes the phase by rho[0, 0] > 0. Eigenspaces of rho are
unaffected by any of this phase bookkeeping.

A flag needs one torus eigenvector, built matrix-free: the vector is the
projection of a fixed reference signal on its eigenspace, a sum over the
n = T.order powers of rho(T.generator). One doubling ladder (_project) sums
them in O(log p) FFTs per vector. Each step applies rho^h = c(h) rho(g^h):
rho(g^h) is the closed-form kernel, built at its step and dropped after, and
c(h) is a fourth root of unity in closed form (_power_scalar). The one cached
record per torus (_orbit) is the spectrum, read off tr rho in O(p): eigenvalue
keys, eigenvalues and degenerate marks. One builder (_vectors) projects any
set of eigenvalue indices as one stack and checks the result; torus_vector
(one vector) and torus_eigenbasis (all p, O(p^2) memory, for tests, demos and
full-basis callers) both call it. Only numpy's FFT runs; nothing calls
LAPACK. weil_operator is the dense matrix, for tests and demos.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gfp import Line, PlanePoint, Prime, _chirp, as_prime, inv, legendre, transverse_line
from .heisenberg import HeisenbergVector, line_vector
from .signals import Signal, add, heisenberg_op, random_signal


# ------------------------------------------------------------------ SL2(F_p)

@dataclass(frozen=True)
class GroupElement:
    """An element [[a,b],[c,d]] of SL2(F_p), determinant checked."""

    a: int
    b: int
    c: int
    d: int
    p: Prime

    def __post_init__(self):
        pp = as_prime(self.p)
        object.__setattr__(self, "p", pp)
        for f in ("a", "b", "c", "d"):
            object.__setattr__(self, f, getattr(self, f) % pp.p)
        if (self.a * self.d - self.b * self.c) % pp.p != 1:
            raise ValueError("determinant must be 1")

    def mul(self, o: "GroupElement") -> "GroupElement":
        if self.p != o.p:
            raise ValueError("mismatched moduli")
        return GroupElement(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
            self.p,
        )

    def power(self, n: int) -> "GroupElement":
        r = identity(self.p)
        base = self
        n = int(n)
        if n < 0:
            base = base.inverse()
            n = -n
        while n:
            if n & 1:
                r = r.mul(base)
            base = base.mul(base)
            n >>= 1
        return r

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a, self.p)

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def act(self, v: PlanePoint) -> PlanePoint:
        """Linear action on the plane, v as a column vector."""
        if v.p != self.p:
            raise ValueError("mismatched moduli")
        return PlanePoint(self.a * v.tau + self.b * v.omega,
                          self.c * v.tau + self.d * v.omega, self.p)

    def trace(self) -> int:
        return (self.a + self.d) % self.p.p


def identity(p) -> GroupElement:
    return GroupElement(1, 0, 0, 1, as_prime(p))


def sigma_op(f: Signal, v: PlanePoint) -> Signal:
    """The symmetrized shift sigma(v) f = e^{(2 pi i/p) 2^{-1} tau omega} pi(v) f."""
    p = f.p.p
    ph = np.exp(2j * np.pi * ((inv(2, f.p) * v.tau * v.omega) % p) / p)
    g = heisenberg_op(f, v)
    return Signal(f.p, ph * g.samples, normalized=f.normalized)


# ----------------------------------------------------------- Weil operators

@dataclass(frozen=True, eq=False)
class WeilOperator:
    """rho(g): unitary p x p matrix intertwining sigma(v) -> sigma(g v)."""

    g: GroupElement
    matrix: np.ndarray


def _rho(g: GroupElement):
    """rho(g) as a map on the rows of a (..., p) stack, from the closed-form
    kernel, with e(z) = e^{(2 pi i/p) z} and divisions taken in F_p:

        b != 0:  rho[x, y] = p^{-1/2} e((-d x^2 + 2 x y - a y^2) / (2b)),
        b == 0:  rho[x, d x] = e(-c d x^2 / 2), zero elsewhere.

    The first is a chirp, a length-p transform read at x/b and a second
    chirp, O(p log p) per row; the second a chirp on a dilation. The global
    phase makes rho[0, 0] real and positive (it is p^{-1/2} or 1). The
    transform is numpy's own, so fastmf.counters count only matched-filter
    transforms."""
    p = g.p.p
    x = np.arange(p)
    if g.b:
        k = pow(2 * g.b, -1, p)
        pre, post, at = _chirp(p, -g.a * k), _chirp(p, -g.d * k), x * pow(g.b, -1, p) % p
        return lambda F: post * np.fft.ifft(pre * F, norm="ortho")[..., at]
    post, at = _chirp(p, -g.c * g.d * pow(2, -1, p)), g.d * x % p
    return lambda F: post * F[..., at]


@lru_cache(maxsize=8)
def weil_operator(g: GroupElement) -> WeilOperator:
    """rho(g) as a dense p x p matrix: the kernel of _rho applied to the
    identity. O(p^2) memory; the Weil vectors never build it."""
    rho = np.ascontiguousarray(_rho(g)(np.eye(g.p.p)).T)
    rho.setflags(write=False)
    return WeilOperator(g, rho)


# ----------------------------------------------------------------- tori

@dataclass(frozen=True)
class Torus:
    """A maximal commutative subgroup of SL2(F_p), held by a generator."""

    generator: GroupElement
    kind: str  # "split" | "nonsplit"
    order: int


def _factor(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=64)
def make_torus(trace_class: int, p) -> Torus:
    """The torus containing a regular element of the given trace.

    With g0 = [[t,-1],[1,0]], the centralizer is {a*I + b*g0} intersected with
    SL2, i.e. pairs (a, b) with a^2 + a b t + b^2 = 1. The torus is split of
    order p-1 when t^2-4 is a nonzero square, nonsplit of order p+1 when it is
    a nonsquare; t^2 = 4 is parabolic and rejected. The generator is the first
    centralizer element of full order in lexicographic (a, b) scan. The scan
    is O(p^2), so tori are cached (a Torus is immutable).
    """
    pp = as_prime(p)
    pi = pp.p
    t = trace_class % pi
    disc = (t * t - 4) % pi
    if disc == 0:
        raise ValueError(f"trace {t} is parabolic mod {pi}: not a torus")
    kind = "split" if legendre(disc, pp) == 1 else "nonsplit"
    order = pi - 1 if kind == "split" else pi + 1
    primes = _factor(order)
    for a in range(pi):
        for b in range(pi):
            if (a * a + a * b * t + b * b) % pi != 1:
                continue
            g = GroupElement(a + b * t, -b, b, a, pp)
            if g.is_identity():
                continue
            if any(g.power(order // q).is_identity() for q in primes):
                continue
            if not g.power(order).is_identity():
                continue
            return Torus(g, kind, order)
    raise RuntimeError("no full-order centralizer element found")  # unreachable


# ------------------------------------------------------- torus eigenbases

@dataclass(frozen=True, eq=False)
class WeilVector:
    """A unit eigenvector of rho(T.generator); degenerate marks an eigenvalue
    shared by two vectors, where the peak guarantee is not claimed."""

    torus: Torus
    eigenvalue: complex
    signal: Signal
    degenerate: bool


LATTICE_TOL = 1e-6  # largest accepted distance of an eigenvalue from its lattice
                    # point, and largest accepted residual ||rho v - lambda v||
PHASE_FLOOR = 1e-6  # smallest accepted |<v, random_signal(p, 0)>| for the phase rule


def _reference(p: int, *seeds: int) -> np.ndarray:
    """The (len(seeds), p) stack of random_signal(p, seed) samples."""
    return np.stack([random_signal(p, s).samples for s in seeds])


def _eps(u: GroupElement) -> int:
    """The exponent m of the unit eps(u) = i^m that takes _rho(u), whose kernel
    has rho[0, 0] > 0, to the Weil representation proper, a true
    representation of SL2(F_p) (Gurevich, Hadani and Sochen): eps(u) is
    legendre(-2b) times i if p = 3 mod 4 (else 1) when b != 0, and
    legendre(a) when b = 0, which on a torus happens only at +-I."""
    p = u.p.p
    if u.b:
        return 2 * (legendre(-2 * u.b, p) < 0) + (p % 4 == 3)
    return 2 * (legendre(u.a, p) < 0)


def _power_scalar(g: GroupElement, u: GroupElement, h: int) -> complex:
    """The unit c(h) = eps(g)^h / eps(u) with rho(g)^h = c(h) rho(u), u = g^h,
    exactly one of 1, i, -1, -i (a float power of i would drift)."""
    return (1, 1j, -1, -1j)[(h * _eps(g) - _eps(u)) % 4]


class _Orbit(NamedTuple):
    """What the Weil vectors of one torus share: the spectrum of
    rho = rho(T.generator) in eig_index order."""

    keys: np.ndarray        # lattice key k of eigenvalue e^{i pi k/n}, increasing
    eigenvalues: np.ndarray
    degenerate: np.ndarray  # the one key a split torus gives two eigenvectors


@lru_cache(maxsize=8)
def _orbit(T: Torus) -> _Orbit:
    """The one cached record of T, n = T.order: the spectrum of rho(T.generator).

    Eigenvalues, read off the trace in O(p): rho^n is a scalar, and the
    eigenvalues are the n lattice points e^{i pi k/n} of one parity of k,
    each once, except that a split torus (n = p-1) has one of them twice and
    a nonsplit torus (n = p+1) misses one. The n points of one parity sum to
    0, so tr rho is the double eigenvalue of a split torus and minus the
    missing one of a nonsplit torus; on the diagonal of the kernel, tr rho =
    p^{-1/2} sum_x e((2-a-d) x^2/(2b)). RuntimeError if that eigenvalue is
    more than LATTICE_TOL off the lattice.
    """
    g, n = T.generator, T.order
    p = g.p.p
    # b != 0 for every torus generator: b = 0 would make it +-I
    tr = _chirp(p, (2 - g.a - g.d) * pow(2 * g.b, -1, p)).sum() / np.sqrt(p)
    lam = tr if T.kind == "split" else -tr
    k0 = int(np.rint(n * np.angle(lam) / np.pi)) % (2 * n)
    if abs(lam - np.exp(1j * np.pi * k0 / n)) > LATTICE_TOL:
        raise RuntimeError("torus eigenvalues off the lattice e^{i pi k/n}")
    keys = np.arange(k0 % 2, 2 * n, 2)
    keys = np.sort(np.append(keys, k0)) if T.kind == "split" else keys[keys != k0]
    spectrum = (keys, np.exp(1j * np.pi * keys / n), keys == k0)
    for a in spectrum:
        a.setflags(write=False)
    return _Orbit(*spectrum)


def _project(T: Torus, keys: np.ndarray, X: np.ndarray | None = None) -> np.ndarray:
    """The (K, rows, p) stack P_k x = (1/n) sum_{j<n} z^j x, z = e^{-i pi k/n} rho,
    for each of K keys k and each row x of X (default random_signal(p, 0)),
    n = T.order.

    P_k projects onto the e^{i pi k/n}-eigenspace of rho = rho(g),
    g = T.generator: rho^n is a scalar and every eigenvalue has the parity of
    k, so the sum cancels every other eigenvalue, and z^n = 1. A doubling
    ladder sums it: G_e = sum_{j<e} z^j x climbs from G_1 = x over the bits
    of n after the leading one, to G_{2e} = G_e + z^e G_e for each bit and
    then to G_{e+1} = x + z G_e if the bit is set, and ends at G_n. Each step
    is at most one transform of the stack (none at g^h = -I, the last), with
    z^h = c(h) e^{-i pi k h/n} rho(g^h) (_power_scalar, _rho) built for that
    step only, so the memory is O(K rows p); g^e climbs alongside, one
    product a step.
    """
    g, n = T.generator, T.order
    X = _reference(g.p.p, 0) if X is None else X

    def z(h, u, G):  # z^h G, u = g^h
        c = _power_scalar(g, u, h) * np.exp(-1j * np.pi * (keys * h % (2 * n)) / n)
        return c[:, None, None] * _rho(u)(G)

    G, e, u = X, 1, g
    for bit in bin(n)[3:]:
        G, e, u = G + z(e, u, G), 2 * e, u.mul(u)
        if bit == "1":
            G, e, u = X + z(1, g, G), e + 1, u.mul(g)
    return G / n


def _unit(P: np.ndarray) -> np.ndarray:
    """The rows of P over their norms. A row is the projection of a unit
    reference vector x, so its norm is |<v, x>| for the unit vector v it gives:
    RuntimeError if that is below PHASE_FLOOR."""
    norms = np.linalg.norm(P, axis=-1, keepdims=True)
    if norms.min() < PHASE_FLOOR:
        raise RuntimeError("eigenvector too close to orthogonal to the phase reference")
    return P / norms


def _vectors(T: Torus, index: np.ndarray) -> list[WeilVector]:
    """WeilVectors for the eig_indices `index`, built as one stack: each the
    unit projection of random_signal(p, 0) on its eigenspace (_project),
    which meets the phase rule by itself, since <P x, x> = ||P x||^2 > 0.
    The degenerate key of a split torus gets an orthonormal pair that meets
    it too: u and w the unit projections of random_signal(p, 0) and
    random_signal(p, 1), w made orthogonal to u, then (u + w)/sqrt 2 and
    (u - w)/sqrt 2, both with <v, random_signal(p, 0)> = ||P x||/sqrt 2.
    RuntimeError unless every v meets ||rho v - lambda v|| <= LATTICE_TOL."""
    orbit, pp = _orbit(T), T.generator.p
    keys = orbit.keys[index]
    V = _unit(_project(T, keys)[:, 0])
    deg = np.flatnonzero(orbit.degenerate[index])
    if deg.size:
        u, w = _unit(_project(T, keys[deg[:1]], _reference(pp.p, 0, 1))[0])
        w = _unit(w - np.vdot(u, w) * u)
        pair = np.stack([u + w, u - w]) / np.sqrt(2)
        V[deg] = pair[index[deg] - np.searchsorted(orbit.keys, keys[deg[0]])]
    lam = orbit.eigenvalues[index]
    if np.linalg.norm(_rho(T.generator)(V) - lam[:, None] * V, axis=1).max() > LATTICE_TOL:
        raise RuntimeError("Weil vector fails its eigenvalue equation")
    return [WeilVector(T, complex(e), Signal(pp, v), bool(d))
            for e, v, d in zip(lam, V, orbit.degenerate[index])]


@lru_cache(maxsize=64)
def torus_vector(T: Torus, index: int) -> WeilVector:
    """The eigenvector torus_eigenbasis(T)[index] names, built alone with no
    p x p array by _vectors: O(log p) transforms of length p. ValueError for an index outside
    0..p-1, raised before any torus work."""
    p = T.generator.p.p
    if not 0 <= index < p:
        raise ValueError(f"eig_index {index} is not in 0..{p - 1}")
    return _vectors(T, np.array([index]))[0]


@lru_cache(maxsize=8)
def torus_eigenbasis(T: Torus) -> tuple[WeilVector, ...]:
    """Orthonormal eigenbasis of the torus action, sorted by exact eigenvalue.

    The eigenvalues of rho = rho(generator) lie on the lattice e^{i pi k/n},
    n = T.order, and come from the trace (_orbit). Vectors are sorted by the
    integer k, so the eigenvalue-1 vector comes first, and the one k that a
    split torus gives two vectors marks both degenerate. Phase rule:
    <v, random_signal(p, 0)> is real and positive (RuntimeError if below
    PHASE_FLOOR). The vectors are torus_vector's, built as one (p, p) stack
    by _vectors; flag_waveform and `gen --kind weil` refuse a degenerate
    one. O(p^2) memory: for tests, demos and full-basis callers; a flag
    needs one vector (torus_vector).
    """
    return tuple(_vectors(T, np.arange(T.generator.p.p)))


# ------------------------------------------------------------------ flags

@dataclass(frozen=True, eq=False)
class Flag:
    """S_L = f_L + phi_T: Heisenberg line vector plus Weil peak vector (raw sum)."""

    line: Line
    torus: Torus
    fL: HeisenbergVector
    phiT: WeilVector
    signal: Signal

    @property
    def scan_lines(self) -> tuple[Line, Line]:
        """(carrier line, stage-1 line): the flag's line and its transverse line."""
        return self.line, transverse_line(self.line)


def flag_waveform(L: Line, T: Torus, b_index: int, eig_index: int) -> Flag:
    """Build a flag from the b-th line vector and the eig_index-th torus
    eigenvector (0..p-1, in torus_eigenbasis order), built alone by
    torus_vector. Degenerate eigenvectors are refused: their peak behavior
    carries no guarantee."""
    phi = torus_vector(T, eig_index)
    if phi.degenerate:
        raise ValueError("degenerate Weil eigenvector requested for a flag")
    fL = line_vector(L, b_index)
    return Flag(L, T, fL, phi, add(fL.signal, phi.signal))


def default_torus_roster(p, count: int) -> list[Torus]:
    """Deterministic torus roster: trace sweep 0, 1, 3, 4, ... skipping the
    parabolic traces (t^2 = 4 mod p), truncated to `count` tori."""
    pp = as_prime(p)
    out = []
    t = 0
    while len(out) < count and t < pp.p:
        if (t * t - 4) % pp.p != 0:
            out.append(make_torus(t, pp))
        t += 1
    if len(out) < count:
        raise ValueError(f"only {len(out)} tori available at p={pp.p}")
    return out


def flag_family(p, r: int, seed: int) -> list[Flag]:
    """r flags on pairwise-distinct origin lines with pairwise-distinct
    non-degenerate Weil vectors, drawn from a fixed torus roster (cycled).
    Line i gets slope i (vertical last when r = p+1)."""
    pp = as_prime(p)
    if not 0 <= r <= pp.p + 1:
        raise ValueError("a flag family holds 0 to p+1 flags (one per origin line)")
    roster = default_torus_roster(pp, min(max(r, 1), 8))
    rng = np.random.default_rng(seed)
    free = [~_orbit(T).degenerate for T in roster]  # indices each torus can still give
    flags = []
    for i in range(r):
        slope = None if i == pp.p else i
        L = Line(slope, pp)
        ti = i % len(roster)
        T = roster[ti]
        candidates = np.flatnonzero(free[ti])
        if not candidates.size:
            raise ValueError("insufficient non-degenerate eigenvectors in roster")
        eig = int(rng.choice(candidates))
        free[ti][eig] = False
        b = int(rng.integers(0, pp.p))
        flags.append(flag_waveform(L, T, b, eig))
    return flags
