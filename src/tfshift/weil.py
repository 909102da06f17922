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
them in O(log p) FFTs. Each step applies rho^h = c(h) rho(g^h): rho(g^h) is
the closed-form kernel, built at its step and dropped after, and c(h) is a
fourth root of unity in closed form (_power_scalar). The ladder's steps
depend on n only, so the vectors of every torus of one order climb one
ladder as one stack, one transform call a step for all of them. The one
cached record per torus (_special_key) is one integer read off tr rho in
O(p), the key that fixes its whole spectrum. One builder (_vectors)
projects any set of (torus, eigenvalue index) pairs in at most two ladders,
one per torus order, and checks the result; torus_vector (one vector, built
on each call), flag_family (its r vectors at once) and torus_eigenbasis
(all p, O(p^2) memory, for tests, demos and full-basis callers) all call
it. A Flag keeps its samples and its recipe, not its parts.
A torus is found by make_torus in O(log^2 p) integer products per candidate
row of its centralizer, from one modular square root (gfp.sqrt_mod). Only
numpy's FFT runs; nothing calls LAPACK. weil_operator is the dense matrix,
for tests and demos.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfp import (Line, PlanePoint, Prime, _chirp, _factor, _phase, as_prime, inv, legendre,
                  sqrt_mod, transverse_line)
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
        x, y = (self.a, self.b, self.c, self.d), (o.a, o.b, o.c, o.d)
        return GroupElement(*_mat_mul(x, y, self.p.p), self.p)

    def power(self, n: int) -> "GroupElement":
        n = int(n)
        if n < 0:
            return self.inverse().power(-n)
        return GroupElement(*_mat_pow((self.a, self.b, self.c, self.d), n, self.p.p), self.p)

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


def _rho(*gs: GroupElement, which=None):
    """rho(g) as a map on the rows of a (..., p) stack, from the closed-form
    kernel, with e(z) = e^{(2 pi i/p) z} and divisions taken in F_p:

        b != 0:  rho[x, y] = p^{-1/2} e((-d x^2 + 2 x y - a y^2) / (2b)),
        b == 0:  rho[x, d x] = e(-c d x^2 / 2), zero elsewhere.

    The first is a chirp, a length-p transform read at x/b and a second
    chirp, O(p log p) per row; the second a chirp on a dilation. The global
    phase makes rho[0, 0] real and positive (it is p^{-1/2} or 1). The
    transform is numpy's own, so fastmf.counters count only matched-filter
    transforms.

    Given several elements, the map takes a (N, p) stack and applies
    rho(gs[which[i]]) to row i (N = len(gs) and which[i] = i if which is
    None), with one transform call for every row. Each element's chirps and
    gather index are built once, and read for each of its rows through which:
    the chirps of every element as one gfp._chirp stack, the index by
    gfp._phase. The elements must then all have b != 0 or all b = 0, as the
    powers g^h of one ladder step do (g^h has b = 0 only at +-I)."""
    p = gs[0].p.p
    if all(g.b for g in gs):
        coef = [(-g.a * k, -g.d * k, pow(g.b, -1, p)) for g in gs for k in [pow(2 * g.b, -1, p)]]
    elif any(g.b for g in gs):
        raise ValueError("elements with b = 0 and b != 0 in one stack")
    else:
        coef = [(0, -g.c * g.d * pow(2, -1, p), g.d) for g in gs]
    c = np.array(coef).T[:, :, None]  # (3, len(gs), 1): a column per coefficient
    rows = 0 if len(gs) == 1 else slice(None) if which is None else which
    (pre, post), at = _chirp(p, c[:2])[:, rows], _phase(p, 0, c[2])[rows]
    gather = (lambda Y: Y[..., at]) if at.ndim == 1 else (lambda Y: np.take_along_axis(Y, at, -1))
    # np.multiply, not *: numpy's complex product is not commutative bit for
    # bit, and * on a large temporary reuses it as the first operand
    if gs[0].b:
        return lambda F: np.multiply(post, gather(np.fft.ifft(pre * F, norm="ortho")))
    return lambda F: np.multiply(post, gather(F))


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


def _mat_mul(x: tuple, y: tuple, p: int) -> tuple:
    """x y for 2x2 matrices x, y = (a, b, c, d) mod p, in ints."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def _mat_pow(m: tuple, e: int, p: int) -> tuple:
    """m^e for a 2x2 matrix m = (a, b, c, d) mod p, by squaring."""
    r = (1, 0, 0, 1)
    while e:
        if e & 1:
            r = _mat_mul(r, m, p)
        m, e = _mat_mul(m, m, p), e >> 1
    return r


@lru_cache(maxsize=64)
def make_torus(trace_class: int, p) -> Torus:
    """The torus containing a regular element of the given trace.

    With g0 = [[t,-1],[1,0]], the centralizer is {a*I + b*g0} intersected with
    SL2, i.e. pairs (a, b) with a^2 + a b t + b^2 = 1. The torus is split of
    order p-1 when t^2-4 is a nonzero square, nonsplit of order p+1 when it is
    a nonsquare; t^2 = 4 is parabolic and rejected. The generator is the first
    centralizer element of full order in lexicographic (a, b) order. For each
    a in turn, the b on the centralizer are the roots of the quadratic
    b^2 + a t b + (a^2 - 1) = 0, (-a t +- s)/2 with s a square root of its
    discriminant a^2 (t^2 - 4) + 4 (gfp.sqrt_mod); they are tried in
    ascending b, so the search meets the generator the full (a, b) scan
    would, in O(log^2 p) products a value of a, not O(p). A full-order
    element typically turns up within a few values of a (a = 2 or 3 for the
    roster tori at p = 100003 and 1000003). Tori are cached (a Torus is
    immutable).
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
    one, half = (1, 0, 0, 1), (pi + 1) // 2
    for a in range(pi):
        s = sqrt_mod(a * a * disc + 4, pp)
        if s is None:
            continue
        for b in sorted({(-a * t + s) * half % pi, (-a * t - s) * half % pi}):
            g = ((a + b * t) % pi, -b % pi, b, a)
            if g == one or any(_mat_pow(g, order // q, pi) == one for q in primes):
                continue
            if _mat_pow(g, order, pi) != one:
                continue
            return Torus(GroupElement(*g, pp), kind, order)
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


@lru_cache(maxsize=8)
def _special_key(T: Torus) -> int:
    """The one cached record of T, n = T.order: the key k0 of the special
    eigenvalue e^{i pi k0/n} of rho(T.generator), which fixes its spectrum.

    Read off the trace in O(p): rho^n is a scalar, and the eigenvalues are
    the n lattice points e^{i pi k/n} of the parity of k0, each once, except
    that a split torus (n = p-1) has k0 twice and a nonsplit torus
    (n = p+1) misses it. The n points of one parity sum to 0, so tr rho is
    the double eigenvalue of a split torus and minus the missing one of a
    nonsplit torus; on the diagonal of the kernel, tr rho =
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
    return k0


def _project(tori: list[Torus], which: np.ndarray, keys: np.ndarray,
             X: np.ndarray) -> np.ndarray:
    """The (N, p) stack of P_k x = (1/n) sum_{j<n} z^j x, z = e^{-i pi k/n} rho,
    row i for the torus tori[which[i]], its key k = keys[i] and the reference
    row x = X[i], where every torus has the same order n.

    P_k projects onto the e^{i pi k/n}-eigenspace of rho = rho(g),
    g the torus generator: rho^n is a scalar and every eigenvalue has the
    parity of k, so the sum cancels every other eigenvalue, and z^n = 1. A
    doubling ladder sums it: G_e = sum_{j<e} z^j x climbs from G_1 = x over
    the bits of n after the leading one, to G_{2e} = G_e + z^e G_e for each
    bit and then to G_{e+1} = x + z G_e if the bit is set, and ends at G_n.
    The steps depend on n only, so every row climbs in the same ladder: a
    step applies to each row z^h = c(h) e^{-i pi k h/n} rho(g^h) of its own
    torus (_power_scalar, _rho), built for that step only, as at most one
    transform call for the whole stack (none at g^h = -I, the last), so the
    memory is O(N p); each g^e climbs alongside, one product a step.
    """
    gs = [T.generator for T in tori]
    n = tori[0].order

    def z(h, us, G):  # z^h G, us[j] = gs[j]^h
        c = np.array([_power_scalar(g, u, h) for g, u in zip(gs, us)])[which]
        c = c * np.exp(-1j * np.pi * (keys * h % (2 * n)) / n)
        return np.multiply(c[:, None], _rho(*us, which=which)(G))

    G, e, us = X, 1, gs
    for bit in bin(n)[3:]:
        G, e, us = G + z(e, us, G), 2 * e, [u.mul(u) for u in us]
        if bit == "1":
            G, e, us = X + z(1, gs, G), e + 1, [u.mul(g) for u, g in zip(us, gs)]
    return G / n


def _unit(P: np.ndarray) -> np.ndarray:
    """The rows of a (N, p) stack P over their norms. A row is the projection
    of a unit reference vector x, so its norm is |<v, x>| for the unit vector
    v it gives: RuntimeError if that is below PHASE_FLOOR. Each norm is taken
    over its row alone, as a (1, p) stack: numpy sums a stack's rows in an
    order that depends on its height, and a vector must have the same bits
    whether it is built alone or in a stack."""
    norms = np.array([np.linalg.norm(P[i:i + 1], axis=-1) for i in range(len(P))])
    if norms.min() < PHASE_FLOOR:
        raise RuntimeError("eigenvector too close to orthogonal to the phase reference")
    return P / norms


def _vectors(tori: list[Torus], index) -> list[WeilVector]:
    """The WeilVector of eig_index index[i] of torus tori[i], for each i, each
    the unit projection of random_signal(p, 0) on its eigenspace (_project),
    which meets the phase rule by itself, since <P x, x> = ||P x||^2 > 0.
    The tori of one order n share one stacked ladder, so a request of any
    size runs at most two: n = p-1 (split) and n = p+1 (nonsplit), and an
    empty one none.
    Index i names key k0 + 2(j - [j > 0]) of a split torus, degenerate at
    j = 0 and 1, and k0 + 2(j + [j >= 0]) of a nonsplit one, with
    k0 = _special_key(T) and j = i - k0//2: the keys in increasing order.
    The degenerate key of a split torus gets an orthonormal pair that meets
    the rule too: u and w the unit projections of random_signal(p, 0) and
    random_signal(p, 1), w made orthogonal to u, then (u + w)/sqrt 2 and
    (u - w)/sqrt 2, both with <v, random_signal(p, 0)> = ||P x||/sqrt 2; the
    projection of random_signal(p, 1) is one more row of the same ladder.
    RuntimeError unless every v meets ||rho v - lambda v|| <= LATTICE_TOL,
    checked by one stacked rho apply per ladder."""
    index = np.asarray(index)
    out = [None] * len(tori)
    for n in sorted({T.order for T in tori}):
        rows = [i for i, T in enumerate(tori) if T.order == n]
        group = list(dict.fromkeys(tori[i] for i in rows))
        pp = group[0].generator.p
        which = np.array([group.index(tori[i]) for i in rows])
        k0 = np.array([_special_key(T) for T in group])
        j = index[rows] - k0[which] // 2
        split = n == pp.p - 1
        keys = k0[which] + 2 * (j - (j > 0) if split else j + (j >= 0))
        deg = split & (j >= 0) & (j <= 1)
        lam = np.exp(1j * np.pi * keys / n)
        paired = sorted(set(which[deg].tolist()))  # tori asked for a degenerate vector
        ref = np.repeat([0, 1], [len(rows), len(paired)])  # random_signal(p, 1) if paired
        P = _project(group, np.r_[which, np.array(paired, dtype=int)], np.r_[keys, k0[paired]],
                     _reference(pp.p, *range(ref.max() + 1))[ref])
        V = _unit(P[:len(rows)])
        for m, t in enumerate(paired):
            d = np.flatnonzero(deg & (which == t))
            u, w = _unit(P[[d[0], len(rows) + m]])
            (w,) = _unit((w - np.vdot(u, w) * u)[None])
            pair = np.stack([u + w, u - w]) / np.sqrt(2)
            V[d] = pair[j[d]]
        rho = _rho(*(T.generator for T in group), which=which)
        if np.linalg.norm(rho(V) - lam[:, None] * V, axis=1).max() > LATTICE_TOL:
            raise RuntimeError("Weil vector fails its eigenvalue equation")
        for i, t, e, v, dg in zip(rows, which, lam, V, deg):
            out[i] = WeilVector(group[t], complex(e), Signal(pp, v), bool(dg))
    return out


def torus_vector(T: Torus, index: int) -> WeilVector:
    """The eigenvector torus_eigenbasis(T)[index] names, built with no p x p
    array by _vectors: O(log p) transforms of length p, on every call.
    ValueError for an index outside 0..p-1, raised before any torus work."""
    p = T.generator.p.p
    if not 0 <= index < p:
        raise ValueError(f"eig_index {index} is not in 0..{p - 1}")
    return _vectors([T], [index])[0]


@lru_cache(maxsize=8)
def torus_eigenbasis(T: Torus) -> tuple[WeilVector, ...]:
    """Orthonormal eigenbasis of the torus action, sorted by exact eigenvalue.

    The eigenvalues of rho = rho(generator) lie on the lattice e^{i pi k/n},
    n = T.order, and follow from one key read off the trace, k0 =
    _special_key(T). Vectors are sorted by the integer k, so the key k0 that
    a split torus gives two vectors sits at indices k0//2 and k0//2 + 1, both
    marked degenerate. Phase rule:
    <v, random_signal(p, 0)> is real and positive (RuntimeError if below
    PHASE_FLOOR). The vectors are torus_vector's, built as one (p, p) stack
    by _vectors; flag_waveform and `gen --kind weil` refuse a degenerate
    one. O(p^2) memory: for tests, demos and full-basis callers; a flag
    needs one vector (torus_vector).
    """
    p = T.generator.p.p
    return tuple(_vectors([T] * p, np.arange(p)))


# ------------------------------------------------------------------ flags

@dataclass(frozen=True, eq=False)
class Flag:
    """S_L = f_L + phi_T: Heisenberg line vector plus Weil peak vector (raw sum).

    Only the sum's samples are kept, with the recipe: the line, the torus, the
    line-vector index b_index (in 0..p-1) and the torus eigenvector index
    eig_index. fL is rebuilt from it on access in closed form, and phiT by
    torus_vector."""

    line: Line
    torus: Torus
    b_index: int
    eig_index: int
    signal: Signal

    @property
    def fL(self) -> HeisenbergVector:
        return line_vector(self.line, self.b_index)

    @property
    def phiT(self) -> WeilVector:
        return torus_vector(self.torus, self.eig_index)

    @property
    def scan_lines(self) -> tuple[Line, Line]:
        """(carrier line, stage-1 line): the flag's line and its transverse line."""
        return self.line, transverse_line(self.line)


def flag_waveform(L: Line, T: Torus, b_index: int, eig_index: int) -> Flag:
    """Build a flag from the b-th line vector and the eig_index-th torus
    eigenvector (0..p-1, in torus_eigenbasis order), built alone by
    torus_vector. Degenerate eigenvectors are refused: their peak behavior
    carries no guarantee."""
    return _flag(L, b_index, eig_index, torus_vector(T, eig_index))


def _flag(L: Line, b_index: int, eig_index: int, phi: WeilVector) -> Flag:
    if phi.degenerate:
        raise ValueError("degenerate Weil eigenvector requested for a flag")
    fL = line_vector(L, b_index)
    return Flag(L, phi.torus, fL.index, eig_index, add(fL.signal, phi.signal))


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
    Line i gets slope i (vertical last when r = p+1). The vectors are
    torus_vector's, built together in one stacked ladder per torus order
    (_vectors)."""
    pp = as_prime(p)
    if not 0 <= r <= pp.p + 1:
        raise ValueError("a flag family holds 0 to p+1 flags (one per origin line)")
    roster = default_torus_roster(pp, min(max(r, 1), 8))
    rng = np.random.default_rng(seed)
    # the indices each torus can no longer give, sorted: its degenerate pair
    # (_vectors), then each pick
    taken = [[_special_key(T) // 2 + d for d in (0, 1)] if T.kind == "split" else []
             for T in roster]
    picks = []
    for i in range(r):
        ti = i % len(roster)
        eig = int(rng.integers(0, pp.p - len(taken[ti])))  # the eig-th free index
        for t in taken[ti]:
            eig += t <= eig
        bisect.insort(taken[ti], eig)
        picks.append((roster[ti], eig, int(rng.integers(0, pp.p))))
    phis = _vectors([T for T, _, _ in picks], [eig for _, eig, _ in picks])
    return [_flag(Line(None if i == pp.p else i, pp), b, eig, phi)
            for i, ((_, eig, b), phi) in enumerate(zip(picks, phis))]
