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
SL2-invariant. The law fixes rho(g) up to a scalar; weil_operator builds it
from the explicit chirp kernel of Gurevich, Hadani and Sochen ("The finite
harmonic oscillator and its applications to sequences, communication and
radar", IEEE Trans. IT 2008) and fixes the phase by rho[0, 0] > 0.
Eigenspaces of rho are unaffected by any of this phase bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfp import Line, PlanePoint, Prime, as_prime, inv, legendre
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


@lru_cache(maxsize=64)
def weil_operator(g: GroupElement) -> WeilOperator:
    """rho(g) from its closed-form kernel, with e(z) = e^{(2 pi i/p) z}:

        b != 0:  rho[x, y] = p^{-1/2} e((-d x^2 + 2 x y - a y^2) / (2b)),
        b == 0:  rho[x, d x] = e(-c d x^2 / 2), zero elsewhere,

    divisions taken in F_p. The first is a chirp, a DFT read at x/b and a
    second chirp; the second a chirp on a dilation. The global phase makes
    rho[0, 0] real and positive (it is p^{-1/2} or 1). O(p^2) to fill.
    """
    p = g.p.p
    x = np.arange(p)
    xx = x * x % p
    psi = np.exp(2j * np.pi * x / p)
    if g.b:
        k = pow(2 * g.b, -1, p)
        expo = (-g.d * k % p) * xx[:, None] + (2 * k % p) * np.outer(x, x) % p \
            + (-g.a * k % p) * xx[None, :]
        rho = psi[expo % p] / np.sqrt(p)
    else:
        rho = np.zeros((p, p), dtype=np.complex128)
        rho[x, g.d * x % p] = psi[-g.c * g.d * pow(2, -1, p) % p * xx % p]
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


LATTICE_TOL = 1e-6  # largest accepted distance of an eigenvalue from its lattice point
PHASE_FLOOR = 1e-6  # smallest accepted |<v, random_signal(p, 0)>| for the phase rule


@lru_cache(maxsize=64)
def torus_eigenbasis(T: Torus) -> tuple[WeilVector, ...]:
    """Orthonormal eigenbasis of the torus action, sorted by exact eigenvalue.

    The eigenvalues of rho = rho(generator) lie on the lattice e^{i pi k/n},
    n = T.order (RuntimeError if one is more than LATTICE_TOL off). The
    Hermitian a + a^H, a = e^{-i phi} rho, takes rho's e^{i theta}-eigenvectors
    to 2 cos(theta - phi). With phi = pi/(4n) two lattice angles share a value
    only if they sum to pi/(2n), which is no multiple of pi/n; so eigh of a + a^H
    gives rho's eigenspaces orthonormal, and z^H rho z reads each eigenvalue.
    Vectors are sorted by the integer k, so the eigenvalue-1 vector comes
    first, and the one k that a split torus gives two vectors marks both
    degenerate. Phase rule: <v, random_signal(p, 0)> is real and positive
    (RuntimeError if below PHASE_FLOOR). A degenerate pair's basis is whatever
    the eigensolver returns; flag_waveform and `gen --kind weil` refuse it.
    """
    rho = weil_operator(T.generator).matrix
    p = T.generator.p
    n = T.order
    a = np.exp(-1j * np.pi / (4 * n)) * rho
    Z = np.linalg.eigh(a + a.conj().T)[1]
    ev = np.einsum("ij,ij->j", Z.conj(), rho @ Z)
    key = np.rint(n * np.angle(ev) / np.pi).astype(np.int64) % (2 * n)
    lam = np.exp(1j * np.pi * key / n)
    if np.abs(ev - lam).max() > LATTICE_TOL:
        raise RuntimeError("torus eigenvalues off the lattice e^{i pi k/n}")
    overlap = random_signal(p, 0).samples.conj() @ Z
    if np.abs(overlap).min() < PHASE_FLOOR:
        raise RuntimeError("eigenvector too close to orthogonal to the phase reference")
    Z = Z * (overlap.conj() / np.abs(overlap))
    order = np.argsort(key, kind="stable")
    shared = np.bincount(key, minlength=2 * n) > 1
    return tuple(WeilVector(T, complex(lam[i]), Signal(p, Z[:, i]), bool(shared[key[i]]))
                 for i in order)


# ------------------------------------------------------------------ flags

@dataclass(frozen=True, eq=False)
class Flag:
    """S_L = f_L + phi_T: Heisenberg line vector plus Weil peak vector (raw sum)."""

    line: Line
    torus: Torus
    fL: HeisenbergVector
    phiT: WeilVector
    signal: Signal


def flag_waveform(L: Line, T: Torus, b_index: int, eig_index: int) -> Flag:
    """Build a flag from the b-th line vector and the eig_index-th torus
    eigenvector (0..p-1, in torus_eigenbasis order). Degenerate eigenvectors
    are refused: their peak behavior carries no guarantee."""
    basis = torus_eigenbasis(T)
    if not 0 <= eig_index < len(basis):
        raise ValueError(f"eig_index {eig_index} is not in 0..{len(basis) - 1}")
    phi = basis[eig_index]
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
    if r > pp.p + 1:
        raise ValueError("at most p+1 flags (one per origin line)")
    roster = default_torus_roster(pp, min(max(r, 1), 8))
    rng = np.random.default_rng(seed)
    used: dict[int, set] = {i: set() for i in range(len(roster))}
    flags = []
    for i in range(r):
        slope = None if i == pp.p else i
        L = Line(slope, pp)
        ti = i % len(roster)
        T = roster[ti]
        basis = torus_eigenbasis(T)
        candidates = [k for k, w in enumerate(basis)
                      if not w.degenerate and k not in used[ti]]
        if not candidates:
            raise ValueError("insufficient non-degenerate eigenvectors in roster")
        eig = int(rng.choice(np.array(candidates)))
        used[ti].add(eig)
        b = int(rng.integers(0, pp.p))
        flags.append(flag_waveform(L, T, b, eig))
    return flags
