"""The Weil (peaks) system: SL2(F_p), Weil representation operators, torus
eigenbases, and Heisenberg-Weil flag waveforms.

The operator rho(g) is the unitary that conjugates the time-frequency shift
operators according to the linear action of g on the plane. The construction
averages over the plane: with the symmetrized shifts

    sigma(tau, omega) = e^{(2 pi i/p) 2^{-1} tau omega} pi(tau, omega),

whose composition scalar depends only on the symplectic form (and is therefore
SL2-invariant), the sum rho0 = sum_v sigma(g v) A sigma(v)^{-1} commutes with
the g-action for any seed matrix A and spans the one-dimensional solution
space; unitarization and a deterministic phase fix yield rho(g). The exact
intertwining law is

    rho(g) sigma(v) = sigma(g v) rho(g)          for all v,

equivalently, on the plain operators,

    rho(g) pi(v) = e^{(2 pi i/p) 2^{-1} (q(gv) - q(v))} pi(g v) rho(g),

with q(tau, omega) = tau * omega. The scalar is identically 1 on v with
q(gv) = q(v) but not in general; it is forced by the pi composition law
pi(a) pi(b) = e^{(2 pi i/p) tau_a omega_b} pi(a+b), whose scalar is not
SL2-invariant. Eigenspaces of rho are unaffected by any of this phase
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfp import Line, PlanePoint, Prime, as_prime, inv, legendre
from .heisenberg import HeisenbergVector, line_vector
from .signals import Signal, add, heisenberg_op


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


def _axis_stack(z: np.ndarray, r0: int, r1: int, p: int) -> np.ndarray:
    """Columns sigma((r0*k, r1*k)) z for k = 0..p-1."""
    inv2 = pow(2, -1, p)
    t = np.arange(p)
    k = np.arange(p)
    psi = np.exp(2j * np.pi * np.arange(p) / p)
    gathered = z[(t[:, None] + (r0 * k % p)[None, :]) % p]
    grid = psi[np.outer(t, r1 * k % p) % p]
    col = psi[(inv2 * r0 % p) * r1 % p * (k * k % p) % p]
    return gathered * grid * col[None, :]


def _averaged_intertwiner(g: GroupElement, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """rho0 = sum_v sigma(g v) (x y^*) sigma(v)^* without touching all p^2
    points: sigma factors along the two axes, sigma(tau,omega) =
    psi(-2^{-1} tau omega) sigma(tau,0) sigma(0,omega), and the psi factors of
    sigma(g v) and sigma(v)^* cancel, leaving
    rho0 = sum_tau sigma(a tau, c tau) B sigma(-tau, 0) with
    B = sum_omega sigma(b omega, d omega) (x y^*) sigma(0, -omega).
    The inner sum is one matrix product; the outer sum is p cyclic shifts of
    B with row phases. O(p^3) time, O(p^2) memory."""
    p = g.p.p
    inv2 = pow(2, -1, p)
    t = np.arange(p)
    psi = np.exp(2j * np.pi * np.arange(p) / p)
    U = _axis_stack(x, g.b, g.d, p)
    W = _axis_stack(y, 0, 1, p)
    B = U @ W.conj().T
    c0 = inv2 * g.a % p * g.c % p
    rho0 = np.zeros((p, p), dtype=np.complex128)
    for tau in range(p):
        ph = psi[(c0 * (tau * tau % p) + (g.c * tau % p) * t) % p]
        rho0 += ph[:, None] * np.roll(B, (-(g.a * tau % p), -tau), axis=(0, 1))
    return rho0


@lru_cache(maxsize=64)
def weil_operator(g: GroupElement) -> WeilOperator:
    """Construct rho(g) by plane averaging plus unitarization.

    rho0 = sum_v sigma(g v) A sigma(v)^* with A = x y^* a fixed seeded rank-1
    matrix; rho0 is a scalar multiple of rho(g), so dividing by one column
    norm unitarizes it. The global phase is fixed by making the first entry
    above threshold (row-major scan) positive real. Retries with the next
    seed vector pair in the measure-zero event that the scalar vanishes.
    """
    p = g.p.p
    for attempt in range(5):
        rng = np.random.default_rng(attempt)
        x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        y = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        rho0 = _averaged_intertwiner(g, x, y)
        s = np.linalg.norm(rho0[:, 0])
        if s < 1e-8 * p:
            continue
        rho = rho0 / s
        defect = np.max(np.abs(rho @ rho.conj().T - np.eye(p)))
        if defect > 1e-9:
            continue
        flat = rho.ravel()
        k = int(np.argmax(np.abs(flat) > 1e-8 * np.abs(flat).max()))
        rho = rho * (np.conj(flat[k]) / abs(flat[k]))
        rho.setflags(write=False)
        return WeilOperator(g, rho)
    raise RuntimeError("averaging intertwiner degenerate for all seed matrices")


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


def make_torus(trace_class: int, p) -> Torus:
    """The torus containing a regular element of the given trace.

    With g0 = [[t,-1],[1,0]], the centralizer is {a*I + b*g0} intersected with
    SL2, i.e. pairs (a, b) with a^2 + a b t + b^2 = 1. The torus is split of
    order p-1 when t^2-4 is a nonzero square, nonsplit of order p+1 when it is
    a nonsquare; t^2 = 4 is parabolic and rejected. The generator is the first
    centralizer element of full order in lexicographic (a, b) scan.
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
    """A unit eigenvector of rho(T.generator); degenerate marks eigenvalue
    clusters of dimension >= 2, where the peak guarantee is not claimed."""

    torus: Torus
    eigenvalue: complex
    signal: Signal
    degenerate: bool


@lru_cache(maxsize=64)
def torus_eigenbasis(T: Torus) -> tuple[WeilVector, ...]:
    """Orthonormal eigenbasis of the torus action, sorted by eigenvalue angle.

    rho(generator) is unitary, hence normal, so the complex Schur form is a
    diagonalization with orthonormal columns. True eigenvalues are |T|-th
    roots of unity times a global phase, separated by at least 2 pi/(p+1);
    clustering tolerance 1e-6 with wraparound merge is far below that.
    """
    # scipy.linalg is loaded for Weil design only, and before weil_operator
    # allocates its p x p matrices, so the import adds nothing to their peak
    from scipy.linalg import schur

    rho = weil_operator(T.generator).matrix
    p = rho.shape[0]
    Tm, Z = schur(rho, output="complex")
    ev = np.diag(Tm)
    ang = np.angle(ev) % (2.0 * np.pi)
    order = np.argsort(ang, kind="stable")
    clusters: list[list[int]] = [[int(order[0])]]
    for i in order[1:]:
        if abs(ev[i] - ev[clusters[-1][-1]]) < 1e-6:
            clusters[-1].append(int(i))
        else:
            clusters.append([int(i)])
    if len(clusters) > 1 and abs(ev[clusters[0][0]] - ev[clusters[-1][-1]]) < 1e-6:
        clusters[0] = clusters.pop() + clusters[0]
    sep = 2.0 * np.sin(np.pi / (p + 1))
    for ci in range(len(clusters)):
        e1 = ev[clusters[ci][0]]
        e2 = ev[clusters[(ci + 1) % len(clusters)][0]]
        if len(clusters) > 1 and abs(e1 - e2) < 0.5 * sep:
            raise RuntimeError("eigenvalue clusters inconsistent with unit separation")
    out = []
    for c in clusters:
        lam = complex(np.mean(ev[c]))
        lam /= abs(lam)
        for i in c:
            out.append(WeilVector(T, lam, Signal(as_prime(p), Z[:, i]), len(c) > 1))
    return tuple(out)


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
    eigenvector. Degenerate eigenvectors are refused: their peak behavior
    carries no guarantee."""
    basis = torus_eigenbasis(T)
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
