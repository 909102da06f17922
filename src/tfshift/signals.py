"""The Hilbert space of digital signals C(F_p), Heisenberg operators, and the
exact matched-filter matrix.

mf_entry is the literal defining sum and serves as the correctness oracle for
every fast path in the package. mf_full computes the whole p x p matrix as p
vertical line scans (fixed tau, all omega) of fastmf's line kernel, in
blocks of rows that fit its kept buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package

from . import fastmf
from .gfp import PlanePoint, Prime, _chirp, as_prime


@dataclass(frozen=True, eq=False)
class Signal:
    """A length-p complex vector of finite samples indexed by t in F_p. Immutable."""

    p: Prime
    samples: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        pp = as_prime(self.p)
        object.__setattr__(self, "p", pp)
        s = np.array(self.samples, dtype=np.complex128)
        if s.shape != (pp.p,):
            raise ValueError(f"expected {pp.p} samples, got shape {s.shape}")
        if not np.isfinite(s.view(np.float64)).all():  # the view halves the cost
            raise ValueError("signal samples must be finite (no NaN or inf)")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)
        if self.normalized:
            # a ufunc sum, not np.linalg.norm, whose BLAS call can wait on its thread pool
            f = s.view(np.float64)
            if abs(np.sqrt(np.add.reduce(f * f)) - 1.0) > 1e-12:
                raise ValueError("signal marked normalized but norm differs from 1")

    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))


def delta(p, b: int = 0) -> Signal:
    pp = as_prime(p)
    s = np.zeros(pp.p, dtype=np.complex128)
    s[b % pp.p] = 1.0
    return Signal(pp, s, normalized=True)


def const_signal(p) -> Signal:
    pp = as_prime(p)
    s = np.full(pp.p, 1.0 / np.sqrt(pp.p), dtype=np.complex128)
    return Signal(pp, s, normalized=True)


def random_signal(p, seed: int) -> Signal:
    """Pseudo-random unit-norm signal: i.i.d. uniform phases, constant modulus."""
    pp = as_prime(p)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, pp.p)
    s = np.exp(1j * phases) / np.sqrt(pp.p)
    return Signal(pp, s, normalized=True)


def awgn(p, sigma: float, seed: int) -> Signal:
    """White Gaussian noise: per-sample variance sigma^2, split evenly between
    real and imaginary parts, so E||W||^2 = p * sigma^2."""
    pp = as_prime(p)
    return Signal(pp, awgn_rows(pp.p, sigma, [seed])[0])


def awgn_rows(p: int, sigma: float, seeds, out: np.ndarray | None = None,
              planes: np.ndarray | None = None) -> np.ndarray:
    """A (len(seeds), p) stack of noise: row i holds awgn(p, sigma, seeds[i]),
    the real parts drawn before the imaginary parts from default_rng(seeds[i]).

    The stack is written into out, a (len(seeds), p) complex array, and the
    normal draws into planes, a (2, len(seeds), p) float array; either is
    allocated when not given, so a caller that reuses both allocates no
    array (numpy's ufunc buffers aside, about 128 KB a call)."""
    if not 0 <= sigma < np.inf:  # NaN fails too
        raise ValueError("sigma must be finite and nonnegative")
    z = np.empty((2, len(seeds), p)) if planes is None else planes
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=z[0, i])
        rng.standard_normal(out=z[1, i])
    scale = sigma / np.sqrt(2.0)
    out = np.empty((len(seeds), p), dtype=np.complex128) if out is None else out
    np.multiply(1j, z[1], out=out)  # scale * (z[0] + 1j * z[1]), in place
    np.add(z[0], out, out=out)
    return np.multiply(scale, out, out=out)


def inner(f1: Signal, f2: Signal) -> complex:
    """Standard inner product sum_t f1(t) conj(f2(t))."""
    if f1.p != f2.p:
        raise ValueError("mismatched moduli")
    return complex(np.vdot(f2.samples, f1.samples))


def time_shift(f: Signal, tau: int) -> Signal:
    """L_tau[f](t) = f(t + tau)."""
    return Signal(f.p, np.roll(f.samples, -(tau % f.p.p)), normalized=f.normalized)


def modulate(f: Signal, omega: int) -> Signal:
    """M_omega[f](t) = e^{(2 pi i/p) omega t} f(t)."""
    return Signal(f.p, _chirp(f.p.p, 0, omega) * f.samples, normalized=f.normalized)


def heisenberg_op(f: Signal, v: PlanePoint) -> Signal:
    """pi(tau, omega) = M_omega o L_tau, built as one Signal."""
    if v.p != f.p:
        raise ValueError("mismatched moduli")
    shifted = np.roll(f.samples, -v.tau)
    return Signal(f.p, _chirp(f.p.p, 0, v.omega) * shifted, normalized=f.normalized)


def add(f1: Signal, f2: Signal) -> Signal:
    if f1.p != f2.p:
        raise ValueError("mismatched moduli")
    return Signal(f1.p, f1.samples + f2.samples)


def scale(f: Signal, c: complex) -> Signal:
    return Signal(f.p, c * f.samples)


def mf_entry(S: Signal, R: Signal, v: PlanePoint) -> complex:
    """One matched-filter entry: <pi(v) S, R> = sum_t e^{(2 pi i/p) w t} S(t+tau) conj(R(t))."""
    if S.p != R.p:
        raise ValueError("mismatched moduli")
    return inner(heisenberg_op(S, v), R)


def mfi_coefficient(v: PlanePoint, vj: PlanePoint) -> complex:
    """Phase linking a superposed receiver to shifted autocorrelations.

    For noiseless R = sum_j b_j pi(v_j) S_j,

        M[S_k, R](v) = sum_j b_j zeta_j M[S_k, S_j](v - v_j),

    with zeta_j = e^{(2 pi i/p)(tau_j omega_j - omega tau_j)}: it comes from
    pi(v_j)^{-1} pi(v) = zeta_j pi(v - v_j), and equals 1 at v = v_j.
    """
    if v.p != vj.p:
        raise ValueError("mismatched moduli")
    p = v.p.p
    return complex(np.exp(2j * np.pi * ((vj.tau * vj.omega - v.omega * vj.tau) % p) / p))


@dataclass(frozen=True, eq=False)
class MFMatrix:
    """Full matched-filter matrix; entries[tau, omega] = M[S,R](tau, omega)."""

    p: Prime
    entries: np.ndarray

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.entries)

    def argmax(self) -> tuple[int, int]:
        k = int(np.argmax(np.abs(self.entries)))
        return (k // self.p.p, k % self.p.p)


def mf_full(S: Signal, R: Signal) -> MFMatrix:
    """All p^2 entries as the p vertical lines tau0 = 0..p-1: row tau holds
    M(tau, w) for w = 0..p-1, scanned by fastmf's line kernel in blocks of
    rows (fastmf._mf_rows). ValueError on mismatched moduli, before any
    transform."""
    return MFMatrix(S.p, fastmf._mf_rows(S, R, S.p.p))
