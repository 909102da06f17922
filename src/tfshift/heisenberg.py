"""The Heisenberg (lines) system and cross waveforms.

For each line L through the origin the operators {pi(l): l in L} commute and
share an orthonormal eigenbasis B_L of p signals whose ambiguity is supported
exactly on L. The vertical line gives the delta basis; the line of slope m
gives chirps with quadratic phase -2^{-1} m t^2. A cross waveform is the raw
sum of basis vectors from two distinct lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gfp import Line, _chirp, as_prime, inv
from .signals import Signal, add, delta


@dataclass(frozen=True, eq=False)
class HeisenbergVector:
    """A common eigenfunction f of {pi(l): l in line}, unit norm."""

    line: Line
    index: int
    signal: Signal


@dataclass(frozen=True, eq=False)
class Cross:
    """S_{L,M} = f_L + f_M for two distinct origin lines; unnormalized sum.

    Only the sum's samples are kept, with the recipe: the lines and the basis
    indices bL, bM (in 0..p-1). fL and fM are rebuilt from it on access."""

    lineL: Line
    lineM: Line
    bL: int
    bM: int
    signal: Signal

    @property
    def fL(self) -> HeisenbergVector:
        return line_vector(self.lineL, self.bL)

    @property
    def fM(self) -> HeisenbergVector:
        return line_vector(self.lineM, self.bM)

    @property
    def scan_lines(self) -> tuple[Line, Line]:
        """(carrier line, stage-1 line): L, and M, which is already transverse to L."""
        return self.lineL, self.lineM


def line_vector(L: Line, b: int) -> HeisenbergVector:
    """The b-th basis vector of B_L in closed form.

    Vertical: delta_b. Slope m: f_{m,b}(t) = p^{-1/2} e^{(2 pi i/p)(-2^{-1} m t^2 + b t)}.
    """
    if not L.through_origin():
        raise ValueError("line bases are defined for origin lines only")
    p = L.p.p
    b = b % p
    if L.is_vertical:
        return HeisenbergVector(L, b, delta(L.p, b))
    s = _chirp(p, -inv(2, L.p) * L.slope, b) / np.sqrt(p)
    return HeisenbergVector(L, b, Signal(L.p, s, normalized=True))


def line_basis(L: Line) -> list[HeisenbergVector]:
    """All p basis vectors of B_L, indexed b = 0..p-1."""
    return [line_vector(L, b) for b in range(L.p.p)]


def cross_waveform(L: Line, M: Line, bL: int, bM: int) -> Cross:
    """The cross S_{L,M} = f_L + f_M (raw sum, not renormalized)."""
    if L == M:
        raise ValueError("cross requires two distinct lines")
    if not (L.through_origin() and M.through_origin()):
        raise ValueError("cross lines must pass through the origin")
    fL = line_vector(L, bL)
    fM = line_vector(M, bM)
    return Cross(L, M, fL.index, fM.index, add(fL.signal, fM.signal))


def cross_family(p, seed: int, count: int | None = None) -> list[Cross]:
    """The first `count` (default all (p+1)/2) crosses on disjoint line pairs.

    The p+1 origin lines in canonical order (slopes 0..p-1, vertical last) are
    paired consecutively (2i with 2i+1), so any two family members involve four
    distinct lines. Basis indices are drawn deterministically from the seed,
    cross by cross, so a count takes a prefix of the whole family and builds
    only its own lines. ValueError if count lies outside 0..(p+1)/2.
    """
    pp = as_prime(p)
    size = (pp.p + 1) // 2
    count = size if count is None else count
    if not 0 <= count <= size:
        raise ValueError(f"a cross family holds 0 to {size} waveforms")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        L, M = (Line(m if m < pp.p else None, pp) for m in (2 * i, 2 * i + 1))
        bL = int(rng.integers(0, pp.p))
        bM = int(rng.integers(0, pp.p))
        out.append(cross_waveform(L, M, bL, bM))
    return out
