"""Line systems: eigenbases of commuting Heisenberg operators and crosses."""

import numpy as np
import pytest

from helpers import line_basis_oracle

from tfshift import (
    Line,
    as_prime,
    cross_family,
    cross_waveform,
    heisenberg_op,
    inner,
    line_basis,
    line_points,
    line_vector,
    lines_through_origin,
    mf_full,
)


def gram(vectors):
    A = np.stack([w.signal.samples for w in vectors])
    return A @ A.conj().T


@pytest.mark.parametrize("slope", [0, 1, 7, None])
def test_line_basis_orthonormal(slope):
    p = as_prime(31)
    basis = line_basis(Line(slope, p))
    assert len(basis) == 31
    G = gram(basis)
    assert np.abs(G - np.eye(31)).max() < 1e-9


@pytest.mark.parametrize("slope", [0, 2, None])
def test_line_basis_common_eigenvectors(slope):
    # every basis vector is eigen under pi(l) for every l on the line:
    # pi(l) f = c f with |c| = 1
    p = as_prime(31)
    L = Line(slope, p)
    basis = line_basis(L)
    for f in basis[:6]:
        for l in line_points(L)[:5]:
            g = heisenberg_op(f.signal, l)
            c = inner(g, f.signal)
            assert abs(abs(c) - 1.0) < 1e-9
            assert np.abs(g.samples - c * f.signal.samples).max() < 1e-9


def test_line_basis_matches_independent_construction():
    # the two routes may order the common eigenvectors differently, so ask
    # for a phase-permutation match: |cross Gram| is a permutation matrix
    p = as_prime(31)
    for slope in (0, 5, None):
        A = np.stack([w.signal.samples for w in line_basis(Line(slope, p))])
        B = np.stack([w.signal.samples for w in line_basis_oracle(Line(slope, p))])
        G = np.abs(A @ B.conj().T)
        assert G.shape == (31, 31)
        assert np.abs(G.max(axis=1) - 1.0).max() < 1e-9
        assert np.abs(G.max(axis=0) - 1.0).max() < 1e-9
        assert np.abs(G.sum(axis=1) - 1.0).max() < 1e-7
        assert np.abs(G.sum(axis=0) - 1.0).max() < 1e-7


def test_line_vector_indexing():
    p = as_prime(31)
    L = Line(4, p)
    f = line_vector(L, 7)
    assert f.line == L and f.index == 7
    assert f.signal.norm() == pytest.approx(1.0)
    assert np.array_equal(f.signal.samples, line_basis(L)[7].signal.samples)
    with pytest.raises(ValueError):
        line_vector(Line(4, p, offset=line_points(Line(0, p))[1]), 0)


def test_line_ambiguity_support():
    # |M[f,f]| = 1 on the carrier line, 0 off it, exhaustively at p = 31
    p = as_prime(31)
    for slope in (0, 3, None):
        L = Line(slope, p)
        f = line_vector(L, 2).signal
        mags = mf_full(f, f).magnitudes()
        mask = np.zeros((31, 31), dtype=bool)
        for v in line_points(L):
            mask[v.tau, v.omega] = True
        assert np.abs(mags[mask] - 1.0).max() < 1e-9
        assert mags[~mask].max() < 1e-9


def test_distinct_line_pairs_flat():
    # vectors from different lines: |M| = 1/sqrt(p) at every plane point
    p = as_prime(31)
    f = line_vector(Line(0, p), 4).signal
    g = line_vector(Line(5, p), 9).signal
    mags = mf_full(f, g).magnitudes()
    assert np.abs(mags - 1 / np.sqrt(31)).max() < 1e-9


def test_cross_waveform_structure():
    p = as_prime(31)
    L, M = Line(0, p), Line(1, p)
    c = cross_waveform(L, M, 3, 8)
    assert c.lineL == L and c.lineM == M
    assert np.abs(c.signal.samples
                  - (c.fL.signal.samples + c.fM.signal.samples)).max() < 1e-12
    with pytest.raises(ValueError):
        cross_waveform(L, L, 0, 1)


def test_cross_ambiguity_levels():
    p = 31
    pp = as_prime(p)
    eps = 2 / np.sqrt(p)
    c = cross_waveform(Line(2, pp), Line(7, pp), 1, 5)
    mags = mf_full(c.signal, c.signal).magnitudes()
    on_l = np.zeros((p, p), dtype=bool)
    on_m = np.zeros((p, p), dtype=bool)
    for v in line_points(c.lineL):
        on_l[v.tau, v.omega] = True
    for v in line_points(c.lineM):
        on_m[v.tau, v.omega] = True
    origin = np.zeros((p, p), dtype=bool)
    origin[0, 0] = True
    assert abs(mags[0, 0] - 2.0) <= eps + 1e-9
    lines_only = (on_l | on_m) & ~origin
    assert np.abs(mags[lines_only] - 1.0).max() <= eps + 1e-9
    assert mags[~(on_l | on_m)].max() <= eps + 1e-9


def test_cross_family_composition():
    p = 31
    fam = cross_family(p, seed=0)
    assert len(fam) == (p + 1) // 2
    used = []
    for c in fam:
        assert c.lineL != c.lineM
        used.extend([c.lineL, c.lineM])
    # consecutive pairing over the full origin-line roster: no line reused
    assert len(used) == len(set(used)) == p + 1
    assert used == lines_through_origin(p)
    # deterministic in the seed
    fam2 = cross_family(p, seed=0)
    for a, b in zip(fam, fam2):
        assert np.array_equal(a.signal.samples, b.signal.samples)
    fam3 = cross_family(p, seed=1)
    assert any(a.lineL != b.lineL or a.fL.index != b.fL.index
               for a, b in zip(fam, fam3))


@pytest.mark.parametrize("p", [31, 101, 1009])
def test_cross_family_count_is_a_prefix(p):
    # a count builds only its crosses, with the same lines and basis draws
    # as the whole family's first ones
    fam = cross_family(p, seed=3)
    for r in (0, 1, 3, len(fam)):
        part = cross_family(p, 3, r)
        assert len(part) == r
        for a, b in zip(part, fam):
            assert (a.lineL, a.lineM, a.fL.index, a.fM.index) == (b.lineL, b.lineM,
                                                                  b.fL.index, b.fM.index)
            assert np.array_equal(a.signal.samples, b.signal.samples)
    for r in (-1, len(fam) + 1):
        with pytest.raises(ValueError, match="holds 0 to"):
            cross_family(p, 3, r)
