"""Weil representation: normalized shift operators, tori, peaks, flags."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import make_torus_oracle, psi, torus_eigenbasis_oracle, weil_operator_oracle

import tfshift
from tfshift import (
    GroupElement,
    Line,
    PlanePoint,
    Signal,
    as_prime,
    default_torus_roster,
    flag_family,
    flag_waveform,
    heisenberg_op,
    identity,
    inner,
    legendre,
    line_points,
    make_torus,
    mf_full,
    random_signal,
    sigma_op,
    torus_eigenbasis,
    weil,
    weil_operator,
)


def rho_matrix(g: GroupElement) -> np.ndarray:
    return weil_operator(g).matrix


def sigma_matrix(v: PlanePoint) -> np.ndarray:
    p = v.p.p
    cols = []
    for t in range(p):
        e = np.zeros(p, dtype=np.complex128)
        e[t] = 1.0
        cols.append(sigma_op(Signal(v.p, e), v).samples)
    return np.stack(cols, axis=1)


# ------------------------------------------------------------ sigma algebra

def test_sigma_is_phased_heisenberg():
    p = as_prime(31)
    f = random_signal(p, seed=1)
    inv2 = pow(2, -1, 31)
    for tau, om in [(0, 0), (1, 0), (0, 1), (5, 12), (30, 30)]:
        v = PlanePoint(tau, om, p)
        want = psi(inv2 * tau * om, 31) * heisenberg_op(f, v).samples
        assert np.abs(sigma_op(f, v).samples - want).max() < 1e-12


def test_sigma_symplectic_cocycle():
    # sigma(a) sigma(b) = psi(2^-1 (tau_a omega_b - omega_a tau_b)) sigma(a+b)
    p = as_prime(13)
    inv2 = pow(2, -1, 13)
    f = random_signal(p, seed=2)
    rng = np.random.default_rng(4)
    for _ in range(25):
        ta, oa, tb, ob = (int(x) for x in rng.integers(0, 13, size=4))
        a, b = PlanePoint(ta, oa, p), PlanePoint(tb, ob, p)
        lhs = sigma_op(sigma_op(f, b), a).samples
        rhs = psi(inv2 * (ta * ob - oa * tb), 13) * sigma_op(f, a + b).samples
        assert np.abs(lhs - rhs).max() < 1e-12


def test_sigma_adjoint_is_negation():
    p = as_prime(13)
    f = random_signal(p, seed=3)
    g = random_signal(p, seed=4)
    v = PlanePoint(5, 8, p)
    lhs = inner(sigma_op(f, v), g)
    rhs = inner(f, sigma_op(g, PlanePoint(-5, -8, p)))
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ----------------------------------------------------------- group elements

def test_group_element_validation():
    p = as_prime(31)
    g = GroupElement(1, 2, 3, 7, p)  # det = 7 - 6 = 1
    assert (g.a, g.b, g.c, g.d) == (1, 2, 3, 7)
    with pytest.raises(ValueError):
        GroupElement(1, 2, 3, 8, p)  # det = 2
    e = identity(p)
    assert (e.a, e.b, e.c, e.d) == (1, 0, 0, 1)


def test_group_mul_and_power_match_schoolbook_products():
    # mul and power run on the 2x2 helpers of make_torus; each must equal the
    # plain product and repeated multiplication, negative powers through the
    # inverse
    for p in (31, 1009):
        pp = as_prime(p)
        rng = np.random.default_rng(p)
        for _ in range(20):
            a, b, c = (int(x) for x in rng.integers(1, p, size=3))
            g = GroupElement(a, b, c, (1 + b * c) * pow(a, -1, p), pp)
            h = GroupElement(c, a, b, (1 + a * b) * pow(c, -1, p), pp)
            gh = g.mul(h)
            assert (gh.a, gh.b, gh.c, gh.d) == ((g.a * h.a + g.b * h.c) % p,
                                                (g.a * h.b + g.b * h.d) % p,
                                                (g.c * h.a + g.d * h.c) % p,
                                                (g.c * h.b + g.d * h.d) % p)
            want = identity(pp)
            for n in range(9):
                assert g.power(n) == want
                assert g.power(-n).mul(want).is_identity()
                want = want.mul(g)


def test_group_action_on_plane():
    p = as_prime(31)
    g = GroupElement(2, 3, 3, 5, p)  # det = 10 - 9 = 1
    v = PlanePoint(4, 9, p)
    gv = g.act(v)
    assert (gv.tau, gv.omega) == ((2 * 4 + 3 * 9) % 31, (3 * 4 + 5 * 9) % 31)


# ------------------------------------------------------------ Weil operator

def test_weil_identity_is_identity():
    rho = rho_matrix(identity(31))
    assert np.abs(rho - np.eye(31)).max() < 1e-9


def sample_elements(p):
    pp = as_prime(p)
    w = GroupElement(0, -1, 1, 0, pp)
    up = GroupElement(1, 1, 0, 1, pp)
    dg = GroupElement(3, 0, 0, pow(3, -1, p), pp)
    gen = GroupElement(2, 3, 3, 5, pp)
    return [w, up, dg, gen]


@pytest.mark.parametrize("idx", [0, 1, 2, 3])
def test_weil_operator_unitary(idx):
    g = sample_elements(31)[idx]
    rho = rho_matrix(g)
    assert np.abs(rho @ rho.conj().T - np.eye(31)).max() < 1e-9


@pytest.mark.parametrize("idx", [0, 1, 2, 3])
def test_weil_intertwines_sigma(idx):
    # rho(g) sigma(v) rho(g)^-1 = sigma(g v), checked as matrices
    p = as_prime(31)
    g = sample_elements(31)[idx]
    rho = rho_matrix(g)
    rng = np.random.default_rng(idx)
    pts = [PlanePoint(int(a), int(b), p) for a, b in rng.integers(0, 31, (8, 2))]
    pts += [PlanePoint(1, 0, p), PlanePoint(0, 1, p)]
    for v in pts:
        lhs = rho @ sigma_matrix(v) @ rho.conj().T
        rhs = sigma_matrix(g.act(v))
        assert np.abs(lhs - rhs).max() < 1e-8, (v.tau, v.omega)


def test_weil_homomorphism_up_to_phase():
    p = as_prime(31)
    els = sample_elements(31)
    for g1 in els[:2]:
        for g2 in els[2:]:
            prod = GroupElement(
                g1.a * g2.a + g1.b * g2.c, g1.a * g2.b + g1.b * g2.d,
                g1.c * g2.a + g1.d * g2.c, g1.c * g2.b + g1.d * g2.d, p)
            lhs = rho_matrix(g1) @ rho_matrix(g2)
            rhs = rho_matrix(prod)
            k = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
            c = lhs[k] / rhs[k]
            assert abs(abs(c) - 1.0) < 1e-9
            assert np.abs(lhs - c * rhs).max() < 1e-8


def test_weil_operator_deterministic_and_cached():
    g = sample_elements(31)[3]
    r1 = weil_operator(g)
    r2 = weil_operator(g)
    assert r1 is r2  # cached
    fresh = GroupElement(2, 3, 3, 5, as_prime(31))
    assert np.array_equal(weil_operator(fresh).matrix, r1.matrix)
    assert not r1.matrix.flags.writeable


@pytest.mark.parametrize("p", [31, 101])
def test_closed_form_matches_averaging_oracle(p):
    # the kernel formulas against plane averaging, on both branches (b != 0
    # and b = 0) and on the roster generators the flags use
    pp = as_prime(p)
    rng = np.random.default_rng(p)
    diagonal = []
    for a, c in rng.integers(1, p, (4, 2)):
        diagonal.append(GroupElement(int(a), 0, int(c), pow(int(a), -1, p), pp))
    roster = [T.generator for T in default_torus_roster(p, 8)]
    for g in sample_elements(p) + roster + diagonal:
        err = np.abs(rho_matrix(g) - weil_operator_oracle(g)).max()
        assert err < 1e-12, ((g.a, g.b, g.c, g.d), err)


# -------------------------------------------------------------------- tori

def test_make_torus_kinds_and_orders():
    p = 31
    for trace in (0, 1, 3, 5, 6):
        T = make_torus(trace, p)
        disc = legendre(trace * trace - 4, p)
        if disc == 1:
            assert T.kind == "split" and T.order == p - 1
        else:
            assert T.kind == "nonsplit" and T.order == p + 1
        g = T.generator
        # generator commutes with the defining regular element [[t,-1],[1,0]]
        a, b, c, d = g.a, g.b, g.c, g.d
        lhs = ((a * trace + b) % p, -a % p, (c * trace + d) % p, -c % p)
        rhs = ((trace * a - c) % p, (trace * b - d) % p, a % p, b % p)
        assert lhs == rhs


def test_make_torus_rejects_parabolic():
    with pytest.raises(ValueError):
        make_torus(2, 31)  # t^2 = 4
    with pytest.raises(ValueError):
        make_torus(29, 31)  # -2 mod 31


@pytest.mark.parametrize("p, trace, abcd", [
    (31, 0, (2, 20, 11, 2)), (31, 3, (28, 1, 30, 0)), (101, 0, (5, 73, 28, 5)),
    (101, 1, (78, 26, 75, 3)), (503, 3, (3, 502, 1, 0)), (1009, 4, (339, 925, 84, 3)),
])
def test_make_torus_cached_with_pinned_generator(p, trace, abcd):
    # generators pinned from the uncached lexicographic scan; the cache must
    # hand back the same Torus object without rescanning
    make_torus.cache_clear()
    T = make_torus(trace, p)
    g = T.generator
    assert (g.a, g.b, g.c, g.d) == abcd
    assert make_torus(trace, p) is T
    assert make_torus.cache_info().hits == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 41, 97, 101, 257, 1009])
def test_make_torus_matches_lexicographic_scan(p):
    # every non-parabolic trace: the square-root search finds the generator
    # the full (a, b) scan finds; p = 17, 41, 97, 257 and 1009 are 1 mod 8
    for t in range(p):
        if (t * t - 4) % p:
            assert make_torus(t, p) == make_torus_oracle(t, p), (p, t)


@pytest.mark.parametrize("p, abcd", [
    (100003, [(3, 89948, 10055, 3), (44975, 55030, 44973, 2), (3, 100002, 1, 0)]),
    (1000003, [(3, 821176, 178827, 3), (410589, 589416, 410587, 2), (3, 1000002, 1, 0)]),
])
def test_roster_generators_pinned_at_large_p(p, abcd):
    # pinned from the lexicographic scan, which takes about 1 s at p = 1000003
    make_torus.cache_clear()
    got = [(T.generator.a, T.generator.b, T.generator.c, T.generator.d)
           for T in default_torus_roster(p, 3)]
    assert got == abcd


def test_generator_has_full_order():
    for trace in (0, 3):
        T = make_torus(trace, 31)
        g = T.generator
        m = np.eye(2, dtype=object)
        A = np.array([[g.a, g.b], [g.c, g.d]], dtype=object)
        order = 0
        for k in range(1, T.order + 1):
            m = (m @ A) % 31
            if np.array_equal(m, np.eye(2, dtype=object)):
                order = k
                break
        assert order == T.order


def test_torus_eigenbasis_structure():
    p = 31
    for trace, n_deg in ((3, 2), (0, 0)):  # split has 2 degenerate vectors
        T = make_torus(trace, p)
        basis = torus_eigenbasis(T)
        assert len(basis) == p
        A = np.stack([w.signal.samples for w in basis])
        assert np.abs(A @ A.conj().T - np.eye(p)).max() < 1e-8
        assert sum(w.degenerate for w in basis) == n_deg
        rho = rho_matrix(T.generator)
        for w in basis:
            assert abs(abs(w.eigenvalue) - 1.0) < 1e-9
            res = rho @ w.signal.samples - w.eigenvalue * w.signal.samples
            assert np.abs(res).max() < 1e-7


@pytest.mark.parametrize("p", [31, 101])
def test_torus_eigenbasis_key_order_and_phase_rule(p):
    # exact lattice eigenvalues e^{i pi k/n} in increasing k, one shared k
    # (the two degenerate vectors) on split tori, <v, random_signal(p, 0)> > 0
    ref = random_signal(p, 0)
    for T in default_torus_roster(p, 8):
        basis = torus_eigenbasis(T)
        n = T.order
        keys = [round(n * np.angle(w.eigenvalue) / np.pi) % (2 * n) for w in basis]
        assert keys == sorted(keys)
        for k, w in zip(keys, basis):
            assert abs(w.eigenvalue - np.exp(1j * np.pi * k / n)) < 1e-15
            assert w.degenerate == (keys.count(k) > 1)
            c = inner(w.signal, ref)
            assert abs(c.imag) < 1e-12 and c.real > 0
        assert sum(w.degenerate for w in basis) == (2 if T.kind == "split" else 0)


def test_eigenvector_names_survive_operator_rounding(monkeypatch):
    # an operator that differs from the closed form only by rounding (plane
    # averaging) names the same vectors with the same phases
    def rounded(g, which=None):
        M = weil_operator_oracle(g)
        return lambda F: F @ M.T

    for p in (31, 101):
        for T in default_torus_roster(p, 5):
            want = torus_eigenbasis(T)
            with monkeypatch.context() as m:
                m.setattr(weil, "_rho", rounded)
                weil._special_key.cache_clear()
                try:
                    got = torus_eigenbasis.__wrapped__(T)
                finally:
                    weil._special_key.cache_clear()
            assert [w.degenerate for w in got] == [w.degenerate for w in want]
            for a, b in zip(got, want):
                assert a.eigenvalue == b.eigenvalue
                if not b.degenerate:
                    err = np.abs(a.signal.samples - b.signal.samples).max()
                    assert err < 1e-9, (p, T.generator, err)


@pytest.mark.parametrize("p", [31, 101])
def test_torus_eigenbasis_matches_schur_oracle(p):
    # the Hermitian eigensolve names the same vectors, at the same phases, as
    # the complex Schur form; a degenerate pair spans the same plane
    for T in default_torus_roster(p, 8):
        got, want = torus_eigenbasis(T), torus_eigenbasis_oracle(T)
        assert [w.eigenvalue for w in got] == [w.eigenvalue for w in want]
        assert [w.degenerate for w in got] == [w.degenerate for w in want]
        A = np.stack([w.signal.samples for w in got], axis=1)
        B = np.stack([w.signal.samples for w in want], axis=1)
        deg = np.array([w.degenerate for w in want])
        assert np.abs(A[:, ~deg] - B[:, ~deg]).max() < 1e-9, (p, T.generator)
        PA, PB = A[:, deg] @ A[:, deg].conj().T, B[:, deg] @ B[:, deg].conj().T
        assert np.abs(PA - PB).max() < 1e-9, (p, T.generator)
        assert np.abs(A.conj().T @ A - np.eye(p)).max() < 1e-12


@pytest.mark.parametrize("trace", [0, 1])
def test_eigenvalue_one_vector_comes_first(trace):
    T = make_torus(trace, 101)
    w = torus_eigenbasis(T)[0]
    assert w.eigenvalue == 1 and not w.degenerate
    v = w.signal.samples
    assert np.abs(rho_matrix(T.generator) @ v - v).max() < 1e-9


def test_trace0_index1_is_odd_vector():
    # the vector `gen --kind flag --torus-trace 0 --eig-index 1` names at
    # p = 101: eigenvalue e^{2 pi i/100} and odd, f(-t) = -f(t)
    w = torus_eigenbasis(make_torus(0, 101))[1]
    assert w.eigenvalue == pytest.approx(np.exp(2j * np.pi / 100), abs=1e-15)
    v = w.signal.samples
    assert np.abs(v[-np.arange(101) % 101] + v).max() < 1e-9


def nondegenerate(T):
    return [w for w in torus_eigenbasis(T) if not w.degenerate]


def test_weil_peaks_origin_value():
    T = make_torus(0, 31)
    for w in nondegenerate(T)[:5]:
        M = mf_full(w.signal, w.signal)
        assert np.abs(M.entries[0, 0] - 1.0) < 1e-9


def test_weil_peaks_nonsplit_bound():
    # nonsplit tori meet the 2/sqrt(p) envelope outright
    p = 31
    T = make_torus(0, p)
    assert T.kind == "nonsplit"
    worst = 0.0
    for w in nondegenerate(T):
        m = mf_full(w.signal, w.signal).magnitudes()
        m[0, 0] = 0.0
        worst = max(worst, m.max())
    assert worst <= 2 / np.sqrt(p) + 1e-9, worst


def test_weil_peaks_split_refined_bound():
    # split-torus eigenvectors live on p-1 support points; their exact
    # envelope is 2 sqrt(p)/(p-1), slightly above 2/sqrt(p)
    p = 31
    T = make_torus(3, p)
    assert T.kind == "split"
    worst = 0.0
    for w in nondegenerate(T):
        m = mf_full(w.signal, w.signal).magnitudes()
        m[0, 0] = 0.0
        worst = max(worst, m.max())
    assert worst <= 2 * np.sqrt(p) / (p - 1) + 1e-9, worst
    # regression: keep the measured ceiling from drifting up
    assert worst == pytest.approx(0.370412, abs=5e-4)


def test_weil_pair_bounds_exhaustive():
    p = 31
    split = nondegenerate(make_torus(3, p))
    nonsplit = nondegenerate(make_torus(0, p))
    refined = 2 * np.sqrt(p) / (p - 1) + 1e-9
    stated = 2 / np.sqrt(p) + 1e-9
    for group, bound in ((split, refined), (nonsplit, stated)):
        worst = 0.0
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                m = mf_full(group[i].signal, group[j].signal).magnitudes()
                worst = max(worst, m.max())
        assert worst <= bound, (len(group), worst)
    worst = 0.0
    for wa in split:
        for wb in nonsplit:
            worst = max(worst, mf_full(wa.signal, wb.signal).magnitudes().max())
    assert worst <= 4 / np.sqrt(p) + 1e-9, worst


# -------------------------------------------------------------------- flags

def test_flag_waveform_components():
    p = as_prime(101)
    L = Line(2, p)
    T = make_torus(0, 101)
    fl = flag_waveform(L, T, 3, 0)
    assert fl.line == L and fl.torus == T
    assert not fl.phiT.degenerate
    assert np.abs(fl.signal.samples
                  - (fl.fL.signal.samples + fl.phiT.signal.samples)).max() < 1e-12


def test_flag_waveform_rejects_degenerate_eigenvector():
    p = 101
    T = make_torus(0, p)  # split at p = 101
    assert T.kind == "split"
    basis = torus_eigenbasis(T)
    deg = [k for k, w in enumerate(basis) if w.degenerate]
    assert len(deg) == 2
    with pytest.raises(ValueError):
        flag_waveform(Line(0, as_prime(p)), T, 0, deg[0])


@pytest.mark.parametrize("eig", [101, -1])
def test_flag_waveform_rejects_eig_index_out_of_range(eig):
    p = as_prime(101)
    with pytest.raises(ValueError, match="eig_index"):
        flag_waveform(Line(1, p), make_torus(0, p), 0, eig)


def test_flag_three_level_structure():
    p = 101
    pp = as_prime(p)
    flags = flag_family(p, 2, seed=0)
    for fl in flags:
        mags = mf_full(fl.signal, fl.signal).magnitudes()
        on_line = np.zeros((p, p), dtype=bool)
        for v in line_points(fl.line):
            on_line[v.tau, v.omega] = True
        assert abs(mags[0, 0] - 2.0) <= 4 / np.sqrt(p)
        assert mags[~on_line].max() <= 6 / np.sqrt(p)
        on_line[0, 0] = False  # the p-1 non-origin line cells sit near 1
        assert np.abs(mags[on_line] - 1.0).max() <= 6 / np.sqrt(p)


def test_default_torus_roster():
    roster = default_torus_roster(101, 5)
    assert len(roster) == 5
    kinds = {T.kind for T in roster}
    assert kinds == {"split", "nonsplit"}
    gens = {(T.generator.a, T.generator.b, T.generator.c, T.generator.d)
            for T in roster}
    assert len(gens) == 5  # distinct tori


def test_flag_family_refuses_more_tori_than_p_has():
    # at p = 3 the traces 1 and 2 are parabolic, so trace 0 is the one torus
    with pytest.raises(ValueError, match="only 1 tori available at p=3"):
        flag_family(3, 2, 0)


def test_rho_refuses_a_stack_mixing_b_0_and_b_nonzero():
    p = as_prime(31)
    diagonal, generic = GroupElement(2, 0, 0, 16, p), GroupElement(1, 1, 0, 1, p)
    with pytest.raises(ValueError, match="b = 0 and b != 0 in one stack"):
        weil._rho(diagonal, generic)
    with pytest.raises(ValueError, match="b = 0 and b != 0 in one stack"):
        weil._rho(generic, diagonal)


def test_rho_builds_each_distinct_element_once(monkeypatch):
    # a stack over 3 roster tori: row i is rho(gs[which[i]]) applied to that
    # row alone, bit for bit; and a Weil vector request of 12 rows over the
    # same tori builds no chirp table with more rows than distinct elements
    p = 101
    roster = default_torus_roster(p, 3)
    gs = [T.generator for T in roster]
    which = np.array([0, 2, 1, 1, 0, 2, 2, 0, 1])
    rng = np.random.default_rng(7)
    X = rng.standard_normal((which.size, p)) + 1j * rng.standard_normal((which.size, p))
    got = weil._rho(*gs, which=which)(X)
    for i, j in enumerate(which):
        assert np.array_equal(got[i], weil._rho(gs[j])(X[i])), i
    shapes, weil_chirp = [], weil._chirp

    def chirp(*args):
        out = weil_chirp(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(weil, "_chirp", chirp)
    weil._vectors([roster[i % 3] for i in range(12)], [5 + i for i in range(12)])
    assert shapes
    assert all(len(s) == 1 or s[0] <= len(roster) for s in shapes), shapes


def test_flag_family_deterministic():
    fam = flag_family(101, 3, seed=5)
    assert len(fam) == 3
    assert len({f.line for f in fam}) == 3  # distinct carrier lines
    fam2 = flag_family(101, 3, seed=5)
    for a, b in zip(fam, fam2):
        assert np.array_equal(a.signal.samples, b.signal.samples)
    assert all(not f.phiT.degenerate for f in fam)


def test_package_never_imports_scipy():
    # a fresh interpreter: tfshift runs on numpy alone, so neither decoding,
    # nor Weil design (an eigh of a Hermitian matrix that commutes with
    # rho), nor the CLI that builds a flag file pulls in scipy
    code = """
import sys
import tempfile
import tfshift
from tfshift import Line, PlanePoint, cross_waveform, extract_bits, heisenberg_op
from tfshift.cli import main
p = 31
c = cross_waveform(Line(0, p), Line(1, p), 2, 3)
R = heisenberg_op(c.signal, PlanePoint(4, 5, p))
assert extract_bits(R, [c])[0].detection.shift == PlanePoint(4, 5, p)
tfshift.flag_family(p, 1, seed=0)
with tempfile.TemporaryDirectory() as d:
    assert main(["gen", "--p", "31", "--kind", "flag", "--line", "1",
                 "--torus-trace", "0", "--b-index", "0", "--eig-index", "1",
                 "--out", d + "/flag.sig"]) == 0
assert "scipy" not in sys.modules, "scipy was imported"
"""
    src = str(Path(tfshift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
