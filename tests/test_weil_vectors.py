"""Matrix-free Weil vectors: eigenvalues from the trace, vectors by projection."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import (flag_picks_oracle, power_scalar_oracle, spectrum_oracle,
                     torus_eigenbasis_oracle)

from tfshift import (
    PlanePoint,
    as_prime,
    default_torus_roster,
    extract_bits,
    flag_family,
    inner,
    make_torus,
    random_signal,
    sim,
    torus_eigenbasis,
    torus_vector,
    weil,
    weil_operator,
)


@pytest.mark.parametrize("p", [31, 101])
def test_torus_vector_matches_schur_oracle(p):
    # every index of every roster torus names the oracle's eigenvalue and
    # degenerate mark, and the oracle's vector when it is not degenerate
    ref = random_signal(p, 0)
    for T in default_torus_roster(p, 8):
        want = torus_eigenbasis_oracle(T)
        got = [torus_vector(T, i) for i in range(p)]
        assert [w.eigenvalue for w in got] == [w.eigenvalue for w in want]
        assert [w.degenerate for w in got] == [w.degenerate for w in want]
        for a, b in zip(got, want):
            if not b.degenerate:
                err = np.abs(a.signal.samples - b.signal.samples).max()
                assert err < 1e-9, (p, T.generator, err)
        # a degenerate pair is an orthonormal basis of the oracle's plane
        # that meets the phase rule
        deg = [w for w in got if w.degenerate]
        if deg:
            A = np.stack([w.signal.samples for w in deg], axis=1)
            B = np.stack([w.signal.samples for w in want if w.degenerate], axis=1)
            assert np.abs(A.conj().T @ A - np.eye(2)).max() < 1e-12
            assert np.abs(A @ A.conj().T - B @ B.conj().T).max() < 1e-9
            for w in deg:
                c = inner(w.signal, ref)
                assert abs(c.imag) < 1e-12 and c.real > 0


def ladder_powers(n):
    # the powers h whose rho(g^h) the ladder over n applies: 1 for the +1
    # steps and each leading bit string e of n for the doublings, the last
    # of them n/2, where g^h = -I
    return {1} | {n >> j for j in range(1, n.bit_length())}


@pytest.mark.parametrize("p", [31, 101, 103, 503])
def test_power_scalar_matches_transform_read_scalar(p):
    # h = 1..40 runs past n/2 and n at p = 31, where g^h = -I and +I
    for T in default_torus_roster(p, 8):
        g, n = T.generator, T.order
        assert (g.power(n // 2).a, g.power(n // 2).b) == (p - 1, 0)
        hs = set(range(1, 41)) | ladder_powers(n)
        want = power_scalar_oracle(g, hs)
        for h in sorted(hs):
            assert abs(weil._power_scalar(g, g.power(h), h) - want[h]) < 1e-9, (p, g, h, want[h])


def test_power_scalar_is_an_exact_unit_at_p1000003():
    # no transforms: a float power of i is 6e-11 off at h = 500002
    units = (1, -1, 1j, -1j)
    for T in default_torus_roster(1000003, 3):
        n = T.order
        hs = set(range(1, 41)) | ladder_powers(n) | set(range(n // 2, 0, -997))
        for h in hs:
            c = weil._power_scalar(T.generator, T.generator.power(h), h)
            assert any(c == u for u in units), (T.generator, h, c)


def test_torus_vector_is_the_basis_vector_and_cached():
    T = make_torus(3, 101)
    basis = torus_eigenbasis(T)
    for i in (0, 7, 50, 100):
        v = torus_vector(T, i)
        assert v.eigenvalue == basis[i].eigenvalue
        assert np.abs(v.signal.samples - basis[i].signal.samples).max() < 1e-12
        again = torus_vector(T, i)
        assert np.array_equal(again.signal.samples, v.signal.samples)
        assert again.eigenvalue == v.eigenvalue and again.degenerate == v.degenerate


def test_torus_vector_has_the_bits_of_the_basis_vector():
    # each row's norm is summed alone, so a vector built in the (p, p) stack
    # of torus_eigenbasis and one built alone agree bit for bit; at p = 503
    # a norm over the whole stack moved 345-379 rows of each torus by 1e-16
    p = 503
    for T in default_torus_roster(p, 3):
        basis = torus_eigenbasis(T)
        for i in range(p):
            v = torus_vector(T, i)
            assert np.array_equal(v.signal.samples, basis[i].signal.samples), (T.generator, i)
            assert v.eigenvalue == basis[i].eigenvalue and v.degenerate == basis[i].degenerate


@pytest.mark.parametrize("index", [-1, 101, 10**6])
def test_torus_vector_rejects_index_out_of_range(index):
    with pytest.raises(ValueError, match="eig_index"):
        torus_vector(make_torus(0, 101), index)


@pytest.mark.parametrize("p", [31, 101, 307])
def test_trace_names_double_and_missing_eigenvalue(p):
    # |tr rho| = 1 and tr rho = p^-1/2 sum_x e((2 - a - d) x^2/(2b)); a split
    # torus repeats the eigenvalue tr rho, a nonsplit torus misses -tr rho,
    # and every other lattice point of the eigenvalues' parity occurs once
    kinds = set()
    for T in default_torus_roster(p, 8 if p < 307 else 4):
        g, n = T.generator, T.order
        tr = np.trace(weil_operator(g).matrix)
        x = np.arange(p)
        e = (2 - g.a - g.d) * pow(2 * g.b, -1, p) % p * (x * x % p) % p
        assert abs(tr - np.exp(2j * np.pi * e / p).sum() / np.sqrt(p)) < 1e-9
        assert abs(abs(tr) - 1) < 1e-9
        keys = [round(n * np.angle(w.eigenvalue) / np.pi) % (2 * n)
                for w in torus_eigenbasis_oracle(T)]
        special = round(n * np.angle(tr if T.kind == "split" else -tr) / np.pi) % (2 * n)
        lattice = list(range(special % 2, 2 * n, 2))
        if T.kind == "split":
            assert sorted(keys) == sorted(lattice + [special])
        else:
            assert sorted(keys) == [k for k in lattice if k != special]
        kinds.add(T.kind)
    assert kinds == {"split", "nonsplit"}


@pytest.mark.parametrize("p", [31, 101, 503])
def test_closed_form_keys_match_spectrum_oracle(p):
    # the key _vectors computes from each index alone names the oracle's
    # eigenvalue, bit for bit, and its degenerate mark, at every index of
    # the 8 roster tori, of both kinds
    kinds = set()
    for T in default_torus_roster(p, 8):
        _, lam, deg = spectrum_oracle(T)
        basis = torus_eigenbasis(T)
        assert [v.eigenvalue for v in basis] == lam.tolist(), (p, T.generator)
        assert [v.degenerate for v in basis] == deg.tolist(), (p, T.generator)
        kinds.add(T.kind)
    torus_eigenbasis.cache_clear()
    assert kinds == {"split", "nonsplit"}


@pytest.mark.parametrize("p", [31, 37, 101])
def test_flag_picks_match_oracle(p):
    # one draw over the free count, mapped past the sorted taken indices,
    # picks what rng.choice over the length-p mask picks, up to one flag
    # per origin line
    for r in sorted({0, 1, 2, 3, 8, 9, 17, p - 1, p, p + 1}):
        for seed in range(3):
            got = [(fl.torus, fl.eig_index, fl.b_index) for fl in flag_family(p, r, seed)]
            assert got == flag_picks_oracle(p, r, seed), (p, r, seed)


@pytest.mark.parametrize("p", [31, 101, 503])
def test_flag_family_vectors_equal_single_builds(p):
    # a family's vectors, built in one stacked ladder per torus order, equal
    # bit for bit the vectors built alone; some families mix split and
    # nonsplit tori (at p = 503 those of four or more flags)
    kinds = set()
    for r in range(1, 9):
        for fl in flag_family(p, r, seed=r):
            alone = weil._vectors([fl.torus], [fl.eig_index])[0]
            assert np.array_equal(fl.phiT.signal.samples, alone.signal.samples), (p, r)
            assert fl.phiT.eigenvalue == alone.eigenvalue
        kinds.add(frozenset(fl.torus.kind for fl in flag_family(p, r, seed=r)))
    assert frozenset({"split", "nonsplit"}) in kinds


def test_stacked_eigen_residual_failure_raises(monkeypatch):
    # the residual check still refuses, for a stack of tori of both orders
    p = 101
    roster = default_torus_roster(p, 4)
    for T in roster:
        weil._special_key(T)  # the special keys, at the real tolerance
    monkeypatch.setattr(weil, "LATTICE_TOL", -1.0)
    with pytest.raises(RuntimeError, match="eigenvalue equation"):
        weil._vectors(roster, [1, 2, 3, 4])
    with pytest.raises(RuntimeError, match="eigenvalue equation"):
        flag_family(p, 4, seed=0)


def test_flag_family_at_p10007_is_matrix_free(monkeypatch):
    # no dense operator, no eigensolver, no full basis and no p x p array:
    # one such array at p = 10007 is 1.6 GB
    def refuse(*args, **kwargs):
        raise AssertionError("dense Weil path called")

    monkeypatch.setattr(weil, "weil_operator", refuse)
    monkeypatch.setattr(weil, "torus_eigenbasis", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    p = as_prime(10007)
    tracemalloc.start()
    try:
        fam = flag_family(p, 3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, peak
    shifts = [PlanePoint(17, 9000, p), PlanePoint(5000, 3, p), PlanePoint(10006, 1234, p)]
    bits = [1, -1, -1]
    users = tuple(sim.UserSpec(f"w{k}", v, b) for k, (v, b) in enumerate(zip(shifts, bits)))
    R = sim.synthesize_receiver(sim.ChannelSpec(p, users, 0.0, 0),
                                {f"w{k}": f.signal for k, f in enumerate(fam)})
    got = extract_bits(R, fam)
    assert [d.detection.shift for d in got] == shifts
    assert [d.bit for d in got] == bits
    assert all(d.detection.confident for d in got)


def test_torus_vector_at_p100003_in_bounded_memory():
    # one cold vector: the ladder keeps no rho apply past its step, and the
    # cached record of its torus is one integer; what stays is the vector
    # (1.6 MB) and the roots table of every chirp at p (3.2 MB)
    T = make_torus(0, 100003)
    weil._special_key.cache_clear()
    tracemalloc.start()
    try:
        v = torus_vector(T, 1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak
    assert retained < 6e6, retained
    assert not v.degenerate


# (slope, roster trace, eig_index, b_index, <S, random_signal(p, 7)>, S[0], S[p//2]),
# taken from the dense eigensolver path that torus_vector replaced
PINNED = {
    (101, 5): [
        (0, 0, 68, 81, 0.008606405874360814 - 0.04311978816221976j,
         0.09950371902099912 - 1.8782453432341916e-16j,
         0.15721060047035507 - 0.013252834259280491j),
        (1, 1, 2, 81, 0.0779058319864246 - 0.07559135248801091j,
         0.030375787480979438 - 0.17687536360838435j,
         0.119435683918544 - 0.09583677918412996j),
        (2, 3, 46, 52, -0.07694348737867823 + 0.13110032901138824j,
         0.06869171229365109 + 0.04637354559701536j,
         0.10479443352259442 - 0.03596517900803812j),
    ],
    (503, 1): [
        (0, 0, 238, 257, 0.008924426878024864 + 0.02539602695245135j,
         0.04458779620677061 - 3.6470129150683493e-17j,
         0.03991441706958282 + 0.048285821084012547j),
        (1, 1, 379, 478, 0.0505559953374081 - 0.034951877346751405j,
         0.04458779620677091 - 2.4908347169463347e-16j,
         -0.06943242084291569 + 0.08888926711497097j),
        (2, 3, 17, 72, -0.021024490172124925 - 0.04212879319056019j,
         0.044316621990994745 - 0.00019093961993040825j,
         0.024613828854878173 - 0.06818499486984675j),
    ],
}


@pytest.mark.parametrize("p, seed", sorted(PINNED))
def test_flag_family_recipes_pinned(p, seed):
    ref = random_signal(p, 7)
    for fl, (slope, trace, eig, b, overlap, s0, mid) in zip(flag_family(p, 3, seed), PINNED[p, seed]):
        assert fl.line.slope == slope and fl.fL.index == b
        assert fl.torus == make_torus(trace, p)
        phi = torus_vector(fl.torus, eig)
        assert np.array_equal(fl.phiT.signal.samples, phi.signal.samples)
        assert fl.phiT.eigenvalue == phi.eigenvalue and fl.phiT.degenerate == phi.degenerate
        s = fl.signal.samples
        assert abs(inner(fl.signal, ref) - overlap) < 1e-9
        assert abs(s[0] - s0) < 1e-9 and abs(s[p // 2] - mid) < 1e-9


def recipe(fl):
    g = fl.torus.generator
    return (fl.line.slope, g.a, g.b, g.c, g.d, fl.torus.kind, fl.b_index, fl.eig_index)


@pytest.mark.parametrize("p, vectors, flags", [
    (31, "006c1b55d849ed296ea7ab6cd380458d98de5e96d048db239b0379fa8b20a66d",
     "c5fb4019590ff8f4f0bdb65b3ff3c147d02e0257b0e4140a5aa436f40af1c40a"),
    (101, "c87a56d137c7c0af9bd388d6b0b7080435ede467614bd48b02ea78224584a49d",
     "e1ef9c691928858e61c7bff6c3a677330aaaa5180d8b10cfef3a2c3e92a91c6f"),
])
def test_weil_golden_digest(p, vectors, flags):
    # every torus_vector of the 8 roster tori and the flag families of five
    # sizes and three seeds, pinned to the last bit (numpy 2.4 on x86-64):
    # one sha256 over each vector's samples, eigenvalue and degenerate mark,
    # and one over each flag's recipe and samples
    h = hashlib.sha256()
    for T in default_torus_roster(p, 8):
        for i in range(p):
            v = torus_vector(T, i)
            h.update(v.signal.samples.tobytes())
            h.update(np.complex128(v.eigenvalue).tobytes())
            h.update(b"d" if v.degenerate else b"n")
    assert h.hexdigest() == vectors
    h = hashlib.sha256()
    for r in (1, 3, 8, p - 1, p + 1):
        for seed in range(3):
            for fl in flag_family(p, r, seed):
                h.update(repr(recipe(fl)).encode())
                h.update(fl.signal.samples.tobytes())
    assert h.hexdigest() == flags
