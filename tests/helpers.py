"""Brute-force oracles shared by the test modules.

Everything here recomputes definitions from scratch (direct sums, explicit
phases), so the library's fast paths are always compared against a second,
independent route.
"""

import numpy as np

from tfshift import (GroupElement, HeisenbergVector, Line, PlanePoint, Signal, as_prime,
                     default_torus_roster, delta, dft, extract_bits, gfp, heisenberg_op, legendre,
                     random_signal, sim)
from tfshift.gfp import _factor
from tfshift.weil import (LATTICE_TOL, PHASE_FLOOR, Torus, WeilVector, _rho, _special_key,
                          weil_operator)


def psi(k: int, p: int) -> complex:
    return complex(np.exp(2j * np.pi * (k % p) / p))


def chirp_oracle(p: int, a: int, b: int = 0) -> np.ndarray:
    """e(a t^2 + b t) for t in F_p by one exp over the p exponents."""
    t = np.arange(p)
    return np.exp(2j * np.pi * ((a % p * (t * t % p) + b % p * t) % p) / p)


def roll_take_oracle(x: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Row i holds x(t + taus[i]) for t in F_p, by a wrap-mode take: how
    receivers rolled their senders before gfp._roll_rows."""
    return np.take(x, np.arange(x.shape[-1]) + np.reshape(taus, (-1, 1)), mode="wrap")


def modulation_rows_oracle(p: int, cs) -> np.ndarray:
    """Row i holds e(c_i t) for t in F_p, c_i = cs[i], each row one take at
    c t % p: how line scans modulated slope-0 rows before gfp._chirp."""
    roots, _, t = gfp._roots(p)
    return np.stack([np.take(roots, c * t % p) for c in (np.ravel(cs) % p).tolist()])


def chirp_gather_oracle(p: int, a, b=0) -> np.ndarray:
    """e(a t^2 + b t) as roots[k % p] at k = (a mod p) t^2 + (b mod p) t,
    for ints or (T, 1) columns: gfp._chirp before its floor-division index."""
    roots, sq, t = gfp._roots(p)
    return roots[(a % p * sq + b % p * t) % p]


def dft_oracle(x, direction: str = "forward") -> np.ndarray:
    """O(n^2) reference transform. Forward kernel e^{+2 pi i wt/n}, inverse
    is the conjugate kernel divided by n."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    grid = np.outer(np.arange(n), np.arange(n))
    if direction == "forward":
        return np.exp(2j * np.pi * grid / n) @ x
    return (np.exp(-2j * np.pi * grid / n) @ x) / n


def mf_oracle(S: Signal, R: Signal, tau: int, omega: int) -> complex:
    """One matched-filter entry by the direct sum over t."""
    p = S.p.p
    acc = 0.0 + 0.0j
    for t in range(p):
        acc += psi(omega * t, p) * S.samples[(t + tau) % p] * np.conj(R.samples[t])
    return complex(acc)


def mf_oracle_grid(S: Signal, R: Signal) -> np.ndarray:
    """All p^2 entries via mf_oracle. Only for small p."""
    p = S.p.p
    out = np.empty((p, p), dtype=np.complex128)
    for tau in range(p):
        for omega in range(p):
            out[tau, omega] = mf_oracle(S, R, tau, omega)
    return out


def mf_full_oracle(S: Signal, R: Signal) -> np.ndarray:
    """All p^2 entries, one prime-length forward dft per row: row tau
    transforms u(t) = S(t+tau) conj(R(t)) over t."""
    p = S.p.p
    Rc = np.conj(R.samples)
    out = np.empty((p, p), dtype=np.complex128)
    for tau in range(p):
        out[tau, :] = dft(np.roll(S.samples, -tau) * Rc, "forward")
    return out


def mf_line_oracle(S: Signal, R: Signal, L) -> np.ndarray:
    """Matched-filter values along a line by the direct sum, vectorized over
    the line's p cells. No transforms involved."""
    p = S.p.p
    t = np.arange(p)
    pts = gfp.line_points(L)
    taus = np.array([v.tau for v in pts])
    oms = np.array([v.omega for v in pts])
    phases = np.exp(2j * np.pi * (np.outer(oms, t) % p) / p)
    gathered = S.samples[(t[None, :] + taus[:, None]) % p]
    return (phases * gathered * np.conj(R.samples)[None, :]).sum(axis=1)


def pi_oracle(S: Signal, tau: int, omega: int) -> np.ndarray:
    """pi(tau, omega) S = M_omega L_tau S, spelled out sample by sample."""
    p = S.p.p
    out = np.empty(p, dtype=np.complex128)
    for t in range(p):
        out[t] = psi(omega * t, p) * S.samples[(t + tau) % p]
    return out


def unit_monte_carlo_template(p, r: int, sigma: float, seed: int):
    """ChannelSpec template with unit intensities; shifts are placeholders
    (monte_carlo redraws them per trial)."""
    users = tuple(sim.UserSpec(f"w{k}", gfp.PlanePoint(0, 0, p)) for k in range(r))
    return sim.ChannelSpec(p, users, sigma, seed)


def cross_correlate(A: Signal, B: Signal) -> np.ndarray:
    """C[tau] = sum_t A(t+tau) conj(B(t)), computed with three prime DFTs."""
    if A.p != B.p:
        raise ValueError("mismatched moduli")
    fa = dft(A.samples, "forward")
    fb = dft(B.samples, "forward")
    return dft(fa * np.conj(fb), "inverse")


def padded_stage_oracle(R: np.ndarray, jobs: list, n: int) -> list[np.ndarray]:
    """mf_on_stage's zero-padded chirp correlation, row by row, with each
    transform one numpy FFT of length n in natural order: per row, M = conj(q)
    * crosscorr(a, b)[:p] with a the sender's chirped samples extended by
    their first p-1 (q itself on a vertical line) and b = q R e(-c t) on a
    sloped line, q R conj(S(t + tau0)) on a vertical one."""
    T, p = R.shape
    half = (p + 1) // 2  # 2^{-1} mod p
    out = []
    for S, m, offsets in jobs:
        q = chirp_oracle(p, half * (1 if m is None else m))
        a = q if m is None else q * S.samples
        fa = np.fft.ifft(np.concatenate([a, a[:p - 1]]), n, norm="forward")
        rows = np.empty((T, p), dtype=np.complex128)
        for i, c in enumerate(offsets):
            c = int(c)
            b = q * R[i] * (np.conj(np.roll(S.samples, -c)) if m is None
                            else chirp_oracle(p, 0, -c))
            corr = np.fft.fft(fa * np.fft.fft(np.conj(b), n), norm="forward")
            rows[i] = np.conj(q) * corr[:p]
        out.append(rows)
    return out


def line_basis_oracle(L: Line) -> list[HeisenbergVector]:
    """Independent construction of B_L by numerically diagonalizing pi(l0) for
    one generator l0 of L. Eigenvalues are exact p-th roots of unity, so
    eigenspaces are one-dimensional; the unitary Schur factorization of this
    normal matrix returns an orthonormal eigenbasis. Vectors agree with
    line_basis up to unit phase and index permutation.
    """
    from scipy.linalg import schur

    if not L.through_origin():
        raise ValueError("line bases are defined for origin lines only")
    p = L.p.p
    l0 = L.direction()
    op = np.empty((p, p), dtype=np.complex128)
    for k in range(p):
        op[:, k] = heisenberg_op(delta(L.p, k), l0).samples
    T, Z = schur(op, output="complex")
    ev = np.diag(T)
    # sanity: p distinct p-th roots of unity, pairwise separation 2 sin(pi/p)
    sep = 2.0 * np.sin(np.pi / p)
    for i in range(p):
        for j in range(i + 1, p):
            if abs(ev[i] - ev[j]) < 0.5 * sep:
                raise RuntimeError("degenerate eigenvalue clustering in line oracle")
    out = []
    for k in range(p):
        out.append(HeisenbergVector(L, k, Signal(L.p, Z[:, k])))
    return out


# Weil operator by plane averaging: with the symmetrized shifts
# sigma(tau, omega) = e^{(2 pi i/p) 2^{-1} tau omega} pi(tau, omega), the sum
# rho0 = sum_v sigma(g v) A sigma(v)^* commutes with the g-action for any seed
# matrix A, so it is a scalar multiple of rho(g). O(p^3): small p only.

def axis_stack(z: np.ndarray, r0: int, r1: int, p: int) -> np.ndarray:
    """Columns sigma((r0*k, r1*k)) z for k = 0..p-1."""
    inv2 = pow(2, -1, p)
    t = np.arange(p)
    k = np.arange(p)
    psi = np.exp(2j * np.pi * np.arange(p) / p)
    gathered = z[(t[:, None] + (r0 * k % p)[None, :]) % p]
    grid = psi[np.outer(t, r1 * k % p) % p]
    col = psi[(inv2 * r0 % p) * r1 % p * (k * k % p) % p]
    return gathered * grid * col[None, :]


def averaged_intertwiner(g: GroupElement, x: np.ndarray, y: np.ndarray) -> np.ndarray:
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
    U = axis_stack(x, g.b, g.d, p)
    W = axis_stack(y, 0, 1, p)
    B = U @ W.conj().T
    c0 = inv2 * g.a % p * g.c % p
    rho0 = np.zeros((p, p), dtype=np.complex128)
    for tau in range(p):
        ph = psi[(c0 * (tau * tau % p) + (g.c * tau % p) * t) % p]
        rho0 += ph[:, None] * np.roll(B, (-(g.a * tau % p), -tau), axis=(0, 1))
    return rho0


def weil_operator_oracle(g: GroupElement) -> np.ndarray:
    """rho(g) by plane averaging from one seeded rank-1 matrix, unitarized by
    a column norm, with rho[0, 0] turned real and positive (it is nonzero for
    every g: p^{-1/2} when b != 0, a unit when b = 0)."""
    p = g.p.p
    rng = np.random.default_rng(0)
    x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    y = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    rho = averaged_intertwiner(g, x, y)
    rho /= np.linalg.norm(rho[:, 0])
    return rho * (np.conj(rho[0, 0]) / abs(rho[0, 0]))


def make_torus_oracle(trace_class: int, p) -> Torus:
    """weil.make_torus by the full lexicographic (a, b) scan, O(p^2): the
    first centralizer element a*I + b*g0, a^2 + a b t + b^2 = 1, of full
    order."""
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


def torus_eigenbasis_oracle(T: Torus) -> tuple[WeilVector, ...]:
    """torus_eigenbasis through the complex Schur form: rho(generator) is
    unitary, hence normal, so its Schur form diagonalizes it with orthonormal
    columns. Same lattice key, sort, degenerate marking and phase rule as the
    library; a degenerate pair's basis is whatever Schur returns."""
    from scipy.linalg import schur

    rho = weil_operator(T.generator).matrix
    p = rho.shape[0]
    n = T.order
    Tm, Z = schur(rho, output="complex")
    ev = np.diag(Tm)
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
    pp = gfp.as_prime(p)
    return tuple(WeilVector(T, complex(lam[i]), Signal(pp, Z[:, i]), bool(shared[key[i]]))
                 for i in order)


def spectrum_oracle(T: Torus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, eigenvalues, degenerate marks) of rho(T.generator) in eig_index
    order, as length-p arrays: every lattice key of the parity of
    k0 = weil._special_key(T), with k0 once more on a split torus and without
    it on a nonsplit one, sorted; eigenvalue e^{i pi k/n}, n = T.order."""
    k0, n = _special_key(T), T.order
    keys = np.arange(k0 % 2, 2 * n, 2)
    keys = np.sort(np.append(keys, k0)) if T.kind == "split" else keys[keys != k0]
    return keys, np.exp(1j * np.pi * keys / n), keys == k0


def flag_picks_oracle(p, r: int, seed: int) -> list[tuple[Torus, int, int]]:
    """(torus, eig_index, b_index) of each flag of flag_family(p, r, seed):
    a length-p mask of the indices each roster torus can still give
    (spectrum_oracle's non-degenerate ones, less each pick), one
    rng.choice over it a pick, then the b_index draw."""
    pp = as_prime(p)
    roster = default_torus_roster(pp, min(max(r, 1), 8))
    rng = np.random.default_rng(seed)
    free = [~spectrum_oracle(T)[2] for T in roster]
    picks = []
    for i in range(r):
        ti = i % len(roster)
        eig = int(rng.choice(np.flatnonzero(free[ti])))
        free[ti][eig] = False
        picks.append((roster[ti], eig, int(rng.integers(0, pp.p))))
    return picks


def power_scalar_oracle(g: GroupElement, hs) -> dict[int, complex]:
    """The unit c(h) with rho(g)^h = c(h) rho(g^h), for each h in hs, read off
    transforms: v = rho(g)^h x is climbed one apply at a time from
    x = random_signal(p, 0), and c(h) = <R x, v>/<R x, R x> with
    R = rho(g^h), both through the kernel phase of weil._rho."""
    p = g.p.p
    rho = _rho(g)
    x = v = random_signal(p, 0).samples
    out = {}
    for h in range(1, max(hs) + 1):
        v = rho(v)
        if h in hs:
            z = _rho(g.power(h))(x)
            out[h] = complex(np.vdot(z, v) / np.vdot(z, z))
    return out


def monte_carlo_oracle(template, trials: int, method: str = "flag") -> "sim.TrialStats":
    """sim.monte_carlo one trial at a time: each trial's receiver built alone
    by synthesize_receiver and decoded alone by extract_bits, from the same
    per-trial streams (shifts, bits, noise seed). The confident rates count
    Detection.confident at the default thresholds. wall_time is 0."""
    p = template.p
    r = len(template.users)
    family = sim.build_family(p, r, method, template.seed)
    signals = {f"w{k}": w.signal for k, w in enumerate(family)}
    results = []
    for child in np.random.SeedSequence(template.seed).spawn(trials):
        rng = np.random.default_rng(child)
        draws = rng.integers(0, p.p, size=(r, 2))
        bits = rng.choice(np.array([-1, 1]), size=r)
        users = tuple(
            sim.UserSpec(f"w{k}", PlanePoint(int(draws[k, 0]), int(draws[k, 1]), p),
                         int(bits[k]), template.users[k].intensity)
            for k in range(r))
        noise_seed = int(rng.integers(0, 2**63))
        R = sim.synthesize_receiver(sim.ChannelSpec(p, users, template.sigma, noise_seed),
                                    signals)
        hits = errs = sure = wrong = 0
        s1 = pk = 0.0
        for u, d in zip(users, extract_bits(R, family)):
            hits += d.detection.shift == u.shift
            errs += d.bit != u.bit
            s1 += d.detection.stage1_magnitude
            pk += d.detection.magnitude
            sure += d.detection.confident
            wrong += d.detection.confident and d.detection.shift != u.shift
        results.append((hits, errs, s1, pk, sure, wrong))
    n = trials * r
    return sim.TrialStats(trials, *(sum(x[i] for x in results) / n for i in range(6)), 0.0)
