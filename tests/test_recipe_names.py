"""Recipe names under other rounding (ROADMAP aim 3, item 17).

A recipe names a Weil vector by its torus trace and eig_index, and must name
the same vector on every platform, bit for bit up to float rounding. With no
second platform at hand, these tests round differently here: they rebuild
vectors with numpy's inverse FFT replaced by conj(fft(conj x)), and with a
seeded relative error on every inverse FFT output, and hold the names and
samples to bounds fixed before the runs (measured: 3.1e-14 and 2.0e-11).
Committed `tfshift gen` files, written in text format, must rebuild from
their headers.
"""

from pathlib import Path

import numpy as np
import pytest

from tfshift import cli, default_torus_roster, flag_family, read_signal, weil
from tfshift.signals import Signal

DATA = Path(__file__).resolve().parent / "data"
SWAP = {None: "forward", "backward": "forward", "forward": "backward", "ortho": "ortho"}


def conj_ifft(fft):
    """numpy's ifft, computed as conj(fft(conj x)) with the matching norm."""
    def ifft(a, n=None, axis=-1, norm=None):
        return np.conj(fft(np.conj(a), n, axis, SWAP[norm]))
    return ifft


def noisy_ifft(ifft, seed):
    """numpy's ifft with a relative error of 1e-13 on every output value."""
    rng = np.random.default_rng(seed)

    def noisy(a, n=None, axis=-1, norm=None):
        y = ifft(a, n, axis, norm)
        y *= 1 + 1e-13 * np.exp(2j * np.pi * rng.random(y.shape))
        return y
    return noisy


def requests(p):
    """41 indices of each of the 3 roster tori: k0//2 and the next, which
    name a split torus's degenerate pair, then 39 spread over 0..p-1."""
    tori, index = [], []
    for T in default_torus_roster(p, 3):
        k = weil._special_key(T) // 2
        spread = np.linspace(0, p - 1, 39).round().astype(int).tolist()
        picked = list(dict.fromkeys([k % p, (k + 1) % p] + spread))
        picked += [i for i in range(p) if i not in picked][:41 - len(picked)]
        tori += [T] * 41
        index += picked
    return tori, index


def rebuild(tori, index):
    """Names and vectors built afresh: the keys are read again, not cached."""
    weil._special_key.cache_clear()
    keys = [weil._special_key(T) for T in dict.fromkeys(tori)]
    return keys, weil._vectors(tori, index)


@pytest.mark.parametrize("p", [101, 503, 10007])
def test_names_hold_under_other_rounding(monkeypatch, p):
    tori, index = requests(p)
    keys, want = rebuild(tori, index)
    # a split torus's degenerate pair is asked for
    assert any(v.degenerate for v in want) == any(T.kind == "split" for T in tori)
    real_fft, real_ifft = np.fft.fft, np.fft.ifft
    for ifft, bound in ((conj_ifft(real_fft), 1e-12), (noisy_ifft(real_ifft, seed=p), 1e-9)):
        monkeypatch.setattr(np.fft, "ifft", ifft)
        got_keys, got = rebuild(tori, index)
        monkeypatch.undo()
        weil._special_key.cache_clear()
        assert got_keys == keys
        worst = 0.0
        for a, b in zip(want, got):
            assert (a.eigenvalue, a.degenerate) == (b.eigenvalue, b.degenerate)
            worst = max(worst, float(np.max(np.abs(a.signal.samples - b.signal.samples))))
        assert 0 < worst <= bound, (ifft.__name__, worst)


@pytest.mark.parametrize("p", [101, 503, 10007])
@pytest.mark.parametrize("r", [3, 8])
def test_flag_family_recipes_hold_under_other_rounding(monkeypatch, p, r):
    def recipes(family):
        return [(f.line, f.torus, f.b_index, f.eig_index) for f in family]

    weil._special_key.cache_clear()
    want = recipes(flag_family(p, r, seed=p))
    for ifft in (conj_ifft(np.fft.fft), noisy_ifft(np.fft.ifft, seed=r)):
        monkeypatch.setattr(np.fft, "ifft", ifft)
        weil._special_key.cache_clear()
        got = recipes(flag_family(p, r, seed=p))
        monkeypatch.undo()
        weil._special_key.cache_clear()
        assert got == want, ifft.__name__


@pytest.mark.parametrize("name", [f"{kind}_p{p}.sig" for kind in ("flag", "cross", "weil")
                                  for p in (31, 101)])
def test_committed_gen_files_rebuild_from_their_headers(name):
    stored, header = read_signal(DATA / name)
    assert header["format"] == "text"
    w, desc = cli._waveform(header["kind"], stored.p, header.get, lambda key: key)
    assert all(header[k] == str(v) for k, v in desc.items())
    rebuilt = w if isinstance(w, Signal) else w.signal
    assert np.max(np.abs(rebuilt.samples - stored.samples)) <= 1e-10

