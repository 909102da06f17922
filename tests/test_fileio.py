"""File formats: signal, grid, profile containers."""

import time

import numpy as np
import pytest

from tfshift import (
    Line,
    LineProfile,
    PlanePoint,
    Signal,
    as_prime,
    mf_full,
    mf_on_line,
    random_signal,
    read_grid,
    read_profile,
    read_signal,
    write_grid,
    write_profile,
    write_signal,
)


@pytest.fixture
def sig():
    rng = np.random.default_rng(5)
    return Signal(as_prime(31), rng.standard_normal(31) + 1j * rng.standard_normal(31))


def test_signal_binary_roundtrip_bit_exact(sig, tmp_path):
    path = tmp_path / "a.sig"
    write_signal(path, sig, "random", descriptor={"seed": 5})
    back, header = read_signal(path)
    assert np.array_equal(back.samples, sig.samples)  # bit exact
    assert back.p == sig.p
    assert header["kind"] == "random"
    assert header["p"] == "31"
    assert header["seed"] == "5"
    assert header["format"] == "binary"


def test_signal_text_roundtrip_exact(sig, tmp_path):
    path = tmp_path / "a.txt"
    write_signal(path, sig, "random", fmt="text")
    back, header = read_signal(path)
    assert np.array_equal(back.samples, sig.samples)  # %.17g survives float64
    assert header["format"] == "text"


def test_signal_header_descriptor_tokens(sig, tmp_path):
    path = tmp_path / "a.sig"
    write_signal(path, sig, "flag",
                 descriptor={"line": 3, "torus_trace": 0, "b_index": 2})
    _, header = read_signal(path)
    assert header["line"] == "3"
    assert header["torus_trace"] == "0"
    assert header["b_index"] == "2"
    with pytest.raises(ValueError):
        write_signal(path, sig, "flag", descriptor={"bad": "two words"})


def test_grid_roundtrips(tmp_path):
    S = random_signal(31, seed=1)
    R = random_signal(31, seed=2)
    mags = mf_full(S, R).magnitudes()
    csv_path = tmp_path / "g.csv"
    write_grid(csv_path, 31, mags, fmt="csv")
    back, header = read_grid(csv_path)
    assert header["p"] == "31"
    assert np.array_equal(back, mags)  # %.17g exact
    bin_path = tmp_path / "g.grid"
    write_grid(bin_path, 31, mags, fmt="binary")
    back2, _ = read_grid(bin_path)
    assert np.array_equal(back2, mags)


def test_grid_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        write_grid(tmp_path / "g.csv", 31, np.zeros((31, 30)))
    with pytest.raises(ValueError):
        write_grid(tmp_path / "g.csv", 31, np.zeros((31, 31)), fmt="xml")


@pytest.mark.parametrize("line", [
    Line(4, as_prime(31)),
    Line(None, as_prime(31)),
    Line(2, as_prime(31), offset=PlanePoint(0, 9, as_prime(31))),
    Line(None, as_prime(31), offset=PlanePoint(7, 0, as_prime(31))),
])
def test_profile_roundtrip(line, tmp_path):
    S = random_signal(31, seed=3)
    R = random_signal(31, seed=4)
    prof = mf_on_line(S, R, line)
    for fmt, name in (("binary", "p.bin"), ("text", "p.txt")):
        path = tmp_path / name
        write_profile(path, prof, fmt=fmt)
        back, header = read_profile(path)
        assert back.line == line
        assert np.array_equal(back.values, prof.values)
        assert header["p"] == "31"


def test_magic_mismatch_rejected(sig, tmp_path):
    spath = tmp_path / "a.sig"
    write_signal(spath, sig, "random")
    with pytest.raises(ValueError):
        read_grid(spath)
    gpath = tmp_path / "g.grid"
    write_grid(gpath, 31, np.zeros((31, 31)), fmt="binary")
    with pytest.raises(ValueError):
        read_signal(gpath)
    with pytest.raises(ValueError):
        read_profile(spath)


def test_truncated_payload_rejected(sig, tmp_path):
    path = tmp_path / "a.sig"
    write_signal(path, sig, "random")
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError):
        read_signal(path)


def test_non_finite_payload_rejected(sig, tmp_path):
    binary = tmp_path / "a.sig"
    write_signal(binary, sig, "random")
    raw = bytearray(binary.read_bytes())
    nan = np.array([np.nan], dtype="<f8").tobytes()
    head = raw.index(b"\n") + 1
    raw[head + 8:head + 16] = nan  # imaginary part of sample 0
    binary.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="finite"):
        read_signal(binary)
    text = tmp_path / "a.txt"
    write_signal(text, sig, "random", fmt="text")
    lines = text.read_text().splitlines()
    lines[5] = "inf 0"
    text.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        read_signal(text)


def test_non_finite_grid_and_profile_rejected(tmp_path):
    p = as_prime(31)
    grid = np.ones((31, 31))
    grid[4, 7] = np.nan
    write_grid(tmp_path / "g.bin", p, grid, fmt="binary")
    with pytest.raises(ValueError, match="finite"):
        read_grid(tmp_path / "g.bin")
    values = np.ones(31, dtype=np.complex128)
    values[3] = complex(np.inf, 0.0)
    write_profile(tmp_path / "prof.txt", LineProfile(Line(2, p), values), fmt="text")
    with pytest.raises(ValueError, match="finite"):
        read_profile(tmp_path / "prof.txt")


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.sig"
    path.write_bytes(b"")
    with pytest.raises(ValueError):
        read_signal(path)


def test_write_profile_unknown_format_leaves_no_file(tmp_path):
    prof = mf_on_line(random_signal(31, seed=3), random_signal(31, seed=4),
                      Line(1, as_prime(31)))
    path = tmp_path / "prof.csv"
    with pytest.raises(ValueError, match="unknown format"):
        write_profile(path, prof, "csv")
    assert not path.exists()


def _with_format(path, fmt):
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    head = b" ".join(b"format=" + fmt if tok.startswith(b"format=") else tok
                     for tok in raw[:nl].split())
    path.write_bytes(head + raw[nl:])


@pytest.mark.parametrize("fmt", [b"xml", b"", b"BINARY"])
def test_readers_reject_unknown_format(sig, tmp_path, fmt):
    # each reader once parsed any unknown format as its text or CSV layout
    write_signal(tmp_path / "a.sig", sig, "random", fmt="text")
    write_grid(tmp_path / "g.csv", 31, np.ones((31, 31)), fmt="csv")
    prof = mf_on_line(sig, sig, Line(2, as_prime(31)))
    write_profile(tmp_path / "p.txt", prof, fmt="text")
    for name, reader in (("a.sig", read_signal), ("g.csv", read_grid),
                         ("p.txt", read_profile)):
        _with_format(tmp_path / name, fmt)
        with pytest.raises(ValueError, match="unknown format"):
            reader(tmp_path / name)


@pytest.mark.parametrize("p", [4, 0, 1, 2])
def test_read_grid_rejects_non_prime_p(tmp_path, p):
    # header and payload agree, so only the prime check can refuse the file
    path = tmp_path / "g.grid"
    path.write_bytes(f"tfshift-grid p={p} format=binary\n".encode()
                     + np.ones(p * p, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="prime"):
        read_grid(path)


def _without_field(path, key):
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    head = b" ".join(tok for tok in raw[:nl].split() if not tok.startswith(key + b"="))
    path.write_bytes(head + raw[nl:])


def test_read_grid_missing_p_names_the_field(tmp_path):
    # the reader raised KeyError 'p' here
    path = tmp_path / "g.csv"
    path.write_bytes(b"tfshift-grid format=csv\n1,2\n")
    with pytest.raises(ValueError, match="no p= field"):
        read_grid(path)


@pytest.mark.parametrize("key", [b"offset_tau", b"offset_omega", b"line", b"p"])
def test_read_profile_missing_field_names_it(tmp_path, key):
    p = as_prime(31)
    prof = mf_on_line(random_signal(p, seed=3), random_signal(p, seed=4),
                      Line(2, p, PlanePoint(0, 5, p)))
    path = tmp_path / "prof.bin"
    write_profile(path, prof)
    _without_field(path, key)
    with pytest.raises(ValueError, match=f"no {key.decode()}= field"):
        read_profile(path)


def test_read_signal_missing_p_names_the_field(sig, tmp_path):
    path = tmp_path / "a.sig"
    write_signal(path, sig, "random")
    _without_field(path, b"p")
    with pytest.raises(ValueError, match="no p= field"):
        read_signal(path)


@pytest.mark.parametrize("magic, reader, extra", [
    ("tfshift-signal", read_signal, ""),
    ("tfshift-grid", read_grid, ""),
    ("tfshift-profile", read_profile, " line=0 offset_tau=0 offset_omega=0")])
def test_payload_of_a_wrong_byte_length_gets_the_readers_message(tmp_path, magic, reader,
                                                                 extra):
    # 2 bytes hold no whole float: numpy's frombuffer once refused them with
    # its own message before the reader compared the length with p
    path = tmp_path / "short"
    path.write_bytes(f"{magic} p=7 format=binary{extra}\n".encode() + b"\0\0")
    with pytest.raises(ValueError, match="payload length does not match p"):
        reader(path)


def test_short_file_naming_a_huge_p_is_refused_at_once(tmp_path):
    # a file of under 100 bytes whose header names the Mersenne prime
    # 2^61 - 1, over a 2-byte payload: the payload's length is checked
    # against p before any primality test or allocation
    path = tmp_path / "huge"
    for magic, reader, extra in (
            ("tfshift-signal", read_signal, ""),
            ("tfshift-grid", read_grid, ""),
            ("tfshift-profile", read_profile, " line=0 offset_tau=0 offset_omega=0")):
        path.write_bytes(f"{magic} p={2**61 - 1} format=binary{extra}\n".encode() + b"\0\0")
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            reader(path)
        assert time.perf_counter() - t0 < 1, magic


@pytest.mark.parametrize("rows", [
    ["0,1,2,3,4"] * 4 + ["0,1,2,3"],  # one short row: numpy refused the ragged list
    ["0,1,2,3,4"] * 4,                # one row too few
], ids=["short-row", "short-grid"])
def test_ragged_csv_grid_gets_the_readers_message(tmp_path, rows):
    path = tmp_path / "g.csv"
    path.write_bytes(("tfshift-grid p=5 format=csv\n" + "\n".join(rows) + "\n").encode())
    with pytest.raises(ValueError, match="payload length does not match p"):
        read_grid(path)


def test_text_signal_payload_of_a_wrong_count_is_refused(sig, tmp_path):
    path = tmp_path / "a.txt"
    write_signal(path, sig, "random", fmt="text")
    raw = path.read_bytes()
    path.write_bytes(raw[:raw.rindex(b"\n", 0, -1) + 1])  # drop the last sample's line
    with pytest.raises(ValueError, match="payload length does not match p"):
        read_signal(path)
