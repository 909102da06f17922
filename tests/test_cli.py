"""Command-line interface, exercised in process through cli.main."""

import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from tfshift import (
    Line,
    PlanePoint,
    Signal,
    as_prime,
    awgn,
    flag_family,
    flag_waveform,
    heisenberg_op,
    make_torus,
    random_signal,
    read_grid,
    read_profile,
    read_signal,
    write_signal,
)
from tfshift import cli, weil
from tfshift.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_flag_signal(tmp_path, capsys):
    path = tmp_path / "flag.sig"
    code, out, _ = run(capsys, "gen", "--p", 101, "--kind", "flag",
                       "--line", 1, "--torus-trace", 0, "--b-index", 0,
                       "--eig-index", 1, "--out", path)
    assert code == 0
    assert "kind=flag" in out and "p=101" in out
    sig, header = read_signal(path)
    assert header["kind"] == "flag"
    assert sig.norm() == pytest.approx(np.sqrt(2), abs=1e-9)


def test_gen_cross_and_random(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--p", 31, "--kind", "cross",
                       "--lines", "0,1", "--indices", "2,3",
                       "--out", tmp_path / "c.sig")
    assert code == 0 and "kind=cross" in out
    code, out, _ = run(capsys, "gen", "--p", 31, "--kind", "random",
                       "--seed", 9, "--out", tmp_path / "r.sig", "--format", "text")
    assert code == 0
    sig, header = read_signal(tmp_path / "r.sig")
    assert header["format"] == "text"
    assert sig.norm() == pytest.approx(1.0, abs=1e-12)


def test_gen_rejects_composite_p(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--p", 100, "--kind", "random",
                       "--out", tmp_path / "x.sig")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("kind", ["flag", "weil"])
@pytest.mark.parametrize("eig", [101, -1])
def test_gen_rejects_eig_index_out_of_range(tmp_path, capsys, kind, eig):
    code, _, err = run(capsys, "gen", "--p", 101, "--kind", kind, "--line", 1,
                       "--torus-trace", 0, "--b-index", 0, "--eig-index", eig,
                       "--out", tmp_path / "w.sig")
    assert code == 2
    assert "--eig-index" in err
    assert not (tmp_path / "w.sig").exists()


@pytest.mark.parametrize("argv, word", [
    (["--kind", "flag", "--line", 1, "--torus-trace", 0, "--b-index", 0,
      "--eig-index", 50], "degenerate"),
    (["--kind", "weil", "--torus-trace", 0, "--eig-index", 51], "degenerate"),
    (["--kind", "flag", "--line", 1, "--torus-trace", 2, "--b-index", 0,
      "--eig-index", 1], "parabolic"),
    (["--kind", "cross", "--lines", "5,5"], "distinct"),
], ids=["flag-degenerate", "weil-degenerate", "parabolic-trace", "same-lines"])
def test_gen_rejects_bad_recipe_as_usage(tmp_path, capsys, argv, word):
    # the recipe is the user's choice, so one that names no waveform is a
    # usage error; callers retry a flag on the word "degenerate"
    code, _, err = run(capsys, "gen", "--p", 101, *argv, "--out", tmp_path / "w.sig")
    assert code == 2
    assert err.startswith("error:") and word in err
    assert not (tmp_path / "w.sig").exists()


@pytest.mark.parametrize("fmt", ["binary", "text"])
@pytest.mark.parametrize("argv, header", [
    (["--kind", "heisenberg", "--line", 40, "--index", 33],
     "tfshift-signal p=31 kind=heisenberg format={} line=9 index=2"),
    (["--kind", "weil", "--torus-trace", 3, "--eig-index", 2],
     "tfshift-signal p=31 kind=weil format={} torus_trace=3 eig_index=2 "
     "torus_kind=split"),
    (["--kind", "flag", "--line", "vertical", "--torus-trace", 0, "--b-index", 35,
      "--eig-index", 1],
     "tfshift-signal p=31 kind=flag format={} line=vertical torus_trace=0 "
     "b_index=35 eig_index=1"),
    (["--kind", "cross", "--lines", "3,vertical", "--indices", "40,-2"],
     "tfshift-signal p=31 kind=cross format={} line_l=3 line_m=vertical "
     "index_l=40 index_m=-2"),
    (["--kind", "random", "--seed", 7],
     "tfshift-signal p=31 kind=random format={} seed=7"),
], ids=["heisenberg", "weil", "flag", "cross", "random"])
def test_gen_header_format_is_pinned(tmp_path, capsys, argv, header, fmt):
    # the header line is the file format: heisenberg stores index mod p, weil
    # adds torus_kind, and the other fields keep the values given
    path = tmp_path / "w.sig"
    assert run(capsys, "gen", "--p", 31, *argv, "--format", fmt, "--out", path)[0] == 0
    assert path.read_bytes().split(b"\n", 1)[0].decode() == header.format(fmt)


def test_ambiguity_grid_and_profile(tmp_path, capsys):
    flag = tmp_path / "flag.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "flag", "--line", 1,
               "--torus-trace", 0, "--b-index", 0, "--eig-index", 0,
               "--out", flag)[0] == 0
    recv = tmp_path / "recv.sig"
    assert run(capsys, "ambiguity", "--sender", flag, "--receiver", flag,
               "--out", tmp_path / "g.csv")[0] == 0
    mags, header = read_grid(tmp_path / "g.csv")
    assert header["p"] == "31"
    assert mags.shape == (31, 31)
    assert mags[0, 0] == pytest.approx(2.0, abs=2 / np.sqrt(31) + 1e-9)

    code, out, _ = run(capsys, "ambiguity", "--sender", flag,
                       "--receiver", flag, "--line", 1,
                       "--out", tmp_path / "prof.bin", "--format", "binary")
    assert code == 0 and "profile" in out
    prof, _ = read_profile(tmp_path / "prof.bin")
    assert prof.values.shape == (31,)


def test_ambiguity_rejects_p_mismatch(tmp_path, capsys):
    a, b = tmp_path / "a.sig", tmp_path / "b.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "random", "--out", a)[0] == 0
    assert run(capsys, "gen", "--p", 11, "--kind", "random", "--out", b)[0] == 0
    assert run(capsys, "ambiguity", "--sender", a, "--receiver", b,
               "--out", tmp_path / "g.csv")[0] == 2


def make_receiver(tmp_path, flag_path, shift, sigma=0.0):
    sig, header = read_signal(flag_path)
    p = sig.p
    acc = heisenberg_op(sig, PlanePoint(*shift, p)).samples
    if sigma:
        acc = acc + awgn(p, sigma, seed=0).samples
    out = tmp_path / "recv.sig"
    write_signal(out, Signal(p, acc), "receiver")
    return out


def test_detect_flag_roundtrip(tmp_path, capsys):
    flag = tmp_path / "flag.sig"
    assert run(capsys, "gen", "--p", 101, "--kind", "flag", "--line", 2,
               "--torus-trace", 0, "--b-index", 0, "--eig-index", 0,
               "--out", flag)[0] == 0
    recv = make_receiver(tmp_path, flag, (50, 50))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"# one flag\n{flag}\n")
    code, out, _ = run(capsys, "detect", "--receiver", recv,
                       "--manifest", manifest)
    assert code == 0
    assert "shift_tau=50 shift_omega=50" in out
    assert "confident=1" in out and "bit=+1" in out


def test_detect_cross_roundtrip(tmp_path, capsys):
    cross = tmp_path / "cross.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "cross", "--lines", "4,vertical",
               "--indices", "7,30", "--out", cross)[0] == 0
    recv = make_receiver(tmp_path, cross, (5, 17))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{cross}\n")
    code, out, err = run(capsys, "detect", "--receiver", recv,
                         "--manifest", manifest)
    assert code == 0 and err == ""
    assert "shift_tau=5 shift_omega=17" in out
    assert "confident=1" in out and "bit=+1" in out


def test_detect_low_confidence_exit(tmp_path, capsys):
    flag = tmp_path / "flag.sig"
    assert run(capsys, "gen", "--p", 101, "--kind", "flag", "--line", 2,
               "--torus-trace", 0, "--b-index", 0, "--eig-index", 0,
               "--out", flag)[0] == 0
    sig, _ = read_signal(flag)
    noise = tmp_path / "noise.sig"
    write_signal(noise, awgn(sig.p, np.sqrt(1 / 101), seed=1), "receiver")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{flag}\n")
    code, out, _ = run(capsys, "detect", "--receiver", noise,
                       "--manifest", manifest)
    assert code == 1
    assert "confident=0" in out


def test_detect_radar(tmp_path, capsys):
    flag = tmp_path / "flag.sig"
    assert run(capsys, "gen", "--p", 101, "--kind", "flag", "--line", 0,
               "--torus-trace", 0, "--b-index", 0, "--eig-index", 0,
               "--out", flag)[0] == 0
    sig, _ = read_signal(flag)
    p = sig.p
    acc = (heisenberg_op(sig, PlanePoint(10, 7, p)).samples
           + heisenberg_op(sig, PlanePoint(60, 33, p)).samples)
    recv = tmp_path / "recv.sig"
    write_signal(recv, Signal(p, acc), "receiver")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{flag}\n")
    code, out, _ = run(capsys, "detect", "--receiver", recv,
                       "--manifest", manifest, "--method", "radar",
                       "--targets", 2)
    assert code == 0
    assert "target=0" in out and "target=1" in out
    got = set()
    for line in out.strip().splitlines():
        fields = dict(tok.split("=") for tok in line.split())
        got.add((int(fields["shift_tau"]), int(fields["shift_omega"])))
    assert got == {(10, 7), (60, 33)}


def test_detect_uses_stored_payload(tmp_path, capsys):
    # the header names b_index=0 but the payload is the b_index=5 flag: the
    # header only supplies the scan lines, the scan runs with the payload, and
    # the mismatch is reported on stderr
    p = as_prime(101)
    payload = flag_waveform(Line(2, p), make_torus(0, p), 5, 0).signal
    flag = tmp_path / "flag.sig"
    write_signal(flag, payload, "flag", {"line": "2", "torus_trace": 0,
                                         "b_index": 0, "eig_index": 0})
    recv = make_receiver(tmp_path, flag, (50, 17))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{flag}\n")
    code, out, err = run(capsys, "detect", "--receiver", recv,
                         "--manifest", manifest)
    assert "differs from its descriptor" in err
    assert code == 0
    assert "shift_tau=50 shift_omega=17" in out
    assert "confident=1" in out and "bit=+1" in out


def test_detect_radar_rejects_nonpositive_targets(tmp_path, capsys):
    flag = tmp_path / "flag.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "flag", "--line", 1,
               "--torus-trace", 0, "--b-index", 0, "--eig-index", 0,
               "--out", flag)[0] == 0
    recv = make_receiver(tmp_path, flag, (3, 4))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{flag}\n")
    for n in (0, -1):
        code, out, err = run(capsys, "detect", "--receiver", recv,
                             "--manifest", manifest, "--method", "radar",
                             "--targets", n)
        assert code == 2, n
        assert out == "" and "--targets" in err


def test_malformed_arguments_are_usage_errors(tmp_path, capsys):
    sig = tmp_path / "r.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "random", "--out", sig)[0] == 0
    for offset in ("junk", "1,2,3", "a,b"):
        code, _, err = run(capsys, "ambiguity", "--sender", sig,
                           "--receiver", sig, "--line", 1, "--offset", offset,
                           "--out", tmp_path / "prof.txt")
        assert code == 2, offset
        assert "--offset" in err
    for indices in ("a,b", "1", "1,2,3"):
        code, _, err = run(capsys, "gen", "--p", 31, "--kind", "cross",
                           "--lines", "0,1", "--indices", indices,
                           "--out", tmp_path / "c.sig")
        assert code == 2, indices
        assert "--indices" in err



@pytest.mark.parametrize("kind, fields, bad", [
    ("flag", {"line": "1", "torus_trace": 0, "eig_index": 0}, "b_index"),
    ("flag", {"line": "1", "torus_trace": "x", "b_index": 0, "eig_index": 0},
     "torus_trace"),
    ("flag", {"line": "up", "torus_trace": 0, "b_index": 0, "eig_index": 0},
     "line"),
    ("flag", {"line": "1", "torus_trace": 0, "b_index": 0, "eig_index": 31},
     "eig_index"),
    ("cross", {"line_l": "0", "line_m": "1", "index_l": 0}, "index_m"),
    ("cross", {"line_l": "0", "line_m": "1", "index_l": "1.5", "index_m": 0},
     "index_l"),
    ("flag", {"line": "1", "torus_trace": 2, "b_index": 0, "eig_index": 1},
     "parabolic"),
    ("flag", {"line": "1", "torus_trace": 1, "b_index": 0, "eig_index": 7},
     "degenerate"),
    ("cross", {"line_l": "3", "line_m": "3", "index_l": 0, "index_m": 0},
     "distinct"),
])
def test_detect_rejects_bad_recipe_fields(tmp_path, capsys, kind, fields, bad):
    # a header recipe that is missing a field, holds a malformed one, or names
    # no waveform is a bad input file: usage error naming the file and the field
    p = as_prime(31)
    wave = tmp_path / "w.sig"
    write_signal(wave, awgn(p, 0.1, seed=3), kind, fields)
    recv = make_receiver(tmp_path, wave, (3, 4))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{wave}\n")
    code, out, err = run(capsys, "detect", "--receiver", recv,
                         "--manifest", manifest)
    assert code == 2
    assert out == "" and str(wave) in err and bad in err


def test_detect_rejects_non_finite_receiver(tmp_path, capsys):
    wave = tmp_path / "c.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "cross", "--lines", "0,1",
               "--out", wave)[0] == 0
    recv = make_receiver(tmp_path, wave, (3, 4))
    raw = bytearray(recv.read_bytes())
    head = raw.index(b"\n") + 1
    raw[head:head + 8] = np.array([np.nan], dtype="<f8").tobytes()
    recv.write_bytes(bytes(raw))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{wave}\n")
    code, out, err = run(capsys, "detect", "--receiver", recv,
                         "--manifest", manifest)
    assert code == 2
    assert out == "" and "finite" in err


def test_detect_and_ambiguity_refuse_a_short_file_naming_a_huge_p(tmp_path, capsys):
    # the file's 2-byte payload is refused before any primality test on p,
    # the Mersenne prime 2^61 - 1
    wave = tmp_path / "c.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "cross", "--lines", "0,1",
               "--out", wave)[0] == 0
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{wave}\n")
    huge = tmp_path / "huge.sig"
    huge.write_bytes(f"tfshift-signal p={2**61 - 1} format=binary\n".encode() + b"\0\0")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "detect", "--receiver", huge, "--manifest", manifest)
    assert code == 2 and out == "" and str(huge) in err
    code, out, err = run(capsys, "ambiguity", "--sender", wave, "--receiver", huge,
                         "--out", tmp_path / "g.csv")
    assert code == 2 and out == "" and str(huge) in err
    assert time.perf_counter() - t0 < 2


def test_detect_names_a_receiver_of_the_wrong_byte_length(tmp_path, capsys):
    wave = tmp_path / "c.sig"
    assert run(capsys, "gen", "--p", 7, "--kind", "cross", "--lines", "0,1",
               "--out", wave)[0] == 0
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{wave}\n")
    recv = tmp_path / "recv.sig"
    recv.write_bytes(b"tfshift-signal p=7 format=binary\n\0\0")
    code, out, err = run(capsys, "detect", "--receiver", recv, "--manifest", manifest)
    assert code == 2 and out == ""
    assert str(recv) in err and "payload length does not match p" in err


@pytest.mark.parametrize("p", [2**61 - 1, 2305843009213691579, 2**61 - 3])
@pytest.mark.parametrize("kind", ["random", "heisenberg", "weil", "flag", "cross"])
def test_gen_at_a_61_bit_p_exits_at_once(tmp_path, capsys, p, kind):
    # primality is decided in milliseconds; then a prime p is refused as too
    # large for a length-p array before any is built (2^61 - 3 is composite
    # and refused as a prime)
    out_path = tmp_path / "x.sig"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "gen", "--p", p, "--kind", kind, "--line", 1,
                         "--lines", "0,1", "--index", 0, "--b-index", 0, "--eig-index", 5,
                         "--torus-trace", 0, "--seed", 0, "--out", out_path)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == "" and err.startswith("error: ")
    assert ("not prime" in err) == (p == 2**61 - 3)
    assert not out_path.exists()



@pytest.mark.parametrize("p", [2**61 - 1, 2305843009213691579])
@pytest.mark.parametrize("command", ["random", "heisenberg", "weil", "flag", "cross",
                                     "simulate", "bench"])
def test_a_prime_too_large_for_numpy_is_a_usage_error_naming_it(tmp_path, capsys, p,
                                                                command):
    # numpy's "array is too big" exited 2 from gen and 3 from simulate and
    # bench, and named no p; no length-p complex array can exist at this p
    out_path = tmp_path / "x.sig"
    argv = {"simulate": ("simulate", "--p", p, "--trials", 1),
            "bench": ("bench", "--p", p)}.get(command, (
        "gen", "--p", p, "--kind", command, "--line", 1, "--lines", "0,1", "--index", 0,
        "--b-index", 0, "--eig-index", 5, "--torus-trace", 0, "--out", out_path))
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"p={p} is too large" in err
    assert not out_path.exists()


ERROR_PATHS = ["ambiguity-line", "empty-manifest", "manifest-other-p", "manifest-receiver",
               "config-line", "config-value", "config-no-p", "config-radar", "trials-0",
               "bench-no-primes", "bench-out-missing-dir"]


@pytest.mark.parametrize("case", ERROR_PATHS)
def test_usage_errors_exit_2_with_their_message(tmp_path, capsys, case):
    recv, other, entry = tmp_path / "recv.sig", tmp_path / "p37.sig", tmp_path / "entry.sig"
    write_signal(recv, random_signal(31, seed=1), "receiver")
    write_signal(other, random_signal(37, seed=2), "flag")
    write_signal(entry, random_signal(31, seed=3), "receiver")

    def text(name, body):
        path = tmp_path / name
        path.write_text(body)
        return path

    detect = ("detect", "--receiver", recv, "--manifest")
    missing = tmp_path / "absent" / "bench.csv"
    argv, message = {
        "ambiguity-line": (("ambiguity", "--sender", recv, "--receiver", recv,
                            "--line", "x", "--out", tmp_path / "prof.txt"), "bad line 'x'"),
        "empty-manifest": ((*detect, text("m0.txt", "# none\n\n")), "lists no waveforms"),
        "manifest-other-p": ((*detect, text("m1.txt", f"{other}\n")),
                             f"waveform {other} has p=37, receiver has p=31"),
        "manifest-receiver": ((*detect, text("m2.txt", f"{entry}\n")),
                              "must be flag or cross waveforms, got 'receiver'"),
        "config-line": (("simulate", "--config", text("c0.cfg", "p=31\ntrials\n")),
                        "bad config line 'trials'"),
        "config-value": (("simulate", "--config", text("c1.cfg", "p=31\ntrials=many\n")),
                         "bad config value for trials: 'many'"),
        "config-no-p": (("simulate", "--config", text("c2.cfg", "trials=1\n")),
                        "missing required parameter p"),
        "config-radar": (("simulate", "--config",
                          text("c3.cfg", "p=31\ntrials=1\nmethod=radar\n")),
                         "unknown method 'radar'"),
        "trials-0": (("simulate", "--p", 31, "--trials", 0), "trials and r must be >= 1"),
        "bench-no-primes": (("bench", "--p", ","), "--p lists no primes"),
        "bench-out-missing-dir": (("bench", "--p", 31, "--repeats", 1, "--out", missing),
                                  str(missing)),
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_bench_out_writes_its_file(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", "--p", "31,61", "--repeats", 1, "--out", path)
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("p,t_line_s,dft_ops_line")
    assert [line.split(",")[0] for line in lines[1:3]] == ["31", "61"]

def count_builds(monkeypatch):
    """The Weil-vector requests (_vectors calls, by size) and ladders
    (_project calls) run while the test lasts."""
    requests, ladders = [], []
    vectors, project = weil._vectors, weil._project
    monkeypatch.setattr(weil, "_vectors",
                        lambda tori, index: requests.append(len(tori)) or vectors(tori, index))
    monkeypatch.setattr(weil, "_project",
                        lambda *args: ladders.append(1) or project(*args))
    return requests, ladders


def test_gen_and_detect_of_a_flag_build_its_vector_once(tmp_path, capsys, monkeypatch):
    requests, ladders = count_builds(monkeypatch)
    flag = tmp_path / "flag.sig"
    assert run(capsys, "gen", "--p", 101, "--kind", "flag", "--line", 2,
               "--torus-trace", 0, "--b-index", 0, "--eig-index", 7,
               "--out", flag)[0] == 0
    assert requests == [1] and len(ladders) == 1
    recv = make_receiver(tmp_path, flag, (50, 60))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{flag}\n")
    requests.clear()
    ladders.clear()
    code, out, _ = run(capsys, "detect", "--receiver", recv, "--manifest", manifest)
    assert code == 0 and "shift_tau=50 shift_omega=60" in out
    assert requests == [1] and len(ladders) == 1


def test_empty_flag_family_runs_no_ladder(monkeypatch):
    requests, ladders = count_builds(monkeypatch)
    assert flag_family(101, 0, seed=3) == []
    assert requests == [0] and ladders == []
    assert weil._vectors([], []) == []


def test_start_up_leaves_numpy_ma_unimported():
    # numpy.ma takes 18-38 ms to import, and `tfshift detect` at small p
    # is bound by start-up; np.unique imports it on first use
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "import tfshift.cli\n"
            "assert 'numpy.ma' not in sys.modules, 'import tfshift.cli'\n"
            "from tfshift import sim\n"
            "sim.fit_exponent([11, 13], [3.0, 4.0])\n"
            "assert 'numpy.ma' not in sys.modules, 'fit_exponent'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_detect_missing_manifest(tmp_path, capsys):
    recv = tmp_path / "r.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "random", "--out", recv)[0] == 0
    assert run(capsys, "detect", "--receiver", recv,
               "--manifest", tmp_path / "absent.txt")[0] == 2


def test_simulate_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", "--p", 101, "--r", 1,
                       "--sigma", 0.0, "--trials", 5, "--seed", 0)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("p,r,sigma,trials,method,seed,exact_shift_rate")
    fields = row.split(",")
    assert fields[0] == "101" and fields[3] == "5"
    assert float(fields[6]) == 1.0  # single user, noiseless


def test_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("p=101\nr=1\ntrials=4\nsigma=0\nseed=3\n")
    out_path = tmp_path / "stats.csv"
    code, _, _ = run(capsys, "simulate", "--config", cfg, "--out", out_path)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("p,r,sigma")
    assert ",flag," in text


def test_simulate_rejects_bad_method(capsys):
    assert run(capsys, "simulate", "--p", 31, "--method", "nope",
               "--trials", 1)[0] == 2


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # numpy refuses it deep inside; the user should hear about --seed instead
    code, out, err = run(capsys, "simulate", "--p", 31, "--trials", 1, "--seed", -1)
    assert code == 2 and out == ""
    assert "--seed must be >= 0, got -1" in err
    code, _, err = run(capsys, "gen", "--p", 31, "--kind", "random", "--seed", -1,
                       "--out", tmp_path / "r.sig")
    assert code == 2
    assert "--seed must be >= 0, got -1" in err
    assert not (tmp_path / "r.sig").exists()


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--p", "31,61", "--repeats", 1)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,t_line_s,dft_ops_line")
    assert lines[1].startswith("31,") and lines[2].startswith("61,")
    assert lines[-1].startswith("# fitted_ops_exponent=")


def test_bench_small_primes_fit_a_finite_exponent(capsys):
    # p = 3 was priced at 0 ops: numpy warned on log(0) and the fit read nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "bench", "--p", "3,5,7", "--repeats", 1)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
    assert [int(r[0]) for r in rows] == [3, 5, 7]
    assert all(int(r[2]) > 0 for r in rows)
    assert np.isfinite(float(out.strip().splitlines()[-1].split("=")[1]))


def test_bench_fits_no_exponent_to_one_distinct_prime(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "bench", "--p", "101,101", "--repeats", 1)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3 and not any(line.startswith("#") for line in lines)


def test_bench_rejects_bad_list(capsys):
    assert run(capsys, "bench", "--p", "31,abc")[0] == 2
    assert run(capsys, "bench", "--p", "32")[0] == 2


def test_bench_rejects_full_rows_below_one(capsys):
    # checked before any timing: a zero row count divided the extrapolation
    code, out, err = run(capsys, "bench", "--p", "2053", "--full-rows", 0)
    assert code == 2 and out == ""
    assert "--full-rows" in err


def test_bench_rejects_repeats_below_one(capsys):
    code, out, err = run(capsys, "bench", "--p", "31", "--repeats", 0)
    assert code == 2 and out == ""
    assert "--repeats" in err


def test_usage_error_on_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_gen_and_detect_flag_at_p1009(tmp_path, capsys):
    # the recipe path builds one Weil vector, so p = 1009 costs milliseconds;
    # the payload is flag_waveform's and detect's rebuild matches it
    flag = tmp_path / "flag.sig"
    code, out, _ = run(capsys, "gen", "--p", 1009, "--kind", "flag", "--line", 5,
                       "--torus-trace", 3, "--b-index", 77, "--eig-index", 400,
                       "--out", flag)
    assert code == 0 and "p=1009" in out
    sig, header = read_signal(flag)
    p = as_prime(1009)
    want = flag_waveform(Line(5, p), make_torus(3, p), 77, 400).signal.samples
    assert np.abs(sig.samples - want).max() < 1e-12
    recv = make_receiver(tmp_path, flag, (321, 654))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{flag}\n")
    code, out, err = run(capsys, "detect", "--receiver", recv, "--manifest", manifest)
    assert code == 0 and err == ""
    assert "shift_tau=321 shift_omega=654" in out and "confident=1" in out


def test_simulate_thresholds_change_the_confident_columns(capsys):
    rows = []
    for theta in (0.01, 9):
        code, out, _ = run(capsys, "simulate", "--p", 31, "--r", 2, "--sigma", 0.1,
                           "--trials", 20, "--theta1", theta, "--theta2", theta)
        assert code == 0
        header, row = out.strip().splitlines()
        rows.append(dict(zip(header.split(","), row.split(","))))
    low, high = rows
    assert header.endswith(",confident_rate,confident_wrong_rate")
    assert low != high
    assert float(low["confident_rate"]) == 1.0 and float(high["confident_rate"]) == 0.0
    assert float(high["confident_wrong_rate"]) == 0.0
    # every detection is confident at the low thresholds, so each miss counts
    assert float(low["confident_wrong_rate"]) == pytest.approx(1 - float(low["exact_shift_rate"]))


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
def test_simulate_rejects_bad_sigma_as_construction_error(capsys, sigma):
    code, out, err = run(capsys, "simulate", "--p", 31, "--trials", 1,
                         f"--sigma={sigma}")
    assert code == 3 and out == ""
    assert "sigma must be finite and nonnegative" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["theta1", "theta2"])
def test_simulate_rejects_non_finite_thresholds(tmp_path, capsys, option, value):
    code, out, err = run(capsys, "simulate", "--p", 31, "--trials", 1,
                         f"--{option}={value}")
    assert code == 2 and out == "" and "must be finite" in err
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"p=31\ntrials=1\n{option}={value}\n")
    code, out, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2 and out == "" and "must be finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["theta1", "theta2"])
def test_detect_rejects_non_finite_thresholds(tmp_path, capsys, option, value):
    flag = tmp_path / "flag.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "flag", "--line", 2,
               "--torus-trace", 0, "--b-index", 0, "--eig-index", 0,
               "--out", flag)[0] == 0
    recv = make_receiver(tmp_path, flag, (5, 7))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{flag}\n")
    for method in ("flag", "radar"):
        code, out, err = run(capsys, "detect", "--receiver", recv, "--manifest",
                             manifest, "--method", method, f"--{option}={value}")
        assert code == 2 and out == "" and "must be finite" in err, method


def test_detect_radar_needs_exactly_one_flag(tmp_path, capsys):
    flag, cross = tmp_path / "flag.sig", tmp_path / "cross.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "flag", "--line", 1,
               "--torus-trace", 0, "--b-index", 0, "--eig-index", 0,
               "--out", flag)[0] == 0
    assert run(capsys, "gen", "--p", 31, "--kind", "cross", "--lines", "0,1",
               "--out", cross)[0] == 0
    recv = make_receiver(tmp_path, flag, (3, 4))
    manifest = tmp_path / "manifest.txt"
    for entries in ([cross], [flag, flag], [flag, cross]):
        manifest.write_text("".join(f"{e}\n" for e in entries))
        code, out, err = run(capsys, "detect", "--receiver", recv,
                             "--manifest", manifest, "--method", "radar")
        assert code == 2 and out == "", entries
        assert "exactly one flag" in err


def test_detect_rejects_non_utf8_manifest(tmp_path, capsys):
    recv = tmp_path / "r.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "random", "--out", recv)[0] == 0
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"\xff\xfe not utf-8\n")
    code, out, err = run(capsys, "detect", "--receiver", recv, "--manifest", manifest)
    assert code == 2 and out == ""
    assert "cannot read manifest" in err


def test_simulate_rejects_non_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_bytes(b"p=31\ntrials=1\n# \xe9\n")
    code, out, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2 and out == ""
    assert "cannot read config" in err


def test_ambiguity_offset_needs_line(tmp_path, capsys):
    a = tmp_path / "a.sig"
    assert run(capsys, "gen", "--p", 31, "--kind", "random", "--out", a)[0] == 0
    code, out, err = run(capsys, "ambiguity", "--sender", a, "--receiver", a,
                         "--offset", "5,2", "--out", tmp_path / "g.csv")
    assert code == 2 and out == "" and "--offset" in err
    assert not (tmp_path / "g.csv").exists()


def test_memory_error_is_a_construction_error(monkeypatch, capsys):
    # numpy's allocation failure (4 PiB, above any address space, so nothing
    # is allocated) is a MemoryError subclass; it must not exit with 1, the
    # low-confidence code, through a traceback
    def exhausted(args):
        np.empty((1 << 24, 1 << 24), dtype=np.complex128)

    monkeypatch.setattr(cli, "cmd_simulate", exhausted)
    code, out, err = run(capsys, "simulate", "--method", "cross", "--p", 31)
    assert code == cli.EXIT_CONSTRUCTION
    assert err.startswith("construction error: out of memory:")
    assert err.count("\n") == 1 and "Traceback" not in err
