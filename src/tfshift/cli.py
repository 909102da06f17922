"""Command-line interface: waveform generation, ambiguity surfaces, detection,
simulation, and benchmarks.

Exit codes: 0 success, 1 low-confidence detection, 2 usage/config error,
3 construction error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .detect import THETA1_DEFAULT, THETA2_DEFAULT, extract_bits, radar_detect
from .fastmf import mf_on_line
from .fileio import (parse_slope, read_signal, slope_token, write_grid, write_profile,
                     write_signal)
from .gfp import Line, PlanePoint, as_prime
from .heisenberg import cross_waveform, line_vector
from .signals import Signal, mf_full, random_signal
from .sim import ChannelSpec, UserSpec, bench_complexity, fit_exponent, monte_carlo
from .weil import _flag, make_torus, torus_vector

EXIT_OK = 0
EXIT_LOW_CONFIDENCE = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3


class UsageError(Exception):
    pass


def _parse_prime(value) -> "Prime":
    try:
        p = as_prime(int(value))
    except ValueError as e:
        raise UsageError(f"bad prime {value!r}: {e}")
    if p.p > np.iinfo(np.intp).max // 16:  # no length-p complex128 array can exist
        raise UsageError(f"p={p.p} is too large: numpy can hold no array of p complex samples")
    return p


def _parse_pair(text: str, option: str, parse=int) -> tuple:
    try:
        a, b = (parse(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad {option} {text!r}: expected two comma-separated values")
    return a, b


def _check_thresholds(theta1: float, theta2: float) -> None:
    if not (np.isfinite(theta1) and np.isfinite(theta2)):
        raise UsageError(f"--theta1 and --theta2 must be finite, got {theta1}, {theta2}")


def _read_lines(path, what: str) -> list[str]:
    """A text file's stripped lines less blanks and comments; a usage error if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.strip() for ln in fh
                    if ln.strip() and not ln.strip().startswith("#")]
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {what}: {e}")


def _read_signal_or_usage(path):
    """Read an input signal file; any problem with it is a usage error."""
    try:
        return read_signal(path)
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read signal file {path}: {e}")


# ---------------------------------------------------------------- recipes

def _waveform(kind: str, p, raw, label, where: str = ""):
    """The waveform a recipe names, with the header fields that name it.

    raw(key) is a recipe field's raw value (None if absent) and label(key) its
    name in messages, which start with `where`. The recipe is the user's or
    the file's choice, so one that names no waveform is a usage error.
    """
    def field(key, parse=int):
        value = raw(key)
        if value is None:
            raise UsageError(f"{where}{kind} needs {label(key)}")
        try:
            return parse(value)
        except ValueError:
            raise UsageError(f"{where}bad {label(key)} value {value!r}")

    def line(key):
        return field(key, lambda text: Line(parse_slope(text), p))

    try:
        if kind == "random":
            seed = field("seed")
            if seed < 0:
                raise UsageError(f"{where}{label('seed')} must be >= 0, got {seed}")
            return random_signal(p, seed), {"seed": seed}
        if kind == "heisenberg":
            hv = line_vector(line("line"), field("index"))
            return hv, {"line": slope_token(hv.line), "index": hv.index}
        if kind == "cross":
            L, M, il, im = line("line_l"), line("line_m"), field("index_l"), field("index_m")
            return cross_waveform(L, M, il, im), {
                "line_l": slope_token(L), "line_m": slope_token(M),
                "index_l": il, "index_m": im}
        L = line("line") if kind == "flag" else None
        b = field("b_index") if kind == "flag" else None
        trace, eig = field("torus_trace"), field("eig_index")
        if not 0 <= eig < p.p:
            raise UsageError(f"{where}{label('eig_index')} {eig} is not in 0..{p.p - 1}")
        T = make_torus(trace, p)
        phi = torus_vector(T, eig)
        if phi.degenerate:
            raise UsageError(f"{where}{label('eig_index')} {eig} names a degenerate "
                             "Weil eigenvector")
        if kind == "weil":
            return phi, {"torus_trace": trace, "eig_index": eig, "torus_kind": T.kind}
        return _flag(L, b, eig, phi), {
            "line": slope_token(L), "torus_trace": trace, "b_index": b, "eig_index": eig}
    except ValueError as e:
        raise UsageError(f"{where}{e}")


# ------------------------------------------------------------------- gen

# recipe fields that gen reads from an A,B option: (option's attribute, position)
_PAIRS = {"line_l": ("lines", 0), "line_m": ("lines", 1),
          "index_l": ("indices", 0), "index_m": ("indices", 1)}


def cmd_gen(args) -> int:
    p = _parse_prime(args.p)

    def option(key):
        return "--" + _PAIRS.get(key, (key,))[0].replace("_", "-")

    def raw(key):
        if key not in _PAIRS:
            return getattr(args, key)
        text = getattr(args, _PAIRS[key][0])
        return None if text is None else _parse_pair(text, option(key), str)[_PAIRS[key][1]]

    w, desc = _waveform(args.kind, p, raw, option)
    sig = w if isinstance(w, Signal) else w.signal
    write_signal(args.out, sig, args.kind, desc, args.format)
    pairs = " ".join(f"{k}={v}" for k, v in desc.items())
    print(f"kind={args.kind} p={p.p} norm={sig.norm():.9g} {pairs} out={args.out}")
    return EXIT_OK


# -------------------------------------------------------------- ambiguity

def cmd_ambiguity(args) -> int:
    if args.offset is not None and args.line is None:
        raise UsageError("--offset needs --line")
    S, _ = _read_signal_or_usage(args.sender)
    R, _ = _read_signal_or_usage(args.receiver)
    if S.p != R.p:
        raise UsageError("sender and receiver have different p")
    if args.line is not None:
        t, w = _parse_pair(args.offset or "0,0", "--offset")
        off = PlanePoint(t, w, S.p)
        try:
            line = Line(parse_slope(args.line), S.p, offset=off)
        except ValueError as e:
            raise UsageError(str(e))
        prof = mf_on_line(S, R, line)
        write_profile(args.out, prof, args.format if args.format != "csv" else "text")
        print(f"profile p={S.p.p} line={slope_token(line)} "
              f"peak={float(np.max(np.abs(prof.values))):.9g} out={args.out}")
        return EXIT_OK
    M = mf_full(S, R)
    write_grid(args.out, S.p, M.magnitudes(), "binary" if args.format == "binary" else "csv")
    tau, om = M.argmax()
    print(f"grid p={S.p.p} peak={float(np.abs(M.entries[tau, om])):.9g} "
          f"peak_tau={tau} peak_omega={om} out={args.out}")
    return EXIT_OK


# ----------------------------------------------------------------- detect

def cmd_detect(args) -> int:
    if args.method == "radar" and args.targets < 1:
        raise UsageError(f"--targets must be >= 1, got {args.targets}")
    _check_thresholds(args.theta1, args.theta2)
    R, _ = _read_signal_or_usage(args.receiver)
    paths = _read_lines(args.manifest, "manifest")
    if not paths:
        raise UsageError("manifest lists no waveforms")
    entries, kinds = [], []
    for path in paths:
        stored, header = _read_signal_or_usage(path)
        if stored.p != R.p:
            raise UsageError(f"waveform {path} has p={stored.p.p}, receiver has p={R.p.p}")
        if header.get("kind") not in ("flag", "cross"):
            raise UsageError("manifest entries must be flag or cross waveforms, "
                             f"got {header.get('kind')!r}")
        w, _ = _waveform(header["kind"], stored.p, header.get, lambda key: key,
                         f"waveform {path}: ")
        if float(np.max(np.abs(w.signal.samples - stored.samples))) > 1e-8:
            print(f"warning: payload of {path} differs from its descriptor rebuild",
                  file=sys.stderr)
        # the header recipe supplies the scan lines; detection uses the payload
        entries.append(dataclasses.replace(w, signal=stored))
        kinds.append(header["kind"])

    if args.method == "radar":
        if kinds != ["flag"]:
            raise UsageError("radar detection expects a manifest with exactly one flag")
        dets = radar_detect(R, entries[0], args.targets, args.theta1, args.theta2)
        for i, d in enumerate(dets):
            print(f"target={i} shift_tau={d.shift.tau} shift_omega={d.shift.omega} "
                  f"magnitude={d.magnitude:.9g} stage1={d.stage1_magnitude:.9g} "
                  f"confident={int(d.confident)}")
        ok = len(dets) == args.targets and all(d.confident for d in dets)
        return EXIT_OK if ok else EXIT_LOW_CONFIDENCE

    decisions = extract_bits(R, entries, args.theta1, args.theta2)
    for i, b in enumerate(decisions):
        d = b.detection
        print(f"id=w{i} shift_tau={d.shift.tau} shift_omega={d.shift.omega} "
              f"magnitude={d.magnitude:.9g} stage1={d.stage1_magnitude:.9g} "
              f"confident={int(d.confident)} bit={b.bit:+d} "
              f"soft_re={b.soft.real:.9g} soft_im={b.soft.imag:.9g}")
    ok = all(b.detection.confident for b in decisions)
    return EXIT_OK if ok else EXIT_LOW_CONFIDENCE


# --------------------------------------------------------------- simulate

def _load_config(path: str) -> dict:
    cfg = {}
    for ln in _read_lines(path, "config"):
        if "=" not in ln:
            raise UsageError(f"bad config line {ln!r}: expected key=value")
        k, _, v = ln.partition("=")
        cfg[k.strip()] = v.strip()
    return cfg


_SIM_DEFAULTS = {"r": 1, "sigma": 0.0, "trials": 100, "method": "flag", "seed": 0,
                 "theta1": THETA1_DEFAULT, "theta2": THETA2_DEFAULT}


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config) if args.config else {}

    def pick(name, cast):
        v = getattr(args, name, None)
        if v is not None:
            return v
        if name in cfg:
            try:
                return cast(cfg[name])
            except ValueError:
                raise UsageError(f"bad config value for {name}: {cfg[name]!r}")
        if name in _SIM_DEFAULTS:
            return _SIM_DEFAULTS[name]
        raise UsageError(f"missing required parameter {name}")

    p = _parse_prime(pick("p", int))
    r = int(pick("r", int))
    sigma = float(pick("sigma", float))
    trials = int(pick("trials", int))
    method = str(pick("method", str))
    seed = int(pick("seed", int))
    theta1 = float(pick("theta1", float))
    theta2 = float(pick("theta2", float))
    if method not in ("flag", "cross"):
        raise UsageError(f"unknown method {method!r}")
    _check_thresholds(theta1, theta2)
    if trials < 1 or r < 1:
        raise UsageError("trials and r must be >= 1")
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    users = tuple(UserSpec(f"w{k}", PlanePoint(0, 0, p)) for k in range(r))
    stats = monte_carlo(ChannelSpec(p, users, sigma, seed), trials, method,
                        theta1, theta2)
    lines = [
        "p,r,sigma,trials,method,seed,exact_shift_rate,bit_error_rate,"
        "mean_stage1_mag,mean_peak_mag,confident_rate,confident_wrong_rate",
        f"{p.p},{r},{sigma:.9g},{trials},{method},{seed},"
        f"{stats.exact_shift_rate:.9g},{stats.bit_error_rate:.9g},"
        f"{stats.mean_stage1_mag:.9g},{stats.mean_peak_mag:.9g},"
        f"{stats.confident_rate:.9g},{stats.confident_wrong_rate:.9g}",
    ]
    return _emit(args.out, lines)


def _emit(path: str | None, lines: list[str]) -> int:
    """Write the lines of a report to the file path, or to stdout if None."""
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------------ bench

def cmd_bench(args) -> int:
    ps = [_parse_prime(x).p for x in args.p.split(",") if x]
    if not ps:
        raise UsageError("--p lists no primes")
    if args.repeats < 1 or args.full_rows < 1:
        raise UsageError("--repeats and --full-rows must be >= 1")
    rows = bench_complexity(ps, repeats=args.repeats, full_rows=args.full_rows)
    out = ["p,t_line_s,dft_ops_line,t_full_s,full_extrapolated,ratio"]
    for row in rows:
        out.append(f"{row['p']},{row['t_line_s']:.9g},{row['dft_ops_line']},"
                   f"{row['t_full_s']:.9g},{int(row['full_extrapolated'])},"
                   f"{row['ratio']:.9g}")
    if len({row["p"] for row in rows}) >= 2:  # one distinct p fits no slope
        expo = fit_exponent([r["p"] for r in rows], [r["dft_ops_line"] for r in rows])
        out.append(f"# fitted_ops_exponent={expo:.6g}")
    return _emit(args.out, out)


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tfshift",
                                 description="waveform design and fast matched "
                                             "filtering over F_p")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a waveform file")
    g.add_argument("--p", required=True)
    g.add_argument("--kind", required=True,
                   choices=["heisenberg", "weil", "flag", "cross", "random"])
    g.add_argument("--out", required=True)
    g.add_argument("--format", default="binary", choices=["binary", "text"])
    g.add_argument("--line", default=None, help="slope or 'vertical'")
    g.add_argument("--lines", default=None, help="two slopes A,B for a cross")
    g.add_argument("--indices", default="0,0", help="two basis indices for a cross")
    g.add_argument("--index", type=int, default=None)
    g.add_argument("--b-index", type=int, default=None)
    g.add_argument("--eig-index", type=int, default=None)
    g.add_argument("--torus-trace", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("ambiguity", help="dump |M[S,R]| as a grid or one line profile")
    a.add_argument("--sender", required=True)
    a.add_argument("--receiver", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--format", default="csv", choices=["csv", "binary", "text"])
    a.add_argument("--line", default=None, help="slope or 'vertical' for the fast path")
    a.add_argument("--offset", default=None, help="line offset 'tau,omega'")
    a.set_defaults(func=cmd_ambiguity)

    d = sub.add_parser("detect", help="run detection against a waveform manifest")
    d.add_argument("--receiver", required=True)
    d.add_argument("--manifest", required=True)
    d.add_argument("--method", default="flag", choices=["flag", "cross", "radar"],
                   help="radar: echoes of one flag; flag and cross are the same "
                        "(each file's header kind picks the algorithm)")
    d.add_argument("--targets", type=int, default=1, help="radar target count")
    d.add_argument("--theta1", type=float, default=THETA1_DEFAULT)
    d.add_argument("--theta2", type=float, default=THETA2_DEFAULT)
    d.set_defaults(func=cmd_detect)

    s = sub.add_parser("simulate", help="Monte Carlo detection statistics")
    s.add_argument("--p", default=None)
    s.add_argument("--r", type=int, default=None)
    s.add_argument("--sigma", type=float, default=None)
    s.add_argument("--trials", type=int, default=None)
    s.add_argument("--method", default=None, choices=["flag", "cross"])
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--theta1", type=float, default=None)
    s.add_argument("--theta2", type=float, default=None)
    s.add_argument("--config", default=None, help="key=value file; flags override")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_simulate)

    b = sub.add_parser("bench", help="fast-vs-full matched filter benchmark; line "
                                     "figures are the steady-state scan (2 DFTs)")
    b.add_argument("--p", required=True, help="comma-separated primes")
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--full-rows", type=int, default=32)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as e:
        print(f"construction error: {e}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except MemoryError as e:
        print(f"construction error: out of memory: {e}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
