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
from .fileio import read_signal, write_grid, write_profile, write_signal
from .gfp import Line, PlanePoint, as_prime
from .heisenberg import cross_waveform, line_vector
from .signals import mf_full, random_signal
from .sim import ChannelSpec, UserSpec, bench_complexity, fit_exponent, monte_carlo
from .weil import Flag, flag_waveform, make_torus, torus_eigenbasis

EXIT_OK = 0
EXIT_LOW_CONFIDENCE = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3


class UsageError(Exception):
    pass


def _parse_slope(text: str):
    if text == "vertical":
        return None
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad line {text!r}: expected an integer slope or 'vertical'")


def _parse_prime(value) -> "Prime":
    try:
        return as_prime(int(value))
    except ValueError as e:
        raise UsageError(f"bad prime {value!r}: {e}")


def _parse_int_pair(text: str, option: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad {option} {text!r}: expected two comma-separated integers")
    return a, b


def _slope_token(line: Line) -> str:
    return "vertical" if line.is_vertical else str(line.slope)


def _read_signal_or_usage(path):
    """Read an input signal file; any problem with it is a usage error."""
    try:
        return read_signal(path)
    except (OSError, ValueError, KeyError) as e:
        raise UsageError(f"cannot read signal file {path}: {e}")


# ------------------------------------------------------------------- gen

def cmd_gen(args) -> int:
    p = _parse_prime(args.p)
    fmt = args.format
    if args.eig_index is not None and not 0 <= args.eig_index < p.p:
        raise UsageError(f"--eig-index {args.eig_index} is not in 0..{p.p - 1}")
    try:  # every field of the recipe is the user's choice
        if args.kind == "heisenberg":
            if args.line is None or args.index is None:
                raise UsageError("heisenberg needs --line and --index")
            L = Line(_parse_slope(args.line), p)
            hv = line_vector(L, args.index)
            sig, desc = hv.signal, {"line": _slope_token(L), "index": hv.index}
        elif args.kind == "weil":
            if args.torus_trace is None or args.eig_index is None:
                raise UsageError("weil needs --torus-trace and --eig-index")
            T = make_torus(args.torus_trace, p)
            wv = torus_eigenbasis(T)[args.eig_index]
            if wv.degenerate:
                raise UsageError("requested Weil eigenvector is degenerate")
            sig = wv.signal
            desc = {"torus_trace": args.torus_trace, "eig_index": args.eig_index,
                    "torus_kind": T.kind}
        elif args.kind == "flag":
            if args.line is None or args.torus_trace is None \
                    or args.b_index is None or args.eig_index is None:
                raise UsageError("flag needs --line, --torus-trace, --b-index, --eig-index")
            L = Line(_parse_slope(args.line), p)
            T = make_torus(args.torus_trace, p)
            fl = flag_waveform(L, T, args.b_index, args.eig_index)
            sig = fl.signal
            desc = {"line": _slope_token(L), "torus_trace": args.torus_trace,
                    "b_index": args.b_index, "eig_index": args.eig_index}
        elif args.kind == "cross":
            if args.lines is None:
                raise UsageError("cross needs --lines A,B")
            parts = args.lines.split(",")
            if len(parts) != 2:
                raise UsageError("--lines expects two comma-separated slopes")
            L = Line(_parse_slope(parts[0]), p)
            M = Line(_parse_slope(parts[1]), p)
            il, im = _parse_int_pair(args.indices or "0,0", "--indices")
            sig = cross_waveform(L, M, il, im).signal
            desc = {"line_l": _slope_token(L), "line_m": _slope_token(M),
                    "index_l": il, "index_m": im}
        elif args.kind == "random":
            sig = random_signal(p, args.seed)
            desc = {"seed": args.seed}
        else:  # pragma: no cover - argparse choices guard this
            raise UsageError(f"unknown kind {args.kind!r}")
    except ValueError as e:
        raise UsageError(str(e))
    write_signal(args.out, sig, args.kind, desc, fmt)
    pairs = " ".join(f"{k}={v}" for k, v in desc.items())
    print(f"kind={args.kind} p={p.p} norm={sig.norm():.9g} {pairs} out={args.out}")
    return EXIT_OK


# -------------------------------------------------------------- ambiguity

def cmd_ambiguity(args) -> int:
    S, _ = _read_signal_or_usage(args.sender)
    R, _ = _read_signal_or_usage(args.receiver)
    if S.p != R.p:
        raise UsageError("sender and receiver have different p")
    if args.line is not None:
        t, w = _parse_int_pair(args.offset or "0,0", "--offset")
        off = PlanePoint(t, w, S.p)
        line = Line(_parse_slope(args.line), S.p, offset=off)
        prof = mf_on_line(S, R, line)
        write_profile(args.out, prof, args.format if args.format != "csv" else "text")
        print(f"profile p={S.p.p} line={_slope_token(line)} "
              f"peak={float(np.max(np.abs(prof.values))):.9g} out={args.out}")
        return EXIT_OK
    M = mf_full(S, R)
    write_grid(args.out, S.p, M.magnitudes(), "binary" if args.format == "binary" else "csv")
    tau, om = M.argmax()
    print(f"grid p={S.p.p} peak={float(np.abs(M.entries[tau, om])):.9g} "
          f"peak_tau={tau} peak_omega={om} out={args.out}")
    return EXIT_OK


# ----------------------------------------------------------------- detect

def _rebuild_waveform(header: dict, path):
    """The waveform named by a file header's recipe; a missing or malformed
    recipe field is a usage error naming the file and the field."""
    def field(key, parse=int):
        if key not in header:
            raise UsageError(f"waveform {path}: header has no {key} field")
        try:
            return parse(header[key])
        except (ValueError, UsageError):
            raise UsageError(f"waveform {path}: bad {key} value {header[key]!r}")

    p = as_prime(int(header["p"]))
    kind = header.get("kind")
    if kind == "flag":
        L = Line(field("line", _parse_slope), p)
        T = make_torus(field("torus_trace"), p)
        eig = field("eig_index")
        if not 0 <= eig < p.p:
            raise UsageError(f"waveform {path}: eig_index {eig} is not in 0..{p.p - 1}")
        return flag_waveform(L, T, field("b_index"), eig)
    if kind == "cross":
        L = Line(field("line_l", _parse_slope), p)
        M = Line(field("line_m", _parse_slope), p)
        return cross_waveform(L, M, field("index_l"), field("index_m"))
    raise UsageError(f"manifest entries must be flag or cross waveforms, got {kind!r}")


def cmd_detect(args) -> int:
    if args.method == "radar" and args.targets < 1:
        raise UsageError(f"--targets must be >= 1, got {args.targets}")
    R, _ = _read_signal_or_usage(args.receiver)
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            paths = [ln.strip() for ln in fh
                     if ln.strip() and not ln.strip().startswith("#")]
    except OSError as e:
        raise UsageError(f"cannot read manifest: {e}")
    if not paths:
        raise UsageError("manifest lists no waveforms")
    entries = []
    for path in paths:
        stored, header = _read_signal_or_usage(path)
        if stored.p != R.p:
            raise UsageError(f"waveform {path} has p={stored.p.p}, receiver has p={R.p.p}")
        w = _rebuild_waveform(header, path)
        if float(np.max(np.abs(w.signal.samples - stored.samples))) > 1e-8:
            print(f"warning: payload of {path} differs from its descriptor rebuild",
                  file=sys.stderr)
        # the header recipe supplies the scan lines; detection uses the payload
        entries.append(dataclasses.replace(w, signal=stored))

    if args.method == "radar":
        if len(entries) != 1 or not isinstance(entries[0], Flag):
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln in fh:
                ln = ln.strip()
                if not ln or ln.startswith("#"):
                    continue
                if "=" not in ln:
                    raise UsageError(f"bad config line {ln!r}: expected key=value")
                k, _, v = ln.partition("=")
                cfg[k.strip()] = v.strip()
    except OSError as e:
        raise UsageError(f"cannot read config: {e}")
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
    if trials < 1 or r < 1:
        raise UsageError("trials and r must be >= 1")
    users = tuple(UserSpec(f"w{k}", PlanePoint(0, 0, p)) for k in range(r))
    stats = monte_carlo(ChannelSpec(p, users, sigma, seed), trials, method,
                        theta1, theta2)
    lines = [
        "p,r,sigma,trials,method,seed,exact_shift_rate,bit_error_rate,"
        "mean_stage1_mag,mean_peak_mag",
        f"{p.p},{r},{sigma:.9g},{trials},{method},{seed},"
        f"{stats.exact_shift_rate:.9g},{stats.bit_error_rate:.9g},"
        f"{stats.mean_stage1_mag:.9g},{stats.mean_peak_mag:.9g}",
    ]
    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
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
    if len(rows) >= 2:
        expo = fit_exponent([r["p"] for r in rows], [r["dft_ops_line"] for r in rows])
        out.append(f"# fitted_ops_exponent={expo:.6g}")
    text = "\n".join(out) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


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
    g.add_argument("--indices", default=None, help="two basis indices for a cross")
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
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
