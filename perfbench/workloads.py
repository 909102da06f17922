"""The benchmark's workloads, driven through tfshift's public API only.

Each workload has a `setup(ctx)` that builds its inputs from `ctx.seed` and
ends with one untimed warm-up op, whose output also runs the harness
self-check, and an `op(ctx, state, i)` that performs the i-th timed
operation and checks its output against the planted answer. Calls go through
module attributes (`detect.extract_bits`, not a name imported from it), so a
traced run sees them through its wrappers.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tfshift import detect, fileio, heisenberg, sim, weil
from tfshift.gfp import Line, PlanePoint

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120.0


class HarnessError(RuntimeError):
    """The benchmark itself is mis-wired; no result may be printed."""


@dataclass
class OpResult:
    failed: bool
    detections: int
    wrong_shifts: int
    rss_mb: float = 0.0   # peak RSS of the op's child process, cli-detect only


@dataclass
class Ctx:
    root: Path
    work: Path
    seed: int
    smoke: bool = False
    tracer: object = None          # a tracing.Tracer while a traced phase runs
    child_counts: list = field(default_factory=lambda: [0, 0, 0])
    child_weil_entries: int = 0
    cli_runs: int = 0

    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env


# ------------------------------------------------------------ checking

def check_decoded(decoded: list, planted: tuple) -> tuple[int, int]:
    """Compare decoded (tau, omega, bit) triples to the planted UserSpecs.
    Returns (senders with a wrong shift or bit, senders with a wrong shift);
    a missing or extra sender counts as wrong."""
    wrong = wrong_shift = abs(len(decoded) - len(planted))
    for (tau, omega, bit), u in zip(decoded, planted):
        bad_shift = (tau, omega) != (u.shift.tau, u.shift.omega)
        wrong_shift += bad_shift
        wrong += bad_shift or bit != u.bit
    return wrong, wrong_shift


def self_check(decoded: list, planted: tuple) -> None:
    """Prove the output check works on a real receiver's decoded answer: a
    plant equal to it must pass, and one with sender 0 one time step away, or
    with its bit flipped, must count as failed."""
    if len(decoded) != len(planted):
        raise HarnessError(f"self-check: the warm-up op decoded {len(decoded)} "
                           f"of {len(planted)} senders")
    exact = tuple(sim.UserSpec(u.waveform_id, PlanePoint(t, w, u.shift.p), b)
                  for (t, w, b), u in zip(decoded, planted))
    u = exact[0]
    moved = sim.UserSpec(u.waveform_id, PlanePoint(u.shift.tau + 1, u.shift.omega,
                                                   u.shift.p), u.bit)
    flipped = sim.UserSpec(u.waveform_id, u.shift, -u.bit)
    if (check_decoded(decoded, exact) != (0, 0)
            or check_decoded(decoded, (moved,) + exact[1:]) != (1, 1)
            or check_decoded(decoded, (flipped,) + exact[1:]) != (1, 0)):
        raise HarnessError("self-check: a receiver planted at another shift or "
                           "bit was not counted as failed")


def decoded_of(decisions) -> list:
    return [(d.detection.shift.tau, d.detection.shift.omega, d.bit)
            for d in decisions]


def random_users(rng, p: int, r: int) -> tuple:
    return tuple(sim.UserSpec(f"w{k}", PlanePoint(int(rng.integers(p)),
                                                  int(rng.integers(p)), p),
                              int(rng.choice([-1, 1])))
                 for k in range(r))


def make_frame(rng, p: int, r: int, signals: dict):
    """One receiver at NSR 1 (sigma = 1/sqrt(p)) with r planted senders."""
    users = random_users(rng, p, r)
    spec = sim.ChannelSpec(p, users, 1.0 / np.sqrt(p), int(rng.integers(2**62)))
    return users, sim.synthesize_receiver(spec, signals)


# -------------------------------------------------------------- mc-flag

MC_TRIALS = 100
MC_MIN_SHIFT_RATE = 0.99


def mc_setup(ctx: Ctx) -> dict:
    p, r = (31, 3) if ctx.smoke else (503, 3)
    rng = np.random.default_rng([ctx.seed, 1])
    family = weil.flag_family(p, r, int(rng.integers(2**31)))
    signals = {f"w{k}": f.signal for k, f in enumerate(family)}
    users, R = make_frame(rng, p, r, signals)
    self_check(decoded_of(detect.extract_bits(R, family)), users)
    return {"p": p, "r": r, "trials": 5 if ctx.smoke else MC_TRIALS,
            "op_seed": int(rng.integers(2**31))}


def mc_op(ctx: Ctx, st: dict, i: int) -> OpResult:
    p, r, trials = st["p"], st["r"], st["trials"]
    template = sim.ChannelSpec(
        p, tuple(sim.UserSpec(f"w{k}", PlanePoint(0, 0, p)) for k in range(r)),
        1.0 / np.sqrt(p), st["op_seed"] + i)
    stats = sim.monte_carlo(template, trials, "flag")
    if stats.trials != trials:
        raise HarnessError("monte_carlo ran another number of trials")
    n = trials * r
    wrong = round((1.0 - stats.exact_shift_rate) * n)
    return OpResult(stats.exact_shift_rate < MC_MIN_SHIFT_RATE, n, wrong)


# --------------------------------------------------------- decode-cross

def dc_setup(ctx: Ctx) -> dict:
    p, r, n_frames = (31, 3, 4) if ctx.smoke else (10007, 3, 40)
    rng = np.random.default_rng([ctx.seed, 2])
    # 2r distinct origin lines (index p is the vertical line), paired up
    idx = rng.choice(p + 1, size=2 * r, replace=False)
    lines = [Line(None if k == p else int(k), p) for k in idx]
    family = [heisenberg.cross_waveform(lines[2 * k], lines[2 * k + 1],
                                        int(rng.integers(p)), int(rng.integers(p)))
              for k in range(r)]
    signals = {f"w{k}": c.signal for k, c in enumerate(family)}
    frames = [make_frame(rng, p, r, signals) for _ in range(n_frames)]
    users, R = frames[0]
    self_check(decoded_of(detect.extract_bits(R, family)), users)
    return {"p": p, "family": family, "frames": frames}


def dc_op(ctx: Ctx, st: dict, i: int) -> OpResult:
    users, R = st["frames"][i % len(st["frames"])]
    wrong, wrong_shift = check_decoded(
        decoded_of(detect.extract_bits(R, st["family"])), users)
    return OpResult(wrong > 0, len(users), wrong_shift)


# ----------------------------------------------------------- cli-detect

def _reap(proc, deadline: float) -> tuple[int, bytes, float]:
    """Read the child's merged output until EOF, then reap it with wait4 to
    get its own peak RSS. Kills it after the deadline."""
    fd = proc.stdout.fileno()
    chunks = []
    try:
        while True:
            ready, _, _ = select.select([fd], [], [],
                                        max(0.0, deadline - time.perf_counter()))
            if not ready:
                proc.kill()
                raise HarnessError(f"child {proc.args[:4]} timed out")
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks), usage.ru_maxrss * 1024 / 1e6


def run_cli(ctx: Ctx, argv: list) -> tuple[int, str, float]:
    """Run one fresh `tfshift` process the way a user runs it, or, while a
    traced phase runs, through cli_child.py, whose spans are merged in.
    Returns (exit code, stdout and stderr, peak RSS in MB)."""
    argv = [str(a) for a in argv]
    spans_path = None
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "tfshift.cli", *argv]
    else:
        ctx.cli_runs += 1
        spans_path = ctx.work / f"child-{ctx.cli_runs}.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), "--",
               *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL, cwd=ctx.work, env=ctx.env())
    code, out, rss_mb = _reap(proc, t0 + CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if spans_path is not None:
        rec = json.loads(spans_path.read_text(encoding="utf-8"))
        ctx.tracer.merge(rec["spans"], rec["extra"], ctx.tracer.op)
        ctx.tracer.extra["cli.import_s"] += rec["import_s"]
        ctx.tracer.extra["cli.wall_s"] += wall
        ctx.child_counts = [a + b for a, b in zip(ctx.child_counts, rec["counters"])]
        ctx.child_weil_entries = max(ctx.child_weil_entries, rec["weil_cache_entries"])
    return code, out.decode("utf-8", "replace"), rss_mb


def parse_detect(text: str, r: int) -> list:
    """(tau, omega, bit) per `id=w<k>` line of `tfshift detect` output."""
    found = {}
    for line in text.splitlines():
        if not line.startswith("id=w"):
            continue
        kv = dict(tok.split("=", 1) for tok in line.split())
        found[int(kv["id"][1:])] = (int(kv["shift_tau"]), int(kv["shift_omega"]),
                                    int(kv["bit"]))
    return [found[k] for k in range(r) if k in found]


def _gen_flag(ctx: Ctx, p: int, rng, path: Path) -> int:
    """`tfshift gen` a flag and return its line's slope; an eigenvector the
    CLI refuses as degenerate is replaced by the next index."""
    slope = int(rng.integers(p))
    traces = [t for t in range(p) if (t * t - 4) % p]
    trace = traces[int(rng.integers(len(traces)))]
    b_index, eig = int(rng.integers(p)), int(rng.integers(p))
    for k in range(5):
        code, out, _ = run_cli(ctx, ["gen", "--p", p, "--kind", "flag",
                                     "--line", slope, "--torus-trace", trace,
                                     "--b-index", b_index,
                                     "--eig-index", (eig + k) % p, "--out", path])
        if code == 0:
            return slope
        if "degenerate" not in out:
            break
    raise HarnessError(f"tfshift gen flag failed ({code}): {out.strip()}")


def cli_setup(ctx: Ctx) -> dict:
    p, n_rx = (31, 4) if ctx.smoke else (307, 8)
    rng = np.random.default_rng([ctx.seed, 3])
    flag_path, cross_path = ctx.work / "flag.sig", ctx.work / "cross.sig"
    flag_slope = _gen_flag(ctx, p, rng, flag_path)
    # cross lines differ from the flag's line and from each other
    slopes = [int(s) for s in rng.permutation(p) if s != flag_slope][:2]
    code, out, _ = run_cli(ctx, ["gen", "--p", p, "--kind", "cross", "--lines",
                                 f"{slopes[0]},{slopes[1]}", "--indices",
                                 f"{int(rng.integers(p))},{int(rng.integers(p))}",
                                 "--out", cross_path])
    if code != 0:
        raise HarnessError(f"tfshift gen cross failed ({code}): {out.strip()}")
    signals = {"w0": fileio.read_signal(flag_path)[0],
               "w1": fileio.read_signal(cross_path)[0]}
    manifest = ctx.work / "manifest.txt"
    manifest.write_text(f"{flag_path}\n{cross_path}\n", encoding="utf-8")
    receivers = []
    for k in range(n_rx):
        users, R = make_frame(rng, p, 2, signals)
        path = ctx.work / f"rx-{k}.sig"
        fileio.write_signal(path, R, "receiver")
        receivers.append((users, path))
    st = {"p": p, "manifest": manifest, "receivers": receivers}
    code, out, _ = run_cli(ctx, ["detect", "--receiver", receivers[0][1],
                                 "--manifest", manifest])
    self_check(parse_detect(out, 2), receivers[0][0])
    return st


def cli_op(ctx: Ctx, st: dict, i: int) -> OpResult:
    users, path = st["receivers"][i % len(st["receivers"])]
    code, out, rss_mb = run_cli(ctx, ["detect", "--receiver", path,
                                      "--manifest", st["manifest"]])
    wrong, wrong_shift = check_decoded(parse_detect(out, len(users)), users)
    if code != 0 or wrong:
        sys.stderr.write(f"cli-detect op {i} failed (exit {code}):\n{out}")
    return OpResult(code != 0 or wrong > 0, len(users), wrong_shift, rss_mb)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    op: object
    trials_per_op: int      # Monte Carlo trials in one op, 0 if none
    trace_ops: int          # ops in each phase of a traced run
    in_children: bool       # ops run in child processes


WORKLOADS = {w.name: w for w in [
    Workload("mc-flag",
             "monte_carlo with flags at p=503, r=3, NSR 1: the only workload "
             "timing Weil design cost in set-up and the Monte Carlo trial loop",
             mc_setup, mc_op, MC_TRIALS, 4, False),
    Workload("decode-cross",
             "extract_bits on pre-built r=3 cross frames at p=10007: large-p "
             "line scans and prime DFTs, with no weil or sim in the timed path",
             dc_setup, dc_op, 0, 16, False),
    Workload("cli-detect",
             "a fresh `tfshift detect` process per op at p=307: interpreter "
             "start, import, file reads and the per-process Weil rebuild",
             cli_setup, cli_op, 0, 6, True),
]}
