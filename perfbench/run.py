"""tfshift benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload mc-flag --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; tfshift is imported from the checkout's
`src/` only. With --trace 0 it prints the end-to-end metrics of one untraced
run; with --trace 1 a separate traced run prints the per-layer metrics. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Lines before it give every metric by name and unit, the
other end-to-end figures, raw timings and the environment record. Scratch files go under
`.perfbench_work/` in the checkout.

Exit codes: 0 result printed, 2 no tfshift sources in this checkout,
3 the harness found itself mis-wired (no result printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3   # cold set-ups per run: one in process, the rest in fresh ones
P90_MIN_OPS = 30    # print op_p90_ms only from runs holding at least this many ops
CALIB_ROUNDS = 30
CALIB_POINTS = 4000
CALIB_REF_S = 0.007  # calibration time that defines the reference speed

_CALIB_X = np.exp(1j * np.arange(8192) / 7.0)


def bench_units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def load_tfshift():
    """Import tfshift from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "tfshift" / "__init__.py").is_file():
        print(f"perfbench: no tfshift sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import tfshift
    if Path(tfshift.__file__).resolve().parent != (src / "tfshift").resolve():
        print(f"perfbench: tfshift imported from {tfshift.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


def environment(seed: int) -> dict:
    import scipy
    import tfshift.sim
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tfshift").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "TFSHIFT_THREADS": os.environ.get("TFSHIFT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "thread_cap": tfshift.sim.thread_cap(),
        "seed": seed,
    }


@dataclass(frozen=True)
class _CalibPoint:
    tau: int
    omega: int

    def __post_init__(self):
        object.__setattr__(self, "tau", self.tau % 503)


def calibrate() -> float:
    """Seconds for a fixed kernel that runs no tfshift code: a numpy FFT chain
    and a loop building small frozen dataclasses, the two kinds of work
    tfshift's hot paths do.

    On a shared 2-vCPU VM, each vCPU changes speed by up to 2-3x over
    seconds to minutes as other tenants load the host, and this kernel slows
    down by about the same factor as the workloads do. Every timed interval
    is bracketed by two calibrations and scaled by CALIB_REF_S over their
    mean, so timings read as if the kernel took CALIB_REF_S throughout.
    """
    x = _CALIB_X
    t = time.perf_counter()
    y = x
    for _ in range(CALIB_ROUNDS):
        y = np.fft.fft(y * x) / x.shape[0]
    acc = 0
    for k in range(CALIB_POINTS):
        acc += _CalibPoint(k, 3 * k).tau
    return time.perf_counter() - t


def calibrate_each_cpu() -> float:
    """Mean calibration time over every CPU this process may run on, pinning
    only the calling thread, one CPU at a time. The vCPUs change speed
    independently, and work done in child processes may land on any of them."""
    cpus = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


class Speed:
    """Times intervals in raw seconds and in seconds at the reference speed."""

    def __init__(self, each_cpu: bool):
        self.calibrate = calibrate_each_cpu if each_cpu else calibrate
        self.calibrate()   # first call pays numpy's FFT plan set-up
        self.last = self.calibrate()
        self.samples = [self.last]

    def run(self, fn):
        t = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t
        after = self.calibrate()
        self.samples.append(after)
        scaled = raw * CALIB_REF_S / ((self.last + after) / 2)
        self.last = after
        return out, raw, scaled

    def factor(self) -> float:
        """Host speed against the reference, > 1 when faster."""
        return CALIB_REF_S / statistics.median(self.samples)


def timed_ops(wl, ctx, st, speed, indices, stop_after=None) -> list[tuple]:
    """Closed loop over op indices, giving (OpResult, raw s, scaled s) per op;
    exceptions count as failed ops. With stop_after, stops at the first op
    that ends that many seconds after the loop started."""
    from workloads import HarnessError, OpResult

    def one(i):
        try:
            return wl.op(ctx, st, i)
        except HarnessError:
            raise
        except Exception:
            traceback.print_exc()
            return OpResult(True, 0, 0)

    out = []
    t0 = time.perf_counter()
    for i in indices:
        if ctx.tracer is not None:
            ctx.tracer.op = i
        out.append(speed.run(lambda: one(i)))
        if stop_after is not None and time.perf_counter() - t0 >= stop_after:
            break
    return out


def setup_probe(wl, ctx) -> tuple[float, float]:
    """Set up once in a fresh interpreter, so every sample starts cold.
    Returns (raw seconds, seconds at the reference speed)."""
    probe_dir = ctx.work / f"probe-{time.perf_counter_ns()}"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl.name,
           "--seed", str(ctx.seed), "--setup-probe", str(probe_dir)]
    if ctx.smoke:
        cmd.append("--smoke")
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                         stdin=subprocess.DEVNULL, check=False)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise RuntimeError(f"set-up probe failed with exit {res.returncode}")
    raw, scaled = json.loads(res.stdout.strip().splitlines()[-1])
    return raw, scaled


def summarize(results) -> dict:
    attempted = len(results)
    failed = sum(r.failed for r in results)
    detections = sum(r.detections for r in results)
    wrong = sum(r.wrong_shifts for r in results)
    return {"attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "shift_error_rate": wrong / detections if detections else 0.0}


def run_untraced(wl, ctx, seconds: float):
    """Returns (bounded metrics, other end-to-end metrics, info, summary)."""
    speed = Speed(wl.in_children)
    st, raw_setup, scaled_setup = speed.run(lambda: wl.setup(ctx))
    setups = [(raw_setup, scaled_setup)]
    setups += [setup_probe(wl, ctx) for _ in range(SETUP_SAMPLES - 1)]
    results, raw, scaled = zip(*timed_ops(wl, ctx, st, speed, range(10**9),
                                          stop_after=seconds))
    s = summarize(results)
    rss = max(r.rss_mb for r in results) if wl.in_children else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {"setup_s": statistics.median(x[1] for x in setups),
               "ops_per_s": len(scaled) / sum(scaled),
               "op_p50_ms": statistics.median(scaled) * 1e3,
               "peak_rss_mb": rss}
    more = {"error_rate": (s["error_rate"], "ratio"),
            "shift_error_rate": (s["shift_error_rate"], "ratio")}
    if wl.trials_per_op:
        more["trials_per_s"] = (metrics["ops_per_s"] * wl.trials_per_op, "1/s")
    if len(scaled) >= P90_MIN_OPS:
        more["op_p90_ms"] = (statistics.quantiles(scaled, n=10)[-1] * 1e3, "ms")
    info = {"ops": (len(scaled), "count"),
            "host_speed": (speed.factor(), "ratio"),
            "raw_setup_s": (statistics.median(x[0] for x in setups), "s"),
            "raw_ops_per_s": (len(raw) / sum(raw), "1/s"),
            "raw_op_p50_ms": (statistics.median(raw) * 1e3, "ms")}
    return metrics, more, info, s


def run_traced(wl, ctx):
    """Returns (per-layer metrics, {}, info, summary).

    Traced set-up, then trace_ops ops, each run once untraced as the
    reference and once traced, alternating which goes first. Layer figures
    cover the traced set-up and the traced ops; the fixed op count makes the
    counts repeat exactly for a given seed."""
    from tfshift import fastmf, weil
    from tracing import Tracer, layer_times
    from workloads import HarnessError

    tracer = Tracer()
    counts = [0, 0, 0]

    def traced(fn):
        ctx.tracer = tracer
        before = fastmf.counters.snapshot()
        tracer.install()
        try:
            return fn()
        finally:
            tracer.uninstall()
            ctx.tracer = None
            after = fastmf.counters.snapshot()
            for k in range(3):
                counts[k] += after[k] - before[k]

    speed = Speed(wl.in_children)
    tracer.op = "setup"
    st = traced(lambda: wl.setup(ctx))
    ref, ops = [], []
    for i in range(wl.trace_ops):
        if i % 2:
            ops += traced(lambda: timed_ops(wl, ctx, st, speed, [i]))
        ref += timed_ops(wl, ctx, st, speed, [i])
        if i % 2 == 0:
            ops += traced(lambda: timed_ops(wl, ctx, st, speed, [i]))

    spans_path = ctx.work / "spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")

    calls, busy, selft = layer_times(tracer.spans)
    dft_calls, dft_ops, line_calls = (a + b for a, b in zip(counts, ctx.child_counts))
    if (dft_calls, line_calls) != (calls["fastmf.dft"], calls["fastmf.mf_on_line"]):
        raise HarnessError(
            f"fastmf.counters ({dft_calls} dft, {line_calls} line) disagree with "
            f"traced spans ({calls['fastmf.dft']}, {calls['fastmf.mf_on_line']})")
    extra = tracer.extra
    entries = max(ctx.child_weil_entries, weil.weil_operator.cache_info().currsize
                  + weil.torus_eigenbasis.cache_info().currsize)
    metrics = {
        "gfp.line_points.calls": calls["gfp.line_points"],
        "gfp.line_points.busy_s": busy["gfp.line_points"],
        "gfp.line_points.points": extra["gfp.line_points.points"],
        "fastmf.dft.calls": dft_calls,
        "fastmf.dft.ops": dft_ops,
        "fastmf.dft.busy_s": busy["fastmf.dft"],
        "fastmf.dft.mops_per_s": (dft_ops / busy["fastmf.dft"] / 1e6
                                  if busy["fastmf.dft"] else 0.0),
        "fastmf.mf_on_line.calls": line_calls,
        "fastmf.mf_on_line.busy_s": busy["fastmf.mf_on_line"],
        "fastmf.mf_on_line.self_s": selft["fastmf.mf_on_line"],
        "signals.mf_entry.calls": calls["signals.mf_entry"],
        "signals.mf_entry.busy_s": busy["signals.mf_entry"],
        "signals.heisenberg_op.calls": calls["signals.heisenberg_op"],
        "signals.heisenberg_op.busy_s": busy["signals.heisenberg_op"],
        "heisenberg.cross_waveform.busy_s": busy["heisenberg.cross_waveform"],
        "heisenberg.line_vector.calls": calls["heisenberg.line_vector"],
        "heisenberg.line_vector.busy_s": busy["heisenberg.line_vector"],
        "weil.weil_operator.calls": calls["weil.weil_operator"],
        "weil.weil_operator.busy_s": busy["weil.weil_operator"],
        "weil.torus_eigenbasis.calls": calls["weil.torus_eigenbasis"],
        "weil.torus_eigenbasis.busy_s": busy["weil.torus_eigenbasis"],
        "weil.make_torus.busy_s": busy["weil.make_torus"],
        "weil.cache_mb": entries * st["p"] ** 2 * 16 / 1e6,
        "detect.extract_bits.calls": calls["detect.extract_bits"],
        "detect.extract_bits.busy_s": busy["detect.extract_bits"],
        "detect.extract_bits.self_s": selft["detect.extract_bits"],
        "detect.confident_ratio": (
            extra["detect.confident"] / extra["detect.detections"]
            if extra["detect.detections"] else 0.0),
        "sim.monte_carlo.busy_s": busy["sim.monte_carlo"],
        "sim.synthesize_receiver.calls": calls["sim.synthesize_receiver"],
        "sim.synthesize_receiver.busy_s": busy["sim.synthesize_receiver"],
        "sim.build_family.busy_s": busy["sim.build_family"],
        "fileio.read_signal.calls": calls["fileio.read_signal"],
        "fileio.read_signal.busy_s": busy["fileio.read_signal"],
        "fileio.read_signal.bytes": extra["fileio.read_signal.bytes"],
        "fileio.write_signal.calls": calls["fileio.write_signal"],
        "fileio.write_signal.busy_s": busy["fileio.write_signal"],
        "fileio.write_signal.bytes": extra["fileio.write_signal.bytes"],
        "cli.import_s": extra["cli.import_s"],
        "cli.main.busy_s": busy["cli.main"],
        "cli.process_overhead_s": extra["cli.wall_s"] - busy["cli.main"],
        "trace.overhead_ratio": (statistics.median(x[2] for x in ops)
                                 / statistics.median(x[2] for x in ref)),
    }
    info = {"traced_ops": (len(ops), "count"), "spans": (len(tracer.spans), "count"),
            "spans_file": (str(spans_path.relative_to(ROOT)), "path"),
            "host_speed": (speed.factor(), "ratio")}
    return metrics, {}, info, summarize([x[0] for x in ref + ops])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="length of the timed part of an untraced run; a traced "
                         "run does a fixed number of ops instead")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: a separate traced run giving the per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (p=31) for the smoke test")
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_tfshift()
    from workloads import WORKLOADS, Ctx, HarnessError
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    if args.setup_probe is not None:
        work = Path(args.setup_probe)
        work.mkdir(parents=True)
        _, raw, scaled = Speed(wl.in_children).run(
            lambda: wl.setup(Ctx(ROOT, work, args.seed, args.smoke)))
        print(json.dumps([raw, scaled]))
        return 0

    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(ROOT, work, args.seed, args.smoke)
    try:
        if args.trace:
            metrics, more, info, s = run_traced(wl, ctx)
            units = bench_units("per_layer")
        else:
            metrics, more, info, s = run_untraced(wl, ctx, args.seconds)
            units = bench_units("end_to_end")
        if set(metrics) != set(units):
            raise HarnessError("metrics computed differ from BENCHMARK.json: "
                               f"{sorted(set(metrics) ^ set(units))}")
    except HarnessError as e:
        print(f"perfbench: harness check failed: {e}", file=sys.stderr)
        return 3

    print(f"workload {wl.name}: {wl.why}")
    print("env " + json.dumps(environment(args.seed)))
    for name, (value, unit) in info.items():
        print(f"info {name} {value} {unit}")
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    for name, (value, unit) in more.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
