#!/usr/bin/env python3
"""File formats and the command line, end to end in a temp directory
(removed when the demo exits).

Signals, ambiguity grids, and line profiles all serialize to little-endian
binary (magic + header + complex128 payload) or to a text form with %.17g
fields, so round trips are bit exact. The tfshift CLI wires the same formats
into gen / ambiguity / detect / simulate / bench subcommands; this demo
drives it in-process via tfshift.cli.main.
"""

import tempfile
from pathlib import Path

import numpy as np

from tfshift import (Line, PlanePoint, Signal, as_prime, heisenberg_op,
                     mf_on_line, random_signal, read_grid, read_profile,
                     read_signal, write_grid, write_profile, write_signal)
from tfshift.cli import main as cli


def run(*argv: str) -> int:
    print("$ tfshift " + " ".join(argv))
    return cli(list(argv))


def walkthrough(tmp: Path) -> None:
    P = as_prime(31)
    print(f"writing under {tmp}\n")

    # 1. library-level round trips
    f = random_signal(P, seed=8)
    path = tmp / "f.sig"
    write_signal(path, f, kind="random", descriptor={"seed": 8})
    g, header = read_signal(path)
    print(f"signal round trip bit exact: "
          f"{bool(np.all(g.samples == f.samples))}, header {header}")

    prof = mf_on_line(f, heisenberg_op(f, PlanePoint(4, 4, P)), Line(1, P))
    write_profile(tmp / "prof.bin", prof, fmt="binary")
    prof2, _ = read_profile(tmp / "prof.bin")
    print(f"profile round trip bit exact: "
          f"{bool(np.all(prof2.values == prof.values))}")

    grid = np.abs(np.outer(np.arange(P.p), np.arange(P.p))).astype(float)
    write_grid(tmp / "grid.csv", P, grid, fmt="csv")
    grid2, meta = read_grid(tmp / "grid.csv")
    print(f"grid csv round trip exact: {bool(np.all(grid2 == grid))} "
          f"(p = {meta['p']})\n")

    # 2. generate two flag waveforms; their headers carry the full recipe
    w0, w1 = str(tmp / "w0.sig"), str(tmp / "w1.sig")
    run("gen", "--p", "101", "--kind", "flag", "--line", "2",
        "--torus-trace", "0", "--b-index", "0", "--eig-index", "1",
        "--out", w0)
    run("gen", "--p", "101", "--kind", "flag", "--line", "5",
        "--torus-trace", "1", "--b-index", "0", "--eig-index", "0",
        "--out", w1)

    # 3. synthesize a two-user receiver from the stored waveforms and decode
    # it back through the manifest flow
    Q = as_prime(101)
    A, _ = read_signal(w0)
    B, _ = read_signal(w1)
    R = Signal(Q, heisenberg_op(A, PlanePoint(9, 40, Q)).samples
               - heisenberg_op(B, PlanePoint(63, 12, Q)).samples)
    write_signal(tmp / "recv.sig", R, kind="received")
    manifest = tmp / "family.txt"
    manifest.write_text(f"{w0}\n{w1}\n")
    print("\nplanted: w0 at (9, 40) bit +1, w1 at (63, 12) bit -1")
    rc = run("detect", "--receiver", str(tmp / "recv.sig"),
             "--manifest", str(manifest))
    print(f"exit code {rc} (0 = all confident)\n")

    # 4. ambiguity dump and the statistics subcommands
    run("ambiguity", "--sender", w0, "--receiver", w0,
        "--out", str(tmp / "amb.csv"), "--format", "csv")
    amb, _ = read_grid(tmp / "amb.csv")
    print(f"-> grid {amb.shape}, origin {amb[0, 0]:.4f}, "
          f"largest off-origin {np.sort(amb.ravel())[-2]:.4f}\n")

    run("simulate", "--p", "101", "--r", "2", "--sigma", "0.0995",
        "--trials", "20", "--method", "flag", "--seed", "1")
    print()
    run("bench", "--p", "101,257", "--repeats", "1", "--full-rows", "8")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="tfshift_demo_") as tmp:
        walkthrough(Path(tmp))


if __name__ == "__main__":
    main()
