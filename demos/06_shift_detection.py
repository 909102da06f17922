#!/usr/bin/env python3
"""Two-stage shift detection: two line scans instead of a p^2 grid search.

Stage 1 scans a line transverse to the waveform's carrier line; the received
shift leaks a ridge across it, so the scan's argmax lands on the shifted
carrier line. Stage 2 scans that line and reads off the exact shift. Both
stages are O(p log p); confidence comes from two thresholds (theta1 on the
transverse scan, theta2 on the peak).
"""

import numpy as np

from tfshift import (PlanePoint, Signal, as_prime, awgn, counters,
                     cross_family, cross_detect, flag_family, flag_detect,
                     heisenberg_op, transverse_line)

P = as_prime(101)


def received(sig, v, sigma: float, seed: int) -> Signal:
    r = heisenberg_op(sig, v).samples + awgn(sig.p, sigma, seed).samples
    return Signal(sig.p, r)


def show(tag: str, det) -> None:
    print(f"  {tag}: shift ({det.shift.tau}, {det.shift.omega}), "
          f"stage1 {det.stage1_magnitude:.4f}, peak {det.magnitude:.4f}, "
          f"confident={det.confident}")


def main() -> None:
    flag = flag_family(P, 1, seed=0)[0]
    print(f"flag carrier: slope {flag.line.slope}, transverse scan on slope "
          f"{transverse_line(flag.line).slope}")

    # 1. noiseless: exact recovery with two line scans
    v0 = PlanePoint(50, 50, P)
    counters.reset()
    det = flag_detect(received(flag.signal, v0, 0.0, 0), flag)
    print(f"\nplanted (50, 50), noiseless (two line scans, {counters.dft_calls} "
          "transforms with the sender's chirp plans built cold):")
    show("flag", det)

    # 2. noise at signal level (p sigma^2 = 1): still exact here
    sigma = float(1 / np.sqrt(P.p))
    print(f"\nplanted (50, 50), sigma = 1/sqrt(p) = {sigma:.4f}:")
    for seed in range(4):
        det = flag_detect(received(flag.signal, v0, sigma, seed), flag)
        show(f"seed {seed}", det)

    # 3. noise only: the gates withhold confidence
    det = flag_detect(Signal(P, awgn(P, sigma, 9).samples), flag)
    print("\nnoise-only receiver:")
    show("flag", det)

    # 4. cross detection: stage 1 reuses the cross's own second line
    cross = cross_family(P, seed=0)[0]
    sL = cross.lineL.slope
    sM = cross.lineM.slope
    det = cross_detect(received(cross.signal, v0, sigma, 1), cross)
    print(f"\ncross on slopes {sL} and {sM}, planted (50, 50), same sigma:")
    show("cross", det)

    # 5. a shift landing on the carrier line itself is the easy degenerate
    # case: stage 1 peaks at the line's own crossing point
    v_on = PlanePoint(3, 3 * flag.line.slope % P.p, P)
    det = flag_detect(received(flag.signal, v_on, 0.0, 0), flag)
    print(f"\nplanted on the carrier line ({v_on.tau}, {v_on.omega}):")
    show("flag", det)


if __name__ == "__main__":
    main()
