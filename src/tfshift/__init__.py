"""Waveform design and fast matched filtering over the prime field F_p.

Builds the Heisenberg (lines), Weil (peaks), flag, and cross waveform systems
and recovers time-frequency shifts in O(p log p) per waveform with the
two-stage flag/cross algorithms, plus a channel simulator, Monte Carlo
harness, benchmark, and file formats.
"""

from .gfp import (Line, PlanePoint, Prime, as_prime, inv, is_prime, legendre,
                  line_contains, line_point, line_points, line_through,
                  lines_through_origin, transverse_line)
from .signals import (MFMatrix, Signal, awgn, const_signal, delta, heisenberg_op,
                      inner, mf_entry, mf_full, mfi_coefficient, modulate,
                      random_signal, time_shift)
from .fastmf import LineProfile, counters, dft, mf_on_line
from .heisenberg import (Cross, HeisenbergVector, cross_family, cross_waveform,
                         line_basis, line_vector)
from .weil import (Flag, GroupElement, Torus, WeilOperator, WeilVector,
                   default_torus_roster, flag_family, flag_waveform, identity,
                   make_torus, sigma_op, torus_eigenbasis, torus_vector,
                   weil_operator)
from .detect import (BitDecision, Detection, GpsFix, cross_detect, extract_bits,
                     flag_detect, gps_solve, radar_detect)
from .sim import (ChannelSpec, TrialStats, UserSpec, bench_complexity,
                  build_family, fit_exponent, monte_carlo, synthesize_receiver,
                  thread_cap)
from .fileio import (read_grid, read_profile, read_signal, write_grid,
                     write_profile, write_signal)

__version__ = "0.1.0"
