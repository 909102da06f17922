"""The names the benchmark harness in perfbench/ reads from tfshift.

Tier-1 runs only tests/, so these tests guard what perfbench/tracing.py wraps
and what perfbench/run.py and perfbench/cli_child.py call: a change that
deletes or renames one of them fails here, not only in a benchmark run.
perfbench/ is read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

from tfshift import fastmf, sim, weil

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the standard library's imports only
    return module


def test_every_traced_target_exists_and_is_callable():
    targets = load_tracing().TARGETS
    assert targets
    for module, name in targets:
        fn = getattr(importlib.import_module(f"tfshift.{module}"), name, None)
        assert callable(fn), f"{module}.{name}"


def test_the_values_the_harness_reads_keep_their_shape(monkeypatch):
    monkeypatch.setenv("TFSHIFT_THREADS", "4")  # recorded, never read
    assert sim.thread_cap() == 1
    for cached in (weil.weil_operator, weil.torus_eigenbasis):
        assert callable(cached.cache_info)
    snapshot = fastmf.counters.snapshot()
    assert isinstance(snapshot, tuple) and len(snapshot) == 3
    assert all(isinstance(x, int) for x in snapshot)
