"""Traced stand-in for the `tfshift` console script.

Usage: python3 perfbench/cli_child.py SPANS_OUT -- <tfshift arguments>

Times a fresh `import tfshift.cli`, installs the benchmark's wrappers, calls
`tfshift.cli.main` with the given arguments inside a `cli.main` span, and
writes the spans, the `fastmf.counters` values, the Weil cache entry count
and the import time to SPANS_OUT as JSON. The exit code is main's.
"""

import json
import sys
import time
from pathlib import Path


def run(out_path: str, argv: list) -> int:
    t0 = time.perf_counter()
    import tfshift.cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer

    from tfshift import fastmf, weil

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = tfshift.cli.main(argv)
    finally:
        tracer.uninstall()
    record = {
        "spans": tracer.spans,
        "extra": dict(tracer.extra),
        "counters": list(fastmf.counters.snapshot()),
        "weil_cache_entries": (weil.weil_operator.cache_info().currsize
                               + weil.torus_eigenbasis.cache_info().currsize),
        "import_s": import_s,
    }
    Path(out_path).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: cli_child.py SPANS_OUT -- <tfshift arguments>")
    sys.exit(run(sys.argv[1], sys.argv[3:]))
