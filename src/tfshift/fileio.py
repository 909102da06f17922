"""Signal, grid, and line-profile files.

Every file is a single text header line (space-separated key=value tokens,
first token a magic tag, newline-terminated) followed by the payload. Binary
payloads are 64-bit little-endian floats, interleaved re/im for complex data;
text payloads print floats with %.17g so a float64 round-trips exactly.
"""

from __future__ import annotations

import numpy as np

from .fastmf import LineProfile
from .gfp import Line, PlanePoint, as_prime
from .signals import Signal

SIGNAL_MAGIC = "tfshift-signal"
GRID_MAGIC = "tfshift-grid"
PROFILE_MAGIC = "tfshift-profile"


def _header_line(magic: str, fields: dict) -> bytes:
    toks = [magic]
    for k, v in fields.items():
        sv = str(v)
        if any(ch.isspace() for ch in sv) or "=" in sv:
            raise ValueError(f"header value {sv!r} must be a simple token")
        toks.append(f"{k}={sv}")
    return (" ".join(toks) + "\n").encode("utf-8")


def _split_file(raw: bytes, magic: str) -> tuple[dict, bytes]:
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError("missing header line")
    toks = raw[:nl].decode("utf-8").split()
    if not toks or toks[0] != magic:
        raise ValueError(f"expected {magic} header")
    header = {}
    for tok in toks[1:]:
        k, _, v = tok.partition("=")
        header[k] = v
    return header, raw[nl + 1:]


def _complex_to_interleaved(z: np.ndarray) -> np.ndarray:
    out = np.empty(2 * z.shape[0], dtype="<f8")
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def _interleaved_to_complex(f: np.ndarray) -> np.ndarray:
    return f[0::2] + 1j * f[1::2]


def _finite(f: np.ndarray) -> np.ndarray:
    if not np.isfinite(f).all():
        raise ValueError("payload values must be finite (no NaN or inf)")
    return f


def write_signal(path, signal: Signal, kind: str, descriptor: dict | None = None,
                 fmt: str = "binary") -> None:
    if fmt not in ("binary", "text"):
        raise ValueError(f"unknown format {fmt!r}")
    fields = {"p": signal.p.p, "kind": kind, "format": fmt}
    fields.update(descriptor or {})
    with open(path, "wb") as fh:
        fh.write(_header_line(SIGNAL_MAGIC, fields))
        if fmt == "binary":
            fh.write(_complex_to_interleaved(signal.samples).tobytes())
        else:
            lines = [f"{z.real:.17g} {z.imag:.17g}" for z in signal.samples]
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def read_signal(path) -> tuple[Signal, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    header, payload = _split_file(raw, SIGNAL_MAGIC)
    p = as_prime(int(header["p"]))
    fmt = header.get("format", "binary")
    if fmt == "binary":
        f = np.frombuffer(payload, dtype="<f8")
        if f.shape[0] != 2 * p.p:
            raise ValueError("payload length does not match p")
        z = _interleaved_to_complex(f)
    else:
        rows = payload.decode("utf-8").split()
        if len(rows) != 2 * p.p:
            raise ValueError("payload length does not match p")
        f = np.array([float(x) for x in rows])
        z = _interleaved_to_complex(f)
    return Signal(p, z), header


def write_grid(path, p, magnitudes: np.ndarray, fmt: str = "csv") -> None:
    """p x p magnitude surface; row = tau, column = omega, (0,0) top-left."""
    pp = as_prime(p)
    m = np.asarray(magnitudes, dtype=np.float64)
    if m.shape != (pp.p, pp.p):
        raise ValueError(f"expected a {pp.p} x {pp.p} grid")
    if fmt not in ("csv", "binary"):
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(_header_line(GRID_MAGIC, {"p": pp.p, "format": fmt}))
        if fmt == "binary":
            fh.write(m.astype("<f8").tobytes())
        else:
            lines = [",".join(f"{x:.17g}" for x in row) for row in m]
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def read_grid(path) -> tuple[np.ndarray, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    header, payload = _split_file(raw, GRID_MAGIC)
    p = int(header["p"])
    fmt = header.get("format", "csv")
    if fmt == "binary":
        f = np.frombuffer(payload, dtype="<f8")
        if f.shape[0] != p * p:
            raise ValueError("payload length does not match p")
        return _finite(f).reshape(p, p).copy(), header
    rows = payload.decode("utf-8").strip().split("\n")
    if len(rows) != p:
        raise ValueError("payload length does not match p")
    return _finite(np.array([[float(x) for x in r.split(",")] for r in rows])), header


def write_profile(path, profile: LineProfile, fmt: str = "binary") -> None:
    """One matched-filter line profile, complex values in line_points order."""
    line = profile.line
    fields = {
        "p": line.p.p,
        "line": "vertical" if line.is_vertical else line.slope,
        "offset_tau": line.offset.tau,
        "offset_omega": line.offset.omega,
        "format": fmt,
    }
    with open(path, "wb") as fh:
        fh.write(_header_line(PROFILE_MAGIC, fields))
        vals = np.asarray(profile.values, dtype=np.complex128)
        if fmt == "binary":
            fh.write(_complex_to_interleaved(vals).tobytes())
        elif fmt == "text":
            lines = [f"{z.real:.17g} {z.imag:.17g}" for z in vals]
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        else:
            raise ValueError(f"unknown format {fmt!r}")


def read_profile(path) -> tuple[LineProfile, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    header, payload = _split_file(raw, PROFILE_MAGIC)
    p = as_prime(int(header["p"]))
    slope = None if header["line"] == "vertical" else int(header["line"])
    off = PlanePoint(int(header["offset_tau"]), int(header["offset_omega"]), p)
    line = Line(slope, p, offset=off)
    fmt = header.get("format", "binary")
    if fmt == "binary":
        f = np.frombuffer(payload, dtype="<f8")
    else:
        f = np.array([float(x) for x in payload.decode("utf-8").split()])
    if f.shape[0] != 2 * p.p:
        raise ValueError("payload length does not match p")
    return LineProfile(line, _interleaved_to_complex(_finite(f))), header
