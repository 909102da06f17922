"""Signal, grid, and line-profile files.

Every file is a single text header line (space-separated key=value tokens,
first token a magic tag, newline-terminated) followed by the payload. Binary
payloads are 64-bit little-endian floats, interleaved re/im for complex data;
text payloads print floats with %.17g so a float64 round-trips exactly.
Writers check the whole file before they open it; readers check the magic,
the required header fields, the format, the payload's length and finiteness,
then the prime p, so a short file naming a huge p is refused without a
primality test, and raise ValueError for any mismatch.
"""

from __future__ import annotations

import numpy as np

from .fastmf import LineProfile
from .gfp import Line, PlanePoint, as_prime
from .signals import Signal

SIGNAL_MAGIC = "tfshift-signal"
GRID_MAGIC = "tfshift-grid"
PROFILE_MAGIC = "tfshift-profile"


def slope_token(line: Line) -> str:
    """A line's slope as written in headers and on the command line."""
    return "vertical" if line.is_vertical else str(line.slope)


def parse_slope(token: str) -> int | None:
    """Inverse of slope_token: an integer slope, or None for 'vertical'."""
    if token == "vertical":
        return None
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad line {token!r}: expected an integer slope or 'vertical'")


def _write(path, magic: str, fields: dict, payload: bytes) -> None:
    toks = [magic]
    for k, v in fields.items():
        sv = str(v)
        if any(ch.isspace() for ch in sv) or "=" in sv:
            raise ValueError(f"header value {sv!r} must be a simple token")
        toks.append(f"{k}={sv}")
    with open(path, "wb") as fh:
        fh.write((" ".join(toks) + "\n").encode("utf-8") + payload)


def _field(header: dict, key: str) -> str:
    """A required header field; ValueError naming it if it is missing."""
    if key not in header:
        raise ValueError(f"header has no {key}= field")
    return header[key]


def _read(path, magic: str):
    """(header, payload bytes, int p) of a file with the given magic tag."""
    with open(path, "rb") as fh:
        raw = fh.read()
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
    return header, raw[nl + 1:], int(_field(header, "p"))


def _finite(f: np.ndarray) -> np.ndarray:
    if not np.isfinite(f).all():
        raise ValueError("payload values must be finite (no NaN or inf)")
    return f


def _encode_complex(values, n: int, fmt: str) -> bytes:
    """Payload of n complex values: interleaved re/im, binary or text."""
    if fmt not in ("binary", "text"):
        raise ValueError(f"unknown format {fmt!r}")
    z = np.asarray(values, dtype=np.complex128)
    if z.shape != (n,):
        raise ValueError(f"expected {n} values, got shape {z.shape}")
    if fmt == "text":
        return "".join(f"{x.real:.17g} {x.imag:.17g}\n" for x in z).encode("utf-8")
    f = np.empty(2 * n, dtype="<f8")
    f[0::2] = z.real
    f[1::2] = z.imag
    return f.tobytes()


def _binary(payload: bytes, count: int) -> np.ndarray:
    """The payload as count little-endian floats, its byte length checked
    first, so that every other length gets the readers' own message."""
    if len(payload) != 8 * count:
        raise ValueError("payload length does not match p")
    return np.frombuffer(payload, dtype="<f8")


def _decode_complex(payload: bytes, n: int, fmt: str) -> np.ndarray:
    """Inverse of _encode_complex; the n values must all be finite."""
    if fmt == "binary":
        f = _binary(payload, 2 * n)
    elif fmt == "text":
        f = np.array([float(x) for x in payload.decode("utf-8").split()])
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if f.shape[0] != 2 * n:
        raise ValueError("payload length does not match p")
    f = _finite(f)
    return f[0::2] + 1j * f[1::2]


def write_signal(path, signal: Signal, kind: str, descriptor: dict | None = None,
                 fmt: str = "binary") -> None:
    payload = _encode_complex(signal.samples, signal.p.p, fmt)
    fields = {"p": signal.p.p, "kind": kind, "format": fmt}
    fields.update(descriptor or {})
    _write(path, SIGNAL_MAGIC, fields, payload)


def read_signal(path) -> tuple[Signal, dict]:
    header, payload, p = _read(path, SIGNAL_MAGIC)
    values = _decode_complex(payload, p, header.get("format", "binary"))
    return Signal(as_prime(p), values), header


def write_grid(path, p, magnitudes: np.ndarray, fmt: str = "csv") -> None:
    """p x p magnitude surface; row = tau, column = omega, (0,0) top-left."""
    pp = as_prime(p)
    m = np.asarray(magnitudes, dtype=np.float64)
    if m.shape != (pp.p, pp.p):
        raise ValueError(f"expected a {pp.p} x {pp.p} grid")
    if fmt == "binary":
        payload = m.astype("<f8").tobytes()
    elif fmt == "csv":
        payload = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in m).encode()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    _write(path, GRID_MAGIC, {"p": pp.p, "format": fmt}, payload)


def read_grid(path) -> tuple[np.ndarray, dict]:
    header, payload, p = _read(path, GRID_MAGIC)
    fmt = header.get("format", "csv")
    if fmt == "binary":
        m = _binary(payload, p * p).reshape(p, p).copy()
    elif fmt == "csv":
        rows = [r.split(",") for r in payload.decode("utf-8").strip().split("\n")]
        if len(rows) != p or any(len(r) != p for r in rows):
            raise ValueError("payload length does not match p")
        m = np.array([[float(x) for x in r] for r in rows])
    else:
        raise ValueError(f"unknown format {fmt!r}")
    as_prime(p)
    return _finite(m), header


def write_profile(path, profile: LineProfile, fmt: str = "binary") -> None:
    """One matched-filter line profile, complex values in line_points order."""
    line = profile.line
    payload = _encode_complex(profile.values, line.p.p, fmt)
    fields = {
        "p": line.p.p,
        "line": slope_token(line),
        "offset_tau": line.offset.tau,
        "offset_omega": line.offset.omega,
        "format": fmt,
    }
    _write(path, PROFILE_MAGIC, fields, payload)


def read_profile(path) -> tuple[LineProfile, dict]:
    header, payload, p = _read(path, PROFILE_MAGIC)
    values = _decode_complex(payload, p, header.get("format", "binary"))
    p = as_prime(p)
    off = PlanePoint(int(_field(header, "offset_tau")), int(_field(header, "offset_omega")), p)
    line = Line(parse_slope(_field(header, "line")), p, offset=off)
    return LineProfile(line, values), header
