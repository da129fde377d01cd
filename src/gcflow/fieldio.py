"""Field serialization: CSV and raw binary round trips."""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ConfigError
from .spectral import Grid, RealField

_MAGIC = b"GCF1"
_HEADER_SIZE = 32


def _check_count(path: str, d: int, M: int, found: int, exact: bool = True) -> None:
    """ConfigError unless `found` samples are (not `exact`: at least) the M^d
    of a d = 1 or 2 header; run before Grid.make allocates M^d values.  A d
    that Grid.make rejects is left to it: its M^d may itself be vast."""
    if d in (1, 2) and (found != M**d if exact else found < M**d):
        raise ConfigError(path, f"expected {M**d} samples, found {found}")


def save_csv(path: str, f: RealField, name: str = "field") -> None:
    """4-line header (d, L, M, field name), then one sample per line in
    row-major order."""
    g = f.grid
    with open(path, "w") as fh:
        fh.write(f"{g.d}\n{g.L!r}\n{g.M}\n{name}\n")
        for v in f.values.ravel(order="C"):
            fh.write(f"{float(v)!r}\n")


def load_csv(path: str) -> tuple[RealField, str]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 4:
        raise ConfigError(path, "truncated CSV field file")
    d, L, M, name = int(lines[0]), float(lines[1]), int(lines[2]), lines[3]
    _check_count(path, d, M, len(lines) - 4 - lines[4:].count(""))
    grid = Grid.make(d, L, M)
    vals = np.array([float(s) for s in lines[4:] if s], dtype=np.float64)
    return RealField(grid, vals.reshape(grid.shape)), name


def save_binary(path: str, f: RealField) -> None:
    """32-byte header (magic "GCF1", u32 d, u32 M, f64 L, zero padding), then
    M^d little-endian f64 values in row-major order."""
    g = f.grid
    header = _MAGIC + struct.pack("<IId", g.d, g.M, g.L)
    header += b"\x00" * (_HEADER_SIZE - len(header))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def load_binary(path: str) -> RealField:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_SIZE)
        if len(header) < _HEADER_SIZE or header[:4] != _MAGIC:
            raise ConfigError(path, "bad magic or truncated header")
        d, M, L = struct.unpack("<IId", header[4:20])
        held = (os.fstat(fh.fileno()).st_size - _HEADER_SIZE) // 8
        _check_count(path, d, M, held, exact=False)  # bytes past M^d samples are not read
        grid = Grid.make(int(d), float(L), int(M))
        data = fh.read(8 * M**d)
    vals = np.frombuffer(data, dtype="<f8")
    return RealField(grid, vals.reshape(grid.shape).astype(np.float64))
