"""Field serialization round trips and format checks."""

import struct
from pathlib import Path

import numpy as np
import pytest

from gcflow.errors import ConfigError
from gcflow.fieldio import load_binary, load_csv, save_binary, save_csv
from gcflow.spectral import Grid, RealField


@pytest.fixture
def field():
    grid = Grid.make(1, 1.0, 32)
    rng = np.random.default_rng(81)
    return RealField(grid, rng.standard_normal(grid.shape))


def test_csv_roundtrip_exact(tmp_path, field):
    p = str(tmp_path / "f.csv")
    save_csv(p, field, "density")
    g, name = load_csv(p)
    assert name == "density"
    assert g.grid == field.grid
    assert np.array_equal(g.values, field.values)


def test_csv_header(tmp_path, field):
    p = str(tmp_path / "f.csv")
    save_csv(p, field, "n")
    lines = Path(p).read_text().splitlines()
    assert lines[0] == "1" and lines[2] == "32" and lines[3] == "n"
    assert float(lines[1]) == 1.0
    assert len(lines) == 4 + 32


def test_binary_roundtrip_exact(tmp_path, field):
    p = str(tmp_path / "f.bin")
    save_binary(p, field)
    g = load_binary(p)
    assert g.grid == field.grid
    assert np.array_equal(g.values, field.values)


def test_binary_header_layout(tmp_path, field):
    p = str(tmp_path / "f.bin")
    save_binary(p, field)
    raw = Path(p).read_bytes()
    assert len(raw) == 32 + 8 * 32
    assert raw[:4] == b"GCF1"
    d, M, L = struct.unpack("<IId", raw[4:20])
    assert (d, M, L) == (1, 32, 1.0)
    assert raw[20:32] == b"\x00" * 12


def test_binary_2d_roundtrip(tmp_path):
    grid = Grid.make(2, 2.0, 16)
    rng = np.random.default_rng(82)
    f = RealField(grid, rng.standard_normal(grid.shape))
    p = str(tmp_path / "f2.bin")
    save_binary(p, f)
    g = load_binary(p)
    assert g.grid == grid
    assert np.array_equal(g.values, f.values)


def test_binary_bad_magic(tmp_path):
    p = str(tmp_path / "bad.bin")
    Path(p).write_bytes(b"NOPE" + b"\x00" * 300)
    with pytest.raises(ConfigError):
        load_binary(p)


def test_binary_truncated(tmp_path, field):
    p = str(tmp_path / "t.bin")
    save_binary(p, field)
    Path(p).write_bytes(Path(p).read_bytes()[:-16])
    with pytest.raises(ConfigError):
        load_binary(p)


def test_csv_wrong_count(tmp_path, field):
    p = str(tmp_path / "w.csv")
    save_csv(p, field)
    lines = Path(p).read_text().splitlines()
    Path(p).write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ConfigError):
        load_csv(p)


def _refuse_grid(monkeypatch):
    """Grid.make fails the test instead of allocating a grid."""
    def refuse(d, L, M):
        raise AssertionError(f"Grid.make({d}, {L}, {M}) called")
    monkeypatch.setattr(Grid, "make", staticmethod(refuse))


def test_binary_header_beyond_file_rejected_before_grid(tmp_path, monkeypatch):
    # a 96-byte file whose header claims d = 2, M = 2^20 (8 TiB of samples):
    # the count is compared with the file size before any grid is built
    p = str(tmp_path / "big.bin")
    Path(p).write_bytes(b"GCF1" + struct.pack("<IId", 2, 2**20, 1.0) + b"\x00" * 12
                        + b"\x00" * 64)
    _refuse_grid(monkeypatch)
    with pytest.raises(ConfigError, match=r"expected 1099511627776 samples, found 8"):
        load_binary(p)


def test_csv_header_beyond_file_rejected_before_grid(tmp_path, monkeypatch):
    p = str(tmp_path / "big.csv")
    Path(p).write_text("2\n1.0\n1048576\nn\n" + "1.0\n" * 8)
    _refuse_grid(monkeypatch)
    with pytest.raises(ConfigError, match=r"expected 1099511627776 samples, found 8"):
        load_csv(p)


def test_binary_bytes_past_samples_ignored(tmp_path, field):
    p = str(tmp_path / "long.bin")
    save_binary(p, field)
    with open(p, "ab") as fh:
        fh.write(b"\x01" * 13)
    assert np.array_equal(load_binary(p).values, field.values)
